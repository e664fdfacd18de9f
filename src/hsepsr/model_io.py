"""Binary model container: one header, then named float64 arrays.

Layout: 6-byte magic, little-endian uint32 format version, little-endian
uint32 header length, UTF-8 JSON header, then the raw bytes of every
array named in the header, little-endian float64 in C order.

A model is fully determined by the trajectory it was trained on, its
window lengths, kernels and regularizer, so that is what a file stores
(format v5): the header holds ``history_length``, ``test_length``,
``lam``, ``discrete``, the five kernels (family, dimension, bandwidth;
the bandwidths cannot be re-derived, since the kernel family and
bandwidth scale training was given are not stored), ``truncated_from``
and the array manifest, and the two arrays are the raw ``actions`` and
``observations`` training windowed, after the ``max_samples`` cut
(``truncated_from`` is the sample count T before it, or null).

Loading checks the header's fields and JSON types (``_check``: numbers
must be finite, sizes non-negative) and the manifest against the file's
size, then runs training's own steps on what it read: ``KernelSpec``
checks each kernel, ``Trajectory`` the steps (equal lengths, finite
values), ``build_windows`` the length against the windows and refits the
standardization, and ``learner.train_from_windows`` the regularizer, the
kernel widths against their streams, and builds the model, report
included, whose T a stored ``truncated_from`` must exceed.  Every
ValueError a load raises names the file.  Only version 5 files load.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys

import numpy as np

from hsepsr import learner
from hsepsr.kernels import KernelSet, KernelSpec
from hsepsr.learner import STREAMS, HsePsrModel
from hsepsr.windows import Trajectory, WindowConfig, build_windows

MAGIC = b"HSEPSR"
FORMAT_VERSION = 5

_ARRAYS = ("actions", "observations")
_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))
_SIZE_OR_NULL = (int, type(None))

#: Every header field with the JSON type ``save_model`` writes: a dict is an
#: object with these keys, [t] a list of t, [t, u] a pair; integers are
#: sizes, never negative.
_HEADER = {
    "history_length": int,
    "test_length": int,
    "lam": _NUMBER,
    "discrete": bool,
    "kernels": dict.fromkeys(
        STREAMS, {"family": str, "dimension": int, "bandwidth": _NUMBER_OR_NULL}
    ),
    "truncated_from": _SIZE_OR_NULL,
    "arrays": [[str, [int]]],
}
_TYPE_NAMES = {
    int: "a non-negative integer",
    _SIZE_OR_NULL: "a non-negative integer or null",
    _NUMBER: "a finite number",
    _NUMBER_OR_NULL: "a finite number or null",
    bool: "a boolean",
    str: "a string",
}


def save_model(model: HsePsrModel, path) -> None:
    """Write a trained model to ``path`` in the binary container format."""
    traj = model.windowed.trajectory
    arrays = {"actions": traj.actions, "observations": traj.observations}
    header = {
        "history_length": model.config.history_length,
        "test_length": model.config.test_length,
        "lam": model.lam,
        "discrete": model.discrete,
        "kernels": {s: dataclasses.asdict(getattr(model.kernels, s)) for s in STREAMS},
        "truncated_from": model.report.truncated_from,
        "arrays": [[name, list(a.shape)] for name, a in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read n bytes; a file holding fewer is reported as truncated before
    any of them are allocated."""
    if n > _bytes_left(fh):
        raise ValueError(f"model file truncated while reading {what}")
    return fh.read(n)


def _is(value, kind) -> bool:
    """isinstance, except that JSON booleans are not numbers, sizes
    must not be negative, and a number where a float may stand must be a
    finite float: JSON's ``Infinity`` and ``NaN``, which Python's ``json``
    reads as floats, are not numbers here, nor is an integer too large for
    a float."""
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        return False
    if kind in (int, _SIZE_OR_NULL):
        return value is None or value >= 0
    return not isinstance(value, _NUMBER) or abs(value) <= sys.float_info.max


def _check(value, schema, name: str = "header") -> None:
    """Raise ValueError naming the first part of ``value`` that is missing
    or not of the type ``schema`` (see ``_HEADER``) gives it."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValueError(f"model file {name} must be a JSON object")
        for key, sub in schema.items():
            if key not in value:
                raise ValueError(f"model file {name}.{key} is missing")
            _check(value[key], sub, f"{name}.{key}")
    elif isinstance(schema, list):
        if not isinstance(value, list) or len(schema) > 1 and len(value) != len(schema):
            size = f" of {len(schema)}" if len(schema) > 1 else ""
            raise ValueError(f"model file {name} must be a list{size}")
        for i, item in enumerate(value):
            _check(item, schema[i] if len(schema) > 1 else schema[0], f"{name}[{i}]")
    elif not _is(value, schema):
        raise ValueError(
            f"model file {name} must be {_TYPE_NAMES[schema]}, got {json.dumps(value)}"
        )


def _read(path) -> tuple[dict, dict]:
    """The checked header and the arrays of the model file at ``path``."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError("not a model file (bad magic)")
        version = struct.unpack("<I", _read_exact(fh, 4, "version"))[0]
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        hlen = struct.unpack("<I", _read_exact(fh, 4, "header length"))[0]
        header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        _check(header, _HEADER)
        if [name for name, _ in header["arrays"]] != list(_ARRAYS):
            raise ValueError(f"model file arrays must be {' and '.join(_ARRAYS)}")
        declared = sum(8 * math.prod(shape) for _, shape in header["arrays"])
        if declared < _bytes_left(fh):
            raise ValueError("model file has trailing bytes")
        arrays = {}
        for name, shape in header["arrays"]:
            raw = _read_exact(fh, 8 * math.prod(shape), f"array {name}")
            arrays[name] = np.frombuffer(raw, "<f8").reshape(shape).copy()
    return header, arrays


def load_model(path) -> HsePsrModel:
    """Read a model container back into a usable model.

    The stored trajectory is windowed and the model built from it as
    training builds it, so that the loaded model is the trained one bit
    for bit, its report included except for the stage times.  A malformed
    file raises ValueError naming ``path``.
    """
    try:
        header, arrays = _read(path)
        kernels = {}
        for s in STREAMS:
            k = header["kernels"][s]
            try:
                kernels[s] = KernelSpec(k["family"], k["dimension"], k["bandwidth"])
            except ValueError as exc:
                raise ValueError(f"model file kernel {s}: {exc}") from None
        traj = Trajectory(**arrays, discrete=header["discrete"])
        config = WindowConfig(header["history_length"], header["test_length"])
        # looked up on the module, so that a wrapper installed there
        # (perfbench's tracer) times a load's build as it times training's
        model = learner.train_from_windows(
            build_windows(traj, config), KernelSet(**kernels), float(header["lam"])
        )
        model.report.truncated_from = cut = header["truncated_from"]
        if cut is not None and cut <= model.n_samples:
            raise ValueError(
                f"model file truncated_from {cut} must exceed T = {model.n_samples}"
            )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model
