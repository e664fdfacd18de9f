"""Binary model container: one header, then named float64 arrays.

Layout: 6-byte magic, little-endian uint32 format version, little-endian
uint32 header length, UTF-8 JSON header, then the raw bytes of every
array named in the header, little-endian float64 in C order.  The header
carries the window configuration, regularizer, kernel families and
bandwidths, the standardization transform, and the array manifest.

Only what training learned is stored: the seven window arrays of the
training data, under the kernels, regularizer and standardization the
header gives (format v4); every model parameter is derived from them.
Loading checks the header's fields and JSON types (numbers must be
finite) and the manifest's size against the file's, the kernels through
``KernelSpec``, then every window array and the standardization
transform against the header (row count, widths, finite values, kernel
dimensions, positive scales), each failure a ValueError naming the field,
and builds the model, report included, with
``learner.train_from_windows``, as training builds it.  Version 3 files
also stored the history weights, version 2 files the history weights and
the state Gram, and version 1 files those, the eight training Grams and
the start belief; they still load, and those arrays are read and ignored.
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
from hsepsr.windows import Standardizer, WindowConfig, WindowedData

MAGIC = b"HSEPSR"
FORMAT_VERSION = 4
_READABLE_VERSIONS = (1, 2, 3, FORMAT_VERSION)

_STANDARDIZER_FIELDS = ("action_mean", "action_scale", "obs_mean", "obs_scale")
_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))

#: Every header field with the JSON type ``save_model`` writes: a dict is an
#: object with these keys, [t] a list of t, [t, u] a pair; integers are
#: sizes, never negative.
_HEADER = {
    **dict.fromkeys(
        ("n_samples", "history_length", "test_length", "action_dim", "obs_dim"), int
    ),
    "lam": _NUMBER,
    "discrete": bool,
    "kernels": dict.fromkeys(
        STREAMS, {"family": str, "dimension": int, "bandwidth": _NUMBER_OR_NULL}
    ),
    "standardizer": dict.fromkeys(_STANDARDIZER_FIELDS, [_NUMBER]),
    "arrays": [[str, [int]]],
}
_TYPE_NAMES = {
    int: "a non-negative integer",
    _NUMBER: "a finite number",
    _NUMBER_OR_NULL: "a finite number or null",
    bool: "a boolean",
    str: "a string",
}

_WINDOW_ARRAYS = (
    "histories",
    "test_actions",
    "test_obs",
    "shifted_test_actions",
    "shifted_test_obs",
    "cur_actions",
    "cur_obs",
)


def save_model(model: HsePsrModel, path) -> None:
    """Write a trained model to ``path`` in the binary container format."""
    arrays = {name: getattr(model.windowed, name) for name in _WINDOW_ARRAYS}
    std = model.standardizer
    header = {
        "n_samples": model.n_samples,
        "history_length": model.config.history_length,
        "test_length": model.config.test_length,
        "action_dim": model.action_dim,
        "obs_dim": model.obs_dim,
        "lam": model.lam,
        "discrete": model.discrete,
        "kernels": {s: dataclasses.asdict(getattr(model.kernels, s)) for s in STREAMS},
        "standardizer": {k: getattr(std, k).tolist() for k in _STANDARDIZER_FIELDS},
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
    """isinstance, except that JSON booleans are not numbers, integers
    must not be negative, and a number where a float may stand must be a
    finite float: JSON's ``Infinity`` and ``NaN``, which Python's ``json``
    reads as floats, are not numbers here, nor is an integer too large for
    a float."""
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        return False
    if kind is int:
        return value >= 0
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


def _validate(header: dict, arrays: dict) -> None:
    """Check the arrays a model is built from against the header: T rows
    each, the widths the window lengths and stream dimensions imply, finite
    values, and kernel dimensions that match their streams; and the
    standardization vectors: stream-dimension lengths, finite values and
    positive scales.  Raises ValueError naming the offending array or
    field."""
    T = int(header["n_samples"])
    L, N = int(header["history_length"]), int(header["test_length"])
    da, do = int(header["action_dim"]), int(header["obs_dim"])
    shapes = {
        "histories": (T, L * (da + do)),
        "test_actions": (T, N * da),
        "test_obs": (T, N * do),
        "shifted_test_actions": (T, N * da),
        "shifted_test_obs": (T, N * do),
        "cur_actions": (T, da),
        "cur_obs": (T, do),
    }
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(
                f"model file array {name} has shape {arrays[name].shape}, "
                f"expected {shape} from the header"
            )
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"model file array {name} has non-finite values")
    for stream, name in STREAMS.items():
        dim = int(header["kernels"][stream]["dimension"])
        if dim != shapes[name][1]:
            raise ValueError(
                f"model file kernel {stream} has dimension {dim}, but array "
                f"{name} has width {shapes[name][1]}"
            )
    for key in ("action_mean", "action_scale", "obs_mean", "obs_scale"):
        dim = da if key.startswith("action") else do
        v = np.asarray(header["standardizer"][key], dtype=float)
        scale = key.endswith("scale")
        if v.shape != (dim,) or not np.isfinite(v).all() or (scale and not (v > 0).all()):
            raise ValueError(
                f"model file standardizer {key} must hold {dim} finite"
                + (" positive" if scale else "") + " values"
            )


def load_model(path) -> HsePsrModel:
    """Read a model container back into a usable model.

    The window arrays are validated against the header and the model is
    built from them by ``learner.train_from_windows``, so its report is
    the trained model's except for the stage times and ``truncated_from``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError("not a model file (bad magic)")
        version = struct.unpack("<I", _read_exact(fh, 4, "version"))[0]
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"unsupported model format version {version}")
        hlen = struct.unpack("<I", _read_exact(fh, 4, "header length"))[0]
        header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        _check(header, _HEADER)
        declared = sum(8 * math.prod(shape) for _, shape in header["arrays"])
        if declared < _bytes_left(fh):
            raise ValueError("model file has trailing bytes")
        arrays = {}
        for name, shape in header["arrays"]:
            raw = _read_exact(fh, 8 * math.prod(shape), f"array {name}")
            arrays[name] = np.frombuffer(raw, "<f8").reshape(shape).copy()

    missing = [n for n in _WINDOW_ARRAYS if n not in arrays]
    if missing:
        raise ValueError(f"model file is missing arrays: {', '.join(missing)}")
    _validate(header, arrays)

    kernels = {}
    for s in STREAMS:
        spec = header["kernels"][s]
        try:
            kernels[s] = KernelSpec(spec["family"], spec["dimension"], spec["bandwidth"])
        except ValueError as exc:
            raise ValueError(f"model file kernel {s}: {exc}") from None
    std = header["standardizer"]
    standardizer = Standardizer(
        **{k: np.asarray(std[k], dtype=float) for k in _STANDARDIZER_FIELDS}
    )
    windowed = WindowedData(
        config=WindowConfig(
            int(header["history_length"]), int(header["test_length"])
        ),
        standardizer=standardizer,
        discrete=bool(header["discrete"]),
        **{name: arrays[name] for name in _WINDOW_ARRAYS},
    )
    # looked up on the module, so that a wrapper installed there (perfbench's
    # tracer) times a load's build as it times training's
    return learner.train_from_windows(
        windowed, KernelSet(**kernels), float(header["lam"])
    )
