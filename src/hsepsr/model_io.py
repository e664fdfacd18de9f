"""Binary model container: one header, then named float64 arrays.

Layout: 6-byte magic, little-endian uint32 format version, little-endian
uint32 header length, UTF-8 JSON header, then the raw bytes of every
array named in the header, little-endian float64 in C order.  The header
carries the window configuration, regularizer, kernel families and
bandwidths, the standardization transform, and the array manifest.

Only what training learned is stored: the windowed training data and the
per-history weight matrix (format v3).  Loading checks every array and the
standardization transform against the header (row count, widths, finite
values, kernel dimensions, positive scales), then rebuilds the rest with
``learner.build_model``, as training builds it.  Version 2 files also
stored the state Gram, and version 1 files the state Gram, the eight
training Grams and the start belief; they still load, and those arrays
are read and ignored.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from hsepsr.kernels import KernelSet, KernelSpec
from hsepsr.learner import HsePsrModel, build_model
from hsepsr.windows import Standardizer, WindowConfig, WindowedData

MAGIC = b"HSEPSR"
FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, FORMAT_VERSION)

_WINDOW_ARRAYS = (
    "histories",
    "test_actions",
    "test_obs",
    "shifted_test_actions",
    "shifted_test_obs",
    "cur_actions",
    "cur_obs",
)


def _collect_arrays(model: HsePsrModel) -> dict:
    arrays = {name: getattr(model.windowed, name) for name in _WINDOW_ARRAYS}
    arrays["history_state_weights"] = model.history_state_weights
    return arrays


def save_model(model: HsePsrModel, path) -> None:
    """Write a trained model to ``path`` in the binary container format."""
    arrays = _collect_arrays(model)
    std = model.standardizer
    header = {
        "n_samples": model.n_samples,
        "history_length": model.config.history_length,
        "test_length": model.config.test_length,
        "action_dim": model.action_dim,
        "obs_dim": model.obs_dim,
        "lam": model.lam,
        "discrete": model.discrete,
        "kernels": {
            stream: {
                "family": spec.family,
                "dimension": spec.dimension,
                "bandwidth": spec.bandwidth,
            }
            for stream, spec in (
                ("history", model.kernels.history),
                ("test_action", model.kernels.test_action),
                ("test_obs", model.kernels.test_obs),
                ("action", model.kernels.action),
                ("obs", model.kernels.obs),
            )
        },
        "standardizer": {
            "action_mean": std.action_mean.tolist(),
            "action_scale": std.action_scale.tolist(),
            "obs_mean": std.obs_mean.tolist(),
            "obs_scale": std.obs_scale.tolist(),
        },
        "arrays": [[name, list(a.shape)] for name, a in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"model file truncated while reading {what}")
    return data


def _validate(header: dict, arrays: dict) -> None:
    """Check the arrays a model is rebuilt from against the header: T rows
    each, the widths the window lengths and stream dimensions imply, (T, T)
    history weights, finite values, and kernel dimensions that match their
    streams; and the standardization vectors: stream-dimension lengths,
    finite values and positive scales.  Raises ValueError naming the
    offending array or field."""
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
        "history_state_weights": (T, T),
    }
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(
                f"model file array {name} has shape {arrays[name].shape}, "
                f"expected {shape} from the header"
            )
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"model file array {name} has non-finite values")
    streams = {
        "history": "histories",
        "test_action": "test_actions",
        "test_obs": "test_obs",
        "action": "cur_actions",
        "obs": "cur_obs",
    }
    for stream, name in streams.items():
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

    The training report is not part of the container; the arrays are
    validated against the header and the model is rebuilt from them by
    ``build_model``.
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
        arrays = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, 8 * count, f"array {name}")
            arrays[name] = np.frombuffer(raw, "<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError("model file has trailing bytes")

    missing = [n for n in _WINDOW_ARRAYS + ("history_state_weights",) if n not in arrays]
    if missing:
        raise ValueError(f"model file is missing arrays: {', '.join(missing)}")
    _validate(header, arrays)

    kernels = KernelSet(
        **{
            stream: KernelSpec(
                entry["family"],
                int(entry["dimension"]),
                None if entry["bandwidth"] is None else float(entry["bandwidth"]),
            )
            for stream, entry in header["kernels"].items()
        }
    )
    std_raw = header["standardizer"]
    standardizer = Standardizer(
        action_mean=np.asarray(std_raw["action_mean"], dtype=float),
        action_scale=np.asarray(std_raw["action_scale"], dtype=float),
        obs_mean=np.asarray(std_raw["obs_mean"], dtype=float),
        obs_scale=np.asarray(std_raw["obs_scale"], dtype=float),
    )
    windowed = WindowedData(
        config=WindowConfig(
            int(header["history_length"]), int(header["test_length"])
        ),
        standardizer=standardizer,
        discrete=bool(header["discrete"]),
        **{name: arrays[name] for name in _WINDOW_ARRAYS},
    )
    return build_model(
        windowed, kernels, float(header["lam"]), arrays["history_state_weights"]
    )
