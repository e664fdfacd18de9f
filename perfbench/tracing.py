"""In-memory span tracer that wraps module attributes for one traced run.

A span is (id, name, layer, start, end, parent, op): ``layer`` is the
package module the wrapped function lives in (or ``bench`` for spans the
benchmark opens around its own calls), ``parent`` the span open when it
started, and ``op`` the benchmark operation (setup, tick, protocol call)
that caused it.  Spans stay in memory and are written out once at the end.

Wrapping replaces attributes on the modules and classes named in
``TARGETS`` for the duration of a ``with tracer:`` block and restores the
originals on exit, also when the block raises.  A target that no longer
exists is listed in ``Tracer.absent`` instead of raising, so the benchmark
keeps running after a refactor renames it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

#: (module, attribute path) pairs wrapped during a traced run.  Names that
#: other modules import by value are wrapped where they are looked up.
TARGETS = (
    ("hsepsr.learner", "train"),
    ("hsepsr.learner", "train_from_windows"),
    ("hsepsr.learner", "HsePsrModel.action_conditioning_flat"),
    ("hsepsr.learner", "HsePsrModel.state_conditioning_flat"),
    ("hsepsr.model_io", "save_model"),
    ("hsepsr.model_io", "load_model"),
    ("hsepsr.filter", "update"),
    ("hsepsr.filter", "update_standardized"),
    ("hsepsr.filter", "propagate"),
    ("hsepsr.filter", "condition_action"),
    ("hsepsr.filter", "condition_observation"),
    ("hsepsr.filter", "_condition_action_k"),
    ("hsepsr.filter", "_condition_observation_k"),
    ("hsepsr.filter", "propagate_many"),
    ("hsepsr.filter", "condition_action_many"),
    ("hsepsr.filter", "condition_observation_many"),
    ("hsepsr.filter", "kbr_step_batch"),
    ("hsepsr.predict", "rollout_predict"),
    ("hsepsr.predict", "condition_test_actions_many"),
    ("hsepsr.predict", "update_standardized_many"),
    ("hsepsr.predict", "kbr_step_batch"),
    ("hsepsr.gramops", "escalated_solve"),
    ("hsepsr.simbench.benchmark", "filter_trajectory"),
    ("hsepsr.simbench.benchmark", "rollout_predict_many"),
    ("hsepsr.simbench.simulate", "simulate_system"),
    ("hsepsr.simbench.discrete", "sample_trajectory"),
)


def _layer_of(module: str) -> str:
    """'hsepsr.simbench.benchmark' -> 'simbench', 'hsepsr.filter' -> 'filter'."""
    return module.split(".")[1]


class Tracer:
    """Collects spans while active; reusable across several ``with`` blocks."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.escalations = 0
        self._stack: list[int] = []
        self._op = None
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Benchmark-side span; ``op`` starts a new operation id."""
        previous = self._op
        if op is not None:
            self._op = op
        s = self._open(name, "bench")
        try:
            yield s
        finally:
            self._close(s)
            self._op = previous

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        if name == "gramops.escalated_solve":
            return self._wrap_solve(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if name == "predict.update_standardized_many":
                # rows reset to the uniform restart are otherwise silent
                W = np.asarray(out)
                s["resets"] = int(np.all(W == 1.0 / W.shape[1], axis=1).sum())
            elif name == "simbench.filter_trajectory":
                s["resets"] = len(out.resets)
            return out

        return traced

    def _wrap_solve(self, fn):
        """Record the solve label and count escalations, supplying a
        recording events list where the caller passed none."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            events = kwargs.get("events")
            if events is None:
                events = kwargs["events"] = []
            before = len(events)
            label = str(kwargs.get("label", "solve")).split("[")[0]
            s = tracer._open("gramops.escalated_solve", "gramops", label=label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(s)
                tracer.escalations += len(events) - before

        return traced

    def __enter__(self):
        for module_name, path in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                label = f"{module_name}.{path}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            layer = _layer_of(module_name)
            name = f"{layer}.{path.split('.')[-1]}"
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis --------------------------------------------------------------

    def select(
        self, names, *, setup: bool = False, op_prefix: str = "", **match
    ) -> list[dict]:
        """Closed spans named in ``names`` none of whose ancestors is, so a
        public stage calling its private twin counts once.  Spans of the
        set-up operation are left out unless ``setup`` is set, and spans of
        operations whose id lacks ``op_prefix`` always; ``match`` filters on
        span attributes such as ``label``."""
        names = {names} if isinstance(names, str) else set(names)
        by_id = {s["id"]: s for s in self.spans}
        out = []
        for s in self.spans:
            if s["name"] not in names or s["end"] is None:
                continue
            if (s["op"] == "setup") != setup or not str(s["op"]).startswith(op_prefix):
                continue
            if any(s.get(k) != v for k, v in match.items()):
                continue
            parent = s["parent"]
            while parent is not None and by_id[parent]["name"] not in names:
                parent = by_id[parent]["parent"]
            if parent is None:
                out.append(s)
        return out

    def durations(self, names, **kwargs) -> list[float]:
        """Durations in seconds of ``select(names, **kwargs)``."""
        return [s["end"] - s["start"] for s in self.select(names, **kwargs)]

    def self_seconds(self) -> dict:
        """Per-layer self time: span duration minus its children's."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
