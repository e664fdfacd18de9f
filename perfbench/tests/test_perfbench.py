"""Self-tests of the benchmark: inputs, tracer, smoke runs, BENCHMARK.json.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import hsepsr.filter
import hsepsr.gramops
from perfbench import tracing, workloads
from perfbench.tests.conftest import ROOT

NAMES = tuple(workloads.WORKLOADS)


def _arrays(inputs):
    """Every array in a workload's inputs, in a fixed order."""
    out = []
    for key in sorted(inputs):
        value = inputs[key]
        for traj in value if isinstance(value, list) else [value]:
            if hasattr(traj, "actions"):
                out += [traj.actions, traj.observations]
    return out


@pytest.mark.parametrize("name", NAMES)
def test_inputs_depend_on_the_seed_only(name):
    wl = workloads.WORKLOADS[name](workloads.SMOKE)
    first, again, other = (_arrays(wl.inputs(s)) for s in (3, 3, 4))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(first, other)
    )


def test_tracer_restores_wrapped_attributes_when_the_block_raises():
    before = (hsepsr.filter.propagate, hsepsr.gramops.escalated_solve)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert hsepsr.filter.propagate is not before[0]
            raise RuntimeError("boom")
    assert (hsepsr.filter.propagate, hsepsr.gramops.escalated_solve) == before
    assert tracer.absent == []


def test_tracer_lists_a_missing_target_as_absent(monkeypatch):
    targets = tracing.TARGETS + (("hsepsr.filter", "no_such_stage"),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["hsepsr.filter.no_such_stage"]


def test_self_times_sum_to_the_root_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer", op="op-0"):
        with tracer.span("inner"):
            pass
    root = tracer.spans[0]
    assert sum(tracer.self_seconds().values()) == pytest.approx(
        root["end"] - root["start"]
    )


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_end_to_end_metric(name, tmp_path):
    result, info = workloads.run_untraced(name, 0, 0.2, str(tmp_path), workloads.SMOKE)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac" in info["report"] and "setup_s" in info["report"]


def test_traced_discrete_smoke_run_emits_every_per_layer_metric(tmp_path):
    before = hsepsr.filter.propagate
    result, info = workloads.run_traced("discrete", 0, 0.2, str(tmp_path), workloads.SMOKE)
    assert hsepsr.filter.propagate is before
    assert result["correct"], info
    assert set(result["metrics"]) == set(workloads.PER_LAYER)
    assert info["absent"] == [] and info["replay_gap"] <= workloads.REPLAY_TOL
    assert result["metrics"]["trace.self_frac"]["value"] <= 1.0
    assert (tmp_path / "trace-discrete-seed0.jsonl").is_file()


def test_discrete_check_fails_a_step_off_the_oracle():
    """Each readout is checked against the twin's step from the same belief:
    a gap of 1e-6 in one readout is one failed operation, not a skipped one."""
    wl = workloads.Discrete(workloads.SMOKE)
    inputs = wl.inputs(0)
    model, _ = wl.build(inputs, None)
    loop = wl.loop(model, inputs, None)
    for j in range(3):
        loop.tick()
        if j == 1:
            loop.dist = loop.dist + 1e-6
        loop.check()
    assert (loop.attempted, loop.failed) == (3, 1)
    assert 1e-7 < loop.oracle_gap < 1e-5


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == workloads.END_TO_END
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == {k: unit for k, (unit, _) in workloads.PER_LAYER.items()}


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
