"""The three benchmark workloads and the metrics measured on them.

Every workload is a closed loop with one caller in one process: the next
operation starts when the previous one has returned.  Inputs are generated
from the seed alone and handed to ``hsepsr`` through its public functions,
always looked up on their modules at call time so a traced run can wrap
them.  Input generation and the reference filters used to check outputs
are never inside a timed region.

online    ODE system, T=160, L=N=10, lam 1e-3.  Set-up is train -> save ->
          load -> first update; each tick absorbs one held-out pair with
          ``update`` and predicts horizons 1..10 with ``rollout_predict``.
          Single-belief filter, model-file round trip, lazy cache rebuild.
rollout   Same data and settings, trained in process.  Each operation is
          one ``run_protocol`` call over 16 consecutive extents from 101
          with horizons 1..10, 20, 50, 100, so the row-batched rollout
          (91 levels) does most of the work.
discrete  ``default_system()`` with exact-match kernels, L=N=1, T=240,
          lam 1/T.  Each tick is one filter step over held-out 210-step
          probes with the stages ``gram_filter_distributions`` uses, and
          every readout is checked against ``explicit_filter`` and
          ``exact_filter``.  Same filter layers on Grams of rank 2-6.

T is set so that 5 set-ups plus a 25 s measurement fit in about 40 s on
a 2-core host; the ODE model at this T predicts far worse than at the
reference T=480 (see perfbench/README.md).
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass

import numpy as np

import hsepsr.filter
import hsepsr.learner
import hsepsr.model_io
import hsepsr.predict
import hsepsr.simbench.benchmark
import hsepsr.simbench.discrete
import hsepsr.simbench.oracle
import hsepsr.simbench.simulate
from hsepsr.windows import Trajectory, WindowConfig
from perfbench.tracing import Tracer

ODE_LAM = 1e-3
EXTENT_START = 101
BURN_IN = 10
#: Largest accepted gap between a Gram-path step and the feature-space
#: twin's step from the same belief, scaled by the readout's magnitude
#: where that exceeds 1, as the dual-path test in
#: tests/test_discrete_oracle.py scales it: a belief blown up by
#: renormalizing over a near-zero sum gives readouts far outside [0, 1].
ORACLE_TOL = 1e-8
#: Largest accepted gap between a traced and an untraced replay.
REPLAY_TOL = 1e-12
#: rollout_predict calls the traced run makes on the single-belief window
#: path of every workload, so its per-layer timings exist everywhere.
PROBE_WINDOWS = 5


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE a seconds-long check."""

    ode_samples: int
    ode_window: int
    online_steps: int
    extents: int
    discrete_samples: int
    probe_steps: int
    probes: int
    setups: int
    min_ops: int


FULL = Sizes(
    ode_samples=160, ode_window=10, online_steps=1000, extents=16,
    discrete_samples=240, probe_steps=210, probes=8, setups=5, min_ops=3,
)
SMOKE = Sizes(
    ode_samples=24, ode_window=3, online_steps=60, extents=2,
    discrete_samples=24, probe_steps=30, probes=2, setups=1, min_ops=2,
)

#: End-to-end metrics printed with ``--trace 0`` (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics printed with ``--trace 1``: name -> (unit, the
#: end-to-end metric it should move and on which workloads).
PER_LAYER = {
    "learner.train_s": ("s", "setup_s, all"),
    "learner.grams_s": ("s", "setup_s, all"),
    "learner.history_weights_s": ("s", "setup_s, all"),
    "learner.conditioning_s": ("s", "setup_s, all"),
    "learner.state_gram_s": ("s", "setup_s, all"),
    "learner.solve_escalations": ("count", "setup_s, all"),
    "learner.first_update_s": ("s", "setup_s, all (both caches on online)"),
    "learner.model_mb": ("MB", "peak_rss_mb, all"),
    "model_io.save_s": ("s", "setup_s on online; no change elsewhere"),
    "model_io.load_s": ("s", "setup_s on online; no change elsewhere"),
    "model_io.file_mb": ("MB", "setup_s on online; no change elsewhere"),
    "filter.update_p50_ms": ("ms", "op_* on online, discrete; rollout via prefix"),
    "filter.propagate_p50_ms": ("ms", "op_* on online, discrete; rollout via prefix"),
    "filter.condition_action_p50_ms": ("ms", "op_* on online, discrete; rollout via prefix"),
    "filter.condition_observation_p50_ms": ("ms", "op_* on online, discrete; rollout via prefix"),
    "filter.resets": ("count", "op_* and quality, all"),
    "filter.propagate_many_p50_ms": ("ms", "op_* on rollout; no change elsewhere"),
    "filter.condition_action_many_p50_ms": ("ms", "op_* on rollout; no change elsewhere"),
    "filter.condition_observation_many_p50_ms": ("ms", "op_* on rollout; no change elsewhere"),
    "predict.window_p50_ms": ("ms", "op_* on online; no change elsewhere"),
    "predict.condition_test_actions_many_p50_ms": ("ms", "op_* on rollout; no change elsewhere"),
    "predict.level_p50_ms": ("ms", "op_* on rollout; no change elsewhere"),
    "predict.rollout_many_s": ("s", "op_* on rollout; no change elsewhere"),
    "predict.rollout_resets": ("count", "mse on rollout; no change elsewhere"),
    "gramops.solve.shift-conditional.calls_per_op": ("count", "op_*, all"),
    "gramops.solve.shift-conditional.p50_ms": ("ms", "op_*, all"),
    "gramops.solve.propagate.calls_per_op": ("count", "op_*, all"),
    "gramops.solve.propagate.p50_ms": ("ms", "op_*, all"),
    "gramops.solve.obs-conditioning.calls_per_op": ("count", "op_*, all"),
    "gramops.solve.obs-conditioning.p50_ms": ("ms", "op_*, all"),
    "gramops.solve.window-conditioning.calls_per_op": ("count", "op_* on online"),
    "gramops.solve.window-conditioning.p50_ms": ("ms", "op_* on online"),
    "gramops.kbr_step_batch.p50_ms": ("ms", "op_* on rollout"),
    "gramops.escalations": ("count", "op_* and failures, all"),
    "simbench.simulate_s": ("s", "none (input generation is untimed)"),
    "simbench.prefix_filter_s": ("s", "op_* on rollout"),
    "bench.self_s": ("s", "none (benchmark's own code)"),
    "learner.self_s": ("s", "setup_s, all"),
    "model_io.self_s": ("s", "setup_s on online"),
    "filter.self_s": ("s", "op_*, all"),
    "predict.self_s": ("s", "op_* on online, rollout"),
    "gramops.self_s": ("s", "setup_s and op_*, all"),
    "simbench.self_s": ("s", "op_* on rollout"),
    "trace.wall_s": ("s", "none (traced wall time)"),
    "trace.self_frac": ("ratio", "none (self times over traced wall time)"),
    "trace.overhead_frac": ("ratio", "none (traced over untraced pass, minus 1)"),
}

SOLVE_LABELS = ("shift-conditional", "propagate", "obs-conditioning", "window-conditioning")
LAYERS = ("bench", "learner", "model_io", "filter", "predict", "gramops", "simbench")


def _subseed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _p50_ms(durations) -> float:
    return 1000.0 * statistics.median(durations) if durations else 0.0


# --- online -------------------------------------------------------------------


class OnlineLoop:
    """Ticks over a held-out stream, restarting from the feasible state
    when the stream is used up."""

    def __init__(self, model, test: Trajectory, tracer: Tracer | None):
        self.model, self.tracer = model, tracer
        self.A, self.O = test.actions, test.observations
        self.N = model.config.test_length
        self.t = 0
        self.state = model.feasible_state()
        self.pred = None
        self.attempted = self.failed = self.updates = self.resets = 0
        self.sq = np.zeros(self.N)
        self.scored = 0
        self.errors: list[str] = []

    def _update(self, a, o):
        m = self.model
        if self.tracer is None:
            return hsepsr.filter.update(m, self.state, a, o, renormalize=True)
        with self.tracer.span("update"):
            w = hsepsr.filter.propagate(m, self.state)
            w = hsepsr.filter.condition_action(m, w, a)
            return hsepsr.filter.condition_observation(m, w, o, renormalize=True)

    def tick(self) -> None:
        m, t, N = self.model, self.t, self.N
        self.pred = None
        try:
            state = self._update(self.A[t], self.O[t])
            self.updates += 1
            if state.degenerate:
                self.resets += 1
                state = m.feasible_state()
            self.state = state
            self.pred = hsepsr.predict.rollout_predict(
                m, state, self.A[t + 1 : t + 1 + N],
                horizons=range(1, N + 1), renormalize=True,
            ).predictions
        except Exception as exc:  # a raising tick is a failed operation
            self.errors.append(repr(exc))
            self.state = m.feasible_state()

    def check(self) -> None:
        t, N = self.t, self.N
        self.attempted += 1
        pred = self.pred
        ok = (
            pred is not None
            and pred.shape == (N, self.model.obs_dim)
            and np.isfinite(pred).all()
            and np.isfinite(self.state.weights).all()
        )
        if ok:
            self.sq += ((pred - self.O[t + 1 : t + 1 + N]) ** 2).sum(axis=1)
            self.scored += 1
        else:
            self.failed += 1
        self.t = t + 1
        if self.t + N >= len(self.O):
            self.t = 0
            self.state = self.model.feasible_state()

    def finish(self) -> None:
        pass

    def fingerprint(self) -> np.ndarray:
        last = self.pred if self.pred is not None else np.full(1, np.nan)
        return np.concatenate([self.state.weights, last.ravel()])

    def quality(self) -> dict:
        mse = self.sq / max(self.scored, 1)
        return {
            "mse_h1": (float(mse[0]), "obs^2"),
            f"mse_h{self.N}": (float(mse[-1]), "obs^2"),
            "reset_frac": (self.resets / max(self.updates, 1), "ratio"),
        }


class Online:
    name = "online"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def inputs(self, seed: int) -> dict:
        return _ode_inputs(seed, self.sizes, self.sizes.online_steps)

    def build(self, inputs: dict, workdir) -> tuple:
        model = _train_ode(inputs["train"], self.sizes)
        report = model.report
        path = os.path.join(workdir, f"online-{os.getpid()}.model")
        try:
            hsepsr.model_io.save_model(model, path)
            del model
            return hsepsr.model_io.load_model(path), report
        finally:
            os.remove(path)

    def loop(self, model, inputs: dict, tracer) -> OnlineLoop:
        return OnlineLoop(model, inputs["test"], tracer)


# --- rollout ------------------------------------------------------------------


class RolloutLoop:
    """Repeats one protocol call; every call must give the first's MSE."""

    def __init__(self, model, test: Trajectory, extents: list):
        self.model, self.test, self.extents = model, test, extents
        self.table = None
        self.first = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def tick(self) -> None:
        self.table = None
        try:
            self.table = hsepsr.simbench.benchmark.run_protocol(
                self.model, self.test, extents=self.extents,
                horizons=hsepsr.simbench.benchmark.DESK_HORIZONS,
                renormalize=True,
            )
        except Exception as exc:  # a raising call fails all its extents
            self.errors.append(repr(exc))

    def check(self) -> None:
        n = len(self.extents)
        self.attempted += n
        table = self.table
        ok = table is not None and np.isfinite(table.mse).all()
        if ok and self.first is None:
            self.first = table
        ok = ok and np.array_equal(table.mse, self.first.mse)
        if not ok:
            self.failed += n

    def finish(self) -> None:
        pass

    def fingerprint(self) -> np.ndarray:
        return self.first.mse if self.first is not None else np.full(1, np.nan)

    def quality(self) -> dict:
        table = self.first
        out = {}
        for h in (1, 10, 100):
            value = table.at(h) if table is not None else float("nan")
            out[f"mse_h{h}"] = (value, "obs^2")
        return out


class Rollout:
    name = "rollout"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def inputs(self, seed: int) -> dict:
        max_h = max(hsepsr.simbench.benchmark.DESK_HORIZONS)
        return _ode_inputs(seed, self.sizes, EXTENT_START + self.sizes.extents + max_h)

    def build(self, inputs: dict, workdir) -> tuple:
        model = _train_ode(inputs["train"], self.sizes)
        return model, model.report

    def loop(self, model, inputs: dict, tracer) -> RolloutLoop:
        extents = list(range(EXTENT_START, EXTENT_START + self.sizes.extents))
        return RolloutLoop(model, inputs["test"], extents)


# --- discrete -----------------------------------------------------------------


class _StartAt:
    """An ``ExplicitModel`` whose filter starts from the given weights."""

    def __init__(self, explicit, weights: np.ndarray):
        self._explicit, self._weights = explicit, weights

    def __getattr__(self, name):
        return getattr(self._explicit, name)

    def feasible_weights(self) -> np.ndarray:
        return self._weights.copy()


class DiscreteLoop:
    """Filter steps over the probes in turn.  Each step's readout is checked
    against one step of the feature-space twin from the same belief; the
    twin run over the whole probe is reported, not checked, because the
    recursion amplifies rounding (gaps of 1e-10 grow to 1e-8 within one
    near-degenerate step) while each single step agrees to about 1e-12."""

    def __init__(self, model, probes: list, system, tracer):
        oracle = hsepsr.simbench.oracle
        self.model, self.probes, self.system, self.tracer = model, probes, system, tracer
        codec = oracle.OneHotCodec(model.cur_obs)
        self.indicators = codec.encode_many(model.cur_obs)
        # observed symbols scatter into the system's full symbol range,
        # as convergence_curve does
        self.cols = np.rint(model.standardizer.inverse_obs(codec.vocab).ravel()).astype(int)
        self.explicit = oracle.train_explicit(model.windowed, model.lam)
        self.references: dict[int, tuple] = {}
        self.k = self.j = 0
        self.state = model.feasible_state()
        self.dists = np.full((len(probes[0].actions), codec.size), np.nan)
        self.dist = None
        self.start = self.state.weights
        self.readouts: list = []
        self.attempted = self.failed = self.updates = self.resets = 0
        self.oracle_gap = self.traj_gap = 0.0
        self.readout_max = 0.0
        self.tv_sum = 0.0
        self.tv_count = 0
        self.oracle_s = self.exact_s = 0.0
        self.errors: list[str] = []

    def _step(self, a, o):
        m, f = self.model, hsepsr.filter
        w = f.propagate(m, self.state)
        w = f.condition_action(m, w, a)
        dist = self.indicators @ w
        return dist, f.condition_observation(m, w, o, renormalize=True)

    def tick(self) -> None:
        probe = self.probes[self.k]
        a, o = probe.actions[self.j], probe.observations[self.j]
        self.dist = None
        self.start = self.state.weights
        try:
            if self.tracer is None:
                dist, state = self._step(a, o)
            else:
                with self.tracer.span("update"):
                    dist, state = self._step(a, o)
            self.updates += 1
            if state.degenerate:
                self.resets += 1
                state = self.model.feasible_state()
            self.state, self.dist = state, dist
        except Exception as exc:  # a raising step is a failed operation
            self.errors.append(repr(exc))
            self.state = self.model.feasible_state()

    def check(self) -> None:
        probe, j = self.probes[self.k], self.j
        t0 = time.perf_counter()
        twin = hsepsr.simbench.oracle.explicit_filter(
            _StartAt(self.explicit, self.start),
            probe.actions[j:j + 1], probe.observations[j:j + 1], renormalize=True,
        ).distributions[0]
        self.oracle_s += time.perf_counter() - t0
        dist = np.full_like(twin, np.nan) if self.dist is None else self.dist
        gap = float(np.abs(dist - twin).max())
        scale = max(1.0, float(np.abs(twin).max()))
        self.attempted += 1
        if not (np.isfinite(dist).all() and gap <= ORACLE_TOL * scale):
            self.failed += 1
        if np.isfinite(gap):
            self.oracle_gap = max(self.oracle_gap, gap)
        self.readout_max = max(self.readout_max, scale)
        self.dists[j] = dist
        self.readouts.append(dist.copy())
        self.j += 1
        if self.j == len(self.dists):
            self._close_pass()

    def finish(self) -> None:
        if self.j:
            self._close_pass()

    def _reference(self, k: int) -> tuple:
        if k not in self.references:
            probe = self.probes[k]
            t0 = time.perf_counter()
            twin = hsepsr.simbench.oracle.explicit_filter(
                self.explicit, probe.actions, probe.observations, renormalize=True
            )
            t1 = time.perf_counter()
            exact = hsepsr.simbench.discrete.exact_filter(
                self.system, probe.actions, probe.observations
            )
            self.oracle_s += t1 - t0
            self.exact_s += time.perf_counter() - t1
            self.references[k] = (twin.distributions, exact.predicted_obs)
        return self.references[k]

    def _close_pass(self) -> None:
        n = self.j
        twin, exact = self._reference(self.k)
        dists = self.dists[:n]
        gap = np.abs(dists - twin[:n]).max(axis=1)
        if np.isfinite(gap).any():
            self.traj_gap = max(self.traj_gap, float(np.nanmax(gap)))
        if n > BURN_IN:
            norm = hsepsr.simbench.oracle.normalize_distributions(dists[BURN_IN:])
            full = np.zeros((n - BURN_IN, self.system.n_obs))
            full[:, self.cols] = norm
            tv = 0.5 * np.abs(full - exact[BURN_IN:n]).sum(axis=1)
            self.tv_sum += float(tv.sum())
            self.tv_count += n - BURN_IN
        self.k = (self.k + 1) % len(self.probes)
        self.j = 0
        self.state = self.model.feasible_state()
        self.dists[:] = np.nan

    def fingerprint(self) -> np.ndarray:
        return np.concatenate([self.state.weights, np.ravel(self.readouts)])

    def quality(self) -> dict:
        return {
            "tv_exact": (self.tv_sum / max(self.tv_count, 1), "ratio"),
            "oracle_gap": (self.oracle_gap, "prob"),
            "oracle_traj_gap": (self.traj_gap, "prob"),
            "readout_max_abs": (self.readout_max, "prob"),
            "reset_frac": (self.resets / max(self.updates, 1), "ratio"),
            "oracle_s": (self.oracle_s, "s"),
            "exact_filter_s": (self.exact_s, "s"),
        }


class Discrete:
    name = "discrete"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def inputs(self, seed: int) -> dict:
        s = self.sizes
        system = hsepsr.simbench.discrete.default_system()
        sample = hsepsr.simbench.discrete.sample_trajectory
        train = sample(system, s.discrete_samples + 2, seed=_subseed(seed, 0))
        probes = [
            sample(system, s.probe_steps, seed=_subseed(seed, 1 + k))
            for k in range(s.probes)
        ]
        return {"system": system, "train": train, "probes": probes, "test": probes[0]}

    def build(self, inputs: dict, workdir) -> tuple:
        T = self.sizes.discrete_samples
        model = hsepsr.learner.train(inputs["train"], WindowConfig(1, 1), lam=1.0 / T)
        return model, model.report

    def loop(self, model, inputs: dict, tracer) -> DiscreteLoop:
        return DiscreteLoop(model, inputs["probes"], inputs["system"], tracer)


WORKLOADS = {w.name: w for w in (Online, Rollout, Discrete)}


# --- shared steps ---------------------------------------------------------------


def _ode_inputs(seed: int, sizes: Sizes, n_test: int) -> dict:
    """One simulated ODE trajectory: T + L + N training steps, then the
    held-out steps."""
    n_train = sizes.ode_samples + 2 * sizes.ode_window
    traj = hsepsr.simbench.simulate.simulate_system(
        hsepsr.simbench.simulate.SynthConfig(n_steps=n_train + n_test, seed=seed)
    )
    return {
        "train": Trajectory(traj.actions[:n_train], traj.observations[:n_train]),
        "test": Trajectory(traj.actions[n_train:], traj.observations[n_train:]),
    }


def _train_ode(train: Trajectory, sizes: Sizes):
    w = sizes.ode_window
    return hsepsr.learner.train(train, WindowConfig(w, w), lam=ODE_LAM)


def _warm(model, test: Trajectory) -> None:
    """Absorb one warm-up pair so the lazy conditioning caches are built."""
    hsepsr.filter.update(
        model, model.feasible_state(), test.actions[0], test.observations[0],
        renormalize=True,
    )


def _measure(loop, seconds: float, min_ops: int, max_ops=None, tracer=None) -> list:
    """Run ticks until ``seconds`` have passed and at least ``min_ops`` ran;
    returns each tick's latency.  Checks run between ticks, untimed."""
    latencies: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(latencies) < min_ops or time.perf_counter() < deadline:
        if max_ops is not None and len(latencies) >= max_ops:
            break
        if tracer is None:
            t0 = time.perf_counter()
            loop.tick()
            latencies.append(time.perf_counter() - t0)
        else:
            with tracer.span("op", op=f"op-{len(latencies)}"):
                t0 = time.perf_counter()
                loop.tick()
                latencies.append(time.perf_counter() - t0)
        loop.check()
    loop.finish()
    return latencies


def model_megabytes(model) -> float:
    """nbytes of every distinct ndarray reachable from ``model``, with views
    counted once through the array that owns their memory."""
    owners: dict[int, int] = {}
    seen: set[int] = set()
    stack = [model]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            owners[id(base)] = base.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(owners.values()) / 2**20


def host_info() -> dict:
    """Load shape: CPU count, BLAS thread cap, last-level cache, versions."""
    try:
        llc = int(
            subprocess.run(
                ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        )
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "llc_bytes": llc,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _roundtrip(model, workdir) -> float:
    """Save and load the model once; returns the file size in MB."""
    path = os.path.join(workdir, f"roundtrip-{os.getpid()}.model")
    try:
        hsepsr.model_io.save_model(model, path)
        size = os.path.getsize(path) / 2**20
        hsepsr.model_io.load_model(path)
        return size
    finally:
        os.remove(path)


def _probe_paths(model, test: Trajectory, tracer: Tracer) -> bool:
    """Call the single-belief window path and a two-extent protocol once
    each, so every per-layer timing is measured on every workload."""
    N = model.config.test_length
    ok = True
    state = model.feasible_state()
    for i in range(PROBE_WINDOWS):
        with tracer.span("probe", op=f"probe-window-{i}"):
            pred = hsepsr.predict.rollout_predict(
                model, state, test.actions[i : i + N],
                horizons=range(1, N + 1), renormalize=True,
            ).predictions
        ok = ok and bool(np.isfinite(pred).all())
    e = min(EXTENT_START, (len(test.observations) - N - 3) // 2)
    with tracer.span("probe", op="probe-protocol"):
        table = hsepsr.simbench.benchmark.run_protocol(
            model, test, extents=[e, e + 1], horizons=range(1, N + 3),
            renormalize=True,
        )
    return ok and bool(np.isfinite(table.mse).all())


def _report(wl, loop, latencies, setup_times) -> dict:
    """The issue's end-to-end table for this workload, with units."""
    out = {"setup_s": (statistics.median(setup_times), "s")}
    n = len(latencies)
    if wl.name == "rollout":
        out["protocol_s"] = (statistics.median(latencies), "s")
    else:
        out["tick_p50_ms"] = (_p50_ms(latencies), "ms")
        # p90 needs at least ten ticks beyond it
        p90 = 1000.0 * float(np.quantile(latencies, 0.9)) if n >= 100 else None
        out["tick_p90_ms"] = (p90, "ms")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    out.update(loop.quality())
    out["failed_frac"] = (loop.failed / max(loop.attempted, 1), "ratio")
    out["ops"] = (n, "count")
    out["attempted"] = (loop.attempted, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _result(correct, attempted, failed, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def run_untraced(name: str, seed: int, seconds: float, workdir, sizes=FULL) -> tuple:
    """End-to-end run; returns (result, report)."""
    wl = WORKLOADS[name](sizes)
    inputs = wl.inputs(seed)
    setup_times = []
    model = None
    for _ in range(sizes.setups):
        model = None  # release the previous model before building the next
        t0 = time.perf_counter()
        model, _ = wl.build(inputs, workdir)
        _warm(model, inputs["test"])
        setup_times.append(time.perf_counter() - t0)
    loop = wl.loop(model, inputs, None)
    latencies = _measure(loop, seconds, sizes.min_ops)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": _p50_ms(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = _result(
        loop.failed == 0, loop.attempted, loop.failed,
        {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    )
    report = _report(wl, loop, latencies, setup_times)
    return result, {"report": report, "errors": loop.errors[:5]}


def run_traced(name: str, seed: int, seconds: float, workdir, sizes=FULL) -> tuple:
    """Traced run: traced set-up, an untraced pass of about seconds/2, the
    same operations again traced, then the path probes.  Returns (result,
    report) and writes the spans next to the model files."""
    wl = WORKLOADS[name](sizes)
    tracer = Tracer()
    wall = 0.0

    t0 = time.perf_counter()
    with tracer:
        with tracer.span("inputs", op="inputs"):
            inputs = wl.inputs(seed)
        with tracer.span("setup", op="setup"):
            model, train_report = wl.build(inputs, workdir)
            with tracer.span("first_update"):
                _warm(model, inputs["test"])
        with tracer.span("roundtrip", op="roundtrip"):
            file_mb = _roundtrip(model, workdir)
    wall += time.perf_counter() - t0

    plain = wl.loop(model, inputs, None)
    plain_lat = _measure(plain, seconds / 2, sizes.min_ops)

    traced = wl.loop(model, inputs, tracer)
    t0 = time.perf_counter()
    with tracer:
        n = len(plain_lat)
        traced_lat = _measure(traced, 0.0, n, n, tracer)
        probes_ok = _probe_paths(model, inputs["test"], tracer)
    wall += time.perf_counter() - t0

    # the traced pass must replay the untraced one
    gap = float(np.max(np.abs(traced.fingerprint() - plain.fingerprint())))
    replay_ok = gap <= REPLAY_TOL
    failed = plain.failed + (traced.failed if replay_ok else traced.attempted)
    attempted = plain.attempted + traced.attempted

    values = _layer_values(tracer, model, train_report, file_mb, traced, n)
    selfs = tracer.self_seconds()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    values["trace.wall_s"] = wall
    values["trace.self_frac"] = sum(selfs.values()) / wall
    values["trace.overhead_frac"] = sum(traced_lat) / sum(plain_lat) - 1.0
    metrics = {k: {"value": values[k], "unit": u} for k, (u, _) in PER_LAYER.items()}

    tracer.write(os.path.join(workdir, f"trace-{name}-seed{seed}.jsonl"))
    correct = failed == 0 and probes_ok and values["trace.self_frac"] <= 1.0
    report = {
        "replay_gap": gap,
        "absent": tracer.absent,
        "errors": (plain.errors + traced.errors)[:5],
    }
    return _result(correct, attempted, failed, metrics), report


def _layer_values(tracer: Tracer, model, train_report, file_mb, loop, n_ops) -> dict:
    """Per-layer numbers from the spans and the training report."""
    stages = train_report.stage_seconds if train_report is not None else {}
    d = tracer.durations
    v = {
        "learner.train_s": sum(d("learner.train", setup=True)),
        "learner.grams_s": stages.get("grams", 0.0),
        "learner.history_weights_s": stages.get("history-weights", 0.0),
        "learner.conditioning_s": stages.get("conditioning", 0.0),
        "learner.state_gram_s": stages.get("state-gram", 0.0),
        "learner.solve_escalations": len(train_report.solve_events) if train_report else 0,
        "learner.first_update_s": sum(d("first_update", setup=True)),
        "learner.model_mb": model_megabytes(model),
        "model_io.save_s": sum(d("model_io.save_model")),
        "model_io.load_s": sum(d("model_io.load_model")),
        "model_io.file_mb": file_mb,
        "filter.update_p50_ms": _p50_ms(
            d({"update", "filter.update", "filter.update_standardized"})
        ),
        "filter.propagate_p50_ms": _p50_ms(d("filter.propagate")),
        "filter.condition_action_p50_ms": _p50_ms(
            d({"filter.condition_action", "filter._condition_action_k"})
        ),
        "filter.condition_observation_p50_ms": _p50_ms(
            d({"filter.condition_observation", "filter._condition_observation_k"})
        ),
        "filter.resets": getattr(loop, "resets", 0)
        + sum(s.get("resets", 0) for s in tracer.select("simbench.filter_trajectory")),
        "filter.propagate_many_p50_ms": _p50_ms(d("filter.propagate_many")),
        "filter.condition_action_many_p50_ms": _p50_ms(d("filter.condition_action_many")),
        "filter.condition_observation_many_p50_ms": _p50_ms(
            d("filter.condition_observation_many")
        ),
        "predict.window_p50_ms": _p50_ms(d("predict.rollout_predict")),
        "predict.condition_test_actions_many_p50_ms": _p50_ms(
            d("predict.condition_test_actions_many")
        ),
        "predict.level_p50_ms": _p50_ms(_level_durations(tracer)),
        "predict.rollout_many_s": _p50_ms(d("simbench.rollout_predict_many")) / 1000.0,
        "predict.rollout_resets": sum(
            s.get("resets", 0) for s in tracer.select("predict.update_standardized_many")
        ),
        "gramops.kbr_step_batch.p50_ms": _p50_ms(
            d({"filter.kbr_step_batch", "predict.kbr_step_batch"})
        ),
        "gramops.escalations": tracer.escalations,
        "simbench.simulate_s": sum(
            d({"simbench.simulate_system", "simbench.sample_trajectory"})
        ),
        "simbench.prefix_filter_s": _p50_ms(d("simbench.filter_trajectory")) / 1000.0,
    }
    for label in SOLVE_LABELS:
        in_ops = d("gramops.escalated_solve", label=label, op_prefix="op-")
        v[f"gramops.solve.{label}.calls_per_op"] = len(in_ops) / max(n_ops, 1)
        v[f"gramops.solve.{label}.p50_ms"] = _p50_ms(
            d("gramops.escalated_solve", label=label)
        )
    return v


def _level_durations(tracer: Tracer) -> list:
    """A rollout level runs from one condition_test_actions_many call to
    the next, the last one to the end of its rollout_predict_many span."""
    by_parent: dict[int, list] = {}
    for s in tracer.spans:
        if s["name"] == "predict.condition_test_actions_many" and s["parent"] is not None:
            by_parent.setdefault(s["parent"], []).append(s["start"])
    out = []
    for parent_id, starts in by_parent.items():
        ends = starts[1:] + [tracer.spans[parent_id]["end"]]
        out.extend(e - s for s, e in zip(starts, ends))
    return out
