"""Training: from one trajectory to a filterable predictive-state model.

The model represents the belief state over a partially observable controlled
process as a weight vector across T training samples.  Training amounts to

1. windowing the trajectory and resolving one kernel per data stream,
2. evaluating training Gram matrices,
3. ridge-regressing each history onto all histories, giving per-history
   prior sample weights (one column per training sample),
4. turning each weight column into a kernel Bayes conditioning matrix
   against the test-action windows; sample t's matrix is the coefficient
   form of its operator-valued state,
5. assembling the Gram matrix between those states, which the filter's
   propagation step uses to project each belief's one-step-extended window
   conditional back onto the training states.

Conditioning tensors consumed by the filter are large (T x T^2) and cheap
to rebuild, so they are cached lazily and never persisted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from hsepsr.gramops import (
    GramCache,
    SolveEvent,
    build_gram_cache,
    conditioning_tensor,
    history_weights,
    state_gram,
)
from hsepsr.kernels import ZERO_MEDIAN_FALLBACK, KernelSet, KernelSpec, resolve_spec
from hsepsr.windows import (
    Standardizer,
    Trajectory,
    WindowConfig,
    WindowedData,
    build_windows,
)

#: Default ridge weight; the effective regularizer is this times T.
DEFAULT_LAM = 1e-4

#: Beliefs with L1 mass below this are treated as collapsed.
DEGENERATE_TOL = 1e-12

STREAMS = ("history", "test_action", "test_obs", "action", "obs")


@dataclass(frozen=True)
class BeliefState:
    """Belief over the process state as weights across training samples.

    Weights may carry negative entries; they approximate a conditional
    mean embedding, not a probability vector.  ``degenerate`` marks a
    collapsed belief whose mass vanished during filtering.
    """

    weights: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("belief weights must be a 1-d array")
        object.__setattr__(self, "weights", w)

    @property
    def mass(self) -> float:
        return float(np.abs(self.weights).sum())


@dataclass
class TrainingReport:
    """Diagnostics from one training run."""

    n_samples: int
    lam: float
    lam_T: float
    bandwidths: dict
    solve_events: list = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        lines = [
            f"samples: {self.n_samples}",
            f"regularizer: {self.lam:g} (scaled {self.lam_T:g})",
        ]
        for stream, bw in self.bandwidths.items():
            lines.append(
                f"bandwidth[{stream}]: " + (f"{bw:g}" if bw is not None else "n/a")
            )
        for stage, secs in self.stage_seconds.items():
            lines.append(f"time[{stage}]: {secs:.2f}s")
        if self.solve_events:
            for ev in self.solve_events:
                lines.append(
                    f"escalated solve {ev.label}: {ev.requested:g} -> {ev.used:g} "
                    f"({ev.attempts} attempts)"
                )
        else:
            lines.append("escalated solves: none")
        return lines


@dataclass
class HsePsrModel:
    """Everything filtering and prediction need at runtime.

    ``history_state_weights`` column t holds the prior sample weights for
    training history t; ``gram_states`` holds the inner products between
    the operator-valued training states those columns define.  The filter's
    propagation step forms the belief's own conditioning matrix against the
    shifted windows and projects it onto the training states through
    ``gram_states``; the per-sample state matrices enter that projection in
    flattened form.  ``feasible_weights`` is the uniform average of the
    training states, the start belief.
    """

    windowed: WindowedData
    kernels: KernelSet
    lam: float
    grams: GramCache
    history_state_weights: np.ndarray
    gram_states: np.ndarray
    feasible_weights: np.ndarray
    report: TrainingReport | None = None
    _action_flat: np.ndarray | None = None
    _state_flat: np.ndarray | None = None

    @property
    def config(self) -> WindowConfig:
        return self.windowed.config

    @property
    def standardizer(self) -> Standardizer:
        return self.windowed.standardizer

    @property
    def discrete(self) -> bool:
        return self.windowed.discrete

    @property
    def cur_actions(self) -> np.ndarray:
        return self.windowed.cur_actions

    @property
    def cur_obs(self) -> np.ndarray:
        return self.windowed.cur_obs

    @property
    def test_actions(self) -> np.ndarray:
        return self.windowed.test_actions

    @property
    def test_obs(self) -> np.ndarray:
        return self.windowed.test_obs

    @property
    def shifted_test_actions(self) -> np.ndarray:
        return self.windowed.shifted_test_actions

    @property
    def shifted_test_obs(self) -> np.ndarray:
        return self.windowed.shifted_test_obs

    @property
    def n_samples(self) -> int:
        return self.history_state_weights.shape[0]

    @property
    def action_dim(self) -> int:
        return self.cur_actions.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.cur_obs.shape[1]

    def feasible_state(self) -> BeliefState:
        """Uniform weights: the average of the training states."""
        return BeliefState(self.feasible_weights.copy())

    def action_conditioning_flat(self) -> np.ndarray:
        """Lazy (T, T*T) cache: row i is the flattened conditioning matrix
        of weight column i against the single-action Gram."""
        if self._action_flat is None:
            self._action_flat = self._flattened_tensor(self.grams.G_A_A, "action")
        return self._action_flat

    def state_conditioning_flat(self) -> np.ndarray:
        """Lazy (T, T*T) cache: row i is the flattened conditioning matrix
        of weight column i against the test-action window Gram, i.e. the
        coefficient form of training state i."""
        if self._state_flat is None:
            self._state_flat = self._flattened_tensor(self.grams.G_TA_TA, "state")
        return self._state_flat

    def _flattened_tensor(self, G: np.ndarray, label: str) -> np.ndarray:
        return conditioning_tensor(
            self.history_state_weights, G, self.grams.lam_T, label=label
        ).reshape(self.n_samples, -1)

    def drop_caches(self) -> None:
        self._action_flat = None
        self._state_flat = None


def resolve_kernels(
    windows: WindowedData,
    family: str | dict | None = None,
    bandwidths: dict | None = None,
    bandwidth_scale: float = 1.0,
    median_cap: int = 1000,
) -> KernelSet:
    """Pick one kernel per data stream from the windowed training data.

    ``family`` is a single name for all streams, a per-stream dict, or None
    for the default (exact-match kernels on discrete data, rbf otherwise).
    rbf bandwidths come from the median pairwise distance of the stream's
    unshifted window list unless pinned through ``bandwidths``; resolved
    medians are multiplied by ``bandwidth_scale``.
    """
    if not bandwidth_scale > 0:
        raise ValueError("bandwidth_scale must be positive")
    default = "delta" if windows.discrete else "rbf"
    if family is None or isinstance(family, str):
        fam = {s: (family or default) for s in STREAMS}
    else:
        fam = {s: family.get(s, default) for s in STREAMS}
    pinned = bandwidths or {}
    data = {
        "history": windows.histories,
        "test_action": windows.test_actions,
        "test_obs": windows.test_obs,
        "action": windows.cur_actions,
        "obs": windows.cur_obs,
    }
    specs = {}
    for stream in STREAMS:
        dim = data[stream].shape[1]
        if fam[stream] != "rbf":
            specs[stream] = KernelSpec(fam[stream], dim)
        elif stream in pinned:
            specs[stream] = KernelSpec("rbf", dim, float(pinned[stream]))
        elif data[stream].shape[0] < 2:
            # a lone sample has no pairwise distances; use the same fallback
            # as a degenerate median
            specs[stream] = KernelSpec("rbf", dim, ZERO_MEDIAN_FALLBACK)
        else:
            spec = resolve_spec(KernelSpec("rbf", dim), data[stream], cap=median_cap)
            specs[stream] = KernelSpec("rbf", dim, spec.bandwidth * bandwidth_scale)
    return KernelSet(**specs)


def train_from_windows(
    windows: WindowedData,
    kernels: KernelSet,
    lam: float = DEFAULT_LAM,
) -> HsePsrModel:
    """Train a model from already-windowed data with resolved kernels."""
    events: list[SolveEvent] = []
    stage_seconds: dict[str, float] = {}

    def tick(stage, t0):
        stage_seconds[stage] = time.perf_counter() - t0
        return time.perf_counter()

    t0 = time.perf_counter()
    cache = build_gram_cache(windows, kernels, lam)
    t0 = tick("grams", t0)

    A = history_weights(cache.G_HH, cache.lam_T, events=events)
    # fix the memory layout so a save/load round trip keeps the exact
    # floating-point behavior of the in-memory model
    A = np.ascontiguousarray(A)
    t0 = tick("history-weights", t0)

    C = conditioning_tensor(
        A, cache.G_TA_TA, cache.lam_T, label="state", events=events
    )
    t0 = tick("conditioning", t0)

    G_states = state_gram(C, C, cache.G_TO_TO, cache.G_TA_TA)
    G_states = (G_states + G_states.T) / 2.0
    t0 = tick("state-gram", t0)

    T = windows.n_samples
    state_flat = C.reshape(T, T * T)

    bandwidths = {
        s: getattr(kernels, s).bandwidth if getattr(kernels, s).family == "rbf" else None
        for s in STREAMS
    }
    report = TrainingReport(
        n_samples=T,
        lam=lam,
        lam_T=cache.lam_T,
        bandwidths=bandwidths,
        solve_events=events,
        stage_seconds=stage_seconds,
    )
    return HsePsrModel(
        windowed=windows,
        kernels=kernels,
        lam=lam,
        grams=cache,
        history_state_weights=A,
        gram_states=G_states,
        feasible_weights=np.full(T, 1.0 / T),
        report=report,
        _state_flat=state_flat,
    )


def train(
    traj: Trajectory,
    config: WindowConfig,
    lam: float = DEFAULT_LAM,
    family: str | dict | None = None,
    bandwidths: dict | None = None,
    bandwidth_scale: float = 1.0,
    median_cap: int = 1000,
    standardize: bool = True,
    max_samples: int | None = 500,
) -> HsePsrModel:
    """Window a trajectory, resolve kernels, and train a model.

    ``max_samples`` caps T by truncating the trajectory (conditioning
    tensors grow as T^3 floats); pass None to disable the cap.
    """
    T_full = traj.n - config.history_length - config.test_length
    if max_samples is not None and T_full > max_samples:
        keep = max_samples + config.history_length + config.test_length
        traj = Trajectory(
            traj.actions[:keep], traj.observations[:keep], discrete=traj.discrete
        )
    windows = build_windows(traj, config, standardize=standardize)
    kernels = resolve_kernels(
        windows,
        family=family,
        bandwidths=bandwidths,
        bandwidth_scale=bandwidth_scale,
        median_cap=median_cap,
    )
    return train_from_windows(windows, kernels, lam=lam)
