"""Training: from one trajectory to a filterable predictive-state model.

The model represents the belief state over a partially observable controlled
process as a weight vector across T training samples.  Training windows the
trajectory and resolves one kernel per data stream.  The trajectory, the
window lengths, the kernels and the regularizer determine the model, and
they are all that ``model_io`` stores: every parameter is a moment of the
trajectory's windows under those kernels, and ``train_from_windows``
derives them all, for a trained and a loaded model alike:

1. per-history prior sample weights (one column per training sample),
   the ridge regression of each history onto all histories through the
   history Gram, solved on the k distinct histories
   (``gramops.distinct_rows``, ``gramops.spread_ridge``), a k x k system
   on the Gram of those alone (k = 6 of T = 240 on the discrete benchmark
   model, k = T without repeats),
2. the training Grams and factors the filter reads (``gramops.GramCache``),
3. each weight column's kernel Bayes conditioning matrix against the
   single-step actions in Woodbury form (``gramops.ConditioningFactors``
   over the low-rank factor of the action Gram, T r^2 numbers), which the
   filter's action step mixes; it is solved once per distinct history
   (weight column i depends on history i alone, so it repeats where the
   histories repeat: 6 distinct of 240 on the discrete benchmark model)
   and spread back to the T samples,
4. each weight column's conditioning matrix against the test-action
   windows, the coefficient form of that sample's operator-valued state,
   kept only as its coordinates in the joint factors of the test windows
   (``gramops.factor_coordinates``: row i of ``state_factors`` is
   W_TO^T C_i W_TA, r_TO r_TA numbers, over the factors truncated at
   ``gramops.FACTOR_FLOOR`` times lam_T); it is solved against the fewer
   factor columns (the r_TO of W_TO on the ODE and desk models), in the
   blocks of samples that function's docstring gives, in the form
   ``gramops.kbr_form`` picks for the test-action rank, r_TA x r_TA
   Woodbury systems at low rank and one T x T LU per column near full
   rank; like item 3 it is solved once per distinct history and spread
   back,
5. the ridge inverse (S S^T + lam_T I)^-1 of the Gram between those
   states, S S^T for the ``state_factors`` rows S, solved once per model
   on the distinct rows of S (a k x k system, ``gramops.spread_ridge``),
   and so the inverse on the span of the training states, where every
   vector it multiplies lies; the filter's propagation step multiplies by
   it to project each belief's one-step-extended window conditional back
   onto the training states,
6. the readout: the Gram G_HsHs of the histories one step on (sample i's
   row is the history window ending at its current pair, the history of
   sample i + 1) and the inverse M = (G_HsHs o G_TAsTAs + lam_T I)^-1 of
   the product kernel's Gram over those histories and the shifted
   test-action windows, solved once per model on their distinct rows
   (``gramops.spread_ridge``; 12 of 240 on the discrete benchmark model).
   Prediction reads a belief w under a planned window's kernel vector k
   as gamma = M ((G_HsHs w) o k), the conditional mean embedding of the
   shifted test observations given the state and the test actions
   (``predict.condition_test_actions_many``), and solves nothing.

No dense (T x T^2) tensor is built outside the oracles
``action_conditioning_flat`` and ``state_conditioning_flat``.
``DEFAULT_LAM`` and ``DEFAULT_MAX_SAMPLES`` are the library defaults for
the regularizer and the training-sample cap, used by ``train``, the CLI and
the desk benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from hsepsr.gramops import (
    FACTOR_FLOOR,
    ConditioningFactors,
    GramCache,
    SolveEvent,
    build_gram_cache,
    conditioning_factors,
    distinct_rows,
    factor_coordinates,
    history_weights,
    kbr_form,
    kbr_step_batch,
    spread_ridge,
)
from hsepsr.kernels import (
    ZERO_MEDIAN_FALLBACK, KernelSet, KernelSpec, gram, resolve_bandwidth,
)
from hsepsr.windows import (
    Standardizer,
    Trajectory,
    WindowConfig,
    WindowedData,
    build_windows,
)

#: Default ridge weight; the effective regularizer is this times T.
DEFAULT_LAM = 1e-3

#: Default cap on the number of training samples T.
DEFAULT_MAX_SAMPLES = 1500

#: Beliefs with L1 mass below this are treated as collapsed.
DEGENERATE_TOL = 1e-12

#: The five kernel streams, each with the ``WindowedData`` array its kernel
#: is built on; the shifted windows share their unshifted stream's kernel.
STREAMS = dict(
    history="histories", test_action="test_actions", test_obs="test_obs",
    action="cur_actions", obs="cur_obs",
)


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
    """Diagnostics from one training run.

    ``truncated_from`` is the sample count before the ``max_samples`` cap
    cut the trajectory (None when nothing was cut), which the model file
    stores, since a load sees only the cut trajectory; ``ranks`` holds the
    numerical ranks of the low-rank factors, keyed by stream: ``action``
    and ``obs`` for the single-step Grams, ``test_action`` and
    ``test_obs`` for the joint test-window factors, whose product
    r_test_obs * r_test_action is the length of one state-factor row.
    ``distinct_states`` is the number of distinct histories, whose
    history-weight columns are the training states ``train_from_windows``
    solves for (the other columns repeat one of them byte for byte, as
    exact-match kernels make them do).
    ``summary_lines`` also names the form (``gramops.kbr_form``) in which
    the state build solves: the test-action rank and T pick it, and the
    smaller of r_test_obs and r_test_action is the number of columns
    solved per sample; and the eigenvalue floor of the test-window
    factors, ``gramops.FACTOR_FLOOR`` times lam_T.
    """

    n_samples: int
    lam: float
    lam_T: float
    bandwidths: dict
    distinct_states: int
    solve_events: list = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)
    truncated_from: int | None = None
    ranks: dict = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        samples = f"samples: {self.n_samples}"
        if self.truncated_from is not None:
            samples += f" (truncated from {self.truncated_from} by max_samples)"
        lines = [
            samples,
            f"distinct states: {self.distinct_states} of {self.n_samples}",
            f"regularizer: {self.lam:g} (scaled {self.lam_T:g})",
            f"factor floor: {FACTOR_FLOOR * self.lam_T:g} "
            f"({FACTOR_FLOOR:g} x lam_T)",
        ]
        for stream, rank in self.ranks.items():
            lines.append(f"rank[{stream}]: {rank}")
        if {"test_action", "test_obs"} <= self.ranks.keys():
            T, r_act = self.n_samples, self.ranks["test_action"]
            m = min(r_act, self.ranks["test_obs"])
            lines.append(
                f"solve[test_action]: {kbr_form(T, r_act, m)} "
                f"(rank {r_act} of T = {T}, {m} columns)"
            )
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
    training history t; ``state_factors`` row t the coordinates of the
    operator-valued state that column defines in the joint test-window
    factors (``gramops.factor_coordinates``), so that the Gram of the
    training states is S S^T for the rows S; and ``state_ridge`` the ridge
    inverse (S S^T + lam_T I)^-1 of that Gram on the span of the rows'
    Gram, the range of the indicator E of the distinct rows, and zero on
    its complement (``gramops.spread_ridge``; with every row distinct it
    is the full inverse).  The filter's propagation step forms the
    belief's shifted-window conditional in the same coordinates and takes
    its inner products with the rows, a vector q = S x in that span, so
    the product of q with ``state_ridge`` is that of the full inverse.
    ``action_factors`` holds the per-sample action conditioning matrices
    in Woodbury form, and ``report`` the ``TrainingReport`` of the build
    (``train_from_windows``), which a loaded model carries too.
    ``shifted_history_gram`` is the Gram G_HsHs of the histories one step
    on and ``readout`` the inverse M = (G_HsHs o G_TAsTAs + lam_T I)^-1 on
    the span of their product Gram's distinct rows, the fixed operator
    through which prediction reads every belief.
    """

    windowed: WindowedData
    kernels: KernelSet
    lam: float
    grams: GramCache
    history_state_weights: np.ndarray
    action_factors: ConditioningFactors
    state_factors: np.ndarray
    state_ridge: np.ndarray
    shifted_history_gram: np.ndarray
    readout: np.ndarray
    report: TrainingReport

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

    @property
    def feasible_weights(self) -> np.ndarray:
        """Uniform weights 1/T, the average of the training states: the
        start belief and the restart of a collapsed one."""
        return np.full(self.n_samples, 1.0 / self.n_samples)

    def feasible_state(self) -> BeliefState:
        """Uniform weights: the average of the training states."""
        return BeliefState(self.feasible_weights)

    def _conditioning_flat(self, G: np.ndarray, label: str) -> np.ndarray:
        """Row i: the flattened conditioning matrix of weight column i
        against G, the dense kernel Bayes solve against the identity."""
        T = self.n_samples
        return kbr_step_batch(
            self.history_state_weights.T, G, self.grams.lam_T, np.eye(T)[None],
            label=label,
        ).reshape(T, -1)

    def action_conditioning_flat(self) -> np.ndarray:
        """Dense (T, T*T) oracle, built on every call: row i is the
        flattened conditioning matrix of weight column i against the
        single-action Gram.  The filter uses ``action_factors`` instead."""
        G_A_A = gram(self.kernels.action, self.cur_actions, self.cur_actions)
        return self._conditioning_flat(G_A_A, "action")

    def state_conditioning_flat(self) -> np.ndarray:
        """Dense (T, T*T) oracle, built on every call: row i is the
        flattened conditioning matrix of weight column i against the
        test-action window Gram, i.e. the coefficient form of training
        state i.  The filter uses ``state_factors`` instead."""
        return self._conditioning_flat(self.grams.G_TA_TA, "state")


def resolve_kernels(
    windows: WindowedData,
    family: str | None = None,
    bandwidth_scale: float = 1.0,
) -> KernelSet:
    """Pick one kernel per data stream from the windowed training data.

    ``family`` is a name from ``kernels.FAMILIES`` for all streams, or None
    for the default (exact-match kernels on discrete data, rbf otherwise).
    Each stream's kernel is built on its ``STREAMS`` array.  An rbf
    bandwidth is the median pairwise distance of that array
    (``kernels.resolve_bandwidth``, over at most ``kernels.MEDIAN_CAP``
    strided rows) times ``bandwidth_scale``.
    """
    if not bandwidth_scale > 0:
        raise ValueError(f"bandwidth_scale must be positive, got {bandwidth_scale}")
    family = family or ("delta" if windows.discrete else "rbf")
    specs = {}
    for stream, name in STREAMS.items():
        X = getattr(windows, name)
        if family != "rbf":
            specs[stream] = KernelSpec(family, X.shape[1])
        elif len(X) < 2:
            # a lone sample has no pairwise distances; use the same fallback
            # as a degenerate median
            specs[stream] = KernelSpec("rbf", X.shape[1], ZERO_MEDIAN_FALLBACK)
        else:
            bandwidth = resolve_bandwidth(X) * bandwidth_scale
            specs[stream] = KernelSpec("rbf", X.shape[1], bandwidth)
    return KernelSet(**specs)


def _spread_events(events: list, spread: np.ndarray) -> list:
    """The escalations of the distinct-column solves, each recorded as
    ``label[j]`` for distinct column j, once per sample i whose column is
    j and relabelled ``label[i]``: the events, and their order (the action
    factors, then the states, each in sample order), that solving every
    column would record."""
    if not events:
        return []
    by_label = {e.label: e for e in events}
    return [
        replace(by_label[f"{stage}[{j}]"], label=f"{stage}[{i}]")
        for stage in ("action", "state")
        for i, j in enumerate(spread)
        if f"{stage}[{j}]" in by_label
    ]


def train_from_windows(
    windows: WindowedData,
    kernels: KernelSet,
    lam: float = DEFAULT_LAM,
) -> HsePsrModel:
    """The model, with its report, that windowed data, resolved kernels and
    a regularizer define: the history weights A, solved from the Gram of
    the distinct histories, then the Gram cache, the action factors, the
    state factors S and the ridge inverse P of the state Gram S S^T.
    Training and ``model_io.load_model`` both build here, so a loaded
    model is the trained one bit for bit, report included except for its
    stage times.  The action and state factors are
    solved once per distinct history and spread back to all T rows: A
    repeats its columns where the histories repeat (``spread_ridge``
    spreads them by the histories' spread), and when every history is
    distinct the solves get A unchanged.  An escalated solve is recorded
    once per sample whose column it solved, as ``action[i]`` or
    ``state[i]`` with the sample index, in sample order within each
    stage.  P is solved on the distinct rows too (``spread_ridge``), as
    P = F Y F^T for the counts C of the distinct rows, F = E C^-1/2 and
    the k x k solution Y of
    (C^1/2 S_d S_d^T C^1/2 + lam I) Y = I over the distinct rows S_d; it
    passes ``ridge_solve``'s residual test, ||(S S^T + lam I) P - F F^T||_F
    <= ``RESIDUAL_RTOL`` ||F F^T||_F, at the regularizer lam it was solved
    with.  Last comes the readout: the Gram G_HsHs of the histories one
    step on, from the stored windows, and its inverse M, solved by
    ``spread_ridge`` on the distinct rows of the histories one step on
    beside the shifted test-action windows.  The report holds the
    escalated solves (A's as ``history-weights``, P's as ``state-ridge``,
    M's as ``readout``) and the stage times (``history-weights``,
    ``grams``, ``action-factors``, ``conditioning``, ``state-gram``,
    ``readout``).  A ``lam`` that is not finite and positive, or a kernel
    whose dimension is not the width of its stream's array, raises
    ValueError naming it before any solve."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    for stream, name in STREAMS.items():
        dim, width = getattr(kernels, stream).dimension, getattr(windows, name).shape[1]
        if dim != width:
            raise ValueError(
                f"kernel {stream} has dimension {dim}, but {name} has width {width}"
            )
    events: list[SolveEvent] = []
    stages: dict = {}

    def tick(stage, t0):
        stages[stage] = time.perf_counter() - t0
        return time.perf_counter()

    t0 = time.perf_counter()
    first, spread = distinct_rows(windows.histories) or (slice(None), None)
    H = windows.histories[first]
    # a fixed memory layout keeps the BLAS behavior of the solves below
    A = np.ascontiguousarray(history_weights(
        (gram(kernels.history, H, H), spread), lam * windows.n_samples,
        events=events,
    ))
    t0 = tick("history-weights", t0)
    cache = build_gram_cache(windows, kernels, lam)
    t0 = tick("grams", t0)

    A_solved = A[:, first]
    solved_events: list[SolveEvent] = []
    action_factors = conditioning_factors(
        A_solved, cache.V_A, cache.lam_T, label="action", events=solved_events
    )
    t0 = tick("action-factors", t0)

    S = S_d = factor_coordinates(
        A_solved.T, cache.G_TA_TA, cache.lam_T, cache.W_TA, cache.W_TO,
        label="state", events=solved_events,
    ).reshape(A_solved.shape[1], -1)
    if spread is not None:
        action_factors = ConditioningFactors(
            action_factors.V, action_factors.S[spread], action_factors.lam[spread]
        )
        S = S_d[spread]
        solved_events = _spread_events(solved_events, spread)
    events.extend(solved_events)
    t0 = tick("conditioning", t0)

    G_states = S_d @ S_d.T
    G_states = (G_states + G_states.T) / 2.0
    state_ridge = spread_ridge(
        G_states, cache.lam_T, spread, inverse=True, label="state-ridge",
        events=events,
    )
    t0 = tick("state-gram", t0)

    d = windows.cur_actions.shape[1] + windows.cur_obs.shape[1]
    Hs = np.hstack([windows.histories[:, d:], windows.cur_actions, windows.cur_obs])
    G_Hs_Hs = gram(kernels.history, Hs, Hs)
    first, spread = distinct_rows(
        np.hstack([Hs, windows.shifted_test_actions])
    ) or (slice(None), None)
    # only the distinct rows' block of the product kernel's Gram is formed
    G_d = G_Hs_Hs[first][:, first] * cache.G_TAs_TAs[first][:, first]
    readout = spread_ridge(
        G_d, cache.lam_T, spread, inverse=True, label="readout", events=events
    )
    tick("readout", t0)
    report = TrainingReport(
        n_samples=windows.n_samples,
        lam=lam,
        lam_T=cache.lam_T,
        bandwidths={
            s: k.bandwidth if k.family == "rbf" else None for s, k in vars(kernels).items()
        },
        distinct_states=A_solved.shape[1],
        solve_events=events,
        stage_seconds=stages,
        ranks={
            "action": cache.V_A.shape[1],
            "obs": cache.V_O.shape[1],
            "test_action": cache.W_TA.shape[1],
            "test_obs": cache.W_TO.shape[1],
        },
    )
    return HsePsrModel(
        windowed=windows,
        kernels=kernels,
        lam=lam,
        grams=cache,
        history_state_weights=A,
        action_factors=action_factors,
        state_factors=S,
        state_ridge=state_ridge,
        shifted_history_gram=G_Hs_Hs,
        readout=readout,
        report=report,
    )


def train(
    traj: Trajectory,
    config: WindowConfig,
    lam: float = DEFAULT_LAM,
    family: str | None = None,
    bandwidth_scale: float = 1.0,
    max_samples: int | None = DEFAULT_MAX_SAMPLES,
) -> HsePsrModel:
    """Window a trajectory, resolve kernels, and train a model.

    Continuous streams are always standardized (``build_windows``), and
    rbf bandwidths come from ``resolve_kernels``' median
    heuristic over at most ``kernels.MEDIAN_CAP`` rows per stream.
    ``max_samples`` caps T by truncating the trajectory (the state factors
    hold T r_TO r_TA floats: 213 MiB at the desk's T = 1480, where the
    factors keep r_TO = 68 and r_TA = 277 eigenvalues above
    ``gramops.FACTOR_FLOOR`` times lam_T, 68 * 277 floats per row, and at
    most T (T + 1)^2); pass None to disable the cap.
    A cut is recorded in the report's ``truncated_from``.
    """
    if max_samples is not None and max_samples < 1:
        raise ValueError(f"max_samples must be positive or None, got {max_samples}")
    T_full = traj.n - config.history_length - config.test_length
    truncated_from = None
    if max_samples is not None and T_full > max_samples:
        keep = max_samples + config.history_length + config.test_length
        traj = Trajectory(
            traj.actions[:keep], traj.observations[:keep], discrete=traj.discrete
        )
        truncated_from = T_full
    windows = build_windows(traj, config)
    kernels = resolve_kernels(windows, family=family, bandwidth_scale=bandwidth_scale)
    model = train_from_windows(windows, kernels, lam=lam)
    model.report.truncated_from = truncated_from
    return model
