"""Recursive belief updates from action-observation pairs.

A belief is a weight vector over the T training samples.  Absorbing one
action-observation pair runs three stages:

1. propagate:   form the belief's own conditioning matrix C_w against
                the shifted test-action windows (a kernel Bayes
                regression with the current weights as prior), in its
                coordinates W_TOs^T C_w W_TAs in the joint test-window
                factors (``gramops.window_factors``): C_w is symmetric,
                so one ``kbr_step_batch`` per belief solves it against
                the fewer factor columns, the r_TO of W_TOs on the ODE
                models (r_TA x r_TA Woodbury systems over W_TAs when the
                rank is low, one T x T LU near full rank), and the other
                factor enters by one product
                (``gramops.factor_coordinates``, which solves the beliefs
                in blocks of rows, as it does the training states);
                against the training states' rows
                ``HsePsrModel.state_factors`` they give the conditional's
                inner products with every training state, which the
                ridge inverse of the states' Gram, built once per model
                (``HsePsrModel.state_ridge``), maps back onto them by one
                product; this realigns the belief with the windows one
                step ahead,
2. action step: mix the per-sample action conditioning matrices by the
                propagated weights and apply them to the executed action's
                kernel vector against the training actions; the matrices
                are held in Woodbury form over the low-rank factor V_A of
                the action Gram (``HsePsrModel.action_factors``), so the
                mixture is applied as a few (T x T) by (T x r) products
                and never formed,
3. obs step:    kernel Bayes conditioning of the resulting weights on the
                received observation's kernel vector against the training
                observations, the same ``kbr_step_batch`` over the factor
                V_O of the observation Gram: an r x r Woodbury system per
                belief at the ranks seen so far (the dense form would
                take over near full rank).

The propagation conditional is recomputed from the weights at every step
(it is not linear in them), which keeps the realized pair coupled to the
advanced belief and keeps the weights near unit sum without any explicit
rescaling.  Weights are signed and are not clamped or rescaled by default.
``renormalize=True`` additionally rescales the weights to sum to one after
each update for long-horizon stability experiments.  A belief whose mass
collapses is flagged degenerate; drivers restart such beliefs from the
uniform feasible state and record where that happened.

Each stage is implemented once, on B beliefs held as the rows of a (B, T)
array; its solves escalate the regularizer row by row as a single solve
would.  The single-belief functions standardize their inputs, run the
batched stage on a batch of one and return its only row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from hsepsr.gramops import factor_coordinates, kbr_step_batch
from hsepsr.kernels import gram
from hsepsr.learner import DEGENERATE_TOL, BeliefState, HsePsrModel


def _weights_of(state) -> np.ndarray:
    if isinstance(state, BeliefState):
        return state.weights
    return np.asarray(state, dtype=float)


def _as_row(x) -> np.ndarray:
    return np.asarray(x, dtype=float).ravel()[None]


def _belief(W: np.ndarray, renormalize: bool) -> BeliefState:
    W, collapsed = _normalize_rows(W, renormalize)
    return BeliefState(W[0], degenerate=bool(collapsed[0]))


def propagate(
    model: HsePsrModel, state, events: list | None = None
) -> np.ndarray:
    """Advance belief weights one step ahead of the next conditioning.

    The returned weights express the belief's shifted-window conditional
    in the training-state basis: entry i is the inner product of that
    conditional with training state i, run through the states' ridge
    inverse.  Accepts a ``BeliefState`` or a bare weight vector and
    returns the propagated weight vector.
    """
    return propagate_many(model, _weights_of(state)[None], events=events)[0]


def condition_action(
    model: HsePsrModel, weights: np.ndarray, action: np.ndarray
) -> np.ndarray:
    """Condition propagated weights on an executed action (raw units).

    The per-sample conditioning matrices are mixed by the weights and
    applied to the action's kernel vector.
    """
    a_std = model.standardizer.transform_actions(_as_row(action))
    k_a = gram(model.kernels.action, a_std, model.cur_actions)[0]
    return _condition_action_k(model, _weights_of(weights), k_a)


def condition_observation(
    model: HsePsrModel,
    weights: np.ndarray,
    observation: np.ndarray,
    events: list | None = None,
    renormalize: bool = False,
) -> BeliefState:
    """Kernel Bayes step absorbing a received observation (raw units).

    Returns the posterior belief, rescaled to unit sum only when
    ``renormalize`` is set; a collapsed input or output is flagged
    degenerate.
    """
    o_std = model.standardizer.transform_obs(_as_row(observation))
    k_o = gram(model.kernels.obs, o_std, model.cur_obs)[0]
    w = _condition_observation_k(model, _weights_of(weights), k_o, events)
    return _belief(w[None], renormalize)


def _condition_action_k(
    model: HsePsrModel, weights: np.ndarray, k_action: np.ndarray
) -> np.ndarray:
    return condition_action_many(model, weights[None], k_action[None])[0]


def _condition_observation_k(
    model: HsePsrModel,
    weights: np.ndarray,
    k_obs: np.ndarray,
    events: list | None = None,
) -> np.ndarray:
    return condition_observation_many(model, weights[None], k_obs[None], events)[0]


def update_standardized(
    model: HsePsrModel,
    state: BeliefState,
    action_std: np.ndarray,
    obs_std: np.ndarray,
    renormalize: bool = False,
    events: list | None = None,
) -> BeliefState:
    """One filter step on inputs already in the model's standardized units;
    escalated solves are appended to ``events`` (if given)."""
    if state.degenerate:
        return state
    W = _update_rows(
        model, state.weights[None], _as_row(action_std), _as_row(obs_std), events
    )
    return _belief(W, renormalize)


def update(
    model: HsePsrModel,
    state: BeliefState,
    action: np.ndarray,
    observation: np.ndarray,
    renormalize: bool = False,
    events: list | None = None,
) -> BeliefState:
    """Absorb one raw action-observation pair into the belief."""
    a_std = model.standardizer.transform_actions(np.asarray(action, dtype=float).ravel())
    o_std = model.standardizer.transform_obs(np.asarray(observation, dtype=float).ravel())
    return update_standardized(model, state, a_std, o_std, renormalize, events)


@dataclass
class FilterResult:
    """Belief sequence from filtering: states[t] is the belief after pair t.

    ``resets`` lists the pair indices whose update collapsed; the stored
    state at such an index is the feasible restart, not the collapsed one.
    """

    states: list
    resets: list = field(default_factory=list)

    @property
    def final(self) -> BeliefState:
        if not self.states:
            raise ValueError("empty filter result has no final state")
        return self.states[-1]

    def weights_matrix(self) -> np.ndarray:
        return np.stack([s.weights for s in self.states])


def filter_trajectory(
    model: HsePsrModel,
    initial_state: BeliefState | None,
    actions: np.ndarray,
    observations: np.ndarray,
    renormalize: bool = False,
    events: list | None = None,
) -> FilterResult:
    """Filter aligned (n, d_a) actions and (n, d_o) observations.

    Returns one belief per absorbed pair (none for empty inputs),
    restarting from the feasible state whenever the belief collapses.
    Escalated solves of every step are appended to ``events`` (if given),
    labelled with the pair they came from, e.g. ``obs-conditioning[step 7]``
    (the batched stages label a row, which here is always 0).
    """
    state = initial_state if initial_state is not None else model.feasible_state()
    actions = np.asarray(actions, dtype=float)
    observations = np.asarray(observations, dtype=float)
    if len(actions) != len(observations):
        raise ValueError("actions and observations must have equal length")
    a_std = model.standardizer.transform_actions(actions)
    o_std = model.standardizer.transform_obs(observations)
    states = []
    resets = []
    for t in range(len(actions)):
        step_events: list = []
        state = update_standardized(
            model, state, a_std[t], o_std[t], renormalize, step_events
        )
        if events is not None:
            events.extend(
                replace(e, label=f"{e.label.rsplit('[', 1)[0]}[step {t}]")
                for e in step_events
            )
        if state.degenerate:
            resets.append(t)
            state = model.feasible_state()
        states.append(state)
    return FilterResult(states=states, resets=resets)


# --- the stages, on B beliefs held as the rows of a (B, T) array -------------


def propagate_many(
    model: HsePsrModel,
    W: np.ndarray,
    events: list | None = None,
    extra: np.ndarray | None = None,
):
    """Propagate B beliefs held as rows of W.

    Each row gets its own shift conditional (it is nonlinear in the
    weights), held only as its coordinates W_TOs^T C_w W_TAs
    (``gramops.factor_coordinates``, in its blocks of rows: C_w is
    symmetric, so ``kbr_step_batch`` solves each row against the r_TO
    columns of the shifted test-observation factor or the r_TA of the
    test-action one, whichever are fewer, in the form ``gramops.kbr_form``
    picks for the test-action rank: an r_TA x r_TA Woodbury system per row
    at low rank, one T x T LU per row near full rank).  For training state
    i with coordinates S_i = W_TO^T C_i W_TA,

        q_b[i] = <C_i, G_TO_TOs C_w G_TA_TAs^T>_F = <S_i, W_TOs^T C_w W_TAs>_F,

    and the inner products q_b are mapped back onto the training states
    by the product with the model's ridge inverse ``state_ridge``
    (S S^T + lam_T I)^-1, built and residual-checked once per model on
    the span of the training states, where every q_b = S x lies, so this
    step solves nothing.

    ``extra`` (B, T), if given, holds one more kernel vector per row, the
    rollout's planned window against the shifted test-action windows, that
    rides on the same factorization as one more column; the result is
    then the pair (propagated rows, C_w applied to each extra vector), and
    a row whose solve fails has the window column and then the shift
    columns escalated alone, recording ``window-conditioning[b]`` and
    ``shift-conditional[b]`` as the two separate solves would.
    """
    g = model.grams
    W = np.asarray(W, dtype=float)
    coords = factor_coordinates(  # W_TOs^T C_w W_TAs per row
        W, g.G_TAs_TAs, g.lam_T, g.W_TAs, g.W_TOs,
        label="shift-conditional", events=events,
        extra=extra, extra_label="window-conditioning",
    )
    if extra is not None:
        coords, solved_extra = coords
    q = coords.reshape(len(W), -1) @ model.state_factors.T
    out = q @ model.state_ridge.T
    return out if extra is None else (out, solved_extra)


def condition_action_many(
    model: HsePsrModel, W: np.ndarray, K_a: np.ndarray
) -> np.ndarray:
    """Row b mixes the action conditioning matrices by W[b] and applies
    the mixture to the action kernel vector K_a[b]:

        out_b = sum_i (W[b, i] / lam_i) a_i * (k_b - V S_i V^T (a_i * k_b))

    with a_i column i of the history weights and (V, S, lam) the model's
    action factors; the prebuilt factors make this stage solve-free.
    """
    A = model.history_state_weights
    V, S = model.action_factors.V, model.action_factors.S
    B, T = W.shape
    r = V.shape[1]
    c = W / model.action_factors.lam  # c[b, i]: the weight of matrix i
    # (T, B, r) layouts, so that both T x T products are single GEMMs
    kV = K_a.T[:, :, None] * V[:, None, :]
    U = (A.T @ kV.reshape(T, B * r)).reshape(T, B, r)  # U[i, b] = V^T (a_i * k_b)
    s = U @ S.transpose(0, 2, 1)  # s[i, b] = S_i U[i, b]
    Z = (A @ (c.T[:, :, None] * s).reshape(T, B * r)).reshape(T, B, r)
    return (c @ A.T) * K_a - (Z * V[:, None, :]).sum(axis=2).T


def condition_observation_many(
    model: HsePsrModel,
    W: np.ndarray,
    K_o: np.ndarray,
    events: list | None = None,
) -> np.ndarray:
    """Kernel Bayes step of each row W[b] on K_o[b] by ``kbr_step_batch``
    over the observation Gram's factor (one r x r Woodbury solve per row
    while the rank is low), escalated row by row as
    ``obs-conditioning[b]``."""
    g = model.grams
    return kbr_step_batch(
        W, g.G_O_O, g.lam_T, K_o, factor=g.V_O,
        label="obs-conditioning", events=events,
    )


def _normalize_rows(W: np.ndarray, renormalize: bool):
    """The collapse rule: (W rescaled to unit row sums if ``renormalize``,
    rows whose sum, or else L1 mass, vanished; those are left as computed)."""
    if renormalize:
        totals = W.sum(axis=1)
        collapsed = np.abs(totals) < DEGENERATE_TOL
        return W / np.where(collapsed, 1.0, totals)[:, None], collapsed
    return W, np.abs(W).sum(axis=1) < DEGENERATE_TOL


def _update_rows(
    model, W, actions_std, obs_std, events=None, propagated=False
) -> np.ndarray:
    """The three stages for each row, before the collapse rule; rows that
    are ``propagated`` already go through the last two only."""
    if not propagated:
        W = propagate_many(model, W, events=events)
    K_a = gram(model.kernels.action, actions_std, model.cur_actions)
    K_o = gram(model.kernels.obs, obs_std, model.cur_obs)
    W = condition_action_many(model, W, K_a)
    return condition_observation_many(model, W, K_o, events)


def update_standardized_many(
    model: HsePsrModel,
    W: np.ndarray,
    actions_std: np.ndarray,
    obs_std: np.ndarray,
    renormalize: bool = False,
    resets: list | None = None,
    events: list | None = None,
    propagated: bool = False,
) -> np.ndarray:
    """One filter step for B beliefs at once.

    Rows that collapse are restarted from the feasible state, and their
    indices are appended to ``resets`` (if given).  Escalated solves of
    every stage are appended to ``events`` (if given) as ``SolveEvent``s
    labelled with their row.  With ``propagated``, W holds rows that
    ``propagate_many`` has already advanced (for instance with a rollout
    window's kernel vector riding on its solve), and the step runs only
    the action and observation stages and the collapse rule.
    """
    W, collapsed = _normalize_rows(
        _update_rows(model, W, actions_std, obs_std, events, propagated),
        renormalize,
    )
    W[collapsed] = model.feasible_weights
    if resets is not None:
        resets.extend(np.flatnonzero(collapsed).tolist())
    return W
