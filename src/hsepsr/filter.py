"""Recursive belief updates from action-observation pairs.

A belief is a weight vector over the T training samples.  Absorbing one
action-observation pair runs three stages:

1. propagate:   form the belief's own conditioning matrix against the
                shifted test-action windows (a kernel Bayes regression
                with the current weights as prior), pair it with the
                shifted test-observation windows, and project the result
                back onto the training states through their Gram matrix;
                this realigns the belief with the windows one step ahead,
2. action step: mix the per-sample action conditioning matrices by the
                propagated weights and apply them to the executed action's
                kernel vector against the training actions,
3. obs step:    kernel Bayes conditioning of the resulting weights on the
                received observation's kernel vector against the training
                observations.

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

from dataclasses import dataclass, field

import numpy as np

from hsepsr.gramops import kbr_step_batch, ridge_solve
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
) -> BeliefState:
    """One filter step on inputs already in the model's standardized units."""
    if state.degenerate:
        return state
    W = _update_rows(model, state.weights[None], _as_row(action_std), _as_row(obs_std))
    return _belief(W, renormalize)


def update(
    model: HsePsrModel,
    state: BeliefState,
    action: np.ndarray,
    observation: np.ndarray,
    renormalize: bool = False,
) -> BeliefState:
    """Absorb one raw action-observation pair into the belief."""
    a_std = model.standardizer.transform_actions(np.asarray(action, dtype=float).ravel())
    o_std = model.standardizer.transform_obs(np.asarray(observation, dtype=float).ravel())
    return update_standardized(model, state, a_std, o_std, renormalize)


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
) -> FilterResult:
    """Filter aligned (n, d_a) actions and (n, d_o) observations.

    Returns one belief per absorbed pair (none for empty inputs),
    restarting from the feasible state whenever the belief collapses.
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
        state = update_standardized(model, state, a_std[t], o_std[t], renormalize)
        if state.degenerate:
            resets.append(t)
            state = model.feasible_state()
        states.append(state)
    return FilterResult(states=states, resets=resets)


# --- the stages, on B beliefs held as the rows of a (B, T) array -------------


def propagate_many(
    model: HsePsrModel,
    W: np.ndarray,
    block: int = 32,
    events: list | None = None,
) -> np.ndarray:
    """Propagate B beliefs held as rows of W in one stacked pass.

    Each row gets its own shift conditional (it is nonlinear in the
    weights), solved straight against the shifted-to-unshifted window
    Gram; ``block`` bounds the stacked temporaries to O(block * T^2).
    """
    g = model.grams
    W = np.asarray(W, dtype=float)
    B, T = W.shape
    flat = model.state_conditioning_flat()
    out = np.empty_like(W)
    for s in range(0, B, block):
        Wb = W[s : s + block]
        cond = kbr_step_batch(  # C_w @ G_TA_TAs.T per row
            Wb, g.G_TAs_TAs, g.lam_T, g.G_TA_TAs.T[None],
            label="shift-conditional", events=events, first_row=s,
        )
        q = (g.G_TO_TOs @ cond).reshape(len(Wb), T * T) @ flat.T
        out[s : s + block] = ridge_solve(
            model.gram_states, g.lam_T, q.T, label="propagate", events=events
        ).T
    return out


def condition_action_many(
    model: HsePsrModel, W: np.ndarray, K_a: np.ndarray
) -> np.ndarray:
    """Row b mixes the action conditioning matrices by W[b] and applies
    the mixture to the action kernel vector K_a[b]."""
    T = W.shape[1]
    mixed = (W @ model.action_conditioning_flat()).reshape(-1, T, T)
    return (mixed @ K_a[:, :, None])[:, :, 0]


def condition_observation_many(
    model: HsePsrModel,
    W: np.ndarray,
    K_o: np.ndarray,
    events: list | None = None,
) -> np.ndarray:
    return kbr_step_batch(
        W, model.grams.G_O_O, model.grams.lam_T, K_o,
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


def _update_rows(model, W, actions_std, obs_std) -> np.ndarray:
    """The three stages for each row, before the collapse rule."""
    K_a = gram(model.kernels.action, actions_std, model.cur_actions)
    K_o = gram(model.kernels.obs, obs_std, model.cur_obs)
    W = condition_action_many(model, propagate_many(model, W), K_a)
    return condition_observation_many(model, W, K_o)


def update_standardized_many(
    model: HsePsrModel,
    W: np.ndarray,
    actions_std: np.ndarray,
    obs_std: np.ndarray,
    renormalize: bool = False,
    resets: list | None = None,
) -> np.ndarray:
    """One filter step for B beliefs at once.

    Rows that collapse are restarted from the feasible state, and their
    indices are appended to ``resets`` (if given).
    """
    W, collapsed = _normalize_rows(
        _update_rows(model, W, actions_std, obs_std), renormalize
    )
    W[collapsed] = 1.0 / model.n_samples
    if resets is not None:
        resets.extend(np.flatnonzero(collapsed).tolist())
    return W
