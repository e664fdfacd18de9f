"""Prediction of future observations from a filtered belief.

A belief w is read through the model's fixed readout operator: for the
kernel vector k of a planned action window against the shifted
test-action windows,

    gamma = M ((G_HsHs w) o k),   M = (G_HsHs o G_TAsTAs + lam_T I)^-1,

the conditional mean embedding of the shifted test-observation windows
given the state and the test actions under the product kernel (Song,
Huang, Smola & Fukumizu, ICML 2009), with the belief entering through its
kernel vector G_HsHs w against the histories one step on.  M and G_HsHs
are built once per model (``learner.train_from_windows``), so reading a
belief solves nothing.  The observation predicted for step j of the
window is the gamma-weighted average of the j-th blocks of the shifted
test-observation windows, mapped back to raw units with the model's
standardizer.  This is the first level of the rollout.

Horizons past the window length roll the filter forward: each advance
feeds the one-step-ahead predicted observation back through a filter
update together with the planned action, then predicts the deepest step
of the next window.  The level loop runs once for B beliefs held as rows;
``rollout_predict`` is its batch of one.  A row whose feedback update
collapses restarts from the feasible state and is reported with its level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hsepsr.filter import update_standardized_many
# not called here: perfbench's tracing.TARGETS wraps this name and requires it
from hsepsr.gramops import kbr_step_batch  # noqa: F401
from hsepsr.kernels import gram
from hsepsr.learner import BeliefState, HsePsrModel

@dataclass
class RolloutResult:
    """Predicted observations per requested horizon plus any belief resets.

    ``predictions[i]`` is the raw observation predicted ``horizons[i]``
    steps ahead; ``resets`` lists rollout levels whose feedback update
    collapsed the belief.
    """

    horizons: list
    predictions: np.ndarray
    resets: list = field(default_factory=list)


def _checked_horizons(model: HsePsrModel, plan_length: int, horizons) -> list:
    """Sorted unique horizons, checked against a plan of ``plan_length``
    actions: it must cover the test window and the largest horizon."""
    horizons = sorted(int(h) for h in set(horizons))
    if not horizons or horizons[0] < 1:
        raise ValueError(f"horizons must be positive integers, got {horizons}")
    N, max_h = model.config.test_length, horizons[-1]
    if plan_length < N:
        raise ValueError(f"need at least {N} planned actions, got {plan_length}")
    if plan_length < max_h:
        raise ValueError(
            f"horizon {max_h} needs {max_h} planned actions, got {plan_length}"
        )
    return horizons


def rollout_predict(
    model: HsePsrModel,
    state: BeliefState,
    future_actions: np.ndarray,
    horizons=None,
    renormalize: bool = True,
) -> RolloutResult:
    """Predict raw observations for the requested horizons.

    Horizons within the first test window come straight from conditioning
    on it.  Each further horizon advances the belief one step by feeding
    back the one-step-ahead predicted observation through a filter update
    together with the planned action, then reads the deepest step of the
    advanced window.  ``horizons`` defaults to every step covered by the
    plan; the plan must span at least ``test_length`` actions and the
    largest horizon.
    """
    A = np.asarray(future_actions, dtype=float).reshape(-1, model.action_dim)
    if horizons is None:
        horizons = range(1, A.shape[0] + 1)
    horizons = _checked_horizons(model, A.shape[0], horizons)
    resets: list = []
    preds = _rollout_rows(
        model, state.weights[None], A[None], horizons, renormalize, resets=resets
    )
    return RolloutResult(horizons, preds[0], [level for _, level in resets])


def condition_test_actions_many(
    model: HsePsrModel, W: np.ndarray, windows_std: np.ndarray
) -> np.ndarray:
    """Batched gamma weights: row b reads belief W[b] under the planned
    window windows_std[b] through the model's readout,
    gamma_b = M ((G_HsHs w_b) o k_b)."""
    K = gram(model.kernels.test_action, windows_std, model.shifted_test_actions)
    return ((W @ model.shifted_history_gram) * K) @ model.readout.T


def rollout_predict_many(
    model: HsePsrModel,
    W: np.ndarray,
    future_actions: np.ndarray,
    horizons,
    renormalize: bool = True,
    resets: list | None = None,
    events: list | None = None,
) -> np.ndarray:
    """Batched ``rollout_predict``: row b rolls belief W[b] under plan b.

    ``future_actions`` has shape (B, P, da) with P covering at least the
    test window and the largest horizon.  Returns raw predictions of
    shape (B, n_horizons, d_o) with horizons sorted ascending.  Rows whose
    feedback update collapses restart from the feasible state; each such
    restart is appended to ``resets`` (if given) as a (row, level) pair.
    Escalated solves of the feedback updates are appended to ``events``
    (if given).
    """
    W = np.asarray(W, dtype=float)
    A = np.asarray(future_actions, dtype=float)
    if A.ndim != 3 or A.shape[0] != W.shape[0] or A.shape[2] != model.action_dim:
        raise ValueError(
            "future_actions must be (n_beliefs, plan_length, action_dim), "
            f"got {A.shape}"
        )
    horizons = _checked_horizons(model, A.shape[1], horizons)
    return _rollout_rows(model, W, A, horizons, renormalize, resets, events)


def _rollout_rows(
    model: HsePsrModel,
    W: np.ndarray,
    A: np.ndarray,
    horizons: list,
    renormalize: bool,
    resets: list | None = None,
    events: list | None = None,
) -> np.ndarray:
    """The rollout level loop for B beliefs under raw (B, P, da) plans;
    returns raw (B, len(horizons), d_o) predictions."""
    N = model.config.test_length
    do = model.obs_dim
    B, _, da = A.shape
    A_std = model.standardizer.transform_actions(A.reshape(-1, da)).reshape(A.shape)
    obs_windows = model.shifted_test_obs
    preds_std = np.empty((B, len(horizons), do))
    last_level = max(0, horizons[-1] - N)
    for level in range(last_level + 1):
        windows = A_std[:, level : level + N].reshape(B, N * da)
        gamma = condition_test_actions_many(model, W, windows)
        window_pred = (gamma @ obs_windows).reshape(B, N, do)
        for i, h in enumerate(horizons):
            if max(0, h - N) == level:  # the first window reaching h
                preds_std[:, i] = window_pred[:, min(h, N) - 1]
        if level < last_level:
            rows: list = []
            W = update_standardized_many(
                model, W, A_std[:, level], window_pred[:, 0], renormalize, rows,
                events,
            )
            if resets is not None:
                resets.extend((row, level) for row in rows)
    raw = model.standardizer.inverse_obs(preds_std.reshape(-1, do))
    return raw.reshape(B, len(horizons), do)
