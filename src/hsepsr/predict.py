"""Prediction of future observations from a filtered belief.

The belief's conditioning matrix against the shifted test-action windows
(the same kernel Bayes regression the filter's propagation step forms,
with the current weights as prior) is applied to the kernel vector of a
planned action window.  That yields weights gamma over the shifted
test-observation windows; expectations of any per-window function are
then weighted sums.  The observation predicted for step j of the window
is the j-th block of the shifted window list, mapped back to raw units
with the model's standardizer.

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
from hsepsr.gramops import kbr_step_batch
from hsepsr.kernels import gram
from hsepsr.learner import BeliefState, HsePsrModel

MODES = ("conditioned", "direct")


def condition_test_actions(
    model: HsePsrModel, state: BeliefState, action_window: np.ndarray
) -> np.ndarray:
    """Weights over shifted test-observation windows after conditioning the
    belief on a raw planned action window of shape (test_length, da)."""
    window = np.asarray(action_window, dtype=float)
    expected = (model.config.test_length, model.action_dim)
    if window.size != expected[0] * expected[1]:
        raise ValueError(
            f"planned action window must hold exactly {expected[0]} actions "
            f"of dimension {expected[1]}, got shape {window.shape}"
        )
    window = window.reshape(expected)
    window_std = model.standardizer.transform_actions(window).ravel()
    return condition_test_actions_many(model, state.weights[None], window_std[None])[0]


def expect_function(
    model: HsePsrModel, gamma: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Expectation of per-sample values (T,) or (T, m) under weights gamma."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != model.n_samples:
        raise ValueError("values must carry one row per training sample")
    return values.T @ gamma


def _obs_block(model: HsePsrModel, horizon: int) -> np.ndarray:
    do = model.obs_dim
    return model.shifted_test_obs[:, (horizon - 1) * do : horizon * do]


def predict_observation_at(
    model: HsePsrModel,
    state: BeliefState,
    future_actions: np.ndarray | None,
    horizon: int,
    mode: str = "conditioned",
) -> np.ndarray:
    """Predict the raw observation ``horizon`` steps ahead (within the window).

    ``future_actions`` holds at least ``test_length`` planned actions; the
    first window of them is conditioned on.  Mode "direct" skips action
    conditioning and evaluates the expectation under the belief weights
    themselves, a diagnostic for how informative the belief alone is.
    """
    N = model.config.test_length
    if mode not in MODES:
        raise ValueError(f"unknown prediction mode {mode!r}")
    if not 1 <= horizon <= N:
        raise ValueError(
            f"horizon {horizon} outside the test window (1..{N}); "
            "use rollout_predict for longer ranges"
        )
    if mode == "direct":
        weights = state.weights
    else:
        if future_actions is None:
            raise ValueError("conditioned prediction needs planned actions")
        A = np.asarray(future_actions, dtype=float).reshape(-1, model.action_dim)
        _checked_horizons(model, A.shape[0], [horizon])
        weights = condition_test_actions(model, state, A[:N])
    pred_std = expect_function(model, weights, _obs_block(model, horizon))
    return model.standardizer.inverse_obs(pred_std)


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
        raise ValueError("horizons must be positive integers")
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
    renormalize: bool = False,
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
    """Batched gamma weights: row b conditions belief W[b] on windows_std[b]."""
    K = gram(model.kernels.test_action, windows_std, model.shifted_test_actions)
    return kbr_step_batch(
        W, model.grams.G_TAs_TAs, model.grams.lam_T, K,
        label="window-conditioning",
    )


def rollout_predict_many(
    model: HsePsrModel,
    W: np.ndarray,
    future_actions: np.ndarray,
    horizons,
    renormalize: bool = False,
    resets: list | None = None,
) -> np.ndarray:
    """Batched ``rollout_predict``: row b rolls belief W[b] under plan b.

    ``future_actions`` has shape (B, P, da) with P covering at least the
    test window and the largest horizon.  Returns raw predictions of
    shape (B, n_horizons, d_o) with horizons sorted ascending.  Rows whose
    feedback update collapses restart from the feasible state; each such
    restart is appended to ``resets`` (if given) as a (row, level) pair.
    """
    W = np.asarray(W, dtype=float)
    A = np.asarray(future_actions, dtype=float)
    if A.ndim != 3 or A.shape[0] != W.shape[0] or A.shape[2] != model.action_dim:
        raise ValueError(
            "future_actions must be (n_beliefs, plan_length, action_dim), "
            f"got {A.shape}"
        )
    horizons = _checked_horizons(model, A.shape[1], horizons)
    return _rollout_rows(model, W, A, horizons, renormalize, resets)


def _rollout_rows(
    model: HsePsrModel,
    W: np.ndarray,
    A: np.ndarray,
    horizons: list,
    renormalize: bool,
    resets: list | None = None,
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
                model, W, A_std[:, level], window_pred[:, 0], renormalize, rows
            )
            if resets is not None:
                resets.extend((row, level) for row in rows)
    raw = model.standardizer.inverse_obs(preds_std.reshape(-1, do))
    return raw.reshape(B, len(horizons), do)
