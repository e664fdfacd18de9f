"""Dense oracles for the tests: training Grams, the single-belief kernel
Bayes step, the ridge solve, the state Gram of coefficient matrices and
the readout.

The model keeps only the Grams its runtime reads (``GramCache``); the
tests that check a factored path against the dense one evaluate the rest
here, with the same ``kernels.gram`` calls training uses, and the state
Gram S S^T, which the model keeps only as its ridge inverse.  ``kbr_step``
and ``state_gram`` are the dense forms the row-batched solve and the
factored states replaced.  ``dense_ridge`` is the plain ridge solve,
without the residual test and escalation of the model's own ridge
solves, so that a test of those solves takes no reference from them.
``dense_readout`` is the prediction readout solved from scratch: the
histories one step on and the shifted test-action windows cut from the
trajectory itself, the exact Grams and one T x T solve per call, where
the model multiplies by its prebuilt inverse.
"""

from types import SimpleNamespace

import numpy as np

from hsepsr.gramops import escalated_solve
from hsepsr.kernels import gram


def dense_grams(windowed, kernels):
    """The eight training Grams of ``windowed`` under ``kernels``, by name;
    shifted window lists use the kernel of their unshifted stream."""
    w, k = windowed, kernels
    return SimpleNamespace(
        G_HH=gram(k.history, w.histories, w.histories),
        G_TA_TA=gram(k.test_action, w.test_actions, w.test_actions),
        G_TAs_TAs=gram(k.test_action, w.shifted_test_actions, w.shifted_test_actions),
        G_TO_TO=gram(k.test_obs, w.test_obs, w.test_obs),
        G_TO_TOs=gram(k.test_obs, w.test_obs, w.shifted_test_obs),
        G_TA_TAs=gram(k.test_action, w.test_actions, w.shifted_test_actions),
        G_A_A=gram(k.action, w.cur_actions, w.cur_actions),
        G_O_O=gram(k.obs, w.cur_obs, w.cur_obs),
    )


def factor_state_gram(model):
    """The training states' Gram S S^T from the model's ``state_factors``
    rows S, symmetrized as the model build does."""
    S = model.state_factors
    G = S @ S.T
    return (G + G.T) / 2.0


def dense_ridge(G, lam, B):
    """(G + lam I)^-1 B by one ``numpy.linalg.solve``."""
    G = np.asarray(G, dtype=float)
    return np.linalg.solve(G + lam * np.eye(len(G)), B)


def kbr_step(weights, G, lam, k, *, label="kbr", events=None):
    """Posterior sample weights (diag(w) G + lam I)^-1 diag(w) k for one
    belief w, by one dense escalated solve; ``k`` is a kernel vector or a
    matrix whose columns are kernel vectors."""
    w = np.asarray(weights, dtype=float)
    G = np.asarray(G, dtype=float)
    k = np.asarray(k, dtype=float)
    eye = np.eye(w.shape[0])
    rhs = w * k if k.ndim == 1 else w[:, None] * k
    return escalated_solve(
        lambda l: w[:, None] * G + l * eye, rhs, lam,
        sym=False, label=label, events=events,
    )


def state_gram(left, right, G_obs, G_act, block=64):
    """Inner products between operator-valued states in coefficient form:
    entry (i, j) is trace(left[i]^T @ G_obs @ right[j] @ G_act^T), with
    G_obs and G_act the Grams between the left and right obs and action
    window lists.  Columns go in blocks of ``block`` states."""
    S_left, T, _ = left.shape
    S_right = right.shape[0]
    left_rows = left.reshape(S_left, T * T)
    G_act_T = np.ascontiguousarray(G_act.T)
    out = np.empty((S_left, S_right))
    for start in range(0, S_right, block):
        stop = min(start + block, S_right)
        m = np.empty((stop - start, T * T))
        for j in range(start, stop):
            m[j - start] = (G_obs @ right[j] @ G_act_T).ravel()
        out[:, start:stop] = left_rows @ m.T
    return out


def shifted_histories(model, traj):
    """Row i: the L pairs after pair i of the standardized trajectory,
    flattened time-major, the history window of training sample i + 1."""
    L, T = model.config.history_length, model.n_samples
    work = model.standardizer.transform(traj)
    pairs = np.hstack([work.actions, work.observations])
    return np.stack([pairs[i + 1 : i + 1 + L].ravel() for i in range(T)])


def dense_readout(model, traj, W, windows_std):
    """Row b: gamma = (G_HsHs o G_TAsTAs + lam_T I)^-1 ((G_HsHs w_b) o k_b)
    for the belief W[b] and the kernel vector k_b of the standardized
    planned window windows_std[b] against the shifted test-action windows,
    by one dense solve on the exact Grams, with every window cut from the
    trajectory ``traj`` the model was trained on."""
    L, N, T = model.config.history_length, model.config.test_length, model.n_samples
    Hs = shifted_histories(model, traj)
    actions = model.standardizer.transform_actions(traj.actions)
    TAs = np.stack([actions[L + 1 + i : L + 1 + i + N].ravel() for i in range(T)])
    k = model.kernels
    G_Hs = gram(k.history, Hs, Hs)
    lhs = G_Hs * gram(k.test_action, TAs, TAs) + model.grams.lam_T * np.eye(T)
    K = gram(k.test_action, np.atleast_2d(windows_std), TAs)
    rhs = (np.atleast_2d(W) @ G_Hs) * K
    return np.linalg.solve(lhs, rhs.T).T
