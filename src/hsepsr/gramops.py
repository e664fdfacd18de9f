"""Regularized Gram-matrix operations shared by training and filtering.

Everything here works in the sample-weight representation: operators between
reproducing kernel Hilbert spaces are carried as T x T coefficient matrices
over the training samples, and conditioning or regression steps reduce to
regularized linear solves against Gram matrices.

The two solve shapes are

* ridge:        (G + lam I) X = B            with G symmetric PSD
* conditioning: (diag(w) G + lam I) X = diag(w) B

and both escalate the regularizer by factors of 10 (up to three retries)
when a factorization fails or the relative residual exceeds 1e-8, so a
near-singular Gram degrades accuracy instead of aborting a run.  The
row-batched conditioning solve stacks many weight vectors into one call and
sends only the rows that fail the same test through that escalation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

#: Relative residual above which a solve is treated as failed.
RESIDUAL_RTOL = 1e-8

#: Number of times the regularizer is multiplied by 10 before giving up.
MAX_JITTER_RETRIES = 3


@dataclass(frozen=True)
class SolveEvent:
    """Record of a solve that needed an escalated regularizer."""

    label: str
    requested: float
    used: float
    attempts: int


def _factor_solve(lhs: np.ndarray, rhs: np.ndarray, sym: bool) -> np.ndarray:
    if sym:
        c, low = sla.cho_factor(lhs, lower=True, check_finite=False)
        return sla.cho_solve((c, low), rhs, check_finite=False)
    return sla.solve(lhs, rhs, check_finite=False)


def escalated_solve(
    build_lhs,
    rhs: np.ndarray,
    lam: float,
    *,
    sym: bool,
    label: str = "solve",
    events: list | None = None,
) -> np.ndarray:
    """Solve build_lhs(lam) @ X = rhs, raising lam tenfold on failure.

    A solve fails when the factorization raises or when the residual
    exceeds ``RESIDUAL_RTOL`` times the Frobenius norm of ``rhs``.  Each
    escalation that ends in success is appended to ``events`` (if given);
    exhausting the retries raises ``numpy.linalg.LinAlgError``.
    """
    if not lam > 0:
        raise ValueError("regularizer must be positive")
    rhs_norm = float(np.linalg.norm(rhs))
    lam_eff = float(lam)
    for attempt in range(1 + MAX_JITTER_RETRIES):
        lhs = build_lhs(lam_eff)
        try:
            x = _factor_solve(lhs, rhs, sym)
        except np.linalg.LinAlgError:
            x = None
        if x is not None and np.isfinite(x).all():
            residual = float(np.linalg.norm(lhs @ x - rhs))
            if residual <= RESIDUAL_RTOL * rhs_norm or rhs_norm == 0.0:
                if attempt > 0 and events is not None:
                    events.append(SolveEvent(label, float(lam), lam_eff, attempt + 1))
                return x
        lam_eff *= 10.0
    raise np.linalg.LinAlgError(
        f"ill-conditioned solve ({label}): no acceptable solution up to "
        f"regularizer {lam_eff / 10.0:g}"
    )


def ridge_solve(
    G: np.ndarray,
    lam: float,
    B: np.ndarray,
    *,
    label: str = "ridge",
    events: list | None = None,
) -> np.ndarray:
    """Solve (G + lam I) X = B for symmetric PSD G."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    eye = np.eye(n)
    return escalated_solve(
        lambda l: G + l * eye, np.asarray(B, dtype=float), lam,
        sym=True, label=label, events=events,
    )


def conditioning_matrix(
    weights: np.ndarray,
    G: np.ndarray,
    lam: float,
    *,
    label: str = "conditioning",
    events: list | None = None,
) -> np.ndarray:
    """Kernel Bayes conditioning matrix (diag(w) G + lam I)^-1 diag(w).

    Applied to a kernel vector of a conditioning point it yields posterior
    sample weights; ``weights`` are the prior sample weights and may carry
    negative entries, so the system is solved as a general (nonsymmetric)
    one.
    """
    w = np.asarray(weights, dtype=float)
    G = np.asarray(G, dtype=float)
    eye = np.eye(w.shape[0])
    return escalated_solve(
        lambda l: w[:, None] * G + l * eye, np.diag(w), lam,
        sym=False, label=label, events=events,
    )


def kbr_step(
    weights: np.ndarray,
    G: np.ndarray,
    lam: float,
    k: np.ndarray,
    *,
    label: str = "kbr",
    events: list | None = None,
) -> np.ndarray:
    """Posterior sample weights (diag(w) G + lam I)^-1 diag(w) k.

    Equivalent to ``conditioning_matrix(w, G, lam) @ k`` but solved against
    the single right-hand side, which is much cheaper.  ``k`` may also be a
    matrix whose columns are kernel vectors of several conditioning points.
    """
    w = np.asarray(weights, dtype=float)
    G = np.asarray(G, dtype=float)
    k = np.asarray(k, dtype=float)
    eye = np.eye(w.shape[0])
    rhs = w * k if k.ndim == 1 else w[:, None] * k
    return escalated_solve(
        lambda l: w[:, None] * G + l * eye, rhs, lam,
        sym=False, label=label, events=events,
    )


def kbr_step_batch(
    weights: np.ndarray,
    G: np.ndarray,
    lam: float,
    k: np.ndarray,
    *,
    label: str = "kbr",
    events: list | None = None,
    first_row: int = 0,
) -> np.ndarray:
    """Row-batched ``kbr_step``: weights are (B, T); k is (B, T), giving a
    (B, T) result, or (B, T, m), giving (B, T, m) (leading dimension 1
    shares it across rows).

    The rows are solved in one stacked call and checked as
    ``escalated_solve`` checks a solve.  Rows that fail (all of them if the
    stacked call raises) are solved again by ``kbr_step``, which escalates
    and records ``label[first_row + b]`` as a single-row solve would.
    """
    w = np.asarray(weights, dtype=float)
    k = np.asarray(k, dtype=float)
    B, T = w.shape
    cols = k[:, :, None] if k.ndim == 2 else k
    rhs = w[:, :, None] * cols
    lhs = w[:, :, None] * G[None, :, :] + lam * np.eye(T)[None, :, :]
    try:
        x = np.linalg.solve(lhs, rhs)
        residual = np.linalg.norm(lhs @ x - rhs, axis=(1, 2))
        rhs_norm = np.linalg.norm(rhs, axis=(1, 2))
        ok = np.isfinite(x).all(axis=(1, 2)) & (
            (residual <= RESIDUAL_RTOL * rhs_norm) | (rhs_norm == 0.0)
        )
    except np.linalg.LinAlgError:
        x = np.empty(rhs.shape)
        ok = np.zeros(B, dtype=bool)
    cols = np.broadcast_to(cols, rhs.shape)
    for b in np.flatnonzero(~ok):
        x[b] = kbr_step(
            w[b], G, lam, cols[b], label=f"{label}[{first_row + b}]", events=events
        )
    return x[:, :, 0] if k.ndim == 2 else x


def conditioning_tensor(
    weight_columns: np.ndarray,
    G: np.ndarray,
    lam: float,
    *,
    label: str = "conditioning",
    events: list | None = None,
) -> np.ndarray:
    """Stack of conditioning matrices, one per column of ``weight_columns``.

    ``weight_columns`` is (T, S); slot s of the returned (S, T, T) array is
    ``conditioning_matrix(weight_columns[:, s], G, lam)``.
    """
    W = np.asarray(weight_columns, dtype=float)
    T, S = W.shape
    out = np.empty((S, T, T))
    for s in range(S):
        out[s] = conditioning_matrix(
            W[:, s], G, lam, label=f"{label}[{s}]", events=events
        )
    return out


def history_weights(
    G_HH: np.ndarray,
    lam: float,
    *,
    events: list | None = None,
) -> np.ndarray:
    """Per-history prior sample weights: column t weights the training
    samples whose histories resemble history t.

    This is the kernel ridge regression of each history's indicator onto
    all histories: (G_HH + lam I)^-1 G_HH.
    """
    return ridge_solve(G_HH, lam, G_HH, label="history-weights", events=events)


def state_gram(
    left: np.ndarray,
    right: np.ndarray,
    G_obs: np.ndarray,
    G_act: np.ndarray,
    block: int = 64,
) -> np.ndarray:
    """Inner products between operator-valued states in coefficient form.

    State i on the left is the operator with coefficient matrix left[i]
    against its obs/action sample lists; entry (i, j) of the result is

        trace(left[i]^T @ G_obs @ right[j] @ G_act^T)

    where G_obs and G_act are the Gram matrices between the left and right
    obs window lists and action window lists.  Columns are processed in
    blocks so the flattened right factors never exceed block * T^2 floats.
    """
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


@dataclass
class GramCache:
    """All training Gram matrices plus the scaled regularizer lam * T."""

    G_HH: np.ndarray
    G_TA_TA: np.ndarray
    G_TAs_TAs: np.ndarray
    G_TO_TO: np.ndarray
    G_TO_TOs: np.ndarray
    G_TA_TAs: np.ndarray
    G_A_A: np.ndarray
    G_O_O: np.ndarray
    lam_T: float

    @property
    def n_samples(self) -> int:
        return self.G_HH.shape[0]


def build_gram_cache(windows, kernels, lam: float) -> GramCache:
    """Evaluate every training Gram matrix for one windowed data set.

    ``windows`` is a WindowedData and ``kernels`` a resolved KernelSet;
    shifted window lists reuse the kernel of their unshifted stream.  The
    regularizer is scaled by the sample count, matching its role as a
    ridge penalty on averaged Gram operators.
    """
    from hsepsr.kernels import gram

    if not lam > 0:
        raise ValueError("lam must be positive")
    return GramCache(
        G_HH=gram(kernels.history, windows.histories, windows.histories),
        G_TA_TA=gram(kernels.test_action, windows.test_actions, windows.test_actions),
        G_TAs_TAs=gram(
            kernels.test_action,
            windows.shifted_test_actions,
            windows.shifted_test_actions,
        ),
        G_TO_TO=gram(kernels.test_obs, windows.test_obs, windows.test_obs),
        G_TO_TOs=gram(kernels.test_obs, windows.test_obs, windows.shifted_test_obs),
        G_TA_TAs=gram(
            kernels.test_action, windows.test_actions, windows.shifted_test_actions
        ),
        G_A_A=gram(kernels.action, windows.cur_actions, windows.cur_actions),
        G_O_O=gram(kernels.obs, windows.cur_obs, windows.cur_obs),
        lam_T=lam * windows.n_samples,
    )
