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
near-singular Gram degrades accuracy instead of aborting a run.  The ridge
shape is solved only while a model is built (the history weights and the
inverse of the training states' Gram, which the filter then multiplies
by); every filter step solves the conditioning shape.
``solve_rows`` solves many such systems, one per row: each row's system is
written into buffers reused from row to row and factored in place by
LAPACK ``getrf``, and only the rows that fail the same test, an exactly
singular one included, go through that escalation.

When a Gram has low numerical rank, G = V V^T with V of shape (T, r), the
conditioning solve takes the Woodbury form

    (diag(w) G + lam I)^-1 diag(w) k = (w*k - w * (V y)) / lam,
    (lam I_r + V^T diag(w) V) y = V^T (w*k),

an r x r system; ``low_rank_factor`` finds V at numpy's ``matrix_rank``
tolerance, so the two forms agree to rounding.  ``kbr_step_batch`` is the
one row-batched kernel Bayes solve of training and filtering, and picks
the form per call from the rank of the factor it is given: by the rule
``kbr_form``, Woodbury costs about 2 T r^2 + 8 T r m flops for m columns
and the dense per-row LU about (2/3) T^3 + 4 T^2 m, and the cheaper one
runs.  It follows the rank the factor has, not a setting: the discrete
models' test-action Grams (rank 2-6) and every single-step observation
Gram seen so far solve in Woodbury form, the ODE and desk test-action
Grams (rank T + 1) in the dense form.  Both forms apply the dense
system's residual test and escalate a failing row alike.

The test windows and their one-step shifts are factored jointly
(``window_factors``): one factor of the Gram of both lists, split by rows
into W_now and W_shifted, so every test-window Gram is a product of two
factor blocks, e.g. G_TA_TAs = W_TA W_TAs^T.  A conditioning matrix C
against those windows then enters an inner product of operators only as
its factor coordinates W_obs^T C W_act:

    <C_i, G_TO_TOs C_w G_TA_TAs^T>_F = <W_TO^T C_i W_TA, W_TOs^T C_w W_TAs>_F,

which ``state_factors`` computes for the training states and the filter's
propagation step for the belief.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from hsepsr.kernels import gram

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
    accept=None,
) -> np.ndarray:
    """Solve build_lhs(lam) @ X = rhs, raising lam tenfold on failure.

    A solve fails when the factorization raises or when the residual
    exceeds ``RESIDUAL_RTOL`` times the Frobenius norm of ``rhs``, or when
    ``accept(X, lam)`` (if given) is false.  Each escalation that ends in
    success is appended to ``events`` (if given); exhausting the retries
    raises ``numpy.linalg.LinAlgError``.
    """
    if not lam > 0:
        raise ValueError("regularizer must be positive")
    rhs_norm = float(np.linalg.norm(rhs))
    lam_eff = float(lam)
    for attempt in range(1 + MAX_JITTER_RETRIES):
        lhs = build_lhs(lam_eff)
        try:
            # the residual test below judges the attempt; scipy's condition
            # warning would only repeat it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                x = _factor_solve(lhs, rhs, sym)
        except np.linalg.LinAlgError:
            x = None
        if x is not None and np.isfinite(x).all():
            residual = float(np.linalg.norm(lhs @ x - rhs))
            if (residual <= RESIDUAL_RTOL * rhs_norm or rhs_norm == 0.0) and (
                accept is None or accept(x, lam_eff)
            ):
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


def _within_rtol(res: np.ndarray, rhs: np.ndarray) -> bool:
    """The residual's Frobenius norm is within ``RESIDUAL_RTOL`` times the
    right-hand side's, or the right-hand side is zero."""
    rhs_sq = float(np.vdot(rhs, rhs))
    residual = math.sqrt(np.vdot(res, res))
    return residual <= RESIDUAL_RTOL * math.sqrt(rhs_sq) or rhs_sq == 0.0


def _factor_rows(fill, shape, lam: float, split: int | None = None):
    """Plain per-row solves of (M_b + lam I) X_b = R_b, without escalation.

    ``shape`` is (B, n, m); ``fill(b, M, R)`` writes row b's (n, n) matrix
    and (n, m) right-hand side into the buffers it is given, which are
    reused from row to row, so no stack of systems is ever formed.  Each
    row is factored by LAPACK ``getrf`` and solved by ``getrs``.  Returns
    X and, per row, whether it passed ``escalated_solve``'s test: the
    factorization succeeded, X_b is finite and its residual on the system
    solved is within ``RESIDUAL_RTOL`` of the norm of R_b.  With ``split``,
    the columns before and after it are tested separately, each against
    its own right-hand side's norm.
    """
    B, n, m = shape
    x = np.empty(shape)
    ok = np.zeros(B, dtype=bool)
    lhs = np.empty((n, n))
    diagonal = lhs.reshape(-1)[:: n + 1]
    lu = np.empty((n, n), order="F")
    rhs = np.empty((n, m))
    xb = np.empty((n, m), order="F")
    res = np.empty((n, m))
    groups = [slice(None, split), slice(split, None)] if split else [slice(None)]
    with np.errstate(invalid="ignore", over="ignore"):
        for b in range(B):
            fill(b, lhs, rhs)
            diagonal += lam
            np.copyto(lu, lhs)
            lu, piv, info = sla.lapack.dgetrf(lu, overwrite_a=1)
            if info != 0:
                continue
            np.copyto(xb, rhs)
            xb, info = sla.lapack.dgetrs(lu, piv, xb, overwrite_b=1)
            x[b] = xb
            if info != 0 or not np.isfinite(xb).all():
                continue
            np.matmul(lhs, xb, out=res)
            res -= rhs
            ok[b] = all(_within_rtol(res[:, g], rhs[:, g]) for g in groups)
    return x, ok


def _stacked(M: np.ndarray, rhs: np.ndarray):
    """``solve_rows`` system of stacked (B, n, n) matrices and (B, n, m)
    right-hand sides: the fill function and the shape."""

    def fill(b, lhs, r):
        lhs[...] = M[b]
        r[...] = rhs[b]

    return fill, rhs.shape


def solve_rows(
    fill,
    shape: tuple,
    lam: float,
    *,
    label: str,
    events: list | None = None,
    first_row: int = 0,
    accept=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (M_b + lam I) X_b = R_b for every row b, one LU per row.

    ``shape`` is (B, n, m) and ``fill(b, M, R)`` writes row b's system into
    reused buffers (``_stacked`` adapts stacked arrays).  Each row is
    checked as ``escalated_solve`` checks a solve: finite, with a residual
    within ``RESIDUAL_RTOL`` on the system solved, and passing
    ``accept(X[rows], lam_rows, rows)`` (if given; it returns one bool per
    row).  Rows that fail, an exactly singular one included, are solved
    again by ``escalated_solve``, which escalates and records
    ``label[first_row + b]`` as a single-row solve would; the other rows
    keep their plain solves.  Returns X and the regularizer each row was
    solved with.
    """
    B, n, m = shape
    x, ok = _factor_rows(fill, shape, lam)
    used = np.full(B, float(lam))
    if accept is not None:
        rows = np.flatnonzero(ok)
        ok[rows] = accept(x[rows], used[rows], rows)
    eye = np.eye(n)
    for b in np.flatnonzero(~ok):
        row = np.array([b])
        M_b, rhs_b = np.empty((n, n)), np.empty((n, m))
        fill(b, M_b, rhs_b)
        row_events: list = []
        x[b] = escalated_solve(
            lambda l: M_b + l * eye, rhs_b, lam, sym=False,
            label=f"{label}[{first_row + b}]", events=row_events,
            accept=None if accept is None else (
                lambda xb, l: bool(accept(xb[None], np.array([l]), row)[0])
            ),
        )
        if row_events:
            used[b] = row_events[0].used
        if events is not None:
            events.extend(row_events)
    return x, used


def kbr_form(T: int, r: int, m: int) -> str:
    """The cheaper form of a kernel Bayes step of T samples against m
    columns for a Gram of rank r, by flop count: "woodbury", about
    2 T r^2 (forming V^T diag(w) V) plus 8 T r m (V^T (w*k), V y and the
    two products of the residual test), when that is below "dense", about
    (2/3) T^3 (one T x T LU) plus 4 T^2 m (its solve and residual test).
    At r >= T the dense form always wins."""
    woodbury = 2 * T * r * r + 8 * T * r * m
    dense = 2 * T**3 / 3 + 4 * T * T * m
    return "woodbury" if woodbury < dense else "dense"


class _WoodburyRows:
    """Row b's kernel Bayes step (diag(w_b) V V^T + lam I)^-1 (w_b * K_b)
    in Woodbury form: the r x r systems

        (lam I_r + V^T diag(w_b) V) Y_b = V^T (w_b * K_b)

    in ``solve_rows``' fill form, and the steps X_b = (w_b * K_b -
    w_b * (V Y_b)) / lam they give.  ``cols`` is (B or 1, T, m), ``extra``
    (B, T) or None, one more column per row.  Kernel vectors are held as
    the rows of (B, n, T) arrays, so that a single column is computed with
    the same (B, T) by (T, r) products as a plain (B, T) batch."""

    def __init__(self, W, cols, extra, V):
        B, T = W.shape
        WK = W[:, None, :] * cols.transpose(0, 2, 1)
        if extra is not None:
            WK = np.concatenate([WK, (W * extra)[:, None, :]], axis=1)
        self.W, self.V, self.WK = W, V, WK
        self.M = (W[:, None, :] * V.T[None, :, :]) @ V
        self.R = (WK.reshape(-1, T) @ V).reshape(B, WK.shape[1], -1)
        self.shape = (B, V.shape[1], WK.shape[1])

    def fill(self, b, lhs, rhs):
        lhs[...] = self.M[b]
        rhs[...] = self.R[b].T

    def apply(self, Y, lam, rows=slice(None)) -> np.ndarray:
        """The steps (len(Y), T, n) of the r x r solutions Y (len(Y), r, n)
        of ``rows``, solved at the regularizers ``lam`` (one per row)."""
        T, r = self.V.shape
        X = Y.transpose(0, 2, 1).reshape(-1, r) @ self.V.T
        X = X.reshape(len(Y), self.shape[2], T)
        with np.errstate(invalid="ignore", over="ignore"):
            X *= self.W[rows, None, :]
            np.subtract(self.WK[rows], X, out=X)
            X /= lam[:, None, None]
        return X.transpose(0, 2, 1)

    def accept(self, Y, lam, rows) -> np.ndarray:
        """``solve_rows``' accept hook: ``rows_ok`` of the steps of Y."""
        return self.rows_ok(self.apply(Y, lam, rows), lam, rows)

    def rows_ok(self, X, lam, rows=slice(None), split=None) -> np.ndarray:
        """Per row: X is finite and solves (diag(w) V V^T + lam I) X = w*K
        within ``RESIDUAL_RTOL``, the test ``escalated_solve`` applies to
        the dense system, evaluated in factored form (the r x r system
        alone can pass its own test while the step it stands for is
        singular).  With ``split``, the columns before and after it are
        tested against their own right-hand side's norm."""
        T = self.V.shape[0]
        Xt = X.transpose(0, 2, 1)
        WK = self.WK[rows]
        with np.errstate(invalid="ignore", over="ignore"):
            res = ((Xt.reshape(-1, T) @ self.V) @ self.V.T).reshape(Xt.shape)
            res *= self.W[rows, None, :]
            res += lam[:, None, None] * Xt
            res -= WK
        ok = np.isfinite(Xt).all(axis=(1, 2))
        for g in [slice(None, split), slice(split, None)] if split else [slice(None)]:
            ok &= _rows_within_rtol(res[:, g], WK[:, g])
        return ok


def _rows_within_rtol(res: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_within_rtol`` per row of (B, n, T) arrays."""
    residual = np.linalg.norm(res, axis=(1, 2))
    norm = np.linalg.norm(rhs, axis=(1, 2))
    return (residual <= RESIDUAL_RTOL * norm) | (norm == 0.0)


def kbr_step_batch(
    weights: np.ndarray,
    G: np.ndarray,
    lam: float,
    k: np.ndarray,
    *,
    factor: np.ndarray | None = None,
    label: str = "kbr",
    events: list | None = None,
    first_row: int = 0,
    extra: np.ndarray | None = None,
    extra_label: str = "extra",
):
    """Row-batched ``kbr_step``, the one kernel Bayes solve of training and
    filtering: weights are (B, T); k is (B, T), giving a (B, T) result, or
    (B, T, m), giving (B, T, m) (leading dimension 1 shares it across
    rows).

    The form is chosen per call by ``kbr_form`` from T, the number of
    columns and the rank r of ``factor`` V (G = V V^T, shape (T, r)), if
    given.  The dense form writes row b's system diag(w_b) G + lam I and
    its right-hand sides into ``solve_rows``' row buffers and factors them
    in place.  The Woodbury form solves the r x r systems
    (lam I_r + V^T diag(w_b) V) Y_b = V^T (w_b * k_b) through ``solve_rows``
    and returns X_b = (w_b * k_b - w_b * (V Y_b)) / lam; each row must also
    pass the dense system's residual test, evaluated in factored form, and
    a row that fails either test escalates its regularizer, which then
    enters both the r x r solve and the outer 1/lam.  Either way a failing
    row records ``label[first_row + b]`` as a single-row solve would.

    ``extra`` (B, T), if given, holds one more kernel vector per row,
    solved in the same factorization; the result is then the pair (that
    of k, the (B, T) extra solutions).  The columns of k and the extra
    column each pass the residual test against their own right-hand
    side's norm, so the many columns of k cannot mask a poor extra one.
    A row that fails either test is solved again by the two separate
    calls, all extra ones first, which escalate and record
    ``extra_label[b]`` and ``label[b]`` as those calls would.
    """
    w = np.asarray(weights, dtype=float)
    k = np.asarray(k, dtype=float)
    cols = k[:, :, None] if k.ndim == 2 else k
    m = cols.shape[2]
    n = m + (extra is not None)
    woodbury = None
    if factor is not None and kbr_form(len(G), factor.shape[1], n) == "woodbury":
        woodbury = _WoodburyRows(w, cols, extra, factor)
        fill, shape = woodbury.fill, woodbury.shape
    else:

        def fill(b, lhs, rhs):
            wb = w[b, :, None]
            np.multiply(wb, G, out=lhs)
            np.multiply(wb, cols[b % len(cols)], out=rhs[:, :m])
            if extra is not None:
                np.multiply(w[b], extra[b], out=rhs[:, m])

        shape = (len(w), len(G), n)

    if extra is None:
        x, used = solve_rows(
            fill, shape, lam, label=label, events=events, first_row=first_row,
            accept=None if woodbury is None else woodbury.accept,
        )
        if woodbury is not None:
            x = woodbury.apply(x, used)
    else:
        x, ok = _factor_rows(fill, shape, lam, split=m)
        if woodbury is not None:
            lam_rows = np.full(len(w), float(lam))
            x = woodbury.apply(x, lam_rows)
            ok &= woodbury.rows_ok(x, lam_rows, split=m)
        failed = np.flatnonzero(~ok)
        for b in failed:
            x[b, :, m] = kbr_step_batch(
                w[b : b + 1], G, lam, extra[b : b + 1], factor=factor,
                label=extra_label, events=events, first_row=first_row + b,
            )[0]
        for b in failed:
            x[b, :, :m] = kbr_step_batch(
                w[b : b + 1], G, lam, cols[b % len(cols)][None], factor=factor,
                label=label, events=events, first_row=first_row + b,
            )[0]
    out = x[:, :, 0] if k.ndim == 2 else x[:, :, :m]
    # a copy, so that the extra solutions do not keep all of x alive
    return out if extra is None else (out, x[:, :, m].copy())


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


def low_rank_factor(G: np.ndarray) -> np.ndarray:
    """(T, r) factor V with G = V V^T up to rounding, for symmetric PSD G.

    The columns are the eigenvectors whose eigenvalues exceed numpy's
    ``matrix_rank`` tolerance (largest magnitude times T times machine
    epsilon), scaled by the square roots of those eigenvalues; r is the
    numerical rank.
    """
    vals, vecs = np.linalg.eigh(G)
    keep = vals > np.abs(vals).max(initial=0.0) * G.shape[0] * np.finfo(float).eps
    return vecs[:, keep] * np.sqrt(vals[keep])


def window_factors(kernel, now: np.ndarray, shifted: np.ndarray):
    """Joint low-rank factor of a window list and its one-step shift.

    The two lists are stacked, exact duplicate rows dropped (a shifted
    window is usually the next sample's window, so real data has at most
    T + 1 distinct ones), and the Gram of the distinct windows is factored
    by ``low_rank_factor``.  Returns (W_now, W_shifted), the factor rows of
    each list, so that gram(now, now), gram(shifted, shifted) and
    gram(now, shifted) are W_now W_now^T, W_shifted W_shifted^T and
    W_now W_shifted^T up to rounding.
    """
    stacked = np.vstack([now, shifted])
    distinct, inverse = np.unique(stacked, axis=0, return_inverse=True)
    W = low_rank_factor(gram(kernel, distinct, distinct))[inverse.ravel()]
    return W[: len(now)], W[len(now) :]


def state_factors(
    weight_columns: np.ndarray,
    G: np.ndarray,
    lam: float,
    W_act: np.ndarray,
    W_obs: np.ndarray,
    *,
    label: str = "state",
    events: list | None = None,
) -> np.ndarray:
    """Factor coordinates of the conditioning matrices of ``weight_columns``.

    Row s is W_obs^T C_s W_act, flattened, with C_s =
    ``conditioning_matrix(weight_columns[:, s], G, lam)`` for the Gram
    G = W_act W_act^T; C_s W_act is the ``kbr_step_batch`` row of weight
    column s against the r columns of W_act, in the form ``kbr_form``
    picks for W_act's rank (r x r Woodbury systems while r is well below
    T, one T x T LU per sample near full rank), escalated and recorded as
    ``label[s]``.  Samples are solved in blocks of T // r (at least one)
    and each block is contracted with W_obs at once, so no temporary
    exceeds about T^2 floats.  The Gram of the matrices,
    trace(C_i^T (W_obs W_obs^T) C_j G^T), is the Gram of the rows.
    """
    A = np.asarray(weight_columns, dtype=float)
    T, S = A.shape
    out = np.empty((S, W_obs.shape[1] * W_act.shape[1]))
    block = max(1, T // max(1, W_act.shape[1]))
    for start in range(0, S, block):
        X = kbr_step_batch(
            A[:, start : start + block].T, G, lam, W_act[None], factor=W_act,
            label=label, events=events, first_row=start,
        )
        out[start : start + len(X)] = (W_obs.T @ X).reshape(len(X), -1)
    return out


@dataclass(frozen=True)
class ConditioningFactors:
    """Conditioning matrices C_s = (diag(w_s) G + lam_s I)^-1 diag(w_s), one
    per weight column w_s, in Woodbury form for a Gram G = V V^T of rank r:

        C_s = lam_s^-1 diag(w_s) (I - V S_s V^T diag(w_s)),
        S_s = (lam_s I_r + V^T diag(w_s) V)^-1,

    which takes S r^2 numbers where the dense stack takes S T^2.  ``lam``
    holds the regularizer each S_s was solved with (escalated where the
    solve needed it).
    """

    V: np.ndarray
    S: np.ndarray
    lam: np.ndarray


def conditioning_factors(
    weight_columns: np.ndarray,
    V: np.ndarray,
    lam: float,
    *,
    label: str = "conditioning",
    events: list | None = None,
) -> ConditioningFactors:
    """Low-rank counterpart of ``conditioning_tensor`` for G = V V^T; the
    r x r inverses are solved and escalated by ``solve_rows``.  A factor is
    accepted when the matrix it stands for, applied to the all-ones
    vector, passes the dense system's residual test."""
    W = np.asarray(weight_columns, dtype=float).T  # row s: weight column s
    woodbury = _WoodburyRows(W, np.ones((1, W.shape[1], 1)), None, V)
    eye = np.broadcast_to(np.eye(V.shape[1]), woodbury.M.shape)

    S, used = solve_rows(
        *_stacked(woodbury.M, eye), lam, label=label, events=events,
        accept=lambda S, l, rows: woodbury.accept(
            S @ woodbury.R[rows].transpose(0, 2, 1), l, rows
        ),
    )
    return ConditioningFactors(V, S, used)


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
    """The training Grams and factors that runtime code reads: the
    test-action Gram ``G_TA_TA`` (the state build), its shifted twin
    ``G_TAs_TAs`` (the filter's shift and window conditioning) and the
    observation Gram ``G_O_O`` (the dense form of ``kbr_step_batch``);
    low-rank factors ``V_A``/``V_O`` of the single-step action and
    observation Grams (``low_rank_factor``); joint factors ``W_TA``/``W_TAs``
    and ``W_TO``/``W_TOs`` of the test windows and their shifts
    (``window_factors``); and the scaled regularizer lam * T."""

    G_TA_TA: np.ndarray
    G_TAs_TAs: np.ndarray
    G_O_O: np.ndarray
    V_A: np.ndarray
    V_O: np.ndarray
    W_TA: np.ndarray
    W_TAs: np.ndarray
    W_TO: np.ndarray
    W_TOs: np.ndarray
    lam_T: float


def build_gram_cache(windows, kernels, lam: float) -> GramCache:
    """Evaluate the training Grams and factors for one windowed data set.

    ``windows`` is a WindowedData and ``kernels`` a resolved KernelSet;
    shifted window lists reuse the kernel of their unshifted stream.  The
    regularizer is scaled by the sample count, matching its role as a
    ridge penalty on averaged Gram operators.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    G_O_O = gram(kernels.obs, windows.cur_obs, windows.cur_obs)
    W_TA, W_TAs = window_factors(
        kernels.test_action, windows.test_actions, windows.shifted_test_actions
    )
    W_TO, W_TOs = window_factors(
        kernels.test_obs, windows.test_obs, windows.shifted_test_obs
    )
    return GramCache(
        G_TA_TA=gram(kernels.test_action, windows.test_actions, windows.test_actions),
        G_TAs_TAs=gram(
            kernels.test_action,
            windows.shifted_test_actions,
            windows.shifted_test_actions,
        ),
        G_O_O=G_O_O,
        V_A=low_rank_factor(
            gram(kernels.action, windows.cur_actions, windows.cur_actions)
        ),
        V_O=low_rank_factor(G_O_O),
        W_TA=W_TA,
        W_TAs=W_TAs,
        W_TO=W_TO,
        W_TOs=W_TOs,
        lam_T=lam * windows.n_samples,
    )
