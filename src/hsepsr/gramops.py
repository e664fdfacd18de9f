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
shape is solved only while a model is built (the history weights, the
inverse of the training states' Gram, which the filter then multiplies
by, and the readout inverse, which prediction multiplies by), and always
on the k distinct rows of its Gram (``spread_ridge``):
for a Gram E G_d E^T of T rows with k distinct ones, the k x k system
(C^1/2 G_d C^1/2 + lam I) Y = B over the counts C = E^T E, spread back
as F Y F^T with F = E C^-1/2 (6 of 240 rows on the discrete benchmark
model; k = T and the plain T x T solve when no row repeats).  Every
filter step solves the conditioning shape.
Many such systems, one per row, are solved in one plain pass
(``_factor_rows``): each row's system is written by its form into
buffers reused from row to row and solved by ``numpy.linalg.solve``
(LAPACK ``gesv``, an LU factorization with partial pivoting).  The form
then turns the solutions into steps and applies its own test
(``steps``), and only the rows that fail either test, an exactly
singular one included, are solved again by ``escalated_solve``, one row
at a time (``_escalated_row``), with the form's test as its ``accept``.
One driver, ``_solve_rows``, runs that pass and those escalations for
both row-batched solves, the kernel Bayes steps (``kbr_step_batch``) and
the action factors (``conditioning_factors``).  Every escalation goes
through ``escalated_solve``.  Every solve here is numpy's, so a process
loads one BLAS.

When a Gram has low rank, G = V V^T with V of shape (T, r), the
conditioning solve takes the Woodbury form

    (diag(w) G + lam I)^-1 diag(w) k = (w*k - w * (V y)) / lam,
    (lam I_r + V^T diag(w) V) y = V^T (w*k),

an r x r system.  Like a dense row's T x T system, it is written into
the pass's reused row buffer when its row is solved, so neither form
stacks the systems of its rows.  ``kbr_step_batch`` is the one
row-batched kernel Bayes solve of training and filtering, and picks the
form per call from the rank of the factor it is given: by the rule
``kbr_form``, Woodbury costs about 2 T r^2 + 8 T r m flops for m
columns and the dense per-row LU about (2/3) T^3 + 4 T^2 m, and the
cheaper one runs.  It follows the rank the factor has, not a setting:
the discrete models' test-action Grams (rank 2-6) and every single-step
observation Gram seen so far solve in Woodbury form, the T = 160 ODE
test-action Grams (rank 155) in the dense form.  Both forms apply the
dense system's residual test and escalate a failing row alike.  The
Gram G the dense form is given equals V V^T to rounding (the cache
builds the test-action Grams from their truncated factors, and the
single-step factors drop nothing above rounding), so the form is a
choice of speed only: both solve the same system and agree to rounding.

The test windows and their one-step shifts are factored jointly
(``window_factors``): one factor of the Gram of both lists, split by rows
into W_now and W_shifted, so every test-window Gram is a product of two
factor blocks, e.g. G_TA_TAs = W_TA W_TAs^T.  Their eigenvalues at or
below ``FACTOR_FLOOR`` times the scaled regularizer lam_T are dropped,
a Nystrom-type truncation (Williams & Seeger, NIPS 2001): an eigenvalue
far below the ridge barely moves a ridge solution.  The T = 160 ODE
model keeps 155 test-action and 40 test-observation eigenvalues of 161,
the T = 480 desk model 253 and 53 of 481.  The test-action Grams the
solves read, G_TA_TA and G_TAs_TAs, are the products of the truncated
factors, so every solve against them, dense or Woodbury, uses the same
truncated Gram.  The single-step factors (``low_rank_factor`` at floor
0) keep every eigenvalue above numpy's ``matrix_rank`` tolerance.  Both
kinds are factored on the Gram of the distinct rows alone and spread back
to every sample (``_distinct_factor``), since a repeated row adds nothing
to a Gram's range and exact-match kernels on finite sets repeat most rows
(2 actions and 3 observations of 240 on the discrete benchmark).  One
grouping helper, ``distinct_rows``, serves every distinct-row step: these
factors, the test windows included, and the ridge solves above, whose
history grouping the model build reuses for the columns of the history
weights.  A conditioning matrix C against the test windows
then enters an inner product of operators only as its factor coordinates
W_obs^T C W_act:

    <C_i, G_TO_TOs C_w G_TA_TAs^T>_F = <W_TO^T C_i W_TA, W_TOs^T C_w W_TAs>_F,

which ``factor_coordinates`` computes, for the training states and for
the beliefs in the filter's propagation step, in blocks of rows whose
size its docstring gives, so that no temporary
grows with the number of rows.  C is symmetric for a symmetric G
(C = diag(w) (G diag(w) + lam I)^-1 by push-through), so
W_obs^T C W_act = (C W_obs)^T W_act, and the solve runs against
whichever factor has fewer columns: the observation side on the ODE and
desk models, the action side on the discrete ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hsepsr.kernels import gram

#: Relative residual above which a solve is treated as failed.
RESIDUAL_RTOL = 1e-8

#: Number of times the regularizer is multiplied by 10 before giving up.
MAX_JITTER_RETRIES = 3

#: Eigenvalues of the test-window Grams at or below this times lam_T are
#: dropped from their factors (``build_gram_cache``).
FACTOR_FLOOR = 1e-2


@dataclass(frozen=True)
class SolveEvent:
    """Record of a solve that needed an escalated regularizer."""

    label: str
    requested: float
    used: float
    attempts: int


def _factor_solve(lhs: np.ndarray, rhs: np.ndarray, sym: bool) -> np.ndarray:
    if sym:
        np.linalg.cholesky(lhs)  # raises unless lhs is positive definite
    return np.linalg.solve(lhs, rhs)


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

    Each attempt is one ``numpy.linalg.solve`` (an LU factorization);
    with ``sym`` the matrix must also pass ``numpy.linalg.cholesky``, the
    test that it is positive definite.  A solve fails when either raises,
    when the residual exceeds ``RESIDUAL_RTOL`` times the Frobenius norm
    of ``rhs``, or when ``accept(X, lam)`` (if given) is false.  Each
    escalation that ends in success is appended to ``events`` (if given);
    exhausting the retries raises ``numpy.linalg.LinAlgError``.
    """
    if not lam > 0:
        raise ValueError("regularizer must be positive")
    lam_eff = float(lam)
    for attempt in range(1 + MAX_JITTER_RETRIES):
        lhs = build_lhs(lam_eff)
        try:
            x = _factor_solve(lhs, rhs, sym)
        except np.linalg.LinAlgError:
            x = None
        if x is not None and np.isfinite(x).all():
            res = lhs @ x - rhs
            if _within_rtol(np.vdot(res, res), np.vdot(rhs, rhs)) and (
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


def spread_ridge(
    G: np.ndarray,
    lam: float,
    spread: np.ndarray | None,
    *,
    inverse: bool = False,
    label: str = "ridge",
    events: list | None = None,
) -> np.ndarray:
    """A ridge solve over T rows of which k are distinct, solved on the k.

    ``G`` is the (k, k) Gram of the distinct rows and ``spread[i]`` the
    distinct row of row i (None when all T rows are distinct), so that the
    rows' Gram is E G E^T for the (T, k) indicator E of ``spread``.  With
    the counts C = E^T E, H = C^1/2 G C^1/2 and F = E C^-1/2, this solves

        (H + lam I_k) Y = H,   or = I_k with ``inverse``,

    by ``ridge_solve`` and returns the (T, T) array F Y F^T.  Without
    ``inverse`` it is (E G E^T + lam I)^-1 E G E^T, by push-through.  With
    ``inverse`` it is the inverse of E G E^T + lam I on the range of E,
    the span of the rows, and zero on its complement, never adding a
    (I - F F^T) / lam term.  F has orthonormal columns, so the k x k
    residual has the Frobenius norm of the T x T one on that span.  When
    every row is distinct, C = I and this is ``ridge_solve`` of G against
    G or I bit for bit."""
    c = np.sqrt(np.ones(len(G)) if spread is None else np.bincount(spread))
    H = c[:, None] * G * c
    rhs = np.eye(len(H)) if inverse else H
    Y = ridge_solve(H, lam, rhs, label=label, events=events)
    Y /= c[:, None] * c
    # columns first: the (T, T) result is then gathered by whole rows
    return Y if spread is None else Y.take(spread, 1).take(spread, 0)


def _within_rtol(res_sq, rhs_sq):
    """The one residual test of every solve here, on squared Frobenius
    norms (scalars or one per row): the residual's norm is within
    ``RESIDUAL_RTOL`` times the right-hand side's, or the right-hand side
    is zero."""
    return (res_sq <= RESIDUAL_RTOL**2 * rhs_sq) | (rhs_sq == 0.0)


def _factor_rows(form, lam: float):
    """Plain per-row solves of (M_b + lam I) X_b = R_b, without escalation.

    ``form.shape`` is (B, n, m); ``form.fill(b, M, R)`` writes row b's
    (n, n) matrix and (n, m) right-hand side into the buffers it is given,
    which are reused from row to row, so no stack of systems is ever
    formed.  Each row is solved by ``numpy.linalg.solve`` (LAPACK
    ``gesv``, which raises on an exactly singular row).  Returns X and,
    per row, whether it passed ``escalated_solve``'s test: the
    factorization succeeded, X_b is finite and its residual on the system
    solved is within ``RESIDUAL_RTOL`` of the norm of its right-hand side.
    The right-hand side and the residual are held in Fortran order, whose
    norms ``_sq`` reads without a copy.
    """
    B, n, m = form.shape
    x = np.empty(form.shape)
    ok = np.zeros(B, dtype=bool)
    lhs = np.empty((n, n))
    diagonal = lhs.reshape(-1)[:: n + 1]
    rhs = np.empty((n, m), order="F")
    res = np.empty((n, m), order="F")
    with np.errstate(invalid="ignore", over="ignore"):
        for b in range(B):
            form.fill(b, lhs, rhs)
            diagonal += lam
            try:
                xb = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                continue
            x[b] = xb
            if not np.isfinite(xb).all():
                continue
            np.matmul(lhs, xb, out=res)
            res -= rhs
            ok[b] = _within_rtol(_sq(res), _sq(rhs))
    return x, ok


def _sq(a: np.ndarray) -> float:
    """Squared Frobenius norm of a Fortran-contiguous array, read in place."""
    v = a.ravel(order="F")
    return np.vdot(v, v)


def _escalated_row(form, b: int, lam: float, *, label: str, events: list | None):
    """Row b of ``form`` solved by ``escalated_solve``, with the form's test
    as ``accept``: its steps, and the regularizer they were solved with."""
    n, m = form.shape[1:]
    M, R = np.empty((n, n)), np.empty((n, m))
    form.fill(b, M, R)
    eye = np.eye(n)
    row = slice(b, b + 1)
    row_events: list = []
    Y = escalated_solve(
        lambda l: M + l * eye, R, lam, sym=False, label=label, events=row_events,
        accept=lambda Y, l: form.steps(Y[None], l, row)[1][0],
    )
    used = row_events[0].used if row_events else float(lam)
    if events is not None:
        events.extend(row_events)
    return form.steps(Y[None], used, row)[0][0], used


def _solve_rows(form, lam: float, *, label: str, events: list | None, first_row=0):
    """Every row of ``form`` solved at ``lam``: one plain pass
    (``_factor_rows``), the form's steps and test (``form.steps``), and
    each row that fails either test solved again alone (``_escalated_row``),
    recording ``label[first_row + b]``.  Returns the steps and the
    regularizer each row was solved with."""
    x, ok = _factor_rows(form, lam)
    x, steps_ok = form.steps(x, lam)
    used = np.full(len(x), float(lam))
    for b in np.flatnonzero(~(ok & steps_ok)):
        x[b], used[b] = _escalated_row(
            form, b, lam, label=f"{label}[{first_row + b}]", events=events
        )
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


class _DenseRows:
    """Row b's kernel Bayes step (diag(w_b) G + lam I) X_b = w_b * K_b in
    ``_factor_rows``' fill form, for ``cols`` (B or 1, T, m).  The steps
    are the solutions themselves, and pass as they are."""

    def __init__(self, W, G, cols):
        self.W, self.G, self.cols = W, G, cols
        self.shape = (len(W), len(G), cols.shape[2])

    def fill(self, b, lhs, rhs):
        wb = self.W[b, :, None]
        np.multiply(wb, self.G, out=lhs)
        np.multiply(wb, self.cols[b % len(self.cols)], out=rhs)

    def steps(self, Y, lam, rows=slice(None)):
        return Y, np.ones(len(Y), dtype=bool)


class _WoodburyRows:
    """Row b's kernel Bayes step (diag(w_b) V V^T + lam I)^-1 (w_b * K_b)
    in Woodbury form: the r x r systems

        (lam I_r + V^T diag(w_b) V) Y_b = V^T (w_b * K_b)

    in ``_factor_rows``' fill form, each written into the row buffer when
    its row is solved (``system``), and the steps X_b = (w_b * K_b -
    w_b * (V Y_b)) / lam they give.  ``cols`` is as for ``_DenseRows``.
    Kernel vectors are held as the rows of (B, n, T) arrays, so that a
    single column is computed with the same (B, T) by (T, r) products as
    a plain (B, T) batch."""

    def __init__(self, W, cols, V):
        B, T = W.shape
        WK = W[:, None, :] * cols.transpose(0, 2, 1)
        self.W, self.V, self.WK = W, V, WK
        self.R = (WK.reshape(-1, T) @ V).reshape(B, WK.shape[1], -1)
        self.shape = (B, V.shape[1], WK.shape[1])

    def system(self, b, out):
        """Row b's r x r matrix V^T diag(w_b) V, written into ``out``."""
        np.matmul(self.V.T * self.W[b], self.V, out=out)

    def fill(self, b, lhs, rhs):
        self.system(b, lhs)
        rhs[...] = self.R[b].T

    def steps(self, Y, lam, rows=slice(None)):
        """The steps (len(Y), T, n) of the r x r solutions Y of ``rows``,
        solved at ``lam``, and per row whether they are finite and solve
        (diag(w) V V^T + lam I) X = w*K within ``RESIDUAL_RTOL``: the test
        ``escalated_solve`` applies to the dense system, evaluated in
        factored form (the r x r system alone can pass its own test while
        the step it stands for is singular)."""
        T, r = self.V.shape
        W, WK = self.W[rows, None, :], self.WK[rows]
        with np.errstate(invalid="ignore", over="ignore"):
            X = (Y.transpose(0, 2, 1).reshape(-1, r) @ self.V.T).reshape(WK.shape)
            X *= W
            np.subtract(WK, X, out=X)
            X /= lam
            res = ((X.reshape(-1, T) @ self.V) @ self.V.T).reshape(X.shape)
            res *= W
            res += lam * X
            res -= WK
        ok = np.isfinite(X).all(axis=(1, 2))
        ok &= _within_rtol(_row_sq(res), _row_sq(WK))
        return X.transpose(0, 2, 1), ok


def _row_sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each row of a (B, n, m) array."""
    return np.einsum("ijk,ijk->i", a, a)


def _kbr_rows(W, G, cols, factor):
    """The form of the kernel Bayes steps of ``kbr_step_batch``, by
    ``kbr_form`` for the rank of ``factor`` (dense without one)."""
    m = cols.shape[2]
    if factor is not None and kbr_form(len(G), factor.shape[1], m) == "woodbury":
        return _WoodburyRows(W, cols, factor)
    return _DenseRows(W, G, cols)


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
) -> np.ndarray:
    """The one kernel Bayes solve of training and filtering, row-batched:
    weights are (B, T); k is (B, T), giving a (B, T) result, or
    (B, T, m), giving (B, T, m) (leading dimension 1 shares it across
    rows).  Row b solves A_b = diag(w_b) G + lam I against w_b * k_b,
    giving C_b k_b for the conditioning matrix C_b = A_b^-1 diag(w_b).

    The form is chosen per call by ``kbr_form`` from T, the number of
    columns of k and the rank r of ``factor`` V, if given, which must
    satisfy G = V V^T, so that both forms solve the same system and agree
    to rounding.  The dense form writes row b's system A_b and its
    right-hand sides into ``_factor_rows``' row buffers and solves them by
    ``numpy.linalg.solve``.  The Woodbury form solves the r x r systems
    (lam I_r + V^T diag(w_b) V) Y_b = V^T (w_b * k_b) the same way and
    returns X_b = (w_b * k_b - w_b * (V Y_b)) / lam; each row must also
    pass the dense system's residual test, evaluated in factored form, and
    a row that fails either test escalates its regularizer, which then
    enters both the r x r solve and the outer 1/lam.  Either way a failing
    row records ``label[first_row + b]`` as a single-row solve would.
    """
    w = np.asarray(weights, dtype=float)
    k = np.asarray(k, dtype=float)
    form = _kbr_rows(w, G, k[:, :, None] if k.ndim == 2 else k, factor)
    x = _solve_rows(form, lam, label=label, events=events, first_row=first_row)[0]
    return x[:, :, 0] if k.ndim == 2 else x


def low_rank_factor(G: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """(T, r) factor V with G = V V^T up to the dropped eigenvalues, for
    symmetric PSD G.

    The columns are the eigenvectors whose eigenvalues exceed both numpy's
    ``matrix_rank`` tolerance (largest magnitude times T times machine
    epsilon) and ``floor``, scaled by the square roots of those
    eigenvalues, so ||G - V V^T||_2 is at most the larger of the two.  At
    ``floor`` 0, r is the numerical rank and V V^T is G to rounding.
    """
    vals, vecs = np.linalg.eigh(G)
    tol = np.abs(vals).max(initial=0.0) * G.shape[0] * np.finfo(float).eps
    keep = vals > max(tol, floor)
    return vecs[:, keep] * np.sqrt(vals[keep])


def distinct_rows(X: np.ndarray):
    """The rows of X that are equal byte for byte, in first-occurrence
    order: the pair (first, spread) of the index of each distinct row's
    first occurrence and, for every row i, the index of its distinct row,
    so that X[first][spread] is X; or None when every row is distinct.
    Rows (of at least one column) are matched by one sort of their bytes,
    so 0.0 and -0.0 differ and a strided view groups like its copy."""
    X = np.ascontiguousarray(X)
    rows = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, index, inverse = np.unique(rows, return_index=True, return_inverse=True)
    if len(index) == len(X):
        return None
    order = np.argsort(index)  # the distinct rows by first occurrence
    return index[order], np.argsort(order)[inverse]


def _distinct_factor(kernel, X: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """``low_rank_factor`` at ``floor`` of the Gram of the rows of X under
    ``kernel``, factored on the Gram of the distinct rows of X only and
    spread back to every row.  When every row is distinct it is
    ``low_rank_factor`` of the full Gram itself."""
    first, spread = distinct_rows(X) or (slice(None), slice(None))
    return low_rank_factor(gram(kernel, X[first], X[first]), floor)[spread]


def window_factors(kernel, now: np.ndarray, shifted: np.ndarray, floor: float = 0.0):
    """Joint low-rank factor of a window list and its one-step shift.

    The two lists are stacked and factored by ``_distinct_factor`` at
    ``floor`` (a shifted window is usually the next sample's window, so
    real data has at most T + 1 distinct ones).  Returns (W_now,
    W_shifted), the factor rows of each list, so that gram(now, now),
    gram(shifted, shifted) and gram(now, shifted) are W_now W_now^T,
    W_shifted W_shifted^T and W_now W_shifted^T up to the dropped
    eigenvalues.
    """
    W = _distinct_factor(kernel, np.vstack([now, shifted]), floor)
    return W[: len(now)], W[len(now) :]


def factor_coordinates(
    weights: np.ndarray,
    G: np.ndarray,
    lam: float,
    W_act: np.ndarray,
    W_obs: np.ndarray,
    *,
    label: str,
    events: list | None = None,
) -> np.ndarray:
    """Row b: the factor coordinates W_obs^T C_b W_act, shape (r_obs, r_act),
    of the conditioning matrix C_b = (diag(w_b) G + lam I)^-1 diag(w_b)
    for the Gram G = W_act W_act^T.

    C_b is symmetric for a symmetric G (C_b = diag(w_b) (G diag(w_b) +
    lam I)^-1 by push-through), so the coordinates are (C_b W_obs)^T W_act
    as well as W_obs^T (C_b W_act): ``kbr_step_batch`` solves the side
    with fewer factor columns, the observation side when r_obs < r_act,
    in the form ``kbr_form`` picks for W_act's rank, and the other factor
    enters by one product.  The rows are solved in blocks of
    max(1, T // r_act), and each block is contracted to its coordinates
    before the next block is solved, so that no temporary exceeds about
    T^2 floats whatever the number of rows.  This is the one block rule of
    every kernel Bayes solve in factor coordinates: the state build and
    the propagation.  ``label`` and ``events`` go to ``kbr_step_batch``,
    which records a failing row b as ``label[b]``.
    """
    W = np.asarray(weights, dtype=float)
    B, T = W.shape
    obs_side = W_obs.shape[1] < W_act.shape[1]
    coords = np.empty((B, W_obs.shape[1], W_act.shape[1]))
    block = max(1, T // max(1, W_act.shape[1]))
    for start in range(0, B, block):
        rows = slice(start, start + block)
        X = kbr_step_batch(
            W[rows], G, lam, (W_obs if obs_side else W_act)[None], factor=W_act,
            label=label, events=events, first_row=start,
        )
        coords[rows] = X.transpose(0, 2, 1) @ W_act if obs_side else W_obs.T @ X
    return coords


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


class _Inverses:
    """The inverses S_b = (lam I_r + V^T diag(w_b) V)^-1 of a
    ``_WoodburyRows`` form's r x r systems, in the same fill form.  S_b
    passes when the step of S_b V^T (w_b * K_b) passes the form's test."""

    def __init__(self, form):
        B, r, _ = form.shape
        self.form, self.eye, self.shape = form, np.eye(r), (B, r, r)

    def fill(self, b, lhs, rhs):
        self.form.system(b, lhs)
        rhs[...] = self.eye

    def steps(self, S, lam, rows=slice(None)):
        Y = S @ self.form.R[rows].transpose(0, 2, 1)
        return S, self.form.steps(Y, lam, rows)[1]


def conditioning_factors(
    weight_columns: np.ndarray,
    V: np.ndarray,
    lam: float,
    *,
    label: str = "conditioning",
    events: list | None = None,
) -> ConditioningFactors:
    """The ``ConditioningFactors`` of the columns of ``weight_columns``
    for G = V V^T, solved at ``lam``.  The r x r inverses are solved by
    ``_solve_rows``, the pass of ``kbr_step_batch``, and a failing one is
    escalated alone, recording ``label[s]``.  A factor is accepted when
    the matrix it stands for, applied to the all-ones vector, passes the
    dense system's residual test."""
    W = np.asarray(weight_columns, dtype=float).T  # row s: weight column s
    form = _Inverses(_WoodburyRows(W, np.ones((1, W.shape[1], 1)), V))
    return ConditioningFactors(V, *_solve_rows(form, lam, label=label, events=events))


def history_weights(
    G_HH,
    lam: float,
    *,
    events: list | None = None,
) -> np.ndarray:
    """Per-history prior sample weights: column t weights the training
    samples whose histories resemble history t.

    This is the kernel ridge regression of each history's indicator onto
    all histories: (G_HH + lam I)^-1 G_HH for the (T, T) history Gram
    G_HH.  ``G_HH`` is that Gram, or the pair (G_d, spread) of the Gram of
    the k distinct histories and ``distinct_rows``' spread of the
    histories (None when all are distinct), which ``spread_ridge`` solves
    as a k x k system.
    """
    G_d, spread = G_HH if isinstance(G_HH, tuple) else (G_HH, None)
    return spread_ridge(G_d, lam, spread, label="history-weights", events=events)


@dataclass
class GramCache:
    """The training Grams and factors that runtime code reads: the
    test-action Gram ``G_TA_TA`` (the state build) and its shifted twin
    ``G_TAs_TAs`` (the filter's shift conditional and the readout
    build), formed as W_TA W_TA^T and W_TAs W_TAs^T from the truncated
    factors, and the observation Gram ``G_O_O``, all read by the dense
    form of ``kbr_step_batch``;
    low-rank factors ``V_A``/``V_O`` of the single-step action and
    observation Grams (``low_rank_factor`` of the distinct rows' Gram,
    spread back to every sample); joint factors ``W_TA``/``W_TAs``
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
    ridge penalty on averaged Gram operators.  The test-action Grams are
    the products of their factors, so that a dense solve against them and
    a Woodbury solve over the factor solve the same system.  The
    single-step factors are taken on the Gram of the distinct actions or
    observations, evaluated on those rows alone, and spread back to every
    sample; when every row is distinct they are the factors of the full
    Grams.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    G_O_O = gram(kernels.obs, windows.cur_obs, windows.cur_obs)
    lam_T = lam * windows.n_samples
    floor = FACTOR_FLOOR * lam_T
    W_TA, W_TAs = window_factors(
        kernels.test_action, windows.test_actions, windows.shifted_test_actions,
        floor,
    )
    W_TO, W_TOs = window_factors(
        kernels.test_obs, windows.test_obs, windows.shifted_test_obs, floor
    )
    return GramCache(
        G_TA_TA=W_TA @ W_TA.T,
        G_TAs_TAs=W_TAs @ W_TAs.T,
        G_O_O=G_O_O,
        V_A=_distinct_factor(kernels.action, windows.cur_actions),
        V_O=_distinct_factor(kernels.obs, windows.cur_obs),
        W_TA=W_TA,
        W_TAs=W_TAs,
        W_TO=W_TO,
        W_TOs=W_TOs,
        lam_T=lam_T,
    )
