"""Kernel definitions, median-heuristic bandwidths, and Gram matrix evaluation.

Three kernel families are supported on fixed-length vectors:

* ``rbf``:    k(x, y) = exp(-||x - y||^2 / (2 sigma^2))
* ``linear``: k(x, y) = <x, y>
* ``delta``:  k(x, y) = 1 if x == y elementwise else 0 (integer-coded symbols)

A model uses one kernel per data stream (histories, test-action windows,
test-observation windows, single actions, single observations); shifted
windows share the kernel of their unshifted stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist

FAMILIES = ("rbf", "linear", "delta")

#: Default subsample cap for the median heuristic.
MEDIAN_CAP = 1000

#: Bandwidth used when the median pairwise distance degenerates to zero.
ZERO_MEDIAN_FALLBACK = 1.0


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: family, bandwidth (rbf only), and expected input length.

    ``bandwidth=None`` on an rbf spec means "resolve by median heuristic
    before use"; the other families ignore the bandwidth.
    """

    family: str
    dimension: int
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.dimension < 1:
            raise ValueError("kernel dimension must be positive")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def resolved(self) -> bool:
        return self.family != "rbf" or self.bandwidth is not None


@dataclass(frozen=True)
class KernelSet:
    """Resolved kernels for the five data streams of one model."""

    history: KernelSpec
    test_action: KernelSpec
    test_obs: KernelSpec
    action: KernelSpec
    obs: KernelSpec

    def __post_init__(self):
        for name in ("history", "test_action", "test_obs", "action", "obs"):
            spec = getattr(self, name)
            if not spec.resolved:
                raise ValueError(f"kernel for stream {name!r} has unresolved bandwidth")


def resolve_bandwidth(points: np.ndarray, cap: int = MEDIAN_CAP) -> float:
    """Median pairwise Euclidean distance of ``points`` (the median heuristic).

    ``points`` is (n, d).  If n exceeds ``cap``, a deterministic strided
    subsample of at most ``cap`` points is used to keep the O(n^2) distance
    enumeration bounded.  A zero median (all points identical) falls back
    to ``ZERO_MEDIAN_FALLBACK``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n < 2:
        raise ValueError("insufficient points for bandwidth")
    if cap < 2:
        raise ValueError("median-heuristic cap must be at least 2")
    if n > cap:
        stride = -(-n // cap)  # ceil division
        points = points[::stride]
    med = float(np.median(pdist(points)))
    return med if med > 0.0 else ZERO_MEDIAN_FALLBACK


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate ``spec`` on a single pair of inputs."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != spec.dimension or y.shape[0] != spec.dimension:
        raise ValueError(
            f"kernel input length mismatch: expected {spec.dimension}, "
            f"got {x.shape[0]} and {y.shape[0]}"
        )
    if spec.family == "linear":
        return float(np.dot(x, y))
    if spec.family == "delta":
        return 1.0 if np.array_equal(x, y) else 0.0
    if spec.bandwidth is None:
        raise ValueError("rbf bandwidth not resolved")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-d2 / (2.0 * spec.bandwidth**2)))


def gram(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gram matrix with entry (i, j) = k(X[i], Y[j]).

    Both inputs are (n, d) row collections.  When X and Y are the same
    rows the result is exactly symmetric, and for rbf the diagonal is
    exactly 1 (distances are computed directly, never via a dot-product
    expansion).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise ValueError("cannot build a Gram matrix from an empty input list")
    if X.shape[1] != spec.dimension or Y.shape[1] != spec.dimension:
        raise ValueError(
            f"gram input width mismatch: expected {spec.dimension}, "
            f"got {X.shape[1]} and {Y.shape[1]}"
        )
    if spec.family == "linear":
        K = X @ Y.T
        if X.shape == Y.shape and (X is Y or np.array_equal(X, Y)):
            # BLAS matmul is not bit-symmetric; mirror the lower triangle.
            K = np.tril(K) + np.tril(K, -1).T
        return K
    if spec.family == "delta":
        # one (n, m) comparison per input column, never an (n, m, d) broadcast
        eq = X[:, None, 0] == Y[None, :, 0]
        for j in range(1, X.shape[1]):
            eq &= X[:, None, j] == Y[None, :, j]
        return eq.astype(float)
    if spec.bandwidth is None:
        raise ValueError("rbf bandwidth not resolved")
    d2 = cdist(X, Y, metric="sqeuclidean")
    return np.exp(-d2 / (2.0 * spec.bandwidth**2))


def kernel_vector(spec: KernelSpec, X: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Vector of kernel evaluations k(X[s], query) for a single query point."""
    q = np.asarray(query, dtype=float).reshape(1, -1)
    return gram(spec, X, q)[:, 0]


def resolve_spec(spec: KernelSpec, points: np.ndarray, cap: int = MEDIAN_CAP) -> KernelSpec:
    """Return ``spec`` with its bandwidth resolved from ``points`` if pending."""
    if spec.resolved:
        return spec
    return replace(spec, bandwidth=resolve_bandwidth(points, cap=cap))
