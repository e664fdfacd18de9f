"""Kernel definitions, median-heuristic bandwidths, and Gram matrix evaluation.

Two kernel families are supported on fixed-length vectors, both
characteristic, so that a kernel mean embeds a whole distribution and not
only its mean:

* ``rbf``:   k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) (continuous streams)
* ``delta``: k(x, y) = 1 if x == y elementwise else 0 (integer-coded symbols)

A model uses one kernel per data stream (histories, test-action windows,
test-observation windows, single actions, single observations); shifted
windows share the kernel of their unshifted stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("rbf", "delta")

#: Subsample cap for the median heuristic.
MEDIAN_CAP = 1000

#: Bandwidth used when the median pairwise distance degenerates to zero.
ZERO_MEDIAN_FALLBACK = 1.0


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: family, expected input length, and bandwidth sigma.

    Every rbf spec carries a finite, positive bandwidth from the moment it
    is built; a delta spec needs none and ignores one, which must still be
    finite and positive when given.  A spec that breaks either rule raises
    ValueError, so every spec that exists can be evaluated.
    """

    family: str
    dimension: int
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.dimension < 1:
            raise ValueError("kernel dimension must be positive")
        bw = self.bandwidth
        if (bw is not None or self.family == "rbf") and not 0 < (bw or 0) < math.inf:
            raise ValueError(
                f"{self.family} bandwidth must be finite and positive, got {bw}"
            )


@dataclass(frozen=True)
class KernelSet:
    """The kernels of the five data streams of one model."""

    history: KernelSpec
    test_action: KernelSpec
    test_obs: KernelSpec
    action: KernelSpec
    obs: KernelSpec


def resolve_bandwidth(points: np.ndarray) -> float:
    """Median pairwise Euclidean distance of ``points`` (the median heuristic).

    ``points`` is (n, d).  If n exceeds ``MEDIAN_CAP``, a deterministic
    strided subsample of at most ``MEDIAN_CAP`` points is used to keep the
    O(n^2) distance enumeration bounded.  A zero median (all points
    identical) falls back to ``ZERO_MEDIAN_FALLBACK``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n < 2:
        raise ValueError("insufficient points for bandwidth")
    if n > MEDIAN_CAP:
        stride = -(-n // MEDIAN_CAP)  # ceil division
        points = points[::stride]
    # each pair once: the strict upper triangle, row by row
    dist = _sq_distances(points, points)[~np.tri(len(points), dtype=bool)]
    med = float(np.median(np.sqrt(dist, out=dist)))
    return med if med > 0.0 else ZERO_MEDIAN_FALLBACK


def _sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of X and Y,
    accumulated one input column at a time, so that no (n, m, d) broadcast
    is formed and each entry is the sum of its d squared differences taken
    in column order, as a per-pair loop takes it."""
    d2 = np.subtract.outer(X[:, 0], Y[:, 0])
    d2 *= d2
    diff = np.empty_like(d2)
    for j in range(1, X.shape[1]):
        np.subtract.outer(X[:, j], Y[:, j], out=diff)
        diff *= diff
        d2 += diff
    return d2


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate ``spec`` on a single pair of inputs."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != spec.dimension or y.shape[0] != spec.dimension:
        raise ValueError(
            f"kernel input length mismatch: expected {spec.dimension}, "
            f"got {x.shape[0]} and {y.shape[0]}"
        )
    if spec.family == "delta":
        return 1.0 if np.array_equal(x, y) else 0.0
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
    if spec.family == "delta":
        # one (n, m) comparison per input column, never an (n, m, d) broadcast
        eq = X[:, None, 0] == Y[None, :, 0]
        for j in range(1, X.shape[1]):
            eq &= X[:, None, j] == Y[None, :, j]
        return eq.astype(float)
    K = _sq_distances(X, Y)
    K /= -2.0 * spec.bandwidth**2
    return np.exp(K, out=K)
