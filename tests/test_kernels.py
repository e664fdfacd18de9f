import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsepsr.kernels import (
    MEDIAN_CAP,
    KernelSpec,
    _sq_distances,
    gram,
    kernel_eval,
    resolve_bandwidth,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def point_sets(min_n=2, max_n=12, d=3):
    return arrays(
        dtype=float,
        shape=st.tuples(st.integers(min_n, max_n), st.just(d)),
        elements=finite,
    )


class TestMedianHeuristic:
    def test_hand_enumerated_scalar_case(self):
        # pairwise distances of {0, 1, 3} are {1, 2, 3}; median 2
        assert resolve_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_identical_points_fall_back_to_one(self):
        assert resolve_bandwidth(np.array([[5.0], [5.0], [5.0]])) == 1.0

    def test_euclidean_not_per_coordinate(self):
        # single pair at Euclidean distance 5
        assert resolve_bandwidth(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_subsample_is_deterministic_and_bounded(self, rng):
        pts = rng.normal(size=(2500, 2))
        b1 = resolve_bandwidth(pts)
        b2 = resolve_bandwidth(pts)
        assert b1 == b2
        # stride 3 keeps the first point and every third after it
        expect = float(np.median(
            np.linalg.norm(pts[::3, None] - pts[None, ::3], axis=2)[
                np.triu_indices(pts[::3].shape[0], k=1)
            ]
        ))
        assert b1 == pytest.approx(expect, rel=1e-12)

    def test_cap_respected(self, rng):
        pts = rng.normal(size=(MEDIAN_CAP + 1, 1))
        # stride 2 halves the list; just confirm it runs and is positive
        assert resolve_bandwidth(pts) > 0

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError):
            resolve_bandwidth(np.array([[1.0]]))


class TestKernelEval:
    def test_rbf_closed_form(self):
        spec = KernelSpec("rbf", dimension=1, bandwidth=2.0)
        # exp(-(3-1)^2 / (2 * 4)) = exp(-0.5)
        got = kernel_eval(spec, np.array([3.0]), np.array([1.0]))
        assert got == pytest.approx(np.exp(-0.5), abs=1e-15)

    def test_rbf_same_point_is_one(self):
        spec = KernelSpec("rbf", dimension=2, bandwidth=0.7)
        assert kernel_eval(spec, np.array([1.0, -2.0]), np.array([1.0, -2.0])) == 1.0

    def test_delta_exact_match_only(self):
        spec = KernelSpec("delta", dimension=2)
        a = np.array([1.0, 2.0])
        assert kernel_eval(spec, a, np.array([1.0, 2.0])) == 1.0
        assert kernel_eval(spec, a, np.array([1.0, 3.0])) == 0.0

    def test_dimension_mismatch_raises(self):
        spec = KernelSpec("rbf", dimension=2, bandwidth=1.0)
        with pytest.raises(ValueError):
            kernel_eval(spec, np.array([1.0]), np.array([1.0, 2.0]))

    def test_unresolved_rbf_raises(self):
        """An rbf spec without a bandwidth raises when it is built, so none
        reaches evaluation; a delta spec needs none."""
        with pytest.raises(ValueError, match="rbf bandwidth"):
            KernelSpec("rbf", dimension=1)
        assert KernelSpec("delta", dimension=1).bandwidth is None


class TestGram:
    def test_matches_pairwise_eval(self, rng):
        for family, bw in [("rbf", 1.3), ("delta", None)]:
            spec = KernelSpec(family, dimension=2, bandwidth=bw)
            X = rng.normal(size=(4, 2)).round(1)
            Y = rng.normal(size=(3, 2)).round(1)
            K = gram(spec, X, Y)
            for i in range(4):
                for j in range(3):
                    assert K[i, j] == pytest.approx(
                        kernel_eval(spec, X[i], Y[j]), abs=1e-15
                    )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_delta_is_the_broadcast_match(self, rng, d):
        """Column-at-a-time matching equals the (n, m, d) broadcast, on
        square and rectangular inputs with repeated symbol rows."""
        spec = KernelSpec("delta", dimension=d)
        X = rng.integers(0, 2, size=(30, d)).astype(float)
        Y = rng.integers(0, 2, size=(7, d)).astype(float)
        for A, B in ((X, X), (X, Y), (Y, X)):
            want = (A[:, None, :] == B[None, :, :]).all(axis=2).astype(float)
            assert np.array_equal(gram(spec, A, B), want)

    def test_rbf_diagonal_exactly_one(self, rng):
        spec = KernelSpec("rbf", dimension=3, bandwidth=0.9)
        X = rng.normal(size=(50, 3))
        K = gram(spec, X, X)
        assert np.all(np.diag(K) == 1.0)

    def test_same_rows_exactly_symmetric(self, rng):
        X = rng.normal(size=(40, 3))
        K = gram(KernelSpec("rbf", 3, 1.1), X, X)
        assert np.array_equal(K, K.T)

    def test_empty_input_raises(self):
        spec = KernelSpec("delta", dimension=2)
        with pytest.raises(ValueError):
            gram(spec, np.empty((0, 2)), np.ones((2, 2)))


def pair_sq(x, y):
    """Squared distance of one pair, summed coordinate by coordinate."""
    total = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        total += (a - b) ** 2
    return total


class TestDistances:
    @pytest.mark.parametrize("d", [1, 3, 20])
    def test_squared_distances_equal_the_per_pair_sum(self, rng, d):
        X = rng.normal(size=(13, d))
        Y = rng.normal(size=(9, d))
        want = np.array([[pair_sq(x, y) for y in Y] for x in X])
        assert np.array_equal(_sq_distances(X, Y), want)
        bw = 1.7
        assert np.array_equal(
            gram(KernelSpec("rbf", d, bw), X, Y), np.exp(want / (-2.0 * bw**2))
        )

    @pytest.mark.parametrize("d", [1, 3, 20])
    def test_bandwidth_is_the_median_per_pair_distance(self, rng, d):
        X = rng.normal(size=(12, d))
        dists = [
            pair_sq(X[i], X[j]) ** 0.5 for i in range(12) for j in range(i + 1, 12)
        ]
        assert resolve_bandwidth(X) == statistics.median(dists)

    def test_rbf_gram_forms_no_broadcast(self, rng):
        """The distances are summed one input column at a time: beyond the
        (n, m) result, one (n, m) difference buffer and numpy's fixed
        iteration buffers, where an (n, m, d) broadcast would take d of
        them."""
        n, m, d = 400, 300, 20
        spec = KernelSpec("rbf", d, bandwidth=2.0)
        X, Y = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        gram(spec, X, Y)  # warm any one-time allocations
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            K = gram(spec, X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base - K.nbytes <= 1.25 * n * m * K.itemsize

    def test_median_heuristic_at_the_cap_holds_two_distance_matrices(self, rng):
        """At the cap the median heuristic holds at most the (n, n) squared
        distances and one (n, n) difference buffer, about 2 n^2 floats."""
        n = MEDIAN_CAP
        X = rng.normal(size=(n, 3))
        resolve_bandwidth(X[:10])  # warm any one-time allocations
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            resolve_bandwidth(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.05 * n * n * X.itemsize


class TestGramProperties:
    @given(point_sets())
    def test_rbf_psd(self, X):
        K = gram(KernelSpec("rbf", 3, bandwidth=1.5), X, X)
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-9

    @given(point_sets(), st.floats(min_value=0.1, max_value=10))
    def test_rbf_scale_equivariance(self, X, c):
        """Scaling points and bandwidth together leaves the Gram unchanged."""
        K1 = gram(KernelSpec("rbf", 3, bandwidth=2.0), X, X)
        K2 = gram(KernelSpec("rbf", 3, bandwidth=2.0 * c), c * X, c * X)
        assert np.allclose(K1, K2, atol=1e-12)

    @given(point_sets(min_n=3, max_n=8))
    def test_median_scale_equivariance(self, X):
        b = resolve_bandwidth(X)
        if b == 1.0:
            return  # degenerate fallback is not equivariant by design
        assert resolve_bandwidth(3.0 * X) == pytest.approx(3.0 * b, rel=1e-12)


class TestSpecValidation:
    def test_bad_family(self):
        """Only the two characteristic families exist; linear is gone."""
        for family in ("poly", "linear"):
            with pytest.raises(ValueError, match="unknown kernel family"):
                KernelSpec(family, dimension=1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", dimension=0, bandwidth=1.0)

    def test_bad_bandwidth(self):
        """A bandwidth that is not finite and positive is rejected for
        both families, though delta ignores a valid one."""
        for family in ("rbf", "delta"):
            for bandwidth in (0.0, -1.0, np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match="finite and positive"):
                    KernelSpec(family, dimension=1, bandwidth=bandwidth)
        assert KernelSpec("delta", dimension=1, bandwidth=2.0).bandwidth == 2.0
