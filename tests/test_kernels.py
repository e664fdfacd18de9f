import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsepsr.kernels import (
    MEDIAN_CAP,
    KernelSet,
    KernelSpec,
    gram,
    kernel_eval,
    kernel_vector,
    resolve_bandwidth,
    resolve_spec,
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

    def test_linear_is_dot(self):
        spec = KernelSpec("linear", dimension=2)
        assert kernel_eval(spec, np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

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
        spec = KernelSpec("rbf", dimension=1)
        with pytest.raises(ValueError):
            kernel_eval(spec, np.array([0.0]), np.array([1.0]))


class TestGram:
    def test_matches_pairwise_eval(self, rng):
        for family, bw in [("rbf", 1.3), ("linear", None), ("delta", None)]:
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
        for family, bw in [("rbf", 1.1), ("linear", None)]:
            K = gram(KernelSpec(family, 3, bw), X, X)
            assert np.array_equal(K, K.T)

    def test_empty_input_raises(self):
        spec = KernelSpec("linear", dimension=2)
        with pytest.raises(ValueError):
            gram(spec, np.empty((0, 2)), np.ones((2, 2)))

    def test_kernel_vector_is_gram_column(self, rng):
        spec = KernelSpec("rbf", dimension=2, bandwidth=1.0)
        X = rng.normal(size=(6, 2))
        q = rng.normal(size=2)
        v = kernel_vector(spec, X, q)
        K = gram(spec, X, q.reshape(1, 2))
        assert np.array_equal(v, K[:, 0])


class TestGramProperties:
    @given(point_sets())
    def test_rbf_psd(self, X):
        K = gram(KernelSpec("rbf", 3, bandwidth=1.5), X, X)
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-9

    @given(point_sets())
    def test_linear_psd(self, X):
        K = gram(KernelSpec("linear", 3), X, X)
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-8 * max(1.0, w.max())

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
        with pytest.raises(ValueError):
            KernelSpec("poly", dimension=1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", dimension=0, bandwidth=1.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", dimension=1, bandwidth=0.0)

    def test_kernel_set_rejects_unresolved(self):
        pending = KernelSpec("rbf", dimension=4)
        ok = KernelSpec("rbf", dimension=4, bandwidth=1.0)
        with pytest.raises(ValueError):
            KernelSet(pending, ok, ok, ok, ok)

    def test_resolve_spec_fills_bandwidth(self):
        pending = KernelSpec("rbf", dimension=1)
        got = resolve_spec(pending, np.array([[0.0], [1.0], [3.0]]))
        assert got.bandwidth == 2.0
        # already-resolved specs pass through untouched
        fixed = KernelSpec("rbf", dimension=1, bandwidth=9.0)
        assert resolve_spec(fixed, np.array([[0.0], [1.0]])) is fixed
