import dataclasses
import tracemalloc

import numpy as np
import pytest

import hsepsr.gramops as gramops
from hsepsr.gramops import (
    FACTOR_FLOOR,
    GramCache,
    build_gram_cache,
    distinct_rows,
    escalated_solve,
    history_weights,
    kbr_step_batch,
    low_rank_factor,
    ridge_solve,
)
from hsepsr.kernels import KernelSet, KernelSpec, gram
from hsepsr.learner import resolve_kernels
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import Trajectory, WindowConfig, build_windows

from densegrams import dense_grams, kbr_step, state_gram


def random_psd(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T


class TestRidgeSolve:
    def test_eigen_oracle(self, rng):
        """(G + lam I)^-1 B via eigendecomposition of G."""
        G = random_psd(rng, 12)
        B = rng.normal(size=(12, 3))
        lam = 0.37
        w, V = np.linalg.eigh(G)
        expect = V @ ((V.T @ B) / (w + lam)[:, None])
        got = ridge_solve(G, lam, B)
        assert np.allclose(got, expect, atol=1e-10)

    def test_permutation_equivariance(self, rng):
        G = random_psd(rng, 8)
        B = rng.normal(size=(8, 2))
        p = rng.permutation(8)
        X = ridge_solve(G, 0.1, B)
        Xp = ridge_solve(G[np.ix_(p, p)], 0.1, B[p])
        assert np.allclose(Xp, X[p], atol=1e-10)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), 0.0, np.eye(2))


class TestEscalation:
    def test_indefinite_matrix_escalates_until_positive(self):
        """G with eigenvalue -1 defeats lam 0.1 and 1.0; lam 10 succeeds."""
        G = np.diag([-1.0, 1.0])
        events = []
        x = ridge_solve(G, 0.1, np.eye(2), events=events)
        assert np.allclose(x, np.linalg.inv(G + 10.0 * np.eye(2)), atol=1e-12)
        assert len(events) == 1
        ev = events[0]
        assert (ev.requested, ev.used, ev.attempts) == (0.1, pytest.approx(10.0), 3)

    def test_exhaustion_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
            ridge_solve(-np.eye(3), 1e-6, np.eye(3))

    def test_singular_general_solve_escalates(self):
        # diag(w) G is rank deficient when w has a zero entry
        w = np.array([0.0, 1.0])
        G = np.ones((2, 2))
        # with lam the system is fine; force failure through a singular lhs
        def build(lam):
            return np.ones((2, 2)) if lam < 1.0 else np.eye(2)

        events = []
        x = escalated_solve(build, np.ones(2), 0.01, sym=False, events=events)
        assert np.allclose(x, np.ones(2))
        assert events and events[0].attempts == 3

    def test_residual_failure_escalates(self, monkeypatch):
        real = gramops._factor_solve
        calls = []

        def corrupt_first(lhs, rhs, sym):
            calls.append(1)
            out = real(lhs, rhs, sym)
            return out + 1.0 if len(calls) == 1 else out

        monkeypatch.setattr(gramops, "_factor_solve", corrupt_first)
        events = []
        x = ridge_solve(np.eye(3), 0.5, np.eye(3), events=events)
        assert len(calls) == 2
        assert np.allclose(x, np.eye(3) / 6.0, atol=1e-12)
        assert events[0].used == pytest.approx(5.0)

    def test_zero_rhs_accepted_immediately(self):
        x = ridge_solve(np.eye(2), 0.1, np.zeros((2, 2)))
        assert np.array_equal(x, np.zeros((2, 2)))


class TestConditioning:
    def test_matrix_matches_dense_inverse(self, rng):
        G = random_psd(rng, 9)
        w = rng.normal(size=9)  # negative entries included
        lam = 0.8
        expect = np.linalg.inv(np.diag(w) @ G + lam * np.eye(9)) @ np.diag(w)
        got = kbr_step_batch(w[None], G, lam, np.eye(9)[None])[0]
        assert np.allclose(got, expect, atol=1e-10)

    def test_kbr_step_matches_matrix_action(self, rng):
        G = random_psd(rng, 7)
        w = rng.normal(size=7)
        k = rng.normal(size=7)
        C = kbr_step_batch(w[None], G, 0.5, np.eye(7)[None])[0]
        assert np.allclose(kbr_step(w, G, 0.5, k), C @ k, atol=1e-10)
        K = rng.normal(size=(7, 3))
        assert np.allclose(kbr_step(w, G, 0.5, K), C @ K, atol=1e-10)

    def test_batch_matches_per_row(self, rng):
        G = random_psd(rng, 6)
        W = rng.normal(size=(4, 6))
        K = rng.normal(size=(4, 6))
        got = kbr_step_batch(W, G, 0.3, K)
        for b in range(4):
            assert np.allclose(got[b], kbr_step(W[b], G, 0.3, K[b]), atol=1e-10)

    def test_batch_escalates_only_the_failing_row(self, rng):
        """A row singular at lam gets the single-row escalated solution and
        the one recorded escalation; the other rows keep their plain solves."""
        G = random_psd(rng, 6)
        lam = 0.3
        W = rng.normal(size=(4, 6))
        K = rng.normal(size=(4, 6))
        W[2] = -(lam / np.linalg.eigvalsh(G).max()) * np.ones(6)
        single_events = []
        single = kbr_step(W[2], G, lam, K[2], events=single_events)
        assert len(single_events) == 1 and single_events[0].used > lam
        events = []
        got = kbr_step_batch(W, G, lam, K, label="obs", events=events)
        assert np.allclose(got[2], single, atol=1e-12)
        for b in (0, 1, 3):
            plain = np.linalg.solve(W[b][:, None] * G + lam * np.eye(6), W[b] * K[b])
            assert np.allclose(got[b], plain, atol=1e-10)
        assert [e.label for e in events] == ["obs[2]"]
        assert events[0].used == single_events[0].used

    def test_batch_falls_back_per_row_when_the_stack_raises(self, rng):
        """An exactly singular row fails its own factorization and only it
        escalates; every other row keeps its plain solve.  (Rows were once
        solved as one stack, which an exactly singular row made raise.)"""
        G = np.diag(np.arange(1.0, 6.0))
        lam = 0.5
        W = np.vstack([np.full(5, -lam), rng.uniform(0.5, 1.0, 5)])
        K = rng.normal(size=(2, 5))
        events = []
        got = kbr_step_batch(W, G, lam, K, events=events, first_row=7)
        assert np.allclose(got[1], kbr_step(W[1], G, lam, K[1]), atol=1e-12)
        assert np.allclose(got[0], kbr_step(W[0], G, lam, K[0]), atol=1e-12)
        assert [e.label for e in events] == ["kbr[7]"]

    def test_exactly_singular_row_fails_getrf_and_escalates_alone(self, rng):
        """The singular row fails its LU factorization (``getrf`` reports
        info > 0, and ``np.linalg.solve`` raises); that row alone is
        escalated, and the others are the plain LU solves at lam."""
        G = np.diag(np.arange(1.0, 7.0))
        lam = 0.5
        W = rng.uniform(0.5, 1.0, (4, 6))
        W[1] = -lam
        K = rng.normal(size=(4, 6))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(W[1][:, None] * G + lam * np.eye(6), K[1])
        events = []
        got = kbr_step_batch(W, G, lam, K, events=events)
        assert [e.label for e in events] == ["kbr[1]"]
        assert events[0].used > lam
        assert np.allclose(got[1], kbr_step(W[1], G, lam, K[1]), atol=1e-12)
        for b in (0, 2, 3):
            plain = np.linalg.solve(W[b][:, None] * G + lam * np.eye(6), W[b] * K[b])
            assert np.allclose(got[b], plain, rtol=1e-13, atol=0)

    def test_batch_forms_no_stack_of_systems(self, rng):
        """Solving B = 16 rows of T = 160 against 161 shared columns
        allocates the (B, T, m) result plus a few reused (T, T) and (T, m)
        row buffers; one (B, T, T) stack alone would be about 8 T (T + m)."""
        B, T, m = 16, 160, 161
        G = random_psd(rng, T) / T
        W = 1.0 / T + rng.normal(size=(B, T)) / T
        cols = rng.normal(size=(1, T, m))
        kbr_step_batch(W, G, 0.16, cols)  # warm any one-time allocations
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            x = kbr_step_batch(W, G, 0.16, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (B, T, m)
        assert peak - base - x.nbytes <= 4 * T * (T + m) * x.itemsize

    def test_batch_matrix_right_hand_side_shared_across_rows(self, rng):
        G = random_psd(rng, 6)
        W = rng.normal(size=(3, 6))
        M = rng.normal(size=(6, 4))
        got = kbr_step_batch(W, G, 0.3, M[None])
        assert got.shape == (3, 6, 4)
        for b in range(3):
            assert np.allclose(got[b], kbr_step(W[b], G, 0.3, M), atol=1e-10)

    def test_uniform_weights_reduce_to_ridge(self, rng):
        """With w = 1/T the conditioning matrix is (G/T + lam I)^-1 / T."""
        G = random_psd(rng, 6)
        T, lam = 6, 0.2
        got = kbr_step_batch(np.full((1, T), 1.0 / T), G, lam, np.eye(T)[None])[0]
        expect = np.linalg.inv(G / T + lam * np.eye(T)) / T
        assert np.allclose(got, expect, atol=1e-10)


class TestHistoryWeights:
    def test_eigen_oracle(self, rng):
        G = random_psd(rng, 10)
        lam = 0.6
        w, V = np.linalg.eigh(G)
        expect = V @ np.diag(w / (w + lam)) @ V.T
        assert np.allclose(history_weights((G, None), lam), expect, atol=1e-10)

    def test_large_lam_shrinks_weights(self, rng):
        G = random_psd(rng, 8)
        A = history_weights((G, None), 1e6)
        assert np.abs(A).max() < 1e-3


class TestStateGram:
    def test_matches_naive_trace_loop(self, rng):
        S, T = 5, 4
        left = rng.normal(size=(S, T, T))
        right = rng.normal(size=(S + 1, T, T))
        G_obs = rng.normal(size=(T, T))
        G_act = rng.normal(size=(T, T))
        got = state_gram(left, right, G_obs, G_act, block=2)
        for i in range(S):
            for j in range(S + 1):
                expect = np.trace(left[i].T @ G_obs @ right[j] @ G_act.T)
                assert got[i, j] == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_explicit_operator_oracle(self, rng):
        """Coefficient-form inner products equal explicit operator traces.

        Build actual finite-dimensional operators S_i = U C_i V^T over
        feature lists and verify <S_i, S'_j>_F against the Gram-side
        formula with G_obs = U^T U', G_act = V^T V'.
        """
        T, d_o, d_a = 5, 3, 2
        U = rng.normal(size=(d_o, T))
        Up = rng.normal(size=(d_o, T))
        V = rng.normal(size=(d_a, T))
        Vp = rng.normal(size=(d_a, T))
        left = rng.normal(size=(4, T, T))
        right = rng.normal(size=(4, T, T))
        got = state_gram(left, right, U.T @ Up, V.T @ Vp)
        for i in range(4):
            S_i = U @ left[i] @ V.T
            for j in range(4):
                S_j = Up @ right[j] @ Vp.T
                assert got[i, j] == pytest.approx(np.sum(S_i * S_j), rel=1e-10)

    def test_self_gram_symmetric_psd(self, rng):
        T = 6
        C = rng.normal(size=(T, T, T))
        G_obs = random_psd(rng, T)
        G_act = random_psd(rng, T)
        G = state_gram(C, C, G_obs, G_act)
        assert np.allclose(G, G.T, atol=1e-9)
        w = np.linalg.eigvalsh((G + G.T) / 2)
        assert w.min() > -1e-8 * max(1.0, w.max())


class TestGramCache:
    def test_fields_and_shifted_kernel_reuse(self, rng):
        traj = Trajectory(rng.normal(size=(40, 1)), rng.normal(size=(40, 2)))
        w = build_windows(traj, WindowConfig(3, 2))
        ks = KernelSet(
            history=KernelSpec("rbf", w.histories.shape[1], bandwidth=2.0),
            test_action=KernelSpec("rbf", w.test_actions.shape[1], bandwidth=1.5),
            test_obs=KernelSpec("rbf", w.test_obs.shape[1], bandwidth=1.2),
            action=KernelSpec("rbf", 1, bandwidth=1.0),
            obs=KernelSpec("rbf", 2, bandwidth=0.9),
        )
        cache = build_gram_cache(w, ks, lam=1e-3)
        T = w.n_samples
        assert [f.name for f in dataclasses.fields(GramCache)] == [
            "G_TA_TA", "G_TAs_TAs", "G_O_O", "V_A", "V_O",
            "W_TA", "W_TAs", "W_TO", "W_TOs", "lam_T",
        ]
        assert cache.lam_T == pytest.approx(1e-3 * T)
        for name in ("G_TA_TA", "G_TAs_TAs", "G_O_O"):
            assert getattr(cache, name).shape == (T, T)
        # the test-action Grams are the products of their truncated factors,
        # within the floor of the shifted windows' Gram under the test-action
        # kernel
        assert np.array_equal(cache.G_TAs_TAs, cache.W_TAs @ cache.W_TAs.T)
        assert np.array_equal(cache.G_TA_TA, cache.W_TA @ cache.W_TA.T)
        G_TAs_TAs = gram(ks.test_action, w.shifted_test_actions, w.shifted_test_actions)
        floor = FACTOR_FLOOR * cache.lam_T
        assert np.linalg.norm(cache.G_TAs_TAs - G_TAs_TAs, 2) <= floor * (1 + 1e-9)
        G_TO_TOs = dense_grams(w, ks).G_TO_TOs
        assert np.abs(cache.W_TO @ cache.W_TOs.T - G_TO_TOs).max() <= 1e-12
        # same-list Grams are exactly symmetric, diagonals exactly 1 for rbf
        assert np.array_equal(cache.G_TA_TA, cache.G_TA_TA.T)
        assert np.all(np.diag(cache.G_O_O) == 1.0)

    def test_single_step_factors_have_the_numerical_rank(self, rng):
        """On rbf data every row is distinct and the factors are those of
        the full Grams; on a discrete trajectory (2 actions, 3
        observations) they come from the distinct rows' Gram, spread back,
        and still have the full Gram's numerical rank."""
        traj = Trajectory(rng.normal(size=(40, 1)), rng.normal(size=(40, 2)))
        w = build_windows(traj, WindowConfig(3, 2))
        ks = KernelSet(
            history=KernelSpec("rbf", w.histories.shape[1], bandwidth=2.0),
            test_action=KernelSpec("rbf", w.test_actions.shape[1], bandwidth=1.5),
            test_obs=KernelSpec("rbf", w.test_obs.shape[1], bandwidth=1.2),
            action=KernelSpec("rbf", 1, bandwidth=1.0),
            obs=KernelSpec("rbf", 2, bandwidth=0.9),
        )
        w_discrete = build_windows(
            sample_trajectory(default_system(), 242, seed=0), WindowConfig(1, 1)
        )
        assert distinct_rows(w.cur_actions) is None
        assert distinct_rows(w_discrete.cur_actions) is not None
        for w, ks in ((w, ks), (w_discrete, resolve_kernels(w_discrete))):
            cache = build_gram_cache(w, ks, lam=1e-3)
            G_A_A = dense_grams(w, ks).G_A_A
            for G, V, X in (
                (G_A_A, cache.V_A, w.cur_actions),
                (cache.G_O_O, cache.V_O, w.cur_obs),
            ):
                assert V.shape == (G.shape[0], np.linalg.matrix_rank(G))
                assert np.abs(V @ V.T - G).max() <= 1e-12 * np.abs(G).max()
                if distinct_rows(X) is None:
                    assert np.array_equal(V, low_rank_factor(G))

    def test_distinct_rows_in_first_occurrence_order(self):
        X = np.array([[2.0, 1.0], [0.0, 1.0], [2.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        first, spread = distinct_rows(X)
        assert first.tolist() == [0, 1, 3]
        assert spread.tolist() == [0, 1, 0, 2, 1]
        assert np.array_equal(X[first][spread], X)
        assert distinct_rows(X[[0, 1, 3]]) is None

    def test_distinct_rows_match_bytes(self):
        """Rows are equal when their bytes are: 0.0 and -0.0 stay apart,
        and a strided view groups as its contiguous copy does."""
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        first, spread = distinct_rows(X)
        assert first.tolist() == [0, 1]
        assert spread.tolist() == [0, 1, 0]
        A = np.array([[0.0, 1.0, 0.0, 2.0, 1.0], [3.0, 4.0, 3.0, 5.0, 4.0]])
        assert not A.T.flags.c_contiguous
        for X in (A.T, A.T.copy()):
            first, spread = distinct_rows(X)
            assert first.tolist() == [0, 1, 3]
            assert spread.tolist() == [0, 1, 0, 2, 1]

    def test_rejects_bad_lam(self, rng):
        traj = Trajectory(rng.normal(size=(20, 1)), rng.normal(size=(20, 1)))
        w = build_windows(traj, WindowConfig(2, 2))
        ks = KernelSet(
            history=KernelSpec("rbf", w.histories.shape[1], bandwidth=1.0),
            test_action=KernelSpec("rbf", w.test_actions.shape[1], bandwidth=1.0),
            test_obs=KernelSpec("rbf", w.test_obs.shape[1], bandwidth=1.0),
            action=KernelSpec("rbf", 1, bandwidth=1.0),
            obs=KernelSpec("rbf", 1, bandwidth=1.0),
        )
        with pytest.raises(ValueError):
            build_gram_cache(w, ks, lam=0.0)
