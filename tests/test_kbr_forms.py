"""The rank-chosen kernel Bayes solve: Woodbury rows against dense rows.

``kbr_step_batch`` solves in Woodbury form over the Gram's factor when
``kbr_form`` finds that cheaper, and row by row with one T x T LU
otherwise; without a factor it always takes the dense form, which is the
reference here.  Low-rank cases run on the delta model (T = 118, rank 2)
and on an rbf model with L = N = 1 (T = 58, rank 15); full-rank cases on
the default rbf model, where every result must be the dense path's bit
for bit.
"""

import tracemalloc

import numpy as np
import pytest

from hsepsr.filter import propagate_many
from hsepsr.gramops import (
    kbr_form,
    kbr_step,
    kbr_step_batch,
    state_factors,
)
from hsepsr.kernels import gram
from hsepsr.learner import train
from hsepsr.model_io import load_model, save_model
from hsepsr.predict import condition_test_actions_many
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import WindowConfig

RTOL = 1e-10


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _singular_row(G, lam):
    """Weights w that make diag(w) G + lam I singular (in either form)."""
    return -(lam / np.linalg.eigvalsh(G).max()) * np.ones(G.shape[0])


@pytest.fixture(scope="module")
def delta_model():
    traj = sample_trajectory(default_system(), 120, seed=3)
    return train(traj, WindowConfig(1, 1), lam=1.0 / 118)


@pytest.fixture(params=["delta", "rbf"])
def low_rank_model(request, delta_model, model_factory):
    model = delta_model if request.param == "delta" else model_factory(L=1, N=1)[0]
    T, r = model.grams.W_TAs.shape
    assert r < T and kbr_form(T, r, 1) == kbr_form(T, r, r + 1) == "woodbury"
    return model


def _beliefs(model, rng, B=4):
    T = model.n_samples
    return 1.0 / T + rng.normal(size=(B, T)) / T  # signed, near unit sum


def _dense_state_factors(model):
    """Row s by one ``kbr_step`` per sample, the per-sample dense build."""
    g = model.grams
    A = model.history_state_weights
    return np.stack(
        [
            (g.W_TO.T @ kbr_step(A[:, s], g.G_TA_TA, g.lam_T, g.W_TA)).ravel()
            for s in range(A.shape[1])
        ]
    )


class TestRule:
    def test_picks_by_flop_count(self):
        assert kbr_form(240, 2, 2) == "woodbury"
        assert kbr_form(58, 15, 15) == "woodbury"
        assert kbr_form(160, 18, 1) == "woodbury"
        for T in (58, 160, 480):
            assert kbr_form(T, T + 1, T + 1) == kbr_form(T, T + 1, 1) == "dense"
            assert kbr_form(T, T, 1) == "dense"


class TestWoodburyMatchesDense:
    def test_one_column(self, low_rank_model, rng):
        g = low_rank_model.grams
        W = _beliefs(low_rank_model, rng)
        K = rng.uniform(0.0, 1.0, W.shape)
        got = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, K, factor=g.W_TAs)
        want = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, K)
        assert got.shape == want.shape
        assert _rel(got, want) <= RTOL

    def test_factor_columns_and_the_fused_extra_column(self, low_rank_model, rng):
        g = low_rank_model.grams
        W = _beliefs(low_rank_model, rng)
        E = rng.uniform(0.0, 1.0, W.shape)
        cols = g.W_TAs[None]
        got = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, cols, factor=g.W_TAs)
        want = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, cols)
        assert got.shape == want.shape
        assert _rel(got, want) <= RTOL
        fused, fused_e = kbr_step_batch(
            W, g.G_TAs_TAs, g.lam_T, cols, factor=g.W_TAs, extra=E
        )
        assert _rel(fused, want) <= RTOL
        assert _rel(fused_e, kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, E)) <= RTOL

    def test_state_factors(self, low_rank_model):
        model = low_rank_model
        assert _rel(model.state_factors, _dense_state_factors(model)) <= RTOL

    def test_condition_test_actions_many(self, low_rank_model, rng):
        model = low_rank_model
        g = model.grams
        W = _beliefs(model, rng)
        windows = model.shifted_test_actions[rng.integers(0, model.n_samples, len(W))]
        got = condition_test_actions_many(model, W, windows)
        K = gram(model.kernels.test_action, windows, model.shifted_test_actions)
        assert _rel(got, kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, K)) <= RTOL


class TestEscalation:
    def test_singular_row_escalates_alike_in_both_forms(self, low_rank_model, rng):
        g = low_rank_model.grams
        W = _beliefs(low_rank_model, rng, B=3)
        W[1] = _singular_row(g.G_TAs_TAs, g.lam_T)
        cols = g.W_TAs[None]
        events, dense_events = [], []
        got = kbr_step_batch(
            W, g.G_TAs_TAs, g.lam_T, cols, factor=g.W_TAs, label="shift",
            events=events, first_row=4,
        )
        want = kbr_step_batch(
            W, g.G_TAs_TAs, g.lam_T, cols, label="shift", events=dense_events,
            first_row=4,
        )
        assert [e.label for e in events] == ["shift[5]"]
        assert events == dense_events
        assert events[0].used > g.lam_T
        assert _rel(got, want) <= RTOL

    def test_extra_column_failing_alone_is_solved_again_alone(self, rng):
        """G = V V^T of rank 3 and w = -c 1 with lam - c s_0 = 1e-10: the
        extra column along the near-null direction fails its own residual
        test, hidden in one norm by the other columns, so the fused call
        returns and records what the two separate calls do."""
        T, r, lam = 20, 3, 0.5
        Q, _ = np.linalg.qr(rng.normal(size=(T, T)))
        s = np.array([2.0, 1.0, 0.5])
        V = Q[:, :r] * np.sqrt(s)
        G = V @ V.T
        W = np.full((1, T), -(lam - 1e-10) / s[0])
        K = (Q[:, 1:] @ rng.normal(size=(T - 1, 5)))[None]
        e = 1e-3 * Q[:, 0][None]
        assert all(kbr_form(T, r, m) == "woodbury" for m in (1, 5, 6))
        events = []
        got, got_e = kbr_step_batch(
            W, G, lam, K, factor=V, events=events, extra=e, extra_label="window"
        )
        want_events = []
        want_e = kbr_step_batch(
            W, G, lam, e, factor=V, label="window", events=want_events
        )
        want = kbr_step_batch(W, G, lam, K, factor=V, events=want_events)
        assert [ev.label for ev in want_events] == ["window[0]"]
        assert events == want_events
        assert np.array_equal(got_e, want_e) and np.array_equal(got, want)


class TestFullRankIsTheDensePath:
    @pytest.fixture
    def model(self, model_factory):
        model, _ = model_factory()
        T, r = model.grams.W_TAs.shape
        assert r == T + 1 and kbr_form(T, r, 1) == kbr_form(T, r, r + 1) == "dense"
        return model

    def test_propagate_many(self, model, rng):
        g = model.grams
        W = _beliefs(model, rng)
        X = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, g.W_TAs[None])
        q = (g.W_TOs.T @ X).reshape(len(W), -1) @ model.state_factors.T
        want = q @ model.state_ridge.T
        assert np.array_equal(propagate_many(model, W), want)

    def test_condition_test_actions_many(self, model, rng):
        g = model.grams
        W = _beliefs(model, rng)
        windows = model.shifted_test_actions[[3, 9, 0, 20]]
        K = gram(model.kernels.test_action, windows, model.shifted_test_actions)
        got = condition_test_actions_many(model, W, windows)
        assert np.array_equal(got, kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, K))

    def test_state_factors(self, model):
        assert np.array_equal(model.state_factors, _dense_state_factors(model))


class TestStateFactorsMemory:
    def test_woodbury_build_stays_within_a_few_t_squared(self, rng):
        """T = 240 at rank 20: the blocks of T // r samples keep every
        temporary near T^2 floats; one (T, T, r) stack of the samples'
        solutions alone would be 20 T^2."""
        T, r = 240, 20
        V = rng.normal(size=(T, r)) / np.sqrt(T)
        G = V @ V.T
        A = 1.0 / T + rng.normal(size=(T, T)) / T
        W_obs = rng.normal(size=(T, 3))
        assert kbr_form(T, r, r) == "woodbury"
        state_factors(A[:, :4], G, 0.1, V, W_obs)  # warm any one-time allocations
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            S = state_factors(A, G, 0.1, V, W_obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.shape == (T, 3 * r)
        assert peak - base - S.nbytes <= 8 * T * T * S.itemsize


class TestReload:
    def test_loaded_delta_model_has_the_trained_state_factors(
        self, delta_model, tmp_path
    ):
        path = tmp_path / "delta.hsepsr"
        save_model(delta_model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.state_factors, delta_model.state_factors)


class TestTrainingReport:
    def test_names_the_form_for_the_test_action_rank(self, delta_model, model_factory):
        lines = delta_model.report.summary_lines()
        i = lines.index("rank[test_action]: 2")
        assert lines[i + 1] == "solve[test_action]: woodbury (rank 2 of T = 118)"
        full, _ = model_factory()
        T = full.n_samples
        lines = full.report.summary_lines()
        i = lines.index(f"rank[test_action]: {T + 1}")
        assert lines[i + 1] == f"solve[test_action]: dense (rank {T + 1} of T = {T})"
