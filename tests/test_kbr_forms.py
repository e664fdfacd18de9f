"""The rank-chosen kernel Bayes solve: Woodbury rows against dense rows.

``kbr_step_batch`` solves in Woodbury form over the Gram's factor when
``kbr_form`` finds that cheaper, and row by row with one T x T LU
otherwise; without a factor it always takes the dense form, which is the
reference here.  Low-rank cases run on the delta model (T = 118, rank 2)
and on an rbf model with L = N = 1 (T = 58, rank 15); full-rank cases on
the default rbf model, where every result must be the dense path's bit
for bit.  At the default factor floor the dense form is given the
truncated Gram, so it must agree with the Woodbury form, and a
propagation solved from the observation side with the dense path against
the test-action factor, within 1e-10, also where two of them pick
different forms.  The prediction readout solves nothing per belief; it is
checked against the dense readout oracle on both kinds of model.
"""

import tracemalloc

import numpy as np
import pytest

from hsepsr.filter import propagate_many
from hsepsr.gramops import (
    FACTOR_FLOOR,
    factor_coordinates,
    kbr_form,
    kbr_step_batch,
)
from hsepsr.learner import train
from hsepsr.model_io import load_model, save_model
from hsepsr.predict import condition_test_actions_many
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import WindowConfig

from densegrams import dense_readout, dense_ridge, kbr_step

RTOL = 1e-10


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _singular_row(G, lam):
    """Weights w that make diag(w) G + lam I singular (in either form)."""
    return -(lam / np.linalg.eigvalsh(G).max()) * np.ones(G.shape[0])


@pytest.fixture(scope="module")
def delta_traj():
    return sample_trajectory(default_system(), 120, seed=3)


@pytest.fixture(scope="module")
def delta_model(delta_traj):
    return train(delta_traj, WindowConfig(1, 1), lam=1.0 / 118)


@pytest.fixture(params=["delta", "rbf"])
def low_rank_case(request, delta_model, delta_traj, model_factory):
    """(model, training trajectory) of a model with low test-action rank."""
    if request.param == "delta":
        model, traj = delta_model, delta_traj
    else:
        model, traj = model_factory(L=1, N=1)
    T, r = model.grams.W_TAs.shape
    r_obs = model.grams.W_TOs.shape[1]
    assert r < T and kbr_form(T, r, 1) == kbr_form(T, r, r + 1) == "woodbury"
    assert kbr_form(T, r, r_obs) == kbr_form(T, r, r_obs + 1) == "woodbury"
    return model, traj


@pytest.fixture
def low_rank_model(low_rank_case):
    return low_rank_case[0]


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

    def test_factor_columns(self, low_rank_model, rng):
        g = low_rank_model.grams
        W = _beliefs(low_rank_model, rng)
        cols = g.W_TAs[None]
        got = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, cols, factor=g.W_TAs)
        want = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, cols)
        assert got.shape == want.shape
        assert _rel(got, want) <= RTOL

    def test_state_factors(self, low_rank_model):
        model = low_rank_model
        assert _rel(model.state_factors, _dense_state_factors(model)) <= RTOL

    def test_condition_test_actions_many(self, low_rank_case, rng):
        """The readout against the dense one, on repeated rows (delta) and
        distinct ones (rbf)."""
        model, traj = low_rank_case
        W = _beliefs(model, rng)
        windows = model.shifted_test_actions[rng.integers(0, model.n_samples, len(W))]
        got = condition_test_actions_many(model, W, windows)
        assert _rel(got, dense_readout(model, traj, W, windows)) <= RTOL


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

    @pytest.mark.parametrize("r", [6, 60])
    def test_row_past_the_first_block_records_its_global_index(self, rng, r):
        """``factor_coordinates`` solves rows in blocks of T // r (10 rows
        in Woodbury form at rank 6, one row in the dense form at full
        rank); a singular row in a later block is labelled by its index
        among all rows, not within its block."""
        T = 60
        V = rng.normal(size=(T, r)) / np.sqrt(T)
        G = V @ V.T
        W_obs = rng.normal(size=(T, 3))
        assert kbr_form(T, r, 4) == ("woodbury" if r < T else "dense")
        b = T // r + 2
        W = 1.0 / T + rng.normal(size=(b + 3, T)) / T
        W[b] = _singular_row(G, 0.1)
        events = []
        got = factor_coordinates(W, G, 0.1, V, W_obs, label="state", events=events)
        assert [e.label for e in events] == [f"state[{b}]"]
        want = W_obs.T @ kbr_step(W[b], G, events[0].used, V)
        assert _rel(got[b], want) <= 1e-8

#: rbf models at the default factor floor, by the side the propagation
#: solves, the window conditioning's form and the propagation's form
FLOORED = {
    # T = 55, r_TA = 30, r_TO = 32
    "action-mixed": (dict(seed=1), "action", "woodbury", "dense"),
    # T = 56, r_TA = 30, r_TO = 15
    "obs-woodbury": (dict(L=2, N=2, da=2, lam=1e-2), "obs", "woodbury", "woodbury"),
    # T = 55, r_TA = 56 (all T + 1 distinct windows), r_TO = 32
    "obs-dense": (dict(da=2), "obs", "dense", "dense"),
}


@pytest.fixture(params=list(FLOORED))
def floored_model(request, model_factory):
    kw, side, window, propagation = FLOORED[request.param]
    model, _ = model_factory(factor_floor=FACTOR_FLOOR, **kw)
    T = model.n_samples
    r, r_obs = model.grams.W_TAs.shape[1], model.grams.W_TOs.shape[1]
    assert (r_obs < r) == (side == "obs")
    assert kbr_form(T, r, 1) == window
    assert kbr_form(T, r, min(r, r_obs) + 1) == propagation
    return model


class TestFormsAgreeAtTheDefaultFloor:
    """The form is a choice of speed only: the cache's test-action Grams
    are the products of the truncated factors, so the dense form and the
    Woodbury form solve one system."""

    def test_woodbury_and_dense_forms(self, floored_model, rng):
        g = floored_model.grams
        W = _beliefs(floored_model, rng)
        K = rng.uniform(0.0, 1.0, W.shape)
        for k in (K, g.W_TOs[None], g.W_TAs[None]):
            got = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, k, factor=g.W_TAs)
            assert _rel(got, kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, k)) <= RTOL
        S = floored_model.state_factors
        assert _rel(S, _dense_state_factors(floored_model)) <= RTOL

    def test_propagate_many_matches_the_dense_path(self, floored_model, rng):
        """Against the dense solve of C_w W_TAs on the same truncated Gram,
        whichever side the propagation solves."""
        model = floored_model
        g = model.grams
        W = _beliefs(model, rng)
        X = kbr_step_batch(W, g.G_TAs_TAs, g.lam_T, g.W_TAs[None])
        q = (g.W_TOs.T @ X).reshape(len(W), -1) @ model.state_factors.T
        assert _rel(propagate_many(model, W), q @ model.state_ridge.T) <= RTOL


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

    def test_condition_test_actions_many(self, model, model_factory, rng):
        """With no repeated row the readout inverse is the dense T x T
        ridge inverse bit for bit, and gamma the dense readout's."""
        W = _beliefs(model, rng)
        windows = model.shifted_test_actions[[3, 9, 0, 20]]
        P = model.shifted_history_gram * model.grams.G_TAs_TAs
        T = model.n_samples
        dense = dense_ridge(P, model.grams.lam_T, np.eye(T))
        assert np.array_equal(model.readout, dense)
        got = condition_test_actions_many(model, W, windows)
        want = dense_readout(model, model_factory()[1], W, windows)
        assert _rel(got, want) <= RTOL

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
        factor_coordinates(  # warm any one-time allocations
            A[:, :4].T, G, 0.1, V, W_obs, label="state"
        )
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            S = factor_coordinates(A.T, G, 0.1, V, W_obs, label="state").reshape(T, -1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.shape == (T, 3 * r)
        assert peak - base - S.nbytes <= 8 * T * T * S.itemsize


    def test_dense_build_stays_within_a_few_t_squared(self, rng):
        """T = 160 at full test-action rank and 20 observation columns: one
        T x T LU per sample in reused buffers, so no (T, T, r) stack of
        the samples' systems or solutions is formed."""
        T, r_obs = 160, 20
        V = rng.normal(size=(T, T)) / np.sqrt(T)
        G = V @ V.T
        A = 1.0 / T + rng.normal(size=(T, T)) / T
        W_obs = rng.normal(size=(T, r_obs))
        assert kbr_form(T, T, r_obs) == "dense"
        factor_coordinates(  # warm any one-time allocations
            A[:, :4].T, G, 0.1, V, W_obs, label="state"
        )
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            S = factor_coordinates(A.T, G, 0.1, V, W_obs, label="state").reshape(T, -1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.shape == (T, r_obs * T)
        assert peak - base - S.nbytes <= 8 * T * T * S.itemsize


class TestRowMemory:
    def test_woodbury_rows_stay_within_a_few_t_squared(self, rng):
        """B = T = 240 rows at rank 20, one column per row: each row's
        r x r system is written into the pass's row buffer, so no (B, r, T)
        broadcast of the rows' systems (20 T^2 floats) is formed."""
        T, r = 240, 20
        V = rng.normal(size=(T, r)) / np.sqrt(T)
        G = V @ V.T
        W = 1.0 / T + rng.normal(size=(T, T)) / T
        K = rng.normal(size=(T, T))
        assert kbr_form(T, r, 1) == "woodbury"
        kbr_step_batch(W[:4], G, 0.1, K[:4], factor=V)  # warm one-time allocations
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            x = kbr_step_batch(W, G, 0.1, K, factor=V)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.shape == (T, T)
        assert peak - base - x.nbytes <= 8 * T * T * x.itemsize

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
        """The state build solves the fewer of r_test_obs and r_test_action
        columns per sample in the form the test-action rank picks; the
        floor line gives the cut."""
        lines = delta_model.report.summary_lines()
        assert "factor floor: 0.01 (0.01 x lam_T)" in lines
        i = lines.index("rank[test_action]: 2")
        assert lines[i + 1] == "rank[test_obs]: 3"
        assert lines[i + 2] == (
            "solve[test_action]: woodbury (rank 2 of T = 118, 2 columns)"
        )
        full, _ = model_factory()
        T = full.n_samples
        lines = full.report.summary_lines()
        i = lines.index(f"rank[test_action]: {T + 1}")
        assert lines[i + 2] == (
            f"solve[test_action]: dense (rank {T + 1} of T = {T}, {T + 1} columns)"
        )
