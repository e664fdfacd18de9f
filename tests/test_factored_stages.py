"""The Woodbury-form action and observation stages against the dense path.

Each case starts both paths from the same beliefs: the action stage is
checked against the contraction of the dense conditioning tensor
(``action_conditioning_flat``), the observation stage against
``kbr_step_batch`` on the full observation Gram.
"""

import numpy as np

import hsepsr.filter as filter_mod
import hsepsr.learner as learner_mod
from hsepsr.filter import (
    condition_action_many,
    condition_observation_many,
    update_standardized_many,
)
from hsepsr.gramops import build_gram_cache, kbr_step_batch
from hsepsr.learner import resolve_kernels, train, train_from_windows
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import WindowConfig, build_windows

from densegrams import dense_grams, kbr_step
from synthdata import synthetic_trajectory

RTOL = 1e-10


def _rel(got, want):
    return np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)


def _dense_action(model, W, K):
    T = model.n_samples
    mixed = (W @ model.action_conditioning_flat()).reshape(-1, T, T)
    return (mixed @ K[:, :, None])[:, :, 0]


def _assert_matches_dense(model, rng, B=4):
    T = model.n_samples
    W = 1.0 / T + rng.normal(size=(B, T)) / T  # signed, near unit sum
    K_a = rng.uniform(0.0, 1.0, (B, T))
    K_o = rng.uniform(0.0, 1.0, (B, T))
    got = condition_action_many(model, W, K_a)
    assert _rel(got, _dense_action(model, W, K_a)).max() <= RTOL
    g = model.grams
    got = condition_observation_many(model, W, K_o)
    want = kbr_step_batch(W, g.G_O_O, g.lam_T, K_o)
    assert _rel(got, want).max() <= RTOL


def _singular_row(G, lam):
    """Weights w that make diag(w) G + lam I singular (in either form)."""
    return -(lam / np.linalg.eigvalsh(G).max()) * np.ones(G.shape[0])


class TestMatchesDense:
    def test_rbf_model(self, model_factory, rng):
        model, _ = model_factory()
        assert model.grams.V_A.shape[1] < model.n_samples
        _assert_matches_dense(model, rng)

    def test_delta_model(self, rng):
        traj = sample_trajectory(default_system(), 120, seed=3)
        model = train(traj, WindowConfig(1, 1), lam=1.0 / 118)
        assert model.kernels.action.family == "delta"
        assert model.grams.V_A.shape[1] <= 2 and model.grams.V_O.shape[1] <= 3
        _assert_matches_dense(model, rng)

    def test_full_rank_gram(self, rng):
        """2-d inputs at small bandwidths: the single-step Grams have full
        rank, so r = T and the factored form still matches."""
        traj = synthetic_trajectory(seed=5, n=45, da=2, do=2)
        model = train(traj, WindowConfig(2, 3), bandwidth_scale=0.05)
        T = model.n_samples
        assert model.grams.V_A.shape == (T, T) and model.grams.V_O.shape == (T, T)
        _assert_matches_dense(model, rng)


class TestEscalation:
    def test_singular_observation_row_equals_escalated_single_row(
        self, model_factory, rng
    ):
        model, _ = model_factory()
        g = model.grams
        T = model.n_samples
        W = 1.0 / T + rng.normal(size=(3, T)) / T
        K = rng.uniform(0.0, 1.0, (3, T))
        W[2] = _singular_row(g.G_O_O, g.lam_T)
        single_events = []
        single = kbr_step(W[2], g.G_O_O, g.lam_T, K[2], events=single_events)
        assert len(single_events) == 1
        events = []
        got = condition_observation_many(model, W, K, events)
        assert _rel(got[2], single) <= RTOL
        assert [e.label for e in events] == ["obs-conditioning[2]"]
        assert events[0].used == single_events[0].used
        plain = kbr_step_batch(W[:2], g.G_O_O, g.lam_T, K[:2])
        assert _rel(got[:2], plain).max() <= RTOL

    def test_update_many_reports_the_observation_escalation(
        self, model_factory, monkeypatch
    ):
        """An observation-stage escalation reaches the caller of the batched
        update, labelled with its row, and is the only event."""
        model, _ = model_factory()
        g = model.grams
        T = model.n_samples
        obs_input = np.tile(model.feasible_weights, (3, 1))
        obs_input[1] = _singular_row(g.G_O_O, g.lam_T)
        monkeypatch.setattr(
            filter_mod, "condition_action_many", lambda m, W, K: obs_input.copy()
        )
        W = np.tile(model.feasible_weights, (3, 1))
        acts = np.zeros((3, model.action_dim))
        obs = np.zeros((3, model.obs_dim))
        events = []
        update_standardized_many(model, W, acts, obs, renormalize=False, events=events)
        assert [e.label for e in events] == ["obs-conditioning[1]"]
        assert events[0].used > g.lam_T

    def test_action_factor_escalation_is_in_the_training_report(self, monkeypatch):
        traj = synthetic_trajectory(seed=2, n=50)
        windows = build_windows(traj, WindowConfig(2, 3))
        kernels = resolve_kernels(windows)
        lam = 1e-3
        cache = build_gram_cache(windows, kernels, lam)
        real = learner_mod.history_weights

        def history_weights(G_HH, lam_T, events=None):
            A = real(G_HH, lam_T, events=events)
            A[:, 3] = _singular_row(dense_grams(windows, kernels).G_A_A, lam_T)
            return A

        monkeypatch.setattr(learner_mod, "history_weights", history_weights)
        model = train_from_windows(windows, kernels, lam=lam)
        labels = [e.label for e in model.report.solve_events]
        assert "action[3]" in labels
        event = model.report.solve_events[labels.index("action[3]")]
        assert model.action_factors.lam[3] == event.used > cache.lam_T
        assert np.all(np.delete(model.action_factors.lam, 3) == cache.lam_T)
        # mixing matrix 3 alone applies the escalated conditioning matrix
        T = model.n_samples
        W = np.zeros((1, T))
        W[0, 3] = 1.0
        K = np.random.default_rng(0).uniform(0.0, 1.0, (1, T))
        got = condition_action_many(model, W, K)
        assert _rel(got, _dense_action(model, W, K)).max() <= RTOL
