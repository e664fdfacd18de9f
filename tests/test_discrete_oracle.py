"""Tests for the discrete systems, the exact filter, and the two filter paths."""

import numpy as np
import pytest

from hsepsr.learner import train_from_windows, resolve_kernels
from hsepsr.simbench.discrete import (
    DiscreteOracleSystem,
    cycle_system,
    default_system,
    exact_filter,
    sample_trajectory,
)
from hsepsr.simbench.oracle import (
    convergence_curve,
    explicit_filter,
    gram_filter_distributions,
    normalize_distributions,
    train_explicit,
)
from hsepsr.windows import WindowConfig, build_windows


def _trained_pair(traj, config, lam):
    windows = build_windows(traj, config)
    model = train_from_windows(windows, resolve_kernels(windows), lam=lam)
    explicit = train_explicit(windows, lam=lam)
    return model, explicit


class TestSystemValidation:
    def test_rejects_nonstochastic_transitions(self):
        bad = np.array([[[0.5, 0.6], [0.5, 0.5]]])
        with pytest.raises(ValueError):
            DiscreteOracleSystem(
                transitions=bad, emissions=np.eye(2), start=np.array([1.0, 0.0])
            )

    def test_rejects_negative_emissions(self):
        with pytest.raises(ValueError):
            DiscreteOracleSystem(
                transitions=np.eye(2)[None],
                emissions=np.array([[1.5, -0.5], [0.5, 0.5]]),
                start=np.array([1.0, 0.0]),
            )

    def test_default_system_shape(self):
        sys_ = default_system()
        assert (sys_.n_actions, sys_.n_states, sys_.n_obs) == (2, 3, 3)


class TestSampling:
    def test_deterministic_given_seed(self):
        sys_ = default_system()
        a = sample_trajectory(sys_, 50, seed=4)
        b = sample_trajectory(sys_, 50, seed=4)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.observations, b.observations)

    def test_symbols_in_range(self):
        sys_ = default_system()
        traj = sample_trajectory(sys_, 200, seed=1)
        assert traj.discrete
        assert set(np.unique(traj.actions)) <= set(range(sys_.n_actions))
        assert set(np.unique(traj.observations)) <= set(range(sys_.n_obs))


class TestExactFilter:
    def test_cycle_predictions_follow_rotation(self):
        """With the deterministic cycle the next symbol is a known function
        of the current state and action; check a hand-computed prefix."""
        sys_ = cycle_system()
        # start in state 0; action 0 rotates 0->1->2->0, action 1 backward
        actions = np.array([[0], [0], [1], [0]], dtype=float)
        # realized observations equal the deterministic next state
        observations = np.array([[1], [2], [1], [2]], dtype=float)
        res = exact_filter(sys_, actions, observations)
        expected_states = [1, 2, 1, 2]
        for t, s in enumerate(expected_states):
            one_hot = np.zeros(3)
            one_hot[s] = 1.0
            assert np.allclose(res.predicted_obs[t], one_hot)
            assert np.allclose(res.beliefs[t], one_hot)
        assert res.resets == []

    def test_rows_are_distributions(self):
        sys_ = default_system()
        traj = sample_trajectory(sys_, 80, seed=2)
        res = exact_filter(sys_, traj.actions, traj.observations)
        assert np.all(res.predicted_obs >= 0)
        assert np.allclose(res.predicted_obs.sum(axis=1), 1.0)
        assert np.allclose(res.beliefs.sum(axis=1), 1.0)

    def test_impossible_observation_resets(self):
        sys_ = cycle_system()
        actions = np.array([[0], [0]], dtype=float)
        # second symbol contradicts the deterministic rotation
        observations = np.array([[1], [0]], dtype=float)
        res = exact_filter(sys_, actions, observations)
        assert res.resets == [1]
        assert np.allclose(res.beliefs[1], sys_.start)


class TestDualPathEquivalence:
    def test_paths_agree_on_random_steps(self):
        """Gram-matrix filtering and the explicit-feature filter are the
        same estimator written in two bases."""
        traj = sample_trajectory(default_system(), 60, seed=0)
        model, explicit = _trained_pair(traj, WindowConfig(2, 2), lam=3e-3)
        probe = sample_trajectory(default_system(), 24, seed=17)
        rg = gram_filter_distributions(
            model, probe.actions, probe.observations, renormalize=False
        )
        re = explicit_filter(
            explicit, probe.actions, probe.observations, renormalize=False
        )
        assert rg.resets == re.resets == []
        rel = np.abs(rg.distributions - re.distributions).max()
        rel /= np.abs(re.distributions).max()
        assert rel < 1e-8

    def test_explicit_gram_of_features_is_delta(self):
        """One-hot features reproduce the exact-match Gram matrix."""
        traj = sample_trajectory(default_system(), 40, seed=3)
        windows = build_windows(traj, WindowConfig(2, 2))
        explicit = train_explicit(windows, lam=1e-3)
        Vo = explicit.cur_obs_feats
        G = Vo.T @ Vo
        rows = windows.cur_obs
        expected = (rows[:, None, :] == rows[None, :, :]).all(axis=2).astype(float)
        assert np.array_equal(G, expected)


class TestCyclePredictions:
    def test_gram_filter_recovers_one_hot_predictions(self):
        """On the deterministic cycle with tiny regularization the filter
        predictions converge to the exact one-hot distributions."""
        sys_ = cycle_system()
        traj = sample_trajectory(sys_, 80, seed=0)
        windows = build_windows(traj, WindowConfig(1, 1))
        model = train_from_windows(
            windows, resolve_kernels(windows), lam=1e-9 / windows.n_samples
        )
        probe = sample_trajectory(sys_, 30, seed=8)
        got = gram_filter_distributions(
            model, probe.actions, probe.observations, renormalize=False
        )
        truth = exact_filter(sys_, probe.actions, probe.observations).predicted_obs
        burn = 3
        assert np.abs(got.distributions[burn:] - truth[burn:]).max() < 1e-6

    def test_raw_prediction_mass_near_one(self):
        sys_ = cycle_system()
        traj = sample_trajectory(sys_, 80, seed=0)
        windows = build_windows(traj, WindowConfig(1, 1))
        model = train_from_windows(
            windows, resolve_kernels(windows), lam=1e-9 / windows.n_samples
        )
        probe = sample_trajectory(sys_, 30, seed=8)
        got = gram_filter_distributions(
            model, probe.actions, probe.observations, renormalize=False
        )
        sums = got.distributions[3:].sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 0.05)


class TestNormalizeDistributions:
    def test_clips_and_rescales(self):
        raw = np.array([[0.2, -0.1, 0.6], [0.0, 0.0, 0.0]])
        out = normalize_distributions(raw)
        assert np.allclose(out[0], [0.25, 0.0, 0.75])
        assert np.allclose(out[1], [1 / 3] * 3)

    def test_keeps_probability_vectors(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(20, 4))
        out = normalize_distributions(raw)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0)


class TestConvergenceCurve:
    def test_small_curve_runs_and_orders_fields(self):
        pts = convergence_curve(default_system(), (60, 120), seeds=(0, 1))
        assert [p.n_samples for p in pts] == [60, 120]
        for p in pts:
            assert p.tv_by_seed.shape == (2,)
            assert 0.0 <= p.median_tv <= 1.0
            assert p.lam == pytest.approx(1.0 / p.n_samples)
