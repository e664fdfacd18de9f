"""Tests for the continuous benchmark simulator."""

import numpy as np
import pytest

from hsepsr.simbench.simulate import SynthConfig, _rk4_interval, simulate_system


class TestConfigValidation:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            SynthConfig(n_steps=0)

    def test_rejects_zero_substeps(self):
        with pytest.raises(ValueError):
            SynthConfig(n_steps=5, substeps=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            SynthConfig(n_steps=5, seed=-1)

    def test_rejects_inverted_input_range(self):
        with pytest.raises(ValueError):
            SynthConfig(n_steps=5, u_low=0.5, u_high=-0.5)


class TestSimulation:
    def test_zero_input_stays_at_equilibrium(self):
        """The origin is a fixed point of the unforced dynamics."""
        traj = simulate_system(SynthConfig(n_steps=50, u_low=0.0, u_high=0.0))
        assert np.allclose(traj.observations, 0.0)
        assert np.allclose(traj.actions, 0.0)

    def test_same_seed_reproduces_trajectory(self):
        a = simulate_system(SynthConfig(n_steps=120, seed=9))
        b = simulate_system(SynthConfig(n_steps=120, seed=9))
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.observations, b.observations)

    def test_different_seeds_differ(self):
        a = simulate_system(SynthConfig(n_steps=60, seed=1))
        b = simulate_system(SynthConfig(n_steps=60, seed=2))
        assert not np.array_equal(a.observations, b.observations)

    def test_actions_respect_policy_bounds(self):
        traj = simulate_system(SynthConfig(n_steps=400, seed=3))
        assert traj.actions.min() >= -0.5
        assert traj.actions.max() <= 0.5

    def test_observation_is_first_state_component(self):
        cfg = SynthConfig(n_steps=8, seed=4)
        traj = simulate_system(cfg)
        rng = np.random.default_rng(cfg.seed)
        u_seq = rng.uniform(cfg.u_low, cfg.u_high, cfg.n_steps)
        x = np.zeros(2)
        for t, u in enumerate(u_seq):
            x = _rk4_interval(x, u, cfg.dt, cfg.substeps)
            assert traj.observations[t, 0] == pytest.approx(x[0], abs=0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_the_step(self):
        cfg = SynthConfig(n_steps=200, seed=0, x0=(9.0, 0.0))
        with pytest.raises(FloatingPointError, match="step"):
            simulate_system(cfg)


class TestIntegratorAccuracy:
    def test_substep_halving_converges(self):
        """Doubling the substep count moves the final state by < 1e-6
        relative over 100 samples."""
        coarse = simulate_system(SynthConfig(n_steps=100, seed=5, substeps=10))
        fine = simulate_system(SynthConfig(n_steps=100, seed=5, substeps=20))
        yc, yf = coarse.observations[-1, 0], fine.observations[-1, 0]
        assert abs(yc - yf) <= 1e-6 * max(1.0, abs(yf))
