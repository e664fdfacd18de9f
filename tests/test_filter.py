import numpy as np
import pytest

from hsepsr.filter import (
    _condition_action_k,
    _condition_observation_k,
    condition_action,
    condition_observation,
    condition_action_many,
    condition_observation_many,
    filter_trajectory,
    propagate,
    propagate_many,
    update,
    update_standardized,
    update_standardized_many,
)
from hsepsr.kernels import gram
from hsepsr.learner import BeliefState, train
from hsepsr.windows import WindowConfig

from densegrams import dense_grams, dense_ridge, factor_state_gram, kbr_step
from synthdata import synthetic_trajectory


class TestStages:
    def test_propagate_matches_explicit_projection(self, model_factory, rng):
        """Propagation equals the hand-built version: condition the belief
        on the shifted windows, take inner products with every training
        state, and run them through the states' ridge inverse."""
        model, _ = model_factory()
        g, d = model.grams, dense_grams(model.windowed, model.kernels)
        T = model.n_samples
        w = rng.normal(size=T)
        C_w = kbr_step(w, g.G_TAs_TAs, g.lam_T, np.eye(T))
        inner = d.G_TO_TOs @ C_w @ d.G_TA_TAs.T
        q = np.empty(T)
        for i in range(T):
            C_i = kbr_step(
                model.history_state_weights[:, i], g.G_TA_TA, g.lam_T, np.eye(T)
            )
            q[i] = float((C_i * inner).sum())
        expect = dense_ridge(factor_state_gram(model), g.lam_T, q)
        assert np.allclose(propagate(model, BeliefState(w)), expect, atol=1e-10)

    def test_condition_action_mixes_tensors(self, model_factory, rng):
        """Stage equals the explicit sum over per-sample conditioning matrices."""
        model, traj = model_factory(seed=5, n=30)
        T = model.n_samples
        g, d = model.grams, dense_grams(model.windowed, model.kernels)
        w = rng.normal(size=T)
        a = traj.actions[0]
        q = model.standardizer.transform_actions(a.ravel())
        k = gram(model.kernels.action, model.cur_actions, q[None])[:, 0]
        expect = np.zeros(T)
        for i in range(T):
            C_i = kbr_step(
                model.history_state_weights[:, i], d.G_A_A, g.lam_T, np.eye(T)
            )
            expect += w[i] * (C_i @ k)
        assert np.allclose(condition_action(model, w, a), expect, atol=1e-10)

    def test_condition_observation_is_kbr(self, model_factory, rng):
        model, traj = model_factory()
        g = model.grams
        w = rng.normal(size=model.n_samples)
        o = traj.observations[0]
        q = model.standardizer.transform_obs(o.ravel())
        k = gram(model.kernels.obs, model.cur_obs, q[None])[:, 0]
        expect = kbr_step(w, g.G_O_O, g.lam_T, np.eye(model.n_samples)) @ k
        got = condition_observation(model, w, o, renormalize=False)
        assert isinstance(got, BeliefState)
        assert np.allclose(got.weights, expect, atol=1e-10)

    def test_action_stage_is_linear(self, model_factory, rng):
        model, _ = model_factory()
        T = model.n_samples
        w1, w2 = rng.normal(size=T), rng.normal(size=T)
        k = rng.normal(size=T)
        combo = 0.3 * w1 - 1.7 * w2
        assert np.allclose(
            _condition_action_k(model, combo, k),
            0.3 * _condition_action_k(model, w1, k)
            - 1.7 * _condition_action_k(model, w2, k),
            atol=1e-12,
        )

    def test_propagate_suppresses_the_belief_scale(self, model_factory):
        """The shift conditional normalizes the belief's overall scale:
        rescaling the input weights leaves the propagated weights summing
        near one instead of picking up the input's scale."""
        model, _ = model_factory()
        w = model.feasible_weights
        base = propagate(model, BeliefState(w))
        assert not np.allclose(
            propagate(model, BeliefState(2.0 * w)), 2.0 * base, rtol=0.2
        )
        for c in (0.5, 1.0, 2.0, 4.0):
            assert propagate(model, BeliefState(c * w)).sum() == pytest.approx(
                1.0, abs=0.1
            )


class TestUpdate:
    def test_update_standardizes_raw_inputs(self, model_factory):
        model, traj = model_factory()
        state = model.feasible_state()
        a, o = traj.actions[0], traj.observations[0]
        got = update(model, state, a, o, renormalize=False)
        expect = update_standardized(
            model,
            state,
            model.standardizer.transform_actions(a),
            model.standardizer.transform_obs(o),
            renormalize=False,
        )
        assert np.allclose(got.weights, expect.weights, atol=1e-14)

    def test_update_composes_the_three_stages(self, model_factory):
        model, traj = model_factory()
        state = model.feasible_state()
        a, o = traj.actions[0], traj.observations[0]
        w = propagate(model, state)
        w = condition_action(model, w, a)
        staged = condition_observation(model, w, o, renormalize=False)
        got = update(model, state, a, o, renormalize=False)
        assert np.allclose(got.weights, staged.weights, atol=1e-13)

    def test_default_update_renormalizes(self, model_factory):
        """The library's default rescales to unit sum; the raw recursion,
        asked for by name, does not."""
        model, traj = model_factory()
        state = model.feasible_state()
        a, o = traj.actions[0], traj.observations[0]
        assert update(model, state, a, o).weights.sum() == pytest.approx(1.0, abs=1e-13)
        raw = update(model, state, a, o, renormalize=False)
        assert raw.weights.sum() != pytest.approx(1.0, abs=1e-13)

    def test_renormalized_weights_sum_to_one(self, model_factory):
        model, traj = model_factory()
        state = model.feasible_state()
        for t in range(5):
            state = update(
                model, state, traj.actions[t], traj.observations[t], renormalize=True
            )
            assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_matches_up_to_recorded_scale(self, model_factory):
        """Renormalization only rescales the step's output."""
        model, traj = model_factory()
        s0 = model.feasible_state()
        a, o = traj.actions[0], traj.observations[0]
        raw = update(model, s0, a, o, renormalize=False)
        normed = update(model, s0, a, o, renormalize=True)
        scale = raw.weights.sum()
        assert np.allclose(normed.weights * scale, raw.weights, atol=1e-12)

    def test_degenerate_state_short_circuits(self, model_factory):
        model, traj = model_factory()
        dead = BeliefState(np.zeros(model.n_samples), degenerate=True)
        out = update(model, dead, traj.actions[0], traj.observations[0])
        assert out is dead

    def test_zero_weights_detected_degenerate(self, model_factory):
        model, traj = model_factory()
        zero = BeliefState(np.zeros(model.n_samples))
        out = update(
            model, zero, traj.actions[0], traj.observations[0], renormalize=False
        )
        assert out.degenerate


class TestFilterTrajectory:
    def test_empty_input_gives_empty_result(self, model_factory):
        model, _ = model_factory()
        res = filter_trajectory(
            model,
            None,
            np.empty((0, model.action_dim)),
            np.empty((0, model.obs_dim)),
        )
        assert res.states == []
        with pytest.raises(ValueError, match="empty"):
            res.final

    def test_single_step_equals_update(self, model_factory):
        model, _ = model_factory()
        probe = synthetic_trajectory(seed=20, n=1)
        res = filter_trajectory(
            model, None, probe.actions, probe.observations, renormalize=False
        )
        direct = update(
            model, model.feasible_state(), probe.actions[0], probe.observations[0],
            renormalize=False,
        )
        assert len(res.states) == 1
        assert np.allclose(res.final.weights, direct.weights, atol=1e-14)

    def test_prefix_property(self, model_factory):
        """Filtering the first m pairs reproduces the full run's prefix."""
        model, _ = model_factory()
        probe = synthetic_trajectory(seed=21, n=10)
        full = filter_trajectory(
            model, None, probe.actions, probe.observations, renormalize=False
        )
        m = 4
        part = filter_trajectory(
            model, None, probe.actions[:m], probe.observations[:m], renormalize=False
        )
        assert len(full.states) == probe.n
        for t in range(m):
            assert np.allclose(
                part.states[t].weights, full.states[t].weights, atol=1e-14
            )

    def test_mismatched_lengths_rejected(self, model_factory):
        model, _ = model_factory()
        probe = synthetic_trajectory(seed=22, n=5)
        with pytest.raises(ValueError, match="equal length"):
            filter_trajectory(model, None, probe.actions[:3], probe.observations)

    def test_reset_on_collapse(self, model_factory):
        model, _ = model_factory()
        probe = synthetic_trajectory(seed=23, n=4)
        res = filter_trajectory(
            model,
            BeliefState(np.zeros(model.n_samples)),
            probe.actions,
            probe.observations,
            renormalize=False,
        )
        assert res.resets == [0]
        assert not res.final.degenerate
        assert res.weights_matrix().shape == (4, model.n_samples)

    def test_beliefs_stay_finite_over_long_run(self, model_factory):
        model, _ = model_factory()
        probe = synthetic_trajectory(seed=24, n=60)
        res = filter_trajectory(
            model, None, probe.actions, probe.observations, renormalize=False
        )
        W = res.weights_matrix()
        assert np.isfinite(W).all()
        assert res.resets == []


class TestBatchedInternals:
    def test_batch_stages_match_single(self, model_factory, rng):
        model, _ = model_factory()
        T = model.n_samples
        B = 4
        W = rng.normal(size=(B, T))
        Ka = rng.normal(size=(B, T))
        Ko = rng.normal(size=(B, T))
        assert np.allclose(
            propagate_many(model, W),
            np.stack([propagate(model, BeliefState(W[b])) for b in range(B)]),
            atol=1e-12,
        )
        assert np.allclose(
            condition_action_many(model, W, Ka),
            np.stack([_condition_action_k(model, W[b], Ka[b]) for b in range(B)]),
            atol=1e-12,
        )
        assert np.allclose(
            condition_observation_many(model, W, Ko),
            np.stack([_condition_observation_k(model, W[b], Ko[b]) for b in range(B)]),
            atol=1e-10,
        )

    def test_batch_update_matches_single(self, model_factory, rng):
        model, _ = model_factory()
        B, T = 3, model.n_samples
        W = np.abs(rng.normal(size=(B, T)))
        W /= W.sum(axis=1, keepdims=True)
        acts = rng.uniform(-1, 1, (B, model.action_dim))
        obs = rng.uniform(-1, 1, (B, model.obs_dim))
        for renorm in (True, False):
            got = update_standardized_many(model, W.copy(), acts, obs, renorm)
            for b in range(B):
                single = update_standardized(
                    model, BeliefState(W[b]), acts[b], obs[b], renorm
                )
                assert np.allclose(got[b], single.weights, atol=1e-10)

    def test_batch_update_resets_collapsed_rows(self, model_factory, rng):
        model, _ = model_factory()
        T = model.n_samples
        W = np.vstack([np.zeros(T), np.full(T, 1.0 / T)])
        acts = rng.uniform(-1, 1, (2, model.action_dim))
        obs = rng.uniform(-1, 1, (2, model.obs_dim))
        got = update_standardized_many(model, W, acts, obs, True)
        assert np.allclose(got[0], 1.0 / T)
        assert not np.allclose(got[1], 1.0 / T)


class TestTinyModel:
    def test_single_sample_model_filters_to_unit_weight(self):
        """With one training sample, renormalized beliefs are pinned at 1."""
        traj = synthetic_trajectory(seed=31, n=6)  # T = 6 - 2 - 3 = 1
        model = train(traj, WindowConfig(2, 3), lam=1e-3)
        assert model.n_samples == 1
        state = model.feasible_state()
        state = update(
            model, state, traj.actions[0], traj.observations[0], renormalize=True
        )
        assert state.weights.shape == (1,)
        assert state.weights[0] == pytest.approx(1.0)
