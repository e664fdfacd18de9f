import numpy as np
import pytest

from hsepsr.filter import (
    filter_trajectory,
    update_standardized,
    update_standardized_many,
)
from hsepsr.learner import BeliefState, train
from hsepsr.predict import (
    condition_test_actions_many,
    rollout_predict,
    rollout_predict_many,
)
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import WindowConfig

from densegrams import dense_readout
from synthdata import synthetic_trajectory


@pytest.fixture
def filtered(model_factory):
    model, _ = model_factory()
    probe = synthetic_trajectory(seed=40, n=12)
    state = filter_trajectory(
        model, None, probe.actions, probe.observations, renormalize=False
    ).final
    return model, state


def plan(n, da=1, lo=-0.5, hi=0.5, seed=41):
    return np.random.default_rng(seed).uniform(lo, hi, (n, da))


def condition_one(model, weights, window):
    """Gamma for one belief and one raw planned window, as a batch of one."""
    window_std = model.standardizer.transform_actions(window).ravel()
    return condition_test_actions_many(model, weights[None], window_std[None])[0]


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestConditionTestActions:
    def test_matches_explicit_conditional(self, filtered, model_factory):
        """Gamma is the conditional mean embedding's weights
        (G_HsHs o G_TAsTAs + lam_T I)^-1 ((G_HsHs w) o k), solved densely
        on windows cut from the training trajectory (no repeated rows)."""
        model, state = filtered
        traj = model_factory()[1]
        window = plan(model.config.test_length)
        window_std = model.standardizer.transform_actions(window).ravel()
        expect = dense_readout(model, traj, state.weights, window_std)[0]
        got = condition_one(model, state.weights, window)
        assert _rel(got, expect) <= 1e-9

    def test_discrete_readout_is_the_dense_solve_on_the_span(self, rng):
        """With repeated rows (12 distinct of 240) the model's inverse
        lives on the span of the distinct rows, and (G_HsHs w) o k lies
        there, so gamma is the full T x T solve's."""
        T = 240
        traj = sample_trajectory(default_system(), T + 2, seed=0)
        model = train(traj, WindowConfig(1, 1), lam=1.0 / T)
        W = 1.0 / T + rng.normal(size=(3, T)) / T
        windows = model.shifted_test_actions[[0, 5, 17]]
        got = condition_test_actions_many(model, W, windows)
        assert _rel(got, dense_readout(model, traj, W, windows)) <= 1e-10

    def test_batched_matches_single(self, filtered, rng):
        model, state = filtered
        B = 3
        N, da = model.config.test_length, model.action_dim
        W = rng.normal(size=(B, model.n_samples))
        windows_raw = [plan(N, da, seed=50 + b) for b in range(B)]
        windows_std = np.stack(
            [model.standardizer.transform_actions(w).ravel() for w in windows_raw]
        )
        got = condition_test_actions_many(model, W, windows_std)
        for b in range(B):
            single = condition_one(model, W[b], windows_raw[b])
            assert np.allclose(got[b], single, atol=1e-10)


class TestPredictObservationAt:
    def test_conditioned_mode_uses_gamma(self, filtered):
        """The observation predicted at one horizon inside the window,
        asked for alone, is the gamma-weighted average of that horizon's
        block of the shifted test-observation windows."""
        model, state = filtered
        actions = plan(model.config.test_length)
        gamma = condition_one(model, state.weights, actions)
        do = model.obs_dim
        got = rollout_predict(model, state, actions, [2], False).predictions[0]
        block = model.shifted_test_obs[:, do : 2 * do]
        expect = model.standardizer.inverse_obs(block.T @ gamma)
        assert np.allclose(got, expect, atol=1e-12)


class TestRollout:
    def test_within_window_matches_single_shot(self, filtered):
        """Every horizon of the first window reads one gamma, the belief
        conditioned on the plan: the gamma-weighted average of the j-th
        blocks of the shifted test-observation windows."""
        model, state = filtered
        N, do = model.config.test_length, model.obs_dim
        actions = plan(N)
        out = rollout_predict(model, state, actions, renormalize=False)
        assert out.horizons == list(range(1, N + 1))
        assert out.predictions.shape == (N, do)
        gamma = condition_one(model, state.weights, actions)
        for j in range(1, N + 1):
            block = model.shifted_test_obs[:, (j - 1) * do : j * do]
            expect = model.standardizer.inverse_obs(block.T @ gamma)
            assert np.allclose(out.predictions[j - 1], expect, atol=1e-12)

    def test_long_horizon_shape_and_determinism(self, filtered):
        model, state = filtered
        actions = plan(9)
        out1 = rollout_predict(model, state, actions, renormalize=False)
        out2 = rollout_predict(model, state, actions, renormalize=False)
        assert out1.predictions.shape == (9, model.obs_dim)
        assert np.isfinite(out1.predictions).all()
        assert np.array_equal(out1.predictions, out2.predictions)
        assert out1.resets == []

    def test_horizon_subset_matches_full_rollout(self, filtered):
        model, state = filtered
        actions = plan(9)
        full = rollout_predict(model, state, actions, renormalize=False)
        subset = rollout_predict(model, state, actions, (2, 9, 5), False)
        assert subset.horizons == [2, 5, 9]
        for h, row in zip(subset.horizons, subset.predictions):
            assert np.allclose(row, full.predictions[h - 1], atol=1e-13)

    def test_longer_plans_extend_not_change_prefix(self, filtered):
        """Extra planned actions never alter earlier-horizon predictions."""
        model, state = filtered
        actions = plan(10)
        short = rollout_predict(
            model, state, actions[:7], renormalize=False
        ).predictions
        full = rollout_predict(model, state, actions, renormalize=False).predictions
        assert np.allclose(full[:7], short, atol=1e-12)

    def test_feeding_back_true_observations_reproduces_filter(self, filtered):
        """The rollout's feedback update is exactly a filter step, so stepping
        it with the true observations retraces filter_trajectory."""
        model, state = filtered
        probe = synthetic_trajectory(seed=43, n=6)
        ref = filter_trajectory(
            model, state, probe.actions, probe.observations, renormalize=False
        )
        a_std = model.standardizer.transform_actions(probe.actions)
        o_std = model.standardizer.transform_obs(probe.observations)
        current = state
        for t in range(probe.n):
            current = update_standardized(
                model, current, a_std[t], o_std[t], renormalize=False
            )
            assert np.allclose(
                current.weights, ref.states[t].weights, atol=1e-14
            )

    def test_requires_full_window(self, filtered):
        model, state = filtered
        with pytest.raises(ValueError, match="at least"):
            rollout_predict(model, state, plan(model.config.test_length - 1))

    def test_requires_plan_covering_horizons(self, filtered):
        model, state = filtered
        with pytest.raises(ValueError, match="planned actions"):
            rollout_predict(model, state, plan(6), horizons=[8])
        with pytest.raises(ValueError, match="positive"):
            rollout_predict(model, state, plan(6), horizons=[0, 3])

    def test_rollout_is_the_readout_then_the_filter_step_per_level(self, filtered, rng):
        """Each level reads the beliefs through the readout and feeds the
        one-step prediction back through ``update_standardized_many``."""
        model, _ = filtered
        N, do, T = model.config.test_length, model.obs_dim, model.n_samples
        W = np.full((3, T), 1.0 / T) + rng.normal(size=(3, T)) / T
        plans = np.stack([plan(N + 4, seed=70 + b) for b in range(3)])
        A_std = model.standardizer.transform_actions(
            plans.reshape(-1, model.action_dim)
        ).reshape(plans.shape)
        got = rollout_predict_many(model, W, plans, range(1, N + 5), True)
        want = []
        for level in range(5):
            gamma = condition_test_actions_many(
                model, W, A_std[:, level : level + N].reshape(3, -1)
            )
            pred = (gamma @ model.shifted_test_obs).reshape(3, N, do)
            want.append(pred if level == 0 else pred[:, -1:])
            W = update_standardized_many(
                model, W, A_std[:, level], pred[:, 0], True
            )
        want = np.concatenate(want, axis=1).reshape(-1, do)
        want = model.standardizer.inverse_obs(want).reshape(got.shape)
        assert np.array_equal(got, want)

    def test_single_sample_model_predicts_training_window(self):
        """T = 1: predictions are the lone shifted window, whatever the plan."""
        traj = synthetic_trajectory(seed=31, n=6)
        model = train(traj, WindowConfig(2, 3), lam=1e-3)
        state = model.feasible_state()
        out = rollout_predict(model, state, plan(3), renormalize=False)
        window_std = model.shifted_test_obs[0].reshape(3, model.obs_dim)
        preds_std = model.standardizer.transform_obs(out.predictions)
        # gamma is a scalar here, so standardized predictions are proportional
        # to the lone stored window
        ratio = preds_std / window_std
        assert np.allclose(ratio, ratio[0, 0], atol=1e-8)


class TestDegenerateRollout:
    def test_zero_state_resets_and_continues(self, filtered):
        model, _ = filtered
        dead = BeliefState(np.zeros(model.n_samples))
        out = rollout_predict(model, dead, plan(8), renormalize=False)
        # level 0 gamma is zero, feedback collapses, rollout restarts feasibly
        assert out.resets != [] or np.isfinite(out.predictions).all()
        assert np.isfinite(out.predictions).all()

    def test_batched_rollout_records_reset_rows(self, filtered):
        """A zero-weight row collapses at its first feedback update and is
        reported as (row, level); the uniform row is never reset."""
        model, _ = filtered
        T = model.n_samples
        W = np.vstack([np.zeros(T), np.full(T, 1.0 / T)])
        plans = np.stack([plan(8, seed=60), plan(8, seed=61)])
        resets = []
        out = rollout_predict_many(
            model, W, plans, range(1, 9), renormalize=False, resets=resets
        )
        assert resets == [(0, 0)]
        assert np.isfinite(out).all()
        single = rollout_predict(
            model, BeliefState(np.zeros(T)), plans[0], renormalize=False
        )
        assert single.resets == [0]
        assert np.allclose(out[0], single.predictions, atol=1e-12)
