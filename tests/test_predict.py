import numpy as np
import pytest

from hsepsr.filter import (
    filter_trajectory,
    update_standardized,
    update_standardized_many,
)
from hsepsr.kernels import gram
from hsepsr.learner import BeliefState, train
from hsepsr.predict import (
    condition_test_actions_many,
    predict_observation_at,
    rollout_predict,
    rollout_predict_many,
)
from hsepsr.windows import WindowConfig

from densegrams import kbr_step
from synthdata import synthetic_trajectory


@pytest.fixture
def filtered(model_factory):
    model, _ = model_factory()
    probe = synthetic_trajectory(seed=40, n=12)
    state = filter_trajectory(model, None, probe.actions, probe.observations).final
    return model, state


def plan(n, da=1, lo=-0.5, hi=0.5, seed=41):
    return np.random.default_rng(seed).uniform(lo, hi, (n, da))


def condition_one(model, weights, window):
    """Gamma for one belief and one raw planned window, as a batch of one."""
    window_std = model.standardizer.transform_actions(window).ravel()
    return condition_test_actions_many(model, weights[None], window_std[None])[0]


class TestConditionTestActions:
    def test_matches_explicit_conditional(self, filtered):
        """Gamma equals the belief's conditioning matrix against the
        shifted windows applied to the planned window's kernel vector."""
        model, state = filtered
        window = plan(model.config.test_length)
        window_std = model.standardizer.transform_actions(window).ravel()
        k = gram(
            model.kernels.test_action, model.shifted_test_actions, window_std[None]
        )[:, 0]
        expect = (
            kbr_step(
                state.weights, model.grams.G_TAs_TAs, model.grams.lam_T,
                np.eye(model.n_samples),
            )
            @ k
        )
        got = condition_one(model, state.weights, window)
        assert np.allclose(got, expect, atol=1e-10)

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
    def test_direct_mode_is_weighted_window_average(self, filtered):
        model, state = filtered
        do = model.obs_dim
        for j in (1, model.config.test_length):
            block = model.shifted_test_obs[:, (j - 1) * do : j * do]
            expect = model.standardizer.inverse_obs(block.T @ state.weights)
            got = predict_observation_at(model, state, None, j, mode="direct")
            assert np.allclose(got, expect, atol=1e-12)

    def test_conditioned_mode_uses_gamma(self, filtered):
        model, state = filtered
        actions = plan(model.config.test_length)
        gamma = condition_one(model, state.weights, actions)
        do = model.obs_dim
        got = predict_observation_at(model, state, actions, 2)
        block = model.shifted_test_obs[:, do : 2 * do]
        expect = model.standardizer.inverse_obs(block.T @ gamma)
        assert np.allclose(got, expect, atol=1e-12)

    def test_conditioned_mode_is_the_rollout_first_level(self, filtered):
        """Every horizon of the window reads the rollout's first level,
        bit for bit, also when the plan runs past the window."""
        model, state = filtered
        N = model.config.test_length
        for actions in (plan(N), plan(N + 4)):
            for h in range(1, N + 1):
                want = rollout_predict(model, state, actions, [h]).predictions[0]
                got = predict_observation_at(model, state, actions, h)
                assert np.array_equal(got, want)

    def test_validation(self, filtered):
        model, state = filtered
        N = model.config.test_length
        with pytest.raises(ValueError, match="horizon"):
            predict_observation_at(model, state, plan(N), 0)
        with pytest.raises(ValueError, match="rollout"):
            predict_observation_at(model, state, plan(N), N + 1)
        with pytest.raises(ValueError, match="at least"):
            predict_observation_at(model, state, plan(N - 1), 1)
        with pytest.raises(ValueError, match="mode"):
            predict_observation_at(model, state, plan(N), 1, mode="fancy")
        with pytest.raises(ValueError, match="planned actions"):
            predict_observation_at(model, state, None, 1)


class TestRollout:
    def test_within_window_matches_single_shot(self, filtered):
        model, state = filtered
        N = model.config.test_length
        actions = plan(N)
        out = rollout_predict(model, state, actions)
        assert out.horizons == list(range(1, N + 1))
        assert out.predictions.shape == (N, model.obs_dim)
        for j in range(1, N + 1):
            assert np.allclose(
                out.predictions[j - 1],
                predict_observation_at(model, state, actions, j),
                atol=1e-12,
            )

    def test_long_horizon_shape_and_determinism(self, filtered):
        model, state = filtered
        actions = plan(9)
        out1 = rollout_predict(model, state, actions)
        out2 = rollout_predict(model, state, actions)
        assert out1.predictions.shape == (9, model.obs_dim)
        assert np.isfinite(out1.predictions).all()
        assert np.array_equal(out1.predictions, out2.predictions)
        assert out1.resets == []

    def test_horizon_subset_matches_full_rollout(self, filtered):
        model, state = filtered
        actions = plan(9)
        full = rollout_predict(model, state, actions)
        subset = rollout_predict(model, state, actions, horizons=(2, 9, 5))
        assert subset.horizons == [2, 5, 9]
        for h, row in zip(subset.horizons, subset.predictions):
            assert np.allclose(row, full.predictions[h - 1], atol=1e-13)

    def test_longer_plans_extend_not_change_prefix(self, filtered):
        """Extra planned actions never alter earlier-horizon predictions."""
        model, state = filtered
        actions = plan(10)
        short = rollout_predict(model, state, actions[:7]).predictions
        full = rollout_predict(model, state, actions).predictions
        assert np.allclose(full[:7], short, atol=1e-12)

    def test_feeding_back_true_observations_reproduces_filter(self, filtered):
        """The rollout's feedback update is exactly a filter step, so stepping
        it with the true observations retraces filter_trajectory."""
        model, state = filtered
        probe = synthetic_trajectory(seed=43, n=6)
        ref = filter_trajectory(model, state, probe.actions, probe.observations)
        a_std = model.standardizer.transform_actions(probe.actions)
        o_std = model.standardizer.transform_obs(probe.observations)
        current = state
        for t in range(probe.n):
            current = update_standardized(model, current, a_std[t], o_std[t])
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

    def test_single_sample_model_predicts_training_window(self):
        """T = 1: predictions are the lone shifted window, whatever the plan."""
        traj = synthetic_trajectory(seed=31, n=6)
        model = train(traj, WindowConfig(2, 3), lam=1e-3)
        state = model.feasible_state()
        out = rollout_predict(model, state, plan(3))
        window_std = model.shifted_test_obs[0].reshape(3, model.obs_dim)
        preds_std = model.standardizer.transform_obs(out.predictions)
        # gamma is a scalar here, so standardized predictions are proportional
        # to the lone stored window
        ratio = preds_std / window_std
        assert np.allclose(ratio, ratio[0, 0], atol=1e-8)


def _levels(model, W, A_std, n_levels, fused, events):
    """Window gammas and the beliefs after each of ``n_levels`` feedback
    levels, by the fused calls or by conditioning and then a full update."""
    N, B = model.config.test_length, len(W)
    gammas, beliefs = [], []
    for level in range(n_levels):
        windows = A_std[:, level : level + N].reshape(B, -1)
        if fused:
            gamma, P = condition_test_actions_many(
                model, W, windows, events, propagate=True
            )
        else:
            gamma, P = condition_test_actions_many(model, W, windows, events), W
        obs = (gamma @ model.shifted_test_obs)[:, : model.obs_dim]
        W = update_standardized_many(
            model, P, A_std[:, level], obs, True, None, events, propagated=fused
        )
        gammas.append(gamma)
        beliefs.append(W)
    return gammas, beliefs


def _unfused_rollout(model, W, A_std, events):
    """Raw predictions for horizons 1..P of a plan of P steps, with every
    window conditioned before the feedback update that propagates again."""
    N, do = model.config.test_length, model.obs_dim
    n_levels = A_std.shape[1] - N
    gammas, beliefs = _levels(model, W, A_std, n_levels, False, events)
    windows = A_std[:, n_levels:].reshape(len(W), -1)
    last = condition_test_actions_many(model, beliefs[-1], windows, events)
    preds = [(gammas[0] @ model.shifted_test_obs).reshape(len(W), N, do)]
    preds += [(g @ model.shifted_test_obs)[:, None, -do:] for g in gammas[1:]]
    preds.append((last @ model.shifted_test_obs)[:, None, -do:])
    out = model.standardizer.inverse_obs(np.concatenate(preds, axis=1).reshape(-1, do))
    return out.reshape(len(W), -1, do)


class TestFusedLevel:
    """A feedback level conditions the window inside the propagation solve;
    it must equal conditioning and then a full update, escalations too."""

    def _case(self, model, rng, singular_row):
        T = model.n_samples
        W = np.full((3, T), 1.0 / T) + rng.normal(size=(3, T)) / T
        if singular_row:
            g = model.grams
            W[1] = -(g.lam_T / np.linalg.eigvalsh(g.G_TAs_TAs).max()) * np.ones(T)
        N = model.config.test_length
        plans = np.stack([plan(N + 4, seed=70 + b) for b in range(3)])
        A_std = model.standardizer.transform_actions(
            plans.reshape(-1, model.action_dim)
        ).reshape(plans.shape)
        return W, plans, A_std

    @pytest.mark.parametrize("singular_row", [False, True])
    def test_levels_match_the_unfused_composition(self, filtered, rng, singular_row):
        model, _ = filtered
        W, _, A_std = self._case(model, rng, singular_row)
        fused_events, unfused_events = [], []
        fused = _levels(model, W, A_std, 4, True, fused_events)
        unfused = _levels(model, W, A_std, 4, False, unfused_events)
        for got, want in zip(fused[0] + fused[1], unfused[0] + unfused[1]):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert fused_events == unfused_events
        if singular_row:
            assert [e.label for e in fused_events[:2]] == [
                "window-conditioning[1]", "shift-conditional[1]"
            ]
            assert fused_events[0].used > model.grams.lam_T

    @pytest.mark.parametrize("singular_row", [False, True])
    def test_rollout_matches_the_unfused_composition(self, filtered, rng, singular_row):
        model, _ = filtered
        W, plans, A_std = self._case(model, rng, singular_row)
        horizons = range(1, plans.shape[1] + 1)
        events, want_events = [], []
        got = rollout_predict_many(model, W, plans, horizons, True, events=events)
        want = _unfused_rollout(model, W, A_std, want_events)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert events == want_events
        assert (events != []) == singular_row


class TestDegenerateRollout:
    def test_zero_state_resets_and_continues(self, filtered):
        model, _ = filtered
        dead = BeliefState(np.zeros(model.n_samples))
        out = rollout_predict(model, dead, plan(8))
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
        out = rollout_predict_many(model, W, plans, range(1, 9), resets=resets)
        assert resets == [(0, 0)]
        assert np.isfinite(out).all()
        single = rollout_predict(model, BeliefState(np.zeros(T)), plans[0])
        assert single.resets == [0]
        assert np.allclose(out[0], single.predictions, atol=1e-12)
