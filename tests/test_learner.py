import numpy as np
import pytest

from hsepsr.filter import filter_trajectory
from hsepsr.kernels import KernelSpec, resolve_bandwidth
from hsepsr.learner import (
    STREAMS,
    BeliefState,
    HsePsrModel,
    resolve_kernels,
    train,
    train_from_windows,
)
from hsepsr.predict import rollout_predict
from hsepsr.windows import Trajectory, WindowConfig, WindowedData, build_windows

from densegrams import dense_grams, factor_state_gram, kbr_step
from synthdata import synthetic_trajectory


class TestResolveKernels:
    def test_defaults_continuous(self):
        traj = synthetic_trajectory(n=40)
        w = build_windows(traj, WindowConfig(2, 3))
        ks = resolve_kernels(w)
        assert all(
            getattr(ks, s).family == "rbf"
            for s in ("history", "test_action", "test_obs", "action", "obs")
        )
        assert ks.history.bandwidth == pytest.approx(resolve_bandwidth(w.histories))
        assert ks.obs.bandwidth == pytest.approx(resolve_bandwidth(w.cur_obs))
        assert ks.history.dimension == w.histories.shape[1]

    def test_defaults_discrete(self):
        traj = Trajectory(
            np.arange(12.0).reshape(-1, 1) % 3,
            np.arange(12.0).reshape(-1, 1) % 2,
            discrete=True,
        )
        w = build_windows(traj, WindowConfig(2, 2))
        ks = resolve_kernels(w)
        assert ks.history.family == "delta"
        assert ks.obs.family == "delta"

    def test_bandwidth_scale(self):
        traj = synthetic_trajectory(n=40)
        w = build_windows(traj, WindowConfig(2, 3))
        base = resolve_kernels(w)
        scaled = resolve_kernels(w, bandwidth_scale=2.0)
        assert scaled.history.bandwidth == pytest.approx(2 * base.history.bandwidth)

    def test_each_stream_reads_its_window_array(self):
        """``STREAMS`` names the array each kernel is built on: its width
        is the kernel's dimension and its median distance the bandwidth."""
        w = build_windows(synthetic_trajectory(n=40), WindowConfig(2, 3))
        ks = resolve_kernels(w, bandwidth_scale=1.5)
        for stream, name in STREAMS.items():
            X = getattr(w, name)
            assert getattr(ks, stream).dimension == X.shape[1]
            assert getattr(ks, stream).bandwidth == resolve_bandwidth(X) * 1.5

    def test_rejects_linear_and_bad_pins(self):
        """Only the two characteristic families exist, and a bandwidth is
        validated when its spec is built."""
        w = build_windows(synthetic_trajectory(n=40), WindowConfig(2, 3))
        with pytest.raises(ValueError, match="unknown kernel family"):
            resolve_kernels(w, family="linear")
        for pin in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                KernelSpec("rbf", 1, pin)


class TestTrain:
    def test_model_shapes_and_report(self, model_factory):
        model, traj = model_factory()
        T = traj.n - 2 - 3
        assert model.n_samples == T
        assert model.history_state_weights.shape == (T, T)
        assert model.state_ridge.shape == (T, T)
        assert model.shifted_test_obs.shape == (T, 3 * traj.obs_dim)
        rep = model.report
        assert rep.n_samples == T
        assert rep.lam_T == pytest.approx(1e-3 * T)
        assert set(rep.stage_seconds) >= {"grams", "conditioning", "state-gram"}
        assert any("samples: " in ln for ln in rep.summary_lines())

    def test_stage_names_are_pinned(self, model_factory):
        """The benchmark reads these keys with a 0.0 fallback, so a rename
        would zero its stage timings without an error."""
        rep = model_factory()[0].report
        assert set(rep.stage_seconds) == {
            "history-weights", "grams", "action-factors", "conditioning", "state-gram",
            "readout",
        }

    def test_history_weight_eigenvalues_in_unit_interval(self, model_factory):
        """(G + lam I)^-1 G has spectrum inside [0, 1) for PSD G."""
        model, _ = model_factory()
        w = np.linalg.eigvals(model.history_state_weights)
        assert np.abs(w.imag).max() < 1e-8
        assert w.real.min() > -1e-10
        assert w.real.max() < 1.0

    def test_lazy_flats_match_conditioning_oracle(self, model_factory):
        model, _ = model_factory()
        T = model.n_samples
        g, d = model.grams, dense_grams(model.windowed, model.kernels)
        act_flat = model.action_conditioning_flat()
        state_flat = model.state_conditioning_flat()
        for i in (0, T // 2, T - 1):
            w_i = model.history_state_weights[:, i]
            assert np.allclose(
                act_flat[i].reshape(T, T),
                kbr_step(w_i, d.G_A_A, g.lam_T, np.eye(T)),
                atol=1e-12,
            )
            assert np.allclose(
                state_flat[i].reshape(T, T),
                kbr_step(w_i, g.G_TA_TA, g.lam_T, np.eye(T)),
                atol=1e-12,
            )

    def test_oracles_rebuild_on_every_call(self, model_factory):
        """The dense oracles keep nothing alive between calls; two calls
        agree."""
        model, _ = model_factory(seed=5, n=30)
        before = model.state_conditioning_flat()
        before_act = model.action_conditioning_flat()
        assert model.state_conditioning_flat() is not before
        assert np.allclose(model.state_conditioning_flat(), before, atol=1e-12)
        assert np.allclose(model.action_conditioning_flat(), before_act, atol=1e-12)

    def test_max_samples_truncates(self):
        traj = synthetic_trajectory(n=80)
        model = train(traj, WindowConfig(2, 3), max_samples=20)
        assert model.n_samples == 20
        full = train(traj, WindowConfig(2, 3), max_samples=None)
        assert full.n_samples == 75

    def test_rejects_a_lam_that_is_not_finite_and_positive(self):
        """A bad regularizer is named before any solve runs (an infinite one
        used to reach the history-weights solve and fail there)."""
        traj = synthetic_trajectory(n=60)
        for lam in (np.inf, np.nan, 0.0, -1e-3):
            with pytest.raises(ValueError, match="lam must be finite and positive"):
                train(traj, WindowConfig(2, 3), lam=lam)

    def test_rejects_nonpositive_max_samples(self):
        """A negative cap would slice from the end of the trajectory."""
        traj = synthetic_trajectory(n=60)
        for cap in (-30, -3, 0):
            with pytest.raises(ValueError, match="max_samples"):
                train(traj, WindowConfig(2, 3), max_samples=cap)

    def test_feasible_state_uniform(self, model_factory):
        model, _ = model_factory()
        s = model.feasible_state()
        assert np.allclose(s.weights, 1.0 / model.n_samples)
        assert not s.degenerate


class TestModelInvariances:
    def test_sample_permutation_leaves_predictions_unchanged(self):
        """Reordering training samples is pure bookkeeping."""
        traj = synthetic_trajectory(seed=3, n=40)
        w = build_windows(traj, WindowConfig(2, 3))
        ks = resolve_kernels(w)
        model = train_from_windows(w, ks, lam=1e-3)

        rng = np.random.default_rng(7)
        p = rng.permutation(w.n_samples)
        wp = WindowedData(
            config=w.config,
            standardizer=w.standardizer,
            discrete=w.discrete,
            histories=w.histories[p],
            test_actions=w.test_actions[p],
            test_obs=w.test_obs[p],
            shifted_test_actions=w.shifted_test_actions[p],
            shifted_test_obs=w.shifted_test_obs[p],
            cur_actions=w.cur_actions[p],
            cur_obs=w.cur_obs[p],
        )
        model_p = train_from_windows(wp, ks, lam=1e-3)

        # short probe and in-window horizons: the recursion is chaotic, so
        # long chains would amplify last-bit rounding past any tolerance
        probe = synthetic_trajectory(seed=11, n=3)
        res = filter_trajectory(
            model, None, probe.actions, probe.observations, renormalize=False
        )
        res_p = filter_trajectory(
            model_p, None, probe.actions, probe.observations, renormalize=False
        )
        assert np.allclose(res_p.final.weights, res.final.weights[p], atol=1e-8)
        future = np.linspace(-0.5, 0.5, 3).reshape(-1, 1)
        pred = rollout_predict(model, res.final, future, renormalize=False).predictions
        pred_p = rollout_predict(
            model_p, res_p.final, future, renormalize=False
        ).predictions
        assert np.allclose(pred_p, pred, atol=1e-8)

    def test_observation_scaling_equivariance(self):
        """Scaling raw observations scales predictions by the same factor."""
        traj = synthetic_trajectory(seed=4, n=50)
        scaled = Trajectory(traj.actions, 10.0 * traj.observations)
        cfg = WindowConfig(2, 3)
        m1 = train(traj, cfg, lam=1e-3)
        m2 = train(scaled, cfg, lam=1e-3)
        # standardization makes the internal problems identical
        assert np.allclose(
            factor_state_gram(m2), factor_state_gram(m1), atol=1e-8
        )

        # short probe and in-window horizons, as in the permutation test
        probe = synthetic_trajectory(seed=9, n=3)
        probe_scaled = Trajectory(probe.actions, 10.0 * probe.observations)
        s1 = filter_trajectory(
            m1, None, probe.actions, probe.observations, renormalize=False
        ).final
        s2 = filter_trajectory(
            m2, None, probe_scaled.actions, probe_scaled.observations, renormalize=False
        ).final
        assert np.allclose(s2.weights, s1.weights, atol=1e-8)
        future = np.linspace(-0.4, 0.4, 3).reshape(-1, 1)
        p1 = rollout_predict(m1, s1, future, renormalize=False).predictions
        p2 = rollout_predict(m2, s2, future, renormalize=False).predictions
        assert np.allclose(p2, 10.0 * p1, atol=1e-8 * np.abs(p1).max() * 10)


class TestBeliefState:
    def test_rejects_matrix_weights(self):
        with pytest.raises(ValueError):
            BeliefState(np.ones((2, 2)))

    def test_mass(self):
        assert BeliefState(np.array([0.5, -0.25])).mass == 0.75
