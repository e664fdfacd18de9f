"""Tests for the benchmark protocol, baselines, and MSE tables."""

import csv

import numpy as np
import pytest

from hsepsr.filter import filter_trajectory
from hsepsr.learner import train
from hsepsr.predict import rollout_predict, rollout_predict_many
from hsepsr.simbench.benchmark import (
    DESK_HORIZONS,
    ModelPredictor,
    MseTable,
    baseline_mean,
    baseline_prev,
    desk_extents,
    full_extents,
    run_protocol,
    write_csv,
)
from hsepsr.simbench.simulate import SynthConfig, simulate_system
from hsepsr.windows import Trajectory, WindowConfig


def _split(n_steps=240, split=110, seed=6):
    traj = simulate_system(SynthConfig(n_steps=n_steps, seed=seed))
    train_traj = Trajectory(traj.actions[:split], traj.observations[:split])
    test = Trajectory(traj.actions[split:], traj.observations[split:])
    return train_traj, test


class PerfectPredictor:
    name = "perfect"

    def predict_all(self, actions, observations, extents, horizons):
        return observations[np.add.outer(list(extents), list(horizons)) - 1]


class TestMseTable:
    def test_rejects_unsorted_horizons(self):
        with pytest.raises(ValueError):
            MseTable("m", [2, 1], [0.1, 0.2], [5], 10, 0)

    def test_rejects_negative_mse(self):
        with pytest.raises(ValueError):
            MseTable("m", [1, 2], [0.1, -0.2], [5], 10, 0)

    def test_at_reads_by_horizon(self):
        t = MseTable("m", [1, 5], [0.25, 0.5], [5, 6], 10, 0)
        assert t.at(5) == 0.5
        assert t.n_extents == 2


class TestBaselines:
    def test_mean_baseline_is_horizon_independent(self):
        train_traj, test = _split()
        extents = [20, 30, 40]
        horizons = [1, 3, 7]
        tbl = run_protocol(baseline_mean(train_traj), test, extents, horizons)
        mu = train_traj.observations.mean()
        truth = np.stack(
            [[test.observations[e + h - 1, 0] for h in horizons] for e in extents]
        )
        expected = ((mu - truth) ** 2).mean(axis=0)
        assert np.allclose(tbl.mse, expected)

    def test_prev_baseline_matches_definition(self):
        train_traj, test = _split()
        extents = [15, 25, 35]
        horizons = [2, 4]
        tbl = run_protocol(baseline_prev(), test, extents, horizons)
        for j, h in enumerate(horizons):
            expected = np.mean(
                [
                    (test.observations[e - 1, 0] - test.observations[e + h - 1, 0])
                    ** 2
                    for e in extents
                ]
            )
            assert tbl.mse[j] == pytest.approx(expected)

    def test_mean_baseline_rejects_empty_training(self):
        class Empty:
            observations = np.zeros((0, 1))

        with pytest.raises(ValueError):
            baseline_mean(Empty())


class TestRunProtocol:
    def test_perfect_predictor_scores_zero(self):
        _, test = _split()
        tbl = run_protocol(PerfectPredictor(), test, [10, 20, 30], [1, 2, 5])
        assert np.allclose(tbl.mse, 0.0)
        assert tbl.model == "perfect"

    def test_accounting_matches_grid(self):
        _, test = _split()
        extents = [10, 18, 26, 34]
        horizons = [1, 2, 3]
        tbl = run_protocol(PerfectPredictor(), test, extents, horizons)
        assert tbl.extents == extents
        assert tbl.horizons == horizons
        assert tbl.mse.shape == (len(horizons),)

    def test_out_of_bounds_extent_rejected(self):
        _, test = _split()
        n = test.n
        with pytest.raises(ValueError):
            run_protocol(PerfectPredictor(), test, [n - 1], [2])

    def test_model_wrapping_matches_manual_driver(self):
        train_traj, test = _split()
        model = train(train_traj, WindowConfig(3, 4), lam=2e-3)
        extents = [20, 26, 32]
        horizons = [1, 2, 4]
        tbl = run_protocol(
            model, test, extents, horizons, train_size=train_traj.n, seed=6
        )
        res = filter_trajectory(
            model, None, test.actions[:32], test.observations[:32],
            renormalize=True,
        )
        sq = np.zeros(len(horizons))
        for e in extents:
            out = rollout_predict(
                model, res.states[e - 1], test.actions[e : e + 4],
                horizons=horizons, renormalize=True,
            )
            truth = np.array(
                [test.observations[e + h - 1, 0] for h in horizons]
            )
            sq += (out.predictions[:, 0] - truth) ** 2
        assert np.allclose(tbl.mse, sq / len(extents), atol=1e-8)
        assert tbl.model == "hse-psr"
        assert tbl.train_size == train_traj.n
        assert tbl.seed == 6


    def test_model_predictor_records_resets(self):
        """Observations far outside the training range zero the observation
        kernel vector, so every prefix step collapses and is reported."""
        train_traj, test = _split()
        model = train(train_traj, WindowConfig(3, 4), lam=2e-3)
        far = Trajectory(test.actions, np.full_like(test.observations, 1e3))
        predictor = ModelPredictor(model)
        run_protocol(predictor, far, [10, 14], [1, 6])
        assert predictor.filter_resets == list(range(14))
        W = np.tile(model.feasible_weights, (2, 1))
        plans = np.stack([far.actions[e : e + 6] for e in (10, 14)])
        expect = []
        rollout_predict_many(model, W, plans, [1, 6], True, resets=expect)
        assert predictor.rollout_resets == expect


class TestBatchedRollout:
    def test_matches_sequential_within_window(self):
        """With horizons inside the window (no feedback) the batched and
        sequential rollouts are the same computation."""
        train_traj, test = _split()
        model = train(train_traj, WindowConfig(3, 4), lam=2e-3)
        res = filter_trajectory(
            model, None, test.actions[:30], test.observations[:30],
            renormalize=True,
        )
        extents = [18, 24, 30]
        horizons = [1, 2, 3, 4]
        W = np.stack([res.states[e - 1].weights for e in extents])
        plans = np.stack([test.actions[e : e + 4] for e in extents])
        batched = rollout_predict_many(model, W, plans, horizons, renormalize=True)
        for b, e in enumerate(extents):
            seq = rollout_predict(
                model, res.states[e - 1], test.actions[e : e + 4],
                horizons=horizons, renormalize=True,
            ).predictions
            assert np.allclose(batched[b], seq, atol=1e-9)

    def test_one_feedback_level_stays_close(self):
        train_traj, test = _split()
        model = train(train_traj, WindowConfig(3, 4), lam=2e-3)
        res = filter_trajectory(
            model, None, test.actions[:20], test.observations[:20],
            renormalize=True,
        )
        extents = [12, 16, 20]
        horizons = [5]
        W = np.stack([res.states[e - 1].weights for e in extents])
        plans = np.stack([test.actions[e : e + 5] for e in extents])
        batched = rollout_predict_many(model, W, plans, horizons, renormalize=True)
        for b, e in enumerate(extents):
            seq = rollout_predict(
                model, res.states[e - 1], test.actions[e : e + 5],
                horizons=horizons, renormalize=True,
            ).predictions
            assert np.allclose(batched[b], seq, atol=1e-6)

    def test_rejects_short_plans(self):
        train_traj, test = _split()
        model = train(train_traj, WindowConfig(3, 4), lam=2e-3)
        W = np.tile(model.feasible_state().weights, (2, 1))
        plans = np.stack([test.actions[:3], test.actions[2:5]])
        with pytest.raises(ValueError):
            rollout_predict_many(model, W, plans, [4])


class TestExtentGrids:
    def test_desk_extents_fit_bounds(self):
        horizons = DESK_HORIZONS
        extents = desk_extents(1100, horizons)
        assert extents[0] == 101
        assert extents[-1] + max(horizons) <= 1100
        assert all(b - a == 10 for a, b in zip(extents, extents[1:]))

    def test_full_extents_are_dense(self):
        extents = full_extents(300, [1, 50])
        assert extents == list(range(101, 251))


class TestCsv:
    def test_rows_and_header(self, tmp_path):
        t1 = MseTable("hse-psr", [1, 2], [0.5, 0.75], [5, 6, 7], 100, 3)
        t2 = MseTable("mean", [1, 2], [1.0, 1.0], [5, 6, 7], 100, 3)
        path = tmp_path / "mse.csv"
        write_csv(path, [t1, t2])
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["model", "horizon", "mse", "n_extents", "seed"]
        assert len(rows) == 5
        assert rows[1] == ["hse-psr", "1", "0.5", "3", "3"]
        assert rows[4] == ["mean", "2", "1.0", "3", "3"]
