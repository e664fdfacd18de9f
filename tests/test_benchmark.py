"""Tests for the benchmark protocol, baselines, and MSE tables."""

import csv
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import hsepsr
import hsepsr.filter as filter_mod
import hsepsr.simbench.benchmark as benchmark_mod
from hsepsr.filter import filter_trajectory
from hsepsr.learner import train
from hsepsr.predict import rollout_predict, rollout_predict_many
from hsepsr.simbench.benchmark import (
    DESK_HORIZONS,
    Evaluation,
    ModelPredictor,
    MseTable,
    baseline_mean,
    baseline_prev,
    desk_extents,
    evaluate,
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
    """Predicts ``observations[e + h - 1]``: after the first e pairs, the
    observation h steps ahead is that of pair e + h - 1 (0-based)."""

    name = "perfect"
    shift = 0

    def predict_all(self, actions, observations, extents, horizons):
        return observations[
            np.add.outer(list(extents), list(horizons)) - 1 + self.shift
        ]


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
        """The protocol scores ``observations[e + h - 1]`` exactly, and a
        predictor one step off either way scores above zero."""
        _, test = _split()
        tbl = run_protocol(PerfectPredictor(), test, [10, 20, 30], [1, 2, 5])
        assert np.array_equal(tbl.mse, np.zeros(3))
        assert tbl.model == "perfect"
        for shift in (-1, 1):
            off = PerfectPredictor()
            off.shift = shift
            assert (run_protocol(off, test, [10, 20, 30], [1, 2, 5]).mse > 0).all()

    def test_model_predictor_rolls_the_belief_after_pair_e_minus_1(
        self, monkeypatch
    ):
        """What ``ModelPredictor`` hands the rollout for extent e: the belief
        after filtering the first e pairs (0..e-1), bit for bit, and the
        plan ``actions[e : e + plan_len]`` that starts at the next pair."""
        train_traj, test = _split()
        model = train(train_traj, WindowConfig(3, 4), lam=2e-3)
        extents, horizons = [10, 17, 23], [1, 6]
        seen = []

        def wrapped(model, W, plans, *args, **kwargs):
            seen.append((W.copy(), plans.copy()))
            return rollout_predict_many(model, W, plans, *args, **kwargs)

        monkeypatch.setattr(benchmark_mod, "rollout_predict_many", wrapped)
        run_protocol(model, test, extents, horizons)
        (W, plans), = seen
        plan_len = max(model.config.test_length, max(horizons))
        for row, e in enumerate(extents):
            after = filter_trajectory(
                model, None, test.actions[:e], test.observations[:e], True
            ).final
            assert np.array_equal(W[row], after.weights)
            assert np.array_equal(plans[row], test.actions[e : e + plan_len])

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


def _force_obs_escalations(monkeypatch, calls):
    """Make the action stage's output singular for the observation step
    (diag(w) G_O_O + lam_T I singular at lam_T) in the last row of one
    call per batch size: ``calls`` maps a batch size to the index of that
    call among the calls with that batch size."""
    real = filter_mod.condition_action_many
    seen = {}

    def forced(model, W, K):
        out = real(model, W, K)
        count = seen.get(len(W), 0)
        seen[len(W)] = count + 1
        if calls.get(len(W)) == count:
            g = model.grams
            top = np.linalg.eigvalsh(g.G_O_O).max()
            out[-1] = -(g.lam_T / top) * np.ones(model.n_samples)
        return out

    monkeypatch.setattr(filter_mod, "condition_action_many", forced)


class TestSolveEscalations:
    def test_model_predictor_keeps_prefix_and_rollout_escalations(self, monkeypatch):
        """One escalation forced at step 7 of the prefix filter (a batch of
        one) and one in the rollout's first feedback update (both extents)
        reach ``solve_events``, labelled with the prefix step and with the
        rollout row; a second call starts afresh."""
        train_traj, test = _split()
        model = train(train_traj, WindowConfig(3, 4), lam=2e-3)
        predictor = ModelPredictor(model)
        run_protocol(predictor, test, [10, 14], [1, 6])
        assert predictor.solve_events == []
        _force_obs_escalations(monkeypatch, {1: 7, 2: 0})
        run_protocol(predictor, test, [10, 14], [1, 6])
        labels = [e.label for e in predictor.solve_events]
        assert labels == ["obs-conditioning[step 7]", "obs-conditioning[1]"]
        assert all(e.used > model.grams.lam_T for e in predictor.solve_events)

    def test_evaluation_counts_and_prints_the_escalations(self, monkeypatch):
        traj = simulate_system(SynthConfig(n_steps=240, seed=6))
        _force_obs_escalations(monkeypatch, {1: 0})
        ev = evaluate(
            traj, train_steps=110, history_length=3, test_length=4,
            extent=10, extent_step=4, horizons=(1, 6),
        )
        assert ev.solve_escalations >= 1
        assert f"solve escalations: {ev.solve_escalations}" in ev.summary_lines()[0]


class TestEvaluateArguments:
    """Values evaluate rejects before it trains; the CLI's table in
    test_cli.py checks the same messages reach the command line."""

    @pytest.mark.parametrize("train_steps", [0, -100, 240])
    def test_split_must_leave_both_parts(self, train_steps):
        traj = simulate_system(SynthConfig(n_steps=240, seed=6))
        with pytest.raises(ValueError, match=f"train_steps .*, got {train_steps}"):
            evaluate(traj, train_steps=train_steps, history_length=3, test_length=4)

    def test_rejects_negative_seed(self):
        traj = simulate_system(SynthConfig(n_steps=240, seed=6))
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            evaluate(traj, train_steps=110, seed=-1)

    def test_model_predictor_rejects_extent_zero(self):
        train_traj, test = _split()
        predictor = ModelPredictor(train(train_traj, WindowConfig(3, 4)))
        with pytest.raises(ValueError, match="extents must be at least 1, got 0"):
            predictor.predict_all(test.actions, test.observations, [0, 10], [1])

    @pytest.mark.parametrize("horizons", [[0], [-2, 3], []])
    def test_model_predictor_rejects_a_bad_horizon_before_filtering(
        self, monkeypatch, horizons
    ):
        train_traj, test = _split()
        predictor = ModelPredictor(train(train_traj, WindowConfig(3, 4)))

        def never(*args, **kwargs):
            raise AssertionError("filter_trajectory ran before the horizon check")

        monkeypatch.setattr(benchmark_mod, "filter_trajectory", never)
        with pytest.raises(ValueError, match="horizons must be positive integers"):
            predictor.predict_all(test.actions, test.observations, [5, 10], horizons)


def test_every_renormalize_default_is_the_protocols():
    """Every library function that takes ``renormalize`` defaults it the way
    ``ModelPredictor``, and so ``evaluate`` and the CLI, run the filter."""
    expect = inspect.signature(ModelPredictor).parameters["renormalize"].default
    found = {}
    for info in pkgutil.walk_packages(hsepsr.__path__, "hsepsr."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) == info.name:
                param = inspect.signature(obj).parameters.get("renormalize")
                if param is not None and param.default is not param.empty:
                    found[f"{info.name}.{name}"] = param.default
    assert {
        "hsepsr.filter.update", "hsepsr.filter.condition_observation",
        "hsepsr.predict.rollout_predict", "hsepsr.simbench.oracle.explicit_filter",
        "hsepsr.simbench.benchmark.run_protocol",
    } <= found.keys()
    assert {name for name, default in found.items() if default != expect} == set()


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
        assert extents[-1] + 10 + max(horizons) > 1100
        assert all(b - a == 10 for a, b in zip(extents, extents[1:]))

    def test_rejects_a_step_below_one(self):
        with pytest.raises(ValueError, match="extent step must be at least 1, got 0"):
            desk_extents(300, [1, 50], step=0)

    def test_full_extents_are_dense(self):
        extents = desk_extents(300, [1, 50], step=1)
        assert extents == list(range(101, 251))


def _evaluation(model_mse, mean_mse, prev_mse, horizons):
    tables = [
        MseTable(name, horizons, mse, [101], 500, 0)
        for name, mse in (
            ("hse-psr", model_mse), ("mean", mean_mse), ("previous", prev_mse)
        )
    ]
    return Evaluation(*tables)


class TestEvaluationGates:
    def test_h1_above_previous_fails_short_gate(self):
        ev = _evaluation([0.2, 0.1, 0.9], [1.0, 1.0, 1.0], [0.1, 0.5, 0.5],
                         [1, 2, 100])
        assert ev.short_failures == [1]
        lines = ev.summary_lines()
        assert "horizons 1-10 below both baselines: FAIL (horizons [1])" in lines

    def test_ratio_of_exactly_one_and_a_half_passes(self):
        ev = _evaluation([0.1, 1.5], [1.0, 1.0], [0.5, 0.5], [1, 100])
        assert ev.long_ratio == 1.5
        assert ev.short_failures == []
        lines = ev.summary_lines()
        assert "horizons 1-10 below both baselines: PASS" in lines
        assert "h=100 within 1.5x of mean baseline: PASS (ratio 1.500)" in lines

    def test_unscored_gates_give_no_verdict(self):
        no_long = _evaluation([0.1, 0.1], [1.0, 1.0], [0.5, 0.5], [1, 20])
        assert no_long.long_ratio is None
        assert not any("h=100 within" in ln for ln in no_long.summary_lines())
        no_short = _evaluation([0.1, 0.1], [1.0, 1.0], [0.5, 0.5], [20, 100])
        assert no_short.short_failures is None
        assert not any("horizons 1-10" in ln for ln in no_short.summary_lines())


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
