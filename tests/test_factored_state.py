"""The factored predictive state against the dense state tensor.

Propagation contracts the belief's shift conditional with the training
states' factor coordinates (``HsePsrModel.state_factors``) instead of the
dense conditioning tensor; each case here starts both from the same model
and beliefs and compares with the hand-built dense projection.  Also
covered: the joint test-window factors, the states' ridge inverse,
escalations of the propagation and build solves, the reloaded factors,
model-file validation and the training report's truncation and rank
lines.
"""

import json
import struct

import numpy as np
import pytest

import hsepsr.gramops as gramops
import hsepsr.learner as learner_mod
from hsepsr.cli import main
from hsepsr.filter import propagate_many
from hsepsr.gramops import (
    RESIDUAL_RTOL,
    build_gram_cache,
    conditioning_matrix,
    conditioning_tensor,
    kbr_step,
    ridge_solve,
    state_gram,
    window_factors,
)
from hsepsr.kernels import gram
from hsepsr.learner import resolve_kernels, train, train_from_windows
from hsepsr.model_io import MAGIC, load_model, save_model
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import WindowConfig, WindowedData, build_windows

from densegrams import dense_grams, factor_state_gram
from synthdata import synthetic_trajectory

RTOL = 1e-10


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _dense_states(model):
    """The dense (T, T, T) state tensor and the Gram of its slices."""
    g = model.grams
    C = conditioning_tensor(model.history_state_weights, g.G_TA_TA, g.lam_T)
    d = dense_grams(model.windowed, model.kernels)
    G = state_gram(C, C, d.G_TO_TO, g.G_TA_TA)
    return C, (G + G.T) / 2.0


def _assert_propagate_matches_dense(model, rng):
    """Rows against ``test_propagate_matches_explicit_projection``'s
    projection, run through the ridge inverse of the dense states' Gram."""
    g, d = model.grams, dense_grams(model.windowed, model.kernels)
    T = model.n_samples
    C, G_states = _dense_states(model)
    W = np.vstack([model.feasible_weights, 1.0 / T + rng.normal(size=(2, T)) / T])
    got = propagate_many(model, W)
    for b in range(len(W)):
        C_w = conditioning_matrix(W[b], g.G_TAs_TAs, g.lam_T)
        inner = d.G_TO_TOs @ C_w @ d.G_TA_TAs.T
        q = (C * inner).sum(axis=(1, 2))
        assert _rel(got[b], ridge_solve(G_states, g.lam_T, q)) <= RTOL


def _permuted(windows, p):
    return WindowedData(
        config=windows.config,
        standardizer=windows.standardizer,
        discrete=windows.discrete,
        histories=windows.histories[p],
        test_actions=windows.test_actions[p],
        test_obs=windows.test_obs[p],
        shifted_test_actions=windows.shifted_test_actions[p],
        shifted_test_obs=windows.shifted_test_obs[p],
        cur_actions=windows.cur_actions[p],
        cur_obs=windows.cur_obs[p],
    )


def _delta_model():
    traj = sample_trajectory(default_system(), 120, seed=3)
    return train(traj, WindowConfig(1, 1), lam=1.0 / 118)


def _singular_row(G, lam):
    """Weights w that make diag(w) G + lam I singular."""
    return -(lam / np.linalg.eigvalsh(G).max()) * np.ones(G.shape[0])


class TestPropagateMatchesDense:
    def test_rbf_model_at_full_rank(self, model_factory, rng):
        model, _ = model_factory()
        T = model.n_samples
        assert model.grams.W_TA.shape == (T, T + 1)
        assert model.grams.W_TO.shape == (T, T + 1)
        _assert_propagate_matches_dense(model, rng)

    def test_delta_model(self, rng):
        model = _delta_model()
        assert model.kernels.test_action.family == "delta"
        assert model.state_factors.shape[1] <= 2 * 3
        _assert_propagate_matches_dense(model, rng)

    def test_permuted_windows(self, rng):
        """The shifted windows of a permuted data set are not the next
        sample's windows; the factors must not assume they are."""
        windows = build_windows(synthetic_trajectory(seed=3, n=40), WindowConfig(2, 3))
        p = np.random.default_rng(7).permutation(windows.n_samples)
        permuted = _permuted(windows, p)
        assert not np.array_equal(
            permuted.shifted_test_actions[:-1], permuted.test_actions[1:]
        )
        model = train_from_windows(permuted, resolve_kernels(windows), lam=1e-3)
        _assert_propagate_matches_dense(model, rng)


class TestStateFactors:
    @pytest.mark.parametrize("which", ["rbf", "delta"])
    def test_gram_of_the_rows_is_the_dense_state_gram(self, model_factory, which):
        model = model_factory()[0] if which == "rbf" else _delta_model()
        _, dense = _dense_states(model)
        S = model.state_factors
        assert _rel(S @ S.T, dense) <= 1e-12
        assert _rel(factor_state_gram(model), dense) <= 1e-12

    @pytest.mark.parametrize("which", ["rbf", "delta"])
    def test_state_ridge_is_the_inverse(self, model_factory, which):
        model = model_factory()[0] if which == "rbf" else _delta_model()
        T = model.n_samples
        A = factor_state_gram(model) + model.grams.lam_T * np.eye(T)
        assert np.linalg.norm(A @ model.state_ridge - np.eye(T)) <= RESIDUAL_RTOL

    def test_window_factor_blocks_reproduce_the_test_window_grams(
        self, model_factory
    ):
        model, _ = model_factory()
        g, w, k = model.grams, model.windowed, model.kernels
        blocks = {
            "G_TA_TA": (g.W_TA, g.W_TA),
            "G_TAs_TAs": (g.W_TAs, g.W_TAs),
            "G_TA_TAs": (g.W_TA, g.W_TAs),
            "G_TO_TO": (g.W_TO, g.W_TO),
            "G_TO_TOs": (g.W_TO, g.W_TOs),
        }
        dense = dense_grams(w, k)
        for name, (left, right) in blocks.items():
            G = getattr(dense, name)
            assert np.abs(left @ right.T - G).max() <= 1e-12 * np.abs(G).max(), name
        # duplicate windows share one factor row
        now, shifted = window_factors(k.test_action, w.test_actions, w.test_actions)
        assert np.array_equal(now, shifted)
        assert now.shape[1] == np.linalg.matrix_rank(
            gram(k.test_action, w.test_actions, w.test_actions)
        )


class TestEscalation:
    def test_singular_shift_conditional_row_equals_the_single_row_result(
        self, model_factory, rng
    ):
        model, _ = model_factory()
        g = model.grams
        T = model.n_samples
        W = 1.0 / T + rng.normal(size=(3, T)) / T
        W[2] = _singular_row(g.G_TAs_TAs, g.lam_T)
        single_events = []
        kbr_step(W[2], g.G_TAs_TAs, g.lam_T, g.W_TAs, events=single_events)
        assert len(single_events) == 1
        events = []
        got = propagate_many(model, W, events=events)
        assert [e.label for e in events] == ["shift-conditional[2]"]
        assert events[0].used == single_events[0].used
        alone = []
        assert _rel(got[2], propagate_many(model, W[2:], events=alone)[0]) <= RTOL
        assert [e.label for e in alone] == ["shift-conditional[0]"]
        assert _rel(got[:2], propagate_many(model, W[:2])) <= RTOL

    def test_state_ridge_escalation_is_in_the_training_report(
        self, monkeypatch, rng
    ):
        """Spoil the first solve of the states' ridge inverse: the build
        escalates once, records ``state-ridge``, and ``propagate_many``
        applies the escalated inverse."""
        windows = build_windows(synthetic_trajectory(seed=2, n=50), WindowConfig(2, 3))
        real = gramops._factor_solve
        spoiled = []

        def spoil_first_inverse(lhs, rhs, sym):
            out = real(lhs, rhs, sym)
            if sym and not spoiled and np.array_equal(rhs, np.eye(len(rhs))):
                spoiled.append(1)
                return out + 1.0
            return out

        monkeypatch.setattr(gramops, "_factor_solve", spoil_first_inverse)
        model = train_from_windows(windows, resolve_kernels(windows), lam=1e-3)
        monkeypatch.undo()
        g = model.grams
        events = [e for e in model.report.solve_events if e.label == "state-ridge"]
        assert len(events) == 1
        assert events[0].attempts == 2
        assert events[0].used == pytest.approx(10.0 * g.lam_T)

        T = model.n_samples
        W = np.vstack([model.feasible_weights, 1.0 / T + rng.normal(size=(2, T)) / T])
        X = np.stack([kbr_step(w, g.G_TAs_TAs, g.lam_T, g.W_TAs) for w in W])
        q = (g.W_TOs.T @ X).reshape(len(W), -1) @ model.state_factors.T
        G = factor_state_gram(model)
        got = propagate_many(model, W)
        assert _rel(got, ridge_solve(G, events[0].used, q.T).T) <= RTOL
        assert _rel(got, ridge_solve(G, g.lam_T, q.T).T) > 1e-6

    def test_state_escalation_is_in_the_training_report(self, monkeypatch):
        traj = synthetic_trajectory(seed=2, n=50)
        windows = build_windows(traj, WindowConfig(2, 3))
        kernels = resolve_kernels(windows)
        lam = 1e-3
        cache = build_gram_cache(windows, kernels, lam)
        real = learner_mod.history_weights

        def history_weights(G_HH, lam_T, events=None):
            A = real(G_HH, lam_T, events=events)
            A[:, 4] = _singular_row(cache.G_TA_TA, lam_T)
            return A

        monkeypatch.setattr(learner_mod, "history_weights", history_weights)
        model = train_from_windows(windows, kernels, lam=lam)
        labels = [e.label for e in model.report.solve_events]
        assert "state[4]" in labels
        event = model.report.solve_events[labels.index("state[4]")]
        assert event.used > cache.lam_T
        # row 4 holds the escalated matrix's coordinates
        g = model.grams
        w_4 = model.history_state_weights[:, 4]
        C_4 = conditioning_matrix(w_4, g.G_TA_TA, event.used)
        assert _rel(model.state_factors[4], (g.W_TO.T @ C_4 @ g.W_TA).ravel()) <= RTOL


class TestReload:
    def test_loaded_factors_are_the_trained_ones(self, tmp_path):
        model = train(synthetic_trajectory(seed=60, n=45), WindowConfig(2, 3), lam=1e-3)
        path = tmp_path / "m.hsepsr"
        save_model(model, path)
        loaded = load_model(path)
        for name in ("W_TA", "W_TAs", "W_TO", "W_TOs"):
            assert np.array_equal(
                getattr(loaded.grams, name), getattr(model.grams, name)
            )
        assert np.array_equal(loaded.state_factors, model.state_factors)
        assert np.array_equal(loaded.state_ridge, model.state_ridge)


def _rewrite(path, out, edit_header=None, edit_arrays=None):
    """Copy a saved model file, letting the callbacks change the header and
    the arrays (the manifest follows the arrays)."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[len(MAGIC) + 4 : len(MAGIC) + 8])
    start = len(MAGIC) + 8
    header = json.loads(raw[start : start + hlen])
    arrays, offset = {}, start + hlen
    for name, shape in header["arrays"]:
        count = int(np.prod(shape))
        arrays[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    if edit_header:
        edit_header(header)
    if edit_arrays:
        edit_arrays(arrays)
    header["arrays"] = [[name, list(a.shape)] for name, a in arrays.items()]
    blob = json.dumps(header).encode("utf-8")
    out.write_bytes(
        raw[: len(MAGIC) + 4]
        + struct.pack("<I", len(blob))
        + blob
        + b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in arrays.values())
    )
    return out


class TestLoadValidation:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        model = train(synthetic_trajectory(seed=60, n=45), WindowConfig(2, 3), lam=1e-3)
        path = tmp_path_factory.mktemp("valid") / "model.hsepsr"
        save_model(model, path)
        return path

    def test_unedited_copy_loads(self, saved, tmp_path):
        load_model(_rewrite(saved, tmp_path / "same.hsepsr"))

    def test_header_sample_count_must_match_the_arrays(self, saved, tmp_path):
        bad = _rewrite(
            saved, tmp_path / "n.hsepsr",
            edit_header=lambda h: h.update(n_samples=h["n_samples"] - 1),
        )
        with pytest.raises(ValueError, match="histories"):
            load_model(bad)

    def test_header_action_dim_must_match_the_widths(self, saved, tmp_path):
        bad = _rewrite(
            saved, tmp_path / "da.hsepsr", edit_header=lambda h: h.update(action_dim=2)
        )
        with pytest.raises(ValueError, match="histories"):
            load_model(bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("obs_scale", [0.0]),
            ("obs_scale", [-1.0]),
            ("action_scale", [float("inf")]),
            ("action_mean", [float("nan")]),
            ("obs_mean", [0.0, 0.0]),
            ("action_scale", []),
        ],
    )
    def test_standardizer_vectors(self, saved, tmp_path, field, value):
        """Each vector has its stream's length and finite values, and both
        scales are positive: a zero scale would predict a constant at every
        horizon, and an extra entry would fail only at the first update."""

        def edit(h):
            h["standardizer"][field] = value

        bad = _rewrite(saved, tmp_path / "std.hsepsr", edit_header=edit)
        with pytest.raises(ValueError, match=field):
            load_model(bad)

    def test_non_finite_values(self, saved, tmp_path):
        def poison(arrays):
            arrays["history_state_weights"][3, 2] = np.nan

        bad = _rewrite(saved, tmp_path / "nan.hsepsr", edit_arrays=poison)
        with pytest.raises(ValueError, match="history_state_weights"):
            load_model(bad)

    def test_kernel_dimension_must_match_its_stream(self, saved, tmp_path):
        def widen(h):
            h["kernels"]["test_obs"]["dimension"] += 1

        bad = _rewrite(saved, tmp_path / "k.hsepsr", edit_header=widen)
        with pytest.raises(ValueError, match="test_obs"):
            load_model(bad)


class TestTrainingReport:
    def test_truncation_and_ranks(self):
        traj = synthetic_trajectory(n=80)
        model = train(traj, WindowConfig(2, 3), max_samples=20)
        rep = model.report
        assert rep.truncated_from == 75 and rep.n_samples == 20
        g = model.grams
        assert rep.ranks == {
            "action": g.V_A.shape[1],
            "obs": g.V_O.shape[1],
            "test_action": g.W_TA.shape[1],
            "test_obs": g.W_TO.shape[1],
        }
        full = train(traj, WindowConfig(2, 3), max_samples=None)
        assert full.report.truncated_from is None
        lines = rep.summary_lines()
        assert "samples: 20 (truncated from 75 by max_samples)" in lines
        assert f"rank[test_action]: {g.W_TA.shape[1]}" in lines

    def test_cli_train_prints_truncation_and_ranks(self, tmp_path, capsys):
        data, model = tmp_path / "traj.csv", tmp_path / "model.bin"
        assert main(["simulate", str(data), "--steps", "60", "--seed", "2"]) == 0
        argv = ["train", str(data), str(model), "-L", "2", "-N", "3"]
        assert main(argv + ["--max-samples", "30"]) == 0
        out = capsys.readouterr().out
        assert "samples: 30 (truncated from 55 by max_samples)" in out
        for stream in ("action", "obs", "test_action", "test_obs"):
            assert f"rank[{stream}]: " in out
