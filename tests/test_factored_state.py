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
    window_factors,
)
from hsepsr.kernels import gram
from hsepsr.learner import resolve_kernels, train, train_from_windows
from hsepsr.model_io import MAGIC, load_model, save_model
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import WindowConfig, WindowedData, build_windows

from densegrams import (
    dense_grams, dense_ridge, factor_state_gram, kbr_step, shifted_histories,
    state_gram,
)
from synthdata import synthetic_trajectory

RTOL = 1e-10


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _dense_states(model):
    """The dense (T, T, T) state tensor and the Gram of its slices."""
    g = model.grams
    eye = np.eye(model.n_samples)
    C = np.stack(
        [kbr_step(w, g.G_TA_TA, g.lam_T, eye) for w in model.history_state_weights.T]
    )
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
        C_w = kbr_step(W[b], g.G_TAs_TAs, g.lam_T, np.eye(T))
        inner = d.G_TO_TOs @ C_w @ d.G_TA_TAs.T
        q = (C * inner).sum(axis=(1, 2))
        assert _rel(got[b], dense_ridge(G_states, g.lam_T, q)) <= RTOL


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

    def test_permuted_windows(self, rng, monkeypatch):
        """The shifted windows of a permuted data set are not the next
        sample's windows; the factors must not assume they are.  (Built at
        floor 0, so that the factors are exact.)"""
        monkeypatch.setattr(gramops, "FACTOR_FLOOR", 0.0)
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
        """The ridge inverse of the training states' Gram on the span of
        the training states: the range of F = E C^-1/2, for the indicator E
        of the distinct history-weight columns and their counts C, which
        is all of R^T on the rbf model, whose columns are all distinct."""
        model = model_factory()[0] if which == "rbf" else _delta_model()
        T = model.n_samples
        A = factor_state_gram(model) + model.grams.lam_T * np.eye(T)
        P = model.state_ridge
        if which == "rbf":
            assert np.linalg.norm(A @ P - np.eye(T)) <= RESIDUAL_RTOL
            return
        _, spread = gramops.distinct_rows(model.history_state_weights.T)
        F = np.eye(spread.max() + 1)[spread] / np.sqrt(np.bincount(spread))
        Pi = F @ F.T
        assert np.linalg.norm(A @ P - Pi) <= RESIDUAL_RTOL
        assert np.linalg.norm(P @ (np.eye(T) - Pi)) <= RESIDUAL_RTOL

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


def _unfloored_factor(G):
    """``low_rank_factor`` as it was before the floor: every eigenvalue
    above numpy's ``matrix_rank`` tolerance."""
    vals, vecs = np.linalg.eigh(G)
    keep = vals > np.abs(vals).max(initial=0.0) * G.shape[0] * np.finfo(float).eps
    return vecs[:, keep] * np.sqrt(vals[keep])


class TestFactorFloor:
    def test_floor_zero_is_unfloored_factor(self, model_factory):
        """At floor 0 ``low_rank_factor``, ``window_factors`` and the model
        built by ``model_factory`` hold the unfloored factors of the Gram
        of the distinct windows, in ``distinct_rows`` order, bit for bit."""
        model, _ = model_factory()
        w, k, g = model.windowed, model.kernels, model.grams
        for kernel, now, shifted, built in (
            (k.test_action, w.test_actions, w.shifted_test_actions, (g.W_TA, g.W_TAs)),
            (k.test_obs, w.test_obs, w.shifted_test_obs, (g.W_TO, g.W_TOs)),
        ):
            stacked = np.vstack([now, shifted])
            first, spread = gramops.distinct_rows(stacked)
            G = gram(kernel, stacked[first], stacked[first])
            want = _unfloored_factor(G)
            assert np.array_equal(gramops.low_rank_factor(G, 0.0), want)
            rows = want[spread]
            assert np.array_equal(np.vstack(window_factors(kernel, now, shifted)), rows)
            assert np.array_equal(np.vstack(built), rows)

    def test_default_floor_bounds_the_dropped_spectrum(self, model_factory):
        """||G - W W^T||_2 <= max(floor, tolerance) for every test-window
        Gram, and the floor does cut both factors."""
        model, _ = model_factory(factor_floor=gramops.FACTOR_FLOOR)
        g = model.grams
        T = model.n_samples
        floor = gramops.FACTOR_FLOOR * g.lam_T
        assert f"factor floor: {floor:g} (0.01 x lam_T)" in model.report.summary_lines()
        assert g.W_TA.shape[1] < T and g.W_TO.shape[1] < T
        d = dense_grams(model.windowed, model.kernels)
        for G, left, right in (
            (d.G_TA_TA, g.W_TA, g.W_TA),
            (d.G_TAs_TAs, g.W_TAs, g.W_TAs),
            (d.G_TA_TAs, g.W_TA, g.W_TAs),
            (d.G_TO_TO, g.W_TO, g.W_TO),
            (d.G_TO_TOs, g.W_TO, g.W_TOs),
        ):
            tol = np.linalg.norm(G, 2) * (T + 1) * np.finfo(float).eps
            assert np.linalg.norm(G - left @ right.T, 2) <= max(floor, tol) * (1 + 1e-9)

    def test_discrete_factors_are_unchanged(self):
        """The delta-kernel test-window Grams have eigenvalues 1 = lam_T at
        lam 1/T, far above the floor, so the default floor drops nothing."""
        T = 240
        for seed in (0, 1):
            traj = sample_trajectory(default_system(), T + 2, seed=seed)
            windows = build_windows(traj, WindowConfig(1, 1))
            kernels = resolve_kernels(windows)
            cut = build_gram_cache(windows, kernels, 1.0 / T)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gramops, "FACTOR_FLOOR", 0.0)
                exact = build_gram_cache(windows, kernels, 1.0 / T)
            for name in ("W_TA", "W_TAs", "W_TO", "W_TOs"):
                assert np.array_equal(getattr(cut, name), getattr(exact, name)), name


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
        assert _rel(got, dense_ridge(G, events[0].used, q.T).T) <= RTOL
        assert _rel(got, dense_ridge(G, g.lam_T, q.T).T) > 1e-6

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
        C_4 = kbr_step(w_4, g.G_TA_TA, event.used, np.eye(len(w_4)))
        assert _rel(model.state_factors[4], (g.W_TO.T @ C_4 @ g.W_TA).ravel()) <= RTOL

    def test_repeated_singular_state_columns_are_each_reported(self, monkeypatch):
        """Two equal singular columns are solved once, and the escalation
        is reported for each sample, in sample order, as solving every
        column reports it."""
        windows = build_windows(synthetic_trajectory(seed=2, n=50), WindowConfig(2, 3))
        kernels = resolve_kernels(windows)
        cache = build_gram_cache(windows, kernels, 1e-3)
        real = learner_mod.history_weights

        def history_weights(G_HH, lam_T, events=None):
            A = real(G_HH, lam_T, events=events)
            A[:, 4] = A[:, 9] = _singular_row(cache.G_TA_TA, lam_T)
            return A

        monkeypatch.setattr(learner_mod, "history_weights", history_weights)
        model = train_from_windows(windows, kernels, lam=1e-3)
        state = [e for e in model.report.solve_events if e.label.startswith("state[")]
        assert [e.label for e in state] == ["state[4]", "state[9]"]
        assert state[0].used == state[1].used > cache.lam_T
        assert np.array_equal(model.state_factors[4], model.state_factors[9])


class TestDistinctColumns:
    def test_build_equals_the_solve_of_every_column(self):
        """On a discrete trajectory, whose history-weight columns repeat,
        the factors solved once per distinct column and spread back equal
        those solved for all T columns."""
        T = 240
        model = train(
            sample_trajectory(default_system(), T + 2, seed=0), WindowConfig(1, 1),
            lam=1.0 / T,
        )
        A, g = model.history_state_weights, model.grams
        n_distinct = len(np.unique(A, axis=1).T)
        assert model.report.distinct_states == n_distinct < T
        assert f"distinct states: {n_distinct} of {T}" in model.report.summary_lines()
        S = gramops.factor_coordinates(
            A.T, g.G_TA_TA, g.lam_T, g.W_TA, g.W_TO, label="state"
        ).reshape(T, -1)
        assert _rel(model.state_factors, S) <= 1e-12
        action = gramops.conditioning_factors(A, g.V_A, g.lam_T, label="action")
        assert _rel(model.action_factors.S, action.S) <= 1e-12
        assert np.array_equal(model.action_factors.lam, action.lam)

    def test_build_groups_the_histories_not_the_weight_columns(self, monkeypatch):
        """The build reuses the histories' grouping for the weight columns:
        no (T, T) array, such as the history weights, is grouped, and the
        distinct states are the distinct histories."""
        shapes = []
        real = gramops.distinct_rows

        def recorder(X):
            shapes.append(X.shape)
            return real(X)

        monkeypatch.setattr(gramops, "distinct_rows", recorder)
        monkeypatch.setattr(learner_mod, "distinct_rows", recorder)
        T = 240
        model = train(
            sample_trajectory(default_system(), T + 2, seed=0), WindowConfig(1, 1),
            lam=1.0 / T,
        )
        assert shapes and (T, T) not in shapes
        histories = model.windowed.histories
        assert model.report.distinct_states == len(np.unique(histories, axis=0)) < T

    def test_ridge_solves_factor_the_distinct_rows_only(self, monkeypatch):
        """The history weights and the states' ridge inverse factor systems
        no larger than the distinct count, and the readout one no larger
        than the distinct count of its own rows, the histories one step on
        beside the shifted test-action windows; all equal the dense T x T
        solves: A itself, and the inverses on the spans they apply to."""
        calls = []
        real = gramops.escalated_solve

        def recorder(build_lhs, rhs, lam, **kwargs):
            calls.append((kwargs["label"], len(build_lhs(lam))))
            return real(build_lhs, rhs, lam, **kwargs)

        monkeypatch.setattr(gramops, "escalated_solve", recorder)
        T = 240
        traj = sample_trajectory(default_system(), T + 2, seed=0)
        model = train(traj, WindowConfig(1, 1), lam=1.0 / T)
        monkeypatch.undo()
        k = model.report.distinct_states
        ridge = [(label, n) for label, n in calls if "[" not in label]
        assert [label for label, _ in ridge] == [
            "history-weights", "state-ridge", "readout"
        ]
        assert max(n for _, n in ridge[:2]) <= k < T
        Hs = shifted_histories(model, traj)
        readout_rows = np.unique(
            np.hstack([Hs, model.shifted_test_actions]), axis=0
        )
        assert ridge[2][1] == len(readout_rows) == 12
        lam_T = model.grams.lam_T
        G_HH = dense_grams(model.windowed, model.kernels).G_HH
        A = dense_ridge(G_HH, lam_T, G_HH)
        assert _rel(model.history_state_weights, A) <= 1e-12
        S = model.state_factors
        dense = dense_ridge(factor_state_gram(model), lam_T, S)
        assert _rel(model.state_ridge @ S, dense) <= 1e-12
        P = model.shifted_history_gram * model.grams.G_TAs_TAs
        assert _rel(model.readout @ P, dense_ridge(P, lam_T, P)) <= 1e-12

    def test_all_distinct_ridge_solves_are_the_dense_ones(self, model_factory):
        """With no repeated row the ridge solves are the T x T ones, bit
        for bit."""
        model = model_factory()[0]
        T, lam_T = model.n_samples, model.grams.lam_T
        assert model.report.distinct_states == T
        G_HH = dense_grams(model.windowed, model.kernels).G_HH
        assert np.array_equal(
            model.history_state_weights, dense_ridge(G_HH, lam_T, G_HH)
        )
        dense = dense_ridge(factor_state_gram(model), lam_T, np.eye(T))
        assert np.array_equal(model.state_ridge, dense)

    def test_reduced_ridge_escalations_are_in_the_training_report(
        self, monkeypatch, rng
    ):
        """Spoil the first reduced history-weights solve and the first
        reduced state-ridge solve of a discrete build: each escalates once,
        and ``propagate_many`` applies the escalated inverse."""
        T = 240
        traj = sample_trajectory(default_system(), T + 2, seed=0)
        real = gramops._factor_solve
        spoiled = {}

        def spoil_first(lhs, rhs, sym):
            out = real(lhs, rhs, sym)
            kind = "inverse" if np.array_equal(rhs, np.eye(len(rhs))) else "weights"
            if sym and kind not in spoiled:
                spoiled[kind] = len(lhs)
                return out + 1.0
            return out

        monkeypatch.setattr(gramops, "_factor_solve", spoil_first)
        model = train(traj, WindowConfig(1, 1), lam=1.0 / T)
        monkeypatch.undo()
        g = model.grams
        k = model.report.distinct_states
        assert spoiled == {"weights": k, "inverse": k}
        used = {}
        for label in ("history-weights", "state-ridge"):
            events = [e for e in model.report.solve_events if e.label == label]
            assert len(events) == 1
            assert events[0].attempts == 2
            assert events[0].used == pytest.approx(10.0 * g.lam_T)
            used[label] = events[0].used
        G_HH = dense_grams(model.windowed, model.kernels).G_HH
        A = dense_ridge(G_HH, used["history-weights"], G_HH)
        assert _rel(model.history_state_weights, A) <= 1e-12

        W = np.vstack([model.feasible_weights, 1.0 / T + rng.normal(size=(2, T)) / T])
        X = np.stack([kbr_step(w, g.G_TAs_TAs, g.lam_T, g.W_TAs) for w in W])
        q = (g.W_TOs.T @ X).reshape(len(W), -1) @ model.state_factors.T
        G = factor_state_gram(model)
        got = propagate_many(model, W)
        assert _rel(got, dense_ridge(G, used["state-ridge"], q.T).T) <= RTOL
        assert _rel(got, dense_ridge(G, g.lam_T, q.T).T) > 1e-6


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
            arrays["histories"][3, 2] = np.nan

        bad = _rewrite(saved, tmp_path / "nan.hsepsr", edit_arrays=poison)
        with pytest.raises(ValueError, match="histories"):
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
        assert "factor floor: " in out and "(0.01 x lam_T)" in out
        assert "solve[test_action]: " in out
        assert "distinct states: 30 of 30" in out
