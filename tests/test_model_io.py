import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsepsr.filter import filter_trajectory
from hsepsr.gramops import GramCache
from hsepsr.learner import TrainingReport, train
from hsepsr.model_io import FORMAT_VERSION, MAGIC, load_model, save_model
from hsepsr.predict import rollout_predict
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import Standardizer, Trajectory, WindowConfig, WindowedData

from synthdata import synthetic_trajectory

inf, nan = float("inf"), float("nan")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    traj = synthetic_trajectory(seed=60, n=45)
    model = train(traj, WindowConfig(2, 3), lam=1e-3)
    path = tmp_path_factory.mktemp("io") / "model.hsepsr"
    save_model(model, path)
    return model, path


def _split(raw):
    """(header, array bytes) of a saved file."""
    (hlen,) = struct.unpack("<I", raw[len(MAGIC) + 4 : len(MAGIC) + 8])
    start = len(MAGIC) + 8
    return json.loads(raw[start : start + hlen]), raw[start + hlen :]


def _with_header(raw, header):
    """The saved file ``raw`` with its header replaced by ``header``."""
    blob = json.dumps(header).encode("utf-8")
    version = raw[len(MAGIC) : len(MAGIC) + 4]
    return MAGIC + version + struct.pack("<I", len(blob)) + blob + _split(raw)[1]


def _header_paths(value, path=()):
    """The path of every value below ``value``, nested ones included."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield path + (key,)
        yield from _header_paths(child, path + (key,))


def _assert_same_arrays(model, loaded):
    """Every array of the two models is bit for bit the same."""
    for f in dataclasses.fields(GramCache):
        a, b = getattr(model.grams, f.name), getattr(loaded.grams, f.name)
        assert np.array_equal(a, b), f.name
    for name in (
        "history_state_weights", "state_factors", "state_ridge", "feasible_weights",
        "shifted_history_gram", "readout",
    ):
        assert np.array_equal(getattr(model, name), getattr(loaded, name)), name
    for name in ("V", "S", "lam"):
        a, b = getattr(model.action_factors, name), getattr(loaded.action_factors, name)
        assert np.array_equal(a, b), name
    for f in dataclasses.fields(WindowedData):
        a, b = getattr(model.windowed, f.name), getattr(loaded.windowed, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
    for f in dataclasses.fields(Standardizer):
        a, b = getattr(model.standardizer, f.name), getattr(loaded.standardizer, f.name)
        assert np.array_equal(a, b), f.name
    a, b = model.windowed.trajectory, loaded.windowed.trajectory
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.observations, b.observations)
    assert a.discrete == b.discrete


def _assert_same_report(model, loaded):
    """The loaded report is the trained one but for the load's own stage
    times."""
    for f in dataclasses.fields(TrainingReport):
        if f.name != "stage_seconds":
            assert getattr(loaded.report, f.name) == getattr(model.report, f.name), f.name
    assert loaded.report.stage_seconds.keys() == model.report.stage_seconds.keys()


class TestRoundTrip:
    def test_arrays_bit_exact(self, saved):
        model, path = saved
        loaded = load_model(path)
        _assert_same_arrays(model, loaded)
        assert loaded.lam == model.lam
        assert loaded.grams.lam_T == model.grams.lam_T
        assert loaded.config == model.config
        assert loaded.kernels == model.kernels
        assert loaded.discrete == model.discrete
        _assert_same_report(model, loaded)

    def test_discrete_report_survives_a_load(self, tmp_path):
        """Repeated states, and a ``max_samples`` cut."""
        traj = sample_trajectory(default_system(), 100, seed=0)
        model = train(traj, WindowConfig(1, 1), lam=1e-2, max_samples=60)
        assert model.report.truncated_from == 98
        assert model.report.distinct_states < model.n_samples
        save_model(model, tmp_path / "d.hsepsr")
        loaded = load_model(tmp_path / "d.hsepsr")
        _assert_same_arrays(model, loaded)
        _assert_same_report(model, loaded)

    def test_truncation_survives_a_load(self, tmp_path):
        traj = synthetic_trajectory(seed=63, n=50)
        model = train(traj, WindowConfig(2, 3), max_samples=30)
        save_model(model, tmp_path / "cut.hsepsr")
        loaded = load_model(tmp_path / "cut.hsepsr")
        assert loaded.report.truncated_from == model.report.truncated_from == 45
        assert loaded.report.summary_lines()[0] == (
            "samples: 30 (truncated from 45 by max_samples)"
        )

    def test_rebuilt_tensors_match(self, saved):
        """Conditioning tensors are not persisted; the lazy rebuild must
        reproduce the originals."""
        model, path = saved
        loaded = load_model(path)
        assert np.allclose(
            loaded.action_conditioning_flat(),
            model.action_conditioning_flat(),
            atol=1e-12,
        )
        assert np.allclose(
            loaded.state_conditioning_flat(),
            model.state_conditioning_flat(),
            atol=1e-12,
        )

    def test_loaded_model_filters_and_predicts_identically(self, saved):
        model, path = saved
        loaded = load_model(path)
        probe = synthetic_trajectory(seed=61, n=8)
        s1, s2 = (
            filter_trajectory(m, None, probe.actions, probe.observations, False).final
            for m in (model, loaded)
        )
        assert np.allclose(s1.weights, s2.weights, atol=1e-12)
        future = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
        p1 = rollout_predict(model, s1, future, renormalize=False).predictions
        p2 = rollout_predict(loaded, s2, future, renormalize=False).predictions
        assert np.allclose(p1, p2, rtol=1e-10, atol=1e-10)

    def test_file_stores_only_what_training_learned(self, saved):
        model, path = saved
        raw = path.read_bytes()
        header, _ = _split(raw)
        (version,) = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])
        assert version == FORMAT_VERSION == 5
        assert list(header) == [
            "history_length", "test_length", "lam", "discrete", "kernels",
            "truncated_from", "arrays",
        ]
        traj = model.windowed.trajectory
        assert header["arrays"] == [
            ["actions", list(traj.actions.shape)],
            ["observations", list(traj.observations.shape)],
        ]

    @pytest.mark.parametrize("discrete", [False, True], ids=["rbf", "delta"])
    def test_save_load_save_writes_the_same_bytes(self, tmp_path, discrete):
        if discrete:
            traj = sample_trajectory(default_system(), 80, seed=1)
            model = train(traj, WindowConfig(1, 1), lam=1e-2)
        else:
            model = train(synthetic_trajectory(seed=64, n=40), WindowConfig(2, 2))
        first, again = tmp_path / "first.hsepsr", tmp_path / "again.hsepsr"
        save_model(model, first)
        save_model(load_model(first), again)
        assert first.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda x: np.repeat(x, 2, axis=1)[:, ::2]],
        ids=["fortran", "column-strided"],
    )
    def test_memory_layout_does_not_change_the_model(self, layout):
        """The standardizer is refit from the stored steps on every load,
        so training must not depend on the layout it was given them in:
        a Fortran-ordered stream used to fit a standardizer that differed
        in the last bits, and with it every model array."""
        traj = synthetic_trajectory(seed=5, n=60, da=3, do=3)
        a, o = traj.actions, traj.observations
        config = WindowConfig(2, 2)
        model = train(Trajectory(layout(a), layout(o)), config)
        _assert_same_arrays(train(Trajectory(a.copy(), o.copy()), config), model)

    def test_save_is_deterministic(self, saved, tmp_path):
        model, path = saved
        again = tmp_path / "again.hsepsr"
        save_model(model, again)
        assert path.read_bytes() == again.read_bytes()

    def test_training_twice_gives_identical_files(self, tmp_path):
        traj = synthetic_trajectory(seed=62, n=40)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(train(traj, WindowConfig(2, 2), lam=1e-3), p1)
        save_model(train(traj, WindowConfig(2, 2), lam=1e-3), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRejections:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_unsupported_version(self, saved, tmp_path):
        _, path = saved
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = FORMAT_VERSION + 1
        bad = tmp_path / "future.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_model(bad)

    def test_truncated_file(self, saved, tmp_path):
        _, path = saved
        raw = path.read_bytes()
        bad = tmp_path / "cut.bin"
        bad.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(ValueError, match="truncated"):
            load_model(bad)

    def test_trailing_garbage(self, saved, tmp_path):
        _, path = saved
        bad = tmp_path / "extra.bin"
        bad.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_model(bad)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: h.pop("kernels"), "kernels is missing"),
            (lambda h: h.pop("truncated_from"), "truncated_from is missing"),
            (
                lambda h: h.update(truncated_from=-1),
                "truncated_from must be a non-negative integer or null, got -1",
            ),
            (lambda h: h.update(arrays=5), "arrays must be a list"),
            (lambda h: h["arrays"][0].__setitem__(1, [2.5, 3]), r"arrays\[0\]"),
            (lambda h: h["arrays"][0].__setitem__(1, [10**11]), "truncated.*actions"),
            (lambda h: h["arrays"][0].__setitem__(1, [-3]), r"arrays\[0\]\[1\]\[0\].*-3"),
            (lambda h: h["kernels"]["obs"].pop("bandwidth"), "obs.bandwidth is missing"),
            (lambda h: h.update(discrete=1), "discrete must be a boolean"),
            (lambda h: ["not", "an", "object"], "JSON object"),
            (lambda h: h.update(lam=inf), r"header\.lam must be a finite number, got Inf"),
            (lambda h: h.update(lam=nan), r"header\.lam must be a finite number, got NaN"),
            (
                lambda h: h["kernels"]["obs"].update(bandwidth=inf),
                r"header\.kernels\.obs\.bandwidth must be a finite .*Inf",
            ),
            (
                lambda h: h["kernels"]["obs"].update(bandwidth=nan),
                r"header\.kernels\.obs\.bandwidth must be a finite .*NaN",
            ),
            (lambda h: h.update(lam=0.0), "lam must be finite and positive, got 0.0"),
            (lambda h: h.update(lam=-1e-3), "lam must be finite and positive, got -0.001"),
            (lambda h: h["kernels"]["obs"].update(bandwidth=None), "kernel obs: rbf.*None"),
            (lambda h: h["kernels"]["obs"].update(bandwidth=-2.0), "kernel obs: rbf.*-2.0"),
            (lambda h: h["kernels"]["obs"].update(family="linear"), "kernel obs: unknown"),
        ],
    )
    def test_malformed_header(self, saved, tmp_path, edit, message):
        """Each header field is checked for presence and JSON type, and the
        manifest against the file's size before any array is read.  A
        number must be finite: Python's json reads ``Infinity`` and ``NaN``
        (an infinite rbf bandwidth used to load into a model whose rbf
        Grams were all ones).  A well-typed header still builds its kernels
        through ``KernelSpec`` and its model through ``train_from_windows``,
        whose checks name the stream or the field."""
        _, path = saved
        raw = path.read_bytes()
        header, _ = _split(raw)
        edited = edit(header)
        bad = tmp_path / "header.bin"
        bad.write_bytes(_with_header(raw, edited if isinstance(edited, list) else header))
        with pytest.raises(ValueError, match=message):
            load_model(bad)


@pytest.fixture(scope="module")
def small_file(saved, tmp_path_factory):
    return saved[1].read_bytes(), tmp_path_factory.mktemp("prop") / "model.bin"


@given(data=st.data())
def test_a_cut_file_raises_value_error(small_file, data):
    raw, path = small_file
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError):
        load_model(path)


_REPLACEMENTS = (None, "x", [], [0], {}, {"x": 0}, -1, 10**12)


@given(data=st.data())
def test_an_edited_header_loads_or_raises_value_error(small_file, data):
    """Delete one header key or replace one value, nested ones included:
    the file loads or raises ValueError, never another exception."""
    raw, path = small_file
    header, _ = _split(raw)
    where = data.draw(st.sampled_from(list(_header_paths(header))), label="path")
    parent = header
    for key in where[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
        del parent[where[-1]]
    else:
        parent[where[-1]] = data.draw(st.sampled_from(_REPLACEMENTS), label="value")
    path.write_bytes(_with_header(raw, header))
    try:
        load_model(path)
    except ValueError:
        pass
