import json
import struct

import numpy as np
import pytest

from hsepsr.filter import filter_trajectory
from hsepsr.learner import train
from hsepsr.model_io import FORMAT_VERSION, MAGIC, load_model, save_model
from hsepsr.predict import rollout_predict
from hsepsr.windows import WindowConfig

from synthdata import synthetic_trajectory


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    traj = synthetic_trajectory(seed=60, n=45)
    model = train(traj, WindowConfig(2, 3), lam=1e-3)
    path = tmp_path_factory.mktemp("io") / "model.hsepsr"
    save_model(model, path)
    return model, path


def _write_v1(model, saved_path, path):
    """Write ``model`` in the version 1 layout, which also stored the eight
    training Grams and the start belief, reusing the header of a saved file."""
    raw = saved_path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[len(MAGIC) + 4 : len(MAGIC) + 8])
    start = len(MAGIC) + 8
    header = json.loads(raw[start : start + hlen])
    windows = (
        "histories", "test_actions", "test_obs", "shifted_test_actions",
        "shifted_test_obs", "cur_actions", "cur_obs",
    )
    grams = (
        "G_HH", "G_TA_TA", "G_TAs_TAs", "G_TO_TO", "G_TO_TOs", "G_TA_TAs",
        "G_A_A", "G_O_O",
    )
    arrays = {name: getattr(model.windowed, name) for name in windows}
    arrays.update({name: getattr(model.grams, name) for name in grams})
    for name in ("history_state_weights", "gram_states", "feasible_weights"):
        arrays[name] = getattr(model, name)
    header["arrays"] = [[name, list(a.shape)] for name, a in arrays.items()]
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(
        MAGIC
        + struct.pack("<II", 1, len(blob))
        + blob
        + b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in arrays.values())
    )


class TestRoundTrip:
    def test_arrays_bit_exact(self, saved):
        model, path = saved
        loaded = load_model(path)
        pairs = [
            (model.history_state_weights, loaded.history_state_weights),
            (model.gram_states, loaded.gram_states),
            (model.feasible_weights, loaded.feasible_weights),
            (model.grams.G_O_O, loaded.grams.G_O_O),
            (model.grams.G_TA_TAs, loaded.grams.G_TA_TAs),
            (model.windowed.histories, loaded.windowed.histories),
            (model.windowed.shifted_test_obs, loaded.windowed.shifted_test_obs),
        ]
        for a, b in pairs:
            assert np.array_equal(a, b)
        assert loaded.lam == model.lam
        assert loaded.grams.lam_T == model.grams.lam_T
        assert loaded.config == model.config
        assert loaded.kernels == model.kernels
        assert loaded.discrete == model.discrete
        for field in ("action_mean", "action_scale", "obs_mean", "obs_scale"):
            assert np.array_equal(
                getattr(loaded.standardizer, field),
                getattr(model.standardizer, field),
            )
        assert loaded.report is None

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
        s1 = filter_trajectory(model, None, probe.actions, probe.observations).final
        s2 = filter_trajectory(loaded, None, probe.actions, probe.observations).final
        assert np.allclose(s1.weights, s2.weights, atol=1e-12)
        future = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
        p1 = rollout_predict(model, s1, future).predictions
        p2 = rollout_predict(loaded, s2, future).predictions
        assert np.allclose(p1, p2, rtol=1e-10, atol=1e-10)

    def test_version_1_file_loads_to_the_same_model(self, saved, tmp_path):
        model, path = saved
        old = tmp_path / "v1.hsepsr"
        _write_v1(model, path, old)
        loaded = load_model(old)
        for name in ("history_state_weights", "gram_states", "feasible_weights"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
        for name in ("G_HH", "G_TA_TAs", "G_A_A", "G_O_O"):
            assert np.array_equal(getattr(loaded.grams, name), getattr(model.grams, name))
        probe = synthetic_trajectory(seed=61, n=8)
        s1 = filter_trajectory(model, None, probe.actions, probe.observations).final
        s2 = filter_trajectory(loaded, None, probe.actions, probe.observations).final
        assert np.array_equal(s1.weights, s2.weights)

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
