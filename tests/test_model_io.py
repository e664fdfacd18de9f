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
