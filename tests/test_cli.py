"""End-to-end tests of the command-line interface."""

import inspect

import numpy as np
import pytest

import hsepsr.cli as cli
from hsepsr.cli import RunConfig, build_parser, config_from_args, main
from hsepsr.learner import DEFAULT_MAX_SAMPLES, train
from hsepsr.simbench.benchmark import evaluate


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "out.csv", "--bogus"])
        assert excinfo.value.code != 0

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["frobnicate"])
        assert excinfo.value.code != 0

    def test_evaluate_defaults_are_the_library_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["evaluate", "d.csv"])
        params = inspect.signature(evaluate).parameters
        for name in (
            "lam", "renormalize", "train_steps", "extent", "extent_step",
            "horizons", "history_length", "test_length",
        ):
            assert getattr(args, name) == params[name].default, name
        assert not parser.parse_args(["evaluate", "d", "--no-renormalize"]).renormalize
        assert parser.parse_args(["evaluate", "d", "--renormalize"]).renormalize

    def test_filter_and_predict_renormalize_by_default(self):
        """filter and predict run the filter the way evaluate scores it."""
        parser = build_parser()
        for argv in (["filter", "m", "d.csv"], ["predict", "m", "d.csv"]):
            assert parser.parse_args(argv).renormalize
            assert config_from_args(parser.parse_args(argv)).renormalize
            assert not parser.parse_args(argv + ["--no-renormalize"]).renormalize
        assert RunConfig(command="filter").renormalize

    def test_max_samples_default_is_the_library_default(self):
        parser = build_parser()
        for argv in (["train", "d.csv", "m"], ["evaluate", "d.csv"]):
            assert parser.parse_args(argv).max_samples == DEFAULT_MAX_SAMPLES
        assert RunConfig(command="train").max_samples == DEFAULT_MAX_SAMPLES
        params = inspect.signature(train).parameters
        assert params["max_samples"].default == DEFAULT_MAX_SAMPLES


class TestRunConfig:
    def test_rejects_bad_lam(self):
        with pytest.raises(ValueError):
            RunConfig(command="train", lam=0.0)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            RunConfig(command="simulate", steps=0)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError):
            RunConfig(command="train", kernel="cubic")

    def test_max_samples_zero_is_no_cap_and_negative_is_rejected(self):
        args = build_parser().parse_args(["train", "d.csv", "m", "--max-samples", "0"])
        assert config_from_args(args).max_samples is None
        args = build_parser().parse_args(["train", "d.csv", "m", "--max-samples", "-30"])
        with pytest.raises(ValueError, match="max-samples"):
            config_from_args(args)


class TestCommands:
    def test_simulate_is_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = _run(["simulate", str(p1), "--steps", "40", "--seed", "7"], capsys)
        code2, out2, _ = _run(["simulate", str(p2), "--steps", "40", "--seed", "7"], capsys)
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert "40 steps" in out1

    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        code, out, err = _run(
            ["train", str(tmp_path / "nope.csv"), str(tmp_path / "m.npz")], capsys
        )
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_programming_error_keeps_its_type(self, tmp_path, monkeypatch):
        """Only the errors a command is expected to raise become one-line
        messages; a bug propagates with its traceback."""

        def broken(cfg):
            raise TypeError("a bug")

        monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
        with pytest.raises(TypeError, match="a bug"):
            main(["simulate", str(tmp_path / "traj.csv")])

    def test_full_pipeline(self, tmp_path, capsys):
        data = tmp_path / "traj.csv"
        model = tmp_path / "model.npz"
        weights = tmp_path / "weights.npy"
        mse = tmp_path / "mse.csv"

        code, out, _ = _run(["simulate", str(data), "--steps", "120", "--seed", "2"], capsys)
        assert code == 0

        code, out, _ = _run(
            ["train", str(data), str(model), "-L", "2", "-N", "3", "--lam", "2e-3"],
            capsys,
        )
        assert code == 0
        assert "samples:" in out and "bandwidth[obs]:" in out

        code, out, _ = _run(
            ["filter", str(model), str(data), "--renormalize", "--out", str(weights)],
            capsys,
        )
        assert code == 0
        W = np.load(weights)
        assert W.shape[0] == 120

        code, out, _ = _run(
            [
                "predict", str(model), str(data),
                "--extent", "60", "--horizons", "1,2,3", "--renormalize",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("pred") == 3 and "truth" in out

        code, out, _ = _run(
            [
                "evaluate", str(data), "--out", str(mse),
                "--train-steps", "60", "-L", "2", "-N", "3", "--lam", "2e-3",
                "--extent", "20", "--extent-step", "10", "--horizons", "1,2,5",
                "--renormalize",
            ],
            capsys,
        )
        assert code == 0
        assert "below both baselines" in out
        assert "belief resets:" in out
        text = mse.read_text()
        assert text.startswith("model,horizon,mse,n_extents,seed")
        for name in ("hse-psr", "mean", "previous"):
            assert name in text

    def test_direct_prediction_mode(self, tmp_path, capsys):
        data = tmp_path / "traj.csv"
        model = tmp_path / "model.npz"
        _run(["simulate", str(data), "--steps", "100", "--seed", "4"], capsys)
        _run(["train", str(data), str(model), "-L", "2", "-N", "3"], capsys)
        code, out, _ = _run(
            [
                "predict", str(model), str(data),
                "--extent", "50", "--horizons", "1,2", "--direct-prediction",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("pred") == 2

    def test_direct_prediction_beyond_window_fails(self, tmp_path, capsys):
        data = tmp_path / "traj.csv"
        model = tmp_path / "model.npz"
        _run(["simulate", str(data), "--steps", "100", "--seed", "4"], capsys)
        _run(["train", str(data), str(model), "-L", "2", "-N", "3"], capsys)
        code, _, err = _run(
            [
                "predict", str(model), str(data),
                "--extent", "50", "--horizons", "9", "--direct-prediction",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err
