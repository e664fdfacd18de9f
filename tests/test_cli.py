"""End-to-end tests of the command-line interface."""

import inspect
import re

import numpy as np
import pytest

import hsepsr.cli as cli
import hsepsr.filter as filter_mod
from hsepsr.cli import build_parser, main
from hsepsr.learner import DEFAULT_MAX_SAMPLES, train
from hsepsr.model_io import load_model
from hsepsr.simbench.benchmark import ModelPredictor, evaluate
from hsepsr.windows import read_trajectory_csv

from test_benchmark import _force_obs_escalations


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
            assert not parser.parse_args(argv + ["--no-renormalize"]).renormalize

    def test_max_samples_default_is_the_library_default(self):
        parser = build_parser()
        for argv in (["train", "d.csv", "m"], ["evaluate", "d.csv"]):
            assert parser.parse_args(argv).max_samples == DEFAULT_MAX_SAMPLES
        params = inspect.signature(train).parameters
        assert params["max_samples"].default == DEFAULT_MAX_SAMPLES


    def test_max_samples_zero_is_no_cap_and_negative_is_left_to_train(self):
        """``--max-samples 0`` parses to train's None; any other value is
        passed on as it is, for train to accept or reject."""
        parser = build_parser()
        for value, want in (("0", None), ("30", 30), ("-30", -30)):
            argv = ["train", "d.csv", "m", "--max-samples", value]
            assert parser.parse_args(argv).max_samples == want

    def test_unknown_kernel_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "d.csv", "m", "--kernel", "cubic"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 120-step trajectory and a model trained on it (L = 2, N = 3)."""
    root = tmp_path_factory.mktemp("small_run")
    data, model = str(root / "traj.csv"), str(root / "model.bin")
    assert main(["simulate", data, "--steps", "120", "--seed", "2"]) == 0
    assert main(["train", data, model, "-L", "2", "-N", "3"]) == 0
    return {"data": data, "model": model, "out": str(root / "out")}


_EVALUATE = "evaluate {data} --train-steps 60 -L 2 -N 3 --extent 20 --horizons 1,2"

#: Each bad value exits 1 with one ``error:`` line from the library
#: function that takes it; the line names the value.
REJECTED = [
    ("simulate {out} --steps 0", "n_steps must be at least 1, got 0"),
    ("simulate {out} --seed -1", "seed must be nonnegative, got -1"),
    ("train {data} {out} -L 0", "history_length must be at least 1, got 0"),
    ("train {data} {out} --lam 0", "lam must be finite and positive, got 0.0"),
    ("train {data} {out} --bandwidth-scale 0", "bandwidth_scale must be positive, got 0.0"),
    ("train {data} {out} --max-samples -30", "max_samples must be positive or None, got -30"),
    (_EVALUATE + " --train-steps 0", r"train_steps must be in 1\.\.119 .*, got 0"),
    (_EVALUATE + " --train-steps -100", r"train_steps must be in 1\.\.119 .*, got -100"),
    (_EVALUATE + " --extent 0", "extents and horizons must be positive, got extent 0"),
    (_EVALUATE + " --extent-step 0", "extent step must be at least 1, got 0"),
    (_EVALUATE + " --horizons 0,1", "extents and horizons must be positive, .* horizon 0"),
    (_EVALUATE + " --seed -1", "seed must be nonnegative, got -1"),
    ("predict {model} {data} --extent 0", "extents must be at least 1, got 0"),
    ("predict {model} {data} --horizons 0", r"horizons must be positive integers, got \[0\]"),
]


class TestRejectedValues:
    @pytest.mark.parametrize(
        "command, pattern", REJECTED,
        ids=[" ".join(c.split()[:1] + c.split()[-2:]) for c, _ in REJECTED],
    )
    def test_exits_one_naming_the_value(self, small_run, capsys, command, pattern):
        code, _, err = _run(command.format(**small_run).split(), capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(pattern, err), err


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

    def test_non_finite_lam_is_named(self, tmp_path, capsys):
        """``--lam inf`` passes the parser's sign check and is rejected by
        the build before any solve, as a one-line error naming lam."""
        data = tmp_path / "traj.csv"
        _run(["simulate", str(data), "--steps", "60", "--seed", "3"], capsys)
        code, _, err = _run(
            ["train", str(data), str(tmp_path / "m.bin"), "--lam", "inf"], capsys
        )
        assert code == 1
        assert err == "error: lam must be finite and positive, got inf\n"

    def test_filter_and_predict_print_their_escalations(
        self, tmp_path, capsys, monkeypatch
    ):
        """An escalation forced in the first step of the filter reaches the
        printed count of both commands, as evaluate prints its own; so does
        one forced in predict's first rollout feedback update, the call
        after the 30 prefix steps."""
        data = tmp_path / "traj.csv"
        model = tmp_path / "model.bin"
        _run(["simulate", str(data), "--steps", "240", "--seed", "6"], capsys)
        _run(["train", str(data), str(model), "-L", "3", "-N", "4", "--lam", "2e-3"],
             capsys)
        filter_argv = ["filter", str(model), str(data)]
        predict_argv = ["predict", str(model), str(data), "--extent", "30"]
        for argv, end in ((filter_argv, ","), (predict_argv, "\n")):
            code, out, _ = _run(argv, capsys)
            assert code == 0 and f"solve escalations: 0{end}" in out
        for argv, call, end in (
            (filter_argv, 0, ","), (predict_argv, 0, "\n"), (predict_argv, 30, "\n")
        ):
            with monkeypatch.context() as patch:
                _force_obs_escalations(patch, {1: call})
                code, out, _ = _run(argv, capsys)
            assert code == 0 and f"solve escalations: 1{end}" in out

    def test_predict_prints_its_resets(self, tmp_path, capsys, monkeypatch):
        """A belief collapsed in the third prefix step and one collapsed in
        the first rollout feedback update, the call after the 30 prefix
        steps, reach predict's printed counts, as evaluate prints its own."""
        data = tmp_path / "traj.csv"
        model = tmp_path / "model.bin"
        _run(["simulate", str(data), "--steps", "240", "--seed", "6"], capsys)
        _run(["train", str(data), str(model), "-L", "3", "-N", "4", "--lam", "2e-3"],
             capsys)
        argv = ["predict", str(model), str(data), "--extent", "30"]
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert "belief resets: 0 in the prefix filter, 0 in rollouts;" in out
        real = filter_mod.condition_observation_many
        calls = []

        def collapse(model, W, K_o, events=None):
            out = real(model, W, K_o, events)
            calls.append(len(calls))
            return out * 0.0 if calls[-1] in (2, 30) else out

        monkeypatch.setattr(filter_mod, "condition_observation_many", collapse)
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert "belief resets: 1 in the prefix filter, 1 in rollouts;" in out

    def test_predict_prints_the_protocol_predictions(self, small_run, capsys):
        """predict prints ModelPredictor.predict_all's predictions for its
        one extent, each beside the realized observation, and writes the
        same lines to --out."""
        out = small_run["out"] + ".txt"
        argv = ["predict", small_run["model"], small_run["data"],
                "--extent", "60", "--horizons", "7,1,3", "--out", out]
        code, printed, _ = _run(argv, capsys)
        assert code == 0
        traj = read_trajectory_csv(small_run["data"])
        preds = ModelPredictor(load_model(small_run["model"])).predict_all(
            traj.actions, traj.observations, [60], [1, 3, 7]
        )[0]
        want = [
            f"h={h} pred {p[0]:.6g} truth {traj.observations[60 + h - 1, 0]:.6g}"
            for h, p in zip((1, 3, 7), preds)
        ]
        assert printed.splitlines()[:3] == want
        with open(out) as handle:
            assert handle.read().splitlines() == want
