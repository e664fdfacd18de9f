"""Command-line surface: simulate, train, filter, predict, evaluate.

Every command is deterministic given its flags and seed, reads and writes
only the paths it is given, and exits 0 on success or 1 with a one-line
diagnostic on failure.  Trajectories travel as CSV, models as the binary
container of ``model_io``, benchmark results as the MSE CSV of
``simbench.benchmark``.

``evaluate`` is a thin shell over ``simbench.benchmark.evaluate``: the
desk defaults (split, windows, regularizer, extent grid, horizons,
renormalization) are that function's keyword defaults, and the parser
reads them from its signature.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

from hsepsr.filter import filter_trajectory
from hsepsr.learner import DEFAULT_LAM, DEFAULT_MAX_SAMPLES, train
from hsepsr.model_io import load_model, save_model
from hsepsr.predict import predict_observation_at, rollout_predict
from hsepsr.simbench.benchmark import (
    DESK_EXTENT,
    DESK_EXTENT_STEP,
    DESK_HORIZONS,
    DESK_TRAIN_STEPS,
    DESK_WINDOW,
    evaluate,
    write_csv,
)
from hsepsr.simbench.simulate import SynthConfig, simulate_system
from hsepsr.windows import (
    WindowConfig,
    read_trajectory_csv,
    write_trajectory_csv,
)

KERNEL_CHOICES = ("auto", "rbf", "delta")


@dataclass
class RunConfig:
    """Validated settings for one command invocation."""

    command: str
    data: str | None = None
    model: str | None = None
    out: str | None = None
    steps: int = 1600
    seed: int = 0
    history_length: int = DESK_WINDOW
    test_length: int = DESK_WINDOW
    lam: float = DEFAULT_LAM
    kernel: str = "auto"
    bandwidth_scale: float = 1.0
    discrete: bool = False
    max_samples: int | None = DEFAULT_MAX_SAMPLES
    train_steps: int = DESK_TRAIN_STEPS
    extent: int = DESK_EXTENT
    extent_step: int = DESK_EXTENT_STEP
    horizons: tuple = DESK_HORIZONS
    renormalize: bool = True
    direct_prediction: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("--steps must be at least 1")
        if self.seed < 0:
            raise ValueError("--seed must be nonnegative")
        if self.history_length < 1 or self.test_length < 1:
            raise ValueError("window lengths must be at least 1")
        if not self.lam > 0:
            raise ValueError("--lam must be positive")
        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(f"--kernel must be one of {KERNEL_CHOICES}")
        if not self.bandwidth_scale > 0:
            raise ValueError("--bandwidth-scale must be positive")
        if self.max_samples is not None and self.max_samples < 1:
            raise ValueError("--max-samples must be positive, or 0 for no cap")
        if self.train_steps < 1:
            raise ValueError("--train-steps must be at least 1")
        if self.extent < 1 or self.extent_step < 1:
            raise ValueError("extents must be positive")
        if not self.horizons or min(self.horizons) < 1:
            raise ValueError("horizons must be positive integers")


def _family(cfg: RunConfig):
    return None if cfg.kernel == "auto" else cfg.kernel


def cmd_simulate(cfg: RunConfig) -> int:
    traj = simulate_system(SynthConfig(n_steps=cfg.steps, seed=cfg.seed))
    write_trajectory_csv(cfg.out, traj)
    print(f"simulated {traj.n} steps (seed {cfg.seed}) -> {cfg.out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    traj = read_trajectory_csv(cfg.data, discrete=cfg.discrete)
    t0 = time.perf_counter()
    model = train(
        traj,
        WindowConfig(cfg.history_length, cfg.test_length),
        lam=cfg.lam,
        family=_family(cfg),
        bandwidth_scale=cfg.bandwidth_scale,
        max_samples=cfg.max_samples,
    )
    wall = time.perf_counter() - t0
    save_model(model, cfg.out)
    for line in model.report.summary_lines():
        print(line)
    print(f"wall time: {wall:.2f}s")
    print(f"model -> {cfg.out}")
    return 0


def cmd_filter(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    traj = read_trajectory_csv(cfg.data, discrete=cfg.discrete)
    result = filter_trajectory(
        model, None, traj.actions, traj.observations, renormalize=cfg.renormalize
    )
    if cfg.out:
        np.save(cfg.out, result.weights_matrix())
        print(f"belief weights ({traj.n} x {model.n_samples}) -> {cfg.out}")
    print(
        f"filtered {traj.n} steps, {len(result.resets)} resets, "
        f"final mass {result.final.mass:.4f}"
    )
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    traj = read_trajectory_csv(cfg.data, discrete=cfg.discrete)
    if cfg.extent >= traj.n:
        raise ValueError(
            f"--extent {cfg.extent} leaves no future steps in the "
            f"{traj.n}-step trajectory"
        )
    result = filter_trajectory(
        model,
        None,
        traj.actions[: cfg.extent],
        traj.observations[: cfg.extent],
        renormalize=cfg.renormalize,
    )
    horizons = sorted(set(cfg.horizons))
    if cfg.direct_prediction:
        preds = np.stack(
            [
                predict_observation_at(model, result.final, None, h, mode="direct")
                for h in horizons
            ]
        )
    else:
        future = traj.actions[cfg.extent :]
        preds = rollout_predict(
            model, result.final, future, horizons=horizons,
            renormalize=cfg.renormalize,
        ).predictions
    rows = []
    for h, p in zip(horizons, preds):
        t = cfg.extent + h - 1
        truth = (
            " truth " + " ".join(f"{v:.6g}" for v in traj.observations[t])
            if t < traj.n
            else ""
        )
        line = f"h={h} pred " + " ".join(f"{v:.6g}" for v in p) + truth
        rows.append(line)
        print(line)
    if cfg.out:
        with open(cfg.out, "w") as handle:
            handle.write("\n".join(rows) + "\n")
        print(f"predictions -> {cfg.out}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    traj = read_trajectory_csv(cfg.data, discrete=cfg.discrete)
    t0 = time.perf_counter()
    result = evaluate(
        traj,
        train_steps=cfg.train_steps,
        history_length=cfg.history_length,
        test_length=cfg.test_length,
        lam=cfg.lam,
        extent=cfg.extent,
        extent_step=cfg.extent_step,
        horizons=cfg.horizons,
        renormalize=cfg.renormalize,
        seed=cfg.seed,
        family=_family(cfg),
        bandwidth_scale=cfg.bandwidth_scale,
        max_samples=cfg.max_samples,
    )
    if cfg.out:
        write_csv(cfg.out, result.tables)
        print(f"mse table ({result.model.n_extents} extents) -> {cfg.out}")
    for line in result.summary_lines():
        print(line)
    print(f"evaluate wall time: {time.perf_counter() - t0:.1f}s")
    return 0


def _parse_horizons(text: str) -> tuple:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad horizon list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("horizon list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsepsr",
        description=(
            "Learn, filter, and evaluate nonparametric models of controlled "
            "processes from action-observation trajectories."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the desk defaults are evaluate()'s keyword defaults, written only there
    defaults = {
        name: param.default
        for name, param in inspect.signature(evaluate).parameters.items()
    }

    def add_window_flags(p):
        p.add_argument("-L", "--history-length", type=int,
                       default=defaults["history_length"],
                       help="history window length (default %(default)s)")
        p.add_argument("-N", "--test-length", type=int,
                       default=defaults["test_length"],
                       help="test window length (default %(default)s)")
        p.add_argument("--lam", type=float, default=defaults["lam"],
                       help="ridge regularizer (default %(default)g)")
        p.add_argument("--kernel", choices=KERNEL_CHOICES, default="auto",
                       help="kernel family for all streams (default auto)")
        p.add_argument("--bandwidth-scale", type=float, default=1.0,
                       help="multiplier on median-distance bandwidths")
        p.add_argument("--max-samples", type=int, default=DEFAULT_MAX_SAMPLES,
                       help="cap on training samples, 0 for no cap "
                       "(default %(default)s)")

    def add_renormalize_flag(p):
        p.add_argument("--renormalize", action=argparse.BooleanOptionalAction,
                       default=defaults["renormalize"],
                       help="rescale weights to unit sum after each step "
                       "(default %(default)s)")

    p = sub.add_parser("simulate", help="simulate the benchmark system to CSV")
    p.add_argument("out", help="output trajectory CSV")
    p.add_argument("--steps", type=int, default=1600)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a model from a trajectory CSV")
    p.add_argument("data", help="input trajectory CSV")
    p.add_argument("out", help="output model file")
    p.add_argument("--discrete", action="store_true",
                   help="treat streams as integer symbols")
    add_window_flags(p)

    p = sub.add_parser("filter", help="run the filter over a trajectory")
    p.add_argument("model", help="trained model file")
    p.add_argument("data", help="trajectory CSV to filter")
    p.add_argument("--out", help="save per-step belief weights (.npy)")
    p.add_argument("--discrete", action="store_true")
    add_renormalize_flag(p)

    p = sub.add_parser("predict", help="filter a prefix, predict ahead")
    p.add_argument("model", help="trained model file")
    p.add_argument("data", help="trajectory CSV")
    p.add_argument("--extent", type=int, default=defaults["extent"],
                   help="length of the filtered prefix (default %(default)s)")
    p.add_argument("--horizons", type=_parse_horizons,
                   default=tuple(range(1, 11)),
                   help="comma-separated steps ahead (default 1..10)")
    p.add_argument("--out", help="write predictions to this file")
    p.add_argument("--discrete", action="store_true")
    add_renormalize_flag(p)
    p.add_argument("--direct-prediction", action="store_true",
                   help="read window expectations without action conditioning")

    p = sub.add_parser("evaluate", help="benchmark a model against baselines")
    p.add_argument("data", help="full trajectory CSV (train + test)")
    p.add_argument("--out", help="output MSE CSV")
    p.add_argument("--train-steps", type=int, default=defaults["train_steps"],
                   help="steps used for training (default %(default)s)")
    p.add_argument("--extent", type=int, default=defaults["extent"],
                   help="first filtering extent (default %(default)s)")
    p.add_argument("--extent-step", type=int, default=defaults["extent_step"],
                   help="spacing between extents, 1 for every extent "
                   "(default %(default)s)")
    p.add_argument("--horizons", type=_parse_horizons,
                   default=defaults["horizons"],
                   help="comma-separated horizons (default %(default)s)")
    p.add_argument("--seed", type=int, default=defaults["seed"],
                   help="seed recorded in the output table")
    p.add_argument("--discrete", action="store_true")
    add_renormalize_flag(p)
    add_window_flags(p)

    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "filter": cmd_filter,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields_ = {f for f in RunConfig.__dataclass_fields__}
    values = {k: v for k, v in vars(args).items() if k in fields_ and v is not None}
    if values.get("max_samples") == 0:
        values["max_samples"] = None
    return RunConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return COMMANDS[cfg.command](cfg)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        # the errors a command is expected to raise; any other is a bug
        # and keeps its type and traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
