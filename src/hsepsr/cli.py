"""Command-line surface: simulate, train, filter, predict, evaluate.

Every command is deterministic given its flags and seed, reads and writes
only the paths it is given, and exits 0 on success or 1 with a one-line
diagnostic on failure.  Trajectories travel as CSV, models as the binary
container of ``model_io``, benchmark results as the MSE CSV of
``simbench.benchmark``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from hsepsr.filter import filter_trajectory
from hsepsr.learner import DEFAULT_LAM, train
from hsepsr.model_io import load_model, save_model
from hsepsr.predict import predict_observation_at, rollout_predict
from hsepsr.simbench.benchmark import (
    DESK_HORIZONS,
    ModelPredictor,
    baseline_mean,
    baseline_prev,
    desk_extents,
    full_extents,
    run_protocol,
    write_csv,
)
from hsepsr.simbench.simulate import SynthConfig, simulate_system
from hsepsr.windows import (
    Trajectory,
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
    history_length: int = 10
    test_length: int = 10
    lam: float = DEFAULT_LAM
    kernel: str = "auto"
    bandwidth_scale: float = 1.0
    discrete: bool = False
    max_samples: int | None = 500
    train_steps: int = 500
    extent: int = 101
    extent_step: int = 10
    horizons: tuple = DESK_HORIZONS
    full: bool = False
    renormalize: bool = False
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
        if self.train_steps < 1:
            raise ValueError("--train-steps must be at least 1")
        if self.extent < 1 or self.extent_step < 1:
            raise ValueError("extents must be positive")
        if not self.horizons or min(self.horizons) < 1:
            raise ValueError("horizons must be positive integers")


def _family(cfg: RunConfig):
    return None if cfg.kernel == "auto" else cfg.kernel


def _train_model(cfg: RunConfig, traj: Trajectory):
    return train(
        traj,
        WindowConfig(cfg.history_length, cfg.test_length),
        lam=cfg.lam,
        family=_family(cfg),
        bandwidth_scale=cfg.bandwidth_scale,
        max_samples=cfg.max_samples,
    )


def cmd_simulate(cfg: RunConfig) -> int:
    traj = simulate_system(SynthConfig(n_steps=cfg.steps, seed=cfg.seed))
    write_trajectory_csv(cfg.out, traj)
    print(f"simulated {traj.n} steps (seed {cfg.seed}) -> {cfg.out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    traj = read_trajectory_csv(cfg.data, discrete=cfg.discrete)
    t0 = time.perf_counter()
    model = _train_model(cfg, traj)
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
    if cfg.train_steps >= traj.n:
        raise ValueError(
            f"--train-steps {cfg.train_steps} consumes the whole "
            f"{traj.n}-step trajectory"
        )
    train_traj = Trajectory(
        traj.actions[: cfg.train_steps],
        traj.observations[: cfg.train_steps],
        discrete=traj.discrete,
    )
    test = Trajectory(
        traj.actions[cfg.train_steps :],
        traj.observations[cfg.train_steps :],
        discrete=traj.discrete,
    )
    horizons = sorted(set(cfg.horizons))
    n_test = test.n
    if cfg.full:
        extents = full_extents(n_test, horizons, start=cfg.extent)
    else:
        extents = desk_extents(
            n_test, horizons, start=cfg.extent, step=cfg.extent_step
        )
    if not extents:
        raise ValueError("no extent fits the test split with these horizons")
    t0 = time.perf_counter()
    predictor = ModelPredictor(_train_model(cfg, train_traj), cfg.renormalize)
    tables = [
        run_protocol(
            predictor, test, extents, horizons,
            train_size=cfg.train_steps, seed=cfg.seed,
        ),
        run_protocol(
            baseline_mean(train_traj), test, extents, horizons,
            train_size=cfg.train_steps, seed=cfg.seed,
        ),
        run_protocol(
            baseline_prev(), test, extents, horizons,
            train_size=cfg.train_steps, seed=cfg.seed,
        ),
    ]
    if cfg.out:
        write_csv(cfg.out, tables)
        print(f"mse table ({len(extents)} extents) -> {cfg.out}")
    print(
        f"belief resets: {len(predictor.filter_resets)} in the prefix filter, "
        f"{len(predictor.rollout_resets)} in rollouts"
    )
    hse, mean_t, prev_t = tables
    fails = []
    for h in horizons:
        m, mn, pv = hse.at(h), mean_t.at(h), prev_t.at(h)
        below = m < mn and m < pv
        if h <= 10 and not below:
            fails.append(h)
        print(
            f"h={h:>3} hse-psr {m:.5f} mean {mn:.5f} previous {pv:.5f} "
            f"{'below both' if below else 'not below both'}"
        )
    short = [h for h in range(1, 11) if h in horizons]
    if short:
        verdict = "PASS" if not fails else f"FAIL (horizons {fails})"
        print(f"horizons 1-10 below both baselines: {verdict}")
    if 100 in horizons:
        ratio = hse.at(100) / mean_t.at(100)
        verdict = "PASS" if ratio <= 1.5 else "FAIL"
        print(f"h=100 within 1.5x of mean baseline: {verdict} (ratio {ratio:.3f})")
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

    def add_window_flags(p):
        p.add_argument("-L", "--history-length", type=int, default=10,
                       help="history window length (default 10)")
        p.add_argument("-N", "--test-length", type=int, default=10,
                       help="test window length (default 10)")
        p.add_argument("--lam", type=float, default=DEFAULT_LAM,
                       help=f"ridge regularizer (default {DEFAULT_LAM:g})")
        p.add_argument("--kernel", choices=KERNEL_CHOICES, default="auto",
                       help="kernel family for all streams (default auto)")
        p.add_argument("--bandwidth-scale", type=float, default=1.0,
                       help="multiplier on median-distance bandwidths")
        p.add_argument("--max-samples", type=int, default=500,
                       help="cap on training samples, 0 for no cap (default 500)")

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
    p.add_argument("--renormalize", action="store_true",
                   help="rescale weights to unit sum after each step")

    p = sub.add_parser("predict", help="filter a prefix, predict ahead")
    p.add_argument("model", help="trained model file")
    p.add_argument("data", help="trajectory CSV")
    p.add_argument("--extent", type=int, default=101,
                   help="length of the filtered prefix (default 101)")
    p.add_argument("--horizons", type=_parse_horizons,
                   default=tuple(range(1, 11)),
                   help="comma-separated steps ahead (default 1..10)")
    p.add_argument("--out", help="write predictions to this file")
    p.add_argument("--discrete", action="store_true")
    p.add_argument("--renormalize", action="store_true")
    p.add_argument("--direct-prediction", action="store_true",
                   help="read window expectations without action conditioning")

    p = sub.add_parser("evaluate", help="benchmark a model against baselines")
    p.add_argument("data", help="full trajectory CSV (train + test)")
    p.add_argument("--out", help="output MSE CSV")
    p.add_argument("--train-steps", type=int, default=500,
                   help="steps used for training (default 500)")
    p.add_argument("--extent", type=int, default=101,
                   help="first filtering extent (default 101)")
    p.add_argument("--extent-step", type=int, default=10,
                   help="spacing between extents (default 10)")
    p.add_argument("--horizons", type=_parse_horizons, default=DESK_HORIZONS,
                   help="comma-separated horizons (default 1..10,20,50,100)")
    p.add_argument("--full", action="store_true",
                   help="every extent instead of the subsampled grid (slow)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed recorded in the output table")
    p.add_argument("--discrete", action="store_true")
    p.add_argument("--renormalize", action="store_true")
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
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
