"""Command-line surface: simulate, train, filter, predict, evaluate.

Every command is deterministic given its flags and seed, reads and writes
only the paths it is given, and exits 0 on success or 1 with a one-line
diagnostic on failure.  Trajectories travel as CSV, models as the binary
container of ``model_io``, benchmark results as the MSE CSV of
``simbench.benchmark``.

The parsed arguments are the only settings object: each command hands
them to the library function that takes them, and that function rejects
a bad value with a ValueError naming it.  ``evaluate`` is a thin shell
over ``simbench.benchmark.evaluate``: the desk defaults (split, windows,
regularizer, extent grid, horizons, renormalization) are that function's
keyword defaults, and the parser reads them from its signature.
``predict`` runs the protocol's own predictor,
``simbench.benchmark.ModelPredictor``, for one extent.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

import numpy as np

from hsepsr.filter import filter_trajectory
from hsepsr.kernels import FAMILIES
from hsepsr.learner import DEFAULT_MAX_SAMPLES, train
from hsepsr.model_io import load_model, save_model
from hsepsr.simbench.benchmark import ModelPredictor, evaluate, write_csv
from hsepsr.simbench.simulate import SynthConfig, simulate_system
from hsepsr.windows import (
    WindowConfig,
    read_trajectory_csv,
    write_trajectory_csv,
)

KERNEL_CHOICES = ("auto", *FAMILIES)


def _family(args: argparse.Namespace):
    return None if args.kernel == "auto" else args.kernel


def cmd_simulate(args: argparse.Namespace) -> int:
    traj = simulate_system(SynthConfig(n_steps=args.steps, seed=args.seed))
    write_trajectory_csv(args.out, traj)
    print(f"simulated {traj.n} steps (seed {args.seed}) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    traj = read_trajectory_csv(args.data, discrete=args.discrete)
    t0 = time.perf_counter()
    model = train(
        traj,
        WindowConfig(args.history_length, args.test_length),
        lam=args.lam,
        family=_family(args),
        bandwidth_scale=args.bandwidth_scale,
        max_samples=args.max_samples,
    )
    wall = time.perf_counter() - t0
    save_model(model, args.out)
    for line in model.report.summary_lines():
        print(line)
    print(f"wall time: {wall:.2f}s")
    print(f"model -> {args.out}")
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    traj = read_trajectory_csv(args.data)
    events: list = []
    result = filter_trajectory(
        model, None, traj.actions, traj.observations, args.renormalize, events
    )
    if args.out:
        np.save(args.out, result.weights_matrix())
        print(f"belief weights ({traj.n} x {model.n_samples}) -> {args.out}")
    print(
        f"filtered {traj.n} steps, {len(result.resets)} resets, "
        f"solve escalations: {len(events)}, final mass {result.final.mass:.4f}"
    )
    return 0


def _values(row) -> str:
    return " ".join(f"{v:.6g}" for v in row)


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    traj = read_trajectory_csv(args.data)
    predictor = ModelPredictor(model, args.renormalize)
    horizons = sorted(set(args.horizons))
    preds = predictor.predict_all(
        traj.actions, traj.observations, [args.extent], horizons
    )[0]
    text = "\n".join(
        f"h={h} pred {_values(p)} truth "
        + _values(traj.observations[args.extent + h - 1])
        for h, p in zip(horizons, preds)
    )
    print(text)
    print(
        f"belief resets: {len(predictor.filter_resets)} in the prefix filter, "
        f"{len(predictor.rollout_resets)} in rollouts; "
        f"solve escalations: {len(predictor.solve_events)}"
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"predictions -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    traj = read_trajectory_csv(args.data, discrete=args.discrete)
    t0 = time.perf_counter()
    result = evaluate(
        traj,
        train_steps=args.train_steps,
        history_length=args.history_length,
        test_length=args.test_length,
        lam=args.lam,
        extent=args.extent,
        extent_step=args.extent_step,
        horizons=args.horizons,
        renormalize=args.renormalize,
        seed=args.seed,
        family=_family(args),
        bandwidth_scale=args.bandwidth_scale,
        max_samples=args.max_samples,
    )
    if args.out:
        write_csv(args.out, result.tables)
        print(f"mse table ({result.model.n_extents} extents) -> {args.out}")
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


def _max_samples(text: str) -> int | None:
    """``--max-samples``: 0 means no cap, which ``train`` spells None."""
    return int(text) or None


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
        p.add_argument("--max-samples", type=_max_samples,
                       default=DEFAULT_MAX_SAMPLES,
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
    add_renormalize_flag(p)

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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        # the errors a command is expected to raise; any other is a bug
        # and keeps its type and traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
