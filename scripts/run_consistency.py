"""Convergence of learned one-step predictions toward the exact filter.

Trains models on growing sample counts from the discrete oracle system,
filters a held-out probe sequence with each, and reports the median (over
seeds) total-variation distance between the learned and exact one-step
observation distributions. The medians should decrease as T grows.

Usage, from the root of a checkout (nothing installs the package):
    PYTHONPATH=src python3 scripts/run_consistency.py [--counts 100,400,1600] [--seeds 5]
"""

import argparse
import time

from hsepsr.simbench import convergence_curve, default_system


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--counts",
        default="100,400,1600",
        help="comma-separated training sizes (default 100,400,1600)",
    )
    parser.add_argument(
        "--seeds", type=int, default=5, help="number of seeds (default 5)"
    )
    args = parser.parse_args()
    counts = tuple(int(tok) for tok in args.counts.split(","))
    seeds = tuple(range(args.seeds))

    start = time.perf_counter()
    points = convergence_curve(default_system(), counts, seeds=seeds)
    wall = time.perf_counter() - start

    medians = []
    for point in points:
        medians.append(point.median_tv)
        print(
            f"T={point.n_samples:5d}  lam={point.lam:.2e}  "
            f"median TV={point.median_tv:.4f}  "
            f"per-seed {['%.4f' % tv for tv in point.tv_by_seed]}"
        )
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    print(f"median TV strictly decreasing: {'yes' if decreasing else 'NO'}")
    print(f"wall time {wall:.1f}s")
    return 0 if decreasing else 1


if __name__ == "__main__":
    raise SystemExit(main())
