"""Benchmark entry point for the hsepsr package in ``src/``.

    python3 perfbench/run.py --workload {online,rollout,discrete} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

A single workload prints one ``{"report": ...}`` line with the full table
of end-to-end numbers (with units), then, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  ``all`` runs each workload in its own process,
so peak RSS is not shared, and prints every metric by name and unit.

Run it from the root of a checkout; it exits with status 2 when the
checkout holds no ``src/hsepsr``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("online", "rollout", "discrete")

#: BLAS threads per process.  One caller drives small (T <= 240) solves;
#: on the 2-core host a second BLAS thread made them 2-10x slower.
BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "hsepsr" / "__init__.py").is_file():
        print(f"perfbench: no package sources in {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench import workloads

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    run = workloads.run_traced if args.trace else workloads.run_untraced
    result, report = run(args.workload, args.seed, args.seconds, str(workdir))
    report["host"] = workloads.host_info()
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        report = json.loads(lines[-2])
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        print(
            f"== {name}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        rows = dict(report.get("report", {}))
        rows.update(result["metrics"])
        for key, m in rows.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {key:48s} {value:>14s} {m['unit']}")
        print(f"  host: {json.dumps(report['host'])}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
