"""Benchmark entry point: run one gainhmm workload and print its metrics.

    python3 perfbench/run.py --workload recomb_3x1000 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gainhmm is imported from its
``src`` directory, single-threaded. Human-readable lines come first on
standard output; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run, and the spans are written to
``.bench_work/traces/``. The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def prepare():
    """Pin numerical libraries to one thread and import gainhmm from ROOT/src.

    Must run before numpy is imported. Returns False when the checkout has
    no gainhmm sources.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "gainhmm" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not prepare():
        print(f"error: no gainhmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import gainhmm

    if Path(gainhmm.__file__).resolve().parent != ROOT / "src" / "gainhmm":
        print(f"error: gainhmm imported from {gainhmm.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))

    work = ROOT / ".bench_work"
    rundir = work / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        run, metrics = bench.run_instance(
            WORKLOADS[args.workload](args.seed, rundir), args.seconds, bool(args.trace))
        if args.trace:
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            path = traces / f"{args.workload}-seed{args.seed}.json"
            run.tracer.write(path, {"workload": args.workload, "seed": args.seed})
            print(f"spans written to {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    missing = [k for k, (v, _unit) in metrics.items() if v is None]
    correct = not run.checker.failures and not missing
    for k in missing:
        print(f"no measurement for {k}: every such operation failed")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
