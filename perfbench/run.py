"""Benchmark entry point: run one workload, or all three, each in a fresh process.

    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; ``cpoe`` is imported from its ``src``.  The
BLAS thread variables are set here, before the worker's interpreter starts,
because OpenBLAS reads them once when it loads.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("c6_fitc", "j256_fitc", "pitc_sum3d")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "CPOE_THREADS": "1",
                 "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def run_worker(workload: str, args) -> dict:
    """Run one workload in its own process; relay its output; return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, **SINGLE_THREAD)
    # set-up, warm-up and checks take at most about as long again as the timed rounds
    timeout = 2 * args.seconds + 60
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {timeout:g} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "cpoe", "__init__.py")):
        print(f"no cpoe sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload != "all":
        print(json.dumps(run_worker(args.workload, args)))
        return 0
    results = {w: run_worker(w, args) for w in WORKLOADS}
    for w, res in results.items():
        print(f"{w}: correct {res['correct']}, attempted {res['attempted']}, "
              f"failed {res['failed']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
