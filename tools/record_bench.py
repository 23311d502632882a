"""Run the benchmark from one or more checkouts and record its end-to-end
metrics in ``BENCH_<label>.json``, one file per checkout.

    python3 tools/record_bench.py --label before --checkout ../parent \
        --label after --checkout . --workload j256_fitc pitc_sum3d \
        --seeds 0 1 2 3 4 --seconds 50

Each run is ``perfbench/run.py --workload W --seed S --seconds T`` started as a
subprocess from the checkout's root, so it imports that checkout's ``cpoe``.
For each seed and workload the checkouts run one after another, their order
rotated by one from seed to seed, so that no checkout always runs first.
From each run's output the recorder reads the ``samples`` lines, the BLAS
threads of its ``environment`` line and the final JSON line.  A file holds,
per workload, every run (seed, place in the rotation, metrics, samples,
``correct``, attempted and failed operations) and, per end-to-end metric, the
median and quartiles over the runs, with ``correct`` over all runs and the
failed share of operations; and the environment: CPU model, numpy and scipy
versions, the runs' BLAS threads, git head and checkout directory name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

from benchenv import environment


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of one workload; its parsed output."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    samples, blas = {}, None
    for line in lines[:-1]:
        if line.startswith("samples "):
            name, *values = line.split()[1:]
            samples[name] = [float(v) for v in values]
        elif line.startswith("environment "):
            blas = json.loads(line.split(" ", 1)[1]).get("blas_threads")
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "units": {k: m["unit"] for k, m in result["metrics"].items()},
            "samples": samples, "blas_threads": blas}


def summary(runs: list[dict]) -> dict:
    """Per metric, the median and quartiles of the runs' values; ``correct``
    over all runs, and the failed share of all operations."""
    out = {"correct": all(r["correct"] for r in runs),
           "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
           "metrics": {}}
    for name, unit in runs[0]["units"].items():
        q1, median, q3 = np.percentile([r["metrics"][name] for r in runs], [25, 50, 75])
        out["metrics"][name] = {"median": float(median), "q1": float(q1), "q3": float(q3),
                                "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", action="append", required=True,
                        help="names BENCH_<label>.json; once per --checkout")
    parser.add_argument("--checkout", action="append", required=True,
                        help="root of a checkout holding perfbench/ and src/cpoe")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", default=".", help="directory the JSON files are written to")
    args = parser.parse_args(argv)
    if len(args.label) != len(args.checkout):
        parser.error("give one --label per --checkout")
    checkouts = [os.path.abspath(c) for c in args.checkout]
    for c in checkouts:
        if not os.path.isfile(os.path.join(c, "perfbench", "run.py")):
            parser.error(f"{c} holds no perfbench/run.py")

    runs = {label: {w: [] for w in args.workload} for label in args.label}
    n = len(checkouts)
    for s, seed in enumerate(args.seeds):
        for w in args.workload:
            for place in range(n):
                k = (place + s) % n
                run = run_once(checkouts[k], w, seed, args.seconds)
                run["place"] = place
                runs[args.label[k]][w].append(run)
                print(f"{args.label[k]} {w} seed {seed}: " + ", ".join(
                    f"{m} {v:.4g}" for m, v in run["metrics"].items()), flush=True)

    for label, checkout in zip(args.label, checkouts):
        env = environment(checkout)
        env["blas_threads"] = []  # each distinct report of the runs
        for rs in runs[label].values():
            for r in rs:
                if r["blas_threads"] not in env["blas_threads"]:
                    env["blas_threads"].append(r["blas_threads"])
        record = {"label": label, "seconds": args.seconds, "seeds": args.seeds,
                  "rotated_with": [lb for lb in args.label if lb != label],
                  "environment": env,
                  "workloads": {w: {"summary": summary(rs), "runs": rs}
                                for w, rs in runs[label].items()}}
        path = os.path.join(args.out, f"BENCH_{label}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
