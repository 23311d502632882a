"""Time each set-up stage of the expert graph and the posterior's symbolic
analysis against the number of experts, and write ``BENCH_scaling_<label>.json``.

    python3 tools/record_scaling.py --label pr24 --checkout . --J 32 256 1024 4096

The inputs are uniform 2-D points, ``N = 64 J`` of them, with ``C = 3`` and
``gamma = 0.5``, drawn from ``--seed``; ``cpoe`` is imported from the
checkout's ``src``.  Each stage runs ``--repeats`` times at each ``J`` and its
median wall time is kept:

- ``kd_partition``, ``ordering`` (``order_partitions``), ``correlation_sets``;
- ``build``: the whole of ``ExpertGraph.build``;
- ``min_degree`` (``fill_reducing_permutation`` on the graph's block pattern);
- ``symbolic_rest``: ``symbolic_factor`` given that permutation;
- ``graph_symbolic``: ``ExpertGraph.build`` plus the graph's symbolic analysis;
- ``load_graph``: the graph ``CpoeModel.load`` rebuilds from a saved layout,
  the per-expert rows recovered from the row-to-expert map (by
  ``expert_graph.split_rows`` where the checkout has it, else by the J scans
  ``load`` made before it did).

With them go the fill counts per expert (factor slots, Cholesky update pairs,
partial-inverse clique slots) and the least-squares slope against log J, over
the ``J`` values given, of the log of each stage's time and of each count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from benchenv import environment

HERE = os.path.dirname(os.path.abspath(__file__))
POINTS_PER_EXPERT, C, GAMMA = 64, 3, 0.5


def timed(fn, repeats: int):
    """The median wall time of ``repeats`` calls of ``fn``, and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def stage_times(J: int, seed: int, repeats: int) -> dict:
    from cpoe import expert_graph
    from cpoe.block_sparse import fill_reducing_permutation, symbolic_factor
    from cpoe.expert_graph import ExpertGraph

    X = np.random.default_rng([seed, J]).uniform(0.0, 1.0, (POINTS_PER_EXPERT * J, 2))
    out = {}
    out["kd_partition"], _ = timed(lambda: expert_graph.kd_partition(X, J), repeats)
    out["build"], graph = timed(lambda: ExpertGraph.build(X, J, C, GAMMA, seed=seed), repeats)
    centers = np.stack([X[rows][idx].mean(axis=0)
                        for rows, idx in zip(graph.row_indices, graph.inducing_index)])
    out["ordering"], _ = timed(
        lambda: expert_graph.order_partitions(centers, np.random.default_rng(seed)), repeats)
    means = graph.inducing_inputs.mean(axis=1)
    out["correlation_sets"], _ = timed(lambda: expert_graph.correlation_sets(means, C), repeats)
    pattern = {(i, i) for i in range(J)}
    pattern |= {(int(i), int(k)) for psi in graph.correlation for i in psi for k in psi}
    out["min_degree"], perm = timed(lambda: fill_reducing_permutation(pattern), repeats)
    out["symbolic_rest"], sym = timed(lambda: symbolic_factor(graph.correlation, J, perm=perm),
                                      repeats)
    out["graph_symbolic"], _ = timed(
        lambda: ExpertGraph.build(X, J, C, GAMMA, seed=seed).symbolic, repeats)

    assignment = np.empty(graph.N, dtype=int)
    for j, rows in enumerate(graph.row_indices):
        assignment[rows] = j
    split = getattr(expert_graph, "split_rows", None)
    if split is None:
        def split(owner, n):
            return [np.flatnonzero(owner == j) for j in range(n)]
    out["load_graph"], _ = timed(lambda: ExpertGraph.from_layout(
        X, J, C, GAMMA, seed, graph.ordering, split(assignment, J), graph.inducing_index),
        repeats)
    counts = {"factor_slots": sym.n_slots / J,
              "update_pairs": sym.update_pairs.shape[0] / J,
              "clique_slots": sym.clique_slots.size / J}
    return {"J": J, "N": X.shape[0], "seconds": out, "per_expert": counts}


def slopes(rows: list[dict], field: str) -> dict:
    """Least-squares slope of the log of each entry of ``field`` against log J."""
    logJ = np.log([r["J"] for r in rows])
    return {name: float(np.polyfit(logJ, np.log([r[field][name] for r in rows]), 1)[0])
            for name in rows[0][field]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", default=os.path.dirname(HERE),
                        help="root of the checkout whose src/cpoe is timed")
    parser.add_argument("--J", type=int, nargs="+", default=[32, 256, 1024, 4096])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=".", help="directory the JSON file is written to")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    sys.path.insert(0, os.path.join(checkout, "src"))
    import cpoe

    if not os.path.abspath(cpoe.__file__).startswith(os.path.join(checkout, "src")):
        raise SystemExit(f"cpoe imported from {cpoe.__file__}, not from {checkout}")
    cpoe.set_num_threads()
    rows = []
    for J in args.J:
        # the largest sizes take seconds a stage at the quadratic code
        rows.append(stage_times(J, args.seed, args.repeats if J <= 1024 else min(args.repeats, 3)))
        print(json.dumps(rows[-1]), flush=True)
    record = {"label": args.label, "setting": {"points_per_expert": POINTS_PER_EXPERT,
                                               "C": C, "gamma": GAMMA, "seed": args.seed,
                                               "inputs": "uniform 2-D",
                                               "repeats": args.repeats},
              "environment": environment(checkout),
              "stages": rows, "loglog_slope": slopes(rows, "seconds"),
              "per_expert_loglog_slope": slopes(rows, "per_expert")}
    path = os.path.join(args.out, f"BENCH_scaling_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
