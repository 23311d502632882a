"""One workload in one process: set-up, warm-up, timed rounds, checks.

Started by ``run.py`` with the BLAS thread variables already in the
environment.  A closed loop with one caller: each operation starts when the
previous one returns.  Every round runs the same operations in the same
order (set-up, three L-BFGS objective evaluations, one Adam epoch, one
prediction batch, one reload), then checks their outputs untimed; the loop
stops at the round boundary nearest to ``--seconds``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from checks import (GRAD_STEP, check_c1_identity, check_exact_limit,  # noqa: E402
                    check_fused, check_gradient, check_reload, dense_gp, thin)
from tracing import COUNT_METRICS, SPAN_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PREDICT_BATCH = 2000
CHECK_BATCH = 256
ADAM_RATE = 1e-3        # small enough that one epoch stays near theta0
EXACT_J = 4             # experts of the exact-limit model (C = J, gamma = 1)
END_TO_END = {"setup_s": "s", "objective_s": "s", "epoch_s": "s",
              "predict_qps": "queries/s", "load_s": "s", "peak_rss_mb": "MB"}


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, read through its own entry point."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return found


def build_kernel(terms):
    from cpoe import SquaredExponential

    kernels = [SquaredExponential.create(v, list(ls)) for v, ls in terms]
    return kernels[0] if len(kernels) == 1 else kernels[0] + kernels[1]


class Bench:
    """The state one workload's rounds share: data, served model, saved file."""

    def __init__(self, workload, seed: int, tracer: Tracer | None):
        from cpoe import CpoeModel, NoiseSpec, VariantSpec, full_params
        from cpoe.prediction import predict_arrays

        self.w, self.seed, self.tracer = workload, seed, tracer
        self.X, self.y = workload.make_inputs(np.random.default_rng([seed, 0]))
        self.N, self.D = self.X.shape
        self.kernel = build_kernel(workload.terms)
        self.noise = NoiseSpec.create(workload.noise)
        self.theta0 = full_params(self.kernel, self.noise)
        self.variant = VariantSpec(workload.variant)
        self.CpoeModel = CpoeModel
        self.samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
        self.attempted = self.failed = 0
        self.problems: list[str] = []  # failed operations and checks
        self.check_log: dict[str, tuple[bool, str]] = {}
        self.op_id = 0
        self.round_ops: list[list[int]] = []

        self.served = self._setup()
        self.trainee = CpoeModel(self.kernel, self.noise, J=workload.J, C=workload.C,
                                 gamma=workload.gamma, variant=self.variant,
                                 seed=seed).fit(self.X, self.y, graph=self.served.graph)
        os.makedirs(OUT, exist_ok=True)
        self.path = os.path.join(OUT, f"{workload.name}-{os.getpid()}.npz")
        self.served.save(self.path)
        self.Xcheck = np.random.default_rng([seed, 4]).uniform(0, 1, (CHECK_BATCH, self.D))
        self.reference = predict_arrays(self.served, self.Xcheck, add_noise=True,
                                         return_locals=True)

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)

    # -- operations ----------------------------------------------------------

    def _setup(self):
        from cpoe import ExpertGraph

        w = self.w
        graph = ExpertGraph.build(self.X, w.J, w.C, w.gamma, seed=self.seed)
        return self.CpoeModel(self.kernel, self.noise, J=w.J, C=w.C, gamma=w.gamma,
                              variant=self.variant, seed=self.seed).fit(self.X, self.y,
                                                                        graph=graph)

    def _objective(self, theta):
        """One evaluation as ``fit_deterministic`` makes it.  An error it would
        answer with 1e12 fails the operation here."""
        model = self.trainee
        model.set_params(theta)
        return model.log_marginal_likelihood(), model.lml_gradient()

    def _epoch(self, order):
        from cpoe import Adam, cpoe_model, split_params

        graph, y = self.served.graph, self.y

        def term(j, theta):  # as the bench CLI hands it to fit_stochastic
            k, n = split_params(self.kernel, theta)
            return cpoe_model.stochastic_lml_term(graph, k, n, j, y[graph.row_indices[j]],
                                                  self.variant)

        adam = Adam(self.theta0, learning_rate=ADAM_RATE)
        for j in order:
            adam.step(term(int(j), adam.theta)[1])
        theta = adam.theta.copy()
        # fit_stochastic's epoch objective: term_fn(j, theta)[0], gradient included
        return theta, sum(term(j, theta)[0] for j in range(graph.J))

    def _load(self):
        return self.CpoeModel.load(self.path, self.X, self.y, self.kernel)

    # -- bookkeeping -----------------------------------------------------------

    def _timed(self, kind: str | None, fn, *args):
        """Run one operation; record its time under ``kind`` (None: warm-up)."""
        self.op_id += 1
        if kind is not None:
            self.attempted += 1
            self.round_ops[-1].append(self.op_id)
            if self.tracer is not None:
                self.tracer.op = self.op_id
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            if kind is None:
                raise
            self.failed += 1
            self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.op = None
        if kind is not None:
            self.samples[kind].append(elapsed)
        return out, elapsed

    def _check(self, name: str, fn, *args, known_fault: bool = False) -> None:
        """One untimed check; a check that fails or cannot run is a failed operation.

        A failure of the ``known_fault`` check is counted but leaves the
        run's outputs correct: it is the program's fault the check tracks.
        """
        self.attempted += 1
        try:
            ok, detail = fn(*args)
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if not known_fault:
                self.problems.append(f"{name}: {detail}")
        self.check_log.setdefault(name, (ok, detail))

    # -- rounds -------------------------------------------------------------------

    def round(self, r: int, warmup: bool = False) -> None:
        from cpoe.prediction import predict_arrays

        w = self.w
        rng = np.random.default_rng([self.seed, 3 if warmup else 1, r])
        theta0 = self.theta0
        # objective points theta0 - h v, theta0, theta0 + h v; every coordinate
        # moves, so a gross error in one gradient entry cannot hide
        v = rng.choice((-1.0, 1.0), size=theta0.size) / np.sqrt(theta0.size)
        order = rng.permutation(w.J)
        n_queries = CHECK_BATCH if warmup else PREDICT_BATCH
        Xq = rng.uniform(0, 1, (n_queries, self.D))
        kind = (lambda k: None) if warmup else (lambda k: k)
        if not warmup:
            self.round_ops.append([])

        self._timed(kind("setup_s"), self._setup)
        points = [theta0] if warmup else [theta0 - GRAD_STEP * v, theta0, theta0 + GRAD_STEP * v]
        evals = [self._timed(kind("objective_s"), self._objective, p)[0] for p in points]
        epoch, _ = self._timed(kind("epoch_s"), self._epoch, order)
        pred, t_pred = self._timed(kind("predict_qps"), self.served.predict, Xq, True)
        if t_pred is not None and not warmup:
            self.samples["predict_qps"][-1] = n_queries / t_pred
        loaded, _ = self._timed(kind("load_s"), self._load)
        if warmup:
            return

        if w.gradient_check:
            self._check("gradient", lambda: check_gradient(
                [e[0] for e in evals], [e[1] for e in evals], v), known_fault=w.known_fault)
        self._check("exact_limit", self._exact_limit, r)
        self._check("c1_identity", self._c1_identity, epoch)
        try:
            out = predict_arrays(loaded, self.Xcheck, add_noise=True, return_locals=True)
        except Exception:  # a failed load leaves nothing to check: both checks fail
            out = None
        self._check("reload", lambda: check_reload(
            self.reference[0], self.reference[1], out[0], out[1]))
        self._check("fused", lambda: check_fused(
            np.concatenate([pred[0], out[0]]), np.concatenate([pred[1], out[1]]),
            out[2][3]))

    def _exact_limit(self, r: int):
        w = self.w
        sub_rng = np.random.default_rng([self.seed, 2, r])
        rows = thin(self.X, w.terms, EXACT_J, sub_rng)
        Xs, ys = self.X[rows], self.y[rows]
        Xq = sub_rng.uniform(0, 1, (64, self.D))
        model = self.CpoeModel(self.kernel, self.noise, J=EXACT_J, C=EXACT_J, gamma=1.0,
                               variant=self.variant, seed=self.seed).fit(Xs, ys)
        mean, var = model.predict(Xq, add_noise=True)
        ref = dense_gp(Xs, ys, Xq, w.terms, w.noise)
        return check_exact_limit(model.log_marginal_likelihood(), model.lml_gradient(),
                                 mean, var, *ref)

    def _c1_identity(self, epoch):
        from cpoe import split_params

        theta, term_sum = epoch
        k, n = split_params(self.kernel, theta)
        graph = self.served.graph.with_correlation(1)
        model = self.CpoeModel(k, n, J=self.w.J, C=1, gamma=self.w.gamma,
                               variant=self.variant, seed=self.seed).fit(self.X, self.y,
                                                                         graph=graph)
        return check_c1_identity(term_sum, self.N, model.log_marginal_likelihood())


def per_layer(bench: Bench, tracer: Tracer) -> dict[str, float]:
    """Median per-round self times, and round 0's counts (they repeat exactly)."""
    rounds = [tracer.self_times(ops) for ops in bench.round_ops]
    out = {metric: statistics.median(rt.get(span, 0.0) for rt in rounds)
           for span, metric in SPAN_METRICS.items()}
    counts = tracer.count_totals(bench.round_ops[0])
    for metric in COUNT_METRICS:
        if metric == "prediction.experts_per_query":
            out[metric] = counts["prediction.query_rows"] / counts["prediction.queries"]
        else:
            out[metric] = counts[metric]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import cpoe
    import scipy

    if os.path.dirname(os.path.abspath(cpoe.__file__)) != os.path.join(SRC, "cpoe"):
        print(f"cpoe imported from {cpoe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = {"numpy": np.__version__, "scipy": scipy.__version__,
           "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
           "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
           "process_threads": len(os.listdir("/proc/self/task"))}
    print("environment " + json.dumps(env, sort_keys=True))

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    bench = Bench(workload, args.seed, tracer)
    try:
        if tracer is not None:
            tracer.install()
        bench.round(0, warmup=True)
        start = time.perf_counter()
        while True:
            bench.round(len(bench.round_ops))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(bench.round_ops)
            # whole rounds only; stop at the boundary nearest to --seconds
            if len(bench.round_ops) >= 2 and elapsed + 0.5 * per_round >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        bench.close()

    bench.samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    e2e = {k: statistics.median(v) for k, v in bench.samples.items()}
    for name, (ok, detail) in sorted(bench.check_log.items()):
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    for problem in bench.problems:
        print(f"failed {problem}")
    print(f"rounds {len(bench.round_ops)} in {elapsed:.1f} s")
    for name, values in bench.samples.items():
        print(f"samples {name} " + " ".join(f"{v:.4g}" for v in values))
    for name, unit in END_TO_END.items():
        print(f"{workload.name} {name} {e2e[name]:.6g} {unit}"
              + (" (traced)" if tracer is not None else ""))
    if tracer is not None:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in per_layer(bench, tracer).items()}
        for name, m in metrics.items():
            print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
        tracer.dump(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.json"))
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
