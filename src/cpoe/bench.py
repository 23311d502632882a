"""Experiment harness: data loading, timed method sweeps, results CSVs.

Configuration files are flat ``key = value`` text (``#`` comments allowed).
Every result row carries the configuration hash and the repetition seed, so
runs are exactly reproducible from (data, config, seed).  Timing wraps fit and
predict separately with wall clocks.

Usage:

    bench synth --kernel two_se --n 1024 --d 2 --seed 0 --output data.csv
    bench run --config experiment.cfg
    bench predict --config experiment.cfg --model model.npz --data train.csv \
                  --input queries.csv --output predictions.csv
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import FullGp, ProductOfExperts, SparseGp
from .cpoe_model import CpoeModel, VariantSpec, stochastic_lml_term
from .expert_graph import ExpertGraph
from .kernels import (
    Kernel,
    NoiseSpec,
    Periodic,
    SpectralMixture,
    SquaredExponential,
    full_params,
    split_params,
)
from .metrics import MetricReport, evaluate_predictions
from .training import OptimizerConfig, fit_deterministic, fit_stochastic

__all__ = [
    "Dataset",
    "ExperimentConfig",
    "load_csv",
    "synth_gp_data",
    "run_experiment",
    "build_kernel",
    "parse_config",
    "main",
]


@dataclass
class Dataset:
    """Standardized train/test split with the statistics used to build it."""

    X: np.ndarray
    y: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    seed: int

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def D(self) -> int:
        return self.X.shape[1]

    def destandardize_y(self, y_std_units) -> np.ndarray:
        return np.asarray(y_std_units) * self.y_std + self.y_mean


def _standardize(train: np.ndarray, test: np.ndarray):
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (train - mean) / std, (test - mean) / std, mean, std


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """The header and the numeric rows of a rectangular CSV file.

    Raises ``ValueError`` naming the file when it is empty, has no data rows,
    has a row whose width differs from the header's, or a non-numeric cell.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise ValueError(f"{path}: empty file, no header row")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(header)
    data = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + 2} has {len(row)} cells, header has {width}")
        try:
            data[r] = [float(c) for c in row]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric cell in row {r + 2}: {exc}") from None
    return header, data


def load_csv(path, target_column="last", test_fraction: float = 0.1, seed: int = 0,
             standardize: bool = True) -> Dataset:
    """Parse a rectangular numeric CSV with a header row into a Dataset.

    Rows are shuffled with the given seed before the train/test split; test
    rows are transformed with the training statistics.
    """
    path = Path(path)
    header, data = _read_csv(path)
    width = len(header)

    if target_column == "last":
        t_idx = width - 1
    elif isinstance(target_column, int) or str(target_column).lstrip("-").isdigit():
        t_idx = int(target_column)
    else:
        if target_column not in header:
            raise ValueError(f"{path}: target column {target_column!r} not in header {header}")
        t_idx = header.index(target_column)
    y_all = data[:, t_idx]
    X_all = np.delete(data, t_idx, axis=1)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    n_test = int(round(test_fraction * len(data)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    X_train, X_test = X_all[train_idx], X_all[test_idx]
    y_train, y_test = y_all[train_idx], y_all[test_idx]
    if standardize:
        X_train, X_test, xm, xs = _standardize(X_train, X_test)
        y2 = y_train[:, None]
        y2t = y_test[:, None] if n_test else np.zeros((0, 1))
        y_train_s, y_test_s, ym, ys = _standardize(y2, y2t)
        y_train, y_test = y_train_s[:, 0], y_test_s[:, 0]
        ym, ys = float(ym[0]), float(ys[0])
    else:
        xm, xs = np.zeros(X_train.shape[1]), np.ones(X_train.shape[1])
        ym, ys = 0.0, 1.0
    return Dataset(X=X_train, y=y_train, X_test=X_test, y_test=y_test,
                   x_mean=xm, x_std=xs, y_mean=ym, y_std=ys, seed=seed)


def synth_gp_data(kernel: Kernel, N: int, D: int, noise_variance: float, seed: int,
                  n_test: int = 0, cap: int = 8192) -> Dataset:
    """Exact GP sample on uniform inputs in [0, 1]^D."""
    total = N + n_test
    if total > cap:
        raise ValueError(f"N + n_test = {total} exceeds the dense sampling cap {cap}")
    rng = np.random.default_rng(seed)
    X_all = rng.uniform(0.0, 1.0, (total, D))
    K = kernel(X_all)
    chol = np.linalg.cholesky(K + 1e-10 * np.mean(np.diag(K)) * np.eye(total))
    f = chol @ rng.normal(size=total)
    y_all = f + np.sqrt(noise_variance) * rng.normal(size=total)
    return Dataset(X=X_all[:N], y=y_all[:N], X_test=X_all[N:], y_test=y_all[N:],
                   x_mean=np.zeros(D), x_std=np.ones(D), y_mean=0.0, y_std=1.0,
                   seed=seed)


# ---------------------------------------------------------------------------
# configuration

_DEFAULTS = {
    "data": "",
    "target": "last",
    "test_fraction": "0.1",
    "standardize": "true",
    "synthetic": "",
    "n": "1024",
    "d": "2",
    "n_test": "200",
    "gen_noise_variance": "0.05",
    "seed": "0",
    "repetitions": "1",
    "kernel": "se",
    "variance": "1.0",
    "lengthscale": "1.0",
    "sm_components": "2",
    "noise_init": "0.1",
    "j": "8",
    "gamma": "1.0",
    "variant": "fitc",
    "alpha_pep": "1.0",
    "methods": "fullgp,cpoe:2",
    "optimize": "none",
    "learning_rate": "0.01",
    "epochs": "15",
    "tolerance": "1e-2",
    "max_iter": "60",
    "dense_cap": "8192",
    "output": "results",
}

_OPTIMIZE_MODES = ("none", "deterministic", "stochastic")


def parse_config(path) -> dict:
    """Flat ``key = value`` file into a dict over the known keys."""
    cfg = dict(_DEFAULTS)
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


@dataclass
class ExperimentConfig:
    raw: dict = field(default_factory=lambda: dict(_DEFAULTS))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(parse_config(path))

    def __getitem__(self, key: str) -> str:
        return self.raw[key]

    def flag(self, key: str) -> bool:
        return self.raw[key].strip().lower() in ("true", "yes", "1")

    def num(self, key: str) -> float:
        return float(self.raw[key])

    def integer(self, key: str) -> int:
        return int(float(self.raw[key]))

    def methods(self) -> list[tuple[str, int | None]]:
        out = []
        for token in self.raw["methods"].split(","):
            token = token.strip().lower()
            if not token:
                continue
            if ":" in token:
                name, arg = token.split(":", 1)
                out.append((name, int(arg)))
            else:
                out.append((token, None))
        return out

    def hash(self) -> str:
        """Digest of the settings that differ from the defaults, ``output`` aside:
        the same experiment hashes alike wherever it is written, and a new
        key with a default leaves existing hashes as they were."""
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.raw.items())
                         if k != "output" and v != _DEFAULTS.get(k))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _generator_kernel(name: str, D: int) -> Kernel:
    """Fixed kernel of a synthetic dataset: ``two_se`` (or ``se+se``), else SE."""
    if name in ("se+se", "two_se"):
        # two SE components with shorter/longer lengthscales
        return (SquaredExponential.create(0.2, [0.125] * D)
                + SquaredExponential.create(1.1, [0.5] * D))
    return SquaredExponential.create(1.0, [0.2] * D)


def build_kernel(cfg: ExperimentConfig, D: int) -> Kernel:
    """Kernel structure from the config; initial scales from the config values."""
    name = cfg["kernel"].strip().lower()
    v0 = cfg.num("variance")
    l0 = cfg.num("lengthscale")
    if name == "se":
        return SquaredExponential.create(v0, [l0] * D)
    if name in ("se+se", "two_se"):
        return _generator_kernel(name, D)
    if name == "composite":
        # two periodic components, a spectral mixture and an SE over all inputs;
        # the first three act on the first (time) column
        q = cfg.integer("sm_components")
        sm = SpectralMixture.create(weights=[v0 / q] * q,
                                    means=np.linspace(1.0, float(q), q),
                                    variances=[1.0] * q, active_dims=[0])
        return (Periodic.create(v0, l0, 1.0, active_dims=[0])
                + Periodic.create(v0, l0, 0.5, active_dims=[0])
                + sm
                + SquaredExponential.create(v0, [l0] * D))
    raise ValueError(f"unknown kernel config {name!r}")


# ---------------------------------------------------------------------------
# experiment loop

def _dataset_for_rep(cfg: ExperimentConfig, rep_seed: int) -> Dataset:
    if cfg["data"]:
        return load_csv(cfg["data"], cfg["target"], cfg.num("test_fraction"),
                        seed=rep_seed, standardize=cfg.flag("standardize"))
    D = cfg.integer("d")
    gen = _generator_kernel(cfg["synthetic"].strip().lower(), D)
    return synth_gp_data(gen, cfg.integer("n"), D, cfg.num("gen_noise_variance"),
                         seed=rep_seed, n_test=cfg.integer("n_test"),
                         cap=cfg.integer("dense_cap"))


def _optimizer_config(cfg: ExperimentConfig, rep_seed: int) -> OptimizerConfig:
    return OptimizerConfig(learning_rate=cfg.num("learning_rate"),
                           max_epochs=cfg.integer("epochs"), tolerance=cfg.num("tolerance"),
                           seed=rep_seed, max_iter=cfg.integer("max_iter"))


def _expert_term(graph: ExpertGraph, kernel: Kernel, y: np.ndarray, variant: VariantSpec):
    """``term(j, theta, with_grad)``: expert j's factorized likelihood term."""
    def term(j, theta, with_grad=True):
        k2, n2 = split_params(kernel, theta)
        return stochastic_lml_term(graph, k2, n2, j, y[graph.row_indices[j]],
                                   variant=variant, with_grad=with_grad)
    return term


def _rebuilt(label: str, build):
    """Adapter for a model fitted from scratch at every new theta by ``build(theta)``."""
    last = {"theta": None}

    def at(theta):  # rebuild only where theta moved since the last fit
        if not np.array_equal(theta, last["theta"]):
            last["model"] = build(theta)
            last["theta"] = np.array(theta, dtype=float)
        return last["model"]

    def objective(theta):
        m = at(theta)
        return m.lml(), m.lml_gradient()

    def fit(theta):
        m = at(theta)
        return m.predict, m.lml()
    return label, objective, fit, None


def _method(name: str, arg: int | None, cfg: ExperimentConfig, data: Dataset,
            kernel: Kernel, noise: NoiseSpec, rep_seed: int):
    """``(label, objective, fit, terms)`` for one method.

    ``objective(theta)`` returns the value and gradient L-BFGS maximizes,
    ``fit(theta)`` the ``(predict, lml)`` of the model that is evaluated, and
    ``terms`` is ``(term_fn, J)`` for Adam, or None for methods that train with
    L-BFGS in either optimize mode.  The label names the optimizer trace.
    """
    if name == "fullgp":
        cap = cfg.integer("dense_cap")
        return _rebuilt("fullgp", lambda theta: FullGp(*split_params(kernel, theta),
                                                       cap=cap).fit(data.X, data.y))
    if name == "sgp":
        M = arg or min(100, data.N)
        A = data.X[np.random.default_rng(rep_seed).choice(data.N, size=M, replace=False)]
        return _rebuilt(f"sgp_{M}", lambda theta: SparseGp(*split_params(kernel, theta),
                                                           A).fit(data.X, data.y))
    if name in ("minvar", "gpoe"):
        rows = ExpertGraph.build(data.X, cfg.integer("j"), C=1, gamma=1.0,
                                 seed=rep_seed).row_indices
        return _rebuilt(name, lambda theta: ProductOfExperts(*split_params(kernel, theta), rows,
                                                             mode=name).fit(data.X, data.y))
    if name == "cpoe":
        C = arg or 2
        variant = VariantSpec(cfg["variant"], cfg.num("alpha_pep"))
        # one model throughout: refits reuse its graph and symbolic analysis
        model = CpoeModel(kernel, noise, J=cfg.integer("j"), C=C, gamma=cfg.num("gamma"),
                          variant=variant, seed=rep_seed).fit(data.X, data.y)

        def at(theta):  # refit only where theta moved; the model starts fitted at theta0
            if not np.array_equal(theta, model.get_params()):
                model.set_params(theta)

        def objective(theta):
            at(theta)
            return model.log_marginal_likelihood(), model.lml_gradient()

        def fit(theta):
            at(theta)
            return model.predict, model.log_marginal_likelihood()
        terms = (_expert_term(model.graph, kernel, data.y, variant), model.graph.J)
        return f"cpoe_{C}", objective, fit, terms
    raise ValueError(f"unknown method {name!r}")


def run_method(name: str, arg: int | None, cfg: ExperimentConfig, data: Dataset,
               rep_seed: int, reference, traces: dict):
    """Fit one method, predict on the test block, and evaluate.

    Returns (MetricReport, reference_predictions_or_None).  Reference is the
    exact-GP latent prediction used for the KL column.  ``optimize =
    stochastic`` trains the methods with per-expert terms by Adam and the
    others by L-BFGS; the fit time includes the optimization.
    """
    kernel = build_kernel(cfg, data.D)
    noise = NoiseSpec.create(cfg.num("noise_init"))
    theta = full_params(kernel, noise)
    mode = cfg["optimize"].strip().lower()

    t0 = time.perf_counter()
    label, objective, fit, terms = _method(name, arg, cfg, data, kernel, noise, rep_seed)
    if mode != "none":
        config = _optimizer_config(cfg, rep_seed)
        if mode == "stochastic" and terms is not None:
            res = fit_stochastic(*terms, theta, config,
                                 constant=-0.5 * data.N * np.log(2 * np.pi))
        else:
            res = fit_deterministic(objective, theta, config)
        traces[label] = res
        theta = res.theta
    predict, lml = fit(theta)
    fit_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    mean, var = predict(data.X_test)
    predict_time = time.perf_counter() - t0

    full = (mean, var) if name == "fullgp" else (reference or (None, None))
    noise_variance = split_params(kernel, theta)[1].variance
    report = evaluate_predictions(mean, var, data.y_test, noise_variance, lml,
                                  full_mean=full[0], full_var=full[1],
                                  fit_time=fit_time, predict_time=predict_time)
    if name != "fullgp":
        return report, None
    report.kl_to_full = 0.0
    report.err_to_full = 0.0
    return report, (mean, var)


def run_experiment(config: ExperimentConfig | str):
    """Run every (method, repetition) cell and persist results/summary/trace CSVs.

    Per-method failures are recorded with an ``error`` column and never abort
    the sweep; an ``optimize`` value outside none | deterministic | stochastic
    is refused before any method runs.  Returns the list of per-cell result
    dicts.
    """
    cfg = ExperimentConfig.from_file(config) if not isinstance(config, ExperimentConfig) else config
    mode = cfg["optimize"].strip().lower()
    if mode not in _OPTIMIZE_MODES:
        raise ValueError(f"unknown optimize value {cfg['optimize']!r}; "
                         f"expected one of {', '.join(_OPTIMIZE_MODES)}")
    out_dir = Path(cfg["output"])
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = cfg.hash()
    reps = cfg.integer("repetitions")
    base_seed = cfg.integer("seed")

    rows = []
    traces: dict[str, object] = {}
    for rep in range(reps):
        rep_seed = base_seed + rep
        data = _dataset_for_rep(cfg, rep_seed)
        reference = None
        methods = cfg.methods()
        # exact GP first so its predictions can serve as the KL reference
        methods.sort(key=lambda m: 0 if m[0] == "fullgp" else 1)
        for name, arg in methods:
            label = name if arg is None else f"{name}:{arg}"
            row = {"method": label, "rep": rep, "seed": rep_seed, "config": chash}
            try:
                report, ref = run_method(name, arg, cfg, data, rep_seed, reference, traces)
                if ref is not None:
                    reference = ref
                row.update(dict(zip(MetricReport.header(), report.row())))
                row["error"] = ""
            except Exception as exc:  # record and continue with the sweep
                row.update({c: np.nan for c in MetricReport.header()})
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)

    header = ["method", "rep", "seed", "config", *MetricReport.header(), "error"]
    with open(out_dir / "results.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        w.writerows(rows)
    _write_summary(rows, out_dir / "summary.csv")
    for label, res in traces.items():
        with open(out_dir / f"trace_{label}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "objective", "wall_time", "theta..."])
            for r in res.trace_rows():
                w.writerow(r)
    return rows


_SUMMARY_COLUMNS = ["fit_time", "lml", "kl_to_full", "err_to_full", "crps", "rmse",
                    "abse", "nlp", "cov95"]


def _write_summary(rows, path):
    """Aggregate mean and std per method, in the usual table column order."""
    methods = sorted({r["method"] for r in rows})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["method"]
        for col in _SUMMARY_COLUMNS:
            header += [f"{col}_mean", f"{col}_std"]
        w.writerow(header)
        for m in methods:
            vals = [r for r in rows if r["method"] == m and not r["error"]]
            out = [m]
            for col in _SUMMARY_COLUMNS:
                arr = np.array([v[col] for v in vals], dtype=float)
                if arr.size and np.any(np.isfinite(arr)):
                    out += [float(np.nanmean(arr)), float(np.nanstd(arr))]
                else:
                    out += [np.nan, np.nan]
            w.writerow(out)


# ---------------------------------------------------------------------------
# CLI

def main(argv=None) -> int:
    from . import set_num_threads

    set_num_threads()  # CPOE_THREADS, default 1; small blocks thrash threaded BLAS
    parser = argparse.ArgumentParser(prog="bench",
                                     description="GP approximation benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a config file")
    p_run.add_argument("--config", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic GP dataset CSV")
    p_synth.add_argument("--kernel", default="se",
                         help="se | two_se | path to a config file with kernel keys")
    p_synth.add_argument("--n", type=int, default=1024)
    p_synth.add_argument("--d", type=int, default=2)
    p_synth.add_argument("--noise-variance", type=float, default=0.05)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", default="synthetic.csv")

    p_pred = sub.add_parser("predict", help="predict from a saved model")
    p_pred.add_argument("--config", required=True)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True, help="training CSV the model was fit on")
    p_pred.add_argument("--input", required=True, help="CSV of query rows (features only)")
    p_pred.add_argument("--output", default="predictions.csv")
    p_pred.add_argument("--add-noise", action="store_true")
    p_pred.add_argument("--diagnostics", action="store_true",
                        help="append per-expert means/variances/weights")

    args = parser.parse_args(argv)

    if args.command == "run":
        cfg = ExperimentConfig.from_file(args.config)
        rows = run_experiment(cfg)
        failures = [r for r in rows if r["error"]]
        print(f"wrote {len(rows)} result rows to {cfg['output']}/results.csv "
              f"({len(failures)} failures)")
        return 0

    if args.command == "synth":
        if Path(args.kernel).is_file():
            gen = build_kernel(ExperimentConfig.from_file(args.kernel), args.d)
        else:
            gen = _generator_kernel(args.kernel, args.d)
        data = synth_gp_data(gen, args.n, args.d, args.noise_variance, args.seed)
        with open(args.output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{i}" for i in range(args.d)] + ["y"])
            for row, target in zip(data.X, data.y):
                w.writerow([*row, target])
        print(f"wrote {data.N} rows to {args.output}")
        return 0

    if args.command == "predict":
        cfg = ExperimentConfig.from_file(args.config)
        train = load_csv(args.data, cfg["target"], test_fraction=0.0,
                         seed=cfg.integer("seed"), standardize=cfg.flag("standardize"))
        kernel = build_kernel(cfg, train.D)
        model = CpoeModel.load(args.model, train.X, train.y, kernel)
        _, Xq = _read_csv(args.input)
        if Xq.shape[1] != train.D:
            raise ValueError(f"{args.input}: {Xq.shape[1]} columns, the model was trained "
                             f"on {train.D}")
        Xq_std = (Xq - train.x_mean) / train.x_std
        from .prediction import predict_arrays

        mean, var, locals_ = predict_arrays(model, Xq_std, add_noise=args.add_noise,
                                            return_locals=True)
        mean, var = train.destandardize_y(mean), var * train.y_std**2
        experts, l_means, l_vars, l_weights = locals_
        l_means, l_vars = train.destandardize_y(l_means), l_vars * train.y_std**2
        header = [f"x{i}" for i in range(Xq.shape[1])] + ["mean", "variance"]
        if args.diagnostics:
            for j in experts:
                header += [f"mean_{j}", f"variance_{j}", f"weight_{j}"]
        with open(args.output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i, (row, m, v) in enumerate(zip(Xq, mean, var)):
                out = [*row, m, v]
                if args.diagnostics:
                    for e in range(len(experts)):
                        out += [l_means[e, i], l_vars[e, i], l_weights[e, i]]
                w.writerow(out)
        print(f"wrote {len(mean)} predictions to {args.output}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
