"""Data ingestion, experiment configuration and the sweep harness."""

import csv
import re
import subprocess
import sys

import numpy as np
import pytest

from cpoe import CpoeModel, FullGp, SparseGp, SquaredExponential, full_params
from cpoe.bench import (
    ExperimentConfig,
    build_kernel,
    load_csv,
    main,
    run_experiment,
    synth_gp_data,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


class TestLoadCsv:
    def test_toy_file_exact_values(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_csv(p, ["a", "b", "y"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        d = load_csv(p, "y", test_fraction=0.0, seed=0, standardize=False)
        assert d.N == 3 and d.D == 2
        rows = {tuple(x) + (t,) for x, t in zip(d.X, d.y)}
        assert rows == {(1, 2, 3), (4, 5, 6), (7, 8, 9)}

    def test_target_by_name_and_position(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_csv(p, ["a", "y", "b"], [[1, 9, 2], [3, 8, 4]])
        d = load_csv(p, "y", test_fraction=0.0, standardize=False)
        assert set(d.y.tolist()) == {9, 8}
        d2 = load_csv(p, 1, test_fraction=0.0, standardize=False)
        assert set(d2.y.tolist()) == {9, 8}

    def test_standardize_round_trip(self, tmp_path, rng):
        p = tmp_path / "data.csv"
        raw = rng.normal(size=(50, 3)) * np.array([2.0, 5.0, 0.3]) + 1.0
        write_csv(p, ["a", "b", "y"], raw.tolist())
        d = load_csv(p, "y", test_fraction=0.2, seed=3)
        # training columns standardized with training statistics
        assert abs(d.X.mean(axis=0)).max() < 1e-12
        np.testing.assert_allclose(d.X.std(axis=0), 1.0, atol=1e-12)
        # destandardizing recovers the original targets exactly (round trip)
        back = np.sort(np.concatenate([d.destandardize_y(d.y),
                                       d.destandardize_y(d.y_test)]))
        np.testing.assert_allclose(back, np.sort(raw[:, 2]), atol=1e-12)

    def test_seeded_split_reproducible(self, tmp_path, rng):
        p = tmp_path / "data.csv"
        write_csv(p, ["a", "y"], rng.normal(size=(30, 2)).tolist())
        d1 = load_csv(p, "y", test_fraction=0.3, seed=11)
        d2 = load_csv(p, "y", test_fraction=0.3, seed=11)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.y_test, d2.y_test)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p, "y")

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,2\nfoo,3\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p, "y")

    def test_missing_target_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="target"):
            load_csv(p, "z")


class TestSynthData:
    def test_seeded_reproducible(self):
        k = SquaredExponential.create(1.0, [0.2, 0.2])
        d1 = synth_gp_data(k, 64, 2, 0.0, seed=5)
        d2 = synth_gp_data(k, 64, 2, 0.0, seed=5)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_two_point_covariance_monte_carlo(self):
        # sample covariance over many independent draws matches the kernel
        k = SquaredExponential.create(1.0, [0.5])
        cov_target = k(np.array([[0.0], [0.3]]))
        draws = []
        for s in range(4000):
            rng = np.random.default_rng(s)
            chol = np.linalg.cholesky(cov_target + 1e-12 * np.eye(2))
            draws.append(chol @ rng.normal(size=2))
        emp = np.cov(np.array(draws).T)
        assert np.abs(emp - cov_target).max() / np.abs(cov_target).max() < 0.05

    def test_cap_guard(self):
        k = SquaredExponential.create(1.0, [0.2])
        with pytest.raises(ValueError):
            synth_gp_data(k, 100, 1, 0.0, seed=0, cap=50)

    def test_documented_generator_config(self):
        # the two-SE generator with short/long lengthscales and its amplitudes
        gen = (SquaredExponential.create(0.2, [0.125, 0.125])
               + SquaredExponential.create(1.1, [0.5, 0.5]))
        assert gen.diag(np.zeros((1, 2)))[0] == pytest.approx(1.3)
        d = synth_gp_data(gen, 256, 2, 0.05, seed=1, n_test=50)
        assert d.N == 256 and d.X_test.shape == (50, 2)
        assert np.var(d.y) > 0.3  # both components contribute signal


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("# comment\nmethods = fullgp, cpoe:1, cpoe:2\nj = 4\n")
        cfg = ExperimentConfig.from_file(p)
        assert cfg.methods == (("fullgp", None), ("cpoe", 1), ("cpoe", 2))
        assert cfg.j == 4
        assert cfg.gamma == 1.0  # default

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("nonsense = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("line", ["objective = map", "plot = true"])
    def test_removed_keys_rejected(self, tmp_path, line):
        p = tmp_path / "exp.cfg"
        p.write_text(f"methods = cpoe:2\n{line}\n")
        with pytest.raises(ValueError, match=f"exp.cfg:2: unknown key '{line.split()[0]}'"):
            ExperimentConfig.from_file(p)

    # each value is refused on its own line, after a valid line choosing the
    # one variant that reads alpha_pep
    @pytest.mark.parametrize("line", [
        "j = eight", "j = 8.5", "kernel = sse", "variant = fitcc", "synthetic = sinc",
        "standardize = ture", "methods = krig, cpoe:1", "methods = cpoe:x",
        "methods = cpoe:0", "methods = minvar:4", "methods = ,", "alpha_pep = 1.5",
    ])
    def test_bad_value_refused_with_file_line_and_key(self, tmp_path, line):
        p = tmp_path / "exp.cfg"
        p.write_text(f"variant = pep\n{line}\n")
        key, value = (part.strip() for part in line.split("="))
        with pytest.raises(ValueError, match=re.escape(f"exp.cfg:2: {key} = '{value}': ")):
            ExperimentConfig.from_file(p)

    def test_hash_stable_and_sensitive(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("j = 4\n")
        h1 = ExperimentConfig.from_file(p).hash()
        h2 = ExperimentConfig.from_file(p).hash()
        p.write_text("j = 8\n")
        h3 = ExperimentConfig.from_file(p).hash()
        assert h1 == h2 != h3
        assert h1 == "77b7fcd434c8"  # a canonically spelled config keeps its hash

    def test_hash_ignores_output_and_explicit_defaults(self, tmp_path):
        p = tmp_path / "exp.cfg"
        hashes = set()
        for extra in ("", "output = elsewhere\n", "j = 8\n", "j = 8.0\n", "gamma = 1\n",
                      "methods = fullgp,cpoe:2\n", "standardize = yes\n"):
            p.write_text(f"n = 64\n{extra}")
            hashes.add(ExperimentConfig.from_file(p).hash())
        assert len(hashes) == 1

    def test_build_kernel_variants(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("kernel = composite\nsm_components = 2\n")
        cfg = ExperimentConfig.from_file(p)
        k = build_kernel(cfg, 3)
        assert k.n_params == 3 + 3 + 6 + 4  # periodic x2, SM(2), SE-ARD(3)


class TestRunExperiment:
    def _config(self, tmp_path, text):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        return ExperimentConfig.from_file(p)

    def test_fullgp_only_self_kl_zero(self, tmp_path):
        cfg = self._config(tmp_path, f"""
            synthetic = se
            n = 64
            d = 2
            n_test = 20
            methods = fullgp
            output = {tmp_path}/out
        """)
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0]["kl_to_full"] == 0.0
        assert (tmp_path / "out" / "results.csv").exists()
        assert not (tmp_path / "out" / "timing.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_unknown_optimize_refused_before_any_method(self, tmp_path, monkeypatch):
        import cpoe.bench as bench

        ran = []
        monkeypatch.setattr(bench, "run_method", lambda *a, **k: ran.append(a))
        p = tmp_path / "exp.cfg"
        p.write_text(f"""
            synthetic = se
            n = 64
            methods = fullgp, cpoe:2
            optimize = stochastc
            output = {tmp_path}/out
        """)
        with pytest.raises(ValueError, match="exp.cfg:5: optimize = 'stochastc': "):
            main(["run", "--config", str(p)])
        assert ran == []
        assert not (tmp_path / "out").exists()

    def test_kl_non_increasing_in_degree(self, tmp_path):
        cfg = self._config(tmp_path, f"""
            synthetic = se
            n = 256
            d = 2
            n_test = 60
            j = 4
            gamma = 0.5
            kernel = se
            lengthscale = 0.15
            noise_init = 0.05
            methods = fullgp, cpoe:1, cpoe:2, cpoe:3, cpoe:4
            output = {tmp_path}/out
        """)
        rows = run_experiment(cfg)
        assert all(r["error"] == "" for r in rows)
        kls = [r["kl_to_full"] for r in rows if r["method"].startswith("cpoe")]
        for a, b in zip(kls, kls[1:]):
            assert b <= a * 1.05 + 1e-9

    def test_method_failures_recorded_not_raised(self, tmp_path, rng):
        data = tmp_path / "data.csv"
        write_csv(data, ["a", "y"], rng.normal(size=(40, 2)).tolist())
        cfg = self._config(tmp_path, f"""
            data = {data}
            target = y
            test_fraction = 0.2
            dense_cap = 8
            methods = fullgp, cpoe:1
            j = 2
            output = {tmp_path}/out
        """)
        rows = run_experiment(cfg)
        full_row = [r for r in rows if r["method"] == "fullgp"][0]
        assert "exceeds the dense cap" in full_row["error"]
        cpoe_row = [r for r in rows if r["method"] == "cpoe:1"][0]
        assert cpoe_row["error"] == ""

    def test_results_schema_and_hash(self, tmp_path):
        cfg = self._config(tmp_path, f"""
            synthetic = se
            n = 48
            d = 2
            n_test = 10
            j = 2
            methods = cpoe:1
            repetitions = 2
            output = {tmp_path}/out
        """)
        run_experiment(cfg)
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["config"] == cfg.hash()
        assert {"method", "rep", "seed", "kl_to_full", "crps", "rmse", "abse", "nlp",
                "cov95", "lml", "fit_time", "predict_time", "error"} <= set(rows[0])
        assert rows[0]["seed"] != rows[1]["seed"]

    @pytest.mark.parametrize("variant, optimize", [
        pytest.param(variant, optimize, id=optimize if variant == "fitc" else f"pitc-{optimize}")
        for variant in ("fitc", "pitc") for optimize in ("none", "deterministic", "stochastic")])
    def test_every_method_in_every_optimize_mode(self, tmp_path, variant, optimize):
        epochs = 2
        cfg = self._config(tmp_path, f"""
            synthetic = se
            n = 256
            d = 2
            n_test = 40
            j = 4
            gamma = 0.5
            variant = {variant}
            optimize = {optimize}
            max_iter = 5
            epochs = {epochs}
            tolerance = 1e-12
            methods = fullgp, sgp:20, minvar, gpoe, cpoe:1, cpoe:2
            output = {tmp_path}/out
        """)
        rows = run_experiment(cfg)
        assert [r["method"] for r in rows] == ["fullgp", "sgp:20", "minvar", "gpoe",
                                               "cpoe:1", "cpoe:2"]
        for r in rows:
            assert r["error"] == "", r
            assert np.isfinite(r["lml"]), r
        traces = sorted(p.name for p in (tmp_path / "out").glob("trace_*.csv"))
        labels = ["fullgp", "sgp_20", "minvar", "gpoe", "cpoe_1", "cpoe_2"]
        expected = [] if optimize == "none" else sorted(f"trace_{x}.csv" for x in labels)
        assert traces == expected
        if optimize == "stochastic":
            # Adam trains the cpoe:* methods only; the others keep L-BFGS
            for label in labels:
                with open(tmp_path / "out" / f"trace_{label}.csv", newline="") as fh:
                    n_rows = len(list(csv.reader(fh))) - 1
                assert (n_rows == epochs + 1) == label.startswith("cpoe"), (label, n_rows)

    def test_trace_objective_is_the_lml(self, tmp_path):
        # every L-BFGS objective is its model's log marginal likelihood, so the
        # best row of a trace is the result row's lml
        cfg = self._config(tmp_path, f"""
            synthetic = two_se
            n = 128
            d = 2
            n_test = 20
            j = 4
            optimize = deterministic
            max_iter = 5
            methods = fullgp, sgp:20, minvar, gpoe, cpoe:2
            output = {tmp_path}/out
        """)
        rows = run_experiment(cfg)
        for row, label in zip(rows, ["fullgp", "sgp_20", "minvar", "gpoe", "cpoe_2"]):
            assert row["error"] == "", row
            with open(tmp_path / "out" / f"trace_{label}.csv", newline="") as fh:
                best = max(float(r["objective"]) for r in csv.DictReader(fh))
            assert best == pytest.approx(row["lml"], rel=1e-9), label

    # L-BFGS starts from the trace's evaluation at theta0, where the model is
    # already fitted
    # (the number of L-BFGS steps depends on rounding, so only its floor is fixed)
    @pytest.mark.parametrize("optimize, refits", [("none", 1), ("deterministic", None),
                                                  ("stochastic", 2)])
    def test_cpoe_refits_only_where_theta_moves(self, tmp_path, monkeypatch, optimize,
                                                refits):
        thetas = []
        refit = CpoeModel._refit

        def counted(model):
            thetas.append(model.get_params().copy())
            refit(model)

        monkeypatch.setattr(CpoeModel, "_refit", counted)
        cfg = self._config(tmp_path, f"""
            synthetic = se
            n = 128
            d = 2
            n_test = 20
            j = 4
            gamma = 0.5
            optimize = {optimize}
            max_iter = 5
            epochs = 2
            tolerance = 1e-12
            methods = cpoe:2
            output = {tmp_path}/out
        """)
        assert run_experiment(cfg)[0]["error"] == ""
        # the fit at theta0, then (L-BFGS or Adam) one refit per new theta
        assert sum(np.array_equal(t, thetas[0]) for t in thetas) == 1
        assert len(thetas) == refits if refits else len(thetas) > 2
        for before, after in zip(thetas, thetas[1:]):
            assert not np.array_equal(before, after)

    # fullgp and sgp are rebuilt from scratch at each theta; L-BFGS starts from
    # the trace's evaluation at theta0 and the final fit at the last evaluated
    # theta reuses that model, so no two consecutive fits share a theta
    @pytest.mark.parametrize("method, cls", [("fullgp", FullGp), ("sgp:20", SparseGp)])
    def test_rebuilt_methods_fit_once_per_theta(self, tmp_path, monkeypatch, method, cls):
        thetas = []
        fit = cls.fit

        def counted(model, X, y):
            thetas.append(full_params(model.kernel, model.noise))
            return fit(model, X, y)

        monkeypatch.setattr(cls, "fit", counted)
        cfg = self._config(tmp_path, f"""
            synthetic = se
            n = 64
            d = 2
            n_test = 20
            optimize = deterministic
            max_iter = 3
            methods = {method}
            output = {tmp_path}/out
        """)
        assert run_experiment(cfg)[0]["error"] == ""
        assert len(thetas) > 2
        assert sum(np.array_equal(t, thetas[0]) for t in thetas) == 1
        for before, after in zip(thetas, thetas[1:]):
            assert not np.array_equal(before, after)


class TestCli:
    def test_synth_then_run_roundtrip(self, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["synth", "--kernel", "se", "--n", "64", "--d", "2",
                     "--seed", "3", "--output", str(data)]) == 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"""
            data = {data}
            target = y
            test_fraction = 0.2
            j = 2
            methods = cpoe:1
            output = {tmp_path}/out
        """)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    @staticmethod
    def _predict_args(tmp_path):
        """``bench predict`` arguments up to ``--input``, for a model saved on
        two-column training data."""
        from cpoe import NoiseSpec

        data = tmp_path / "data.csv"
        main(["synth", "--n", "64", "--d", "2", "--output", str(data)])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {data}\ntarget = y\ntest_fraction = 0.0\nj = 2\n"
                       f"output = {tmp_path}/out\n")
        econf = ExperimentConfig.from_file(cfg)
        train = load_csv(data, "y", test_fraction=0.0, seed=0)
        kern = build_kernel(econf, train.D)
        model = CpoeModel(kern, NoiseSpec.create(0.1), J=2, C=1, gamma=1.0, seed=0)
        model.fit(train.X, train.y)
        model.save(tmp_path / "model.npz")
        return ["predict", "--config", str(cfg), "--model", str(tmp_path / "model.npz"),
                "--data", str(data)]

    def test_predict_subcommand(self, tmp_path, rng):
        args = self._predict_args(tmp_path)
        queries = tmp_path / "queries.csv"
        write_csv(queries, ["x0", "x1"], rng.uniform(0, 1, (5, 2)).tolist())
        out = tmp_path / "preds.csv"
        assert main(args + ["--input", str(queries), "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            preds = list(csv.DictReader(fh))
        assert len(preds) == 5 and "mean" in preds[0] and "variance" in preds[0]
        # per-expert diagnostics are optional extra columns
        assert main(args + ["--input", str(queries), "--output", str(out),
                            "--diagnostics"]) == 0
        with open(out, newline="") as fh:
            preds = list(csv.DictReader(fh))
        assert "mean_0" in preds[0] and "weight_1" in preds[0]

    @pytest.mark.parametrize("text,message", [
        ("x0\n0.1\n0.5\n", r"queries\.csv: 1 columns, the model was trained on 2"),
        ("", r"queries\.csv: empty file, no header row"),
        ("x0,x1\n", r"queries\.csv: no data rows"),
        ("x0,x1\n0.1,0.2\n0.3\n", r"queries\.csv: row 3 has 1 cells, header has 2"),
    ], ids=["narrow", "empty", "header-only", "ragged"])
    def test_predict_refuses_malformed_query_file(self, tmp_path, text, message):
        args = self._predict_args(tmp_path)
        queries, out = tmp_path / "queries.csv", tmp_path / "preds.csv"
        queries.write_text(text)
        with pytest.raises(ValueError, match=message):
            main(args + ["--input", str(queries), "--output", str(out)])
        assert not out.exists()

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "cpoe.bench", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "synth" in out.stdout and "run" in out.stdout

    def test_synth_refuses_unknown_generator(self, tmp_path):
        out = tmp_path / "data.csv"
        with pytest.raises(ValueError, match=r"'sinc' is not one of 'se', 'two_se', 'se\+se'"):
            main(["synth", "--kernel", "sinc", "--n", "8", "--output", str(out)])
        assert not out.exists()

    def test_synth_accepts_kernel_config_file(self, tmp_path):
        kcfg = tmp_path / "kernel.cfg"
        kcfg.write_text("kernel = se\nvariance = 2.0\nlengthscale = 0.3\n")
        out = tmp_path / "data.csv"
        assert main(["synth", "--kernel", str(kcfg), "--n", "32", "--d", "1",
                     "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32


class TestHarnessOverhead:
    def test_overhead_small_relative_to_fits(self, tmp_path):
        # sweep wall time is dominated by the method fits themselves
        import time

        from cpoe.bench import _dataset_for_rep

        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"""
            synthetic = se
            n = 1500
            d = 2
            n_test = 100
            j = 4
            methods = fullgp, cpoe:2
            output = {tmp_path}/out
        """)
        cfg = ExperimentConfig.from_file(cfg_path)
        t0 = time.perf_counter()
        data_time = 0.0
        _dataset_for_rep(cfg, cfg.seed)
        data_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        rows = run_experiment(cfg)
        total = time.perf_counter() - t0
        method_time = sum(r["fit_time"] + r["predict_time"] for r in rows)
        overhead = total - method_time - data_time
        assert overhead < 0.05 * total + 0.05  # small slack for CSV writing
