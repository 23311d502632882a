"""Deterministic and stochastic hyperparameter estimation and priors."""

import numpy as np
import pytest

from conftest import gp_sample, spread_points
from cpoe import (
    CpoeModel,
    NoiseSpec,
    OptimizerConfig,
    PriorSpec,
    SquaredExponential,
    fit_deterministic,
    fit_stochastic,
    full_params,
    log_prior,
    split_params,
    stochastic_lml_term,
)


class TestLogPrior:
    def test_no_priors_is_zero(self):
        val, grad = log_prior(np.array([0.1, -0.3]), None)
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_quadratic_gradient_vanishes_at_location(self):
        prior = PriorSpec({0: (0.4, 0.7)})
        val, grad = log_prior(np.array([0.4]), prior)
        # only the log-density Jacobian term (-1) survives at u = nu
        assert grad[0] == pytest.approx(-1.0, abs=1e-12)
        assert val == pytest.approx(-0.4 - np.log(0.7 * np.sqrt(2 * np.pi)), abs=1e-12)

    def test_gradient_matches_fd(self):
        prior = PriorSpec({0: (0.2, 0.5), 2: (-0.8, 1.3)})
        theta = np.array([0.9, 0.0, -1.4])
        _, grad = log_prior(theta, prior)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (log_prior(theta + e, prior)[0] - log_prior(theta - e, prior)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_positive_scale_required(self):
        with pytest.raises(ValueError):
            PriorSpec({0: (0.0, -1.0)})


class TestDeterministic:
    def test_stationary_point_returns_immediately(self):
        def objective(theta):
            return 0.0, np.zeros_like(theta)

        res = fit_deterministic(objective, np.array([1.0, 2.0]), OptimizerConfig())
        np.testing.assert_array_equal(res.theta, [1.0, 2.0])
        assert len(res.trace) == 1  # only the initial evaluation

    def test_start_point_evaluated_once(self):
        # the trace's evaluation at theta0 doubles as L-BFGS's first point
        theta0 = np.array([0.3, -0.4])
        seen = []

        def objective(theta):
            seen.append(np.array(theta))
            return -float(theta @ theta), -2.0 * theta

        res = fit_deterministic(objective, theta0, OptimizerConfig(max_iter=5))
        assert sum(np.array_equal(t, theta0) for t in seen) == 1
        assert res.n_evaluations == len(seen)

    def test_quadratic_converges_to_analytic_maximum(self):
        target = np.array([0.7, -1.2])

        def objective(theta):
            diff = theta - target
            return -float(diff @ diff), -2.0 * diff

        res = fit_deterministic(objective, np.zeros(2), OptimizerConfig())
        np.testing.assert_allclose(res.theta, target, atol=1e-8)
        assert res.converged

    def test_no_successful_evaluation_is_not_converged(self):
        calls = []

        def objective(theta):
            calls.append(theta)
            raise np.linalg.LinAlgError(f"pivot {len(calls)} not positive definite")

        theta0 = np.array([0.3, -0.4])
        res = fit_deterministic(objective, theta0, OptimizerConfig(max_iter=5))
        assert not res.converged
        assert res.message == (f"no objective evaluation succeeded in {len(calls)}; the first "
                               "failed with LinAlgError: pivot 1 not positive definite")
        np.testing.assert_array_equal(res.theta, theta0)
        assert res.value == -np.inf and len(res.failures) == res.n_evaluations == len(calls)

    def test_objective_never_below_start(self, rng):
        X = spread_points(48, 2, rng)
        kern = SquaredExponential.create(0.5, [0.3, 0.3])
        noise = NoiseSpec.create(0.3)
        y, _ = gp_sample(SquaredExponential.create(1.0, [0.1, 0.1]), X, 0.05, rng)
        model = CpoeModel(kern, noise, J=4, C=2, gamma=0.5, seed=0).fit(X, y)

        def objective(theta):
            model.set_params(theta)
            return model.log_marginal_likelihood(), model.lml_gradient()

        start = model.log_marginal_likelihood()
        res = fit_deterministic(objective, model.get_params(),
                                OptimizerConfig(max_iter=25))
        assert res.value >= start
        # iteration trace is monotone up to line-search tolerance
        objs = [row[1] for row in res.trace]
        for a, b in zip(objs, objs[1:]):
            assert b >= a - 1e-6 * max(abs(a), 1.0)

    def test_non_finite_start_raises(self):
        def objective(theta):
            return np.nan, np.zeros_like(theta)

        with pytest.raises(ArithmeticError):
            fit_deterministic(objective, np.zeros(2), OptimizerConfig())

    @pytest.mark.parametrize("fault,reason", [
        (np.linalg.LinAlgError("matrix not positive definite"),
         "LinAlgError: matrix not positive definite"),
        (None, "non-finite value nan")])
    def test_failed_evaluations_recorded_and_logged(self, fault, reason, caplog):
        # the maximum at 3 lies beyond theta = 1, where every evaluation fails
        seen = []

        def objective(theta):
            seen.append(float(theta[0]))
            if theta[0] > 1.0:
                if fault is not None:
                    raise fault
                return np.nan, np.zeros_like(theta)
            return -float((theta[0] - 3.0) ** 2), np.array([-2.0 * (theta[0] - 3.0)])

        with caplog.at_level("WARNING", logger="cpoe.training"):
            res = fit_deterministic(objective, np.zeros(1), OptimizerConfig(max_iter=20))
        expected = [n for n, t in enumerate(seen, 1) if t > 1.0]
        assert expected
        assert res.failures == [(n, reason) for n in expected]
        warned = [r for r in caplog.records if r.name == "cpoe.training"]
        assert [r.levelname for r in warned] == ["WARNING"] * len(expected)
        assert res.theta[0] <= 1.0 and res.value == pytest.approx(-4.0, abs=0.1)

    def test_no_failures_recorded_by_default(self):
        res = fit_deterministic(lambda t: (-float(t @ t), -2.0 * t), np.ones(1),
                                OptimizerConfig())
        assert res.failures == []
        assert fit_stochastic(lambda j, t, g: (-float(t @ t), -2.0 * t), 1, np.ones(1),
                              OptimizerConfig(max_epochs=2)).failures == []

    def test_map_adds_prior(self):
        prior = PriorSpec({0: (0.0, 0.1)})  # tight prior pinning theta_0 near 0

        def objective(theta):
            return -float((theta[0] - 2.0) ** 2), np.array([-2.0 * (theta[0] - 2.0)])

        res_lml = fit_deterministic(objective, np.zeros(1), OptimizerConfig())
        res_map = fit_deterministic(objective, np.zeros(1), OptimizerConfig(), prior)
        assert res_lml.theta[0] == pytest.approx(2.0, abs=1e-6)
        assert res_map.theta[0] < 0.5

    def test_map_identity_value(self):
        # the MAP objective equals likelihood plus log prior at every theta
        prior = PriorSpec({0: (0.3, 0.6)})

        def objective(theta):
            return -float(theta @ theta), -2.0 * theta

        theta = np.array([0.8])
        val, _ = objective(theta)
        pv, _ = log_prior(theta, prior)
        res = fit_deterministic(objective, theta, OptimizerConfig(max_iter=0), prior)
        assert res.trace[0][1] == pytest.approx(val + pv, abs=1e-12)


class TestStochastic:
    def test_single_term_reduces_to_full_batch(self):
        target = 1.5

        def term(j, theta, with_grad):
            d = theta[0] - target
            return -d * d, np.array([-2 * d])

        res = fit_stochastic(term, 1, np.zeros(1),
                             OptimizerConfig(learning_rate=0.05, max_epochs=400,
                                             tolerance=1e-12))
        assert res.theta[0] == pytest.approx(target, abs=0.05)

    def test_epoch_objective_equals_direct_sum(self, rng):
        X = spread_points(40, 2, rng)
        kern = SquaredExponential.create(1.0, [0.15, 0.15])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, rng)
        model = CpoeModel(kern, noise, J=4, C=2, gamma=1.0, seed=0).fit(X, y)
        graph = model.graph

        def term(j, theta, with_grad):
            k2, n2 = split_params(kern, theta)
            return stochastic_lml_term(graph, k2, n2, j, y[graph.row_indices[j]],
                                       with_grad=with_grad)

        const = -0.5 * 40 * np.log(2 * np.pi)
        res = fit_stochastic(term, 4, full_params(kern, noise),
                             OptimizerConfig(max_epochs=3, tolerance=1e-12), constant=const)
        for _, obj, _, theta in res.trace:
            direct = const + sum(term(j, theta, False)[0] for j in range(4))
            assert obj == pytest.approx(direct, abs=1e-9)

    def test_epoch_objective_asks_for_values_only(self):
        asked = []

        def term(j, theta, with_grad):
            asked.append(with_grad)
            d = theta[0] - j
            return -d * d, np.array([-2 * d]) if with_grad else None

        fit_stochastic(term, 3, np.zeros(1),
                       OptimizerConfig(max_epochs=2, tolerance=1e-15))
        # the start objective, then per epoch three steps and the epoch objective
        assert asked == [False] * 3 + ([True] * 3 + [False] * 3) * 2

    def test_seeded_runs_bit_reproducible(self):
        def term(j, theta, with_grad):
            d = theta[0] - j
            return -d * d, np.array([-2 * d])

        cfg = OptimizerConfig(max_epochs=5, seed=42, tolerance=1e-15)
        r1 = fit_stochastic(term, 3, np.zeros(1), cfg)
        r2 = fit_stochastic(term, 3, np.zeros(1), cfg)
        np.testing.assert_array_equal(r1.theta, r2.theta)
        assert [t[1] for t in r1.trace] == [t[1] for t in r2.trace]

    def test_divergence_reverts_to_best(self):
        calls = {"n": 0}

        def term(j, theta, with_grad):
            calls["n"] += 1
            return -float(theta[0] ** 2), np.array([100.0])  # gradient pushes away

        res = fit_stochastic(term, 1, np.zeros(1),
                             OptimizerConfig(learning_rate=1.0, max_epochs=50,
                                             tolerance=1e-15))
        assert "reverted" in res.message
        assert res.theta[0] == pytest.approx(0.0)

    def test_prior_contributes_per_term(self):
        prior = PriorSpec({0: (0.0, 0.05)})

        def term(j, theta, with_grad):
            return float(theta[0]), np.array([1.0])  # always push up

        res = fit_stochastic(term, 4, np.zeros(1),
                             OptimizerConfig(learning_rate=0.05, max_epochs=100,
                                             tolerance=1e-15), prior)
        # tight prior must hold the parameter near zero against the drift
        assert abs(res.theta[0]) < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)


class TestCompositeKernelMap:
    def test_map_fit_with_composite_kernel_and_priors(self):
        # time-series-style setup: periodic + spectral-mixture + SE components
        # over (time, covariate) inputs, with log-normal priors on a few scales
        from cpoe import Periodic, SpectralMixture

        rng = np.random.default_rng(77)
        N = 96
        t = np.linspace(0, 3, N)
        x2 = rng.normal(size=N) * 0.3
        X = np.stack([t, x2], axis=1)
        y = (0.6 * np.sin(2 * np.pi * t) + 0.3 * x2 + 0.1 * rng.normal(size=N))

        kern = (Periodic.create(0.5, 1.0, 1.0, active_dims=[0])
                + SpectralMixture.create([0.3], [0.5], [0.5], active_dims=[0])
                + SquaredExponential.create(0.3, [1.0, 1.0]))
        noise = NoiseSpec.create(0.1)
        model = CpoeModel(kern, noise, J=2, C=2, gamma=1.0, seed=0).fit(X, y)
        prior = PriorSpec({2: (0.0, 0.5)})  # log-normal prior on the period

        def objective(theta):
            model.set_params(theta)
            return model.log_marginal_likelihood(), model.lml_gradient()

        start = model.log_marginal_likelihood() + log_prior(model.get_params(), prior)[0]
        res = fit_deterministic(objective, model.get_params(),
                                OptimizerConfig(max_iter=30), prior)
        assert np.isfinite(res.value)
        assert res.value >= start
        # the fitted period stays near the prior location (period ~ 1)
        assert abs(res.theta[2]) < 1.0


class TestRecovery:
    def test_lengthscale_recovered_within_factor_two(self):
        # generative-recovery oracle: data from a known kernel, optimized
        # lengthscales land within a factor 2 across seeds
        true_ls, true_var, true_noise = 0.12, 1.0, 0.05
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            X = spread_points(256, 2, rng)
            gen = SquaredExponential.create(true_var, [true_ls, true_ls])
            y, _ = gp_sample(gen, X, true_noise, rng)
            kern = SquaredExponential.create(0.5, [0.2, 0.2])
            noise = NoiseSpec.create(0.2)
            model = CpoeModel(kern, noise, J=4, C=2, gamma=0.5, seed=seed).fit(X, y)

            def objective(theta):
                model.set_params(theta)
                return model.log_marginal_likelihood(), model.lml_gradient()

            res = fit_deterministic(objective, model.get_params(),
                                    OptimizerConfig(max_iter=60))
            ls_hat = np.exp(res.theta[1:3])
            assert np.all(ls_hat < 2 * true_ls) and np.all(ls_hat > true_ls / 2)
