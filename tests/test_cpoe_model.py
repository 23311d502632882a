"""Factors, prior/posterior precision, marginal likelihood and its gradient."""

import dataclasses
import logging
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrtri

from conftest import (
    capture_partial_inverse,
    consecutive_graph,
    dense_lml,
    dense_local_factors,
    dense_posterior,
    dense_prior_precision,
    gp_sample,
    predecessors,
    spread_points,
    to_dense,
    transition_noise,
)
from cpoe import (
    CpoeModel,
    ExpertGraph,
    FullGp,
    NoiseSpec,
    Periodic,
    ProductOfExperts,
    SpectralMixture,
    SquaredExponential,
    VariantSpec,
    assemble_prior_precision,
    full_params,
    prior_kl_difference,
    split_params,
    stochastic_lml_term,
)
from cpoe import cpoe_model
from cpoe.block_sparse import FactorizationError, SymbolicFactor
from cpoe.kernels import jittered_cholesky
from cpoe.prediction import predict_arrays


def make_setup(rng, N=48, D=2, J=4, C=2, gamma=0.5, ls=0.08, noise_var=0.1, seed=0):
    X = spread_points(N, D, rng)
    kern = SquaredExponential.create(1.2, [ls] * D)
    noise = NoiseSpec.create(noise_var)
    y, _ = gp_sample(kern, X, noise_var, rng)
    model = CpoeModel(kern, noise, J=J, C=C, gamma=gamma, seed=seed).fit(X, y)
    return model, kern, noise, X, y


class TestLocalFactors:
    def test_first_expert_has_no_transition(self, rng):
        model, kern, *_ = make_setup(rng)
        e0 = model.factors.experts[0]
        assert e0.F is None
        np.testing.assert_allclose(transition_noise(e0), kern(model.graph.inducing_inputs[0]),
                                   atol=1e-12)

    def test_factor_formulas_match_dense(self, rng):
        model, kern, *_ = make_setup(rng)
        oracle = dense_local_factors(model.graph, kern)
        for e, (F, Q, H, D) in zip(model.factors.experts, oracle):
            if F is not None:
                np.testing.assert_allclose(e.F, F, atol=1e-8)
            np.testing.assert_allclose(transition_noise(e), Q, atol=1e-8)
            np.testing.assert_allclose(e.H, H, atol=1e-8)
            np.testing.assert_allclose(e.D, np.diag(D), atol=1e-8)

    @pytest.mark.parametrize("kern", [
        SquaredExponential.create(1.2, [0.15, 0.2]),
        Periodic.create(0.7, 0.9, 1.3, active_dims=[0])
        + SquaredExponential.create(1.0, [0.2, 0.3]),
        SpectralMixture.create([0.5, 1.1], [0.8, 2.0], [0.4, 1.5], active_dims=[0])
        + SquaredExponential.create(1.0, [0.2, 0.3]),
    ], ids=["se", "periodic+se", "sm+se"])
    def test_transition_slices_match_separate_kernel_calls(self, kern, rng):
        # F, inv_Q and inv_pipi come from slices of K(A_psi); they must equal, bit
        # for bit, the factors built from separate kernel calls per block
        X = spread_points(128, 2, rng)
        model = CpoeModel(kern, NoiseSpec.create(0.1), J=8, C=3, gamma=0.5,
                          seed=0).fit(X, rng.normal(size=128))
        g = model.graph
        for j, e in enumerate(model.factors.experts):
            A_self = g.inducing_inputs[j]
            K_aa = kern(A_self)
            pred = predecessors(g, j)
            if pred.size:
                A_pred = np.vstack([g.inducing_inputs[p] for p in pred])
                inv_pipi = np.tril(dtrtri(jittered_cholesky(kern(A_pred))[0], lower=1)[0])
                K_api = kern(A_self, A_pred)
                F = (K_api @ inv_pipi.T) @ inv_pipi
                Q = K_aa - K_api @ F.T
                Q = 0.5 * (Q + Q.T)
                np.testing.assert_array_equal(e.inv_pipi, inv_pipi)
                np.testing.assert_array_equal(e.F, F)
            else:
                assert e.F is None and e.inv_pipi is None
                Q = K_aa
            chol_Q = jittered_cholesky(Q, scale=float(np.mean(np.diag(K_aa))))[0]
            np.testing.assert_array_equal(e.inv_Q, np.tril(dtrtri(chol_Q, lower=1)[0]))

    def test_full_conditioning_kills_residual(self, rng):
        # gamma = 1 and C = J: the projection conditions on the expert's own
        # points, so the residual covariance vanishes
        model, *_ = make_setup(rng, N=32, J=4, C=4, gamma=1.0)
        for e in model.factors.experts:
            assert e.vbar.ndim == 1 and np.abs(e.vbar).max() < 1e-8

    def test_vfe_variant_correction(self, rng):
        rngs = np.random.default_rng(0)
        X = spread_points(40, 2, rngs)
        kern = SquaredExponential.create(1.0, [0.08, 0.08])
        noise = NoiseSpec.create(0.2)
        y = rngs.normal(size=40)
        m = CpoeModel(kern, noise, J=4, C=2, gamma=0.5,
                      variant=VariantSpec("vfe"), seed=0).fit(X, y)
        for e, (_, _, _, D) in zip(m.factors.experts, dense_local_factors(m.graph, kern)):
            assert e.vbar.ndim == 1 and np.all(e.vbar == 0.0)
            assert e.lam == pytest.approx(np.trace(D) / (2 * 0.2), rel=1e-8)

    def test_pitc_keeps_full_block(self, rng):
        model_setup = make_setup(rng)
        X, y = model_setup[3], model_setup[4]
        kern, noise = model_setup[1], model_setup[2]
        m = CpoeModel(kern, noise, J=4, C=2, gamma=0.5,
                      variant=VariantSpec("pitc"), seed=0).fit(X, y)
        for e, rows in zip(m.factors.experts, m.graph.row_indices):
            assert e.vbar.shape == (rows.size, rows.size)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            VariantSpec("nope")
        with pytest.raises(ValueError):
            VariantSpec("pep", alpha_pep=0.0)


class TestPriorPrecision:
    def test_matches_dense_assembly(self, rng):
        model, kern, *_ = make_setup(rng)
        np.testing.assert_allclose(to_dense(assemble_prior_precision(model.factors)),
                                   dense_prior_precision(model.graph, kern), atol=1e-7)

    def test_full_degree_inverts_to_kernel_matrix(self, rng):
        model, kern, *_ = make_setup(rng, N=32, J=4, C=4, gamma=1.0)
        A = np.vstack(model.graph.inducing_inputs)
        S = to_dense(assemble_prior_precision(model.factors))
        np.testing.assert_allclose(np.linalg.inv(S), kern(A), atol=1e-8)

    def test_trace_identity_all_degrees(self, rng):
        # the prior precision is exact on the diagonal: tr(S K) = J L
        for t in range(5):
            r2 = np.random.default_rng(t)
            J = int(r2.choice([2, 4]))
            gamma = float(r2.choice([0.5, 1.0]))
            X = spread_points(J * 8, 2, r2)
            kern = SquaredExponential.create(1.0 + r2.uniform(0, 1), [0.06, 0.06])
            noise = NoiseSpec.create(0.1)
            for C in range(1, J + 1):
                m = CpoeModel(kern, noise, J=J, C=C, gamma=gamma, seed=t)
                m.fit(X, r2.normal(size=X.shape[0]))
                A = np.vstack(m.graph.inducing_inputs)
                S = to_dense(assemble_prior_precision(m.factors))
                assert abs(np.trace(S @ kern(A)) - m.graph.M) < 1e-8

    def test_density_matches_conditional_product(self, rng):
        # log N(a; 0, S^{-1}) must equal the sum of the transition conditionals
        model, kern, *_ = make_setup(rng, N=36, J=4, C=2, gamma=0.5, ls=0.1)
        g = model.graph
        S = to_dense(assemble_prior_precision(model.factors))
        sign, logdet_S = np.linalg.slogdet(S)
        assert sign > 0
        oracle = dense_local_factors(g, kern)
        L = g.L
        for _ in range(10):
            a = rng.normal(size=g.M)
            lhs = 0.5 * logdet_S - 0.5 * g.M * np.log(2 * np.pi) - 0.5 * a @ S @ a
            rhs = 0.0
            for j, (F, Q, _, _) in enumerate(oracle):
                a_j = a[j * L:(j + 1) * L]
                mean = np.zeros(L)
                if F is not None:
                    a_pi = np.concatenate([a[p * L:(p + 1) * L] for p in predecessors(g, j)])
                    mean = F @ a_pi
                resid = a_j - mean
                rhs += (-0.5 * resid @ np.linalg.solve(Q, resid)
                        - 0.5 * np.linalg.slogdet(Q)[1] - 0.5 * L * np.log(2 * np.pi))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_band_identity_consecutive(self, rng):
        # consecutive predecessors: the inverse prior precision agrees with the
        # kernel matrix on every correlation-region block
        noise = NoiseSpec.create(0.1)
        for J in (2, 4, 6):
            N = J * 5
            X = (np.arange(N)[:, None] + rng.uniform(0.2, 0.8, (N, 1))) / N
            kern = SquaredExponential.create(1.0, [0.5 / N])
            for C in range(2, min(J, 4) + 1):
                g = consecutive_graph(X, J, C)
                m = CpoeModel(kern, noise, J=J, C=C, gamma=1.0, seed=0)
                m.fit(X, rng.normal(size=N), graph=g)
                A = np.vstack(g.inducing_inputs)
                KAA = kern(A)
                Sinv = np.linalg.inv(to_dense(assemble_prior_precision(m.factors)))
                L = g.L
                for j in range(J):
                    idx = np.concatenate([np.arange(p * L, (p + 1) * L)
                                          for p in g.correlation[j]])
                    np.testing.assert_allclose(Sinv[np.ix_(idx, idx)],
                                               KAA[np.ix_(idx, idx)], atol=1e-8)


def rebuilt_posterior(model):
    """The posterior precision (dense) and ``b``, rebuilt from the model's
    factors: the assembled prior plus each expert's ``H'V^-1 H`` and ``H'V^-1 y``."""
    factors, L = model.factors, model.graph.L
    precision = to_dense(assemble_prior_precision(factors))
    b = np.zeros(model.graph.M)
    for j, e in enumerate(factors.experts):
        if e.vbar.ndim == 1:
            VinvH = e.H / (e.vbar + factors.noise.variance)[:, None]
        else:
            VinvH = np.linalg.solve(e.vbar + factors.noise.variance * np.eye(e.H.shape[0]),
                                    e.H)
        idx = np.concatenate([np.arange(p * L, (p + 1) * L) for p in model.graph.correlation[j]])
        precision[np.ix_(idx, idx)] += e.H.T @ VinvH
        b[idx] += VinvH.T @ model.y[model.graph.row_indices[j]]
    return precision, b


def array_bytes(obj, skip=(cpoe_model.LocalFactors, SymbolicFactor)) -> int:
    """Bytes of every numpy array reachable from ``obj``, except through the
    types in ``skip``."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, skip):
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, skip) for v in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(v, skip) for v in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(array_bytes(v, skip) for v in vars(obj).values())
    return 0


class TestPosterior:
    def test_precision_pattern_equals_prior_pattern(self, rng, monkeypatch):
        # the projection's blocks (correlation sets) lie on the prior's
        # (predecessor-plus-self sets), so one layout holds both, and the
        # partial inverse covers every one of them
        inverses = capture_partial_inverse(monkeypatch)
        for (J, C, gamma) in [(4, 1, 1.0), (4, 2, 0.5), (8, 3, 0.5), (4, 4, 1.0)]:
            model, *_ = make_setup(rng, N=8 * J, J=J, C=C, gamma=gamma)
            g = model.graph
            prior = {(i, k) for j in range(J) for i in predecessors(g, j, plus_self=True)
                     for k in predecessors(g, j, plus_self=True)}
            projection = {(i, k) for psi in g.correlation for i in psi for k in psi}
            assert projection == prior
            sym, Z = g.symbolic, inverses[-1]
            assert Z.shape == (sym.n_slots, g.L, g.L)
            p, q = sym.inv_perm[np.array(sorted(prior))].T
            slots = sym.slots_of(np.maximum(p, q), np.minimum(p, q))
            assert np.all(slots >= 0) and np.all(np.isfinite(Z[slots]))

    @pytest.mark.parametrize("variant", ["fitc", "pitc"])
    def test_keeps_only_read_blocks_and_vectors(self, rng, variant):
        # memory contract: besides the factors and the symbolic analysis (both
        # shared across refits), a posterior holds the partial inverse's blocks
        # at the correlation sets' slots, mu and V_j^-1 y_j (O(M + N)), and
        # V_j^-1 per expert for full residuals only
        X = spread_points(64, 2, rng)
        model = CpoeModel(SquaredExponential.create(1.0, [0.2, 0.2]), NoiseSpec.create(0.1),
                          J=8, C=3, gamma=0.5, variant=VariantSpec(variant),
                          seed=0).fit(X, rng.normal(size=64))
        post, g = model.posterior, model.graph
        assert post.sigma_blocks.shape == (g.symbolic.read_slots.size, g.L, g.L)
        vinv = sum(v.nbytes for v in post.vinv if v is not None)
        assert (vinv > 0) == (variant == "pitc")
        budget = post.sigma_blocks.nbytes + 8 * (g.N + g.M) + vinv
        assert array_bytes(post) <= budget

    def test_pivot_bump_recorded_and_logged(self, rng, monkeypatch, caplog):
        model, *_ = make_setup(rng)
        assert model.posterior.pivot_bump == 0.0
        real, seen = cpoe_model.block_cholesky, []

        def fail_once(A):  # the first factorization fails, as on a bad pivot
            if not seen:
                seen.append(to_dense(A))
                raise FactorizationError(2)
            return real(A)
        monkeypatch.setattr(cpoe_model, "block_cholesky", fail_once)
        with caplog.at_level(logging.WARNING, logger="cpoe.cpoe_model"):
            model.set_params(model.get_params())
        L = model.graph.L
        scale = np.mean([np.mean(np.diag(seen[0][i * L:(i + 1) * L, i * L:(i + 1) * L]))
                         for i in range(model.graph.J)])
        assert model.posterior.pivot_bump == pytest.approx(1e-10 * scale, rel=1e-12)
        [record] = caplog.records
        assert record.levelno == logging.WARNING and "diagonal bump" in record.getMessage()
        assert f"{model.posterior.pivot_bump:.3g}" in record.getMessage()

    def test_single_expert_full_gamma_is_exact_gp(self, rng):
        # J=1, gamma=1: the posterior over the latent values is the exact one
        rng2 = np.random.default_rng(3)
        X = spread_points(20, 2, rng2)
        kern = SquaredExponential.create(1.0, [0.15, 0.15])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, rng2)
        m = CpoeModel(kern, noise, J=1, C=1, gamma=1.0, seed=0).fit(X, y)
        assert np.array_equal(m.graph.row_indices[0], np.arange(20))
        K = kern(X)
        Sigma = np.linalg.inv(np.linalg.inv(K) + np.eye(20) / 0.1)
        np.testing.assert_allclose(m.posterior.mu, Sigma @ y / 0.1, atol=1e-8)

    def test_huge_noise_shrinks_mean_to_prior(self, rng):
        model, kern, _, X, y = make_setup(rng)
        big = CpoeModel(kern, NoiseSpec.create(1e8), J=4, C=2, gamma=0.5, seed=0).fit(X, y)
        assert np.abs(big.posterior.mu).max() < 1e-4

    def test_mean_matches_dense_solve(self, rng):
        # three experts with consecutive structure, plus a KD-built layout
        for t in range(5):
            r2 = np.random.default_rng(100 + t)
            N, J, C = 45, 3, 2
            X = np.sort(r2.uniform(0, 1, N))[:, None]
            kern = SquaredExponential.create(1.0, [0.02])
            noise = NoiseSpec.create(0.15)
            y = r2.normal(size=N)
            g = consecutive_graph(X, J, C, gamma=0.5)
            m = CpoeModel(kern, noise, J=J, C=C, gamma=0.5, seed=t).fit(X, y, graph=g)
            _, _, mu = dense_posterior(m.graph, kern, noise, y)
            np.testing.assert_allclose(m.posterior.mu, mu, atol=1e-8)
        model, kern, noise, X, y = make_setup(rng, N=48, J=4, C=2)
        _, _, mu = dense_posterior(model.graph, kern, noise, y)
        np.testing.assert_allclose(model.posterior.mu, mu, atol=1e-8)

    def test_precision_solve_consistency(self, rng):
        model, *_ = make_setup(rng)
        precision, b = rebuilt_posterior(model)
        r = precision @ model.posterior.mu - b
        assert np.linalg.norm(r) <= 1e-8 * max(np.linalg.norm(b), 1.0)


class TestMarginalLikelihood:
    def test_scalar_case(self):
        X = np.array([[0.3]])
        kern = SquaredExponential.create(1.4, [0.5])
        noise = NoiseSpec.create(0.2)
        m = CpoeModel(kern, noise, J=1, C=1, gamma=1.0, seed=0).fit(X, np.zeros(1))
        expected = -0.5 * np.log(2 * np.pi * (1.4 + 0.2))
        assert m.log_marginal_likelihood() == pytest.approx(expected, abs=1e-12)

    def test_full_degree_matches_exact_gp(self, rng):
        rng2 = np.random.default_rng(8)
        X = spread_points(48, 2, rng2)
        kern = SquaredExponential.create(1.0, [0.08, 0.08])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, rng2)
        m = CpoeModel(kern, noise, J=4, C=4, gamma=1.0, seed=0).fit(X, y)
        full = FullGp(kern, noise).fit(X, y)
        assert m.log_marginal_likelihood() == pytest.approx(full.lml(), abs=1e-6)

    def test_matches_dense_marginal_covariance(self, rng):
        for t in range(5):
            r2 = np.random.default_rng(200 + t)
            X = spread_points(48, 2, r2)
            kern = SquaredExponential.create(1.0 + r2.uniform(0, 0.5), [0.08, 0.1])
            noise = NoiseSpec.create(0.1 + r2.uniform(0, 0.1))
            y = r2.normal(size=48)
            m = CpoeModel(kern, noise, J=4, C=2, gamma=0.5, seed=t).fit(X, y)
            assert m.log_marginal_likelihood() == pytest.approx(
                dense_lml(m.graph, kern, noise, y), abs=1e-6)

    def test_non_finite_raises(self, rng):
        model, *_ = make_setup(rng)
        model.posterior.yT_Vinv_y = np.nan
        with pytest.raises(ArithmeticError):
            model.log_marginal_likelihood()


def fd_gradient(model, kern, noise, X, y, graph, variant, h=1e-5):
    theta0 = full_params(model.kernel, model.noise)
    out = np.empty_like(theta0)
    for i in range(theta0.size):
        vals = []
        for sign in (1, -1):
            t = theta0.copy()
            t[i] += sign * h
            m2 = CpoeModel(kern, noise, J=graph.J, C=graph.C, gamma=graph.gamma,
                           variant=variant, seed=0)
            m2.set_params(t)
            m2.fit(X, y, graph=graph)
            vals.append(m2.log_marginal_likelihood())
        out[i] = (vals[0] - vals[1]) / (2 * h)
    return out


ALL_VARIANTS = pytest.mark.parametrize("variant,alpha", [
    ("fitc", 1.0), ("dtc", 1.0), ("pitc", 1.0), ("vfe", 1.0), ("pep", 0.5), ("pep_b", 0.5)])


class TestGradient:
    @ALL_VARIANTS
    def test_matches_finite_differences(self, variant, alpha, rng):
        r2 = np.random.default_rng(17)
        X = spread_points(40, 2, r2)
        kern = SquaredExponential.create(1.3, [0.08, 0.1])
        noise = NoiseSpec.create(0.12)
        y = r2.normal(size=40)
        var = VariantSpec(variant, alpha)
        m = CpoeModel(kern, noise, J=4, C=2, gamma=0.5, variant=var, seed=0).fit(X, y)
        ga = m.lml_gradient()
        gfd = fd_gradient(m, kern, noise, X, y, m.graph, var)
        rel = np.abs(ga - gfd) / np.maximum(np.abs(gfd), 1e-6)
        assert rel.max() < 1e-4

    @ALL_VARIANTS
    def test_full_degree_matches_exact_gp_gradient(self, variant, alpha, rng):
        r2 = np.random.default_rng(21)
        X = spread_points(36, 2, r2)
        kern = SquaredExponential.create(1.0, [0.08, 0.08])
        noise = NoiseSpec.create(0.15)
        y, _ = gp_sample(kern, X, 0.15, r2)
        m = CpoeModel(kern, noise, J=4, C=4, gamma=1.0, variant=VariantSpec(variant, alpha),
                      seed=0).fit(X, y)
        full = FullGp(kern, noise).fit(X, y)
        np.testing.assert_allclose(m.lml_gradient(), full.lml_gradient(), atol=1e-6)

    # the projection derivative is contracted through G K(A, A)^-1; the oracle
    # forms dH = (dK_xa - H dK_aa) K(A, A)^-1 explicitly, for every parameter
    # and row, and contracts it with G
    @pytest.mark.parametrize("variant,alpha,ls", [
        ("fitc", 1.0, 0.1), ("dtc", 1.0, 0.1), ("pitc", 1.0, 0.1), ("vfe", 1.0, 0.1),
        ("pep", 0.5, 0.1), ("pep_b", 0.5, 0.1), ("fitc", 1.0, 1.0)])
    def test_matches_explicit_projection_derivative(self, variant, alpha, ls, monkeypatch):
        r2 = np.random.default_rng(23)
        X = spread_points(128, 2, r2)
        kern = SquaredExponential.create(1.1, [ls, 1.3 * ls])
        m = CpoeModel(kern, NoiseSpec.create(0.1), J=4, C=3, gamma=0.5,
                      variant=VariantSpec(variant, alpha), seed=0).fit(X, r2.normal(size=128))
        if ls == 1.0:  # a long lengthscale on dense inputs: K(A_psi) needs jitter
            assert any(jittered_cholesky(kern(m.graph.correlation_inputs(j)))[1] > 0
                       for j in range(m.graph.J))
        g = m.lml_gradient()
        contract = cpoe_model._contract_grad

        def explicit(kernel, X, A, H, inv_A, dK_aa, U, R=None, G=None):
            dK_xa = kernel.grad_stack(X, A)
            P, B, M = dK_xa.shape
            rhs = (dK_xa - H @ dK_aa).reshape(P * B, M)
            dH = ((rhs @ inv_A.T) @ inv_A).reshape(P, B, M)
            return (contract(kernel, X, A, H, inv_A, dK_aa, U, R)
                    + (0.0 if G is None else np.tensordot(dH, G, 2)))

        monkeypatch.setattr(cpoe_model, "_contract_grad", explicit)
        g_oracle = m.lml_gradient()
        assert np.linalg.norm(g - g_oracle) <= 1e-10 * np.linalg.norm(g)

    def test_unused_sum_parameter_has_zero_gradient(self, rng):
        # a summand acting on a constant input column cannot move the likelihood
        r2 = np.random.default_rng(5)
        X = spread_points(32, 2, r2)
        X[:, 1] = 0.0
        kern = (SquaredExponential.create(1.0, [0.1], active_dims=[0])
                + SquaredExponential.create(1e-12, [1.0], active_dims=[1]))
        noise = NoiseSpec.create(0.1)
        y = r2.normal(size=32)
        m = CpoeModel(kern, noise, J=2, C=1, gamma=1.0, seed=0).fit(X, y)
        g = m.lml_gradient()
        assert abs(g[3]) < 1e-9  # the dead summand's lengthscale


class TestStochasticTerm:
    def test_single_expert_equals_sparse_marginal(self, rng):
        r2 = np.random.default_rng(2)
        X = spread_points(24, 2, r2)
        kern = SquaredExponential.create(1.0, [0.12, 0.12])
        noise = NoiseSpec.create(0.1)
        y = r2.normal(size=24)
        g = ExpertGraph.build(X, 1, C=1, gamma=0.5, seed=0)
        l1, _ = stochastic_lml_term(g, kern, noise, 0, y[g.row_indices[0]])
        # dense sparse-GP marginal: N(y; 0, Qff + diag correction + noise)
        A = g.inducing_inputs[0]
        Q = kern(X, A) @ np.linalg.solve(kern(A), kern(A, X))
        P = Q + np.diag(kern.diag(X) - np.diag(Q)) + 0.1 * np.eye(24)
        ref = -0.5 * (y @ np.linalg.solve(P, y) + np.linalg.slogdet(P)[1])
        assert l1 == pytest.approx(ref, abs=1e-8)

    def test_gamma_one_is_local_exact(self, rng):
        r2 = np.random.default_rng(3)
        X = spread_points(32, 2, r2)
        kern = SquaredExponential.create(1.0, [0.1, 0.1])
        noise = NoiseSpec.create(0.1)
        y = r2.normal(size=32)
        g = ExpertGraph.build(X, 4, C=2, gamma=1.0, seed=0)
        for j in range(4):
            rows = g.row_indices[j]
            lj, _ = stochastic_lml_term(g, kern, noise, j, y[rows])
            K = kern(X[rows]) + 0.1 * np.eye(rows.size)
            ref = -0.5 * (y[rows] @ np.linalg.solve(K, y[rows]) + np.linalg.slogdet(K)[1])
            assert lj == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("variant", [VariantSpec("pitc"), VariantSpec("pep_b", 1.0)])
    def test_full_residual_term_is_local_exact(self, variant):
        # Q_j + (K(X_j) - Q_j) + sigma2 I = K(X_j) + sigma2 I at any gamma and
        # inducing inputs: the terms sum to the independent experts' likelihood
        r2 = np.random.default_rng(7)
        X = r2.uniform(0.0, 1.0, (96, 3))
        kern = (SquaredExponential.create(1.0, [0.5, 0.5, 0.5])
                + SquaredExponential.create(0.3, [0.15, 0.15, 0.15]))
        noise = NoiseSpec.create(0.1)
        y = np.sin(6 * X[:, 0]) + X[:, 2] * np.cos(5 * X[:, 1]) + 0.3 * r2.normal(size=96)
        g = ExpertGraph.build(X, 4, C=2, gamma=0.5, seed=0)
        terms = [stochastic_lml_term(g, kern, noise, j, y[g.row_indices[j]], variant)
                 for j in range(g.J)]
        poe = ProductOfExperts(kern, noise, g.row_indices).fit(X, y)
        value = sum(v for v, _ in terms) - 0.5 * 96 * np.log(2 * np.pi)
        grad = sum(gr for _, gr in terms)
        assert value == pytest.approx(poe.lml(), rel=1e-12)
        ref = poe.lml_gradient()
        assert np.linalg.norm(grad - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_pitc_term_factors_no_inducing_block(self, rng, monkeypatch):
        X = spread_points(32, 2, rng)
        graph = ExpertGraph.build(X, 2, 1, gamma=0.5, seed=0)
        kern, noise = SquaredExponential.create(1.0, [0.2, 0.2]), NoiseSpec.create(0.1)
        y_1 = rng.normal(size=16)
        expected = stochastic_lml_term(graph, kern, noise, 1, y_1, VariantSpec("pitc"))

        def refuse(K, scale=None):
            raise np.linalg.LinAlgError("jittered_cholesky called")

        monkeypatch.setattr(cpoe_model, "jittered_cholesky", refuse)
        value, grad = stochastic_lml_term(graph, kern, noise, 1, y_1, VariantSpec("pitc"))
        assert value == expected[0]
        np.testing.assert_array_equal(grad, expected[1])
        with pytest.raises(np.linalg.LinAlgError, match="jittered_cholesky called"):
            stochastic_lml_term(graph, kern, noise, 1, y_1, VariantSpec("fitc"))

    def test_sum_equals_factorized_objective(self, rng):
        # direct-sum oracle on a 3-predictive-expert instance
        r2 = np.random.default_rng(4)
        X = spread_points(30, 2, r2)
        kern = SquaredExponential.create(1.0, [0.1, 0.1])
        noise = NoiseSpec.create(0.1)
        y = r2.normal(size=30)
        g = ExpertGraph.build(X, 2, C=2, gamma=0.5, seed=0)
        total = sum(stochastic_lml_term(g, kern, noise, j, y[g.row_indices[j]],
                                        with_grad=False)[0] for j in range(2))
        objective = total - 0.5 * 30 * np.log(2 * np.pi)
        # recompute independently: per-expert FITC marginals
        ref = 0.0
        for j in range(2):
            rows = g.row_indices[j]
            A = g.inducing_inputs[j]
            Q = kern(X[rows], A) @ np.linalg.solve(kern(A), kern(A, X[rows]))
            P = Q + np.diag(kern.diag(X[rows]) - np.diag(Q)) + 0.1 * np.eye(rows.size)
            ref += (-0.5 * (y[rows] @ np.linalg.solve(P, y[rows])
                            + np.linalg.slogdet(P)[1] + rows.size * np.log(2 * np.pi)))
        assert objective == pytest.approx(ref, abs=1e-8)

    @ALL_VARIANTS
    def test_gradient_matches_fd(self, variant, alpha, rng):
        r2 = np.random.default_rng(6)
        X = spread_points(24, 2, r2)
        kern = SquaredExponential.create(1.1, [0.1, 0.12])
        noise = NoiseSpec.create(0.1)
        y = r2.normal(size=24)
        g = ExpertGraph.build(X, 2, C=1, gamma=0.5, seed=0)
        theta0 = full_params(kern, noise)
        variant = VariantSpec(variant, alpha)
        _, ga = stochastic_lml_term(g, kern, noise, 1, y[g.row_indices[1]], variant)
        h, I = 1e-5, np.eye(theta0.size)

        def val(t):
            k2, n2 = split_params(kern, t)
            return stochastic_lml_term(g, k2, n2, 1, y[g.row_indices[1]], variant,
                                       with_grad=False)[0]

        gfd = np.array([(val(theta0 + h * I[i]) - val(theta0 - h * I[i])) / (2 * h)
                        for i in range(theta0.size)])
        assert np.abs(ga - gfd).max() / np.maximum(np.abs(gfd).max(), 1e-8) < 1e-5


class TestPriorKl:
    def _models(self, rng, gamma, variant=VariantSpec()):
        X = spread_points(64, 2, rng)
        kern = SquaredExponential.create(1.0, [0.08, 0.08])
        noise = NoiseSpec.create(0.1)
        y = rng.normal(size=64)
        base = ExpertGraph.build(X, 8, C=1, gamma=gamma, seed=0)
        models = {}
        for C in range(1, 9):
            m = CpoeModel(kern, noise, J=8, C=C, gamma=gamma, variant=variant, seed=0)
            m.fit(X, y, graph=base.with_correlation(C))
            models[C] = m
        return models

    def test_equal_degrees_give_zero(self, rng):
        models = self._models(rng, 0.5)
        dp, dproj = prior_kl_difference(models[3], models[3])
        assert dp == pytest.approx(0.0, abs=1e-12)
        assert dproj == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("variant", ["fitc", "pitc", "pep_b"])
    def test_stepwise_nonnegative(self, rng, variant):
        # at gamma = 1 a full residual is singular: its eigenvalues below the
        # floor count as deterministic in both models, as diagonal entries do
        for gamma in (0.5, 1.0):
            models = self._models(rng, gamma, variant=VariantSpec(variant))
            for C in range(1, 8):
                dp, dproj = prior_kl_difference(models[C], models[C + 1])
                assert dp >= -1e-10
                assert dproj >= -1e-10

    def test_extreme_degrees_match_dense_determinants(self, rng):
        # gamma = 1, C=1 vs C=J: prior gain is half the log-det ratio between
        # the block-diagonal and the full kernel matrix
        models = self._models(rng, 1.0)
        m1, mJ = models[1], models[8]
        dp, _ = prior_kl_difference(m1, mJ)
        g = m1.graph
        kern = m1.kernel
        block_sum = sum(np.linalg.slogdet(kern(g.inducing_inputs[j]))[1] for j in range(8))
        A = np.vstack(g.inducing_inputs)
        dense = np.linalg.slogdet(kern(A))[1]
        assert dp == pytest.approx(0.5 * (block_sum - dense), abs=1e-8)

    def test_vfe_uses_trace_formula(self, rng):
        models = self._models(rng, 0.5, variant=VariantSpec("vfe"))
        dp, dproj = prior_kl_difference(models[2], models[4])
        tr2 = sum(float(np.sum(e.D)) for e in models[2].factors.experts)
        tr4 = sum(float(np.sum(e.D)) for e in models[4].factors.experts)
        assert dproj == pytest.approx((tr2 - tr4) / (2 * 0.1), rel=1e-10)
        assert dproj >= 0

    def test_mismatched_graphs_rejected(self, rng):
        models = self._models(rng, 0.5)
        other = CpoeModel(models[1].kernel, models[1].noise, J=8, C=2, gamma=0.5, seed=4)
        other.fit(models[1].graph.X, np.zeros(64))
        with pytest.raises(ValueError):
            prior_kl_difference(models[1], other)
        with pytest.raises(ValueError):
            prior_kl_difference(models[4], models[2])  # C must not exceed C2

    @pytest.mark.parametrize("refusal", ["partition", "hyperparameters", "nesting"])
    def test_each_shared_graph_refusal(self, rng, refusal):
        models = self._models(rng, 0.5)
        m2, graph = models[2], models[3].graph
        kern, noise = m2.kernel, m2.noise
        if refusal == "partition":  # gamma = 1 keeps twice the inducing points
            graph = ExpertGraph.build(graph.X, 8, C=3, gamma=1.0, seed=0)
            message = "share partition, gamma and inducing counts"
        elif refusal == "hyperparameters":
            kern = SquaredExponential.create(1.0, [0.1, 0.1])
            message = "share hyperparameters"
        else:  # expert 7 drops its C = 2 predecessor from its C = 3 set
            kept = m2.graph.correlation[7, 0]
            correlation = graph.correlation.copy()
            correlation[7] = [p for p in range(7) if p != kept][:2] + [7]
            graph = dataclasses.replace(graph, correlation=correlation)
            message = "predecessor sets are not nested at expert 7"
        other = CpoeModel(kern, noise, J=8, C=3, gamma=graph.gamma, seed=0)
        other.fit(graph.X, m2.y, graph=graph)
        with pytest.raises(ValueError, match=message):
            prior_kl_difference(m2, other)


class TestModelLifecycle:
    def test_set_params_refits(self, rng):
        model, kern, noise, X, y = make_setup(rng)
        before = model.log_marginal_likelihood()
        theta = model.get_params()
        model.set_params(theta + 0.3)
        after = model.log_marginal_likelihood()
        assert before != after
        model.set_params(theta)
        assert model.log_marginal_likelihood() == pytest.approx(before, rel=1e-12)

    @staticmethod
    def _count_symbolic(monkeypatch):
        """Record every symbolic analysis a graph builds."""
        from cpoe import expert_graph

        calls, real = [], expert_graph.symbolic_factor
        monkeypatch.setattr(expert_graph, "symbolic_factor",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_symbolic_analysis_built_once_per_graph(self, rng, monkeypatch):
        # a served and a trainee model on one graph, as the benchmark runs them
        calls = self._count_symbolic(monkeypatch)
        kern, noise = SquaredExponential.create(1.0, [0.2, 0.2]), NoiseSpec.create(0.1)
        X = rng.uniform(0, 1, (64, 2))
        y = np.sin(6 * X[:, 0])
        graph = ExpertGraph.build(X, 8, 3, gamma=0.5, seed=0)
        served = CpoeModel(kern, noise, J=8, C=3, gamma=0.5).fit(X, y, graph=graph)
        trainee = CpoeModel(kern, noise, J=8, C=3, gamma=0.5).fit(X, y, graph=graph)
        for theta in (trainee.get_params() + 0.1, trainee.get_params() - 0.1):
            trainee.set_params(theta)
        served.set_params(served.get_params())
        assert len(calls) == 1
        assert served.posterior.graph.symbolic is trainee.posterior.graph.symbolic

    def test_new_graph_gets_its_own_symbolic_analysis(self, rng, monkeypatch):
        calls = self._count_symbolic(monkeypatch)
        kern, noise = SquaredExponential.create(1.0, [0.2, 0.2]), NoiseSpec.create(0.1)
        X = rng.uniform(0, 1, (64, 2))
        y = np.sin(6 * X[:, 0])
        model = CpoeModel(kern, noise, J=8, C=2, gamma=0.5).fit(X, y)
        assert len(calls) == 1
        wider = model.graph.with_correlation(3)
        CpoeModel(kern, noise, J=8, C=3, gamma=0.5).fit(X, y, graph=wider)
        assert len(calls) == 2
        assert wider.symbolic is not model.graph.symbolic
        model.fit(X[::-1], y[::-1])  # new data: a new graph
        assert len(calls) == 3

    def test_fit_on_new_data_matches_fresh_model(self, rng):
        # a second fit builds a new graph, and with it a new symbolic analysis
        kern, noise = SquaredExponential.create(1.0, [0.2, 0.2]), NoiseSpec.create(0.1)
        X1, X2 = rng.uniform(0, 1, (128, 2)), rng.uniform(0, 1, (128, 2))
        model = CpoeModel(kern, noise, J=16, C=4, gamma=0.5, seed=0).fit(X1, np.sin(6 * X1[:, 0]))
        model.fit(X2, np.cos(5 * X2[:, 1]))
        fresh = CpoeModel(kern, noise, J=16, C=4, gamma=0.5, seed=0).fit(X2, np.cos(5 * X2[:, 1]))
        assert model.log_marginal_likelihood() == fresh.log_marginal_likelihood()
        np.testing.assert_array_equal(model.posterior.mu, fresh.posterior.mu)

    def test_fit_refuses_graph_built_on_other_inputs(self):
        kern, noise = SquaredExponential.create(1.0, [0.2, 0.2]), NoiseSpec.create(0.1)
        r = np.random.default_rng(0)
        X1, X2 = r.uniform(0, 1, (64, 2)), r.uniform(0, 1, (64, 2))
        g = ExpertGraph.build(X1, 4, 2, 0.5)
        y = np.sin(6 * X2[:, 0])
        model = CpoeModel(kern, noise, J=4, C=2, gamma=0.5)
        with pytest.raises(ValueError, match="X differs from the graph's inputs in 64 of 64 rows"):
            model.fit(X2, y, graph=g)
        X3 = X1.copy()
        X3[5, 1] += 1e-12
        with pytest.raises(ValueError, match="in 1 of 64 rows"):
            model.fit(X3, y, graph=g)
        with pytest.raises(ValueError, match=r"X has shape \(32, 2\), the graph was built on "
                                             r"inputs of shape \(64, 2\)"):
            model.fit(X1[:32], y[:32], graph=g)
        # on the graph's own inputs the fit is the graph-building fit's
        fitted = model.fit(X1.copy(), y, graph=g)
        assert fitted.log_marginal_likelihood() == CpoeModel(
            kern, noise, J=4, C=2, gamma=0.5).fit(X1, y).log_marginal_likelihood()

    def test_save_load_bit_reproducible(self, rng, tmp_path):
        model, kern, noise, X, y = make_setup(rng, seed=5)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = CpoeModel.load(path, X, y, kern)
        Xs = np.random.default_rng(0).uniform(0, 1, (15, 2))
        m1, v1 = model.predict(Xs)
        m2, v2 = loaded.predict(Xs)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    def test_save_load_model_fitted_on_other_layout(self, rng, tmp_path):
        # the file describes the graph the model was fitted on, not the
        # layout its constructor was given
        _, kern, noise, X, y = make_setup(rng, seed=5)
        model = CpoeModel(kern, noise, J=4, C=2, gamma=0.25, seed=0)
        model.fit(X, y, graph=ExpertGraph.build(X, 8, 3, 0.5, seed=1))
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = CpoeModel.load(path, X, y, kern)
        assert (loaded.graph.J, loaded.graph.C) == (8, 3)
        Xs = np.random.default_rng(0).uniform(0, 1, (15, 2))
        fitted, back = (predict_arrays(m, Xs, add_noise=True, return_locals=True)
                        for m in (model, loaded))
        for a, b in zip(fitted[:2] + fitted[2], back[:2] + back[2]):
            np.testing.assert_array_equal(b, a)

    def test_layout_is_the_graphs(self, rng, tmp_path):
        # the constructor's J, C, gamma and seed only say which graph a fit
        # without one builds: a model fitted on a given graph, and its saved
        # and loaded copy, report that graph's layout and no other
        _, kern, noise, X, y = make_setup(rng, seed=5)
        model = CpoeModel(kern, noise, J=4, C=2, gamma=1.0, seed=5)
        model.fit(X, y, graph=ExpertGraph.build(X, 8, 3, 0.5, seed=0))
        path = tmp_path / "model.npz"
        model.save(path)
        for m in (model, CpoeModel.load(path, X, y, kern)):
            g = m.graph
            assert (g.J, g.C, g.gamma, g.seed) == (8, 3, 0.5, 0)
            for name in ("J", "C", "gamma", "seed"):
                assert getattr(m, name, getattr(g, name)) == getattr(g, name), name

    def test_C_above_J_warns_once(self, rng):
        # the graph's build is the one place C is clamped to J
        X = spread_points(32, 2, rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = CpoeModel(SquaredExponential.create(1.0, [0.2, 0.2]),
                              NoiseSpec.create(0.1), J=2, C=5).fit(X, rng.normal(size=32))
        assert [str(w.message) for w in caught] == ["C=5 exceeds J=2; clamping to J"]
        assert model.graph.C == 2

    def _saved(self, rng, tmp_path):
        model, kern, noise, X, y = make_setup(rng, seed=5)
        path = tmp_path / "model.npz"
        model.save(path)
        return path, kern, X, y

    def _loaded(self, rng, tmp_path):
        """A model with several predictive experts, saved and loaded back."""
        model, kern, noise, X, y = make_setup(rng, N=96, J=8, C=3, seed=5)
        path = tmp_path / "model.npz"
        model.save(path)
        return model, CpoeModel.load(path, X, y, kern), path, kern, X, y

    def test_load_builds_no_factors(self, rng, tmp_path, monkeypatch):
        model, kern, noise, X, y = make_setup(rng, seed=5)
        path = tmp_path / "model.npz"
        model.save(path)
        calls = []
        for name in ("build_local_factors", "assemble_posterior"):
            monkeypatch.setattr(cpoe_model, name, lambda *a, name=name, **k: calls.append(name))
        loaded = CpoeModel.load(path, X, y, kern)
        loaded.predict(np.random.default_rng(0).uniform(0, 1, (5, 2)))
        assert calls == []

    def test_loaded_predictions_bitwise(self, rng, tmp_path):
        model, loaded, _, _, _, _ = self._loaded(rng, tmp_path)
        Xs = np.random.default_rng(0).uniform(0, 1, (30, 2))
        for a, b in zip(model.predict(Xs, add_noise=True), loaded.predict(Xs, add_noise=True)):
            np.testing.assert_array_equal(b, a)
        full, back = (predict_arrays(m, Xs, return_locals=True) for m in (model, loaded))
        for a, b in zip(full[:2] + full[2], back[:2] + back[2]):
            np.testing.assert_array_equal(b, a)
        assert list(back[2][0]) == list(range(2, 8))
        # one query alone: its local rows, bitwise
        one, again = (predict_arrays(m, Xs[3:4], return_locals=True)[2] for m in (model, loaded))
        for a, b in zip(one[1:3], again[1:3]):
            np.testing.assert_array_equal(b, a)

    def test_save_of_loaded_model_is_byte_identical(self, rng, tmp_path, monkeypatch):
        _, loaded, path, kern, X, y = self._loaded(rng, tmp_path)
        again = tmp_path / "again.npz"
        clock = time.time
        # a day later: the zip entries' timestamps must not follow the clock
        monkeypatch.setattr(time, "time", lambda: clock() + 86400.0)
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        CpoeModel.load(again, X, y, kern)

    def test_loaded_model_likelihood_and_gradient(self, rng, tmp_path):
        model, loaded, _, _, _, _ = self._loaded(rng, tmp_path)
        assert loaded.log_marginal_likelihood() == model.log_marginal_likelihood()
        np.testing.assert_array_equal(loaded.lml_gradient(), model.lml_gradient())
        assert prior_kl_difference(loaded, model) == prior_kl_difference(model, model)
        theta = model.get_params() + 0.1
        assert (loaded.set_params(theta).log_marginal_likelihood()
                == model.set_params(theta).log_marginal_likelihood())

    def test_loaded_model_keeps_its_serving_state(self, rng, tmp_path):
        # the likelihood builds a posterior; the eigenbases read from the file
        # stay what prediction serves from
        model, loaded, _, _, _, _ = self._loaded(rng, tmp_path)
        served = loaded.serving
        assert loaded.log_marginal_likelihood() == model.log_marginal_likelihood()
        assert loaded.serving is served
        Xs = np.random.default_rng(1).uniform(0, 1, (30, 2))
        full, back = (predict_arrays(m, Xs, return_locals=True) for m in (model, loaded))
        for a, b in zip(full[:2] + full[2], back[:2] + back[2]):
            np.testing.assert_array_equal(b, a)
        loaded.set_params(loaded.get_params())
        assert loaded.serving is not served

    def _rewritten(self, path, tmp_path, **changes):
        """A copy of the saved file with fields replaced (None drops a field)."""
        with np.load(path) as blob:
            fields = {k: blob[k] for k in blob.files}
        for k, v in changes.items():
            if v is None:
                del fields[k]
            else:
                fields[k] = v
        out = tmp_path / "rewritten.npz"
        np.savez(out, **fields)
        return out

    def test_load_refuses_file_without_serving_state(self, rng, tmp_path):
        # the format written before the serving state was saved
        path, kern, X, y = self._saved(rng, tmp_path)
        old = self._rewritten(path, tmp_path, format_version=None, basis=None,
                              coef=None, eigvals=None)
        with pytest.raises(ValueError, match="no format version.*save the model again"):
            CpoeModel.load(old, X, y, kern)

    def test_saves_eigenbasis_as_format_3(self, rng, tmp_path):
        model, _, path, _, _, _ = self._loaded(rng, tmp_path)
        with np.load(path) as blob:
            assert int(blob["format_version"]) == 3
            assert not {"chol_psi", "inv_psi", "mu_psi", "sigma_psi"} & set(blob.files)
            for k, j in enumerate(range(2, 8)):
                e = model.factors.experts[j]
                B, c, lam = blob["basis"][k], blob["coef"][k], blob["eigvals"][k]
                # B = L^-T U with U orthogonal and I - S = U diag(lam) U'
                U = np.linalg.inv(e.inv_psi.T) @ B
                np.testing.assert_allclose(U.T @ U, np.eye(len(lam)), atol=1e-10)
                S = e.inv_psi @ model.posterior.sigma_psi(j) @ e.inv_psi.T
                np.testing.assert_allclose(U @ np.diag(lam) @ U.T, np.eye(len(lam)) - S,
                                           atol=1e-10)
                mu_psi = model.posterior.mu_at(model.graph.correlation[j])
                np.testing.assert_allclose(U @ c, e.inv_psi @ mu_psi, atol=1e-10)

    @pytest.mark.parametrize("version", [1, 2])
    def test_load_refuses_format(self, rng, tmp_path, version):
        # version 1 stored the factors of K(A_psi), version 2 their inverses;
        # both stored mu_psi and Sigma_psi rather than the eigenbasis
        path, kern, X, y = self._saved(rng, tmp_path)
        with np.load(path) as blob:
            P = blob["basis"].shape[1]
            eye = np.broadcast_to(np.eye(P), blob["basis"].shape)
        factor = {1: "chol_psi", 2: "inv_psi"}[version]
        old = self._rewritten(path, tmp_path, format_version=np.array(version), basis=None,
                              coef=None, eigvals=None, mu_psi=np.zeros(eye.shape[:2]),
                              sigma_psi=eye, **{factor: eye})
        with pytest.raises(ValueError, match=f"format version {version}, expected 3; "
                                             "save the model again"):
            CpoeModel.load(old, X, y, kern)

    def test_load_refuses_non_finite_serving_state(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        with np.load(path) as blob:
            coef = blob["coef"].copy()
        coef[1, 3] = np.nan
        bad = self._rewritten(path, tmp_path, coef=coef)
        with pytest.raises(ValueError, match="coef holds NaN or inf"):
            CpoeModel.load(bad, X, y, kern)

    def test_load_refuses_missing_expert(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        with np.load(path) as blob:
            basis = blob["basis"][:-1]
        bad = self._rewritten(path, tmp_path, basis=basis)
        with pytest.raises(ValueError, match=r"basis is float64 of shape \(2, 12, 12\), "
                                             r"expected float64 of shape \(3, 12, 12\)"):
            CpoeModel.load(bad, X, y, kern)

    def test_load_refuses_other_dtype(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        with np.load(path) as blob:
            lam = blob["eigvals"].astype(np.float32)
        bad = self._rewritten(path, tmp_path, eigvals=lam)
        with pytest.raises(ValueError, match=r"eigvals is float32 of shape \(3, 12\), "
                                             r"expected float64 of shape \(3, 12\)"):
            CpoeModel.load(bad, X, y, kern)

    def test_load_refuses_eigenvalue_above_one(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        with np.load(path) as blob:
            lam = blob["eigvals"].copy()
        lam[2, 4] = 1.0 + 1e-9
        bad = self._rewritten(path, tmp_path, eigvals=lam)
        with pytest.raises(ValueError, match=r"rewritten\.npz: serving state of expert 3 has "
                                             r"an eigenvalue of I - S at 1 \+ 1e-09"):
            CpoeModel.load(bad, X, y, kern)

    def test_load_refuses_other_rows(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        X2 = X.copy()
        X2[:4] = np.random.default_rng(1).uniform(0, 1, (4, 2))
        with pytest.raises(ValueError, match="not the training data"):
            CpoeModel.load(path, X2, y, kern)
        with pytest.raises(ValueError, match="not the training data"):
            CpoeModel.load(path, X, y + 1e-9, kern)

    def test_load_refuses_longer_data(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        X2 = np.vstack([X, np.random.default_rng(1).uniform(0, 1, (10, 2))])
        with pytest.raises(ValueError, match="not the training data"):
            CpoeModel.load(path, X2, np.concatenate([y, np.zeros(10)]), kern)

    def test_load_refuses_shorter_data(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        with pytest.raises(ValueError, match="not the training data"):
            CpoeModel.load(path, X[:-10], y[:-10], kern)

    def test_load_refuses_file_without_fingerprint(self, rng, tmp_path):
        path, kern, X, y = self._saved(rng, tmp_path)
        with np.load(path) as blob:
            fields = {k: blob[k] for k in blob.files if k != "fingerprint"}
        old = tmp_path / "old.npz"
        np.savez(old, **fields)
        with pytest.raises(ValueError, match="no training-data fingerprint"):
            CpoeModel.load(old, X, y, kern)

    @given(J=st.sampled_from([4, 8]), data=st.data(), gamma=st.sampled_from([0.5, 1.0]),
           variant=st.sampled_from(cpoe_model._VARIANTS), alpha_pep=st.sampled_from([0.5, 1.0]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_save_load_round_trip(self, J, data, gamma, variant, alpha_pep, seed):
        C = data.draw(st.integers(1, J), label="C")
        rng = np.random.default_rng(seed)
        X = spread_points(12 * J, 2, rng)
        kern, noise = SquaredExponential.create(1.2, [0.15, 0.15]), NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, rng)
        model = CpoeModel(kern, noise, J=J, C=C, gamma=gamma,
                          variant=VariantSpec(variant, alpha_pep), seed=seed).fit(X, y)
        Xs = rng.uniform(0, 1, (7, 2))
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "model.npz"), os.path.join(tmp, "again.npz")
            model.save(path)
            loaded = CpoeModel.load(path, X, y, kern)
            # the graph load rebuilds is the saved one, array for array
            assert len(loaded.graph.row_indices) == J
            for a, b in zip(loaded.graph.row_indices, model.graph.row_indices):
                np.testing.assert_array_equal(a, b)
            for name in ("ordering", "inducing_index", "correlation"):
                np.testing.assert_array_equal(getattr(loaded.graph, name),
                                              getattr(model.graph, name))
            fitted, back = (predict_arrays(m, Xs, add_noise=True, return_locals=True)
                            for m in (model, loaded))
            for a, b in zip(fitted[:2] + fitted[2], back[:2] + back[2]):
                np.testing.assert_array_equal(b, a)
            loaded.save(again)
            with open(path, "rb") as first, open(again, "rb") as second:
                assert first.read() == second.read()

    @pytest.mark.parametrize("name", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_rejects_non_finite_data(self, rng, name, bad):
        model, kern, noise, X, y = make_setup(rng)
        data = {"X": X.copy(), "y": y.copy()}
        data[name].flat[3] = bad
        fresh = CpoeModel(kern, noise, J=4, C=2, gamma=0.5)
        with pytest.raises(ValueError, match=f"^{name} holds NaN or inf"):
            fresh.fit(data["X"], data["y"])
