"""Local predictions, aggregation weights and covariance-intersection fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import cho_solve

from conftest import dense_posterior, gp_sample, jittered_grid_2d, spread_points
from cpoe import prediction
from cpoe import (
    CpoeModel,
    FullGp,
    NoiseSpec,
    Periodic,
    ProductOfExperts,
    SparseGp,
    SpectralMixture,
    SquaredExponential,
)
from cpoe.kernels import jittered_cholesky
from cpoe.prediction import (
    ServingState,
    aggregation_weights,
    fuse,
    predict_arrays,
)


def small_model(rng, N=48, J=4, C=2, gamma=0.5, ls=0.09, noise_var=0.1, seed=0):
    X = spread_points(N, 2, rng)
    kern = SquaredExponential.create(1.0, [ls, ls])
    noise = NoiseSpec.create(noise_var)
    y, _ = gp_sample(kern, X, noise_var, rng)
    return CpoeModel(kern, noise, J=J, C=C, gamma=gamma, seed=seed).fit(X, y), X, y


class TestLocalPredict:
    """Each expert's local prediction: its row of ``predict_arrays``' locals."""

    def test_far_point_reverts_to_prior(self, rng):
        model, _, _ = small_model(rng)
        _, means, variances, _ = predict_arrays(model, np.array([[50.0, -50.0]]),
                                                return_locals=True)[2]
        for m, v in zip(means[:, 0], variances[:, 0]):
            assert abs(m) < 1e-8
            assert v == pytest.approx(1.0, abs=1e-8)  # prior variance

    def test_single_expert_equals_sparse_gp(self, rng):
        r2 = np.random.default_rng(4)
        X = spread_points(30, 2, r2)
        kern = SquaredExponential.create(1.0, [0.12, 0.12])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, r2)
        model = CpoeModel(kern, noise, J=1, C=1, gamma=0.5, seed=0).fit(X, y)
        sgp = SparseGp(kern, noise, model.graph.inducing_inputs[0]).fit(X, y)
        Xs = r2.uniform(0, 1, (10, 2))
        experts, means, variances, _ = predict_arrays(model, Xs, return_locals=True)[2]
        assert list(experts) == [0]
        for m, v, x in zip(means[0], variances[0], Xs):
            ms, vs = sgp.predict(x[None, :])
            assert m == pytest.approx(float(ms[0]), abs=1e-8)
            assert v == pytest.approx(float(vs[0]), abs=1e-8)

    def test_matches_dense_posterior_oracle(self, rng):
        model, X, y = small_model(rng, N=40, J=4, C=2)
        g = model.graph
        kern, noise = model.kernel, model.noise
        prec, _, mu = dense_posterior(g, kern, noise, y)
        Sigma = np.linalg.inv(prec)
        L = g.L
        Xq = np.random.default_rng(9).uniform(0, 1, (6, 2))
        experts, means, variances, _ = predict_arrays(model, Xq, return_locals=True)[2]
        assert list(experts) == list(range(g.C - 1, g.J))
        for row, j in enumerate(experts):
            psi = g.correlation[j]
            A_psi = np.vstack([g.inducing_inputs[p] for p in psi])
            idx = np.concatenate([np.arange(p * L, (p + 1) * L) for p in psi])
            for q, x in enumerate(Xq):
                h = (kern(x[None, :], A_psi) @ np.linalg.inv(kern(A_psi)))[0]
                v_cond = kern.diag(x[None, :])[0] - float(h @ kern(A_psi, x[None, :])[:, 0])
                m_ref = float(h @ mu[idx])
                v_ref = float(h @ Sigma[np.ix_(idx, idx)] @ h) + v_cond
                assert means[row, q] == pytest.approx(m_ref, abs=1e-8)
                assert variances[row, q] == pytest.approx(v_ref, abs=1e-8)


def _forward_substitution(L, B):
    """``L^-1 B`` by forward substitution in long double, from float64 operands."""
    L, B = L.astype(np.longdouble), B.astype(np.longdouble)
    Y = np.empty_like(B)
    for i in range(L.shape[0]):
        Y[i] = (B[i] - L[i, :i] @ Y[:i]) / L[i, i]
    return Y


class TestLocalMoments:
    """The eigenbasis form against ``L^-T U`` and the transposed shared kernel block."""

    @pytest.mark.parametrize("ls", [0.4, 0.5])
    def test_matches_long_double_substitution(self, ls):
        # a small criterion-6-like configuration: a jittered grid and a long
        # lengthscale; at 0.4 one K(A_psi) factors unjittered with a condition
        # number near 5e13, at 0.5 a factorization needs jitter
        r = np.random.default_rng(0)
        X = jittered_grid_2d(16, r)
        kern = SquaredExponential.create(1.0, [ls, ls])
        y, _ = gp_sample(kern, X, 0.2, r)
        model = CpoeModel(kern, NoiseSpec.create(0.2), J=4, C=2, gamma=0.5, seed=0).fit(X, y)
        Xq = np.random.default_rng(1).uniform(0, 1, (50, 2))
        experts, means, variances, _ = predict_arrays(model, Xq, return_locals=True)[2]
        kxx = kern.diag(Xq)
        worst_cond = worst_jitter = 0.0
        for row, j in enumerate(experts):
            psi, A_psi = model.graph.correlation[j], model.graph.correlation_inputs(j)
            mu, sigma = model.posterior.mu_at(psi), model.posterior.sigma_psi(j)
            K_psi = kern(A_psi)
            chol = jittered_cholesky(K_psi)[0]  # the factor the model inverted
            worst_cond = max(worst_cond, np.linalg.cond(K_psi))
            worst_jitter = max(worst_jitter, np.abs(chol @ chol.T - K_psi).max())
            a = _forward_substitution(chol, mu)
            S = _forward_substitution(chol, _forward_substitution(chol, sigma).T)
            S = 0.5 * (S + S.T)
            W = _forward_substitution(chol, kern(A_psi, Xq)).T
            ww, wsw = np.sum(W * W, axis=1), np.sum((W @ S) * W, axis=1)
            m_ref, v_ref = W @ a, kxx - ww + wsw
            # forward error of a triangular solve or inverse: a small multiple of
            # P u cond(L) relative to the solution (Higham, ASNLA, ch. 8 and 14)
            tol = 4 * chol.shape[0] * np.finfo(float).eps * np.linalg.cond(chol)
            assert np.all(np.abs(means[row] - m_ref)
                          <= tol * np.sqrt(ww) * np.sqrt(np.sum(a * a)))
            assert np.all(np.abs(variances[row] - v_ref) <= tol * (ww + np.abs(wsw)))
        if ls == 0.4:
            assert worst_cond > 1e13
        else:
            assert worst_jitter > 1e-9

    @pytest.mark.parametrize("kern", [
        SquaredExponential.create(1.0, [0.2, 0.3]),
        Periodic.create(1.0, 0.7, 0.5, active_dims=[0])
        + SquaredExponential.create(1.0, [0.2, 0.3]),
        SpectralMixture.create([0.5, 1.1], [0.8, 2.0], [0.4, 1.5], active_dims=[0])
        + SquaredExponential.create(1.0, [0.2, 0.3]),
    ], ids=["se", "periodic+se", "sm+se"])
    def test_shared_block_matches_per_expert_kernel_calls(self, kern, rng):
        X = spread_points(128, 2, rng)
        model = CpoeModel(kern, NoiseSpec.create(0.1), J=8, C=3, gamma=0.5,
                          seed=0).fit(X, rng.normal(size=128))
        Xs = np.random.default_rng(7).uniform(0, 1, (40, 2))
        experts, means, variances, _ = predict_arrays(model, Xs, return_locals=True)[2]
        kxx = kern.diag(Xs)
        s = model.serving
        for row, j in enumerate(experts):
            K_psix = kern(model.graph.correlation_inputs(j), Xs)
            k = j - s.first
            m, v = prediction._local_moments(K_psix, kxx, s.basis[k], s.coef[k], s.eigvals[k])
            np.testing.assert_allclose(means[row], m, rtol=0, atol=1e-13 * np.abs(m).max())
            np.testing.assert_allclose(variances[row], np.maximum(v, 1e-12 * kxx),
                                       rtol=1e-13)

    def test_serving_eigenvalue_above_one_rejected(self, rng):
        # S is a covariance, so the eigenvalues of I - S are at most 1; the
        # tolerance is the eigensolver's rounding, P u max(1, max|eigvals|)
        model, _, _ = small_model(rng, N=64, J=8, C=3)
        basis, coef, lam = model.serving.arrays().values()
        assert lam.max() < 1.0
        tol = lam.shape[1] * np.finfo(float).eps * max(1.0, np.abs(lam[1]).max())
        lam = lam.copy()
        lam[1, 5] = 1.0 + 0.5 * tol
        ServingState(2, basis, coef, lam)  # within rounding
        lam[1, 5] = 1.0 + 2.0 * tol
        with pytest.raises(ValueError, match="serving state of expert 3 has an eigenvalue "
                                             "of I - S at 1 \\+ "):
            ServingState(2, basis, coef, lam)


class TestServingState:
    def test_built_once_per_fit(self, rng, monkeypatch):
        model, X, y = small_model(rng, N=64, J=8, C=3)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        Xs = np.random.default_rng(3).uniform(0, 1, (10, 2))
        first = model.predict(Xs)
        assert len(calls) == 6  # one per predictive expert
        assert all(np.array_equal(a, b) for a, b in zip(model.predict(Xs), first))
        predict_arrays(model, Xs[:1], return_locals=True)
        assert len(calls) == 6
        theta = model.get_params() + 0.1
        model.set_params(theta)
        assert len(calls) == 6  # a refit builds no serving state ...
        again = model.predict(Xs)
        assert len(calls) == 12  # ... its first prediction does
        refit = CpoeModel(model.kernel, model.noise, J=8, C=3, gamma=0.5, seed=0).fit(X, y)
        for a, b in zip(again, refit.predict(Xs)):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(again[0], first[0])


class TestAggregationWeights:
    def test_single_expert_gets_full_weight(self):
        w = aggregation_weights(1.0, [0.2], N=100, C=4)
        np.testing.assert_allclose(w, [1.0])

    def test_equal_variances_split_evenly(self):
        w = aggregation_weights(1.0, [0.3, 0.3], N=50, C=2)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)

    def test_frozen_example(self):
        # v0=1, variances (0.1, 0.5), N=100, C=2: raw weights are
        # (log(10)/2, log(2)/2), sharpening exponent 2 log(100); normalized
        # values computed once with the direct formula and frozen here
        w = aggregation_weights(1.0, [0.1, 0.5], N=100, C=2)
        np.testing.assert_allclose(w, [0.9999842307264077, 1.576927359221209e-05],
                                   rtol=1e-10)

    def test_uninformative_experts_fall_back_to_uniform(self):
        # posterior variance at (or above) the prior: clamped raw weights are
        # all equal, so normalization degrades to uniform
        w = aggregation_weights(1.0, [1.0, 1.0, 1.0], N=100, C=2)
        np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-12)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            aggregation_weights(1.0, [0.5, -0.1], N=10, C=1)

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=250, deadline=None)
    def test_normalization_property(self, n_experts, seed):
        r = np.random.default_rng(seed)
        v0 = float(r.uniform(0.5, 3.0))
        v = r.uniform(0.01, 4.0, size=n_experts)
        w = aggregation_weights(v0, v, N=int(r.integers(2, 10_000)), C=int(r.integers(1, 8)))
        assert w.shape == (n_experts,)
        assert np.all(w >= 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_more_informative_expert_weighs_more(self):
        w = aggregation_weights(1.0, [0.05, 0.5], N=1000, C=3)
        assert w[0] > w[1]


class TestAggregate:
    """``fuse`` over experts along axis 0."""

    def test_single_passthrough(self):
        m, v = fuse(np.array([0.7]), np.array([0.3]), np.array([1.0]))
        assert m == pytest.approx(0.7)
        assert v == pytest.approx(0.3)

    def test_identical_experts_idempotent(self):
        m, v = fuse(np.array([1.1, 1.1]), np.array([0.4, 0.4]), np.array([0.5, 0.5]))
        assert m == pytest.approx(1.1)
        assert v == pytest.approx(0.4)

    def test_direct_formula(self):
        m, v = fuse(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert m == pytest.approx(0.5)
        assert v == pytest.approx(1.0)

    def test_columns_fuse_independently(self):
        # two experts by three queries: each column is its own fusion
        means = np.array([[0.0, 1.0, -2.0], [1.0, 1.0, 2.0]])
        variances = np.array([[1.0, 0.2, 0.5], [1.0, 0.4, 0.5]])
        weights = np.array([[0.5, 0.9, 0.25], [0.5, 0.1, 0.75]])
        m, v = fuse(means, variances, weights)
        for q in range(3):
            mq, vq = fuse(means[:, q], variances[:, q], weights[:, q])
            assert (m[q], v[q]) == (mq, vq)


class TestPredict:
    def test_full_degree_equals_exact_gp(self, rng):
        model, X, y = small_model(rng, N=48, J=4, C=4, gamma=1.0, ls=0.07)
        full = FullGp(model.kernel, model.noise).fit(X, y)
        Xs = np.random.default_rng(2).uniform(0, 1, (20, 2))
        m, v = predict_arrays(model, Xs)
        fm, fv = full.predict(Xs)
        np.testing.assert_allclose(m, fm, atol=1e-7)
        np.testing.assert_allclose(v, fv, atol=1e-7)

    def test_batch_equals_pointwise(self, rng):
        model, _, _ = small_model(rng)
        Xs = np.random.default_rng(1).uniform(0, 1, (20, 2))
        m_batch, v_batch = predict_arrays(model, Xs)
        for i in range(20):
            m_i, v_i = predict_arrays(model, Xs[i:i + 1])
            assert abs(m_batch[i] - m_i[0]) < 1e-12
            assert abs(v_batch[i] - v_i[0]) < 1e-12

    def test_independent_degree_matches_gpoe(self, rng):
        model, X, y = small_model(rng, J=4, C=1, gamma=1.0)
        poe = ProductOfExperts(model.kernel, model.noise, model.graph.row_indices).fit(X, y)
        Xs = np.random.default_rng(3).uniform(0, 1, (25, 2))
        m, v = predict_arrays(model, Xs, weight_exponent=1.0)
        gm, gv = poe.predict(Xs)
        np.testing.assert_allclose(m, gm, atol=1e-8)
        np.testing.assert_allclose(v, gv, atol=1e-8)

    def test_chunks_match_single_chunk(self, rng, monkeypatch):
        model, _, _ = small_model(rng, N=64, J=8, C=3)
        Xs = np.random.default_rng(5).uniform(0, 1, (300, 2))
        whole = predict_arrays(model, Xs, return_locals=True)
        assert prediction.CHUNK_ENTRIES // model.graph.M >= 300  # one chunk by default
        assert len(model.serving.experts) <= prediction.EXPERT_GROUP  # one group by default
        monkeypatch.setattr(prediction, "MIN_CHUNK_ROWS", 1)
        # 300 queries in chunks of 100 rows, or of 70 with a last chunk of 20;
        # the 6 predictive experts in one group, or in groups of 4 and 2
        for rows, group in [(100, 16), (70, 16), (100, 4), (70, 4)]:
            monkeypatch.setattr(prediction, "CHUNK_ENTRIES", rows * model.graph.M)
            monkeypatch.setattr(prediction, "EXPERT_GROUP", group)
            chunked = predict_arrays(model, Xs, return_locals=True)
            for a, b in [(whole[0], chunked[0]), (whole[1], chunked[1])] + list(
                    zip(whole[2], chunked[2])):
                np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)

    def test_locals_match_cho_solve_formula(self, rng):
        # the unwhitened form: H = K_xpsi K_psi^-1, m = H mu, v = k - K_xpsi H' + H Sigma H'
        model, _, _ = small_model(rng, N=64, J=8, C=3)
        Xs = np.random.default_rng(6).uniform(0, 1, (40, 2))
        experts, means, variances, _ = predict_arrays(model, Xs, return_locals=True)[2]
        post = model.posterior
        for row, j in enumerate(experts):
            A_psi = model.graph.correlation_inputs(j)
            K_xpsi = model.kernel(Xs, A_psi)
            H = cho_solve((jittered_cholesky(model.kernel(A_psi))[0], True), K_xpsi.T).T
            m = H @ post.mu_at(model.graph.correlation[j])
            v = (np.einsum("ij,ij->i", H @ post.sigma_psi(j), H)
                 + model.kernel.diag(Xs) - np.einsum("ij,ij->i", K_xpsi, H))
            np.testing.assert_allclose(means[row], m, rtol=1e-9, atol=1e-9 * np.abs(m).max())
            np.testing.assert_allclose(variances[row], v, rtol=1e-9)

    def test_noise_flag_adds_variance(self, rng):
        model, _, _ = small_model(rng)
        Xs = np.random.default_rng(0).uniform(0, 1, (5, 2))
        _, v_lat = predict_arrays(model, Xs)
        _, v_noisy = predict_arrays(model, Xs, add_noise=True)
        np.testing.assert_allclose(v_noisy, v_lat + model.noise.variance, rtol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        model, _, _ = small_model(rng)
        with pytest.raises(ValueError):
            predict_arrays(model, np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, rng, bad):
        model, _, _ = small_model(rng)
        Xs = np.full((3, 2), 0.5)
        Xs[1, 0] = bad
        with pytest.raises(ValueError, match="query holds NaN or inf"):
            predict_arrays(model, Xs)

    def test_continuity_across_expert_boundary(self, rng):
        # the aggregated prediction must stay smooth where the minimal-variance
        # pick is allowed to jump
        r2 = np.random.default_rng(11)
        N = 128
        X = np.sort(r2.uniform(0, 1, N))[:, None]
        kern = SquaredExponential.create(1.0, [0.05])
        noise = NoiseSpec.create(0.05)
        y, _ = gp_sample(kern, X, 0.05, r2)
        model = CpoeModel(kern, noise, J=4, C=2, gamma=1.0, seed=0).fit(X, y)
        path = np.linspace(0.02, 0.98, 400)[:, None]
        m, v = predict_arrays(model, path)
        steps = np.abs(np.diff(m))
        assert steps.max() <= 5.0 * np.median(steps) + 1e-9

    def test_kl_to_full_gp_non_increasing_in_degree(self, rng):
        # nested predecessor chains: predictive KL to the exact GP shrinks as
        # the correlation degree grows
        from cpoe.expert_graph import ExpertGraph
        from cpoe.metrics import kl_univariate

        r2 = np.random.default_rng(8)
        X = spread_points(128, 2, r2)
        kern = SquaredExponential.create(1.0, [0.1, 0.1])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, r2)
        Xs = r2.uniform(0, 1, (60, 2))
        fm, fv = FullGp(kern, noise).fit(X, y).predict(Xs)
        base = ExpertGraph.build(X, 4, C=1, gamma=1.0, seed=0)
        kls = []
        for C in (1, 2, 3, 4):
            m = CpoeModel(kern, noise, J=4, C=C, gamma=1.0, seed=0)
            m.fit(X, y, graph=base.with_correlation(C))
            mm, vv = predict_arrays(m, Xs)
            kls.append(np.mean([kl_univariate((a, b), (c, d))
                                for a, b, c, d in zip(fm, fv, mm, vv)]))
        for a, b in zip(kls, kls[1:]):
            assert b <= a * 1.05 + 1e-9
