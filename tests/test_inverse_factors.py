"""The training path's products with inverse Cholesky factors.

Each per-expert solve against a Cholesky factor ``L`` is two GEMMs against
``L^-1``.  These property tests check every such product against its
``cho_solve`` form: on random SPD matrices of prescribed condition number, on
rank-deficient ones whose factorizations need jitter, and on kernel matrices
from short to very long lengthscales.  Both forms carry a forward error of a
small multiple of ``n u cond(K)`` (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 8 and 14), with ``K`` the matrix actually
factored, jitter included; the bounds below allow ``4 n u cond(K)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from conftest import predecessors, spread_points
from cpoe import (
    ExpertGraph,
    NoiseSpec,
    SquaredExponential,
    VariantSpec,
    cpoe_model,
    stochastic_lml_term,
)
from cpoe.cpoe_model import (
    _variant_terms,
    assemble_posterior,
    assemble_prior_precision,
    build_local_factors,
)
from cpoe.kernels import jittered_cholesky

EPS = np.finfo(float).eps


class MatrixKernel:
    """A fixed SPD matrix ``M`` as a kernel on index inputs: ``k(i, j) = M[i, j]``."""

    def __init__(self, M):
        self.M = M

    def __call__(self, X1, X2=None):
        X2 = X1 if X2 is None else X2
        return self.M[np.ix_(X1[:, 0].astype(int), X2[:, 0].astype(int))]

    def diag(self, X):
        return np.diag(self.M)[X[:, 0].astype(int)]


def random_spd(seed, n, log10_cond, rank=None):
    """``U diag(s) U'`` with log-spaced spectrum ``s`` from 1 down to ``10^-log10_cond``;
    the spectrum is cut to ``rank`` nonzero values when given."""
    r = np.random.default_rng(seed)
    U, _ = np.linalg.qr(r.normal(size=(n, n)))
    s = np.logspace(0.0, -log10_cond, n)
    if rank is not None:
        s[rank:] = 0.0
    M = (U * s) @ U.T
    return 0.5 * (M + M.T)


def bound(K):
    """``4 n u cond(K)``, for the matrix ``K`` a factorization actually used."""
    return 4 * K.shape[0] * EPS * np.linalg.cond(K)


def assert_close(new, ref, tol):
    assert np.linalg.norm(new - ref) <= tol * np.linalg.norm(ref) + 1e-300


def factored(K):
    """The jittered factor of ``K`` and the matrix it factors, as the model builds it."""
    chol, jitter = jittered_cholesky(K)
    return chol, K + jitter * np.eye(K.shape[0])


spd_matrices = st.one_of(
    st.tuples(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 12.0), st.none()),
    # rank-deficient: the correlation region's factorizations need jitter
    st.tuples(st.integers(0, 2 ** 32 - 1), st.just(0.0), st.integers(6, 20)),
)


class TestLocalFactors:
    @given(spd_matrices, st.integers(1, 4), st.sampled_from(["fitc", "pitc"]))
    @settings(max_examples=40, deadline=None)
    def test_match_cho_solve_on_random_spd(self, matrix, C, variant):
        seed, log10_cond, rank = matrix
        N = 64
        M = random_spd(seed, N, log10_cond, rank)
        kern = MatrixKernel(M)
        graph = ExpertGraph.build(np.arange(N, dtype=float)[:, None], 4, C, gamma=0.5,
                                  seed=seed % 7)
        factors = build_local_factors(graph, kern, NoiseSpec.create(0.1),
                                      VariantSpec(variant))
        for j, e in enumerate(factors.experts):
            # trtri keeps the input's upper triangle, which is zero in every factor
            for inv in (e.inv_psi, e.inv_pipi, e.inv_Q):
                if inv is not None:
                    np.testing.assert_array_equal(inv, np.tril(inv))
            # projection: H = K_xpsi K_psi^-1, D = K_xx - H K_psix
            A_psi, X_j = graph.correlation_inputs(j), graph.X[graph.row_indices[j]]
            chol, K_eff = factored(kern(A_psi))
            K_xpsi = kern(X_j, A_psi)
            H = cho_solve((chol, True), K_xpsi.T).T
            tol = bound(K_eff)
            assert_close(e.H, H, tol)
            scale = np.linalg.norm(K_xpsi) * np.linalg.norm(H)
            D = kern(X_j) - K_xpsi @ H.T
            if e.D.ndim == 1:
                assert np.abs(e.D - np.diag(D)).max() <= tol * scale
            else:
                assert np.abs(e.D - 0.5 * (D + D.T)).max() <= tol * scale

            # transition: F = K_api K_pipi^-1, Q = K_aa - K_api F'
            A_self, pred = graph.inducing_inputs[j], predecessors(graph, j)
            K_aa = kern(A_self)
            if pred.size:
                A_pred = graph.inducing_inputs[pred].reshape(-1, graph.D)
                chol, K_eff = factored(kern(A_pred))
                K_api = kern(A_self, A_pred)
                F = cho_solve((chol, True), K_api.T).T
                tol = bound(K_eff)
                assert_close(e.F, F, tol)
                Q = K_aa - K_api @ F.T
                # the model's Q before jitter, and the jitter its factorization needed
                Q_model = K_aa - K_api @ e.F.T
                Q_model = 0.5 * (Q_model + Q_model.T)
                _, q_jitter = jittered_cholesky(Q_model, scale=float(np.mean(np.diag(K_aa))))
                np.testing.assert_array_equal(e.Q, Q_model + q_jitter * np.eye(Q.shape[0]))
                assert np.abs(Q_model - 0.5 * (Q + Q.T)).max() <= (
                    tol * np.linalg.norm(K_api) * np.linalg.norm(F) + 4 * EPS * np.abs(K_aa).max())

            # local prior block: Ft' Q^-1 Ft against the Gram matrix of L_Q^-1 Ft
            Ft = np.eye(graph.L) if e.F is None else np.hstack([-e.F, np.eye(graph.L)])
            local = Ft.T @ cho_solve((np.linalg.cholesky(e.Q), True), Ft)
            W = e.whitened_transition()
            assert_close(W.T @ W, local, bound(e.Q))


class TestResidualInverse:
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 2.0), st.sampled_from([0.5, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_full_residual_inverse_matches_cho_solve(self, seed, ls, alpha):
        # V_j^-1 is formed once on the posterior and reused by the gradient
        r = np.random.default_rng(seed)
        X = spread_points(64, 2, r)
        kern = SquaredExponential.create(1.0, [ls, ls])
        noise = NoiseSpec.create(0.1)
        variant = VariantSpec("pitc" if alpha == 1.0 else "pep_b", alpha)
        graph = ExpertGraph.build(X, 4, 2, gamma=0.5, seed=0)
        factors = build_local_factors(graph, kern, noise, variant)
        y = r.normal(size=64)
        post = assemble_posterior(factors, assemble_prior_precision(factors), y)
        for j, e in enumerate(factors.experts):
            rows = graph.row_indices[j]
            V = e.vbar + noise.variance * np.eye(rows.size)
            cv = np.linalg.cholesky(V)
            tol = bound(V)
            assert_close(post.vinv[j], cho_solve((cv, True), np.eye(V.shape[0])), tol)
            assert_close(post.vinv_y[j], cho_solve((cv, True), y[rows]), tol)
            assert_close(post.vinv[j] @ e.H, cho_solve((cv, True), e.H), tol)


def stochastic_reference(graph, kern, noise, j, y_j, variant):
    """Value and gradient of one stochastic term from ``cho_solve`` and dense
    derivatives of the marginal covariance ``P = N + s D + sigma2 I``."""
    X = graph.X[graph.row_indices[j]]
    A = graph.inducing_inputs[j]
    sigma2, s, full = noise.variance, variant.residual_scale, variant.full_residual

    def kept(M):  # the part of a residual-shaped matrix the variant keeps
        return 0.5 * (M + M.T) if full else np.diag(M)

    chol_a = jittered_cholesky(kern(A))[0]
    K_xa = kern(X, A)
    H = cho_solve((chol_a, True), K_xa.T).T
    N_ = K_xa @ H.T
    D = kept(kern(X) - N_)
    vbar, lam, dlam = _variant_terms(variant, D, sigma2)
    P = N_ + (vbar if full else np.diag(vbar))
    P = 0.5 * (P + P.T) + sigma2 * np.eye(X.shape[0])
    cp = np.linalg.cholesky(P)
    alpha = cho_solve((cp, True), y_j)
    value = -0.5 * (y_j @ alpha + 2 * np.sum(np.log(np.diag(cp)))) - lam
    T = 0.5 * (np.outer(alpha, alpha) - cho_solve((cp, True), np.eye(y_j.size)))
    dK_xx, dK_xa, dK_aa = kern.grad_stack(X), kern.grad_stack(X, A), kern.grad_stack(A)
    grad = np.empty(kern.n_params + 1)
    for k in range(kern.n_params):
        dN = dK_xa[k] @ H.T + H @ dK_xa[k].T - H @ dK_aa[k] @ H.T
        dD = kept(dK_xx[k] - dN)
        grad[k] = np.sum(T * dN) + s * np.sum(kept(T) * dD) - np.sum(dlam * dD)
    grad[-1] = sigma2 * np.trace(T) + np.sum(dlam * D)
    return value, grad, cp, chol_a


class TestStochasticTerm:
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 3.0),
           st.sampled_from([("fitc", 1.0), ("pitc", 1.0), ("vfe", 1.0), ("pep", 0.5),
                            ("pep_b", 0.5)]))
    @settings(max_examples=30, deadline=None)
    def test_value_and_gradient_match_cho_solve(self, seed, ls, spec):
        # long lengthscales make K(A_j) near-singular and jittered
        r = np.random.default_rng(seed)
        X = spread_points(64, 2, r)
        kern = SquaredExponential.create(1.3, [ls, 1.2 * ls])
        noise = NoiseSpec.create(0.1)
        variant = VariantSpec(*spec)
        graph = ExpertGraph.build(X, 2, 1, gamma=0.5, seed=0)
        for j in range(graph.J):
            y_j = r.normal(size=graph.row_indices[j].size)
            value, grad = stochastic_lml_term(graph, kern, noise, j, y_j, variant)
            ref_value, ref_grad, cp, chol_a = stochastic_reference(graph, kern, noise, j,
                                                                   y_j, variant)
            # both forms solve against the same factors of P and K(A_j)
            tol = bound(cp @ cp.T) + bound(chol_a @ chol_a.T)
            assert abs(value - ref_value) <= tol * abs(ref_value)
            assert np.linalg.norm(grad - ref_grad) <= tol * np.linalg.norm(ref_grad)


class TestSingularFactor:
    # build_local_factors factors, per expert j >= 1 in order, K(A_psi),
    # K(A_pred) and Q; expert 0 factors K(A_psi) and Q; so expert 2's three
    # factorizations are calls 5, 6 and 7
    @pytest.mark.parametrize("call,what", [
        (5, "K\\(A, A\\) of expert 2"), (6, "K\\(A_pred, A_pred\\) of expert 2"),
        (7, "Q of expert 2")])
    def test_trtri_failure_names_expert(self, call, what, rng, monkeypatch):
        X = spread_points(64, 2, rng)
        kern = SquaredExponential.create(1.0, [0.2, 0.2])
        graph = ExpertGraph.build(X, 4, 2, gamma=0.5, seed=0)
        calls = []

        def broken(K, scale=None):
            chol, jitter = jittered_cholesky(K, scale)
            calls.append(None)
            if len(calls) == call + 1:
                chol = chol.copy()
                chol[1, 1] = 0.0
            return chol, jitter

        monkeypatch.setattr(cpoe_model, "jittered_cholesky", broken)
        with pytest.raises(np.linalg.LinAlgError, match=f"factor of {what} is singular"):
            build_local_factors(graph, kern, NoiseSpec.create(0.1))

    def test_stochastic_term_names_expert(self, rng, monkeypatch):
        X = spread_points(32, 2, rng)
        graph = ExpertGraph.build(X, 2, 1, gamma=0.5, seed=0)

        def broken(K, scale=None):
            chol = jittered_cholesky(K, scale)[0].copy()
            chol[0, 0] = 0.0
            return chol, 0.0

        monkeypatch.setattr(cpoe_model, "jittered_cholesky", broken)
        with pytest.raises(np.linalg.LinAlgError, match="expert 1 is singular"):
            stochastic_lml_term(graph, SquaredExponential.create(1.0, [0.2, 0.2]),
                                NoiseSpec.create(0.1), 1, np.zeros(16))
