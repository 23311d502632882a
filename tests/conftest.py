"""Shared test fixtures: data generators and dense first-principles oracles.

The dense helpers rebuild every model quantity with plain numpy inverses from
kernel matrices and the graph's index sets only, independently of the block
assembly they are used to check.
"""

import numpy as np
import pytest
from hypothesis import settings

import cpoe
from cpoe.expert_graph import ExpertGraph, correlation_sets

cpoe.set_num_threads()  # single-threaded BLAS: the suite works on small blocks

# Property tests draw the same examples on every run ("ci", the default; CI
# selects it with --hypothesis-profile=ci), so they cannot flake.
settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.load_profile("ci")


def spread_points(n, d, rng, jitter=0.2):
    """Quasi-uniform points in [0,1]^d (jittered grid, subsampled).

    Keeps kernel Gram matrices well conditioned so that oracle comparisons are
    not dominated by near-singular directions.
    """
    side = int(np.ceil(n ** (1.0 / d)))
    g = (np.arange(side) + 0.5) / side
    mesh = np.stack(np.meshgrid(*([g] * d)), axis=-1).reshape(-1, d)
    mesh = mesh + rng.uniform(-jitter / side, jitter / side, mesh.shape)
    return mesh[rng.permutation(mesh.shape[0])[:n]]


def jittered_grid_2d(n_side, rng, frac=0.25):
    g = (np.arange(n_side) + 0.5) / n_side
    xx, yy = np.meshgrid(g, g)
    X = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return X + rng.uniform(-frac / n_side, frac / n_side, X.shape)


def gp_sample(kernel, X, noise_variance, rng):
    """Exact GP draw plus observation noise."""
    n = X.shape[0]
    K = kernel(X)
    chol = np.linalg.cholesky(K + 1e-10 * np.mean(np.diag(K)) * np.eye(n))
    f = chol @ rng.normal(size=n)
    return f + np.sqrt(noise_variance) * rng.normal(size=n), f


def consecutive_graph(X, J, C, gamma=1.0):
    """Manually built graph with consecutive predecessors over row-ordered cells.

    Its correlation sets are ranked on centers at the positions themselves, so
    each expert's ``C - 1`` nearest earlier centers are the ones just before it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    N = X.shape[0]
    B = N // J
    rows = [np.arange(j * B, (j + 1) * B) for j in range(J)]
    L = int(np.floor(gamma * B))
    inducing_idx = np.tile(np.arange(L), (J, 1))
    A = np.stack([X[r][:L] for r in rows])
    return ExpertGraph(X=X[: J * B], J=J, C=C, gamma=gamma, seed=0,
                       ordering=np.arange(J), row_indices=rows,
                       inducing_index=inducing_idx, inducing_inputs=A,
                       correlation=correlation_sets(np.arange(J)[:, None], C))


def predecessors(graph, j, plus_self=False):
    """Expert ``j``'s predecessor set, the leading ``min(j, C - 1)`` entries of
    its correlation set; with ``plus_self``, one entry more (``j`` itself)."""
    return graph.correlation[j, :min(j, graph.C - 1) + plus_self]


def transition_noise(e):
    """The transition noise ``Q`` an expert factored, jitter included, rebuilt
    from the inverse factor ``L_Q^-1`` the model keeps."""
    chol = np.linalg.inv(e.inv_Q)
    return chol @ chol.T


# ---------------------------------------------------------------------------
# dense oracles (plain numpy, no block machinery)

def dense_local_factors(graph, kernel):
    """Per-expert F, Q, H, D from kernel matrices and index sets alone."""
    out = []
    for j in range(graph.J):
        pred, psi = predecessors(graph, j), graph.correlation[j]
        A_j = graph.inducing_inputs[j]
        X_j = graph.X[graph.row_indices[j]]
        if len(pred):
            A_pi = np.vstack([graph.inducing_inputs[p] for p in pred])
            F = kernel(A_j, A_pi) @ np.linalg.inv(kernel(A_pi))
            Q = kernel(A_j) - F @ kernel(A_pi, A_j)
        else:
            F, Q = None, kernel(A_j)
        A_psi = np.vstack([graph.inducing_inputs[p] for p in psi])
        H = kernel(X_j, A_psi) @ np.linalg.inv(kernel(A_psi))
        D = kernel(X_j) - H @ kernel(A_psi, X_j)
        out.append((F, Q, H, D))
    return out


def dense_prior_precision(graph, kernel):
    """S as the scattered sum of local Ft' Q^{-1} Ft contributions."""
    L, M = graph.L, graph.M
    S = np.zeros((M, M))
    for j, (F, Q, _, _) in enumerate(dense_local_factors(graph, kernel)):
        pp = predecessors(graph, j, plus_self=True)
        Ft = np.hstack([-F, np.eye(L)]) if F is not None else np.eye(L)
        local = Ft.T @ np.linalg.inv(Q) @ Ft
        for a, i in enumerate(pp):
            for b, k in enumerate(pp):
                S[i * L:(i + 1) * L, k * L:(k + 1) * L] += \
                    local[a * L:(a + 1) * L, b * L:(b + 1) * L]
    return S


def dense_projection(graph, kernel):
    """Global H (expert-ordered rows) and the diagonal of the residual."""
    L, M = graph.L, graph.M
    H_rows, d_diag = [], []
    for j, (_, _, H, D) in enumerate(dense_local_factors(graph, kernel)):
        psi = graph.correlation[j]
        row = np.zeros((H.shape[0], M))
        for a, p in enumerate(psi):
            row[:, p * L:(p + 1) * L] = H[:, a * L:(a + 1) * L]
        H_rows.append(row)
        d_diag.append(np.diag(D).copy())
    return np.vstack(H_rows), np.concatenate(d_diag)


def expert_order(graph):
    """Row permutation stacking the experts' data blocks in order."""
    return np.concatenate([graph.row_indices[j] for j in range(graph.J)])


def dense_posterior(graph, kernel, noise, y):
    """(precision, b, mu) of the inducing-value posterior, densely."""
    S = dense_prior_precision(graph, kernel)
    H, d = dense_projection(graph, kernel)
    y_perm = np.asarray(y, dtype=float)[expert_order(graph)]
    v = d + noise.variance
    T = H.T @ (H / v[:, None])
    b = H.T @ (y_perm / v)
    prec = S + T
    mu = np.linalg.solve(prec, b)
    return prec, b, mu


def dense_lml(graph, kernel, noise, y):
    """log N(y; 0, H S^{-1} H' + V) computed densely (FITC residual)."""
    S = dense_prior_precision(graph, kernel)
    H, d = dense_projection(graph, kernel)
    y_perm = np.asarray(y, dtype=float)[expert_order(graph)]
    P = H @ np.linalg.solve(S, H.T) + np.diag(d + noise.variance)
    n = y_perm.size
    return -0.5 * (y_perm @ np.linalg.solve(P, y_perm) + np.linalg.slogdet(P)[1]
                   + n * np.log(2 * np.pi))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
