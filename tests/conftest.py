"""Shared test fixtures: data generators and dense first-principles oracles.

The dense helpers rebuild every model quantity with plain numpy inverses from
kernel matrices and the graph's index sets only, independently of the block
assembly they are used to check.
"""

import numpy as np
import pytest
from hypothesis import settings

import cpoe
from cpoe import cpoe_model
from cpoe.block_sparse import BlockSparseMatrix, symbolic_factor
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
# the set-up stages as first written: plain loops, quadratic in J, kept as the
# oracles the vectorised stages must match bit for bit

def loop_kd_partition(X, J):
    """Recursive median splits, one stable argsort per cell."""
    X = np.asarray(X, dtype=float)
    assignment = np.empty(X.shape[0], dtype=int)
    next_cell = 0

    def split(rows, cells):
        nonlocal next_cell
        if cells == 1:
            assignment[rows] = next_cell
            next_cell += 1
            return
        spread = X[rows].max(axis=0) - X[rows].min(axis=0)
        order = rows[np.argsort(X[rows, int(np.argmax(spread))], kind="stable")]
        cut = (len(rows) + 1) // 2
        split(order[:cut], cells // 2)
        split(order[cut:], cells // 2)

    split(np.arange(X.shape[0]), J)
    return assignment


def loop_order_partitions(centers, start):
    """The greedy walk from ``start``: one norm over the remaining centers a step."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    ordering = [start]
    remaining = np.delete(np.arange(centers.shape[0]), start)
    while remaining.size:
        dists = np.linalg.norm(centers[remaining] - centers[ordering[-1]], axis=1)
        k = int(np.argmin(dists))
        ordering.append(int(remaining[k]))
        remaining = np.delete(remaining, k)
    return np.asarray(ordering, dtype=int)


def loop_correlation_sets(centers, C):
    """One norm and one stable argsort over the earlier centers per position."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    J = centers.shape[0]
    out = np.empty((J, C), dtype=int)
    out[:C - 1] = np.arange(C)
    for j in range(C - 1, J):
        d = np.linalg.norm(centers[:j] - centers[j], axis=1)
        out[j, :-1] = np.sort(np.argsort(d, kind="stable")[:C - 1])
        out[j, -1] = j
    return out


def loop_min_degree(pattern):
    """Minimum degree by a scan of the live blocks per step."""
    n = max((max(i, j) for i, j in pattern), default=-1) + 1
    adj = [set() for _ in range(n)]
    for i, j in pattern:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    alive, order = set(range(n)), []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u]), u))
        order.append(v)
        alive.remove(v)
        for u in adj[v]:
            adj[u] |= adj[v] - {u}
            adj[u].discard(v)
    return np.asarray(order, dtype=int)


def scan_split_rows(owner, n):
    """The rows of each group, one full scan of the map per group."""
    return [np.flatnonzero(np.asarray(owner) == j) for j in range(n)]


def loop_build(X, J, C, gamma, seed):
    """``ExpertGraph.build``'s layout from the loops: ordering, rows and inducing
    subsets per position, centers one cell at a time, and correlation sets."""
    from cpoe.expert_graph import select_inducing

    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    cells = scan_split_rows(loop_kd_partition(X, J), J)
    L = int(np.floor(gamma * min(len(c) for c in cells)))
    idx = [select_inducing(X[c], gamma, rng)[1][:L] for c in cells]
    centers = np.stack([X[c][i].mean(axis=0) for c, i in zip(cells, idx)])
    ordering = loop_order_partitions(centers, int(rng.integers(J)))
    A = X[np.stack([cells[c][idx[c]] for c in ordering])]
    return (ordering, [cells[c] for c in ordering], np.stack([idx[c] for c in ordering]),
            loop_correlation_sets(A.mean(axis=1), C))


# ---------------------------------------------------------------------------
# dense converters of the flat block layout

def pair_sets(pattern):
    """A symmetric block pattern, given as ``(i, j)`` pairs, as the index sets
    ``symbolic_factor`` takes: one set per off-diagonal pair."""
    return sorted({(max(i, j), min(i, j)) for i, j in pattern if i != j})


def from_dense(A, n_blocks, block_size, perm=None):
    """The symmetric matrix ``A`` as a :class:`BlockSparseMatrix` on the
    pattern of its nonzero blocks, ordered by ``perm`` or by minimum degree."""
    A4 = np.asarray(A, dtype=float).reshape(n_blocks, block_size, n_blocks, block_size)
    nonzero = np.argwhere(np.any(A4 != 0.0, axis=(1, 3)))
    sym = symbolic_factor(pair_sets(nonzero.tolist()), n_blocks, perm=perm)
    rows, cols = np.divmod(sym.keys, n_blocks)
    return BlockSparseMatrix(sym, A4[sym.perm[rows], :, sym.perm[cols]])


def to_dense(B):
    """The symmetric matrix whose lower blocks a block-layout object holds."""
    sym, bs = B.symbolic, B.block_size
    J = sym.n_blocks
    rows, cols = np.divmod(sym.keys, J)
    i, j = sym.perm[rows], sym.perm[cols]
    out = np.zeros((J, bs, J, bs))
    out[i, :, j] = B.blocks
    out[j, :, i] = B.blocks.transpose(0, 2, 1)
    return out.reshape(J * bs, J * bs)


def capture_partial_inverse(monkeypatch):
    """A list that records every partial inverse a model computes (all fill
    blocks, in the graph's slot layout), before the posterior keeps its part."""
    real, out = cpoe_model.partial_inverse, []
    monkeypatch.setattr(cpoe_model, "partial_inverse",
                        lambda chol: out.append(real(chol)) or out[-1])
    return out


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
