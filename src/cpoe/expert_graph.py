"""Ordered partition of a dataset into local experts with predecessor structure.

The construction pipeline is: KD-tree partition into ``J`` cells, random
subset of each cell as local inducing inputs, greedy nearest-center ordering
of the cells, then the distance-ranked correlation sets of degree ``C``, whose
leading prefixes are the predecessor sets.  Everything downstream (prior
precision, projection, prediction regions) is indexed against this graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .block_sparse import SymbolicFactor, symbolic_factor

__all__ = [
    "ExpertGraph",
    "kd_partition",
    "split_rows",
    "order_partitions",
    "select_inducing",
    "correlation_sets",
]


def split_rows(owner: np.ndarray, n: int) -> list[np.ndarray]:
    """The rows of each of ``n`` groups, ascending, from a row -> group map:
    one stable argsort, cut at the group sizes.  The map is sorted in the
    narrowest unsigned type that holds ``n - 1``, for which numpy's stable
    sort is a radix sort."""
    owner = np.asarray(owner)
    counts = np.bincount(owner, minlength=n)
    if counts.size != n:
        raise ValueError(f"row -> group map holds group {owner.max()}, outside [0, {n})")
    order = np.argsort(owner.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
    return np.split(order, np.cumsum(counts)[:-1])


def kd_partition(X: np.ndarray, J: int) -> np.ndarray:
    """Assign each row of ``X`` to one of ``J`` KD-tree cells.

    Recursive median splits on the dimension of widest spread; ``J`` must be a
    power of two and cell sizes differ by at most one.  Returns an integer
    array of cell ids in [0, J).  The tree is split one level at a time: the
    rows of every cell of a level lie contiguous in one array, and one
    stable lexsort by (cell, coordinate) orders every cell along its
    dimension, ties kept in the cell's order; a cell's first ``ceil(n / 2)``
    rows go left.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    N = X.shape[0]
    if J < 1 or (J & (J - 1)) != 0:
        raise ValueError(f"J must be a power of two, got {J}")
    if N < J:
        raise ValueError(f"need at least J={J} rows, got {N}")
    rows = np.arange(N)
    starts = np.array([0, N])  # cell c holds rows[starts[c]:starts[c + 1]]
    while starts.size <= J:
        lo, sizes = starts[:-1], np.diff(starts)
        # cell ids in the narrowest unsigned type, which numpy radix-sorts
        cell = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(J)), sizes)
        Xr = X.take(rows, axis=0)
        dim = np.argmax(np.maximum.reduceat(Xr, lo) - np.minimum.reduceat(Xr, lo), axis=1)
        rows = rows.take(np.lexsort((Xr[np.arange(N), dim.take(cell)], cell)))
        cuts = np.empty(2 * sizes.size + 1, dtype=int)
        cuts[0::2], cuts[1::2] = starts, lo + (sizes + 1) // 2
        starts = cuts
    assignment = np.empty(N, dtype=int)
    assignment[rows] = np.repeat(np.arange(J), np.diff(starts))
    return assignment


def _tie_radius(d):
    """The k-d tree distance within which a candidate may tie, by the exact
    norm, the nearest candidate at tree distance ``d``: the two distances
    differ by rounding, relative to the distance, but for squares that
    underflow.  Candidates within it are ranked by the norm."""
    return d * (1 + 1e-9) + 1e-150


def _nearest_left(d: np.ndarray, i: np.ndarray, left: np.ndarray,
                  complete: bool) -> np.ndarray | None:
    """The cells of a neighbor list, ``i`` at ascending tree distances ``d``,
    that are left and may be the nearest such by the norm; None when the list
    may miss one (``complete`` says it holds every cell)."""
    alive = left[i]
    if not alive.any():
        return None
    radius = _tie_radius(d[alive.argmax()])
    if not complete and d[-1] <= radius:
        return None
    return i[alive & (d <= radius)]


def order_partitions(centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Greedy nearest-center ordering of the cells, from a random start.

    Appends the unvisited cell whose center is closest (Euclidean) to the most
    recently added cell's center; ties break toward the lowest cell index.
    Each step reads the last center's 16 nearest centers, found for all
    centers by one k-d tree query.  When that list may miss the nearest cell
    left, the step queries a tree over the cells left, rebuilt whenever half
    of its cells have been visited, for a doubling number of neighbors.
    Candidates whose tree distances cannot tell them apart are ranked by
    ``np.linalg.norm`` of the center differences.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    J = centers.shape[0]
    if J == 1:
        return np.array([0])
    start = int(rng.integers(J))
    K = min(J, 16)
    dist, nbr = cKDTree(centers).query(centers, k=K)
    left = np.ones(J, dtype=bool)
    left[start] = False
    ordering = [start]
    ids = tree = None  # the cells left when the tree over them was built
    for n_left in range(J - 1, 0, -1):
        last = ordering[-1]
        found, k = _nearest_left(dist[last], nbr[last], left, K == J), K
        while found is None:
            if ids is None or 2 * n_left <= ids.size:
                ids = np.flatnonzero(left)
                tree = cKDTree(centers[ids])
            k = min(k, ids.size)
            d, i = tree.query(centers[last], k=k)
            found = _nearest_left(np.atleast_1d(d), ids[np.atleast_1d(i)], left,
                                  k == ids.size)
            k *= 2
        nxt = int(found[0])
        if found.size > 1:  # ascending, so argmin's first minimum is the lowest index
            found = np.sort(found)
            nxt = int(found[np.argmin(np.linalg.norm(centers[found] - centers[last], axis=1))])
        ordering.append(nxt)
        left[nxt] = False
    return np.asarray(ordering, dtype=int)


def select_inducing(X_j: np.ndarray, gamma: float, rng: np.random.Generator):
    """Uniform random subset of ``floor(gamma * B)`` rows as inducing inputs.

    ``gamma == 1`` returns the cell itself in original row order.  Returns
    ``(A_j, indices)`` with indices sorted ascending.
    """
    X_j = np.asarray(X_j, dtype=float)
    B = X_j.shape[0]
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    L = int(np.floor(gamma * B))
    if L == 0:
        raise ValueError(f"gamma={gamma} selects zero inducing points for cell size {B}")
    if L == B:
        idx = np.arange(B)
    else:
        idx = np.sort(rng.choice(B, size=L, replace=False))
    return X_j[idx], idx


# neighbor entries per k-d tree query of correlation_sets: heavily tied
# centers double k up to J, and each batch's arrays stay this size still
_QUERY_ENTRIES = 1 << 18


def _nearest_earlier(out: np.ndarray, tree: cKDTree, centers: np.ndarray,
                     todo: np.ndarray, k: int) -> np.ndarray:
    """Rank the ``k`` nearest centers of each position in ``todo``; write the
    predecessors of those whose list holds every candidate into ``out``, and
    return the others."""
    J, C = out.shape
    d, i = tree.query(centers[todo], k=k)
    earlier = i < todo[:, None]
    seen = np.cumsum(earlier, axis=1)
    radius = _tie_radius(d[np.arange(todo.size), np.argmax(seen >= C - 1, axis=1)])
    # the list holds every candidate once one it leaves out lies beyond the radius
    done = (k == J) | ((seen[:, -1] >= C - 1) & (d[:, -1] > radius))
    rows, i = todo[done], i[done]
    candidate = earlier[done] & (d[done] <= radius[done, None])
    # one row per (position, candidate) pair, as the loop over earlier centers read them
    diff = (centers[i] - centers[rows, None]).reshape(-1, centers.shape[1])
    norm = np.linalg.norm(diff, axis=1).reshape(i.shape)
    rank = np.lexsort((i, norm, ~candidate), axis=-1)[:, :C - 1]
    out[rows, :-1] = np.sort(np.take_along_axis(i, rank, axis=1), axis=1)
    return todo[~done]


def correlation_sets(centers: np.ndarray, C: int) -> np.ndarray:
    """Size-``C`` correlation sets over experts ordered like their ``centers``.

    Position ``j`` (0-based) gets ``{0..C-1}`` while ``j < C-1``; afterwards
    its predecessors, the ``C-1`` earlier positions whose centers are closest
    to its own (ties to the lowest position), then ``j`` itself.  Returns a
    ``(J, C)`` integer array, each row sorted ascending, so the predecessor
    set of ``j`` is the leading prefix ``[:min(j, C-1)]`` of its row.

    The predecessors come from k-d tree queries of every center's ``k``
    nearest, in batches of at most ``_QUERY_ENTRIES // k`` positions, ``k``
    doubled for the positions whose list may miss one; the candidates the
    tree's distances cannot tell apart are ranked by ``np.linalg.norm`` of
    the center differences, ties to the lowest position.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    J = centers.shape[0]
    if not 1 <= C <= J:
        raise ValueError(f"C must be in [1, {J}], got {C}")
    out = np.empty((J, C), dtype=int)
    out[:C - 1] = np.arange(C)
    out[C - 1:, -1] = np.arange(C - 1, J)
    if C == 1:
        return out
    tree = cKDTree(centers)
    todo, k = np.arange(C - 1, J), min(J, 4 * C)
    while todo.size:
        step = max(1, _QUERY_ENTRIES // k)
        todo = np.concatenate([_nearest_earlier(out, tree, centers, todo[s:s + step], k)
                               for s in range(0, todo.size, step)])
        k = min(2 * k, J)
    return out


@dataclass(frozen=True)
class ExpertGraph:
    """Immutable expert layout shared by the model, baselines and prediction.

    Experts are indexed by their position in the greedy ordering; the
    correlation sets refer to these positions.  Expert ``j``'s predecessor
    set is the leading prefix ``correlation[j, :min(j, C - 1)]`` of its
    correlation set, and with ``j`` itself the prefix one longer.  The graph
    also owns the symbolic analysis of the posterior precision, built on
    first use and shared by every model fitted on the graph.
    """

    X: np.ndarray
    J: int
    C: int
    gamma: float
    seed: int
    ordering: np.ndarray                 # position -> original KD cell id
    row_indices: list[np.ndarray]        # per expert: rows of X belonging to it
    inducing_index: np.ndarray           # (J, L): rows (within the cell) chosen as inducing
    inducing_inputs: np.ndarray          # (J, L, D): A_j = inducing_inputs[j]
    correlation: np.ndarray = field(repr=False)  # (J, C), rows sorted

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def D(self) -> int:
        return self.X.shape[1]

    @property
    def L(self) -> int:
        return self.inducing_inputs.shape[1]

    @property
    def M(self) -> int:
        return self.J * self.L

    def correlation_inputs(self, j: int) -> np.ndarray:
        """``A_psi``: the inducing inputs of expert ``j``'s correlation set,
        stacked in set order, shape ``(C L, D)``."""
        return self.inducing_inputs[self.correlation[j]].reshape(-1, self.D)

    @cached_property
    def symbolic(self) -> SymbolicFactor:
        """Fill analysis and slot layout of the posterior precision, whose block
        pattern is the union of the experts' correlation-set blocks; keeps each
        expert's slots, in expert order (``index_sets``)."""
        return symbolic_factor(self.correlation, self.J)

    @classmethod
    def build(cls, X: np.ndarray, J: int, C: int, gamma: float = 1.0,
              seed: int = 0) -> "ExpertGraph":
        """Run the full pipeline: partition, inducing subsets, ordering, sets."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if C > J:
            import warnings

            warnings.warn(f"C={C} exceeds J={J}; clamping to J", stacklevel=2)
            C = J
        rng = np.random.default_rng(seed)
        cells = split_rows(kd_partition(X, J), J)
        L = int(np.floor(gamma * min(len(c) for c in cells)))
        if L == 0:
            raise ValueError(f"gamma={gamma} gives zero inducing points per expert")

        # equal inducing counts across experts: truncate cells one larger
        inducing = np.stack([select_inducing(X[rows], gamma, rng)[1][:L] for rows in cells])
        centers = X[np.stack([rows[idx] for rows, idx in zip(cells, inducing)])].mean(axis=1)
        ordering = order_partitions(centers, rng)
        return cls.from_layout(X, J, C, gamma, seed, ordering, [cells[c] for c in ordering],
                               inducing[ordering])

    @classmethod
    def from_layout(cls, X: np.ndarray, J: int, C: int, gamma: float, seed: int,
                    ordering: np.ndarray, row_indices: list[np.ndarray],
                    inducing_index: np.ndarray) -> "ExpertGraph":
        """Graph of an ordered layout: each position's rows and inducing subset.

        ``row_indices[j]`` and ``inducing_index[j]`` belong to the expert at
        ordering position ``j``.  The inducing inputs and the correlation sets,
        ranked by the inducing inputs' means, follow from them.
        """
        inducing_index = np.asarray(inducing_index)
        inducing_inputs = X[np.stack([rows[idx] for rows, idx in zip(row_indices,
                                                                       inducing_index)])]
        return cls(X=X, J=J, C=C, gamma=gamma, seed=seed, ordering=ordering,
                   row_indices=row_indices, inducing_index=inducing_index,
                   inducing_inputs=inducing_inputs,
                   correlation=correlation_sets(inducing_inputs.mean(axis=1), C))

    def with_correlation(self, C: int) -> "ExpertGraph":
        """Same partition, inducing points and ordering, different degree ``C``.

        Because the distance ranking is shared, predecessor sets are nested
        across increasing ``C``.  The new graph builds its own symbolic analysis.
        """
        return replace(self, C=C,
                       correlation=correlation_sets(self.inducing_inputs.mean(axis=1), C))
