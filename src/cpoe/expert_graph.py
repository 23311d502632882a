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

from .block_sparse import SymbolicFactor, symbolic_factor

__all__ = [
    "ExpertGraph",
    "kd_partition",
    "order_partitions",
    "select_inducing",
    "correlation_sets",
]


def kd_partition(X: np.ndarray, J: int) -> np.ndarray:
    """Assign each row of ``X`` to one of ``J`` KD-tree cells.

    Recursive median splits on the dimension of widest spread; ``J`` must be a
    power of two and cell sizes differ by at most one.  Returns an integer
    array of cell ids in [0, J).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    N = X.shape[0]
    if J < 1 or (J & (J - 1)) != 0:
        raise ValueError(f"J must be a power of two, got {J}")
    if N < J:
        raise ValueError(f"need at least J={J} rows, got {N}")
    assignment = np.empty(N, dtype=int)
    next_cell = 0

    def split(rows: np.ndarray, cells: int):
        nonlocal next_cell
        if cells == 1:
            assignment[rows] = next_cell
            next_cell += 1
            return
        spread = X[rows].max(axis=0) - X[rows].min(axis=0)
        dim = int(np.argmax(spread))
        order = rows[np.argsort(X[rows, dim], kind="stable")]
        cut = (len(rows) + 1) // 2
        split(order[:cut], cells // 2)
        split(order[cut:], cells // 2)

    split(np.arange(N), J)
    return assignment


def order_partitions(centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Greedy nearest-center ordering of the cells, from a random start.

    Appends the unvisited cell whose center is closest (Euclidean) to the most
    recently added cell's center; ties break toward the lowest cell index.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    J = centers.shape[0]
    if J == 1:
        return np.array([0])
    start = int(rng.integers(J))
    ordering = [start]
    remaining = np.delete(np.arange(J), start)  # ascending, so ties go to the lowest index
    while remaining.size:
        dists = np.linalg.norm(centers[remaining] - centers[ordering[-1]], axis=1)
        k = int(np.argmin(dists))  # argmin takes the first minimum
        ordering.append(int(remaining[k]))
        remaining = np.delete(remaining, k)
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


def correlation_sets(centers: np.ndarray, C: int) -> np.ndarray:
    """Size-``C`` correlation sets over experts ordered like their ``centers``.

    Position ``j`` (0-based) gets ``{0..C-1}`` while ``j < C-1``; afterwards
    its predecessors, the ``C-1`` earlier positions whose centers are closest
    to its own (ties to the lowest position), then ``j`` itself.  Returns a
    ``(J, C)`` integer array, each row sorted ascending, so the predecessor
    set of ``j`` is the leading prefix ``[:min(j, C-1)]`` of its row.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    J = centers.shape[0]
    if not 1 <= C <= J:
        raise ValueError(f"C must be in [1, {J}], got {C}")
    out = np.empty((J, C), dtype=int)
    out[:C - 1] = np.arange(C)
    for j in range(C - 1, J):
        d = np.linalg.norm(centers[:j] - centers[j], axis=1)
        out[j, :-1] = np.sort(np.argsort(d, kind="stable")[:C - 1])  # stable: ties to lowest
        out[j, -1] = j
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
        cell_of_row = kd_partition(X, J)
        cells = [np.flatnonzero(cell_of_row == c) for c in range(J)]
        L = int(np.floor(gamma * min(len(c) for c in cells)))
        if L == 0:
            raise ValueError(f"gamma={gamma} gives zero inducing points per expert")

        cell_inducing_idx = []
        for c in range(J):
            _, idx = select_inducing(X[cells[c]], gamma, rng)
            # equal inducing counts across experts: truncate cells one larger
            cell_inducing_idx.append(idx[:L])
        cell_centers = np.stack([X[cells[c]][cell_inducing_idx[c]].mean(axis=0)
                                 for c in range(J)])
        ordering = order_partitions(cell_centers, rng)
        return cls.from_layout(X, J, C, gamma, seed, ordering, [cells[c] for c in ordering],
                               [cell_inducing_idx[c] for c in ordering])

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
