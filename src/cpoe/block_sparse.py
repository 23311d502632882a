"""Symmetric block-sparse matrices in one flat block array, with Cholesky
factorization, solves and partial inversion.

A symmetric matrix over a ``J x J`` grid of square ``bs x bs`` blocks is
stored as one contiguous ``(n_slots, bs, bs)`` array: one slot per lower block
of its Cholesky fill pattern, in permuted coordinates.  Slots run block row by
block row, each row's blocks in increasing column order with the diagonal
block last.  The matrix, its Cholesky factor and its partial inverse share
this layout.  Factorization works on the block level throughout: the
fill-reducing permutation, the fill pattern, the slot layout and the slot
schedules the numeric routines walk are computed once on the J x J block
graph (:func:`symbolic_factor`) and reused across refactorizations, which
makes repeated hyperparameter iterations cheap.  The symbolic factor also
keeps the slots of the dense matrices over given block index sets, so that
scattering a local matrix into the array, or gathering one, is one indexing,
and the ascending slots those sets hold (``read_slots``): a caller that reads
the partial inverse only over the sets keeps just those blocks, and gathers
from them through each set's positions in ``read_slots``.

The partial inverse computes exactly those blocks of the inverse that lie in
the Cholesky fill pattern, by the classic recursion that runs from the last
block column backwards (Takahashi, Fagan & Chen, 1973); every intermediate
product it needs stays inside the pattern because the column structures are
cliques of the filled graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "BlockSparseMatrix",
    "BlockCholesky",
    "FactorizationError",
    "IndexSlots",
    "SymbolicFactor",
    "fill_reducing_permutation",
    "symbolic_factor",
    "block_cholesky",
    "partial_inverse",
]


class FactorizationError(np.linalg.LinAlgError):
    """A diagonal pivot block failed to factorize; carries the block index."""

    def __init__(self, block_index: int, message: str | None = None):
        self.block_index = block_index
        super().__init__(message or f"non-positive-definite pivot at block {block_index}")


def fill_reducing_permutation(pattern, n_blocks: int | None = None) -> np.ndarray:
    """Minimum-degree elimination order for a symmetric block adjacency.

    ``pattern`` is an iterable of ``(i, j)`` block pairs over ``n_blocks``
    blocks (by default one more than the largest index).  Operates purely on
    the block graph.  Ties break toward the lowest block index, so the result
    is deterministic.  A heap keyed ``(degree, block)`` gets a new entry for a
    block whenever its degree changes, and an entry whose degree is no longer
    its block's is skipped, so each step takes the least live key.
    """
    pairs = [(int(i), int(j)) for i, j in pattern]
    n = (max((max(p) for p in pairs), default=-1) + 1) if n_blocks is None else n_blocks
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    heap = [(len(a), u) for u, a in enumerate(adj)]
    heapq.heapify(heap)
    alive = [True] * n
    order = []
    while heap:
        # eliminated blocks leave their neighbors' sets, so these are degrees
        degree, v = heapq.heappop(heap)
        if not alive[v] or degree != len(adj[v]):
            continue
        order.append(v)
        alive[v] = False
        nbrs = adj[v]
        for u in nbrs:  # eliminating v joins its remaining neighbors into a clique
            adj[u] |= nbrs
            adj[u].discard(u)
            adj[u].discard(v)
            heapq.heappush(heap, (len(adj[u]), u))
    return np.asarray(order, dtype=int)


def _by_size(sets) -> dict[int, tuple[list[int], np.ndarray]]:
    """The index sets grouped by size: each size's positions in ``sets`` and
    its sets stacked, one row each."""
    positions: dict[int, list[int]] = {}
    for k, idx in enumerate(sets):
        positions.setdefault(len(idx), []).append(k)
    return {n: (ks, np.array([sets[k] for k in ks], dtype=int).reshape(len(ks), n))
            for n, ks in positions.items()}


@dataclass(frozen=True)
class IndexSlots:
    """Where the blocks of a dense symmetric matrix over a block index set live.

    One entry per unordered pair of positions in the set, enumerated row by
    row (``(0, 0), (1, 0), (1, 1), (2, 0), ...``), so the first ``k(k+1)/2``
    entries are those of the set's leading ``k`` positions.  Entry ``t``: the
    local block at block coordinates ``(rows[t], cols[t])`` is stored,
    untransposed, in slot ``slots[t]``.  For the symbolic factor's own
    ``index_sets``, that slot is ``read_slots[read[t]]``.
    """

    size: int
    slots: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    read: np.ndarray | None = None

    def dense(self, blocks: np.ndarray) -> np.ndarray:
        """The dense symmetric matrix over the set whose entry ``t`` is
        ``blocks[t]``, as gathered by ``slots`` or ``read``."""
        n, bs = self.size, blocks.shape[1]
        out = np.empty((n, bs, n, bs))
        out[self.rows, :, self.cols] = blocks
        out[self.cols, :, self.rows] = blocks.transpose(0, 2, 1)
        return out.reshape(n * bs, n * bs)


@dataclass
class SymbolicFactor:
    """Permutation, fill pattern, slot layout and the slot schedules of the
    numeric routines; see the module docstring.  A schedule's entries for
    item ``t`` are ``slots[ptr[t]:ptr[t + 1]]``; slots are int32."""

    perm: np.ndarray          # position -> original block index
    inv_perm: np.ndarray      # original block index -> position
    keys: np.ndarray          # i * J + j of slot (i, j); increasing
    diag: np.ndarray          # slot of each diagonal block, by position
    update_ptr: np.ndarray    # per slot (i, j), its Cholesky update: the slots of
    update_pairs: np.ndarray  # (L[i, k], L[j, k]), k < j ascending; shape (n, 2)
    col_ptr: np.ndarray       # per block col j, the slots of L[i, j] for the rows
    col_slots: np.ndarray     # i > j in its structure S_j, ascending
    clique_ptr: np.ndarray    # per block col j, the slots of Z[max(i, k), min(i, k)]
    clique_slots: np.ndarray  # over i, k in S_j, row-major
    index_sets: list[IndexSlots] = field(default_factory=list, repr=False)
    read_slots: np.ndarray = field(default=None, repr=False)  # held by index_sets

    @property
    def n_blocks(self) -> int:
        return self.perm.size

    @property
    def n_slots(self) -> int:
        return self.keys.size

    def slots_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Slots of the permuted blocks ``(rows[t], cols[t])``, ``rows >= cols``;
        -1 where a block lies outside the fill pattern."""
        want = np.asarray(rows) * self.n_blocks + np.asarray(cols)
        pos = np.minimum(np.searchsorted(self.keys, want), self.n_slots - 1)
        return np.where(self.keys[pos] == want, pos, -1)

    def index_slots(self, sets) -> list[IndexSlots]:
        """The slots of the dense matrix over each set of original block
        indices in ``sets``; sets of one size are looked up together."""
        out: list[IndexSlots | None] = [None] * len(sets)
        for n, (ks, idx) in _by_size(sets).items():
            a, b = np.tril_indices(n)
            p, q = self.inv_perm[idx[:, a]], self.inv_perm[idx[:, b]]
            flip = p < q  # the stored block is the pair's transpose
            slots = self.slots_of(np.maximum(p, q), np.minimum(p, q))
            if np.any(slots < 0):
                bad = idx[np.flatnonzero(np.any(slots < 0, axis=1))[0]]
                raise ValueError(f"blocks over {bad.tolist()} lie outside the fill pattern")
            rows, cols = np.where(flip, b, a), np.where(flip, a, b)
            for r, k in enumerate(ks):
                out[k] = IndexSlots(n, slots[r], rows[r], cols[r])
        return out


def symbolic_factor(index_sets, n_blocks: int,
                    perm: np.ndarray | None = None) -> SymbolicFactor:
    """Fill-reducing permutation (unless given), symbolic Cholesky fill and
    slot layout of the symmetric block pattern of dense matrices over the
    block index sets ``index_sets``.

    The pattern factored is the diagonal and every pair within each index
    set.  The slots of each index set are kept, in order, as ``index_sets``
    of the result, and the slots any of them holds as ``read_slots``.
    """
    J = n_blocks
    # the pattern's off-diagonal pairs, once each, as i * J + k with i > k
    pair_keys = [np.empty(0, dtype=np.int64)]
    for n, (_, idx) in _by_size(index_sets).items():
        a, b = np.tril_indices(n, -1)
        x, y = idx[:, a].ravel(), idx[:, b].ravel()
        pair_keys.append(np.maximum(x, y) * J + np.minimum(x, y))
    pair_keys = np.unique(np.concatenate(pair_keys))
    hi, lo = np.divmod(pair_keys[pair_keys // J != pair_keys % J], J)
    if perm is None:
        perm = fill_reducing_permutation(zip(hi.tolist(), lo.tolist()), J)
    perm = np.asarray(perm, dtype=int)
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(J)

    # permuted strictly-lower column structures of A
    pi, pk = inv_perm[hi], inv_perm[lo]
    col_struct: list[set[int]] = [set() for _ in range(J)]
    for j, i in zip(np.minimum(pi, pk).tolist(), np.maximum(pi, pk).tolist()):
        col_struct[j].add(i)
    # each column hands its remaining structure to its elimination-tree parent
    for j in range(J):
        s = col_struct[j]
        if s:
            p = min(s)
            col_struct[p] |= s - {p}

    # the lower entries column by column, rows ascending
    sizes = np.array([len(s) for s in col_struct], dtype=np.int64)
    col_ptr = np.concatenate([[0], np.cumsum(sizes)])
    col_of = np.repeat(np.arange(J), sizes)
    row_of = np.fromiter((i for s in col_struct for i in sorted(s)), dtype=np.int64,
                         count=int(col_ptr[-1]))
    diag_keys = np.arange(J, dtype=np.int64) * (J + 1)
    keys = np.sort(np.concatenate([row_of * J + col_of, diag_keys]))
    col_slots = np.searchsorted(keys, row_of * J + col_of).astype(np.int32)
    # the rows S_j of each column form a clique of the filled graph: every
    # pair (a, c) of entries of one column, row-major, and the slot of its
    # block; each entry a is repeated once per entry c of its column
    reps = sizes[col_of]
    a = np.repeat(np.arange(row_of.size), reps)
    c = col_ptr[col_of[a]] + np.arange(a.size) - np.repeat(np.cumsum(reps) - reps, reps)
    ri, rc = row_of[a], row_of[c]
    clique_slots = np.searchsorted(keys, np.maximum(ri, rc) * J + np.minimum(ri, rc))
    # L[i, j] -= L[i, k] L[j, k]^T over the k < j stored in rows i and j: one
    # pair of column-k entries with i >= j each; the pairs come column by
    # column, so a stable sort by slot leaves each slot's k ascending
    low = ri >= rc
    target = clique_slots[low]
    order = np.argsort(target, kind="stable")
    update_ptr = np.concatenate([[0], np.cumsum(np.bincount(target, minlength=keys.size))])
    sym = SymbolicFactor(perm=perm, inv_perm=inv_perm, keys=keys,
                         diag=np.searchsorted(keys, diag_keys).astype(np.int32),
                         update_ptr=update_ptr,
                         update_pairs=np.stack([col_slots[a[low]][order],
                                                col_slots[c[low]][order]], axis=1),
                         col_ptr=col_ptr, col_slots=col_slots,
                         clique_ptr=np.concatenate([[0], np.cumsum(sizes ** 2)]),
                         clique_slots=clique_slots.astype(np.int32))
    sets = sym.index_slots(index_sets)
    sym.read_slots = np.unique(np.concatenate([np.empty(0, dtype=np.int64)]
                                              + [w.slots for w in sets]))
    sym.index_sets = [replace(w, read=np.searchsorted(sym.read_slots, w.slots))
                      for w in sets]
    return sym


@dataclass
class _Slotted:
    """Blocks in ``symbolic``'s slot layout: one flat ``(n_slots, bs, bs)`` array."""

    symbolic: SymbolicFactor
    blocks: np.ndarray = field(repr=False)

    @property
    def block_size(self) -> int:
        return self.blocks.shape[1]


class BlockSparseMatrix(_Slotted):
    """Symmetric block matrix: its lower blocks on the symbolic factor's fill
    pattern, in permuted coordinates."""

    @classmethod
    def zeros(cls, symbolic: SymbolicFactor, block_size: int) -> "BlockSparseMatrix":
        return cls(symbolic, np.zeros((symbolic.n_slots, block_size, block_size)))

    def add_local(self, where: IndexSlots, local: np.ndarray, size: int | None = None) -> None:
        """Add the symmetric dense ``local`` over an index set's leading
        ``size`` positions (all of them by default) into the stored blocks."""
        size = where.size if size is None else size
        t = size * (size + 1) // 2
        bs = self.block_size
        self.blocks[where.slots[:t]] += local.reshape(size, bs, size, bs)[
            where.rows[:t], :, where.cols[:t]]


class BlockCholesky(_Slotted):
    """Lower block Cholesky of a permuted SPD block-sparse matrix.

    Satisfies ``P A P^T = L L^T`` where ``P`` reorders blocks by
    ``symbolic.perm``; ``blocks`` holds the blocks of ``L``, one per fill block.
    """

    @property
    def n_blocks(self) -> int:
        return self.symbolic.n_blocks

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (permute, forward, backward, unpermute)."""
        b = np.asarray(b, dtype=float)
        sym, Lb = self.symbolic, self.blocks
        J, bs = self.n_blocks, self.block_size
        if b.shape[0] != J * bs:
            raise ValueError(f"right-hand side length {b.shape[0]} != {J * bs}")
        rows, cols = (x.tolist() for x in np.divmod(sym.keys, J))
        diag, col_ptr, col_slots = sym.diag.tolist(), sym.col_ptr.tolist(), sym.col_slots.tolist()
        pb = b.reshape(J, bs, *b.shape[1:])[sym.perm]
        nu = np.zeros_like(pb)
        for i in range(J):
            acc = pb[i].copy()
            for s in range(diag[i - 1] + 1 if i else 0, diag[i]):  # row i below the diagonal
                acc -= Lb[s] @ nu[cols[s]]
            nu[i] = solve_triangular(Lb[diag[i]], acc, lower=True, check_finite=False)
        x = np.zeros_like(pb)
        for i in range(J - 1, -1, -1):
            acc = nu[i].copy()
            for s in col_slots[col_ptr[i]:col_ptr[i + 1]]:
                acc -= Lb[s].T @ x[rows[s]]
            x[i] = solve_triangular(Lb[diag[i]].T, acc, lower=False, check_finite=False)
        out = np.empty_like(x)
        out[sym.perm] = x
        return out.reshape(b.shape)

    def logdet(self) -> float:
        """log|A|; the permutation leaves the determinant invariant."""
        acc = 0.0
        for s in self.symbolic.diag:
            acc += np.sum(np.log(np.diag(self.blocks[s])))
        return 2.0 * acc


def block_cholesky(A: BlockSparseMatrix) -> BlockCholesky:
    """Numeric block Cholesky on the symbolic fill pattern of ``A``.

    Raises :class:`FactorizationError` with the failing block index when a
    pivot block is not positive definite; jitter is the caller's policy.  The
    triangular solves here, in :meth:`BlockCholesky.solve` and in
    :func:`partial_inverse` skip scipy's finiteness check: their operands are
    assembled from validated data, and a NaN reaching a pivot fails to factorize.
    """
    sym, a = A.symbolic, A.blocks
    rows, cols = (x.tolist() for x in np.divmod(sym.keys, sym.n_blocks))
    diag, ptr, pairs = sym.diag.tolist(), sym.update_ptr.tolist(), sym.update_pairs.tolist()
    L = np.empty_like(a)
    for s, (i, j) in enumerate(zip(rows, cols)):
        acc = a[s].copy()
        for x, y in pairs[ptr[s]:ptr[s + 1]]:
            acc -= L[x] @ L[y].T
        if i > j:  # right-divide by L_jj^T
            L[s] = solve_triangular(L[diag[j]], acc.T, lower=True, check_finite=False).T
            continue
        try:
            L[s] = np.linalg.cholesky(acc)
        except np.linalg.LinAlgError:
            raise FactorizationError(int(sym.perm[i])) from None
    return BlockCholesky(symbolic=sym, blocks=L)


def partial_inverse(chol: BlockCholesky) -> np.ndarray:
    """Blocks of ``(L L^T)^{-1}`` on the fill pattern of ``L``, in ``L``'s
    slot layout: one ``(n_slots, bs, bs)`` array.

    Sweeps block columns from last to first.  For column j with below-diagonal
    structure ``S_j``:

        Z[i, j] = -(sum_{k in S_j} Z[i, k] L[k, j]) L[j, j]^{-1}        (i in S_j)
        Z[j, j] = L[j, j]^{-T} L[j, j]^{-1} - (sum_k Z[j, k] L[k, j]) L[j, j]^{-1}

    where ``Z[i, k]`` for ``i < k`` means the transpose of the stored block.
    """
    sym, Lb = chol.symbolic, chol.blocks
    bs = chol.block_size
    eye = np.eye(bs)
    diag, col_ptr, col_slots = sym.diag.tolist(), sym.col_ptr.tolist(), sym.col_slots.tolist()
    clique_ptr, clique_slots = sym.clique_ptr.tolist(), sym.clique_slots.tolist()
    Z = np.empty_like(Lb)
    for j in range(sym.n_blocks - 1, -1, -1):
        Linv_jj = solve_triangular(Lb[diag[j]], eye, lower=True, check_finite=False)
        cs = col_slots[col_ptr[j]:col_ptr[j + 1]]
        n, grid = len(cs), clique_slots[clique_ptr[j]:clique_ptr[j + 1]]
        for a in range(n):
            acc = np.zeros((bs, bs))
            for c in range(n):
                z = Z[grid[a * n + c]]
                acc += (z if a >= c else z.T) @ Lb[cs[c]]
            Z[cs[a]] = -acc @ Linv_jj
        acc = Linv_jj.T @ Linv_jj
        for s in cs:
            acc -= Z[s].T @ Lb[s] @ Linv_jj
        Z[diag[j]] = 0.5 * (acc + acc.T)  # enforce exact symmetry of the diagonal block
    return Z
