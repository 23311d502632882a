"""Block-sparse matrices with Cholesky factorization and partial inversion.

Matrices are stored block-sparse-row style: a block grid with uniform block
size per axis and dense payloads for the stored blocks.  Factorization works
on the block level throughout: the fill-reducing permutation and the symbolic
fill pattern are computed once on the J x J block graph and reused across
numeric refactorizations, which is what makes repeated hyperparameter
iterations cheap.

The partial inverse computes exactly those blocks of the inverse that lie in
the Cholesky fill pattern, by the classic recursion that runs from the last
block column backwards; every intermediate product it needs stays inside the
pattern because the column structures are cliques of the filled graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "BlockSparseMatrix",
    "BlockCholesky",
    "PartialInverse",
    "FactorizationError",
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


class BlockSparseMatrix:
    """Square block grid with uniform block sizes and dense stored payloads.

    ``row_block`` and ``col_block`` may differ (rectangular payloads, e.g. for
    projection matrices), but factorization requires a square grid with equal
    block sizes.
    """

    def __init__(self, n_block_rows: int, n_block_cols: int | None = None,
                 row_block: int = 1, col_block: int | None = None):
        self.n_block_rows = int(n_block_rows)
        self.n_block_cols = int(n_block_cols if n_block_cols is not None else n_block_rows)
        self.row_block = int(row_block)
        self.col_block = int(col_block if col_block is not None else row_block)
        self._blocks: dict[tuple[int, int], np.ndarray] = {}

    # -- structure -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_block_rows * self.row_block, self.n_block_cols * self.col_block)

    def has_block(self, i: int, j: int) -> bool:
        return (i, j) in self._blocks

    def pattern(self) -> set[tuple[int, int]]:
        return set(self._blocks.keys())

    def row_cols(self, i: int) -> list[int]:
        """Sorted column indices of the stored blocks in block row ``i``."""
        return sorted(j for (r, j) in self._blocks if r == i)

    def get_block(self, i: int, j: int) -> np.ndarray:
        blk = self._blocks.get((i, j))
        if blk is None:
            return np.zeros((self.row_block, self.col_block))
        return blk

    def set_block(self, i: int, j: int, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float)
        if value.shape != (self.row_block, self.col_block):
            raise ValueError(f"block shape {value.shape} != {(self.row_block, self.col_block)}")
        if not (0 <= i < self.n_block_rows and 0 <= j < self.n_block_cols):
            raise IndexError((i, j))
        self._blocks[(i, j)] = value

    def add_to_block(self, i: int, j: int, value: np.ndarray) -> None:
        if (i, j) in self._blocks:
            self._blocks[(i, j)] = self._blocks[(i, j)] + value
        else:
            self.set_block(i, j, np.asarray(value, dtype=float).copy())

    # -- conversions -----------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        A = np.zeros(self.shape)
        rb, cb = self.row_block, self.col_block
        for (i, j), blk in self._blocks.items():
            A[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = blk
        return A

    @classmethod
    def from_dense(cls, A: np.ndarray, n_block_rows: int, row_block: int,
                   n_block_cols: int | None = None, col_block: int | None = None,
                   keep_zero_blocks: bool = False) -> "BlockSparseMatrix":
        n_block_cols = n_block_cols if n_block_cols is not None else n_block_rows
        col_block = col_block if col_block is not None else row_block
        out = cls(n_block_rows, n_block_cols, row_block, col_block)
        for i in range(n_block_rows):
            for j in range(n_block_cols):
                blk = A[i * row_block:(i + 1) * row_block, j * col_block:(j + 1) * col_block]
                if keep_zero_blocks or np.any(blk != 0.0):
                    out.set_block(i, j, np.array(blk, dtype=float))
        return out


def fill_reducing_permutation(pattern) -> np.ndarray:
    """Minimum-degree elimination order for a symmetric block adjacency.

    ``pattern`` is either a dense boolean/0-1 matrix over blocks or a set of
    ``(i, j)`` pairs.  Operates purely on the block graph.  Ties break toward
    the lowest block index, so the result is deterministic.
    """
    if isinstance(pattern, set):
        n = max((max(i, j) for i, j in pattern), default=-1) + 1
        pairs = pattern
    else:
        mat = np.asarray(pattern)
        n = mat.shape[0]
        pairs = {(i, j) for i in range(n) for j in range(n) if mat[i, j]}
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    alive = set(range(n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        order.append(v)
        alive.remove(v)
        nbrs = adj[v] & alive
        for u in nbrs:  # eliminating v joins its remaining neighbors into a clique
            adj[u] |= nbrs - {u}
            adj[u].discard(v)
    return np.asarray(order, dtype=int)


@dataclass
class SymbolicFactor:
    """Permutation plus fill pattern, reusable across numeric refactorizations."""

    perm: np.ndarray                     # position -> original block index
    inv_perm: np.ndarray                 # original block index -> position
    lower_rows: list[list[int]]          # per block row i: sorted j < i with L[i, j] stored
    lower_cols: list[list[int]]          # per block col j: sorted i > j with L[i, j] stored

    @property
    def n_blocks(self) -> int:
        return self.perm.size

    def fill_pattern(self) -> set[tuple[int, int]]:
        pat = {(i, i) for i in range(self.n_blocks)}
        for i, cols in enumerate(self.lower_rows):
            pat.update((i, j) for j in cols)
        return pat


def symbolic_factor(pattern: set[tuple[int, int]], n_blocks: int,
                    perm: np.ndarray | None = None) -> SymbolicFactor:
    """Fill-reducing permutation (unless given) and symbolic Cholesky fill."""
    if perm is None:
        perm = fill_reducing_permutation(pattern | {(j, i) for i, j in pattern})
    perm = np.asarray(perm, dtype=int)
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(n_blocks)

    # permuted strictly-lower column structures of A
    col_struct: list[set[int]] = [set() for _ in range(n_blocks)]
    for (i, j) in pattern:
        pi, pj = int(inv_perm[i]), int(inv_perm[j])
        if pi > pj:
            col_struct[pj].add(pi)
        elif pj > pi:
            col_struct[pi].add(pj)
    # each column hands its remaining structure to its elimination-tree parent
    for j in range(n_blocks):
        s = col_struct[j]
        if s:
            p = min(s)
            col_struct[p] |= s - {p}

    lower_cols = [sorted(s) for s in col_struct]
    lower_rows: list[list[int]] = [[] for _ in range(n_blocks)]
    for j, rows in enumerate(lower_cols):
        for i in rows:
            lower_rows[i].append(j)
    for i in range(n_blocks):
        lower_rows[i].sort()
    return SymbolicFactor(perm=perm, inv_perm=inv_perm,
                          lower_rows=lower_rows, lower_cols=lower_cols)


@dataclass
class BlockCholesky:
    """Lower block Cholesky of a permuted SPD block-sparse matrix.

    Satisfies ``P A P^T = L L^T`` where ``P`` reorders blocks by
    ``symbolic.perm``.  Blocks of ``L`` live in permuted coordinates.
    """

    symbolic: SymbolicFactor
    block_size: int
    blocks: dict[tuple[int, int], np.ndarray] = field(repr=False)

    @property
    def n_blocks(self) -> int:
        return self.symbolic.n_blocks

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (permute, forward, backward, unpermute)."""
        b = np.asarray(b, dtype=float)
        J, bs = self.n_blocks, self.block_size
        if b.shape[0] != J * bs:
            raise ValueError(f"right-hand side length {b.shape[0]} != {J * bs}")
        perm, sym = self.symbolic.perm, self.symbolic
        pb = np.concatenate([b[p * bs:(p + 1) * bs] for p in perm])
        nu = np.zeros_like(pb)
        for i in range(J):
            acc = pb[i * bs:(i + 1) * bs].copy()
            for j in sym.lower_rows[i]:
                acc -= self.blocks[(i, j)] @ nu[j * bs:(j + 1) * bs]
            nu[i * bs:(i + 1) * bs] = solve_triangular(self.blocks[(i, i)], acc, lower=True,
                                                       check_finite=False)
        x = np.zeros_like(pb)
        for i in range(J - 1, -1, -1):
            acc = nu[i * bs:(i + 1) * bs].copy()
            for k in sym.lower_cols[i]:
                acc -= self.blocks[(k, i)].T @ x[k * bs:(k + 1) * bs]
            x[i * bs:(i + 1) * bs] = solve_triangular(self.blocks[(i, i)].T, acc, lower=False,
                                                      check_finite=False)
        out = np.zeros_like(b)
        for pos, orig in enumerate(perm):
            out[orig * bs:(orig + 1) * bs] = x[pos * bs:(pos + 1) * bs]
        return out

    def logdet(self) -> float:
        """log|A|; the permutation leaves the determinant invariant."""
        acc = 0.0
        for i in range(self.n_blocks):
            acc += np.sum(np.log(np.diag(self.blocks[(i, i)])))
        return 2.0 * acc


def block_cholesky(A: BlockSparseMatrix, perm: np.ndarray | None = None,
                   symbolic: SymbolicFactor | None = None) -> BlockCholesky:
    """Numeric block Cholesky on the symbolic fill pattern.

    Raises :class:`FactorizationError` with the failing block index when a
    pivot block is not positive definite; jitter is the caller's policy.  The
    triangular solves here, in :meth:`BlockCholesky.solve` and in
    :func:`partial_inverse` skip scipy's finiteness check: their operands are
    assembled from validated data, and a NaN reaching a pivot fails to factorize.
    """
    if A.n_block_rows != A.n_block_cols or A.row_block != A.col_block:
        raise ValueError("factorization needs a square grid of square blocks")
    J, bs = A.n_block_rows, A.row_block
    if symbolic is None:
        symbolic = symbolic_factor(A.pattern(), J, perm=perm)
    sym = symbolic
    blocks: dict[tuple[int, int], np.ndarray] = {}

    def a_perm(i: int, j: int) -> np.ndarray:
        return A.get_block(int(sym.perm[i]), int(sym.perm[j]))

    for i in range(J):
        row_i = sym.lower_rows[i]
        row_set = set(row_i)
        for j in row_i:
            acc = a_perm(i, j).copy()
            for k in sym.lower_rows[j]:
                if k in row_set:
                    acc -= blocks[(i, k)] @ blocks[(j, k)].T
            # right-divide by L_jj^T
            blocks[(i, j)] = solve_triangular(blocks[(j, j)], acc.T, lower=True,
                                              check_finite=False).T
        acc = a_perm(i, i).copy()
        for k in row_i:
            acc -= blocks[(i, k)] @ blocks[(i, k)].T
        try:
            blocks[(i, i)] = np.linalg.cholesky(acc)
        except np.linalg.LinAlgError:
            raise FactorizationError(int(sym.perm[i])) from None
    return BlockCholesky(symbolic=sym, block_size=bs, blocks=blocks)


@dataclass
class PartialInverse:
    """Blocks of the inverse on the Cholesky fill pattern, original indexing.

    Entries outside the pattern were never computed; asking for one is a
    contract violation and raises ``KeyError``.
    """

    symbolic: SymbolicFactor
    block_size: int
    blocks: dict[tuple[int, int], np.ndarray] = field(repr=False)  # permuted, lower

    def has_block(self, i: int, j: int) -> bool:
        p, q = int(self.symbolic.inv_perm[i]), int(self.symbolic.inv_perm[j])
        if p < q:
            p, q = q, p
        return (p, q) in self.blocks

    def get_block(self, i: int, j: int) -> np.ndarray:
        """Inverse block at original block coordinates ``(i, j)``."""
        p, q = int(self.symbolic.inv_perm[i]), int(self.symbolic.inv_perm[j])
        transpose = p < q
        if transpose:
            p, q = q, p
        blk = self.blocks.get((p, q))
        if blk is None:
            raise KeyError(f"inverse block ({i}, {j}) lies outside the computed pattern")
        return blk.T if transpose else blk

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Dense submatrix of the inverse over the block index set ``idx``."""
        idx = np.asarray(idx, dtype=int)
        bs = self.block_size
        out = np.empty((idx.size * bs, idx.size * bs))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                out[a * bs:(a + 1) * bs, b * bs:(b + 1) * bs] = self.get_block(int(i), int(j))
        return out


def partial_inverse(chol: BlockCholesky) -> PartialInverse:
    """Blocks of ``(L L^T)^{-1}`` on the fill pattern of ``L``.

    Sweeps block columns from last to first.  For column j with below-diagonal
    structure ``S_j``:

        Z[i, j] = -(sum_{k in S_j} Z[i, k] L[k, j]) L[j, j]^{-1}        (i in S_j)
        Z[j, j] = L[j, j]^{-T} L[j, j]^{-1} - (sum_k Z[j, k] L[k, j]) L[j, j]^{-1}

    where ``Z[i, k]`` for ``i < k`` means the transpose of the stored block.
    """
    sym = chol.symbolic
    J, bs = sym.n_blocks, chol.block_size
    eye = np.eye(bs)
    Z: dict[tuple[int, int], np.ndarray] = {}

    def zget(i: int, k: int) -> np.ndarray:
        return Z[(i, k)] if i >= k else Z[(k, i)].T

    for j in range(J - 1, -1, -1):
        Linv_jj = solve_triangular(chol.blocks[(j, j)], eye, lower=True, check_finite=False)
        below = sym.lower_cols[j]
        for i in below:
            acc = np.zeros((bs, bs))
            for k in below:
                acc += zget(i, k) @ chol.blocks[(k, j)]
            Z[(i, j)] = -acc @ Linv_jj
        acc = Linv_jj.T @ Linv_jj
        for k in below:
            acc -= zget(j, k) @ chol.blocks[(k, j)] @ Linv_jj
        Z[(j, j)] = 0.5 * (acc + acc.T)  # enforce exact symmetry of the diagonal block
    return PartialInverse(symbolic=sym, block_size=bs, blocks=Z)
