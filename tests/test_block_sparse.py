"""Flat block storage, ordering, factorization, solves and partial inversion.

Dense linear algebra on the expanded matrices is the normative oracle for
every operation here.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_dense, loop_min_degree, pair_sets, to_dense
from cpoe import ExpertGraph
from cpoe.block_sparse import (
    BlockSparseMatrix,
    FactorizationError,
    block_cholesky,
    fill_reducing_permutation,
    partial_inverse,
    symbolic_factor,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def random_block_spd(rng, J, bs, pattern):
    """Dense SPD matrix whose nonzero blocks follow the given symmetric pattern."""
    n = J * bs
    G = rng.normal(size=(n, n))
    A = G @ G.T
    mask = np.zeros((n, n), dtype=bool)
    for (i, j) in pattern:
        mask[i * bs:(i + 1) * bs, j * bs:(j + 1) * bs] = True
    A = np.where(mask, A, 0.0)
    A = 0.5 * (A + A.T)
    lam = np.linalg.eigvalsh(A).min()
    A += (abs(min(lam, 0.0)) + 0.5 * n) * np.eye(n)
    return A


def tridiag_pattern(J):
    pat = {(i, i) for i in range(J)}
    pat |= {(i + 1, i) for i in range(J - 1)} | {(i, i + 1) for i in range(J - 1)}
    return pat


def stored_pairs(sym):
    """The permuted lower block coordinates of the slots, in slot order."""
    rows, cols = np.divmod(sym.keys, sym.n_blocks)
    return list(zip(rows.tolist(), cols.tolist()))


def split(ptr, flat):
    """The lists of a CSR schedule."""
    return [flat[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]


def column_rows(sym, q):
    """Permuted rows of column ``q``'s blocks below the diagonal, ascending."""
    return (sym.keys[sym.col_slots[sym.col_ptr[q]:sym.col_ptr[q + 1]]] // sym.n_blocks).tolist()


def dense_factor(ch):
    """The block Cholesky factor as one dense lower-triangular matrix."""
    J, bs = ch.n_blocks, ch.block_size
    L = np.zeros((J * bs, J * bs))
    for (i, j), blk in zip(stored_pairs(ch.symbolic), ch.blocks):
        L[i * bs:(i + 1) * bs, j * bs:(j + 1) * bs] = blk
    return L


def inverse_blocks(sym, Z):
    """The partial inverse's blocks by original block pair, both orientations."""
    out = {}
    for (p, q), z in zip(stored_pairs(sym), Z):
        i, j = int(sym.perm[p]), int(sym.perm[q])
        out[i, j], out[j, i] = z, z.T
    return out


def count_fill(pattern, J, perm):
    sym = symbolic_factor(pair_sets(pattern), J, perm=np.asarray(perm))
    filled = sym.col_slots.size  # every stored block below the diagonal, once
    original = len({(i, j) for (i, j) in pattern if i > j})
    return filled - original


class TestBlockSparseMatrix:
    def test_dense_roundtrip(self, rng):
        A = random_block_spd(rng, 4, 3, tridiag_pattern(4))
        B = from_dense(A, 4, 3)
        np.testing.assert_array_equal(to_dense(B), A)
        # one slot per lower block; a tridiagonal pattern takes no fill
        perm = B.symbolic.perm
        stored = {(int(perm[p]), int(perm[q])) for p, q in stored_pairs(B.symbolic)}
        assert B.blocks.shape == (len(stored), 3, 3)
        assert stored | {(j, i) for i, j in stored} == tridiag_pattern(4)

    def test_scatter_over_index_sets_matches_dense(self, rng):
        # local symmetric matrices over block index sets, added in order, and
        # leading prefixes of a set (the prior's predecessor-plus-self blocks)
        J, bs = 7, 2
        sets = [np.array([0, 3, 5]), np.array([1, 2]), np.array([2, 4, 5, 6]), np.array([6])]
        sym = symbolic_factor(sets, J)
        B = BlockSparseMatrix.zeros(sym, bs)
        dense = np.zeros((J * bs, J * bs))
        for idx, where in zip(sets, sym.index_sets):
            for k in (idx.size, max(idx.size - 1, 1)):
                G = rng.normal(size=(k * bs, k * bs))
                local = G + G.T
                B.add_local(where, local, k)
                sel = np.concatenate([np.arange(i * bs, (i + 1) * bs) for i in idx[:k]])
                dense[np.ix_(sel, sel)] += local
        np.testing.assert_array_equal(to_dense(B), dense)
        with pytest.raises(ValueError, match="outside the fill pattern"):
            sym.index_slots([np.array([0, 1])])


class TestFillReducingPermutation:
    def test_tridiagonal_no_fill(self):
        J = 6
        pat = tridiag_pattern(J)
        perm = fill_reducing_permutation(pat)
        assert count_fill(pat, J, perm) == 0  # banded is already optimal

    def test_arrow_matrix_matches_exhaustive_optimum(self):
        # dense first row/column; enumerating all 5! orders shows zero extra
        # fill is attainable, and the heuristic must attain it
        J = 5
        pat = {(0, 0)} | {(i, i) for i in range(J)}
        pat |= {(0, k) for k in range(J)} | {(k, 0) for k in range(J)}
        best = min(count_fill(pat, J, p) for p in itertools.permutations(range(J)))
        assert best == 0
        perm = fill_reducing_permutation(pat)
        assert count_fill(pat, J, perm) == 0

    def test_single_block(self):
        np.testing.assert_array_equal(fill_reducing_permutation({(0, 0)}), [0])

    @given(st.integers(1, 80), st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_heap_matches_scan_on_random_patterns(self, J, density, seed):
        # sparse patterns tie degrees often; the heap must break every tie as
        # the scan over the live blocks does
        r = np.random.default_rng(seed)
        pattern = {(i, i) for i in range(J)}
        pattern |= {(i, j) for i in range(J) for j in range(i) if r.uniform() < density}
        np.testing.assert_array_equal(fill_reducing_permutation(pattern),
                                      loop_min_degree(pattern))
        off = [(i, j) for i, j in pattern if i != j]
        np.testing.assert_array_equal(fill_reducing_permutation(off, J), loop_min_degree(pattern))


class TestBlockCholesky:
    def test_identity(self):
        A = from_dense(np.eye(6), 3, 2)
        ch = block_cholesky(A)
        np.testing.assert_allclose(dense_factor(ch), np.eye(6), atol=1e-14)

    def test_random_spd_matches_dense(self, rng):
        J, bs = 3, 3
        pat = tridiag_pattern(J)
        A = random_block_spd(rng, J, bs, pat)
        ch = block_cholesky(from_dense(A, J, bs))
        Ld = dense_factor(ch)
        n = J * bs
        P = np.zeros((n, n))
        for pos, orig in enumerate(ch.symbolic.perm):
            P[pos * bs:(pos + 1) * bs, orig * bs:(orig + 1) * bs] = np.eye(bs)
        rel = np.linalg.norm(Ld @ Ld.T - P @ A @ P.T) / np.linalg.norm(A)
        assert rel < 1e-10
        # diagonal blocks lower-triangular with positive diagonal
        for i in range(J):
            blk = ch.blocks[ch.symbolic.diag[i]]
            assert np.allclose(blk, np.tril(blk)) and np.all(np.diag(blk) > 0)

    def test_non_pd_reports_block(self):
        A = from_dense(-np.eye(4), 2, 2)
        with pytest.raises(FactorizationError) as err:
            block_cholesky(A)
        assert err.value.block_index in (0, 1)


class TestSolveAndLogdet:
    def test_identity_passthrough(self, rng):
        ch = block_cholesky(from_dense(np.eye(6), 2, 3))
        b = rng.normal(size=6)
        np.testing.assert_allclose(ch.solve(b), b, atol=1e-14)

    def test_zero_rhs(self, rng):
        A = random_block_spd(rng, 3, 2, tridiag_pattern(3))
        ch = block_cholesky(from_dense(A, 3, 2))
        np.testing.assert_array_equal(ch.solve(np.zeros(6)), np.zeros(6))

    def test_random_solve_matches_dense(self, rng):
        # solve-matvec round trip over 100 random SPD draws
        for t in range(100):
            J, bs = 4, 2
            pat = tridiag_pattern(J) | {(3, 0), (0, 3)}
            A = random_block_spd(rng, J, bs, pat)
            ch = block_cholesky(from_dense(A, J, bs))
            b = rng.normal(size=J * bs)
            x = ch.solve(b)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
            if t < 20:
                np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_logdet_trivial_cases(self):
        assert block_cholesky(from_dense(np.eye(4), 4, 1)).logdet() == 0.0
        ch = block_cholesky(from_dense(np.diag([2.0, 2.0]), 2, 1))
        assert ch.logdet() == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_logdet_random_matches_dense(self, rng):
        A = random_block_spd(rng, 5, 2, tridiag_pattern(5))
        ch = block_cholesky(from_dense(A, 5, 2))
        assert ch.logdet() == pytest.approx(np.linalg.slogdet(A)[1], abs=1e-9)

    def test_logdet_plus_inverse_logdet_is_zero(self, rng):
        A = random_block_spd(rng, 3, 2, tridiag_pattern(3))
        ch = block_cholesky(from_dense(A, 3, 2))
        assert abs(ch.logdet() + np.linalg.slogdet(np.linalg.inv(A))[1]) < 1e-8


class TestPartialInverse:
    def test_single_block_is_full_inverse(self, rng):
        A = random_block_spd(rng, 1, 4, {(0, 0)})
        ch = block_cholesky(from_dense(A, 1, 4))
        np.testing.assert_allclose(partial_inverse(ch)[0], np.linalg.inv(A), atol=1e-9)

    def test_block_diagonal_decouples(self, rng):
        J, bs = 3, 2
        blocks = [random_block_spd(rng, 1, bs, {(0, 0)}) for _ in range(J)]
        A = np.zeros((J * bs, J * bs))
        for i, blk in enumerate(blocks):
            A[i * bs:(i + 1) * bs, i * bs:(i + 1) * bs] = blk
        ch = block_cholesky(from_dense(A, J, bs))
        Z = inverse_blocks(ch.symbolic, partial_inverse(ch))
        for i, blk in enumerate(blocks):
            np.testing.assert_allclose(Z[i, i], np.linalg.inv(blk), atol=1e-10)

    def test_tridiagonal_matches_dense_inverse(self, rng):
        J, bs = 4, 3
        A = random_block_spd(rng, J, bs, tridiag_pattern(J))
        ch = block_cholesky(from_dense(A, J, bs))
        Ainv = np.linalg.inv(A)
        for (i, j), z in inverse_blocks(ch.symbolic, partial_inverse(ch)).items():
            np.testing.assert_allclose(z, Ainv[i * bs:(i + 1) * bs, j * bs:(j + 1) * bs],
                                       atol=1e-9)

    def test_pattern_covers_original_matrix(self, rng):
        J, bs = 5, 2
        pat = tridiag_pattern(J) | {(4, 1), (1, 4)}
        A = random_block_spd(rng, J, bs, pat)
        ch = block_cholesky(from_dense(A, J, bs))
        assert pat <= inverse_blocks(ch.symbolic, partial_inverse(ch)).keys()

    def test_gather_submatrix(self, rng):
        J, bs = 4, 2
        A = random_block_spd(rng, J, bs, tridiag_pattern(J))
        ch = block_cholesky(from_dense(A, J, bs))
        Ainv = np.linalg.inv(A)
        idx = np.array([1, 2])
        sel = np.concatenate([np.arange(i * bs, (i + 1) * bs) for i in idx])
        where = ch.symbolic.index_slots([idx])[0]
        np.testing.assert_allclose(where.dense(partial_inverse(ch)[where.slots]),
                                   Ainv[np.ix_(sel, sel)], atol=1e-9)

    def test_random_patterns_many(self, rng):
        for _ in range(10):
            J, bs = 5, 2
            pat = tridiag_pattern(J)
            extra = tuple(rng.choice(J, size=2, replace=False))
            pat |= {extra, extra[::-1]}
            A = random_block_spd(rng, J, bs, pat)
            ch = block_cholesky(from_dense(A, J, bs))
            Ainv = np.linalg.inv(A)
            for (i, j), z in inverse_blocks(ch.symbolic, partial_inverse(ch)).items():
                np.testing.assert_allclose(z, Ainv[i * bs:(i + 1) * bs, j * bs:(j + 1) * bs],
                                           atol=1e-9)


@st.composite
def block_problems(draw):
    """A random SPD block matrix on a random symmetric block pattern, and an
    elimination order: minimum degree (None) or a random permutation."""
    J = draw(st.integers(1, 9))
    bs = draw(st.integers(1, 4))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    r = np.random.default_rng(seed)
    pat = {(i, i) for i in range(J)}
    for i in range(J):
        for j in range(i):
            if r.uniform() < density:
                pat |= {(i, j), (j, i)}
    perm = r.permutation(J) if draw(st.booleans()) else None
    return random_block_spd(r, J, bs, pat), J, bs, pat, perm, r


class TestRandomPatterns:
    """The block core against dense algebra on random patterns and orders."""

    @given(block_problems())
    @settings(max_examples=60, deadline=None)
    def test_factor_solve_inverse_match_dense(self, problem):
        A, J, bs, pat, perm, r = problem
        ch = block_cholesky(from_dense(A, J, bs, perm=perm))
        sym = ch.symbolic
        if perm is not None:
            np.testing.assert_array_equal(sym.perm, perm)
        # one slot per block of the symbolic fill pattern, which covers A's
        stored = stored_pairs(sym)
        assert len(ch.blocks) == len(set(stored)) == sym.n_slots
        assert stored == sorted(stored) and all(p >= q for p, q in stored)
        assert [stored[s] for s in sym.diag] == [(p, p) for p in range(J)]
        assert {(p, p) for p in range(J)} | {
            (p, q) for q in range(J) for p in column_rows(sym, q)} == set(stored)
        for (i, j) in pat:
            p, q = int(sym.inv_perm[i]), int(sym.inv_perm[j])
            assert (max(p, q), min(p, q)) in stored
        # P A P' = L L', with lower-triangular diagonal blocks
        order = np.concatenate([np.arange(p * bs, (p + 1) * bs) for p in sym.perm])
        Ld = dense_factor(ch)
        assert np.array_equal(Ld, np.tril(Ld))
        n = J * bs
        assert np.linalg.norm(Ld @ Ld.T - A[np.ix_(order, order)]) <= (
            16 * n * np.finfo(float).eps * np.linalg.norm(A))
        cond = np.linalg.cond(A)
        tol = 16 * n * np.finfo(float).eps * cond
        # solves, one and several right-hand sides
        for b in (r.normal(size=n), r.normal(size=(n, 3))):
            x = np.linalg.solve(A, b)
            assert np.linalg.norm(ch.solve(b) - x) <= tol * np.linalg.norm(x)
        assert ch.logdet() == pytest.approx(np.linalg.slogdet(A)[1], rel=tol, abs=tol)
        # partial inverse: every block on the fill pattern, and each column
        # structure gathered as one dense submatrix
        Ainv = np.linalg.inv(A)
        Z = partial_inverse(ch)
        assert Z.shape == (sym.n_slots, bs, bs)
        scale = np.linalg.norm(Ainv)
        for (i, j), z in inverse_blocks(sym, Z).items():
            ref = Ainv[i * bs:(i + 1) * bs, j * bs:(j + 1) * bs]
            assert np.abs(z - ref).max() <= tol * scale
        for q in range(J):
            idx = sym.perm[[q] + column_rows(sym, q)]
            sel = np.concatenate([np.arange(i * bs, (i + 1) * bs) for i in idx])
            where = sym.index_slots([idx])[0]
            gathered = where.dense(Z[where.slots])
            assert np.abs(gathered - Ainv[np.ix_(sel, sel)]).max() <= tol * scale
        # the pattern's index sets read the same blocks from the compact copy
        assert sym.read_slots.tolist() == sorted({s for w in sym.index_sets for s in w.slots})
        kept = Z[sym.read_slots]
        for w in sym.index_sets:
            np.testing.assert_array_equal(kept[w.read], Z[w.slots])


def dense_schedules(pattern, perm):
    """Slot keys, diagonal slots and the three schedules of ``symbolic_factor``,
    by naive dense symbolic elimination of the pattern permuted by ``perm``."""
    J = len(perm)
    inv = np.argsort(perm)
    M = np.eye(J, dtype=bool)
    for i, j in pattern:
        M[inv[i], inv[j]] = M[inv[j], inv[i]] = True
    below = []
    for k in range(J):
        below.append(k + 1 + np.flatnonzero(M[k + 1:, k]))
        M[np.ix_(below[k], below[k])] = True  # eliminating k joins its rows into a clique
    rows, cols = np.nonzero(np.tril(M))  # row by row, columns ascending
    slot = np.full((J, J), -1)
    slot[rows, cols] = np.arange(rows.size)
    updates = [[[slot[i, k], slot[j, k]] for k in np.flatnonzero(M[i, :j] & M[j, :j])]
               for i, j in zip(rows, cols)]
    columns = [slot[S, k].tolist() for k, S in enumerate(below)]
    cliques = [[slot[max(a, c), min(a, c)] for a in S for c in S] for S in below]
    return rows * J + cols, slot[np.arange(J), np.arange(J)], updates, columns, cliques


def assert_schedules_match_dense(sym, pattern):
    keys, diag, updates, columns, cliques = dense_schedules(pattern, sym.perm)
    np.testing.assert_array_equal(sym.keys, keys)
    np.testing.assert_array_equal(sym.diag, diag)
    assert split(sym.update_ptr, sym.update_pairs) == updates
    assert split(sym.col_ptr, sym.col_slots) == columns
    assert split(sym.clique_ptr, sym.clique_slots) == cliques


class TestSchedules:
    """The slot schedules against a naive dense symbolic elimination."""

    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_patterns(self, J, density, seed, given_perm):
        r = np.random.default_rng(seed)
        pattern = {(i, j) for i in range(J) for j in range(i) if r.uniform() < density}
        perm = r.permutation(J) if given_perm else None
        assert_schedules_match_dense(symbolic_factor(pair_sets(pattern), J, perm=perm),
                                     pattern)

    @pytest.mark.parametrize("name", ["c6_fitc", "j256_fitc", "pitc_sum3d"])
    def test_benchmark_workload_graphs(self, monkeypatch, name):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import WORKLOADS

        w = WORKLOADS[name]
        X, _ = w.make_inputs(np.random.default_rng([0, 0]))
        g = ExpertGraph.build(X, w.J, w.C, w.gamma, seed=0)
        pattern = {(int(i), int(k)) for psi in g.correlation for i in psi for k in psi}
        assert_schedules_match_dense(g.symbolic, pattern)
