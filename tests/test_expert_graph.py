"""Partitioning, ordering, inducing selection and index-set construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import predecessors
from cpoe.expert_graph import (
    ExpertGraph,
    build_predecessors,
    correlation_sets,
    kd_partition,
    order_partitions,
    select_inducing,
)


class TestKdPartition:
    def test_1d_median_split(self):
        X = np.arange(8.0)[:, None]
        a = kd_partition(X, 2)
        assert set(np.flatnonzero(a == a[0])) == {0, 1, 2, 3}
        assert set(np.flatnonzero(a == a[4])) == {4, 5, 6, 7}

    def test_2d_grid_quadrants(self):
        # brute-force oracle: recursive median splits of a 4x4 grid give the
        # four quadrants, each of size 4
        g = np.arange(4.0)
        X = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        a = kd_partition(X, 4)
        cells = [set(map(tuple, X[a == c])) for c in range(4)]
        quadrants = [
            {(x, y) for x in (0.0, 1.0) for y in (0.0, 1.0)},
            {(x, y) for x in (0.0, 1.0) for y in (2.0, 3.0)},
            {(x, y) for x in (2.0, 3.0) for y in (0.0, 1.0)},
            {(x, y) for x in (2.0, 3.0) for y in (2.0, 3.0)},
        ]
        for q in quadrants:
            assert q in cells

    def test_single_cell(self, rng):
        X = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(kd_partition(X, 1), np.zeros(5, dtype=int))

    def test_rejects_bad_J(self, rng):
        X = rng.normal(size=(8, 1))
        with pytest.raises(ValueError):
            kd_partition(X, 3)
        with pytest.raises(ValueError):
            kd_partition(X, 16)

    @given(st.integers(9, 64), st.sampled_from([2, 4, 8]), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cell_sizes_differ_by_at_most_one(self, n, J, seed):
        if n < J:
            return
        X = np.random.default_rng(seed).normal(size=(n, 2))
        a = kd_partition(X, J)
        sizes = np.bincount(a, minlength=J)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n


class TestOrdering:
    def test_line_left_to_right(self):
        # greedy oracle: starting at the leftmost cell of a 1-d line must
        # visit the centers in coordinate order
        centers = np.array([[0.0], [1.0], [2.0], [3.0]])

        class StartAtZero:
            def integers(self, n):
                return 0

        order = order_partitions(centers, StartAtZero())
        np.testing.assert_array_equal(order, [0, 1, 2, 3])

    def test_single(self, rng):
        np.testing.assert_array_equal(order_partitions(np.zeros((1, 2)), rng), [0])

    def test_tie_breaks_to_lowest_index(self):
        # centers 1 and 2 are equidistant from 0
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])

        class StartAtZero:
            def integers(self, n):
                return 0

        order = order_partitions(centers, StartAtZero())
        assert order[1] == 1

    def test_is_permutation(self, rng):
        centers = rng.normal(size=(9, 3))
        order = order_partitions(centers, rng)
        assert sorted(order.tolist()) == list(range(9))

    def test_matches_scalar_loop(self):
        # the scalar-norm loop the vectorised ordering replaced, as the oracle;
        # a third of the center sets sit on a 1/8 grid, which forces ties
        def loop_order(centers, start):
            ordering = [start]
            remaining = sorted(set(range(len(centers))) - {start})
            while remaining:
                last = centers[ordering[-1]]
                dists = [float(np.linalg.norm(centers[c] - last)) for c in remaining]
                nxt = remaining[int(np.argmin(dists))]
                ordering.append(nxt)
                remaining.remove(nxt)
            return ordering

        cases = 0
        for D in (1, 2, 3, 5):
            for J in (4, 16, 32, 256):
                for seed in range(24 if J < 256 else 4):
                    r = np.random.default_rng([D, J, seed])
                    centers = r.uniform(0, 1, (J, D))
                    if seed % 3 == 0:
                        centers = np.round(centers * 8) / 8
                    start = int(np.random.default_rng(seed).integers(J))
                    order = order_partitions(centers, np.random.default_rng(seed))
                    assert order.tolist() == loop_order(centers, start), (D, J, seed)
                    cases += 1
        assert cases >= 300


class TestSelectInducing:
    def test_gamma_one_returns_cell(self, rng):
        X = rng.normal(size=(6, 2))
        A, idx = select_inducing(X, 1.0, rng)
        np.testing.assert_array_equal(A, X)
        np.testing.assert_array_equal(idx, np.arange(6))

    def test_gamma_half_cardinality(self, rng):
        X = rng.normal(size=(4, 2))
        A, idx = select_inducing(X, 0.5, rng)
        assert A.shape == (2, 2) and len(set(idx.tolist())) == 2

    def test_seeded_reproducibility(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        A1, i1 = select_inducing(X, 0.4, np.random.default_rng(7))
        A2, i2 = select_inducing(X, 0.4, np.random.default_rng(7))
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(A1, A2)

    def test_zero_points_rejected(self, rng):
        with pytest.raises(ValueError):
            select_inducing(np.zeros((4, 1)), 0.1, rng)


# layout with five centers whose greedy ordering and distance ranking
# reproduce the documented example sets: pi_2 non-consecutive, pi_3 consecutive
_EXAMPLE_CENTERS = np.array([
    [0.0, 0.0],
    [1.0, 0.1],
    [0.4, 1.0],
    [2.0, 0.2],
    [1.6, 1.6],
])


class TestPredecessors:
    def test_example_layout_C2(self):
        preds = build_predecessors(_EXAMPLE_CENTERS, np.arange(5), 2)
        expected = [[], [0], [0], [1], [2]]
        for got, want in zip(preds, expected):
            assert got.tolist() == want

    def test_example_layout_C3(self):
        preds = build_predecessors(_EXAMPLE_CENTERS, np.arange(5), 3)
        assert preds[2].tolist() == [0, 1]
        assert preds[3].tolist() == [1, 2]
        assert preds[4].tolist() == [2, 3]

    def test_C1_all_empty(self, rng):
        preds = build_predecessors(rng.normal(size=(6, 2)), np.arange(6), 1)
        assert all(p.size == 0 for p in preds)

    def test_nesting_when_increasing_C(self, rng):
        centers = rng.normal(size=(10, 2))
        order = np.arange(10)
        for C in range(1, 10):
            p1 = build_predecessors(centers, order, C)
            p2 = build_predecessors(centers, order, C + 1)
            for j in range(10):
                assert set(p1[j]).issubset(set(p2[j]))
                assert len(p2[j]) - len(p1[j]) in (0, 1)


class TestCorrelationSets:
    def test_C1_is_self(self):
        preds = [np.empty(0, dtype=int) for _ in range(4)]
        corr = correlation_sets(preds, 1)
        assert [c.tolist() for c in corr] == [[0], [1], [2], [3]]

    def test_first_experts_share_the_full_corner(self, rng):
        # experts below the degree all use the leading block {0..C-1}
        centers = rng.normal(size=(6, 2))
        for C in (2, 3, 4):
            preds = build_predecessors(centers, np.arange(6), C)
            corr = correlation_sets(preds, C)
            for j in range(C):
                assert corr[j].tolist() == list(range(C))

    def test_example_layout_psi4_C2(self):
        preds = build_predecessors(_EXAMPLE_CENTERS, np.arange(5), 2)
        corr = correlation_sets(preds, 2)
        assert corr[3].tolist() == [1, 3]  # predecessors {1} plus self

    @given(st.integers(2, 16), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_cardinalities_for_all_C(self, J, seed):
        centers = np.random.default_rng(seed).normal(size=(J, 2))
        for C in range(1, J + 1):
            preds = build_predecessors(centers, np.arange(J), C)
            corr = correlation_sets(preds, C)
            for j in range(J):
                assert preds[j].size == min(j, C - 1)
                assert np.all(preds[j] < j)
                assert corr[j].size == C


class TestGraphBuild:
    def test_assignment_covers_all_rows(self, rng):
        X = rng.normal(size=(40, 2))
        g = ExpertGraph.build(X, J=4, C=2, gamma=0.5, seed=1)
        assert sorted(np.concatenate(g.row_indices).tolist()) == list(range(40))
        assert sorted(g.ordering.tolist()) == list(range(4))
        for j, rows in enumerate(g.row_indices):
            np.testing.assert_array_equal(g.assignment[rows], j)

    def test_L_uses_smallest_cell(self, rng):
        X = rng.normal(size=(41, 2))  # cells of 10 and 11 rows
        g = ExpertGraph.build(X, J=4, C=2, gamma=1.0, seed=0)
        assert g.L == 10
        assert all(a.shape[0] == 10 for a in g.inducing_inputs)

    def test_with_correlation_preserves_layout_and_nests(self, rng):
        X = rng.normal(size=(64, 2))
        g2 = ExpertGraph.build(X, J=8, C=2, gamma=0.5, seed=3)
        g5 = g2.with_correlation(5)
        np.testing.assert_array_equal(g2.ordering, g5.ordering)
        for j in range(8):
            np.testing.assert_array_equal(g2.inducing_index[j], g5.inducing_index[j])
            assert set(predecessors(g2, j)).issubset(set(predecessors(g5, j)))

    @given(st.integers(0, 4), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_predecessors_are_leading_prefix_of_correlation(self, log2_J, seed):
        # the graph keeps no predecessor sets: the model reads them, and with
        # the expert itself the transition's kernel blocks, off the front of
        # the correlation set and K(A_psi)
        J = 2 ** log2_J
        X = np.random.default_rng(seed).normal(size=(6 * J, 2))
        g1 = ExpertGraph.build(X, J=J, C=1, gamma=0.5, seed=seed)
        graphs = [g1, ExpertGraph.build(X, J=J, C=J, gamma=0.5, seed=seed)]
        graphs += [g1.with_correlation(C) for C in range(2, J + 1)]
        for g in graphs:
            preds = build_predecessors(g.centers, np.arange(J), g.C)
            for j in range(J):
                pp = predecessors(g, j, plus_self=True)
                assert pp[-1] == j
                np.testing.assert_array_equal(pp[:-1], preds[j])

    def test_C_above_J_clamps_with_warning(self, rng):
        X = rng.normal(size=(16, 2))
        with pytest.warns(UserWarning):
            g = ExpertGraph.build(X, J=2, C=5, gamma=1.0, seed=0)
        assert g.C == 2

    def test_seeded_build_reproducible(self, rng):
        X = np.random.default_rng(3).normal(size=(32, 2))
        g1 = ExpertGraph.build(X, J=4, C=2, gamma=0.5, seed=9)
        g2 = ExpertGraph.build(X, J=4, C=2, gamma=0.5, seed=9)
        np.testing.assert_array_equal(g1.ordering, g2.ordering)
        for j in range(4):
            np.testing.assert_array_equal(g1.inducing_index[j], g2.inducing_index[j])
