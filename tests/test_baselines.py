"""Exact GP, FITC sparse GP and independent PoE aggregation baselines."""

import numpy as np
import pytest

from conftest import gp_sample, spread_points
from cpoe import (
    CpoeModel,
    ExpertGraph,
    FullGp,
    NoiseSpec,
    ProductOfExperts,
    SparseGp,
    SquaredExponential,
    full_params,
    split_params,
)


class TestFullGp:
    def test_single_point_formula(self):
        kern = SquaredExponential.create(1.5, [0.4])
        noise = NoiseSpec.create(0.3)
        X, y = np.array([[0.2]]), np.array([0.9])
        model = FullGp(kern, noise).fit(X, y)
        x = np.array([[0.5]])
        m, v = model.predict(x)
        k = kern(x, X)[0, 0]
        assert m[0] == pytest.approx(k * 0.9 / (1.5 + 0.3), rel=1e-12)

    def test_interpolation_limit(self, rng):
        X = spread_points(20, 2, rng)
        kern = SquaredExponential.create(1.0, [0.2, 0.2])
        y = rng.normal(size=20)
        model = FullGp(kern, NoiseSpec.create(1e-10)).fit(X, y)
        m, _ = model.predict(X)
        np.testing.assert_allclose(m, y, atol=1e-5)

    def test_dense_cap_enforced(self, rng):
        model = FullGp(SquaredExponential.create(1.0, [1.0]), NoiseSpec.create(0.1), cap=10)
        with pytest.raises(ValueError):
            model.fit(rng.normal(size=(11, 1)), rng.normal(size=11))

    def test_equality_against_correlated_model(self, rng):
        r2 = np.random.default_rng(1)
        X = spread_points(50, 2, r2)
        kern = SquaredExponential.create(1.0, [0.08, 0.08])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, r2)
        Xs = r2.uniform(0, 1, (15, 2))
        full = FullGp(kern, noise).fit(X, y)
        mean, var = full.predict(Xs)
        lml = full.lml()
        model = CpoeModel(kern, noise, J=1, C=1, gamma=1.0, seed=0).fit(X, y)
        cm, cv = model.predict(Xs)
        np.testing.assert_allclose(cm, mean, atol=1e-8)
        np.testing.assert_allclose(cv, var, atol=1e-8)
        assert model.log_marginal_likelihood() == pytest.approx(lml, abs=1e-8)

    def test_gradient_matches_fd(self, rng):
        X = spread_points(24, 2, rng)
        kern = SquaredExponential.create(1.2, [0.15, 0.2])
        noise = NoiseSpec.create(0.15)
        y = rng.normal(size=24)
        model = FullGp(kern, noise).fit(X, y)
        theta0 = full_params(kern, noise)
        ga = model.lml_gradient()
        h, eye = 1e-5, np.eye(theta0.size)

        def val(t):
            k2, n2 = split_params(kern, t)
            return FullGp(k2, n2).fit(X, y).lml()

        gfd = np.array([(val(theta0 + h * eye[i]) - val(theta0 - h * eye[i])) / (2 * h)
                        for i in range(theta0.size)])
        assert np.abs(ga - gfd).max() / np.abs(gfd).max() < 1e-6


class TestSparseGp:
    def test_complete_inducing_set_recovers_full_gp(self, rng):
        X = spread_points(30, 2, rng)
        kern = SquaredExponential.create(1.0, [0.12, 0.12])
        noise = NoiseSpec.create(0.1)
        y = rng.normal(size=30)
        Xs = rng.uniform(0, 1, (12, 2))
        sparse = SparseGp(kern, noise, X).fit(X, y)
        full = FullGp(kern, noise).fit(X, y)
        (sm, sv), slml = sparse.predict(Xs), sparse.lml()
        (fm, fv), flml = full.predict(Xs), full.lml()
        np.testing.assert_allclose(sm, fm, atol=1e-8)
        np.testing.assert_allclose(sv, fv, atol=1e-8)
        assert slml == pytest.approx(flml, abs=1e-8)

    def test_distant_inducing_point_reverts_to_prior(self, rng):
        X = spread_points(20, 2, rng)
        kern = SquaredExponential.create(1.0, [0.1, 0.1])
        noise = NoiseSpec.create(0.1)
        y = rng.normal(size=20)
        model = SparseGp(kern, noise, np.array([[100.0, 100.0]])).fit(X, y)
        m, v = model.predict(rng.uniform(0, 1, (5, 2)))
        np.testing.assert_allclose(m, 0.0, atol=1e-8)
        np.testing.assert_allclose(v, 1.0, atol=1e-6)

    def test_equality_against_full_degree_model(self, rng):
        r2 = np.random.default_rng(5)
        X = spread_points(48, 2, r2)
        kern = SquaredExponential.create(1.0, [0.07, 0.07])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, r2)
        model = CpoeModel(kern, noise, J=4, C=4, gamma=0.5, seed=0).fit(X, y)
        A = np.vstack(model.graph.inducing_inputs)
        sgp = SparseGp(kern, noise, A).fit(X, y)
        Xs = r2.uniform(0, 1, (20, 2))
        cm, cv = model.predict(Xs)
        sm, sv = sgp.predict(Xs)
        np.testing.assert_allclose(cm, sm, atol=1e-8)
        np.testing.assert_allclose(cv, sv, atol=1e-8)
        assert model.log_marginal_likelihood() == pytest.approx(sgp.lml(), abs=1e-8)

    def test_more_inducing_than_data_rejected(self, rng):
        model = SparseGp(SquaredExponential.create(1.0, [1.0]), NoiseSpec.create(0.1),
                         rng.normal(size=(5, 1)))
        with pytest.raises(ValueError):
            model.fit(rng.normal(size=(3, 1)), rng.normal(size=3))

    def test_gradient_matches_fd(self, rng):
        X = spread_points(30, 2, rng)
        kern = SquaredExponential.create(1.1, [0.12, 0.15])
        noise = NoiseSpec.create(0.12)
        y = rng.normal(size=30)
        A = X[rng.permutation(30)[:10]]
        model = SparseGp(kern, noise, A).fit(X, y)
        theta0 = full_params(kern, noise)
        ga = model.lml_gradient()
        h, eye = 1e-5, np.eye(theta0.size)

        def val(t):
            k2, n2 = split_params(kern, t)
            return SparseGp(k2, n2, A).fit(X, y).lml()

        gfd = np.array([(val(theta0 + h * eye[i]) - val(theta0 - h * eye[i])) / (2 * h)
                        for i in range(theta0.size)])
        assert np.abs(ga - gfd).max() / np.abs(gfd).max() < 1e-6


class TestPoe:
    def _experts(self, rng, J=4, N=48, mode="gpoe"):
        X = spread_points(N, 2, rng)
        kern = SquaredExponential.create(1.0, [0.1, 0.1])
        noise = NoiseSpec.create(0.1)
        y, _ = gp_sample(kern, X, 0.1, rng)
        graph = ExpertGraph.build(X, J, C=1, gamma=1.0, seed=0)
        poe = ProductOfExperts(kern, noise, graph.row_indices, mode=mode).fit(X, y)
        return poe, kern, noise, graph, X, y

    def test_single_expert_identity_for_all_modes(self, rng):
        poe, kern, noise, *_ = self._experts(rng, J=1)
        Xs = rng.uniform(0, 1, (8, 2))
        ref = None
        for mode in ("minvar", "gpoe"):
            poe.mode = mode
            m, v = poe.predict(Xs)
            if ref is None:
                ref = (m, v)
            np.testing.assert_allclose(m, ref[0], atol=1e-12)
            np.testing.assert_allclose(v, ref[1], atol=1e-12)

    def test_minvar_picks_lowest_variance(self, rng):
        poe, kern, noise, graph, X, y = self._experts(rng, mode="minvar")
        Xs = rng.uniform(0, 1, (30, 2))
        m, v = poe.predict(Xs)
        # recompute per-expert predictions independently
        for i, x in enumerate(Xs):
            preds = []
            for e in poe.experts:
                Ks = kern(x[None, :], e.X)[0]
                Kj = kern(e.X) + 0.1 * np.eye(e.X.shape[0])
                mean = float(Ks @ np.linalg.solve(Kj, e.y))
                var = kern.diag(x[None, :])[0] - float(Ks @ np.linalg.solve(Kj, Ks))
                preds.append((var, mean))
            best = min(range(len(preds)), key=lambda k: (preds[k][0], k))
            assert v[i] == pytest.approx(preds[best][0], rel=1e-8)
            assert m[i] == pytest.approx(preds[best][1], rel=1e-6, abs=1e-8)

    def test_minvar_argmin_invariant_under_common_scaling(self, rng):
        # scaling all variances by one positive factor cannot change the pick
        variances = rng.uniform(0.1, 2.0, size=(3, 10))
        picks = np.argmin(variances, axis=0)
        np.testing.assert_array_equal(np.argmin(3.7 * variances, axis=0), picks)

    def test_two_experts_forced_pick(self):
        # direct argmin contract with variances (0.1, 1.0)
        means = np.array([[2.0], [5.0]])
        variances = np.array([[0.1], [1.0]])
        pick = np.argmin(variances, axis=0)
        assert pick[0] == 0 and means[pick[0], 0] == 2.0

    def test_gpoe_matches_correlated_model_at_degree_one(self, rng):
        poe, kern, noise, graph, X, y = self._experts(rng)
        model = CpoeModel(kern, noise, J=4, C=1, gamma=1.0, seed=0)
        model.fit(X, y, graph=graph)
        Xs = rng.uniform(0, 1, (20, 2))
        gm, gv = poe.predict(Xs)
        cm, cv = model.predict(Xs, weight_exponent=1.0)
        np.testing.assert_allclose(cm, gm, atol=1e-8)
        np.testing.assert_allclose(cv, gv, atol=1e-8)
        assert model.log_marginal_likelihood() == pytest.approx(poe.lml(), abs=1e-8)

    def test_unknown_mode_rejected(self, rng):
        _, kern, noise, graph, *_ = self._experts(rng, J=1)
        with pytest.raises(ValueError):
            ProductOfExperts(kern, noise, graph.row_indices, mode="bcm")


class TestOneDimensionalInputs:
    """A 1-D input array is N points of one dimension, as for the correlated
    model: each baseline gives bitwise the results it gives on a column."""

    @pytest.mark.parametrize("name", ["fullgp", "sgp", "minvar", "gpoe"])
    def test_vector_inputs_match_column_inputs(self, name):
        x = np.linspace(0, 1, 40)
        xs = np.linspace(0.03, 0.97, 9)
        y = np.sin(7 * x) + 0.1 * np.cos(31 * x)
        kern = SquaredExponential.create(1.0, [0.2])
        noise = NoiseSpec.create(0.05)

        def make(column):
            if name == "fullgp":
                return FullGp(kern, noise)
            if name == "sgp":
                return SparseGp(kern, noise, x[::5, None] if column else x[::5])
            return ProductOfExperts(kern, noise, np.array_split(np.arange(40), 4), mode=name)

        results = []
        for column in (False, True):
            model = make(column).fit(x[:, None] if column else x, y)
            mean, var = model.predict(xs[:, None] if column else xs)
            results.append((mean, var, model.lml(), model.lml_gradient()))
        for vec, col in zip(*results):
            np.testing.assert_array_equal(vec, col)
