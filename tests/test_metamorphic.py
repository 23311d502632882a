"""Metamorphic relations: outputs of a transformed problem, predicted exactly
from the untransformed one, with no reference solution.

R1: scaling the inputs, the queries and every lengthscale by s leaves the
expert graph, the LML, its gradient (in log parameters) and the fused
predictions unchanged.

R2: scaling the targets by s and every kernel amplitude and the noise variance
by s^2 shifts the LML by -N log s, leaves the gradient (in log parameters)
unchanged, scales each posterior covariance and the fused variance by s^2,
and the fused mean by s.

Parameters are stored as logs, so a scaled model differs from the exact
transform by about one ulp: on configurations where nothing is jittered each
relation holds to rounding.  A power of two would scale exactly, so R1 uses
s = 3 to exercise the rounding.
"""

import numpy as np
import pytest

from cpoe import CpoeModel, NoiseSpec, SquaredExponential, VariantSpec
from cpoe import cpoe_model

TOL = 1e-10
N, J = 1024, 16


@pytest.fixture
def jitter(monkeypatch):
    """The jitter of every factorization made while the test runs."""
    real, applied = cpoe_model.jittered_cholesky, []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        applied.append(out[1])
        return out
    monkeypatch.setattr(cpoe_model, "jittered_cholesky", counted)
    return applied


def _problem():
    """Training inputs, targets and queries, uniform in the unit square."""
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (N, 2))
    y = np.sin(6 * X[:, 0]) + 0.3 * rng.normal(size=N)
    return X, y, rng.uniform(0, 1, (300, 2))


def _fit(variant, X, y, amplitude=1.0, lengthscale=0.05):
    return CpoeModel(SquaredExponential.create(amplitude, [lengthscale, lengthscale]),
                     NoiseSpec.create(0.1 * amplitude), J=J, C=3, gamma=0.25,
                     variant=VariantSpec(variant), seed=0).fit(X, y)


@pytest.mark.parametrize("variant", ["fitc", "pitc"])
def test_r1_input_scaling(jitter, variant):
    X, y, Xs = _problem()
    s = 3.0
    out, graphs = [], []
    for scale in (1.0, s):
        m = _fit(variant, scale * X, y, lengthscale=0.05 * scale)
        graphs.append(m.graph)
        out.append((m.log_marginal_likelihood(), m.lml_gradient(), *m.predict(scale * Xs)))
    assert jitter and not any(jitter)
    (lml, grad, mean, var), (lml_s, grad_s, mean_s, var_s) = out

    g, g_s = graphs
    for rows, rows_s in zip(g.row_indices, g_s.row_indices, strict=True):
        np.testing.assert_array_equal(rows, rows_s)
    np.testing.assert_array_equal(g.correlation, g_s.correlation)
    np.testing.assert_array_equal(g.symbolic.perm, g_s.symbolic.perm)
    assert abs(lml_s - lml) <= TOL * abs(lml)
    assert np.linalg.norm(grad_s - grad) <= TOL * np.linalg.norm(grad)
    # the mean in fused standard deviations, the variance relative
    assert np.all(np.abs(mean_s - mean) <= TOL * np.sqrt(var))
    assert np.all(np.abs(var_s - var) <= TOL * var)


@pytest.mark.parametrize("variant", ["fitc", "pitc"])
def test_r2_target_scaling(jitter, variant):
    X, y, Xs = _problem()
    s = 2.0
    out = []
    for scale in (1.0, s):
        m = _fit(variant, X, scale * y, amplitude=scale ** 2)
        out.append((m.log_marginal_likelihood(), m.lml_gradient(),
                    [m.posterior.sigma_psi(j) for j in range(J)], *m.predict(Xs)))
    assert jitter and not any(jitter)
    (lml, grad, sigma, mean, var), (lml_s, grad_s, sigma_s, mean_s, var_s) = out

    assert abs(lml_s - (lml - N * np.log(s))) <= TOL * abs(lml)
    assert np.linalg.norm(grad_s - grad) <= TOL * np.linalg.norm(grad)
    for a, b in zip(sigma, sigma_s):
        assert np.abs(b - s ** 2 * a).max() <= TOL * s ** 2 * np.abs(a).max()
    # the mean in fused standard deviations, the variance relative
    assert np.all(np.abs(mean_s - s * mean) <= TOL * s * np.sqrt(var))
    assert np.all(np.abs(var_s - s ** 2 * var) <= TOL * s ** 2 * var)
