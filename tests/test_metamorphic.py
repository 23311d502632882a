"""Metamorphic relations: outputs of a transformed problem, predicted exactly
from the untransformed one, with no reference solution.

R2: scaling the targets by s and every kernel amplitude and the noise variance
by s^2 shifts the LML by -N log s, leaves the gradient (in log parameters)
unchanged, scales each posterior covariance and the fused variance by s^2,
and the fused mean by s.  Parameters are stored as logs, so the scaled model
differs from the exact transform by about one ulp: on configurations where
nothing is jittered the relation holds to rounding.
"""

import numpy as np
import pytest

from cpoe import CpoeModel, NoiseSpec, SquaredExponential, VariantSpec
from cpoe import cpoe_model

TOL = 1e-10


@pytest.mark.parametrize("variant", ["fitc", "pitc"])
def test_r2_target_scaling(monkeypatch, variant):
    real, jitter = cpoe_model.jittered_cholesky, []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        jitter.append(out[1])
        return out
    monkeypatch.setattr(cpoe_model, "jittered_cholesky", counted)

    rng = np.random.default_rng(1)
    N, J, s = 1024, 16, 2.0
    X = rng.uniform(0, 1, (N, 2))
    y = np.sin(6 * X[:, 0]) + 0.3 * rng.normal(size=N)
    Xs = rng.uniform(0, 1, (300, 2))
    out = []
    for scale in (1.0, s):
        m = CpoeModel(SquaredExponential.create(scale ** 2, [0.05, 0.05]),
                      NoiseSpec.create(0.1 * scale ** 2), J=J, C=3, gamma=0.25,
                      variant=VariantSpec(variant), seed=0).fit(X, scale * y)
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
