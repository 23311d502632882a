"""The benchmark's own tests: every check fails when handed a wrong answer.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import os
import sys
import types
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (COND_LIMIT, GRAD_STEP, check_c1_identity,  # noqa: E402
                    check_exact_limit, check_fused, check_gradient, check_reload,
                    dense_gp, se_sum, thin)
from tracing import Tracer  # noqa: E402

TERMS = ((1.0, (0.3, 0.3)), (0.2, (0.1, 0.1)))


def _data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 2))
    return X, np.sin(5 * X[:, 0]) + 0.1 * rng.normal(size=n), rng.uniform(0, 1, (7, 2))


class DenseReference(unittest.TestCase):
    def test_lml_matches_the_gaussian_density(self):
        X, y, Xq = _data()
        K = se_sum(X, X, TERMS) + 0.05 * np.eye(X.shape[0])
        sign, logdet = np.linalg.slogdet(K)
        expected = -0.5 * (y @ np.linalg.solve(K, y) + logdet + y.size * np.log(2 * np.pi))
        lml, _, mean, var = dense_gp(X, y, Xq, TERMS, 0.05)
        self.assertEqual(sign, 1.0)
        self.assertAlmostEqual(lml, expected, places=9)
        Kq = se_sum(Xq, X, TERMS)
        np.testing.assert_allclose(mean, Kq @ np.linalg.solve(K, y), rtol=1e-10)
        full = se_sum(Xq, Xq, TERMS) - Kq @ np.linalg.solve(K, Kq.T)
        np.testing.assert_allclose(var, np.diag(full) + 0.05, rtol=1e-10)

    def test_gradient_matches_central_differences(self):
        X, y, Xq = _data()

        def lml_at(theta):  # cpoe's layout: log variance, log lengthscales, ..., log noise
            e = np.exp(theta)
            terms = ((e[0], (e[1], e[2])), (e[3], (e[4], e[5])))
            return dense_gp(X, y, Xq, terms, e[6])[0]

        theta = np.log([v for var, ls in TERMS for v in (var, *ls)] + [0.05])
        grad = dense_gp(X, y, Xq, TERMS, 0.05)[1]
        h = 1e-5
        fd = [(lml_at(theta + h * e) - lml_at(theta - h * e)) / (2 * h)
              for e in np.eye(theta.size)]
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)

    def test_thinned_subsample_is_conditioned_and_divisible(self):
        X = np.random.default_rng(1).uniform(0, 1, (4000, 2))
        rows = thin(X, TERMS, 8, np.random.default_rng(2))
        self.assertEqual(rows.size % 8, 0)
        self.assertEqual(np.unique(rows).size, rows.size)
        sub = X[rows]
        self.assertLess(np.linalg.cond(se_sum(sub, sub, TERMS)), COND_LIMIT)


class ChecksRejectWrongAnswers(unittest.TestCase):
    def test_exact_limit(self):
        X, y, Xq = _data()
        ref = dense_gp(X, y, Xq, TERMS, 0.05)
        lml, grad, mean, var = ref
        self.assertTrue(check_exact_limit(lml, grad, mean, var, *ref)[0])
        self.assertFalse(check_exact_limit(lml + 1e-6, grad, mean, var, *ref)[0])
        self.assertFalse(check_exact_limit(lml, 1.01 * grad, mean, var, *ref)[0])
        self.assertFalse(check_exact_limit(lml, np.zeros_like(grad), mean, var, *ref)[0])
        self.assertFalse(check_exact_limit(lml, grad, mean + 1e-8, var, *ref)[0])
        self.assertFalse(check_exact_limit(lml, grad, mean, var * (1 + 1e-8), *ref)[0])

    def test_gradient(self):
        # a quadratic: every secant identity the check uses is exact
        A = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0],
                      [0.0, 0.2, 3.0, 0.4], [0.1, 0.0, 0.4, 0.5]])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        theta = np.array([0.2, -0.1, 0.4, 0.3])

        def f(t):
            return -0.5 * t @ A @ t + b @ t

        v = np.array([1.0, -1.0, 1.0, 1.0]) / 2.0
        points = [theta - GRAD_STEP * v, theta, theta + GRAD_STEP * v]
        lmls = [f(p) for p in points]
        grads = [b - A @ p for p in points]
        self.assertTrue(check_gradient(lmls, grads, v)[0])
        self.assertFalse(check_gradient(lmls, [1.01 * g for g in grads], v)[0])
        for k in range(3):  # one wrong gradient, or one wrong LML, is enough
            wrong = list(grads)
            wrong[k] = grads[k] + np.array([0.0, 0.0, 0.05, 0.0])
            self.assertFalse(check_gradient(lmls, wrong, v)[0])
            off = list(lmls)
            off[k] += 1e-3
            self.assertFalse(check_gradient(off, grads, v)[0])
        self.assertFalse(check_gradient(lmls, [g * np.nan for g in grads], v)[0])

    def test_c1_identity(self):
        n, lml = 2048, -1432.5
        terms = lml + 0.5 * n * np.log(2 * np.pi)
        self.assertTrue(check_c1_identity(terms, n, lml)[0])
        self.assertFalse(check_c1_identity(terms, n, lml * (1 + 1e-4))[0])

    def test_reload_is_bitwise(self):
        mean = np.linspace(-1.0, 1.0, 5)
        var = np.linspace(0.1, 0.5, 5)
        self.assertTrue(check_reload(mean, var, mean.copy(), var.copy())[0])
        shifted = var.copy()
        shifted[2] = np.nextafter(shifted[2], np.inf)
        self.assertFalse(check_reload(mean, var, mean, shifted)[0])
        self.assertFalse(check_reload(mean, var, mean.astype(np.float32), var)[0])
        self.assertFalse(check_reload(mean, var, mean[:4], var[:4])[0])

    def test_fused(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 1.0, (5, 6))
        w /= w.sum(axis=0)
        mean, var = rng.normal(size=6), rng.uniform(0.1, 1.0, 6)
        self.assertTrue(check_fused(mean, var, w)[0])
        self.assertFalse(check_fused(mean, var, w * (1 + 1e-10))[0])
        self.assertFalse(check_fused(mean, -var, w)[0])
        self.assertFalse(check_fused(np.where(mean > 0, np.nan, mean), var, w)[0])
        bad = w.copy()
        bad[0, 0], bad[1, 0] = -0.1, bad[1, 0] + bad[0, 0] + 0.1
        self.assertFalse(check_fused(mean, var, bad)[0])


class SelfTimes(unittest.TestCase):
    def test_self_time_excludes_children_and_spans_need_an_operation(self):
        tracer = Tracer()
        lib = types.SimpleNamespace()
        lib.inner = lambda n: sum(range(n))
        lib.outer = lambda n: lib.inner(n) + lib.inner(n)
        tracer._patch(lib, "inner", lambda a, k: "inner")
        tracer._patch(lib, "outer", lambda a, k: "outer")
        lib.outer(10)
        self.assertEqual(tracer.spans, [])
        tracer.op = 7
        lib.outer(200000)
        tracer.op = None
        tracer.uninstall()
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "inner"])
        outer = tracer.spans[0]
        children = sum(s[2] - s[1] for s in tracer.spans[1:])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertAlmostEqual(outer[5], (outer[2] - outer[1]) - children, places=12)
        times = tracer.self_times([7])
        self.assertAlmostEqual(times["outer"] + times["inner"], outer[2] - outer[1],
                               places=12)
        self.assertFalse(hasattr(lib.outer, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
