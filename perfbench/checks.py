"""Correctness checks, computed apart from ``cpoe``.

Each check takes the program's outputs and the reference (a dense Gaussian
process computed here with numpy alone, or an identity the method must
satisfy) and returns ``(ok, detail)``.  ``test_checks.py`` hands every check
a wrong answer and asserts that it fails.
"""

from __future__ import annotations

import numpy as np

# Exact-GP limit: kernel matrices of the thinned subsample stay below this
# condition number.  Above ~1e15 the sparse and dense paths part ways silently
# (see CHANGES.md); at 1e8 they agree to ~1e-11 relative.
COND_LIMIT = 1e8
EXACT_RTOL = 1e-9          # LML, gradient, predictive mean and variance, relative
GRAD_STEP = 0.02           # central-secant half-width in log-parameter space
GRAD_RTOL = 1e-3           # |g.v - secant| <= GRAD_RTOL * |g|, at three pairs
C1_RTOL = 1e-5             # sum of stochastic terms vs the C=1 LML, relative
WEIGHT_ATOL = 1e-12        # fused weights sum to 1


def se_sum(X1: np.ndarray, X2: np.ndarray, terms) -> np.ndarray:
    """Sum of squared-exponential kernels, ``terms = ((variance, lengthscales), ...)``."""
    K = np.zeros((X1.shape[0], X2.shape[0]))
    for variance, ls in terms:
        ls = np.asarray(ls, dtype=float)
        d2 = (((X1[:, None, :] - X2[None, :, :]) / ls) ** 2).sum(axis=-1)
        K += variance * np.exp(-0.5 * d2)
    return K


def dense_gp(X: np.ndarray, y: np.ndarray, Xq: np.ndarray, terms, noise: float):
    """Exact GP: log marginal likelihood, its gradient, predictive mean and
    noisy variance.

    The gradient is over cpoe's parameter layout: per SE summand the log
    variance then the log lengthscales, then the log noise variance.  Each
    entry is 1/2 alpha' dK alpha - 1/2 tr(K^-1 dK).
    """
    n = X.shape[0]
    L = np.linalg.cholesky(se_sum(X, X, terms) + noise * np.eye(n))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    lml = -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2 * np.pi)
    Linv = np.linalg.solve(L, np.eye(n))
    inner = np.outer(alpha, alpha) - Linv.T @ Linv   # d LML = 1/2 sum(inner o dK)
    dK = []
    for variance, ls in terms:
        K = se_sum(X, X, ((variance, ls),))
        dK.append(K)                                  # d / d log variance
        for d, ell in enumerate(ls):                  # d / d log lengthscale_d
            dK.append(K * ((X[:, None, d] - X[None, :, d]) / ell) ** 2)
    dK.append(noise * np.eye(n))                      # d / d log noise variance
    grad = np.array([0.5 * np.sum(inner * D) for D in dK])
    Kq = se_sum(Xq, X, terms)
    W = np.linalg.solve(L, Kq.T)
    prior = sum(v for v, _ in terms)
    return float(lml), grad, Kq @ alpha, prior - np.sum(W * W, axis=0) + noise


def thin(X: np.ndarray, terms, J: int, rng: np.random.Generator, n_max: int = 128):
    """Row indices of a seeded subsample of ``X`` whose kernel matrix has
    condition number < COND_LIMIT.

    Points are accepted in random order when no accepted point lies within
    ``r`` (in units of the shortest lengthscale); the subsample is then cut
    down, and ``r`` grown, until the condition holds.  The size is a multiple
    of ``J`` and at least ``2 J``, so that every expert of a ``gamma = 1``
    model keeps at least two points.
    """
    ell = min(min(ls) for _, ls in terms)
    candidates = rng.permutation(X.shape[0])[:4 * n_max]
    for r in (0.5, 0.75, 1.0, 1.5, 2.0):
        keep = [candidates[0]]
        for i in candidates[1:]:
            if len(keep) == n_max:
                break
            if np.min(np.sum((X[keep] - X[i]) ** 2, axis=1)) >= (r * ell) ** 2:
                keep.append(i)
        for n in range(len(keep) // J * J, 2 * J - 1, -J):
            sub = X[keep[:n]]
            if np.linalg.cond(se_sum(sub, sub, terms)) < COND_LIMIT:
                return np.asarray(keep[:n])
    raise ValueError("no subsample meets the condition-number limit")


def _rel_close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    err = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
    return err <= rtol, err


def check_exact_limit(lml, grad, mean, var, ref_lml, ref_grad, ref_mean, ref_var):
    """CPoE at C = J, gamma = 1 against the dense GP on the same points: the
    LML, its gradient (``lml_gradient``), the predictive mean and variance."""
    ok_l, e_l = _rel_close(lml, ref_lml, EXACT_RTOL)
    # the gradient and the mean can cross zero: scale by the reference's norm
    e_g = float(np.linalg.norm(np.asarray(grad) - ref_grad) / np.linalg.norm(ref_grad))
    e_m = float(np.max(np.abs(np.asarray(mean) - ref_mean)) / np.max(np.abs(ref_mean)))
    ok_v, e_v = _rel_close(var, ref_var, EXACT_RTOL)
    ok = ok_l and e_g <= EXACT_RTOL and e_m <= EXACT_RTOL and ok_v
    return ok, (f"lml {e_l:.1e} grad {e_g:.1e} mean {e_m:.1e} var {e_v:.1e} "
                f"(rel, limit {EXACT_RTOL:g})")


def check_gradient(lmls, grads, direction, step=GRAD_STEP):
    """Analytic gradients at ``theta - h v``, ``theta``, ``theta + h v`` against
    the secants of the LML between those points.

    Three second-order identities must hold: ``g(theta) . v`` matches the
    central secant, and the mean of the gradients at each end of a half-step
    matches that half-step's secant.  A gradient that is wrong by a large
    amount can cancel in one projection by chance, but hardly in all three.
    """
    (f_m, f_0, f_p), v = lmls, np.asarray(direction, dtype=float)
    g_m, g_0, g_p = (np.asarray(g, dtype=float) for g in grads)
    pairs = (((g_0 @ v), (f_p - f_m) / (2.0 * step), np.linalg.norm(g_0)),
             ((g_m + g_0) @ v / 2.0, (f_0 - f_m) / step,
              max(np.linalg.norm(g_m), np.linalg.norm(g_0))),
             ((g_0 + g_p) @ v / 2.0, (f_p - f_0) / step,
              max(np.linalg.norm(g_0), np.linalg.norm(g_p))))
    errs = [abs(a - s) / max(scale, 1e-300) for a, s, scale in pairs]
    ok = bool(np.all(np.isfinite(errs))) and max(errs) <= GRAD_RTOL
    return ok, (f"analytic {pairs[0][0]:.6g} secant {pairs[0][1]:.6g} "
                f"worst err/|g| {max(errs):.1e}")


def check_c1_identity(term_sum, n, lml_c1):
    """Sum of the stochastic terms minus N/2 log 2 pi equals the C = 1 LML."""
    total = float(term_sum) - 0.5 * n * np.log(2 * np.pi)
    ok, err = _rel_close(total, lml_c1, C1_RTOL)
    return ok, f"terms {total:.10g} C=1 LML {lml_c1:.10g} rel {err:.1e}"


def check_reload(ref_mean, ref_var, mean, var):
    """Predictions after save -> load are bitwise those of the in-memory model."""
    same = all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in ((np.asarray(ref_mean), np.asarray(mean)),
                            (np.asarray(ref_var), np.asarray(var))))
    return same, "bitwise equal" if same else "predictions differ after reload"


def check_fused(mean, var, weights):
    """Finite means, positive variances, and per-query weights that sum to 1."""
    mean, var, weights = (np.asarray(a, dtype=float) for a in (mean, var, weights))
    finite = bool(np.all(np.isfinite(mean)) and np.all(np.isfinite(var)))
    positive = bool(np.all(var > 0))
    w_ok = bool(np.all(np.isfinite(weights)) and np.all(weights >= 0))
    w_err = float(np.max(np.abs(weights.sum(axis=0) - 1.0)))
    ok = finite and positive and w_ok and w_err <= WEIGHT_ATOL
    return ok, (f"finite {finite} positive {positive} weights >= 0 {w_ok} "
                f"|sum w - 1| {w_err:.1e}")
