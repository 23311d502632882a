"""Reference models: exact GP, global sparse GP (FITC), independent PoE.

These share the kernels and the expert partition with the correlated model so
that comparisons isolate the aggregation/inference method.  The sparse GP uses
fixed inducing inputs (a random data subset in the experiment harness) and the
FITC likelihood, matching the limiting case of the correlated model with full
correlation degree.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .kernels import Kernel, NoiseSpec, _as2d, jittered_cholesky
from .prediction import aggregation_weights, fuse

__all__ = [
    "FullGp",
    "SparseGp",
    "ProductOfExperts",
]

DENSE_CAP = 8192  # default guard for dense factorization


class FullGp:
    """Exact GP regression with dense Cholesky; guarded by a size cap."""

    def __init__(self, kernel: Kernel, noise: NoiseSpec, cap: int = DENSE_CAP):
        self.kernel = kernel
        self.noise = noise
        self.cap = cap
        self.X = self.y = self._chol = self._alpha = None

    def fit(self, X, y) -> "FullGp":
        X = _as2d(X)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] > self.cap:
            raise ValueError(f"N={X.shape[0]} exceeds the dense cap {self.cap}")
        self.X, self.y = X, y
        K = self.kernel(X) + self.noise.variance * np.eye(X.shape[0])
        self._chol = np.linalg.cholesky(K)
        self._alpha = cho_solve((self._chol, True), y)
        return self

    def predict(self, Xs, add_noise: bool = False):
        Xs = _as2d(Xs)
        Ks = self.kernel(Xs, self.X)
        mean = Ks @ self._alpha
        W = solve_triangular(self._chol, Ks.T, lower=True)
        var = self.kernel.diag(Xs) - np.einsum("ij,ij->j", W, W)
        if add_noise:
            var = var + self.noise.variance
        return mean, var

    def lml(self) -> float:
        n = self.y.size
        logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        return float(-0.5 * (self.y @ self._alpha + logdet + n * np.log(2 * np.pi)))

    def lml_gradient(self) -> np.ndarray:
        """Dense trace formulas over kernel parameters plus the noise slot."""
        n = self.y.size
        Kinv = cho_solve((self._chol, True), np.eye(n))
        A = np.outer(self._alpha, self._alpha) - Kinv
        grad = np.empty(self.kernel.n_params + 1)
        for i, dK in enumerate(self.kernel.grad_stack(self.X)):
            grad[i] = 0.5 * float(np.sum(A * dK))
        grad[-1] = 0.5 * self.noise.variance * float(np.trace(A))
        return grad


class SparseGp:
    """FITC with fixed global inducing inputs; low-rank algebra throughout."""

    def __init__(self, kernel: Kernel, noise: NoiseSpec, inducing: np.ndarray):
        self.kernel = kernel
        self.noise = noise
        self.inducing = _as2d(inducing)
        self.X = self.y = None

    def fit(self, X, y) -> "SparseGp":
        X = _as2d(X)
        y = np.asarray(y, dtype=float).ravel()
        if self.inducing.shape[0] > X.shape[0]:
            raise ValueError("more inducing points than data points")
        self.X, self.y = X, y
        A = self.inducing
        M = A.shape[0]
        self._Lu, _ = jittered_cholesky(self.kernel(A))
        Kuf = self.kernel(A, X)
        W = solve_triangular(self._Lu, Kuf, lower=True)          # whitened cross-covariance
        qff = np.einsum("ij,ij->j", W, W)
        self._d = self.kernel.diag(X) - qff + self.noise.variance
        self._W = W
        self._Wd = W / self._d
        B = np.eye(M) + self._Wd @ W.T
        self._LB = np.linalg.cholesky(B)
        self._c = solve_triangular(self._LB, self._Wd @ y, lower=True)
        return self

    def predict(self, Xs, add_noise: bool = False):
        Xs = _as2d(Xs)
        Kus = self.kernel(self.inducing, Xs)
        ws = solve_triangular(self._Lu, Kus, lower=True)
        t = solve_triangular(self._LB, ws, lower=True)
        mean = t.T @ self._c
        var = (self.kernel.diag(Xs) - np.einsum("ij,ij->j", ws, ws)
               + np.einsum("ij,ij->j", t, t))
        if add_noise:
            var = var + self.noise.variance
        return mean, var

    def lml(self) -> float:
        n = self.y.size
        quad = float(self.y @ (self.y / self._d)) - float(self._c @ self._c)
        logdet = float(np.sum(np.log(self._d))) + 2.0 * float(np.sum(np.log(np.diag(self._LB))))
        return -0.5 * (quad + logdet + n * np.log(2 * np.pi))

    def _alpha(self) -> np.ndarray:
        """(Qff + Lambda)^{-1} y via the low-rank identity."""
        t = solve_triangular(self._LB.T, self._c, lower=False)
        return self.y / self._d - self._Wd.T @ t

    def lml_gradient(self) -> np.ndarray:
        """Analytic FITC gradient in O(N M) per parameter."""
        X, A, y = self.X, self.inducing, self.y
        n, M = y.size, A.shape[0]
        alpha = self._alpha()
        H = solve_triangular(self._Lu.T, self._W, lower=False)       # Kuu^{-1} Kuf
        Ha = H @ alpha
        Binv_Wd = cho_solve((self._LB, True), self._Wd)
        R = solve_triangular(self._Lu.T, Binv_Wd, lower=False)       # H Ktilde^{-1}
        HKH = solve_triangular(
            self._Lu.T, solve_triangular(
                self._Lu.T, np.eye(M) - cho_solve((self._LB, True), np.eye(M)),
                lower=False).T, lower=False)                          # H Ktilde^{-1} H^T
        diag_Kinv = 1.0 / self._d - np.einsum("ij,ij->j", self._Wd, Binv_Wd)
        dKuu_all, dKuf_all = self.kernel.grad_stack(A), self.kernel.grad_stack(A, X)
        ddiag_all = self.kernel.grad_diag_stack(X)

        grad = np.empty(self.kernel.n_params + 1)
        for i in range(self.kernel.n_params + 1):
            if i == self.kernel.n_params:
                dd = np.full(n, self.noise.variance)
                quad = float(alpha @ (dd * alpha))
                tr = float(diag_Kinv @ dd)
            else:
                dKuu, dKuf = dKuu_all[i], dKuf_all[i]
                dqff = (2.0 * np.einsum("ij,ij->j", dKuf, H)
                        - np.einsum("ij,ij->j", dKuu @ H, H))
                dd = ddiag_all[i] - dqff
                quad = (2.0 * float((dKuf @ alpha) @ Ha) - float(Ha @ dKuu @ Ha)
                        + float(alpha @ (dd * alpha)))
                tr = (2.0 * float(np.sum(R * dKuf)) - float(np.sum(HKH * dKuu))
                      + float(diag_Kinv @ dd))
            grad[i] = 0.5 * (quad - tr)
        return grad


class ProductOfExperts:
    """Independent exact GPs, one per block of ``rows``, aggregated at prediction.

    ``fit`` fits one :class:`FullGp` on each block's rows of the data; the
    likelihood and its gradient are the experts' sums.  Modes: ``minvar``
    takes the lowest-variance expert pointwise (ties to the lowest expert
    index); ``gpoe`` fuses with the model's clamped entropy-difference weights
    at sharpening exponent 1, the correlated model's limit at degree one.
    """

    def __init__(self, kernel: Kernel, noise: NoiseSpec, rows: list[np.ndarray],
                 mode: str = "gpoe"):
        if mode not in ("minvar", "gpoe"):
            raise ValueError(f"unknown aggregation mode {mode!r}")
        self.kernel = kernel
        self.noise = noise
        self.rows = rows
        self.mode = mode
        self.experts: list[FullGp] = []

    def fit(self, X, y) -> "ProductOfExperts":
        X = _as2d(X)
        y = np.asarray(y, dtype=float).ravel()
        self.experts = [FullGp(self.kernel, self.noise).fit(X[r], y[r]) for r in self.rows]
        return self

    def predict(self, Xs):
        Xs = _as2d(Xs)
        means, variances = np.stack([e.predict(Xs) for e in self.experts], axis=1)
        if self.mode == "minvar":
            pick = np.argmin(variances, axis=0)  # first minimum: lowest expert index
            cols = np.arange(Xs.shape[0])
            return means[pick, cols], variances[pick, cols]
        v0 = self.kernel.diag(Xs)[None, :]
        return fuse(means, variances, aggregation_weights(v0, variances, N=1, C=1, exponent=1.0))

    def lml(self) -> float:
        return float(sum(e.lml() for e in self.experts))

    def lml_gradient(self) -> np.ndarray:
        return sum(e.lml_gradient() for e in self.experts)
