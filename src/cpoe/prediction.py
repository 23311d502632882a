"""Local expert predictions and covariance-intersection fusion.

Each predictive expert projects the query onto its correlation region,
producing a Gaussian whose variance combines the conditional residual with
the posterior covariance of the region (gathered from the blocks of the
partial inverse the posterior keeps, never recomputed densely).  Experts
below the correlation degree are only implicitly represented, since their
regions coincide with the first full one.
Prediction reads a model only through its graph, kernel, noise and
:class:`ServingState`, which a fitted model builds from its posterior once per
fit and a loaded model reads from its file.

The per-expert Gaussians are fused by covariance intersection with
entropy-difference weights: normalized weights make the fused variance a
consistent (conservative) combination regardless of the unknown correlations
between the experts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ServingState",
    "aggregation_weights",
    "fuse",
    "predict_arrays",
]

WEIGHT_CLAMP = 1e-12  # floor for non-positive entropy differences before sharpening
# Queries are evaluated in chunks of max(MIN_CHUNK_ROWS, CHUNK_ENTRIES // (J * L))
# rows, into one kernel block that every chunk of a call reuses.  2**17 entries
# (1 MB) fit a 2 MB per-core L2 cache: on a 2-vCPU x86 host, one OpenBLAS
# thread, 2000-query predicts served 11.9k queries/s at pitc_sum3d's
# configuration with 1 MB blocks against 9.9k with 4 MB (36.5k against 27.8k at
# c6_fitc's).  Fewer than 64 rows would starve the GEMMs, so at J * L = 8192 a
# block is 4 MB.
CHUNK_ENTRIES = 2 ** 17
MIN_CHUNK_ROWS = 64
# Predictive experts served by one stacked gather and matmul per chunk.  At
# j256_fitc's 254 experts of 96 correlation rows, groups of 16 served 3.5k
# queries/s against 3.1k one expert at a time and 3.3k in groups of 64.
EXPERT_GROUP = 16


def aggregation_weights(v0, v_experts, N: int, C: int,
                        exponent: float | None = None) -> np.ndarray:
    """Normalized entropy-difference weights, sharpened by ``log(N) * C``.

    Experts run along axis 0.  The unnormalized weight of an expert is half
    the log ratio of prior to posterior predictive variance.  Non-positive
    values are clamped to a tiny floor before raising to the sharpening
    exponent, which preserves normalization; if no expert is informative this
    degrades to uniform weights.  Pass ``exponent`` to override the default
    sharpening.
    """
    v_experts = np.asarray(v_experts, dtype=float)
    if np.any(v_experts <= 0) or np.any(np.asarray(v0) <= 0):
        raise ValueError("variances must be positive")
    beta_bar = 0.5 * np.log(v0 / v_experts)
    beta_bar = np.maximum(beta_bar, WEIGHT_CLAMP)
    Z = float(np.log(N) * C) if exponent is None else float(exponent)
    # sharpen in log space; subtracting the max keeps the exponentials finite
    logw = Z * np.log(beta_bar)
    w = np.exp(logw - logw.max(axis=0, keepdims=True))
    return w / w.sum(axis=0, keepdims=True)


def fuse(means, variances, weights):
    """Covariance-intersection fusion of weighted local Gaussians along axis 0.

    With normalized weights:  1/v = sum_j beta_j / v_j  and
    m = v * sum_j beta_j m_j / v_j.  Returns ``(m, v)``.
    """
    inv_v = np.sum(weights / variances, axis=0)
    var = 1.0 / inv_v
    mean = var * np.sum(weights * means / variances, axis=0)
    return mean, var


SERVING_ARRAYS = ("basis", "coef", "eigvals")


@dataclass(frozen=True)
class ServingState:
    """What prediction reads of a model, per predictive expert ``j >= C - 1``.

    With ``K(A_psi, A_psi) = L L'`` and the whitened posterior
    ``S = L^-1 Sigma_psi L^-T`` over the expert's correlation region,
    ``I - S = U diag(eigvals) U'``.  Row ``j - first`` of the stacks holds
    ``basis = L^-T U``, ``coef = U' L^-1 mu_psi`` and ``eigvals``: whitened
    coordinates turned by the orthogonal ``U`` (see :func:`_local_moments`).
    A fitted model builds them once (:meth:`build`); a loaded model reads
    the stacks :meth:`arrays` wrote.

    ``S`` is a covariance, so every eigenvalue of ``I - S`` is at most 1.
    One above ``1 + P u max(1, max|eigvals|)`` (``u`` the unit roundoff),
    beyond the eigensolver's rounding, is refused with a ``ValueError``
    naming the expert.
    """

    first: int
    basis: np.ndarray
    coef: np.ndarray
    eigvals: np.ndarray

    def __post_init__(self):
        lam = self.eigvals
        tol = lam.shape[1] * np.finfo(float).eps * np.maximum(1.0, np.abs(lam).max(axis=1))
        excess = lam.max(axis=1) - 1.0
        bad = np.flatnonzero(excess > tol)
        if bad.size:
            k = bad[0]
            raise ValueError(f"serving state of expert {self.first + k} has an eigenvalue of "
                             f"I - S at 1 + {excess[k]:.3g}, beyond the rounding tolerance "
                             f"{tol[k]:.3g}: its posterior covariance is not positive "
                             "semi-definite")

    @property
    def experts(self) -> range:
        return range(self.first, self.first + len(self.eigvals))

    @classmethod
    def build(cls, experts: range, region: Callable) -> "ServingState":
        """Diagonalize each expert's whitened posterior.

        ``region(j)`` returns expert ``j``'s inverse factor ``L^-1``,
        ``mu_psi`` and ``Sigma_psi``; the stacks are filled one expert at a
        time, so no stack of every ``S`` is held.
        """
        for k, j in enumerate(experts):
            inv, mu, sigma = region(j)
            if k == 0:
                n, P = len(experts), inv.shape[0]
                eye = np.eye(P)
                basis, coef, eigvals = np.empty((n, P, P)), np.empty((n, P)), np.empty((n, P))
            S = inv @ sigma @ inv.T
            eigvals[k], U = np.linalg.eigh(eye - 0.5 * (S + S.T))
            basis[k] = inv.T @ U
            coef[k] = (inv @ mu) @ U
        return cls(experts.start, basis, coef, eigvals)

    def arrays(self) -> dict[str, np.ndarray]:
        """The stacks by their names in a saved file."""
        return dict(zip(SERVING_ARRAYS, (self.basis, self.coef, self.eigvals)))


def _local_moments(K_psix: np.ndarray, kxx: np.ndarray, basis: np.ndarray,
                   coef: np.ndarray, eigvals: np.ndarray, Z: np.ndarray | None = None):
    """Mean/variance of experts' predictions at each column of ``K_psix``.

    Every argument may carry a leading axis of experts (``K_psix`` is then
    ``(G, P, n)`` and the results ``(G, n)``); each expert's slice is one
    GEMM, ``Z = K_xpsi L^-T U`` (BLAS reads the transposed ``K_psix``
    without a copy), then ``m = Z c`` and ``v = k(x, x) - (Z o Z) eigvals``,
    the whitened quadratic form ``k - W (I - S) W'`` with ``W = Z U'``.
    ``K^-1 - K^-1 Sigma K^-1`` is never formed: it loses the variance to
    cancellation where the kernel matrix is ill-conditioned.  ``Z`` is
    written into the given array, if any.
    """
    Z = np.matmul(np.swapaxes(K_psix, -1, -2), basis, out=Z)
    m = (Z @ coef[..., None])[..., 0]
    Z *= Z
    return m, kxx - (Z @ eigvals[..., None])[..., 0]


def _local_arrays(model, Xs: np.ndarray):
    """``(k(x, x), means, variances)``: each predictive expert's local prediction
    at each query row, one row per expert, variances floored at ``1e-12 k(x, x)``."""
    if Xs.shape[1] != model.graph.D:
        raise ValueError(f"query has {Xs.shape[1]} columns, training data has {model.graph.D}")
    if not np.all(np.isfinite(Xs)):
        raise ValueError("query holds NaN or inf values")
    graph, serving = model.graph, model.serving
    experts, L = serving.experts, graph.L
    basis, coef, eigvals = serving.basis, serving.coef, serving.eigvals
    # the kernel is evaluated on every block; expert j's rows of it are the
    # blocks of its correlation set
    rows_of = (graph.correlation[experts][:, :, None] * L + np.arange(L)).reshape(len(experts), -1)
    A_all = graph.inducing_inputs.reshape(-1, graph.D)
    n, M = Xs.shape[0], A_all.shape[0]
    v0 = model.kernel.diag(Xs)
    means = np.empty((len(experts), n))
    variances = np.empty_like(means)
    step = max(MIN_CHUNK_ROWS, CHUNK_ENTRIES // M)
    groups = [slice(g, g + EXPERT_GROUP) for g in range(0, len(experts), EXPERT_GROUP)]
    # one kernel block, one group's gathered rows and one group's Z serve every
    # chunk: allocating them per chunk churns the heap
    rows, P = min(step, n), rows_of.shape[1]
    block = np.empty(M * rows)
    gathered = np.empty(min(EXPERT_GROUP, len(experts)) * P * rows)
    Z = np.empty_like(gathered)
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        X = Xs[chunk]
        r = X.shape[0]
        K = model.kernel(A_all, X, out=block[:M * r].reshape(M, r))
        for g in groups:
            idx = rows_of[g]
            # mode="clip" (the indices are in range) writes straight into the view
            K_g = np.take(K, idx, axis=0, out=gathered[:idx.size * r].reshape(idx.shape + (r,)),
                          mode="clip")
            means[g, chunk], variances[g, chunk] = _local_moments(
                K_g, v0[chunk], basis[g], coef[g], eigvals[g],
                Z=Z[:idx.size * r].reshape(len(idx), r, P))
    return v0, means, np.maximum(variances, 1e-12 * v0)  # numerical floor, keeps v > 0


def predict_arrays(model, Xs, add_noise: bool = False,
                   weight_exponent: float | None = None,
                   return_locals: bool = False):
    """Fused predictive mean and variance at each query row.

    Batching is a pure vectorization of the pointwise computation; results
    agree with per-point calls to within floating-point roundoff.  With
    ``return_locals`` a third item holds the predictive experts and their
    local means, variances and fusion weights, one row per expert.
    """
    Xs = np.asarray(Xs, dtype=float)
    if Xs.ndim == 1:
        Xs = Xs[:, None]
    v0, means, variances = _local_arrays(model, Xs)
    weights = aggregation_weights(v0[None, :], variances, N=model.graph.N, C=model.graph.C,
                                  exponent=weight_exponent)
    mean, var = fuse(means, variances, weights)
    if add_noise:
        var = var + model.noise.variance
    if return_locals:
        return mean, var, (np.array(model.serving.experts), means, variances, weights)
    return mean, var
