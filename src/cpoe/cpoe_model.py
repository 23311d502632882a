"""Correlated product-of-experts model: factors, precision, likelihood, gradients.

Per expert j the conditional factors are

    F_j = K(A_j, A_pred)  K(A_pred, A_pred)^{-1}          (prior transition)
    Q_j = K(A_j, A_j) - K(A_j, A_pred) K(...)^{-1} K(A_pred, A_j)
    H_j = K(X_j, A_corr) K(A_corr, A_corr)^{-1}           (projection)
    D_j = K(X_j, X_j) - K(X_j, A_corr) K(...)^{-1} K(A_corr, X_j)

with ``A_pred`` / ``A_corr`` the stacked inducing inputs over the expert's
predecessor / correlation sets, ``F_1 = 0`` and ``Q_1 = K(A_1, A_1)``.  Both
pairs are one Gaussian conditioning, ``A_j`` on ``A_pred`` and ``X_j`` on
``A_corr``, and one routine (``_condition``) computes both from given kernel
blocks.  The predecessor-plus-self set is the leading prefix of the
correlation set (the expert itself last), so the transition's kernel blocks
and their derivatives are leading slices of ``K(A_corr, A_corr)`` and its
derivative stack, each evaluated once per expert.  The residual covariance
and the objective correction depend on the likelihood variant (FITC keeps
the diagonal of D_j, PITC the full block, VFE/DTC drop it, PEP scales it by
alpha).

The prior precision is assembled as a sum of local contributions
``Ft_j^T Q_j^{-1} Ft_j`` with ``Ft_j = [-F_j, I]`` scattered over the
predecessor-plus-self block index sets.  Adding the projection precision
``H^T V^{-1} H`` (same scatter over correlation sets) gives the posterior
precision, which keeps the prior's block pattern and is factorized once per
hyperparameter setting; the symbolic analysis, with its flat block layout
and each expert's slots in it, belongs to the graph and is built once per
graph (:attr:`ExpertGraph.symbolic`).  The posterior keeps
only the partial inverse of the precision, not the precision or its factor.  The
gradient contracts the projection's derivative ``dH`` without forming it:
``sum(dH o G) = sum((dK_xa - H dK_aa) o G K(A_corr, A_corr)^-1)``.

Every per-expert Cholesky factor ``L`` is inverted once, with LAPACK
``trtri``, as soon as it is built, and only ``L^-1`` is kept: each solve
against ``K = L L'`` is then two GEMMs, ``X K^-1 = (X L^-T) L^-1``, which on
the experts' small blocks run several times faster than triangular
substitution.  The whitened transition ``L_Q^-1 Ft`` gives the local prior
precision as its Gram matrix.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtri

from .block_sparse import (
    BlockSparseMatrix,
    FactorizationError,
    PartialInverse,
    block_cholesky,
    partial_inverse,
)
from .expert_graph import ExpertGraph
from .kernels import (
    Kernel,
    NoiseSpec,
    full_params,
    jittered_cholesky,
    split_params,
)
from .prediction import SERVING_ARRAYS, ServingState

__all__ = [
    "VariantSpec",
    "LocalFactors",
    "CpoePosterior",
    "CpoeModel",
    "build_local_factors",
    "assemble_prior_precision",
    "assemble_posterior",
    "lml_gradient",
    "stochastic_lml_term",
    "prior_kl_difference",
]

_log = logging.getLogger(__name__)
_VARIANTS = ("fitc", "dtc", "pitc", "vfe", "pep", "pep_b")
FORMAT_VERSION = 3  # of the file CpoeModel.save writes


@dataclass(frozen=True)
class VariantSpec:
    """Likelihood variant: residual covariance shape and objective correction."""

    name: str = "fitc"
    alpha_pep: float = 1.0

    def __post_init__(self):
        if self.name not in _VARIANTS:
            raise ValueError(f"unknown variant {self.name!r}, expected one of {_VARIANTS}")
        if self.name in ("pep", "pep_b") and not 0.0 < self.alpha_pep <= 1.0:
            raise ValueError(f"alpha_pep must be in (0, 1], got {self.alpha_pep}")

    @property
    def full_residual(self) -> bool:
        """Whether the residual covariance is a full block rather than diagonal."""
        return self.name in ("pitc", "pep_b")

    @property
    def residual_scale(self) -> float:
        """Factor s in the residual covariance ``s * D_j`` the variant keeps."""
        if self.name in ("dtc", "vfe"):
            return 0.0
        return self.alpha_pep if self.name in ("pep", "pep_b") else 1.0


@dataclass
class ExpertFactor:
    """The numbers one expert's kernel matrices give, for assembly, gradients
    and prediction; the index sets and inputs they belong to are the graph's.

    Each Cholesky factor is kept as its inverse: ``inv_psi``, ``inv_pipi`` and
    ``inv_Q`` are ``L^-1`` for ``K(A_psi, A_psi)``, ``K(A_pred, A_pred)`` and
    ``Q`` (jitter included), lower triangular; ``Q`` itself is not kept.
    ``D`` and ``vbar`` are the residual's diagonal for diagonal variants and
    its full block for full-residual ones (``ndim`` tells which).
    """

    # projection side
    inv_psi: np.ndarray
    H: np.ndarray
    D: np.ndarray                       # residual covariance D_j
    vbar: np.ndarray                    # residual the variant keeps, shaped like D
    lam: float
    dlam: np.ndarray | float            # d lam / d D_j, shaped like the residual
    # prior side
    inv_pipi: np.ndarray | None
    F: np.ndarray | None
    inv_Q: np.ndarray
    logdet_Q: float

    def whitened_transition(self) -> np.ndarray:
        """``L_Q^-1 [-F_j, I]``, columns ordered like the sorted
        predecessor-plus-self set; its Gram matrix is the local prior precision."""
        if self.F is None:
            return self.inv_Q
        return np.hstack([-(self.inv_Q @ self.F), self.inv_Q])


@dataclass
class LocalFactors:
    graph: ExpertGraph
    kernel: Kernel
    noise: NoiseSpec
    variant: VariantSpec
    experts: list[ExpertFactor]


def _variant_terms(variant: VariantSpec, D: np.ndarray, noise_var: float):
    """``(vbar, lam, dlam)`` for one expert: the residual covariance the variant
    keeps, its objective correction and ``d lam / d D``.

    ``D`` is the residual's diagonal for diagonal variants and its full block
    for full-residual ones; ``vbar`` and ``dlam`` have its shape (or are scalars).
    """
    s = variant.residual_scale
    vbar = D if s == 1.0 else s * D         # FITC and PITC share D's storage
    a = variant.alpha_pep
    c = (1.0 - a) / (2.0 * a)
    if variant.name in ("fitc", "dtc", "pitc"):
        return vbar, 0.0, 0.0
    if variant.name == "vfe":
        return vbar, float(np.sum(D)) / (2.0 * noise_var), 1.0 / (2.0 * noise_var)
    if variant.name == "pep":
        lam = c * float(np.sum(np.log1p(a * D / noise_var)))
        return vbar, lam, c * a / (noise_var + a * D)
    # pep_b: lam = c log|M|, M = I + (a / noise_var) D
    M = np.eye(D.shape[0]) + (a / noise_var) * D
    lam = c * float(np.linalg.slogdet(M)[1])
    return vbar, lam, (c * a / noise_var) * np.linalg.inv(M)


def _inverse_factor(chol: np.ndarray, what: str) -> np.ndarray:
    """``L^-1`` of a lower Cholesky factor ``L``, from one LAPACK ``trtri``.

    ``trtri`` leaves the strict upper triangle as it found it, so ``chol``
    must be zero there, as ``np.linalg.cholesky`` output is; the inverse is
    then lower triangular too.  It is returned in C order: BLAS rounds some
    products differently for the Fortran-ordered array ``trtri`` returns.
    Raises ``LinAlgError`` naming ``what`` when ``L`` is singular.
    """
    inv, info = dtrtri(chol, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is singular (trtri info {info})")
    return np.ascontiguousarray(inv)


def _condition(K_aa: np.ndarray, K_xa: np.ndarray, K_xx: np.ndarray, what: str):
    """Gaussian conditioning of the values at inputs x on those at inputs a.

    From the kernel blocks ``K_aa``, ``K_xa`` and ``K_xx`` (or its diagonal),
    returns ``(inv_a, H, D)``: ``inv_a`` the inverse of ``K_aa``'s factor,
    ``H = K_xa K_aa^-1`` and ``D = K_xx - H K_ax``, its full block when
    ``K_xx`` is one, else its diagonal.  ``what`` names ``K_aa``'s factor in
    the error a singular one raises.
    """
    inv_a = _inverse_factor(jittered_cholesky(K_aa)[0], what)
    H = (K_xa @ inv_a.T) @ inv_a
    if K_xx.ndim == 1:
        return inv_a, H, K_xx - np.einsum("ij,ij->i", K_xa, H)
    # not the Gram form K_xx - B B' (B = K_xa L_a^-T): on acceptance criterion
    # 6's inputs the transition's Q then factors unjittered at condition numbers
    # near 1e15, where this one needs jitter, and the LML moves by 60 nats
    D = K_xx - K_xa @ H.T
    return inv_a, H, 0.5 * (D + D.T)


def _build_expert(j: int, graph: ExpertGraph, kernel: Kernel, noise: NoiseSpec,
                  variant: VariantSpec) -> ExpertFactor:
    # projection: X_j conditioned on the correlation set's inducing inputs
    A_psi, X_j = graph.correlation_inputs(j), graph.X[graph.row_indices[j]]
    K_psi = kernel(A_psi)
    K_xx = kernel(X_j) if variant.full_residual else kernel.diag(X_j)
    inv_psi, H, D = _condition(K_psi, kernel(X_j, A_psi), K_xx,
                               f"factor of K(A, A) of expert {j}")
    vbar, lam, dlam = _variant_terms(variant, D, noise.variance)

    # prior transition: A_j conditioned on the predecessors' inducing inputs;
    # the predecessor-plus-self set is the leading prefix of psi (the expert
    # itself last), so its kernel blocks are slices of K_psi
    p = min(j, graph.C - 1) * graph.L
    q = p + graph.L
    K_aa = K_psi[p:q, p:q]
    if p:
        inv_pipi, F, Q = _condition(K_psi[:p, :p], K_psi[p:q, :p], K_aa,
                                    f"factor of K(A_pred, A_pred) of expert {j}")
    else:
        inv_pipi = F = None
        Q = K_aa
    # jitter scale: the kernel amplitude, not Q's own (possibly tiny) diagonal
    chol_Q = jittered_cholesky(Q, scale=float(np.mean(np.diag(K_aa))))[0]
    inv_Q = _inverse_factor(chol_Q, f"factor of Q of expert {j}")
    logdet_Q = 2.0 * float(np.sum(np.log(np.diag(chol_Q))))

    return ExpertFactor(inv_psi=inv_psi, H=H, D=D, vbar=vbar, lam=lam, dlam=dlam,
                        inv_pipi=inv_pipi, F=F, inv_Q=inv_Q, logdet_Q=logdet_Q)


def build_local_factors(graph: ExpertGraph, kernel: Kernel, noise: NoiseSpec,
                        variant: VariantSpec = VariantSpec()) -> LocalFactors:
    """Build every expert's factors, one expert at a time."""
    experts = [_build_expert(j, graph, kernel, noise, variant) for j in range(graph.J)]
    return LocalFactors(graph=graph, kernel=kernel, noise=noise, variant=variant,
                        experts=experts)


def assemble_prior_precision(factors: LocalFactors) -> BlockSparseMatrix:
    """Prior precision: sum of local ``Ft^T Q^{-1} Ft = W^T W`` over
    predecessor-plus-self sets, with ``W = L_Q^-1 Ft`` the whitened transition.

    Stored on the posterior precision's layout (the graph's symbolic
    analysis), so :func:`assemble_posterior` adds into it in place.  Each
    predecessor-plus-self set is the leading prefix of the expert's
    correlation set, so its slots are the leading entries of that set's.
    """
    graph = factors.graph
    S = BlockSparseMatrix.zeros(graph.symbolic, graph.L)
    for j, (e, where) in enumerate(zip(factors.experts, graph.symbolic.index_sets)):
        W = e.whitened_transition()
        local = W.T @ W
        S.add_local(where, 0.5 * (local + local.T), min(j, graph.C - 1) + 1)
    return S


@dataclass
class CpoePosterior:
    """Assembled posterior: mean, partial inverse of the precision, and the
    cached scalars entering the marginal likelihood.

    Neither the precision nor its block factor is kept; the partial inverse
    is the only covariance object.  ``pivot_bump`` is the diagonal shift the
    precision needed to factorize (0.0 when it factorized as assembled).
    """

    factors: LocalFactors
    b: np.ndarray
    mu: np.ndarray
    zbar: PartialInverse
    logdet_precision: float
    logdet_V: float
    yT_Vinv_y: float
    pivot_bump: float = 0.0
    # per-expert caches for gradients / prediction: V_j^-1 y_j, and V_j^-1 for
    # full-residual variants (None for diagonal ones)
    vinv_y: list[np.ndarray] = field(repr=False, default=None)
    vinv: list[np.ndarray | None] = field(repr=False, default=None)

    @property
    def graph(self) -> ExpertGraph:
        return self.factors.graph

    def mu_at(self, idx: np.ndarray) -> np.ndarray:
        """The posterior mean over the blocks ``idx``, concatenated."""
        return self.mu.reshape(-1, self.graph.L)[idx].ravel()

    def sigma_psi(self, j: int) -> np.ndarray:
        """Posterior covariance over expert j's correlation set, from the
        partial inverse."""
        return self.zbar.gather(self.zbar.symbolic.index_sets[j])

    @property
    def log_marginal_likelihood(self) -> float:
        """Sparse-form log marginal likelihood, less the variant's correction.

        Raises ``ArithmeticError`` when the value before the correction is not
        finite or exceeds the bound the noise sets.
        """
        N = self.graph.N
        logdet_Q = float(sum(e.logdet_Q for e in self.factors.experts))
        val = -0.5 * (self.yT_Vinv_y - float(self.b @ self.mu) + self.logdet_precision
                      + self.logdet_V + logdet_Q + N * np.log(2.0 * np.pi))
        if not np.isfinite(val):
            raise ArithmeticError("non-finite log marginal likelihood")
        # the marginal covariance dominates the noise, bounding any valid value;
        # exceeding it means the sparse log-determinant cancellation collapsed
        bound = -0.5 * N * np.log(2.0 * np.pi * self.factors.noise.variance)
        if val > bound + 1e-6 * max(abs(bound), 1.0) + 1e-9:
            raise ArithmeticError(
                "inconsistent log marginal likelihood (ill-conditioned region)")
        return float(val) - float(sum(e.lam for e in self.factors.experts))


def assemble_posterior(factors: LocalFactors, S: BlockSparseMatrix,
                       y: np.ndarray) -> CpoePosterior:
    """Add the projection precision to the prior, factorize, solve, invert.

    ``S`` is the prior precision from :func:`assemble_prior_precision`; the
    projection precision ``H^T V^-1 H`` is added into it in place, in expert
    order, and the resulting posterior precision is dropped once it is
    factorized.  The symbolic analysis is ``S``'s, the graph's.
    """
    graph = factors.graph
    noise = factors.noise
    L = graph.L
    y = np.asarray(y, dtype=float).ravel()
    if y.size != graph.N:
        raise ValueError(f"y has {y.size} entries, expected {graph.N}")

    sym = S.symbolic
    b = np.zeros(graph.M)
    yT_Vinv_y = 0.0
    logdet_V = 0.0
    vinv_y_list: list[np.ndarray] = []
    vinv_list: list[np.ndarray | None] = []
    for j, (e, where) in enumerate(zip(factors.experts, sym.index_sets)):
        y_j = y[graph.row_indices[j]]
        if e.vbar.ndim == 1:
            v = e.vbar + noise.variance
            vinv_y = y_j / v
            vinv_H = e.H / v[:, None]
            vinv = None
            logdet_V += float(np.sum(np.log(v)))
        else:
            V = e.vbar + noise.variance * np.eye(y_j.size)
            cv = np.linalg.cholesky(V)
            inv_cv = _inverse_factor(cv, f"factor of V of expert {j}")
            vinv = inv_cv.T @ inv_cv
            vinv_y = vinv @ y_j
            vinv_H = vinv @ e.H
            logdet_V += 2.0 * float(np.sum(np.log(np.diag(cv))))
        yT_Vinv_y += float(y_j @ vinv_y)
        local_T = e.H.T @ vinv_H
        S.add_local(where, 0.5 * (local_T + local_T.T))
        b.reshape(-1, L)[graph.correlation[j]] += (e.H.T @ vinv_y).reshape(-1, L)
        vinv_y_list.append(vinv_y)
        vinv_list.append(vinv)

    # jitter on factorization failure is the caller's job: the assembled
    # precision is PSD in exact arithmetic but accumulated rounding from
    # near-singular transition noise can make a pivot fail far from good
    # hyperparameter regions
    pivot_bump = 0.0
    try:
        chol = block_cholesky(S)
    except FactorizationError:
        diag = sym.diag
        scale = float(np.mean([np.mean(np.diag(S.blocks[diag[p]]))
                               for p in sym.inv_perm]))  # original block order
        chol = None
        applied = 0.0
        for delta in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            S.blocks[diag] += (delta - applied) * scale * np.eye(L)
            applied = delta
            try:
                chol = block_cholesky(S)
                break
            except FactorizationError:
                continue
        if chol is None:
            raise
        pivot_bump = applied * scale
        _log.warning("posterior precision factorized after a diagonal bump of %.3g "
                     "(%g of its mean diagonal)", pivot_bump, applied)
    del S
    mu = chol.solve(b)
    logdet_precision = chol.logdet()
    zbar = partial_inverse(chol)
    return CpoePosterior(factors=factors, b=b, mu=mu, zbar=zbar,
                         logdet_precision=logdet_precision, logdet_V=logdet_V,
                         yT_Vinv_y=yT_Vinv_y, pivot_bump=pivot_bump,
                         vinv_y=vinv_y_list, vinv=vinv_list)


def _contract_grad(kernel: Kernel, X: np.ndarray, A: np.ndarray, H: np.ndarray,
                   inv_A: np.ndarray, dK_aa: np.ndarray, U: np.ndarray,
                   R: np.ndarray | None = None, G: np.ndarray | None = None) -> np.ndarray:
    """``sum(dD o U) + sum(dN o R) + sum(dH o G)`` for every kernel parameter.

    ``H = K(X, A) K(A, A)^-1`` projects X on A, ``N = H K(A, X)`` is the
    Nystrom part of ``K(X, X)`` and ``D = K(X, X) - N`` the residual; ``inv_A``
    is the inverse of ``K(A, A)``'s factor and ``dK_aa`` its derivative stack.
    ``U`` is a symmetric matrix or the diagonal of a diagonal one, ``R`` a
    symmetric matrix, ``G`` has H's shape.
    As ``dN = dK_xa H' + H dK_xa' - H dK_aa H'``,
    ``sum(dN o W) = 2 sum(dK_xa o W H) - sum(dK_aa o H' W H)`` for symmetric W,
    so no derivative of N or D is formed.  Its terms cancel only after the
    contraction, so ``U`` and ``R`` must stay moderate in size.  As
    ``dH = (dK_xa - H dK_aa) K(A, A)^-1``, ``sum(dH o G)`` is that difference
    contracted with ``G K(A, A)^-1 = (G L^-T) L^-1``.
    """
    if U.ndim == 1:
        g = kernel.grad_diag_stack(X) @ U
        WH = -U[:, None] * H
    else:
        g = np.tensordot(kernel.grad_stack(X), U, 2)
        WH = -U @ H
    if R is not None:
        WH += R @ H
    dK_xa = kernel.grad_stack(X, A)
    if G is not None:
        G_Kinv = (G @ inv_A.T) @ inv_A
        g += np.tensordot(dK_xa - H @ dK_aa, G_Kinv, 2)
    return g + 2.0 * np.tensordot(dK_xa, WH, 2) - np.tensordot(dK_aa, H.T @ WH, 2)


def lml_gradient(posterior: CpoePosterior) -> np.ndarray:
    """Analytic gradient of the (variant-corrected) objective over all parameters.

    Vector layout: kernel parameters in spec order, then the log noise
    variance.  The trace against the posterior covariance only touches blocks
    inside the precision pattern, which is exactly what the partial inverse
    provides.  One pass over the experts serves all six variants.  Per expert
    one derivative stack of ``K(A_psi)`` serves both sides: the predecessor-
    plus-self set is the leading prefix of the correlation set, so the
    transition's blocks are its leading slices.  The transition side forms dF
    and dQ, with ``Q^-1 Ft = L_Q^-T W`` from the whitened transition W; the
    projection side collects the objective's derivative in the
    residual covariance into one coefficient T (a vector for diagonal
    residuals, a matrix for full ones) and contracts it with the kernel
    derivatives in ``_contract_grad``, which :func:`stochastic_lml_term` shares.
    """
    factors, graph = posterior.factors, posterior.graph
    kernel, sigma2 = factors.kernel, factors.noise.variance
    scale = factors.variant.residual_scale
    L = graph.L
    grad = np.zeros(kernel.n_params + 1)

    for j, e in enumerate(factors.experts):
        p = min(j, graph.C - 1) * L
        q = p + L
        A_psi = graph.correlation_inputs(j)
        mu_psi = posterior.mu_at(graph.correlation[j])
        W_T = posterior.sigma_psi(j) + np.outer(mu_psi, mu_psi)
        W_S = W_T[:q, :q]
        dK_psi = kernel.grad_stack(A_psi)

        # prior side, S = Ft' Q^-1 Ft: -1/2 sum(W_S o dS) - 1/2 dlog|Q|.  Q^-1 is
        # huge where Q is nearly singular (jittered), so dQ is formed first;
        # contracting its terms separately cancels huge numbers (a 30% error in
        # d/d log lengthscale at acceptance criterion 6's starting point)
        QinvFt = e.inv_Q.T @ e.whitened_transition()
        Qinv = QinvFt[:, p:]                        # Ft's last L columns are I
        G_S = QinvFt @ W_S
        dQ = dK_psi[:, p:q, p:q]
        if e.F is not None:
            dKapi, dKpipi = dK_psi[:, p:q, :p], dK_psi[:, :p, :p]
            # dF = (dK_api - F dK_pipi) K_pipi^-1
            F_dKpipi = e.F @ dKpipi
            rhs = (dKapi - F_dKpipi).reshape(-1, p)
            dF = ((rhs @ e.inv_pipi.T) @ e.inv_pipi).reshape(-1, L, p)
            dKF = dKapi @ e.F.T
            dQ = dQ - dKF - dKF.transpose(0, 2, 1) + F_dKpipi @ e.F.T
            grad[:-1] += np.tensordot(dF, G_S[:, :p], 2)
        grad[:-1] += 0.5 * np.tensordot(dQ, G_S @ QinvFt.T - Qinv, 2)

        # projection side: data fit, log|V|, -1/2 sum(W_T o dT) and db' mu; T is
        # their derivative in V = scale * D + sigma2 I
        a_j = posterior.vinv_y[j]
        diagonal = e.D.ndim == 1
        if diagonal:
            v = e.vbar + sigma2
            VinvH = e.H / v[:, None]
        else:
            VinvH = posterior.vinv[j] @ e.H
        G_T = VinvH @ W_T
        u = VinvH @ mu_psi
        if diagonal:
            T = (0.5 * a_j * a_j - 0.5 / v
                 + 0.5 * np.einsum("bl,bl->b", G_T, VinvH) - u * a_j)
            trace_T = float(np.sum(T))
        else:
            T = 0.5 * (np.outer(a_j, a_j) - posterior.vinv[j] + G_T @ VinvH.T
                       - np.outer(u, a_j) - np.outer(a_j, u))
            trace_T = float(np.trace(T))
        grad[:-1] += _contract_grad(kernel, graph.X[graph.row_indices[j]], A_psi, e.H,
                                    e.inv_psi, dK_psi, scale * T - e.dlam,
                                    G=np.outer(a_j, mu_psi) - G_T)
        # noise slot: dV = sigma2 I, and d lam / d log sigma2 = -sum(dlam o D)
        grad[-1] += sigma2 * trace_T + float(np.sum(e.dlam * e.D))
    return grad


def stochastic_lml_term(graph: ExpertGraph, kernel: Kernel, noise: NoiseSpec, j: int,
                        y_j: np.ndarray, variant: VariantSpec = VariantSpec(),
                        with_grad: bool = True):
    """One term of the independently factorized marginal likelihood.

    Expert j's marginal uses only its own data and inducing points: the
    projection conditions on ``A_j`` alone, so the term is computable without
    any other expert.  Summing the terms and subtracting ``N/2 log(2 pi)``
    gives the factorized objective used for stochastic optimization; exact
    inference is still done with the full posterior afterwards.

    A variant that keeps the whole residual at scale 1 (``pitc``, and
    ``pep_b`` at ``alpha_pep = 1``) has the marginal covariance
    ``Q_j + (K(X_j) - Q_j) + sigma2 I = K(X_j) + sigma2 I``: its term is the
    expert's exact local GP marginal, independent of gamma and the inducing
    inputs, and is computed so, without ``K(A_j)``.  A PITC model's
    stochastic phase thus steers by the independent-experts likelihood; the
    exact refit afterwards restores the correlation.
    """
    rows = graph.row_indices[j]
    X_j = graph.X[rows]
    y_j = np.asarray(y_j, dtype=float).ravel()
    if y_j.size != rows.size:
        raise ValueError(f"expert {j} holds {rows.size} rows, y_j has {y_j.size}")
    sigma2 = noise.variance
    local = variant.full_residual and variant.residual_scale == 1.0

    if local:
        P = kernel(X_j)
        lam = 0.0
    else:
        A = graph.inducing_inputs[j]
        K_xa = kernel(X_j, A)
        K_xx = kernel(X_j) if variant.full_residual else kernel.diag(X_j)
        inv_aa, H, D = _condition(kernel(A), K_xa, K_xx, f"factor of K(A, A) of expert {j}")
        vbar, lam, dlam = _variant_terms(variant, D, sigma2)
        P = K_xa @ H.T + (np.diag(vbar) if D.ndim == 1 else vbar)
    P = 0.5 * (P + P.T) + sigma2 * np.eye(y_j.size)
    cp = np.linalg.cholesky(P)
    inv_cp = _inverse_factor(cp, f"factor of the marginal covariance of expert {j}")
    Pinv = inv_cp.T @ inv_cp
    alpha = Pinv @ y_j
    logdet_P = 2.0 * float(np.sum(np.log(np.diag(cp))))
    value = -0.5 * (float(y_j @ alpha) + logdet_P) - lam
    if not np.isfinite(value):
        raise ArithmeticError(f"non-finite stochastic term for expert {j}")
    if not with_grad:
        return value, None

    # d value / d P = T, with P = N + scale * D + sigma2 I
    T = 0.5 * (np.outer(alpha, alpha) - Pinv)
    grad = np.empty(kernel.n_params + 1)
    grad[-1] = sigma2 * float(np.trace(T))
    if local:  # dP = dK(X_j): the projection's terms cancel exactly
        grad[:-1] = np.tensordot(kernel.grad_stack(X_j), T, 2)
        return value, grad
    T_D = np.diag(T) if D.ndim == 1 else T
    grad[:-1] = _contract_grad(kernel, X_j, A, H, inv_aa, kernel.grad_stack(A),
                               variant.residual_scale * T_D - dlam, R=T)
    grad[-1] += float(np.sum(dlam * D))
    return value, grad


def _check_shared_graph(m1: "CpoeModel", m2: "CpoeModel") -> None:
    g1, g2 = m1.graph, m2.graph
    if g1.J != g2.J or g1.gamma != g2.gamma or g1.L != g2.L:
        raise ValueError("models must share partition, gamma and inducing counts")
    if not np.array_equal(g1.inducing_inputs, g2.inducing_inputs):
        raise ValueError("models must share inducing inputs")
    if not np.allclose(full_params(m1.kernel, m1.noise), full_params(m2.kernel, m2.noise)):
        raise ValueError("models must share hyperparameters")
    for j in range(g1.J):
        pred1, pred2 = (g.correlation[j, :min(j, g.C - 1)] for g in (g1, g2))
        if not set(pred1).issubset(set(pred2)):
            raise ValueError(f"predecessor sets are not nested at expert {j}")


def prior_kl_difference(model_C: "CpoeModel", model_C2: "CpoeModel"):
    """Stepwise prior-quality gain when raising the correlation degree.

    Returns ``(D_prior, D_projection)``; both are non-negative (up to numerical
    zero) for nested predecessor structures.  The prior component is half the
    difference of the transition-noise log determinants; the projection
    component depends on the residual shape: log-determinant ratio for the
    FITC/PEP/PITC families and a trace difference for the deterministic
    projections (VFE/DTC).
    """
    if model_C.graph.C > model_C2.graph.C:
        raise ValueError("expected C <= C2")
    _check_shared_graph(model_C, model_C2)
    f1, f2 = model_C.factors, model_C2.factors
    d_prior = 0.5 * (sum(e.logdet_Q for e in f1.experts)
                     - sum(e.logdet_Q for e in f2.experts))

    variant = f1.variant
    sigma2 = f1.noise.variance
    if variant.name in ("vfe", "dtc"):
        tr1 = sum(float(np.sum(e.D)) for e in f1.experts)
        tr2 = sum(float(np.sum(e.D)) for e in f2.experts)
        d_proj = (tr1 - tr2) / (2.0 * sigma2)
    elif variant.full_residual:
        floor = 1e-12 * float(np.mean(f1.kernel.diag(model_C.graph.X)))
        d_proj = 0.0
        for e1, e2 in zip(f1.experts, f2.experts):
            eye = np.eye(e1.vbar.shape[0])
            d_proj += 0.5 * (np.linalg.slogdet(e1.vbar + floor * eye)[1]
                             - np.linalg.slogdet(e2.vbar + floor * eye)[1])
    else:
        # diagonal residual; entries below the floor are deterministic in both
        # models (e.g. gamma = 1) and contribute nothing
        floor = 1e-12 * float(np.mean(f1.kernel.diag(model_C.graph.X)))
        d_proj = 0.0
        for e1, e2 in zip(f1.experts, f2.experts):
            v1 = np.maximum(e1.vbar, floor)
            v2 = np.maximum(e2.vbar, floor)
            d_proj += 0.5 * float(np.sum(np.log(v1) - np.log(v2)))
    return float(d_prior), float(d_proj)


def _fingerprint(X: np.ndarray, y: np.ndarray) -> str:
    """SHA-256 of the training inputs and targets: shapes and float64 bytes."""
    h = hashlib.sha256(repr((X.shape, y.shape)).encode())
    h.update(np.asarray(X, dtype=float).tobytes())
    h.update(np.asarray(y, dtype=float).tobytes())
    return h.hexdigest()


class CpoeModel:
    """User-facing wrapper tying graph, factors and posterior together.

    A fitted model is immutable for prediction purposes; refitting with new
    hyperparameters reuses the graph and its symbolic analysis.  A loaded
    model serves predictions from the saved per-expert state and builds its
    factors and posterior on first use.
    """

    def __init__(self, kernel: Kernel, noise: NoiseSpec, J: int, C: int,
                 gamma: float = 1.0, variant: VariantSpec = VariantSpec(),
                 seed: int = 0):
        self.kernel = kernel
        self.noise = noise
        self.variant = variant
        # what fit builds a graph with when given none; the graph owns its layout
        self._layout = (J, C, gamma, seed)
        self.graph: ExpertGraph | None = None
        self._posterior: CpoePosterior | None = None
        self._serving: ServingState | None = None
        self.y: np.ndarray | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, graph: ExpertGraph | None = None) -> "CpoeModel":
        """Fit on ``(X, y)``; a given ``graph`` must have been built on this ``X``."""
        for name, values in (("X", X), ("y", y)):
            if not np.all(np.isfinite(np.asarray(values, dtype=float))):
                raise ValueError(f"{name} holds NaN or inf values")
        if graph is None:
            graph = ExpertGraph.build(X, *self._layout)
        else:
            X = np.asarray(X, dtype=float)
            if X.ndim == 1:
                X = X[:, None]
            if X.shape != graph.X.shape:
                raise ValueError(f"X has shape {X.shape}, the graph was built on inputs "
                                 f"of shape {graph.X.shape}")
            if not np.array_equal(X, graph.X):
                raise ValueError(f"X differs from the graph's inputs in "
                                 f"{np.count_nonzero(np.any(X != graph.X, axis=1))} "
                                 f"of {X.shape[0]} rows")
        self.graph = graph
        self.y = np.asarray(y, dtype=float).ravel()
        self._refit()
        return self

    def _refit(self) -> None:
        # until the new posterior exists, nothing describes the current parameters
        self._posterior = self._serving = None
        factors = build_local_factors(self.graph, self.kernel, self.noise, self.variant)
        # no name holds the prior precision: the posterior's assembly drops it
        # once factorized
        self._posterior = assemble_posterior(factors, assemble_prior_precision(factors),
                                             self.y)

    @property
    def factors(self) -> LocalFactors | None:
        posterior = self.posterior
        return None if posterior is None else posterior.factors

    @property
    def posterior(self) -> CpoePosterior | None:
        if self._posterior is None and self.graph is not None:
            self._refit()
        return self._posterior

    @property
    def serving(self) -> ServingState:
        """The per-expert state prediction reads, built on first use after
        each fit; see :class:`ServingState`."""
        if self._serving is None:
            if self.graph is None:
                raise ValueError("fit the model before predicting")
            factors, posterior = self.factors, self.posterior

            def region(j):
                return (factors.experts[j].inv_psi,
                        posterior.mu_at(self.graph.correlation[j]), posterior.sigma_psi(j))
            self._serving = ServingState.build(range(self.graph.C - 1, self.graph.J), region)
        return self._serving

    def get_params(self) -> np.ndarray:
        return full_params(self.kernel, self.noise)

    def set_params(self, theta: np.ndarray) -> "CpoeModel":
        """Refit at new hyperparameters, reusing graph and symbolic analysis."""
        self.kernel, self.noise = split_params(self.kernel, theta)
        if self.graph is not None:
            self._refit()
        return self

    # -- quantities --------------------------------------------------------------

    def log_marginal_likelihood(self) -> float:
        return self.posterior.log_marginal_likelihood

    def lml_gradient(self) -> np.ndarray:
        return lml_gradient(self.posterior)

    def predict(self, Xs: np.ndarray, add_noise: bool = False,
                weight_exponent: float | None = None):
        """Aggregated predictive means and variances; see the prediction module."""
        from .prediction import predict_arrays

        return predict_arrays(self, Xs, add_noise=add_noise,
                              weight_exponent=weight_exponent)

    # -- persistence -------------------------------------------------------------

    def save(self, path: str) -> None:
        """Dump hyperparameters, the graph's defining indices, a fingerprint of
        the training data and the serving state.

        The serving state is each predictive expert's ``basis``, ``coef`` and
        ``eigvals`` (see :class:`ServingState`), stacked over the experts and
        stored uncompressed.  :meth:`load` predicts from it bit for bit as
        this model does and refuses any other data.  The kernel structure
        itself must be rebuilt by the caller (it is part of the experiment
        configuration).  ``np.savez`` stamps every entry 1980-01-01, not the
        current time, so saving the same model twice writes the same bytes.
        """
        if self.graph is None:
            raise ValueError("fit the model before saving")
        assignment = np.empty(self.graph.N, dtype=int)  # data row -> expert position
        for j, rows in enumerate(self.graph.row_indices):
            assignment[rows] = j
        np.savez(
            path,
            format_version=FORMAT_VERSION,
            theta=self.get_params(),
            J=self.graph.J, C=self.graph.C, gamma=self.graph.gamma, seed=self.graph.seed,
            variant=self.variant.name, alpha_pep=self.variant.alpha_pep,
            ordering=self.graph.ordering,
            assignment=assignment,
            inducing_index=self.graph.inducing_index,
            fingerprint=_fingerprint(self.graph.X, self.y),
            **self.serving.arrays(),
        )

    @classmethod
    def load(cls, path: str, X: np.ndarray, y: np.ndarray, kernel: Kernel) -> "CpoeModel":
        """Restore a saved model on its training data without refitting it.

        Any other data is refused, as is a file of another format version or
        whose serving arrays do not have the shapes its J, C and inducing
        count imply, hold NaN or inf values, or hold an eigenvalue of
        ``I - S`` above 1 (see :class:`ServingState`).  Predictions come from
        the saved serving state; the factors and posterior, which the
        likelihood and its gradient need, are built on first use.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(y, dtype=float).ravel()
        with np.load(path, allow_pickle=False) as blob:
            if "fingerprint" not in blob.files:
                raise ValueError(f"{path} holds no training-data fingerprint; "
                                 "save the model again")
            if str(blob["fingerprint"]) != _fingerprint(X, y):
                raise ValueError(f"X and y are not the training data {path} was saved with")
            if "format_version" not in blob.files:
                raise ValueError(f"{path} holds no format version and no serving state; "
                                 "save the model again")
            version = int(blob["format_version"])
            if version != FORMAT_VERSION:
                raise ValueError(f"{path} has format version {version}, expected "
                                 f"{FORMAT_VERSION}; save the model again")
            theta = blob["theta"]
            J, C = int(blob["J"]), int(blob["C"])
            gamma, seed = float(blob["gamma"]), int(blob["seed"])
            variant = VariantSpec(str(blob["variant"]), float(blob["alpha_pep"]))
            ordering = blob["ordering"]
            assignment = blob["assignment"]
            inducing_index = blob["inducing_index"]
            n, P = J - C + 1, C * inducing_index.shape[1]
            stacks = {}
            for name, shape in zip(SERVING_ARRAYS, [(n, P, P), (n, P), (n, P)]):
                if name not in blob.files:
                    raise ValueError(f"{path} holds no {name}; save the model again")
                a = blob[name]
                if a.shape != shape or a.dtype != np.float64:
                    raise ValueError(f"{path}: {name} is {a.dtype} of shape {a.shape}, "
                                     f"expected float64 of shape {shape} for "
                                     f"J={J}, C={C}, L={inducing_index.shape[1]}")
                if not np.all(np.isfinite(a)):
                    raise ValueError(f"{path}: {name} holds NaN or inf values")
                stacks[name] = a
        try:
            serving = ServingState(C - 1, *stacks.values())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        kernel2, noise = split_params(kernel, theta)
        graph = ExpertGraph.from_layout(X, J, C, gamma, seed, ordering,
                                        [np.flatnonzero(assignment == j) for j in range(J)],
                                        inducing_index)
        model = cls(kernel2, noise, J=J, C=C, gamma=gamma, variant=variant, seed=seed)
        model.graph, model.y = graph, y
        model._serving = serving
        return model
