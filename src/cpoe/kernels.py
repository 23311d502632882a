"""Covariance functions with log-parametrized hyperparameters and analytic derivatives.

Every positive hyperparameter (amplitude, lengthscale, period, spectral weight,
...) is stored as an unconstrained real and mapped through ``exp``.  Gradients
are always taken with respect to the unconstrained values, with the chain rule
through the transform already applied.

Every ``log_*`` dataclass field of a kernel is a parameter, read in declaration
order: a scalar field is one entry of the vector, an array field one per element.
:class:`Kernel` packs and unpacks the vector for all of them, so a new kernel
declares its fields and writes ``create``, ``__call__``, ``diag`` and ``grad_stack``.

A model's full parameter vector is the kernel's unconstrained parameters
followed by one reserved slot for the log observation-noise variance
(:class:`NoiseSpec`).  The noise never enters the kernel, so a kernel's
derivatives cover its own parameters only; each kernel implements them once,
stacked over parameters, in ``grad_stack``.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Kernel",
    "SquaredExponential",
    "Periodic",
    "SpectralMixture",
    "SumKernel",
    "NoiseSpec",
    "jittered_cholesky",
    "JitterError",
]

# Jitter added to the diagonal before any Cholesky of a kernel matrix,
# relative to the mean diagonal (= the amplitude for stationary kernels).
JITTER_START = 1e-8
JITTER_MAX = 1e-4


class JitterError(np.linalg.LinAlgError):
    """Cholesky kept failing after escalating the jitter up to the cap."""


def jittered_cholesky(K: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K + jitter*I`` with escalating jitter.

    The exact matrix is tried first; on failure the jitter starts at
    ``1e-8 * scale`` and multiplies by 10 up to ``1e-4 * scale``, where
    ``scale`` defaults to the mean diagonal (the amplitude, for stationary
    kernel matrices).  Conditional-covariance callers pass the originating
    kernel amplitude instead, since a nearly deterministic conditional has a
    vanishing diagonal of its own.  Returns the factor and the jitter used;
    raises :class:`JitterError` at the cap.  Unconditional jitter would bias
    exact structural identities (e.g. the prior-precision trace) at first
    order, so it is applied only when needed.
    """
    K = np.asarray(K, dtype=float)
    if K.size == 0:
        return np.zeros((0, 0)), 0.0
    try:
        return np.linalg.cholesky(K), 0.0
    except np.linalg.LinAlgError:
        pass
    if scale is None:
        scale = float(np.mean(np.diag(K)))
    if scale <= 0.0:
        scale = 1.0
    jitter = JITTER_START * scale
    eye = np.eye(K.shape[0])
    while True:
        try:
            return np.linalg.cholesky(K + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > JITTER_MAX * scale * (1.0 + 1e-12):
                raise JitterError(
                    f"matrix of size {K.shape[0]} not positive definite even "
                    f"with jitter {JITTER_MAX * scale:g}"
                )


def _select_dims(X: np.ndarray, active_dims) -> np.ndarray:
    if active_dims is None:
        return X
    return X[:, np.asarray(active_dims, dtype=int)]


def _lags(X1, X2, active_dims, name: str) -> np.ndarray:
    """``t - t'`` over the single active dimension of the ``name`` kernel."""
    t1 = _select_dims(X1, active_dims)
    t2 = _select_dims(X2, active_dims)
    if t1.shape[1] != 1:
        raise ValueError(f"{name} kernel needs exactly one active dimension")
    return t1[:, 0][:, None] - t2[:, 0][None, :]


@functools.cache
def _param_fields(cls) -> tuple[str, ...]:
    """A kernel class's parameter fields: its ``log_*`` fields, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.name.startswith("log_"))


@dataclass(frozen=True)
class Kernel:
    """Base class: immutable spec, pure evaluation, stacked parameter gradients;
    every ``log_*`` field is a parameter, read in declaration order.  Kernels
    compare and hash by class and fields (subclasses declare ``eq=False``)."""

    @functools.cached_property
    def n_params(self) -> int:
        values = [getattr(self, name) for name in _param_fields(type(self))]
        return sum(v.size if isinstance(v, np.ndarray) else 1 for v in values)

    def get_params(self) -> np.ndarray:
        """Unconstrained (log-space) parameter vector."""
        return np.concatenate([np.ravel(getattr(self, name))
                               for name in _param_fields(type(self))], dtype=float)

    def with_params(self, params: np.ndarray) -> "Kernel":
        """New spec with the given unconstrained parameter vector."""
        params = np.asarray(params, dtype=float)
        if params.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {params.size}")
        values, start = {}, 0
        for name in _param_fields(type(self)):
            old = getattr(self, name)
            if isinstance(old, np.ndarray) and old.ndim:
                values[name] = params[start:start + old.size].copy()
                start += old.size
            else:
                values[name] = float(params[start])
                start += 1
        return dataclasses.replace(self, **values)

    def _identity(self) -> tuple:
        """The class and every field's value; an array field as its shape and
        elements, so two kernels compare as ``np.array_equal`` compares the
        arrays, and equal kernels hash alike (``-0.0`` as ``0.0``)."""
        values = (getattr(self, f.name) for f in dataclasses.fields(self))
        return (type(self),) + tuple((v.shape, tuple(v.ravel().tolist()))
                                     if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
        """k(X1, X2), shape (n1, n2); written into ``out`` and returned when given."""
        raise NotImplementedError

    def diag(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_stack(self, X1: np.ndarray, X2: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
        """d k(X1, X2) / d params (unconstrained space), shape (n_params, n1, n2);
        written into ``out`` and returned when given."""
        raise NotImplementedError

    def grad_diag_stack(self, X: np.ndarray) -> np.ndarray:
        """Derivatives of ``diag(k(X, X))``, shape (n_params, n).

        Every kernel here is stationary, so ``k(x, x)`` and its derivatives are
        the same at every input: the stack at one point, repeated, is exact.
        A kernel is frozen, so that stack is evaluated once per input width
        and kept on the instance.
        """
        X = _as2d(X)
        at_point = self.__dict__.setdefault("_grad_at_point", {})
        width = X.shape[1]
        if width not in at_point:
            at_point[width] = self.grad_stack(X[:1])[:, 0, :]
        return np.repeat(at_point[width], X.shape[0], axis=1)

    def __add__(self, other: "Kernel") -> "SumKernel":
        left = list(self.terms) if isinstance(self, SumKernel) else [self]
        right = list(other.terms) if isinstance(other, SumKernel) else [other]
        return SumKernel(tuple(left + right))


def _as2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"inputs must be (n, d) matrices, got shape {X.shape}")
    return X


def _buffer(out, shape) -> np.ndarray:
    return np.empty(shape) if out is None else out


def _check_pair(X1, X2):
    X1 = _as2d(X1)
    X2 = X1 if X2 is None else _as2d(X2)
    if X1.shape[1] != X2.shape[1]:
        raise ValueError(
            f"input dimension mismatch: {X1.shape[1]} vs {X2.shape[1]} columns"
        )
    return X1, X2


@dataclass(frozen=True, eq=False)
class SquaredExponential(Kernel):
    """SE kernel with one lengthscale per (active) input dimension.

    k(x, x') = variance * exp(-0.5 * sum_d (x_d - x'_d)^2 / lengthscale_d^2)
    """

    log_variance: float = 0.0
    log_lengthscales: np.ndarray = field(default_factory=lambda: np.zeros(1))
    active_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "log_lengthscales", np.atleast_1d(np.asarray(self.log_lengthscales, dtype=float))
        )

    @classmethod
    def create(cls, variance: float = 1.0, lengthscales=1.0,
               active_dims=None) -> "SquaredExponential":
        return cls(np.log(variance), np.log(np.asarray(lengthscales, dtype=float)),
                   None if active_dims is None else tuple(active_dims))

    @property
    def variance(self) -> float:
        return float(np.exp(self.log_variance))

    @property
    def lengthscales(self) -> np.ndarray:
        return np.exp(self.log_lengthscales)

    def _sq_dist(self, X1, X2, out, terms=None):
        """sum_d (x_d - x'_d)^2 / l_d^2 into ``out``, one input dimension at a time.

        Builds no (n1, n2, D) difference tensor: the first dimension is
        written into ``out`` and each further one, computed in ``terms[d]``
        when given and else in one scratch array, is added to it.  Dimension
        0's term is copied into ``terms[0]``.  For D <= 7 the sum is bitwise
        numpy's sum over the last axis of that tensor, which adds fewer than 8
        elements in order; from D = 8 on they differ at rounding level.
        """
        Z1 = _select_dims(X1, self.active_dims) / self.lengthscales
        Z2 = _select_dims(X2, self.active_dims) / self.lengthscales
        np.subtract.outer(Z1[:, 0], Z2[:, 0], out=out)
        np.square(out, out=out)
        if terms is not None:
            terms[0] = out
        sq = None
        for d in range(1, Z1.shape[1]):
            sq = terms[d] if terms is not None else _buffer(sq, out.shape)
            np.subtract.outer(Z1[:, d], Z2[:, d], out=sq)
            np.square(sq, out=sq)
            out += sq
        return out

    def _from_sq_dist(self, r2):
        """variance * exp(-r2 / 2), in place."""
        r2 *= -0.5
        np.exp(r2, out=r2)
        r2 *= self.variance
        return r2

    def __call__(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        out = _buffer(out, (X1.shape[0], X2.shape[0]))
        return self._from_sq_dist(self._sq_dist(X1, X2, out))

    def diag(self, X):
        return np.full(_as2d(X).shape[0], self.variance)

    def grad_stack(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        out = _buffer(out, (self.n_params, X1.shape[0], X2.shape[0]))
        self._from_sq_dist(self._sq_dist(X1, X2, out[0], terms=out[1:]))
        out[1:] *= out[0]  # d K / d log l_d = K * (x_d - x'_d)^2 / l_d^2
        return out


@dataclass(frozen=True, eq=False)
class Periodic(Kernel):
    """Exp-sine-squared kernel on the (single) active dimension.

    k(t, t') = variance * exp(-2 sin^2(pi (t - t') / period) / lengthscale^2)
    """

    log_variance: float = 0.0
    log_lengthscale: float = 0.0
    log_period: float = 0.0
    active_dims: tuple[int, ...] | None = None

    @classmethod
    def create(cls, variance=1.0, lengthscale=1.0, period=1.0, active_dims=None) -> "Periodic":
        return cls(np.log(variance), np.log(lengthscale), np.log(period),
                   None if active_dims is None else tuple(active_dims))

    @property
    def variance(self) -> float:
        return float(np.exp(self.log_variance))

    @property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_lengthscale))

    @property
    def period(self) -> float:
        return float(np.exp(self.log_period))

    def __call__(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        r = _lags(X1, X2, self.active_dims, "periodic")
        s = np.sin(np.pi * r / self.period)
        return np.multiply(self.variance, np.exp(-2.0 * s * s / self.lengthscale**2), out=out)

    def diag(self, X):
        return np.full(_as2d(X).shape[0], self.variance)

    def grad_stack(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        r = _lags(X1, X2, self.active_dims, "periodic")
        ell2 = self.lengthscale**2
        arg = np.pi * r / self.period
        s = np.sin(arg)
        K = self.variance * np.exp(-2.0 * s * s / ell2)
        # d/d log(period): d(arg)/d log p = -arg, so d(-2 sin^2(arg)/l^2) = 2 sin(2 arg) arg / l^2
        return np.stack([K, K * 4.0 * s * s / ell2,
                         K * 2.0 * np.sin(2.0 * arg) * arg / ell2], out=out)


@dataclass(frozen=True, eq=False)
class SpectralMixture(Kernel):
    """Gaussian spectral-mixture kernel on the (single) active dimension.

    k(t, t') = sum_q w_q exp(-2 pi^2 tau^2 v_q) cos(2 pi tau mu_q),  tau = t - t'

    with weights w_q, spectral means mu_q and spectral variances v_q, all
    positive.  The number of components is a configuration choice.
    """

    log_weights: np.ndarray = field(default_factory=lambda: np.zeros(1))
    log_means: np.ndarray = field(default_factory=lambda: np.zeros(1))
    log_variances: np.ndarray = field(default_factory=lambda: np.zeros(1))
    active_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("log_weights", "log_means", "log_variances"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if not (self.log_weights.size == self.log_means.size == self.log_variances.size):
            raise ValueError("weights, means and variances must have one entry per component")

    @classmethod
    def create(cls, weights, means, variances, active_dims=None) -> "SpectralMixture":
        return cls(np.log(weights), np.log(means), np.log(variances),
                   None if active_dims is None else tuple(active_dims))

    @property
    def n_components(self) -> int:
        return self.log_weights.size

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def means(self) -> np.ndarray:
        return np.exp(self.log_means)

    @property
    def variances(self) -> np.ndarray:
        return np.exp(self.log_variances)

    def _component(self, tau, q):
        decay = np.exp(-2.0 * np.pi**2 * tau**2 * self.variances[q])
        return decay, np.cos(2.0 * np.pi * tau * self.means[q])

    def __call__(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        tau = _lags(X1, X2, self.active_dims, "spectral-mixture")
        K = _buffer(out, tau.shape)
        K.fill(0.0)
        for q in range(self.n_components):
            decay, cosine = self._component(tau, q)
            K += self.weights[q] * decay * cosine
        return K

    def diag(self, X):
        return np.full(_as2d(X).shape[0], float(self.weights.sum()))

    def grad_stack(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        tau = _lags(X1, X2, self.active_dims, "spectral-mixture")
        nq = self.n_components
        out = _buffer(out, (self.n_params,) + tau.shape)
        for q in range(nq):
            decay, cosine = self._component(tau, q)
            w, mu, v = self.weights[q], self.means[q], self.variances[q]
            out[q] = w * decay * cosine
            out[nq + q] = -w * decay * np.sin(2 * np.pi * tau * mu) * 2 * np.pi * tau * mu
            out[2 * nq + q] = w * decay * cosine * (-2.0 * np.pi**2 * tau**2 * v)
        return out


@dataclass(frozen=True, eq=False)
class SumKernel(Kernel):
    """Sum of kernels; the parameter vector concatenates the summands'."""

    terms: tuple[Kernel, ...] = ()

    def __post_init__(self):
        if not self.terms:
            raise ValueError("sum kernel needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def n_params(self) -> int:
        return sum(t.n_params for t in self.terms)

    def get_params(self) -> np.ndarray:
        return np.concatenate([t.get_params() for t in self.terms])

    def with_params(self, params) -> "SumKernel":
        params = np.asarray(params, dtype=float)
        if params.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {params.size}")
        new_terms, offset = [], 0
        for t in self.terms:
            new_terms.append(t.with_params(params[offset:offset + t.n_params]))
            offset += t.n_params
        return SumKernel(tuple(new_terms))

    def __call__(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        out = self.terms[0](X1, X2, out=out)
        term = None
        for t in self.terms[1:]:
            term = t(X1, X2, out=term)  # one scratch array serves every further term
            out += term
        return out

    def diag(self, X):
        return sum(t.diag(X) for t in self.terms)

    def grad_stack(self, X1, X2=None, out=None):
        X1, X2 = _check_pair(X1, X2)
        out = _buffer(out, (self.n_params, X1.shape[0], X2.shape[0]))
        offset = 0
        for t in self.terms:
            # parameters of other summands do not appear in this term
            t.grad_stack(X1, X2, out=out[offset:offset + t.n_params])
            offset += t.n_params
        return out


@dataclass(frozen=True)
class NoiseSpec:
    """Observation-noise variance, log-parametrized."""

    log_variance: float = np.log(0.1)

    @classmethod
    def create(cls, variance: float) -> "NoiseSpec":
        if variance <= 0:
            raise ValueError("noise variance must be positive")
        return cls(float(np.log(variance)))

    @property
    def variance(self) -> float:
        return float(np.exp(self.log_variance))


def full_params(kernel: Kernel, noise: NoiseSpec) -> np.ndarray:
    """Model parameter vector: kernel parameters then the reserved noise slot."""
    return np.concatenate([kernel.get_params(), [noise.log_variance]])


def split_params(kernel: Kernel, theta: np.ndarray) -> tuple[Kernel, NoiseSpec]:
    """Inverse of :func:`full_params` against a template kernel."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != kernel.n_params + 1:
        raise ValueError(f"expected {kernel.n_params + 1} parameters, got {theta.size}")
    return kernel.with_params(theta[:-1]), NoiseSpec(float(theta[-1]))
