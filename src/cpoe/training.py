"""Hyperparameter estimation: deterministic full-batch and stochastic mini-batch.

Both optimizers maximize an objective given in unconstrained (log) parameter
space with analytic gradients.  The deterministic path wraps L-BFGS-B; the
stochastic path runs Adam over one expert term per step with epoch-level
stopping, then the caller refits exactly at the returned parameters (hybrid
scheme: the factorized objective only steers the search).

Passing a log-normal prior per positive hyperparameter turns the objective
into a MAP criterion; the prior's value and gradient are expressed directly in
the unconstrained space.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

__all__ = [
    "PriorSpec",
    "OptimizerConfig",
    "FitResult",
    "Adam",
    "log_prior",
    "fit_deterministic",
    "fit_stochastic",
]

_log = logging.getLogger(__name__)
BOUND = 15.0              # L-BFGS box half-width in log space (keeps exp finite)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class PriorSpec:
    """Log-normal priors on a subset of the positive hyperparameters.

    ``entries`` maps a parameter index (into the unconstrained vector) to the
    log-normal location/scale ``(nu, lam)`` of the positive parameter.
    """

    entries: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for idx, (_, lam) in self.entries.items():
            if lam <= 0:
                raise ValueError(f"prior scale for parameter {idx} must be positive")


def log_prior(theta: np.ndarray, prior: PriorSpec | None):
    """Sum of log-normal log densities and its gradient in log space.

    For u = log(theta_pos):  log p = -u - log(lam sqrt(2 pi)) - (u - nu)^2 / (2 lam^2),
    so the gradient is -1 - (u - nu) / lam^2; the quadratic part vanishes at u = nu.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    if prior is None or not prior.entries:
        return 0.0, grad
    val = 0.0
    for idx, (nu, lam) in prior.entries.items():
        u = theta[idx]
        val += -u - np.log(lam * np.sqrt(2 * np.pi)) - (u - nu) ** 2 / (2 * lam**2)
        grad[idx] = -1.0 - (u - nu) / lam**2
    return float(val), grad


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.01
    max_epochs: int = 15
    tolerance: float = 1e-2              # relative stopping criterion
    seed: int = 0
    max_iter: int = 200                  # L-BFGS iteration cap

    def __post_init__(self):
        if self.learning_rate <= 0 or self.tolerance <= 0:
            raise ValueError("learning rate and tolerance must be positive")


@dataclass
class FitResult:
    theta: np.ndarray
    value: float
    trace: list[tuple[int, float, float, np.ndarray]]  # (step, objective, wall time, theta)
    converged: bool
    message: str
    n_evaluations: int = 0
    # (evaluation number, reason) of each evaluation answered with 1e12
    failures: list[tuple[int, str]] = field(default_factory=list)

    def trace_rows(self):
        """Rows for the optimization-trace CSV: iteration, objective, time, theta."""
        for step, obj, wall, theta in self.trace:
            yield [step, obj, wall, *theta.tolist()]


class Adam:
    """Plain first-order adaptive updates, here used for maximization."""

    def __init__(self, theta0: np.ndarray, learning_rate: float = 0.01):
        self.theta = np.asarray(theta0, dtype=float).copy()
        self.lr = learning_rate
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)
        self.t = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad**2
        m_hat = self.m / (1 - ADAM_BETA1**self.t)
        v_hat = self.v / (1 - ADAM_BETA2**self.t)
        self.theta = self.theta + self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        return self.theta


def fit_deterministic(objective, theta0: np.ndarray, config: OptimizerConfig,
                      prior: PriorSpec | None = None) -> FitResult:
    """Quasi-Newton maximization of ``objective(theta) -> (value, gradient)``.

    A given prior is added to the objective.  Failed evaluations inside a
    line search surface the last good parameters rather than aborting: an
    evaluation that raises ``LinAlgError``, ``ArithmeticError`` or
    ``ValueError``, or returns a non-finite value, is answered with ``1e12``
    and a zero gradient, logged at WARNING and kept in
    :attr:`FitResult.failures`.  The start point is evaluated once, for the
    trace and as L-BFGS's first point.  When no evaluation succeeds, the
    result keeps ``theta0``, is not converged, and its message names the
    first failure.
    """
    theta0 = np.asarray(theta0, dtype=float).copy()
    t_start = time.perf_counter()
    trace: list[tuple[int, float, float, np.ndarray]] = []
    failures: list[tuple[int, str]] = []
    state = {"n": 0, "last": None, "best": (-np.inf, theta0.copy())}

    def failed(reason):
        # bad region (failed factorization, non-finite kernel matrices):
        # a large value with a zero gradient makes the line search back off
        failures.append((state["n"], reason))
        _log.warning("objective evaluation %d failed (%s); answered with 1e12",
                     state["n"], reason)
        return 1e12, np.zeros_like(theta0)

    def negative(theta):
        state["n"] += 1
        try:
            val, grad = objective(theta)
            if prior is not None:
                pv, pg = log_prior(theta, prior)
                val, grad = val + pv, grad + pg
        except (np.linalg.LinAlgError, ArithmeticError, ValueError) as exc:
            return failed(f"{type(exc).__name__}: {exc}")
        if not np.isfinite(val):
            if state["n"] == 1:
                raise ArithmeticError("objective non-finite at the starting point")
            return failed(f"non-finite value {val}")
        # L-BFGS may end on a failed line-search step: the best evaluated
        # point, kept here, is what the fit returns
        if val > state["best"][0]:
            state["best"] = (float(val), np.asarray(theta).copy())
        state["last"] = (np.asarray(theta).copy(), float(val))
        return -val, -np.asarray(grad)

    def callback(xk):
        last = state["last"]
        obj = last[1] if last is not None and np.allclose(last[0], xk) else state["best"][0]
        trace.append((len(trace) + 1, obj, time.perf_counter() - t_start, np.asarray(xk).copy()))

    start = [negative(theta0)]
    trace.append((0, -start[0][0], time.perf_counter() - t_start, theta0.copy()))

    def lbfgs_fun(theta):  # L-BFGS starts at theta0: hand it the evaluation made there
        if start and np.array_equal(theta, theta0):
            return start.pop()
        return negative(theta)

    bounds = [(-BOUND, BOUND)] * theta0.size
    res = optimize.minimize(lbfgs_fun, theta0, jac=True, method="L-BFGS-B",
                            callback=callback, bounds=bounds,
                            options={"maxiter": config.max_iter, "ftol": 1e-12,
                                     "gtol": 1e-6})
    best_val, best_theta = state["best"]
    converged, message = bool(res.success), str(res.message)
    if state["last"] is None:  # every evaluation failed: theta0 is no optimum
        converged = False
        message = (f"no objective evaluation succeeded in {state['n']}; the first "
                   f"failed with {failures[0][1]}")
    return FitResult(theta=best_theta, value=best_val, trace=trace,
                     converged=converged, message=message,
                     n_evaluations=state["n"], failures=failures)


def fit_stochastic(term_fn, n_terms: int, theta0: np.ndarray, config: OptimizerConfig,
                   prior: PriorSpec | None = None, constant: float = 0.0) -> FitResult:
    """Adam over shuffled per-expert terms, one term per step.

    ``term_fn(j, theta, with_grad) -> (value, gradient or None)`` evaluates
    one term of the factorized objective.  The recorded epoch objective is the
    full factorized sum plus ``constant`` (the caller passes the Gaussian
    normalizer); it asks the terms for values only.  A given
    prior contributes ``1/n_terms`` of its gradient to every step.  Training
    stops at the epoch budget, on a relative objective change below the
    tolerance, or after five consecutively worsening epochs (reverting to the
    best parameters seen).
    """
    theta = np.asarray(theta0, dtype=float).copy()
    rng = np.random.default_rng(config.seed)
    adam = Adam(theta, learning_rate=config.learning_rate)
    t_start = time.perf_counter()

    def full_objective(th):
        total = constant
        for j in range(n_terms):
            total += term_fn(j, th, False)[0]
        if prior is not None:
            total += log_prior(th, prior)[0]
        return float(total)

    trace: list[tuple[int, float, float, np.ndarray]] = []
    prev = full_objective(theta)
    trace.append((0, prev, time.perf_counter() - t_start, theta.copy()))
    best_val, best_theta = prev, theta.copy()
    worse_streak = 0
    converged = False
    message = "epoch budget exhausted"
    n_evals = n_terms

    for epoch in range(1, config.max_epochs + 1):
        for j in rng.permutation(n_terms):
            _, grad = term_fn(int(j), adam.theta, True)
            if prior is not None:
                grad = grad + log_prior(adam.theta, prior)[1] / n_terms
            adam.step(grad)
            n_evals += 1
        theta = adam.theta.copy()
        obj = full_objective(theta)
        n_evals += n_terms
        trace.append((epoch, obj, time.perf_counter() - t_start, theta.copy()))
        if obj > best_val:
            best_val, best_theta = obj, theta.copy()
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak >= 5:
                message = "diverging for 5 consecutive epochs; reverted to best parameters"
                break
        if abs(obj - prev) < config.tolerance * max(abs(prev), 1.0):
            converged = True
            message = f"relative objective change below {config.tolerance:g}"
            break
        prev = obj
    return FitResult(theta=best_theta, value=best_val, trace=trace, converged=converged,
                     message=message, n_evaluations=n_evals)
