"""Pointwise and averaged evaluation quantities for predictive Gaussians."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr  # standard normal CDF

__all__ = [
    "MetricReport",
    "kl_univariate",
    "crps_gaussian",
    "coverage95",
    "nlp",
    "rmse",
    "abse",
    "evaluate_predictions",
]


def kl_univariate(p, q) -> float:
    """KL divergence between univariate Gaussians ``p = (m, v)`` and ``q = (m*, v*)``."""
    m, v = p
    ms, vs = q
    if v <= 0 or vs <= 0:
        raise ValueError("variances must be positive")
    return float(0.5 * (np.log(vs / v) + v / vs + (m - ms) ** 2 / vs - 1.0))


def crps_gaussian(m, v, y) -> float | np.ndarray:
    """Closed-form continuous ranked probability score of a Gaussian forecast.

    CRPS(N(m, v), y) = sd * ( z (2 Phi(z) - 1) + 2 phi(z) - 1/sqrt(pi) ),
    z = (y - m)/sd.  Scale-equivariant and minimized over m at m = y.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("variance must be positive")
    sd = np.sqrt(v)
    z = (np.asarray(y, dtype=float) - m) / sd
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    out = sd * (z * (2 * ndtr(z) - 1.0) + 2 * pdf - 1.0 / np.sqrt(np.pi))
    return float(out) if np.ndim(out) == 0 else out


def coverage95(m, v, y):
    """1 if ``y`` lies inside the central 95% interval ``m +- 1.96 sqrt(v)``."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("variance must be positive")
    inside = np.abs(np.asarray(y, dtype=float) - m) <= 1.96 * np.sqrt(v)
    return int(inside) if np.ndim(inside) == 0 else inside.astype(int)


def nlp(m, v, y):
    """Negative log predictive density of ``y`` under ``N(m, v)``."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("variance must be positive")
    out = 0.5 * np.log(2 * np.pi * v) + (np.asarray(y, dtype=float) - m) ** 2 / (2 * v)
    return float(out) if np.ndim(out) == 0 else out


def rmse(m, y) -> float:
    m, y = np.asarray(m, float), np.asarray(y, float)
    return float(np.sqrt(np.mean((m - y) ** 2)))


def abse(m, y) -> float:
    m, y = np.asarray(m, float), np.asarray(y, float)
    return float(np.mean(np.abs(m - y)))


@dataclass
class MetricReport:
    """Averaged evaluation quantities for one (method, dataset, config) cell."""

    kl_to_full: float = np.nan
    crps: float = np.nan
    rmse: float = np.nan
    abse: float = np.nan
    nlp: float = np.nan
    cov95: float = np.nan
    err_to_full: float = np.nan
    lml: float = np.nan
    fit_time: float = np.nan
    predict_time: float = np.nan

    def row(self) -> list[float]:
        return [getattr(self, c) for c in self.header()]

    @classmethod
    def header(cls) -> list[str]:
        return [f.name for f in fields(cls)]


def evaluate_predictions(mean, var_latent, y_test, noise_variance=0.0, lml=np.nan,
                         full_mean=None, full_var=None,
                         fit_time=np.nan, predict_time=np.nan) -> MetricReport:
    """Pointwise metrics averaged over a test set.

    Scores against observations (CRPS, NLP, coverage) use the noisy predictive
    variance ``var_latent + noise_variance``; the KL against the exact-GP
    reference compares latent predictive distributions.
    """
    mean = np.asarray(mean, float)
    var_latent = np.asarray(var_latent, float)
    var_noisy = var_latent + noise_variance
    y_test = np.asarray(y_test, float)
    report = MetricReport(
        crps=float(np.mean(crps_gaussian(mean, var_noisy, y_test))),
        rmse=rmse(mean, y_test),
        abse=abse(mean, y_test),
        nlp=float(np.mean(nlp(mean, var_noisy, y_test))),
        cov95=float(np.mean(coverage95(mean, var_noisy, y_test))),
        lml=lml, fit_time=fit_time, predict_time=predict_time,
    )
    if full_mean is not None:
        full_mean = np.asarray(full_mean, float)
        full_var = np.asarray(full_var, float)
        kls = [kl_univariate((fm, fv), (m, v))
               for fm, fv, m, v in zip(full_mean, full_var, mean, var_latent)]
        report.kl_to_full = float(np.mean(kls))
        report.err_to_full = rmse(mean, full_mean)
    return report
