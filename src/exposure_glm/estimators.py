"""Premium computation and asymptotic comparison of the two fits.

The coefficient estimator is asymptotically normal with covariance
``phi * (X.T @ D @ X)**-1``, so each contract's premium estimator
``exp(x @ beta_hat)`` is asymptotically lognormal.  Because the offset
weights dominate the ratio weights, the offset information matrix
dominates and the covariance difference

    M = Cov_ratio - Cov_offset

is positive definite whenever some contract has partial exposure.  That
single matrix fact orders the premium-estimator means, variances and
expected portfolio gaps between the two approaches.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model_core import (
    Portfolio,
    TweedieFamily,
    WeightScheme,
    _check_beta,
    _cho_factor,
    _covariance,
    _normal_equations,
    _scheme_weights,
)

__all__ = [
    "PremiumQuote",
    "EstimatorMoments",
    "Dominance",
    "DominanceReport",
    "MomentOrdering",
    "premium",
    "premium_moments",
    "coefficient_covariance",
    "covariance_dominance",
    "moment_ordering",
    "expected_random_gap",
]


@dataclass(frozen=True)
class PremiumQuote:
    """Annualized premium ``exp(x @ beta)`` and its exposure-scaled value."""

    contract_id: str
    annualized: float
    exposure_scaled: float


@dataclass(frozen=True)
class EstimatorMoments:
    """Lognormal mean/variance of a premium estimator under one scheme."""

    mean: float
    variance: float
    scheme: WeightScheme | None = None


class Dominance(Enum):
    STRICTLY_DOMINANT = "strictly_dominant"
    DEGENERATE_EQUAL = "degenerate_equal"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class DominanceReport:
    """Verdict on ``M = Cov_ratio - Cov_offset`` plus the matrix itself."""

    verdict: Dominance
    difference: np.ndarray
    min_eigenvalue: float


@dataclass(frozen=True)
class MomentOrdering:
    """Premium-estimator moments for both schemes and their strict ordering."""

    offset: EstimatorMoments
    ratio: EstimatorMoments
    mean_strictly_ordered: bool
    variance_strictly_ordered: bool
    degenerate_equal: bool


def premium(beta, x, t: float, contract_id: str = "") -> PremiumQuote:
    """Premium quote at design row ``x`` (leading 1): ``exp(x @ beta)`` and ``t`` times it."""
    if not (0.0 < t <= 1.0):
        raise ValueError(f"exposure must lie in (0, 1], got {t}")
    annualized = float(np.exp(np.dot(np.asarray(x, float), np.asarray(beta, float))))
    return PremiumQuote(contract_id=contract_id, annualized=annualized, exposure_scaled=t * annualized)


def _check_psd(covariance):
    covariance = np.asarray(covariance, dtype=float)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if np.max(np.abs(covariance - covariance.T)) > 1e-10 * max(1.0, np.max(np.abs(covariance))):
        raise ValueError("covariance must be symmetric")
    sym = 0.5 * (covariance + covariance.T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if min_eig < -1e-10 * max(1.0, float(np.max(np.abs(sym)))):
        raise ValueError("covariance must be positive semidefinite")
    return sym


def premium_moments(x, beta, covariance, scheme=None, dispersion: float = 1.0) -> EstimatorMoments:
    """Mean and variance of the lognormal premium estimator at row ``x``.

    ``covariance`` is the coefficient covariance *including* dispersion;
    callers holding a dispersion-free matrix pass it through
    ``dispersion`` explicitly.  With quadratic form ``v = x @ Sigma @ x``:

        mean = exp(x @ beta + v / 2),  variance = (exp(v) - 1) * mean**2.
    """
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if dispersion <= 0.0:
        raise ValueError(f"dispersion must be positive, got {dispersion}")
    sigma = dispersion * _check_psd(covariance)
    v = max(float(x @ sigma @ x), 0.0)
    mean = math.exp(float(x @ beta) + 0.5 * v)
    variance = math.expm1(v) * mean * mean
    return EstimatorMoments(mean=mean, variance=variance, scheme=scheme)


def coefficient_covariance(portfolio: Portfolio, beta, scheme: WeightScheme, family: TweedieFamily):
    """Asymptotic coefficient covariance ``phi * (X.T @ D @ X)**-1`` at ``beta``.

    Raises SingularInformationError when ``X.T @ D @ X`` is numerically
    singular at ``beta``.
    """
    beta = _check_beta(beta, portfolio)
    w = _scheme_weights(WeightScheme(scheme), portfolio.exposures, family.p)
    info, _ = _normal_equations(beta, portfolio.design, portfolio.normalized, w, family.p)
    return _covariance(_cho_factor(info), family.phi)


def covariance_dominance(portfolio: Portfolio, beta, family: TweedieFamily) -> DominanceReport:
    """Classify ``M = Cov_ratio - Cov_offset`` at ``beta``.

    Strictly positive definite whenever some exposure is below one; the
    zero matrix when every exposure equals one.  The production verdict
    uses a Cholesky factorization; eigenvalues are reported alongside so
    an independent check can cross-validate.
    """
    cov_offset = coefficient_covariance(portfolio, beta, WeightScheme.OFFSET, family)
    cov_ratio = coefficient_covariance(portfolio, beta, WeightScheme.RATIO, family)
    diff = cov_ratio - cov_offset
    diff = 0.5 * (diff + diff.T)
    min_eig = float(np.linalg.eigvalsh(diff)[0])
    all_full = bool(np.all(portfolio.exposures == 1.0))
    try:
        np.linalg.cholesky(diff)
        verdict = Dominance.STRICTLY_DOMINANT
    except np.linalg.LinAlgError:
        # Near the full-exposure boundary M collapses to zero; tolerate
        # floating-point noise there but nowhere else.
        if all_full and min_eig >= -1e-10 * max(float(np.max(np.abs(diff))), 1e-300):
            verdict = Dominance.DEGENERATE_EQUAL
        else:
            verdict = Dominance.INDEFINITE
    return DominanceReport(verdict=verdict, difference=diff, min_eigenvalue=min_eig)


def moment_ordering(x, beta, portfolio: Portfolio, family: TweedieFamily) -> MomentOrdering:
    """Premium-estimator moments under both schemes for design row ``x``."""
    cov_offset = coefficient_covariance(portfolio, beta, WeightScheme.OFFSET, family)
    cov_ratio = coefficient_covariance(portfolio, beta, WeightScheme.RATIO, family)
    off = premium_moments(x, beta, cov_offset, scheme=WeightScheme.OFFSET)
    rat = premium_moments(x, beta, cov_ratio, scheme=WeightScheme.RATIO)
    return MomentOrdering(
        offset=off,
        ratio=rat,
        mean_strictly_ordered=off.mean < rat.mean,
        variance_strictly_ordered=off.variance < rat.variance,
        degenerate_equal=bool(np.all(portfolio.exposures == 1.0)),
    )


def expected_random_gap(portfolio: Portfolio, beta, family: TweedieFamily, scheme: WeightScheme) -> float:
    """Expected portfolio gap ``sum_i t_i * (zeta_i - E[zeta_hat_i])`` at true ``beta``.

    Non-positive for positive dispersion because the lognormal premium
    estimator is biased upward; the ratio scheme's gap is the more
    negative of the two whenever some exposure is below one.
    """
    beta = np.asarray(beta, dtype=float)
    scheme = WeightScheme(scheme)
    cov = coefficient_covariance(portfolio, beta, scheme, family)
    X = portfolio.design
    scores = X @ beta
    quad = np.einsum("ij,jk,ik->i", X, cov, X)
    estimator_means = np.exp(scores + 0.5 * np.maximum(quad, 0.0))
    return float(np.dot(portfolio.exposures, np.exp(scores) - estimator_means))
