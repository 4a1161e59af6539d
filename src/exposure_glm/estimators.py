"""Premium-estimator moments and asymptotic comparison of the two fits.

The coefficient estimator is asymptotically normal with covariance
``phi * (X.T @ D @ X)**-1``, so each contract's premium estimator
``exp(x @ beta_hat)`` is asymptotically lognormal.  Because the offset
weights dominate the ratio weights, the offset information matrix
dominates and the covariance difference

    M = Cov_ratio - Cov_offset

is positive semidefinite, of the rank of the design rows with partial
exposure, and so positive definite when those rows have full column
rank.  That single matrix fact orders the premium-estimator means,
variances and expected portfolio gaps between the two approaches.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model_core import (
    Portfolio,
    TweedieFamily,
    WeightScheme,
    _check_beta,
    _covariance,
    _exponent,
)

__all__ = [
    "Dominance",
    "DominanceReport",
    "MomentOrdering",
    "premium_moments",
    "coefficient_covariance",
    "covariance_dominance",
    "moment_ordering",
]


class Dominance(Enum):
    STRICTLY_DOMINANT = "strictly_dominant"
    DEGENERATE_EQUAL = "degenerate_equal"
    SEMIDEFINITE = "semidefinite"


@dataclass(frozen=True)
class DominanceReport:
    """Verdict on ``M = Cov_ratio - Cov_offset`` plus the matrix itself."""

    verdict: Dominance
    difference: np.ndarray


@dataclass(frozen=True)
class MomentOrdering:
    """Premium-estimator moments for both schemes and their strict ordering.

    ``offset`` and ``ratio`` are ``(mean, variance)`` pairs as
    ``premium_moments`` returns them.  For a matrix of rows each ordering
    holds only if it holds at every row.
    """

    offset: tuple
    ratio: tuple
    mean_strictly_ordered: bool
    variance_strictly_ordered: bool


def _lognormal_moments(x, beta, covariance):
    """Moments of ``exp(x @ beta_hat)`` at row ``x`` ``(k,)`` or at each row of ``x`` ``(m, k)``.

    With quadratic form ``v = x @ Sigma @ x`` (clipped at zero):

        mean = exp(x @ beta + v / 2),  variance = (exp(v) - 1) * mean**2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != beta.shape:
        raise ValueError(f"x of shape {x.shape} does not match coefficient vector of shape {beta.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    v = np.maximum(np.einsum("...j,jk,...k->...", x, covariance, x), 0.0)
    mean = np.exp(x @ beta + 0.5 * v)
    variance = np.expm1(v) * mean * mean
    if x.ndim == 1:
        return float(mean), float(variance)
    return mean, variance


def _check_psd(covariance):
    covariance = np.asarray(covariance, dtype=float)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.isfinite(covariance).all():
        raise ValueError("covariance must be finite")
    if np.max(np.abs(covariance - covariance.T)) > 1e-10 * max(1.0, np.max(np.abs(covariance))):
        raise ValueError("covariance must be symmetric")
    sym = 0.5 * (covariance + covariance.T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if min_eig < -1e-10 * max(1.0, float(np.max(np.abs(sym)))):
        raise ValueError("covariance must be positive semidefinite")
    return sym


def premium_moments(x, beta, covariance):
    """``(mean, variance)`` of the lognormal premium estimator at design row(s) ``x``.

    Floats for one design row, arrays with one entry per row for a matrix
    of rows.  ``covariance`` is the coefficient covariance *including*
    dispersion, as ``coefficient_covariance`` returns it; it must be
    finite, symmetric and positive semidefinite, and ``x`` and ``beta`` finite.
    """
    sigma = _check_psd(covariance)
    return _lognormal_moments(x, _check_beta(beta, len(sigma)), sigma)


def coefficient_covariance(portfolio: Portfolio, beta, scheme: WeightScheme, family: TweedieFamily):
    """Asymptotic coefficient covariance ``phi * (X.T @ D @ X)**-1`` at ``beta``.

    Raises SingularInformationError when ``X.T @ D @ X`` is numerically
    singular at ``beta``, and ValueError when ``phi`` scales it past the
    float range.
    """
    beta = _check_beta(beta, portfolio.q + 1)
    return _covariance(portfolio, _exponent(scheme, family.p), family.p, family.phi, beta)


def _covariance_pair(portfolio: Portfolio, beta, family: TweedieFamily):
    """``(Cov_offset, Cov_ratio)`` at ``beta``, kept on the read-only book for its last ``(beta, family)``.

    One tuple ``(key, pair)``, replaced whole; a failed factorisation is not kept.  The pair never leaves this module.
    """
    key = (_check_beta(beta, portfolio.q + 1).tobytes(), family)
    kept = portfolio.__dict__.get("_covariances")
    if kept is None or kept[0] != key:
        kept = key, tuple(coefficient_covariance(portfolio, beta, scheme, family) for scheme in WeightScheme)
        portfolio._covariances = kept
    return kept[1]


def covariance_dominance(portfolio: Portfolio, beta, family: TweedieFamily) -> DominanceReport:
    """Classify ``M = Cov_ratio - Cov_offset`` at ``beta`` by the rank ``r`` of the partial rows.

    ``M`` is positive semidefinite, of the rank ``r`` of the design rows with
    exposure below one, since ``M = Cov_ratio X'(D_offset - D_ratio)X Cov_offset / phi``
    and ``D_offset > D_ratio`` exactly where ``t < 1``.  With ``k`` coefficients the
    verdict is DEGENERATE_EQUAL (``M = 0``) for ``r = 0``, SEMIDEFINITE for
    ``0 < r < k`` and STRICTLY_DOMINANT for ``r = k``; ``r`` depends on the book
    alone and is computed once per portfolio, on the first call.  ``difference`` is
    the computed ``M``: its smallest eigenvalue can round below zero when the
    partial rows weigh almost nothing.
    """
    cov_offset, cov_ratio = _covariance_pair(portfolio, beta, family)
    rank = portfolio._partial_rank
    if rank == portfolio.q + 1:
        verdict = Dominance.STRICTLY_DOMINANT
    else:
        verdict = Dominance.SEMIDEFINITE if rank else Dominance.DEGENERATE_EQUAL
    return DominanceReport(verdict=verdict, difference=cov_ratio - cov_offset)


def moment_ordering(x, beta, portfolio: Portfolio, family: TweedieFamily) -> MomentOrdering:
    """Premium-estimator moments under both schemes at design row ``x`` or each row of matrix ``x``.

    Shares with ``covariance_dominance`` the pair of covariances kept for the
    book's last ``(beta, family)``, however many rows ``x`` holds.
    """
    covariances = _covariance_pair(portfolio, beta, family)
    beta = np.asarray(beta, dtype=float)
    off, rat = (_lognormal_moments(x, beta, covariance) for covariance in covariances)
    return MomentOrdering(
        offset=off,
        ratio=rat,
        mean_strictly_ordered=bool(np.all(off[0] < rat[0])),
        variance_strictly_ordered=bool(np.all(off[1] < rat[1])),
    )
