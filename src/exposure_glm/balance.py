"""Observed-gap diagnostics: individual gaps, class balance, balance factor.

The individual gap of a contract is ``t * (z - zeta_hat)``, the shortfall
of its exposure-scaled premium against its observed loss cost.  A ratio
fit with an intercept zeroes the portfolio total exactly; an offset fit
does not, and the sign of its total tracks whether losses increase or
decrease with exposure.
"""

from dataclasses import dataclass

import numpy as np

from .model_core import Portfolio
from .solver import FitResult

__all__ = [
    "ClassBalance",
    "individual_gaps",
    "portfolio_gap",
    "class_report",
    "balance_factor",
]


@dataclass(frozen=True)
class ClassBalance:
    """Aggregate losses vs. premiums per level of one risk factor.

    One entry per level, ordered by ascending loss sum, ties by
    ascending level.  ``premium_sums`` and ``ratios`` hold one row per
    fit, in the order the fits were given; a ratio is NaN (undefined)
    where the level has no losses.  The arrays are read-only.
    """

    factor_name: str
    levels: np.ndarray
    loss_sums: np.ndarray
    premium_sums: np.ndarray
    ratios: np.ndarray

    def __len__(self):
        return self.levels.size


def _check_fit(portfolio, fit):
    if fit.n_obs != portfolio.n or fit.beta_hat.shape != (portfolio.q + 1,):
        raise ValueError(
            f"fit (n={fit.n_obs}, k={fit.beta_hat.shape}) does not match "
            f"portfolio (n={portfolio.n}, k={portfolio.q + 1})"
        )


def _fitted_zetas(portfolio, fit):
    return np.exp(portfolio.design @ fit.beta_hat)


def individual_gaps(portfolio: Portfolio, fit: FitResult):
    """Per-contract ``(fitted_zeta, gap)``, ``gap = t * (z - fitted_zeta)``, in portfolio order."""
    _check_fit(portfolio, fit)
    zetas = _fitted_zetas(portfolio, fit)
    return zetas, portfolio.exposures * (portfolio.normalized - zetas)


def portfolio_gap(gaps) -> float:
    """Sum of an array or sequence of gaps, accumulated left to right in portfolio order.

    The running sum is sequential on purpose: a pairwise or compensated sum
    would change the reported total in its last bits.
    """
    values = np.asarray(gaps, dtype=float)
    if values.size == 0:
        raise ValueError("gap list is empty")
    return float(np.cumsum(values)[-1])


def class_report(portfolio: Portfolio, fits, factor_index: int) -> ClassBalance:
    """Balance of each fit in ``fits`` per level of design column ``factor_index``.

    Index 0 is the intercept (a single constant level), indices 1..q the
    covariates; every distinct value is a level, so a continuous column
    yields one entry per value.  The column is grouped once for all fits.
    A level with zero losses keeps its premium sums and reports an
    undefined ratio instead of an infinite one.
    """
    for fit in fits:
        _check_fit(portfolio, fit)
    if not (0 <= factor_index <= portfolio.q):
        raise ValueError(f"factor index must lie in [0, {portfolio.q}], got {factor_index}")

    column = portfolio.design[:, factor_index]
    levels, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
    # A stable sort keeps each level's contracts in portfolio order, so
    # every slice sum below adds the same values in the same order as a
    # boolean mask of that level would.
    order = np.argsort(inverse, kind="stable")
    columns = [portfolio.loss_costs[order]]
    columns += [(portfolio.exposures * _fitted_zetas(portfolio, fit))[order] for fit in fits]
    splits = np.cumsum(counts)[:-1]
    sums = np.array([[part.sum() for part in np.split(values, splits)] for values in columns])
    rank = np.argsort(sums[0], kind="stable")
    loss_sums, premium_sums = sums[0, rank], sums[1:, rank]
    ratios = np.full_like(premium_sums, np.nan)
    np.divide(premium_sums, loss_sums, out=ratios, where=loss_sums > 0.0)
    arrays = [levels[rank], loss_sums, premium_sums, ratios]
    for array in arrays:
        array.flags.writeable = False
    factor_name = "intercept" if factor_index == 0 else portfolio.covariate_names[factor_index - 1]
    return ClassBalance(factor_name, *arrays)


def balance_factor(portfolio: Portfolio, fit: FitResult) -> float:
    """Total estimated premium over total observed loss, ``sum(t * zeta_hat) / sum(y)``."""
    _check_fit(portfolio, fit)
    total_loss = float(portfolio.loss_costs.sum())
    if total_loss <= 0.0:
        raise ValueError("balance factor undefined: total loss cost is zero")
    total_premium = float(np.dot(portfolio.exposures, _fitted_zetas(portfolio, fit)))
    return total_premium / total_loss
