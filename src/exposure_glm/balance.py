"""Observed-gap diagnostics: individual gaps, class balance, balance factor.

The individual gap of a contract is ``t * (z - zeta_hat)``, the shortfall
of its exposure-scaled premium against its observed loss cost.  A ratio
fit with an intercept zeroes the portfolio total exactly only without
covariates (or at p = 1); an offset fit misses by far more, and the sign
of its total tracks whether losses increase or decrease with exposure.
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
    """Aggregate losses vs. premiums per level of each risk factor.

    One entry per (factor, level), ``factors`` naming its factor; within
    a factor, entries are ordered by ascending loss sum, ties by level.
    ``premium_sums`` and ``ratios`` hold one row per fit, in fit order;
    a ratio is NaN where the level has no losses.  Arrays are read-only.
    """

    factors: tuple
    levels: np.ndarray
    loss_sums: np.ndarray
    premium_sums: np.ndarray
    ratios: np.ndarray

    def __len__(self):
        return self.levels.size


def _check_fit(portfolio, fit):
    if fit.n_obs != portfolio.n or fit.beta_hat.shape != (portfolio.q + 1,):
        raise ValueError(
            f"fit (n={fit.n_obs}, k={fit.beta_hat.size}) does not match "
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


def class_report(portfolio: Portfolio, fits) -> ClassBalance:
    """Balance of each fit in the iterable ``fits`` per level of every covariate, in design order.

    A book without covariates reports its intercept, one level of value 1.
    Every distinct value is a level, valued as its first contract.  Each
    fit's premiums are computed once and each column sorted once; one
    ``np.add.reduceat`` per value column sums every level, each equal to a
    masked ``.sum()`` bit for bit.
    A level with zero losses reports an undefined ratio, not an infinite one.
    """
    fits = tuple(fits)
    for fit in fits:
        _check_fit(portfolio, fit)
    columns = [portfolio.loss_costs] + [portfolio.exposures * _fitted_zetas(portfolio, fit) for fit in fits]
    factors, levels, tables = [], [], []
    for j, name in list(enumerate(portfolio.covariate_names, start=1)) or [(0, "intercept")]:
        column = portfolio.design[:, j]
        # A stable sort keeps each level's contracts in portfolio order, so
        # every level sum adds them in the order a boolean mask would.
        order = np.argsort(column, kind="stable")
        ordered = column[order]
        starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        heads = starts + np.arange(starts.size)
        # np.sum of a slice is 0.0 + its pairwise sum, and reduceat starts a
        # segment from its first element: a 0.0 head keeps np.sum's bits.
        table = np.array([np.add.reduceat(np.insert(values[order], starts, 0.0), heads) for values in columns])
        rank = np.argsort(table[0], kind="stable")
        factors += [name] * rank.size
        levels.append(ordered[starts[rank]])
        tables.append(table[:, rank])
    sums = np.concatenate(tables, axis=1)
    loss_sums, premium_sums = sums[0], sums[1:]
    ratios = np.full_like(premium_sums, np.nan)
    np.divide(premium_sums, loss_sums, out=ratios, where=loss_sums > 0.0)
    arrays = [np.concatenate(levels), loss_sums, premium_sums, ratios]
    for array in arrays:
        array.flags.writeable = False
    return ClassBalance(tuple(factors), *arrays)


def balance_factor(portfolio: Portfolio, fit: FitResult) -> float:
    """Total estimated premium over total observed loss, ``sum(t * zeta_hat) / sum(y)``."""
    _check_fit(portfolio, fit)
    total_loss = float(portfolio.loss_costs.sum())
    if total_loss <= 0.0:
        raise ValueError("balance factor undefined: total loss cost is zero")
    total_premium = float(np.dot(portfolio.exposures, _fitted_zetas(portfolio, fit)))
    return total_premium / total_loss
