"""Seeded synthetic portfolios: rank-driven gap experiments and a two-group mimic.

The gap experiment draws exposures uniformly on [30/365, 335/365], sorts
them ascending, assigns deterministic loss costs by rank (increasing
``y_i = i`` or decreasing ``y_i = n - i + 1``) and optionally two binary
risk factors with success rates 0.75 and 0.15, then fits both schemes.

All randomness flows through numpy's PCG64 generator seeded from a
single 64-bit integer via SeedSequence spawning, so every artifact is
bit-reproducible across platforms from the seed and the other inputs alone.
"""

from enum import Enum

import numpy as np

from .model_core import Portfolio, RankDeficiencyError, TweedieFamily, WeightScheme, _check_integer
from .solver import fit

__all__ = [
    "EXPOSURE_LO",
    "EXPOSURE_HI",
    "Scenario",
    "build_scenario_portfolio",
    "run_gap_experiment",
    "gen_mimic_portfolio",
]

EXPOSURE_LO = 30.0 / 365.0
EXPOSURE_HI = 335.0 / 365.0

# Success rates of the gap experiment's two binary risk factors.
_SCENARIO_COVARIATE_RATES = (0.75, 0.15)

# The mimic book: the full-exposure group's mean loss cost, the mid-term
# group's mean as a multiple of it, the share of zero losses in each
# group and the success rates of its binary covariates.
_MIMIC_MEAN_FULL = 100.0
_MIMIC_REFERENCE_RATIO = 2.45 / 0.63
_MIMIC_ZERO_MASS = 0.5
_MIMIC_COVARIATE_RATES = (0.5, 0.3, 0.2)


class Scenario(str, Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


def _check_seed(seed):
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _check_scenario(n, scenario, seed):
    """``Scenario(scenario)`` once ``n`` and ``seed`` are checked, in that order."""
    scenario = Scenario(scenario)
    _check_integer("n", n)
    if n < 2:
        raise ValueError(f"need at least 2 contracts, got {n}")
    _check_seed(seed)
    return scenario


def build_scenario_portfolio(n=100, scenario="increasing", heterogeneous=False, seed=0) -> Portfolio:
    """Generate the portfolio for a gap experiment without fitting it."""
    scenario = _check_scenario(n, scenario, seed)
    exposure_seed, covariate_seed = np.random.SeedSequence(seed).spawn(2)
    exposures = np.sort(np.random.default_rng(exposure_seed).uniform(EXPOSURE_LO, EXPOSURE_HI, n))
    ranks = np.arange(1, n + 1, dtype=float)
    losses = ranks if scenario is Scenario.INCREASING else n - ranks + 1.0
    if not heterogeneous:
        return Portfolio.from_arrays(exposures, losses)
    return _full_rank_portfolio(covariate_seed, exposures, losses, _SCENARIO_COVARIATE_RATES)


def _full_rank_portfolio(seed_seq, exposures, losses, rates, attempts=64):
    """Portfolio of ``exposures`` and ``losses`` with binary covariates of success ``rates``.

    A constant or duplicated covariate column would break the full-rank
    invariant, so covariates are redrawn from spawned substreams of
    ``seed_seq`` (deterministic per seed) until a draw raises no
    RankDeficiencyError.
    """
    for child in seed_seq.spawn(attempts):
        rng = np.random.default_rng(child)
        covariates = np.column_stack([(rng.random(len(exposures)) < rate).astype(float) for rate in rates])
        try:
            return Portfolio.from_arrays(exposures, losses, covariates)
        except RankDeficiencyError:
            continue
    raise RuntimeError(f"no full-rank covariate draw in {attempts} attempts")


def run_gap_experiment(n=100, scenario="increasing", heterogeneous=False, p=1.42, seed=0):
    """Fit both schemes on a scenario portfolio: ``(portfolio, fit_offset, fit_ratio)``.

    ``p`` is checked after the scenario's other inputs and before the book is drawn.
    """
    _check_scenario(n, scenario, seed)
    family = TweedieFamily(p=p)
    portfolio = build_scenario_portfolio(n, scenario, heterogeneous, seed)
    return portfolio, fit(portfolio, WeightScheme.OFFSET, family), fit(portfolio, WeightScheme.RATIO, family)


def gen_mimic_portfolio(share_midterm: float, n: int, seed: int) -> Portfolio:
    """Two-group portfolio shaped like a real book with mid-term cancellations.

    ``share_midterm`` of the contracts get uniform partial exposures (the
    rest exactly 1).  The full-exposure group's mean loss cost is 100 and
    the mid-term group's 2.45 / 0.63 times that, so its loss-cost
    reference dominates.  Losses are gamma draws (shape 1.5) zeroed with
    probability one half and rescaled so each group's sample mean hits
    its target exactly.  Three binary covariates have success rates 0.5,
    0.3 and 0.2.  Contracts are sorted by exposure ascending.
    """
    if not (0.0 < share_midterm < 1.0):
        raise ValueError(f"mid-term share must lie in (0, 1), got {share_midterm}")
    _check_integer("n", n)
    if n < 4:
        raise ValueError(f"need at least 4 contracts, got {n}")
    _check_seed(seed)

    n_mid = min(max(int(round(share_midterm * n)), 1), n - 1)
    n_full = n - n_mid
    root = np.random.SeedSequence(seed)
    exp_seed, loss_seed, cov_seed = root.spawn(3)

    exposures = np.concatenate(
        [np.sort(np.random.default_rng(exp_seed).uniform(EXPOSURE_LO, EXPOSURE_HI, n_mid)), np.ones(n_full)]
    )
    loss_rng = np.random.default_rng(loss_seed)
    mean_midterm = _MIMIC_MEAN_FULL * _MIMIC_REFERENCE_RATIO
    losses = np.concatenate(
        [_group_losses(loss_rng, n_mid, mean_midterm), _group_losses(loss_rng, n_full, _MIMIC_MEAN_FULL)]
    )
    return _full_rank_portfolio(cov_seed, exposures, losses, _MIMIC_COVARIATE_RATES)


def _group_losses(rng, size, target_mean):
    """Zero-inflated gamma draws rescaled to hit target_mean exactly."""
    positive = rng.random(size) >= _MIMIC_ZERO_MASS
    if not positive.any():
        positive[0] = True
    draws = np.where(positive, rng.gamma(shape=1.5, scale=1.0, size=size), 0.0)
    return draws * (target_mean * size / draws.sum())
