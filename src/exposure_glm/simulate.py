"""Seeded synthetic portfolios: rank-driven gap experiments and a two-group mimic.

The gap experiment draws exposures uniformly on [30/365, 335/365], sorts
them ascending, assigns deterministic loss costs by rank (increasing
``y_i = i`` or decreasing ``y_i = n - i + 1``) and optionally two binary
risk factors, then fits both schemes and reports per-contract gaps.

All randomness flows through numpy's PCG64 generator seeded from a
single 64-bit integer via SeedSequence spawning, so every artifact is
bit-reproducible across platforms from (seed, config) alone.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .balance import IndividualGaps, individual_gaps, portfolio_gap
from .model_core import Portfolio, RankDeficiencyError, TweedieFamily, WeightScheme, _check_integer
from .solver import FitResult, fit

__all__ = [
    "EXPOSURE_LO",
    "EXPOSURE_HI",
    "Scenario",
    "ScenarioConfig",
    "GapExperiment",
    "gen_exposures",
    "gen_losses",
    "gen_covariates",
    "build_scenario_portfolio",
    "run_gap_experiment",
    "gen_mimic_portfolio",
]

EXPOSURE_LO = 30.0 / 365.0
EXPOSURE_HI = 335.0 / 365.0

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


@dataclass
class ScenarioConfig:
    """Setup of one gap experiment."""

    n: int = 100
    scenario: Scenario = Scenario.INCREASING
    heterogeneous: bool = False
    p: float = 1.42
    seed: int = 0

    def __post_init__(self):
        self.scenario = Scenario(self.scenario)
        _check_integer("n", self.n)
        if self.n < 2:
            raise ValueError(f"need at least 2 contracts, got {self.n}")
        TweedieFamily(p=self.p)


@dataclass
class GapExperiment:
    """Both fits and their per-contract gap curves for one scenario."""

    portfolio: Portfolio
    fit_offset: FitResult
    fit_ratio: FitResult
    gaps_offset: IndividualGaps
    gaps_ratio: IndividualGaps
    total_offset: float
    total_ratio: float

    def columns(self):
        """Columns ``rank``, ``exposure``, ``gap_offset``, ``gap_ratio``, rank ascending."""
        return {
            "rank": np.arange(1, len(self.gaps_offset) + 1),
            "exposure": self.gaps_offset.exposure,
            "gap_offset": self.gaps_offset.gap,
            "gap_ratio": self.gaps_ratio.gap,
        }


def gen_exposures(n: int, seed) -> np.ndarray:
    """n exposures drawn uniformly on [30/365, 335/365], sorted ascending."""
    if n < 2:
        raise ValueError(f"need at least 2 contracts, got {n}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(EXPOSURE_LO, EXPOSURE_HI, n))


def gen_losses(n: int, scenario) -> np.ndarray:
    """Deterministic loss costs by exposure rank ``i = 1..n``.

    Increasing: ``y_i = i``.  Decreasing: ``y_i = n - i + 1``, the exact
    reversal.
    """
    scenario = Scenario(scenario)
    ranks = np.arange(1, n + 1, dtype=float)
    if scenario is Scenario.INCREASING:
        return ranks
    return n - ranks + 1.0


def gen_covariates(n: int, seed) -> np.ndarray:
    """Two binary per-contract risk factors with success rates 0.75 and 0.15."""
    rng = np.random.default_rng(seed)
    x1 = (rng.random(n) < 0.75).astype(float)
    x2 = (rng.random(n) < 0.15).astype(float)
    return np.column_stack([x1, x2])


def build_scenario_portfolio(config: ScenarioConfig) -> Portfolio:
    """Generate the portfolio for a gap experiment without fitting it."""
    root = np.random.SeedSequence(config.seed)
    exposure_seed, covariate_seed = root.spawn(2)
    exposures = gen_exposures(config.n, exposure_seed)
    losses = gen_losses(config.n, config.scenario)
    if not config.heterogeneous:
        return Portfolio.from_arrays(exposures, losses)
    return _full_rank_portfolio(
        covariate_seed, lambda child: Portfolio.from_arrays(exposures, losses, gen_covariates(config.n, child))
    )


def _full_rank_portfolio(seed_seq, build, attempts=64):
    """First ``build(child_seed)`` that raises no RankDeficiencyError.

    A constant or duplicated covariate column would break the full-rank
    invariant, so covariates are redrawn from spawned substreams of
    ``seed_seq`` (deterministic per seed).
    """
    for child in seed_seq.spawn(attempts):
        try:
            return build(child)
        except RankDeficiencyError:
            continue
    raise RuntimeError(f"no full-rank covariate draw in {attempts} attempts")


def run_gap_experiment(config: ScenarioConfig) -> GapExperiment:
    """Fit both schemes on a scenario portfolio and collect gap curves."""
    portfolio = build_scenario_portfolio(config)
    family = TweedieFamily(p=config.p)
    fit_offset = fit(portfolio, WeightScheme.OFFSET, family)
    fit_ratio = fit(portfolio, WeightScheme.RATIO, family)
    gaps_offset = individual_gaps(portfolio, fit_offset)
    gaps_ratio = individual_gaps(portfolio, fit_ratio)
    return GapExperiment(
        portfolio=portfolio,
        fit_offset=fit_offset,
        fit_ratio=fit_ratio,
        gaps_offset=gaps_offset,
        gaps_ratio=gaps_ratio,
        total_offset=portfolio_gap(gaps_offset),
        total_ratio=portfolio_gap(gaps_ratio),
    )


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

    def build(child):
        rng = np.random.default_rng(child)
        covariates = np.column_stack([(rng.random(n) < rate).astype(float) for rate in _MIMIC_COVARIATE_RATES])
        return Portfolio.from_arrays(exposures, losses, covariates)

    return _full_rank_portfolio(cov_seed, build)


def _group_losses(rng, size, target_mean):
    """Zero-inflated gamma draws rescaled to hit target_mean exactly."""
    positive = rng.random(size) >= _MIMIC_ZERO_MASS
    if not positive.any():
        positive[0] = True
    draws = np.where(positive, rng.gamma(shape=1.5, scale=1.0, size=size), 0.0)
    return draws * (target_mean * size / draws.sum())
