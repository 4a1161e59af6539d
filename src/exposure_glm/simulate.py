"""Seeded synthetic portfolios: rank-driven gap experiments and a two-group mimic.

The gap experiment draws exposures uniformly on [30/365, 335/365], sorts
them ascending, assigns deterministic loss costs by rank (increasing
``y_i = i`` or decreasing ``y_i = n - i + 1``) and optionally two binary
risk factors, then fits both schemes and reports per-contract gaps.

All randomness flows through numpy's PCG64 generator seeded from a
single 64-bit integer via SeedSequence spawning, so every artifact is
bit-reproducible across platforms from (seed, config) alone.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .balance import IndividualGaps, individual_gaps, portfolio_gap
from .model_core import Portfolio, TweedieFamily, WeightScheme
from .solver import FitConfig, FitResult, fit

__all__ = [
    "EXPOSURE_LO",
    "EXPOSURE_HI",
    "Scenario",
    "ScenarioConfig",
    "SyntheticPortfolio",
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
        if self.n < 2:
            raise ValueError(f"need at least 2 contracts, got {self.n}")
        if not (1.0 < self.p < 2.0):
            raise ValueError(f"variance power must satisfy 1 < p < 2, got {self.p}")


@dataclass
class SyntheticPortfolio:
    """A generated portfolio plus the metadata needed to regenerate it."""

    portfolio: Portfolio
    seed: int
    scenario: Scenario | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class GapExperiment:
    """Both fits and their per-contract gap curves for one scenario."""

    config: ScenarioConfig
    synthetic: SyntheticPortfolio
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


def build_scenario_portfolio(config: ScenarioConfig) -> SyntheticPortfolio:
    """Generate the portfolio for a gap experiment without fitting it."""
    root = np.random.SeedSequence(config.seed)
    exposure_seed, covariate_seed = root.spawn(2)
    exposures = gen_exposures(config.n, exposure_seed)
    losses = gen_losses(config.n, config.scenario)
    covariates = None
    if config.heterogeneous:
        if config.n < 3:
            raise ValueError("heterogeneous portfolios need at least 3 contracts")
        covariates = _full_rank_covariates(
            covariate_seed, lambda child: gen_covariates(config.n, child)
        )
    portfolio = Portfolio.from_arrays(exposures, losses, covariates)
    return SyntheticPortfolio(
        portfolio=portfolio,
        seed=config.seed,
        scenario=config.scenario,
        metadata={"heterogeneous": config.heterogeneous, "p": config.p},
    )


def _full_rank_covariates(seed_seq, draw, attempts=64):
    """First ``draw(child_seed)`` whose design with an intercept has full column rank.

    A constant or duplicated column would break the full-rank invariant,
    so covariates are redrawn from spawned substreams of ``seed_seq``
    (deterministic per seed).
    """
    for child in seed_seq.spawn(attempts):
        covariates = draw(child)
        design = np.column_stack([np.ones(covariates.shape[0]), covariates])
        if np.linalg.matrix_rank(design) == design.shape[1]:
            return covariates
    raise RuntimeError(f"no full-rank covariate draw in {attempts} attempts")


def run_gap_experiment(config: ScenarioConfig, fit_config: FitConfig | None = None) -> GapExperiment:
    """Fit both schemes on a scenario portfolio and collect gap curves.

    The default stopping tolerance is much tighter than the general
    solver default so that the ratio scheme's exact-balance identity is
    visible down to ~1e-10 in the portfolio totals.
    """
    synthetic = build_scenario_portfolio(config)
    if fit_config is None:
        fit_config = FitConfig(tolerance=1e-12)
    family = TweedieFamily(p=config.p)
    fit_offset = fit(synthetic.portfolio, WeightScheme.OFFSET, family, fit_config)
    fit_ratio = fit(synthetic.portfolio, WeightScheme.RATIO, family, fit_config)
    gaps_offset = individual_gaps(synthetic.portfolio, fit_offset)
    gaps_ratio = individual_gaps(synthetic.portfolio, fit_ratio)
    return GapExperiment(
        config=config,
        synthetic=synthetic,
        fit_offset=fit_offset,
        fit_ratio=fit_ratio,
        gaps_offset=gaps_offset,
        gaps_ratio=gaps_ratio,
        total_offset=portfolio_gap(gaps_offset),
        total_ratio=portfolio_gap(gaps_ratio),
    )


def gen_mimic_portfolio(
    share_midterm: float,
    n: int,
    seed: int,
    mean_full: float = 100.0,
    reference_ratio: float = 2.45 / 0.63,
    zero_mass: float = 0.5,
    n_covariates: int = 3,
) -> SyntheticPortfolio:
    """Two-group portfolio shaped like a real book with mid-term cancellations.

    ``share_midterm`` of the contracts get uniform partial exposures (the
    rest exactly 1), and the mid-term group's mean loss cost is
    ``reference_ratio`` times the full-exposure group's, so its loss-cost
    reference dominates.  Losses are zero-inflated gamma draws rescaled
    so each group's sample mean hits its configured target exactly.
    Contracts are sorted by exposure ascending.
    """
    if not (0.0 < share_midterm < 1.0):
        raise ValueError(f"mid-term share must lie in (0, 1), got {share_midterm}")
    if n < 4:
        raise ValueError(f"need at least 4 contracts, got {n}")
    if not (0.0 <= zero_mass < 1.0):
        raise ValueError(f"zero mass must lie in [0, 1), got {zero_mass}")

    n_mid = min(max(int(round(share_midterm * n)), 1), n - 1)
    n_full = n - n_mid
    root = np.random.SeedSequence(seed)
    exp_seed, loss_seed, cov_seed = root.spawn(3)

    exposures = np.concatenate(
        [np.sort(np.random.default_rng(exp_seed).uniform(EXPOSURE_LO, EXPOSURE_HI, n_mid)), np.ones(n_full)]
    )
    loss_rng = np.random.default_rng(loss_seed)
    losses = np.concatenate(
        [
            _group_losses(loss_rng, n_mid, mean_full * reference_ratio, zero_mass),
            _group_losses(loss_rng, n_full, mean_full, zero_mass),
        ]
    )
    covariates = None
    if n_covariates > 0:
        probs = [0.5, 0.3, 0.2, 0.6, 0.4, 0.25, 0.35, 0.45][:n_covariates]
        if len(probs) < n_covariates:
            probs = probs + [0.5] * (n_covariates - len(probs))

        def draw(child):
            rng = np.random.default_rng(child)
            return np.column_stack([(rng.random(n) < p).astype(float) for p in probs])

        covariates = _full_rank_covariates(cov_seed, draw)

    portfolio = Portfolio.from_arrays(exposures, losses, covariates)
    return SyntheticPortfolio(
        portfolio=portfolio,
        seed=seed,
        scenario=None,
        metadata={
            "share_midterm": n_mid / n,
            "n_midterm": n_mid,
            "n_full": n_full,
            "mean_midterm": mean_full * reference_ratio,
            "mean_full": mean_full,
        },
    )


def _group_losses(rng, size, target_mean, zero_mass):
    """Zero-inflated gamma draws rescaled to hit target_mean exactly."""
    positive = rng.random(size) >= zero_mass
    if not positive.any():
        positive[0] = True
    draws = np.where(positive, rng.gamma(shape=1.5, scale=1.0, size=size), 0.0)
    if draws[positive].min() <= 0.0:  # gamma draws are a.s. positive; guard anyway
        draws[positive] = np.maximum(draws[positive], 1e-12)
    return draws * (target_mean * size / draws.sum())
