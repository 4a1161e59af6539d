"""Tweedie loss-cost GLMs under offset vs. ratio exposure weighting."""

from .balance import (
    ClassBalance,
    balance_factor,
    class_report,
    individual_gaps,
    portfolio_gap,
)
from .claim_count import (
    CountData,
    ZipEvidence,
    poisson_fit,
    zip_nonequivalence_check,
)
from .estimators import (
    Dominance,
    DominanceReport,
    MomentOrdering,
    coefficient_covariance,
    covariance_dominance,
    moment_ordering,
    premium_moments,
)
from .model_core import (
    Portfolio,
    RankDeficiencyError,
    SingularInformationError,
    TweedieFamily,
    WeightScheme,
    quasi_loglik,
)
from .simulate import (
    build_scenario_portfolio,
    gen_mimic_portfolio,
    run_gap_experiment,
)
from .solver import (
    AllZeroLossError,
    FitResult,
    fit,
    homogeneous_mle,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroLossError",
    "ClassBalance",
    "CountData",
    "Dominance",
    "DominanceReport",
    "FitResult",
    "MomentOrdering",
    "Portfolio",
    "RankDeficiencyError",
    "SingularInformationError",
    "TweedieFamily",
    "WeightScheme",
    "ZipEvidence",
    "balance_factor",
    "build_scenario_portfolio",
    "class_report",
    "coefficient_covariance",
    "covariance_dominance",
    "fit",
    "gen_mimic_portfolio",
    "homogeneous_mle",
    "individual_gaps",
    "moment_ordering",
    "poisson_fit",
    "portfolio_gap",
    "premium_moments",
    "quasi_loglik",
    "run_gap_experiment",
    "zip_nonequivalence_check",
]
