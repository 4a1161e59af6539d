"""IRLS fitting of the coefficient vector for either weight scheme.

The update solves the symmetric positive-definite system
``(X.T @ D @ X) @ delta = X.T @ D @ R`` so the dispersion cancels
exactly; convergence is declared on the sup-norm of the
dispersion-scaled gradient ``X.T @ D @ R``.  Intercept-only portfolios
admit closed-form maximum-likelihood estimates (weighted means of the
annualized losses) which also seed the IRLS iteration.  The same loop
fits the Poisson claim-count companion as the ``p = 1`` case.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .model_core import (
    Portfolio,
    TweedieFamily,
    WeightScheme,
    _cho_factor,
    _covariance,
    _normal_equations,
    _scheme_weights,
    quasi_loglik,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "AllZeroLossError",
    "homogeneous_mle",
    "fit",
]

_MAX_HALVINGS = 30


class AllZeroLossError(ValueError):
    """Every loss cost is zero, so the log-scale intercept is undefined."""


@dataclass
class FitConfig:
    """Stopping rule and initialization for the IRLS iteration.

    ``init`` is ``"homogeneous"`` (log of the intercept-only closed-form
    estimate, remaining coordinates zero), ``"zeros"``, or an explicit
    coefficient vector used as-is.  ``step_halving`` enables an optional
    safeguard that halves the update whenever the quasi-log-likelihood
    would decrease; it is off by default because the plain recursion
    converges cleanly on well-posed portfolios.
    """

    tolerance: float = 1e-8
    max_iterations: int = 100
    init: object = "homogeneous"
    step_halving: bool = False

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class FitResult:
    """Converged (or stalled) fit: estimate, covariance, and trace.

    ``covariance`` is ``phi * (X.T @ D @ X)**-1`` evaluated at the final
    coefficient vector; ``gradient_norm`` is the sup-norm of the
    dispersion-scaled gradient there.  ``trace_beta`` holds every iterate
    starting from the initialization, ``trace_objective`` the matching
    quasi-log-likelihood values.
    """

    beta_hat: np.ndarray
    covariance: np.ndarray
    iterations: int
    converged: bool
    gradient_norm: float
    trace_beta: np.ndarray
    trace_objective: np.ndarray
    scheme: WeightScheme
    n_obs: int
    config: FitConfig = field(repr=False, default_factory=FitConfig)


def homogeneous_mle(portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily) -> float:
    """Closed-form intercept-only estimate: the weighted mean of ``z``.

    Under the ratio weighting this reduces to total losses over total
    exposure, which is what makes the ratio fit financially balanced.
    """
    if len(portfolio) == 0:
        raise ValueError("portfolio is empty")
    scheme = WeightScheme(scheme)
    w = _scheme_weights(scheme, portfolio.exposures, family.p)
    return float(np.dot(w, portfolio.normalized) / w.sum())


def _init_beta(portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily, config: FitConfig):
    """Starting coefficient vector according to ``config.init``."""
    k = portfolio.q + 1
    init = config.init
    if isinstance(init, str):
        if init == "zeros":
            return np.zeros(k)
        if init == "homogeneous":
            # positive: fit has already rejected a portfolio without losses
            beta = np.zeros(k)
            beta[0] = math.log(homogeneous_mle(portfolio, scheme, family))
            return beta
        raise ValueError(f"unknown init strategy {init!r}")
    beta = np.asarray(init, dtype=float).copy()
    if beta.shape != (k,):
        raise ValueError(f"init vector must have length {k}, got shape {beta.shape}")
    return beta


def _irls(design, z, w, p, objective, beta, config: FitConfig):
    """Fisher scoring for the weighted Tweedie fit on ``z`` with weights ``w``.

    Starts from ``beta`` and solves ``(X.T D X) delta = X.T D R`` once
    per iteration until the sup-norm of ``X.T D R`` drops below
    ``config.tolerance`` or the budget runs out.  ``objective`` is
    evaluated at every iterate for the trace and step-halving.  Returns
    ``(beta, factor, converged, gradient_norm, trace_beta,
    trace_objective)`` with ``factor`` the Cholesky factor of
    ``X.T D X`` at the returned ``beta``.
    """
    trace_beta = [beta.copy()]
    trace_objective = [objective(beta)]
    for iteration in range(config.max_iterations + 1):
        info, score = _normal_equations(beta, design, z, w, p)
        factor = _cho_factor(info)
        gradient_norm = float(np.max(np.abs(score)))
        converged = gradient_norm < config.tolerance
        if converged or iteration == config.max_iterations:
            break
        delta = scipy.linalg.cho_solve(factor, score)
        candidate = beta + delta
        value = objective(candidate)
        if config.step_halving:
            halvings = 0
            while value < trace_objective[-1] and halvings < _MAX_HALVINGS:
                delta *= 0.5
                candidate = beta + delta
                value = objective(candidate)
                halvings += 1
        beta = candidate
        trace_beta.append(beta.copy())
        trace_objective.append(value)
    return beta, factor, converged, gradient_norm, trace_beta, trace_objective


def fit(
    portfolio: Portfolio,
    scheme: WeightScheme,
    family: TweedieFamily,
    config: FitConfig | None = None,
) -> FitResult:
    """Fit the coefficient vector by IRLS under the given weight scheme.

    Returns a FitResult with ``converged=False`` (rather than raising)
    when the iteration budget is exhausted; a singular weighted
    information matrix aborts with SingularInformationError.
    """
    scheme = WeightScheme(scheme)
    config = config if config is not None else FitConfig()
    if portfolio.loss_costs.sum() <= 0.0:
        raise AllZeroLossError("cannot fit a portfolio whose loss costs are all zero")

    beta, factor, converged, gradient_norm, trace_beta, trace_objective = _irls(
        portfolio.design,
        portfolio.normalized,
        _scheme_weights(scheme, portfolio.exposures, family.p),
        family.p,
        lambda b: quasi_loglik(b, portfolio, scheme, family),
        _init_beta(portfolio, scheme, family, config),
        config,
    )
    return FitResult(
        beta_hat=beta,
        covariance=_covariance(factor, family.phi),
        iterations=len(trace_beta) - 1,
        converged=converged,
        gradient_norm=gradient_norm,
        trace_beta=np.asarray(trace_beta),
        trace_objective=np.asarray(trace_objective),
        scheme=scheme,
        n_obs=portfolio.n,
        config=config,
    )
