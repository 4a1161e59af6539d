"""IRLS fitting of the coefficient vector for either weight scheme.

The update solves the symmetric positive-definite system
``(X.T @ D @ X) @ delta = X.T @ D @ R`` so the dispersion cancels
exactly.  Convergence is declared on the dispersion-scaled gradient
``g = X.T @ D @ R``: either its sup-norm is below the configured
tolerance, or every ``|g_j|`` is within four times its rounding floor
``eps * max_i |x_ij| * sum_i d_i (q_i + 1)`` (``q = z * exp(-s)``).
The floor scales with the losses and the portfolio size as ``g``
does, so the second rule stops at the same iterate at any loss scale.
Every step is monotone, as in R's ``glm2`` (Marschner 2011): it is
halved, at most 30 times, while the quasi-log-likelihood would fall by
more than its rounding, ``64 * eps * |objective|``.  The scoring pass
at each candidate yields that objective with the next score and
information, so an iteration without halving costs one pass.  Intercept-only
portfolios admit closed-form maximum-likelihood estimates (weighted
means of the annualized losses) which also seed the IRLS iteration.  The same loop
fits the Poisson claim-count companion as the ``p = 1`` case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model_core import (
    Portfolio,
    TweedieFamily,
    WeightScheme,
    _cho_factor,
    _cho_solve,
    _covariance,
    _scheme_weights,
    _scoring_pass,
    quasi_loglik,  # noqa: F401  (the benchmark's tracer hooks it under this module's name)
)

__all__ = [
    "FitConfig",
    "FitResult",
    "AllZeroLossError",
    "homogeneous_mle",
    "fit",
]

_EPS = float(np.finfo(float).eps)
# A score component at most this many times its rounding floor is noise.
_FLOOR_MULTIPLE = 4.0
# A step may lower the objective by this much of its magnitude, its own
# rounding, before the step is halved.
_OBJECTIVE_SLACK = 64.0 * _EPS
_MAX_HALVINGS = 30


class AllZeroLossError(ValueError):
    """Every loss cost is zero, so the log-scale intercept is undefined."""


@dataclass
class FitConfig:
    """Stopping rule and initialization for the IRLS iteration.

    The fit converges when the sup-norm of the dispersion-scaled score
    drops below ``tolerance``, or when every score component is within
    a small multiple of its floating-point rounding floor, which scales
    with the losses and the number of contracts; the second rule makes
    the stop independent of the loss scale.  ``max_iterations`` bounds
    the number of updates.  ``init`` is ``"homogeneous"`` (log of the
    intercept-only closed-form estimate, remaining coordinates zero),
    ``"zeros"``, or an explicit coefficient vector used as-is.  Every
    update is halved, at most 30 times, while it would lower the
    quasi-log-likelihood by more than its rounding.
    """

    tolerance: float = 1e-8
    max_iterations: int = 100
    init: object = "homogeneous"

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
    quasi-log-likelihood values, equal to ``quasi_loglik`` there exactly.
    """

    beta_hat: np.ndarray
    covariance: np.ndarray
    iterations: int
    converged: bool
    gradient_norm: float
    trace_beta: np.ndarray
    trace_objective: np.ndarray
    n_obs: int


def homogeneous_mle(portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily) -> float:
    """Closed-form intercept-only estimate: the weighted mean of ``z``.

    Under the ratio weighting this reduces to total losses over total
    exposure, which is what makes the ratio fit financially balanced.
    """
    w = _scheme_weights(WeightScheme(scheme), portfolio.exposures, family.p)
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


def _irls(design, z, w, p, beta, config: FitConfig):
    """Fisher scoring for the weighted Tweedie fit on ``z`` with weights ``w``.

    Starts from ``beta`` and solves ``(X.T D X) delta = X.T D R`` once
    per iteration until the score meets ``config.tolerance`` or its
    rounding floor (see the module docstring) or the budget runs out.
    A step that lowers the scoring pass's objective (``phi`` times the
    quasi-log-likelihood) by more than ``_OBJECTIVE_SLACK * |objective|``,
    or makes it non-finite, is halved up to ``_MAX_HALVINGS`` times, each
    try one more pass.  Returns ``(beta, factor, converged, gradient_norm,
    trace_beta, trace_objective)`` with ``factor`` the Cholesky factor of
    ``X.T D X`` at the returned ``beta``.
    """
    # max_i |x_ij| per column, without an n x k copy of |X|
    floor_scale = _FLOOR_MULTIPLE * _EPS * np.maximum(design.max(axis=0), -design.min(axis=0))
    info, score, mass, value = _scoring_pass(beta, design, z, w, p)
    trace_beta = [beta.copy()]
    trace_objective = [value]
    for iteration in range(config.max_iterations + 1):
        factor = _cho_factor(info)
        gradient_norm = float(np.max(np.abs(score)))
        converged = gradient_norm < config.tolerance or bool(
            np.all(np.abs(score) <= mass * floor_scale)
        )
        if converged or iteration == config.max_iterations:
            break
        delta = _cho_solve(factor, score)
        least = value - _OBJECTIVE_SLACK * abs(value)
        for _ in range(_MAX_HALVINGS + 1):
            candidate = beta + delta
            info, score, mass, value = _scoring_pass(candidate, design, z, w, p)
            if value >= least:
                break
            delta *= 0.5
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
        trace_objective=np.asarray(trace_objective) / family.phi,
        n_obs=portfolio.n,
    )
