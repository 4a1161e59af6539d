"""IRLS fitting of the coefficient vector for either weight scheme.

Each update is a Newton step on the observed information: it solves the
symmetric positive-definite system ``(X.T @ H @ X) @ delta = X.T @ D @ R``
with ``H = D * ((p - 1) * Q + (2 - p))``, so the dispersion cancels
exactly.  ``H`` is positive for ``1 <= p < 2`` because ``Q >= 0``, and
equals ``D`` at ``p = 1``.  The reported covariance is the inverse
expected information ``phi * (X.T @ D @ X)**-1`` at the final iterate,
factored on first read, once.  Convergence is declared on the
dispersion-scaled gradient ``g = X.T @ D @ R`` by one rule: every
``|g_j|`` is within four times its rounding floor
``eps * max_i |x_ij| * sum_i d_i (q_i + 1)`` (``q = z * exp(-s)``).
The floor scales with the losses and the portfolio size as ``g`` does,
so the fit stops at the same iterate at any loss scale.  Every step is
monotone, as in R's ``glm2`` (Marschner 2011): it is halved, at most 30
times, while the quasi-log-likelihood would fall by more than its
rounding, ``64 * eps * |objective|``.  The scoring pass at each candidate
yields that objective with the next score, ``D`` and ``Q``, so an
iteration without halving costs one pass.  Intercept-only portfolios admit
closed-form maximum-likelihood estimates (weighted means of the
annualized losses) which also seed the IRLS iteration; the loop derives
that start and the scheme's weights ``w`` itself, once per fit.  The
same path, refusals of a book included, fits the Poisson claim-count
companion as the ``p = 1`` case.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model_core import (
    Portfolio,
    SingularInformationError,
    TweedieFamily,
    WeightScheme,
    _cho_factor,
    _cho_solve,
    _covariance,
    _gram,
    _observed_weights,
    _scheme_weights,
    _scoring_pass,
    quasi_loglik,  # noqa: F401  (the benchmark's tracer hooks it under this module's name)
)

__all__ = [
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
# Updates a fit may take before it stops unconverged.
_MAX_ITERATIONS = 100


class AllZeroLossError(ValueError):
    """Every loss cost (or count) is zero, so the log-scale intercept is undefined."""


@dataclass
class FitResult:
    """Converged (or stalled) fit: estimate, covariance, and trace.

    ``covariance`` is ``phi * (X.T @ D @ X)**-1``, the inverse expected
    (not observed) information, at the final coefficient vector, factorised
    on first read, once; ``gradient_norm`` is the sup-norm of the
    dispersion-scaled gradient there.  ``trace_beta`` holds every iterate
    starting from the closed-form start, ``trace_objective`` the matching
    quasi-log-likelihood values, equal to ``quasi_loglik`` there exactly.
    """

    beta_hat: np.ndarray
    iterations: int
    converged: bool
    gradient_norm: float
    trace_beta: np.ndarray
    trace_objective: np.ndarray
    n_obs: int
    # (design, exposures, scheme, p, phi, beta) of ``covariance``: the book's arrays and a copy of the final
    # iterate, so a fit holds no n-long array of its own and a write into ``beta_hat`` changes nothing
    _covariance_inputs: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def covariance(self):
        """``phi * (X.T @ D @ X)**-1`` at the final iterate, factorised on first read and kept.

        A fit whose covariance is never read factorises nothing after its last step.  Raises
        SingularInformationError, on that read, when ``X.T @ D @ X`` is numerically singular there, and
        ValueError when ``phi`` scales it past the float range.
        """
        return _covariance(*self._covariance_inputs)


def homogeneous_mle(portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily) -> float:
    """Closed-form intercept-only estimate: the weighted mean of ``z``.

    Under the ratio weighting this reduces to total losses over total
    exposure, which is what makes the ratio fit financially balanced.
    """
    w = _scheme_weights(WeightScheme(scheme), portfolio.exposures, family.p)
    return _weighted_mean(w, portfolio.normalized)


def _weighted_mean(w, z):
    return float(np.dot(w, z) / w.sum())


def _irls(design, z, exposures, scheme, p, phi, beta, max_iterations, scale):
    """Newton's method for the weighted Tweedie fit on ``z`` with ``w``, the scheme's weights of ``exposures``.

    Computes ``w`` once and starts from ``beta``, or, where it is None, from
    the closed form ``[log(sum(w*z) / sum(w)), 0, ..., 0]``.  Solves
    ``(X.T H X) delta = X.T D R`` once per iteration until every score
    component is within its rounding floor (see the module docstring;
    ``scale`` is ``max_i |x_ij|`` per column, ``Portfolio._column_scale``)
    or ``max_iterations`` updates are spent.
    A step that lowers the scoring pass's objective (``phi`` times the
    quasi-log-likelihood) by more than ``_OBJECTIVE_SLACK * |objective|``,
    or makes it non-finite, is halved up to ``_MAX_HALVINGS`` times, each
    try one more pass.  Returns the FitResult at the last iterate, whose
    covariance is factored on first read from the ``D`` at that iterate
    and scaled by the dispersion ``phi``, which also divides the objective trace.
    """
    w = _scheme_weights(scheme, exposures, p)
    if beta is None:
        beta = np.zeros(design.shape[1])
        beta[0] = math.log(_weighted_mean(w, z))  # the mean is positive: ``_fit`` refuses a book without a loss
    floor_scale = _FLOOR_MULTIPLE * _EPS * scale
    d, q, score, mass, value = _scoring_pass(beta, design, z, w, p)
    trace_beta = [beta.copy()]
    trace_objective = [value]
    for iteration in range(max_iterations + 1):
        gradient_norm = float(np.max(np.abs(score)))
        converged = bool(np.all(np.abs(score) <= mass * floor_scale))
        if converged or iteration == max_iterations:
            break
        delta = _cho_solve(_cho_factor(_gram(design, _observed_weights(d, q, p))), score)
        del d, q  # so that the next pass does not hold them beside its own
        least = value - _OBJECTIVE_SLACK * abs(value)
        for _ in range(_MAX_HALVINGS + 1):
            candidate = beta + delta
            d, q, score, mass, value = _scoring_pass(candidate, design, z, w, p)
            if value >= least:
                break
            delta *= 0.5
        beta = candidate
        trace_beta.append(beta.copy())
        trace_objective.append(value)
    with np.errstate(over="ignore"):  # an overflow is inf, as in quasi_loglik
        trace_objective = np.asarray(trace_objective) / phi
    return FitResult(
        beta_hat=beta,
        iterations=iteration,
        converged=converged,
        gradient_norm=gradient_norm,
        trace_beta=np.asarray(trace_beta),
        trace_objective=trace_objective,
        n_obs=len(z),
        _covariance_inputs=(design, exposures, scheme, p, phi, beta.copy()),
    )


def _fit(portfolio: Portfolio, scheme: WeightScheme, p, phi):
    """Refuse a book with no finite optimum, else run ``_irls`` from its closed-form start, for at most 100 updates."""
    if portfolio.loss_costs.sum() <= 0.0:
        raise AllZeroLossError(f"cannot fit a portfolio whose {portfolio._value_name}s are all zero")
    if (message := portfolio._separation) is not None:
        raise SingularInformationError(message)
    return _irls(
        portfolio.design, portfolio.normalized, portfolio.exposures, scheme, p, phi, None, _MAX_ITERATIONS,
        portfolio._column_scale,
    )


def fit(portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily) -> FitResult:
    """Fit the coefficient vector by IRLS under the given weight scheme.

    The iteration starts at ``[log homogeneous_mle, 0, ..., 0]`` and takes
    at most 100 updates, a fixed cap, each halved while it would lower
    the quasi-log-likelihood.  Returns a FitResult with
    ``converged=False`` (rather than raising) when the cap is
    reached.  A singular weighted information matrix aborts with
    SingularInformationError, and so does a covariate whose positive
    losses all sit at its maximum, or all at its minimum, before any
    iteration: no finite coefficient maximizes the quasi-log-likelihood
    of such a book.  The covariance is factorised when first read, once;
    a singular final ``X.T @ D @ X`` raises SingularInformationError there.
    """
    return _fit(portfolio, WeightScheme(scheme), family.p, family.phi)
