"""IRLS fitting of the coefficient vector for either weight scheme.

Each update is a Newton step on the observed information: it solves the
symmetric positive-definite system ``(X.T @ H @ X) @ delta = X.T @ D @ R``
with ``H = D * ((p - 1) * Q + (2 - p))``, so the dispersion cancels
exactly.  ``H`` is positive for ``1 <= p < 2`` because ``Q >= 0``, and
equals ``D`` at ``p = 1``.  The reported covariance is the inverse
expected information ``phi * (X.T @ D @ X)**-1`` at the final iterate,
factored once after the loop.  Convergence is declared on the
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
annualized losses) which also seed the IRLS iteration.  The same path,
refusals of a book included, fits the Poisson claim-count companion as
the ``p = 1`` case.
"""

import math
from dataclasses import dataclass

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
    (not observed) information, at the final coefficient vector;
    ``gradient_norm`` is the sup-norm of the dispersion-scaled gradient
    there.  ``trace_beta`` holds every iterate
    starting from the closed-form start, ``trace_objective`` the matching
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
    return _weighted_mean(w, portfolio.normalized)


def _weighted_mean(w, z):
    return float(np.dot(w, z) / w.sum())


def _check_separation(portfolio: Portfolio):
    """Raise SingularInformationError if a covariate holds every loss at its maximum or its minimum.

    Then moving the predictor along ``c * (x_j - max x_j)`` (or the minimum)
    lowers the premium of loss-free rows only, which raises the
    quasi-log-likelihood without bound, so no finite optimum exists: the
    iteration would drift until ``D`` under- or overflows, or stop at its
    rounding floor at an arbitrary coefficient (Santos Silva & Tenreyro 2010).
    """
    covariates = portfolio.design[:, 1:].T  # one contiguous row per covariate
    lo, hi = covariates.min(axis=1), covariates.max(axis=1)
    losses = covariates.compress(portfolio.loss_costs > 0.0, axis=1)  # twice as fast as a boolean index
    at_hi, at_lo = losses.min(axis=1) == hi, losses.max(axis=1) == lo
    separated = (lo < hi) & (at_hi | at_lo)
    if separated.any():
        j = int(separated.argmax())
        x, name = covariates[j], portfolio.covariate_names[j]
        op, level = ("<", hi[j]) if at_hi[j] else (">", lo[j])
        if ((x == lo[j]) | (x == hi[j])).all():  # two-valued: name the loss-free level
            op, level = "=", lo[j] if at_hi[j] else hi[j]
        noun = portfolio._value_name.split()[0]  # "loss" of a loss cost, "count" of a count
        raise SingularInformationError(f"no finite optimum: every {noun} is zero where {name} {op} {level:.17g}")


def _irls(design, z, w, p, phi, beta, max_iterations):
    """Newton's method for the weighted Tweedie fit on ``z`` with weights ``w``.

    Starts from ``beta`` and solves ``(X.T H X) delta = X.T D R`` once
    per iteration until every score component is within its rounding
    floor (see the module docstring) or ``max_iterations`` updates are spent.
    A step that lowers the scoring pass's objective (``phi`` times the
    quasi-log-likelihood) by more than ``_OBJECTIVE_SLACK * |objective|``,
    or makes it non-finite, is halved up to ``_MAX_HALVINGS`` times, each
    try one more pass.  Returns the FitResult at the last iterate, its
    covariance factored from the ``D`` of that iterate's pass and scaled
    by the dispersion ``phi``, which also divides the objective trace.
    """
    # max_i |x_ij| per column, down the contiguous columns of the column-major design
    floor_scale = _FLOOR_MULTIPLE * _EPS * np.abs(design).max(axis=0)
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
    return FitResult(
        beta_hat=beta,
        covariance=_covariance(_cho_factor(_gram(design, d)), phi),
        iterations=iteration,
        converged=converged,
        gradient_norm=gradient_norm,
        trace_beta=np.asarray(trace_beta),
        trace_objective=np.asarray(trace_objective) / phi,
        n_obs=len(z),
    )


def _fit(portfolio: Portfolio, w, p, phi):
    """Refuse a book with no finite optimum, else run ``_irls`` from ``[log(sum(w*z) / sum(w)), 0, ..., 0]``.

    The loop takes at most ``_MAX_ITERATIONS`` (100) updates.
    """
    if portfolio.loss_costs.sum() <= 0.0:
        raise AllZeroLossError(f"cannot fit a portfolio whose {portfolio._value_name}s are all zero")
    _check_separation(portfolio)
    start = np.zeros(portfolio.q + 1)
    start[0] = math.log(_weighted_mean(w, portfolio.normalized))  # positive: the book has a loss
    return _irls(portfolio.design, portfolio.normalized, w, p, phi, start, _MAX_ITERATIONS)


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
    of such a book.
    """
    scheme = WeightScheme(scheme)
    w = _scheme_weights(scheme, portfolio.exposures, family.p)
    return _fit(portfolio, w, family.p, family.phi)
