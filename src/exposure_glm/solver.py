"""IRLS fitting of the coefficient vector for either weight scheme.

Each update is a Newton step on the observed information: it solves the
symmetric positive-definite system ``(X.T @ H @ X) @ delta = X.T @ D @ R``
with ``H = D * ((p - 1) * Q + (2 - p))``, so the dispersion cancels
exactly.  ``H`` is positive for ``1 <= p < 2`` because ``Q >= 0``, and
equals ``D`` at ``p = 1``.  The reported covariance is the inverse
expected information ``phi * (X.T @ D @ X)**-1`` at the final iterate,
factored on first read, once.  A fit converges by the score test or the
step test.  The score test: every ``|g_j|`` of the dispersion-scaled
gradient ``g = X.T @ D @ R`` is within four times its rounding floor
``eps * max_i |x_ij| * sum_i d_i (q_i + 1)`` (``q = z * exp(-s)``), which
scales with the losses and the portfolio size as ``g`` does.  The step
test: the last update, a full Newton step and not a halved one, moved
every ``s_i = (X @ beta)_i`` by at most ``4 * eps * (1 + |s_i|)``; it
stops the fits that no representable ``beta`` lets meet the score test,
as once ``|beta_0| >= 32`` one ulp of the intercept moves ``g_0`` by
about four floors.  Together they stop a fit at any loss scale in a few
steps (``TestStoppingRule``), and ``X @ delta`` is formed only after a
step whose Newton decrement ``delta @ g`` lets the step test pass.
Every step is monotone, as in R's ``glm2`` (Marschner 2011): it is
halved, at most 30 times, while the quasi-log-likelihood would fall by
more than its rounding, ``64 * eps * |objective|``.  The scoring pass at
each candidate yields that objective with the next score, ``D`` and
``Q``, so an iteration without halving costs one pass.  Intercept-only
portfolios admit closed-form maximum-likelihood estimates (weighted
means of the annualized losses) which also seed the IRLS iteration.  A
fit takes its book and the exponent ``c`` of its weights ``w = t ** c``;
the loop derives that start and ``w`` once, and the covariance reads the
same book and ``c``.  The same path, refusals of a book included, fits
the Poisson claim-count companion as the ``p = 1``, ``c = 1`` case.
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
    _exponent,
    _gram,
    _observed_weights,
    _scoring_pass,
    _weights,
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


@dataclass(eq=False)
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
    # (book, c, p, phi, beta) of ``covariance``: the fitted book, the exponent of its weights ``t**c`` and a copy of
    # the final iterate, so a fit holds no n-long array of its own and a write into ``beta_hat`` changes nothing
    _covariance_inputs: tuple = field(repr=False)

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
    return _weighted_mean(_weights(portfolio.exposures, _exponent(scheme, family.p)), portfolio.normalized)


def _weighted_mean(w, z):
    return float(np.dot(w, z) / w.sum())


def _fit(book, c, p, phi, beta=None):
    """Newton's method for the weighted Tweedie fit of ``book``'s ``z`` on its design, with weights ``w = t**c``.

    With no ``beta`` (every fit but the tests' ``fit_from``) it first refuses a book with no finite optimum
    (AllZeroLossError, then ``book._separation``) and starts from the closed form ``[log(sum(w*z) / sum(w)), 0,
    ..., 0]``.  Computes ``w`` once and solves ``(X.T H X) delta = X.T D R`` once per iteration until the score
    test or the step test holds (see the module docstring; the floor scales with ``book._column_scale``,
    ``max_i |x_ij|`` per column) or ``_MAX_ITERATIONS`` updates are spent.  A step that lowers the scoring pass's
    objective (``phi`` times the quasi-log-likelihood) by more than ``_OBJECTIVE_SLACK * |objective|``, or makes
    it non-finite, is halved up to ``_MAX_HALVINGS`` times, each try one more pass.  Returns the FitResult at the
    last iterate, whose covariance is factored on first read from the ``D`` at that iterate and scaled by the
    dispersion ``phi``, which also divides the objective trace.
    """
    if beta is None:
        if book.loss_costs.sum() <= 0.0:
            raise AllZeroLossError(f"cannot fit a portfolio whose {book._value_name}s are all zero")
        if (message := book._separation) is not None:
            raise SingularInformationError(message)
    design, z, w = book.design, book.normalized, _weights(book.exposures, c)
    if beta is None:
        beta = np.zeros(design.shape[1])
        beta[0] = math.log(_weighted_mean(w, z))  # the mean is positive: the book has a loss
    floor_scale = _FLOOR_MULTIPLE * _EPS * book._column_scale
    d, q, score, mass, value = _scoring_pass(beta, design, z, w, p)
    trace_beta = [beta.copy()]
    trace_objective = [value]
    small_step = False  # the last update was a full Newton step that passed the step test's k-long bound
    for iteration in range(_MAX_ITERATIONS + 1):
        converged = bool(np.all(np.abs(score) <= mass * floor_scale))
        if small_step and not converged:  # the step test, its n-long products paid only here
            converged = bool(np.all(np.abs(design @ delta) <= _FLOOR_MULTIPLE * _EPS * (1.0 + np.abs(design @ beta))))
        if converged or iteration == _MAX_ITERATIONS:
            break
        delta = _cho_solve(_cho_factor(_gram(design, _observed_weights(d, q, p))), score)
        del d, q  # so that the next pass does not hold them beside its own
        # delta @ score is sum(h_i (X delta)_i**2) <= mass * max_i (X delta)_i**2, and every |s_i| is at most
        # scale @ |beta|: where this fails, the step moves some s_i too far for the step test
        small = delta @ score <= mass * (_FLOOR_MULTIPLE * _EPS + floor_scale @ np.abs(beta)) ** 2
        least = value - _OBJECTIVE_SLACK * abs(value)
        for halvings in range(_MAX_HALVINGS + 1):
            candidate = beta + delta
            d, q, score, mass, value = _scoring_pass(candidate, design, z, w, p)
            if value >= least:
                break
            delta *= 0.5
        small_step = small and halvings == 0
        beta = candidate
        trace_beta.append(beta.copy())
        trace_objective.append(value)
    with np.errstate(over="ignore"):  # an overflow is inf, as in quasi_loglik
        trace_objective = np.asarray(trace_objective) / phi
    return FitResult(
        beta_hat=beta,
        iterations=iteration,
        converged=converged,
        gradient_norm=float(np.max(np.abs(score))),
        trace_beta=np.asarray(trace_beta),
        trace_objective=trace_objective,
        n_obs=book.n,
        _covariance_inputs=(book, c, p, phi, beta.copy()),
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
    return _fit(portfolio, _exponent(scheme, family.p), family.p, family.phi)
