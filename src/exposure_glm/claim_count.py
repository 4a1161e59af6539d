"""Claim-count companions: Poisson equivalence, zero-inflated non-equivalence.

For Poisson counts the offset fit (mean ``t * exp(x @ beta)`` on the raw
count) and the ratio fit (exposure-weighted regression on the
annualized count ``z = y / t``) have proportional score functions, so
they estimate identical coefficients.  Adding a zero-inflation mass
breaks that proportionality: the two log-likelihood surfaces then differ
by a non-constant function of ``beta`` whenever exposures are mixed.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# The benchmark's tracer hooks ``validate_design`` under this module's name.
from .model_core import Portfolio, WeightScheme, _check_beta, validate_design  # noqa: F401
from .solver import _fit

__all__ = [
    "CountData",
    "ZipEvidence",
    "poisson_fit",
    "zip_loglik",
    "zip_score",
    "zip_nonequivalence_check",
]

# ZIP probe coefficient vectors as (intercept, every other coefficient
# times its column's largest |x|), and the spread of the scheme difference
# above which the schemes disagree.
_ZIP_PROBES = ((0.0, 0.0), (0.2, 0.0), (0.1, 0.1), (-0.1, -0.1))
_ZIP_THRESHOLD = 1e-6


class CountData(Portfolio):
    """A portfolio whose values are claim counts.

    ``counts`` (the same array as ``loss_costs``) are non-negative
    integers stored as floats, and ``normalized`` is the annualized count
    ``counts / exposures``; everything else is as in ``Portfolio``.
    """

    _value_name = "count"
    _integral = True

    @property
    def counts(self):
        return self.loss_costs

    @functools.cached_property
    def _poisson(self):
        """This book's Poisson fit, for both schemes, run on first read by ``poisson_fit``; a refusal is not kept."""
        return _fit(self, WeightScheme.RATIO, 1.0, 1.0)  # p = 1, phi = 1: the weights are the exposures

    # Defined here rather than inherited: the benchmark's tracer hooks
    # ``CountData.__dict__["from_arrays"]`` to time count builds apart.
    @classmethod
    def from_arrays(
        cls, exposures, counts, covariates=None, contract_ids=None, covariate_names=None
    ):
        """Build a count dataset from parallel arrays (covariates may be None)."""
        return cls(exposures, counts, covariates, contract_ids, covariate_names)


@dataclass(frozen=True)
class ZipEvidence:
    """Probe-based evidence on whether the two schemes can disagree."""

    equivalent: bool
    spread: float
    differences: tuple


def poisson_fit(data: CountData, scheme: WeightScheme):
    """Log-link Poisson coefficients under either scheme, by the package's IRLS loop.

    The offset scheme maximizes ``sum(-t * exp(x @ b) + y * (x @ b))``; the
    ratio scheme ``sum(t * (-exp(x @ b) + z * (x @ b)))``.  With
    ``y = t * z`` the two objectives are the same function of ``b``,
    and both are the weighted Tweedie quasi-likelihood at ``p = 1``,
    where the offset weight ``t**(2-p)`` equals the ratio weight ``t``.
    So both schemes run one computation, ``fit``'s: the Tweedie IRLS loop
    at ``p = 1`` with weights ``t``, started at ``log(sum(y) / sum(t))``
    and stopped when every component of the score ``X.T @ (y - t * zeta)``
    reaches its rounding floor.  Like ``fit``, it first refuses a book
    with no finite optimum: AllZeroLossError when every count is zero,
    SingularInformationError when one covariate separates the counts.
    Raises RuntimeError when the loop reaches ``fit``'s cap of 100 updates
    unconverged.  The fit runs once per book, on the first call; every
    call returns a copy of its coefficients and raises as the first did.
    """
    scheme = WeightScheme(scheme)
    result = data._poisson
    if not result.converged:
        raise RuntimeError(f"Poisson {scheme.value} fit did not converge in {result.iterations} iterations")
    return result.beta_hat.copy()


def _check_zero_inflation(zero_inflation):
    if not (0.0 <= zero_inflation < 1.0):
        raise ValueError(f"zero inflation must lie in [0, 1), got {zero_inflation}")


def _zip_terms(zeta, data: CountData, scheme: WeightScheme):
    """``(weight, mean, count)`` of each contract's term in ``zip_loglik`` at ``zeta = exp(X @ beta)``."""
    if scheme is WeightScheme.OFFSET:
        return 1.0, data.exposures * zeta, data.counts
    return data.exposures, zeta, data.normalized


def _zip_sum(zeta, zero_inflation, data: CountData, scheme: WeightScheme, zero):
    """``zip_loglik`` at ``zeta = exp(X @ beta)``; ``zero``, ``data.counts == 0``, serves both schemes."""
    w, mu, count = _zip_terms(zeta, data, scheme)
    pi = zero_inflation
    w, pos = np.broadcast_to(w, mu.shape), ~zero
    zeros = w[zero] * np.log(pi + (1.0 - pi) * np.exp(-mu[zero]))
    positives = w[pos] * (math.log1p(-pi) - mu[pos] + count[pos] * np.log(mu[pos]))
    return float(zeros.sum()) + float(positives.sum())


def zip_loglik(beta, zero_inflation, data: CountData, scheme: WeightScheme) -> float:
    """Zero-inflated Poisson log-likelihood in ``beta`` (factorials dropped).

    ``zero_inflation``, in [0, 1), is the extra probability of a zero on
    top of the Poisson mass; it is a different quantity from the Tweedie
    dispersion even though the two share a symbol in places.

    The offset scheme scores the raw count ``y`` with weight 1 and mean
    ``t * exp(x @ beta)``; the ratio scheme scores the annualized count
    ``z = y / t`` with weight ``t`` and mean ``exp(x @ beta)``.  Both
    schemes share one zero set, as ``z`` is zero exactly where ``y`` is.
    Terms constant in ``beta`` (the factorials) are omitted, which also
    makes non-integer annualized counts admissible.
    """
    _check_zero_inflation(zero_inflation)
    scheme = WeightScheme(scheme)
    zeta = np.exp(data.design @ _check_beta(beta, data.q + 1))
    return _zip_sum(zeta, zero_inflation, data, scheme, data.counts == 0)


def zip_score(beta, zero_inflation, data: CountData, scheme: WeightScheme):
    """Gradient of ``zip_loglik`` in ``beta`` (zero inflation held fixed)."""
    _check_zero_inflation(zero_inflation)
    scheme = WeightScheme(scheme)
    w, mu, count = _zip_terms(np.exp(data.design @ _check_beta(beta, data.q + 1)), data, scheme)
    pi = zero_inflation
    coeff = np.where(
        data.counts == 0,
        -w * (1.0 - pi) * np.exp(-mu) * mu / (pi + (1.0 - pi) * np.exp(-mu)),
        w * (count - mu),
    )
    return data.design.T @ coeff


def zip_nonequivalence_check(data: CountData, zero_inflation: float = 0.3) -> ZipEvidence:
    """Probe whether the offset and ratio ZIP surfaces differ by a constant.

    Evaluates ``loglik_offset - loglik_ratio`` at four coefficient
    vectors (all zero; intercept 0.2; all 0.1; all -0.1), each slope
    divided by its column's largest ``|x|`` so that the probes move
    ``x @ beta`` by at most 0.1 per covariate whatever the covariates'
    units; a spread above 1e-6 means the schemes rank coefficient vectors
    differently and a choice between them is real.  With all exposures
    equal to one, or with no zero inflation, the difference is constant
    and the report shows equivalence.  A probe whose difference is not
    finite raises ValueError.
    """
    _check_zero_inflation(zero_inflation)
    differences, zero = [], data.counts == 0
    for intercept, slope in _ZIP_PROBES:
        beta = np.array((intercept,) + (slope,) * data.q) / data._column_scale
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            zeta = np.exp(data.design @ beta)  # one per probe: both schemes' terms are functions of it
            offset, ratio = (_zip_sum(zeta, zero_inflation, data, scheme, zero) for scheme in WeightScheme)
        if not math.isfinite(offset - ratio):
            raise ValueError(
                f"the ZIP probe at intercept {intercept}, other coefficients {slope} over each covariate's "
                f"largest |x|, gives a non-finite log-likelihood difference ({offset} - {ratio})"
            )
        differences.append(offset - ratio)
    spread = max(differences) - min(differences)
    return ZipEvidence(
        equivalent=spread <= _ZIP_THRESHOLD,
        spread=spread,
        differences=tuple(differences),
    )
