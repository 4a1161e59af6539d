"""Claim-count companions: Poisson equivalence, zero-inflated non-equivalence.

For Poisson counts the offset fit (mean ``t * exp(x @ beta)`` on the raw
count) and the ratio fit (exposure-weighted regression on the
annualized count ``z = y / t``) have proportional score functions, so
they estimate identical coefficients: ``poisson_fit`` runs one fit for
both.  Adding a zero-inflation mass breaks that proportionality: the two
log-likelihood surfaces then differ by a non-constant function of
``beta`` whenever exposures are mixed, as ``zip_nonequivalence_check`` probes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# The benchmark's tracer hooks ``validate_design`` under this module's name.
from .model_core import Portfolio, WeightScheme, validate_design  # noqa: F401
from .solver import _fit

__all__ = [
    "CountData",
    "ZipEvidence",
    "poisson_fit",
    "zip_nonequivalence_check",
]

# The coefficient vectors at which zip_nonequivalence_check evaluates
# both schemes' ZIP log-likelihoods, as (intercept, every other
# coefficient times its column's largest |x|), and the spread of their
# difference above which the schemes disagree.
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


def _zip_log_likelihoods(data: CountData, zero_inflation, betas):
    """The offset and ratio zero-inflated Poisson log-likelihoods (factorials dropped), a pair per ``beta``.

    Both schemes share one zero set, as ``z = y / t`` is zero exactly where
    ``y`` is, so the book is split into its zero-count rows and the others
    once, and each ``exp(X @ beta)`` once per ``beta``.
    """
    pi, zero = zero_inflation, data.counts == 0
    pos = ~zero
    t_zero, t_pos, y_pos, z_pos = data.exposures[zero], data.exposures[pos], data.counts[pos], data.normalized[pos]
    logliks = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for beta in betas:
            zeta = np.exp(data.design @ beta)
            zeta_zero, zeta_pos = zeta[zero], zeta[pos]
            del zeta  # only the halves are needed; holding zeta too adds an n-long array to the peak
            logliks.append([
                float((w_zero * np.log(pi + (1.0 - pi) * np.exp(-mu_zero))).sum())
                + float((w_pos * (math.log1p(-pi) - mu_pos + count * np.log(mu_pos))).sum())
                for w_zero, mu_zero, w_pos, mu_pos, count in (
                    (1.0, t_zero * zeta_zero, 1.0, t_pos * zeta_pos, y_pos),  # offset: weight 1, mean t * zeta, count y
                    (t_zero, zeta_zero, t_pos, zeta_pos, z_pos),  # ratio: weight t, mean zeta, count z
                )
            ])
    return logliks


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
    finite raises ValueError.  ``zero_inflation``, in [0, 1), is the extra
    probability of a zero on top of the Poisson mass, not a dispersion.
    """
    _check_zero_inflation(zero_inflation)
    betas = [np.array((intercept,) + (slope,) * data.q) / data._column_scale for intercept, slope in _ZIP_PROBES]
    differences = []
    for (intercept, slope), (offset, ratio) in zip(_ZIP_PROBES, _zip_log_likelihoods(data, zero_inflation, betas)):
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
