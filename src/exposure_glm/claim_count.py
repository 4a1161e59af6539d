"""Claim-count companions: Poisson equivalence, zero-inflated non-equivalence.

For Poisson counts the offset fit (mean ``t * exp(x @ beta)`` on the raw
count) and the ratio fit (exposure-weighted regression on the
annualized count ``z = y / t``) have proportional score functions, so
they estimate identical coefficients.  Adding a zero-inflation mass
breaks that proportionality: the two log-likelihood surfaces then differ
by a non-constant function of ``beta`` whenever exposures are mixed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model_core import _validated_columns, validate_design

__all__ = [
    "CountData",
    "ZipParams",
    "ZipEvidence",
    "poisson_fit",
    "poisson_score",
    "zip_loglik",
    "zip_score",
    "zip_nonequivalence_check",
]

_MODES = ("offset", "ratio")


class CountData:
    """Validated count dataset held as columns, with intercept-led full-rank design.

    ``exposures`` lie in (0, 1], ``counts`` are non-negative integers
    stored as floats, and ``normalized`` is the annualized count
    ``counts / exposures``.
    """

    def __init__(self, exposures, counts, covariates=None):
        exposures, counts, design = _validated_columns(exposures, counts, covariates, "count")
        bad = np.flatnonzero(counts != np.floor(counts))
        if bad.size:
            raise ValueError(
                f"count must be a non-negative integer, got {counts[bad[0]]} "
                f"for the contract at index {bad[0]}"
            )
        validate_design(design)
        self.design = design
        self.exposures = exposures
        self.counts = counts
        self.normalized = counts / exposures
        self.n, self.q = design.shape[0], design.shape[1] - 1

    @classmethod
    def from_arrays(cls, exposures, counts, covariates=None):
        """Build a count dataset from parallel arrays (covariates may be None)."""
        return cls(exposures, counts, covariates)

    def __len__(self):
        return self.n


@dataclass(frozen=True)
class ZipParams:
    """Zero-inflation mass plus Poisson-part coefficients.

    The zero-inflation parameter is the extra probability of a zero on
    top of the Poisson mass; it is a different quantity from the Tweedie
    dispersion even though the two share a symbol in places.
    """

    zero_inflation: float
    beta: tuple

    def __post_init__(self):
        if not (0.0 <= self.zero_inflation < 1.0):
            raise ValueError(
                f"zero inflation must lie in [0, 1), got {self.zero_inflation}"
            )
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))


@dataclass(frozen=True)
class ZipEvidence:
    """Probe-based evidence on whether the two modes can disagree."""

    equivalent: bool
    spread: float
    probes: tuple
    differences: tuple
    threshold: float


def _check_mode(mode):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


def poisson_score(beta, data: CountData, mode: str):
    """Score vector of the Poisson objective for the given mode."""
    _check_mode(mode)
    beta = np.asarray(beta, dtype=float)
    X = data.design
    if mode == "offset":
        mu = data.exposures * np.exp(X @ beta)
        return X.T @ (data.counts - mu)
    zeta = np.exp(X @ beta)
    return X.T @ (data.exposures * (data.normalized - zeta))


def poisson_fit(data: CountData, mode: str, tolerance: float = 1e-10, max_iterations: int = 50):
    """Log-link Poisson coefficients by Fisher scoring under either mode.

    Offset mode maximizes ``sum(-t * exp(x @ b) + y * (x @ b))``; ratio
    mode maximizes ``sum(t * (-exp(x @ b) + z * (x @ b)))``.  The two
    objectives are proportional, so the fits agree to solver precision.
    """
    _check_mode(mode)
    total = data.counts.sum()
    if total <= 0:
        raise ValueError("cannot fit: all claim counts are zero")
    X = data.design
    beta = np.zeros(data.q + 1)
    beta[0] = math.log(total / data.exposures.sum())
    for _ in range(max_iterations):
        score = poisson_score(beta, data, mode)
        if np.max(np.abs(score)) < tolerance:
            return beta
        # curvature diag(mu) = diag(t * zeta) is shared by both modes
        w = data.exposures * np.exp(X @ beta)
        info = (X * w[:, None]).T @ X
        beta = beta + np.linalg.solve(info, score)
    raise RuntimeError(f"Poisson {mode} fit did not converge in {max_iterations} iterations")


def zip_loglik(params: ZipParams, data: CountData, mode: str) -> float:
    """Zero-inflated Poisson log-likelihood in ``beta`` (factorials dropped).

    Offset mode scores the raw counts with mean ``t * exp(x @ beta)``;
    ratio mode weights each contract's annualized-count log-density by
    its exposure with mean ``exp(x @ beta)``.  Terms constant in ``beta``
    (the factorials) are omitted, which also makes non-integer annualized
    counts admissible.
    """
    _check_mode(mode)
    pi = params.zero_inflation
    beta = np.asarray(params.beta, dtype=float)
    X = data.design
    s = X @ beta
    if mode == "offset":
        mu = data.exposures * np.exp(s)
        zero = data.counts == 0
        total = float(np.log(pi + (1.0 - pi) * np.exp(-mu[zero])).sum())
        pos = ~zero
        total += float(
            (math.log1p(-pi) - mu[pos] + data.counts[pos] * np.log(mu[pos])).sum()
        )
        return total
    zeta = np.exp(s)
    z = data.normalized
    zero = z == 0
    t = data.exposures
    total = float((t[zero] * np.log(pi + (1.0 - pi) * np.exp(-zeta[zero]))).sum())
    pos = ~zero
    total += float(
        (t[pos] * (math.log1p(-pi) - zeta[pos] + z[pos] * np.log(zeta[pos]))).sum()
    )
    return total


def zip_score(params: ZipParams, data: CountData, mode: str):
    """Gradient of ``zip_loglik`` in ``beta`` (zero inflation held fixed)."""
    _check_mode(mode)
    pi = params.zero_inflation
    beta = np.asarray(params.beta, dtype=float)
    X = data.design
    s = X @ beta
    if mode == "offset":
        mu = data.exposures * np.exp(s)
        coeff = np.where(
            data.counts == 0,
            -(1.0 - pi) * np.exp(-mu) * mu / (pi + (1.0 - pi) * np.exp(-mu)),
            data.counts - mu,
        )
        return X.T @ coeff
    zeta = np.exp(s)
    t = data.exposures
    coeff = np.where(
        data.normalized == 0,
        -t * (1.0 - pi) * np.exp(-zeta) * zeta / (pi + (1.0 - pi) * np.exp(-zeta)),
        t * (data.normalized - zeta),
    )
    return X.T @ coeff


def zip_nonequivalence_check(
    data: CountData,
    zero_inflation: float = 0.3,
    probes=None,
    threshold: float = 1e-6,
) -> ZipEvidence:
    """Probe whether the offset and ratio ZIP surfaces differ by a constant.

    Evaluates ``loglik_offset - loglik_ratio`` at several coefficient
    vectors; a spread above ``threshold`` means the modes rank
    coefficient vectors differently and a choice between them is real.
    With all exposures equal to one, or with no zero inflation, the
    difference is constant and the report shows equivalence.
    """
    k = data.q + 1
    if probes is None:
        base = np.zeros(k)
        bump0 = np.zeros(k)
        bump0[0] = 0.2
        probes = [base, bump0, np.full(k, 0.1), np.full(k, -0.1)]
    probes = [np.asarray(b, dtype=float) for b in probes]
    if len(probes) < 3:
        raise ValueError("need at least 3 probe points")
    differences = []
    for b in probes:
        params = ZipParams(zero_inflation=zero_inflation, beta=tuple(b))
        differences.append(
            zip_loglik(params, data, "offset") - zip_loglik(params, data, "ratio")
        )
    spread = max(differences) - min(differences)
    return ZipEvidence(
        equivalent=spread <= threshold,
        spread=spread,
        probes=tuple(tuple(b) for b in probes),
        differences=tuple(differences),
        threshold=threshold,
    )
