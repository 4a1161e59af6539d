"""Tweedie quasi-likelihood kernels shared by the offset and ratio fits.

Both treatments of partial-year exposure regress the annualized loss cost
``z = y / t`` on the same log-linear score.  They differ in exactly one
place: the per-contract weight attached to the quasi-likelihood,

* offset treatment: ``w = t ** (2 - p)``
* ratio treatment:  ``w = t``

Everything downstream (gradient, Fisher information, IRLS updates) is
driven by the diagonal weight matrix

    D = diag(w_i * exp((2 - p) * x_i @ beta)),

so the weight choice is the single degree of freedom separating the two
approaches.  The exponential-family normalizer is constant in ``beta``
and deliberately dropped; objective values are therefore comparable only
within a fixed (portfolio, scheme, family) triple.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "WeightScheme",
    "TweedieFamily",
    "TweedieParams",
    "Portfolio",
    "RankDeficiencyError",
    "SingularInformationError",
    "weight",
    "scale_params",
    "quasi_loglik",
    "gradient",
    "d_matrix",
    "fisher_info",
    "validate_design",
]


class WeightScheme(str, Enum):
    """The two rival exposure weightings on the annualized loss cost."""

    OFFSET = "offset"
    RATIO = "ratio"


class RankDeficiencyError(ValueError):
    """Design matrix does not have full column rank.

    ``column_indices`` lists the dependent design columns (0 is the
    intercept); ``dependencies`` maps each dependent column to the
    earlier columns it is a linear combination of.
    """

    def __init__(self, message, column_indices=(), dependencies=None):
        super().__init__(message)
        self.column_indices = tuple(column_indices)
        self.dependencies = dict(dependencies or {})


class SingularInformationError(RuntimeError):
    """A symmetric positive-definite factorization failed.

    On a validated portfolio this signals numerical degeneracy (for
    example overflow of the weight matrix at an extreme coefficient
    vector) rather than a modelling error.
    """


@dataclass(frozen=True)
class TweedieFamily:
    """Variance power ``p`` and dispersion ``phi`` shared by all contracts.

    ``p`` must lie strictly inside (1, 2), the compound mixture region
    with positive mass at zero.  The dispersion cancels out of the
    coefficient updates and only scales likelihood values and
    covariances.
    """

    p: float
    phi: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.p < 2.0):
            raise ValueError(f"variance power must satisfy 1 < p < 2, got {self.p}")
        if not (self.phi > 0.0 and math.isfinite(self.phi)):
            raise ValueError(f"dispersion must be positive and finite, got {self.phi}")

    def canonical_parameter(self, mu):
        """Canonical parameter ``mu**(1-p) / (1-p)`` of the mean ``mu``."""
        if mu <= 0.0:
            raise ValueError(f"mean must be positive, got {mu}")
        return mu ** (1.0 - self.p) / (1.0 - self.p)


@dataclass(frozen=True)
class TweedieParams:
    """Mean / weight pair for a single contract under a family."""

    mu: float
    w: float
    family: TweedieFamily

    def __post_init__(self):
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mean must be positive and finite, got {self.mu}")
        if not (self.w > 0.0 and math.isfinite(self.w)):
            raise ValueError(f"weight must be positive and finite, got {self.w}")


def _dependency_diagnosis(design):
    """Identify dependent design columns and what they depend on."""
    import scipy.linalg

    n, k = design.shape
    _, r, pivots = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    dependent = sorted(int(c) for c in pivots[rank:])
    independent = sorted(int(c) for c in pivots[:rank])
    dependencies = {}
    for col in dependent:
        coef, *_ = np.linalg.lstsq(design[:, independent], design[:, col], rcond=None)
        partners = tuple(
            independent[j] for j in range(len(independent)) if abs(coef[j]) > 1e-8
        )
        dependencies[col] = partners
    return dependent, dependencies


def validate_design(design):
    """Check a design matrix for full column rank; raise with diagnosis."""
    design = np.asarray(design, dtype=float)
    n, k = design.shape
    if np.linalg.matrix_rank(design) == k:
        return design
    dependent, dependencies = _dependency_diagnosis(design)
    involved = sorted(set(dependent).union(*dependencies.values()) if dependent else [])
    raise RankDeficiencyError(
        f"design matrix ({n} x {k}) is rank deficient; "
        f"dependent columns {dependent} (linearly involved columns {involved})",
        column_indices=involved or dependent,
        dependencies=dependencies,
    )


def _validated_columns(exposures, values, covariates, value_name, ids=None):
    """Check parallel contract columns; return ``(t, v, design)``.

    ``values`` are loss costs or claim counts and must be finite and
    ``>= 0``; ``design`` is the intercept column followed by the
    covariates.  Errors name the first offending contract, by id when
    ``ids`` is given.  The rank check is left to the caller.
    """
    exposures = np.array(exposures, dtype=float)
    values = np.array(values, dtype=float)
    if exposures.ndim != 1 or exposures.shape != values.shape:
        raise ValueError(f"exposures and {value_name}s must be equal-length 1-D arrays")
    n = exposures.size
    if n == 0:
        raise ValueError("need at least one contract")
    if ids is not None and len(ids) != n:
        raise ValueError(f"expected {n} contract ids, got {len(ids)}")
    if covariates is None:
        covariates = np.empty((n, 0))
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim != 2 or covariates.shape[0] != n:
        raise ValueError(f"covariates must be an (n, q) array with n = {n} rows")

    def contract(i):
        return f"contract {ids[i]!r}" if ids is not None else f"the contract at index {i}"

    bad = np.flatnonzero(~((exposures > 0.0) & (exposures <= 1.0)))
    if bad.size:
        raise ValueError(
            f"exposure must lie in (0, 1], got {exposures[bad[0]]} for {contract(bad[0])}"
        )
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
    if bad.size:
        raise ValueError(
            f"{value_name} must be finite and >= 0, got {values[bad[0]]} for {contract(bad[0])}"
        )
    bad = np.flatnonzero(~np.isfinite(covariates).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite covariate for {contract(bad[0])}")
    q = covariates.shape[1]
    if n < q + 1:
        raise ValueError(f"need at least q + 1 = {q + 1} observations, got {n}")
    design = np.empty((n, q + 1))
    design[:, 0] = 1.0
    design[:, 1:] = covariates
    return exposures, values, design


def _first_duplicate(ids):
    """Index of the first id that repeats an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for i, cid in enumerate(ids):
        if cid in seen:
            return i
        seen.add(cid)


class Portfolio:
    """A validated portfolio held as parallel columns plus its design matrix.

    ``contract_ids`` is a tuple of unique strings; ``exposures`` (in
    (0, 1]), ``loss_costs`` (finite, ``>= 0``) and ``normalized`` (the
    annualized loss ``z = y / t``) are length-``n`` float arrays.  The
    design matrix carries a leading intercept column of ones followed by
    one column per covariate, and must have full column rank.  Row order
    is preserved from the input and all row-wise accumulations in this
    package run in that fixed order, so repeated evaluations are
    bit-identical.
    """

    def __init__(
        self,
        exposures,
        loss_costs,
        covariates=None,
        contract_ids=None,
        covariate_names=None,
    ):
        ids = None if contract_ids is None else tuple(map(str, contract_ids))
        exposures, loss_costs, design = _validated_columns(
            exposures, loss_costs, covariates, "loss cost", ids
        )
        n, q = design.shape[0], design.shape[1] - 1
        if ids is None:
            ids = tuple(f"c{i + 1}" for i in range(n))
        elif (repeat := _first_duplicate(ids)) is not None:
            raise ValueError(f"duplicate contract id {ids[repeat]!r} at index {repeat}")
        if covariate_names is None:
            covariate_names = tuple(f"x{j}" for j in range(1, q + 1))
        else:
            covariate_names = tuple(str(name) for name in covariate_names)
            if len(covariate_names) != q:
                raise ValueError(
                    f"expected {q} covariate names, got {len(covariate_names)}"
                )
        validate_design(design)

        self.contract_ids = ids
        self.exposures = exposures
        self.loss_costs = loss_costs
        self.normalized = loss_costs / exposures
        self.design = design
        self.covariate_names = covariate_names
        self.n = n
        self.q = q

    @classmethod
    def from_arrays(
        cls,
        exposures,
        loss_costs,
        covariates=None,
        contract_ids=None,
        covariate_names=None,
    ):
        """Build a portfolio from parallel arrays (covariates may be None)."""
        return cls(exposures, loss_costs, covariates, contract_ids, covariate_names)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Portfolio(n={self.n}, q={self.q})"


def weight(scheme: WeightScheme, t, p):
    """Exposure weight for a contract: ``t**(2-p)`` (offset) or ``t`` (ratio).

    Accepts scalars or arrays.  For every ``t`` in (0, 1] and ``p`` in
    (1, 2) the offset weight dominates the ratio weight, with equality
    exactly at full exposure ``t = 1``.
    """
    scheme = WeightScheme(scheme)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
        raise ValueError("exposure must lie in (0, 1]")
    if not (1.0 < p < 2.0):
        raise ValueError(f"variance power must satisfy 1 < p < 2, got {p}")
    if scheme is WeightScheme.OFFSET:
        out = t_arr ** (2.0 - p)
    else:
        out = t_arr.copy()
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def scale_params(params: TweedieParams, t: float) -> TweedieParams:
    """Parameters of ``t * Z`` when ``Z`` has the given Tweedie parameters.

    Scaling the variable by ``t > 0`` maps ``(mu, w)`` to
    ``(t * mu, w / t**(2-p))`` with the family unchanged; composing the
    map for ``s`` then ``t`` equals the map for ``s * t``.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"scale factor must be positive and finite, got {t}")
    two_minus_p = 2.0 - params.family.p
    return TweedieParams(mu=t * params.mu, w=params.w / t**two_minus_p, family=params.family)


def _scheme_weights(scheme, exposures, p):
    if scheme is WeightScheme.OFFSET:
        return exposures ** (2.0 - p)
    return exposures


def quasi_loglik(beta, portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily) -> float:
    """Weighted Tweedie quasi-log-likelihood of ``beta`` (normalizer dropped).

    With score ``s_i = x_i @ beta``, fitted annualized mean
    ``zeta_i = exp(s_i)`` and scheme weight ``w_i``, returns

        (1 / phi) * sum_i w_i * (zeta_i**(1-p) * z_i / (1-p)
                                 - zeta_i**(2-p) / (2-p)).
    """
    beta = _check_beta(beta, portfolio)
    scheme = WeightScheme(scheme)
    p = family.p
    s = portfolio.design @ beta
    w = _scheme_weights(scheme, portfolio.exposures, p)
    terms = w * (
        np.exp((1.0 - p) * s) * portfolio.normalized / (1.0 - p)
        - np.exp((2.0 - p) * s) / (2.0 - p)
    )
    return float(terms.sum() / family.phi)


def gradient(beta, portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily):
    """Score vector ``(1 / phi) * X.T @ D @ R`` with ``R_i = z_i / zeta_i - 1``."""
    beta = _check_beta(beta, portfolio)
    scheme = WeightScheme(scheme)
    s = portfolio.design @ beta
    d = _scheme_weights(scheme, portfolio.exposures, family.p) * np.exp((2.0 - family.p) * s)
    r = portfolio.normalized * np.exp(-s) - 1.0
    return portfolio.design.T @ (d * r) / family.phi


def d_matrix(beta, portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily):
    """Diagonal of ``D``: entry ``i`` is ``w_i * exp((2-p) * x_i @ beta)``.

    Entrywise the offset diagonal dominates the ratio diagonal, strictly
    wherever ``t_i < 1``.
    """
    beta = _check_beta(beta, portfolio)
    scheme = WeightScheme(scheme)
    s = portfolio.design @ beta
    return _scheme_weights(scheme, portfolio.exposures, family.p) * np.exp(
        (2.0 - family.p) * s
    )


def fisher_info(beta, portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily):
    """Fisher information ``(1 / phi) * X.T @ D @ X`` (symmetric positive definite).

    Raises SingularInformationError if the matrix fails a Cholesky
    factorization, which on a full-rank portfolio can only happen through
    numerical degeneracy of the weights.
    """
    beta = _check_beta(beta, portfolio)
    d = d_matrix(beta, portfolio, scheme, family)
    info = (portfolio.design * d[:, None]).T @ portfolio.design / family.phi
    info = 0.5 * (info + info.T)
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(
            "Fisher information is not positive definite at this coefficient vector"
        ) from exc
    return info


def _check_beta(beta, portfolio):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (portfolio.q + 1,):
        raise ValueError(
            f"coefficient vector must have length {portfolio.q + 1}, got shape {beta.shape}"
        )
    return beta
