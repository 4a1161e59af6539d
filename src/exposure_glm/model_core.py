"""Tweedie quasi-likelihood kernel shared by the offset and ratio fits.

Both treatments of partial-year exposure regress the annualized loss cost
``z = y / t`` on the same log-linear score.  They differ in exactly one
place: the per-contract weight attached to the quasi-likelihood,

* offset treatment: ``w = t ** (2 - p)``
* ratio treatment:  ``w = t``

Everything downstream (objective, gradient, expected and observed
information, Newton updates) is driven by the diagonal weight matrix

    D = diag(w_i * exp((2 - p) * x_i @ beta)),

and the ratios ``Q = z * exp(-x @ beta)`` of the losses to their means,
which do not involve ``w``; so the weight choice is the single degree of
freedom separating the two approaches.  The exponential-family
normalizer is constant in ``beta`` and deliberately dropped; objective
values are therefore comparable only within a fixed (portfolio, scheme,
family) triple.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "WeightScheme",
    "TweedieFamily",
    "Portfolio",
    "RankDeficiencyError",
    "SingularInformationError",
    "quasi_loglik",
    "validate_design",
]


class WeightScheme(str, Enum):
    """The two rival exposure weightings on the annualized loss cost."""

    OFFSET = "offset"
    RATIO = "ratio"


class RankDeficiencyError(ValueError):
    """Design matrix does not have full column rank.

    ``column_indices`` lists the design columns involved in a linear
    dependence (0 is the intercept).
    """

    def __init__(self, message, column_indices=()):
        super().__init__(message)
        self.column_indices = tuple(column_indices)


class SingularInformationError(RuntimeError):
    """A symmetric positive-definite factorization failed.

    On a validated portfolio this signals numerical degeneracy (under- or
    overflow of the weight matrix at an extreme coefficient vector, so a
    singular or a non-finite matrix) rather than a modelling error.
    ``fit`` also raises it, before iterating, for a book whose optimum
    lies at infinity: a covariate whose positive losses all sit at its
    maximum, or all at its minimum.
    """


class _CellError(ValueError):
    """A bad input cell: ``index`` is its row, ``position`` its field.

    Fields are numbered as in the CSV schema: 0 is the contract id, 1 the
    exposure, 2 the value and ``3 + j`` covariate ``j``.
    """

    def __init__(self, message, index, position):
        super().__init__(message)
        self.index = index
        self.position = position


@dataclass(frozen=True)
class TweedieFamily:
    """Variance power ``p`` and dispersion ``phi`` shared by all contracts.

    ``p`` must lie strictly inside (1, 2), the compound mixture region
    with positive mass at zero.  The dispersion cancels out of the
    coefficient updates and only scales likelihood values and
    covariances; it must be a positive, finite, normal float.  Both are
    stored as Python floats, so that dividing by ``phi`` overflows to
    ``inf`` as float division does, whatever float type was given.
    """

    p: float
    phi: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "phi", float(self.phi))
        if not (1.0 < self.p < 2.0):
            raise ValueError(f"variance power must satisfy 1 < p < 2, got {self.p}")
        if not (self.phi >= np.finfo(float).tiny and math.isfinite(self.phi)):
            raise ValueError(f"dispersion must be a positive, finite, normal float, got {self.phi}")


def _unit_columns(matrix):
    """``matrix`` with every nonzero column at unit norm, scaled first to a largest ``|x|`` of 1 so no norm overflows."""
    matrix = matrix / np.where((top := np.abs(matrix).max(axis=0, initial=0.0)) > 0.0, top, 1.0)
    return matrix / np.where(top > 0.0, np.linalg.norm(matrix, axis=0), 1.0)


def _rank(matrix, rows=None):
    """Column rank of ``matrix``, or of its rows where the boolean array ``rows`` holds; units cannot lower it.

    Full on a Gram certificate: ``_gram`` of the rows at unit diagonal has its smallest eigenvalue above 1e-10 of
    its largest, so the rows at unit column norms have condition number below 1e5, far inside ``matrix_rank``'s
    tolerance.  Else (fewer rows than columns, a diagonal entry that is not a finite normal float, a failed bound)
    ``np.linalg.matrix_rank`` of the rows as given if full, else of ``_unit_columns`` of them.
    """
    k = matrix.shape[1]
    weights = np.ones(len(matrix)) if rows is None else rows.astype(float)
    if 0 < k <= weights.sum():
        gram = _gram(matrix, weights)
        if np.isfinite(gram).all() and (diagonal := np.diag(gram)).min() >= np.finfo(float).tiny:
            scale = 1.0 / np.sqrt(diagonal)
            eigenvalues = np.linalg.eigvalsh(gram * scale * scale[:, None])
            if eigenvalues[0] > 1e-10 * eigenvalues[-1]:
                return k
    if rows is not None:
        matrix = matrix.compress(rows, axis=0)
    rank = int(np.linalg.matrix_rank(matrix))
    return rank if rank == k else int(np.linalg.matrix_rank(_unit_columns(matrix)))


def validate_design(design):
    """Check a design matrix for full column rank; raise naming the columns involved.

    The rank is ``_rank``'s, since ``np.linalg.matrix_rank``'s tolerance
    grows with the largest column.  The columns involved are those on which
    the null space of ``_unit_columns(design)`` (its last ``k - rank`` right
    singular vectors) has a component above 1e-8.  So neither depends on
    the columns' units.
    """
    design = np.asarray(design, dtype=float)
    n, k = design.shape
    rank = _rank(design)
    if rank == k:
        return design
    # all k right singular vectors, also when there are fewer rows than columns
    null_space = np.linalg.svd(_unit_columns(design), full_matrices=n < k)[2][rank:]
    involved = np.flatnonzero(np.linalg.norm(null_space, axis=0) > 1e-8).tolist()
    raise RankDeficiencyError(
        f"design matrix ({n} x {k}) is rank deficient; columns involved: {involved}",
        column_indices=involved,
    )


def _first_duplicate(ids):
    """Index of the first id that repeats an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for i, cid in enumerate(ids):
        if cid in seen:
            return i
        seen.add(cid)


def _covariate_name_error(names):
    """``(j, message)`` for the first empty, reserved (``intercept``) or repeated name in ``names``, or None."""
    for j, name in enumerate(names):
        if not name.strip():
            return j, f"covariate {j + 1} has an empty name"
        if name == "intercept":
            return j, "covariate name 'intercept' is reserved for the design's first column"
        if name in names[:j]:
            return j, f"covariate name {name!r} is repeated"
    return None


class Portfolio:
    """A validated portfolio held as parallel columns plus its design matrix.

    ``contract_ids`` is a tuple of unique strings; ``exposures`` (in
    (0, 1]), ``loss_costs`` (finite, ``>= 0``) and ``normalized`` (the
    annualized loss ``z = y / t``) are length-``n`` float arrays.  The
    design matrix carries a leading intercept column of ones followed by
    one column per covariate, and must have full column rank.  It is held
    column-major, so each column and ``design.T`` are contiguous.  Row
    order is preserved from the input and every sum over rows in this
    package, blocked or not, runs in a fixed order, so repeated
    evaluations are bit-identical.  A bad cell (an exposure outside (0, 1],
    a value that is negative, not finite or not finite over its exposure, a
    covariate that is not finite, or the second occurrence of a contract id)
    raises a ``ValueError`` naming the first such cell in row-major order
    and its contract, by id when ids are given.
    """

    # What a subclass calls its values, and whether they must be integers.
    _value_name = "loss cost"
    _integral = False

    def __init__(
        self,
        exposures,
        loss_costs,
        covariates=None,
        contract_ids=None,
        covariate_names=None,
    ):
        value_name = self._value_name
        ids = None if contract_ids is None else tuple(map(str, contract_ids))
        exposures = np.array(exposures, dtype=float)
        loss_costs = np.array(loss_costs, dtype=float)
        if exposures.ndim != 1 or exposures.shape != loss_costs.shape:
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
        q = covariates.shape[1]
        if covariate_names is None:
            covariate_names = tuple(f"x{j}" for j in range(1, q + 1))
        else:
            covariate_names = tuple(str(name) for name in covariate_names)
            if len(covariate_names) != q:
                raise ValueError(
                    f"expected {q} covariate names, got {len(covariate_names)}"
                )
            if (error := _covariate_name_error(covariate_names)) is not None:
                raise ValueError(error[1])

        def first_bad(ok):
            return n if ok.all() else int(ok.argmin())

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            normalized = loss_costs / exposures
        value_ok = loss_costs >= 0.0
        if self._integral:
            value_ok &= loss_costs == np.floor(loss_costs)
        # First bad row of each field: 1 exposure, 2 value, 3 + j covariate j.
        # Ids (field 0) are only checked for repeats, up to the first bad row.
        firsts = [first_bad((exposures > 0.0) & (exposures <= 1.0)), first_bad(value_ok & np.isfinite(normalized))]
        if not np.isfinite(covariates).all():  # one pass over the block; the column scans only locate the cell
            firsts += [first_bad(np.isfinite(column)) for column in covariates.T]
        bad = min(firsts)
        if ids is not None and (repeat := _first_duplicate(ids[: bad + 1])) is not None:
            raise _CellError(f"duplicate contract id {ids[repeat]!r} at index {repeat}", repeat, 0)
        if bad < n:
            k = firsts.index(bad)
            if k < 2:
                field, cell = ("exposure", value_name)[k], (exposures, loss_costs)[k][bad]
            else:
                field, cell = f"covariate {covariate_names[k - 2]!r}", covariates[bad, k - 2]
            if not math.isfinite(cell):
                message = f"{field} is not finite, got {cell}"
            elif k == 0:
                message = f"exposure must lie in (0, 1], got {cell}"
            elif k == 1 and value_ok[bad]:  # a valid value, so its quotient overflowed
                message = f"{value_name} over exposure is not finite, got {cell} / {exposures[bad]}"
            else:
                rule = "a non-negative integer" if self._integral else ">= 0"
                message = f"{value_name} must be {rule}, got {cell}"
            who = f"contract {ids[bad]!r}" if ids is not None else f"the contract at index {bad}"
            raise _CellError(f"{message} for {who}", bad, k + 1)
        if n < q + 1:
            raise ValueError(f"need at least q + 1 = {q + 1} observations, got {n}")
        design = np.empty((n, q + 1), order="F")
        design[:, 0] = 1.0
        design[:, 1:] = covariates
        validate_design(design)

        if ids is not None:
            self.contract_ids = ids
        self.exposures = exposures
        self.loss_costs = loss_costs
        self.normalized = normalized
        self.design = design
        for array in (exposures, loss_costs, self.normalized, design):
            array.flags.writeable = False  # so the values kept per book cannot go stale
        self.covariate_names = covariate_names
        self.n = n
        self.q = q

    @functools.cached_property
    def contract_ids(self):
        """Default ids ``c1..cn``, built on first read; given ids are stored instead."""
        return tuple(f"c{i + 1}" for i in range(self.n))

    @functools.cached_property
    def _partial_rank(self):
        """``_rank`` of the design rows with exposure below one (0 if none), computed on first read."""
        partial = self.exposures < 1.0
        return _rank(self.design, partial) if partial.any() else 0

    @functools.cached_property
    def _column_scale(self):
        """``max_i |x_ij|`` per design column, computed on first read: it scales each fit's floor and the ZIP probes."""
        # max |x| with no copy of |X|; 1 for the intercept, and no column of a full-rank design is zero
        scale = np.maximum(self.design.max(axis=0), -self.design.min(axis=0))
        scale.flags.writeable = False
        return scale

    @functools.cached_property
    def _separation(self):
        """Why no fit of this book has a finite optimum, or None; computed on first read, by ``solver._fit``.

        None exists when a covariate holds every positive value at its maximum (or minimum): moving the
        predictor along ``c * (x_j - max x_j)`` lowers only loss-free premiums, raising the quasi-log-likelihood
        without bound (Santos Silva & Tenreyro 2010).  The book must hold a positive value.
        """
        covariates = self.design[:, 1:].T  # one contiguous row per covariate
        lo, hi = covariates.min(axis=1), covariates.max(axis=1)
        losses = covariates.compress(self.loss_costs > 0.0, axis=1)  # twice as fast as a boolean index
        at_hi, at_lo = losses.min(axis=1) == hi, losses.max(axis=1) == lo
        separated = (lo < hi) & (at_hi | at_lo)
        if not separated.any():
            return None
        j = int(separated.argmax())
        x, name = covariates[j], self.covariate_names[j]
        op, level = ("<", hi[j]) if at_hi[j] else (">", lo[j])
        if ((x == lo[j]) | (x == hi[j])).all():  # two-valued: name the loss-free level
            op, level = "=", lo[j] if at_hi[j] else hi[j]
        noun = self._value_name.split()[0]  # "loss" of a loss cost, "count" of a count
        return f"no finite optimum: every {noun} is zero where {name} {op} {level:.17g}"

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
        return f"{type(self).__name__}(n={self.n}, q={self.q})"


def _scheme_weights(scheme, exposures, p):
    """Exposure weights: ``t**(2-p)`` (offset) or ``t`` (ratio).

    For ``t`` in (0, 1] and ``p`` in (1, 2) the offset weight dominates
    the ratio weight, with equality exactly at ``t = 1``; at ``p = 1``
    the two coincide.
    """
    if scheme is WeightScheme.OFFSET:
        return exposures ** (2.0 - p)
    return exposures


def _d_weights(s, w, p):
    """The diagonal ``w * exp((2 - p) * s)`` of ``D`` at ``s = X @ beta``, in one new array, warning of no overflow."""
    with np.errstate(over="ignore"):
        d = np.multiply(2.0 - p, s)
        return np.multiply(w, np.exp(d, out=d), out=d)


def _scoring_pass(beta, design, z, w, p):
    """``(D, Q, X.T @ D @ R, sum(D * (Q + 1)), objective)`` of the weighted Tweedie fit.

    With ``s = X @ beta``, ``D = diag(w * exp((2 - p) * s))``,
    ``Q = z * exp(-s)`` and ``R = Q - 1``; ``D`` and ``Q`` are returned as
    their length-``n`` diagonals.  Since ``d_i * q_i`` is
    ``w_i * z_i * zeta_i**(1-p)``, the quasi-log-likelihood is the objective
    ``sum(D * Q) / (1 - p) - sum(D) / (2 - p)`` over ``phi``, with score
    ``X.T @ D @ R / phi``, Fisher (expected) information
    ``X.T @ D @ X / phi`` and observed information ``X.T @ H @ X / phi``,
    ``H = D * ((p - 1) * Q + (2 - p))``; ``_gram`` forms either.
    At ``p = 1`` with ``w = t`` the objective is the Poisson log-likelihood
    ``sum(t * (z * s - exp(s)))``, the score ``X.T @ (t * (z - exp(s)))``.
    The fourth value bounds what rounds in each score component: every
    term ``d_i * r_i`` and its two parts are at most ``d_i * (q_i + 1)``.
    Overflow is not warned about: a non-finite objective halves the
    solver's step, a non-finite information matrix fails in ``_cho_factor``.
    Every n-long temporary is written in place (``out=``): ``R`` and ``D * R`` into ``s`` once it is spent.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = design @ beta
        d = _d_weights(s, w, p)
        q = np.negative(s)
        np.multiply(z, np.exp(q, out=q), out=q)
        dq = d * q
        sum_dq, sum_d = dq.sum(), d.sum()
        mass = float(sum_dq + sum_d)
        if p == 1.0:
            objective = float(np.multiply(dq, s, out=dq).sum() - sum_d)
        else:
            objective = float(sum_dq / (1.0 - p) - sum_d / (2.0 - p))
        return d, q, design.T @ np.multiply(d, np.subtract(q, 1.0, out=s), out=s), mass, objective


def _observed_weights(d, q, p):
    """The diagonal of ``H = D * ((p - 1) * Q + (2 - p))``, in one new array, without overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.multiply(p - 1.0, q)
        return np.multiply(d, np.add(h, 2.0 - p, out=h), out=h)


# Cells of the design in one block of ``_gram``: 2**15 doubles, 256 KiB,
# so a block and its weighted copy stay in a core's cache.  Of 2**13 to
# 2**17, this size was fastest at 10^5 x 9 and within 6 % of the fastest
# at 2 * 10^5 x 4 and 10^6 x 4 (2-vCPU Xeon, OpenBLAS, BENCH_pr25.json).
_GRAM_BLOCK_CELLS = 2**15


def _gram(design, v):
    """``X.T @ diag(v) @ X``, symmetrized, without overflow warnings.

    Sums ``(block * v[rows]) @ block.T`` over consecutive column slices of
    ``design.T`` of ``_GRAM_BLOCK_CELLS`` cells each, in row order, so the
    weighted copy of a block is formed in cache and the sum runs in the
    same order on every call.
    """
    design_t = design.T
    k, n = design_t.shape
    step = max(1, _GRAM_BLOCK_CELLS // k)
    gram = np.zeros((k, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, step):
            block = design_t[:, start : start + step]
            gram += (block * v[start : start + step]) @ block.T
        return 0.5 * (gram + gram.T)


def _cho_factor(info):
    """Lower Cholesky factor of an information matrix ``X.T @ diag(v) @ X``.

    Raises SingularInformationError when the matrix is not finite (which
    ``np.linalg.cholesky`` does not check) or not numerically positive
    definite: on a full-rank design, the positive weights ``v`` over- or
    underflowed.
    """
    if not np.isfinite(info).all():
        raise SingularInformationError("weighted information matrix is not finite")
    try:
        return np.linalg.cholesky(info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError("weighted information matrix is not positive definite") from exc


def _cho_solve(factor, rhs):
    """Solve ``A @ x = rhs`` given the lower Cholesky factor of ``A``."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def _covariance(design, exposures, scheme, p, phi, beta):
    """The coefficient covariance ``phi * (X.T @ D @ X)**-1`` at ``beta``, ``D`` from the scheme's weights.

    One that overflows a float is a ValueError that names ``phi``.
    """
    d = _d_weights(design @ beta, _scheme_weights(scheme, exposures, p), p)
    factor = _cho_factor(_gram(design, d))
    with np.errstate(over="ignore"):
        cov = phi * _cho_solve(factor, np.eye(len(factor)))
        cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise ValueError(f"the coefficient covariance overflows a float at dispersion phi={phi}")
    return cov


def quasi_loglik(beta, portfolio: Portfolio, scheme: WeightScheme, family: TweedieFamily) -> float:
    """Weighted Tweedie quasi-log-likelihood of ``beta`` by the scoring pass (normalizer dropped).

    With score ``s_i = x_i @ beta``, fitted annualized mean
    ``zeta_i = exp(s_i)`` and scheme weight ``w_i``, returns

        (1 / phi) * sum_i w_i * (zeta_i**(1-p) * z_i / (1-p)
                                 - zeta_i**(2-p) / (2-p)).
    """
    beta = _check_beta(beta, portfolio.q + 1)
    p = family.p
    w = _scheme_weights(WeightScheme(scheme), portfolio.exposures, p)
    return _scoring_pass(beta, portfolio.design, portfolio.normalized, w, p)[4] / family.phi


def _check_beta(beta, k):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (k,):
        raise ValueError(f"coefficient vector must have length {k}, got shape {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError(f"coefficient vector must be finite, got {beta}")
    return beta
