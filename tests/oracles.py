"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths of the operations they check:
finite differences instead of the analytic score, lattice search instead
of the Newton iteration, eigenvalues instead of Cholesky, Monte Carlo instead
of closed-form lognormal moments, a loss-cost-scale refit instead of
the weighted annualized-loss formulation, the raw-count Poisson
score instead of the Tweedie kernel at ``p = 1``, each scheme's
zero-inflated Poisson log-likelihood masked over the whole book instead
of one split of the book shared by both schemes, a record-by-record
CSV read instead of the CLI's whole-file ``np.loadtxt`` call, and SVDs
alone instead of the container's Gram certificate for a rank.
"""

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from exposure_glm.cli import IngestError
from exposure_glm.model_core import RankDeficiencyError, _CellError

__all__ = [
    "GridSpec",
    "GridResult",
    "finite_diff_gradient",
    "grid_mle",
    "eig_min",
    "mc_lognormal_moments",
    "offset_loss_irls",
    "poisson_score",
    "zip_loglik",
    "ingest_by_records",
    "svd_rank",
]


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension (lo, hi, steps) lattice, at most two dimensions."""

    axes: tuple

    def __post_init__(self):
        axes = tuple((float(lo), float(hi), int(steps)) for lo, hi, steps in self.axes)
        if not 1 <= len(axes) <= 2:
            raise ValueError(f"grid search supports 1 or 2 dimensions, got {len(axes)}")
        for lo, hi, steps in axes:
            if steps < 3:
                raise ValueError(f"need at least 3 steps per axis, got {steps}")
            if not lo < hi:
                raise ValueError(f"need lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "axes", axes)


@dataclass(frozen=True)
class GridResult:
    argmax: np.ndarray
    value: float
    on_boundary: bool


def finite_diff_gradient(objective, beta, step_rule=None):
    """Central-difference gradient; default step 1e-6 * max(1, |beta_j|)."""
    beta = np.asarray(beta, dtype=float)
    grad = np.empty_like(beta)
    for j in range(beta.size):
        h = step_rule(j, beta[j]) if step_rule is not None else 1e-6 * max(1.0, abs(beta[j]))
        up = beta.copy()
        up[j] += h
        down = beta.copy()
        down[j] -= h
        f_up = objective(up)
        f_down = objective(down)
        if not (math.isfinite(f_up) and math.isfinite(f_down)):
            raise ValueError(f"objective not finite near coordinate {j}")
        grad[j] = (f_up - f_down) / (2.0 * h)
    return grad


def _lattice_argmax(objective, grids):
    best_value = -math.inf
    best_index = None
    for index in itertools.product(*(range(g.size) for g in grids)):
        point = np.array([grids[d][i] for d, i in enumerate(index)])
        value = objective(point)
        if not math.isfinite(value):
            raise ValueError(f"objective not finite at grid point {point}")
        if value > best_value:  # strict: first (lexicographically lowest) index wins ties
            best_value = value
            best_index = index
    return best_index, best_value


def grid_mle(objective, spec: GridSpec) -> GridResult:
    """Lattice argmax, refined once on a finer grid around the winner.

    The caller must choose a spec whose box contains the optimum; a
    winner on the coarse boundary is flagged rather than rejected.
    """
    grids = [np.linspace(lo, hi, steps) for lo, hi, steps in spec.axes]
    index, _ = _lattice_argmax(objective, grids)
    on_boundary = any(i == 0 or i == g.size - 1 for i, g in zip(index, grids))

    refined = []
    for (lo, hi, steps), g, i in zip(spec.axes, grids, index):
        spacing = (hi - lo) / (steps - 1)
        refined.append(np.linspace(g[i] - spacing, g[i] + spacing, steps))
    index2, value2 = _lattice_argmax(objective, refined)
    argmax = np.array([refined[d][i] for d, i in enumerate(index2)])
    return GridResult(argmax=argmax, value=value2, on_boundary=on_boundary)


def eig_min(matrix) -> float:
    """Smallest eigenvalue of a symmetric matrix (tiny asymmetry tolerated)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(matrix - matrix.T)) > 1e-10:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])


def mc_lognormal_moments(x, beta, covariance, n_draws: int = 1_000_000, seed: int = 0):
    """Sample mean/variance of exp(N(x @ beta, x @ Sigma @ x)) by simulation."""
    x = np.asarray(x, dtype=float)
    beta = np.asarray(beta, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    location = float(x @ beta)
    scale2 = max(float(x @ covariance @ x), 0.0)
    rng = np.random.default_rng(seed)
    draws = np.exp(rng.normal(location, math.sqrt(scale2), n_draws))
    return float(draws.mean()), float(draws.var())


def offset_loss_irls(portfolio, family, tolerance: float = 1e-11, max_iterations: int = 100):
    """Offset fit computed on the loss-cost scale, as an independent oracle.

    Works directly with the raw losses and mean ``mu = t * exp(x @ beta)``
    under unit prior weights, accumulating the normal equations row by
    row, so it shares neither parametrization nor accumulation path with
    the package's weighted annualized-loss fit.
    """
    X = np.asarray(portfolio.design, dtype=float)
    y = np.asarray(portfolio.loss_costs, dtype=float)
    t = np.asarray(portfolio.exposures, dtype=float)
    p = family.p
    k = X.shape[1]
    if y.sum() <= 0.0:
        raise ValueError("all losses are zero")
    beta = np.zeros(k)
    beta[0] = math.log(y.sum() / t.sum())
    for _ in range(max_iterations):
        mu = t * np.exp(X @ beta)
        d = mu ** (2.0 - p)
        r = y / mu - 1.0
        info = np.zeros((k, k))
        score = np.zeros(k)
        for i in range(y.size):
            xi = X[i]
            info += d[i] * np.outer(xi, xi)
            score += d[i] * r[i] * xi
        if np.max(np.abs(score)) < tolerance:
            return beta
        beta = beta + np.linalg.solve(info, score)
    raise RuntimeError(f"loss-scale offset fit did not converge in {max_iterations} iterations")


def poisson_score(beta, data, mode: str):
    """Poisson score written out for either mode, as an independent oracle.

    Offset mode differentiates the raw-count log-likelihood with mean
    ``mu = t * exp(x @ beta)``: ``X.T @ (y - mu)``.  Ratio mode
    differentiates the exposure-weighted annualized-count objective:
    ``X.T @ (t * (z - exp(x @ beta)))``.
    """
    beta = np.asarray(beta, dtype=float)
    X = data.design
    if mode == "offset":
        mu = data.exposures * np.exp(X @ beta)
        return X.T @ (data.counts - mu)
    if mode == "ratio":
        zeta = np.exp(X @ beta)
        return X.T @ (data.exposures * (data.normalized - zeta))
    raise ValueError(f"mode must be 'offset' or 'ratio', got {mode!r}")


def zip_loglik(beta, zero_inflation, data, scheme: str):
    """Zero-inflated Poisson log-likelihood (factorials dropped) for either scheme, as an independent oracle.

    The offset scheme scores the raw count ``y`` with weight 1 and mean
    ``t * exp(x @ beta)``; the ratio scheme scores the annualized count
    ``z = y / t`` with weight ``t`` and mean ``exp(x @ beta)``.  A zero
    count has probability ``pi + (1 - pi) * exp(-mu)`` and a positive one
    ``(1 - pi)`` times its Poisson mass.
    """
    pi = zero_inflation
    zeta = np.exp(data.design @ np.asarray(beta, dtype=float))
    zero, positive = data.counts == 0, data.counts > 0
    if scheme == "offset":
        mu = data.exposures * zeta
        zeros = np.log(pi + (1.0 - pi) * np.exp(-mu[zero]))
        positives = math.log1p(-pi) - mu[positive] + data.counts[positive] * np.log(mu[positive])
    elif scheme == "ratio":
        t, z = data.exposures, data.normalized
        zeros = t[zero] * np.log(pi + (1.0 - pi) * np.exp(-zeta[zero]))
        positives = t[positive] * (math.log1p(-pi) - zeta[positive] + z[positive] * np.log(zeta[positive]))
    else:
        raise ValueError(f"scheme must be 'offset' or 'ratio', got {scheme!r}")
    return float(zeros.sum()) + float(positives.sum())


def _loadtxt_cell(text):
    """The value ``np.loadtxt`` reads from a file of the one quoted cell ``text``, or None where it refuses it."""
    try:
        one_cell = io.StringIO('"' + text.replace('"', '""') + '"')
        return float(np.loadtxt(one_cell, delimiter=",", quotechar='"', comments=None))
    except ValueError:
        return None


def ingest_by_records(path, value_column, container):
    """What ``exposure_glm.cli`` should make of the UTF-8 input CSV ``path``: a ``container`` or an ``IngestError``.

    Records are read one at a time by ``csv.reader``, and each number cell
    by its own ``np.loadtxt`` call.  Rows count every record from the
    header (row 1), blank ones included, and the header is taken as valid.
    Reading stops at the first record with the wrong field count or a cell
    ``np.loadtxt`` refuses, or at a CSV error.  The container then judges
    the values of the rows read, refused cells as NaN; the first cell it
    rejects is reported, and else the error that stopped the reading: the
    first error in file order.
    """
    rows, records, error = [], [], None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        names = [name.strip() for name in next(reader)]
        try:
            for row, record in enumerate(reader, start=2):
                if record and len(record) != len(names):
                    error = IngestError(f"expected {len(names)} fields, got {len(record)}", row=row)
                    break
                if record:
                    rows.append(row)
                    records.append(record)
                    if None in map(_loadtxt_cell, record[1:]):
                        break
        except csv.Error as exc:
            error = IngestError(f"input file is not CSV: {exc}")
    if not records and error is None:
        raise IngestError("no data rows")
    ids = [record[0] for record in records]
    values = np.array([[_loadtxt_cell(cell) for cell in record[1:]] for record in records], float)
    values = values.reshape(len(records), len(names) - 1)
    try:
        book = container.from_arrays(
            values[:, 0], values[:, 1], values[:, 2:], contract_ids=ids, covariate_names=names[3:]
        )
    except _CellError as exc:
        i, position = exc.index, exc.position
        text = records[i][position]
        if position == 0:
            message = f"duplicate contract id {text!r}, first on row {rows[ids.index(text)]}"
        elif _loadtxt_cell(text) is None:
            message = f"not a number: {text!r}"
        else:
            message = str(exc)
        raise IngestError(message, row=rows[i], column=names[position]) from None
    except RankDeficiencyError as exc:
        columns = ["intercept", *names[3:]]
        involved = ", ".join(columns[j] for j in exc.column_indices)
        raise error or IngestError(f"design matrix is rank deficient; columns involved: {involved}") from None
    except ValueError as exc:
        raise error or IngestError(str(exc)) from None
    if error is not None:
        raise error
    return book


def svd_rank(matrix):
    """Column rank of ``matrix`` by SVDs alone, as the container ranked before its Gram certificate.

    ``np.linalg.matrix_rank`` of ``matrix`` as given where that is full, and else of ``matrix`` with every nonzero
    column at unit norm, each first divided by its largest ``|x|`` so that no norm overflows.
    """
    matrix = np.asarray(matrix, dtype=float)
    rank = int(np.linalg.matrix_rank(matrix))
    if rank == matrix.shape[1]:
        return rank
    top = np.abs(matrix).max(axis=0, initial=0.0)
    scaled = matrix / np.where(top > 0.0, top, 1.0)
    norms = np.sqrt((scaled * scaled).sum(axis=0))
    return int(np.linalg.matrix_rank(scaled / np.where(norms > 0.0, norms, 1.0)))
