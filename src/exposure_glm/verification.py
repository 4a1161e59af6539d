"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths of the operations they check:
finite differences instead of the analytic score, lattice search instead
of Fisher scoring, eigenvalues instead of Cholesky, Monte Carlo instead
of closed-form lognormal moments, a loss-cost-scale refit instead of
the weighted annualized-loss formulation, and the raw-count Poisson
score instead of the Tweedie kernel at ``p = 1``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "GridResult",
    "finite_diff_gradient",
    "grid_mle",
    "eig_min",
    "mc_lognormal_moments",
    "offset_loss_irls",
    "poisson_score",
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
