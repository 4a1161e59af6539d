"""Shared portfolio builders for the test suite (all seeded, all frozen)."""

import functools
import importlib.util
from pathlib import Path

import numpy as np

from exposure_glm import (
    CountData,
    Portfolio,
    estimators,
    individual_gaps,
    model_core,
    portfolio_gap,
    run_gap_experiment,
    solver,
)
from exposure_glm.cli import _write_csv


def toy_portfolio():
    """Two intercept-only contracts with closed-form estimates.

    t = (0.5, 1.0), y = (5, 20)  =>  z = (10, 20),
    ratio estimate 25/1.5, offset estimate (sqrt(.5)*10 + 20)/(sqrt(.5)+1).
    """
    return Portfolio.from_arrays([0.5, 1.0], [5.0, 20.0])


def random_portfolio(seed, n=40, q=2, zero_frac=0.3, full_frac=0.3, all_full=False):
    """Mixed-exposure portfolio with semicontinuous losses and q covariates."""
    rng = np.random.default_rng(seed)
    if all_full:
        t = np.ones(n)
    else:
        t = np.where(rng.random(n) < full_frac, 1.0, rng.uniform(0.08, 0.999, n))
    covariates = None
    if q:
        covariates = np.column_stack(
            [(rng.random(n) < 0.5).astype(float)] + [rng.normal(0.0, 0.5, n) for _ in range(q - 1)]
        )
    y = np.where(rng.random(n) < zero_frac, 0.0, rng.gamma(2.0, 40.0, n)) * t
    if y.sum() == 0.0:
        y[0] = 25.0
    return Portfolio.from_arrays(t, y, covariates)


def fit_from(start, portfolio, scheme, family):
    """``fit`` started at ``start`` instead of the closed form.

    Runs the fit's own routine, ``solver._fit``, on the fit's inputs and
    the start, which skips ``fit``'s checks of the book.
    """
    c = model_core._exponent(scheme, family.p)
    return solver._fit(portfolio, c, family.p, family.phi, np.array(start, dtype=float))


def gap_totals(**inputs):
    """Portfolio gaps ``(offset, ratio)`` of ``run_gap_experiment(**inputs)``, as ``simulate`` reports them."""
    portfolio, *fits = run_gap_experiment(**inputs)
    return tuple(portfolio_gap(individual_gaps(portfolio, result)[1]) for result in fits)


def random_count_data(seed, n=60, q=2):
    """Poisson counts with mean t * exp(x @ beta_true), mixed exposures."""
    rng = np.random.default_rng(seed)
    t = np.where(rng.random(n) < 0.4, 1.0, rng.uniform(0.1, 1.0, n))
    covariates = np.column_stack(
        [(rng.random(n) < 0.6).astype(float), rng.normal(0.0, 0.5, n)]
    )[:, :q]
    beta_true = np.array([0.3, 0.4, -0.3])[: q + 1]
    design = np.column_stack([np.ones(n), covariates])
    counts = rng.poisson(t * np.exp(design @ beta_true))
    if counts.sum() == 0:
        counts[0] = 1
    return CountData.from_arrays(t, counts, covariates)


def overflowing_count_data(n=200):
    """Poisson counts with one covariate, a sum insured between 5000 and 15000."""
    rng = np.random.default_rng(0)
    t = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.1, 1.0, n))
    return CountData.from_arrays(t, rng.poisson(0.3 * t), rng.uniform(5000.0, 15000.0, (n, 1)))


def zip_count_data(seed, n=80, zero_inflation=0.3, all_full=False):
    """Zero-inflated Poisson counts with one covariate."""
    rng = np.random.default_rng(seed)
    if all_full:
        t = np.ones(n)
    else:
        t = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.15, 0.9, n))
    x = rng.normal(0.0, 0.5, (n, 1))
    lam = t * np.exp(0.5 + 0.4 * x[:, 0])
    counts = np.where(rng.random(n) < zero_inflation, 0, rng.poisson(lam))
    if counts.sum() == 0:
        counts[0] = 1
    return CountData.from_arrays(t, counts, x)


def write_portfolio_csv(portfolio, path):
    """Serialize a portfolio back to the input schema (round-trippable)."""
    header = ["contract_id", "exposure", "loss_cost", *portfolio.covariate_names]
    columns = [portfolio.contract_ids, portfolio.exposures, portfolio.loss_costs]
    columns += [portfolio.design[:, j] for j in range(1, portfolio.q + 1)]
    _write_csv(Path(path), header, columns)


def spy_covariance(monkeypatch):
    """Record the scheme of every ``coefficient_covariance`` call the estimators make."""
    calls = []

    def coefficient_covariance(*args, raw=estimators.coefficient_covariance):
        calls.append(args[2])
        return raw(*args)

    monkeypatch.setattr(estimators, "coefficient_covariance", coefficient_covariance)
    return calls


def spy_gram(monkeypatch):
    """Record the weights of every ``X.T @ diag(v) @ X``: Newton steps, covariances and rank checks."""
    weights = []

    def gram(design, v, raw=model_core._gram):
        weights.append(v)
        return raw(design, v)

    for module in (solver, model_core):
        monkeypatch.setattr(module, "_gram", gram)
    return weights


def spy_book_fact(monkeypatch, name):
    """Record every book whose kept fact ``Portfolio.<name>`` (``_separation``, ``_column_scale``) is computed."""
    compute = Portfolio.__dict__[name].func
    computed = []

    def counted(portfolio):
        computed.append(portfolio)
        return compute(portfolio)

    spy = functools.cached_property(counted)
    spy.__set_name__(Portfolio, name)
    monkeypatch.setattr(Portfolio, name, spy)
    return computed


def load_perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded from its file: ``perfbench`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
