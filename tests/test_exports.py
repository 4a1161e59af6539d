"""Exported names resolve, and the benchmark's tracer can hook the live package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import exposure_glm
from exposure_glm import TweedieFamily, WeightScheme

from util import random_portfolio

MODULES = (
    "balance",
    "claim_count",
    "cli",
    "estimators",
    "model_core",
    "simulate",
    "solver",
    "verification",
)


@pytest.mark.parametrize("module", ("exposure_glm", *(f"exposure_glm.{m}" for m in MODULES)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_hooks_install_and_uninstall():
    # perfbench/tracing.py replaces module and class attributes by name;
    # a refactor that removes or moves one breaks the traced benchmark run
    from exposure_glm import cli, solver

    tracing = _load_tracing()
    hooks = (
        (solver, "quasi_loglik"),
        (cli, "fit"),
        (exposure_glm, "covariance_dominance"),
        (exposure_glm.Portfolio, "from_arrays"),
        (exposure_glm.CountData, "from_arrays"),
    )
    before = [owner.__dict__[attr] for owner, attr in hooks]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        pf = random_portfolio(1)
        fam = TweedieFamily(p=1.5)
        result = exposure_glm.fit(pf, WeightScheme.RATIO, fam)
        exposure_glm.covariance_dominance(pf, result.beta_hat, fam)
    finally:
        uninstall()
    assert [owner.__dict__[attr] for owner, attr in hooks] == before
    names = {span[0] for span in tracer.spans}
    assert {
        "solver.fit",
        "model_core.objective",
        "estimators.dominance",
        "estimators.covariance",
    } <= names
