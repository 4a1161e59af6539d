"""Exported names resolve, numpy is the only runtime dependency, and the
benchmark's tracer can hook the live package."""

import csv
import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_import_loads_numpy_as_the_only_dependency():
    # a fresh interpreter shows every package that importing the library
    # and its CLI pulls in beyond the standard library
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; before = set(sys.modules); import exposure_glm, exposure_glm.cli; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} "
        "- set(sys.stdlib_module_names)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['exposure_glm', 'numpy']"


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_profile_analysis_runs_clean():
    # the ``p_profile`` workload calls the library through perfbench/child.py;
    # an API change that breaks it fails here, not only in a benchmark run
    child, checks, gen = (_load_perfbench(name) for name in ("child", "checks", "gen"))
    book = gen.profile_book(1, n=2000)
    units, problems, _ = checks.check_profile(book, *child.analyse(exposure_glm, book))
    assert (units, problems) == (83, [])


def test_benchmark_tracer_hooks_install_and_uninstall(tmp_path):
    # perfbench/tracing.py replaces module and class attributes by name;
    # a refactor that removes or moves one breaks the traced benchmark run
    from exposure_glm import cli, solver

    tracing = _load_perfbench("tracing")
    hooks = (
        (solver, "quasi_loglik"),
        (cli, "fit"),
        (cli, "class_report"),
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
        exposure_glm.CountData.from_arrays([0.5, 1.0, 0.25], [1, 0, 2])
        cli.write_portfolio_csv(pf, tmp_path / "in.csv")
        assert cli.main(["balance", "--input", str(tmp_path / "in.csv"), "--out", str(tmp_path)]) == 0
        compare = ["compare", "--input", str(tmp_path / "in.csv"), "--out", str(tmp_path / "compare")]
        assert tracer.run_op(1, cli.main, compare) == 0
    finally:
        uninstall()
    assert [owner.__dict__[attr] for owner, attr in hooks] == before
    names = {span[0] for span in tracer.spans}
    assert {
        "solver.fit",
        "estimators.dominance",
        "estimators.covariance",
        "claim_count.build",
        "balance.class_report",
    } <= names
    # the benchmark counts class levels through the ``len`` notes of these spans
    levels = [span[5] for span in tracer.spans if span[0] == "balance.class_report" and span[4] == 0]
    assert len(levels) == pf.q
    with open(tmp_path / "class_balance.csv", newline="") as fh:
        assert sum(levels) == len(list(csv.reader(fh))) - 1

    # The benchmark reports ``cli.ingest_s`` and ``model_core.build_s``
    # apart: ``compare`` builds its portfolio once, inside the ingest span
    # (``from_arrays`` and the ``__init__`` it calls are both build spans).
    spans = [i for i, span in enumerate(tracer.spans) if span[4] == 1]
    (ingest,) = [i for i in spans if tracer.spans[i][0] == "cli.ingest"]
    builds = [i for i in spans if tracer.spans[i][0] == "model_core.build"]
    outermost = [i for i in builds if tracer.spans[tracer.spans[i][3]][0] != "model_core.build"]
    assert [tracer.spans[i][3] for i in outermost] == [ingest]
