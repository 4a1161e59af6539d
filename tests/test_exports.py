"""Exported names resolve and the README counts them, every import is used,
the README's examples run, the package ships only its own modules, numpy is
the only runtime dependency, and the benchmark's tracer can hook the live
package."""

import ast
import csv
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import exposure_glm
from exposure_glm import TweedieFamily, WeightScheme

from util import load_perfbench, random_portfolio, write_portfolio_csv

MODULES = (
    "balance",
    "claim_count",
    "cli",
    "estimators",
    "model_core",
    "simulate",
    "solver",
)


@pytest.mark.parametrize("module", ("exposure_glm", *(f"exposure_glm.{m}" for m in MODULES)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_counts_every_exported_name():
    (count,) = re.findall(r"The package exports (\d+) names", README.read_text(encoding="utf-8"))
    assert int(count) == len(exposure_glm.__all__)


def test_readme_lists_every_dominance_verdict():
    # the backticked ALL-CAPS words of the Estimators section are the verdicts
    section = README.read_text(encoding="utf-8").partition("### Estimators")[2].partition("\n### ")[0]
    assert set(re.findall(r"`([A-Z][A-Z_]+)`", section)) == {m.name for m in exposure_glm.Dominance}


README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    # each example runs alone in a fresh interpreter, as a reader would paste it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


# Imported only so that perfbench/tracing.py can hook them where the
# package calls them: the fit's objective and the count data's rank check.
TRACER_REEXPORTS = {("exposure_glm.solver", "quasi_loglik"), ("exposure_glm.claim_count", "validate_design")}


def test_every_import_is_used_or_exported():
    # an import left behind by a removal shows here
    unused = set()
    for name in ("exposure_glm", *(f"exposure_glm.{m}" for m in MODULES)):
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(name, attr) for attr in imported - used - set(module.__all__)}
    assert unused == TRACER_REEXPORTS


def _names(node):
    """The identifiers a syntax node spells as a name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name for alias in node.names}
    return set()


def _modules_naming(name):
    """The package's module files that spell ``name`` as a name, an attribute or an import."""
    package = Path(exposure_glm.__file__).parent
    return {
        path.name
        for path in package.glob("*.py")
        if any(name in _names(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    }


def test_only_the_solver_names_the_fit_loop():
    # a fit's refusals of a book are written once, in solver._fit, and its
    # weights and start in _irls; a module that ran _irls would skip the refusals
    assert _modules_naming("_irls") == {"solver.py"}


def test_only_the_container_names_matrix_rank():
    # the rank rules (full column rank of the design, the rank of the
    # partial rows behind the dominance verdict) live in model_core alone
    assert _modules_naming("matrix_rank") == {"model_core.py"}


def test_only_the_container_names_the_covariance_weights():
    # the diagonal of D is formed in model_core alone: by the scoring pass and
    # by _covariance, the one routine that goes from beta to a covariance
    assert _modules_naming("_d_weights") == {"model_core.py"}


def test_package_ships_exactly_these_modules():
    # test-only code (the oracles live in tests/oracles.py) stays out of the package
    assert {m.name for m in pkgutil.iter_modules(exposure_glm.__path__)} == set(MODULES)


def test_generator_internals_live_in_simulate_only():
    internals = {"EXPOSURE_LO", "EXPOSURE_HI", "SCENARIOS"}
    assert not internals & set(exposure_glm.__all__)
    assert internals <= set(exposure_glm.simulate.__all__)


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


def test_cli_import_loads_no_process_pool():
    # the CLI forks its CSV workers with os.fork: importing it loads neither
    # multiprocessing nor concurrent.futures, which would add to every start
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, exposure_glm.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_profile_analysis_runs_clean():
    # the ``p_profile`` workload calls the library through perfbench/child.py;
    # an API change that breaks it fails here, not only in a benchmark run
    child, checks, gen = (load_perfbench(name) for name in ("child", "checks", "gen"))
    book = gen.profile_book(1, n=2000)
    units, problems, _ = checks.check_profile(book, *child.analyse(exposure_glm, book))
    assert (units, problems) == (83, [])


def test_benchmark_tracer_hooks_install_and_uninstall(tmp_path):
    # perfbench/tracing.py replaces module and class attributes by name;
    # a refactor that removes or moves one breaks the traced benchmark run
    from exposure_glm import cli, solver

    tracing = load_perfbench("tracing")
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
        write_portfolio_csv(pf, tmp_path / "in.csv")
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
    # the benchmark counts class levels through the ``len`` notes of these
    # spans: one per command, noting every row of ``class_balance.csv``
    for op, out in ((0, tmp_path), (1, tmp_path / "compare")):
        levels = [span[5] for span in tracer.spans if span[0] == "balance.class_report" and span[4] == op]
        assert len(levels) == 1
        with open(out / "class_balance.csv", newline="") as fh:
            assert sum(levels) == len(list(csv.reader(fh))) - 1

    # The benchmark reports ``cli.ingest_s`` and ``model_core.build_s``
    # apart: ``compare`` builds its portfolio once, inside the ingest span
    # (``from_arrays`` and the ``__init__`` it calls are both build spans).
    spans = [i for i, span in enumerate(tracer.spans) if span[4] == 1]
    (ingest,) = [i for i in spans if tracer.spans[i][0] == "cli.ingest"]
    builds = [i for i in spans if tracer.spans[i][0] == "model_core.build"]
    outermost = [i for i in builds if tracer.spans[tracer.spans[i][3]][0] != "model_core.build"]
    assert [tracer.spans[i][3] for i in outermost] == [ingest]
