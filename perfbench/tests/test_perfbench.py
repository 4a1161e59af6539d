"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests -q``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY_N = 2000


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(workload, trace):
    report, result = run.run_workload(workload, seed=3, seconds=0.01, trace=trace, root=ROOT, n=TINY_N)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0, report["operations"]
    expected = set(run.LAYER_UNITS) if trace else {"wall_s", "setup_s", "peak_rss_mb"}
    assert set(result["metrics"]) == expected
    assert all(m["value"] >= 0 or name == "trace.overhead_s" for name, m in result["metrics"].items())
    assert report["inputs"][0]["n"] == TINY_N
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        accounted = metrics["trace.import_s"] + metrics["trace.other_s"] + sum(
            metrics[f"{module}.self_s"] for module in tracing.MODULES
        )
        assert accounted == pytest.approx(metrics["trace.wall_s"])
        assert metrics["solver.iterations"] > 0
    assert not any((ROOT / ".perfbench_work").glob(f"{workload}-*"))


def test_seed_and_seconds_fix_the_operations():
    seconds = 2 * run.OPERATION_S["p_profile"]
    first, second = (
        run.run_workload("p_profile", seed=4, seconds=seconds, trace=False, root=ROOT, n=TINY_N)
        for _ in range(2)
    )
    assert [book["sha256"] for book in first[0]["inputs"]] == [book["sha256"] for book in second[0]["inputs"]]
    assert len(first[0]["inputs"]) == 2
    assert (first[1]["attempted"], first[1]["failed"]) == (second[1]["attempted"], second[1]["failed"])


def _balance_outputs(tmp_path, n=TINY_N):
    """A real ``exposure-glm balance`` run on a generated book."""
    from exposure_glm.cli import main

    book = gen.balance_book(5, n=n)
    csv_path = tmp_path / "book.csv"
    gen.write_csv(book, csv_path)
    out = tmp_path / "out"
    assert main(["balance", "--input", str(csv_path), "--out", str(out)]) == 0
    levels = book.properties()["levels"]
    expect = {"n": n, "loss_sum": float(book.losses.sum()), "class_rows": sum(levels.values())}
    return out, expect


def _kinds(problems):
    return [kind for kind, _ in problems]


def test_intact_artifacts_pass(tmp_path):
    out, expect = _balance_outputs(tmp_path)
    assert checks.check_balance(out, expect) == []


def test_short_gaps_csv_fails(tmp_path):
    out, expect = _balance_outputs(tmp_path)
    lines = (out / "gaps.csv").read_text().splitlines(keepends=True)
    (out / "gaps.csv").write_text("".join(lines[:-1]))
    assert "check" in _kinds(checks.check_balance(out, expect))


def test_unbalanced_ratio_factor_fails(tmp_path):
    out, expect = _balance_outputs(tmp_path)
    summary = json.loads((out / "balance.json").read_text())
    summary["balance_factor_ratio"] = 1.01
    (out / "balance.json").write_text(json.dumps(summary))
    assert _kinds(checks.check_balance(out, expect)) == ["check"]


def test_missing_class_level_fails(tmp_path):
    out, expect = _balance_outputs(tmp_path)
    expect["class_rows"] += 1
    assert _kinds(checks.check_balance(out, expect)) == ["check"]


def test_fit_log_status():
    ok = "INFO exposure_glm: offset fit: converged=True iterations=5\n" \
         "INFO exposure_glm: ratio fit: converged=True iterations=6\n"
    assert checks.check_fit_log(ok) == []
    stalled = ok.replace("ratio fit: converged=True iterations=6", "ratio fit: converged=False iterations=100")
    assert _kinds(checks.check_fit_log(stalled)) == ["status"]
    assert _kinds(checks.check_fit_log("")) == ["check"]


@pytest.mark.parametrize("builder", [gen.compare_book, gen.balance_book])
def test_same_seed_gives_identical_csv(tmp_path, builder):
    first = gen.write_csv(builder(7, n=500, index=2), tmp_path / "a.csv")
    second = gen.write_csv(builder(7, n=500, index=2), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert first == second
    assert gen.write_csv(builder(8, n=500, index=2), tmp_path / "c.csv") != first
    assert gen.write_csv(builder(7, n=500, index=3), tmp_path / "d.csv") != first


def test_same_seed_gives_identical_arrays():
    assert gen.array_digest(gen.profile_book(7, n=500)) == gen.array_digest(gen.profile_book(7, n=500))
    assert gen.array_digest(gen.profile_book(7, n=500)) != gen.array_digest(gen.profile_book(8, n=500))


def test_book_follows_two_group_design():
    book = gen.compare_book(0, n=10_000)
    facts = book.properties()
    assert facts["midterm_share"] == 0.4
    assert facts["zero_share"] == 0.5
    assert facts["mean_loss_full"] == pytest.approx(100.0, rel=1e-12)
    assert facts["mean_loss_midterm"] == pytest.approx(100.0 * gen.REFERENCE_RATIO, rel=1e-12)
    mid = book.exposures[book.exposures < 1.0]
    assert mid.min() >= gen.EXPOSURE_LO and mid.max() <= gen.EXPOSURE_HI


def test_self_time_subtracts_children():
    spans = [
        ["op", 0.0, 10.0, None, 0, None],
        ["cli.ingest", 1.0, 5.0, 0, 0, None],
        ["model_core.build", 2.0, 4.0, 1, 0, None],
        ["model_core.build", 2.5, 3.5, 2, 0, None],
        ["solver.fit", 6.0, 9.0, 0, 0, {"iterations": 3, "converged": True}],
        ["solver.fit", 0.0, 1.0, None, 1, None],
    ]
    summary = tracing.summarize(spans, 0)
    assert summary["self"] == {"op": 3.0, "cli": 2.0, "model_core": 2.0, "solver": 3.0}
    assert summary["total"]["model_core.build"] == 2.0
    assert summary["own"]["cli.ingest"] == 2.0
    assert summary["count"]["model_core.build"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p_profile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
