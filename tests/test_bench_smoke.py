"""Smoke benchmark of ``exposure-glm compare`` on a 10^4-contract book.

pytest-benchmark records how long one run takes; the test asserts only
that the command succeeds and writes every artifact, never a time.
"""

import pytest

from exposure_glm.cli import main, write_portfolio_csv
from exposure_glm.simulate import gen_mimic_portfolio

pytest.importorskip("pytest_benchmark")

ARTIFACTS = (
    "fit.json", "coeff_ratios.csv", "premium_ratios.csv", "gaps.csv", "class_balance.csv", "balance.json",
)


def test_compare_ten_thousand_contracts(benchmark, tmp_path):
    src = tmp_path / "book.csv"
    write_portfolio_csv(gen_mimic_portfolio(0.4, 10_000, seed=3), src)
    out = tmp_path / "out"
    argv = ["compare", "--input", str(src), "--out", str(out)]
    assert benchmark.pedantic(main, args=(argv,), rounds=1, iterations=1) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    assert sum(1 for _ in open(out / "gaps.csv", encoding="utf-8")) == 10_001
