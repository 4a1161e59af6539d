"""Smoke benchmarks: ``exposure-glm compare`` on a 10^4-contract book, both fits of a 10^5 x 9 book,
the class report of a 10^5-row book with about 2·10^5 levels.

pytest-benchmark records how long one run takes; the tests assert only
that the command succeeds and writes every artifact, that both fits
converge, or the report's row count, never a time.
"""

import pytest

from exposure_glm import TweedieFamily, WeightScheme, class_report, fit
from exposure_glm.cli import main
from exposure_glm.simulate import gen_mimic_portfolio

from util import random_portfolio, write_portfolio_csv

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


def test_fit_hundred_thousand_by_nine(benchmark):
    # 10^5 rows of 9 design columns span many blocks of the X' diag(v) X kernel
    pf = random_portfolio(11, n=100_000, q=8)
    family = TweedieFamily(p=1.5)

    def fit_both():
        return [fit(pf, scheme, family) for scheme in WeightScheme]

    results = benchmark.pedantic(fit_both, rounds=1, iterations=1)
    assert all(result.converged for result in results)


def test_class_report_two_hundred_thousand_levels(benchmark):
    # a binary covariate and two continuous ones, whose every value is a
    # level of one contract, summed by the position passes
    pf = random_portfolio(12, n=100_000, q=3)
    fits = [fit(pf, scheme, TweedieFamily(p=1.5)) for scheme in WeightScheme]
    report = benchmark.pedantic(class_report, args=(pf, fits), rounds=1, iterations=1)
    assert len(report) == 2 + 2 * pf.n
