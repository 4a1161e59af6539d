"""Smoke runs at benchmark scale: ``exposure-glm compare`` on a 10^4-contract book, both fits of a 10^5 x 9 book,
the class report of a 10^5-row book with about 2·10^5 levels, and the p-profile call sequence on a small book.

Each test calls its function once and asserts only that the command
succeeds and writes every artifact, that both fits converge, the
report's row count, or how often the work is done, never a time.  The
benchmark itself is ``perfbench/run.py``.
"""

from exposure_glm import (
    TweedieFamily,
    WeightScheme,
    balance_factor,
    class_report,
    covariance_dominance,
    fit,
    moment_ordering,
)
from exposure_glm.cli import main
from exposure_glm.simulate import gen_mimic_portfolio

from util import random_portfolio, spy_covariance, spy_separation, write_portfolio_csv

ARTIFACTS = (
    "fit.json", "coeff_ratios.csv", "premium_ratios.csv", "gaps.csv", "class_balance.csv", "balance.json",
)


def test_compare_ten_thousand_contracts(tmp_path):
    src = tmp_path / "book.csv"
    write_portfolio_csv(gen_mimic_portfolio(0.4, 10_000, seed=3), src)
    out = tmp_path / "out"
    assert main(["compare", "--input", str(src), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    with open(out / "gaps.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 10_001


def test_fit_hundred_thousand_by_nine():
    # 10^5 rows of 9 design columns span many blocks of the X' diag(v) X kernel
    pf = random_portfolio(11, n=100_000, q=8)
    family = TweedieFamily(p=1.5)
    results = [fit(pf, scheme, family) for scheme in WeightScheme]
    assert all(result.converged for result in results)


def test_class_report_two_hundred_thousand_levels():
    # a binary covariate and two continuous ones, whose every value is a
    # level of one contract, summed by the position passes
    pf = random_portfolio(12, n=100_000, q=3)
    fits = [fit(pf, scheme, TweedieFamily(p=1.5)) for scheme in WeightScheme]
    report = class_report(pf, fits)
    assert len(report) == 2 + 2 * pf.n


def test_p_profile_factorises_each_covariance_once_per_p(monkeypatch):
    # the benchmark's p-profile analysis: per p, both fits, the dominance,
    # four one-row moment calls and two balance factors, all at the offset
    # fit's coefficients; each p needs one factorisation per scheme
    factorised, scanned = spy_covariance(monkeypatch), spy_separation(monkeypatch)
    pf = random_portfolio(13, n=2_000, q=8)
    grid = [i / 10 for i in range(11, 20)]
    for p in grid:
        family = TweedieFamily(p=p)
        offset, ratio = (fit(pf, scheme, family) for scheme in WeightScheme)
        covariance_dominance(pf, offset.beta_hat, family)
        for x in pf.design[:4]:
            moment_ordering(x, offset.beta_hat, pf, family)
        balance_factor(pf, offset), balance_factor(pf, ratio)
    assert factorised == [WeightScheme.OFFSET, WeightScheme.RATIO] * len(grid)
    assert scanned == [pf]
