"""Gap arrays, portfolio totals, class balance, balance factor."""

import math

import numpy as np
import pytest

from exposure_glm import (
    Portfolio,
    TweedieFamily,
    WeightScheme,
    balance_factor,
    class_report,
    fit,
    individual_gaps,
    portfolio_gap,
)
from exposure_glm.simulate import gen_mimic_portfolio, run_gap_experiment

from util import gap_totals, random_portfolio, toy_portfolio

FAM = TweedieFamily(p=1.5)


class TestIndividualGaps:
    def test_ratio_gaps_sum_to_zero_on_homogeneous_portfolio(self):
        for seed in range(5):
            pf = random_portfolio(seed, q=0)
            result = fit(pf, WeightScheme.RATIO, FAM)
            _, gap = individual_gaps(pf, result)
            assert abs(portfolio_gap(gap)) < 1e-10

    def test_offset_gaps_do_not_balance(self):
        pf = toy_portfolio()
        result = fit(pf, WeightScheme.OFFSET, FAM)
        assert abs(portfolio_gap(individual_gaps(pf, result)[1])) > 1e-6

    def test_perfect_fit_contract_has_zero_gap(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(0.2, 1.0, 10)
        x = rng.normal(0, 0.5, (10, 1))
        beta = np.array([1.0, 0.5])
        y = t * np.exp(np.column_stack([np.ones(10), x]) @ beta)
        pf = Portfolio.from_arrays(t, y, x)
        result = fit(pf, WeightScheme.RATIO, FAM)
        assert individual_gaps(pf, result)[1] == pytest.approx(np.zeros(10), abs=1e-9)

    def test_gap_identity_holds_exactly(self):
        pf = random_portfolio(2)
        result = fit(pf, WeightScheme.OFFSET, FAM)
        zeta, gap = individual_gaps(pf, result)
        assert zeta.shape == gap.shape == (pf.n,)
        np.testing.assert_array_equal(pf.normalized, pf.loss_costs / pf.exposures)
        np.testing.assert_array_equal(zeta, np.exp(pf.design @ result.beta_hat))
        np.testing.assert_array_equal(gap, pf.exposures * (pf.normalized - zeta))

    def test_arrays_are_fresh(self):
        # the two arrays are the fit's own: writing to them leaves the portfolio as it was
        pf = random_portfolio(2)
        columns = (pf.exposures, pf.loss_costs, pf.normalized, pf.design)
        for array in individual_gaps(pf, fit(pf, WeightScheme.OFFSET, FAM)):
            assert array.dtype == float and array.flags.writeable
            assert not any(np.shares_memory(array, column) for column in columns)

    def test_mismatched_fit_rejected(self):
        pf_a = random_portfolio(3, n=20)
        pf_b = random_portfolio(4, n=30)
        result = fit(pf_a, WeightScheme.RATIO, FAM)
        with pytest.raises(ValueError):
            individual_gaps(pf_b, result)

    def test_records_identical_across_schemes_at_full_exposure(self):
        pf = random_portfolio(5, all_full=True)
        zeta_o, gap_o = individual_gaps(pf, fit(pf, WeightScheme.OFFSET, FAM))
        zeta_r, gap_r = individual_gaps(pf, fit(pf, WeightScheme.RATIO, FAM))
        assert zeta_o == pytest.approx(zeta_r, rel=1e-10)
        assert gap_o == pytest.approx(gap_r, abs=1e-9)


class TestPortfolioGap:
    def test_ratio_toy_portfolio_balances(self):
        result = fit(toy_portfolio(), WeightScheme.RATIO, FAM)
        assert abs(portfolio_gap(individual_gaps(toy_portfolio(), result)[1])) < 1e-12

    def test_offset_toy_portfolio_value(self):
        # 25 - 1.5 * weighted-mean estimate, evaluated from the closed form
        expected = 25.0 - 1.5 * (math.sqrt(0.5) * 10.0 + 20.0) / (math.sqrt(0.5) + 1.0)
        result = fit(toy_portfolio(), WeightScheme.OFFSET, FAM)
        assert portfolio_gap(individual_gaps(toy_portfolio(), result)[1]) == pytest.approx(
            expected, abs=1e-9
        )

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            portfolio_gap([])

    def test_sums_left_to_right(self):
        # the running sum is 1.0; a compensated sum (math.fsum) would give 2.0
        assert portfolio_gap([1e16, 1.0, -1e16, 1.0]) == 1.0
        pf = random_portfolio(21, n=500)
        _, gaps = individual_gaps(pf, fit(pf, WeightScheme.OFFSET, FAM))
        total = 0.0
        for gap in gaps.tolist():
            total += gap
        assert portfolio_gap(gaps) == total
        assert portfolio_gap(gaps.tolist()) == total


def factor_rows(report, name):
    """Row indices of ``report`` that belong to factor ``name``."""
    return [i for i, factor in enumerate(report.factors) if factor == name]


def masked_sum_rows(pf, fits_given, factors):
    """The class report of ``fits_given`` from one boolean mask and ``.sum()`` a level.

    ``factors`` lists the ``(design column, name)`` pairs to report.
    Returns the rows, one ``(level, loss sum, premium sums, ratios)`` a
    level with None for an undefined ratio, and the factor name of each.
    """
    premiums = [pf.exposures * np.exp(pf.design @ result.beta_hat) for result in fits_given]
    expected, names = [], []
    for j, name in factors:
        column = pf.design[:, j]
        rows = []
        for value in np.unique(column):
            mask = column == value
            loss_sum = float(pf.loss_costs[mask].sum())
            premium_sums = tuple(float(p[mask].sum()) for p in premiums)
            ratios = tuple(s / loss_sum if loss_sum > 0.0 else None for s in premium_sums)
            rows.append((float(value), loss_sum, premium_sums, ratios))
        rows.sort(key=lambda row: row[1])
        expected += rows
        names += [name] * len(rows)
    return expected, names


def report_rows(report):
    """``report`` as the rows of ``masked_sum_rows``."""
    ratios = [
        tuple(None if math.isnan(r) else r for r in level_ratios)
        for level_ratios in report.ratios.T.tolist()
    ]
    return list(
        zip(
            report.levels.tolist(),
            report.loss_sums.tolist(),
            map(tuple, report.premium_sums.T.tolist()),
            ratios,
        )
    )


class TestClassReport:
    def test_homogeneous_ratio_portfolio_level_ratio_is_one(self):
        pf = random_portfolio(6, q=0)
        result = fit(pf, WeightScheme.RATIO, FAM)
        report = class_report(pf, [result])
        assert len(report) == 1
        assert report.factors == ("intercept",)
        assert report.ratios[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_intercept_reduces_to_balance_factor(self):
        pf = random_portfolio(7, q=0)
        result = fit(pf, WeightScheme.OFFSET, FAM)
        report = class_report(pf, [result])
        assert report.ratios[0, 0] == pytest.approx(balance_factor(pf, result), rel=1e-12)

    def test_levels_identical_across_schemes_at_full_exposure(self):
        pf = random_portfolio(8, all_full=True)
        fits = [fit(pf, scheme, FAM) for scheme in (WeightScheme.OFFSET, WeightScheme.RATIO)]
        report = class_report(pf, fits)
        assert report.premium_sums.shape == (2, len(report))
        for sum_o, sum_r in zip(*report.premium_sums):
            assert sum_o == pytest.approx(sum_r, rel=1e-9)

    def test_rows_sorted_by_loss_sum(self):
        pf = random_portfolio(9)
        report = class_report(pf, [fit(pf, WeightScheme.RATIO, FAM)])
        assert report.factors == ("x1",) * 2 + ("x2",) * (len(report) - 2)
        for name in pf.covariate_names:
            losses = report.loss_sums[factor_rows(report, name)].tolist()
            assert losses == sorted(losses)

    def test_zero_loss_level_reports_undefined_ratio(self):
        # x is one numeric column, so level 0 has no losses but does not
        # separate the zeros: the fit has an optimum and converges
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        y = np.array([0.0, 0.0, 5.0, 7.0, 0.0, 3.0])
        pf = Portfolio.from_arrays(np.full(6, 0.5), y, x[:, None])
        result = fit(pf, WeightScheme.RATIO, FAM)
        assert result.converged
        report = class_report(pf, [result])
        undefined = np.flatnonzero(np.isnan(report.ratios[0]))
        assert undefined.tolist() == [0]
        assert report.levels[0] == 0.0
        assert report.premium_sums[0, 0] > 0.0

    def test_signed_zeros_form_one_level(self):
        # -0.0 == 0.0, so both are one level, valued as its first contract
        x = np.array([1.0, -0.0, 0.0, 1.0, 0.0, 2.0, 2.0])
        y = np.array([4.0, 0.0, 6.0, 0.0, 2.0, 5.0, 1.0])
        pf = Portfolio.from_arrays(np.full(7, 0.5), y, x[:, None])
        report = class_report(pf, [fit(pf, WeightScheme.RATIO, FAM)])
        assert len(report) == 3
        (zero,) = np.flatnonzero(report.levels == 0.0)
        assert math.copysign(1.0, report.levels[zero]) == -1.0
        assert report.loss_sums[zero] == pf.loss_costs[x == 0.0].sum()

    def test_rows_match_naive_masked_sums_bit_for_bit(self):
        # many levels, whole levels without losses (ratio undefined, loss
        # sums tied at 0) and integer losses that tie some positive loss sums;
        # the same book without covariates reports its intercept
        rng = np.random.default_rng(23)
        n = 3000
        t = np.where(rng.random(n) < 0.4, rng.uniform(0.1, 0.9, n), 1.0)
        level = rng.integers(0, 400, n).astype(float) / 4.0
        y = np.where(rng.random(n) < 0.5, 0.0, rng.integers(1, 6, n).astype(float))
        y[np.isin(level, level[:40])] = 0.0
        x = np.column_stack([(rng.random(n) < 0.5).astype(float), level])
        for pf, factors in (
            (Portfolio.from_arrays(t, y), [(0, "intercept")]),
            (Portfolio.from_arrays(t, y, x), [(1, "x1"), (2, "x2")]),
        ):
            fits = [fit(pf, WeightScheme.OFFSET, FAM), fit(pf, WeightScheme.RATIO, FAM)]
            for fits_given in ([fits[0]], fits):
                expected, names = masked_sum_rows(pf, fits_given, factors)
                report = class_report(pf, fits_given)
                assert report_rows(report) == expected
                assert list(report.factors) == names
        losses = report.loss_sums[factor_rows(report, "x2")].tolist()
        assert sum(loss == 0.0 for loss in losses) >= 10
        assert len(set(losses)) < len(losses) - 10

    @staticmethod
    def assert_matches_masked_sums(pf):
        """Check ``class_report`` of one fit and of two against ``masked_sum_rows``; return the latter report."""
        factors = list(enumerate(pf.covariate_names, start=1))
        fits = [fit(pf, WeightScheme.OFFSET, FAM), fit(pf, WeightScheme.RATIO, FAM)]
        for fits_given in ([fits[1]], fits):
            expected, names = masked_sum_rows(pf, fits_given, factors)
            report = class_report(pf, fits_given)
            assert report_rows(report) == expected
            assert list(report.factors) == names
        return report

    def test_levels_straddling_eight_contracts_match_masked_sums(self):
        # numpy adds fewer than 8 values left to right and 8 or more
        # pairwise; levels of 1-10, 16 and 137 contracts fall on both sides.
        # 127-129 and 255-257 straddle its pairwise block of 128, 8191-8193
        # and 20000 its buffer of 8192 elements.
        # Losses span 1e-3 to 1e6, so another order of addition moves bits.
        rng = np.random.default_rng(31)
        sizes = [*range(1, 11), 16, 127, 128, 129, 137, 255, 256, 257, 8191, 8192, 8193, 20000]
        level = rng.permutation(np.repeat(np.arange(len(sizes), dtype=float), sizes))
        n = level.size
        t = np.where(rng.random(n) < 0.4, rng.uniform(0.1, 0.9, n), 1.0)
        y = np.where(rng.random(n) < 0.3, 0.0, rng.gamma(2.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 6.0, n))
        report = self.assert_matches_masked_sums(Portfolio.from_arrays(t, y, level[:, None]))
        assert len(report) == len(sizes)
        assert sorted(np.unique(level, return_counts=True)[1].tolist()) == sizes

    def test_column_of_distinct_values_matches_masked_sums(self):
        rng = np.random.default_rng(41)
        n = 400
        t = np.where(rng.random(n) < 0.4, rng.uniform(0.1, 0.9, n), 1.0)
        y = np.where(rng.random(n) < 0.5, 0.0, rng.gamma(2.0, 40.0, n))
        x = np.column_stack([(rng.random(n) < 0.5).astype(float), rng.normal(0.0, 0.5, n)])
        report = self.assert_matches_masked_sums(Portfolio.from_arrays(t, y, x))
        assert len(factor_rows(report, "x2")) == n

    def test_level_of_negative_zero_losses_sums_to_positive_zero(self):
        # np.sum of -0.0 values is +0.0, so the masked sum of a level whose
        # losses are all -0.0 is too, for a short level (3) and a long one (9)
        rng = np.random.default_rng(43)
        level = rng.permutation(np.repeat([0.0, 1.0, 2.0, 3.0], [20, 3, 9, 20]))
        y = rng.gamma(2.0, 40.0, level.size)
        y[(level == 1.0) | (level == 2.0)] = -0.0
        pf = Portfolio.from_arrays(np.full(level.size, 0.5), y, level[:, None])
        assert math.copysign(1.0, pf.loss_costs[level == 1.0][0]) == -1.0
        report = self.assert_matches_masked_sums(pf)
        assert report.levels[:2].tolist() == [1.0, 2.0]
        assert [math.copysign(1.0, s) for s in report.loss_sums[:2].tolist()] == [1.0, 1.0]
        assert np.isnan(report.ratios[:, :2]).all()

    def test_ratio_rows_closer_to_balance_than_offset_rows(self):
        pf, fit_offset, fit_ratio = run_gap_experiment(
            n=100, scenario="increasing", heterogeneous=True, p=1.42, seed=11
        )

        def total_log_ratio(result):
            total = 0.0
            for ratio in class_report(pf, [result]).ratios[0].tolist():
                if not math.isnan(ratio):
                    total += abs(math.log(ratio))
            return total

        assert total_log_ratio(fit_ratio) < total_log_ratio(fit_offset)

    def test_fits_from_a_generator_report_as_from_a_list(self):
        pf = gen_mimic_portfolio(0.36, 80, seed=7)
        fits = [fit(pf, scheme, FAM) for scheme in WeightScheme]
        from_list, from_generator = class_report(pf, fits), class_report(pf, (f for f in fits))
        assert from_generator.factors == from_list.factors
        for name in ("levels", "loss_sums", "premium_sums", "ratios"):
            a, b = getattr(from_generator, name), getattr(from_list, name)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name

    def test_record_is_read_only(self):
        pf = random_portfolio(10)
        report = class_report(pf, [fit(pf, WeightScheme.RATIO, FAM)])
        for array in (report.levels, report.loss_sums, report.premium_sums, report.ratios):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestBalanceFactor:
    def test_homogeneous_ratio_is_one(self):
        pf = random_portfolio(15, q=0)
        result = fit(pf, WeightScheme.RATIO, FAM)
        assert balance_factor(pf, result) == pytest.approx(1.0, abs=1e-12)

    def test_heterogeneous_ratio_near_but_not_exactly_one(self):
        pf, _, fit_ratio = run_gap_experiment(
            n=100, scenario="decreasing", heterogeneous=True, p=1.42, seed=16
        )
        factor = balance_factor(pf, fit_ratio)
        assert abs(factor - 1.0) < 0.05
        assert abs(factor - 1.0) > 1e-12

    def test_offset_decreasing_scenario_overshoots(self):
        pf, fit_offset, _ = run_gap_experiment(
            n=100, scenario="decreasing", heterogeneous=False, p=1.42, seed=17
        )
        assert balance_factor(pf, fit_offset) > 1.0

    def test_zero_total_loss_rejected(self):
        pf = Portfolio.from_arrays([0.5, 1.0], [1.0, 2.0])
        result = fit(pf, WeightScheme.RATIO, FAM)
        zero_pf = Portfolio.from_arrays([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            balance_factor(zero_pf, result)


class TestSignLaws:
    @pytest.mark.parametrize("p", [1.2, 1.42, 1.8])
    def test_offset_total_sign_tracks_scenario(self, p):
        increasing = gap_totals(n=100, scenario="increasing", p=p, seed=18)
        decreasing = gap_totals(n=100, scenario="decreasing", p=p, seed=18)
        assert increasing[0] > 0.0
        assert decreasing[0] < 0.0
        assert abs(increasing[1]) < abs(increasing[0])
        assert abs(decreasing[1]) < abs(decreasing[0])
