"""Premium quotes, lognormal estimator moments, covariance dominance."""

import math

import numpy as np
import pytest

from exposure_glm import (
    Dominance,
    Portfolio,
    SingularInformationError,
    TweedieFamily,
    WeightScheme,
    coefficient_covariance,
    covariance_dominance,
    expected_random_gap,
    moment_ordering,
    premium,
    premium_moments,
)
from exposure_glm.simulate import Scenario, ScenarioConfig, build_scenario_portfolio
from exposure_glm.solver import FitConfig, fit
from exposure_glm.verification import eig_min, mc_lognormal_moments

from util import random_portfolio

FAM = TweedieFamily(p=1.42)


def _scenario_portfolio(seed):
    return build_scenario_portfolio(
        ScenarioConfig(n=100, scenario=Scenario.INCREASING, heterogeneous=True, p=1.42, seed=seed)
    ).portfolio


class TestPremium:
    def test_zero_score(self):
        quote = premium(np.zeros(3), np.array([1.0, 0.3, -0.2]), 0.4)
        assert quote.annualized == 1.0
        assert quote.exposure_scaled == pytest.approx(0.4)

    def test_intercept_only(self):
        quote = premium(np.array([math.log(100.0)]), np.array([1.0]), 0.5, contract_id="c9")
        assert quote.annualized == pytest.approx(100.0, rel=1e-14)
        assert quote.exposure_scaled == pytest.approx(50.0, rel=1e-14)
        assert quote.contract_id == "c9"

    def test_monotone_in_coefficients(self):
        x = np.array([1.0, 2.0])
        base = premium(np.array([0.1, 0.5]), x, 1.0).annualized
        bumped = premium(np.array([0.1, 0.6]), x, 1.0).annualized
        assert bumped > base

    def test_exposure_bounds(self):
        with pytest.raises(ValueError):
            premium(np.zeros(1), np.ones(1), 0.0)


class TestPremiumMoments:
    def test_degenerate_covariance(self):
        x = np.array([1.0, 0.5])
        beta = np.array([0.4, 0.2])
        moments = premium_moments(x, beta, np.zeros((2, 2)))
        assert moments.mean == pytest.approx(math.exp(x @ beta), rel=1e-15)
        assert moments.variance == 0.0

    def test_scalar_closed_form(self):
        # quadratic form 0.02 with location log(100)
        moments = premium_moments(np.array([1.0]), np.array([math.log(100.0)]), np.array([[0.02]]))
        assert moments.mean == pytest.approx(101.00501670841679, rel=1e-12)
        assert moments.variance == pytest.approx(206.09434165632376, rel=1e-12)

    def test_positive_bias(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = 3
            x = np.concatenate([[1.0], rng.normal(0, 1, k - 1)])
            beta = rng.normal(0, 0.5, k)
            a = rng.normal(0, 0.2, (k, k))
            moments = premium_moments(x, beta, a @ a.T)
            assert moments.mean > math.exp(float(x @ beta))

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(18)
        for seed in range(3):
            k = 3
            x = np.concatenate([[1.0], rng.normal(0, 1, k - 1)])
            beta = rng.normal(0, 0.5, k)
            a = rng.normal(0, 1, (k, k))
            sigma = a @ a.T
            sigma *= rng.uniform(0.01, 0.15) / max(float(x @ sigma @ x), 1e-12)
            moments = premium_moments(x, beta, sigma)
            mc_mean, mc_var = mc_lognormal_moments(x, beta, sigma, 1_000_000, seed=seed)
            assert moments.mean == pytest.approx(mc_mean, rel=0.01)
            assert moments.variance == pytest.approx(mc_var, rel=0.01)

    def test_dispersion_multiplier(self):
        x = np.array([1.0])
        beta = np.array([0.0])
        base = premium_moments(x, beta, np.array([[0.02]]))
        via_dispersion = premium_moments(x, beta, np.array([[0.01]]), dispersion=2.0)
        assert base.mean == pytest.approx(via_dispersion.mean, rel=1e-14)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            premium_moments(np.ones(2), np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            premium_moments(np.ones(2), np.zeros(2), np.diag([1.0, -1.0]))


class TestCovarianceDominance:
    def test_full_exposure_gives_zero_difference(self):
        pf = random_portfolio(19, all_full=True)
        report = covariance_dominance(pf, np.array([0.5, 0.1, -0.2]), FAM)
        assert report.verdict is Dominance.DEGENERATE_EQUAL
        assert np.max(np.abs(report.difference)) < 1e-12

    def test_partial_exposure_strictly_dominant(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            pf = random_portfolio(seed, n=40)
            beta = rng.normal(0, 0.5, 3)
            report = covariance_dominance(pf, beta, FAM)
            assert report.verdict is Dominance.STRICTLY_DOMINANT
            assert eig_min(report.difference) > 0.0

    def test_scalar_intercept_only_value(self):
        pf = Portfolio.from_arrays([0.25, 1.0], [1.0, 2.0])
        fam = TweedieFamily(p=1.5, phi=1.0)
        report = covariance_dominance(pf, np.zeros(1), fam)
        # sum of weights: offset 0.25**0.5 + 1 = 1.5, ratio 0.25 + 1 = 1.25
        assert report.difference[0, 0] == pytest.approx(1.0 / 1.25 - 1.0 / 1.5, rel=1e-12)
        assert report.verdict is Dominance.STRICTLY_DOMINANT


class TestMomentOrdering:
    def test_full_exposure_equalities(self):
        pf = random_portfolio(21, all_full=True)
        ordering = moment_ordering(pf.design[0], np.array([0.5, 0.1, -0.2]), pf, FAM)
        assert ordering.degenerate_equal
        assert ordering.offset.mean == ordering.ratio.mean
        assert ordering.offset.variance == ordering.ratio.variance

    def test_strict_ordering_on_simulated_portfolio(self):
        pf = _scenario_portfolio(3)
        beta = np.array([2.0, 0.3, -0.2])
        for row in pf.design:
            ordering = moment_ordering(row, beta, pf, FAM)
            assert ordering.mean_strictly_ordered
            assert ordering.variance_strictly_ordered

    def test_single_contract_portfolio_rejected_by_rank(self):
        with pytest.raises(ValueError):
            Portfolio.from_arrays([0.5], [1.0], [[1.0]])


class TestExpectedRandomGap:
    def test_vanishes_as_dispersion_vanishes(self):
        pf = _scenario_portfolio(4)
        beta = np.array([2.0, 0.3, -0.2])
        tiny = TweedieFamily(p=1.42, phi=1e-12)
        for scheme in WeightScheme:
            assert abs(expected_random_gap(pf, beta, tiny, scheme)) < 1e-6

    def test_signed_ordering(self):
        pf = _scenario_portfolio(5)
        beta = np.array([2.0, 0.3, -0.2])
        fam = TweedieFamily(p=1.42, phi=2.0)
        gap_ratio = expected_random_gap(pf, beta, fam, WeightScheme.RATIO)
        gap_offset = expected_random_gap(pf, beta, fam, WeightScheme.OFFSET)
        assert gap_ratio <= gap_offset
        assert gap_ratio < 0.0 and gap_offset < 0.0

    def test_equal_at_full_exposure(self):
        pf = random_portfolio(22, all_full=True)
        beta = np.array([0.5, 0.1, -0.2])
        fam = TweedieFamily(p=1.42, phi=1.5)
        assert expected_random_gap(pf, beta, fam, WeightScheme.RATIO) == pytest.approx(
            expected_random_gap(pf, beta, fam, WeightScheme.OFFSET), rel=1e-12
        )


class TestCoefficientCovariance:
    def test_matches_fit_covariance(self):
        from exposure_glm import FitConfig, fit

        pf = random_portfolio(23)
        fam = TweedieFamily(p=1.42, phi=2.5)
        result = fit(pf, WeightScheme.OFFSET, fam, FitConfig(tolerance=1e-12))
        np.testing.assert_allclose(
            coefficient_covariance(pf, result.beta_hat, WeightScheme.OFFSET, fam),
            result.covariance,
            rtol=1e-10,
        )


# at this coefficient vector exp(-s) in the residual overflows as D underflows
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestSingularInformation:
    """Every factorization of ``X.T @ D @ X`` reports underflow of ``D`` the same way."""

    BETA = np.array([-2000.0, 0.0, 0.0])  # exp((2 - p) * -2000) underflows to 0

    def test_coefficient_covariance_raises(self):
        pf = random_portfolio(5)
        for scheme in WeightScheme:
            with pytest.raises(SingularInformationError):
                coefficient_covariance(pf, self.BETA, scheme, FAM)

    def test_covariance_dominance_raises(self):
        with pytest.raises(SingularInformationError):
            covariance_dominance(random_portfolio(5), self.BETA, FAM)

    def test_fit_raises_from_its_start(self):
        with pytest.raises(SingularInformationError):
            fit(random_portfolio(5), WeightScheme.RATIO, FAM, FitConfig(init=self.BETA))
