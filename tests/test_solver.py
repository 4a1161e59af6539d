"""Solver checks: closed forms, IRLS fixed points, convergence contracts."""

import math

import numpy as np
import pytest

from exposure_glm import (
    AllZeroLossError,
    FitConfig,
    Portfolio,
    RankDeficiencyError,
    TweedieFamily,
    WeightScheme,
    fit,
    homogeneous_mle,
    quasi_loglik,
)
from exposure_glm.verification import GridSpec, grid_mle

from util import random_portfolio, toy_portfolio

FAM = TweedieFamily(p=1.5)


class TestHomogeneousMle:
    def test_ratio_closed_form(self):
        assert homogeneous_mle(toy_portfolio(), WeightScheme.RATIO, FAM) == pytest.approx(
            25.0 / 1.5, rel=1e-15
        )

    def test_offset_closed_form(self):
        expected = (math.sqrt(0.5) * 10.0 + 20.0) / (math.sqrt(0.5) + 1.0)
        assert homogeneous_mle(toy_portfolio(), WeightScheme.OFFSET, FAM) == pytest.approx(
            expected, rel=1e-15
        )

    def test_full_exposure_reduces_to_mean(self):
        pf = Portfolio.from_arrays(np.ones(5), [1.0, 2.0, 3.0, 4.0, 10.0])
        for scheme in WeightScheme:
            assert homogeneous_mle(pf, scheme, FAM) == pytest.approx(4.0, rel=1e-15)

    def test_ratio_equals_total_loss_over_total_exposure(self):
        for seed in range(10):
            pf = random_portfolio(seed, q=0)
            assert homogeneous_mle(pf, WeightScheme.RATIO, FAM) == pytest.approx(
                pf.loss_costs.sum() / pf.exposures.sum(), rel=1e-12
            )


class TestInitBeta:
    """The start of the iteration, ``trace_beta[0]``, per ``FitConfig.init``."""

    def test_homogeneous_intercept(self):
        beta = fit(toy_portfolio(), WeightScheme.RATIO, FAM, FitConfig()).trace_beta[0]
        assert beta[0] == pytest.approx(math.log(25.0 / 1.5), rel=1e-15)

    def test_user_vector_passthrough(self):
        user = np.array([1.0])
        result = fit(toy_portfolio(), WeightScheme.RATIO, FAM, FitConfig(init=user))
        np.testing.assert_array_equal(result.trace_beta[0], [1.0])
        np.testing.assert_array_equal(user, [1.0])  # the caller's vector is not updated in place

    def test_zeros(self):
        beta = fit(toy_portfolio(), WeightScheme.RATIO, FAM, FitConfig(init="zeros")).trace_beta[0]
        np.testing.assert_array_equal(beta, np.zeros(1))

    def test_all_zero_losses_rejected(self):
        pf = Portfolio.from_arrays([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(AllZeroLossError):
            fit(pf, WeightScheme.RATIO, FAM, FitConfig())


class TestIrlsStep:
    """One Fisher-scoring update of the fit's loop."""

    def test_stationary_point_is_fixed(self):
        pf = random_portfolio(21)
        result = fit(pf, WeightScheme.OFFSET, FAM, FitConfig(tolerance=1e-13))
        # a tolerance no gradient can meet forces exactly one update
        config = FitConfig(tolerance=1e-300, max_iterations=1, init=result.beta_hat)
        stepped = fit(pf, WeightScheme.OFFSET, FAM, config).beta_hat
        assert np.max(np.abs(stepped - result.beta_hat)) < 1e-12

    def test_intercept_only_reaches_closed_form(self):
        pf = random_portfolio(22, q=0)
        for scheme in WeightScheme:
            config = FitConfig(tolerance=1e-300, max_iterations=60, init="zeros")
            beta = fit(pf, scheme, FAM, config).beta_hat
            assert beta[0] == pytest.approx(
                math.log(homogeneous_mle(pf, scheme, FAM)), abs=1e-8
            )


class TestFit:
    def test_full_exposure_schemes_agree(self):
        pf = random_portfolio(23, all_full=True)
        config = FitConfig(tolerance=1e-10)
        beta_o = fit(pf, WeightScheme.OFFSET, FAM, config).beta_hat
        beta_r = fit(pf, WeightScheme.RATIO, FAM, config).beta_hat
        assert np.max(np.abs(beta_o - beta_r)) < 1e-8

    def test_converges_quickly_on_heterogeneous_portfolios(self):
        for seed in range(5):
            pf = random_portfolio(seed + 100, n=100)
            for scheme in WeightScheme:
                result = fit(pf, scheme, FAM)
                assert result.converged
                assert result.iterations < 50

    def test_fixed_point_criterion(self):
        pf = random_portfolio(24)
        result = fit(pf, WeightScheme.RATIO, FAM, FitConfig(tolerance=1e-9))
        assert result.converged
        assert result.gradient_norm < 1e-9

    def test_objective_not_below_init(self):
        for seed in range(8):
            pf = random_portfolio(seed + 40)
            for scheme in WeightScheme:
                result = fit(pf, scheme, FAM)
                assert result.trace_objective[-1] >= result.trace_objective[0] - 1e-12

    def test_covariance_is_spd_and_scaled_by_phi(self):
        pf = random_portfolio(25)
        fam2 = TweedieFamily(p=1.5, phi=3.0)
        r1 = fit(pf, WeightScheme.OFFSET, FAM)
        r2 = fit(pf, WeightScheme.OFFSET, fam2)
        np.testing.assert_allclose(r2.covariance, 3.0 * r1.covariance, rtol=1e-9)
        assert np.all(np.linalg.eigvalsh(r1.covariance) > 0)

    def test_trace_records_every_iterate(self):
        pf = random_portfolio(26)
        result = fit(pf, WeightScheme.OFFSET, FAM)
        assert result.trace_beta.shape == (result.iterations + 1, pf.q + 1)
        assert result.trace_objective.shape == (result.iterations + 1,)

    def test_nonconvergence_is_reported_not_raised(self):
        pf = random_portfolio(27)
        result = fit(pf, WeightScheme.OFFSET, FAM, FitConfig(tolerance=1e-14, max_iterations=1, init="zeros"))
        assert not result.converged
        assert result.iterations == 1

    def test_all_zero_losses_rejected(self):
        pf = Portfolio.from_arrays([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(AllZeroLossError):
            fit(pf, WeightScheme.RATIO, FAM)

    def test_duplicate_columns_fail_at_construction(self):
        x = np.linspace(0.0, 1.0, 8)
        with pytest.raises(RankDeficiencyError):
            Portfolio.from_arrays(np.full(8, 0.5), np.ones(8), np.column_stack([x, x]))

    def test_step_halving_never_lowers_objective(self):
        pf = random_portfolio(28)
        config = FitConfig(init="zeros", step_halving=True)
        result = fit(pf, WeightScheme.OFFSET, FAM, config)
        assert result.converged
        diffs = np.diff(result.trace_objective)
        assert np.all(diffs >= -1e-9)

    def test_poisson_limit_proximity(self):
        # near p = 1 the two weightings almost coincide, so the fits do too
        pf = random_portfolio(29, n=60, q=1)
        fam = TweedieFamily(p=1.0 + 1e-6)
        config = FitConfig(tolerance=1e-12)
        beta_o = fit(pf, WeightScheme.OFFSET, fam, config).beta_hat
        beta_r = fit(pf, WeightScheme.RATIO, fam, config).beta_hat
        assert np.max(np.abs(beta_o - beta_r)) < 1e-4


class TestGridOracle:
    def test_matches_grid_search_with_one_covariate(self):
        pf = random_portfolio(30, n=30, q=1, zero_frac=0.2)
        for scheme in WeightScheme:
            beta_hat = fit(pf, scheme, FAM, FitConfig(tolerance=1e-12)).beta_hat

            def objective(b):
                return quasi_loglik(b, pf, scheme, FAM)

            center = math.log(homogeneous_mle(pf, scheme, FAM))
            result = grid_mle(objective, GridSpec(((center - 0.75, center + 0.75, 31), (-0.75, 0.75, 31))))
            assert not result.on_boundary
            result = grid_mle(objective, GridSpec(tuple((w - 0.06, w + 0.06, 41) for w in result.argmax)))
            result = grid_mle(objective, GridSpec(tuple((w - 0.008, w + 0.008, 33) for w in result.argmax)))
            assert np.max(np.abs(result.argmax - beta_hat)) < 1e-3

    def test_intercept_only_matches_closed_form_within_cell(self):
        pf = random_portfolio(31, q=0)
        target = math.log(homogeneous_mle(pf, WeightScheme.RATIO, FAM))

        def objective(b):
            return quasi_loglik(b, pf, WeightScheme.RATIO, FAM)

        result = grid_mle(objective, GridSpec(((target - 1.0, target + 1.0, 41),)))
        cell = 2.0 / 40
        assert abs(result.argmax[0] - target) <= cell
