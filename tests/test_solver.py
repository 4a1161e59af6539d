"""Solver checks: closed forms, IRLS fixed points, convergence contracts."""

import math
import warnings

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
    poisson_fit,
    quasi_loglik,
)
from exposure_glm import claim_count, solver
from exposure_glm.verification import GridSpec, grid_mle

from util import random_count_data, random_portfolio, toy_portfolio

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
        # At the optimum the score is already at its rounding floor and the
        # fit takes no step.  So start 1e-11 away, where the score is far
        # above the floor: one update then runs, and it lands within 1e-12
        # of the optimum only if the optimum is its fixed point.
        start = result.beta_hat + 1e-11
        config = FitConfig(tolerance=1e-300, max_iterations=1, init=start)
        stepped = fit(pf, WeightScheme.OFFSET, FAM, config)
        assert stepped.iterations == 1
        np.testing.assert_array_equal(stepped.trace_beta[0], start)
        assert np.max(np.abs(stepped.beta_hat - result.beta_hat)) < 1e-12

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

    def test_trace_objective_is_quasi_loglik(self):
        # both are the scoring pass's objective over phi, so they agree exactly
        pf = random_portfolio(31)
        fam = TweedieFamily(p=1.5, phi=2.5)
        for scheme in WeightScheme:
            result = fit(pf, scheme, fam, FitConfig(init="zeros"))
            assert result.iterations > 3
            for beta, value in zip(result.trace_beta, result.trace_objective):
                assert value == quasi_loglik(beta, pf, scheme, fam)

    def test_duplicate_columns_fail_at_construction(self):
        x = np.linspace(0.0, 1.0, 8)
        with pytest.raises(RankDeficiencyError):
            Portfolio.from_arrays(np.full(8, 0.5), np.ones(8), np.column_stack([x, x]))

    def test_step_halving_never_lowers_objective(self):
        # halving is always on: the default start and the far start from zero
        pf = random_portfolio(28)
        for config in (FitConfig(), FitConfig(init="zeros")):
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


def sparse_book(seed, n, scale):
    """Exposures U(0.05, 1), two binary covariates, 90 % zero losses, gamma severities times ``scale``."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.05, 1.0, n)
    x = (rng.random((n, 2)) < 0.4).astype(float)
    y = np.where(rng.random(n) < 0.9, 0.0, rng.gamma(1.5, 1.0, n)) * scale
    return t, y, x


# An absolute tolerance no score can meet: the scale-free floor rule alone stops.
FLOOR_ONLY = FitConfig(tolerance=1e-300)


class TestStoppingRule:
    """The score's rounding floor stops the fit at any loss scale."""

    def test_large_losses_converge_in_a_few_iterations(self):
        # At this scale the score's rounding noise exceeds the absolute 1e-8,
        # so that rule alone runs both fits to the budget.
        pf = Portfolio.from_arrays(*sparse_book(0, 5000, 1e9))
        for scheme in WeightScheme:
            result = fit(pf, scheme, FAM)
            assert result.converged
            assert result.iterations <= 12

    def test_loss_scale_moves_only_the_intercept(self):
        t, y, x = sparse_book(1, 400, 1.0)
        for scheme in WeightScheme:
            base = fit(Portfolio.from_arrays(t, y, x), scheme, FAM, FLOOR_ONLY)
            assert base.converged
            for c in (1e-4, 1e5):
                scaled = fit(Portfolio.from_arrays(t, c * y, x), scheme, FAM, FLOOR_ONLY)
                assert scaled.converged
                assert abs(scaled.iterations - base.iterations) <= 1
                assert scaled.beta_hat[0] - math.log(c) == pytest.approx(base.beta_hat[0], abs=1e-12)
                np.testing.assert_allclose(scaled.beta_hat[1:], base.beta_hat[1:], rtol=0, atol=1e-12)

    def test_zero_start_reaches_the_optimum(self):
        # the full first step from zero overshoots the intercept to ~194, where
        # the next information matrix is singular; halving keeps every step uphill
        pf = Portfolio.from_arrays(*sparse_book(0, 200, 1e3))
        for scheme in WeightScheme:
            result = fit(pf, scheme, FAM, FitConfig(init="zeros"))
            assert result.converged
            assert np.all(np.diff(result.trace_objective) >= -1e-9)
            reference = fit(pf, scheme, FAM).beta_hat
            assert np.max(np.abs(result.beta_hat - reference)) < 1e-8


class TestOnePassPerIterate:
    """The scoring pass yields the objective: one pass per iterate, no other evaluation."""

    def test_fits_need_no_separate_objective(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the solver evaluated quasi_loglik")

        passes = []
        scoring_pass = solver._scoring_pass

        def counted(*args):
            passes.append(args[4])
            return scoring_pass(*args)

        runs = []
        irls = claim_count._irls

        def recorded(*args):
            runs.append(irls(*args))
            return runs[-1]

        monkeypatch.setattr(solver, "quasi_loglik", refuse)
        monkeypatch.setattr(solver, "_scoring_pass", counted)
        monkeypatch.setattr(claim_count, "_irls", recorded)
        pf = random_portfolio(32, n=100)
        for scheme in WeightScheme:
            passes.clear()
            result = fit(pf, scheme, FAM)
            assert result.converged and result.iterations > 1
            assert passes == [FAM.p] * (result.iterations + 1)
        passes.clear()
        poisson_fit(random_count_data(33, n=100), "offset")
        (run,) = runs
        iterations = len(run[4]) - 1  # the trace of iterates
        assert iterations > 1
        assert passes == [1.0] * (iterations + 1)

    def test_zero_start_at_large_losses_does_not_warn(self):
        # the first steps from zero overflow the exponentials; halving and the
        # factorization handle every non-finite value, so nothing is warned
        pf = Portfolio.from_arrays(*sparse_book(0, 200, 1e5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scheme, iterations in ((WeightScheme.OFFSET, 20), (WeightScheme.RATIO, 17)):
                result = fit(pf, scheme, FAM, FitConfig(init="zeros"))
                assert result.converged
                assert result.iterations == iterations


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
