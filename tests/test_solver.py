"""Solver checks: closed forms, IRLS fixed points, convergence contracts."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exposure_glm import (
    AllZeroLossError,
    Portfolio,
    RankDeficiencyError,
    SingularInformationError,
    TweedieFamily,
    WeightScheme,
    coefficient_covariance,
    fit,
    homogeneous_mle,
    poisson_fit,
    quasi_loglik,
    zip_nonequivalence_check,
)
from exposure_glm import claim_count, model_core, solver
from oracles import GridSpec, grid_mle

from util import (
    fit_from,
    random_count_data,
    random_portfolio,
    spy_book_fact,
    spy_gram,
    toy_portfolio,
    zip_count_data,
)

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
    """The start of the iteration, ``trace_beta[0]``: the intercept-only closed form."""

    def test_homogeneous_intercept(self):
        beta = fit(toy_portfolio(), WeightScheme.RATIO, FAM).trace_beta[0]
        assert beta[0] == pytest.approx(math.log(25.0 / 1.5), rel=1e-15)

    def test_every_fit_starts_at_the_closed_form(self, monkeypatch):
        for seed in range(4):
            pf = random_portfolio(seed + 50)
            for scheme in WeightScheme:
                start = np.zeros(pf.q + 1)
                start[0] = math.log(homogeneous_mle(pf, scheme, FAM))
                for cap in (1, 100):
                    monkeypatch.setattr(solver, "_MAX_ITERATIONS", cap)
                    result = fit(pf, scheme, FAM)
                    assert result.trace_beta[0].tobytes() == start.tobytes()

    def test_all_zero_losses_rejected(self):
        pf = Portfolio.from_arrays([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(AllZeroLossError):
            fit(pf, WeightScheme.RATIO, FAM)


class TestIrlsStep:
    """One Newton update of the fit's loop."""

    def test_stationary_point_is_fixed(self, monkeypatch):
        pf = random_portfolio(21)
        result = fit(pf, WeightScheme.OFFSET, FAM)
        # At the optimum the score is already at its rounding floor and the
        # fit takes no step.  So start 1e-11 away, where the score is far
        # above the floor: one update then runs, and it lands within 1e-12
        # of the optimum only if the optimum is its fixed point.
        start = result.beta_hat + 1e-11
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        stepped = fit_from(start, pf, WeightScheme.OFFSET, FAM)
        assert stepped.iterations == 1
        np.testing.assert_array_equal(stepped.trace_beta[0], start)
        assert np.max(np.abs(stepped.beta_hat - result.beta_hat)) < 1e-12

    def test_intercept_only_reaches_closed_form(self, monkeypatch):
        pf = random_portfolio(22, q=0)
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 60)
        for scheme in WeightScheme:
            beta = fit_from(np.zeros(1), pf, scheme, FAM).beta_hat
            assert beta[0] == pytest.approx(
                math.log(homogeneous_mle(pf, scheme, FAM)), abs=1e-8
            )

    def test_small_zero_heavy_book_near_two_converges(self):
        # Steps on the expected information X.T D X left both fits of this
        # book at the 100-iteration budget; steps on the observed
        # information converge in a few.
        pf = random_portfolio(0, n=24, q=2, zero_frac=0.85)
        for scheme in WeightScheme:
            result = fit(pf, scheme, TweedieFamily(p=1.9))
            assert result.converged
            assert result.iterations <= 10

    def test_covariance_is_the_inverse_expected_information(self):
        # The steps use X.T H X; the reported covariance stays
        # phi * (X.T D X)**-1 at beta_hat, built here from its definition.
        pf = random_portfolio(0, n=24, q=2, zero_frac=0.85)
        fam = TweedieFamily(p=1.9, phi=1.7)
        X, t, z, p = pf.design, pf.exposures, pf.normalized, fam.p
        for scheme, w in ((WeightScheme.OFFSET, t ** (2.0 - p)), (WeightScheme.RATIO, t)):
            result = fit(pf, scheme, fam)
            s = X @ result.beta_hat
            d = w * np.exp((2.0 - p) * s)
            h = d * ((p - 1.0) * z * np.exp(-s) + (2.0 - p))
            expected = fam.phi * np.linalg.inv((X * d[:, None]).T @ X)
            observed = fam.phi * np.linalg.inv((X * h[:, None]).T @ X)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(result.covariance, expected, rtol=0.0, atol=1e-13 * scale)
            assert np.max(np.abs(result.covariance - observed)) > 1e-2 * scale


class TestFit:
    def test_full_exposure_schemes_agree(self):
        pf = random_portfolio(23, all_full=True)
        beta_o = fit(pf, WeightScheme.OFFSET, FAM).beta_hat
        beta_r = fit(pf, WeightScheme.RATIO, FAM).beta_hat
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
        result = fit(pf, WeightScheme.RATIO, FAM)
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

    def test_nonconvergence_is_reported_not_raised(self, monkeypatch):
        pf = random_portfolio(27)
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        result = fit_from(np.zeros(pf.q + 1), pf, WeightScheme.OFFSET, FAM)
        assert not result.converged
        assert result.iterations == 1

    def test_iteration_budget_rejected(self):
        # the cap is fixed: fit takes no budget
        with pytest.raises(TypeError):
            fit(toy_portfolio(), WeightScheme.RATIO, FAM, 100)

    def test_all_zero_losses_rejected(self):
        pf = Portfolio.from_arrays([0.5, 1.0], [0.0, 0.0])
        with pytest.raises(AllZeroLossError):
            fit(pf, WeightScheme.RATIO, FAM)

    def test_trace_objective_is_quasi_loglik(self):
        # both are the scoring pass's objective over phi, so they agree exactly
        pf = random_portfolio(31)
        fam = TweedieFamily(p=1.5, phi=2.5)
        for scheme in WeightScheme:
            result = fit_from(np.zeros(pf.q + 1), pf, scheme, fam)
            assert result.iterations > 3
            for beta, value in zip(result.trace_beta, result.trace_objective):
                assert value == quasi_loglik(beta, pf, scheme, fam)

    def test_duplicate_columns_fail_at_construction(self):
        x = np.linspace(0.0, 1.0, 8)
        with pytest.raises(RankDeficiencyError):
            Portfolio.from_arrays(np.full(8, 0.5), np.ones(8), np.column_stack([x, x]))

    def test_step_halving_never_lowers_objective(self, monkeypatch):
        # halving is always on: the default start and the far start from zero
        pf = random_portfolio(28)
        zero_start = fit_from(np.zeros(pf.q + 1), pf, WeightScheme.OFFSET, FAM)
        for result in (fit(pf, WeightScheme.OFFSET, FAM), zero_start):
            assert result.converged
            diffs = np.diff(result.trace_objective)
            assert np.all(diffs >= -1e-9)

        # a sparse book at p = 1.9 halves a step in each scheme
        passes = []
        scoring_pass = solver._scoring_pass

        def counted(*args):
            passes.append(args[4])
            return scoring_pass(*args)

        monkeypatch.setattr(solver, "_scoring_pass", counted)
        pf = random_portfolio(2, n=30, q=2, zero_frac=0.85)
        for scheme in WeightScheme:
            passes.clear()
            result = fit(pf, scheme, TweedieFamily(p=1.9))
            assert result.converged
            assert np.all(np.diff(result.trace_objective) >= -1e-9)
            assert len(passes) > result.iterations + 1  # one pass per iterate, and one per halving

    def test_poisson_limit_proximity(self):
        # near p = 1 the two weightings almost coincide, so the fits do too
        pf = random_portfolio(29, n=60, q=1)
        fam = TweedieFamily(p=1.0 + 1e-6)
        beta_o = fit(pf, WeightScheme.OFFSET, fam).beta_hat
        beta_r = fit(pf, WeightScheme.RATIO, fam).beta_hat
        assert np.max(np.abs(beta_o - beta_r)) < 1e-4


def sparse_book(seed, n, scale):
    """Exposures U(0.05, 1), two binary covariates, 90 % zero losses, gamma severities times ``scale``."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.05, 1.0, n)
    x = (rng.random((n, 2)) < 0.4).astype(float)
    y = np.where(rng.random(n) < 0.9, 0.0, rng.gamma(1.5, 1.0, n)) * scale
    return t, y, x


class TestStoppingRule:
    """The score test or the step test stops the fit at any loss scale, in a few steps, at the same optimum."""

    def test_large_losses_converge_in_a_few_iterations(self):
        # At this scale the score's rounding noise exceeds an absolute
        # threshold such as 1e-8, which would run both fits to the budget.
        pf = Portfolio.from_arrays(*sparse_book(0, 5000, 1e9))
        for scheme in WeightScheme:
            result = fit(pf, scheme, FAM)
            assert result.converged
            assert result.iterations <= 12

    def test_loss_scale_moves_only_the_intercept(self):
        t, y, x = sparse_book(1, 400, 1.0)
        for scheme in WeightScheme:
            base = fit(Portfolio.from_arrays(t, y, x), scheme, FAM)
            assert base.converged
            for c in (1e-4, 1e5):
                scaled = fit(Portfolio.from_arrays(t, c * y, x), scheme, FAM)
                assert scaled.converged
                assert abs(scaled.iterations - base.iterations) <= 1
                assert scaled.beta_hat[0] - math.log(c) == pytest.approx(base.beta_hat[0], abs=1e-12)
                np.testing.assert_allclose(scaled.beta_hat[1:], base.beta_hat[1:], rtol=0, atol=1e-12)

    def test_zero_start_reaches_the_optimum(self):
        # from zero, Newton steps of the observed information reach the
        # optimum of the closed-form start, every step uphill
        pf = Portfolio.from_arrays(*sparse_book(0, 200, 1e3))
        for scheme in WeightScheme:
            result = fit_from(np.zeros(pf.q + 1), pf, scheme, FAM)
            assert result.converged
            assert np.all(np.diff(result.trace_objective) >= -1e-9)
            reference = fit(pf, scheme, FAM).beta_hat
            assert np.max(np.abs(result.beta_hat - reference)) < 1e-8

    def test_separated_book_never_reports_convergence(self):
        # level 0 of the binary covariate has no losses, so the slope's
        # optimum lies at +inf: no fit may stop at a finite slope as if it
        # had found it, whatever the loss scale
        x = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])[:, None]
        y = np.array([0.0, 0.0, 5.0, 7.0, 0.0, 3.0])
        for scheme in WeightScheme:
            for c in (1e-3, 1.0, 1e3, 1e6):
                pf = Portfolio.from_arrays(np.full(6, 0.5), c * y, x)
                try:
                    result = fit(pf, scheme, FAM)
                except SingularInformationError:
                    continue
                assert not result.converged, (scheme, c, result.beta_hat)

    def test_losses_times_1e12_converge(self):
        # beta_0 is about 32.3 here, where one ulp of it moves the score by about four floors: no iterate meets
        # the score test, and the step test stops both fits
        book = random_portfolio(25)
        pf = Portfolio.from_arrays(book.exposures, 1e12 * book.loss_costs, book.design[:, 1:])
        assert [fit(pf, scheme, FAM).converged for scheme in WeightScheme] == [True, True]

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_any_loss_scale_converges_and_moves_only_the_intercept(self, seed):
        # every loss times 10**e, e = -15, ..., 15, moves beta_0 by log(10**e) and nothing else, to within the
        # floors of the two fits: 32 eps (1 + |beta_0|); the largest shift over 460 seeds was 18 of these units
        book = random_portfolio(seed)
        for p in (1.2, 1.5, 1.8):
            family = TweedieFamily(p=p)
            for scheme in WeightScheme:
                base = fit(book, scheme, family)
                for e in range(-15, 16):
                    scaled = fit(Portfolio.from_arrays(book.exposures, 10.0**e * book.loss_costs, book.design[:, 1:]),
                                 scheme, family)
                    assert scaled.converged and scaled.iterations <= 8, (p, scheme, e, scaled.iterations)
                    shift = scaled.beta_hat - base.beta_hat
                    shift[0] -= math.log(10.0**e)
                    tolerance = 32.0 * np.finfo(float).eps * (1.0 + abs(scaled.beta_hat[0]))
                    assert np.max(np.abs(shift)) <= tolerance, (p, scheme, e, shift)


# A book whose zero losses all sit at x1 = 0: its optimum lies at infinity.
SEPARATED_BOOK = {
    "exposures": [0.5, 1.0, 0.7, 1.0, 0.3, 1.0],
    "x1": [0.0, 0.0, 1.0, 1.0, 0.0, 1.0],
    "losses": [0.0, 0.0, 5.0, 7.0, 0.0, 3.0],
}


# every loss sits where x1 is at its maximum, 2; rows at x1 = 0 and 1 have none
TOP_SEPARATED_BOOK = {
    "exposures": [0.5, 1.0, 0.7, 1.0, 0.3, 1.0, 0.6, 0.9, 1.0],
    "x1": [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 0.0, 1.0, 2.0],
    "losses": [0.0, 0.0, 0.0, 0.0, 5.0, 7.0, 0.0, 0.0, 3.0],
}


class TestDeterminism:
    def test_refits_of_a_book_larger_than_a_block_are_bit_identical(self):
        pf = random_portfolio(5, n=20_000, q=8)
        assert pf.design.size > 2 * model_core._GRAM_BLOCK_CELLS
        for scheme in WeightScheme:
            first, second = (fit(pf, scheme, FAM) for _ in range(2))
            for name in ("beta_hat", "covariance", "trace_objective"):
                assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


class TestDispersionRange:
    """``phi`` is a normal float; what it scales past the float range is an error or inf, never a warning."""

    TINY = float(np.finfo(float).tiny)

    def test_subnormal_dispersion_is_refused(self):
        for phi in (1e-320, 5e-324, self.TINY / 2):
            with pytest.raises(ValueError, match=r"^dispersion must be a positive, finite, normal float, got "):
                TweedieFamily(p=1.5, phi=phi)
        assert TweedieFamily(p=1.5, phi=self.TINY).phi == self.TINY

    def test_overflowing_covariance_names_phi(self):
        pf = Portfolio.from_arrays([0.5, 1.0], [0.005, 0.02])  # small losses: (X.T D X)**-1 is about 4.7
        family = TweedieFamily(p=1.5, phi=1e308)
        result = fit(pf, WeightScheme.OFFSET, family)
        assert result.converged
        message = "the coefficient covariance overflows a float at dispersion phi=1e+308"
        with pytest.raises(ValueError) as excinfo:
            result.covariance
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            coefficient_covariance(pf, result.beta_hat, WeightScheme.OFFSET, family)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("phi", [1e-300, TINY])
    def test_tiny_dispersion_still_fits(self, phi):
        pf = random_portfolio(25)
        family = TweedieFamily(p=1.5, phi=phi)
        reference = fit(pf, WeightScheme.OFFSET, FAM)
        result = fit(pf, WeightScheme.OFFSET, family)
        assert result.converged and result.beta_hat.tobytes() == reference.beta_hat.tobytes()
        assert np.isfinite(result.covariance).all() and np.all(np.diag(result.covariance) > 0.0)
        # the objective over phi overflows at the smallest phi, to the inf that quasi_loglik gives too
        for beta, value in zip(result.trace_beta, result.trace_objective):
            assert value == quasi_loglik(beta, pf, WeightScheme.OFFSET, family)
        assert np.isinf(result.trace_objective).all() == (phi == self.TINY)


class TestSeparation:
    """A covariate whose losses all sit at its maximum, or all at its minimum, stops the fit before it iterates."""

    def test_loss_free_level_is_named_before_any_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fit iterated")

        monkeypatch.setattr(solver, "_scoring_pass", refuse)
        book = SEPARATED_BOOK
        pf = Portfolio.from_arrays(book["exposures"], book["losses"], np.array(book["x1"])[:, None])
        for scheme in WeightScheme:
            with pytest.raises(SingularInformationError, match="every loss is zero where x1 = 0$"):
                fit(pf, scheme, TweedieFamily(p=1.42))

    def test_upper_level_of_a_named_covariate(self):
        # the first covariate has losses at both levels; the second has none at 2.5
        x = np.array([[0.0, -1.0], [1.0, -1.0], [0.0, 2.5], [1.0, 2.5], [1.0, -1.0], [0.0, 2.5]])
        y = np.array([4.0, 6.0, 0.0, 0.0, 3.0, 0.0])
        pf = Portfolio.from_arrays(np.full(6, 0.5), y, x, covariate_names=("urban", "zone"))
        with pytest.raises(SingularInformationError, match="where zone = 2.5$"):
            fit(pf, WeightScheme.RATIO, FAM)

    @pytest.mark.parametrize("scale", [1e-3, 1.0])
    def test_losses_only_at_the_maximum_of_a_three_valued_column(self, monkeypatch, scale):
        # the ratio fit used to report converged=True at beta1 = 58.5
        def refuse(*args):
            raise AssertionError("the fit iterated")

        monkeypatch.setattr(solver, "_scoring_pass", refuse)
        book = TOP_SEPARATED_BOOK
        x = np.array(book["x1"])[:, None]
        pf = Portfolio.from_arrays(book["exposures"], scale * np.array(book["losses"]), x)
        for scheme in WeightScheme:
            with pytest.raises(SingularInformationError, match="every loss is zero where x1 < 2$"):
                fit(pf, scheme, TweedieFamily(p=1.42))
        # mirrored, every loss sits at the minimum
        pf = Portfolio.from_arrays(book["exposures"], scale * np.array(book["losses"]), 0.5 - x)
        with pytest.raises(SingularInformationError, match="every loss is zero where x1 > -1.5$"):
            fit(pf, WeightScheme.RATIO, TweedieFamily(p=1.42))

    def test_losses_inside_the_range_fit(self):
        # losses at the middle and top of the column: a finite optimum exists
        book = TOP_SEPARATED_BOOK
        y = np.array(book["losses"])
        y[2] = 4.0
        pf = Portfolio.from_arrays(book["exposures"], y, np.array(book["x1"])[:, None])
        for scheme in WeightScheme:
            result = fit(pf, scheme, TweedieFamily(p=1.42))
            assert result.converged and np.all(np.abs(result.beta_hat) < 10.0)

    def test_losses_at_every_level_fit(self):
        # the same book with one more loss at x1 = 0 has a finite optimum
        book = SEPARATED_BOOK
        y = np.array(book["losses"])
        y[0] = 2.0
        pf = Portfolio.from_arrays(book["exposures"], y, np.array(book["x1"])[:, None])
        for scheme in WeightScheme:
            result = fit(pf, scheme, TweedieFamily(p=1.42))
            assert result.converged and np.all(np.abs(result.beta_hat) < 10.0)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: no certificate yet for a book that a combination of columns separates; "
        "its fits raise 'weighted information matrix is not finite' mid-iteration",
    )
    def test_book_separated_by_a_combination_of_columns_is_refused_before_any_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the fit iterated")

        monkeypatch.setattr(solver, "_scoring_pass", refuse)
        pf = random_portfolio(151, n=30, q=2, zero_frac=0.85)
        for scheme in WeightScheme:
            for p in (1.5, 1.9):
                with pytest.raises(SingularInformationError, match="^no finite optimum"):
                    fit(pf, scheme, TweedieFamily(p=p))

    def test_scan_runs_once_per_book(self, monkeypatch):
        scanned = spy_book_fact(monkeypatch, "_separation")
        pf = random_portfolio(7)
        for family in (FAM, TweedieFamily(p=1.8)):
            for scheme in WeightScheme:
                assert fit(pf, scheme, family).converged
        assert scanned == [pf]
        book = SEPARATED_BOOK
        separated = Portfolio.from_arrays(book["exposures"], book["losses"], np.array(book["x1"])[:, None])
        messages = []
        for family in (FAM, TweedieFamily(p=1.8)):
            for scheme in WeightScheme:
                with pytest.raises(SingularInformationError) as excinfo:
                    fit(separated, scheme, family)
                messages.append(str(excinfo.value))
        assert scanned == [pf, separated]
        assert messages == ["no finite optimum: every loss is zero where x1 = 0"] * 4


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
        fit_routine = claim_count._fit

        def recorded(*args):
            runs.append(fit_routine(*args))
            return runs[-1]

        monkeypatch.setattr(solver, "quasi_loglik", refuse)
        monkeypatch.setattr(solver, "_scoring_pass", counted)
        pf = random_portfolio(32, n=100)
        for scheme in WeightScheme:
            passes.clear()
            result = fit(pf, scheme, FAM)
            assert result.converged and result.iterations > 1
            assert passes == [FAM.p] * (result.iterations + 1)
        passes.clear()
        monkeypatch.setattr(claim_count, "_fit", recorded)  # the Poisson fit's own call
        poisson_fit(random_count_data(33, n=100), "offset")
        (run,) = runs
        assert run.iterations > 1
        assert passes == [1.0] * (run.iterations + 1)

    def test_zero_start_at_large_losses_does_not_warn(self):
        # the far start from zero at large losses warns of nothing on its way
        pf = Portfolio.from_arrays(*sparse_book(0, 200, 1e5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scheme, iterations in ((WeightScheme.OFFSET, 9), (WeightScheme.RATIO, 9)):
                result = fit_from(np.zeros(pf.q + 1), pf, scheme, FAM)
                assert result.converged
                assert result.iterations == iterations


class TestWorkDoneOnce:
    """A fit factorises its covariance only when it is read; a book computes its column scale once."""

    def test_covariance_is_factorised_once_on_first_read(self, monkeypatch):
        pf = random_portfolio(36)
        grams = spy_gram(monkeypatch)
        result = fit(pf, WeightScheme.OFFSET, FAM)
        assert len(grams) == result.iterations
        expected = coefficient_covariance(pf, result.beta_hat, WeightScheme.OFFSET, FAM)
        result.beta_hat += 1.0  # a write into the estimate does not reach the covariance
        grams.clear()
        first = result.covariance
        assert result.covariance is first
        assert len(grams) == 1
        assert first.tobytes() == expected.tobytes()

    def test_column_scale_is_computed_once_per_book(self, monkeypatch):
        scanned = spy_book_fact(monkeypatch, "_column_scale")
        data = zip_count_data(3)
        for family in (FAM, TweedieFamily(p=1.8)):
            for scheme in WeightScheme:
                assert fit(data, scheme, family).converged
        zip_nonequivalence_check(data)
        assert scanned == [data]
        np.testing.assert_array_equal(data._column_scale, np.abs(data.design).max(axis=0))

    def test_column_scale_is_the_largest_magnitude_bit_for_bit(self):
        # a column's max and -min give max |x| without a copy: at signed zeros, subnormals and +-1e200
        tiny = 5e-324
        covariates = [
            [0.0, -1e200, tiny],
            [-0.0, 1e200, -tiny],
            [2.0, -3.0, -0.0],
            [-2.5, 1e-300, 0.0],
            [tiny, 7.0, -2 * tiny],
            [1.0, -1e200, 3 * tiny],
        ]
        pf = Portfolio.from_arrays(np.ones(6), np.ones(6), covariates)
        expected = np.abs(pf.design).max(axis=0)
        np.testing.assert_array_equal(pf._column_scale, expected)
        assert pf._column_scale.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(expected, [1.0, 2.5, 1e200, 3 * tiny])

    def test_a_fit_computes_its_scheme_weights_once(self, monkeypatch):
        # t**c is evaluated once per fit, for its start and its loop; a covariance read is one more
        calls = []

        def counted(exposures, c, raw=model_core._weights):
            calls.append(c)
            return raw(exposures, c)

        for module in (solver, model_core):
            monkeypatch.setattr(module, "_weights", counted)
        pf = random_portfolio(37)
        for scheme in WeightScheme:
            calls.clear()
            result = fit(pf, scheme, FAM)
            c = model_core._exponent(scheme, FAM.p)
            assert calls == [c]
            assert result.covariance is not None
            assert calls == [c, c]
        calls.clear()
        poisson_fit(random_count_data(37), "offset")
        assert calls == [1.0]

    def test_a_fit_holds_no_n_long_array_of_its_own(self, monkeypatch):
        # a fit keeps its book, c, p, phi and a copy of its final iterate; its own arrays are k or iterations long
        pf, data = random_portfolio(38, n=500), random_count_data(38, n=500)
        fits = [(pf, fit(pf, scheme, FAM)) for scheme in WeightScheme]

        def recorded(*args, fit_routine=claim_count._fit):
            fits.append((data, fit_routine(*args)))
            return fits[-1][1]

        monkeypatch.setattr(claim_count, "_fit", recorded)
        poisson_fit(data, "offset")
        assert len(fits) == 3
        for book, result in fits:
            held, *numbers, beta = result._covariance_inputs
            assert held is book
            assert [type(number) for number in numbers] == [float, float, float]
            assert beta.shape == (book.q + 1,) and not np.shares_memory(beta, result.beta_hat)
            np.testing.assert_array_equal(beta, result.beta_hat)
            assert result.covariance.shape == (book.q + 1, book.q + 1)
            arrays = [value for value in vars(result).values() if isinstance(value, np.ndarray)]
            assert len(arrays) == 4 and all(book.n not in array.shape for array in arrays)

    def test_a_count_book_is_freed_without_the_collector(self):
        # the book keeps its Poisson fit's figures, not the FitResult that holds the book: no cycle outlives it
        data = random_count_data(39, n=500)
        poisson_fit(data, "offset")
        book = weakref.ref(data)
        gc.disable()
        try:
            del data
            assert book() is None
        finally:
            gc.enable()


class TestGridOracle:
    def test_matches_grid_search_with_one_covariate(self):
        pf = random_portfolio(30, n=30, q=1, zero_frac=0.2)
        for scheme in WeightScheme:
            beta_hat = fit(pf, scheme, FAM).beta_hat

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
