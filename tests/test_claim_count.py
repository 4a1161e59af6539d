"""Poisson offset/ratio equivalence and zero-inflated non-equivalence."""

import math

import numpy as np
import pytest

from exposure_glm import (
    AllZeroLossError,
    CountData,
    Portfolio,
    SingularInformationError,
    TweedieFamily,
    WeightScheme,
    fit,
    poisson_fit,
    zip_nonequivalence_check,
)
from exposure_glm import claim_count, solver
from exposure_glm.model_core import _scoring_pass
from oracles import finite_diff_gradient, poisson_score, zip_loglik

from util import overflowing_count_data, random_count_data, random_portfolio, zip_count_data


class TestCountTypes:
    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            CountData.from_arrays([0.5, 1.0], [-1, 1])

    def test_rejects_fractional_count(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            CountData.from_arrays([0.5, 1.0], [1.5, 1])

    def test_rejects_bad_exposure(self):
        with pytest.raises(ValueError, match="exposure"):
            CountData.from_arrays([0.5, 0.0], [1, 1])

    def test_columns(self):
        data = CountData.from_arrays([0.5, 1.0, 0.25], [1, 0, 2], [[1.0], [0.0], [2.0]])
        assert (data.n, data.q, len(data)) == (3, 1, 3)
        np.testing.assert_array_equal(data.counts, [1.0, 0.0, 2.0])
        np.testing.assert_array_equal(data.normalized, [2.0, 0.0, 8.0])
        np.testing.assert_array_equal(data.design, [[1.0, 1.0], [1.0, 0.0], [1.0, 2.0]])

    def test_counts_are_a_portfolio(self):
        data = CountData.from_arrays([0.5, 1.0], [1, 0], contract_ids=["a", "b"])
        assert isinstance(data, Portfolio)
        assert data.counts is data.loss_costs
        assert (data.contract_ids, data.covariate_names) == (("a", "b"), ())
        with pytest.raises(ValueError, match="duplicate contract id 'a'"):
            CountData.from_arrays([0.5, 1.0], [1, 0], contract_ids=["a", "a"])

    def test_zip_params_zero_inflation_bounds(self):
        data = CountData.from_arrays([0.5, 1.0], [1, 0])
        for bad in (1.0, -0.1):
            with pytest.raises(ValueError, match=rf"^zero inflation must lie in \[0, 1\), got {bad}$"):
                zip_nonequivalence_check(data, bad)
        zip_nonequivalence_check(data, 0.0)


class TestPoissonFit:
    def test_modes_agree_on_random_datasets(self):
        for seed in range(10):
            data = random_count_data(seed)
            beta_offset = poisson_fit(data, "offset")
            beta_ratio = poisson_fit(data, "ratio")
            assert np.max(np.abs(beta_offset - beta_ratio)) < 1e-8

    def test_offset_score_vanishes_at_fit(self):
        # both modes run the Tweedie loop at p = 1; the raw-count score
        # X.T @ (y - t * zeta), written out independently, checks it
        for seed in range(10):
            data = random_count_data(seed)
            for mode in ("offset", "ratio"):
                beta = poisson_fit(data, mode)
                assert np.max(np.abs(poisson_score(beta, data, "offset"))) < 1e-11

    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.2, 1.0, 30)
        y = rng.poisson(2.0 * t)
        y[0] = max(y[0], 1)
        data = CountData.from_arrays(t, y)
        expected = math.log(y.sum() / t.sum())
        for mode in ("offset", "ratio"):
            assert poisson_fit(data, mode)[0] == pytest.approx(expected, abs=1e-10)

    def test_pass_objective_is_the_poisson_loglik(self):
        # at p = 1 the scoring pass's objective is the Poisson log-likelihood
        # in beta (factorials dropped), here computed directly
        data = random_count_data(12, n=200)
        t, z = data.exposures, data.normalized
        rng = np.random.default_rng(13)
        for _ in range(5):
            beta = rng.normal(0.0, 0.5, data.q + 1)
            s = data.design @ beta
            expected = float(np.sum(t * (z * s - np.exp(s))))
            objective = _scoring_pass(beta, data.design, z, t, 1.0)[4]
            assert objective == pytest.approx(expected, rel=1e-13)

    def test_all_zero_counts_rejected(self):
        # a refusal is not kept: every call raises it
        data = CountData.from_arrays([0.5, 1.0], [0, 0])
        for _ in range(2):
            with pytest.raises(AllZeroLossError):
                poisson_fit(data, "offset")

    def test_one_fit_per_book(self, monkeypatch):
        runs = []

        def counted(*args, irls=solver._irls):
            runs.append(irls(*args))
            return runs[-1]

        monkeypatch.setattr(solver, "_irls", counted)
        data = random_count_data(34)
        offset, ratio = (poisson_fit(data, scheme) for scheme in WeightScheme)
        assert len(runs) == 1
        assert offset is not ratio
        np.testing.assert_array_equal(offset, ratio)
        offset[:] = 0.0  # a caller's write reaches no later call
        np.testing.assert_array_equal(poisson_fit(data, "offset"), ratio)

    def test_budget_exhausted_raises(self, monkeypatch):
        # one cap governs both fits: fit reports what poisson_fit refuses
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match="^Poisson offset fit did not converge in 1 iterations$"):
            poisson_fit(random_count_data(0), "offset")
        result = fit(random_portfolio(27), WeightScheme.OFFSET, TweedieFamily(p=1.5))
        assert not result.converged
        assert result.iterations == 1

    def test_unknown_mode_rejected(self):
        data = random_count_data(0)
        with pytest.raises(ValueError):
            poisson_fit(data, "weighted")

    def test_schemes_and_their_names_agree(self):
        # poisson_fit takes a WeightScheme or its value, like fit
        data = zip_count_data(0)
        for scheme in WeightScheme:
            assert poisson_fit(data, scheme).tobytes() == poisson_fit(data, scheme.value).tobytes()


def _separated_count_data(seed, levels, n=100):
    """Poisson counts at rate 0.3 where ``x1`` is at its top level, none elsewhere; ``x2`` is normal."""
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, levels, n).astype(float)
    x2 = rng.normal(size=n)
    t = np.where(rng.random(n) < 0.4, rng.uniform(0.08, 0.92, n), 1.0)
    top = x1 == levels - 1
    y = np.where(top, rng.poisson(0.3 * t), 0)
    y[top.argmax()] = max(y[top.argmax()], 1)
    return CountData.from_arrays(t, y, np.column_stack([x1, x2]))


class TestPoissonRefusals:
    """Like ``fit``, ``poisson_fit`` refuses a count book with no finite optimum before it iterates."""

    @pytest.mark.parametrize("scheme", list(WeightScheme))
    def test_book_separated_at_a_level_refused(self, scheme):
        # a binary x1: every count at x1 = 0 is zero
        for seed in range(5):
            with pytest.raises(SingularInformationError, match="every count is zero where x1 = 0$"):
                poisson_fit(_separated_count_data(seed, 2), scheme)

    @pytest.mark.parametrize("scheme", list(WeightScheme))
    def test_book_separated_at_a_column_maximum_refused(self, scheme):
        # a four-level x1: every count sits at its maximum, 3
        for seed in range(5):
            with pytest.raises(SingularInformationError, match="every count is zero where x1 < 3$"):
                poisson_fit(_separated_count_data(seed, 4), scheme)

    def test_all_zero_book_refused_naming_counts(self):
        data = CountData.from_arrays([0.5, 1.0, 0.25], [0, 0, 0], [[1.0], [0.0], [2.0]])
        for scheme in WeightScheme:
            with pytest.raises(AllZeroLossError, match="^cannot fit a portfolio whose counts are all zero$"):
                poisson_fit(data, scheme)
        assert issubclass(AllZeroLossError, ValueError)  # callers catching ValueError still catch it


def _zip_scheme_loglik(data, zero_inflation, scheme):
    """``beta ->`` one scheme's ZIP log-likelihood as ``zip_nonequivalence_check`` computes it."""
    index = ("offset", "ratio").index(scheme)
    return lambda beta: claim_count._zip_log_likelihoods(data, zero_inflation, [np.asarray(beta, dtype=float)])[0][index]


class TestZipLogLikelihoods:
    def test_zero_inflation_zero_scores_match_poisson(self):
        # without the extra zero mass each scheme's surface is its Poisson one
        data = zip_count_data(1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            beta = rng.normal(0, 0.3, 2)
            for scheme in ("offset", "ratio"):
                numeric = finite_diff_gradient(_zip_scheme_loglik(data, 0.0, scheme), beta)
                analytic = poisson_score(beta, data, scheme)
                assert np.max(np.abs(numeric - analytic)) / max(1.0, np.max(np.abs(analytic))) < 1e-6

    def test_full_exposure_schemes_coincide_bit_for_bit(self):
        # t = 1 makes the ratio scheme's weight, mean and count the offset scheme's
        data = zip_count_data(3, all_full=True)
        rng = np.random.default_rng(4)
        betas = [rng.normal(0, 0.3, 2) for _ in range(5)]
        for offset, ratio in claim_count._zip_log_likelihoods(data, 0.3, betas):
            assert offset == ratio

    def test_mixed_exposure_scores_differ(self):
        data = zip_count_data(4)
        beta = np.array([0.2, -0.1])
        grad_offset, grad_ratio = (
            finite_diff_gradient(_zip_scheme_loglik(data, 0.3, scheme), beta) for scheme in ("offset", "ratio")
        )
        assert np.max(np.abs(grad_offset - grad_ratio)) > 1e-6

    def test_each_loglik_is_the_oracle_bit_for_bit(self):
        # away from the probes too, at two covariates, and with a pair per beta in the order given
        data = random_count_data(5)
        rng = np.random.default_rng(6)
        betas = [rng.normal(0, 0.5, data.q + 1) for _ in range(4)]
        for zero_inflation in (0.0, 0.25, 0.9):
            pairs = claim_count._zip_log_likelihoods(data, zero_inflation, betas)
            assert pairs == [[zip_loglik(beta, zero_inflation, data, scheme) for scheme in ("offset", "ratio")]
                             for beta in betas]


class TestZipNonEquivalence:
    def test_mixed_exposures_trigger_evidence(self):
        evidence = zip_nonequivalence_check(zip_count_data(7), zero_inflation=0.3)
        assert not evidence.equivalent
        assert evidence.spread > 1e-6

    def test_currency_scale_covariate_gives_finite_report(self):
        # a sum insured in the thousands would overflow exp(x @ beta) at an
        # absolute slope of 0.1; the probes scale with each column instead
        data = overflowing_count_data()
        evidence = zip_nonequivalence_check(data, 0.3)
        assert all(map(math.isfinite, evidence.differences))
        assert not evidence.equivalent
        rescaled = CountData.from_arrays(data.exposures, data.counts, data.design[:, 1:] / 1000.0)
        assert zip_nonequivalence_check(rescaled, 0.3).differences == pytest.approx(evidence.differences, rel=1e-12)
        assert zip_nonequivalence_check(data, 0.0).equivalent

    def test_probe_that_overflows_is_rejected(self, monkeypatch):
        # a probe whose NaN difference would vanish from the spread is refused
        monkeypatch.setattr(claim_count, "_ZIP_PROBES", ((0.0, 0.0), (0.1, 1000.0)))
        for zero_inflation in (0.3, 0.0):
            with pytest.raises(ValueError, match="probe at intercept 0.1, other coefficients 1000.0 over each"):
                zip_nonequivalence_check(zip_count_data(7), zero_inflation)

    @pytest.mark.parametrize("zero_inflation", [0.0, 0.3, 0.9])
    def test_each_difference_is_the_loglik_difference_bit_for_bit(self, zero_inflation):
        # one zero split per book and one exp(X @ beta) per probe serve both schemes,
        # against each scheme's log-likelihood written out over the whole book
        for data in (zip_count_data(12), overflowing_count_data()):
            evidence = zip_nonequivalence_check(data, zero_inflation)
            for (intercept, slope), difference in zip(claim_count._ZIP_PROBES, evidence.differences, strict=True):
                beta = np.array((intercept,) + (slope,) * data.q) / data._column_scale
                offset, ratio = (zip_loglik(beta, zero_inflation, data, scheme) for scheme in ("offset", "ratio"))
                assert difference == offset - ratio

    def test_full_exposure_reports_equivalence(self):
        evidence = zip_nonequivalence_check(zip_count_data(8, all_full=True), zero_inflation=0.3)
        assert evidence.equivalent
        assert evidence.spread < 1e-10

    def test_zero_inflation_zero_reports_equivalence(self):
        evidence = zip_nonequivalence_check(zip_count_data(9), zero_inflation=0.0)
        assert evidence.equivalent
        assert evidence.spread < 1e-10

    def test_difference_constant_iff_degenerate(self):
        # mixed exposures and positive mass: the surfaces differ by a
        # beta-dependent amount; removing either ingredient flattens it
        mixed = zip_nonequivalence_check(zip_count_data(11), zero_inflation=0.4)
        flat_t = zip_nonequivalence_check(zip_count_data(11, all_full=True), zero_inflation=0.4)
        flat_pi = zip_nonequivalence_check(zip_count_data(11), zero_inflation=0.0)
        assert not mixed.equivalent and flat_t.equivalent and flat_pi.equivalent
