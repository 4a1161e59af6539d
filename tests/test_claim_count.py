"""Poisson offset/ratio equivalence and zero-inflated non-equivalence."""

import math

import numpy as np
import pytest

from exposure_glm import (
    CountData,
    Portfolio,
    WeightScheme,
    poisson_fit,
    zip_loglik,
    zip_nonequivalence_check,
    zip_score,
)
from exposure_glm import claim_count
from exposure_glm.model_core import _scoring_pass
from oracles import finite_diff_gradient, poisson_score

from util import overflowing_count_data, random_count_data, zip_count_data


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
        for function in (zip_loglik, zip_score):
            with pytest.raises(ValueError, match=r"zero inflation must lie in \[0, 1\), got 1.0"):
                function((0.0,), 1.0, data, "offset")
            function((0.0,), 0.0, data, "offset")


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
        data = CountData.from_arrays([0.5, 1.0], [0, 0])
        with pytest.raises(ValueError):
            poisson_fit(data, "offset")

    def test_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(claim_count, "_POISSON_MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match="^Poisson offset fit did not converge in 1 iterations$"):
            poisson_fit(random_count_data(0), "offset")

    def test_unknown_mode_rejected(self):
        data = random_count_data(0)
        with pytest.raises(ValueError):
            poisson_fit(data, "weighted")
        beta = (0.0,) * (data.q + 1)
        for function in (zip_loglik, zip_score):
            with pytest.raises(ValueError):
                function(beta, 0.3, data, "weighted")

    def test_schemes_and_their_names_agree(self):
        # the claim-count functions take a WeightScheme or its value, like fit
        data = zip_count_data(0)
        beta = (0.1,) * (data.q + 1)
        for scheme in WeightScheme:
            assert poisson_fit(data, scheme).tobytes() == poisson_fit(data, scheme.value).tobytes()
            assert zip_loglik(beta, 0.3, data, scheme) == zip_loglik(beta, 0.3, data, scheme.value)
            assert zip_score(beta, 0.3, data, scheme).tobytes() == zip_score(beta, 0.3, data, scheme.value).tobytes()


class TestZipLoglik:
    def test_zero_inflation_zero_scores_match_poisson(self):
        data = zip_count_data(1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            beta = rng.normal(0, 0.3, 2)
            for mode in ("offset", "ratio"):
                zip_grad = zip_score(beta, 0.0, data, mode)
                poisson_grad = poisson_score(beta, data, mode)
                assert np.max(np.abs(zip_grad - poisson_grad)) < 1e-10

    def test_full_exposure_scores_coincide_across_modes(self):
        data = zip_count_data(3, all_full=True)
        grad_offset = zip_score((0.2, -0.1), 0.3, data, "offset")
        grad_ratio = zip_score((0.2, -0.1), 0.3, data, "ratio")
        np.testing.assert_allclose(grad_offset, grad_ratio, atol=1e-12)

    def test_mixed_exposure_scores_differ(self):
        data = zip_count_data(4)
        grad_offset = zip_score((0.2, -0.1), 0.3, data, "offset")
        grad_ratio = zip_score((0.2, -0.1), 0.3, data, "ratio")
        assert np.max(np.abs(grad_offset - grad_ratio)) > 1e-6

    def test_score_matches_finite_differences(self):
        data = zip_count_data(5)
        rng = np.random.default_rng(6)
        for mode in ("offset", "ratio"):
            beta = rng.normal(0, 0.3, 2)

            def objective(b):
                return zip_loglik(b, 0.25, data, mode)

            analytic = zip_score(beta, 0.25, data, mode)
            numeric = finite_diff_gradient(objective, beta)
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(analytic)))
            assert rel < 1e-6


class TestZipNonEquivalence:
    def test_mixed_exposures_trigger_evidence(self):
        evidence = zip_nonequivalence_check(zip_count_data(7), zero_inflation=0.3)
        assert not evidence.equivalent
        assert evidence.spread > 1e-6

    def test_probe_that_overflows_is_rejected(self):
        # a sum insured in the thousands overflows exp(x @ beta) at the
        # all-0.1 probe; its NaN difference must not vanish from the spread
        data = overflowing_count_data()
        for zero_inflation in (0.3, 0.0):
            with pytest.raises(ValueError, match="probe at intercept 0.1, other coefficients 0.1 gives a non-finite"):
                zip_nonequivalence_check(data, zero_inflation)

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
