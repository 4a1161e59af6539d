"""The oracles themselves: checked against analytic cases."""

import math

import numpy as np
import pytest

from exposure_glm import TweedieFamily, WeightScheme, fit, quasi_loglik
from oracles import (
    GridSpec,
    eig_min,
    finite_diff_gradient,
    grid_mle,
    mc_lognormal_moments,
    offset_loss_irls,
)

from util import random_portfolio


class TestFiniteDiffGradient:
    def test_quadratic(self):
        beta = np.array([0.5, -1.0, 2.0])
        grad = finite_diff_gradient(lambda b: -float(b @ b), beta)
        np.testing.assert_allclose(grad, -2.0 * beta, atol=1e-8)

    def test_constant_objective(self):
        grad = finite_diff_gradient(lambda b: 3.0, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_nonfinite_objective_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda b: math.inf, np.zeros(1))

    def test_custom_step_rule(self):
        calls = []

        def rule(j, bj):
            calls.append(j)
            return 1e-5

        finite_diff_gradient(lambda b: float(b.sum()), np.zeros(3), step_rule=rule)
        assert calls == [0, 1, 2]


class TestGridMle:
    def test_quadratic_peak(self):
        result = grid_mle(lambda b: -((b[0] - 0.3) ** 2), GridSpec(((-1.0, 1.0, 21),)))
        assert abs(result.argmax[0] - 0.3) < 0.05
        assert not result.on_boundary

    def test_boundary_flagged(self):
        result = grid_mle(lambda b: float(b[0]), GridSpec(((-1.0, 1.0, 11),)))
        assert result.on_boundary

    def test_two_dimensional(self):
        result = grid_mle(
            lambda b: -((b[0] - 0.2) ** 2) - (b[1] + 0.4) ** 2,
            GridSpec(((-1.0, 1.0, 21), (-1.0, 1.0, 21))),
        )
        np.testing.assert_allclose(result.argmax, [0.2, -0.4], atol=0.06)

    def test_refinement_tightens_argmax(self):
        coarse_spacing = 2.0 / 20
        result = grid_mle(lambda b: -((b[0] - 0.317) ** 2), GridSpec(((-1.0, 1.0, 21),)))
        assert abs(result.argmax[0] - 0.317) < coarse_spacing

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            GridSpec(((-1, 1, 5), (-1, 1, 5), (-1, 1, 5)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(((-1.0, 1.0, 2),))
        with pytest.raises(ValueError):
            GridSpec(((1.0, -1.0, 5),))


class TestEigMin:
    def test_identity(self):
        assert eig_min(np.eye(3)) == pytest.approx(1.0)

    def test_indefinite_diagonal(self):
        assert eig_min(np.diag([2.0, -1.0])) == pytest.approx(-1.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eig_min(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_cross_checks_cholesky_verdict(self):
        from exposure_glm import covariance_dominance, Dominance

        pf = random_portfolio(33, n=40)
        report = covariance_dominance(pf, np.array([0.5, 0.1, -0.2]), TweedieFamily(p=1.42))
        assert report.verdict is Dominance.STRICTLY_DOMINANT
        assert eig_min(report.difference) > 0.0


class TestMcLognormalMoments:
    def test_matches_closed_form(self):
        x = np.array([1.0, 0.5])
        beta = np.array([0.2, 0.4])
        sigma = np.array([[0.04, 0.01], [0.01, 0.02]])
        v = float(x @ sigma @ x)
        exact_mean = math.exp(float(x @ beta) + v / 2)
        exact_var = math.expm1(v) * exact_mean**2
        mc_mean, mc_var = mc_lognormal_moments(x, beta, sigma, 400_000, seed=0)
        assert mc_mean == pytest.approx(exact_mean, rel=5e-3)
        assert mc_var == pytest.approx(exact_var, rel=2e-2)

    def test_zero_covariance_is_degenerate(self):
        mc_mean, mc_var = mc_lognormal_moments(np.ones(1), np.zeros(1), np.zeros((1, 1)), 1000, seed=1)
        assert mc_mean == pytest.approx(1.0)
        assert mc_var == 0.0


class TestOffsetLossIrls:
    def test_matches_weighted_annualized_fit(self):
        fam = TweedieFamily(p=1.42)
        for seed in range(5):
            pf = random_portfolio(seed + 70, n=50)
            packaged = fit(pf, WeightScheme.OFFSET, fam).beta_hat
            oracle = offset_loss_irls(pf, fam, tolerance=1e-11)
            assert np.max(np.abs(packaged - oracle)) < 1e-9

    def test_objectives_differ_only_by_parametrization(self):
        # same maximizer even though one path works on y and the other on z
        fam = TweedieFamily(p=1.6)
        pf = random_portfolio(80, n=40)
        oracle = offset_loss_irls(pf, fam)
        top = quasi_loglik(oracle, pf, WeightScheme.OFFSET, fam)
        for shift in (1e-3, -1e-3):
            probe = oracle.copy()
            probe[0] += shift
            assert quasi_loglik(probe, pf, WeightScheme.OFFSET, fam) <= top
