"""Lognormal estimator moments, covariance dominance."""

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
    estimators,
    model_core,
    moment_ordering,
    premium_moments,
    quasi_loglik,
)
from exposure_glm.simulate import build_scenario_portfolio
from exposure_glm.solver import fit
from oracles import eig_min, mc_lognormal_moments

from util import fit_from, random_portfolio, spy_covariance

FAM = TweedieFamily(p=1.42)


def _scenario_portfolio(seed):
    return build_scenario_portfolio(n=100, scenario="increasing", heterogeneous=True, seed=seed)


def _rebuilt(pf):
    """A separately built portfolio of the same arrays, which shares no kept value with ``pf``."""
    return Portfolio.from_arrays(pf.exposures, pf.loss_costs, pf.design[:, 1:])


class TestPremiumMoments:
    def test_degenerate_covariance(self):
        x = np.array([1.0, 0.5])
        beta = np.array([0.4, 0.2])
        mean, variance = premium_moments(x, beta, np.zeros((2, 2)))
        assert mean == pytest.approx(math.exp(x @ beta), rel=1e-15)
        assert variance == 0.0

    def test_scalar_closed_form(self):
        # quadratic form 0.02 with location log(100)
        mean, variance = premium_moments(np.array([1.0]), np.array([math.log(100.0)]), np.array([[0.02]]))
        assert mean == pytest.approx(101.00501670841679, rel=1e-12)
        assert variance == pytest.approx(206.09434165632376, rel=1e-12)

    def test_positive_bias(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = 3
            x = np.concatenate([[1.0], rng.normal(0, 1, k - 1)])
            beta = rng.normal(0, 0.5, k)
            a = rng.normal(0, 0.2, (k, k))
            mean, _ = premium_moments(x, beta, a @ a.T)
            assert mean > math.exp(float(x @ beta))

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(18)
        for seed in range(3):
            k = 3
            x = np.concatenate([[1.0], rng.normal(0, 1, k - 1)])
            beta = rng.normal(0, 0.5, k)
            a = rng.normal(0, 1, (k, k))
            sigma = a @ a.T
            sigma *= rng.uniform(0.01, 0.15) / max(float(x @ sigma @ x), 1e-12)
            mean, variance = premium_moments(x, beta, sigma)
            mc_mean, mc_var = mc_lognormal_moments(x, beta, sigma, 1_000_000, seed=seed)
            assert mean == pytest.approx(mc_mean, rel=0.01)
            assert variance == pytest.approx(mc_var, rel=0.01)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            premium_moments(np.ones(2), np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            premium_moments(np.ones(2), np.zeros(2), np.diag([1.0, -1.0]))


def _partial_book(partial, exposure, shared_row=False):
    """1000 full-year contracts but the first ``partial``, two normal covariates, gamma losses.

    With ``shared_row`` the partial contracts share the first design row.
    """
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1000, 2))
    y = rng.gamma(2.0, 10.0, 1000)
    if shared_row:
        x[:partial] = x[0]
    t = np.ones(1000)
    t[:partial] = exposure
    return Portfolio.from_arrays(t, y, x)


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

    # The rank of M is the rank of the partial-exposure design rows.
    @pytest.mark.parametrize(
        "partial, exposure, shared_row",
        [(1, 364 / 365, False), (2, 0.5, False), (3, 0.5, True), (20, 0.5, True)],
        ids=["one_contract_at_364_days", "two_contracts", "three_contracts_one_row", "twenty_contracts_one_row"],
    )
    def test_rank_deficient_partial_rows_are_semidefinite(self, partial, exposure, shared_row):
        # the computed M rounds to a positive definite matrix for some of
        # these books; the verdict follows the rank all the same
        fam = TweedieFamily(p=1.5)
        pf = _partial_book(partial, exposure, shared_row)
        report = covariance_dominance(pf, fit(pf, WeightScheme.OFFSET, fam).beta_hat, fam)
        assert report.verdict is Dominance.SEMIDEFINITE
        assert np.linalg.matrix_rank(pf.design[pf.exposures < 1.0]) < pf.q + 1

    def test_as_many_partial_rows_as_coefficients_are_strictly_dominant(self):
        fam = TweedieFamily(p=1.5)
        pf = _partial_book(3, 0.5)
        report = covariance_dominance(pf, fit(pf, WeightScheme.OFFSET, fam).beta_hat, fam)
        assert report.verdict is Dominance.STRICTLY_DOMINANT
        assert eig_min(report.difference) > 0.0

    def test_full_rank_partial_rows_of_almost_no_weight_are_strictly_dominant(self):
        # M is all but zero here; the rank of the partial rows decides all the same
        fam = TweedieFamily(p=1.5)
        pf = _partial_book(3, 1 - 1e-12)
        report = covariance_dominance(pf, fit(pf, WeightScheme.OFFSET, fam).beta_hat, fam)
        assert report.verdict is Dominance.STRICTLY_DOMINANT
        assert np.linalg.matrix_rank(pf.design[pf.exposures < 1.0]) == 3

    @pytest.mark.parametrize(
        "book, verdict",
        [
            ((0, 0.5), Dominance.DEGENERATE_EQUAL),
            ((3, 0.5, True), Dominance.SEMIDEFINITE),
            ((3, 0.5), Dominance.STRICTLY_DOMINANT),
        ],
        ids=["full_exposure", "three_contracts_one_row", "three_contracts"],
    )
    @pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
    def test_verdict_depends_on_the_book_alone(self, book, verdict, p):
        fam = TweedieFamily(p=p)
        pf = _partial_book(*book)
        beta = fit(pf, WeightScheme.OFFSET, fam).beta_hat
        for at in (beta, beta + np.array([3.0, 0.0, 0.0])):
            assert covariance_dominance(pf, at, fam).verdict is verdict

    def test_partial_rank_is_computed_once_per_book(self, monkeypatch):
        pf = _partial_book(5, 0.5)
        beta = fit(pf, WeightScheme.OFFSET, FAM).beta_hat
        calls = []

        def rank(matrix, rows=None, raw=model_core._rank):
            calls.append((matrix, rows))
            return raw(matrix, rows)

        monkeypatch.setattr(model_core, "_rank", rank)
        for _ in range(10):
            assert covariance_dominance(pf, beta, FAM).verdict is Dominance.STRICTLY_DOMINANT
        ((matrix, rows),) = calls
        assert matrix is pf.design
        np.testing.assert_array_equal(rows, pf.exposures < 1.0)  # the rows below full exposure


class TestMomentOrdering:
    def test_full_exposure_equalities(self):
        pf = random_portfolio(21, all_full=True)
        ordering = moment_ordering(pf.design[0], np.array([0.5, 0.1, -0.2]), pf, FAM)
        assert ordering.offset == ordering.ratio

    def test_strict_ordering_on_simulated_portfolio(self):
        pf = _scenario_portfolio(3)
        beta = np.array([2.0, 0.3, -0.2])
        for row in pf.design:
            ordering = moment_ordering(row, beta, pf, FAM)
            assert ordering.mean_strictly_ordered
            assert ordering.variance_strictly_ordered

    def test_matrix_of_rows_takes_both_covariances_once(self, monkeypatch):
        pf = _scenario_portfolio(3)
        beta = np.array([2.0, 0.3, -0.2])
        # the reference runs on a book of its own, so that it leaves pf's covariances unkept
        reference = _rebuilt(pf)
        single = [moment_ordering(row, beta, reference, FAM) for row in reference.design]
        assert type(single[0].offset[0]) is float and type(single[0].mean_strictly_ordered) is bool

        calls = spy_covariance(monkeypatch)
        ordering = moment_ordering(pf.design, beta, pf, FAM)
        assert calls == [WeightScheme.OFFSET, WeightScheme.RATIO]
        for scheme in ("offset", "ratio"):
            for moment in (0, 1):
                np.testing.assert_allclose(
                    getattr(ordering, scheme)[moment],
                    [getattr(row, scheme)[moment] for row in single],
                    rtol=1e-13,
                    atol=0.0,
                )
        assert ordering.mean_strictly_ordered and ordering.variance_strictly_ordered

    def test_single_contract_portfolio_rejected_by_rank(self):
        with pytest.raises(ValueError):
            Portfolio.from_arrays([0.5], [1.0], [[1.0]])


class TestCovariancesKeptPerBook:
    """Dominance and moment calls share both covariances, kept for the book's last ``(beta, family)``."""

    def _book_and_beta(self):
        pf = _scenario_portfolio(6)
        return pf, fit(pf, WeightScheme.OFFSET, FAM).beta_hat

    def test_one_pair_per_beta_and_family(self, monkeypatch):
        pf, beta = self._book_and_beta()
        calls = spy_covariance(monkeypatch)
        dominance = covariance_dominance(pf, beta, FAM)
        orderings = [moment_ordering(row, beta, pf, FAM) for row in pf.design[:4]]
        assert calls == [WeightScheme.OFFSET, WeightScheme.RATIO]
        fresh = _rebuilt(pf)
        np.testing.assert_array_equal(dominance.difference, covariance_dominance(fresh, beta, FAM).difference)
        for row, ordering in zip(fresh.design[:4], orderings):
            assert ordering == moment_ordering(row, beta, fresh, FAM)

    @pytest.mark.parametrize("change", ["ulp", "p", "phi"])
    def test_another_beta_p_or_phi_recomputes(self, monkeypatch, change):
        pf, beta = self._book_and_beta()
        other_beta, other_family = beta, FAM
        if change == "ulp":
            other_beta = beta.copy()
            other_beta[1] = np.nextafter(beta[1], np.inf)
        else:
            other_family = TweedieFamily(p=1.43) if change == "p" else TweedieFamily(p=FAM.p, phi=2.0)
        calls = spy_covariance(monkeypatch)
        steps = ((beta, FAM), (other_beta, other_family), (beta, FAM))
        kept = [(covariance_dominance(pf, at, family), moment_ordering(pf.design[0], at, pf, family))
                for at, family in steps]
        assert calls == [WeightScheme.OFFSET, WeightScheme.RATIO] * 3
        # every reused pair is the pair a book of its own computes
        fresh = _rebuilt(pf)
        for (at, family), (dominance, ordering) in zip(steps, kept):
            np.testing.assert_array_equal(dominance.difference, covariance_dominance(fresh, at, family).difference)
            assert ordering == moment_ordering(pf.design[0], at, fresh, family)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_singular_beta_is_not_kept(self, monkeypatch):
        pf, beta = self._book_and_beta()
        calls = spy_covariance(monkeypatch)
        difference = covariance_dominance(pf, beta, FAM).difference
        overflow = np.array([2000.0, 0.0, 0.0])
        for _ in range(2):
            with pytest.raises(SingularInformationError):
                covariance_dominance(pf, overflow, FAM)
            with pytest.raises(SingularInformationError):
                moment_ordering(pf.design[0], overflow, pf, FAM)
        # the good pair is still kept, and the good beta still works
        np.testing.assert_array_equal(covariance_dominance(pf, beta, FAM).difference, difference)
        assert calls == [WeightScheme.OFFSET, WeightScheme.RATIO] + [WeightScheme.OFFSET] * 4


def _expected_random_gap(pf, beta, family, scheme):
    """``sum_i t_i * (zeta_i - E[zeta_hat_i])`` at true ``beta``, from the premium moments at every design row."""
    estimator_means, _ = premium_moments(pf.design, beta, coefficient_covariance(pf, beta, scheme, family))
    return float(np.dot(pf.exposures, np.exp(pf.design @ beta) - estimator_means))


class TestExpectedRandomGap:
    # the lognormal premium estimator is biased upward, the more so under the ratio scheme's larger covariance
    def test_vanishes_as_dispersion_vanishes(self):
        pf = _scenario_portfolio(4)
        beta = np.array([2.0, 0.3, -0.2])
        tiny = TweedieFamily(p=1.42, phi=1e-12)
        for scheme in WeightScheme:
            assert abs(_expected_random_gap(pf, beta, tiny, scheme)) < 1e-6

    def test_signed_ordering(self):
        pf = _scenario_portfolio(5)
        beta = np.array([2.0, 0.3, -0.2])
        fam = TweedieFamily(p=1.42, phi=2.0)
        gap_ratio = _expected_random_gap(pf, beta, fam, WeightScheme.RATIO)
        gap_offset = _expected_random_gap(pf, beta, fam, WeightScheme.OFFSET)
        assert gap_ratio <= gap_offset
        assert gap_ratio < 0.0 and gap_offset < 0.0

    def test_equal_at_full_exposure(self):
        pf = random_portfolio(22, all_full=True)
        beta = np.array([0.5, 0.1, -0.2])
        fam = TweedieFamily(p=1.42, phi=1.5)
        assert _expected_random_gap(pf, beta, fam, WeightScheme.RATIO) == pytest.approx(
            _expected_random_gap(pf, beta, fam, WeightScheme.OFFSET), rel=1e-12
        )


class TestCoefficientCovariance:
    def test_matches_fit_covariance(self):
        # bit for bit: a fit's covariance is factorised from the same D by the same operations
        pf = random_portfolio(23)
        for p in (1.1, 1.5, 1.9):
            fam = TweedieFamily(p=p, phi=2.5)
            for scheme in WeightScheme:
                result = fit(pf, scheme, fam)
                expected = coefficient_covariance(pf, result.beta_hat, scheme, fam)
                assert result.covariance.tobytes() == expected.tobytes()


# at -2000 exp(-s) in the residual overflows as D underflows to 0; at +2000
# D overflows to inf and X.T @ D @ X is not finite
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "beta", [np.array([-2000.0, 0.0, 0.0]), np.array([2000.0, 0.0, 0.0])], ids=["underflow", "overflow"]
)
class TestSingularInformation:
    """Every factorization of ``X.T @ D @ X`` reports under- or overflow of ``D`` the same way."""

    def test_coefficient_covariance_raises(self, beta):
        pf = random_portfolio(5)
        for scheme in WeightScheme:
            with pytest.raises(SingularInformationError):
                coefficient_covariance(pf, beta, scheme, FAM)

    def test_covariance_dominance_raises(self, beta):
        with pytest.raises(SingularInformationError):
            covariance_dominance(random_portfolio(5), beta, FAM)

    def test_fit_raises_from_its_start(self, beta):
        with pytest.raises(SingularInformationError):
            fit_from(beta, random_portfolio(5), WeightScheme.RATIO, FAM)


# A non-finite coefficient vector is bad input, not numerical degeneracy.
@pytest.mark.parametrize(
    "call",
    [
        lambda pf, beta: quasi_loglik(beta, pf, WeightScheme.RATIO, FAM),
        lambda pf, beta: coefficient_covariance(pf, beta, WeightScheme.OFFSET, FAM),
        lambda pf, beta: covariance_dominance(pf, beta, FAM),
        lambda pf, beta: moment_ordering(pf.design[0], beta, pf, FAM),
        lambda pf, beta: premium_moments(pf.design[0], beta, np.eye(3)),
    ],
    ids=["quasi_loglik", "coefficient_covariance", "covariance_dominance", "moment_ordering", "premium_moments"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coefficients_rejected(call, bad):
    with pytest.raises(ValueError, match="coefficient vector must be finite"):
        call(random_portfolio(5), np.array([bad, 0.0, 0.0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda pf, beta: quasi_loglik(beta, pf, WeightScheme.RATIO, FAM),
        lambda pf, beta: coefficient_covariance(pf, beta, WeightScheme.OFFSET, FAM),
        lambda pf, beta: covariance_dominance(pf, beta, FAM),
        lambda pf, beta: moment_ordering(pf.design[0], beta, pf, FAM),
    ],
    ids=["quasi_loglik", "coefficient_covariance", "covariance_dominance", "moment_ordering"],
)
@pytest.mark.parametrize("length", [2, 4], ids=["short", "long"])
def test_coefficient_vector_of_wrong_length_rejected(call, length):
    with pytest.raises(ValueError, match=rf"^coefficient vector must have length 3, got shape \({length},\)$"):
        call(random_portfolio(5), np.zeros(length))


@pytest.mark.parametrize(
    "x,beta,covariance,message",
    [
        ([1.0, 0.0, 0.0], [0.0, 0.0], np.eye(3), r"must have length 3, got shape \(2,\)"),
        ([1.0, 0.0], [0.0, 0.0, 0.0], np.eye(3), r"x of shape \(2,\) does not match .* shape \(3,\)"),
        (np.ones((4, 2)), [0.0, 0.0, 0.0], np.eye(3), r"x of shape \(4, 2\) does not match .* shape \(3,\)"),
        (np.ones(2), np.zeros(2), np.ones((2, 3)), "covariance must be a square matrix"),
    ],
    ids=["beta", "row", "rows", "covariance"],
)
def test_premium_moments_rejects_mismatched_shapes(x, beta, covariance, message):
    with pytest.raises(ValueError, match=message):
        premium_moments(x, beta, covariance)


@pytest.mark.parametrize(
    "x,covariance,message",
    [
        ([1.0, 0.5], [[math.nan, 0.0], [0.0, 1.0]], "covariance must be finite"),
        ([1.0, 0.5], [[math.inf, 0.0], [0.0, 1.0]], "covariance must be finite"),
        ([1.0, math.nan], np.eye(2), "x must be finite"),
        ([[1.0, 0.5], [math.inf, 0.0]], np.eye(2), "x must be finite"),
    ],
    ids=["nan_covariance", "inf_covariance", "nan_row", "inf_in_rows"],
)
def test_premium_moments_rejects_non_finite_input(x, covariance, message):
    with pytest.raises(ValueError, match=message):
        premium_moments(x, [0.1, 0.2], covariance)


@pytest.mark.parametrize(
    "x,message",
    [
        (np.ones(2), r"x of shape \(2,\) does not match .* shape \(3,\)"),
        (np.ones((4, 2)), r"x of shape \(4, 2\) does not match .* shape \(3,\)"),
    ],
    ids=["row", "rows"],
)
def test_moment_ordering_rejects_mismatched_shapes(x, message):
    with pytest.raises(ValueError, match=message):
        moment_ordering(x, np.zeros(3), random_portfolio(5), FAM)
