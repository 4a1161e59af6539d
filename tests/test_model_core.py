"""Kernel-level checks: weights, likelihood, gradient, information."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from exposure_glm import (
    CountData,
    Portfolio,
    RankDeficiencyError,
    SingularInformationError,
    TweedieFamily,
    WeightScheme,
    homogeneous_mle,
    quasi_loglik,
)
from exposure_glm.model_core import (
    _GRAM_BLOCK_CELLS,
    _cho_factor,
    _gram,
    _observed_weights,
    _rank,
    _scheme_weights,
    _scoring_pass,
)
from exposure_glm.solver import fit
from oracles import eig_min, finite_diff_gradient, svd_rank

from util import random_portfolio, toy_portfolio


def _system(beta, pf, scheme, fam):
    """Fisher information and score, ``(X.T D X, X.T D R) / phi``, from the kernel."""
    w = _scheme_weights(scheme, pf.exposures, fam.p)
    d, _, score, *_ = _scoring_pass(np.asarray(beta, float), pf.design, pf.normalized, w, fam.p)
    return _gram(pf.design, d) / fam.phi, score / fam.phi


def _d_diagonal(beta, pf, scheme, fam):
    """Diagonal of ``D``, as the kernel returns it."""
    w = _scheme_weights(scheme, pf.exposures, fam.p)
    return _scoring_pass(beta, pf.design, pf.normalized, w, fam.p)[0]


LENGTHS = "exposures and loss costs must be equal-length 1-D arrays"
COVARIATE_SHAPE = r"covariates must be an \(n, q\) array with n = 2 rows"


class TestDomainTypes:
    def test_family_rejects_bad_variance_power(self):
        for p in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                TweedieFamily(p=p)

    def test_family_rejects_bad_dispersion(self):
        with pytest.raises(ValueError):
            TweedieFamily(p=1.5, phi=0.0)

    @pytest.mark.parametrize("to_float", [float, np.float64], ids=["float", "float64"])
    def test_likelihood_at_the_smallest_dispersion_overflows_to_minus_inf(self, to_float):
        # losses of 1e12 put the objective at about -1e12, which over the smallest normal phi is past the
        # float range: -inf for a phi given as either type, with no overflow warning (an error in this suite)
        pf = random_portfolio(25)
        pf = Portfolio.from_arrays(pf.exposures, pf.loss_costs * 1e12, pf.design[:, 1:])
        family = TweedieFamily(p=to_float(1.5), phi=to_float(np.finfo(float).tiny))
        assert type(family.p) is float and type(family.phi) is float
        assert quasi_loglik(np.zeros(pf.q + 1), pf, WeightScheme.OFFSET, family) == -np.inf

    def test_observation_rejects_zero_exposure(self):
        with pytest.raises(ValueError, match="exposure.*contract 'a'"):
            Portfolio.from_arrays([0.0], [1.0], contract_ids=["a"])

    def test_observation_rejects_negative_loss(self):
        with pytest.raises(ValueError, match="loss cost.*contract 'b'"):
            Portfolio.from_arrays([0.5, 0.5], [1.0, -1.0], contract_ids=["a", "b"])

    def test_repr_names_type_and_shape(self):
        pf = Portfolio.from_arrays([0.5, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.5]])
        assert repr(pf) == "Portfolio(n=4, q=2)"
        assert repr(CountData.from_arrays([0.5, 1.0, 0.25], [1, 0, 2])) == "CountData(n=3, q=0)"

    def test_observation_accepts_exact_zero_loss(self):
        pf = Portfolio.from_arrays([0.5], [0.0], contract_ids=["a"])
        assert pf.loss_costs[0] == 0.0

    @pytest.mark.parametrize(
        "exposures,losses,covariates",
        [
            ([0.5, 1.5], [1.0, 1.0], None),
            ([0.5, np.nan], [1.0, 1.0], None),
            ([0.5, 1.0], [1.0, np.inf], None),
            ([0.5, 1.0], [1.0, np.nan], None),
            ([0.5, 1.0, 1.0], [1.0, 1.0, 2.0], [[0.0], [np.nan], [1.0]]),
        ],
    )
    def test_portfolio_rejects_invalid_columns(self, exposures, losses, covariates):
        with pytest.raises(ValueError):
            Portfolio.from_arrays(exposures, losses, covariates)

    @pytest.mark.parametrize(
        "arguments,message",
        [
            (([0.5, 1.0], [1.0]), LENGTHS),
            (([[0.5, 1.0]], [[1.0, 2.0]]), LENGTHS),
            (([], []), "need at least one contract"),
            (([0.5, 1.0], [1.0, 2.0], None, ["a", "b", "c"]), "expected 2 contract ids, got 3"),
            (([0.5, 1.0], [1.0, 2.0], [0.0, 1.0]), COVARIATE_SHAPE),
            (([0.5, 1.0], [1.0, 2.0], [[0.0], [1.0], [2.0]]), COVARIATE_SHAPE),
            (([0.5, 1.0], [1.0, 2.0], [[0.0], [1.0]], None, ["x1", "x2"]), "expected 1 covariate names, got 2"),
        ],
        ids=["unequal", "two_dimensional", "no_contracts", "three_ids", "one_dimensional_covariates",
             "wrong_covariate_rows", "two_names"],
    )
    def test_portfolio_rejects_mismatched_arguments(self, arguments, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Portfolio.from_arrays(*arguments)

    def test_portfolio_rejects_duplicate_contract_ids(self):
        with pytest.raises(ValueError, match="duplicate contract id 'b'"):
            Portfolio.from_arrays([0.5, 1.0, 0.25], [1.0, 2.0, 3.0], contract_ids=["a", "b", "b"])

    @pytest.mark.parametrize("container", [Portfolio, CountData])
    def test_first_bad_cell_in_row_major_order(self, container):
        ids = ["a", "b", "c"]
        # a bad value on row 1 comes before a bad exposure on row 2
        with pytest.raises(ValueError, match=f"^{container._value_name} must .* contract 'b'$"):
            container.from_arrays([0.5, 1.0, 0.0], [1.0, -1.0, 2.0], contract_ids=ids)
        # a non-finite covariate is named, with its contract
        with pytest.raises(ValueError, match="^covariate 'x2' is not finite, got nan for contract 'b'$"):
            container.from_arrays(
                [0.5, 1.0, 0.5], [1.0, 1.0, 2.0], [[0.0, 1.0], [1.0, np.nan], [2.0, 0.0]],
                contract_ids=ids,
            )
        # of non-finite covariates in two columns on adjacent rows, the upper row's is named
        with pytest.raises(ValueError, match="^covariate 'x2' is not finite, got inf for contract 'b'$") as excinfo:
            container.from_arrays(
                [0.5, 1.0, 0.5], [1.0, 1.0, 2.0], [[0.0, 1.0], [1.0, np.inf], [np.nan, 0.0]],
                contract_ids=ids,
            )
        assert (excinfo.value.index, excinfo.value.position) == (1, 4)
        # the second occurrence of an id on row 1 comes before a bad cell on row 2
        with pytest.raises(ValueError, match="^duplicate contract id 'a' at index 1$") as excinfo:
            container.from_arrays([0.5, 1.0, 0.0], [1.0, 1.0, 2.0], contract_ids=["a", "a", "c"])
        assert (excinfo.value.index, excinfo.value.position) == (1, 0)
        # within a row, the leftmost bad field is reported
        with pytest.raises(ValueError, match="^exposure must lie in") as excinfo:
            container.from_arrays([0.5, 1.5, 1.0], [1.0, -1.0, 2.0], [[0.0], [np.inf], [1.0]])
        assert (excinfo.value.index, excinfo.value.position) == (1, 1)

    @pytest.mark.parametrize("container", [Portfolio, CountData])
    def test_value_over_exposure_that_overflows_is_named(self, container):
        # finite, valid cells whose annualised value y / t is not a float
        with pytest.raises(
            ValueError,
            match=rf"^{container._value_name} over exposure is not finite, got 1.0 / 1e-320 for contract 'a'$",
        ) as excinfo:
            container.from_arrays([1e-320, 1.0, 0.5, 1.0], [1.0, 2.0, 0.0, 3.0], contract_ids=list("abcd"))
        assert (excinfo.value.index, excinfo.value.position) == (0, 2)
        # a value that breaks its own rule is reported by that rule, whatever its quotient
        with pytest.raises(ValueError, match=f"^{container._value_name} must be .*, got -0.5 for contract 'a'$"):
            container.from_arrays([1e-320, 1.0], [-0.5, 2.0], contract_ids=list("ab"))
        # and a bad exposure before the value of its row
        with pytest.raises(ValueError, match="^exposure must lie in .*, got 0.0 for contract 'a'$"):
            container.from_arrays([0.0, 1.0], [1.0, 2.0], contract_ids=list("ab"))

    def test_loss_cost_overflowing_at_a_quarter_year_is_named(self):
        with pytest.raises(
            ValueError, match=r"^loss cost over exposure is not finite, got 4.5e\+307 / 0.25 for the contract at index 1$"
        ):
            Portfolio.from_arrays([1.0, 0.25, 0.5], [1.0, 4.5e307, 0.0])
        # 4.49e307 / 0.25 is 1.796e308, below the largest float, so it is accepted
        assert Portfolio.from_arrays([1.0, 0.25, 0.5], [1.0, 4.49e307, 0.0]).normalized[1] == 1.796e308

    @pytest.mark.parametrize(
        "names,message",
        [
            (["age", "age"], "covariate name 'age' is repeated"),
            (["age", ""], "covariate 2 has an empty name"),
            ([" ", "age"], "covariate 1 has an empty name"),
        ],
    )
    def test_portfolio_rejects_repeated_or_empty_covariate_names(self, names, message):
        with pytest.raises(ValueError, match=message):
            Portfolio.from_arrays(
                [0.5, 1.0, 0.25], [1.0, 2.0, 3.0], [[0.0, 1.0], [1.0, 0.0], [2.0, 3.0]],
                covariate_names=names,
            )

    @pytest.mark.parametrize("container", [Portfolio, CountData])
    def test_covariate_name_intercept_is_reserved(self, container):
        # the design's first column is the intercept: a covariate of that name would be a second one
        with pytest.raises(ValueError, match=r"^covariate name 'intercept' is reserved for the design's first column$"):
            container.from_arrays(
                [0.5, 1.0, 0.25], [1.0, 2.0, 3.0], [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
                covariate_names=["age", "intercept"],
            )

    def test_portfolio_columns(self):
        pf = Portfolio.from_arrays(
            [0.5, 1.0, 0.25], [1.0, 0.0, 3.0], [[1.0], [0.0], [2.0]],
            contract_ids=[7, "b", "c"], covariate_names=["age"],
        )
        assert pf.contract_ids == ("7", "b", "c")
        assert pf.covariate_names == ("age",)
        assert (pf.n, pf.q, len(pf)) == (3, 1, 3)
        np.testing.assert_array_equal(pf.design, [[1.0, 1.0], [1.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(pf.normalized, [2.0, 0.0, 12.0])
        assert Portfolio.from_arrays([0.5, 1.0], [1.0, 2.0]).contract_ids == ("c1", "c2")

    @pytest.mark.parametrize("container", [Portfolio, CountData])
    def test_default_ids_are_not_held_until_read(self, container):
        # Without ids a container keeps little beyond its arrays; the
        # ``c1..cn`` strings would more than double that.
        rng = np.random.default_rng(3)
        n = 50_000
        exposures = rng.uniform(0.1, 1.0, n)
        values = rng.poisson(2.0, n).astype(float)
        covariates = rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            data = container.from_arrays(exposures, values, covariates)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = data.exposures, data.loss_costs, data.normalized, data.design
        assert held < 1.5 * sum(a.nbytes for a in arrays)
        assert data.contract_ids[-1] == f"c{n}"

    def test_portfolio_copies_its_inputs(self):
        t = np.array([0.5, 1.0])
        pf = Portfolio.from_arrays(t, [1.0, 2.0])
        t[0] = 0.25
        assert pf.exposures[0] == 0.5

    def test_portfolio_needs_enough_rows(self):
        with pytest.raises(ValueError):
            Portfolio.from_arrays([0.5], [1.0], [[1.0, 2.0]])

    def test_portfolio_rejects_duplicate_columns(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        with pytest.raises(RankDeficiencyError) as excinfo:
            Portfolio.from_arrays(np.full(10, 0.5), np.ones(10), np.column_stack([x, x]))
        # both covariate columns (design indices 1 and 2) are implicated
        assert set(excinfo.value.column_indices) == {1, 2}

    @pytest.mark.parametrize(
        "columns,involved",
        [
            (lambda x: [x[0], x[0]], {1, 2}),
            (lambda x: [np.full_like(x[0], 3.0), x[1]], {0, 1}),
            (lambda x: [x[0], x[0], x[2], 1.0 - x[2], x[4]], {0, 1, 2, 3, 4}),
            (lambda x: [x[0], x[1], x[0] + x[1], x[4]], {1, 2, 3}),
            (lambda x: [x[0], 1e9 * x[0]], {1, 2}),
            (lambda x: [1e-9 * x[0], x[0]], {1, 2}),
        ],
        ids=["duplicate", "constant", "two_dependencies", "sum_of_two", "scaled_up", "scaled_down"],
    )
    def test_rank_deficiency_names_involved_columns(self, columns, involved):
        # design column 0 is the intercept, column j covariate j
        x = np.random.default_rng(3).normal(size=(5, 12))
        with pytest.raises(RankDeficiencyError) as excinfo:
            Portfolio.from_arrays(np.full(12, 0.5), np.ones(12), np.column_stack(columns(x)))
        assert set(excinfo.value.column_indices) == involved

    def test_rank_does_not_depend_on_column_units(self):
        # matrix_rank's tolerance grows with the largest column: the design as given fails at 1e-200, 1e12 and 1e200
        rng = np.random.default_rng(24)
        n = 10_000
        exposures = np.where(rng.random(n) < 0.4, rng.uniform(0.1, 0.9, n), 1.0)
        binary, amount = (rng.random(n) < 0.3).astype(float), rng.uniform(0.5, 1.5, n)
        for units in (1e-200, 1e-8, 1.0, 1e6, 1e11, 1e12, 1e200):
            pf = Portfolio.from_arrays(exposures, np.ones(n), np.column_stack([binary, units * amount]))
            assert pf._partial_rank == 3, units
            with pytest.raises(RankDeficiencyError) as excinfo:
                Portfolio.from_arrays(exposures, np.ones(n), np.column_stack([binary, units * binary]))
            assert excinfo.value.column_indices == (1, 2), units

    def test_portfolio_rejects_constant_covariate(self):
        # a constant column duplicates the intercept
        with pytest.raises(RankDeficiencyError):
            Portfolio.from_arrays(np.full(6, 0.5), np.ones(6), np.ones((6, 1)))


def _rank_survey():
    """``(name, matrix, rows)``: full, dependent and badly scaled designs, short ones, partial rows of every rank."""
    rng = np.random.default_rng(38)
    n = 400
    x = np.column_stack([np.ones(n), (rng.random(n) < 0.4).astype(float), rng.normal(size=(n, 4))])
    yield "full", x, None
    yield "duplicate", np.column_stack([x, x[:, 2]]), None
    yield "constant", np.column_stack([x, np.full(n, 3.0)]), None
    yield "sum_of_two", np.column_stack([x, x[:, 2] + x[:, 3]]), None
    noise = rng.normal(size=n)
    for gap in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):  # both sides of the certificate's bound
        yield f"near_duplicate_{gap:g}", np.column_stack([x, x[:, 2] + gap * noise]), None
    for units in (1e-200, 1e-160, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12, 1e160, 1e200):
        scaled = x.copy()
        scaled[:, 3] *= units
        yield f"units_{units:g}", scaled, None
        yield f"units_{units:g}_duplicate", np.column_stack([scaled, 2.0 * scaled[:, 3]]), None
    yield "fewer_rows", x[:4], None
    yield "one_row", x[:1], None
    k = x.shape[1]
    for r in range(1, k + 1):
        partial = rng.random(n) < 0.4
        mixed = x.copy()
        # the partial rows span r dimensions: each is a random combination of r fixed rows
        mixed[partial] = rng.normal(size=(int(partial.sum()), r)) @ x[:r]
        yield f"partial_rank_{r}", mixed, partial
    sparse = np.zeros(n, bool)
    sparse[[5, 9, 11]] = True  # three partial rows of six columns
    yield "three_partial_rows", x, sparse


class TestRankCertificate:
    """``_rank`` accepts full rank on a Gram certificate and otherwise keeps the SVD rule's verdict."""

    def test_rank_agrees_with_svd_rule(self, monkeypatch):
        svds, certified = [], []

        def matrix_rank(matrix, raw=np.linalg.matrix_rank):
            svds.append(matrix.shape)
            return raw(matrix)

        for name, matrix, rows in _rank_survey():
            expected = svd_rank(matrix if rows is None else matrix[rows])
            svds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "matrix_rank", matrix_rank)
                assert _rank(matrix, rows) == expected, name
            if not svds:
                certified.append(name)
                assert expected == matrix.shape[1], name
        assert {"full", "units_1e-08", "units_1e+12", "partial_rank_6", "near_duplicate_0.01"} <= set(certified)
        assert not any("duplicate" in name and "near" not in name for name in certified)


def _scoring_pass_before(beta, design, z, w, p):
    """The scoring pass as written before its temporaries were reused: one new array per operation."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = design @ beta
        d = w * np.exp((2.0 - p) * s)
        q = z * np.exp(-s)
        dq = d * q
        sum_dq, sum_d = dq.sum(), d.sum()
        mass = float(sum_dq + sum_d)
        if p == 1.0:
            objective = float((dq * s).sum() - sum_d)
        else:
            objective = float(sum_dq / (1.0 - p) - sum_d / (2.0 - p))
        return d, q, design.T @ (d * (q - 1.0)), mass, objective, d * ((p - 1.0) * q + (2.0 - p))


class TestScoringPassInPlace:
    @pytest.mark.parametrize("p", [1.0, 1.1, 1.5, 1.9])
    @pytest.mark.parametrize(
        "intercept", [0.0, 3.0, -750.0, 750.0], ids=["zero", "fitted", "q_overflows", "d_overflows"]
    )
    def test_pass_equals_the_formula_bit_for_bit(self, p, intercept):
        pf = random_portfolio(39, n=3000, q=3)
        beta = np.array([intercept, 0.3, -0.2, 0.1])
        w = pf.exposures if p == 1.0 else _scheme_weights(WeightScheme.OFFSET, pf.exposures, p)
        *expected, observed = _scoring_pass_before(beta, pf.design, pf.normalized, w, p)
        got = _scoring_pass(beta, pf.design, pf.normalized, w, p)
        for mine, theirs in zip(got, expected):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(_observed_weights(got[0], got[1], p), observed)


class TestNormalize:
    @pytest.mark.parametrize(
        "loss,exposure,expected",
        [(0.0, 0.5, 0.0), (20.0, 1.0, 20.0), (5.0, 0.5, 10.0)],
    )
    def test_values(self, loss, exposure, expected):
        assert Portfolio.from_arrays([exposure], [loss]).normalized[0] == expected


class TestWeight:
    """Scheme weights ``t**(2-p)`` (offset) and ``t`` (ratio)."""

    @pytest.mark.parametrize(
        "scheme,t,p,expected",
        [
            (WeightScheme.OFFSET, 1.0, 1.5, 1.0),
            (WeightScheme.OFFSET, 0.25, 1.5, 0.5),
            (WeightScheme.RATIO, 0.25, 1.5, 0.25),
        ],
    )
    def test_values(self, scheme, t, p, expected):
        assert _scheme_weights(scheme, t, p) == pytest.approx(expected, abs=1e-15)

    def test_offset_dominates_ratio(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = float(rng.uniform(1e-3, 1.0))
            p = float(rng.uniform(1.0 + 1e-9, 2.0 - 1e-9))
            w_off = _scheme_weights(WeightScheme.OFFSET, t, p)
            w_rat = _scheme_weights(WeightScheme.RATIO, t, p)
            assert w_off >= w_rat
            assert 0.0 < w_rat <= 1.0 and w_off <= 1.0
            if t < 1.0:
                assert w_off > w_rat

    def test_weights_equal_exactly_at_full_exposure(self):
        for p in (1.01, 1.42, 1.99):
            assert _scheme_weights(WeightScheme.OFFSET, 1.0, p) == _scheme_weights(WeightScheme.RATIO, 1.0, p) == 1.0

    def test_offset_weight_approaches_ratio_weight_near_p_one(self):
        t = np.linspace(0.05, 1.0, 50)
        gaps = [
            np.max(np.abs(_scheme_weights(WeightScheme.OFFSET, t, p) - _scheme_weights(WeightScheme.RATIO, t, p)))
            for p in (1.5, 1.1, 1.01, 1.0 + 1e-8)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-7


class TestQuasiLoglik:
    def test_zero_loss_contract_value(self):
        # z = 0 kills the first term, leaving -(w/phi) * zeta^(2-p) / (2-p)
        fam = TweedieFamily(p=1.5, phi=2.0)
        pf = Portfolio.from_arrays([0.5, 0.5], [0.0, 0.0])
        beta = np.array([0.7])
        w = 0.5**0.5
        expected = 2 * (-(w / 2.0) * math.exp(0.5 * 0.7) / 0.5)
        assert quasi_loglik(beta, pf, WeightScheme.OFFSET, fam) == pytest.approx(expected, rel=1e-14)

    def test_schemes_coincide_at_full_exposure(self):
        pf = random_portfolio(1, all_full=True)
        fam = TweedieFamily(p=1.3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            beta = rng.normal(0, 0.5, 3)
            assert quasi_loglik(beta, pf, WeightScheme.OFFSET, fam) == quasi_loglik(
                beta, pf, WeightScheme.RATIO, fam
            )

    def test_local_maximum_at_fit(self):
        pf = toy_portfolio()
        fam = TweedieFamily(p=1.5)
        beta_hat = fit(pf, WeightScheme.RATIO, fam).beta_hat
        top = quasi_loglik(beta_hat, pf, WeightScheme.RATIO, fam)
        for eps in (1e-4, -1e-4):
            assert top >= quasi_loglik(beta_hat + eps, pf, WeightScheme.RATIO, fam)

    def test_matches_loss_scale_formulation(self):
        # the offset weighting on z reproduces, term by term, the direct
        # evaluation on y with mean t * exp(score) and unit weights
        pf = random_portfolio(5)
        fam = TweedieFamily(p=1.42, phi=1.7)
        rng = np.random.default_rng(6)
        X, t, y = pf.design, pf.exposures, pf.loss_costs
        for _ in range(10):
            beta = rng.normal(0, 0.5, 3)
            mu = t * np.exp(X @ beta)
            direct = float(
                np.sum(mu ** (1 - fam.p) * y / (1 - fam.p) - mu ** (2 - fam.p) / (2 - fam.p))
                / fam.phi
            )
            assert quasi_loglik(beta, pf, WeightScheme.OFFSET, fam) == pytest.approx(
                direct, rel=1e-12
            )

    def test_dimension_mismatch(self):
        pf = toy_portfolio()
        with pytest.raises(ValueError):
            quasi_loglik(np.zeros(3), pf, WeightScheme.RATIO, TweedieFamily(p=1.5))


class TestGradient:
    """The kernel's score ``X.T @ D @ R / phi``."""

    def test_zero_at_homogeneous_mle(self):
        pf = toy_portfolio()
        for scheme in WeightScheme:
            fam = TweedieFamily(p=1.5)
            beta = np.array([math.log(homogeneous_mle(pf, scheme, fam))])
            assert np.max(np.abs(_system(beta, pf, scheme, fam)[1])) < 1e-10

    def test_matches_finite_differences(self):
        fam = TweedieFamily(p=1.42)
        rng = np.random.default_rng(8)
        for seed in range(20):
            pf = random_portfolio(seed, n=30, q=2)
            beta = rng.normal(0, 0.4, 3)
            for scheme in WeightScheme:
                g = _system(beta, pf, scheme, fam)[1]
                fd = finite_diff_gradient(lambda b: quasi_loglik(b, pf, scheme, fam), beta)
                rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))
                assert rel < 1e-6

    def test_offset_gradient_matches_loss_scale_form(self):
        # X.T @ D @ R is the same whether D, R are built from (z, w=t^(2-p))
        # or from (y, mu = t * zeta) with unit weights
        pf = random_portfolio(10)
        fam = TweedieFamily(p=1.42, phi=1.3)
        rng = np.random.default_rng(10)
        X, t, y = pf.design, pf.exposures, pf.loss_costs
        for _ in range(5):
            beta = rng.normal(0, 0.4, 3)
            mu = t * np.exp(X @ beta)
            d_loss = mu ** (2.0 - fam.p)
            direct = X.T @ (d_loss * (y / mu - 1.0)) / fam.phi
            np.testing.assert_allclose(
                _system(beta, pf, WeightScheme.OFFSET, fam)[1], direct, rtol=1e-12
            )
            info_direct = (X * d_loss[:, None]).T @ X / fam.phi
            np.testing.assert_allclose(
                _system(beta, pf, WeightScheme.OFFSET, fam)[0], info_direct, rtol=1e-12
            )

    def test_zero_when_losses_equal_means(self):
        rng = np.random.default_rng(9)
        t = rng.uniform(0.2, 1.0, 12)
        x = rng.normal(0, 0.5, (12, 1))
        beta = np.array([1.2, -0.4])
        y = t * np.exp(np.column_stack([np.ones(12), x]) @ beta)
        pf = Portfolio.from_arrays(t, y, x)
        fam = TweedieFamily(p=1.6)
        for scheme in WeightScheme:
            np.testing.assert_allclose(_system(beta, pf, scheme, fam)[1], 0.0, atol=1e-12)


class TestDMatrix:
    """The kernel's weight diagonal ``D``."""

    def test_schemes_equal_at_full_exposure(self):
        pf = random_portfolio(11, all_full=True)
        fam = TweedieFamily(p=1.42)
        beta = np.array([0.5, 0.2, -0.1])
        np.testing.assert_array_equal(
            _d_diagonal(beta, pf, WeightScheme.OFFSET, fam),
            _d_diagonal(beta, pf, WeightScheme.RATIO, fam),
        )

    def test_zero_score_values(self):
        pf = Portfolio.from_arrays([0.25, 0.25], [1.0, 2.0])
        fam = TweedieFamily(p=1.5)
        beta = np.zeros(1)
        np.testing.assert_allclose(_d_diagonal(beta, pf, WeightScheme.OFFSET, fam), 0.5)
        np.testing.assert_allclose(_d_diagonal(beta, pf, WeightScheme.RATIO, fam), 0.25)

    def test_offset_dominates_entrywise(self):
        fam = TweedieFamily(p=1.3)
        rng = np.random.default_rng(12)
        for seed in range(10):
            pf = random_portfolio(seed, n=25)
            beta = rng.normal(0, 0.5, 3)
            d_off = _d_diagonal(beta, pf, WeightScheme.OFFSET, fam)
            d_rat = _d_diagonal(beta, pf, WeightScheme.RATIO, fam)
            assert np.all(d_off >= d_rat)
            assert np.all(d_off[pf.exposures < 1.0] > d_rat[pf.exposures < 1.0])
            assert np.all(d_off > 0) and np.all(d_rat > 0)


class TestFisherInfo:
    """The kernel's Fisher information ``X.T @ D @ X / phi``."""

    def test_intercept_only_scalar(self):
        pf = Portfolio.from_arrays([0.5, 1.0], [5.0, 20.0])
        fam = TweedieFamily(p=1.5, phi=2.0)
        beta = np.array([0.3])
        w = np.array([0.5**0.5, 1.0])
        expected = float(np.sum(w * math.exp(0.5 * 0.3)) / 2.0)
        info = _system(beta, pf, WeightScheme.OFFSET, fam)[0]
        assert info.shape == (1, 1)
        assert info[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_symmetric(self):
        pf = random_portfolio(13)
        info = _system(np.array([0.2, 0.1, -0.3]), pf, WeightScheme.RATIO, TweedieFamily(p=1.42))[0]
        assert np.max(np.abs(info - info.T)) == 0.0

    def test_positive_definite_on_random_portfolios(self):
        rng = np.random.default_rng(14)
        for seed in range(15):
            pf = random_portfolio(seed, n=30)
            beta = rng.normal(0, 0.5, 3)
            info = _system(beta, pf, WeightScheme.OFFSET, TweedieFamily(p=1.7))[0]
            assert eig_min(info) > 0.0


def _gram_case(k, blocks, remainder, seed=0):
    """A column-major design of ``blocks`` full ``_gram`` blocks plus ``remainder`` rows, and weights."""
    rng = np.random.default_rng(seed)
    n = blocks * max(1, _GRAM_BLOCK_CELLS // k) + remainder
    design = np.empty((n, k), order="F")
    design[:, 0] = 1.0
    design[:, 1:] = rng.normal(0.0, 3.0, (n, k - 1))
    return design, rng.lognormal(0.0, 2.0, n)


class TestGramKernel:
    """``_gram`` against a per-entry ``math.fsum`` of the products, within the dot-product bound."""

    @staticmethod
    def assert_within_dot_bound(design, v):
        gram = _gram(design, v)
        n, k = design.shape
        eps = np.finfo(float).eps
        for j in range(k):
            for m in range(k):
                terms = design[:, j] * v * design[:, m]
                bound = n * eps * math.fsum(np.abs(terms))
                assert abs(gram[j, m] - math.fsum(terms)) <= bound, (j, m)
        assert np.array_equal(gram, gram.T)

    def test_one_block(self):
        design, v = _gram_case(k=4, blocks=0, remainder=500)
        self.assert_within_dot_bound(design, v)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_full_blocks_and_ragged_remainder(self, k):
        design, v = _gram_case(k, blocks=3, remainder=7)
        self.assert_within_dot_bound(design, v)

    def test_row_major_design(self):
        design, v = _gram_case(k=4, blocks=3, remainder=7)
        self.assert_within_dot_bound(np.ascontiguousarray(design), v)

    def test_infinite_weight_in_last_block_is_singular(self):
        design, v = _gram_case(k=4, blocks=3, remainder=7)
        v[-1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = _gram(design, v)
        with pytest.raises(SingularInformationError, match="not finite"):
            _cho_factor(info)

    def test_overflowing_symmetrisation_is_silent(self):
        # each block's sum is finite; only ``gram + gram.T`` on the diagonal overflows
        design = np.asfortranarray([[1.0, 1e154], [1.0, 0.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = _gram(design, np.ones(3))
        assert np.isposinf(gram[1, 1]) and np.isfinite(gram[0]).all()


class TestDesignLayout:
    @pytest.mark.parametrize("container", [Portfolio, CountData])
    def test_from_arrays_design_is_column_major(self, container):
        rng = np.random.default_rng(3)
        covariates = rng.integers(0, 3, (50, 2)).astype(float)  # row-major input
        pf = container.from_arrays(np.full(50, 0.5), rng.integers(0, 4, 50).astype(float), covariates)
        assert pf.design.flags.f_contiguous
        np.testing.assert_array_equal(pf.design[:, 1:], covariates)

    @pytest.mark.parametrize("container", [Portfolio, CountData])
    def test_arrays_are_read_only(self, container):
        # the values kept per book (the partial rank, the separation verdict,
        # the covariance pair) cannot go stale under a write
        exposures, values, covariates = np.array([0.5, 1.0, 0.25]), np.array([1.0, 0.0, 2.0]), np.eye(3)[:, :2]
        pf = container.from_arrays(exposures, values, covariates)
        for name in ("exposures", "loss_costs", "normalized", "design"):
            array = getattr(pf, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.75
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0
        # the caller's arrays are copies and stay writable
        exposures[0] = covariates[0, 0] = 0.75
        assert pf.exposures[0] == 0.5 and pf.design[0, 1] == 1.0
