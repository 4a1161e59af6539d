"""Generator contracts: determinism, bounds, rank-driven losses, mimic shape."""

import hashlib

import numpy as np
import pytest

from exposure_glm.simulate import (
    EXPOSURE_HI,
    EXPOSURE_LO,
    Scenario,
    _full_rank_portfolio,
    build_scenario_portfolio,
    gen_mimic_portfolio,
    run_gap_experiment,
)
from exposure_glm.cli import main

from util import gap_totals


def scenario_columns(n, seed, scenario=Scenario.INCREASING, heterogeneous=False):
    """``(exposures, loss_costs, covariates)`` of the scenario portfolio."""
    pf = build_scenario_portfolio(n=n, scenario=scenario, heterogeneous=heterogeneous, seed=seed)
    return pf.exposures, pf.loss_costs, pf.design[:, 1:]


class TestGenExposures:
    """The exposure column of ``build_scenario_portfolio``."""

    def test_within_interval(self):
        t, _, _ = scenario_columns(500, seed=1)
        assert np.all(t >= EXPOSURE_LO) and np.all(t <= EXPOSURE_HI)

    def test_sorted_ascending(self):
        t, _, _ = scenario_columns(200, seed=2)
        assert np.all(np.diff(t) >= 0.0)

    def test_seed_determinism(self):
        np.testing.assert_array_equal(scenario_columns(100, seed=3)[0], scenario_columns(100, seed=3)[0])

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="need at least 2 contracts, got 1"):
            scenario_columns(1, seed=0)


class TestGenLosses:
    """The loss-cost column of ``build_scenario_portfolio``, by exposure rank."""

    def test_increasing(self):
        np.testing.assert_array_equal(scenario_columns(3, 0, Scenario.INCREASING)[1], [1.0, 2.0, 3.0])

    def test_decreasing_corrected_reversal(self):
        np.testing.assert_array_equal(scenario_columns(3, 0, Scenario.DECREASING)[1], [3.0, 2.0, 1.0])

    def test_total_losses_match_across_scenarios(self):
        increasing = scenario_columns(100, 4, Scenario.INCREASING)[1]
        decreasing = scenario_columns(100, 4, Scenario.DECREASING)[1]
        assert increasing.sum() == decreasing.sum()
        np.testing.assert_array_equal(decreasing, increasing[::-1])


class TestGenCovariates:
    """The covariate columns of a heterogeneous ``build_scenario_portfolio``."""

    def test_binary_values_in_default_mode(self):
        _, _, cov = scenario_columns(500, 5, heterogeneous=True)
        assert cov.shape == (500, 2)
        assert set(np.unique(cov)) <= {0.0, 1.0}

    def test_column_means_match_success_rates(self):
        _, _, cov = scenario_columns(100_000, 6, heterogeneous=True)
        assert abs(cov[:, 0].mean() - 0.75) < 0.01
        assert abs(cov[:, 1].mean() - 0.15) < 0.01

    def test_seed_determinism(self):
        a, b = (scenario_columns(50, 8, heterogeneous=True) for _ in range(2))
        for column_a, column_b in zip(a, b):
            np.testing.assert_array_equal(column_a, column_b)


class TestBuildScenarioPortfolio:
    def test_design_is_column_major(self):
        assert build_scenario_portfolio(n=30, heterogeneous=True, seed=0).design.flags.f_contiguous

    def test_portfolio_passes_construction_invariants(self):
        for seed in range(20):
            pf = build_scenario_portfolio(n=30, scenario=Scenario.INCREASING, heterogeneous=True, seed=seed)
            assert pf.n == 30 and pf.q == 2
            assert np.all(np.diff(pf.exposures) >= 0.0)
            assert np.all((pf.exposures >= EXPOSURE_LO) & (pf.exposures <= EXPOSURE_HI))

    def test_draw_is_rank_checked_once(self, monkeypatch):
        # the first covariate draw has full rank, so one Portfolio build checks it
        calls = []

        def matrix_rank(design, rank=np.linalg.matrix_rank):
            calls.append(design.shape)
            return rank(design)

        monkeypatch.setattr(np.linalg, "matrix_rank", matrix_rank)
        pf = build_scenario_portfolio(n=30, heterogeneous=True, seed=0)
        assert calls == [(30, 3)]
        assert pf.q == 2

    def test_homogeneous_mode_has_no_covariates(self):
        book = build_scenario_portfolio(n=10, seed=1)
        assert book.q == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            build_scenario_portfolio(n=1)
        with pytest.raises(ValueError):
            run_gap_experiment(p=2.0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="'sideways' is not a valid Scenario"):
            build_scenario_portfolio(scenario="sideways")

    def test_gap_experiment_checks_p_after_the_scenario_and_before_the_draw(self):
        with pytest.raises(ValueError, match="^need at least 2 contracts"):
            run_gap_experiment(n=1, p=3.0)
        with pytest.raises(ValueError, match="^seed must be"):
            run_gap_experiment(seed=-1, p=3.0)
        # the draw itself would fail: two contracts cannot carry two covariates
        with pytest.raises(ValueError, match="^variance power must satisfy 1 < p < 2, got 3.0"):
            run_gap_experiment(n=2, heterogeneous=True, p=3.0)

    @pytest.mark.parametrize("n", [2.0, 100.5, True, "100", None])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            build_scenario_portfolio(n=n)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            build_scenario_portfolio(seed=seed)


class TestRunGapExperiment:
    def test_homogeneous_ratio_balances(self):
        _, total_ratio = gap_totals(n=100, seed=9)
        assert abs(total_ratio) < 1e-10

    def test_offset_signs(self):
        increasing, _ = gap_totals(n=100, scenario=Scenario.INCREASING, seed=10)
        decreasing, _ = gap_totals(n=100, scenario=Scenario.DECREASING, seed=10)
        assert increasing > 0.0
        assert decreasing < 0.0

    def test_heterogeneous_ratio_total_smaller_than_offset(self):
        total_offset, total_ratio = gap_totals(n=100, scenario=Scenario.INCREASING, heterogeneous=True, seed=11)
        assert abs(total_ratio) < abs(total_offset)

    def test_rows_are_rank_indexed(self, tmp_path):
        assert main(["simulate", "--n", "10", "--seed", "12", "--out", str(tmp_path)]) == 0
        portfolio, _, _ = run_gap_experiment(n=10, seed=12)
        rows = (tmp_path / "gap_experiment.csv").read_text().splitlines()
        assert rows[0] == "rank,exposure,gap_offset,gap_ratio"
        ranks, exposures = zip(*(row.split(",")[:2] for row in rows[1:]))
        assert ranks == tuple(str(i) for i in range(1, 11))
        np.testing.assert_array_equal(np.array(exposures, dtype=float), portfolio.exposures)

    def test_returns_the_book_and_both_fits(self):
        portfolio, fit_offset, fit_ratio = run_gap_experiment(n=30, heterogeneous=True, seed=12)
        book = build_scenario_portfolio(n=30, heterogeneous=True, seed=12)
        np.testing.assert_array_equal(portfolio.design, book.design)
        np.testing.assert_array_equal(portfolio.loss_costs, book.loss_costs)
        assert (fit_offset.n_obs, fit_ratio.n_obs) == (30, 30)
        assert fit_offset.converged and fit_ratio.converged

    def test_same_seed_reproduces_totals_exactly(self):
        assert gap_totals(n=50, seed=13) == gap_totals(n=50, seed=13)

    def test_minimum_portfolio_runs(self):
        portfolio, fit_offset, fit_ratio = run_gap_experiment(n=2, seed=14)
        assert portfolio.n == 2
        assert fit_offset.converged and fit_ratio.converged

    def test_heterogeneous_minimum_is_the_containers(self):
        # an intercept and two covariates need three contracts; the
        # Portfolio the generator builds says so
        with pytest.raises(ValueError, match=r"need at least q \+ 1 = 3 observations, got 2"):
            build_scenario_portfolio(n=2, heterogeneous=True, seed=14)


class TestGenMimicPortfolio:
    def test_share_reproduced_exactly_in_counts(self):
        book = gen_mimic_portfolio(0.36, 1000, seed=15)
        assert np.count_nonzero(book.exposures < 1.0) == 360
        assert np.count_nonzero(book.exposures == 1.0) == 640

    def test_midterm_mean_exposure_near_half(self):
        pf = gen_mimic_portfolio(0.36, 2000, seed=16)
        midterm = pf.exposures[pf.exposures < 1.0]
        assert abs(midterm.mean() - 0.5) < 0.05

    def test_group_references_ordered(self):
        book = gen_mimic_portfolio(0.36, 1000, seed=17)
        midterm = book.exposures < 1.0
        assert book.loss_costs[midterm].mean() > book.loss_costs[~midterm].mean()

    def test_mimic_round_trip(self):
        book = gen_mimic_portfolio(0.36, 2000, seed=5)
        midterm = book.exposures < 1.0
        assert np.count_nonzero(midterm) / book.n == 0.36
        mid, full = book.loss_costs[midterm].mean(), book.loss_costs[~midterm].mean()
        assert mid == pytest.approx(100.0 * 2.45 / 0.63, rel=1e-9)
        assert full == pytest.approx(100.0, rel=1e-9)

    def test_exposures_sorted_and_valid(self):
        t = gen_mimic_portfolio(0.4, 500, seed=18).exposures
        assert np.all(np.diff(t) >= 0.0)
        assert np.all((t == 1.0) | ((t >= EXPOSURE_LO) & (t <= EXPOSURE_HI)))

    def test_too_few_contracts_rejected(self):
        with pytest.raises(ValueError, match="^need at least 4 contracts, got 3$"):
            gen_mimic_portfolio(0.4, 3, seed=0)

    def test_no_full_rank_draw_raises(self):
        # a covariate of success rate 0 is constant in every draw
        exposures = np.array([0.5, 1.0, 0.25, 1.0])
        with pytest.raises(RuntimeError, match="^no full-rank covariate draw in 64 attempts$"):
            _full_rank_portfolio(np.random.SeedSequence(0), exposures, np.ones(4), rates=(0.0,))

    def test_seed_determinism(self):
        a = gen_mimic_portfolio(0.36, 200, seed=19)
        b = gen_mimic_portfolio(0.36, 200, seed=19)
        np.testing.assert_array_equal(a.loss_costs, b.loss_costs)
        np.testing.assert_array_equal(a.design, b.design)

    @pytest.mark.parametrize(
        "share,n,seed,digests",
        [
            (
                0.36,
                1000,
                15,
                (
                    "b083c02cd4adc544da6bb7ce40258c69884cbed008f41504f734c40fbff4994e",
                    "6b5bc8317d3fddf550054bfe7845db72d774f80b67cdad21cd6f40271d53e5f2",
                    "c304e4137aaa57e7668eb8a0414920372716c72e03b62be71735003947cfe392",
                ),
            ),
            (
                0.4,
                60,
                2,
                (
                    "170ed18d1038e575c742c9c4b3bb11876d893d8428f49f5b2e275cf9289ecc58",
                    "c2def0e8dfeb02336d5e4eb6dc964773314ec537977cb7025f514806869046b2",
                    "04d70f4e509d806ed6752c0a27dcad63d156df67543e50c30f93dc65395ac6a5",
                ),
            ),
        ],
    )
    def test_arrays_pinned(self, share, n, seed, digests):
        # sha256 of the exposures, loss costs and design; a change to any of
        # the book's constants (group means, zero mass, covariate rates)
        # changes them.  The arrays come from the generator and elementwise
        # arithmetic only, no BLAS, so the pins hold on every platform.
        pf = gen_mimic_portfolio(share, n, seed=seed)
        arrays = (pf.exposures, pf.loss_costs, pf.design)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests

    def test_share_bounds(self):
        with pytest.raises(ValueError):
            gen_mimic_portfolio(1.0, 100, seed=0)

    @pytest.mark.parametrize("n", [100.0, 100.5, True, "100", None])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            gen_mimic_portfolio(0.36, n, seed=1)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            gen_mimic_portfolio(0.36, 100, seed=seed)
