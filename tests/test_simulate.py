"""Generator contracts: determinism, bounds, rank-driven losses, mimic shape."""

import numpy as np
import pytest

from exposure_glm.simulate import (
    EXPOSURE_HI,
    EXPOSURE_LO,
    Scenario,
    ScenarioConfig,
    build_scenario_portfolio,
    gen_covariates,
    gen_exposures,
    gen_losses,
    gen_mimic_portfolio,
    run_gap_experiment,
)


class TestGenExposures:
    def test_within_interval(self):
        t = gen_exposures(500, seed=1)
        assert np.all(t >= EXPOSURE_LO) and np.all(t <= EXPOSURE_HI)

    def test_sorted_ascending(self):
        t = gen_exposures(200, seed=2)
        assert np.all(np.diff(t) >= 0.0)

    def test_seed_determinism(self):
        np.testing.assert_array_equal(gen_exposures(100, seed=3), gen_exposures(100, seed=3))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_exposures(1, seed=0)


class TestGenLosses:
    def test_increasing(self):
        np.testing.assert_array_equal(gen_losses(3, Scenario.INCREASING), [1.0, 2.0, 3.0])

    def test_decreasing_corrected_reversal(self):
        np.testing.assert_array_equal(gen_losses(3, Scenario.DECREASING), [3.0, 2.0, 1.0])

    def test_total_losses_match_across_scenarios(self):
        assert gen_losses(100, Scenario.INCREASING).sum() == gen_losses(100, Scenario.DECREASING).sum()


class TestGenCovariates:
    def test_binary_values_in_default_mode(self):
        cov = gen_covariates(500, seed=5)
        assert cov.shape == (500, 2)
        assert set(np.unique(cov)) <= {0.0, 1.0}

    def test_column_means_match_success_rates(self):
        cov = gen_covariates(100_000, seed=6)
        assert abs(cov[:, 0].mean() - 0.75) < 0.01
        assert abs(cov[:, 1].mean() - 0.15) < 0.01

    def test_seed_determinism(self):
        np.testing.assert_array_equal(gen_covariates(50, seed=8), gen_covariates(50, seed=8))


class TestBuildScenarioPortfolio:
    def test_portfolio_passes_construction_invariants(self):
        for seed in range(20):
            synthetic = build_scenario_portfolio(
                ScenarioConfig(n=30, scenario=Scenario.INCREASING, heterogeneous=True, seed=seed)
            )
            pf = synthetic.portfolio
            assert pf.n == 30 and pf.q == 2
            assert np.all(np.diff(pf.exposures) >= 0.0)
            assert np.all((pf.exposures >= EXPOSURE_LO) & (pf.exposures <= EXPOSURE_HI))

    def test_homogeneous_mode_has_no_covariates(self):
        synthetic = build_scenario_portfolio(ScenarioConfig(n=10, seed=1))
        assert synthetic.portfolio.q == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=1)
        with pytest.raises(ValueError):
            ScenarioConfig(p=2.0)


class TestRunGapExperiment:
    def test_homogeneous_ratio_balances(self):
        experiment = run_gap_experiment(ScenarioConfig(n=100, seed=9))
        assert abs(experiment.total_ratio) < 1e-10

    def test_offset_signs(self):
        increasing = run_gap_experiment(ScenarioConfig(n=100, scenario=Scenario.INCREASING, seed=10))
        decreasing = run_gap_experiment(ScenarioConfig(n=100, scenario=Scenario.DECREASING, seed=10))
        assert increasing.total_offset > 0.0
        assert decreasing.total_offset < 0.0

    def test_heterogeneous_ratio_total_smaller_than_offset(self):
        experiment = run_gap_experiment(
            ScenarioConfig(n=100, scenario=Scenario.INCREASING, heterogeneous=True, seed=11)
        )
        assert abs(experiment.total_ratio) < abs(experiment.total_offset)

    def test_rows_are_rank_indexed(self):
        experiment = run_gap_experiment(ScenarioConfig(n=10, seed=12))
        columns = experiment.columns()
        assert list(columns) == ["rank", "exposure", "gap_offset", "gap_ratio"]
        assert columns["rank"].tolist() == list(range(1, 11))
        assert all(len(column) == 10 for column in columns.values())
        np.testing.assert_array_equal(columns["exposure"], experiment.synthetic.portfolio.exposures)

    def test_same_seed_reproduces_totals_exactly(self):
        a = run_gap_experiment(ScenarioConfig(n=50, seed=13))
        b = run_gap_experiment(ScenarioConfig(n=50, seed=13))
        assert a.total_offset == b.total_offset
        assert a.total_ratio == b.total_ratio

    def test_minimum_portfolio_runs(self):
        experiment = run_gap_experiment(ScenarioConfig(n=2, seed=14))
        assert len(experiment.columns()["rank"]) == 2


class TestGenMimicPortfolio:
    def test_share_reproduced_exactly_in_counts(self):
        synthetic = gen_mimic_portfolio(0.36, 1000, seed=15)
        assert synthetic.metadata["n_midterm"] == 360
        assert synthetic.metadata["n_full"] == 640

    def test_midterm_mean_exposure_near_half(self):
        synthetic = gen_mimic_portfolio(0.36, 2000, seed=16)
        pf = synthetic.portfolio
        midterm = pf.exposures[pf.exposures < 1.0]
        assert abs(midterm.mean() - 0.5) < 0.05

    def test_group_references_ordered(self):
        from exposure_glm import group_summaries

        synthetic = gen_mimic_portfolio(0.36, 1000, seed=17)
        summaries = {s.label: s for s in group_summaries(synthetic.portfolio)}
        assert summaries["mid_term"].loss_cost_reference > summaries["full_exposure"].loss_cost_reference

    def test_exposures_sorted_and_valid(self):
        synthetic = gen_mimic_portfolio(0.4, 500, seed=18)
        t = synthetic.portfolio.exposures
        assert np.all(np.diff(t) >= 0.0)
        assert np.all((t == 1.0) | ((t >= EXPOSURE_LO) & (t <= EXPOSURE_HI)))

    def test_seed_determinism(self):
        a = gen_mimic_portfolio(0.36, 200, seed=19).portfolio
        b = gen_mimic_portfolio(0.36, 200, seed=19).portfolio
        np.testing.assert_array_equal(a.loss_costs, b.loss_costs)
        np.testing.assert_array_equal(a.design, b.design)

    def test_share_bounds(self):
        with pytest.raises(ValueError):
            gen_mimic_portfolio(1.0, 100, seed=0)
