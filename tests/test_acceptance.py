"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s
tests/test_acceptance.py`` to see them as they execute).
"""

import math
import time

import numpy as np
import pytest

from exposure_glm import (
    Dominance,
    Portfolio,
    TweedieFamily,
    WeightScheme,
    covariance_dominance,
    fit,
    homogeneous_mle,
    moment_ordering,
    premium_moments,
    quasi_loglik,
    zip_nonequivalence_check,
)
from exposure_glm.claim_count import poisson_fit
from exposure_glm.cli import main
from exposure_glm.model_core import _scheme_weights, _scoring_pass
from exposure_glm.simulate import build_scenario_portfolio, gen_mimic_portfolio
from oracles import (
    GridSpec,
    eig_min,
    finite_diff_gradient,
    grid_mle,
    mc_lognormal_moments,
    offset_loss_irls,
    poisson_score,
)

from util import gap_totals, random_count_data, random_portfolio, write_portfolio_csv, zip_count_data



def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def _random_homogeneous(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 201))
    t = np.where(rng.random(n) < 0.3, 1.0, rng.uniform(0.08, 0.999, n))
    y = np.where(rng.random(n) < 0.3, 0.0, rng.gamma(2.0, 40.0, n))
    if y.sum() == 0.0:
        y[0] = 25.0
    return Portfolio.from_arrays(t, y)


def test_criterion_01_homogeneous_ratio_balance():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        pf = _random_homogeneous(seed)
        p = float(np.random.default_rng(seed + 500).uniform(1.05, 1.95))
        result = fit(pf, WeightScheme.RATIO, TweedieFamily(p=p))
        total_loss = pf.loss_costs.sum()
        premium_total = float(np.dot(pf.exposures, np.exp(pf.design @ result.beta_hat)))
        worst = max(worst, abs(premium_total - total_loss) / total_loss)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "homogeneous ratio fits balance to relative 1e-10 on 100 random portfolios",
        worst < 1e-10 and elapsed < 1.0,
        f"worst rel gap {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_homogeneous_offset_imbalance():
    min_margin = math.inf
    worst_closed = 0.0
    for seed in range(100):
        pf = _random_homogeneous(seed)
        p = float(np.random.default_rng(seed + 500).uniform(1.05, 1.95))
        fam = TweedieFamily(p=p)
        result = fit(pf, WeightScheme.OFFSET, fam)
        total_loss = pf.loss_costs.sum()
        premium_total = float(np.dot(pf.exposures, np.exp(pf.design @ result.beta_hat)))
        min_margin = min(min_margin, abs(premium_total - total_loss) / total_loss)
        closed_form = homogeneous_mle(pf, WeightScheme.OFFSET, fam)
        worst_closed = max(
            worst_closed,
            abs(math.exp(result.beta_hat[0]) - closed_form) / max(1.0, closed_form),
        )
    _report(
        2,
        "homogeneous offset fits stay imbalanced and land on the weighted mean",
        min_margin > 1e-6 and worst_closed < 1e-12,
        f"min rel margin {min_margin:.2e}, worst closed-form dev {worst_closed:.2e}",
    )


def test_criterion_03_full_exposure_equivalence():
    worst = 0.0
    for seed in range(10):
        pf = random_portfolio(seed + 300, n=60, q=2, all_full=True)
        fam = TweedieFamily(p=1.42)
        beta_o = fit(pf, WeightScheme.OFFSET, fam).beta_hat
        beta_r = fit(pf, WeightScheme.RATIO, fam).beta_hat
        worst = max(worst, float(np.max(np.abs(beta_o - beta_r))))
    _report(
        3,
        "all-t=1 portfolios give identical offset and ratio coefficients",
        worst < 1e-7,
        f"worst sup diff {worst:.2e}",
    )


def test_criterion_04_poisson_equivalence_and_zip_evidence():
    worst = worst_score = 0.0
    for seed in range(20):
        data = random_count_data(seed)
        beta_o = poisson_fit(data, "offset")
        beta_r = poisson_fit(data, "ratio")
        worst = max(worst, float(np.max(np.abs(beta_o - beta_r))))
        # both modes share one loop; the raw-count score is the independent check
        worst_score = max(worst_score, float(np.max(np.abs(poisson_score(beta_o, data, "offset")))))
    mixed = zip_nonequivalence_check(zip_count_data(901), zero_inflation=0.3)
    full = zip_nonequivalence_check(zip_count_data(902, all_full=True), zero_inflation=0.3)
    no_mass = zip_nonequivalence_check(zip_count_data(903), zero_inflation=0.0)
    ok = (
        worst < 1e-8
        and worst_score < 1e-11
        and not mixed.equivalent
        and full.equivalent
        and no_mass.equivalent
    )
    _report(
        4,
        "Poisson fits agree within 1e-8 and zero the raw-count score; "
        "ZIP evidence triggers only on mixed exposures",
        ok,
        f"worst Poisson diff {worst:.2e}, score {worst_score:.2e}, spreads mixed {mixed.spread:.2e} / "
        f"t=1 {full.spread:.2e} / pi=0 {no_mass.spread:.2e}",
    )


def test_criterion_05_covariance_dominance():
    fam = TweedieFamily(p=1.42)
    strict_ok = True
    worst_min_eig = math.inf
    for seed in range(100):
        book = build_scenario_portfolio(n=100, scenario="increasing", heterogeneous=True, seed=seed)
        beta = np.random.default_rng(seed + 1000).normal(0.0, 0.5, 3)
        report = covariance_dominance(book, beta, fam)
        oracle_min = eig_min(report.difference)
        worst_min_eig = min(worst_min_eig, oracle_min)
        if report.verdict is not Dominance.STRICTLY_DOMINANT or oracle_min <= 0.0:
            strict_ok = False
    pf_full = random_portfolio(999, n=50, all_full=True)
    report_full = covariance_dominance(pf_full, np.array([1.0, 0.1, -0.2]), fam)
    norm_full = float(np.max(np.abs(report_full.difference)))
    ok = strict_ok and report_full.verdict is Dominance.DEGENERATE_EQUAL and norm_full < 1e-12
    _report(
        5,
        "Cov_ratio - Cov_offset is PD on 100 simulated portfolios, zero at full exposure",
        ok,
        f"min eigenvalue over seeds {worst_min_eig:.2e}, full-exposure norm {norm_full:.2e}",
    )


def test_criterion_06_moment_formulas():
    rng = np.random.default_rng(777)
    worst_mean = worst_var = 0.0
    for seed in range(10):
        k = 3
        x = np.concatenate([[1.0], rng.normal(0.0, 1.0, k - 1)])
        beta = rng.normal(0.0, 0.5, k)
        a = rng.normal(0.0, 1.0, (k, k))
        sigma = a @ a.T
        sigma *= rng.uniform(0.01, 0.15) / max(float(x @ sigma @ x), 1e-12)
        mean, variance = premium_moments(x, beta, sigma)
        mc_mean, mc_var = mc_lognormal_moments(x, beta, sigma, 1_000_000, seed=seed)
        worst_mean = max(worst_mean, abs(mean - mc_mean) / mc_mean)
        worst_var = max(worst_var, abs(variance - mc_var) / mc_var)

    ordering_ok = True
    fam = TweedieFamily(p=1.42, phi=1.5)
    for seed in range(5):
        book = build_scenario_portfolio(n=100, scenario="increasing", heterogeneous=True, seed=seed + 50)
        beta = np.array([2.0, 0.3, -0.2])
        for row in book.design:
            ordering = moment_ordering(row, beta, book, fam)
            if not (ordering.mean_strictly_ordered and ordering.variance_strictly_ordered):
                ordering_ok = False
    ok = worst_mean < 0.01 and worst_var < 0.01 and ordering_ok
    _report(
        6,
        "lognormal moments match 1e6-draw Monte Carlo within 1%; offset moments strictly smaller",
        ok,
        f"worst rel err mean {worst_mean:.2e}, var {worst_var:.2e}",
    )


def test_criterion_07_gradient_and_fixed_points():
    fam = TweedieFamily(p=1.42)
    rng = np.random.default_rng(4242)
    worst_rel = 0.0
    for seed in range(25):
        pf = random_portfolio(seed + 200, n=30, q=2)
        for scheme in WeightScheme:
            beta = rng.normal(0.0, 0.4, 3)
            w = _scheme_weights(scheme, pf.exposures, fam.p)
            analytic = _scoring_pass(beta, pf.design, pf.normalized, w, fam.p)[2] / fam.phi
            numeric = finite_diff_gradient(lambda b: quasi_loglik(b, pf, scheme, fam), beta)
            rel = float(np.max(np.abs(analytic - numeric))) / max(1.0, float(np.max(np.abs(analytic))))
            worst_rel = max(worst_rel, rel)

    fixed_ok = True
    for seed in range(10):
        pf = random_portfolio(seed + 250, n=40, q=2)
        for scheme in WeightScheme:
            result = fit(pf, scheme, fam)
            if not result.converged or result.gradient_norm >= 1e-8:
                fixed_ok = False

    grid_ok = True
    worst_grid = 0.0
    pf = random_portfolio(30, n=30, q=1, zero_frac=0.2)
    fam15 = TweedieFamily(p=1.5)
    for scheme in WeightScheme:
        beta_hat = fit(pf, scheme, fam15).beta_hat

        def objective(b, scheme=scheme):
            return quasi_loglik(b, pf, scheme, fam15)

        center = math.log(homogeneous_mle(pf, scheme, fam15))
        result = grid_mle(objective, GridSpec(((center - 0.75, center + 0.75, 31), (-0.75, 0.75, 31))))
        result = grid_mle(objective, GridSpec(tuple((w - 0.06, w + 0.06, 41) for w in result.argmax)))
        result = grid_mle(objective, GridSpec(tuple((w - 0.008, w + 0.008, 33) for w in result.argmax)))
        diff = float(np.max(np.abs(result.argmax - beta_hat)))
        worst_grid = max(worst_grid, diff)
        if diff >= 1e-3:
            grid_ok = False

    ok = worst_rel < 1e-6 and fixed_ok and grid_ok
    _report(
        7,
        "gradients match finite differences (50 cases); fixed points satisfy both oracles",
        ok,
        f"worst FD rel err {worst_rel:.2e}, worst grid diff {worst_grid:.2e}",
    )


def test_criterion_08_gap_sign_laws():
    start = time.perf_counter()
    ok = True
    details = []
    for p in (1.2, 1.42, 1.8):
        for scenario in ("increasing", "decreasing"):
            homo = gap_totals(n=100, scenario=scenario, p=p, seed=20260810)
            hetero = gap_totals(n=100, scenario=scenario, heterogeneous=True, p=p, seed=20260810)
            if abs(homo[1]) >= 1e-8:
                ok = False
                details.append(f"homogeneous ratio gap {homo[1]:.1e} at p={p}")
            if abs(hetero[1]) >= abs(hetero[0]):
                ok = False
                details.append(f"ratio total not smaller at p={p} {scenario}")
            for total_offset, _ in (homo, hetero):
                sign_ok = total_offset > 0.0 if scenario == "increasing" else total_offset < 0.0
                if not sign_ok:
                    ok = False
                    details.append(f"offset sign wrong at p={p} {scenario}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(
        8,
        "gap sign laws hold for p in {1.2, 1.42, 1.8} within the runtime budget",
        ok,
        "; ".join(details) if details else f"runtime {elapsed:.2f}s",
    )


def test_criterion_09_invariance_of_formulations():
    fam = TweedieFamily(p=1.42)
    worst = 0.0
    for seed in range(10):
        pf = random_portfolio(seed + 400, n=50, q=2)
        weighted = fit(pf, WeightScheme.OFFSET, fam).beta_hat
        loss_scale = offset_loss_irls(pf, fam, tolerance=1e-11)
        worst = max(worst, float(np.max(np.abs(weighted - loss_scale))))
    _report(
        9,
        "weighted annualized fit equals the loss-scale offset fit within 1e-9",
        worst < 1e-9,
        f"worst sup diff {worst:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    book = gen_mimic_portfolio(0.36, 120, seed=9)
    src = tmp_path / "book.csv"
    write_portfolio_csv(book, src)

    compare_outputs = (
        "fit.json", "coeff_ratios.csv", "premium_ratios.csv", "gaps.csv", "class_balance.csv", "balance.json",
    )
    out_a, out_b = tmp_path / "cmp_a", tmp_path / "cmp_b"
    assert main(["compare", "--input", str(src), "--out", str(out_a)]) == 0
    assert main(["compare", "--input", str(src), "--out", str(out_b)]) == 0
    compare_identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in compare_outputs
    )

    sim_args = ["simulate", "--n", "80", "--seed", "21", "--scenario", "increasing", "--heterogeneous"]
    sim_a, sim_b = tmp_path / "sim_a", tmp_path / "sim_b"
    assert main(sim_args + ["--out", str(sim_a)]) == 0
    assert main(sim_args + ["--out", str(sim_b)]) == 0
    sim_identical = all(
        (sim_a / name).read_bytes() == (sim_b / name).read_bytes()
        for name in ("gap_experiment.csv", "gap_totals.json")
    )
    _report(
        10,
        "repeated CLI runs produce byte-identical outputs",
        compare_identical and sim_identical,
        f"compare identical: {compare_identical}, simulate identical: {sim_identical}",
    )
