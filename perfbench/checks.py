"""Correctness checks that decide whether a benchmark operation failed.

Each check returns a list of problems ``(kind, message)``.  ``kind`` is
``"status"`` when the program honestly reported that a fit did not
converge, and ``"check"`` when an output contradicts the paper's
identities, the input, or another output; only the second makes a run
incorrect, both make the operation fail.

Balance.  A converged fit with an intercept solves the intercept's score
equation ``sum_i w_i zeta_i**(1-p) (z_i - zeta_i) = 0`` with the scheme
weight ``w`` (``t**(2-p)`` offset, ``t`` ratio).  For the ratio weights
this is the paper's exact portfolio balance in Tweedie form; the plain
balance ``sum_i t_i (z_i - zeta_i) = 0`` follows from it only when
``zeta`` is constant (an intercept-only book) or ``p = 1``.  With
covariates the plain ratio balance factor misses 1 by about 1e-7 on
these books and by more than 1e-6 on some, so it is recomputed and
cross-checked, not compared with 1.
"""

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

CLI_P = 1.42
BALANCE_TOL = 1e-6
CONSISTENCY_TOL = 1e-9
POISSON_TOL = 1e-8
SCHEMES = ("offset", "ratio")
GAP_COLUMNS = ["contract_id", "exposure", "z", "zeta_offset", "zeta_ratio", "gap_offset", "gap_ratio"]


def artifact_digests(out_dir):
    """sha256 of every file the command wrote, for information only."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
    }


_FIT_LOG = re.compile(r"(offset|ratio) fit: converged=(True|False) iterations=(\d+)")


def check_fit_log(stderr_text):
    """Fit status from the CLI's info log (``EXPOSURE_GLM_LOG=info``); both schemes must converge."""
    found = {scheme: (status, int(its)) for scheme, status, its in _FIT_LOG.findall(stderr_text)}
    if set(found) != set(SCHEMES):
        return [("check", f"expected offset and ratio fit log lines, found {sorted(found)}")]
    return [
        ("status", f"{scheme} fit not converged after {its} iterations")
        for scheme, (status, its) in sorted(found.items())
        if status != "True"
    ]


def score_balance(z, zeta, weights, p):
    """Relative residual of the intercept's score equation."""
    v = weights * zeta ** (1.0 - p)
    return abs(math.fsum(v * (z - zeta))) / math.fsum(v * z)


def _gaps(out_dir, expect):
    """Check ``gaps.csv``; return (problems, columns by name or None)."""
    path = Path(out_dir) / "gaps.csv"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header != GAP_COLUMNS:
        return [("check", f"gaps.csv header {header}")], None
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, 7), ndmin=2)
    if data.shape[0] != expect["n"]:
        return [("check", f"gaps.csv has {data.shape[0]} rows, expected {expect['n']}")], None
    columns = dict(zip(GAP_COLUMNS[1:], data.T))
    t, z = columns["exposure"], columns["z"]
    problems = []
    for scheme in SCHEMES:
        zeta, gap = columns[f"zeta_{scheme}"], columns[f"gap_{scheme}"]
        if not np.max(np.abs(gap - t * (z - zeta))) <= CONSISTENCY_TOL * np.max(t * z):
            problems.append(("check", f"gap_{scheme} is not exposure * (z - zeta_{scheme})"))
        weights = t if scheme == "ratio" else t ** (2.0 - CLI_P)
        residual = score_balance(z, zeta, weights, CLI_P)
        if not residual < BALANCE_TOL:
            problems.append(("check", f"{scheme} fit misses its score balance by {residual:.3g}"))
    return problems, columns


def _class_rows(out_dir, expect):
    with open(Path(out_dir) / "class_balance.csv", encoding="utf-8", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != expect["class_rows"]:
        return [("check", f"class_balance.csv has {rows} rows, expected {expect['class_rows']}")]
    return []


def check_compare(out_dir, expect):
    """Outputs of ``exposure-glm compare`` against the generated book."""
    problems, _ = _gaps(out_dir, expect)
    return problems + _class_rows(out_dir, expect)


def check_balance(out_dir, expect):
    """Outputs of ``exposure-glm balance``: ``balance.json`` must agree with ``gaps.csv``."""
    problems, columns = _gaps(out_dir, expect)
    if columns is not None:
        summary = json.loads((Path(out_dir) / "balance.json").read_text())
        loss_sum = expect["loss_sum"]
        for scheme in SCHEMES:
            factor = math.fsum(columns["exposure"] * columns[f"zeta_{scheme}"]) / loss_sum
            reported = summary[f"balance_factor_{scheme}"]
            if not abs(reported - factor) <= CONSISTENCY_TOL * factor:
                problems.append(("check", f"balance_factor_{scheme} {reported!r}, gaps.csv gives {factor!r}"))
            gap = math.fsum(columns[f"gap_{scheme}"])
            reported = summary[f"portfolio_gap_{scheme}"]
            if not abs(reported - gap) <= CONSISTENCY_TOL * loss_sum:
                problems.append(("check", f"portfolio_gap_{scheme} {reported!r}, gaps.csv gives {gap!r}"))
    return problems + _class_rows(out_dir, expect)


def check_profile(book, sweep, poisson, zip_evidence):
    """Per-unit problems of one p-profile analysis.

    ``sweep`` holds ``(p, offset_fit, ratio_fit, dominance, moments,
    factors)`` per variance power.  Units: each fit, each diagnostic call
    and the two claim-count checks; each unit adds at most one problem.
    Returns (units, problems, info).
    """
    design = np.column_stack([np.ones(book.n), book.covariates])
    loss_sum = math.fsum(book.losses)
    problems = []
    units = 0
    worst_ratio_factor = 0.0
    for p, offset, ratio, dominance, moments, factors in sweep:
        for name, result in zip(SCHEMES, (offset, ratio)):
            units += 1
            if not result.converged:
                problems.append(
                    ("status", f"p={p:.2f} {name} fit not converged after {result.iterations} iterations")
                )
        units += 1
        if dominance.verdict.name != "STRICTLY_DOMINANT":
            problems.append(("check", f"p={p:.2f} covariance dominance verdict {dominance.verdict.name}"))
        for row, ordering in enumerate(moments):
            units += 1
            if not (ordering.mean_strictly_ordered and ordering.variance_strictly_ordered):
                problems.append(("check", f"p={p:.2f} row {row}: moments not strictly ordered"))
        for name, result, factor in zip(SCHEMES, (offset, ratio), factors):
            units += 1
            expected = math.fsum(book.exposures * np.exp(design @ result.beta_hat)) / loss_sum
            if not abs(factor - expected) <= CONSISTENCY_TOL * expected:
                problems.append(("check", f"p={p:.2f} {name} balance factor {factor!r}, expected {expected!r}"))
        worst_ratio_factor = max(worst_ratio_factor, abs(factors[1] - 1.0))
    units += 2
    beta_offset, beta_ratio = poisson
    poisson_diff = float(np.max(np.abs(beta_offset - beta_ratio)))
    if not poisson_diff < POISSON_TOL:
        problems.append(("check", f"Poisson offset/ratio coefficients differ by {poisson_diff:.3g}"))
    if zip_evidence.equivalent:
        problems.append(("check", "zero-inflated Poisson probe reports equivalence"))
    info = {
        "iterations": [[p, o.iterations, r.iterations] for p, o, r, *_ in sweep],
        "max_abs_ratio_factor_minus_1": worst_ratio_factor,
        "poisson_max_coefficient_diff": poisson_diff,
        "zip_spread": zip_evidence.spread,
    }
    return units, problems, info
