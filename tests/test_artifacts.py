"""Byte-level pins of the CLI artifacts on a small seeded book.

The book has a binary factor and a sum insured with ~190 distinct values,
about 30 of which carry no loss at all (undefined class ratios, tied
loss sums), plus contract ids that need CSV quoting.  A second book of
claim counts (about three quarters zeros, mixed exposures) pins
``counts.json``.  Every loss-cost digest was recorded before the data
path became columnar, the counts digest before the Poisson solve and the
zero-inflated likelihood were merged across modes; a refactor that
changes one byte of any artifact fails here.  The simulate digests were
re-recorded once the fit stopped at the score's rounding floor: both
fits stop earlier (10 iterations, not 45 and 12), coefficients move by
at most 1.2e-14 and the gap totals by at most 3.2e-12 relative.
The compare ``fit.json`` and ``coeff_ratios.csv`` and both simulate
digests were re-recorded once more when the Cholesky factor and solve
moved to ``numpy.linalg``: iteration counts are unchanged,
coefficients move by at most 2.8e-15 and covariances by at most 6.2e-15
relative; every other digest held.
Since ``balance`` became another name for ``compare``, the two commands
are checked against one set of pins.
Every compare and simulate digest was re-recorded once more when the
fit moved to Newton steps on the observed information.  The compare
fits take 3 iterations, not 9 (offset) and 8 (ratio), and the simulate
fits 4, not 10.  The old compare fits stopped at the absolute 1e-8 rule
with score norms near 5e-9; the new ones stop at the rounding floor,
within 2.3e-14 relative of the old code's own floor-stopped optimum.
So coefficients move by at most 7.4e-12 and covariances by at most
1.1e-13 relative.  Single gaps move by at most 1.9e-8 relative, at a
near-cancelling gap of 0.0019, and the ratio portfolio gap by 2.8e-10
relative.  The simulate gap totals move by at most 1.9e-12 relative.
The counts and round-trip digests held.

Fitted values depend on how the BLAS and LAPACK kernels that numpy loads
round their sums, which varies with the CPU, the library build and the
thread count.  The pins of fitted artifacts therefore apply only where a
probe of numpy's kernels that the fit calls (products, Cholesky factor,
solves), on fixed data of the fitted shapes, reproduces the digest
recorded with them (numpy 2.4 with its bundled OpenBLAS, x86-64,
2 threads); elsewhere they skip.  The portfolio round trip uses
no BLAS and is pinned everywhere.  So is the content of the compare
tables: ``gaps.csv`` and ``class_balance.csv`` are read back with
``csv.reader`` and every id and number checked against the library's
own fits of the book in the same process.
"""

import csv
import hashlib

import numpy as np
import pytest

from exposure_glm import TweedieFamily, WeightScheme, class_report, fit, individual_gaps
from exposure_glm import cli
from exposure_glm.cli import ingest_csv, main, write_portfolio_csv

PINNED = {
    "compare": {
        "balance.json": "54869c19fb1cf3ffd5b594b052ea246ab36c2826a1a2261eb11998c8c9a579e2",
        "class_balance.csv": "929f43b9e0c92ae5caaaa9454a51b1204223e281790321a1b6c29f8f621519d5",
        "coeff_ratios.csv": "41be35802bc291d2346ebdf66e58bf10e10fb816e22e316e48ca9fbf5bd206d7",
        "fit.json": "45ff313d49de9682953d56dbc0834025be954a9de0cedcf81a610a4d27b10468",
        "gaps.csv": "868f8fb257b8885c62c323c5e0660ebefcd55606ee981ba6a47c8ba458fd9cb7",
        "premium_ratios.csv": "e3079f93a5cebb1c6cece2e2d418bf63e36dc1a3d0f8a0cfa1d0e50d90e0dab1",
    },
    "simulate": {
        "gap_experiment.csv": "b64ad3dd4e0c6edce4e3aa8e546948dc1a4d0983d2a16d7d7ddc82a0b53b6d58",
        "gap_totals.json": "a42481d5b30c6d25ea737dbf598b043eed4339b6a5971d373872d99a2287a859",
    },
    "counts": {
        "counts.json": "f7df9e775fd198cdb212d2a5f94f8f474c9172de85a8f2d7a97a0ad2e4213e14",
    },
    "round_trip": {
        "book.csv": "dbf51655ec66d317cb13836490fb748c227facc2542c0841d831549a22098b0f",
    },
}


# sha256 of ``blas_probe()`` where the PINNED digests were recorded
BLAS_PROBE = "1e1c84d03f332aef19bb514434865010cdf4e2f585402ac16bec7264ee658b83"


def blas_probe():
    """Digest of the kernels a fit calls, run on fixed data of the pinned shapes."""
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for n in (600, 300):
        X = np.column_stack([np.ones(n), rng.random(n), rng.random(n)])
        d, r, beta = rng.random(n), rng.standard_normal(n), rng.standard_normal(3)
        info = (X * d[:, None]).T @ X
        factor = np.linalg.cholesky(info)
        inverse = np.linalg.solve(factor.T, np.linalg.solve(factor, np.eye(3)))
        for array in (X @ beta, info, X.T @ (d * r), inverse):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


fitted_pins = pytest.mark.skipif(
    blas_probe() != BLAS_PROBE,
    reason="BLAS/LAPACK kernels here round differently from where the digests were recorded",
)


def write_book(path, n=600, seed=20261018):
    rng = np.random.default_rng(seed)
    t = np.where(rng.random(n) < 0.4, rng.uniform(30 / 365, 335 / 365, n), 1.0)
    y = np.where(rng.random(n) < 0.5, 0.0, rng.gamma(1.5, 60.0, n))
    x1 = (rng.random(n) < 0.4).astype(float)
    sum_insured = 10.0 + rng.integers(0, 200, n) / 10.0
    ids = [f"c{i}" for i in range(n)]
    ids[1], ids[2] = "c,1", 'q"2'
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["contract_id", "exposure", "loss_cost", "x1", "sum_insured"])
        for cid, *values in zip(ids, t.tolist(), y.tolist(), x1.tolist(), sum_insured.tolist()):
            writer.writerow([cid, *map(repr, values)])
    return path


def write_counts_book(path, n=600, seed=20261018):
    rng = np.random.default_rng(seed)
    t = np.where(rng.random(n) < 0.4, rng.uniform(30 / 365, 335 / 365, n), 1.0)
    x1 = (rng.random(n) < 0.4).astype(float)
    x2 = rng.normal(size=n)
    y = rng.poisson(t * np.exp(-1.0 + 0.5 * x1 + 0.2 * x2))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["contract_id", "exposure", "count", "x1", "x2"])
        for i, values in enumerate(zip(t.tolist(), y.tolist(), x1.tolist(), x2.tolist())):
            writer.writerow([f"c{i}", *map(repr, values)])
    return path


def digests(out_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.fixture(scope="module")
def book(tmp_path_factory):
    return write_book(tmp_path_factory.mktemp("book") / "book.csv")


@fitted_pins
@pytest.mark.parametrize("command", ["compare", "balance"])
def test_book_command_artifacts_pinned(book, tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "--input", str(book), "--out", str(out)]) == 0
    assert digests(out) == PINNED["compare"]


@fitted_pins
def test_simulate_artifacts_pinned(tmp_path):
    out = tmp_path / "out"
    args = ["simulate", "--n", "300", "--seed", "4", "--scenario", "decreasing", "--heterogeneous"]
    assert main(args + ["--out", str(out)]) == 0
    assert digests(out) == PINNED["simulate"]


@fitted_pins
def test_counts_artifact_pinned(tmp_path):
    book = write_counts_book(tmp_path / "counts.csv")
    out = tmp_path / "out"
    assert main(["counts", "--input", str(book), "--out", str(out)]) == 0
    assert digests(out) == PINNED["counts"]


def test_portfolio_csv_round_trip_pinned(book, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    write_portfolio_csv(ingest_csv(book), out / "book.csv")
    assert digests(out) == PINNED["round_trip"]


# In chunks of 7 rows every CSV artifact above spans several chunks, which
# forked workers render where more than one CPU is available.
@fitted_pins
def test_fitted_pins_hold_in_chunks_of_seven_rows(book, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    assert main(["compare", "--input", str(book), "--out", str(tmp_path / "compare")]) == 0
    assert digests(tmp_path / "compare") == PINNED["compare"]
    args = ["simulate", "--n", "300", "--seed", "4", "--scenario", "decreasing", "--heterogeneous"]
    assert main(args + ["--out", str(tmp_path / "simulate")]) == 0
    assert digests(tmp_path / "simulate") == PINNED["simulate"]


def test_round_trip_pin_holds_in_chunks_of_seven_rows(book, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    out = tmp_path / "out"
    out.mkdir()
    write_portfolio_csv(ingest_csv(book), out / "book.csv")
    assert digests(out) == PINNED["round_trip"]


def read_table(path):
    """Header and rows of an artifact CSV, read back with ``csv.reader``."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def assert_cells_hold(cells, expected):
    """Cells are empty where ``expected`` is NaN and parse to its float64 bit for bit elsewhere."""
    expected = np.asarray(expected, dtype=float)
    undefined = np.isnan(expected)
    assert [cell == "" for cell in cells] == undefined.tolist()
    parsed = np.array([float(cell) for cell in cells if cell != ""])
    assert parsed.tobytes() == expected[~undefined].tobytes()


def test_compare_tables_hold_the_fitted_values(book, tmp_path):
    # Not gated on the BLAS probe: the expected values are the library's own
    # fits of the same book in this process, so only the CSV round trip of
    # ids and numbers is under test.
    out = tmp_path / "out"
    assert main(["compare", "--input", str(book), "--out", str(out)]) == 0
    portfolio = ingest_csv(book)
    fits = [fit(portfolio, scheme, TweedieFamily(p=1.42)) for scheme in (WeightScheme.OFFSET, WeightScheme.RATIO)]

    (zeta_offset, gap_offset), (zeta_ratio, gap_ratio) = (individual_gaps(portfolio, result) for result in fits)
    header, rows = read_table(out / "gaps.csv")
    assert header == ["contract_id", "exposure", "z", "zeta_offset", "zeta_ratio", "gap_offset", "gap_ratio"]
    ids, *columns = zip(*rows)
    assert ids == portfolio.contract_ids and {"c,1", 'q"2'} <= set(ids)
    expected = [portfolio.exposures, portfolio.normalized, zeta_offset, zeta_ratio, gap_offset, gap_ratio]
    for cells, values in zip(columns, expected, strict=True):
        assert_cells_hold(cells, values)

    reports = [class_report(portfolio, fits, j) for j in range(1, portfolio.q + 1)]
    header, rows = read_table(out / "class_balance.csv")
    assert header[:3] == ["factor", "level", "loss_sum"] and len(header) == 7
    factors, *columns = zip(*rows)
    assert list(factors) == [report.factor_name for report in reports for _ in range(len(report))]
    expected = [
        np.concatenate([report.levels for report in reports]),
        np.concatenate([report.loss_sums for report in reports]),
        *np.concatenate([report.premium_sums for report in reports], axis=1),
        *np.concatenate([report.ratios for report in reports], axis=1),
    ]
    for cells, values in zip(columns, expected, strict=True):
        assert_cells_hold(cells, values)
