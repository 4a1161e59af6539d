"""Command-line surface: ingest CSV portfolios, fit, compare, simulate, report.

Input schema (UTF-8, ``.`` decimal, no thousands separators):

    contract_id,exposure,loss_cost,x1,...,xq

for loss-cost commands, and ``contract_id,exposure,count,x1,...,xq`` for
the claim-count command.  All output files are written atomically
(temp-then-rename), numbers carry 17 significant digits, and every
artifact is a deterministic function of (input bytes, flags, seed).
Log verbosity is controlled by the ``EXPOSURE_GLM_LOG`` environment
variable (error, info or debug; default error), logged to stderr.
"""

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .balance import balance_factor, class_report, individual_gaps, portfolio_gap
from .claim_count import CountData, poisson_fit, zip_nonequivalence_check
from .model_core import (
    Portfolio,
    RankDeficiencyError,
    SingularInformationError,
    TweedieFamily,
    WeightScheme,
    _first_duplicate,
)
from .simulate import Scenario, ScenarioConfig, run_gap_experiment
from .solver import AllZeroLossError, FitConfig, fit

__all__ = ["RunConfig", "IngestError", "ingest_csv", "ingest_counts_csv", "main"]

SCHEMA_VERSION = 1
_QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)

log = logging.getLogger("exposure_glm")


class IngestError(ValueError):
    """Malformed input file; carries the offending row / column when known."""

    def __init__(self, message, row=None, column=None):
        location = ""
        if row is not None:
            location += f"row {row}"
        if column is not None:
            location += (", " if location else "") + f"column {column!r}"
        super().__init__(f"{location}: {message}" if location else message)
        self.row = row
        self.column = column


@dataclass
class RunConfig:
    """Parsed command-line invocation."""

    command: str
    input: Path | None = None
    out: Path = Path(".")
    p: float = 1.42
    phi: float = 1.0
    scheme: str = "both"
    tolerance: float = 1e-8
    max_iterations: int = 100
    seed: int = 0
    scenario: str = "increasing"
    heterogeneous: bool = False
    n: int = 100
    zero_inflation: float = 0.3


def _setup_logging():
    level = os.environ.get("EXPOSURE_GLM_LOG", "error").strip().lower()
    mapping = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=mapping.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _format_column(column):
    """Cells of one output column: floats with 17 significant digits, None empty."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return [format(v, ".17g") for v in column.tolist()]
    return [_fmt(v) for v in column]


def _atomic_write(path: Path, write, newline=None):
    """Write ``path`` through ``write(fh)``, all at once or not at all.

    The content goes to a new temp file of a random name beside ``path``,
    which then replaces ``path`` in one rename, so concurrent writers of
    the same name never share a temp file and readers never see a torn
    file.  The temp file is created with mode 0o666 and the process umask
    applied, as ``open()`` would create ``path``.  On any error it is
    removed and ``path`` is left as it was.
    """
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    log.info("wrote %s", path)


_CHUNK_ROWS = 32768


def _write_csv(path: Path, header, columns):
    """Write equal-length ``columns`` under ``header`` as a CSV file.

    Rows are formatted and written in chunks, so memory stays bounded
    whatever the number of rows.
    """
    n = len(columns[0])

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n, _CHUNK_ROWS):
            writer.writerows(
                zip(*(_format_column(column[start : start + _CHUNK_ROWS]) for column in columns))
            )

    _atomic_write(path, write, newline="")


def _write_json(path: Path, payload):
    def write(fh):
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    _atomic_write(path, write)


# Records are transposed a few hundred at a time: fewer than the garbage
# collector's first threshold (700 new objects) are alive at once, so
# reading a large file starts no collection.
_READ_ROWS = 512


def _read_columns(path, leading_columns):
    """Covariate names, data-row line numbers and the data as string columns.

    Line numbers count CSV records from the header (row 1) and include
    blank records, which are skipped.  ``row_numbers`` is None when no
    record was skipped, so data row ``i`` is line ``i + 2``.
    """
    from itertools import islice

    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError("file is empty", row=1)
        if [h.strip() for h in header[: len(leading_columns)]] != list(leading_columns):
            raise IngestError(
                f"header must start with {','.join(leading_columns)}, got {','.join(header)}",
                row=1,
            )
        width = len(header)
        columns = [[] for _ in range(width)]
        blank_lines = []
        lines = 1  # records read so far, header included
        while records := list(islice(reader, _READ_ROWS)):
            first, lines = lines + 1, lines + len(records)
            if set(map(len, records)) - {width, 0}:
                k = next(k for k, record in enumerate(records) if len(record) not in (width, 0))
                raise IngestError(f"expected {width} fields, got {len(records[k])}", row=first + k)
            if not all(records):
                blank_lines += [first + k for k, record in enumerate(records) if not record]
                records = [record for record in records if record]
            for column, cells in zip(columns, zip(*records)):
                column.extend(cells)
    if not columns[0]:
        raise IngestError("no data rows")
    row_numbers = None
    if blank_lines:
        blank = set(blank_lines)
        row_numbers = [line for line in range(2, lines + 1) if line not in blank]
    covariate_names = [h.strip() for h in header[len(leading_columns) :]]
    return covariate_names, row_numbers, columns


def _parse_column(cells, valid=None, describe=None):
    """Parse a column of strings in bulk; return ``(values, error)``.

    ``error`` is None or ``(index, message)`` for the first cell that is
    not a number, not finite, or fails ``valid`` (a vectorised predicate;
    ``describe(value, cell)`` words its failure).  Values come from
    Python's ``float`` and so match per-cell parsing exactly.
    """
    n = len(cells)
    try:
        values = np.fromiter(map(float, cells), float, n)
        stop = n
    except ValueError:
        for stop, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                break
        values = np.fromiter(map(float, cells[:stop]), float, stop)
    finite = np.isfinite(values)
    ok = finite if valid is None else finite & valid(values)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        message = describe(values[i], cells[i]) if finite[i] else f"not finite: {cells[i]!r}"
        return values, (i, message)
    if stop < n:
        return values, (stop, f"not a number: {cells[stop]!r}")
    return values, None


_CHECKS = {
    "exposure": (
        lambda t: (t > 0.0) & (t <= 1.0),
        lambda t, cell: f"exposure must lie in (0, 1], got {float(t)}",
    ),
    "loss_cost": (
        lambda y: y >= 0.0,
        lambda y, cell: f"loss cost must be >= 0, got {float(y)}",
    ),
    "count": (
        lambda y: (y >= 0.0) & (y == np.floor(y)),
        lambda y, cell: f"count must be a non-negative integer, got {cell!r}",
    ),
}


def _ingest_columns(path, leading_columns):
    """Validated numeric columns of an input CSV: ``(ids, names, t, y, covariates)``.

    Raises IngestError at the first bad cell in row-major order: a
    repeated contract id (at its second occurrence), a cell that is not
    a finite number, or a value out of range for its column.
    """
    covariate_names, row_numbers, columns = _read_columns(path, leading_columns)
    names = [*leading_columns, *covariate_names]
    ids = columns[0]
    row_of = (lambda i: i + 2) if row_numbers is None else row_numbers.__getitem__
    errors = []
    repeat = _first_duplicate(ids)
    if repeat is not None:
        first = row_of(ids.index(ids[repeat]))
        errors.append((repeat, 0, f"duplicate contract id {ids[repeat]!r}, first on row {first}"))
    checks = [_CHECKS[name] for name in leading_columns[1:]] + [()] * len(covariate_names)
    parsed = []
    for position, (cells, column_checks) in enumerate(zip(columns[1:], checks), start=1):
        values, error = _parse_column(cells, *column_checks)
        parsed.append(values)
        if error is not None:
            errors.append((error[0], position, error[1]))
    if errors:
        i, position, message = min(errors)
        raise IngestError(message, row=row_of(i), column=names[position])
    covariates = np.column_stack(parsed[2:]) if covariate_names else None
    return ids, covariate_names, parsed[0], parsed[1], covariates


def ingest_csv(path) -> Portfolio:
    """Load and validate a loss-cost portfolio CSV."""
    ids, covariate_names, exposures, losses, covariates = _ingest_columns(
        path, ("contract_id", "exposure", "loss_cost")
    )
    try:
        return Portfolio.from_arrays(
            exposures, losses, covariates, contract_ids=ids, covariate_names=covariate_names
        )
    except RankDeficiencyError as exc:
        names = ["intercept"] + covariate_names
        involved = [names[i] for i in exc.column_indices if i < len(names)]
        raise IngestError(
            f"design matrix is rank deficient; columns involved: {', '.join(involved)}"
        ) from exc
    except ValueError as exc:
        raise IngestError(str(exc)) from exc


def ingest_counts_csv(path) -> CountData:
    """Load and validate a claim-count CSV."""
    _, _, exposures, counts, covariates = _ingest_columns(path, ("contract_id", "exposure", "count"))
    try:
        return CountData.from_arrays(exposures, counts, covariates)
    except RankDeficiencyError as exc:
        raise IngestError(f"design matrix is rank deficient: {exc}") from exc
    except ValueError as exc:
        raise IngestError(str(exc)) from exc


def write_portfolio_csv(portfolio: Portfolio, path):
    """Serialize a portfolio back to the input schema (round-trippable)."""
    header = ["contract_id", "exposure", "loss_cost", *portfolio.covariate_names]
    columns = [portfolio.contract_ids, portfolio.exposures, portfolio.loss_costs]
    columns += [portfolio.design[:, j] for j in range(1, portfolio.q + 1)]
    _write_csv(Path(path), header, columns)


_SCHEMES = {
    "offset": (WeightScheme.OFFSET,),
    "ratio": (WeightScheme.RATIO,),
    "both": (WeightScheme.OFFSET, WeightScheme.RATIO),
}


def _fit_schemes(portfolio, config, schemes):
    """Fit ``schemes`` in order under the invocation's family and stopping rule."""
    family = TweedieFamily(p=config.p, phi=config.phi)
    fit_config = FitConfig(tolerance=config.tolerance, max_iterations=config.max_iterations)
    results = {}
    for scheme in schemes:
        results[scheme] = fit(portfolio, scheme, family, fit_config)
        log.info(
            "%s fit: converged=%s iterations=%d", scheme.value,
            results[scheme].converged, results[scheme].iterations,
        )
    return results


def _write_fit_json(out, config, portfolio, results):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "p": config.p,
        "phi": config.phi,
        "n": portfolio.n,
        "covariates": list(portfolio.covariate_names),
        "schemes": {
            scheme.value: {
                "beta": [float(b) for b in result.beta_hat],
                "covariance": [[float(v) for v in row] for row in result.covariance],
                "iterations": result.iterations,
                "converged": result.converged,
                "gradient_norm": result.gradient_norm,
            }
            for scheme, result in results.items()
        },
    }
    _write_json(out / "fit.json", payload)


def cmd_fit(config: RunConfig):
    portfolio = ingest_csv(config.input)
    results = _fit_schemes(portfolio, config, _SCHEMES[config.scheme])
    _write_fit_json(config.out, config, portfolio, results)


def _class_balance_rows(portfolio, result_offset, result_ratio):
    rows = []
    factor_indices = range(1, portfolio.q + 1) if portfolio.q else [0]
    for j in factor_indices:
        offset_rows = class_report(portfolio, result_offset, j)
        ratio_rows = {row.level: row for row in class_report(portfolio, result_ratio, j)}
        for row in offset_rows:
            partner = ratio_rows[row.level]
            rows.append(
                [
                    row.factor_name,
                    row.level,
                    row.loss_sum,
                    row.premium_sum,
                    partner.premium_sum,
                    row.ratio,
                    partner.ratio,
                ]
            )
    return rows


def _write_rows(path, header, rows):
    _write_csv(path, header, [list(column) for column in zip(*rows)])


def _write_balance_tables(out, portfolio, result_offset, result_ratio):
    """Write ``gaps.csv`` and ``class_balance.csv``; return both fits' gaps."""
    gaps_offset = individual_gaps(portfolio, result_offset)
    gaps_ratio = individual_gaps(portfolio, result_ratio)
    _write_csv(
        out / "gaps.csv",
        ["contract_id", "exposure", "z", "zeta_offset", "zeta_ratio", "gap_offset", "gap_ratio"],
        [
            gaps_offset.contract_ids,
            gaps_offset.exposure,
            gaps_offset.observed_z,
            gaps_offset.fitted_zeta,
            gaps_ratio.fitted_zeta,
            gaps_offset.gap,
            gaps_ratio.gap,
        ],
    )
    _write_rows(
        out / "class_balance.csv",
        ["factor", "level", "loss_sum", "premium_sum_offset", "premium_sum_ratio", "ratio_offset", "ratio_ratio"],
        _class_balance_rows(portfolio, result_offset, result_ratio),
    )
    return gaps_offset, gaps_ratio


def cmd_compare(config: RunConfig):
    portfolio = ingest_csv(config.input)
    results = _fit_schemes(portfolio, config, _SCHEMES["both"])
    result_offset = results[WeightScheme.OFFSET]
    result_ratio = results[WeightScheme.RATIO]
    _write_fit_json(config.out, config, portfolio, results)

    names = ["intercept", *portfolio.covariate_names]
    coeff_rows = []
    for name, bo, br in zip(names, result_offset.beta_hat, result_ratio.beta_hat):
        ratio = float(bo) / float(br) if br != 0.0 else math.nan
        coeff_rows.append([name, float(bo), float(br), ratio])
    _write_rows(config.out / "coeff_ratios.csv", ["covariate", "beta_offset", "beta_ratio", "ratio"], coeff_rows)

    zeta_offset = np.exp(portfolio.design @ result_offset.beta_hat)
    zeta_ratio = np.exp(portfolio.design @ result_ratio.beta_hat)
    premium_ratios = zeta_offset / zeta_ratio
    quantile_rows = [
        [q, float(np.quantile(premium_ratios, q))] for q in _QUANTILES
    ]
    _write_rows(config.out / "premium_ratios.csv", ["quantile", "ratio"], quantile_rows)

    _write_balance_tables(config.out, portfolio, result_offset, result_ratio)


def cmd_balance(config: RunConfig):
    portfolio = ingest_csv(config.input)
    results = _fit_schemes(portfolio, config, _SCHEMES["both"])
    result_offset = results[WeightScheme.OFFSET]
    result_ratio = results[WeightScheme.RATIO]
    gaps_offset, gaps_ratio = _write_balance_tables(config.out, portfolio, result_offset, result_ratio)
    _write_json(
        config.out / "balance.json",
        {
            "schema_version": SCHEMA_VERSION,
            "balance_factor_offset": balance_factor(portfolio, result_offset),
            "balance_factor_ratio": balance_factor(portfolio, result_ratio),
            "portfolio_gap_offset": portfolio_gap(gaps_offset),
            "portfolio_gap_ratio": portfolio_gap(gaps_ratio),
        },
    )


def cmd_simulate(config: RunConfig):
    scenario_config = ScenarioConfig(
        n=config.n,
        scenario=Scenario(config.scenario),
        heterogeneous=config.heterogeneous,
        p=config.p,
        seed=config.seed,
    )
    experiment = run_gap_experiment(scenario_config)
    columns = experiment.columns()
    _write_csv(config.out / "gap_experiment.csv", list(columns), list(columns.values()))
    portfolio = experiment.synthetic.portfolio
    _write_json(
        config.out / "gap_totals.json",
        {
            "schema_version": SCHEMA_VERSION,
            "n": config.n,
            "scenario": scenario_config.scenario.value,
            "heterogeneous": config.heterogeneous,
            "p": config.p,
            "seed": config.seed,
            "total_gap_offset": experiment.total_offset,
            "total_gap_ratio": experiment.total_ratio,
            "balance_factor_offset": balance_factor(portfolio, experiment.fit_offset),
            "balance_factor_ratio": balance_factor(portfolio, experiment.fit_ratio),
            "iterations_offset": experiment.fit_offset.iterations,
            "iterations_ratio": experiment.fit_ratio.iterations,
        },
    )


def cmd_counts(config: RunConfig):
    data = ingest_counts_csv(config.input)
    beta_offset = poisson_fit(data, "offset", tolerance=config.tolerance)
    beta_ratio = poisson_fit(data, "ratio", tolerance=config.tolerance)
    evidence = zip_nonequivalence_check(data, zero_inflation=config.zero_inflation)
    _write_json(
        config.out / "counts.json",
        {
            "schema_version": SCHEMA_VERSION,
            "poisson_beta_offset": [float(b) for b in beta_offset],
            "poisson_beta_ratio": [float(b) for b in beta_ratio],
            "poisson_max_coefficient_diff": float(np.max(np.abs(beta_offset - beta_ratio))),
            "zip_zero_inflation": config.zero_inflation,
            "zip_equivalent": evidence.equivalent,
            "zip_spread": evidence.spread,
            "zip_differences": [float(d) for d in evidence.differences],
        },
    )


_COMMANDS = {
    "fit": cmd_fit,
    "compare": cmd_compare,
    "balance": cmd_balance,
    "simulate": cmd_simulate,
    "counts": cmd_counts,
}


def _add_model_flags(parser):
    parser.add_argument("--p", type=float, default=1.42, help="Tweedie variance power in (1, 2)")
    parser.add_argument("--phi", type=float, default=1.0, help="dispersion (scales covariances only)")
    parser.add_argument("--tol", type=float, default=1e-8, help="sup-norm gradient tolerance")
    parser.add_argument("--max-iter", type=int, default=100, help="IRLS iteration budget")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exposure-glm",
        description="Fit and compare offset vs. ratio exposure treatments for Tweedie loss-cost GLMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fit", "fit one or both schemes and write fit.json"),
        ("compare", "fit both schemes and write comparison tables"),
        ("balance", "fit both schemes and write balance diagnostics"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, type=Path, help="portfolio CSV")
        cmd.add_argument("--out", required=True, type=Path, help="output directory")
        cmd.add_argument(
            "--scheme", choices=("offset", "ratio", "both"), default="both",
            help="which scheme(s) to fit (fit command only; compare/balance always fit both)",
        )
        _add_model_flags(cmd)

    sim = sub.add_parser("simulate", help="run a seeded gap experiment")
    sim.add_argument("--out", required=True, type=Path, help="output directory")
    sim.add_argument("--n", type=int, default=100, help="number of contracts")
    sim.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    sim.add_argument(
        "--scenario", choices=("increasing", "decreasing"), default="increasing",
        help="how loss costs move with exposure rank",
    )
    sim.add_argument("--heterogeneous", action="store_true", help="include two binary risk factors")
    sim.add_argument("--p", type=float, default=1.42, help="Tweedie variance power in (1, 2)")

    counts = sub.add_parser("counts", help="Poisson equivalence and zero-inflation evidence")
    counts.add_argument("--input", required=True, type=Path, help="claim-count CSV")
    counts.add_argument("--out", required=True, type=Path, help="output directory")
    counts.add_argument("--tol", type=float, default=1e-10, help="score tolerance")
    counts.add_argument(
        "--zero-inflation", type=float, default=0.3,
        help="zero-inflation mass used for the non-equivalence probe",
    )
    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig(command=args.command)
    for attr, name in (
        ("input", "input"),
        ("out", "out"),
        ("p", "p"),
        ("phi", "phi"),
        ("scheme", "scheme"),
        ("tolerance", "tol"),
        ("max_iterations", "max_iter"),
        ("seed", "seed"),
        ("scenario", "scenario"),
        ("heterogeneous", "heterogeneous"),
        ("n", "n"),
        ("zero_inflation", "zero_inflation"),
    ):
        if hasattr(args, name):
            setattr(config, attr, getattr(args, name))
    if not (1.0 < config.p < 2.0):
        raise ValueError(f"--p must lie strictly between 1 and 2, got {config.p}")
    return config


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        config.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[config.command](config)
    except (
        IngestError,
        RankDeficiencyError,
        AllZeroLossError,
        SingularInformationError,
        ValueError,
        RuntimeError,
    ) as exc:
        json.dump(
            {"schema_version": SCHEMA_VERSION, "error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
