"""Command-line surface: ingest CSV portfolios, fit, compare, simulate, report.

Input schema (UTF-8 with or without the byte-order mark that spreadsheet
exports write, ``.`` decimal, no thousands separators):

    contract_id,exposure,loss_cost,x1,...,xq

for loss-cost commands, and ``contract_id,exposure,count,x1,...,xq`` for
the claim-count command.  All output files are written atomically
(temp-then-rename), numbers carry 17 significant digits, and every
artifact is a deterministic function of (input bytes, flags, seed).
Log verbosity is controlled by the ``EXPOSURE_GLM_LOG`` environment
variable (error, info or debug; default error), logged to stderr.
"""

import argparse
import contextlib
import csv
import io
import json
import logging
import mmap
import os
import shutil
import stat
import sys
import tempfile
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .balance import balance_factor, class_report, individual_gaps, portfolio_gap
from .claim_count import CountData, _check_zero_inflation, poisson_fit, zip_nonequivalence_check
from .model_core import (
    Portfolio,
    RankDeficiencyError,
    TweedieFamily,
    WeightScheme,
    _CellError,
    _covariate_name_error,
)
from .simulate import run_gap_experiment
from .solver import fit

__all__ = ["IngestError", "ingest_csv", "ingest_counts_csv", "main"]

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


def _setup_logging():
    """Log ``exposure_glm`` at the level ``EXPOSURE_GLM_LOG`` names to this call's stderr alone, not via root."""
    level = os.environ.get("EXPOSURE_GLM_LOG", "error").strip().lower()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    for old in log.handlers[:]:
        log.removeHandler(old)
    log.addHandler(handler)
    log.setLevel({"info": logging.INFO, "debug": logging.DEBUG}.get(level, logging.ERROR))
    log.propagate = False


def _atomic_write(path: Path, write):
    """Write ``path`` through ``write(fh)``, all at once or not at all.

    The content goes to a new temp file of a random name beside ``path``,
    which then replaces ``path`` in one rename, so concurrent writers of
    the same name never share a temp file and readers never see a torn
    file.  The temp file is created with mode 0o666 and the process umask
    applied, as ``open()`` would create ``path``.  On any error it is
    removed and ``path`` is left as it was.  The directory of ``path`` is
    created on the first write, so a command that fails before writing
    leaves none behind.  Line ends are written as given (``newline=""``),
    so an artifact has the same bytes on every platform.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    log.info("wrote %s", path)


_CHUNK_ROWS = 4096
# A cell holding one of these goes through ``csv.writer``; any other is
# written as it is.
_SPECIAL = (",", '"', "\r", "\n")


def _csv_cell(cell):
    """``cell`` as ``csv.writer`` writes it alone on a row, without the line end."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([cell])
    return buffer.getvalue()[:-1]


def _text_cells(column, alone):
    """Cells of a column that is not a float array, as ``csv.writer`` writes them.

    Floats carry 17 significant digits, None is empty and anything else
    is its ``str``.  A cell with a delimiter, a quote or a line break
    goes through ``csv.writer``, which quotes it as the running Python
    does, and so does an empty cell of a one-column file (``alone``).
    """
    if not set(map(type, column)) <= {str}:
        column = [format(v, ".17g") if isinstance(v, float) else "" if v is None else str(v) for v in column]
    joined = "".join(column)
    if not any(s in joined for s in _SPECIAL) and (not alone or all(column)):
        return column
    return [_csv_cell(c) if (alone and not c) or any(s in c for s in _SPECIAL) else c for c in column]


def _render_in_order(render, starts, emit, name):
    """``emit(render(start))`` for each of ``starts`` in order; process ``i % p`` renders chunk ``i``.

    Process 0 is this one; up to three workers forked on Linux (none calls BLAS), as the CPUs allow, send
    their chunks as UTF-8 through a pipe each, framed by byte length, and leave only by ``os._exit``.
    """
    p = min(len(os.sched_getaffinity(0)), 4, len(starts)) if sys.platform == "linux" else 1
    workers = [None]  # (pid, pipe) of process k at index k
    try:
        for k in range(1, p):
            import fcntl  # Linux only
            read_end, write_end = os.pipe()
            with contextlib.suppress(OSError):  # a pipe that holds whole chunks spares a hand-off per 64 KiB
                fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1 << 20)
            if (pid := os.fork()) == 0:
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as pipe:
                        for start in starts[k::p]:
                            data = render(start).encode()
                            pipe.write(len(data).to_bytes(8, "little") + data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            workers.append((pid, open(read_end, "rb")))
        for i, start in enumerate(starts):
            if i % p == 0:
                emit(render(start))
                continue
            size = int.from_bytes(workers[i % p][1].read(8), "little")
            if not size or len(data := workers[i % p][1].read(size)) < size:
                raise RuntimeError(f"the worker process rendering {name} from data row {start + 1} failed")
            emit(data.decode())
    finally:
        for _, pipe in workers[1:]:
            pipe.close()  # so that a worker still writing gets EPIPE
        for pid, _ in workers[1:]:
            os.waitpid(pid, 0)


def _write_csv(path: Path, header, columns):
    """Write equal-length ``columns`` under ``header`` as a CSV file.

    The bytes are those of ``csv.writer(lineterminator="\\n")``.  Each
    row is one ``%`` operation on a template with ``%.17g`` for a float
    array column and ``%s`` for any other.  Chunks of rows are formatted,
    by up to four processes, and written in order, so memory stays bounded.
    """
    n = len(columns[0])
    alone = len(columns) == 1
    floats = [isinstance(column, np.ndarray) and column.dtype.kind == "f" for column in columns]
    row = ",".join("%.17g" if is_float else "%s" for is_float in floats) + "\n"

    def render(start):
        rows = slice(start, start + _CHUNK_ROWS)
        cells = [column[rows].tolist() if is_float else _text_cells(column[rows], alone)
                 for column, is_float in zip(columns, floats)]
        return "".join([row % values for values in zip(*cells)])

    def write(fh):
        fh.write(",".join(_text_cells(header, alone)) + "\n")
        _render_in_order(render, range(0, n, _CHUNK_ROWS), fh.write, path.name)

    _atomic_write(path, write)


def _write_json(path: Path, payload):
    def write(fh):
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")

    _atomic_write(path, write)


def _number(text):
    """``float(text)``, or None for a cell that is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def _parse_column(cells):
    """Parse a column of strings in bulk by Python's ``float``; a cell that is not a number parses as NaN."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.array([_number(cell) for cell in cells], float)


# Records are read and parsed a few hundred at a time: fewer than the
# garbage collector's first threshold (700 new objects) are alive at once,
# so reading a large file starts no collection, and no more than one
# batch of cells is ever held as strings.
_READ_ROWS = 512


def _read_records(reader, count):
    """The next ``count`` records of ``reader`` or fewer; text that is not UTF-8 CSV is an IngestError."""
    try:
        return list(islice(reader, count))
    except UnicodeDecodeError as exc:
        raise IngestError(f"input file is not UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise IngestError(f"input file is not CSV: {exc}") from exc


def _read_header(reader, leading):
    """The header's field names; an empty file, other leading columns or a bad covariate name is an IngestError."""
    if (header := next(iter(_read_records(reader, 1)), None)) is None:
        raise IngestError("file is empty", row=1)
    names = [h.strip() for h in header]
    if names[: len(leading)] != list(leading):
        raise IngestError(f"header must start with {','.join(leading)}, got {','.join(header)}", row=1)
    if (error := _covariate_name_error(names[len(leading) :])) is not None:
        raise IngestError(error[1], row=1, column=names[len(leading) + error[0]])
    return names


def _ingest_columns(fh, leading):
    """Parsed columns of the open input CSV ``fh``, read from its first byte: ``(names, ids, columns)``.

    ``names`` are the header's field names, ``ids`` the contract ids and ``columns`` one float array per later
    field.  Blank records are skipped.  Cells are parsed, not checked: the container validates them, and a cell
    that is not a number parses as NaN.  A bad header and a record with the wrong number of fields raise
    IngestError as soon as they are read.
    """
    fh.seek(0)
    reader = csv.reader(fh)
    width = len(names := _read_header(reader, leading))
    ids, chunks = [], [[] for _ in range(width - 1)]
    lines = 1  # records read so far, header included
    while records := _read_records(reader, _READ_ROWS):
        first, lines = lines + 1, lines + len(records)
        if set(map(len, records)) - {width, 0}:
            k = next(k for k, record in enumerate(records) if len(record) not in (width, 0))
            raise IngestError(f"expected {width} fields, got {len(records[k])}", row=first + k)
        if records := [record for record in records if record]:
            cells = list(zip(*records))
            ids.extend(cells[0])
            for chunk, column in zip(chunks, cells[1:]):
                chunk.append(_parse_column(column))
    if not ids:
        raise IngestError("no data rows")
    return names, ids, [np.concatenate(chunk) for chunk in chunks]


def _cells_of(fh, indices, position):
    """``(row, text)`` of field ``position`` of each data row in ``indices`` of ``fh``, read by ``csv.reader`` alone.

    Data rows are the records after the header that are not blank, numbered from 0; ``row`` counts every CSV
    record from the header (row 1), blank ones included.  The walk stops at the last data row asked for.
    """
    fh.seek(0)
    records = ((row, record) for row, record in enumerate(csv.reader(fh), start=1) if record)
    data = enumerate(islice(records, 1, max(indices) + 2))  # past the header
    found = {i: (row, record[position]) for i, (row, record) in data if i in indices}
    return [found[i] for i in indices]


def _loadtxt_columns(fh, leading):
    """``(names, ids, columns)`` of the input ``fh`` by one ``np.loadtxt`` call, or None where it gives up.

    ``np.loadtxt`` reads rows as ``csv.reader`` and ``float`` would.  A file that cannot be mapped (an empty one)
    is given up unread; so is a file where a field may pass ``csv.field_size_limit()``, or with no row, or that
    ``np.loadtxt`` fails on.
    """
    step = (limit := csv.field_size_limit()) // 4
    try:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
            if any(view.find(b",", i, i + step) < 0 for i in range(0, len(view) - step, step)):
                return None
    except (OSError, ValueError):
        return None
    names = _read_header(csv.reader(fh), leading)
    dtype = "O" + ",f8" * (len(names) - 1)  # the id, then one float per field
    try:
        with warnings.catch_warnings():
            # no data rows warns; such a file is given up
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except ValueError:
        return None
    if not (ids := table["f0"].tolist()) or max(map(len, ids)) > limit:
        return None
    return names, ids, [table[f"f{k}"] for k in range(1, len(names))]


def _ingest(path, value_column, container):
    """Load an input CSV as ``container``, a ``Portfolio`` class, which validates it.

    The path is opened once.  An input that is not a regular file (a pipe, say) is first copied to an unnamed
    temporary file, so that every handle can be mapped and read again.  The handle goes to ``_loadtxt_columns``
    and, where it gives up, to ``_ingest_columns``.  The container is built once; if it rejects a cell,
    ``_cells_of`` finds the cell's row.
    """
    leading = ("contract_id", "exposure", value_column)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read input file {path}: {exc.strerror}") from exc
    with fh, contextlib.ExitStack() as stack:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            copy = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(fh.buffer, copy)
            copy.seek(0)
            fh = stack.enter_context(io.TextIOWrapper(copy, newline="", encoding="utf-8-sig"))
        names, ids, (exposures, values, *covariates) = _loadtxt_columns(fh, leading) or _ingest_columns(fh, leading)
        covariates = np.array(covariates).T if covariates else None  # column-major, as the design
        try:
            return container.from_arrays(exposures, values, covariates, contract_ids=ids, covariate_names=names[3:])
        except _CellError as exc:
            i, position = exc.index, exc.position
            (row, text), (first_row, _) = _cells_of(fh, (i, ids.index(ids[i]) if position == 0 else i), position)
            if position == 0:
                message = f"duplicate contract id {ids[i]!r}, first on row {first_row}"
            else:
                message = str(exc) if _number(text) is not None else f"not a number: {text!r}"
            raise IngestError(message, row=row, column=names[position]) from exc
        except RankDeficiencyError as exc:
            design_names = ["intercept"] + names[3:]
            involved = [design_names[j] for j in exc.column_indices if j < len(design_names)]
            raise IngestError(f"design matrix is rank deficient; columns involved: {', '.join(involved)}") from exc
        except ValueError as exc:
            raise IngestError(str(exc)) from exc


def ingest_csv(path) -> Portfolio:
    """Load and validate a loss-cost portfolio CSV."""
    return _ingest(path, "loss_cost", Portfolio)


def ingest_counts_csv(path) -> CountData:
    """Load and validate a claim-count CSV."""
    return _ingest(path, "count", CountData)


_SCHEMES = {
    "offset": (WeightScheme.OFFSET,),
    "ratio": (WeightScheme.RATIO,),
    "both": (WeightScheme.OFFSET, WeightScheme.RATIO),
}


def _fit_schemes(args, schemes):
    """Check the flags, then ingest ``args.input`` and fit ``schemes``: ``(portfolio, results)``."""
    family = TweedieFamily(p=args.p, phi=args.phi)
    portfolio = ingest_csv(args.input)
    results = {}
    for scheme in schemes:
        results[scheme] = fit(portfolio, scheme, family)
        log.info(
            "%s fit: converged=%s iterations=%d", scheme.value,
            results[scheme].converged, results[scheme].iterations,
        )
    return portfolio, results


def _write_fit_json(out, args, portfolio, results):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "p": args.p,
        "phi": args.phi,
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


def cmd_fit(args):
    portfolio, results = _fit_schemes(args, _SCHEMES[args.scheme])
    _write_fit_json(args.out, args, portfolio, results)


def cmd_compare(args):
    portfolio, results = _fit_schemes(args, _SCHEMES["both"])
    result_offset = results[WeightScheme.OFFSET]
    result_ratio = results[WeightScheme.RATIO]
    _write_fit_json(args.out, args, portfolio, results)

    beta_offset, beta_ratio = result_offset.beta_hat, result_ratio.beta_hat
    coeff_ratios = np.full_like(beta_offset, np.nan)
    np.divide(beta_offset, beta_ratio, out=coeff_ratios, where=beta_ratio != 0.0)
    _write_csv(
        args.out / "coeff_ratios.csv",
        ["covariate", "beta_offset", "beta_ratio", "ratio"],
        [["intercept", *portfolio.covariate_names], beta_offset, beta_ratio,
         np.where(np.isnan(coeff_ratios), None, coeff_ratios)],
    )

    zeta_offset, gap_offset = individual_gaps(portfolio, result_offset)
    zeta_ratio, gap_ratio = individual_gaps(portfolio, result_ratio)
    _write_csv(
        args.out / "gaps.csv",
        ["contract_id", "exposure", "z", "zeta_offset", "zeta_ratio", "gap_offset", "gap_ratio"],
        [portfolio.contract_ids, portfolio.exposures, portfolio.normalized,
         zeta_offset, zeta_ratio, gap_offset, gap_ratio],
    )
    report = class_report(portfolio, (result_offset, result_ratio))
    _write_csv(
        args.out / "class_balance.csv",
        ["factor", "level", "loss_sum", "premium_sum_offset", "premium_sum_ratio", "ratio_offset", "ratio_ratio"],
        [
            report.factors,
            report.levels,
            report.loss_sums,
            *report.premium_sums,
            # an undefined ratio (a level without losses) is an empty cell
            *np.where(np.isnan(report.ratios), None, report.ratios),
        ],
    )
    _write_csv(
        args.out / "premium_ratios.csv",
        ["quantile", "ratio"],
        [_QUANTILES, np.quantile(zeta_offset / zeta_ratio, _QUANTILES)],
    )
    _write_json(
        args.out / "balance.json",
        {
            "schema_version": SCHEMA_VERSION,
            "balance_factor_offset": balance_factor(portfolio, result_offset),
            "balance_factor_ratio": balance_factor(portfolio, result_ratio),
            "portfolio_gap_offset": portfolio_gap(gap_offset),
            "portfolio_gap_ratio": portfolio_gap(gap_ratio),
        },
    )


def cmd_simulate(args):
    portfolio, fit_offset, fit_ratio = run_gap_experiment(args.n, args.scenario, args.heterogeneous, args.p, args.seed)
    gap_offset, gap_ratio = (individual_gaps(portfolio, result)[1] for result in (fit_offset, fit_ratio))
    _write_csv(
        args.out / "gap_experiment.csv",
        ["rank", "exposure", "gap_offset", "gap_ratio"],
        [np.arange(1, portfolio.n + 1), portfolio.exposures, gap_offset, gap_ratio],
    )
    _write_json(
        args.out / "gap_totals.json",
        {
            "schema_version": SCHEMA_VERSION,
            "n": args.n,
            "scenario": args.scenario,
            "heterogeneous": args.heterogeneous,
            "p": args.p,
            "seed": args.seed,
            "total_gap_offset": portfolio_gap(gap_offset),
            "total_gap_ratio": portfolio_gap(gap_ratio),
            "balance_factor_offset": balance_factor(portfolio, fit_offset),
            "balance_factor_ratio": balance_factor(portfolio, fit_ratio),
            "iterations_offset": fit_offset.iterations,
            "iterations_ratio": fit_ratio.iterations,
        },
    )


def cmd_counts(args):
    _check_zero_inflation(args.zero_inflation)
    data = ingest_counts_csv(args.input)
    # Both modes of poisson_fit are one computation: one fit serves both.
    beta = [float(b) for b in poisson_fit(data, "offset")]
    evidence = zip_nonequivalence_check(data, zero_inflation=args.zero_inflation)
    _write_json(
        args.out / "counts.json",
        {
            "schema_version": SCHEMA_VERSION,
            "poisson_beta_offset": beta,
            "poisson_beta_ratio": beta,
            "poisson_max_coefficient_diff": 0.0,
            "zip_zero_inflation": args.zero_inflation,
            "zip_equivalent": evidence.equivalent,
            "zip_spread": evidence.spread,
            "zip_differences": [float(d) for d in evidence.differences],
        },
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="exposure-glm",
        description="Fit and compare offset vs. ratio exposure treatments for Tweedie loss-cost GLMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fit_cmd = sub.add_parser("fit", help="fit one or both schemes and write fit.json")
    fit_cmd.set_defaults(run=cmd_fit)
    # ``balance`` is another name of ``compare``, kept while the benchmark's ``balance_levels`` runs it
    compare = sub.add_parser(
        "compare", aliases=["balance"], help="fit both schemes and write comparison and balance tables"
    )
    compare.set_defaults(run=cmd_compare)
    sim = sub.add_parser("simulate", help="run a seeded gap experiment")
    sim.set_defaults(run=cmd_simulate)
    counts = sub.add_parser("counts", help="Poisson equivalence and zero-inflation evidence")
    counts.set_defaults(run=cmd_counts)

    for cmd, input_help in ((fit_cmd, "portfolio CSV"), (compare, "portfolio CSV"), (counts, "claim-count CSV")):
        cmd.add_argument("--input", required=True, type=Path, help=input_help)
    for cmd in (fit_cmd, compare, sim, counts):
        cmd.add_argument("--out", required=True, type=Path, help="output directory")
    for cmd in (fit_cmd, compare, sim):
        cmd.add_argument("--p", type=float, default=1.42, help="Tweedie variance power in (1, 2)")
    for cmd in (fit_cmd, compare):
        cmd.add_argument("--phi", type=float, default=1.0, help="dispersion (scales covariances only)")
    fit_cmd.add_argument("--scheme", choices=tuple(_SCHEMES), default="both", help="which scheme(s) to fit")
    sim.add_argument("--n", type=int, default=100, help="number of contracts")
    sim.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    sim.add_argument(
        "--scenario", choices=("increasing", "decreasing"), default="increasing",
        help="how loss costs move with exposure rank",
    )
    sim.add_argument("--heterogeneous", action="store_true", help="include two binary risk factors")
    counts.add_argument(
        "--zero-inflation", type=float, default=0.3,
        help="zero-inflation mass used for the non-equivalence probe",
    )
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    # every domain error of the package is a ValueError or a RuntimeError; an
    # unreadable or unwritable path and a book too large for memory fail the same way
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        json.dump(
            {"schema_version": SCHEMA_VERSION, "error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
