"""Command-line surface: ingest CSV portfolios, fit, compare, simulate, report.

Input schema (UTF-8 with or without the byte-order mark that spreadsheet
exports write; a number is what ``np.loadtxt``, the one parser of cells,
reads as a float64: ASCII digits, ``.`` decimal, no digit groups):

    contract_id,exposure,loss_cost,x1,...,xq

for loss-cost commands, and ``contract_id,exposure,count,x1,...,xq`` for
the claim-count command.  A bad file is reported at its first error in
file order, by row and column.  All output files are written atomically
(temp-then-rename), a CSV column is a float array (17 significant digits,
NaN the empty cell) or a sequence of ``str``, and every artifact is a
deterministic function of (input bytes, flags, seed).
Log verbosity is controlled by the ``EXPOSURE_GLM_LOG`` environment
variable (error, info or debug; default error), logged to stderr.
"""

import argparse
import contextlib
import csv
import functools
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
from operator import itemgetter
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
from .simulate import SCENARIOS, run_gap_experiment
from .solver import fit

__all__ = ["IngestError", "ingest_csv", "ingest_counts_csv", "main"]

SCHEMA_VERSION = 1
_QUANTILES = np.array([0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0])

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
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    log.info("wrote %s", path)


_CHUNK_ROWS = 4096
# A cell holding one of these is quoted; any other is written as it is.
_SPECIAL = (",", '"', "\r", "\n")


def _text_cells(column):
    """Cells of a column of ``str`` (any other cell is a TypeError), quoted where a CSV reader needs it.

    A cell with a delimiter, a quote or a line break goes between quotes
    with each inner quote doubled, as ``csv.writer`` with a ``"\\r\\n"``
    line end writes it on CPython 3.10 to 3.13, whatever Python runs this.
    """
    joined = "".join(column)
    if not any(s in joined for s in _SPECIAL):
        return column
    return ['"' + c.replace('"', '""') + '"' if any(s in c for s in _SPECIAL) else c for c in column]


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
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
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


# A fixed-notation cell is first a row of 11 native words that holds its 17 significant digits D twice,
#     ",-0." | "000" D[0] | D[1:5] | D[5:9] | D[9:13] | D[13:17] | ".\0\0\0" | D[1:5] | D[5:9] | D[9:13] | D[13:17]
# then a keep mask chosen by (decimal exponent e, place of the last non-zero digit, sign) zeroes every byte that
# the cell does not print: "-0.", the last -e - 1 zeros of "000" and D for e < 0, else D[:e + 1] of the first copy,
# then "." and the rest of the second.  The zeros go in one pass, and the cells are split at the commas.
_ROW_WORDS = 11


@functools.cache
def _digit_tables():
    """The tables of ``_fixed_cells``, built on its first call, not at import.

    The ASCII word of each 4-digit group, the place (0 to 3, or -99 for 0000) of its last non-zero digit, the keep
    mask of each (e, last place, sign), the floats at which e steps, and the exact floats ``10**k``, k < 21, each
    with its Veltkamp halves.
    """
    chars = (np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    nonzero = chars != 48
    last = np.where(nonzero.any(axis=1), 3 - nonzero[:, ::-1].argmax(axis=1), -99).astype(np.int8)
    e, last_digit, negative, at = np.ix_(np.arange(-4, 17), np.arange(17), np.arange(2), np.arange(4 * _ROW_WORDS))
    first, second = at - 7, at - 27  # D[first] and D[second] are at byte ``at`` of either copy
    keep = (at == 0) | (at == 1) & (negative == 1) | np.where(
        e < 0,
        (at == 2) | (at == 3) | (8 + e <= at) & (at <= 6) | (0 <= first) & (first <= last_digit),
        (0 <= first) & (first <= e) | (at == 24) & (last_digit > e) | (e < second) & (second <= last_digit),
    )
    masks = np.where(keep, 255, 0).astype(np.uint8).reshape(-1, 4 * _ROW_WORDS).view(np.uint32)
    steps = np.array([float(f"1e{k}") for k in range(-3, 17)])  # the float nearest each power of ten
    scale = np.array([float(10**k) for k in range(21)])
    return chars.view(np.uint32).ravel(), last, masks, steps, np.array([scale, *_halves(scale)])


def _halves(x):
    """Veltkamp's split of ``x`` into a high half of 26 significant bits and the exact rest."""
    c = 134217729.0 * x
    high = c - (c - x)
    return high, x - high


def _fixed_cells(x, negative):
    """``'%.17g' % v`` for each ``v`` of ``x``, negated where ``negative``; each ``x`` is 0 or in [1e-4, 1e17).

    That range is where ``%.17g`` writes no exponent.  The digits are ``M``, the half-even rounding of
    ``x * 10**(16 - e)`` for the decimal exponent e, found exactly by a search of the floats ``1e-3``, ...,
    ``1e16`` (each of which is at or above its power of ten, with no float between).  ``p + err`` is that
    product exactly (Dekker), and ``p``, a float of at least ``2**53``, is an integer, so ``M = p + rint(err)``.
    ``M`` never rounds up to ``10**17``: the float below each power of ten is more than half a unit of the 17th
    digit below it.
    """
    words, last_of, masks, steps, scales = _digit_tables()
    e = np.where(x > 0, np.searchsorted(steps, x, side="right") - 4, 0)  # 0 prints as "0" with e = 0
    s, s_high, s_low = scales.take(16 - e, axis=1)
    x_high, x_low = _halves(x)
    p = x * s
    err = ((x_high * s_high - p) + x_high * s_low + x_low * s_high) + x_low * s_low
    high = np.floor(p / 1e8)  # M = high * 10**8 + low, each part an exact float
    low = p - high * 1e8 + np.rint(err)
    carry = np.floor(low / 1e8)
    high += carry
    low -= carry * 1e8
    lead = np.floor(high / 1e8)
    high -= lead * 1e8
    high_4, low_4 = np.floor(high / 1e4), np.floor(low / 1e4)
    groups = np.array([lead, high_4, high - high_4 * 1e4, low_4, low - low_4 * 1e4]).astype(np.intp)
    last = np.maximum((last_of.take(groups) + np.arange(-3, 17, 4, dtype=np.int8)[:, None]).max(axis=0), 0)
    digits = words.take(groups.T)
    rows = np.empty((len(x), _ROW_WORDS), np.uint32)
    rows[:, 0], rows[:, 6] = np.frombuffer(b",-0..\0\0\0", np.uint32)
    rows[:, 1:6] = digits
    rows[:, 7:] = digits[:, 1:]
    rows &= masks.take(((e + 4) * 17 + last) * 2 + negative, axis=0)
    return rows.tobytes().translate(None, b"\0").decode()[1:].split(",")


def _float_cells(column):
    """Cells of a float array column at ``%.17g`` as float64.

    0 and every magnitude in [1e-4, 1e17) are rendered by one ``_fixed_cells`` pass, every other cell by its own
    ``%``.  NaN, the undefined value, is the empty cell.
    """
    values = column.astype(np.float64, copy=False)
    size = np.abs(values)
    fixed = (1e-4 <= size) & (size < 1e17) | (size == 0)
    cells = _fixed_cells(np.where(fixed, size, 0.0), np.signbit(values))
    rest = np.flatnonzero(~fixed)
    for i, v in zip(rest.tolist(), values[rest].tolist()):
        cells[i] = "%.17g" % v if v == v else ""
    return cells


def _write_csv(path: Path, header, columns):
    """Write two or more equal-length ``columns`` under ``header`` as a CSV file; fewer are a ValueError.

    A column is a float array (``_float_cells``) or a sequence of ``str`` (``_text_cells``, which also quotes the
    header).  Lines end in ``\\n``.  Chunks of rows are formatted, by up to four processes, and written in order,
    so memory stays bounded; a chunk is one list of cells and delimiters, filled column by column, joined once.
    """
    if len(columns) < 2:  # refused before any file exists: a row of one empty cell would be a blank line
        raise ValueError(f"a CSV table needs two or more columns, got {len(columns)}")
    n, width = len(columns[0]), len(columns)
    renderers = [_float_cells if isinstance(column, np.ndarray) else _text_cells for column in columns]

    def render(start):
        rows = slice(start, start + _CHUNK_ROWS)
        flat = ([","] * (2 * width - 1) + ["\n"]) * len(range(n)[rows])  # cell, delimiter, ..., cell, line end
        for j, (column, cells) in enumerate(zip(columns, renderers)):
            flat[2 * j :: 2 * width] = cells(column[rows])
        return "".join(flat)

    def write(fh):
        fh.write(",".join(_text_cells(header)) + "\n")
        _render_in_order(render, range(0, n, _CHUNK_ROWS), fh.write, path.name)

    _atomic_write(path, write)


def _write_json(path: Path, payload):
    _atomic_write(path, lambda fh: fh.write(json.dumps(payload, indent=2, allow_nan=False) + "\n"))


def _table(rows):
    """The float table ``np.loadtxt`` reads from ``rows`` of cell texts, each quoted so that it is read as it is."""
    text = '"' + '"\n"'.join(map('","'.join, rows)) + '"'
    if text.count('"') != 2 * sum(map(len, rows)):  # np.loadtxt refuses a cell that holds a quote
        raise ValueError("a cell holds a quote")
    return np.loadtxt(io.StringIO(text), float, delimiter=",", quotechar='"', comments=None, ndmin=2)


def _number(text):
    """The value ``np.loadtxt`` reads from the cell ``text``, or None where it refuses it."""
    with contextlib.suppress(ValueError):
        return _table([[text]]).item()


def _records(fh):
    """``(row, record)`` of the header (row 1) and each later record of ``fh`` that is not blank, by ``csv.reader``.

    Rows count blank records too.  Text that is not CSV is an IngestError when it is read; ``fh`` decodes a byte
    that is not UTF-8 as a lone surrogate, which ``_undecodable`` reports at its cell.
    """
    fh.seek(0)
    records = enumerate(csv.reader(fh), start=1)
    try:
        yield next(records, (1, None))
        yield from filter(itemgetter(1), records)
    except csv.Error as exc:
        raise IngestError(f"input file is not CSV: {exc}") from exc


def _undecodable(text):
    """``not UTF-8: <reason>`` for a cell read with ``errors="surrogateescape"`` that holds such a byte, else None."""
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"not UTF-8: {exc.reason}"
    return None


def _first_undecodable(cells):
    """Index of the first of ``cells`` that holds a byte that is not UTF-8 (a lone surrogate), or None."""
    if (joined := "".join(cells)).isascii():
        return None
    try:
        joined.encode("utf-8")  # strict: a surrogate cannot be encoded
    except UnicodeEncodeError as exc:
        return int(np.searchsorted(np.cumsum([len(cell) for cell in cells]), exc.start, side="right"))
    return None


def _read_header(fh, leading):
    """The header's field names, leaving ``fh`` at the first data row; a missing or bad header is an IngestError."""
    if (header := next(_records(fh))[1]) is None:
        raise IngestError("file is empty", row=1)
    if (j := _first_undecodable(header)) is not None:
        raise IngestError(_undecodable(header[j]), row=1)
    names = [h.strip() for h in header]
    if names[: len(leading)] != list(leading):
        raise IngestError(f"header must start with {','.join(leading)}, got {','.join(header)}", row=1)
    if (error := _covariate_name_error(names[len(leading) :])) is not None:
        raise IngestError(error[1], row=1, column=names[len(leading) + error[0]])
    return names


def _rows_of(fh, indices):
    """The row of each data record in ``indices`` of ``fh``, numbered from 0."""
    data = enumerate(islice(_records(fh), 1, max(indices) + 2))  # past the header, to the last record asked for
    found = {i: row for i, (row, _) in data if i in indices}
    return [found[i] for i in indices]


_CHECK_ROWS = 256  # records read at a time: no more than a batch of cells is held as strings


def _walk(fh, width):
    """``(ids, cells, bad, error)`` of the data records of ``fh`` up to the first bad one, read by ``csv.reader``.

    A bad record has other than ``width`` fields or a number cell that ``np.loadtxt`` refuses.  ``ids`` and the float
    table ``cells`` hold the records before it and ``bad``, ``(row, record)`` of one of ``width`` fields, each refused
    cell as NaN.  ``error`` is the IngestError of one of another width, or of reading the file (a field past
    ``csv.field_size_limit()``, say) after good records.  One ``np.loadtxt`` call parses a batch of good records; a
    batch that it fails on is parsed record by record, cell by cell.
    """
    data = islice(_records(fh), 1, None)
    ids, tables, bad, error, full = [], [np.empty((0, width - 1))], None, None, True
    while full and not (bad or error):
        batch = []
        try:
            for item in islice(data, _CHECK_ROWS):
                batch.append(item)
        except IngestError as exc:
            error = exc
        full = len(batch) == _CHECK_ROWS
        with contextlib.suppress(ValueError):
            if error is None and {len(record) for _, record in batch} == {width}:
                tables.append(_table([record[1:] for _, record in batch]))
                ids += [record[0] for _, record in batch]
                continue
        for row, record in batch:
            if len(record) != width:
                error = IngestError(f"expected {width} fields, got {len(record)}", row=row)
                break
            ids.append(record[0])
            tables.append(np.array([cells := [*map(_number, record[1:])]], float))  # a refused cell, None, is NaN
            if None in cells:
                bad, error = (row, record), None
                break
    return ids, np.concatenate(tables), bad, error


def _read_columns(fh, leading):
    """Field names, contract ids, a float array per later field, and the walk's ``bad`` and ``error``, or None.

    One ``np.loadtxt`` call reads the data rows; where it fails, or where a field may pass the field-size limit,
    ``_walk`` reads them.  Cells are parsed, not checked: the container validates them.  An id that is not UTF-8 is
    ``error``, with the rows from its own on dropped.
    """
    names = _read_header(fh, leading)
    step = (limit := csv.field_size_limit()) // 4  # a field past the limit has a quarter of it without a comma
    table = None
    with contextlib.suppress(OSError, ValueError):  # a file that cannot be mapped or np.loadtxt fails on is walked
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:  # unmapped before it is read
            fits = all(view.find(b",", i, i + step) >= 0 for i in range(0, len(view) - step, step))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # reported instead
            dtype = "O" + ",f8" * (len(names) - 1)  # the id, then one float per field
            table = np.loadtxt(fh, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1) if fits else None
    if table is not None and max(map(len, ids := table["f0"].tolist()), default=0) <= limit:
        columns, bad, error = [table[f"f{j}"] for j in range(1, len(names))], None, None
    else:
        ids, cells, bad, error = _walk(fh, len(names))
        columns = list(cells.T)
    if (i := _first_undecodable(ids)) is not None:  # the first error unless the container finds one before row i
        (row,) = _rows_of(fh, (i,))
        error = IngestError(_undecodable(ids[i]), row=row, column=leading[0])
        ids, columns, bad = ids[:i], [column[:i] for column in columns], None
    if not ids and not error:
        raise IngestError("no data rows")
    return names, ids, columns, bad, error


def _ingest(path, value_column, container):
    """Load an input CSV as ``container``, a ``Portfolio`` class, which validates it.

    The path is opened once; an input that is not a regular file (a pipe, say) is first copied to an unnamed
    temporary file, so that every handle can be mapped and read again.  The container is built once.  The first
    error in the file is reported: a cell that it rejects (``_rows_of`` finds the row), and else the walk's.
    """
    leading = ("contract_id", "exposure", value_column)
    try:
        fh = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise IngestError(f"cannot read input file {path}: {exc.strerror}") from exc
    with fh, contextlib.ExitStack() as stack:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            copy = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(fh.buffer, copy)
            copy.seek(0)
            fh = stack.enter_context(io.TextIOWrapper(copy, newline="", encoding="utf-8-sig", errors="surrogateescape"))
        names, ids, (exposures, values, *covariates), bad, error = _read_columns(fh, leading)
        covariates = np.array(covariates).T if covariates else None  # column-major, as the design
        try:
            book = container.from_arrays(exposures, values, covariates, contract_ids=ids, covariate_names=names[3:])
        except _CellError as exc:
            i, position = exc.index, exc.position
            if bad and i == len(ids) - 1 and position:  # a cell of the walk's stopped record, the only unparsed one
                row, text = bad[0], bad[1][position]
                message = _undecodable(text) or (str(exc) if _number(text) is not None else f"not a number: {text!r}")
            else:  # an id, or a cell that np.loadtxt parsed
                row, first_row = _rows_of(fh, (i, ids.index(ids[i]) if position == 0 else i))
                message = str(exc) if position else f"duplicate contract id {ids[i]!r}, first on row {first_row}"
            raise IngestError(message, row=row, column=names[position]) from exc
        except RankDeficiencyError as exc:
            design_names = ["intercept"] + names[3:]
            involved = ", ".join(design_names[j] for j in exc.column_indices)
            raise error or IngestError(f"design matrix is rank deficient; columns involved: {involved}") from exc
        except ValueError as exc:
            raise error or IngestError(str(exc)) from exc
        if error:
            raise error
        return book


def ingest_csv(path) -> Portfolio:
    """Load and validate a loss-cost portfolio CSV."""
    return _ingest(path, "loss_cost", Portfolio)


def ingest_counts_csv(path) -> CountData:
    """Load and validate a claim-count CSV."""
    return _ingest(path, "count", CountData)


def cmd_fit(args):
    """Check ``--p`` and ``--phi``, ingest, fit ``args.scheme`` (``both``: offset, then ratio, each logged as it
    ends) and write ``fit.json``.  ``compare`` runs this with ``both``, so it returns ``(portfolio, results)``."""
    family = TweedieFamily(p=args.p, phi=args.phi)
    portfolio = ingest_csv(args.input)
    results = {}
    for scheme in tuple(WeightScheme) if args.scheme == "both" else (WeightScheme(args.scheme),):
        results[scheme] = result = fit(portfolio, scheme, family)
        log.info("%s fit: converged=%s iterations=%d", scheme.value, result.converged, result.iterations)
    fits = {
        scheme.value: {
            "beta": result.beta_hat.tolist(),
            "covariance": result.covariance.tolist(),
            "iterations": result.iterations,
            "converged": result.converged,
            "gradient_norm": result.gradient_norm,
        }
        for scheme, result in results.items()
    }
    _write_json(
        args.out / "fit.json",
        {"schema_version": SCHEMA_VERSION, "p": args.p, "phi": args.phi, "n": portfolio.n,
         "covariates": list(portfolio.covariate_names), "schemes": fits},
    )
    return portfolio, results


def cmd_compare(args):
    portfolio, results = cmd_fit(args)
    result_offset, result_ratio = results[WeightScheme.OFFSET], results[WeightScheme.RATIO]
    beta_offset, beta_ratio = result_offset.beta_hat, result_ratio.beta_hat
    coeff_ratios = np.full_like(beta_offset, np.nan)
    np.divide(beta_offset, beta_ratio, out=coeff_ratios, where=beta_ratio != 0.0)
    _write_csv(
        args.out / "coeff_ratios.csv",
        ["covariate", "beta_offset", "beta_ratio", "ratio"],
        [["intercept", *portfolio.covariate_names], beta_offset, beta_ratio, coeff_ratios],
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
            *report.ratios,
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
        [np.arange(1.0, portfolio.n + 1), portfolio.exposures, gap_offset, gap_ratio],
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
    beta = poisson_fit(data, "offset").tolist()
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
    compare.set_defaults(run=cmd_compare, scheme="both")
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
    fit_cmd.add_argument("--scheme", choices=("offset", "ratio", "both"), default="both", help="which scheme(s) to fit")
    sim.add_argument("--n", type=int, default=100, help="number of contracts")
    sim.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    sim.add_argument(
        "--scenario", choices=SCENARIOS, default="increasing", help="how loss costs move with exposure rank"
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
        error = {"schema_version": SCHEMA_VERSION, "error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
