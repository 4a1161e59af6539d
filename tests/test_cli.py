"""CLI surface: ingestion diagnostics, output schemas, determinism, exit codes."""

import argparse
import builtins
import contextlib
import csv
import errno
import io
import json
import logging
import mmap
import os
import shutil
import signal
import stat
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exposure_glm import balance, claim_count, cli, model_core
from exposure_glm.cli import IngestError, build_parser, ingest_csv, ingest_counts_csv, main
from exposure_glm.simulate import Scenario, build_scenario_portfolio, gen_mimic_portfolio

from util import overflowing_count_data, write_portfolio_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = "contract_id,exposure,loss_cost,x1\na,0.5,10.0,0\nb,1.0,20.0,1\n"

# Both ingests share one path; tests of that path run through each.
INGESTS = {"loss_cost": ingest_csv, "count": ingest_counts_csv}


class TestIngest:
    def test_minimal_two_row_file(self, tmp_path):
        pf = ingest_csv(_write(tmp_path / "in.csv", MINIMAL))
        assert pf.n == 2 and pf.q == 1
        assert pf.covariate_names == ("x1",)
        assert pf.contract_ids == ("a", "b")

    def test_zero_exposure_names_row_and_column(self, tmp_path):
        bad = "contract_id,exposure,loss_cost\na,0.5,10.0\nb,0.0,3.0\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", bad))
        assert excinfo.value.row == 3
        assert excinfo.value.column == "exposure"

    def test_negative_loss_rejected(self, tmp_path):
        bad = "contract_id,exposure,loss_cost\na,0.5,-1.0\nb,1.0,3.0\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", bad))
        assert excinfo.value.column == "loss_cost"

    def test_non_numeric_covariate_rejected(self, tmp_path):
        bad = "contract_id,exposure,loss_cost,x1\na,0.5,1.0,oops\nb,1.0,3.0,1\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", bad))
        assert excinfo.value.column == "x1"

    def test_duplicated_column_lists_both(self, tmp_path):
        rows = ["contract_id,exposure,loss_cost,x1,x2"]
        rng = np.random.default_rng(0)
        for i in range(8):
            v = rng.normal()
            rows.append(f"c{i},0.5,1.0,{v},{v}")
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", "\n".join(rows) + "\n"))
        message = str(excinfo.value)
        assert "x1" in message and "x2" in message

    @pytest.mark.parametrize(
        "header,column",
        [("x1,age,age", "age"), ("x1,", ""), ("x1, ,x3", "")],
    )
    def test_repeated_or_empty_covariate_name_names_column(self, tmp_path, header, column):
        src = _write(tmp_path / "in.csv", f"contract_id,exposure,loss_cost,{header}\na,0.5,1.0,0,1,2\n")
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(src)
        assert (excinfo.value.row, excinfo.value.column) == (1, column)

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_csv(_write(tmp_path / "in.csv", "id,t,y\na,0.5,1\nb,1,2\n"))

    def test_counts_fractional_rejected(self, tmp_path):
        bad = "contract_id,exposure,count\na,0.5,1.5\nb,1.0,2\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_counts_csv(_write(tmp_path / "in.csv", bad))
        assert excinfo.value.column == "count"

    @pytest.mark.parametrize(
        "rows,row,column",
        [
            # two bad rows: the earlier one is reported
            (["a,0.5,1.0,0", "b,1.5,1.0,1", "c,0.5,-2.0,0"], 3, "exposure"),
            # two bad columns in one row: the leftmost is reported
            (["a,0.5,1.0,0", "b,0.5,-1.0,x", "c,0.5,1.0,1"], 3, "loss_cost"),
            # row-major, not column-major: a covariate beats a later exposure
            (["a,0.5,1.0,0", "b,0.5,1.0,oops", "c,0.0,1.0,1"], 3, "x1"),
        ],
    )
    def test_first_error_in_row_major_order(self, tmp_path, rows, row, column):
        text = "contract_id,exposure,loss_cost,x1\n" + "\n".join(rows) + "\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (row, column)

    @pytest.mark.parametrize(
        "cell,column", [("nan", "loss_cost"), ("inf", "x1"), ("-inf", "exposure")]
    )
    def test_non_finite_rejected_with_row(self, tmp_path, cell, column):
        fields = {"exposure": "0.5", "loss_cost": "1.0", "x1": "1"}
        fields[column] = cell
        bad = f"b,{fields['exposure']},{fields['loss_cost']},{fields['x1']}"
        text = "contract_id,exposure,loss_cost,x1\na,0.5,1.0,0\n" + bad + "\nc,1.0,2.0,1\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (3, column)
        assert "not finite" in str(excinfo.value)

    def test_short_row_rejected_with_row(self, tmp_path):
        text = "contract_id,exposure,loss_cost,x1\na,0.5,1.0,0\nb,1.0,2.0,1\nc,0.5,1.0\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", text))
        assert excinfo.value.row == 4
        assert "expected 4 fields, got 3" in str(excinfo.value)

    @pytest.mark.parametrize("value", INGESTS)
    @pytest.mark.parametrize("content", [b"", b"\xef\xbb\xbf"], ids=["empty", "byte_order_mark_only"])
    def test_file_without_header_is_empty(self, tmp_path, value, content):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        with pytest.raises(IngestError, match="^row 1: file is empty$") as excinfo:
            INGESTS[value](path)
        assert (excinfo.value.row, excinfo.value.column) == (1, None)

    @pytest.mark.parametrize("value", INGESTS)
    def test_duplicate_contract_id_names_second_row(self, tmp_path, value):
        text = f"contract_id,exposure,{value}\na,0.5,1.0\nb,1.0,2.0\na,0.5,3.0\nc,1.0,4.0\n"
        with pytest.raises(IngestError) as excinfo:
            INGESTS[value](_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (4, "contract_id")
        assert "'a'" in str(excinfo.value) and "row 2" in str(excinfo.value)

    def test_duplicate_contract_id_before_later_bad_value(self, tmp_path):
        text = "contract_id,exposure,loss_cost\na,0.5,1.0\na,0.5,-1.0\nb,1.0,2.0\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (3, "contract_id")

    def test_blank_records_keep_row_numbers(self, tmp_path):
        text = "contract_id,exposure,loss_cost\na,0.5,1.0\n\nb,1.0,2.0\nc,1.0,x\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (5, "loss_cost")
        assert "not a number: 'x'" in str(excinfo.value)

    @pytest.mark.parametrize("batch", [1, 2, 3, 512])
    def test_records_read_in_batches(self, tmp_path, monkeypatch, batch):
        monkeypatch.setattr(cli, "_READ_ROWS", batch)
        head = 'contract_id,exposure,loss_cost\na,0.5,1.0\n\n\nb,1.0,2.0\n"c,1",0.25,3.0\n\n'
        pf = ingest_csv(_write(tmp_path / "ok.csv", head + "d,1.0,4.0\n"))
        assert pf.contract_ids == ("a", "b", "c,1", "d")
        np.testing.assert_array_equal(pf.loss_costs, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "bad.csv", head + "d,1.0,x\n"))
        assert (excinfo.value.row, excinfo.value.column) == (8, "loss_cost")
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "short.csv", head + "d,1.0\n"))
        assert excinfo.value.row == 8
        assert "expected 3 fields, got 2" in str(excinfo.value)

        # Errors four or more records apart fall in different batches
        # (except at 512): the precedence must not depend on that.
        for ingest, value in ((ingest_csv, "loss_cost"), (ingest_counts_csv, "count")):
            header = f"contract_id,exposure,{value}\n"
            # a bad cell, then a short record: the short record is reported
            text = header + "a,0.5,x\nb,1.0,1\nc,1.0,2\nd,0.5,1\ne,1.0\nf,1.0,1\n"
            with pytest.raises(IngestError) as excinfo:
                ingest(_write(tmp_path / "cell_short.csv", text))
            assert excinfo.value.row == 6
            assert "expected 3 fields, got 2" in str(excinfo.value)
            # a bad cell, then the second occurrence of an id: the cell
            text = header + "a,0.5,1\nb,1.0,-1\nc,1.0,2\nd,0.5,1\ne,1.0,1\na,1.0,1\n"
            with pytest.raises(IngestError) as excinfo:
                ingest(_write(tmp_path / "cell_id.csv", text))
            assert (excinfo.value.row, excinfo.value.column) == (3, value)
            # a repeated id, then a bad cell: the id
            text = header + "a,0.5,1\na,1.0,1\nc,1.0,2\nd,0.5,1\ne,1.0,1\nf,1.0,x\n"
            with pytest.raises(IngestError) as excinfo:
                ingest(_write(tmp_path / "id_cell.csv", text))
            assert (excinfo.value.row, excinfo.value.column) == (3, "contract_id")
            assert "'a'" in str(excinfo.value) and "first on row 2" in str(excinfo.value)

    @pytest.mark.parametrize("value", INGESTS)
    def test_valid_file_scanned_for_repeated_ids_once(self, tmp_path, monkeypatch, value):
        scanned = []

        def first_duplicate(ids, scan=model_core._first_duplicate):
            scanned.append(len(ids))
            return scan(ids)

        monkeypatch.setattr(model_core, "_first_duplicate", first_duplicate)
        INGESTS[value](_write(tmp_path / "in.csv", MINIMAL.replace("loss_cost", value)))
        assert scanned == [2]

    @pytest.mark.parametrize("value", INGESTS)
    def test_rank_deficient_file_names_columns(self, tmp_path, value):
        rows = [f"contract_id,exposure,{value},x1,x2"]
        for i in range(8):
            rows.append(f"c{i},0.5,1,{i % 3},{i % 3}")
        with pytest.raises(IngestError) as excinfo:
            INGESTS[value](_write(tmp_path / "in.csv", "\n".join(rows) + "\n"))
        assert "columns involved: x1, x2" in str(excinfo.value)

    def test_ingest_holds_one_batch_of_cells(self, tmp_path):
        # The traced peak during ingest stays within a small multiple of
        # the portfolio it returns: the file's cells are never all held
        # as strings at once.  Cells are written as ``repr`` floats:
        # one-character cells such as ``1`` are shared string objects
        # and would hide the cost.
        rng = np.random.default_rng(5)
        n = 50_000
        exposures = np.where(rng.random(n) < 0.4, rng.uniform(0.08, 0.92, n), 1.0)
        losses = np.where(rng.random(n) < 0.5, 0.0, rng.gamma(1.5, 100.0, n))
        covariates = (rng.random((n, 3)) < [0.5, 0.3, 0.2]).astype(float)
        lines = ["contract_id,exposure,loss_cost,x1,x2,x3"]
        for i, (t, y, row) in enumerate(zip(exposures.tolist(), losses.tolist(), covariates.tolist())):
            lines.append(",".join((f"c{i + 1}", repr(t), repr(y), *map(repr, row))))
        path = _write(tmp_path / "book.csv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            portfolio = ingest_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert portfolio.n == n
        assert peak < 3 * held, (peak, held)

    def test_reference_path_holds_one_batch_of_cells(self, tmp_path):
        # the same bound where np.loadtxt fails and _ingest_columns reads the file
        with mock.patch.object(np, "loadtxt", side_effect=ValueError("fast path off")):
            self.test_ingest_holds_one_batch_of_cells(tmp_path)

    def test_counts_first_error_in_row_major_order(self, tmp_path):
        text = "contract_id,exposure,count,x1\na,0.5,1,0\nb,0.5,2,nan\nc,2.0,1,1\nd,0.5,-1,0\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_counts_csv(_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (3, "x1")

    def test_portfolio_round_trip(self, tmp_path):
        book = gen_mimic_portfolio(0.4, 50, seed=1)
        path = tmp_path / "book.csv"
        write_portfolio_csv(book, path)
        loaded = ingest_csv(path)
        np.testing.assert_array_equal(loaded.exposures, book.exposures)
        np.testing.assert_array_equal(loaded.loss_costs, book.loss_costs)
        np.testing.assert_array_equal(loaded.design, book.design)


def _ingest_or_error(ingest, path):
    """What ``ingest(path)`` gives: the portfolio's content, or the IngestError's text, row and column."""
    try:
        pf = ingest(path)
    except IngestError as exc:
        return ("error", str(exc), exc.row, exc.column)
    arrays = (pf.exposures, pf.loss_costs, pf.design)
    return ("portfolio", pf.contract_ids, pf.covariate_names, *(a.tobytes() for a in arrays))


def _fallback_only(ingest, path):
    """``ingest(path)`` with ``np.loadtxt`` failing, so that ``_ingest_columns`` reads the file."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("fast path off")):
        return _ingest_or_error(ingest, path)


# cells of small input files: CSV quoting, line breaks, blank and
# whitespace-only lines, comment and digit-group characters, NBSP,
# Arabic-Indic digits, NaN, overflow and a signed zero
INGEST_TOKENS = ['"', ",", "\r\n", "\n", " ", "#", "_", "\xa0", "\u0661", "a", "1", "0.5", "nan", "1e400", "-0"]
INGEST_CELL = st.one_of(
    st.sampled_from(["0.5", "1", "0.25", "0", "2", "-0", "1e400", "nan", " 1", "1\xa0", "\u0661", "1_0", '"0.5"']),
    st.lists(st.sampled_from(INGEST_TOKENS), max_size=4).map("".join),
)
INGEST_ID = st.one_of(
    st.sampled_from(["a", "b", "#c", '"d,e"', '"f\ng"', '"h""i"', " j", ""]),
    st.lists(st.sampled_from(INGEST_TOKENS), max_size=3).map("".join),
)


class TestIngestFastPath:
    """``np.loadtxt`` reads valid files; the reference ``_ingest_columns`` path gives the same portfolio or error."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_fast_path_matches_fallback(self, data):
        value = data.draw(st.sampled_from(sorted(INGESTS)), label="value column")
        q = data.draw(st.integers(0, 2), label="covariates")
        n = data.draw(st.integers(0, 6), label="rows")
        lines = [",".join(["contract_id", "exposure", value, *(f"x{j + 1}" for j in range(q))])]
        for i in range(n):
            # a valid row unless a cell is drawn from the tokens instead
            valid = [f"c{i}", repr((i + 1) / 8), repr(float(i % 3)), repr(float(i)), repr(float(i * i))][: 3 + q]
            cells = [data.draw(INGEST_CELL if k else INGEST_ID) if data.draw(st.integers(0, 7)) == 0 else cell
                     for k, cell in enumerate(valid)]
            lines.append(",".join(cells))
            if data.draw(st.integers(0, 4), label="blank line after") == 0:
                lines.append(data.draw(st.sampled_from(["", " ", "\xa0"])))
        ending = data.draw(st.sampled_from(["\n", "\r\n"]), label="line ending")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(ending.join(lines).encode() + ending.encode() * data.draw(st.integers(0, 1)))
            assert _ingest_or_error(INGESTS[value], path) == _fallback_only(INGESTS[value], path)

    @pytest.mark.parametrize(
        "rows",
        [
            ["a" * 200_000 + ",0.5,1.0,0", "b,1.0,2.0,1"],  # an id past the field-size limit
            ["a,0.5,1.0,0", "b," + "0" * 200_000 + "1,2.0,1"],  # a number past it
            ['"' + "a," * 70_000 + '",0.5,1.0,0', "b,1.0,2.0,1"],  # a quoted id with commas past it
            ["#a,0.5,1.0,0", "b,1.0,2.0,1", "c,0.25,3.0,0", "d,0.5,0.0,1"],  # an id that starts like a comment
            ['"a\nb",0.5,1.0,0', '"c\r\nd",1.0,2.0,1'],  # quoted ids with line breaks
            ["a,0.5,1.0,0", "", "b,1.0,2.0,1", "a,1.0,3.0,0"],  # a repeated id after a blank line
        ],
        ids=["long_id", "long_number", "long_quoted_id", "comment_id", "multiline_id", "duplicate_after_blank"],
    )
    def test_edge_cases_match_fallback(self, tmp_path, rows):
        path = _write(tmp_path / "in.csv", "contract_id,exposure,loss_cost,x1\n" + "\n".join(rows) + "\n")
        assert _ingest_or_error(ingest_csv, path) == _fallback_only(ingest_csv, path)

    def test_edge_case_outcomes(self, tmp_path):
        header = "contract_id,exposure,loss_cost,x1\n"
        for rows in (["a" * 200_000 + ",0.5,1.0,0"], ["b," + "0" * 200_000 + "1,2.0,1"]):
            with pytest.raises(IngestError, match="field larger than field limit"):
                ingest_csv(_write(tmp_path / "long.csv", header + "\n".join(rows) + "\n"))
        text = header + '#a,0.5,1.0,0\n"b\nc",1.0,2.0,1\nd,1.0,0.0,0\ne,0.5,4.0,1\n'
        assert ingest_csv(_write(tmp_path / "ids.csv", text)).contract_ids == ("#a", "b\nc", "d", "e")
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "dup.csv", header + "a,0.5,1.0,0\n\nb,1.0,2.0,1\na,1.0,3.0,0\n"))
        assert (excinfo.value.row, excinfo.value.column) == (5, "contract_id")
        assert "first on row 2" in str(excinfo.value)

    def test_design_is_column_major_on_both_paths(self, tmp_path):
        text = "contract_id,exposure,loss_cost,x1,x2\na,0.5,1,0,2\nb,1.0,2,1,3\nc,0.25,0,1,5\nd,1.0,4,0,1\n"
        path = _write(tmp_path / "in.csv", text)
        assert ingest_csv(path).design.flags.f_contiguous
        with mock.patch.object(np, "loadtxt", side_effect=ValueError("fast path off")):
            assert ingest_csv(path).design.flags.f_contiguous

    def test_other_warnings_of_loadtxt_reach_the_caller(self, tmp_path, monkeypatch):
        def warn(*args, real=np.loadtxt, **kwargs):
            warnings.warn("a deprecated loadtxt argument", DeprecationWarning)
            return real(*args, **kwargs)

        with monkeypatch.context() as patch, pytest.warns(DeprecationWarning, match="^a deprecated loadtxt argument$"):
            patch.setattr(np, "loadtxt", warn)
            assert ingest_csv(_write(tmp_path / "in.csv", MINIMAL)).contract_ids == ("a", "b")
        # the one warning kept from the caller: a file without data rows, which is reported instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestError, match="^no data rows$"):
                ingest_csv(_write(tmp_path / "header.csv", "contract_id,exposure,loss_cost,x1\n"))

    @pytest.mark.parametrize("value", INGESTS)
    def test_valid_file_is_read_once(self, tmp_path, monkeypatch, value):
        def refuse(*args):
            raise AssertionError("the file was read again")

        monkeypatch.setattr(cli, "_ingest_columns", refuse)
        text = f'contract_id,exposure,{value},x1\na,0.5,1,0\n"b,1",1.0,2,1\n\n"c""2",0.25,0,1\n'
        pf = INGESTS[value](_write(tmp_path / "in.csv", text))
        assert pf.contract_ids == ("a", "b,1", 'c"2')
        np.testing.assert_array_equal(pf.design[:, 1], [0.0, 1.0, 1.0])
        # one data row is a table of one row, not a scalar
        pf = INGESTS[value](_write(tmp_path / "one.csv", f"contract_id,exposure,{value}\na,0.5,1\n"))
        assert pf.contract_ids == ("a",) and pf.loss_costs.tolist() == [1.0]

    @pytest.mark.parametrize("value", INGESTS)
    def test_cell_error_counts_records_without_parsing(self, tmp_path, monkeypatch, value):
        def refuse(*args):
            raise AssertionError("the cells were parsed again")

        monkeypatch.setattr(cli, "_ingest_columns", refuse)
        monkeypatch.setattr(cli, "_parse_column", refuse)
        # a blank record and a two-line one come before the bad cell, which np.loadtxt read as a number
        text = f'contract_id,exposure,{value},x1\na,0.5,1,0\n\n"b\nc",1.0,2,1\nd,1.5,0,1\ne,0.25,1,0\n'
        with pytest.raises(IngestError) as excinfo:
            INGESTS[value](_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (5, "exposure")
        assert str(excinfo.value) == "row 5, column 'exposure': exposure must lie in (0, 1], got 1.5 for contract 'd'"


def _feed(fifo, text):
    """Start a thread that writes ``text`` into the named pipe ``fifo``, then closes it."""

    def write():
        # ``os.open``, so that a spy on ``open`` sees only the reader
        with open(os.open(fifo, os.O_WRONLY), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def _through_pipe(fifo, text, ingest):
    """``_ingest_or_error(ingest, fifo)`` while a thread writes ``text`` into the new named pipe ``fifo``."""
    os.mkfifo(fifo)
    writer = _feed(fifo, text)
    with _deadline(5):
        outcome = _ingest_or_error(ingest, fifo)
    writer.join(5)
    assert not writer.is_alive()
    return outcome


def _slow_mmap(monkeypatch):
    """Make ``mmap.mmap`` wait 0.3 s before the real call, time for a pipe's writer to finish."""

    def slow(*args, real=mmap.mmap, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", slow)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX only")
class TestIngestOpensOnce:
    """One open of the input, one header rule, one container build; a pipe is copied once, then read as a file."""

    def test_pipe_whose_writer_finished_first(self, tmp_path, monkeypatch):
        fifo = tmp_path / "in.csv"
        os.mkfifo(fifo)
        _slow_mmap(monkeypatch)
        writer = _feed(fifo, MINIMAL)
        with _deadline(5):
            pf = ingest_csv(fifo)
        writer.join(5)
        assert not writer.is_alive()
        assert pf.contract_ids == ("a", "b")
        np.testing.assert_array_equal(pf.loss_costs, [10.0, 20.0])

    @pytest.mark.parametrize("case", ["valid", "bad_exposure", "pipe"])
    def test_input_is_opened_once(self, tmp_path, monkeypatch, case):
        path = tmp_path / "in.csv"
        opened = []

        def spy(file, *args, real=open, **kwargs):
            if not isinstance(file, int) and Path(file) == path:
                opened.append(file)
            return real(file, *args, **kwargs)

        if case == "pipe":
            os.mkfifo(path)
            _slow_mmap(monkeypatch)
            writer = _feed(path, MINIMAL)
        else:
            _write(path, MINIMAL.replace("b,1.0", "b,0.0") if case == "bad_exposure" else MINIMAL)
        monkeypatch.setattr(builtins, "open", spy)
        with _deadline(5):
            if case == "bad_exposure":
                with pytest.raises(IngestError) as excinfo:
                    ingest_csv(path)
                assert (excinfo.value.row, excinfo.value.column) == (3, "exposure")
            else:
                assert ingest_csv(path).contract_ids == ("a", "b")
        if case == "pipe":
            writer.join(5)
            assert not writer.is_alive()
        assert len(opened) == 1

    @pytest.mark.parametrize("value", INGESTS)
    def test_rank_deficient_file_is_read_once(self, tmp_path, monkeypatch, value):
        def refuse(*args):
            raise AssertionError("the file was read again")

        monkeypatch.setattr(cli, "_ingest_columns", refuse)
        rows = [f"contract_id,exposure,{value},x1,x2"] + [f"c{i},0.5,1,{i % 3},{i % 3}" for i in range(8)]
        with pytest.raises(IngestError, match="columns involved: x1, x2$"):
            INGESTS[value](_write(tmp_path / "in.csv", "\n".join(rows) + "\n"))

    @pytest.mark.parametrize(
        "header,column",
        [("contract_id,exposure,loss_cost,x1,x1", "x1"), ("contract_id,exposure,losscost,x1", None)],
        ids=["repeated_covariate", "no_loss_cost"],
    )
    def test_bad_header_is_found_before_the_rows_are_parsed(self, tmp_path, monkeypatch, header, column):
        calls = []

        def spy(*args, real=np.loadtxt, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        covariates = header.count(",") - 2
        rows = [",".join([f"c{i}", "0.5", "1", *map(str, range(i, i + covariates))]) for i in range(4)]
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", "\n".join([header, *rows]) + "\n"))
        assert (excinfo.value.row, excinfo.value.column) == (1, column)
        assert calls == []

    @pytest.mark.parametrize("value", INGESTS)
    def test_bad_cell_builds_the_container_once(self, tmp_path, monkeypatch, value):
        builds = []

        def spy(self, *args, real=model_core.Portfolio.__init__, **kwargs):
            builds.append(type(self))
            real(self, *args, **kwargs)

        monkeypatch.setattr(model_core.Portfolio, "__init__", spy)
        text = f"contract_id,exposure,{value},x1\na,0.5,1,0\n\nb,1.0,2,1\nc,1.5,1,0\n"
        with pytest.raises(IngestError) as excinfo:
            INGESTS[value](_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (5, "exposure")
        assert builds == [model_core.Portfolio if value == "loss_cost" else claim_count.CountData]

    @pytest.mark.parametrize("value", INGESTS)
    def test_valid_pipe_is_read_by_loadtxt(self, tmp_path, monkeypatch, value):
        text = f'contract_id,exposure,{value},x1\na,0.5,1,0\n"b,1",1.0,2,1\n\n"c""2",0.25,0,1\n'
        expected = _ingest_or_error(INGESTS[value], _write(tmp_path / "in.csv", text))

        def refuse(*args):
            raise AssertionError("the reference reader read a valid pipe")

        monkeypatch.setattr(cli, "_ingest_columns", refuse)
        through_pipe = _through_pipe(tmp_path / "pipe.csv", text, INGESTS[value])
        assert through_pipe[:2] == ("portfolio", ("a", "b,1", 'c"2'))
        assert through_pipe == expected

    @pytest.mark.parametrize("value", INGESTS)
    @pytest.mark.parametrize(
        "last,column,message",
        [
            ("d,0.5,x,1", "value", "not a number: 'x'"),
            ("d,1.5,0,1", "exposure", "exposure must lie in (0, 1], got 1.5 for contract 'd'"),
            ("a,0.5,0,1", "contract_id", "duplicate contract id 'a', first on row 2"),
            ('"b\nc",0.5,0,1', "contract_id", "duplicate contract id 'b\\nc', first on row 4"),
        ],
        ids=["not_a_number", "out_of_range", "repeated_id", "repeated_two_line_id"],
    )
    def test_pipe_error_matches_the_file(self, tmp_path, value, last, column, message):
        # a blank record and a two-line quoted id come before the bad cell, on row 5
        text = f'contract_id,exposure,{value},x1\na,0.5,1,0\n\n"b\nc",1.0,2,1\n{last}\n'
        column = value if column == "value" else column
        from_file = _ingest_or_error(INGESTS[value], _write(tmp_path / "in.csv", text))
        assert from_file == ("error", f"row 5, column {column!r}: {message}", 5, column)
        assert _through_pipe(tmp_path / "pipe.csv", text, INGESTS[value]) == from_file

    def test_failed_copy_of_a_pipe_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        def disk_full(source, target):
            target.write(source.read(10))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(shutil, "copyfileobj", disk_full)
        fifo = tmp_path / "in.csv"
        os.mkfifo(fifo)
        writer = _feed(fifo, MINIMAL)
        with _deadline(5):
            assert main(["fit", "--input", str(fifo), "--out", str(tmp_path / "o")]) == 1
        writer.join(5)
        assert not writer.is_alive()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OSError"
        assert not (tmp_path / "o").exists()

    def test_large_book_through_a_pipe_matches_the_file(self, tmp_path):
        path = tmp_path / "book.csv"
        write_portfolio_csv(gen_mimic_portfolio(0.4, 10_000, seed=7), path)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = _feed(fifo, path.read_text(encoding="utf-8"))
        with _deadline(20):
            through_pipe = _ingest_or_error(ingest_csv, fifo)
        writer.join(5)
        assert not writer.is_alive()
        assert through_pipe[0] == "portfolio" and len(through_pipe[1]) == 10_000
        assert through_pipe == _ingest_or_error(ingest_csv, path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCompareCommand:
    def test_full_exposure_coefficient_ratios_are_one(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 40
        x = np.column_stack([(rng.random(n) < 0.5).astype(float), rng.normal(0, 0.5, n)])
        y = np.where(rng.random(n) < 0.3, 0.0, rng.gamma(2.0, 40.0, n))
        lines = ["contract_id,exposure,loss_cost,x1,x2"]
        for i in range(n):
            lines.append(f"c{i},1.0,{float(y[i])!r},{float(x[i, 0])!r},{float(x[i, 1])!r}")
        src = _write(tmp_path / "in.csv", "\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["compare", "--input", str(src), "--out", str(out)]) == 0

        rows = _read_csv(out / "coeff_ratios.csv")
        assert rows[0] == ["covariate", "beta_offset", "beta_ratio", "ratio"]
        for row in rows[1:]:
            assert abs(float(row[3]) - 1.0) < 1e-8

        quantiles = _read_csv(out / "premium_ratios.csv")
        for row in quantiles[1:]:
            assert abs(float(row[1]) - 1.0) < 1e-8

    def test_decreasing_synthetic_premium_ratios_above_one(self, tmp_path):
        book = build_scenario_portfolio(n=100, scenario=Scenario.DECREASING, heterogeneous=True, seed=3)
        src = tmp_path / "in.csv"
        write_portfolio_csv(book, src)
        out = tmp_path / "out"
        assert main(["compare", "--input", str(src), "--out", str(out)]) == 0
        rows = _read_csv(out / "premium_ratios.csv")
        ratios = [float(r[1]) for r in rows[1:]]
        median = ratios[len(ratios) // 2]
        assert sum(r > 1.0 for r in ratios) > len(ratios) / 2
        assert median > 1.0

    def test_gaps_and_class_balance_schemas(self, tmp_path):
        src = _write(tmp_path / "in.csv", MINIMAL)
        out = tmp_path / "out"
        assert main(["compare", "--input", str(src), "--out", str(out)]) == 0
        gaps = _read_csv(out / "gaps.csv")
        assert gaps[0] == [
            "contract_id", "exposure", "z", "zeta_offset", "zeta_ratio", "gap_offset", "gap_ratio",
        ]
        assert len(gaps) == 3
        balance = _read_csv(out / "class_balance.csv")
        assert balance[0] == [
            "factor", "level", "loss_sum", "premium_sum_offset", "premium_sum_ratio",
            "ratio_offset", "ratio_ratio",
        ]
        fit_payload = json.loads((out / "fit.json").read_text())
        assert fit_payload["schema_version"] == 1
        assert set(fit_payload["schemes"]) == {"offset", "ratio"}

    def test_balance_json(self, tmp_path):
        book = gen_mimic_portfolio(0.36, 80, seed=7)
        src = tmp_path / "in.csv"
        write_portfolio_csv(book, src)
        out = tmp_path / "out"
        assert main(["compare", "--input", str(src), "--out", str(out)]) == 0
        payload = json.loads((out / "balance.json").read_text())
        assert abs(payload["balance_factor_ratio"] - 1.0) < 0.2
        assert (out / "gaps.csv").exists() and (out / "class_balance.csv").exists()

    def test_levels_grouped_once(self, tmp_path, monkeypatch):
        # one class report serves every covariate and both fits
        calls = []

        def class_report(portfolio, fits, report=cli.class_report):
            calls.append(len(fits))
            return report(portfolio, fits)

        monkeypatch.setattr(cli, "class_report", class_report)
        book = gen_mimic_portfolio(0.36, 80, seed=7)
        src = tmp_path / "in.csv"
        write_portfolio_csv(book, src)
        assert main(["compare", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        assert calls == [2]

    def test_premiums_evaluated_once_per_diagnostic(self, tmp_path, monkeypatch):
        # exp(X beta) per fit: once each for the gaps, the class report and
        # the balance factor, however many covariates the book has
        calls = []

        def fitted_zetas(portfolio, fit, zetas=balance._fitted_zetas):
            calls.append(fit)
            return zetas(portfolio, fit)

        monkeypatch.setattr(balance, "_fitted_zetas", fitted_zetas)
        book = gen_mimic_portfolio(0.36, 80, seed=7)
        assert book.q == 3
        src = tmp_path / "in.csv"
        write_portfolio_csv(book, src)
        assert main(["compare", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 6 and len(set(map(id, calls))) == 2

    def test_book_without_covariates_reports_its_intercept(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.where(rng.random(60) < 0.4, rng.uniform(0.1, 0.9, 60), 1.0)
        y = np.where(rng.random(60) < 0.5, 0.0, rng.gamma(2.0, 40.0, 60)) * t
        src = tmp_path / "in.csv"
        write_portfolio_csv(model_core.Portfolio.from_arrays(t, y), src)
        assert main(["compare", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "class_balance.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["factor"], row["level"]) == ("intercept", "1")
        assert abs(float(row["ratio_ratio"]) - 1.0) <= 1e-12

    def test_undefined_coefficient_ratio_is_an_empty_cell(self, tmp_path):
        # z = 1 throughout, so both intercepts are exactly 0 and their ratio is undefined,
        # written as class_balance.csv writes an undefined ratio
        src = _write(tmp_path / "in.csv", "contract_id,exposure,loss_cost\nc1,0.5,0.5\nc2,1,1\nc3,0.25,0.25\n")
        assert main(["compare", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "coeff_ratios.csv").read_bytes().decode()
        assert text == "covariate,beta_offset,beta_ratio,ratio\nintercept,0,0,\n"

    def test_balance_is_another_name_for_compare(self, tmp_path):
        src = tmp_path / "in.csv"
        write_portfolio_csv(gen_mimic_portfolio(0.4, 60, seed=2), src)
        outputs = {}
        for command in ("compare", "balance"):
            out = tmp_path / command
            assert main([command, "--input", str(src), "--out", str(out)]) == 0
            outputs[command] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert outputs["balance"] == outputs["compare"]
        assert sorted(outputs["compare"]) == [
            "balance.json", "class_balance.csv", "coeff_ratios.csv", "fit.json", "gaps.csv",
            "premium_ratios.csv",
        ]

    def test_byte_order_mark_changes_nothing(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        write_portfolio_csv(gen_mimic_portfolio(0.4, 60, seed=2), plain / "in.csv")
        (marked / "in.csv").write_bytes(b"\xef\xbb\xbf" + (plain / "in.csv").read_bytes())
        books = [ingest_csv(d / "in.csv") for d in (plain, marked)]
        for attr in ("contract_ids", "covariate_names"):
            assert getattr(books[0], attr) == getattr(books[1], attr)
        for attr in ("exposures", "loss_costs", "design"):
            np.testing.assert_array_equal(getattr(books[0], attr), getattr(books[1], attr))
        for d in (plain, marked):
            assert main(["compare", "--input", str(d / "in.csv"), "--out", str(d / "out")]) == 0
        names = sorted(path.name for path in (plain / "out").iterdir())
        assert names == sorted(path.name for path in (marked / "out").iterdir())
        for name in names:
            assert (plain / "out" / name).read_bytes() == (marked / "out" / name).read_bytes()


class TestFitCommand:
    def test_single_scheme(self, tmp_path):
        src = _write(tmp_path / "in.csv", MINIMAL)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(src), "--out", str(out), "--scheme", "ratio"]) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert list(payload["schemes"]) == ["ratio"]
        assert payload["schemes"]["ratio"]["converged"]

    def test_both_schemes_match_compare_byte_for_byte(self, tmp_path):
        src = tmp_path / "in.csv"
        write_portfolio_csv(gen_mimic_portfolio(0.4, 60, seed=2), src)
        flags = ["--input", str(src), "--p", "1.3", "--phi", "2.5"]
        assert main(["fit", *flags, "--out", str(tmp_path / "fit"), "--scheme", "both"]) == 0
        assert main(["compare", *flags, "--out", str(tmp_path / "compare")]) == 0
        fit_json = (tmp_path / "fit" / "fit.json").read_bytes()
        assert fit_json == (tmp_path / "compare" / "fit.json").read_bytes()


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        args = ["simulate", "--n", "60", "--seed", "5", "--scenario", "decreasing", "--heterogeneous"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("gap_experiment.csv", "gap_totals.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        totals = json.loads((out1 / "gap_totals.json").read_text())
        assert totals["total_gap_offset"] < 0.0

    def test_minimum_size_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--n", "2", "--seed", "1", "--out", str(out)]) == 0

    def test_different_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--n", "30", "--seed", "1", "--out", str(out1)])
        main(["simulate", "--n", "30", "--seed", "2", "--out", str(out2)])
        assert (out1 / "gap_experiment.csv").read_bytes() != (out2 / "gap_experiment.csv").read_bytes()

    def test_negative_seed_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--seed", "-1", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["message"] == "seed must be non-negative, got -1"
        assert not out.exists()


def _counts_file(tmp_path):
    rng = np.random.default_rng(8)
    n = 60
    t = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.2, 0.9, n))
    x = (rng.random(n) < 0.5).astype(float)
    y = np.where(rng.random(n) < 0.3, 0, rng.poisson(t * np.exp(0.4 + 0.3 * x)))
    if y.sum() == 0:
        y[0] = 1
    lines = ["contract_id,exposure,count,x1"]
    for i in range(n):
        lines.append(f"c{i},{float(t[i])!r},{int(y[i])},{float(x[i])!r}")
    return _write(tmp_path / "counts.csv", "\n".join(lines) + "\n")


def _write_sum_insured_counts(path):
    """The claim counts of ``overflowing_count_data`` as a CSV with a ``sum_insured`` column."""
    data = overflowing_count_data()
    rows = zip(data.contract_ids, data.exposures.tolist(), data.counts.tolist(), data.design[:, 1].tolist())
    return _write(path, "contract_id,exposure,count,sum_insured\n"
                  + "".join(f"{i},{t!r},{y:.0f},{x!r}\n" for i, t, y, x in rows))


class TestCountsCommand:
    def test_counts_outputs(self, tmp_path):
        src = _counts_file(tmp_path)
        out = tmp_path / "out"
        assert main(["counts", "--input", str(src), "--out", str(out)]) == 0
        payload = json.loads((out / "counts.json").read_text())
        assert payload["poisson_max_coefficient_diff"] < 1e-8
        assert not payload["zip_equivalent"]

    def test_poisson_fitted_once(self, tmp_path, monkeypatch):
        calls = []

        def poisson_fit(*args, fit=cli.poisson_fit, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "poisson_fit", poisson_fit)
        out = tmp_path / "out"
        assert main(["counts", "--input", str(_counts_file(tmp_path)), "--out", str(out)]) == 0
        assert len(calls) == 1
        payload = json.loads((out / "counts.json").read_text())
        assert payload["poisson_beta_offset"] == payload["poisson_beta_ratio"]

    def test_currency_scale_covariate_reports(self, tmp_path):
        # a sum insured in the thousands: the ZIP probes scale with the column
        src = _write_sum_insured_counts(tmp_path / "in.csv")
        out = tmp_path / "out"
        assert main(["counts", "--input", str(src), "--out", str(out)]) == 0
        payload = json.loads((out / "counts.json").read_text())
        assert payload["zip_equivalent"] is False
        assert payload["zip_spread"] > 1e-6


class TestErrorHandling:
    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "IngestError"

    def test_bad_p_exits_nonzero(self, tmp_path, capsys):
        src = _write(tmp_path / "in.csv", MINIMAL)
        code = main(["fit", "--input", str(src), "--out", str(tmp_path / "o"), "--p", "2.5"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"

    def test_bad_flag_reported_before_input_is_read(self, tmp_path, capsys):
        for command, value, flag, bad, word in (
            ("fit", "loss_cost", "--phi", "0", "dispersion"),
            ("counts", "count", "--zero-inflation", "2", "zero inflation"),
        ):
            src = _write(tmp_path / "in.csv", f"contract_id,exposure,{value}\na,0.5,x\nb,1.0,1.0\n")
            code = main([command, "--input", str(src), "--out", str(tmp_path / "o"), flag, bad])
            assert code == 1
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "ValueError", (command, flag)
            assert word in payload["message"]

    @pytest.mark.parametrize("command, stage", [("simulate", "run_gap_experiment"), ("fit", "ingest_csv")])
    def test_allocation_failure_exits_nonzero(self, tmp_path, capsys, monkeypatch, command, stage):
        # numpy raises MemoryError for an array too large for memory; a stand-in
        # raises it here, as a real allocation that large can start an OOM kill
        def refuse(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(cli, stage, refuse)
        out = tmp_path / "out"
        args = [command, "--out", str(out)]
        if command == "fit":
            args += ["--input", str(_write(tmp_path / "in.csv", MINIMAL))]
        assert main(args) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "MemoryError"
        assert payload["message"].startswith("Unable to allocate 7.28 TiB")
        assert not out.exists()

    def test_overflowing_zip_probe_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(claim_count, "_ZIP_PROBES", ((0.0, 0.0), (0.1, 1000.0)))
        src = _write_sum_insured_counts(tmp_path / "in.csv")
        out = tmp_path / "out"
        assert main(["counts", "--input", str(src), "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert "non-finite log-likelihood difference" in payload["message"]
        assert not out.exists()

    def test_failed_command_leaves_no_output_directory(self, tmp_path, capsys):
        src = _write(tmp_path / "in.csv", MINIMAL)
        out = tmp_path / "op"
        assert main(["fit", "--input", str(src), "--out", str(out), "--p", "3"]) == 1
        assert main(["fit", "--input", str(tmp_path / "missing.csv"), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"contract_id,exposure,loss_cost\na,0.5,1.0\n\xff,1.0,2.0\n",
            b"contract_id,exposure,loss_cost\n" + b"a" * 200_000 + b",0.5,1.0\n",
        ],
        ids=["not_utf8", "field_too_large"],
    )
    def test_unparsable_input_exits_nonzero(self, tmp_path, capsys, content):
        src = tmp_path / "in.csv"
        src.write_bytes(content)
        assert main(["fit", "--input", str(src), "--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "IngestError"

    def test_directory_as_input_exits_nonzero(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "IngestError"

    def test_file_as_output_directory_exits_nonzero(self, tmp_path, capsys):
        src = _write(tmp_path / "in.csv", MINIMAL)
        assert main(["fit", "--input", str(src), "--out", str(src)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FileExistsError"
        assert src.read_text() == MINIMAL

    @pytest.mark.parametrize("command", ["compare", "balance"])
    def test_scheme_flag_is_fit_only(self, tmp_path, command):
        src = _write(tmp_path / "in.csv", MINIMAL)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--input", str(src), "--out", str(tmp_path / "o"), "--scheme", "offset"])
        assert excinfo.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "compare", "balance", "counts"])
    def test_no_tolerance_flag(self, tmp_path, command):
        # the score's rounding floor is the only stopping rule, under a fixed cap
        src = _write(tmp_path / "in.csv", MINIMAL)
        for flag, value in (("--tol", "1e-8"), ("--max-iter", "5")):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--input", str(src), "--out", str(tmp_path / "o"), flag, value])
            assert excinfo.value.code == 2
            assert not (tmp_path / "o").exists()

    def test_rank_deficient_file_exits_nonzero(self, tmp_path, capsys):
        rows = ["contract_id,exposure,loss_cost,x1,x2"]
        for i in range(6):
            rows.append(f"c{i},0.5,1.0,{i},{i}")
        src = _write(tmp_path / "in.csv", "\n".join(rows) + "\n")
        code = main(["compare", "--input", str(src), "--out", str(tmp_path / "o")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "x1" in payload["message"] and "x2" in payload["message"]

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_separated_book_exits_nonzero_naming_the_level(self, tmp_path, capsys, command):
        # every loss at x1 = 0 is zero, so neither fit has a finite optimum
        rows = ["contract_id,exposure,loss_cost,x1"]
        rows += [f"c{i},{t},{y},{x}" for i, (t, x, y) in enumerate(zip(
            (0.5, 1, 0.7, 1, 0.3, 1), (0, 0, 1, 1, 0, 1), (0, 0, 5, 7, 0, 3)
        ))]
        src = _write(tmp_path / "in.csv", "\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert main([command, "--input", str(src), "--out", str(out), "--p", "1.42"]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SingularInformationError"
        assert payload["message"].endswith("every loss is zero where x1 = 0")
        assert not out.exists()

    def test_separated_count_book_exits_nonzero_naming_the_level(self, tmp_path, capsys):
        # every count at x1 = 0 is zero, so the Poisson fit has no finite optimum;
        # unrefused, it stopped "converged" at beta = [-35.09, 33.71, -0.198]
        rng = np.random.default_rng(1)
        x1, x2 = (rng.random(100) < 0.5).tolist(), rng.normal(size=100).tolist()
        t = np.where(rng.random(100) < 0.4, rng.uniform(0.08, 0.92, 100), 1.0)
        y = np.where(x1, rng.poisson(0.3 * t), 0).tolist()
        t = t.tolist()
        rows = ["contract_id,exposure,count,x1,x2"]
        rows += [f"c{i},{t[i]!r},{y[i]},{x1[i]:d},{x2[i]!r}" for i in range(100)]
        src = _write(tmp_path / "in.csv", "\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert main(["counts", "--input", str(src), "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SingularInformationError"
        assert payload["message"].endswith("every count is zero where x1 = 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_book_separated_at_a_column_maximum_exits_nonzero(self, tmp_path, capsys, command):
        # every loss sits at x1 = 2, the top of three levels
        rows = ["contract_id,exposure,loss_cost,x1"]
        rows += [f"c{i},{t},{y},{x}" for i, (t, x, y) in enumerate(zip(
            (0.5, 1, 0.7, 1, 0.3, 1, 0.6, 0.9, 1), (0, 0, 1, 1, 2, 2, 0, 1, 2), (0, 0, 0, 0, 5, 7, 0, 0, 3)
        ))]
        src = _write(tmp_path / "in.csv", "\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert main([command, "--input", str(src), "--out", str(out), "--p", "1.42"]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SingularInformationError"
        assert payload["message"].endswith("every loss is zero where x1 < 2")
        assert not out.exists()

    def test_rank_diagnosis_ignores_column_scale(self, tmp_path, capsys):
        x1 = np.random.default_rng(4).normal(size=12)
        rows = ["contract_id,exposure,loss_cost,x1,x2"]
        rows += [f"c{i},0.5,1.0,{v!r},{1e9 * v!r}" for i, v in enumerate(x1.tolist())]
        src = _write(tmp_path / "in.csv", "\n".join(rows) + "\n")
        assert main(["fit", "--input", str(src), "--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "columns involved: x1, x2" in payload["message"]


class TestAtomicWrites:
    def test_failed_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        cli._write_csv(path, ["a"], [np.array([1.0, 2.0])])
        before = path.read_bytes()

        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        # the first chunk reaches the temp file before the second one fails
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
        with pytest.raises(RuntimeError):
            cli._write_csv(path, ["a"], [["x", "y", Unprintable()]])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_json_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        cli._write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            cli._write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_write_rejects_non_finite_values(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(tmp_path / "out.json", {"a": [1.0, value]})
        assert list(tmp_path.iterdir()) == []

    def test_overlapping_writes_to_one_name_do_not_collide(self, tmp_path):
        path = tmp_path / "out.csv"

        class WritesMeanwhile:
            def __str__(self):
                cli._write_csv(path, ["b"], [["inner"]])
                return "outer"

        cli._write_csv(path, ["a"], [[WritesMeanwhile()]])
        assert path.read_text() == "a\nouter\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_taken_temp_name_is_drawn_again(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        taken = tmp_path / f"out.json.{bytes(6).hex()}.tmp"
        taken.write_text("someone else's")
        names = iter([bytes(6), b"\x01" * 6])
        monkeypatch.setattr(cli.os, "urandom", lambda size: next(names))
        cli._write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert taken.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out.json", taken.name])

    def test_every_artifact_is_written_without_newline_translation(self, tmp_path, monkeypatch):
        # ``newline=""`` writes "\n" as it is, not as the platform's line end
        writes = []

        def spy(file, mode="r", *args, **kwargs):
            if "w" in mode:
                writes.append(kwargs.get("newline"))
            return open(file, mode, *args, **kwargs)

        src = tmp_path / "in.csv"
        write_portfolio_csv(gen_mimic_portfolio(0.4, 60, seed=2), src)
        monkeypatch.setattr(cli, "open", spy, raising=False)
        assert main(["compare", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
        assert writes == [""] * 6

    def test_file_mode_follows_umask(self, tmp_path):
        mask = os.umask(0o027)
        try:
            cli._write_json(tmp_path / "a.json", {})
            cli._write_csv(tmp_path / "a.csv", ["a"], [[1]])
        finally:
            os.umask(mask)
        for name in ("a.json", "a.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640


def _csv_writer_bytes(header, columns):
    """``header`` and ``columns`` as ``csv.writer`` writes them under the per-cell rule of ``_write_csv``."""

    def cells(column):
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            return [format(v, ".17g") for v in column.tolist()]
        return [format(v, ".17g") if isinstance(v, float) else "" if v is None else str(v) for v in column]

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(cells, columns)))
    return buffer.getvalue().encode()


# ids and free text: CSV delimiters, quotes, line breaks, spaces and non-ASCII,
# among any other character that UTF-8 can encode
CSV_TEXT = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "\u2028", "\x00"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=6,
)
CSV_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300, -1e-300, np.nan]
)
CSV_CELLS = {
    "float array": CSV_FLOATS,
    "int array": st.integers(-(2**63), 2**63 - 1),
    "ids": CSV_TEXT,
    "text list": CSV_TEXT,
    "mixed": st.none() | CSV_FLOATS | CSV_TEXT | st.integers(),
}
CSV_COLUMN_TYPES = {
    "float array": lambda cells: np.array(cells, dtype=float),
    "int array": lambda cells: np.array(cells, dtype=np.int64),
    "ids": tuple,
    "text list": list,
    "mixed": list,
}


class TestCsvOutput:
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        # chunks of three rows; cells that need quoting fall in two of them
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
        ids = ["a", "", "b", "c,d", 'e"f', "g\nh", "i\rj", " k "]
        floats = np.array([0.1, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 1.0 / 3.0])
        ints = np.arange(8)
        mixed = [None, 1.5, "x", None, 2.0, "y", None, 0.25]
        header = ["id", "float", "int", "mixed"]
        path = tmp_path / "out.csv"
        cli._write_csv(path, header, [ids, floats, ints, mixed])

        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for cid, value, count, other in zip(ids, floats.tolist(), ints.tolist(), mixed):
                other = "" if other is None else other if isinstance(other, str) else format(other, ".17g")
                writer.writerow([cid, format(value, ".17g"), str(count), other])
        assert path.read_bytes() == reference.read_bytes()

    def test_single_empty_column_cell_is_quoted_like_csv_writer(self, tmp_path):
        cli._write_csv(tmp_path / "out.csv", ["a"], [["", "b"]])
        assert (tmp_path / "out.csv").read_text() == 'a\n""\nb\n'

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_random_tables_match_csv_writer(self, data):
        n = data.draw(st.integers(0, 9), label="rows")
        kinds = data.draw(st.lists(st.sampled_from(sorted(CSV_CELLS)), min_size=1, max_size=5), label="kinds")
        header = data.draw(st.lists(CSV_TEXT, min_size=len(kinds), max_size=len(kinds)), label="header")
        columns = [
            CSV_COLUMN_TYPES[kind](data.draw(st.lists(CSV_CELLS[kind], min_size=n, max_size=n), label=kind))
            for kind in kinds
        ]
        chunk_rows = data.draw(st.integers(1, 5), label="chunk rows")
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
            path = Path(tmp) / "out.csv"
            cli._write_csv(path, header, columns)
            written = path.read_bytes()
        assert written == _csv_writer_bytes(header, columns)


def _deal_to(monkeypatch, processes, chunk_rows):
    """Make ``_write_csv`` render chunks of ``chunk_rows`` rows in ``processes`` processes."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))


def _assert_no_children():
    # every worker process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block takes longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _striped_book(path, n=40):
    """A book whose ids need quoting, some across line breaks, around the first chunk boundaries."""
    rng = np.random.default_rng(11)
    ids = [f"c{i}" for i in range(n)]
    ids[1:6] = ["a\nb", 'q"r', "s,t", "u\r\nv", ""]
    t = np.where(rng.random(n) < 0.5, 0.5, 1.0)
    x1 = np.arange(n) % 2
    y = np.where(rng.random(n) < 0.3, 0.0, rng.gamma(1.5, 10.0, n))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["contract_id", "exposure", "loss_cost", "x1", "x2"])
        for row in zip(ids, t.tolist(), y.tolist(), x1.tolist(), rng.normal(size=n).tolist()):
            writer.writerow(row)
    return path


@pytest.mark.skipif(sys.platform != "linux", reason="CSV chunks are rendered by forked workers on Linux only")
class TestStripedWriter:
    """Chunks rendered by forked workers are written in order, byte for byte as by one process."""

    def artifacts(self, tmp_path, monkeypatch, processes, chunk_rows):
        _deal_to(monkeypatch, processes, chunk_rows)
        out = tmp_path / f"{processes}-{chunk_rows}"
        book = _striped_book(tmp_path / "book.csv")
        assert main(["compare", "--input", str(book), "--out", str(out / "compare")]) == 0
        _assert_no_children()
        simulate = ["simulate", "--n", "30", "--seed", "3", "--heterogeneous"]
        assert main(simulate + ["--out", str(out / "simulate")]) == 0
        _assert_no_children()
        write_portfolio_csv(ingest_csv(book), out / "book.csv")
        cli._write_csv(out / "one_column.csv", ["a"], [["", "b", "", "c\nd", "", "e"]])
        _assert_no_children()
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_artifacts_do_not_depend_on_chunks_or_processes(self, tmp_path, monkeypatch):
        reference = self.artifacts(tmp_path, monkeypatch, 1, 4096)
        assert len(reference) == 10
        assert reference["one_column.csv"] == b'a\n""\nb\n""\n"c\nd"\n""\ne\n'
        assert b'"a\nb"' in reference["book.csv"] and b'"u\r\nv"' in reference["compare/gaps.csv"]
        for processes in (1, 2, 4):
            for chunk_rows in (1, 3, 4096):
                assert self.artifacts(tmp_path, monkeypatch, processes, chunk_rows) == reference, (processes, chunk_rows)

    def test_failed_worker_fails_the_command(self, tmp_path, monkeypatch, capsys):
        _deal_to(monkeypatch, 2, 1)
        parent = os.getpid()

        def text_cells(column, alone, real=cli._text_cells):
            if os.getpid() != parent:
                raise RuntimeError("cannot render")
            return real(column, alone)

        monkeypatch.setattr(cli, "_text_cells", text_cells)
        out = tmp_path / "out"
        assert main(["compare", "--input", str(_striped_book(tmp_path / "book.csv")), "--out", str(out)]) == 1
        _assert_no_children()
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "RuntimeError"
        # the first file written after fit.json fails in its second chunk, the worker's first
        assert payload["message"] == "the worker process rendering coeff_ratios.csv from data row 2 failed"
        assert [p.name for p in out.iterdir()] == ["fit.json"]

    def test_failing_parent_reaps_blocked_workers(self, tmp_path, monkeypatch):
        # Each worker's chunk is larger than a pipe holds (1 MiB at most), so
        # the workers are still writing when this process fails on its own
        # second chunk.
        _deal_to(monkeypatch, 4, 1)
        parent = os.getpid()

        class FailsHere:
            def __str__(self):
                if os.getpid() == parent:
                    raise ValueError("cannot render")
                return "late"

        path = tmp_path / "out.csv"
        cells = ["x" * 1_500_000] * 4 + [FailsHere()] + ["y" * 1_500_000] * 3
        with _deadline(60), pytest.raises(ValueError, match="cannot render"):
            cli._write_csv(path, ["a"], [cells])
        _assert_no_children()
        assert list(tmp_path.iterdir()) == []


class TestUsage:
    def test_readme_synopsis_lists_every_flag(self):
        # each ``exposure-glm <command>`` line of the README's CLI block names
        # exactly the flags of that command's parser (text after ``#`` aside)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```")[1]
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        documented = {}
        for line in block.splitlines():
            words = line.split("#", 1)[0].split()
            if words[:1] == ["exposure-glm"]:
                documented[words[1]] = {w.strip("[]") for w in words if w.strip("[]").startswith("--")}
        assert set(documented) == {"fit", "compare", "simulate", "counts"}
        for command, flags in documented.items():
            options = {o for a in subparsers.choices[command]._actions for o in a.option_strings}
            assert flags == options - {"-h", "--help"}, command


@pytest.fixture
def restore_package_logger():
    """Put back the level, handlers and propagation of the ``exposure_glm`` logger, which ``main`` sets."""
    logger = logging.getLogger("exposure_glm")
    saved = logger.level, logger.handlers[:], logger.propagate
    yield
    logger.setLevel(saved[0])
    logger.handlers[:] = saved[1]
    logger.propagate = saved[2]


@pytest.mark.usefixtures("restore_package_logger")
class TestLogging:
    """Every ``main`` call reads ``EXPOSURE_GLM_LOG`` and logs to that call's stderr."""

    @staticmethod
    def simulate(monkeypatch, capsys, out, level):
        """What ``exposure-glm simulate`` writes to stderr under ``EXPOSURE_GLM_LOG=level``."""
        monkeypatch.setenv("EXPOSURE_GLM_LOG", level)
        capsys.readouterr()
        assert main(["simulate", "--n", "20", "--out", str(out)]) == 0
        return capsys.readouterr().err

    @pytest.mark.parametrize("levels", [("error", "info"), ("info", "error")], ids=["error_first", "info_first"])
    def test_each_run_reads_the_level(self, tmp_path, monkeypatch, capsys, levels):
        root = logging.getLogger()
        before = root.level, root.handlers[:]
        for level in levels:
            err = self.simulate(monkeypatch, capsys, tmp_path / level, level)
            written = [tmp_path / level / name for name in ("gap_experiment.csv", "gap_totals.json")]
            assert err == ("".join(f"INFO exposure_glm: wrote {path}\n" for path in written) if level == "info" else "")
        assert (root.level, root.handlers) == before

    def test_debug_prints_what_info_prints(self, tmp_path, monkeypatch, capsys):
        info = self.simulate(monkeypatch, capsys, tmp_path, "info")
        assert info and self.simulate(monkeypatch, capsys, tmp_path, "debug") == info

    def test_unknown_level_acts_as_error(self, tmp_path, monkeypatch, capsys):
        assert self.simulate(monkeypatch, capsys, tmp_path, "info")
        assert self.simulate(monkeypatch, capsys, tmp_path, "verbose") == ""
