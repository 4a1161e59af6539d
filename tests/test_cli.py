"""CLI surface: ingestion diagnostics, output schemas, determinism, exit codes."""

import csv
import json
import os
import stat

import numpy as np
import pytest

from exposure_glm import cli
from exposure_glm.cli import IngestError, ingest_csv, ingest_counts_csv, main, write_portfolio_csv
from exposure_glm.simulate import Scenario, ScenarioConfig, build_scenario_portfolio, gen_mimic_portfolio


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL = "contract_id,exposure,loss_cost,x1\na,0.5,10.0,0\nb,1.0,20.0,1\n"


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

    def test_duplicate_contract_id_names_second_row(self, tmp_path):
        text = "contract_id,exposure,loss_cost\na,0.5,1.0\nb,1.0,2.0\na,0.5,3.0\nc,1.0,1.5\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(_write(tmp_path / "in.csv", text))
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

    def test_counts_first_error_in_row_major_order(self, tmp_path):
        text = "contract_id,exposure,count,x1\na,0.5,1,0\nb,0.5,2,nan\nc,2.0,1,1\nd,0.5,-1,0\n"
        with pytest.raises(IngestError) as excinfo:
            ingest_counts_csv(_write(tmp_path / "in.csv", text))
        assert (excinfo.value.row, excinfo.value.column) == (3, "x1")

    def test_portfolio_round_trip(self, tmp_path):
        synthetic = gen_mimic_portfolio(0.4, 50, seed=1)
        path = tmp_path / "book.csv"
        write_portfolio_csv(synthetic.portfolio, path)
        loaded = ingest_csv(path)
        np.testing.assert_array_equal(loaded.exposures, synthetic.portfolio.exposures)
        np.testing.assert_array_equal(loaded.loss_costs, synthetic.portfolio.loss_costs)
        np.testing.assert_array_equal(loaded.design, synthetic.portfolio.design)


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
        synthetic = build_scenario_portfolio(
            ScenarioConfig(n=100, scenario=Scenario.DECREASING, heterogeneous=True, seed=3)
        )
        src = tmp_path / "in.csv"
        write_portfolio_csv(synthetic.portfolio, src)
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
        write_portfolio_csv(gen_mimic_portfolio(0.4, 60, seed=2).portfolio, src)
        flags = ["--input", str(src), "--p", "1.3", "--phi", "2.5", "--tol", "1e-10"]
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


class TestBalanceCommand:
    def test_balance_json(self, tmp_path):
        synthetic = gen_mimic_portfolio(0.36, 80, seed=7)
        src = tmp_path / "in.csv"
        write_portfolio_csv(synthetic.portfolio, src)
        out = tmp_path / "out"
        assert main(["balance", "--input", str(src), "--out", str(out)]) == 0
        payload = json.loads((out / "balance.json").read_text())
        assert abs(payload["balance_factor_ratio"] - 1.0) < 0.2
        assert (out / "gaps.csv").exists() and (out / "class_balance.csv").exists()


class TestCountsCommand:
    def test_counts_outputs(self, tmp_path):
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
        src = _write(tmp_path / "counts.csv", "\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["counts", "--input", str(src), "--out", str(out)]) == 0
        payload = json.loads((out / "counts.json").read_text())
        assert payload["poisson_max_coefficient_diff"] < 1e-8
        assert not payload["zip_equivalent"]


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

    def test_rank_deficient_file_exits_nonzero(self, tmp_path, capsys):
        rows = ["contract_id,exposure,loss_cost,x1,x2"]
        for i in range(6):
            rows.append(f"c{i},0.5,1.0,{i},{i}")
        src = _write(tmp_path / "in.csv", "\n".join(rows) + "\n")
        code = main(["compare", "--input", str(src), "--out", str(tmp_path / "o")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "x1" in payload["message"] and "x2" in payload["message"]


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

    def test_overlapping_writes_to_one_name_do_not_collide(self, tmp_path):
        path = tmp_path / "out.csv"

        class WritesMeanwhile:
            def __str__(self):
                cli._write_csv(path, ["b"], [["inner"]])
                return "outer"

        cli._write_csv(path, ["a"], [[WritesMeanwhile()]])
        assert path.read_text() == "a\nouter\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_file_mode_follows_umask(self, tmp_path):
        mask = os.umask(0o027)
        try:
            cli._write_json(tmp_path / "a.json", {})
            cli._write_csv(tmp_path / "a.csv", ["a"], [[1]])
        finally:
            os.umask(mask)
        for name in ("a.json", "a.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640


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
