import contextlib
import datetime
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effport import cli, kelly
from effport.corrmat import uniform_matrix
from effport.kelly import MAX_SYMMETRIC_ASSETS
from effport.errors import fmt_float
from effport.marketdata import panel_from_returns, write_prices_csv


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corr_file(path, values, assets=None):
    assets = assets or [f"A{i}" for i in range(len(values))]
    lines = ["\t".join(["asset", *assets])]
    for name, row in zip(assets, values):
        lines.append("\t".join([name, *[fmt_float(v) for v in row]]))
    path.write_text("\n".join(lines) + "\n")
    return assets


def assert_usage_error(code, stdout, stderr, message):
    """Exit 1 with nothing on stdout and the library's message on stderr."""
    assert (code, stdout) == (1, "")
    assert stderr == f"effport: error: {message}\n"


CAP_MESSAGE = (
    f"the symmetric growth solvers support at most {MAX_SYMMETRIC_ASSETS} assets, "
    f"got {MAX_SYMMETRIC_ASSETS + 1}"
)


def parse_table(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    return header, rows


@pytest.fixture
def small_panel_path(tmp_path):
    rng = np.random.default_rng(40)
    common = rng.standard_normal((300, 1))
    noise = rng.standard_normal((300, 5))
    returns = 0.01 * (np.sqrt(0.3) * common + np.sqrt(0.7) * noise)
    path = tmp_path / "prices.csv"
    write_prices_csv(panel_from_returns(returns, assets=list("ABCDE")), path)
    return path


class TestEstimateCorr:
    def test_matrix_and_summary(self, tmp_path, small_panel_path, capsys):
        out = tmp_path / "corr.tsv"
        code, stdout, _ = run(
            ["estimate-corr", str(small_panel_path), "--out", str(out)], capsys
        )
        assert code == 0
        header, rows = parse_table(stdout)
        assert header == ["M", "mean_corr", "eig_min", "eig_max"]
        assert rows[0][0] == "5"
        assert abs(float(rows[0][1]) - 0.3) < 0.1
        mat_header, mat_rows = parse_table(out.read_text())
        assert mat_header == ["asset", "A", "B", "C", "D", "E"]
        values = np.array([[float(v) for v in r[1:]] for r in mat_rows])
        assert np.allclose(np.diag(values), 1.0)
        assert np.allclose(values, values.T)

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A\n2020-01-02,100\n2020-01-03,oops\n")
        code, _, err = run(["estimate-corr", str(bad)], capsys)
        assert code == 2
        assert "line 3" in err

    def test_oversized_price_field_exits_2(self, tmp_path, capsys):
        # longer than csv.field_size_limit(): the row reader's csv.Error
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A\n2020-01-02,100\n2020-01-03,1." + "0" * 131072 + "\n")
        code, _, err = run(["estimate-corr", str(bad)], capsys)
        assert code == 2
        assert "line 3" in err and "field larger than field limit" in err

    # the loader reads the quoted name A<tab>B, which a TSV header cannot hold
    @pytest.mark.parametrize("out", [[], ["--out", "corr.tsv"]])
    def test_name_holding_a_tab_exits_2_before_writing(self, out, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.csv").write_text('date,"A\tB",C\n2020-01-02,1,2\n2020-01-03,2,1\n'
                                        "2020-01-06,1.5,3\n")
        code, stdout, stderr = run(["estimate-corr", "p.csv", *out], capsys)
        assert (code, stdout) == (2, "")
        assert stderr == ("effport: data error: header field 'A\\tB' holds '\\t', "
                          "so it would not read back\n")
        assert not (tmp_path / "corr.tsv").exists()

    def test_input_file_not_mutated(self, tmp_path, small_panel_path, capsys):
        before = small_panel_path.read_bytes()
        run(["estimate-corr", str(small_panel_path), "--out", str(tmp_path / "o.tsv")], capsys)
        assert small_panel_path.read_bytes() == before

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(["estimate-corr", "/nonexistent/prices.csv"], capsys)
        assert code == 2


class TestEffsize:
    def test_identity_matrix_file(self, tmp_path, capsys):
        corr = tmp_path / "corr.tsv"
        write_corr_file(corr, np.eye(5))
        code, stdout, _ = run(["effsize", "--corr", str(corr)], capsys)
        assert code == 0
        header, rows = parse_table(stdout)
        assert header == ["M", "m_exact", "m_even", "m_uniform", "m_sector"]
        assert rows[0][0] == "5"
        assert float(rows[0][1]) == pytest.approx(5.0)
        assert float(rows[0][2]) == pytest.approx(5.0)
        assert rows[0][4] == "nan"

    def test_uniform_30_0322(self, tmp_path, capsys):
        corr = tmp_path / "corr.tsv"
        write_corr_file(corr, uniform_matrix(30, 0.322).values)
        code, stdout, _ = run(["effsize", "--corr", str(corr)], capsys)
        assert code == 0
        _, rows = parse_table(stdout)
        assert float(rows[0][1]) == pytest.approx(2.90, abs=0.01)  # m_exact
        assert float(rows[0][2]) == pytest.approx(2.90, abs=0.01)  # m_even

    def test_sectors_populate_column(self, tmp_path, capsys):
        corr = tmp_path / "corr.tsv"
        assets = write_corr_file(corr, uniform_matrix(4, 0.2).values)
        sect = tmp_path / "sectors.csv"
        sect.write_text(
            "asset,sector\n" + "\n".join(f"{a},s{i % 2}" for i, a in enumerate(assets)) + "\n"
        )
        code, stdout, _ = run(
            ["effsize", "--corr", str(corr), "--sectors", str(sect)], capsys
        )
        assert code == 0
        _, rows = parse_table(stdout)
        assert rows[0][4] != "nan"

    def test_prices_input(self, small_panel_path, capsys):
        code, stdout, _ = run(["effsize", "--prices", str(small_panel_path)], capsys)
        assert code == 0
        _, rows = parse_table(stdout)
        assert float(rows[0][1]) > 1.0

    def test_requires_exactly_one_input(self, small_panel_path, capsys):
        code, _, _ = run(["effsize"], capsys)
        assert code == 1
        code, _, _ = run(
            ["effsize", "--prices", str(small_panel_path), "--corr", "x.tsv"], capsys
        )
        assert code == 1

    def test_oversized_corr_field_exits_2(self, tmp_path, capsys):
        corr = tmp_path / "corr.tsv"
        corr.write_text("asset\tA\tB\nA\t1\t0\nB\t0\t1." + "0" * 131072 + "\n")
        code, _, err = run(["effsize", "--corr", str(corr)], capsys)
        assert code == 2
        assert "line 3" in err and "field larger than field limit" in err

    def test_oversized_sector_field_exits_2(self, tmp_path, small_panel_path, capsys):
        sect = tmp_path / "sectors.csv"
        sect.write_text("asset,sector\nA,s0\nB," + "s" * 131073 + "\n")
        code, _, err = run(
            ["effsize", "--prices", str(small_panel_path), "--sectors", str(sect)], capsys
        )
        assert code == 2
        assert "line 3" in err and "field larger than field limit" in err

    def test_corr_file_without_rows_exits_2(self, tmp_path, capsys):
        corr = tmp_path / "corr.tsv"
        corr.write_text("asset\tA\tB\n\n")
        code, stdout, err = run(["effsize", "--corr", str(corr)], capsys)
        assert code == 2
        assert stdout == ""
        assert "file holds no data rows" in err

    def test_duplicated_assets_exit_3(self, tmp_path, capsys):
        corr = tmp_path / "corr.tsv"
        write_corr_file(corr, np.array([[1.0, 1.0], [1.0, 1.0]]))
        code, _, err = run(["effsize", "--corr", str(corr)], capsys)
        assert code == 3
        assert "numerical error" in err

    def test_indefinite_matrix_exit_3(self, tmp_path, capsys):
        # eigenvalues -0.8, 1.9, 1.9: no return series has this correlation
        corr = tmp_path / "corr.tsv"
        write_corr_file(corr, np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]))
        code, stdout, err = run(["effsize", "--corr", str(corr)], capsys)
        assert code == 3
        assert stdout == ""
        assert "lambda_min = -0.8 " in err


class TestSubsetCurve:
    def test_table_shape_and_determinism(self, tmp_path, sample_prices_path,
                                          sample_sectors_path, capsys):
        out_a = tmp_path / "a.tsv"
        out_b = tmp_path / "b.tsv"
        argv = [
            "subset-curve", "--prices", str(sample_prices_path),
            "--sectors", str(sample_sectors_path),
            "--sizes", "2,5,10", "--draws", "60", "--seed", "11",
        ]
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        header, rows = parse_table(out_a.read_text())
        assert header == ["M", "m_exact", "m_sector", "m_even"]
        assert [r[0] for r in rows] == ["2", "5", "10"]

    def test_different_seed_changes_output(self, tmp_path, sample_prices_path, capsys):
        args = ["subset-curve", "--prices", str(sample_prices_path),
                "--sizes", "3", "--draws", "40"]
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        assert cli.main(args + ["--seed", "1", "--out", str(a)]) == 0
        assert cli.main(args + ["--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text() != b.read_text()

    def test_bad_sizes_exit_1(self, sample_prices_path, capsys):
        code, _, _ = run(
            ["subset-curve", "--prices", str(sample_prices_path), "--sizes", "1,5"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--sizes", ""], "need at least one portfolio size"),
        (["--sizes", "5,1"], "every portfolio size must be >= 2, got (5, 1)"),
        (["--sizes", "2", "--draws", "0"], "draws must be >= 1, got 0"),
        (["--sizes", "2", "--seed=-1"], "seed must be >= 0, got -1"),
    ])
    def test_flag_refusals_exit_1(self, flags, message, sample_prices_path, capsys):
        argv = ["subset-curve", "--prices", str(sample_prices_path), *flags]
        assert_usage_error(*run(argv, capsys), message)

    def test_flags_checked_before_the_panel_is_read(self, tmp_path, capsys):
        argv = ["subset-curve", "--prices", str(tmp_path / "absent.csv"), "--sizes", "1"]
        assert_usage_error(*run(argv, capsys), "every portfolio size must be >= 2, got (1,)")

    def test_size_above_universe_exits_2(self, sample_prices_path, capsys):
        code, stdout, stderr = run(
            ["subset-curve", "--prices", str(sample_prices_path), "--sizes", "2,41",
             "--draws", "5"], capsys
        )
        assert (code, stdout) == (2, "")
        assert "portfolio size 41 exceeds the 40-asset universe" in stderr


class TestSliding:
    def test_table(self, small_panel_path, capsys):
        code, stdout, stderr = run(
            ["sliding", "--prices", str(small_panel_path), "--window", "100",
             "--step", "50"], capsys
        )
        assert code == 0
        header, rows = parse_table(stdout)
        assert header == ["date", "m_ef", "annual_return"]
        assert len(rows) == (301 - 100) // 50 + 1
        assert all(np.isfinite(float(r[1])) for r in rows)
        assert stderr == ""

    def test_near_singular_windows_reported(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        returns = 0.01 * rng.standard_normal((300, 4))
        # the twin copies asset A for the first 150 days: windows inside them
        # are singular
        twin = np.where(np.arange(300) < 150, returns[:, 0], 0.01 * rng.standard_normal(300))
        path = tmp_path / "twin.csv"
        write_prices_csv(
            panel_from_returns(np.column_stack([returns, twin]), assets=list("ABCDT")), path
        )
        code, stdout, stderr = run(
            ["sliding", "--prices", str(path), "--window", "100", "--step", "50"], capsys
        )
        assert code == 0
        _, rows = parse_table(stdout)
        assert [r[1] == "nan" for r in rows] == [True, True, False, False, False]
        assert "2 near-singular windows out of 5" in stderr

    def test_window_too_short_exit_1(self, small_panel_path, capsys):
        code, _, _ = run(
            ["sliding", "--prices", str(small_panel_path), "--window", "10"], capsys
        )
        assert code == 1

    def test_step_zero_exit_1(self, small_panel_path, capsys):
        argv = ["sliding", "--prices", str(small_panel_path), "--step", "0"]
        assert_usage_error(*run(argv, capsys), "window step must be >= 1, got 0")

    def test_window_longer_than_panel_exit_2(self, small_panel_path, capsys):
        code, _, _ = run(
            ["sliding", "--prices", str(small_panel_path), "--window", "999"], capsys
        )
        assert code == 2


class TestFig1:
    def test_zero_correlation_rows_match_m(self, capsys):
        code, stdout, _ = run(
            ["fig1", "--m", "4", "--p-list", "0.55", "--c-grid", "0,0.5,1"], capsys
        )
        assert code == 0
        header, rows = parse_table(stdout)
        assert header == ["p", "C", "m_ef_approx", "m_ef_numeric"]
        assert float(rows[0][2]) == pytest.approx(4.0)
        assert float(rows[0][3]) == pytest.approx(4.0, abs=1e-5)
        # perfectly correlated row collapses to one asset
        assert float(rows[-1][2]) == pytest.approx(1.0)
        assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-5)

    def test_approximation_close_for_small_edge(self, capsys):
        code, stdout, _ = run(
            ["fig1", "--m", "6", "--p-list", "0.55", "--c-grid", "0.2,0.4"], capsys
        )
        assert code == 0
        _, rows = parse_table(stdout)
        for row in rows:
            assert abs(float(row[2]) - float(row[3])) < 0.1

    def test_rejects_low_probability(self, capsys):
        code, _, _ = run(["fig1", "--p-list", "0.4"], capsys)
        assert code == 1

    def test_rejects_big_m(self, capsys):
        code, _, _ = run(["fig1", "--m", str(MAX_SYMMETRIC_ASSETS + 1)], capsys)
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--p-list", "0.5"], "win probability must exceed 1/2, got 0.5"),
        (["--p-list", "0.55,1"], "win probability must lie in (0, 1), got 1.0"),
        (["--c-grid", "0,1.5"], "correlation must lie in [0, 1], got 1.5"),
        (["--c-grid", "-0.05"], "correlation must lie in [0, 1], got -0.05"),
        (["--m", "0"], "asset count must be >= 1, got 0"),
        (["--m", "0", "--c-grid", ","], "asset count must be >= 1, got 0"),
        (["--m", str(MAX_SYMMETRIC_ASSETS + 1)], CAP_MESSAGE),
        (["--m", "0", "--p-list", ","], "need at least one win probability"),
        (["--m", "5000", "--p-list", ","], "need at least one win probability"),
    ])
    def test_flag_refusals_exit_1(self, flags, message, capsys):
        assert_usage_error(*run(["fig1", *flags], capsys), message)

    def test_m_beyond_enumeration_limit(self, capsys):
        # the win-count law replaced the 2^M table, so M > 20 now solves
        code, stdout, _ = run(["fig1", "--m", "25"], capsys)
        assert code == 0
        _, rows = parse_table(stdout)
        assert len(rows) == 3 * 21
        assert all(1.0 <= float(row[3]) <= 25.0 for row in rows)


class TestFig2:
    def test_peak_at_true_correlation(self, capsys):
        code, stdout, _ = run(
            ["fig2", "--m", "6", "--p", "0.55", "--c-true", "0.2",
             "--c-grid", "0,0.1,0.2,0.3,0.4"], capsys
        )
        assert code == 0
        header, rows = parse_table(stdout)
        assert header == ["C_assumed", "G_realized"]
        gs = [float(r[1]) for r in rows]
        assert rows[int(np.argmax(gs))][0] == "0.2"

    def test_default_grid(self, capsys):
        code, stdout, _ = run(["fig2", "--m", "4"], capsys)
        assert code == 0
        _, rows = parse_table(stdout)
        assert len(rows) == 13
        assert rows[0][0] == "0" and rows[-1][0] == "0.6"

    def test_rejects_bad_c_true(self, capsys):
        code, _, _ = run(["fig2", "--c-true", "1.5"], capsys)
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--p", "0"], "win probability must lie in (0, 1), got 0.0"),
        (["--p", "1"], "win probability must lie in (0, 1), got 1.0"),
        (["--c-true", "-0.1"], "correlation must lie in [0, 1], got -0.1"),
        (["--c-grid", "0.1,1.2"], "correlation must lie in [0, 1], got 1.2"),
        (["--m", "0"], "asset count must be >= 1, got 0"),
        (["--m", str(MAX_SYMMETRIC_ASSETS + 1)], CAP_MESSAGE),
    ])
    def test_flag_refusals_exit_1(self, flags, message, capsys):
        assert_usage_error(*run(["fig2", *flags], capsys), message)


@pytest.mark.parametrize("argv, message", [
    (["fig1", "--m", str(MAX_SYMMETRIC_ASSETS + 1)], CAP_MESSAGE),
    (["fig2", "--m", str(MAX_SYMMETRIC_ASSETS + 1)], CAP_MESSAGE),
    (["fig2", "--c-grid", "0,0.1,0.2,1.2"], "correlation must lie in [0, 1], got 1.2"),
    # the refused second p costs no solve of the first
    (["fig1", "--m", "10", "--p-list", "0.55,0.4"], "win probability must exceed 1/2, got 0.4"),
])
def test_flag_refusal_builds_no_law(argv, message, monkeypatch, capsys):
    built = []
    real_law = kelly.win_count_law

    def law(params):
        built.append(params.m)
        if params.m > MAX_SYMMETRIC_ASSETS:
            raise AssertionError(f"law of {params.m} assets built")
        return real_law(params)

    monkeypatch.setattr(kelly, "win_count_law", law)
    assert_usage_error(*run(argv, capsys), message)
    assert built == []


class TestVarianceRatio:
    def make_files(self, tmp_path, rho=0.0, m=6, t=4000, seed=3):
        rng = np.random.default_rng(seed)
        common = rng.standard_normal((t, 1))
        noise = rng.standard_normal((t, m))
        returns = 0.01 * (np.sqrt(rho) * common + np.sqrt(1 - rho) * noise)
        cons = tmp_path / "cons.csv"
        write_prices_csv(panel_from_returns(returns), cons)
        idx = tmp_path / "idx.csv"
        write_prices_csv(
            panel_from_returns(returns.mean(axis=1, keepdims=True), assets=["IDX"]), idx
        )
        return idx, cons

    def test_equal_weight_uncorrelated_index(self, tmp_path, capsys):
        idx, cons = self.make_files(tmp_path)
        code, stdout, _ = run(
            ["variance-ratio", "--index", str(idx), "--constituents", str(cons)], capsys
        )
        assert code == 0
        header, rows = parse_table(stdout)
        assert header == ["M", "mean_constituent_variance", "index_variance", "ratio"]
        assert float(rows[0][3]) == pytest.approx(6.0, rel=0.05)

    def test_index_equal_to_single_constituent(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        returns = rng.uniform(-0.02, 0.02, size=(50, 1))
        cons = tmp_path / "c.csv"
        idx = tmp_path / "i.csv"
        write_prices_csv(panel_from_returns(returns, assets=["A"]), cons)
        write_prices_csv(panel_from_returns(returns, assets=["IDX"]), idx)
        code, stdout, _ = run(
            ["variance-ratio", "--index", str(idx), "--constituents", str(cons)], capsys
        )
        assert code == 0
        _, rows = parse_table(stdout)
        assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-9)

    def test_multi_asset_index_rejected(self, tmp_path, capsys):
        idx, cons = self.make_files(tmp_path)
        code, _, _ = run(
            ["variance-ratio", "--index", str(cons), "--constituents", str(cons)], capsys
        )
        assert code == 2

    def test_date_mismatch_rejected(self, tmp_path, capsys):
        idx, cons = self.make_files(tmp_path)
        other = tmp_path / "other.csv"
        rng = np.random.default_rng(9)
        write_prices_csv(
            panel_from_returns(rng.uniform(-0.01, 0.01, size=(30, 1)), assets=["IDX"]),
            other,
        )
        code, _, _ = run(
            ["variance-ratio", "--index", str(other), "--constituents", str(cons)], capsys
        )
        assert code == 2


BOM_MESSAGE = "file starts with a UTF-8 byte-order mark; save it without one"
SECTOR_HEADER_MESSAGE = "header must be 'asset,sector'"

#: A file of each input format under one header, and the command that reads it.
HEADER_FORMATS = {
    "prices": (",", "2020-01-01,1,2\n2020-01-02,2,1\n2020-01-03,1.5,3\n",
               lambda path, prices: ["estimate-corr", path]),
    "sectors": (",", "A,s0\nB,s1\nC,s0\nD,s1\nE,s0\n",
                lambda path, prices: ["effsize", "--prices", prices, "--sectors", path]),
    "corr": ("\t", "A\t1\t0\n\t0\t1\n", lambda path, prices: ["effsize", "--corr", path]),
}


# one header rule for every input table: each fault is refused at line 1 by name
@pytest.mark.parametrize("kind, header, message", [
    ("prices", ["\ufeffdate", "A", "B"], BOM_MESSAGE),
    ("prices", ["date", "A", ""], "blank asset name in header field 3"),
    ("prices", ["date", "A", "A"], "duplicate asset names in header"),
    ("prices", ["day", "A", "B"], "header must start with a 'date' column"),
    ("prices", ["date"], "header lists no asset columns"),
    ("sectors", ["\ufeffasset", "sector"], BOM_MESSAGE),
    # after its 'asset' column a sector header must be exactly 'sector'; other
    # names are refused as a whole, not as faults in a list of asset names
    ("sectors", ["asset", ""], SECTOR_HEADER_MESSAGE),
    ("sectors", ["asset", "sector", "sector"], SECTOR_HEADER_MESSAGE),
    ("sectors", ["name", "sector"], "header must start with an 'asset' column"),
    ("sectors", ["asset"], SECTOR_HEADER_MESSAGE),
    ("corr", ["\ufeffasset", "A", "B"], BOM_MESSAGE),
    ("corr", ["asset", "A", ""], "blank asset name in header field 3"),
    ("corr", ["asset", "A", "A"], "duplicate asset names in header"),
    ("corr", ["name", "A", "B"], "header must start with an 'asset' column"),
    ("corr", ["asset"], "header lists no asset columns"),
])
def test_header_rule_exits_2(kind, header, message, tmp_path, small_panel_path, capsys):
    delimiter, rows, command = HEADER_FORMATS[kind]
    path = tmp_path / "table.txt"
    path.write_text(delimiter.join(header) + "\n" + rows, encoding="utf-8")
    code, stdout, stderr = run(command(str(path), str(small_panel_path)), capsys)
    assert (code, stdout) == (2, "")
    assert stderr == f"effport: data error: line 1: {message}\n"


# a file that is not UTF-8 is refused where it is read, naming the first line
# and bytes at fault; the corr file ends inside a multi-byte sequence
@pytest.mark.parametrize("kind, header, line, bad, shown", [
    ("prices", "date,A,B", 1, b"\xff", "0xff"),
    ("sectors", "asset,sector", 3, b"\xe9", "0xe9"),
    ("corr", "asset\tA\tB", 4, b"\xe2\x82", "0xe2 0x82"),
])
def test_bytes_not_utf8_exit_2(kind, header, line, bad, shown, tmp_path, small_panel_path,
                               capsys):
    delimiter, rows, command = HEADER_FORMATS[kind]
    lines = f"{header}\n{rows}".encode().split(b"\n")
    lines[line - 1] += bad
    path = tmp_path / "table.txt"
    path.write_bytes(b"\n".join(lines))
    code, stdout, stderr = run(command(str(path), str(small_panel_path)), capsys)
    assert (code, stdout) == (2, "")
    assert stderr == f"effport: data error: line {line}: bytes {shown} are not UTF-8\n"


class TestReturnsRefusal:
    """Every command that reads returns from prices refuses bad returns alike."""

    ONE_ASSET = "date,IDX\n2020-01-01,1\n2020-01-02,2\n2020-01-03,3\n"

    @pytest.mark.parametrize("command", [["estimate-corr"], ["effsize", "--prices"]])
    def test_one_asset_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(self.ONE_ASSET)
        code, out, err = run([*command, str(path)], capsys)
        assert (code, out) == (2, "")
        assert "need at least 2 series, got 1" in err

    # 1e20 followed by 1e-5 gives a return that rounds to exactly -1; 1e-300
    # followed by 1e300 one that overflows
    @pytest.mark.parametrize("first, second, message", [
        ("1e20", "1e-5", "series 'A': every return must exceed -1"),
        ("1e-300", "1e300", "series 'A': returns must be finite"),
    ])
    @pytest.mark.parametrize(
        "command", ["estimate-corr", "effsize", "variance-ratio", "subset-curve", "sliding"]
    )
    # the refusal is the only thing on stderr: a numpy warning would fail the test
    @pytest.mark.filterwarnings("error")
    def test_bad_return_exits_2_naming_first_asset(
        self, command, first, second, message, tmp_path, capsys
    ):
        # 40 days, enough for a 30-day window; Z comes first and is fine, A
        # and B both fail at their first return, and A is named
        dates = [(datetime.date(2020, 1, 1) + datetime.timedelta(d)).isoformat()
                 for d in range(40)]
        cells = [f"{first},{first}", f"{second},{second}"] + ["1,1", "2,2"] * 19
        prices = tmp_path / "bad.csv"
        prices.write_text("date,Z,A,B\n" + "".join(
            f"{day},{k + 1},{ab}\n" for k, (day, ab) in enumerate(zip(dates, cells))
        ))
        index = tmp_path / "index.csv"
        index.write_text("date,IDX\n" + "".join(f"{d},{k + 1}\n" for k, d in enumerate(dates)))
        argv = {
            "estimate-corr": ["estimate-corr", str(prices)],
            "effsize": ["effsize", "--prices", str(prices)],
            "variance-ratio": ["variance-ratio", "--index", str(index),
                               "--constituents", str(prices)],
            "subset-curve": ["subset-curve", "--prices", str(prices), "--sizes", "2"],
            "sliding": ["sliding", "--prices", str(prices), "--window", "30", "--step", "5"],
        }[command]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"effport: data error: {message}\n")

    @pytest.mark.parametrize("command", ["estimate-corr", "effsize", "variance-ratio", "sliding"])
    def test_no_assets_exits_2(self, command, tmp_path, capsys):
        # one blank row drops every asset
        days = [(datetime.date(2020, 1, 1) + datetime.timedelta(d)).isoformat()
                for d in range(40)]
        prices = tmp_path / "blank_row.csv"
        prices.write_text("date,A,B\n" + "".join(
            f"{d},{'' if k == 5 else k + 1},{'' if k == 5 else 2}\n" for k, d in enumerate(days)))
        index = tmp_path / "index.csv"
        index.write_text("date,IDX\n" + "".join(f"{d},{k + 1}\n" for k, d in enumerate(days)))
        argv = {
            "estimate-corr": ["estimate-corr", str(prices)],
            "effsize": ["effsize", "--prices", str(prices)],
            "variance-ratio": ["variance-ratio", "--index", str(index),
                               "--constituents", str(prices)],
            "sliding": ["sliding", "--prices", str(prices), "--window", "30"],
        }[command]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == ("dropped 2 asset(s) with missing quotes: A, B\n"
                       "effport: data error: panel holds no assets\n")

    @pytest.mark.parametrize("dates", [1, 2])
    @pytest.mark.parametrize(
        "command", ["estimate-corr", "effsize", "variance-ratio", "subset-curve"]
    )
    def test_short_panel_exits_2_with_one_message(self, command, dates, tmp_path, capsys):
        days = ["2020-01-02", "2020-01-03"][:dates]
        prices = tmp_path / "short.csv"
        prices.write_text("date,A,B\n" + "".join(f"{d},{k + 1},2\n" for k, d in enumerate(days)))
        index = tmp_path / "index.csv"
        index.write_text("date,IDX\n" + "".join(f"{d},{k + 1}\n" for k, d in enumerate(days)))
        argv = {
            "estimate-corr": ["estimate-corr", str(prices)],
            "effsize": ["effsize", "--prices", str(prices)],
            "variance-ratio": ["variance-ratio", "--index", str(index),
                               "--constituents", str(prices)],
            "subset-curve": ["subset-curve", "--prices", str(prices), "--sizes", "2"],
        }[command]
        code, out, err = run(argv, capsys)
        message = f"need at least 3 dates for 2 returns, got {dates}"
        assert (code, out, err) == (2, "", f"effport: data error: {message}\n")


class TestDroppedAssets:
    COMMANDS = {
        "estimate-corr": ["estimate-corr", "{prices}"],
        "effsize": ["effsize", "--prices", "{prices}"],
        "subset-curve": ["subset-curve", "--prices", "{prices}", "--sizes", "2,3", "--draws", "20"],
        "sliding": ["sliding", "--prices", "{prices}", "--window", "100", "--step", "50"],
        "variance-ratio": ["variance-ratio", "--index", "{index}", "--constituents", "{prices}"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_report_and_unchanged_stdout(self, command, tmp_path, small_panel_path, capsys):
        rows = [ln.split(",") for ln in small_panel_path.read_text().splitlines()]
        gapped, without = [list(r) for r in rows], [r[:3] + r[4:] for r in rows]
        gapped[5][3] = ""  # one missing quote for asset C
        index = [["date", "IDX"]] + [r[:2] for r in rows[1:]]
        paths = {}
        for name, table in (("gapped", gapped), ("without", without), ("index", index)):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("\n".join(",".join(r) for r in table) + "\n")

        def cli_run(prices):
            argv = [a.format(prices=paths[prices], index=paths["index"])
                    for a in self.COMMANDS[command]]
            return run(argv, capsys)

        code, stdout, err = cli_run("gapped")
        assert code == 0
        assert err.count("dropped 1 asset(s) with missing quotes: C\n") == 1
        assert stdout == cli_run("without")[1]


def flag(name, values):
    """Strategy for ``["--name=value"]`` or no flag; the ``=`` form keeps a
    leading "-" in the value."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def listed(*tokens):
    return st.lists(st.sampled_from(tokens), max_size=3).map(",".join)


PROBABILITIES = ("0", "0.4", "0.5", "0.55", "0.7", "1", "1.5", "x")
CORRELATIONS = ("-0.1", "0", "0.05", "0.5", "1", "1.5")
# M = 2000 takes seconds to solve; the cap's refusal above it takes none
ASSET_COUNTS = st.sampled_from([-1, 0, 1, 2, 3, 5, 8, MAX_SYMMETRIC_ASSETS + 1])
PRICE_FILES = st.sampled_from(["{data}", "{blank_row}"]).map(lambda f: [f"--prices={f}"])
FLAG_COMMANDS = st.one_of(
    st.tuples(st.just(["fig1"]), flag("m", ASSET_COUNTS), flag("p-list", listed(*PROBABILITIES)),
              flag("c-grid", listed(*CORRELATIONS))),
    st.tuples(st.just(["fig2"]), flag("m", ASSET_COUNTS), flag("p", st.sampled_from(PROBABILITIES)),
              flag("c-true", st.sampled_from(CORRELATIONS)), flag("c-grid", listed(*CORRELATIONS))),
    # --draws is always given: its default of 5000 would take most of the budget
    st.tuples(st.just(["subset-curve"]), PRICE_FILES,
              listed("-1", "0", "1", "2", "5", "40", "41", "x").map(lambda v: [f"--sizes={v}"]),
              st.integers(-1, 30).map(lambda v: [f"--draws={v}"]),
              flag("seed", st.integers(-3, 2**40))),
    st.tuples(st.just(["sliding"]), PRICE_FILES, flag("window", st.integers(-1, 800)),
              flag("step", st.integers(-1, 60) | st.integers(1, 10**6))),
).map(lambda parts: [arg for part in parts for arg in part])


@pytest.fixture(scope="module")
def price_files(tmp_path_factory):
    """``data/``'s price file, and a copy with every cell of one row blank."""
    data = Path(__file__).resolve().parent.parent / "data" / "synthetic_prices.csv"
    lines = data.read_text().splitlines(keepends=True)
    lines[100] = lines[100].split(",")[0] + "," * lines[0].count(",") + "\n"
    blank_row = tmp_path_factory.mktemp("flags") / "blank_row.csv"
    blank_row.write_text("".join(lines))
    return {"data": str(data), "blank_row": str(blank_row)}


@settings(max_examples=120, deadline=None)
@given(argv=FLAG_COMMANDS)
@example(argv=["sliding", "--prices={blank_row}"])
@example(argv=["subset-curve", "--prices={data}", "--sizes=2", "--draws=5", "--seed=-1"])
@example(argv=["fig1", "--m=0", "--p-list=,"])
def test_flag_values_keep_the_exit_contract(argv, price_files):
    # exit 0-3, no other exception, and nothing on stdout unless the run succeeded
    argv = [arg.format(**price_files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert code == 0 or out.getvalue() == ""


class TestParserBehavior:
    """argparse's refusals return 1 from main, with nothing on stdout and its
    usage line and message on stderr."""

    @staticmethod
    def assert_refused(argv, usage, message, capsys):
        code, stdout, stderr = run(argv, capsys)
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"usage: {usage} [-h]")
        assert stderr.splitlines()[-1].startswith(message)

    def test_unknown_command_exits_1(self, capsys):
        self.assert_refused(["frobnicate"], "effport",
                            "effport: error: argument command: invalid choice: 'frobnicate'",
                            capsys)

    def test_missing_required_flag_exits_1(self, capsys):
        self.assert_refused(
            ["subset-curve", "--sizes", "3"], "effport subset-curve",
            "effport subset-curve: error: the following arguments are required: --prices", capsys,
        )

    def test_unconvertible_flag_value_exits_1(self, capsys):
        self.assert_refused(["fig2", "--p=x"], "effport fig2",
                            "effport fig2: error: argument --p: invalid float value: 'x'", capsys)

    def test_help_exits_0(self, capsys):
        code, stdout, stderr = run(["fig1", "--help"], capsys)
        assert (code, stderr) == (0, "")
        assert stdout.startswith("usage: effport fig1 [-h]")


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(code: str, *argv: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this checkout."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); " + code
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          check=True).stdout


def test_cli_import_loads_no_scipy():
    # start-up cost: every fresh CLI process pays for what effport.cli imports
    out = fresh_python(
        "import effport.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out.strip() == "[]"


def test_cli_import_loads_no_numpy():
    # numpy is imported by the commands that use arrays, once they are parsed
    out = fresh_python("import effport.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def entry(*argv: str) -> subprocess.CompletedProcess:
    """``python -m effport argv`` run by a fresh interpreter on this checkout."""
    return subprocess.run([sys.executable, "-m", "effport", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})


def entry_cases(tmp_path):
    """Commands of each exit class: 0, 1 (usage, the library's and the parser's),
    2 (data) and 3 (numerical)."""
    bad = tmp_path / "bad.csv"
    bad.write_text("date,A,B\n2020-01-02,1,2\n2020-01-03,-1,2\n")
    singular = tmp_path / "corr.tsv"
    write_corr_file(singular, np.array([[1.0, 1.0], [1.0, 1.0]]))
    return [
        (0, ["fig2", "--m", "4", "--p", "0.55", "--c-true", "0.2", "--c-grid", "0.1,0.2"]),
        (1, ["fig1", "--p-list", "0.5"]),
        (1, ["frobnicate"]),
        (2, ["estimate-corr", str(bad)]),
        (3, ["effsize", "--corr", str(singular)]),
    ]


def test_entry_matches_in_process_main(tmp_path, capsys):
    for expected, argv in entry_cases(tmp_path):
        code, stdout, stderr = run(argv, capsys)
        assert code == expected, argv
        child = entry(*argv)
        assert (child.returncode, child.stdout, child.stderr) == (code, stdout, stderr)


def test_entry_writes_the_same_file(tmp_path, small_panel_path, capsys):
    argv = ["estimate-corr", str(small_panel_path), "--out"]
    code, stdout, _ = run([*argv, str(tmp_path / "in.tsv")], capsys)
    child = entry(*argv, str(tmp_path / "entry.tsv"))
    assert code == child.returncode == 0 and child.stdout == stdout
    assert (tmp_path / "entry.tsv").read_bytes() == (tmp_path / "in.tsv").read_bytes()


# the process policy seen from inside ``python -m effport``: the collector's
# state at each table the command writes, and at exit the number of objects
# outside the frozen generation and whether numpy was imported
ENTRY_STATE = (
    "import atexit, gc, runpy, sys; from effport import cli\n"
    "states = []\n"
    "def write_table(*args, write=cli.write_table):\n"
    "    states.append(gc.isenabled())\n"
    "    write(*args)\n"
    "cli.write_table = write_table\n"
    "atexit.register(lambda: print(states, len(gc.get_objects()), 'numpy' in sys.modules,\n"
    "                              file=sys.stderr))\n"
    "runpy.run_module('effport', run_name='__main__', alter_sys=True)"
)


def test_entry_runs_the_command_with_the_collector_off_and_exits_frozen(tmp_path):
    prices = str(SRC.parent / "data" / "synthetic_prices.csv")
    singular = tmp_path / "corr.tsv"
    write_corr_file(singular, np.array([[1.0, 1.0], [1.0, 1.0]]))
    for argv, code, state in [
        (["fig1", "--m", "3"], 0, "[False] 0 False"),
        (["fig1", "--p-list", "0.5"], 1, "[] 0 False"),
        (["fig2"], 0, "[False] 0 False"),
        (["sliding", "--prices", prices, "--step", "100"], 0, "[False] 0 True"),
        (["effsize", "--corr", str(singular)], 3, "[] 0 True"),
    ]:
        child = subprocess.run([sys.executable, "-c", ENTRY_STATE, *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (child.returncode, child.stderr.splitlines()[-1]) == (code, state), argv


# the OpenBLAS thread count that ``effport.__main__.main`` leaves to the
# command, and whether numpy, which reads it once on import, was loaded before
ENTRY_THREADS = (
    "import os, sys, effport.__main__, effport.cli\n"
    "def command():\n"
    "    print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
    "    return 0\n"
    "effport.cli.main = command\n"
    "effport.__main__.main()"
)


@pytest.mark.parametrize("value, shown", [(None, "1 False"), ("3", "3 False")])
def test_entry_runs_one_blas_thread_unless_the_user_set_a_count(value, shown):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    child = subprocess.run([sys.executable, "-c", ENTRY_THREADS], capture_output=True,
                           text=True, env={**env, "PYTHONPATH": str(SRC)})
    assert (child.returncode, child.stdout, child.stderr) == (0, shown + "\n", "")


def test_tier1_runs_at_the_entry_thread_count():
    # conftest sets the entry's default, which OpenBLAS reads only if numpy
    # was not loaded before it
    import conftest

    assert not conftest.NUMPY_LOADED_BEFORE_CONFTEST


def test_in_process_main_leaves_the_collector_alone(capsys):
    prices = str(SRC.parent / "data" / "synthetic_prices.csv")
    for argv in (["fig1", "--m", "3", "--c-grid", "0"],
                 ["sliding", "--prices", prices, "--step", "100"]):
        for enabled in (True, False):
            frozen = gc.get_freeze_count()
            if not enabled:
                gc.disable()
            try:
                assert run(argv, capsys)[0] == 0
                assert gc.isenabled() == enabled and gc.get_freeze_count() == frozen
            finally:
                gc.enable()


def test_installed_script_is_the_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"effport": "effport.__main__:main"}


# each command of the benchmark workloads, on small inputs; {d} is the input directory
WORKLOAD_COMMANDS = {
    "estimate-corr": ["estimate-corr", "{d}/prices.csv", "--out", "{d}/corr.tsv"],
    "effsize-corr": ["effsize", "--corr", "{d}/corr.tsv"],
    "effsize-prices": ["effsize", "--prices", "{d}/prices.csv", "--sectors", "{d}/sectors.csv"],
    "variance-ratio": ["variance-ratio", "--index", "{d}/index.csv", "--constituents",
                       "{d}/prices.csv"],
    "subset-curve": ["subset-curve", "--prices", "{d}/prices.csv", "--sectors", "{d}/sectors.csv",
                     "--sizes", "2,3,5", "--draws", "20", "--seed", "1"],
    "sliding": ["sliding", "--prices", "{d}/prices.csv", "--window", "60", "--step", "7"],
    "fig1": ["fig1", "--m", "4", "--p-list", "0.6", "--c-grid", "0,0.5"],
    "fig2": ["fig2", "--m", "4", "--p", "0.55", "--c-true", "0.2", "--c-grid", "0.1,0.2"],
}


@pytest.fixture(scope="module")
def workload_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(41)
    returns = 0.01 * (0.5 * rng.standard_normal((300, 1)) + rng.standard_normal((300, 5)))
    write_prices_csv(panel_from_returns(returns, assets=list("ABCDE")), d / "prices.csv")
    write_prices_csv(panel_from_returns(returns.mean(axis=1, keepdims=True), ["I"]),
                     d / "index.csv")
    (d / "sectors.csv").write_text("asset,sector\nA,x\nB,x\nC,y\nD,y\nE,z\n")
    assert cli.main(["estimate-corr", str(d / "prices.csv"), "--out", str(d / "corr.tsv")]) == 0
    return d


# the effport modules a command runs; each costs a fresh process its compile and import
PRICE_MODULES = "cli,corrmat,effsize,errors,marketdata"
GROWTH_MODULES = "binmodel,cli,errors,kelly"
SUBMODULES = ("binmodel", "cli", "corrmat", "effsize", "errors", "kelly", "marketdata", "meanvar")


@pytest.mark.parametrize("name", WORKLOAD_COMMANDS)
def test_workload_command_imports(name, workload_inputs, capsys):
    # numpy.ma costs a fresh process about 15 ms and 1.2 MB; numpy.random is
    # needed only for subset-curve's draws; dataclasses, with the inspect it
    # imports, costs about 6 ms, which a price command pays under numpy anyway
    capsys.readouterr()
    argv = [arg.format(d=workload_inputs) for arg in WORKLOAD_COMMANDS[name]]
    out = fresh_python(
        "from effport import cli; code = cli.main(sys.argv[1:]); "
        "ours = sorted(m[8:] for m in sys.modules if m.startswith('effport.')); "
        "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules, "
        "'numpy.random' in sys.modules, ','.join(ours), "
        "'dataclasses' in sys.modules, 'inspect' in sys.modules)",
        *argv,
    )
    growth = name.startswith("fig")
    modules = GROWTH_MODULES if growth else PRICE_MODULES
    assert out.split()[-7:-2] == ["0", str(not growth), "False", str(name == "subset-curve"),
                                  modules]
    if growth:
        assert out.split()[-2:] == ["False", "False"]


def test_package_import_loads_no_submodule():
    out = fresh_python(
        "import effport; "
        "print(sorted(m for m in sys.modules if m.startswith('effport.')), 'numpy' in sys.modules)"
    )
    assert out.split() == ["[]", "False"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_attribute_lookup_imports_submodule(name):
    out = fresh_python(
        "import effport; full = 'effport.' + sys.argv[1]; before = full in sys.modules; "
        "print(before, getattr(effport, sys.argv[1]) is sys.modules[full])",
        name,
    )
    assert out.split() == ["False", "True"]


def test_public_names_resolve_to_their_modules():
    import effport

    constants = {"ENUMERATION_LIMIT": "effport.binmodel", "MAX_SYMMETRIC_ASSETS": "effport.kelly"}
    # the 62 names of the library API and its 7 modules
    assert len(effport.__all__) == len(set(effport.__all__)) == 69
    for name in effport.__all__:
        obj = getattr(effport, name)
        if name in SUBMODULES:
            assert obj is sys.modules[f"effport.{name}"]
        else:
            home = sys.modules[constants.get(name) or obj.__module__]
            assert obj is getattr(home, name), name
    assert set(effport.__all__) <= set(dir(effport))
    with pytest.raises(AttributeError):
        effport.no_such_name


def test_moved_names_stay_the_same_objects():
    from effport import errors, marketdata

    # every table is written by the one writer
    assert marketdata.write_table is errors.write_table is cli.write_table


def test_readme_quick_tour_runs_as_written():
    readme = (SRC.parent / "README.md").read_text()
    tour = readme.split("## Quick tour\n\n```python\n", 1)[1].split("```", 1)[0]
    out = fresh_python(
        "exec(sys.argv[1]); "
        "print(ep.m_ef_uniform(30, 0.322), ep.m_ef_exact(ep.invert(corr)), "
        "ep.maximize_growth_symmetric(law).total_fraction)",
        tour,
    )
    uniform, exact, total = out.split()
    assert "ep.m_ef_uniform(30, 0.322)                      # 2.9019..." in tour
    assert uniform.startswith("2.9019")
    assert round(float(exact), 2) == 1.04
    assert round(float(total), 2) == 0.35
