import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from effport import cli
from effport.corrmat import uniform_matrix
from effport.kelly import MAX_SYMMETRIC_ASSETS
from effport.marketdata import fmt_float, panel_from_returns, write_prices_csv


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


class TestReturnsRefusal:
    """estimate-corr, effsize --prices and variance-ratio refuse bad returns alike."""

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
    @pytest.mark.parametrize("command", ["estimate-corr", "effsize", "variance-ratio"])
    # the refusal is the only thing on stderr: a numpy warning would fail the test
    @pytest.mark.filterwarnings("error")
    def test_bad_return_exits_2_naming_first_asset(
        self, command, first, second, message, tmp_path, capsys
    ):
        prices = tmp_path / "bad.csv"
        # Z comes first and is fine; A and B both fail, and A is named
        prices.write_text(
            f"date,Z,A,B\n2020-01-01,1,{first},{first}\n2020-01-02,2,{second},{second}\n"
            "2020-01-03,3,1,1\n"
        )
        index = tmp_path / "index.csv"
        index.write_text(self.ONE_ASSET)
        argv = {
            "estimate-corr": ["estimate-corr", str(prices)],
            "effsize": ["effsize", "--prices", str(prices)],
            "variance-ratio": ["variance-ratio", "--index", str(index),
                               "--constituents", str(prices)],
        }[command]
        code, out, err = run(argv, capsys)
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


class TestParserBehavior:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["subset-curve", "--sizes", "3"])
        assert exc.value.code == 1
        capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # start-up cost: every fresh CLI process pays for what effport.cli imports
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import effport.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
