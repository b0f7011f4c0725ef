import datetime
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
    # needed only for subset-curve's draws
    capsys.readouterr()
    argv = [arg.format(d=workload_inputs) for arg in WORKLOAD_COMMANDS[name]]
    out = fresh_python(
        "from effport import cli; code = cli.main(sys.argv[1:]); "
        "ours = sorted(m[8:] for m in sys.modules if m.startswith('effport.')); "
        "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules, ','.join(ours))",
        *argv,
    )
    modules = GROWTH_MODULES if name.startswith("fig") else PRICE_MODULES
    assert out.split()[-4:] == ["0", "False", str(name == "subset-curve"), modules]


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
    # the 65 names of the library API and its 7 modules
    assert len(effport.__all__) == len(set(effport.__all__)) == 72
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
    from effport import binmodel, effsize, errors, marketdata

    assert effsize.m_ef_uniform is binmodel.m_ef_uniform
    assert marketdata.fmt_float is errors.fmt_float is cli.fmt_float


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
