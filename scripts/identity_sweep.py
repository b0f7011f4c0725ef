#!/usr/bin/env python3
"""Hash every output of a fixed sweep of effport commands, for byte-identity checks.

Usage: ``python scripts/identity_sweep.py [--entry] [--dump DIR] SRC_DIR > hashes.txt``

``SRC_DIR`` is the ``src`` directory of the checkout to sweep; the commands
and their inputs come from this checkout's ``perfbench/workloads.py`` and
``data/``. One ``sha256  name`` line is printed per standard output and per
written file, so two checkouts are compared with ``diff`` on their listings.
Every command is also listed with a hash of its exit code and standard error
(``name.exit``), and a command that raises, ``SystemExit`` included, with a
hash of the exception's type name (``name.raised``). With ``--dump DIR`` every
hashed output is also written to ``DIR/name``, so the lines that differ are
listed by ``diff -r`` on two dumps. Any other option, or a ``SRC_DIR`` without
``effport/__init__.py``, prints the usage line and exits 1.
Each command runs in-process through ``cli.main``; with ``--entry`` it runs as a
fresh ``python -m effport`` process on ``SRC_DIR`` instead, so the listing also
checks the process entry, and matches the in-process one. Both run OpenBLAS at
the entry's thread count: one, unless ``OPENBLAS_NUM_THREADS`` is set.

The sweep covers:

- all eight steps of the three benchmark workloads at seeds 1-3, full size,
  with the files they write;
- fig1 at M = 1..20, 25 and 40, with four fig2 settings at each M, and
  fig1 at M = 100 and at the asset cap M = 2000, where the uncorrelated curve
  stops solving at saturation, with fig2 at M = 2000;
- subset-curve on ``data/`` with and without sectors, over sizes 2..40 at
  600, 650 and 700 draws and at the 5000-draw default;
- sliding on ``data/`` at window/step 252/1, 60/7, 31/3, 31/40 (a step
  longer than the window) and 252/1000000;
- sliding at 60/7 and 60/1 on ``data/`` with its first asset's price held
  constant over the dates of exactly one 60/7 window, and at 60/7 and 252/1
  on a panel whose first asset's returns have a mean 200 times their spread;
- effsize and estimate-corr on ``data/``, and on ``data/`` with its first
  asset's price held constant and its second asset's returns given a mean
  1e4 times their spread;
- ``data/`` with listings and delistings (FIN01's first 100 prices and
  TEC03's last 60 emptied) through effsize with sectors, sliding at 252/1
  and estimate-corr;
- a seeded 2521 x 100 panel and its index through estimate-corr, effsize,
  variance-ratio, subset-curve and sliding;
- sliding at 252/1 on a seeded 401 x 250 panel, whose 251-return windows
  are nearly of full rank, so that their m_ef are large and ill-conditioned
  (about 0.4 s);
- the refusals of one-asset, underflowing and overflowing panels, of
  1-date and 2-date panels, of a constant index, of a blank asset name and a
  byte-order mark in a price header, of a byte-order mark in a sector file,
  and of a byte-order mark, a blank name and a repeated name in a
  correlation header, of ``data/`` with every cell of one row blank (no
  asset left) by sliding, and of bytes that are not UTF-8 in a price, a
  sector and a correlation file;
- asset names that hold a tab or a comma, through estimate-corr and
  ``write_prices_csv``, and blank, repeated and space-padded names through
  ``panel_from_returns`` and ``write_prices_csv``, with estimate-corr on any
  file written;
- the refusals of flag values by fig1, fig2, subset-curve and sliding (exit
  1), of an unknown command, a missing required flag and a flag value the
  parser cannot convert (exit 1), and of a subset size above the universe of
  ``data/`` (exit 2).
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Directory that receives every hashed output (``--dump``), or None.
DUMP: Path | None = None
#: The ``src`` directory whose ``python -m effport`` runs each command (``--entry``), or None.
ENTRY_SRC: Path | None = None


def record(name: str, data: bytes) -> None:
    """Print the hash line of one output, and keep the output under DUMP."""
    print(f"{sha256(data)}  {name}")
    if DUMP is not None:
        (DUMP / name).parent.mkdir(parents=True, exist_ok=True)
        (DUMP / name).write_bytes(data)


def run_cli(cli, name: str, argv: list[str], outputs: tuple[str, ...] = ()) -> None:
    """Run one command in the current directory and record its outputs, or
    the type name of the exception it raised."""
    if ENTRY_SRC is None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            record(f"{name}.raised", type(exc).__name__.encode())
            return
        out, err = out.getvalue(), err.getvalue()
    else:
        child = subprocess.run([sys.executable, "-m", "effport", *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": str(ENTRY_SRC)})
        code, out, err = child.returncode, child.stdout, child.stderr
        if "Traceback (most recent call last):" in err:
            # the last line names the exception, as "module.Type: message"
            raised = err.rstrip().splitlines()[-1].split(":")[0].rsplit(".", 1)[-1]
            record(f"{name}.raised", raised.encode())
            return
    record(f"{name}.exit", f"{code}:{err}".encode())
    record(f"{name}.stdout", out.encode())
    for path in outputs:
        record(f"{name}/{path}", Path(path).read_bytes())


def workload_steps(cli, writeprices, workloads, work: Path) -> None:
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            base = work / f"{workload}-{seed}"
            workloads.make_inputs(workload, seed, "full", base / "inputs")
            (base / "run").mkdir()
            os.chdir(base / "run")
            for step in workloads.steps(workload, seed, "full", DATA):
                name = f"{workload}/seed{seed}/{step.name}"
                if step.is_cli:
                    run_cli(cli, name, list(step.args), step.outputs)
                else:
                    if writeprices.main(list(step.args)) != 0:
                        raise RuntimeError(f"{name}: perfbench/writeprices.py failed")
                    for path in step.outputs:
                        record(f"{name}/{path}", Path(path).read_bytes())


def growth_commands(cli) -> None:
    fig2_settings = (("0.55", "0.2"), ("0.6", "0.1"), ("0.7", "0.3"), ("0.55", "0"))
    for m in [*range(1, 21), 25, 40]:
        run_cli(cli, f"fig1/m{m}", ["fig1", "--m", str(m)])
        for p, c in fig2_settings:
            run_cli(cli, f"fig2/m{m}-p{p}-c{c}", ["fig2", "--m", str(m), "--p", p, "--c-true", c])
    for m in (100, 2000):
        run_cli(cli, f"fig1/m{m}", ["fig1", "--m", str(m)])
    run_cli(cli, "fig2/m2000-p0.55-c0.2",
            ["fig2", "--m", "2000", "--p", "0.55", "--c-true", "0.2"])


def data_commands(cli) -> None:
    prices = ["--prices", str(DATA / "synthetic_prices.csv")]
    sectors = ["--sectors", str(DATA / "synthetic_sectors.csv")]
    sizes = ["--sizes", ",".join(map(str, range(2, 41)))]
    for draws in ("600", "650", "700"):
        run_cli(cli, f"data/subset-{draws}", ["subset-curve", *prices, *sizes, "--draws", draws])
        run_cli(cli, f"data/subset-sectors-{draws}",
                ["subset-curve", *prices, *sectors, *sizes, "--draws", draws])
    run_cli(cli, "data/subset-default", ["subset-curve", *prices, "--sizes", "2,5,10,20,40"])
    run_cli(cli, "data/subset-sectors-default",
            ["subset-curve", *prices, *sectors, "--sizes", "2,5,10,20,40"])
    for window, step in (("252", "1"), ("60", "7"), ("31", "3"), ("31", "40"), ("252", "1000000")):
        run_cli(cli, f"data/sliding-{window}-{step}",
                ["sliding", *prices, "--window", window, "--step", step])
    run_cli(cli, "data/estimate-corr", ["estimate-corr", prices[1]])
    run_cli(cli, "data/estimate-corr-out", ["estimate-corr", prices[1], "--out", "corr.tsv"],
            ("corr.tsv",))
    run_cli(cli, "data/effsize-prices", ["effsize", *prices])
    run_cli(cli, "data/effsize-prices-sectors", ["effsize", *prices, *sectors])
    run_cli(cli, "data/effsize-corr", ["effsize", "--corr", "corr.tsv"])


def large_panel(cli, marketdata, np) -> None:
    rng = np.random.default_rng(2521)
    factor = rng.standard_normal((2520, 1))
    returns = 0.01 * (0.5 * factor + rng.standard_normal((2520, 100)))
    marketdata.write_prices_csv(marketdata.panel_from_returns(returns), "wide.csv")
    marketdata.write_prices_csv(
        marketdata.panel_from_returns(returns.mean(axis=1, keepdims=True), ["INDEX"]),
        "wide_index.csv",
    )
    for path in ("wide.csv", "wide_index.csv"):
        record(f"wide/{path}", Path(path).read_bytes())
    run_cli(cli, "wide/variance-ratio",
            ["variance-ratio", "--index", "wide_index.csv", "--constituents", "wide.csv"])
    run_cli(cli, "wide/subset-curve",
            ["subset-curve", "--prices", "wide.csv", "--sizes", "2,10,50,100", "--draws", "300"])
    run_cli(cli, "wide/sliding", ["sliding", "--prices", "wide.csv"])
    run_cli(cli, "wide/estimate-corr", ["estimate-corr", "wide.csv"])
    run_cli(cli, "wide/effsize", ["effsize", "--prices", "wide.csv"])


def near_full_rank(cli, marketdata, np) -> None:
    rng = np.random.default_rng(401)
    returns = 0.01 * (0.5 * rng.standard_normal((400, 1)) + rng.standard_normal((400, 250)))
    marketdata.write_prices_csv(marketdata.panel_from_returns(returns), "rank.csv")
    record("rank/rank.csv", Path("rank.csv").read_bytes())
    run_cli(cli, "rank/sliding-252-1", ["sliding", "--prices", "rank.csv"])


def sliding_edge_cases(cli, marketdata, np) -> None:
    panel = marketdata.load_prices(DATA / "synthetic_prices.csv")
    prices = panel.prices.copy()
    # the 60 dates of window 10 of 60/7: its 59 returns of asset 0 are 0
    prices[70:130, 0] = prices[70, 0]
    marketdata.write_prices_csv(
        marketdata.PricePanel(panel.dates, panel.assets, prices), "flat.csv")
    rng = np.random.default_rng(40)
    returns = 0.01 * rng.standard_normal((756, 10))
    returns[:, 0] = 0.002 + 1e-5 * rng.standard_normal(756)
    marketdata.write_prices_csv(marketdata.panel_from_returns(returns), "level.csv")
    for path in ("flat.csv", "level.csv"):
        record(f"edge/{path}", Path(path).read_bytes())
    for path, window, step in (("flat.csv", "60", "7"), ("flat.csv", "60", "1"),
                               ("level.csv", "60", "7"), ("level.csv", "252", "1")):
        run_cli(cli, f"edge/sliding-{path[:-4]}-{window}-{step}",
                ["sliding", "--prices", path, "--window", window, "--step", step])


def correlation_edge_cases(cli, marketdata, np) -> None:
    panel = marketdata.load_prices(DATA / "synthetic_prices.csv")
    prices = panel.prices.copy()
    prices[:, 0] = prices[0, 0]
    # returns of mean 0.002 and spread 2e-7
    level = 0.002 + 2e-7 * np.random.default_rng(41).standard_normal(len(prices) - 1)
    prices[1:, 1] = prices[0, 1] * np.cumprod(1.0 + level)
    marketdata.write_prices_csv(
        marketdata.PricePanel(panel.dates, panel.assets, prices), "riskfree.csv")
    record("edge/riskfree.csv", Path("riskfree.csv").read_bytes())
    run_cli(cli, "edge/estimate-corr-riskfree", ["estimate-corr", "riskfree.csv"])
    run_cli(cli, "edge/effsize-riskfree", ["effsize", "--prices", "riskfree.csv"])


def listings(cli) -> None:
    lines = (DATA / "synthetic_prices.csv").read_text().split("\n")
    header = lines[0].split(",")
    first, last = header.index("FIN01"), header.index("TEC03")
    rows = [line.split(",") for line in lines[1:-1]]
    for row in rows[:100]:
        row[first] = ""
    for row in rows[-60:]:
        row[last] = ""
    Path("listings.csv").write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
    record("listings/listings.csv", Path("listings.csv").read_bytes())
    prices = ["--prices", "listings.csv"]
    run_cli(cli, "listings/effsize-sectors",
            ["effsize", *prices, "--sectors", str(DATA / "synthetic_sectors.csv")])
    run_cli(cli, "listings/sliding-252-1", ["sliding", *prices, "--window", "252", "--step", "1"])
    run_cli(cli, "listings/estimate-corr", ["estimate-corr", "listings.csv"])


def write_copy(marketdata, path: str, panel_of) -> bool:
    """Write the panel ``panel_of()`` to ``copy_<path>`` and record the file, or
    the type name of the exception either call raised; True if written."""
    try:
        marketdata.write_prices_csv(panel_of(), f"copy_{path}")
    except Exception as exc:
        record(f"names/write-{path}.raised", type(exc).__name__.encode())
        return False
    record(f"names/write-{path}", Path(f"copy_{path}").read_bytes())
    return True


def odd_names(cli, marketdata) -> None:
    rows = "2020-01-01,1,2,3\n2020-01-02,2,1,2\n2020-01-03,1.5,3,4\n2020-01-06,3,2.5,1\n"
    for path, header in (("tab_name.csv", 'date,"A\tB",C,D\n'),
                         ("comma_name.csv", 'date,"A,B",C,D\n')):
        Path(path).write_text(header + rows)
        run_cli(cli, f"names/estimate-corr-{path}", ["estimate-corr", path])
        run_cli(cli, f"names/estimate-corr-out-{path}",
                ["estimate-corr", path, "--out", f"{path}.tsv"])
        if Path(f"{path}.tsv").exists():
            record(f"names/{path}.tsv", Path(f"{path}.tsv").read_bytes())
        write_copy(marketdata, path, lambda: marketdata.load_prices(path))
    returns = [[0.01, -0.02], [0.03, 0.01], [-0.01, 0.02]]
    for path, assets in (("blank_name.csv", ["", "B"]), ("repeated_name.csv", ["A", "A"]),
                         ("padded_name.csv", [" A", "B"])):
        if write_copy(marketdata, path, lambda: marketdata.panel_from_returns(returns, assets)):
            run_cli(cli, f"names/estimate-corr-copy_{path}", ["estimate-corr", f"copy_{path}"])


def refusals(cli) -> None:
    Path("one.csv").write_text("date,A\n2020-01-01,1\n2020-01-02,2\n2020-01-03,3\n")
    Path("under.csv").write_text("date,A,B\n2020-01-01,1e20,1\n2020-01-02,1e-5,2\n"
                                 "2020-01-03,1,3\n")
    Path("under_index.csv").write_text("date,I\n2020-01-01,1\n2020-01-02,2\n2020-01-03,3\n")
    for path in ("one.csv", "under.csv"):
        run_cli(cli, f"refuse/estimate-corr-{path}", ["estimate-corr", path])
        run_cli(cli, f"refuse/effsize-{path}", ["effsize", "--prices", path])
    run_cli(cli, "refuse/variance-ratio-under",
            ["variance-ratio", "--index", "under_index.csv", "--constituents", "under.csv"])
    # 40 days, enough for a 30-day window; A's first return overflows
    days = [(datetime.date(2020, 1, 1) + datetime.timedelta(d)).isoformat() for d in range(40)]
    cells = ["1e-300", "1e300"] + ["1", "2"] * 19
    Path("over.csv").write_text("date,A,B\n" + "".join(
        f"{day},{a},{k + 1}\n" for k, (day, a) in enumerate(zip(days, cells))))
    run_cli(cli, "refuse/sliding-over",
            ["sliding", "--prices", "over.csv", "--window", "30", "--step", "5"])
    run_cli(cli, "refuse/subset-curve-over",
            ["subset-curve", "--prices", "over.csv", "--sizes", "2"])
    for dates in (1, 2):
        days = ["2020-01-01", "2020-01-02"][:dates]
        Path(f"short{dates}.csv").write_text("date,A,B\n" + "".join(
            f"{day},{k + 1},{3 - k}\n" for k, day in enumerate(days)))
        Path(f"short{dates}_index.csv").write_text("date,I\n" + "".join(
            f"{day},{k + 1}\n" for k, day in enumerate(days)))
        for name, argv in {
            "estimate-corr": ["estimate-corr", f"short{dates}.csv"],
            "effsize": ["effsize", "--prices", f"short{dates}.csv"],
            "subset-curve": ["subset-curve", "--prices", f"short{dates}.csv", "--sizes", "2"],
            "variance-ratio": ["variance-ratio", "--index", f"short{dates}_index.csv",
                               "--constituents", f"short{dates}.csv"],
        }.items():
            run_cli(cli, f"refuse/{name}-short{dates}", argv)
    Path("flat_index.csv").write_text("date,I\n2020-01-01,2\n2020-01-02,2\n2020-01-03,2\n")
    run_cli(cli, "refuse/variance-ratio-flat-index",
            ["variance-ratio", "--index", "flat_index.csv", "--constituents", "one.csv"])
    rows = "2020-01-01,1,2\n2020-01-02,2,1\n2020-01-03,1.5,3\n2020-01-06,3,2.5\n"
    Path("blank.csv").write_text("date,,B\n" + rows)
    Path("bom.csv").write_text("\ufeffdate,A,B\n" + rows, encoding="utf-8")
    for path in ("blank.csv", "bom.csv"):
        run_cli(cli, f"refuse/estimate-corr-{path}", ["estimate-corr", path])
        run_cli(cli, f"refuse/effsize-{path}", ["effsize", "--prices", path])
    sectors = (DATA / "synthetic_sectors.csv").read_text()
    Path("bom_sectors.csv").write_text("\ufeff" + sectors, encoding="utf-8")
    run_cli(cli, "refuse/effsize-bom_sectors.csv",
            ["effsize", "--prices", str(DATA / "synthetic_prices.csv"), "--sectors",
             "bom_sectors.csv"])
    # each matrix's row labels match its header, so only the header is at fault
    for path, text in {
        "bom_corr.tsv": "\ufeffasset\tA\tB\nA\t1\t0\nB\t0\t1\n",
        "blank_corr.tsv": "asset\tA\t\nA\t1\t0\n\t0\t1\n",
        "duplicate_corr.tsv": "asset\tA\tA\nA\t1\t0\nA\t0\t1\n",
    }.items():
        Path(path).write_text(text, encoding="utf-8")
        run_cli(cli, f"refuse/effsize-{path}", ["effsize", "--corr", path])
    lines = (DATA / "synthetic_prices.csv").read_text().splitlines(keepends=True)
    lines[100] = lines[100].split(",")[0] + "," * (lines[0].count(",")) + "\n"
    Path("blank_row.csv").write_text("".join(lines))
    run_cli(cli, "refuse/sliding-blank_row.csv", ["sliding", "--prices", "blank_row.csv"])
    # a Latin-1 e-acute in row 500 of data/ and in a sector name, and 0xff in a matrix header
    lines = (DATA / "synthetic_prices.csv").read_bytes().split(b"\n")
    lines[499] = lines[499].replace(b",", b"\xe9,", 1)
    Path("latin1.csv").write_bytes(b"\n".join(lines))
    run_cli(cli, "refuse/sliding-latin1.csv", ["sliding", "--prices", "latin1.csv"])
    Path("latin1_sectors.csv").write_bytes(
        (DATA / "synthetic_sectors.csv").read_bytes().replace(b",finance\n", b",financ\xe9\n", 2))
    run_cli(cli, "refuse/effsize-latin1_sectors.csv",
            ["effsize", "--prices", str(DATA / "synthetic_prices.csv"), "--sectors",
             "latin1_sectors.csv"])
    Path("ff_corr.tsv").write_bytes(b"asset\tA\xff\tB\nA\t1\t0\nB\t0\t1\n")
    run_cli(cli, "refuse/effsize-ff_corr.tsv", ["effsize", "--corr", "ff_corr.tsv"])


def flag_refusals(cli) -> None:
    prices = ["--prices", str(DATA / "synthetic_prices.csv")]
    above_cap = "2001"  # one above the asset cap of the growth solvers
    cases = {
        "fig1-p-half": ["fig1", "--p-list", "0.5"],
        "fig1-p-one": ["fig1", "--p-list", "0.55,1"],
        "fig1-p-parse": ["fig1", "--p-list", "0.55,x"],
        "fig1-c": ["fig1", "--c-grid", "0,1.5"],
        "fig1-m-zero": ["fig1", "--m", "0"],
        "fig1-m-zero-empty-grid": ["fig1", "--m", "0", "--c-grid", ","],
        "fig1-m-zero-empty-p-list": ["fig1", "--m", "0", "--p-list", ","],
        "fig1-m-cap": ["fig1", "--m", above_cap],
        "fig2-p-zero": ["fig2", "--p", "0"],
        "fig2-p-one": ["fig2", "--p", "1"],
        "fig2-c-true": ["fig2", "--c-true", "1.5"],
        "fig2-c-grid": ["fig2", "--c-grid", "0.1,1.2"],
        "fig2-m-zero": ["fig2", "--m", "0"],
        "fig2-m-cap": ["fig2", "--m", above_cap],
        "subset-sizes-empty": ["subset-curve", *prices, "--sizes", ""],
        "subset-size-one": ["subset-curve", *prices, "--sizes", "5,1"],
        "subset-sizes-parse": ["subset-curve", *prices, "--sizes", "2,x"],
        "subset-draws-zero": ["subset-curve", *prices, "--sizes", "2", "--draws", "0"],
        "subset-seed-negative": ["subset-curve", *prices, "--sizes", "2", "--seed", "-1"],
        "subset-size-above-universe": ["subset-curve", *prices, "--sizes", "2,41"],
        "sliding-window-short": ["sliding", *prices, "--window", "10"],
        "sliding-step-zero": ["sliding", *prices, "--step", "0"],
        "parser-unknown-command": ["frobnicate"],
        "parser-missing-flag": ["subset-curve", "--sizes", "3"],
        "parser-float": ["fig2", "--p", "x"],
    }
    for name, argv in cases.items():
        run_cli(cli, f"refuse/flags-{name}", argv)


def main(argv: list[str]) -> int:
    global DUMP, ENTRY_SRC
    entry = argv[:1] == ["--entry"]
    if entry:
        argv = argv[1:]
    if argv[:1] == ["--dump"] and len(argv) == 3:
        DUMP = Path(argv[1]).resolve()
        argv = argv[2:]
    # before any import, which would fail with no effport package in SRC_DIR
    if len(argv) != 1 or argv[0].startswith("-") or not (
            Path(argv[0]) / "effport" / "__init__.py").is_file():
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    if entry:
        ENTRY_SRC = src
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    # the default of effport.__main__, which OpenBLAS reads when numpy loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np
    import workloads
    import writeprices

    from effport import cli, marketdata

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        workload_steps(cli, writeprices, workloads, work)
        os.chdir(work)
        growth_commands(cli)
        data_commands(cli)
        large_panel(cli, marketdata, np)
        near_full_rank(cli, marketdata, np)
        sliding_edge_cases(cli, marketdata, np)
        correlation_edge_cases(cli, marketdata, np)
        listings(cli)
        odd_names(cli, marketdata)
        refusals(cli)
        flag_refusals(cli)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
