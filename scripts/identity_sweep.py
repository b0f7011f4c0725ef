#!/usr/bin/env python3
"""Hash every output of a fixed sweep of effport commands, for byte-identity checks.

Usage: ``python scripts/identity_sweep.py [--dump DIR] SRC_DIR > hashes.txt``

``SRC_DIR`` is the ``src`` directory of the checkout to sweep; the commands
and their inputs come from this checkout's ``perfbench/workloads.py`` and
``data/``. One ``sha256  name`` line is printed per standard output and per
written file, so two checkouts are compared with ``diff`` on their listings.
Commands that exit non-zero are listed with a hash of their exit code and
standard error. With ``--dump DIR`` every hashed output is also written to
``DIR/name``, so the lines that differ are listed by ``diff -r`` on two dumps.

The sweep covers:

- all eight steps of the three benchmark workloads at seeds 1-3, full size,
  with the files they write;
- fig1 at M = 1..20, 25 and 40, with four fig2 settings at each M;
- subset-curve on ``data/`` with and without sectors, over sizes 2..40 at
  600, 650 and 700 draws and at the 5000-draw default;
- sliding on ``data/`` at window/step 252/1, 60/7, 31/3 and 31/40 (a step
  longer than the window);
- sliding at 60/7 and 60/1 on ``data/`` with its first asset's price held
  constant over the dates of exactly one 60/7 window, and at 60/7 and 252/1
  on a panel whose first asset's returns have a mean 200 times their spread;
- effsize and estimate-corr on ``data/``, and on ``data/`` with its first
  asset's price held constant and its second asset's returns given a mean
  1e4 times their spread;
- a seeded 2521 x 100 panel and its index through estimate-corr, effsize,
  variance-ratio, subset-curve and sliding;
- the refusals of one-asset, underflowing and overflowing panels.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Directory that receives every hashed output (``--dump``), or None.
DUMP: Path | None = None


def record(name: str, data: bytes) -> None:
    """Print the hash line of one output, and keep the output under DUMP."""
    print(f"{sha256(data)}  {name}")
    if DUMP is not None:
        (DUMP / name).parent.mkdir(parents=True, exist_ok=True)
        (DUMP / name).write_bytes(data)


def run_cli(cli, name: str, argv: list[str], outputs: tuple[str, ...] = ()) -> None:
    """Run one command in the current directory and record its outputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        record(f"{name}.exit", f"{code}:{err.getvalue()}".encode())
    record(f"{name}.stdout", out.getvalue().encode())
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
    for window, step in (("252", "1"), ("60", "7"), ("31", "3"), ("31", "40")):
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


def main(argv: list[str]) -> int:
    global DUMP
    if argv[:1] == ["--dump"] and len(argv) == 3:
        DUMP = Path(argv[1]).resolve()
        argv = argv[2:]
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
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
        sliding_edge_cases(cli, marketdata, np)
        correlation_edge_cases(cli, marketdata, np)
        refusals(cli)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
