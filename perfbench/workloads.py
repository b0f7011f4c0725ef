"""Workloads of the effport benchmark: seeded inputs, the commands of one pass,
and an independent oracle for every command's output.

Every workload defines the same eight steps, one per command. A workload's
*main* steps make up its timed pass. The traced replay also runs the other
steps, as *probes* on a fixed minimal input, so every per-layer metric exists
on every workload. A probe mostly measures interpreter start-up and
``import effport``.

- ``panel-ingest``: a seeded hidden-coin panel (M = 30, p = 0.55, C = 0.322,
  the shape of acceptance test 09) and its equal-weight index are written to
  CSV, then read back by ``estimate-corr``, ``effsize --corr`` and
  ``variance-ratio``. CSV parse and format in ``marketdata`` dominate; the
  correlation core does one tall product and one 30x30 inverse.
- ``market-scan``: the bundled 757 x 40 panel through ``subset-curve``,
  ``sliding`` and ``effsize --prices --sectors``. Thousands of small-matrix
  inverses dominate; parsing is minor.
- ``growth-grid``: ``fig1`` and ``fig2`` on the hidden-coin win/lose model.
  The 2^M outcome tables of ``binmodel.build_joint`` and the growth solves of
  ``kelly`` dominate; no price data is touched. Deterministic: the seed is
  recorded but unused.

The program sees only the generated files. The oracles recompute every number
with plain numpy from the files the program read or wrote.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Hidden-coin model of acceptance test 09: win probability and correlation.
PANEL_P = 0.55
PANEL_C = 0.322
PANEL_M = 30
#: Return scale used when compounding +-1 draws into prices, as in test 09.
RETURN_SCALE = 0.01
BASE_PRICE = 100.0

RTOL = 1e-8

# Sizes of the main steps; ``small`` shrinks them for the smoke test.
SIZES = {
    "full": {"panel_t": 20_000, "draws": 500, "fig1_m": 16, "fig2_m": 18},
    "small": {"panel_t": 10_000, "draws": 20, "fig1_m": 6, "fig2_m": 8},
}
PROBE_T, PROBE_M = 500, 5
SUBSET_SIZES = (2, 5, 10, 15, 20, 25, 30)
FIG1_P = (0.55, 0.6, 0.7)
FIG2_P, FIG2_C_TRUE = 0.55, 0.2


@dataclass(frozen=True)
class Step:
    """One command of a pass.

    ``args`` follow ``python -m effport`` for a CLI step; the write step runs
    ``perfbench/writeprices.py`` instead. Paths in ``args`` are relative to
    the run directory; generated inputs sit in ``../inputs``.
    """

    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path], list[str]]

    @property
    def is_cli(self) -> bool:
        return self.name != "write_prices"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    main: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "panel-ingest",
            "large seeded price panel written and re-read: CSV parse/format in marketdata "
            "dominates, one tall correlation and one 30x30 inverse",
            ("write_prices", "estimate_corr", "effsize", "variance_ratio"),
        ),
        Workload(
            "market-scan",
            "bundled 757x40 panel: thousands of small-matrix inverses in subset-curve and "
            "sliding dominate, parsing is minor",
            ("subset_curve", "sliding", "effsize"),
        ),
        Workload(
            "growth-grid",
            "fig1/fig2 on the hidden-coin model: 2^M outcome tables and growth solves "
            "dominate, no price data is touched",
            ("fig1", "fig2"),
        ),
    )
}


# --------------------------------------------------------------------- inputs


def hidden_coin_draws(t: int, m: int, p: float, c: float, seed: int) -> np.ndarray:
    """(t, m) matrix of +-1 returns from the hidden-coin model, as int8.

    A hidden coin lands up with probability p; each asset then wins with
    probability p + (1-p) sqrt(C) after an up coin and p (1 - sqrt(C)) after
    a down coin, giving marginal win probability p and pairwise correlation C.
    """
    rng = np.random.default_rng(seed)
    up = rng.random(t) < p
    win = np.where(up, p + (1.0 - p) * math.sqrt(c), p * (1.0 - math.sqrt(c)))
    return np.where(rng.random((t, m)) < win[:, None], 1, -1).astype(np.int8)


def generated_panel(workload: str, size: str) -> tuple[str, int, int]:
    """File stem, T and M of the hidden-coin panel a workload writes."""
    if workload == "panel-ingest":
        return "panel", SIZES[size]["panel_t"], PANEL_M
    return "probe", PROBE_T, PROBE_M


def make_inputs(workload: str, seed: int, size: str, inputs: Path) -> None:
    """Write the seeded inputs of one workload into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    stem, t, m = generated_panel(workload, size)
    draws = hidden_coin_draws(t, m, PANEL_P, PANEL_C, seed)
    np.save(inputs / f"{stem}_draws.npy", draws)
    np.save(inputs / f"{stem}_index.npy", draws.mean(axis=1, keepdims=True))


# ---------------------------------------------------------------------- steps


def steps(workload: str, seed: int, size: str, data: Path) -> list[Step]:
    """The commands of one pass of ``workload``, in order."""
    sz = SIZES[size]
    main = WORKLOADS[workload].main
    prices = str(data / "synthetic_prices.csv")
    sectors = str(data / "synthetic_sectors.csv")
    panel = generated_panel(workload, size)[0]
    paper = workload == "panel-ingest"
    out: list[Step] = []

    def add(name, args, outputs, check):
        out.append(Step(name, tuple(args), tuple(outputs), check))

    add(
        "write_prices",
        [f"../inputs/{panel}_draws.npy", f"{panel}.csv", f"../inputs/{panel}_index.npy",
         f"{panel}_index.csv"],
        [f"{panel}.csv", f"{panel}_index.csv"],
        lambda d: check_written(d, panel),
    )
    add(
        "estimate_corr",
        ["estimate-corr", f"{panel}.csv", "--out", f"{panel}_corr.tsv"],
        [f"{panel}_corr.tsv"],
        lambda d: check_estimate_corr(d, panel, paper),
    )
    if workload == "market-scan":
        add(
            "effsize",
            ["effsize", "--prices", prices, "--sectors", sectors],
            [],
            lambda d: check_effsize_prices(d, prices, sectors),
        )
    else:
        add(
            "effsize",
            ["effsize", "--corr", f"{panel}_corr.tsv"],
            [],
            lambda d: check_effsize_corr(d, panel, paper),
        )
    add(
        "variance_ratio",
        ["variance-ratio", "--index", f"{panel}_index.csv", "--constituents", f"{panel}.csv"],
        [],
        lambda d: check_variance_ratio(d, panel, paper),
    )
    if "subset_curve" in main:
        sizes, draws = SUBSET_SIZES, sz["draws"]
    else:
        sizes, draws = (2,), 10
    add(
        "subset_curve",
        ["subset-curve", "--prices", prices, "--sectors", sectors,
         "--sizes", ",".join(map(str, sizes)), "--draws", str(draws), "--seed", str(seed)],
        [],
        lambda d: check_subset_curve(d, sizes),
    )
    # A probe step of 505 days leaves two windows on the 757-day panel.
    step = 1 if "sliding" in main else 505
    add(
        "sliding",
        ["sliding", "--prices", prices, "--window", "252", "--step", str(step)],
        [],
        lambda d: check_sliding(d, prices, 252, step, seed),
    )
    if "fig1" in main:
        fig1_m, p_list, c_grid = sz["fig1_m"], FIG1_P, [round(0.05 * i, 10) for i in range(21)]
    else:
        fig1_m, p_list, c_grid = 2, (0.6,), [0.0, 0.5]
    add(
        "fig1",
        ["fig1", "--m", str(fig1_m), "--p-list", ",".join(map(str, p_list)),
         "--c-grid", ",".join(map(str, c_grid))],
        [],
        lambda d: check_fig1(d, fig1_m, p_list, c_grid),
    )
    if "fig2" in main:
        fig2_m, c_grid2 = sz["fig2_m"], [round(0.05 * i, 10) for i in range(13)]
    else:
        fig2_m, c_grid2 = 2, [0.1, 0.2, 0.3]
    add(
        "fig2",
        ["fig2", "--m", str(fig2_m), "--p", str(FIG2_P), "--c-true", str(FIG2_C_TRUE),
         "--c-grid", ",".join(map(str, c_grid2))],
        [],
        lambda d: check_fig2(d, c_grid2),
    )
    return out


def stdout_name(step: str) -> str:
    return f"{step}.stdout"


def output_hashes(run_dir: Path, step: Step) -> dict[str, str]:
    """sha256 of a step's standard output and of every file it wrote."""
    names = (stdout_name(step.name), *step.outputs)
    out = {}
    for name in names:
        path = run_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


# -------------------------------------------------------------------- oracles


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh, delimiter="\t") if row]
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def read_prices(path) -> np.ndarray:
    """Price matrix of a loader-format CSV, read with numpy alone."""
    with open(path) as fh:
        n_assets = len(fh.readline().split(",")) - 1
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, n_assets + 1), ndmin=2)


def returns_of(prices: np.ndarray) -> np.ndarray:
    return np.diff(prices, axis=0) / prices[:-1]


def entry_sum_of_inverse(corr: np.ndarray) -> float:
    return float(np.sum(np.linalg.inv(corr)))


def even_estimate(corr: np.ndarray) -> float:
    m = corr.shape[0]
    mean_off = (corr.sum() - np.trace(corr)) / (m * (m - 1))
    return m / (1.0 + (m - 1) * mean_off)


def _close(name: str, got: float, want: float, rtol: float = RTOL) -> list[str]:
    if math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12):
        return []
    return [f"{name} = {got!r}, oracle {want!r}"]


def _within(name: str, got: float, want: float, tol: float) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{name} = {got!r} not within {tol} of {want}"]


def _single_row(d: Path, step: str) -> dict[str, float]:
    header, rows = read_tsv(d / stdout_name(step))
    if len(rows) != 1:
        raise ValueError(f"{step}: expected one data row, found {len(rows)}")
    return {k: float(v) for k, v in zip(header, rows[0])}


def check_written(d: Path, panel: str) -> list[str]:
    problems = []
    for stem, suffix in (("draws", ""), ("index", "_index")):
        draws = np.load(d.parent / "inputs" / f"{panel}_{stem}.npy").astype(float)
        want = np.empty((draws.shape[0] + 1, draws.shape[1]))
        want[0] = BASE_PRICE
        want[1:] = BASE_PRICE * np.cumprod(1.0 + RETURN_SCALE * draws, axis=0)
        path = d / f"{panel}{suffix}.csv"
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            first_date = fh.readline().split(",", 1)[0]
        got = read_prices(path)
        if header[0] != "date" or len(header) != draws.shape[1] + 1 or first_date != "2000-01-03":
            problems.append(f"{path.name}: unexpected header or first date")
        elif got.shape != want.shape:
            problems.append(f"{path.name}: shape {got.shape}, expected {want.shape}")
        elif not np.allclose(got, want, rtol=1e-9, atol=0.0):
            problems.append(f"{path.name}: prices differ from compounded draws beyond 1e-9")
    return problems


def _corr_of_panel(d: Path, panel: str) -> np.ndarray:
    return np.corrcoef(returns_of(read_prices(d / f"{panel}.csv")), rowvar=False)


def check_estimate_corr(d: Path, panel: str, paper: bool) -> list[str]:
    oracle = _corr_of_panel(d, panel)
    header, rows = read_tsv(d / f"{panel}_corr.tsv")
    got = np.array([[float(v) for v in row[1:]] for row in rows])
    problems = []
    if got.shape != oracle.shape:
        return [f"matrix shape {got.shape}, oracle {oracle.shape}"]
    if not np.allclose(got, oracle, rtol=0.0, atol=1e-8):
        problems.append("correlation matrix differs from numpy.corrcoef beyond 1e-8")
    summary = _single_row(d, "estimate_corr")
    m = oracle.shape[0]
    mean_corr = (oracle.sum() - m) / (m * (m - 1))
    eigs = np.linalg.eigvalsh(oracle)
    problems += _close("mean_corr", summary["mean_corr"], mean_corr)
    problems += _close("eig_min", summary["eig_min"], eigs[0])
    problems += _close("eig_max", summary["eig_max"], eigs[-1])
    if paper:
        problems += _within("mean_corr", summary["mean_corr"], PANEL_C, 0.01)
    return problems


def check_effsize_corr(d: Path, panel: str, paper: bool) -> list[str]:
    _, rows = read_tsv(d / f"{panel}_corr.tsv")
    corr = np.array([[float(v) for v in row[1:]] for row in rows])
    row = _single_row(d, "effsize")
    problems = _close("m_exact", row["m_exact"], entry_sum_of_inverse(corr))
    problems += _close("m_even", row["m_even"], even_estimate(corr))
    if paper:
        problems += _within("m_even", row["m_even"], 2.90, 0.1)
    return problems


def check_effsize_prices(d: Path, prices: str, sectors: str) -> list[str]:
    corr = np.corrcoef(returns_of(read_prices(prices)), rowvar=False)
    with open(prices) as fh:
        assets = fh.readline().strip().split(",")[1:]
    with open(sectors, newline="") as fh:
        sector_of = dict(list(csv.reader(fh))[1:])
    labels = sorted({sector_of[a] for a in assets})
    weights = np.array([[float(sector_of[a] == s) for a in assets] for s in labels])
    weights /= weights.sum(axis=1, keepdims=True)
    row = _single_row(d, "effsize")
    problems = _close("m_exact", row["m_exact"], entry_sum_of_inverse(corr))
    problems += _close("m_even", row["m_even"], even_estimate(corr))
    problems += _close("m_sector", row["m_sector"], entry_sum_of_inverse(weights @ corr @ weights.T))
    return problems


def check_variance_ratio(d: Path, panel: str, paper: bool) -> list[str]:
    constituents = returns_of(read_prices(d / f"{panel}.csv"))
    index = returns_of(read_prices(d / f"{panel}_index.csv"))[:, 0]
    want = float(np.mean(constituents.var(axis=0)) / index.var())
    ratio = _single_row(d, "variance_ratio")["ratio"]
    problems = _close("ratio", ratio, want)
    if paper:
        m_even = even_estimate(np.corrcoef(constituents, rowvar=False))
        problems += _within("ratio", ratio, m_even, 0.1 * m_even)
    return problems


def check_subset_curve(d: Path, sizes) -> list[str]:
    header, rows = read_tsv(d / stdout_name("subset_curve"))
    if [int(r[0]) for r in rows] != list(sizes):
        return [f"sizes {[r[0] for r in rows]}, expected {list(sizes)}"]
    problems = []
    for row in rows:
        size = int(row[0])
        for name, value in zip(header[1:], map(float, row[1:])):
            if not (math.isfinite(value) and 1.0 - 1e-9 <= value <= size + 1e-9):
                problems.append(f"size {size}: {name} = {value} outside [1, {size}]")
    return problems


def check_sliding(d: Path, prices: str, length: int, step: int, seed: int) -> list[str]:
    price_matrix = read_prices(prices)
    with open(prices) as fh:
        dates = [line.split(",", 1)[0] for line in fh][1:]
    returns = returns_of(price_matrix)
    n_windows = (len(dates) - length) // step + 1
    _, rows = read_tsv(d / stdout_name("sliding"))
    if len(rows) != n_windows:
        return [f"{len(rows)} windows, expected {n_windows}"]
    problems = []
    # Oracle on the first and last window plus up to 30 seeded others.
    rng = np.random.default_rng(seed)
    sample = {0, n_windows - 1, *rng.choice(n_windows, size=min(30, n_windows), replace=False)}
    for k in sorted(sample):
        start = k * step
        chunk = returns[start : start + length - 1]
        date, m_ef, annual = rows[k][0], float(rows[k][1]), float(rows[k][2])
        if date != dates[start + length - 1]:
            problems.append(f"window {k}: end date {date}, expected {dates[start + length - 1]}")
        problems += _close(f"window {k} m_ef", m_ef,
                           entry_sum_of_inverse(np.corrcoef(chunk, rowvar=False)))
        problems += _close(f"window {k} annual_return", annual, 252 * float(chunk.mean()))
    return problems


def check_fig1(d: Path, m: int, p_list, c_grid) -> list[str]:
    _, rows = read_tsv(d / stdout_name("fig1"))
    expected = [(p, c) for p in p_list for c in c_grid]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for (p, c), row in zip(expected, rows):
        got_p, got_c, approx, numeric = map(float, row)
        if (got_p, got_c) != (p, c):
            problems.append(f"row ({got_p}, {got_c}), expected ({p}, {c})")
        problems += _close(f"p={p} C={c} m_ef_approx", approx, m / (1.0 + (m - 1) * c), 1e-9)
        if not 1.0 - 1e-9 <= numeric <= m + 1e-9:
            problems.append(f"p={p} C={c}: m_ef_numeric = {numeric} outside [1, {m}]")
    return problems


def check_fig2(d: Path, c_grid) -> list[str]:
    _, rows = read_tsv(d / stdout_name("fig2"))
    if [float(r[0]) for r in rows] != list(c_grid):
        return [f"C_assumed column {[r[0] for r in rows]}, expected {list(c_grid)}"]
    peak = max(rows, key=lambda r: float(r[1]))
    if float(peak[0]) != FIG2_C_TRUE:
        return [f"G_realized peaks at C_assumed = {peak[0]}, not at c_true = {FIG2_C_TRUE}"]
    return []
