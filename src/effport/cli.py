"""Batch command-line surface emitting plot-ready tab-separated tables.

Subcommands: estimate-corr, effsize, subset-curve, sliding, fig1, fig2,
variance-ratio. Every command is a pure function of its inputs, flags, and
seed; rerunning writes byte-identical output. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical error. Each command imports the modules it
runs when it runs, so building the parser loads none of them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    BankruptcyError,
    DataError,
    DomainError,
    EnumerationLimitError,
    ExtrapolationError,
    InputShapeError,
    NearSingularError,
    ParseError,
    fmt_float,
)

if TYPE_CHECKING:
    from . import corrmat, marketdata

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"cannot parse float list {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"cannot parse integer list {text!r}") from None


def _write_table(out_path: str | None, header: Sequence[str], rows: Iterable[Sequence[str]]):
    lines = ["\t".join(header)]
    lines.extend("\t".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix_rows(assets: Sequence[str], values: np.ndarray):
    for name, row in zip(assets, values):
        yield [name] + [fmt_float(v) for v in row]


def _read_corr_file(path: str) -> tuple[tuple[str, ...], corrmat.CorrelationMatrix]:
    """Read a correlation matrix in the estimate-corr output format."""
    from . import corrmat, marketdata

    with open(path, "r", newline="") as fh:
        header, table = marketdata.csv_table(fh, delimiter="\t")
        if not header or header[0] != "asset":
            raise ParseError("header must start with an 'asset' column", line=1)
        assets = tuple(header[1:])
        if not assets:
            raise ParseError("header lists no assets", line=1)
        rows = []
        names = []
        for lineno, row in table(len(assets) + 1):
            names.append(row[0])
            try:
                rows.append([float(tok) for tok in row[1:]])
            except ValueError:
                raise ParseError("unparseable matrix entry", line=lineno) from None
    if tuple(names) != assets:
        raise DataError("row labels do not match the header asset order")
    return assets, corrmat.CorrelationMatrix(np.asarray(rows))


def _load_panel(path: str) -> marketdata.PricePanel:
    """Load a price panel, reporting any assets dropped for missing quotes."""
    from . import marketdata

    panel = marketdata.load_prices(path)
    if panel.dropped_assets:
        print(
            f"dropped {len(panel.dropped_assets)} asset(s) with missing quotes: "
            + ", ".join(panel.dropped_assets),
            file=sys.stderr,
        )
    return panel


def _corr_from_prices(path: str) -> tuple[tuple[str, ...], corrmat.CorrelationMatrix]:
    from . import corrmat, marketdata

    panel = _load_panel(path)
    returns = marketdata._returns_matrix(panel)
    if panel.n_assets < 2:
        raise InputShapeError(f"need at least 2 series, got {panel.n_assets}")
    if len(returns) < 2:
        raise InputShapeError(f"return series needs at least 2 periods, got {len(returns)}")
    return panel.assets, corrmat.CorrelationMatrix(corrmat.correlation_values(returns))


def _cmd_estimate_corr(args) -> int:
    from . import effsize

    assets, corr = _corr_from_prices(args.prices)
    eigs = np.linalg.eigvalsh(corr.values)
    summary_header = ["M", "mean_corr", "eig_min", "eig_max"]
    summary_row = [
        str(corr.dim),
        fmt_float(effsize.average_correlation(corr)),
        fmt_float(eigs[0]),
        fmt_float(eigs[-1]),
    ]
    matrix_header = ["asset", *assets]
    if args.out:
        _write_table(args.out, matrix_header, _matrix_rows(assets, corr.values))
        _write_table(None, summary_header, [summary_row])
    else:
        _write_table(None, matrix_header, _matrix_rows(assets, corr.values))
        sys.stderr.write("\t".join(summary_header) + "\n" + "\t".join(summary_row) + "\n")
    return EXIT_OK


def _cmd_effsize(args) -> int:
    from . import effsize, marketdata

    _require(bool(args.prices) != bool(args.corr), "give exactly one of --prices or --corr")
    if args.prices:
        assets, corr = _corr_from_prices(args.prices)
    else:
        assets, corr = _read_corr_file(args.corr)
    partition = (
        marketdata.partition_for_assets(assets, marketdata.load_sectors(args.sectors))
        if args.sectors
        else None
    )
    report = effsize.effsize_report(corr, partition=partition)
    row = [
        str(report.m),
        fmt_float(report.m_exact),
        fmt_float(report.m_even),
        fmt_float(report.m_uniform) if report.m_uniform is not None else "nan",
        fmt_float(report.m_sector) if report.m_sector is not None else "nan",
    ]
    _write_table(args.out, ["M", "m_exact", "m_even", "m_uniform", "m_sector"], [row])
    return EXIT_OK


def _cmd_subset_curve(args) -> int:
    from . import marketdata

    sizes = _int_list(args.sizes)
    _require(len(sizes) >= 1, "--sizes must list at least one portfolio size")
    _require(all(s >= 2 for s in sizes), "every portfolio size must be >= 2")
    _require(args.draws >= 1, "--draws must be >= 1")
    panel = _load_panel(args.prices)
    partition = (
        marketdata.partition_for_assets(panel.assets, marketdata.load_sectors(args.sectors))
        if args.sectors
        else None
    )
    spec = marketdata.SubsetCurveSpec(sizes=tuple(sizes), draws=args.draws, seed=args.seed)
    points = marketdata.subset_curve(panel, spec, partition)
    total_skipped = sum(pt.skipped for pt in points)
    if total_skipped > 0.01 * args.draws * len(sizes):
        print(
            f"warning: skipped {total_skipped} singular subset draws "
            f"out of {args.draws * len(sizes)}",
            file=sys.stderr,
        )
    rows = [
        [str(pt.size), fmt_float(pt.m_exact), fmt_float(pt.m_sector), fmt_float(pt.m_even)]
        for pt in points
    ]
    _write_table(args.out, ["M", "m_exact", "m_sector", "m_even"], rows)
    return EXIT_OK


def _cmd_sliding(args) -> int:
    from . import marketdata

    length = marketdata.TRADING_DAYS_PER_YEAR if args.window is None else args.window
    try:
        window = marketdata.WindowSpec(length=length, step=args.step)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None
    panel = _load_panel(args.prices)
    points = marketdata.sliding_window_effsize(panel, window)
    nan_windows = sum(np.isnan(pt.m_ef) for pt in points)
    if nan_windows:
        print(
            f"warning: {nan_windows} near-singular windows out of {len(points)} "
            "have m_ef = nan",
            file=sys.stderr,
        )
    rows = [[pt.end_date, fmt_float(pt.m_ef), fmt_float(pt.annualized_return)] for pt in points]
    _write_table(args.out, ["date", "m_ef", "annual_return"], rows)
    return EXIT_OK


def _cmd_fig1(args) -> int:
    from . import binmodel, kelly

    _require(1 <= args.m <= kelly.MAX_SYMMETRIC_ASSETS,
             f"--m must lie in [1, {kelly.MAX_SYMMETRIC_ASSETS}]")
    p_values = _float_list(args.p_list)
    c_grid = _float_list(args.c_grid) if args.c_grid else [round(0.05 * i, 10) for i in range(21)]
    _require(all(0.5 < p < 1.0 for p in p_values),
             "every win probability must lie in (0.5, 1)")
    _require(all(0.0 <= c <= 1.0 for c in c_grid), "every correlation must lie in [0, 1]")
    rows = []
    for p in p_values:
        totals = kelly.uncorrelated_total_curve(args.m, p)
        for c in c_grid:
            law = binmodel.win_count_law(binmodel.BinaryModelParams(args.m, p, c))
            target = kelly.maximize_growth_symmetric(law).total_fraction
            numeric = kelly.invert_total_curve(totals, target)
            rows.append(
                [
                    fmt_float(p),
                    fmt_float(c),
                    fmt_float(binmodel.m_ef_uniform(args.m, c)),
                    fmt_float(numeric),
                ]
            )
    _write_table(args.out, ["p", "C", "m_ef_approx", "m_ef_numeric"], rows)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    from . import kelly

    _require(1 <= args.m <= kelly.MAX_SYMMETRIC_ASSETS,
             f"--m must lie in [1, {kelly.MAX_SYMMETRIC_ASSETS}]")
    _require(0.0 < args.p < 1.0, "--p must lie in (0, 1)")
    _require(0.0 <= args.c_true <= 1.0, "--c-true must lie in [0, 1]")
    c_grid = (
        _float_list(args.c_grid) if args.c_grid else [round(0.05 * i, 10) for i in range(13)]
    )
    _require(all(0.0 <= c <= 1.0 for c in c_grid), "every correlation must lie in [0, 1]")
    results = kelly.misestimation_experiment(args.m, args.p, args.c_true, c_grid)
    rows = [[fmt_float(r.c_assumed), fmt_float(r.g_realized)] for r in results]
    _write_table(args.out, ["C_assumed", "G_realized"], rows)
    return EXIT_OK


def _cmd_variance_ratio(args) -> int:
    from . import corrmat, effsize, marketdata

    index_panel = _load_panel(args.index)
    if index_panel.n_assets != 1:
        raise DataError(
            f"index file must hold exactly one asset column, found {index_panel.n_assets}"
        )
    panel = _load_panel(args.constituents)
    if index_panel.dates != panel.dates:
        raise DataError("index and constituent files cover different dates")
    index_returns = marketdata._returns_matrix(index_panel)[:, 0]
    ratio = effsize.m_ef_variance_ratio(index_returns, list(marketdata._returns_matrix(panel).T))
    index_var = corrmat.SummaryStats.of(index_returns).variance
    mean_var = ratio * index_var
    row = [
        str(panel.n_assets),
        fmt_float(mean_var),
        fmt_float(index_var),
        fmt_float(ratio),
    ]
    _write_table(
        args.out, ["M", "mean_constituent_variance", "index_variance", "ratio"], [row]
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="effport",
        description="Effective portfolio size from correlation structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("estimate-corr", help="estimate a correlation matrix from prices")
    p.add_argument("prices", help="price panel CSV")
    p.add_argument("--out", help="write the matrix here; summary goes to stdout")
    p.set_defaults(func=_cmd_estimate_corr)

    p = sub.add_parser("effsize", help="effective-size report for one asset set")
    p.add_argument("--prices", help="price panel CSV")
    p.add_argument("--corr", help="correlation matrix TSV (estimate-corr format)")
    p.add_argument("--sectors", help="asset,sector CSV enabling the sector estimate")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_effsize)

    p = sub.add_parser("subset-curve", help="size dependence over random subsets")
    p.add_argument("--prices", required=True)
    p.add_argument("--sectors")
    p.add_argument("--sizes", required=True, help="comma-separated portfolio sizes")
    p.add_argument("--draws", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_subset_curve)

    p = sub.add_parser("sliding", help="sliding-window effective-size time series")
    p.add_argument("--prices", required=True)
    p.add_argument("--window", type=int, help="window length in trading days")
    p.add_argument("--step", type=int, default=1, help="stride in trading days")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sliding)

    p = sub.add_parser("fig1", help="approximate vs numeric effective size grid")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--p-list", default="0.55,0.6,0.7", help="comma-separated win probabilities")
    p.add_argument("--c-grid", default=None, help="comma-separated correlations (default 0..1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="growth under misestimated correlation")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--p", type=float, default=0.55)
    p.add_argument("--c-true", type=float, default=0.2)
    p.add_argument("--c-grid", default=None, help="comma-separated correlations (default 0..0.6)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("variance-ratio", help="index-vs-constituent variance ratio")
    p.add_argument("--index", required=True, help="single-asset price CSV for the index")
    p.add_argument("--constituents", required=True, help="price CSV for the constituents")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_variance_ratio)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"effport: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DataError, InputShapeError, DomainError, OSError) as exc:
        print(f"effport: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NearSingularError, BankruptcyError, EnumerationLimitError, ExtrapolationError) as exc:
        print(f"effport: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
