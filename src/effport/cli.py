"""Batch command-line surface emitting plot-ready tab-separated tables.

Subcommands: estimate-corr, effsize, subset-curve, sliding, fig1, fig2,
variance-ratio. Every command is a pure function of its inputs, flags, and
seed; rerunning writes byte-identical output. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical error. Each command imports the modules it
runs when it runs, so building the parser loads none of them, and fig1 and
fig2 load no numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BankruptcyError,
    DataError,
    DomainError,
    EnumerationLimitError,
    ExtrapolationError,
    InputShapeError,
    NearSingularError,
    ParseError,
    open_text,
    write_table,
)

if TYPE_CHECKING:
    from . import corrmat, effsize, marketdata

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


@contextmanager
def _flags():
    """Report a library refusal of a flag value as a usage error."""
    try:
        yield
    except (DomainError, EnumerationLimitError) as exc:
        raise _UsageError(str(exc)) from None


def _number_list(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        name = "integer" if kind is int else "float"
        raise _UsageError(f"cannot parse {name} list {text!r}") from None


def _c_grid(text: str | None, points: int) -> list[float]:
    """The correlations of ``--c-grid``, or by default the first ``points`` of 0, 0.05, ..."""
    return _number_list(text) if text else [round(0.05 * i, 10) for i in range(points)]


def _read_corr_file(path: str) -> tuple[tuple[str, ...], corrmat.CorrelationMatrix]:
    """Read a correlation matrix in the estimate-corr output format."""
    from . import corrmat, marketdata

    with open_text(path) as fh:
        assets, table = marketdata.csv_table(fh, "asset", delimiter="\t")
        rows, names = [], []
        for lineno, row in table:
            names.append(row[0].strip())
            try:
                rows.append([float(tok) for tok in row[1:]])
            except ValueError:
                raise ParseError("unparseable matrix entry", line=lineno) from None
    if names != assets:
        raise DataError("row labels do not match the header asset order")
    return tuple(assets), corrmat.CorrelationMatrix(rows)


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


def _partition(args, assets: Sequence[str]) -> effsize.SectorPartition | None:
    """The sector partition of ``assets`` under ``--sectors``, or None without it."""
    from . import marketdata

    if not args.sectors:
        return None
    return marketdata.partition_for_assets(assets, marketdata.load_sectors(args.sectors))


def _corr_from_prices(path: str) -> tuple[tuple[str, ...], corrmat.CorrelationMatrix]:
    from . import corrmat, marketdata

    panel = _load_panel(path)
    returns = marketdata.returns_matrix(panel)
    if panel.n_assets < 2:
        raise InputShapeError(f"need at least 2 series, got {panel.n_assets}")
    return panel.assets, corrmat.CorrelationMatrix(corrmat.correlation_values(returns))


def _cmd_estimate_corr(args) -> int:
    import numpy as np

    from . import effsize

    assets, corr = _corr_from_prices(args.prices)
    eigs = np.linalg.eigvalsh(corr.values)
    write_table(
        args.out or sys.stdout, ("asset", *assets), (str, *[float] * corr.dim),
        ((name, *row.tolist()) for name, row in zip(assets, corr.values)),
    )
    # the summary goes to stdout unless the matrix took it
    write_table(
        sys.stdout if args.out else sys.stderr, ("M", "mean_corr", "eig_min", "eig_max"),
        (int, float, float, float),
        [(corr.dim, effsize.average_correlation(corr), eigs[0], eigs[-1])],
    )
    return EXIT_OK


def _cmd_effsize(args) -> int:
    from . import effsize

    if bool(args.prices) == bool(args.corr):
        raise _UsageError("give exactly one of --prices or --corr")
    if args.prices:
        assets, corr = _corr_from_prices(args.prices)
    else:
        assets, corr = _read_corr_file(args.corr)
    report = effsize.effsize_report(corr, partition=_partition(args, assets))
    optional = [math.nan if v is None else v for v in (report.m_uniform, report.m_sector)]
    write_table(
        args.out or sys.stdout, ("M", "m_exact", "m_even", "m_uniform", "m_sector"),
        (int, float, float, float, float), [(report.m, report.m_exact, report.m_even, *optional)],
    )
    return EXIT_OK


def _cmd_subset_curve(args) -> int:
    from . import marketdata

    with _flags():
        spec = marketdata.SubsetCurveSpec(
            sizes=tuple(_number_list(args.sizes, int)), draws=args.draws, seed=args.seed
        )
    panel = _load_panel(args.prices)
    points = marketdata.subset_curve(panel, spec, _partition(args, panel.assets))
    total_skipped = sum(pt.skipped for pt in points)
    if total_skipped > 0.01 * spec.draws * len(spec.sizes):
        print(
            f"warning: skipped {total_skipped} singular subset draws "
            f"out of {spec.draws * len(spec.sizes)}",
            file=sys.stderr,
        )
    write_table(
        args.out or sys.stdout, ("M", "m_exact", "m_sector", "m_even"), (int, float, float, float),
        [(pt.size, pt.m_exact, pt.m_sector, pt.m_even) for pt in points],
    )
    return EXIT_OK


def _cmd_sliding(args) -> int:
    from . import marketdata

    length = marketdata.TRADING_DAYS_PER_YEAR if args.window is None else args.window
    with _flags():
        window = marketdata.WindowSpec(length=length, step=args.step)
    panel = _load_panel(args.prices)
    points = marketdata.sliding_window_effsize(panel, window)
    nan_windows = sum(math.isnan(pt.m_ef) for pt in points)
    if nan_windows:
        print(
            f"warning: {nan_windows} near-singular windows out of {len(points)} "
            "have m_ef = nan",
            file=sys.stderr,
        )
    write_table(
        args.out or sys.stdout, ("date", "m_ef", "annual_return"), (str, float, float),
        [(pt.end_date, pt.m_ef, pt.annualized_return) for pt in points],
    )
    return EXIT_OK


def _cmd_fig1(args) -> int:
    from . import binmodel, kelly

    p_values = _number_list(args.p_list)
    c_grid = _c_grid(args.c_grid, 21)
    with _flags():
        grids = kelly.m_ef_kelly_numeric_grids(args.m, p_values, c_grid)
        rows = [
            (p, c, binmodel.m_ef_uniform(args.m, c), value)
            for p, numeric in zip(p_values, grids) for c, value in zip(c_grid, numeric)
        ]
    write_table(
        args.out or sys.stdout, ("p", "C", "m_ef_approx", "m_ef_numeric"),
        (float, float, float, float), rows,
    )
    return EXIT_OK


def _cmd_fig2(args) -> int:
    from . import kelly

    c_grid = _c_grid(args.c_grid, 13)
    with _flags():
        results = kelly.misestimation_experiment(args.m, args.p, args.c_true, c_grid)
    write_table(
        args.out or sys.stdout, ("C_assumed", "G_realized"), (float, float),
        [(r.c_assumed, r.g_realized) for r in results],
    )
    return EXIT_OK


def _cmd_variance_ratio(args) -> int:
    from . import effsize, marketdata

    index_panel = _load_panel(args.index)
    if index_panel.n_assets != 1:
        raise DataError(
            f"index file must hold exactly one asset column, found {index_panel.n_assets}"
        )
    panel = _load_panel(args.constituents)
    if index_panel.dates != panel.dates:
        raise DataError("index and constituent files cover different dates")
    index_returns = marketdata.returns_matrix(index_panel)[:, 0]
    ratio = effsize.m_ef_variance_ratio(index_returns, marketdata.returns_matrix(panel))
    index_var = effsize._variance(index_returns)
    write_table(
        args.out or sys.stdout, ("M", "mean_constituent_variance", "index_variance", "ratio"),
        (int, float, float, float), [(panel.n_assets, ratio * index_var, index_var, ratio)],
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effport",
        description="Effective portfolio size from correlation structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    """Run one command line (``sys.argv[1:]`` by default); return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (status 2) or the help (status 0)
        return EXIT_USAGE if exc.code else EXIT_OK
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
