"""Price-panel ingestion and the empirical effective-size pipelines.

File formats
------------
Price file: delimiter-separated text with a header row ``date,ASSET1,...``,
one row per trading day, ``YYYY-MM-DD`` dates in strictly increasing order,
and positive finite decimal prices. An empty cell marks a missing quote;
assets with any missing quote are dropped (and reported) rather than imputed.

Sector file: two columns ``asset,sector`` with a header row.

All tabular output is tab-separated with a header row and floats rendered
with 10 significant digits, so reruns with identical inputs and seed are
byte-identical.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corrmat import ReturnSeries, _centred_sums, _to_correlations, correlation_values
from .effsize import SectorPartition, m_ef_even_stack, m_ef_exact_stack, m_ef_sector_stack
from .errors import DataError, DomainError, InputShapeError, ParseError
from .errors import fmt_float  # noqa: F401  (re-exported; the writer's format)

#: Annualization factor: trading days per year.
TRADING_DAYS_PER_YEAR = 252

#: Bytes of one (k, n, n) stack in the subset and sliding pipelines. Only one
#: stack and its Cholesky factor are held at a time, so memory does not grow
#: with M. No result depends on k: every matrix is solved on its own, and the
#: rolling sums of sliding carry over from stack to stack and restart at fixed
#: window indices. Fresh-process peak RSS of subset-curve on data/ was 38.9,
#: 39.6, 41.1, 43.1 and 46.3 MB at 2^18 to 2^22 bytes (42.3 MB at 256 matrices
#: a stack); below 2^20 subset_curve got slower (+6% at 2^19, +26% at 2^18),
#: and at M = 100 a stack is already 13 matrices.
_STACK_BYTES = 1 << 20


def _stack_len(n: int) -> int:
    """Matrices of size n in one stack: as many as fit in _STACK_BYTES, at least one."""
    return max(1, _STACK_BYTES // (8 * n * n))


@dataclass(frozen=True, eq=False)
class PricePanel:
    """Rectangular panel of adjusted closing prices.

    ``dropped_assets`` reports columns removed by the loader because of
    missing quotes. A read-only C-contiguous float64 array owning its data is not copied.
    """

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    prices: np.ndarray
    dropped_assets: tuple[str, ...] = ()

    def __post_init__(self):
        p = np.asarray(self.prices, dtype=float)
        if p.ndim != 2 or p.shape != (len(self.dates), len(self.assets)):
            raise InputShapeError(
                f"prices shape {p.shape} does not match "
                f"{len(self.dates)} dates x {len(self.assets)} assets"
            )
        if len(self.dates) < 1:
            raise InputShapeError("panel needs at least one date")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("dates must be strictly increasing")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise DataError("all prices must be positive and finite")
        if p.flags.writeable or not (p.flags.owndata and p.flags.c_contiguous):
            p = np.array(p)
            p.flags.writeable = False
        object.__setattr__(self, "prices", p)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "assets", tuple(self.assets))

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: length and stride, in trading days."""

    length: int = TRADING_DAYS_PER_YEAR
    step: int = 1

    def __post_init__(self):
        if self.length < 30:
            raise DomainError(f"window length must be >= 30 trading days, got {self.length}")
        if self.step < 1:
            raise DomainError(f"window step must be >= 1, got {self.step}")


@dataclass(frozen=True)
class SubsetCurveSpec:
    """Random-subset experiment: portfolio sizes, draws per size, and seed."""

    sizes: tuple[int, ...]
    draws: int = 5000
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 1:
            raise DomainError("need at least one portfolio size")
        if any(s < 2 for s in sizes):
            raise DomainError(f"every portfolio size must be >= 2, got {sizes}")
        if self.draws < 1:
            raise DomainError(f"draws must be >= 1, got {self.draws}")
        object.__setattr__(self, "sizes", sizes)


class WindowPoint(NamedTuple):
    """One sliding-window result; m_ef is NaN for a near-singular window."""

    end_date: str
    m_ef: float
    annualized_return: float


class SubsetCurvePoint(NamedTuple):
    """Per-size averages over random subsets; NaN where not computable."""

    size: int
    m_exact: float
    m_sector: float
    m_even: float
    skipped: int


def _open_text(source):
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", newline=""), True


def csv_table(fh, delimiter: str = ","):
    """The header row of a delimited table and a generator function ``rows``.

    ``rows(width)`` yields ``(line, row)`` for each nonblank row after the
    header and raises ParseError, naming the line, for a row that does not
    hold ``width`` fields, and at the end if it yielded nothing. An empty file
    raises ParseError, and so does a csv.Error (such as a field longer than
    ``csv.field_size_limit()``), naming the line.
    """
    reader = csv.reader(fh, delimiter=delimiter)

    def read():
        try:
            yield from reader
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None

    records = read()
    header = next(records, None)
    if header is None:
        raise ParseError("empty file")

    def rows(width: int):
        found = False
        for line, row in enumerate(records, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} fields, found {len(row)}", line=line)
            found = True
            yield line, row
        if not found:
            raise ParseError("file holds no data rows")

    return header, rows


def load_prices(source) -> PricePanel:
    """Load and validate a price panel from a CSV path or file object.

    Assets with any missing quote are dropped and listed in
    ``dropped_assets``; syntax problems (including dates not in
    ``YYYY-MM-DD`` form and ``nan``/``inf`` prices) raise ParseError with the
    line number, nonpositive prices raise DataError.

    A regular file (no quotes, carriage returns, blank lines or missing
    quotes) is read in blocks of whole lines into one ``np.loadtxt`` call,
    holding little more than the price array. Any other file is read again
    from its start by the row-by-row reader, which alone judges irregular
    input and builds every error, so both routes accept the same files.
    """
    fh, owns = _open_text(source)
    try:
        if not fh.seekable():
            fh = io.StringIO(fh.read(), newline="")
        start = fh.tell()
        try:
            return _load_block(fh)
        except ValueError:
            fh.seek(start)
            # a file object is split into lines as an opened path is
            return _load_rows(fh if owns else io.StringIO(fh.read(), newline=""))
    finally:
        if owns:
            fh.close()


def _header_assets(header: list[str]) -> list[str]:
    header = [h.strip() for h in header]
    if not header or header[0] != "date":
        raise ParseError("header must start with a 'date' column", line=1)
    assets = header[1:]
    if not assets:
        raise ParseError("header lists no asset columns", line=1)
    if len(set(assets)) != len(assets):
        raise ParseError("duplicate asset names in header", line=1)
    return assets


#: Characters the block reader takes per read, then up to the next line end.
#: The block's strings are live at the peak of the parse; at 2^18 they lift it
#: from 1.5 to 1.7 price arrays on a 20 001 x 30 panel, at no gain in speed.
_BLOCK_CHARS = 1 << 16


class _Irregular(ValueError):
    """Input that the block reader leaves to the row reader."""


def _regular_lines(fh, m: int, dates: list[str]):
    """The data lines of ``fh``, checked a block at a time; dates go to ``dates``.

    Raises _Irregular at a block with quotes, carriage returns, an empty cell,
    a field-count mismatch or a line over the csv field-size limit, at the end
    of a file with no data line, and ValueError at an invalid date.
    """
    while block := fh.read(_BLOCK_CHARS):
        if block[-1] != "\n":
            block += fh.readline()
        lines = block.removesuffix("\n").split("\n")
        if ('"' in block or "\r" in block or ",," in block or block.count(",") != len(lines) * m
                or max(map(len, lines)) > csv.field_size_limit()):
            raise _Irregular
        for line in lines:
            if line[10:11] != "," or line[4] != "-" or line[7] != "-" or line[-1] == ",":
                raise _Irregular
            date = line[:10]
            datetime.date.fromisoformat(date)
            dates.append(date)
        yield from lines
    # so loadtxt never parses (and warns about) an empty input
    if not dates:
        raise _Irregular


def _load_block(fh) -> PricePanel:
    """The prices of an open file through one ``np.loadtxt`` call over
    :func:`_regular_lines`. Raises ValueError for every input the row reader
    must judge, an unconvertible, nonfinite or nonpositive price included."""
    head = fh.readline().removesuffix("\n")
    # the row reader refuses fields longer than the limit, header fields included
    if not head or '"' in head or "\r" in head or len(head) > csv.field_size_limit():
        raise _Irregular
    assets = _header_assets(head.split(","))
    dates: list[str] = []
    # comments=None: with the default "#", the cell "2.0#c" would read as 2.0
    prices = np.loadtxt(
        _regular_lines(fh, len(assets), dates), delimiter=",",
        usecols=range(1, len(assets) + 1), dtype=float, ndmin=2, comments=None,
    )
    if not (np.isfinite(prices).all() and (prices > 0.0).all()):
        raise _Irregular
    prices.flags.writeable = False
    return PricePanel(dates=tuple(dates), assets=tuple(assets), prices=prices)


def _load_rows(fh) -> PricePanel:
    """Row-by-row reader: handles missing quotes and builds every load error."""
    header, table = csv_table(fh)
    assets = _header_assets(header)

    dates: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in table(len(assets) + 1):
        token = row[0].strip()
        try:
            # fromisoformat alone also takes 20080103 on Python >= 3.11
            if len(token) != 10 or token[4] != "-" or token[7] != "-":
                raise ValueError
            datetime.date.fromisoformat(token)
        except ValueError:
            raise ParseError(
                f"invalid date {token!r}, expected YYYY-MM-DD", line=lineno
            ) from None
        values = []
        for name, cell in zip(assets, row[1:]):
            cell = cell.strip()
            if cell == "":
                values.append(np.nan)
                continue
            try:
                price = float(cell)
                if not math.isfinite(price):
                    raise ValueError
            except ValueError:
                raise ParseError(
                    f"unparseable price {cell!r} for {name}", line=lineno
                ) from None
            if price <= 0.0:
                raise DataError(f"line {lineno}: nonpositive price {cell} for {name}")
            values.append(price)
        dates.append(token)
        rows.append(values)

    prices = np.asarray(rows, dtype=float)
    complete = ~np.any(np.isnan(prices), axis=0)
    dropped = tuple(a for a, keep in zip(assets, complete) if not keep)
    kept = tuple(a for a, keep in zip(assets, complete) if keep)
    prices = prices.compress(complete, axis=1)
    prices.flags.writeable = False
    return PricePanel(dates=tuple(dates), assets=kept, prices=prices, dropped_assets=dropped)


def _returns_matrix(panel: PricePanel) -> np.ndarray:
    """The panel's (T, M) simple returns, each column refused as ReturnSeries
    refuses a series: DomainError naming the first asset with a bad return."""
    if panel.n_dates < 2:
        raise InputShapeError("need at least 2 dates to compute returns")
    # an overflowing return becomes inf with no numpy warning: the refusal is the message
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        returns = np.diff(panel.prices, axis=0) / panel.prices[:-1]
    # column by column, so that no second (T, M) array is formed
    for name, column in zip(panel.assets, returns.T):
        if not (np.isfinite(column).all() and (column > -1.0).all()):
            ReturnSeries(name, column)  # raises, naming the series and the rule
    return returns


def compute_returns(panel: PricePanel) -> list[ReturnSeries]:
    """Per-asset simple returns (w[t+1] - w[t]) / w[t], one series per asset."""
    rets = _returns_matrix(panel)
    return [ReturnSeries(asset, rets[:, j]) for j, asset in enumerate(panel.assets)]


def sliding_window_effsize(panel: PricePanel, window: WindowSpec) -> list[WindowPoint]:
    """Time series of effective size and annualized mean return per window.

    Window k covers the prices at dates [k*step, k*step + length); the
    correlation matrix is estimated from the length-1 returns inside it, by
    :func:`_window_correlations`. Near-singular windows yield a NaN gap marker
    instead of failing the run.
    """
    t = panel.n_dates
    if t < window.length:
        raise InputShapeError(
            f"panel spans {t} dates, shorter than the {window.length}-day window"
        )
    returns = _returns_matrix(panel)
    rows = window.length - 1
    m_ef = np.concatenate([
        m_ef_exact_stack(corrs) for corrs in _window_correlations(returns, rows, window.step)
    ])
    return [
        WindowPoint(
            panel.dates[s + rows], m, TRADING_DAYS_PER_YEAR * float(returns[s : s + rows].mean())
        )
        for s, m in zip(range(0, t - rows, window.step), m_ef.tolist())
    ]


#: Windows from one restart of the rolling sums of :func:`_window_correlations`
#: to the next, counted from window 0.
_RESTART_WINDOWS = 16

#: Largest ratio of a column's largest shifted square sum since the last
#: restart to its square sum about the window's mean that
#: :func:`_window_correlations` accepts.
_CANCELLATION = 4.0


def _window_correlations(returns: np.ndarray, rows: int, step: int):
    """Correlations of the windows of ``rows`` returns that start every
    ``step`` rows of a (T, M) return matrix, yielded in stacks of at most
    :func:`_stack_len` matrices that share one buffer: each stack is
    overwritten by the next.

    A window's column sums and cross-product sums of its returns, shifted by
    the column means of the window that last restarted them, come from the
    previous window's by adding the rows that enter and removing the rows
    that leave (Chan, Golub & LeVeque 1983; Pebay 2008): one batched matmul
    for the stack, then a cumulative sum. Every ``_RESTART_WINDOWS``-th
    window, and every window when the step is at least half a window, is
    summed alone about its own means, and so is every window where the
    largest shifted square sum of a column since the restart exceeds
    ``_CANCELLATION`` times its square sum about the window's mean, as the
    rounding of the running sums grows with the former. A column is
    risk-free (correlation 0) in a window where none of its returns differs
    from the one before; :func:`~effport.corrmat._to_correlations` turns the
    sums into correlations. No result depends on the stack length.
    """
    t, m = returns.shape
    starts = np.arange(0, t - rows + 1, step)
    period = _RESTART_WINDOWS if 2 * step < rows else 1
    # the rows that enter a window, then those that leave it, from its first
    # row (summed while period > 1); a stack of them, or of the row-change
    # counts below, takes no more than _STACK_BYTES either
    offsets = np.r_[rows - step : rows, -step:0]
    k = min(_stack_len(m), max(1, _STACK_BYTES // (16 * step * m)))

    def window(w):
        return returns[starts[w] : starts[w] + rows]

    cross_buffer = np.empty((min(k, len(starts)), m, m))
    sums_buffer = np.empty((len(cross_buffer), m))
    for first in range(0, len(starts), k):
        last = min(first + k, len(starts))
        cross, sums = cross_buffer[: last - first], sums_buffer[: last - first]
        # a column varies in a window where its count of row-to-row changes
        # over the rows of the stack grows inside the window
        lo, hi = starts[first], starts[last - 1] + rows
        changes = np.zeros((hi - lo, m), dtype=np.int32)
        np.cumsum(returns[lo + 1 : hi] != returns[lo : hi - 1], axis=0, dtype=np.int32,
                  out=changes[1:])
        varying = changes[starts[first:last] - lo + rows - 1] != changes[starts[first:last] - lo]
        del changes
        if period > 1:
            # each window's entering rows less its leaving rows, shifted by the
            # column means of its restart window (window 0 has none: it is one)
            segment = np.arange(first, last) // period
            shifts = np.array([window(s * period).mean(axis=0)
                               for s in range(segment[0], segment[-1] + 1)])
            moved = returns[starts[first:last, None] + offsets]
            moved -= shifts[segment - segment[0], None]
            signed = moved.copy()
            signed[:, step:] *= -1.0
            np.matmul(signed.transpose(0, 2, 1), moved, out=cross)
            signed.sum(axis=1, out=sums)
            del moved, signed  # not held while the caller solves the stack
            if first % period:
                cross[0] += carry_cross
                sums[0] += carry_sums
        restarts = range(-(-first // period) * period, last, period)
        for w in restarts:
            _centred_sums(window(w), cross[w - first], sums[w - first])
        # each piece runs from a restart, or the stack's start, to the next one
        bounds = sorted({first, last, *restarts})
        square_sums = cross.diagonal(axis1=1, axis2=2)
        peak = np.empty_like(sums)
        for a, b in zip(bounds, bounds[1:]):
            piece = slice(a - first, b - first)
            np.cumsum(cross[piece], axis=0, out=cross[piece])
            np.cumsum(sums[piece], axis=0, out=sums[piece])
            np.maximum.accumulate(square_sums[piece], axis=0, out=peak[piece])
        if first % period:
            piece = slice(0, bounds[1] - first)
            np.maximum(peak[piece], carry_peak, out=peak[piece])
        carry_cross, carry_sums, carry_peak = cross[-1].copy(), sums[-1].copy(), peak[-1].copy()
        # the sums' rounding grows with the largest square sum since the
        # restart: where that dwarfs the variance, sum the window alone
        lossy = varying & (peak > _CANCELLATION * (square_sums - sums**2 / rows))
        for j in np.flatnonzero(lossy.any(axis=1)):
            _centred_sums(window(first + j), cross[j], sums[j])
        yield _to_correlations(cross, sums, rows, varying)


def _draw_subsets(rng: np.random.Generator, universe: int, size: int, count: int) -> np.ndarray:
    """Sorted index rows of ``count`` successive draws of
    ``rng.choice(universe, size, replace=False)``, with the same values and
    the same generator state afterwards.

    ``Generator.choice`` draws by Floyd's algorithm, one bounded integer in
    [0, j] for each j = universe - size .. universe - 1 (j itself where the
    integer was drawn before), then shuffles with one bounded integer in
    [0, i] for each i = size - 1 .. 1. One ``rng.integers`` call with those
    bounds makes the same calls to the bit generator; the shuffle's integers
    only reorder a draw, which is sorted here. For a large universe numpy
    shuffles a full range instead, and so does this function by calling it.
    """
    if universe > 10_000 and size > universe // 50:
        return np.sort([rng.choice(universe, size, replace=False) for _ in range(count)], axis=1)
    floyd = np.arange(universe - size, universe)
    bounds = np.concatenate([floyd, np.arange(size - 1, 0, -1)])
    idx = rng.integers(0, np.broadcast_to(bounds, (count, bounds.size)), endpoint=True)[:, :size]
    for t in range(1, size):
        drawn = (idx[:, :t] == idx[:, t, None]).any(axis=1)
        idx[drawn, t] = floyd[t]
    idx.sort(axis=1)
    return idx


def _evaluate_subsets(corr: np.ndarray, idx: np.ndarray, codes: np.ndarray | None):
    """Exact, even and sector estimates (NaN where undefined) for index rows."""
    sub = corr[idx[:, :, None], idx[:, None, :]]
    sector = (
        m_ef_sector_stack(sub, codes[idx]) if codes is not None else np.full(len(idx), np.nan)
    )
    return np.stack([m_ef_exact_stack(sub), m_ef_even_stack(sub), sector])


def subset_curve(
    panel: PricePanel,
    spec: SubsetCurveSpec,
    partition: SectorPartition | None = None,
) -> list[SubsetCurvePoint]:
    """Average effective-size estimates over random subsets of each size.

    The correlation matrix is estimated once on the full panel; each draw
    selects a subset without replacement and evaluates the exact, sector, and
    average-correlation estimates on the corresponding sub-matrix. A draw is
    skipped and counted when its sub-matrix or its sector reduction is
    near-singular, or its even estimate is undefined. Draws are evaluated in
    stacks of :func:`_stack_len` matrices, whose length changes no result;
    fixed (panel, spec, seed) gives identical output.
    """
    universe = panel.n_assets
    for size in spec.sizes:
        if size > universe:
            raise DomainError(
                f"portfolio size {size} exceeds the {universe}-asset universe"
            )
    codes = partition.codes(universe) if partition is not None else None
    corr = correlation_values(_returns_matrix(panel))
    rng = np.random.default_rng(spec.seed)
    points: list[SubsetCurvePoint] = []
    for size in spec.sizes:
        k = _stack_len(size)
        blocks = []
        for first in range(0, spec.draws, k):
            idx = _draw_subsets(rng, universe, size, min(k, spec.draws - first))
            blocks.append(_evaluate_subsets(corr, idx, codes))
        exact, even, sector = np.concatenate(blocks, axis=1)
        keep = ~(np.isnan(exact) | np.isnan(even))
        if codes is not None:
            keep &= ~np.isnan(sector)
        points.append(
            SubsetCurvePoint(
                size=size,
                m_exact=float(np.mean(exact[keep])) if keep.any() else float("nan"),
                m_sector=float(np.mean(sector[keep])) if keep.any() else float("nan"),
                m_even=float(np.mean(even[keep])) if keep.any() else float("nan"),
                skipped=int(np.count_nonzero(~keep)),
            )
        )
    return points


def load_sectors(source) -> dict[str, str]:
    """Load an asset-to-sector map from a two-column CSV with header."""
    fh, owns = _open_text(source)
    try:
        header, table = csv_table(fh)
        if [h.strip() for h in header[:2]] != ["asset", "sector"]:
            raise ParseError("header must be 'asset,sector'", line=1)
        mapping: dict[str, str] = {}
        for lineno, row in table(2):
            asset, sector = row[0].strip(), row[1].strip()
            if not asset or not sector:
                raise ParseError("empty asset or sector name", line=lineno)
            if asset in mapping:
                raise ParseError(f"duplicate asset {asset!r}", line=lineno)
            mapping[asset] = sector
    finally:
        if owns:
            fh.close()
    return mapping


def partition_for_assets(assets: Sequence[str], sectors: dict[str, str]) -> SectorPartition:
    """Restrict an asset->sector map to an ordered asset list, by list index."""
    missing = [a for a in assets if a not in sectors]
    if missing:
        raise InputShapeError(f"sector file misses assets: {', '.join(missing)}")
    return SectorPartition({i: sectors[a] for i, a in enumerate(assets)})


def panel_from_returns(
    returns: np.ndarray,
    assets: Sequence[str] | None = None,
    scale: float = 1.0,
) -> PricePanel:
    """Build a synthetic price panel by compounding a (T, M) return matrix.

    Lets sampled return matrices (e.g. from the hidden-asset model) reuse the
    price-panel pipeline; ``scale`` shrinks unit-size returns to price-like
    magnitudes without touching their correlations. Prices start at 100 and
    dates are consecutive calendar days from 2000-01-03.
    """
    r = np.array(returns, dtype=float)
    r *= scale
    if r.ndim != 2:
        raise InputShapeError(f"returns must be a (T, M) matrix, got shape {r.shape}")
    t, m = r.shape
    if assets is None:
        assets = [f"A{j + 1:03d}" for j in range(m)]
    if len(assets) != m:
        raise InputShapeError(f"{len(assets)} asset names for {m} columns")
    prices = np.empty((t + 1, m))
    prices[0] = 100.0
    # in place, and bitwise equal to 100.0 * np.cumprod(1.0 + r, axis=0)
    r += 1.0
    np.cumprod(r, axis=0, out=prices[1:])
    prices[1:] *= prices[0]
    prices.flags.writeable = False
    origin = datetime.date(2000, 1, 3).toordinal()
    dates = tuple(
        datetime.date.fromordinal(origin + i).isoformat() for i in range(t + 1)
    )
    return PricePanel(dates=dates, assets=tuple(assets), prices=prices)


def write_prices_csv(panel: PricePanel, dest) -> None:
    """Write a panel in the loader's CSV format with 10-significant-digit prices,
    formatting one row at a time so that little memory is used beyond the panel."""
    # "%.10g" % x is fmt_float(x), character for character
    row = "%s," + ",".join(["%.10g"] * panel.n_assets) + "\n"
    fh, owns = (dest, False) if hasattr(dest, "write") else (open(dest, "w", newline="\n"), True)
    try:
        fh.write("date," + ",".join(panel.assets) + "\n")
        fh.writelines(
            row % (date, *values.tolist()) for date, values in zip(panel.dates, panel.prices)
        )
    finally:
        if owns:
            fh.close()
