"""Price-panel ingestion and the empirical effective-size pipelines.

File formats
------------
Every input table opens with a header row of a fixed first column and at
least one distinct, nonblank name after it, with no byte-order mark.

Price file: header ``date,ASSET1,...``, then one row per trading day of a
``YYYY-MM-DD`` date (strictly increasing) and positive finite decimal prices.
An empty cell marks a missing quote; an asset with one is dropped (and
reported) rather than imputed.

Sector file: two columns under the header ``asset,sector``.

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

from .corrmat import _correlations, correlation_values, solve_ones_stack
from .effsize import SectorPartition, m_ef_stack
from .errors import DataError, DomainError, InputShapeError, ParseError, write_table

#: Annualization factor: trading days per year.
TRADING_DAYS_PER_YEAR = 252

#: Bytes of one (k, n, n) stack in the subset and sliding pipelines. Only one
#: stack and its Cholesky factor are held at a time. No result depends on k:
#: every matrix is solved on its own. A stack holds at least 16 matrices, so
#: that each Python row step of the Cholesky core serves 16; from n = 91 that
#: floor exceeds this size and grows with n^2.
#: Fresh-process peak RSS of subset-curve on data/ was 38.9, 39.6, 41.1, 43.1
#: and 46.3 MB at 2^18 to 2^22 bytes (42.3 MB at 256 matrices a stack); below
#: 2^20 subset_curve got slower (+6% at 2^19, +26% at 2^18).
_STACK_BYTES = 1 << 20


def _stack_len(n: int) -> int:
    """Matrices of size n in one stack: as many as fit in _STACK_BYTES, at least 16."""
    return max(16, _STACK_BYTES // (8 * n * n))


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
        # the header rule of load_prices, so that a written panel reads back
        for name in self.assets:
            if not isinstance(name, str) or not name or name != name.strip():
                raise DataError(f"asset name {name!r} is blank, padded with spaces or no string")
        if len(set(self.assets)) != len(self.assets):
            raise DataError("duplicate asset names")
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
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
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


def csv_table(fh, first: str, delimiter: str = ",", fixed: tuple[str, ...] = ()):
    """The :func:`_header_names` of a delimited table and a generator of its rows.

    The generator yields ``(line, row)`` for each nonblank row after the
    header and raises ParseError, naming the line, for a row without one field
    per header field, and at the end if it yielded nothing. An empty file
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

    names = _header_names(header, first, fixed)
    width = len(names) + 1

    def rows():
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

    return names, rows()


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


def _header_names(header: list[str], first: str, fixed: tuple[str, ...] = ()) -> list[str]:
    """The stripped names after the required ``first`` column of any input table's
    header: at least one, none blank or repeated, no byte-order mark, else ParseError.
    A table of ``fixed`` columns must name exactly those after ``first``."""
    header = [h.strip() for h in header]
    if header and header[0].startswith("\ufeff"):
        raise ParseError("file starts with a UTF-8 byte-order mark; save it without one", line=1)
    if not header or header[0] != first:
        article = "an" if first[0] in "aeiou" else "a"
        raise ParseError(f"header must start with {article} {first!r} column", line=1)
    names = header[1:]
    if fixed and names != list(fixed):
        raise ParseError(f"header must be {','.join([first, *fixed])!r}", line=1)
    if not names:
        raise ParseError("header lists no asset columns", line=1)
    if "" in names:
        raise ParseError(f"blank asset name in header field {header.index('') + 1}", line=1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate asset names in header", line=1)
    return names


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
    assets = _header_names(head.split(","), "date")
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
    assets, table = csv_table(fh, "date")

    dates: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in table:
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


def returns_matrix(panel: PricePanel) -> np.ndarray:
    """The simple returns (w[t+1] - w[t]) / w[t] of a panel of T dates and M
    assets, as a (T - 1, M) array.

    Raises InputShapeError for a panel of no assets or of fewer than 3 dates,
    which gives fewer than the 2 returns a correlation or a variance needs,
    and DomainError naming the first asset with a non-finite return or one at
    or below -1.
    """
    if panel.n_dates < 3:
        raise InputShapeError(f"need at least 3 dates for 2 returns, got {panel.n_dates}")
    if panel.n_assets < 1:
        raise InputShapeError("panel holds no assets")
    # an overflowing return becomes inf with no numpy warning: the refusal is the message
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        returns = np.diff(panel.prices, axis=0) / panel.prices[:-1]
    # column by column, so that no second (T, M) array is formed
    for name, column in zip(panel.assets, returns.T):
        if not np.isfinite(column).all():
            raise DomainError(f"series {name!r}: returns must be finite")
        if not (column > -1.0).all():
            raise DomainError(f"series {name!r}: every return must exceed -1")
    return returns


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
    returns = returns_matrix(panel)
    rows = window.length - 1
    m_ef = np.concatenate([
        solve_ones_stack(corrs).m_ef for corrs in _window_correlations(returns, rows, window.step)
    ])
    # a window's returns are one contiguous run of the flattened matrix, so
    # summing each run equals the window's own .mean() bit for bit
    cells = rows * panel.n_assets
    means = np.lib.stride_tricks.sliding_window_view(returns.reshape(-1), cells)[
        :: window.step * panel.n_assets
    ].sum(axis=1) / cells
    return [
        WindowPoint(panel.dates[s + rows], m, TRADING_DAYS_PER_YEAR * mean)
        for s, m, mean in zip(range(0, t - rows, window.step), m_ef.tolist(), means.tolist())
    ]


def _window_correlations(returns: np.ndarray, rows: int, step: int):
    """Correlations of the windows of ``rows`` returns that start every
    ``step`` rows of a (T, M) return matrix, yielded in stacks of
    :func:`_stack_len` windows that share one buffer: each stack is
    overwritten by the next. Each window is summed alone by the Pearson core
    of :func:`~effport.corrmat.correlation_values`, so it equals that
    function's value for the window bit for bit."""
    t, m = returns.shape
    starts = range(0, t - rows + 1, step)
    k = _stack_len(m)
    buffer = np.empty((min(k, len(starts)), m, m))
    for first in range(0, len(starts), k):
        stack = starts[first : first + k]
        yield _correlations([returns[s : s + rows] for s in stack], buffer[: len(stack)])


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
    corr = correlation_values(returns_matrix(panel))
    rng = np.random.default_rng(spec.seed)
    points: list[SubsetCurvePoint] = []
    for size in spec.sizes:
        k = _stack_len(size)
        blocks = []
        for first in range(0, spec.draws, k):
            idx = _draw_subsets(rng, universe, size, min(k, spec.draws - first))
            sub = corr[idx[:, :, None], idx[:, None, :]]
            blocks.append(m_ef_stack(sub, None if codes is None else codes[idx]))
        exact, even, sector = estimates = np.concatenate(blocks, axis=1)
        # the sector row counts only when there are sectors
        keep = ~np.isnan(estimates[: 2 if codes is None else 3]).any(axis=0)
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
        _, table = csv_table(fh, "asset", fixed=("sector",))
        mapping: dict[str, str] = {}
        for lineno, row in table:
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
    """The partition of an ordered asset list under an asset->sector map."""
    missing = [a for a in assets if a not in sectors]
    if missing:
        raise InputShapeError(f"sector file misses assets: {', '.join(missing)}")
    return SectorPartition(tuple(sectors[a] for a in assets))


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
    formatting one row at a time so that little memory is used beyond the panel.
    An asset name with a comma, a quote or a line break raises DataError."""
    write_table(
        dest, ("date", *panel.assets), (str, *[float] * panel.n_assets),
        ((date, *values.tolist()) for date, values in zip(panel.dates, panel.prices)), ",",
    )
