"""Property tests.

The enumerated 2^M outcome table (``build_joint``) is the oracle for the
closed-form (M+1)-point law (``win_count_law``) of the exchangeable win/lose
model and for the growth solve on it. The row-by-row CSV reader is the oracle
for ``load_prices``, whose regular files take a one-block path.
"""

import datetime
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effport import marketdata
from effport.binmodel import BinaryModelParams, WinCountLaw, build_joint, win_count_law
from effport.kelly import (
    FEASIBILITY_EPS,
    MAX_SYMMETRIC_ASSETS,
    m_ef_kelly_numeric,
    maximize_growth_symmetric,
)

probabilities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
correlations = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
winning_edges = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


def table_law(params):
    """The law regrouped from the full outcome table."""
    return WinCountLaw(params.m, *build_joint(params).sum_support)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), p=probabilities, c=correlations)
@example(m=12, p=0.6, c=0.0)
@example(m=12, p=0.6, c=1.0)
@example(m=1, p=0.3, c=1.0)
def test_law_matches_table(m, p, c):
    params = BinaryModelParams(m, p, c)
    law, table = win_count_law(params), table_law(params)
    assert np.array_equal(law.sums, table.sums)
    assert np.max(np.abs(law.probs - table.probs)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, MAX_SYMMETRIC_ASSETS), p=probabilities, c=correlations)
@example(m=MAX_SYMMETRIC_ASSETS, p=0.5, c=0.0)
def test_law_is_normalized(m, p, c):
    probs = win_count_law(BinaryModelParams(m, p, c)).probs
    assert np.all(probs >= 0.0)
    # log C(M,k) = log M! - log k! - log (M-k)! (each from math.lgamma) loses
    # about M * eps * log(M) to cancellation at the largest M
    assert abs(float(probs.sum()) - 1.0) <= 1e-11


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 12), p=probabilities, c=correlations)
@example(m=10, p=0.7, c=0.3)
@example(m=12, p=0.55, c=1.0)
def test_solver_same_on_law_and_table(m, p, c):
    params = BinaryModelParams(m, p, c)
    on_law = maximize_growth_symmetric(win_count_law(params))
    on_table = maximize_growth_symmetric(table_law(params))
    assert abs(on_law.f_star - on_table.f_star) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(p=winning_edges, c=correlations)
@example(p=0.55, c=0.5)
@example(p=0.7, c=1.0)
def test_first_order_optimality_at_500_assets(p, c):
    m = 500
    law = win_count_law(BinaryModelParams(m, p, c))
    res = maximize_growth_symmetric(law)
    slope = float(law.probs @ (law.sums / (1.0 + res.f_star * law.sums)))
    if res.f_star < (1.0 - FEASIBILITY_EPS) / m:
        assert abs(slope) <= 1e-9
    else:
        # weak correlation: the optimum sits on the feasibility bound
        assert slope >= 0.0
    assert 1.0 <= m_ef_kelly_numeric(m, p, c) <= m


# ---------------------------------------------------------------- price CSV

ODD_CELLS = [
    "", " ", " 7 ", "#", "2.0#c", "1_0", "1e400", "-1e400", "1e-400", "nan", "inf", "-inf",
    "NaN", "0", "-0", "-3", '"5"', '"5,6"', "x", "0x10", "1,5", "\u0661", "\xa02", "5\r",
]
ODD_DATES = [
    "", "20200103", "2020-1-02", " 2020-01-0", "2020-02-30", "2020/01/02", "2020-01-02 ",
    '"2020-01-02"', "#020-01-02", "1999-12-31", "2020-W01-1", "2020-01-021",
]
ODD_HEADERS = ["", "Date", "A0", " A1 ", '"A1"', "#", "date"]
mutations = st.tuples(
    st.sampled_from(["cell", "date", "blank", "extra", "missing", "header", "crlf"]),
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(0, 50),
)
good_cells = st.one_of(
    st.floats(1e-3, 1e6).map(lambda x: f"{x:.8g}"), st.integers(1, 10**6).map(str)
)


@st.composite
def price_csv(draw):
    """A regular price CSV, then up to three irregularities."""
    m, t = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    origin = datetime.date(2020, 1, 1).toordinal()
    steps = draw(st.lists(st.integers(1, 3), min_size=t, max_size=t))
    dates = [datetime.date.fromordinal(origin + int(d)).isoformat() for d in np.cumsum(steps)]
    cells = draw(st.lists(st.lists(good_cells, min_size=m, max_size=m), min_size=t, max_size=t))
    rows = [["date", *(f"A{j}" for j in range(m))]] + [[d, *c] for d, c in zip(dates, cells)]
    eols = ["\n"] * len(rows)
    blanks = []
    for kind, i, j, k in draw(st.lists(mutations, max_size=3)):
        row = rows[1 + i % t]
        if kind == "cell" and len(row) > 1:
            row[1 + j % (len(row) - 1)] = ODD_CELLS[k % len(ODD_CELLS)]
        elif kind == "date":
            row[0] = ODD_DATES[k % len(ODD_DATES)]
        elif kind == "blank":
            blanks.append((1 + i % t, " " if k % 2 else ""))
        elif kind == "extra":
            row.append("1")
        elif kind == "missing" and len(row) > 1:
            row.pop()
        elif kind == "header":
            rows[0][j % (m + 1)] = ODD_HEADERS[k % len(ODD_HEADERS)]
        elif kind == "crlf":
            eols[1 + i % t] = "\r\n" if k % 2 else "\r"
    for r, blank in sorted(blanks, reverse=True):
        rows.insert(r, [blank])
        eols.insert(r, "\n")
    text = "".join(",".join(row) + eol for row, eol in zip(rows, eols))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def load_outcome(load, text):
    """The panel a loader returns, or the type, message and line it raises."""
    try:
        panel = load(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return panel.dates, panel.assets, panel.prices.tobytes(), panel.dropped_assets


@settings(max_examples=400, deadline=None)
@given(text=price_csv())
@example(text="date,A0\n2020-01-01,2.0#c\n")
@example(text="date,A0\n2020-01-01,1_0\n2020-01-02,3\n")
@example(text="date,A0,A1\n2020-01-01,1,2,3\n2020-01-02,4\n")
@example(text="date,A0\n2020-01-01,1\n\n2020-01-02,2\n")
@example(text="")
@example(text='date,"A0"\n2020-01-01,1\n')
@example(text="date,A0,A1\n2020-01-01,5\r,6\n")
@example(text="date,A0\n2020-01-01,-0\n")
@example(text="date,A0\n2020-01-02,1\n2020-01-01,2\n")
@example(text="date,A0\n2020-W01-1,1\n")
@example(text="date,A0\n2020-01-021,1\n")
@example(text="date,A0\n2020-02-30,1\n")
@example(text="date,A0\n2020-01-01,1." + "0" * 131072 + "\n")
@example(text="date," + "A" * 131073 + "\n2020-01-01,1\n")
@example(text="date,A0,A1\n2020-01-01,1,2\n2020-01-02,3,\n")
@example(text="date,A0,A1\n2020-01-01,1,2\n2020-01-02,3,")
@example(text="date,A0,A1\n2020-01-01,,2\n")
def test_load_prices_matches_row_reader(text):
    fast = load_outcome(lambda s: marketdata.load_prices(io.StringIO(s)), text)
    rows = load_outcome(lambda s: marketdata._load_rows(io.StringIO(s, newline="")), text)
    assert fast == rows


@settings(max_examples=100, deadline=None)
@given(
    prices=arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 4)),
                  elements=st.floats(1e-300, 1e300)),
    first_day=st.integers(0, 2_000_000),
)
def test_written_panel_reads_back(prices, first_day):
    t, m = prices.shape
    dates = tuple(datetime.date.fromordinal(1 + first_day + i).isoformat() for i in range(t))
    panel = marketdata.PricePanel(dates, tuple(f"A{j}" for j in range(m)), prices)
    out = io.StringIO()
    marketdata.write_prices_csv(panel, out)
    loaded = marketdata.load_prices(io.StringIO(out.getvalue()))
    assert (loaded.dates, loaded.assets, loaded.dropped_assets) == (dates, panel.assets, ())
    rounded = [[float(marketdata.fmt_float(v)) for v in row] for row in prices]
    assert np.array_equal(loaded.prices, rounded)
    # 10 significant digits: relative error at most half a unit in the 10th digit
    # (plus the binary rounding of the decimal, hence the slack)
    assert np.all(np.abs(loaded.prices - prices) <= 5.0001e-10 * prices)
