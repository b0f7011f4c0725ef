"""Property tests.

The enumerated 2^M outcome table (``build_joint``) is the oracle for the
closed-form (M+1)-point law (``win_count_law``) of the exchangeable win/lose
model and for the growth solve on it, and a bisection on the sign of dG/df is
the oracle for that solve's Newton iteration. The row-by-row CSV reader is
the oracle for ``load_prices``, whose regular files are read in blocks of
lines. The entry sum of ``np.linalg.inv`` is the oracle for the Cholesky
solve against ones.
"""

import datetime
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effport import marketdata
from effport.binmodel import BinaryModelParams, WinCountLaw, build_joint, win_count_law
from effport.corrmat import CorrelationMatrix, block_diagonal, solve_ones_stack, symmetric_inverse
from effport.effsize import effsize_report, m_ef_exact_stack
from effport.errors import NearSingularError
from effport.kelly import (
    FEASIBILITY_EPS,
    MAX_SYMMETRIC_ASSETS,
    m_ef_kelly_numeric,
    maximize_growth_symmetric,
)

from conftest import make_random_correlation, table_sum_support

probabilities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
correlations = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
winning_edges = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


def table_law(params):
    """The law regrouped from the full outcome table."""
    return WinCountLaw(params.m, *table_sum_support(build_joint(params)))


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


def growth_slope(law, f):
    return float(law.probs @ (law.sums / (1.0 + f * law.sums)))


@settings(max_examples=10, deadline=None)
@given(p=winning_edges, c=correlations)
@example(p=0.55, c=0.5)
@example(p=0.7, c=1.0)
# f* lies 7.3e-9 relative below the bound, where dG/df steps by 3.2e-6 from one
# float to the next: no float has |dG/df| <= 1e-9
@example(p=0.984375, c=0.9375)
def test_first_order_optimality_at_500_assets(p, c):
    m = 500
    law = win_count_law(BinaryModelParams(m, p, c))
    res = maximize_growth_symmetric(law)
    slope = growth_slope(law, res.f_star)
    if res.f_star == 0.0:
        # abstention, only on an edge that is flat to rounding
        assert res.g_star == 0.0 and abs(slope) <= 1e-9
    elif res.f_star < (1.0 - FEASIBILITY_EPS) / m:
        # dG/df changes sign between f* and an adjacent float; where it is too
        # flat for rounding to show a sign change there, it is below 1e-9
        near = [growth_slope(law, np.nextafter(res.f_star, x)) for x in (0.0, 1.0)]
        assert min(*near, slope) <= 0.0 <= max(*near, slope) or abs(slope) <= 1e-9
    else:
        # weak correlation: the optimum sits on the feasibility bound
        assert slope >= 0.0
    assert 1.0 <= m_ef_kelly_numeric(m, p, c) <= m


def bisection_root(law, upper):
    """Largest float in [0, upper] found left of a sign change of dG/df, by
    bisection on its sign down to adjacent floats (0 if dG/df(0) <= 0)."""
    lo, hi = 0.0, upper
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if growth_slope(law, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, MAX_SYMMETRIC_ASSETS), p=probabilities, c=correlations)
@example(m=1, p=0.6, c=0.0)
@example(m=MAX_SYMMETRIC_ASSETS, p=0.6, c=0.0)
@example(m=1, p=0.5 + 1e-9, c=1.0)
def test_growth_solve_at_bound_or_bisection_root(m, p, c):
    law = win_count_law(BinaryModelParams(m, p, c))
    upper = (1.0 - FEASIBILITY_EPS) / m
    f = maximize_growth_symmetric(law).f_star
    assert 0.0 <= f <= upper
    # an edge within the rounding bound of its dot product is no edge
    if law.probs @ law.sums <= (m + 1) * np.finfo(float).eps * (law.probs @ np.abs(law.sums)):
        assert f == 0.0
        return
    if f == upper and growth_slope(law, upper) >= 0.0:
        return
    root = bisection_root(law, upper)
    # the rounding error of dG/df over |d2G/df2| bounds how closely any float
    # search can place the root; it exceeds 1e-12 relative only for p within
    # about 1e-4 of 1/2, as in the third example
    ratio = law.sums / (1.0 + root * law.sums)
    noise = 16 * np.finfo(float).eps * (law.probs @ np.abs(ratio)) / (law.probs @ ratio**2)
    assert abs(f - root) <= 1e-12 * root + noise


# ------------------------------------------------------- solve against ones

seeds = st.integers(0, 2**32 - 1)


def random_correlation(seed, m):
    """Well-conditioned factor-model correlation matrix with 1..m factors."""
    rng = np.random.default_rng(seed)
    return make_random_correlation(rng, m, int(rng.integers(1, m + 1)))


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 60), seed=seeds)
@example(m=1, seed=0)
@example(m=60, seed=1)
def test_m_ef_matches_inverse_entry_sum(m, seed):
    c = random_correlation(seed, m)
    out = solve_ones_stack(c[None])
    assert out.usable[0]
    assert out.m_ef[0] == pytest.approx(np.linalg.inv(c).sum(), rel=1e-10)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(2, 40), seed=seeds, perm_seed=seeds)
def test_m_ef_permutation_invariant(m, seed, perm_seed):
    c = random_correlation(seed, m)
    perm = np.random.default_rng(perm_seed).permutation(m)
    both = m_ef_exact_stack(np.array([c, c[np.ix_(perm, perm)]]))
    assert both[1] == pytest.approx(both[0], rel=1e-10)


@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4), seed=seeds)
def test_m_ef_block_additive(sizes, seed):
    blocks = [CorrelationMatrix(random_correlation(seed + i, m)) for i, m in enumerate(sizes)]
    whole = m_ef_exact_stack(block_diagonal(blocks).values[None])[0]
    parts = sum(m_ef_exact_stack(b.values[None])[0] for b in blocks)
    assert whole == pytest.approx(parts, rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(3, 60), scale=st.floats(0.2, 1.0), seed=seeds)
@example(m=3, scale=0.9, seed=0)
def test_indefinite_matrix_refused(m, scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-scale, scale, size=(m, m))
    a = np.triu(a, 1) + np.triu(a, 1).T + np.eye(m)
    assume(np.linalg.eigvalsh(a)[0] < 0.0)
    out = solve_ones_stack(a[None])
    assert not out.usable[0] and np.isnan(out.m_ef[0])
    with pytest.raises(NearSingularError, match="lambda_min"):
        symmetric_inverse(a)
    with pytest.raises(NearSingularError, match="lambda_min"):
        effsize_report(a)


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


ODD_FILES = [
    "date,A0\n2020-01-01,2.0#c\n",
    "date,A0\n2020-01-01,1_0\n2020-01-02,3\n",
    "date,A0,A1\n2020-01-01,1,2,3\n2020-01-02,4\n",
    "date,A0\n2020-01-01,1\n\n2020-01-02,2\n",
    "",
    'date,"A0"\n2020-01-01,1\n',
    "date,A0,A1\n2020-01-01,5\r,6\n",
    "date,A0\n2020-01-01,-0\n",
    "date,A0\n2020-01-02,1\n2020-01-01,2\n",
    "date,A0\n2020-W01-1,1\n",
    "date,A0\n2020-01-021,1\n",
    "date,A0\n2020-02-30,1\n",
    "date,A0\n2020-01-01,1." + "0" * 131072 + "\n",
    "date," + "A" * 131073 + "\n2020-01-01,1\n",
    "date,A0,A1\n2020-01-01,1,2\n2020-01-02,3,\n",
    "date,A0,A1\n2020-01-01,1,2\n2020-01-02,3,",
    "date,A0,A1\n2020-01-01,,2\n",
]


def odd_file_examples(test):
    for text in ODD_FILES:
        test = example(text=text)(test)
    return test


def row_reader_outcome(text):
    return load_outcome(lambda s: marketdata._load_rows(io.StringIO(s, newline="")), text)


@settings(max_examples=400, deadline=None)
@given(text=price_csv())
@odd_file_examples
def test_load_prices_matches_row_reader(text):
    fast = load_outcome(lambda s: marketdata.load_prices(io.StringIO(s)), text)
    assert fast == row_reader_outcome(text)


@settings(max_examples=200, deadline=None)
@given(text=price_csv())
@odd_file_examples
def test_load_prices_matches_row_reader_in_small_blocks(text, tmp_path_factory):
    """Blocks of a few dozen characters: regular files span many blocks, and
    an irregular line in a later block sends the file back to its start."""
    path = tmp_path_factory.getbasetemp() / "small_blocks.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    rows = row_reader_outcome(text)
    with mock.patch.object(marketdata, "_BLOCK_CHARS", 32):
        assert load_outcome(lambda s: marketdata.load_prices(io.StringIO(s)), text) == rows
        assert load_outcome(lambda s: marketdata.load_prices(path), text) == rows


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
