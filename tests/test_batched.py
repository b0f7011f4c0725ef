"""Stacked pipelines against their one-matrix-at-a-time reference loops.

``subset_curve`` and ``sliding_window_effsize`` evaluate whole stacks of
matrices at once. The loops below evaluate one matrix per iteration through
the scalar API (a stack of one in the Cholesky core). Both pipelines must
agree with their loops exactly, NaN included: ``sliding_window_effsize`` sums
each window alone by the Pearson core of ``correlation_values``, and each
stack of :func:`effport.marketdata._stack_len` matrices is solved matrix by
matrix.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effport import marketdata
from effport.corrmat import correlation_values, solve_ones, solve_ones_stack
from effport.effsize import SectorPartition, m_ef_even, m_ef_sector
from effport.errors import DomainError, NearSingularError
from effport.marketdata import (
    PricePanel,
    SubsetCurvePoint,
    SubsetCurveSpec,
    WindowPoint,
    WindowSpec,
    load_prices,
    load_sectors,
    panel_from_returns,
    partition_for_assets,
    sliding_window_effsize,
    subset_curve,
)


def loop_subset_curve(panel, spec, partition=None):
    labels = None
    if partition is not None:
        labels = np.array(partition.labels)
    returns = np.diff(panel.prices, axis=0) / panel.prices[:-1]
    corr = correlation_values(returns)
    rng = np.random.default_rng(spec.seed)
    points = []
    for size in spec.sizes:
        exact_acc, sector_acc, even_acc = [], [], []
        skipped = 0
        for _ in range(spec.draws):
            idx = np.sort(rng.choice(panel.n_assets, size=size, replace=False))
            sub = corr[np.ix_(idx, idx)]
            try:
                exact = float(solve_ones(sub).m_ef[0])
                even = m_ef_even(sub)
                if labels is not None:
                    sector = m_ef_sector(sub, SectorPartition(tuple(labels[idx])))
                else:
                    sector = float("nan")
            except (NearSingularError, DomainError):
                skipped += 1
                continue
            exact_acc.append(exact)
            sector_acc.append(sector)
            even_acc.append(even)
        points.append(
            SubsetCurvePoint(
                size=size,
                m_exact=float(np.mean(exact_acc)) if exact_acc else float("nan"),
                m_sector=float(np.mean(sector_acc)) if sector_acc else float("nan"),
                m_even=float(np.mean(even_acc)) if even_acc else float("nan"),
                skipped=skipped,
            )
        )
    return points


def loop_sliding(panel, window, trading_days_per_year=252):
    returns = np.diff(panel.prices, axis=0) / panel.prices[:-1]
    points = []
    for k in range((panel.n_dates - window.length) // window.step + 1):
        start = k * window.step
        chunk = returns[start : start + window.length - 1]
        try:
            m_ef = float(solve_ones(correlation_values(chunk)).m_ef[0])
        except NearSingularError:
            m_ef = float("nan")
        annual = trading_days_per_year * float(chunk.mean())
        points.append(WindowPoint(panel.dates[start + window.length - 1], m_ef, annual))
    return points


def assert_sliding_matches(got, want):
    """Same dates, m_ef, NaN windows and annual returns, bit for bit."""
    assert exact(got) == exact(want)


def exact(points):
    """Points with NaN replaced by a marker, so == compares them exactly."""
    return [
        tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in pt)
        for pt in points
    ]


DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def bundled():
    panel = load_prices(DATA_DIR / "synthetic_prices.csv")
    sectors = load_sectors(DATA_DIR / "synthetic_sectors.csv")
    return panel, partition_for_assets(panel.assets, sectors)


def early_twin(panel):
    """Append an asset priced exactly like asset 0 for the first 300 dates
    that then moves with asset 1: every window inside those dates is
    near-singular, later windows are not."""
    twin = panel.prices[:, 0].copy()
    later = panel.prices[300:, 1] / panel.prices[299, 1]
    twin[300:] = twin[299] * later
    return PricePanel(
        dates=panel.dates,
        assets=panel.assets + ("TWIN",),
        prices=np.column_stack([panel.prices, twin]),
    )


def full_sample_twin(panel):
    """Append an exact copy of asset 0 over the whole sample."""
    return PricePanel(
        dates=panel.dates,
        assets=panel.assets + ("TWIN",),
        prices=np.column_stack([panel.prices, panel.prices[:, 0]]),
    )


class TestSubsetCurveMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_with_sectors(self, bundled, seed):
        panel, partition = bundled
        spec = SubsetCurveSpec(sizes=(2, 3, 10, 25, 40), draws=60, seed=seed)
        assert subset_curve(panel, spec, partition) == loop_subset_curve(panel, spec, partition)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_without_partition(self, bundled, seed):
        panel, _ = bundled
        spec = SubsetCurveSpec(sizes=(2, 15, 30), draws=50, seed=seed)
        assert exact(subset_curve(panel, spec)) == exact(loop_subset_curve(panel, spec))

    def test_draws_just_above_stack_size(self, bundled):
        # stacks of 209 and 81 matrices: each size ends on a stack of one
        assert marketdata._stack_len(25) != marketdata._stack_len(40)
        panel, partition = bundled
        for size in (25, 40):
            spec = SubsetCurveSpec(sizes=(size,), draws=marketdata._stack_len(size) + 1, seed=4)
            got = subset_curve(panel, spec, partition)
            assert got == loop_subset_curve(panel, spec, partition)

    def test_duplicated_asset_skips_draws(self, bundled):
        panel, partition = bundled
        panel = full_sample_twin(panel)
        partition = SectorPartition(partition.labels + partition.labels[:1])
        spec = SubsetCurveSpec(sizes=(2, 20, 41), draws=80, seed=2)
        got = subset_curve(panel, spec, partition)
        assert exact(got) == exact(loop_subset_curve(panel, spec, partition))
        assert 0 < got[1].skipped < spec.draws
        # every full-universe draw holds both twins
        assert got[2].skipped == spec.draws and math.isnan(got[2].m_exact)


class TestSlidingMatchesLoop:
    @pytest.mark.parametrize("length,step", [(252, 1), (60, 7), (31, 50)])
    def test_bundled_panel(self, bundled, length, step):
        panel, _ = bundled
        window = WindowSpec(length=length, step=step)
        assert_sliding_matches(sliding_window_effsize(panel, window), loop_sliding(panel, window))

    def test_more_windows_than_stack_size(self, bundled):
        panel, _ = bundled
        window = WindowSpec(length=60, step=2)
        got = sliding_window_effsize(panel, window)
        assert len(got) > marketdata._stack_len(panel.n_assets)
        assert_sliding_matches(got, loop_sliding(panel, window))

    def test_duplicated_asset_gives_nan_windows(self, bundled):
        panel = early_twin(bundled[0])
        window = WindowSpec(length=252, step=5)
        got = sliding_window_effsize(panel, window)
        assert_sliding_matches(got, loop_sliding(panel, window))
        nan = [math.isnan(pt.m_ef) for pt in got]
        assert any(nan) and not all(nan)


def window_panel(t, m, rows, step, seed, flat_window):
    """A (t, m) return matrix: column 0 constant in window ``flat_window`` and
    in no other, column 1 with a mean 1e4 times its spread, and column 2 with
    a mean 1e5 times its spread that doubles halfway."""
    rng = np.random.default_rng(seed)
    returns = 0.01 * rng.standard_normal((t, m))
    start = flat_window * step
    returns[start : start + rows, 0] = 0.003
    if m > 1:
        returns[:, 1] = 1.0 + 1e-4 * rng.standard_normal(t)
    if m > 2:
        returns[:, 2] = 1e-4 + 1e-9 * rng.standard_normal(t)
        returns[t // 2 :, 2] += 1e-4
    return returns


@settings(max_examples=80, deadline=None)
@given(
    t=st.integers(29, 200), m=st.integers(1, 6), rows=st.integers(29, 80), step=st.integers(1, 90),
    seed=st.integers(0, 2**32 - 1), flat=st.integers(0, 200), budget=st.sampled_from([1, 4000]),
)
def test_rolling_correlations_match_each_window(t, m, rows, step, seed, flat, budget):
    # sliding's windows hold at least 29 returns
    rows = min(rows, t)
    count = (t - rows) // step + 1
    returns = window_panel(t, m, rows, step, seed, flat % count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(marketdata, "_STACK_BYTES", budget)
        got = np.concatenate([c.copy() for c in marketdata._window_correlations(returns, rows, step)])
    assert len(got) == count
    for w, corr in enumerate(got):
        # every window is summed alone by the Pearson core of correlation_values
        assert np.array_equal(corr, correlation_values(returns[w * step : w * step + rows]))
        assert np.array_equal(corr, corr.T)


def test_long_run_of_windows_stays_close(bundled):
    # 506 windows in 7 stacks, each window equal to its own estimate
    returns = np.diff(bundled[0].prices, axis=0) / bundled[0].prices[:-1]
    got = np.concatenate([c.copy() for c in marketdata._window_correlations(returns, 251, 1)])
    assert len(got) == 506
    for w, corr in enumerate(got):
        assert np.array_equal(corr, correlation_values(returns[w : w + 251]))


def test_draws_equal_generator_choice():
    for universe in range(2, 101):
        for size in range(1, universe + 1):
            for seed in range(3):
                count = 1 + (7 * universe + 3 * size + seed) % 9
                rngs = np.random.default_rng(seed), np.random.default_rng(seed)
                for rng in rngs:
                    # leave the generator with and without a buffered 32-bit half
                    rng.random(seed, dtype=np.float32)
                got = marketdata._draw_subsets(rngs[0], universe, size, count)
                want = [rngs[1].choice(universe, size, replace=False) for _ in range(count)]
                assert np.array_equal(got, np.sort(want, axis=1))
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_draws_equal_generator_choice_tail_shuffle():
    # numpy shuffles a full range here, not by Floyd's algorithm
    rngs = np.random.default_rng(9), np.random.default_rng(9)
    got = marketdata._draw_subsets(rngs[0], 20_000, 500, 3)
    want = [rngs[1].choice(20_000, 500, replace=False) for _ in range(3)]
    assert np.array_equal(got, np.sort(want, axis=1))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("budget", [1, 8 * 40 * 40 * 3])
def test_output_independent_of_stack_len(bundled, budget, monkeypatch):
    # one matrix a stack, and stacks of 3 matrices of size 40: the byte rule
    # of _stack_len without its floor of 16
    panel, partition = bundled
    spec = SubsetCurveSpec(sizes=(2, 10, 40), draws=40, seed=6)
    window = WindowSpec(length=100, step=25)
    want = subset_curve(panel, spec, partition), sliding_window_effsize(panel, window)
    monkeypatch.setattr(marketdata, "_stack_len", lambda n: max(1, budget // (8 * n * n)))
    assert (subset_curve(panel, spec, partition), sliding_window_effsize(panel, window)) == want


@pytest.mark.parametrize("budget", [1, 8 * 40 * 40 * 3])
@pytest.mark.parametrize("rows, step", [(251, 1), (99, 7), (59, 29)])
def test_sliding_stacks_hold_whole_runs(bundled, budget, rows, step, monkeypatch):
    # both pipelines solve stacks of _stack_len(M) matrices, at least 16,
    # whatever the byte budget; only the last stack of a run may hold fewer
    monkeypatch.setattr(marketdata, "_STACK_BYTES", budget)
    panel, partition = bundled
    stacks = []

    def recorded(solve):
        def call(a, *args):
            stacks.append(len(a))
            return solve(a, *args)
        return call

    monkeypatch.setattr(marketdata, "solve_ones_stack", recorded(marketdata.solve_ones_stack))
    monkeypatch.setattr(marketdata, "m_ef_stack", recorded(marketdata.m_ef_stack))
    k = marketdata._stack_len(panel.n_assets)
    assert k >= 16
    count = len(sliding_window_effsize(panel, WindowSpec(rows + 1, step)))
    assert len(stacks) > 1 and sum(stacks) == count
    assert stacks[:-1] == [k] * (len(stacks) - 1)
    for size in (2, 10, 40):
        k = marketdata._stack_len(size)
        assert k >= 16
        stacks.clear()
        subset_curve(panel, SubsetCurveSpec(sizes=(size,), draws=2 * k + 1, seed=1), partition)
        assert stacks == [k, k, 1]


class TestStackMemory:
    """Only one stack of matrices is held at a time: on a 600 x 100 panel the
    traced peak stays under 5 MB (a stack of 256 matrices alone is 20 MB)."""

    @pytest.fixture(scope="class")
    def wide(self):
        returns = np.random.default_rng(12).standard_normal((599, 100))
        panel = panel_from_returns(returns, scale=0.01)
        partition = SectorPartition(tuple(f"S{i % 10}" for i in range(100)))
        return panel, partition

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sliding(self, wide):
        got, peak = self.traced_peak(lambda: sliding_window_effsize(wide[0], WindowSpec(60, 1)))
        # 59 returns of 100 assets: every window is singular and refused
        assert len(got) == 541
        assert peak <= 5_000_000

    def test_sliding_step_beyond_panel(self, bundled):
        # one window, so one matrix is held, however long the step
        got, peak = self.traced_peak(
            lambda: sliding_window_effsize(bundled[0], WindowSpec(252, 10**6)))
        assert len(got) == 1
        assert peak <= 2_000_000

    def test_subset_curve(self, wide):
        spec = SubsetCurveSpec(sizes=(100,), draws=300, seed=1)
        got, peak = self.traced_peak(lambda: subset_curve(wide[0], spec, wide[1]))
        assert got[0].skipped == 0
        assert peak <= 5_000_000

    def test_singular_stack(self):
        # 60 returns of 100 assets make every correlation singular, so the
        # batched factorisation fails and each member is factored alone
        rng = np.random.default_rng(5)
        singular, regular = (
            np.array([correlation_values(rng.standard_normal((t, 100))) for _ in range(13)])
            for t in (60, 400)
        )
        outs, peaks = zip(*(self.traced_peak(lambda: solve_ones_stack(a))
                            for a in (regular, singular)))
        assert outs[0].usable.all() and not outs[1].usable.any()
        # measured 1.15 MB for both; a second stack of factors would be 2.1 MB
        assert peaks[1] <= 1.3 * peaks[0]


def test_rolling_sums_memory_does_not_grow_with_dates(monkeypatch):
    # what the sliding windows hold at once is set by the stack: one stack's
    # correlations and the centred returns of the window being summed
    monkeypatch.setattr(marketdata, "_STACK_BYTES", 16_000)
    rng = np.random.default_rng(8)
    peaks = []
    for t in (1_000, 8_000):
        returns = 0.01 * rng.standard_normal((t, 20))
        count, peak = TestStackMemory.traced_peak(
            lambda: sum(1 for _ in marketdata._window_correlations(returns, 59, 1))
        )
        assert count > 10
        peaks.append(peak)
    # at most a byte more per added return; a copy of the whole panel's
    # returns would add 8
    assert peaks[1] - peaks[0] <= (8_000 - 1_000) * 20


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 6), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), twin=st.booleans()
)
def test_stack_core_matches_one_matrix_bitwise(k, n, seed, twin):
    rng = np.random.default_rng(seed)
    # random symmetric matrices with unit diagonal, some indefinite; a twin
    # row/column makes the last one exactly singular
    a = rng.uniform(-1.0, 1.0, size=(k, n, n))
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    a[:, np.arange(n), np.arange(n)] = 1.0
    if twin and n >= 2:
        a[-1, :, 1] = a[-1, :, 0]
        a[-1, 1, :] = a[-1, 0, :]
    out = solve_ones_stack(a)
    for i in range(k):
        try:
            one = solve_ones(a[i])
        except NearSingularError:
            assert not out.usable[i] and np.isnan(out.m_ef[i])
            continue
        assert out.usable[i] and out.rcond[i] == one.rcond[0]
        assert out.m_ef[i] == one.m_ef[0] and out.residual[i] == one.residual[0]
        assert np.array_equal(out.factor[i], one.factor[0])


def test_stacked_pipelines_form_no_inverse(bundled, monkeypatch):
    # the stacked path refuses and solves from Cholesky factors alone
    def forbidden(*args, **kwargs):
        raise AssertionError("the stacked path must not call eigvalsh or inv")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    panel, partition = bundled
    twin = early_twin(panel)
    labels = partition.labels + partition.labels[:1]
    spec = SubsetCurveSpec(sizes=(2, 20, 41), draws=40, seed=5)
    assert subset_curve(twin, spec, SectorPartition(labels))[2].skipped == 0
    nan = [math.isnan(pt.m_ef) for pt in sliding_window_effsize(twin, WindowSpec(252, 5))]
    assert any(nan) and not all(nan)

