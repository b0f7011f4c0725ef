"""Stacked pipelines against their one-matrix-at-a-time reference loops.

``subset_curve`` and ``sliding_window_effsize`` evaluate whole stacks of
matrices at once. The loops below evaluate one matrix per iteration through
the scalar API, as the pipelines did before they were batched; the results
must agree exactly, NaN included.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effport.corrmat import correlation_values, inverse_stack, symmetric_inverse
from effport.effsize import SectorPartition, m_ef_even, m_ef_sector
from effport.errors import DomainError, NearSingularError
from effport.marketdata import (
    STACK_SIZE,
    PricePanel,
    SubsetCurvePoint,
    SubsetCurveSpec,
    WindowPoint,
    WindowSpec,
    load_prices,
    load_sectors,
    partition_for_assets,
    sliding_window_effsize,
    subset_curve,
)


def loop_subset_curve(panel, spec, partition=None):
    labels = None
    if partition is not None:
        labels = np.array([partition.assignment[i] for i in range(panel.n_assets)])
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
                inv, _ = symmetric_inverse(sub)
                exact = float(np.sum(inv))
                even = m_ef_even(sub)
                if labels is not None:
                    sector = m_ef_sector(sub, SectorPartition.from_labels(labels[idx]))
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
            inv, _ = symmetric_inverse(correlation_values(chunk))
            m_ef = float(np.sum(inv))
        except NearSingularError:
            m_ef = float("nan")
        annual = trading_days_per_year * float(chunk.mean())
        points.append(WindowPoint(panel.dates[start + window.length - 1], m_ef, annual))
    return points


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
        panel, partition = bundled
        spec = SubsetCurveSpec(sizes=(2, 8), draws=STACK_SIZE + 1, seed=4)
        assert subset_curve(panel, spec, partition) == loop_subset_curve(panel, spec, partition)

    def test_duplicated_asset_skips_draws(self, bundled):
        panel, partition = bundled
        panel = full_sample_twin(panel)
        labels = dict(partition.assignment)
        labels[panel.n_assets - 1] = labels[0]
        partition = SectorPartition(labels)
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
        got = sliding_window_effsize(panel, window)
        assert exact(got) == exact(loop_sliding(panel, window))

    def test_more_windows_than_stack_size(self, bundled):
        panel, _ = bundled
        window = WindowSpec(length=60, step=2)
        got = sliding_window_effsize(panel, window)
        assert len(got) > STACK_SIZE
        assert got == loop_sliding(panel, window)

    def test_duplicated_asset_gives_nan_windows(self, bundled):
        panel = early_twin(bundled[0])
        window = WindowSpec(length=252, step=5)
        got = sliding_window_effsize(panel, window)
        assert exact(got) == exact(loop_sliding(panel, window))
        nan = [math.isnan(pt.m_ef) for pt in got]
        assert any(nan) and not all(nan)


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
    out = inverse_stack(a)
    for i in range(k):
        try:
            inv, rcond = symmetric_inverse(a[i])
        except NearSingularError:
            assert not out.usable[i] and np.all(np.isnan(out.values[i]))
            continue
        assert out.usable[i] and out.rcond[i] == rcond
        assert np.array_equal(out.values[i], inv)
