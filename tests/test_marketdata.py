import io

import numpy as np
import pytest

from effport.effsize import SectorPartition
from effport.errors import DataError, DomainError, InputShapeError, ParseError
from effport.marketdata import (
    PricePanel,
    SubsetCurveSpec,
    WindowSpec,
    compute_returns,
    fmt_float,
    load_prices,
    load_sectors,
    panel_from_returns,
    partition_for_panel,
    sliding_window_effsize,
    subset_curve,
    write_prices_csv,
)

GOOD_CSV = """date,AAA,BBB
2020-01-02,100,50
2020-01-03,110,49
2020-01-06,121,51
"""


def load_from_text(text):
    return load_prices(io.StringIO(text))


class TestLoadPrices:
    def test_complete_panel(self):
        panel = load_from_text(GOOD_CSV)
        assert panel.prices.shape == (3, 2)
        assert panel.assets == ("AAA", "BBB")
        assert panel.dates[0] == "2020-01-02"
        assert panel.dropped_assets == ()

    def test_missing_quote_drops_asset(self):
        text = "date,AAA,BBB\n2020-01-02,100,50\n2020-01-03,,49\n2020-01-06,121,51\n"
        panel = load_from_text(text)
        assert panel.assets == ("BBB",)
        assert panel.dropped_assets == ("AAA",)
        assert panel.prices.shape == (3, 1)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_from_text("")

    def test_header_only(self):
        with pytest.raises(ParseError):
            load_from_text("date,AAA\n")

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            load_from_text("timestamp,AAA\n2020-01-02,100\n")
        assert exc.value.line == 1

    def test_unparseable_price_reports_line(self):
        text = "date,AAA\n2020-01-02,100\n2020-01-03,acme\n"
        with pytest.raises(ParseError) as exc:
            load_from_text(text)
        assert exc.value.line == 3

    def test_bad_date_reports_line(self):
        text = "date,AAA\n2020-01-02,100\n02/01/2020,101\n"
        with pytest.raises(ParseError) as exc:
            load_from_text(text)
        assert exc.value.line == 3

    def test_ragged_row(self):
        text = "date,AAA,BBB\n2020-01-02,100,50\n2020-01-03,101\n"
        with pytest.raises(ParseError) as exc:
            load_from_text(text)
        assert exc.value.line == 3

    def test_nonpositive_price(self):
        text = "date,AAA\n2020-01-02,100\n2020-01-03,-5\n"
        with pytest.raises(DataError):
            load_from_text(text)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_nonfinite_price_is_unparseable(self, cell):
        text = f"date,AAA,BBB\n2020-01-02,100,50\n2020-01-03,101,{cell}\n"
        with pytest.raises(ParseError) as exc:
            load_from_text(text)
        assert exc.value.line == 3
        assert "BBB" in str(exc.value)

    def test_mixed_date_formats_report_line(self):
        # fromisoformat accepts the basic form 20200103 on Python >= 3.11
        text = "date,AAA\n2020-01-02,100\n20200103,101\n2020-01-06,102\n"
        with pytest.raises(ParseError) as exc:
            load_from_text(text)
        assert exc.value.line == 3
        assert "YYYY-MM-DD" in str(exc.value)

    def test_out_of_order_dates(self):
        text = "date,AAA\n2020-01-03,100\n2020-01-02,101\n"
        with pytest.raises(DataError):
            load_from_text(text)

    def test_duplicate_asset_names(self):
        with pytest.raises(ParseError):
            load_from_text("date,AAA,AAA\n2020-01-02,1,2\n")

    def test_path_input(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text(GOOD_CSV)
        assert load_prices(p).prices.shape == (3, 2)


class TestComputeReturns:
    def test_simple_return(self):
        panel = load_from_text("date,AAA\n2020-01-02,100\n2020-01-03,110\n")
        series = compute_returns(panel)
        assert series[0].asset_id == "AAA"
        assert series[0].returns[0] == pytest.approx(0.10)

    def test_flat_prices(self):
        panel = load_from_text("date,A\n2020-01-02,100\n2020-01-03,100\n2020-01-06,100\n")
        np.testing.assert_array_equal(compute_returns(panel)[0].returns, [0.0, 0.0])

    def test_halving_and_doubling(self):
        panel = load_from_text("date,A\n2020-01-02,100\n2020-01-03,50\n2020-01-06,100\n")
        np.testing.assert_allclose(compute_returns(panel)[0].returns, [-0.5, 1.0])

    def test_single_date_rejected(self):
        panel = load_from_text("date,A\n2020-01-02,100\n")
        with pytest.raises(InputShapeError):
            compute_returns(panel)


class TestWindowSpec:
    def test_short_window_rejected(self):
        with pytest.raises(DomainError):
            WindowSpec(length=29)

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            WindowSpec(length=40, step=0)


def make_uniform_panel(seed=77, t=900, m=5, c=0.5, scale=0.01):
    """One-factor model with exact population correlation c between assets."""
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((t, 1))
    noise = rng.standard_normal((t, m))
    returns = scale * (np.sqrt(c) * common + np.sqrt(1 - c) * noise)
    return panel_from_returns(returns)


class TestSlidingWindow:
    def test_uniform_panel_tracks_closed_form(self):
        panel = make_uniform_panel()
        points = sliding_window_effsize(panel, WindowSpec(length=252, step=50))
        for pt in points:
            assert pt.m_ef == pytest.approx(5 / 3, abs=0.2)

    def test_constant_prices_give_full_size(self):
        t, m = 60, 4
        prices = np.full((t, m), 25.0)
        dates = tuple(f"2020-01-{d:02d}" for d in range(1, 32)) + tuple(
            f"2020-02-{d:02d}" for d in range(1, 30)
        )
        panel = PricePanel(dates=dates, assets=("A", "B", "C", "D"), prices=prices)
        points = sliding_window_effsize(panel, WindowSpec(length=30, step=30))
        assert all(pt.m_ef == pytest.approx(4.0) for pt in points)
        assert all(pt.annualized_return == 0.0 for pt in points)

    def test_window_longer_than_panel(self):
        panel = make_uniform_panel(t=100)
        with pytest.raises(InputShapeError):
            sliding_window_effsize(panel, WindowSpec(length=252))

    def test_window_count_and_end_dates(self):
        t, length, step = 70, 30, 7
        panel = make_uniform_panel(t=t - 1, m=2)  # t-1 returns -> t dates
        points = sliding_window_effsize(panel, WindowSpec(length=length, step=step))
        assert len(points) == (t - length) // step + 1
        for k, pt in enumerate(points):
            assert pt.end_date == panel.dates[k * step + length - 1]

    def test_annualization(self):
        panel = make_uniform_panel(t=300, m=3)
        returns = np.diff(panel.prices, axis=0) / panel.prices[:-1]
        points = sliding_window_effsize(panel, WindowSpec(length=252, step=1000))
        expected = 252 * returns[:251].mean()
        assert points[0].annualized_return == pytest.approx(expected, rel=1e-12)


class TestSubsetCurve:
    def test_uniform_universe_curves_coincide(self):
        panel = make_uniform_panel(seed=101, t=4000, m=10, c=0.35)
        spec = SubsetCurveSpec(sizes=(3, 6, 10), draws=150, seed=2)
        points = subset_curve(panel, spec)
        for pt in points:
            target = pt.size / (1 + (pt.size - 1) * 0.35)
            assert pt.m_exact == pytest.approx(target, abs=0.25)
            assert pt.m_even == pytest.approx(pt.m_exact, abs=0.15)
            assert np.isnan(pt.m_sector)

    def test_full_universe_subset_is_noop(self):
        panel = make_uniform_panel(seed=5, t=500, m=6)
        points = subset_curve(panel, SubsetCurveSpec(sizes=(6,), draws=3, seed=0))
        from effport.corrmat import correlation_values, symmetric_inverse

        returns = np.diff(panel.prices, axis=0) / panel.prices[:-1]
        inv, _ = symmetric_inverse(correlation_values(returns))
        assert points[0].m_exact == pytest.approx(float(inv.sum()), abs=1e-10)

    def test_two_block_universe_sector_matches_exact(self):
        rng = np.random.default_rng(55)
        t = 1500
        g1, g2 = rng.standard_normal((t, 1)), rng.standard_normal((t, 1))
        e = rng.standard_normal((t, 12))
        r = np.empty((t, 12))
        r[:, :6] = 0.01 * (np.sqrt(0.5) * g1 + np.sqrt(0.5) * e[:, :6])
        r[:, 6:] = 0.01 * (np.sqrt(0.2) * g2 + np.sqrt(0.8) * e[:, 6:])
        panel = panel_from_returns(r)
        part = SectorPartition.from_labels(["a"] * 6 + ["b"] * 6)
        points = subset_curve(panel, SubsetCurveSpec(sizes=(4, 8, 12), draws=300, seed=9), part)
        for pt in points:
            assert pt.m_sector == pytest.approx(pt.m_exact, abs=0.2)
            assert pt.skipped == 0
        # heterogeneous correlations: the averaged estimate lags the exact one
        assert points[-1].m_exact > points[-1].m_even

    def test_pair_size_matches_direct_average(self):
        # replay the documented draw sequence and average 2/(1+C_ij) directly
        panel = make_uniform_panel(seed=8, t=400, m=7)
        seed, draws = 13, 50
        points = subset_curve(panel, SubsetCurveSpec(sizes=(2,), draws=draws, seed=seed))
        from effport.corrmat import correlation_values

        corr = correlation_values(np.diff(panel.prices, axis=0) / panel.prices[:-1])
        rng = np.random.default_rng(seed)
        acc = []
        for _ in range(draws):
            i, j = np.sort(rng.choice(7, size=2, replace=False))
            acc.append(2 / (1 + corr[i, j]))
        assert points[0].m_exact == pytest.approx(float(np.mean(acc)), abs=1e-10)

    def test_determinism(self):
        panel = make_uniform_panel(seed=3, t=300, m=6)
        spec = SubsetCurveSpec(sizes=(2, 4), draws=40, seed=21)
        # NaN-tolerant equality: m_sector is NaN without a partition
        np.testing.assert_equal(subset_curve(panel, spec), subset_curve(panel, spec))

    def test_size_exceeding_universe(self):
        panel = make_uniform_panel(t=100, m=4)
        with pytest.raises(DomainError):
            subset_curve(panel, SubsetCurveSpec(sizes=(5,), draws=2, seed=0))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SubsetCurveSpec(sizes=(1,), draws=10, seed=0)
        with pytest.raises(DomainError):
            SubsetCurveSpec(sizes=(3,), draws=0, seed=0)


class TestSectors:
    def test_load_and_partition(self, tmp_path):
        f = tmp_path / "sectors.csv"
        f.write_text("asset,sector\nAAA,tech\nBBB,energy\n")
        mapping = load_sectors(f)
        assert mapping == {"AAA": "tech", "BBB": "energy"}
        panel = load_from_text(GOOD_CSV)
        part = partition_for_panel(panel, mapping)
        assert part.assignment == {0: "tech", 1: "energy"}

    def test_missing_asset(self):
        panel = load_from_text(GOOD_CSV)
        with pytest.raises(InputShapeError):
            partition_for_panel(panel, {"AAA": "tech"})

    def test_extra_assets_tolerated(self):
        panel = load_from_text(GOOD_CSV)
        part = partition_for_panel(panel, {"AAA": "x", "BBB": "y", "ZZZ": "z"})
        assert part.n == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_sectors(io.StringIO("name,group\nAAA,tech\n"))

    def test_duplicate_asset(self):
        with pytest.raises(ParseError):
            load_sectors(io.StringIO("asset,sector\nAAA,tech\nAAA,energy\n"))


class TestPanelRoundTrip:
    def test_returns_to_panel_and_back(self, tmp_path):
        rng = np.random.default_rng(14)
        returns = rng.uniform(-0.05, 0.05, size=(40, 3))
        panel = panel_from_returns(returns, assets=["X", "Y", "Z"])
        path = tmp_path / "p.csv"
        write_prices_csv(panel, path)
        loaded = load_prices(path)
        assert loaded.assets == ("X", "Y", "Z")
        got = np.diff(loaded.prices, axis=0) / loaded.prices[:-1]
        np.testing.assert_allclose(got, returns, atol=1e-8)

    def test_scaling_preserves_positivity_for_unit_returns(self):
        returns = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        panel = panel_from_returns(returns, scale=0.01)
        assert np.all(panel.prices > 0)

    def test_fmt_float(self):
        assert fmt_float(float("nan")) == "nan"
        assert fmt_float(5.0) == "5"
        # 10 significant digits, trailing zeros trimmed
        assert fmt_float(1.23456789012345) == "1.23456789"
        assert fmt_float(1234.5678949) == "1234.567895"

    def test_bundled_panel_loads(self, sample_prices_path, sample_sectors_path):
        panel = load_prices(sample_prices_path)
        assert panel.n_assets == 40
        assert panel.n_dates == 757
        sectors = load_sectors(sample_sectors_path)
        assert partition_for_panel(panel, sectors).n == 4
