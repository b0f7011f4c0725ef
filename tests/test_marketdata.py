import datetime
import io
import os
import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from effport import marketdata
from effport.effsize import SectorPartition
from effport.errors import DataError, DomainError, InputShapeError, ParseError, fmt_float
from effport.marketdata import (
    PricePanel,
    SubsetCurveSpec,
    WindowSpec,
    load_prices,
    load_sectors,
    panel_from_returns,
    partition_for_assets,
    returns_matrix,
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

    @pytest.mark.filterwarnings("error")
    def test_header_only_and_one_row_raise_no_warning(self):
        with pytest.raises(ParseError, match="no data rows"):
            load_from_text("date,AAA\n")
        for text in ("date,AAA\n2020-01-02,1.5\n", "date,AAA\n2020-01-02,1.5"):
            panel = load_from_text(text)
            assert panel.dates == ("2020-01-02",) and panel.prices.tolist() == [[1.5]]

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

    def test_panel_refuses_a_name_that_is_no_string(self):
        # test_written_panel_reads_back draws blank, repeated and padded names
        with pytest.raises(DataError, match="^asset name 1 is blank, padded with spaces or no"):
            PricePanel(("2020-01-02",), (1, "B"), np.ones((1, 2)))

    @pytest.mark.parametrize("text, field", [
        ("date,,B\n2020-01-02,1,2\n", 2),
        ("date,A, \n2020-01-02,1,2\n", 3),
        ("date,A,B,\n2020-01-02,1,2,3\n", 4),
    ])
    def test_blank_asset_name_refused_at_line_1(self, text, field):
        message = f"blank asset name in header field {field}$"
        for read in (load_from_text, lambda t: marketdata._load_rows(io.StringIO(t))):
            with pytest.raises(ParseError, match=message) as exc:
                read(text)
            assert exc.value.line == 1

    def test_byte_order_mark_named_at_line_1(self, tmp_path):
        text = "\ufeffdate,AAA\n2020-01-02,100\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (io.StringIO(text), path, io.StringIO(text.replace("100", '"100"'))):
            with pytest.raises(ParseError, match="byte-order mark") as exc:
                load_prices(source)
            assert exc.value.line == 1

    @pytest.mark.parametrize("line", [1, 2500])
    def test_bytes_not_utf8_refused_by_one_reader(self, line, tmp_path, monkeypatch):
        # line 2500 lies past the block reader's first block; the fault is not
        # handed on to the row reader, which would read the file again
        path = tmp_path / "prices.csv"
        returns = np.full((3000, 3), 0.001)
        write_prices_csv(panel_from_returns(returns), path)
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b",", b"\xe9,", 1)
        path.write_bytes(b"\n".join(lines))
        monkeypatch.setattr(marketdata, "_load_rows", None)
        with pytest.raises(ParseError, match="bytes 0xe9 are not UTF-8$") as exc:
            load_prices(path)
        assert exc.value.line == line

    def test_bytes_not_utf8_in_open_file_refused(self, tmp_path):
        # an open file cannot be scanned again from its start, so no line is named
        path = tmp_path / "prices.csv"
        path.write_bytes(GOOD_CSV.encode().replace(b"\n2", b"\n\xe92", 1))
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(ParseError, match="^bytes 0xe9 are not UTF-8$") as exc:
                load_prices(fh)
        assert exc.value.line is None

    def test_path_input(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text(GOOD_CSV)
        assert load_prices(p).prices.shape == (3, 2)

    @pytest.mark.parametrize("text", [GOOD_CSV, GOOD_CSV.replace("49", "")])
    def test_unseekable_file_object(self, text):
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())
        os.close(write_end)
        with open(read_end) as fh:
            assert not fh.seekable()
            panel = load_prices(fh)
        expected = load_from_text(text)
        assert (panel.dates, panel.assets, panel.dropped_assets) == (
            expected.dates, expected.assets, expected.dropped_assets)
        np.testing.assert_array_equal(panel.prices, expected.prices)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_carriage_return_line_ends(self, tmp_path, newline):
        text = GOOD_CSV.replace("\n", newline)
        p = tmp_path / "prices.csv"
        p.write_bytes(text.encode())
        for source in (p, io.StringIO(text, newline="")):
            panel = load_prices(source)
            assert panel.dates == ("2020-01-02", "2020-01-03", "2020-01-06")
            np.testing.assert_array_equal(panel.prices, [[100, 50], [110, 49], [121, 51]])

    @pytest.mark.parametrize("gappy", [False, True], ids=["complete", "listings"])
    def test_regular_file_skips_row_reader(self, monkeypatch, sample_prices_path, tmp_path,
                                           gappy):
        path = sample_prices_path
        if gappy:
            # FIN01, the first price column, lists at row 101; TEC03 delists 60 rows
            # before the end
            lines = path.read_text().split("\n")
            header = lines[0].split(",")
            rows = [line.split(",") for line in lines[1:-1]]
            for row in rows[:100]:
                row[header.index("FIN01")] = ""
            for row in rows[-60:]:
                row[header.index("TEC03")] = ""
            path = tmp_path / "listings.csv"
            path.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
        with open(path, newline="") as fh:
            expected = marketdata._load_rows(fh)

        def refuse(fh):
            raise AssertionError("a regular file reached the row reader")

        monkeypatch.setattr(marketdata, "_load_rows", refuse)
        panel = load_prices(path)
        assert (panel.dates, panel.assets, panel.dropped_assets) == (
            expected.dates, expected.assets, expected.dropped_assets)
        assert panel.dropped_assets == (("FIN01", "TEC03") if gappy else ())
        assert panel.prices.tobytes() == expected.prices.tobytes()


class TestCsvMemory:
    """Traced peak allocations of the CSV path on a 20 001 x 30 panel."""

    @pytest.fixture(scope="class")
    def big_panel(self, tmp_path_factory):
        draws = np.where(np.random.default_rng(9).random((20_000, 30)) < 0.55, 1.0, -1.0)
        panel = panel_from_returns(draws, scale=0.01)
        path = tmp_path_factory.mktemp("panel") / "panel.csv"
        write_prices_csv(panel, path)
        return panel, path

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_peak_within_three_price_arrays(self, big_panel):
        panel, peak = self.traced_peak(lambda: load_prices(big_panel[1]))
        assert panel.prices.shape == (20_001, 30)
        assert peak <= 3 * panel.prices.nbytes

    def test_writer_allocates_under_1_mb(self, big_panel, tmp_path):
        _, peak = self.traced_peak(lambda: write_prices_csv(big_panel[0], tmp_path / "out.csv"))
        assert peak <= 1_000_000

    def test_load_keeps_no_second_price_array(self, big_panel):
        panel, peak = self.traced_peak(lambda: load_prices(big_panel[1]))
        assert peak <= 1.6 * panel.prices.nbytes

    def test_gappy_load_peak_within_two_and_a_half_parsed_arrays(self, big_panel, tmp_path):
        # one empty cell: the parsed array and its copy without that column
        lines = big_panel[1].read_text().split("\n")
        cells = lines[10_000].split(",")
        cells[7] = ""
        lines[10_000] = ",".join(cells)
        path = tmp_path / "gappy.csv"
        path.write_text("\n".join(lines))
        panel, peak = self.traced_peak(lambda: load_prices(path))
        assert panel.prices.shape == (20_001, 29) and panel.dropped_assets == ("A007",)
        assert peak <= 2.5 * big_panel[0].prices.nbytes

    def test_panel_from_returns_dates_are_consecutive_days(self):
        panel = panel_from_returns(np.zeros((100_000, 1)))
        origin = datetime.date(2000, 1, 3).toordinal()
        assert panel.dates == tuple(
            datetime.date.fromordinal(origin + i).isoformat() for i in range(100_001))
        assert all(type(date) is str for date in panel.dates)

    def test_panel_from_returns_keeps_no_second_price_array(self):
        draws = np.where(np.random.default_rng(9).random((20_000, 30)) < 0.55, 1.0, -1.0)
        panel, peak = self.traced_peak(lambda: panel_from_returns(draws, scale=0.01))
        # the scaled returns and the prices
        assert peak <= 2.5 * panel.prices.nbytes

    def test_panel_takes_only_a_fresh_read_only_array(self):
        dates, assets = ("2020-01-02", "2020-01-03"), ("A", "B")
        fresh = np.array([[1.0, 2.0], [3.0, 4.0]])
        fresh.flags.writeable = False
        assert PricePanel(dates, assets, fresh).prices is fresh
        fortran = np.asfortranarray(fresh)
        fortran.flags.writeable = False
        # writeable, a view, not C-contiguous, not float64
        for other in (fresh.copy(), fresh[::-1], fortran, fresh.astype(np.float32)):
            prices = PricePanel(dates, assets, other).prices
            assert prices is not other and not prices.flags.writeable
            np.testing.assert_array_equal(prices, other)


class TestComputeReturns:
    def test_simple_return(self):
        panel = load_from_text("date,AAA\n2020-01-02,100\n2020-01-03,110\n2020-01-06,121\n")
        returns = returns_matrix(panel)
        assert returns.shape == (2, 1)
        np.testing.assert_allclose(returns[:, 0], [0.10, 0.10])

    def test_one_column_per_asset(self):
        np.testing.assert_allclose(
            returns_matrix(load_from_text(GOOD_CSV)), [[0.1, -0.02], [0.1, 2 / 49]], rtol=1e-15
        )

    def test_flat_prices(self):
        panel = load_from_text("date,A\n2020-01-02,100\n2020-01-03,100\n2020-01-06,100\n")
        np.testing.assert_array_equal(returns_matrix(panel)[:, 0], [0.0, 0.0])

    def test_halving_and_doubling(self):
        panel = load_from_text("date,A\n2020-01-02,100\n2020-01-03,50\n2020-01-06,100\n")
        np.testing.assert_allclose(returns_matrix(panel)[:, 0], [-0.5, 1.0])

    def test_single_date_rejected(self):
        panel = load_from_text("date,A\n2020-01-02,100\n")
        with pytest.raises(InputShapeError, match="need at least 3 dates for 2 returns, got 1"):
            returns_matrix(panel)

    def test_two_dates_rejected(self):
        # one return: too few for any correlation or variance
        panel = load_from_text("date,A\n2020-01-02,100\n2020-01-03,110\n")
        with pytest.raises(InputShapeError, match="need at least 3 dates for 2 returns, got 2"):
            returns_matrix(panel)

    def test_no_assets_rejected(self):
        # every asset has a missing quote, so the loader drops them all
        panel = load_from_text("date,A,B\n2020-01-02,1,2\n2020-01-03,,\n2020-01-06,3,4\n")
        assert panel.n_assets == 0
        with pytest.raises(InputShapeError, match="^panel holds no assets$"):
            returns_matrix(panel)

    # 1e20 then 1e-5 is a return that rounds to exactly -1; B and C both
    # fail, and B is named
    @pytest.mark.filterwarnings("error")
    def test_return_at_minus_one_rejected(self):
        panel = load_from_text("date,A,B,C\n2020-01-02,1,1e20,1e20\n2020-01-03,2,1e-5,1e-5\n"
                               "2020-01-06,3,1,1\n")
        with pytest.raises(DomainError, match="^series 'B': every return must exceed -1$"):
            returns_matrix(panel)


class TestWindowSpec:
    def test_short_window_rejected(self):
        with pytest.raises(DomainError):
            WindowSpec(length=29)

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            WindowSpec(length=40, step=0)

    # a float or bool would otherwise fail later, inside the window loop
    @pytest.mark.parametrize("field,value", [
        ("length", 40.5), ("length", True), ("length", "60"), ("step", 2.5), ("step", np.int64(2)),
    ])
    def test_length_and_step_must_be_ints(self, field, value):
        message = f"^window {field} must be an int, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=message):
            WindowSpec(**{field: value})


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
        part = SectorPartition(("a",) * 6 + ("b",) * 6)
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
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            SubsetCurveSpec(sizes=(3,), draws=10, seed=-1)

    # a float size was truncated, a float draw count or seed failed inside numpy
    @pytest.mark.parametrize("field,value,what", [
        ("sizes", (3, 2.7), "portfolio size"), ("sizes", (True,), "portfolio size"),
        ("sizes", (np.int64(3),), "portfolio size"), ("draws", 2.5, "draws"),
        ("seed", 1.5, "seed"), ("seed", "1", "seed"),
    ])
    def test_counts_must_be_ints(self, field, value, what):
        bad = value[-1] if field == "sizes" else value
        message = f"^{what} must be an int, got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=message):
            SubsetCurveSpec(**{"sizes": (3,), "draws": 10, "seed": 0, field: value})


class TestSectors:
    def test_load_and_partition(self, tmp_path):
        f = tmp_path / "sectors.csv"
        f.write_text("asset,sector\nAAA,tech\nBBB,energy\n")
        mapping = load_sectors(f)
        assert mapping == {"AAA": "tech", "BBB": "energy"}
        panel = load_from_text(GOOD_CSV)
        part = partition_for_assets(panel.assets, mapping)
        assert part.labels == ("tech", "energy")

    def test_missing_asset(self):
        panel = load_from_text(GOOD_CSV)
        with pytest.raises(InputShapeError):
            partition_for_assets(panel.assets, {"AAA": "tech"})

    def test_extra_assets_tolerated(self):
        panel = load_from_text(GOOD_CSV)
        part = partition_for_assets(panel.assets, {"AAA": "x", "BBB": "y", "ZZZ": "z"})
        assert part.labels == ("x", "y")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            load_sectors(io.StringIO("name,group\nAAA,tech\n"))

    def test_duplicate_asset(self):
        with pytest.raises(ParseError):
            load_sectors(io.StringIO("asset,sector\nAAA,tech\nAAA,energy\n"))

    def test_bytes_not_utf8_in_open_file_refused(self, tmp_path):
        path = tmp_path / "sectors.csv"
        path.write_bytes(b"asset,sector\nAAA,t\xe9ch\n")
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(ParseError, match="^bytes 0xe9 are not UTF-8$") as exc:
                load_sectors(fh)
        assert exc.value.line is None

    # the header names exactly the two columns; an extra one is its own fault
    @pytest.mark.parametrize("rows", ["AAA,tech\n", "AAA,tech,1\n"])
    def test_extra_header_column_refused_at_line_1(self, rows):
        with pytest.raises(ParseError, match="^line 1: header must be 'asset,sector'$"):
            load_sectors(io.StringIO("asset,sector,weight\n" + rows))


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

    def test_writer_renders_with_fmt_float(self, tmp_path, capsys):
        values = [[1234.5678949, 5.0], [1e-7, 123456789012.0], [0.1 + 0.2, 2.5e300],
                  [5e-324, 1e308]]
        panel = PricePanel(dates=("2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07"),
                           assets=("X", "Y"), prices=np.array(values))
        expected = ["date,X,Y"] + [
            date + "," + ",".join(fmt_float(v) for v in row)
            for date, row in zip(panel.dates, values)
        ]
        # a path, an open file and sys.stdout receive the same bytes
        out = io.StringIO()
        write_prices_csv(panel, out)
        write_prices_csv(panel, tmp_path / "p.csv")
        write_prices_csv(panel, sys.stdout)
        written = [out.getvalue(), (tmp_path / "p.csv").read_bytes().decode(),
                   capsys.readouterr().out]
        assert written == ["\n".join(expected) + "\n"] * 3

    def test_sample_data_regenerates_byte_identical(self, tmp_path):
        # guards the writer's byte contract on the bundled data
        root = Path(__file__).resolve().parent.parent
        script = runpy.run_path(str(root / "scripts" / "make_sample_data.py"))
        script["main"]([str(tmp_path)])
        for name in ("synthetic_prices.csv", "synthetic_sectors.csv"):
            assert (tmp_path / name).read_bytes() == (root / "data" / name).read_bytes()

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
        assert len(partition_for_assets(panel.assets, sectors).sectors) == 4
