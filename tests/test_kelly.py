import math

import numpy as np
import pytest

from effport.binmodel import BinaryModelParams, build_joint, win_count_law
from effport.corrmat import CorrelationMatrix, invert, uniform_matrix
from effport.errors import (
    BankruptcyError,
    DomainError,
    EnumerationLimitError,
    ExtrapolationError,
    InputShapeError,
)
from effport.kelly import (
    MAX_SYMMETRIC_ASSETS,
    growth_rate,
    invert_total_curve,
    kelly_first_order,
    kelly_fraction_binary,
    m_ef_kelly_numeric,
    maximize_growth_symmetric,
    misestimation_experiment,
    uncorrelated_total_curve,
)

from conftest import table_sum_support


class TestBinaryFraction:
    @pytest.mark.parametrize("p,expected", [(0.5, 0.0), (0.75, 0.5), (0.3, 0.0), (1.0, 1.0)])
    def test_values(self, p, expected):
        assert kelly_fraction_binary(p) == expected

    @pytest.mark.parametrize("p", [-0.1, 1.0001])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            kelly_fraction_binary(p)


class TestGrowthRate:
    def test_zero_weights(self):
        dist = build_joint(BinaryModelParams(3, 0.6, 0.2))
        assert growth_rate(np.zeros(3), dist) == 0.0

    def test_single_asset_value(self):
        # direct evaluation: 0.6 ln(1.2) + 0.4 ln(0.8)
        dist = build_joint(BinaryModelParams(1, 0.6, 0.0))
        expected = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        assert growth_rate(np.array([0.2]), dist) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.020136, abs=1e-6)

    def test_overbetting_raises(self):
        dist = build_joint(BinaryModelParams(2, 0.6, 0.0))
        with pytest.raises(BankruptcyError):
            growth_rate(np.array([0.6, 0.6]), dist)

    def test_zero_probability_outcomes_ignored(self):
        # perfectly correlated: mixed outcomes have probability zero, so only
        # the two corner outcomes constrain feasibility
        dist = build_joint(BinaryModelParams(2, 0.6, 1.0))
        got = growth_rate(np.array([0.3, 0.1]), dist)
        expected = 0.6 * math.log(1.4) + 0.4 * math.log(0.6)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_shape_check(self):
        dist = build_joint(BinaryModelParams(3, 0.6, 0.2))
        with pytest.raises(InputShapeError):
            growth_rate(np.zeros(2), dist)


class TestFirstOrder:
    def test_single_binary_asset_reduces_to_kelly(self):
        for p in (0.55, 0.6, 0.75):
            mu = 2 * p - 1
            sigma = math.sqrt(1 - mu**2)
            w = kelly_first_order(mu, sigma, invert(uniform_matrix(1, 0.0)))
            assert w.fractions[0] == pytest.approx(kelly_fraction_binary(p), abs=1e-12)

    def test_uniform_example(self):
        # oracle: constant row sums of the closed-form inverse
        m, c, mu, sigma2 = 10, 0.2, 0.1, 0.99
        w = kelly_first_order(mu, math.sqrt(sigma2), invert(uniform_matrix(m, c)))
        mef = m / (1 + (m - 1) * c)
        expected = mu / ((1 + (m - 1) * c) * (sigma2 + mu**2 * mef))
        assert np.allclose(w.fractions, expected, atol=1e-12)
        assert w.total == pytest.approx(0.3482, abs=5e-5)

    def test_identity_case(self):
        m, mu = 7, 0.1
        w = kelly_first_order(mu, 1.0, invert(uniform_matrix(m, 0.0)))
        assert np.allclose(w.fractions, mu / (1 + mu**2 * m), atol=1e-14)

    def test_abstention_on_nonpositive_mean(self):
        w = kelly_first_order(-0.05, 0.3, invert(uniform_matrix(4, 0.2)))
        assert np.all(w.fractions == 0.0) and not w.clipped

    def test_negative_components_clipped_and_flagged(self):
        c = CorrelationMatrix(
            np.array([[1.0, 0.1, 0.7], [0.1, 1.0, 0.7], [0.7, 0.7, 1.0]])
        )
        w = kelly_first_order(0.05, 0.3, invert(c))
        assert w.clipped
        assert np.all(w.fractions >= 0.0)
        assert w.fractions[2] == 0.0

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            kelly_first_order(0.1, 0.0, invert(uniform_matrix(2, 0.0)))


class TestSymmetricMaximization:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.55, 0.6, 0.75])
    def test_single_asset_reduces_to_kelly(self, p):
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(1, p, 0.0)))
        assert res.f_star == pytest.approx(max(2 * p - 1, 0.0), abs=1e-8)
        assert res.method == "numeric-exact"

    # f* = 2p - 1 is pinned to within rounding noise. At p = 0.86 one ulp of
    # f* exceeds the 1e-16 step rule, so the loop ends only once no float lies
    # strictly inside the bracket; without that exit it never ends.
    @pytest.mark.parametrize("p", [0.6, 0.86])
    def test_single_asset_ends_within_4_ulp(self, p):
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(1, p, 0.0)))
        assert abs(res.f_star - (2 * p - 1)) <= 4 * math.ulp(2 * p - 1)

    def test_perfectly_correlated_acts_as_single_asset(self):
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(10, 0.6, 1.0)))
        assert res.total_fraction == pytest.approx(0.2, abs=1e-10)
        assert res.f_star == pytest.approx(0.02, abs=1e-11)

    def test_total_close_to_first_order_for_small_returns(self):
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(10, 0.55, 0.2)))
        w = kelly_first_order(0.1, math.sqrt(0.99), invert(uniform_matrix(10, 0.2)))
        assert res.total_fraction == pytest.approx(w.total, abs=0.01)

    def test_large_edge_invests_most_wealth(self):
        # the regime where the linearized solution stops being trustworthy
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(10, 0.7, 0.25)))
        assert res.total_fraction > 0.8

    def test_abstention_gives_zero_growth_exactly(self):
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(5, 0.4, 0.3)))
        assert res.f_star == 0.0 and res.g_star == 0.0 and res.total_fraction == 0.0

    @pytest.mark.parametrize("m,c", [(1000, 0.5), (241, 0.3), (261, 0.7)])
    def test_zero_edge_abstains_exactly(self, m, c):
        # the rounded edge E[sum R] is +4.7e-12, -3.2e-13 and +3.7e-13 here
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(m, 0.5, c)))
        assert res.f_star == 0.0 and res.g_star == 0.0 and res.total_fraction == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_no_random_feasible_point_beats_optimum(self, seed):
        rng = np.random.default_rng(seed)
        params = BinaryModelParams(6, 0.58, 0.25)
        dist = build_joint(params)
        res = maximize_growth_symmetric(win_count_law(params))
        for _ in range(200):
            f = rng.uniform(0.0, (1 - 1e-9) / 6)
            g = growth_rate(np.full(6, f), dist)
            assert g <= res.g_star + 1e-10

    def test_first_order_optimality_at_interior_optimum(self):
        law = win_count_law(BinaryModelParams(10, 0.7, 0.3))
        res = maximize_growth_symmetric(law)
        sums, probs = law.sums, law.probs
        slope = float(probs @ (sums / (1.0 + res.f_star * sums)))
        assert abs(slope) <= 1e-9

    def test_growth_never_negative_at_optimum(self):
        for p in (0.45, 0.5, 0.51, 0.6):
            res = maximize_growth_symmetric(win_count_law(BinaryModelParams(4, p, 0.15)))
            assert res.g_star >= 0.0
            assert 0.0 <= res.total_fraction < 1.0

    def test_dense_grid_oracle(self):
        # brute-force scan of the one-variable objective on the enumerated
        # table's regrouping, independent of the closed-form law
        params = BinaryModelParams(8, 0.62, 0.4)
        sums, probs = table_sum_support(build_joint(params))
        res = maximize_growth_symmetric(win_count_law(params))
        grid = np.linspace(0.0, (1 - 1e-9) / 8, 20001)
        values = (probs[None, :] * np.log1p(np.outer(grid, sums))).sum(axis=1)
        assert values.max() <= res.g_star + 1e-9
        assert abs(grid[int(values.argmax())] - res.f_star) < 1e-4


class TestEffectiveSizeNumeric:
    def test_uncorrelated_recovers_m(self):
        assert m_ef_kelly_numeric(10, 0.55, 0.0) == pytest.approx(10.0, abs=1e-6)

    def test_perfect_correlation_gives_one(self):
        assert m_ef_kelly_numeric(10, 0.55, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_mid_correlation_close_to_closed_form(self):
        got = m_ef_kelly_numeric(10, 0.55, 0.3)
        assert abs(got - 10 / (1 + 9 * 0.3)) <= 0.15

    def test_requires_winning_edge(self):
        with pytest.raises(DomainError):
            m_ef_kelly_numeric(10, 0.5, 0.3)

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationLimitError):
            m_ef_kelly_numeric(MAX_SYMMETRIC_ASSETS + 1, 0.55, 0.3)
        with pytest.raises(EnumerationLimitError):
            misestimation_experiment(MAX_SYMMETRIC_ASSETS + 1, 0.55, 0.2, [0.2])

    def test_beyond_outcome_table_limit(self):
        # the 2^M table stops at 20 assets; the win-count law does not
        got = m_ef_kelly_numeric(21, 0.55, 0.3)
        assert 1.0 <= got <= 21.0
        assert abs(got - 21 / (1 + 20 * 0.3)) <= 0.15

    def test_result_within_bounds(self):
        for c in (0.05, 0.5, 0.95):
            got = m_ef_kelly_numeric(8, 0.6, c)
            assert 1.0 <= got <= 8.0

    def test_total_curve_is_increasing(self):
        totals = uncorrelated_total_curve(10, 0.55)
        assert np.all(np.diff(totals) > 0)
        assert totals[0] == pytest.approx(0.1, abs=1e-10)

    def test_extrapolation_error_reports_nearest_bound(self):
        totals = uncorrelated_total_curve(5, 0.55)
        with pytest.raises(ExtrapolationError) as exc:
            invert_total_curve(totals, totals[-1] + 0.1)
        assert exc.value.nearest_bound == pytest.approx(float(totals[-1]))
        with pytest.raises(ExtrapolationError) as exc:
            invert_total_curve(totals, totals[0] - 0.1)
        assert exc.value.nearest_bound == pytest.approx(float(totals[0]))


class TestMisestimation:
    def test_correct_assumption_attains_optimum(self):
        m, p, c = 8, 0.55, 0.25
        res = misestimation_experiment(m, p, c, [c])[0]
        best = maximize_growth_symmetric(win_count_law(BinaryModelParams(m, p, c)))
        assert res.g_realized == pytest.approx(best.g_star, abs=1e-12)
        assert res.f_assumed == pytest.approx(best.f_star, abs=1e-12)

    def test_realized_growth_matches_table(self):
        m, p, c_true = 9, 0.6, 0.35
        table = build_joint(BinaryModelParams(m, p, c_true))
        for r in misestimation_experiment(m, p, c_true, [0.0, 0.2, 0.35, 0.9, 1.0]):
            expected = growth_rate(np.full(m, r.f_assumed), table)
            assert r.g_realized == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_peak_at_true_correlation_and_unimodal(self):
        grid = [round(0.05 * i, 10) for i in range(13)]
        results = misestimation_experiment(10, 0.55, 0.2, grid)
        gs = [r.g_realized for r in results]
        peak = int(np.argmax(gs))
        assert results[peak].c_assumed == pytest.approx(0.2)
        assert all(a < b for a, b in zip(gs[: peak + 1], gs[1 : peak + 1]))
        assert all(a > b for a, b in zip(gs[peak:], gs[peak + 1 :]))

    def test_underestimation_hurts_more_than_overestimation(self):
        results = misestimation_experiment(10, 0.55, 0.2, [0.05, 0.35])
        assert results[0].g_realized < results[1].g_realized

    def test_assuming_zero_correlation_loses_wealth(self):
        res = misestimation_experiment(10, 0.55, 0.2, [0.0])[0]
        assert res.g_realized < 0.0

    def test_never_exceeds_true_optimum(self):
        m, p, c = 6, 0.6, 0.3
        best = maximize_growth_symmetric(win_count_law(BinaryModelParams(m, p, c)))
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.8]
        for r in misestimation_experiment(m, p, c, grid):
            assert r.g_realized <= best.g_star + 1e-12

    def test_grid_domain_checked(self):
        with pytest.raises(DomainError):
            misestimation_experiment(4, 0.55, 0.2, [0.1, 1.3])
