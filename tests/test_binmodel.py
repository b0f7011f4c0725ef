import math
import re

import numpy as np
import pytest

from effport.binmodel import (
    ENUMERATION_LIMIT,
    BinaryModelParams,
    build_joint,
    m_ef_uniform,
    sample,
)
from effport.corrmat import uniform_inverse_closed_form, uniform_matrix
from effport.errors import DomainError, EnumerationLimitError

from conftest import table_sum_support


def table_as_dict(dist):
    return {tuple(row): p for row, p in zip(dist.outcomes, dist.probabilities)}


def pairwise_correlation(dist, i, j):
    p = dist.probabilities
    ri = dist.outcomes[:, i].astype(float)
    rj = dist.outcomes[:, j].astype(float)
    mi, mj = float(p @ ri), float(p @ rj)
    cov = float(p @ (ri * rj)) - mi * mj
    vi = float(p @ (ri * ri)) - mi * mi
    vj = float(p @ (rj * rj)) - mj * mj
    return cov / math.sqrt(vi * vj)


class TestParams:
    def test_conditionals(self):
        params = BinaryModelParams(3, 0.55, 0.25)
        assert params.cond_win == pytest.approx(0.55 + 0.45 * 0.5)
        assert params.cond_lose == pytest.approx(0.45 + 0.55 * 0.5)
        assert params.mu == pytest.approx(0.1)
        assert params.sigma2 == pytest.approx(4 * 0.55 * 0.45)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_probability_domain(self, p):
        with pytest.raises(DomainError):
            BinaryModelParams(2, p, 0.3)

    # a float or bool count would otherwise fail later, inside range() or numpy
    @pytest.mark.parametrize("m", [2.5, 2.0, True, False, "3", None])
    def test_asset_count_must_be_an_int(self, m):
        with pytest.raises(DomainError, match=f"must be an int, got {re.escape(repr(m))}$"):
            BinaryModelParams(m, 0.6, 0.1)

    # the uniform closed forms refuse what BinaryModelParams refuses, with its message
    @pytest.mark.parametrize("m", [2.5, 2.0, True, "3"])
    @pytest.mark.parametrize("form", [m_ef_uniform, uniform_matrix, uniform_inverse_closed_form])
    def test_uniform_forms_refuse_what_params_refuse(self, form, m):
        message = f"^asset count must be an int, got {re.escape(repr(m))}$"
        with pytest.raises(DomainError, match=message):
            form(m, 0.3)

    @pytest.mark.parametrize("c", [-0.01, 1.2])
    def test_correlation_domain(self, c):
        with pytest.raises(DomainError):
            BinaryModelParams(2, 0.5, c)

    def test_conditionals_stay_probabilities(self):
        for p in (0.01, 0.5, 0.99):
            for c in (0.0, 0.3, 1.0):
                params = BinaryModelParams(2, p, c)
                assert 0.0 <= params.cond_win <= 1.0
                assert 0.0 <= params.cond_lose <= 1.0


class TestBuildJoint:
    def test_enumeration_limit(self):
        with pytest.raises(EnumerationLimitError):
            build_joint(BinaryModelParams(ENUMERATION_LIMIT + 1, 0.6, 0.1))

    def test_independent_case_is_product_measure(self):
        p = 0.6
        dist = build_joint(BinaryModelParams(3, p, 0.0))
        for row, prob in table_as_dict(dist).items():
            wins = sum(1 for r in row if r == 1)
            assert prob == pytest.approx(p**wins * (1 - p) ** (3 - wins), abs=1e-14)

    def test_perfect_correlation_two_point(self):
        p = 0.55
        dist = build_joint(BinaryModelParams(4, p, 1.0))
        t = table_as_dict(dist)
        assert t[(1, 1, 1, 1)] == pytest.approx(p, abs=1e-14)
        assert t[(-1, -1, -1, -1)] == pytest.approx(1 - p, abs=1e-14)
        others = [v for k, v in t.items() if len(set(k)) > 1]
        assert max(others) == 0.0

    def test_m2_example(self):
        dist = build_joint(BinaryModelParams(2, 0.55, 0.25))
        p = dist.probabilities
        marginals = (p[:, None] * (dist.outcomes == 1)).sum(axis=0)
        assert np.allclose(marginals, 0.55, atol=1e-14)
        assert pairwise_correlation(dist, 0, 1) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("p", [0.55, 0.6, 0.7])
    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0])
    def test_grid_normalization_marginals_correlation(self, m, p, c):
        dist = build_joint(BinaryModelParams(m, p, c))
        probs = dist.probabilities
        assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)
        marginals = (probs[:, None] * (dist.outcomes == 1)).sum(axis=0)
        assert np.allclose(marginals, p, atol=1e-12)
        assert pairwise_correlation(dist, 0, m - 1) == pytest.approx(c, abs=1e-10)

    def test_exchangeability_under_swap(self):
        dist = build_joint(BinaryModelParams(4, 0.62, 0.37))
        t = table_as_dict(dist)
        for row, prob in t.items():
            swapped = (row[2], row[1], row[0], row[3])
            assert t[swapped] == prob

    def test_sum_support_matches_table(self):
        dist = build_joint(BinaryModelParams(5, 0.58, 0.3))
        sums, probs = table_sum_support(dist)
        direct = dist.outcomes.sum(axis=1).astype(float)
        for s, q in zip(sums, probs):
            assert q == pytest.approx(
                float(dist.probabilities[direct == s].sum()), abs=1e-15
            )
        assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_deep_enumeration_stays_normalized(self):
        dist = build_joint(BinaryModelParams(18, 0.9, 0.05))
        assert float(dist.probabilities.sum()) == pytest.approx(1.0, abs=1e-11)
        assert np.all(dist.probabilities >= 0.0)


class TestSample:
    def test_perfect_correlation_rows_constant(self):
        draws = sample(BinaryModelParams(6, 0.55, 1.0), 500, seed=1)
        assert np.all(np.ptp(draws, axis=1) == 0)

    def test_marginal_frequency(self):
        draws = sample(BinaryModelParams(3, 0.55, 0.3), 10**5, seed=4)
        freq = (draws == 1).mean(axis=0)
        assert np.all(np.abs(freq - 0.55) < 0.005)

    def test_pairwise_correlation_matches_exact_model(self):
        # Monte Carlo against the enumerated construction
        draws = sample(BinaryModelParams(3, 0.55, 0.3), 10**5, seed=4).astype(float)
        for i in range(3):
            for j in range(i + 1, 3):
                c = np.corrcoef(draws[:, i], draws[:, j])[0, 1]
                assert abs(c - 0.3) < 0.02

    def test_seed_determinism(self):
        params = BinaryModelParams(4, 0.6, 0.2)
        a = sample(params, 1000, seed=7)
        b = sample(params, 1000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(params, 1000, seed=8))

    def test_values_are_signs(self):
        draws = sample(BinaryModelParams(2, 0.5001, 0.0), 100, seed=0)
        assert set(np.unique(draws)) <= {-1, 1}

    def test_sample_count_domain(self):
        with pytest.raises(DomainError):
            sample(BinaryModelParams(2, 0.6, 0.1), 0, seed=0)

    def test_total_variation_against_enumeration(self):
        params = BinaryModelParams(3, 0.57, 0.22)
        dist = build_joint(params)
        draws = sample(params, 10**6, seed=11)
        codes = ((draws + 1) // 2 * np.array([4, 2, 1])).sum(axis=1)
        empirical = np.bincount(codes, minlength=8) / draws.shape[0]
        exact_codes = ((dist.outcomes + 1) // 2 * np.array([4, 2, 1])).sum(axis=1)
        exact = np.zeros(8)
        exact[exact_codes] = dist.probabilities
        tv = 0.5 * float(np.abs(empirical - exact).sum())
        assert tv < 0.01
