import re

import numpy as np
import pytest

from effport.corrmat import (
    CorrelationMatrix,
    block_diagonal,
    invert,
    uniform_matrix,
)
from effport.errors import DomainError, InputShapeError
from effport.meanvar import (
    IdenticalAssetParams,
    PortfolioWeights,
    minimal_variance_identical,
    mv_optimal_weights,
    portfolio_moments,
)


class TestPortfolioWeights:
    def test_total(self):
        w = PortfolioWeights(np.array([0.2, 0.3]))
        assert float(w.fractions.sum()) == pytest.approx(0.5)
        assert w.fractions.shape == (2,)
        assert not w.clipped

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PortfolioWeights(np.array([0.1, np.inf]))

    def test_negative_allowed_here(self):
        assert PortfolioWeights(np.array([-0.4, 0.9])).fractions.tolist() == [-0.4, 0.9]


class TestIdenticalAssetParams:
    @pytest.mark.parametrize("m", [2.5, 2.0, True, "3", np.int64(3)])
    def test_asset_count_must_be_an_int(self, m):
        message = f"^asset count must be an int, got {re.escape(repr(m))}$"
        with pytest.raises(DomainError, match=message):
            IdenticalAssetParams(0.1, 0.2, m)


class TestMoments:
    def test_zero_weights(self):
        c = uniform_matrix(3, 0.2)
        r, v = portfolio_moments(np.zeros(3), np.full(3, 0.1), np.ones(3), c)
        assert r == 0.0 and v == 0.0

    def test_single_asset(self):
        c = uniform_matrix(1, 0.0)
        r, v = portfolio_moments(np.array([1.0]), np.array([0.07]), np.array([0.3]), c)
        assert r == pytest.approx(0.07)
        assert v == pytest.approx(0.09)

    def test_even_weights_uncorrelated_identical(self):
        m = 8
        c = uniform_matrix(m, 0.0)
        f = np.full(m, 1 / m)
        r, v = portfolio_moments(f, np.full(m, 0.1), np.full(m, 0.2), c)
        assert r == pytest.approx(0.1)
        assert v == pytest.approx(0.2**2 / m)

    def test_dimension_mismatch(self):
        with pytest.raises(InputShapeError):
            portfolio_moments(np.zeros(2), np.zeros(3), np.ones(3), uniform_matrix(3, 0.0))

    def test_variance_nonnegative_on_psd(self, random_correlation):
        rng = np.random.default_rng(13)
        m = 7
        c = CorrelationMatrix(random_correlation(rng, m))
        for _ in range(50):
            f = rng.normal(size=m)
            _, v = portfolio_moments(f, np.zeros(m), rng.uniform(0.1, 0.5, m), c)
            assert v >= -1e-12


class TestMinimalVariance:
    def test_identity_case(self):
        params = IdenticalAssetParams(mu=0.1, sigma=1.0, m=10)
        got = minimal_variance_identical(0.1, params, invert(uniform_matrix(10, 0.0)))
        assert got == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("m,c", [(4, 0.3), (9, 0.6)])
    def test_uniform_closed_form(self, m, c):
        mu, sigma, r_p = 0.1, 0.2, 0.05
        params = IdenticalAssetParams(mu=mu, sigma=sigma, m=m)
        got = minimal_variance_identical(r_p, params, invert(uniform_matrix(m, c)))
        expected = sigma**2 * r_p**2 * (1 + (m - 1) * c) / (mu**2 * m)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_zero_target_return(self):
        params = IdenticalAssetParams(mu=0.05, sigma=0.3, m=4)
        assert minimal_variance_identical(0.0, params, invert(uniform_matrix(4, 0.2))) == 0.0

    def test_zero_mu_rejected(self):
        params = IdenticalAssetParams(mu=0.0, sigma=0.2, m=3)
        with pytest.raises(DomainError):
            minimal_variance_identical(0.1, params, invert(uniform_matrix(3, 0.0)))

    def test_quadratic_in_target(self, random_correlation):
        rng = np.random.default_rng(31)
        c = CorrelationMatrix(random_correlation(rng, 6))
        params = IdenticalAssetParams(mu=0.08, sigma=0.25, m=6)
        cinv = invert(c)
        v1 = minimal_variance_identical(0.04, params, cinv)
        v2 = minimal_variance_identical(0.08, params, cinv)
        assert v2 == pytest.approx(4 * v1, rel=1e-12)

    def test_increasing_in_target(self):
        params = IdenticalAssetParams(mu=0.1, sigma=0.2, m=5)
        cinv = invert(uniform_matrix(5, 0.4))
        values = [minimal_variance_identical(r, params, cinv) for r in (0.02, 0.05, 0.1)]
        assert values[0] < values[1] < values[2]


class TestOptimalWeights:
    def test_identity_symmetric(self):
        m, mu, r_p = 5, 0.1, 0.04
        params = IdenticalAssetParams(mu=mu, sigma=0.2, m=m)
        w = mv_optimal_weights(r_p, params, invert(uniform_matrix(m, 0.0)))
        assert np.allclose(w.fractions, r_p / (mu * m))

    def test_uniform_equal_weights(self):
        m, mu, r_p = 7, 0.1, 0.05
        params = IdenticalAssetParams(mu=mu, sigma=0.3, m=m)
        w = mv_optimal_weights(r_p, params, invert(uniform_matrix(m, 0.4)))
        assert np.allclose(w.fractions, r_p / (mu * m), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_substitution_reproduces_target_and_variance(self, seed, random_correlation):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(2, 10))
        c = CorrelationMatrix(random_correlation(rng, m))
        mu, sigma, r_p = 0.1, 0.2, 0.05
        params = IdenticalAssetParams(mu=mu, sigma=sigma, m=m)
        cinv = invert(c)
        w = mv_optimal_weights(r_p, params, cinv)
        got_r, got_v = portfolio_moments(w, np.full(m, mu), np.full(m, sigma), c)
        assert got_r == pytest.approx(r_p, abs=1e-12)
        assert got_v == pytest.approx(
            minimal_variance_identical(r_p, params, cinv), abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_no_feasible_perturbation_beats_optimum(self, seed, random_correlation):
        rng = np.random.default_rng(300 + seed)
        m = 6
        c = CorrelationMatrix(random_correlation(rng, m))
        mu, sigma, r_p = 0.1, 0.2, 0.05
        params = IdenticalAssetParams(mu=mu, sigma=sigma, m=m)
        cinv = invert(c)
        w = mv_optimal_weights(r_p, params, cinv)
        v_star = minimal_variance_identical(r_p, params, cinv)
        for _ in range(200):
            delta = rng.normal(size=m) * rng.choice([1e-3, 1e-1, 1.0])
            delta -= delta.mean()  # keeps sum(f) and hence R_P unchanged
            _, v = portfolio_moments(
                w.fractions + delta, np.full(m, mu), np.full(m, sigma), c
            )
            assert v >= v_star - 1e-10

    def test_two_block_structure_matches_reduced_qp(self):
        # oracle: with per-block weights g1, g2 the problem reduces to two
        # variables; the Lagrange solution is g_k proportional to the block
        # inverse row sum
        m1, c1, m2, c2 = 4, 0.5, 5, 0.1
        mu, sigma, r_p = 0.1, 0.2, 0.05
        corr = block_diagonal([uniform_matrix(m1, c1), uniform_matrix(m2, c2)])
        params = IdenticalAssetParams(mu=mu, sigma=sigma, m=m1 + m2)
        w = mv_optimal_weights(r_p, params, invert(corr)).fractions

        mef1 = m1 / (1 + (m1 - 1) * c1)
        mef2 = m2 / (1 + (m2 - 1) * c2)
        g1 = r_p / (mu * (1 + (m1 - 1) * c1) * (mef1 + mef2))
        g2 = r_p / (mu * (1 + (m2 - 1) * c2) * (mef1 + mef2))

        assert np.allclose(w[:m1], g1, atol=1e-12)
        assert np.allclose(w[m1:], g2, atol=1e-12)
        # the less correlated block carries more weight
        assert g2 > g1
        assert np.ptp(w[:m1]) < 1e-14 and np.ptp(w[m1:]) < 1e-14
