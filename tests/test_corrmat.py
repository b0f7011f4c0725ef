import math
from fractions import Fraction

import numpy as np
import pytest

from effport import binmodel
from effport.corrmat import (
    CorrelationMatrix,
    InverseCorrelationMatrix,
    RCOND_FLOOR,
    block_diagonal,
    correlation_values,
    invert,
    solve_ones,
    solve_ones_stack,
    symmetric_inverse,
    uniform_inverse_closed_form,
    uniform_matrix,
)
from effport.effsize import effsize_report, m_ef_stack
from effport.errors import DomainError, InputShapeError, NearSingularError


def pair_correlation(x, y) -> float:
    """Correlation of two equal-length series: the off-diagonal entry of the
    correlation matrix of their two columns."""
    return float(correlation_values(np.column_stack([x, y]))[0, 1])


class TestPearson:
    def test_identical_series(self):
        x = np.array([0.1, -0.1, 0.2])
        assert pair_correlation(x, x) == pytest.approx(1.0)

    def test_negated_series(self):
        x = np.array([0.1, -0.1, 0.2])
        assert pair_correlation(x, -x) == pytest.approx(-1.0)

    def test_orthogonal_zero_mean(self):
        assert pair_correlation([1, -1, 1, -1], [1, 1, -1, -1]) == pytest.approx(0.0)

    def test_zero_variance_gives_zero(self):
        # risk-free convention: no correlation with a flat series
        assert pair_correlation([0.1, 0.1, 0.1], [0.3, -0.2, 0.1]) == 0.0

    def test_too_short(self):
        with pytest.raises(InputShapeError, match=r"T>=2"):
            correlation_values(np.array([[0.1, 0.2]]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_symmetry_and_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        c = pair_correlation(x, y)
        assert pair_correlation(y, x) == pytest.approx(c, abs=1e-14)
        assert pair_correlation(2.5 * x + 0.03, y) == pytest.approx(c, rel=1e-10)
        assert pair_correlation(-x, y) == pytest.approx(-c, rel=1e-10)


class TestCorrelationMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(InputShapeError):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 0.1], [0.1, 0.9]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))

    def test_negative_entries_allowed(self):
        c = CorrelationMatrix(np.array([[1.0, -0.99], [-0.99, 1.0]]))
        assert c.dim == 2


def estimate(columns) -> CorrelationMatrix:
    """The correlation matrix of return series given as columns."""
    return CorrelationMatrix(correlation_values(np.column_stack(columns)))


class TestEstimateMatrix:
    def test_two_identical_series(self):
        s = [0.1, -0.2, 0.05]
        c = estimate([s, s])
        assert np.allclose(c.values, np.ones((2, 2)))

    def test_entries_match_pairwise_pearson(self):
        rng = np.random.default_rng(3)
        panel = [rng.normal(size=60) * 0.01 for _ in range(4)]
        c = estimate(panel)
        for i in range(4):
            for j in range(4):
                assert c.values[i, j] == pytest.approx(
                    pair_correlation(panel[i], panel[j]), abs=1e-12
                )

    def test_independent_series_near_zero(self):
        # Monte Carlo oracle: independent draws, so any off-diagonal should
        # stay within 3/sqrt(T) of zero.
        t = 10**5
        rng = np.random.default_rng(12)
        panel = [rng.normal(size=t) * 0.01 for _ in range(3)]
        c = estimate(panel)
        off = c.values[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 3.0 / np.sqrt(t))

    def test_hidden_asset_samples_recover_target(self):
        params = binmodel.BinaryModelParams(4, 0.55, 0.3)
        draws = binmodel.sample(params, 10**5, seed=99)
        c = CorrelationMatrix(correlation_values(draws.astype(float)))
        off = c.values[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - 0.3) < 0.02)

    def test_single_series_rejected(self):
        # one series as a 1-D array is not a return matrix; as a (T, 1)
        # column it is one, of correlation matrix [[1]]
        with pytest.raises(InputShapeError, match=r"\(T>=2, M>=1\) return matrix"):
            correlation_values(np.array([0.1, 0.2, 0.3]))
        assert correlation_values(np.array([[0.1], [0.2], [0.3]])).tolist() == [[1.0]]

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_estimated_matrix_is_psd(self, seed):
        rng = np.random.default_rng(seed)
        m = 8
        panel = rng.normal(size=(40, m)) * 0.02
        c = CorrelationMatrix(correlation_values(panel))
        assert np.linalg.eigvalsh(c.values).min() >= -1e-10 * m

    def test_zero_variance_column_convention(self):
        c = estimate([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [0.2, 0.1, -0.1]])
        assert np.allclose(c.values[0, 1:], 0.0)
        assert c.values[0, 0] == 1.0


def exact_pearson(x, y) -> float:
    """Pearson correlation of two float series in exact rational arithmetic,
    rounded once at the end; 0 where either series is constant."""
    fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    sxy = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    sxx = sum((a - mx) ** 2 for a in fx)
    syy = sum((b - my) ** 2 for b in fy)
    if sxx == 0 or syy == 0:
        return 0.0
    return math.copysign(math.sqrt(float(sxy * sxy / (sxx * syy))), sxy)


def test_correlation_values_match_exact_pearson():
    # column 0 has a mean 1e10 times its spread; column 2 varies by one ulp
    z = np.random.default_rng(7).standard_normal((60, 2))
    r = np.column_stack([
        0.01 + 1e-12 * z[:, 0],
        0.01 * (z[:, 0] + z[:, 1]),
        np.where(z[:, 0] > 0.0, np.nextafter(0.001, 1.0), 0.001),
    ])
    want = np.array([[exact_pearson(r[:, i], r[:, j]) if i != j else 1.0 for j in range(3)]
                     for i in range(3)])
    np.testing.assert_allclose(correlation_values(r), want, rtol=1e-14, atol=0.0)


class TestInvert:
    def test_identity(self):
        inv = invert(uniform_matrix(5, 0.0))
        assert np.allclose(inv.values, np.eye(5), atol=1e-14)
        assert inv.reciprocal_condition == pytest.approx(1.0)

    def test_uniform_4_05_matches_closed_form(self):
        inv = invert(uniform_matrix(4, 0.5))
        expected = np.full((4, 4), -0.4)
        np.fill_diagonal(expected, 1.6)
        assert np.allclose(inv.values, expected, atol=1e-12)

    def test_duplicated_assets_near_singular(self):
        c = CorrelationMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(NearSingularError):
            invert(c)

    def test_product_is_identity(self, random_correlation):
        rng = np.random.default_rng(21)
        c = CorrelationMatrix(random_correlation(rng, 12))
        inv = invert(c)
        assert np.max(np.abs(c.values @ inv.values - np.eye(12))) <= 1e-8

    def test_indefinite_matrix_refused(self):
        # uniform -0.4 has eigenvalues 1.4 (three times) and -0.2: invertible,
        # but no correlation matrix of real returns, so every path refuses it
        a = np.full((4, 4), -0.4)
        np.fill_diagonal(a, 1.0)
        with pytest.raises(NearSingularError, match="lambda_min = -0.2 "):
            symmetric_inverse(a)
        out = solve_ones_stack(a[None])
        assert not out.usable[0] and np.isnan(out.m_ef[0]) and out.rcond[0] == 0.0
        assert np.isnan(m_ef_stack(a[None])[0, 0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_double_inversion_roundtrip(self, seed, random_correlation):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 15))
        c = random_correlation(rng, m)
        inv, _ = symmetric_inverse(c)
        back, _ = symmetric_inverse(inv)
        assert np.max(np.abs(back - c)) < 1e-6

    def test_rejects_non_square(self):
        with pytest.raises(InputShapeError):
            symmetric_inverse(np.ones((2, 3)))

    def test_inverse_type_checks_residual(self):
        c = uniform_matrix(3, 0.2)
        with pytest.raises(NearSingularError):
            InverseCorrelationMatrix(values=np.eye(3) * 5.0, source=c, reciprocal_condition=1.0)

    def test_inverse_residual_guards_more_than_the_solve(self):
        # a pair at correlation 1 - 1e-10, both at 0.3 to a third asset: the
        # solve against ones passes every check, the full inverse misses the
        # identity, so the matrix residual is a contract of its own
        r = 1.0 - 1e-10
        c = np.array([[1.0, r, 0.3], [r, 1.0, 0.3], [0.3, 0.3, 1.0]])
        out = solve_ones_stack(c[None])
        assert out.usable[0] and out.residual[0] == 0.0 and out.rcond[0] < 1e-10
        assert effsize_report(c).m_exact == pytest.approx(20 / 13, rel=1e-9)
        with pytest.raises(NearSingularError, match=r"^inverse residual 1\.\d+e-06 exceeds 1e-08"):
            invert(CorrelationMatrix(c))


def near_duplicate_pair(n, rcond):
    """Identity with assets 0 and 1 correlated so that lambda_min/lambda_max = rcond.

    The pair has eigenvalues 1 - a and 1 + a, the rest 1; the ones vector is
    orthogonal to the small eigenvector. Returns the matrix and the true
    reciprocal condition of the stored (rounded) a.
    """
    a = np.eye(n)
    a[0, 1] = a[1, 0] = (1.0 - rcond) / (1.0 + rcond)
    return a, (1.0 - a[0, 1]) / (1.0 + a[0, 1])


class TestInverseStack:
    def test_refused_matrix_does_not_abort_stack(self, random_correlation):
        rng = np.random.default_rng(5)
        good = random_correlation(rng, 4)
        stack = np.array([good, np.ones((4, 4)), np.zeros((4, 4)), good])
        out = solve_ones_stack(stack)
        assert out.usable.tolist() == [True, False, False, True]
        assert out.rcond[1] == 0.0 and out.rcond[2] == 0.0
        assert np.all(np.isnan(out.m_ef[1:3])) and np.all(np.isnan(out.residual[1:3]))
        one = solve_ones_stack(good[None])
        assert out.m_ef[0] == out.m_ef[3] == one.m_ef[0]
        assert out.rcond[0] == one.rcond[0]
        inv, rcond = symmetric_inverse(good)
        assert rcond == one.rcond[0]
        assert out.m_ef[0] == pytest.approx(inv.sum(), rel=1e-13)

    def test_solutions_are_read_only(self, random_correlation):
        # README: every value type is immutable, so a solution's arrays are too,
        # for a stack with a failed factorisation (identity factor) and for one matrix
        good = random_correlation(np.random.default_rng(5), 4)
        for out in (solve_ones_stack(np.array([good, np.ones((4, 4))])), solve_ones(good)):
            assert [array.flags.writeable for array in out] == [False] * 5
            with pytest.raises(ValueError, match="read-only"):
                out.m_ef[0] = 0.0

    def test_residual_failure_is_refused(self):
        # above the rcond floor, yet too ill-conditioned for the 1e-8 residual:
        # the ones vector has a component along the 1e-10 eigenvector
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        a = (q * [1.0, 0.5, 1e-10]) @ q.T
        a = 0.5 * (a + a.T)
        out = solve_ones_stack(a[None])
        assert out.rcond[0] >= 1e-12
        assert not out.usable[0] and out.residual[0] > 1e-8
        with pytest.raises(NearSingularError, match="residual"):
            symmetric_inverse(a)

    @pytest.mark.parametrize("ratio, usable", [(0.5, False), (2.0, True)])
    def test_rcond_floor_decides(self, ratio, usable):
        a, true_rcond = near_duplicate_pair(5, ratio * RCOND_FLOOR)
        out = solve_ones_stack(a[None])
        assert out.rcond[0] == pytest.approx(true_rcond, rel=1e-3)
        assert out.residual[0] <= 1e-8
        assert out.usable[0] == usable
        if usable:
            assert out.m_ef[0] == pytest.approx(3.0 + 2.0 / (1.0 + a[0, 1]), rel=1e-12)
            assert symmetric_inverse(a)[1] == out.rcond[0]
        else:
            assert np.isnan(out.m_ef[0])
            with pytest.raises(NearSingularError, match="reciprocal condition"):
                symmetric_inverse(a)

    def test_rcond_at_the_floor_is_estimated_closely(self):
        # at exactly the floor the outcome rests on the estimate, which must
        # be near the true value and not below it (both eigenvalue estimates
        # are Rayleigh quotients; four power steps leave lambda_max 0.3% low)
        a, true_rcond = near_duplicate_pair(5, RCOND_FLOOR)
        out = solve_ones_stack(a[None])
        assert true_rcond * (1.0 - 1e-4) <= out.rcond[0] <= true_rcond * 1.01
        assert out.usable[0] == (out.rcond[0] >= RCOND_FLOOR)

    def test_near_duplicate_asset_refused(self, random_correlation):
        rng = np.random.default_rng(8)
        returns = rng.standard_normal((300, 6)) @ np.linalg.cholesky(
            random_correlation(rng, 6)
        ).T
        twin = returns[:, 2] + 1e-8 * rng.standard_normal(300)
        corr = correlation_values(np.column_stack([returns, twin]))
        assert corr[2, 6] > 1.0 - 1e-14
        assert solve_ones_stack(corr[:6, :6][None]).usable[0]
        out = solve_ones_stack(corr[None])
        assert not out.usable[0] and out.rcond[0] < RCOND_FLOOR
        assert np.isnan(m_ef_stack(corr[None])[0, 0])
        with pytest.raises(NearSingularError):
            symmetric_inverse(corr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_is_a_failed_factorisation(self, bad, random_correlation):
        good = random_correlation(np.random.default_rng(6), 3)
        both = good.copy()
        both[0, 1] = both[1, 0] = bad
        # np.linalg.cholesky reads only the lower triangle, so it would factor this one
        upper = good.copy()
        upper[0, 2] = bad
        out = solve_ones_stack(np.array([good, both, upper]))
        assert out.usable.tolist() == [True, False, False]
        assert np.array_equal(out.factor[1], np.eye(3)) and np.array_equal(out.factor[2], np.eye(3))
        assert out.rcond[1:].tolist() == [0.0, 0.0]
        assert np.all(np.isnan(out.residual[1:])) and np.all(np.isnan(out.m_ef[1:]))
        assert out.m_ef[0] == solve_ones_stack(good[None]).m_ef[0]

    def test_non_finite_matrix_refused_before_eigvalsh(self, monkeypatch):
        def refuse(a):
            raise AssertionError("eigvalsh ran on a non-finite matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="matrix entries must be finite"):
                symmetric_inverse(np.array([[1.0, bad], [bad, 1.0]]))

    def test_rejects_non_stack(self):
        with pytest.raises(InputShapeError):
            solve_ones_stack(np.eye(3))


def exact_ones_sum(a: np.ndarray) -> Fraction | None:
    """1'C^-1 1 of a float matrix, taken as exact rationals, by Fraction
    elimination of [C | 1]; None unless every pivot (those of C = L D L') is
    positive, that is unless C is positive definite."""
    n = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(1)] for row in a.tolist()]
    for k in range(n):
        if rows[k][k] <= 0:
            return None
        for i in range(k + 1, n):
            ratio = rows[i][k] / rows[k][k]
            rows[i] = [u - ratio * v for u, v in zip(rows[i], rows[k])]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return sum(x)


def test_solve_ones_within_condition_bound_of_exact_value():
    """Relative error of an accepted m_ef at most c M eps kappa_2(C), c = 1.

    Factor-model matrices of M = 2..8 whose off-diagonal entries are rounded
    to multiples of 2^-20, so the float matrix is the rational one; loadings
    up to 1e3 give kappa_2 from 1 to about 5e8. Over 10 600 such matrices
    (11 seeds) the largest ratio of the error to M eps kappa_2 was 0.55 and
    the median 0.005; solve_ones_stack refused 6 of them (rcond or residual).
    """
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    kept = 0
    for _ in range(200):
        m = int(rng.integers(2, 9))
        loadings = rng.standard_normal((m, int(rng.integers(1, 4)))) * 10.0 ** rng.uniform(-1, 3)
        cov = loadings @ loadings.T + np.diag(rng.uniform(0.01, 1.0, m))
        scale = np.sqrt(np.diag(cov))
        c = np.round(cov / np.outer(scale, scale) * 2.0**20) / 2.0**20
        c = np.triu(c, 1) + np.triu(c, 1).T + np.eye(m)
        exact = exact_ones_sum(c)
        out = solve_ones_stack(c[None])
        if exact is None or not out.usable[0]:
            continue
        kept += 1
        eigs = np.linalg.eigvalsh(c)
        error = abs(Fraction(float(out.m_ef[0])) - exact) / exact
        assert error <= m * eps * eigs[-1] / eigs[0], (m, float(error), eigs[-1] / eigs[0])
    assert kept >= 150


class TestUniformClosedForm:
    def test_m2_c0_is_identity(self):
        inv = uniform_inverse_closed_form(2, 0.0)
        assert np.allclose(inv.values, np.eye(2))

    def test_m4_c05(self):
        inv = uniform_inverse_closed_form(4, 0.5)
        assert inv.values[0, 0] == pytest.approx(1.6, abs=1e-14)
        assert inv.values[0, 1] == pytest.approx(-0.4, abs=1e-14)

    def test_m10_c02(self):
        inv = uniform_inverse_closed_form(10, 0.2)
        denom = 0.8 * 2.8
        assert inv.values[0, 0] == pytest.approx(2.6 / denom, abs=1e-14)
        assert inv.values[2, 7] == pytest.approx(-0.2 / denom, abs=1e-14)

    def test_c1_singular(self):
        with pytest.raises(NearSingularError):
            uniform_inverse_closed_form(5, 1.0)

    def test_single_asset_any_correlation(self):
        for c in (0.0, 0.5, 1.0):
            inv = uniform_inverse_closed_form(1, c)
            assert inv.values[0, 0] == 1.0
            assert inv.reciprocal_condition == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            uniform_inverse_closed_form(5, -0.1)

    @pytest.mark.parametrize("m", [2, 3, 10, 40, 100])
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.5, 0.9])
    def test_matches_numeric_inversion(self, m, c):
        closed = uniform_inverse_closed_form(m, c)
        numeric = invert(uniform_matrix(m, c))
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-10


class TestUniformMatrix:
    def test_c0_is_identity(self):
        assert np.array_equal(uniform_matrix(3, 0.0).values, np.eye(3))

    def test_c1(self):
        assert np.array_equal(uniform_matrix(2, 1.0).values, np.ones((2, 2)))

    def test_pattern(self):
        v = uniform_matrix(3, 0.5).values
        assert np.array_equal(v, np.array([[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]))

    @pytest.mark.parametrize("c", [-0.2, 1.4])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            uniform_matrix(3, c)


class TestBlockDiagonal:
    def test_single_block(self):
        b = uniform_matrix(3, 0.4)
        assert np.array_equal(block_diagonal([b]).values, b.values)

    def test_two_singletons(self):
        one = uniform_matrix(1, 0.0)
        assert np.array_equal(block_diagonal([one, one]).values, np.eye(2))

    def test_mixed_blocks(self):
        c = block_diagonal([uniform_matrix(2, 0.5), uniform_matrix(3, 0.2)])
        assert c.dim == 5
        assert c.values[0, 1] == 0.5
        assert c.values[2, 3] == 0.2
        assert np.all(c.values[:2, 2:] == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(InputShapeError):
            block_diagonal([])


def test_correlation_values_requires_matrix():
    with pytest.raises(InputShapeError):
        correlation_values(np.zeros((1, 3)))
