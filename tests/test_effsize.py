import numpy as np
import pytest

from effport import effsize
from effport.binmodel import m_ef_uniform
from effport.corrmat import (
    CorrelationMatrix,
    block_diagonal,
    correlation_values,
    invert,
    symmetric_inverse,
    uniform_matrix,
)
from effport.effsize import (
    SectorPartition,
    average_correlation,
    effsize_report,
    inverse_participation_ratio,
    m_ef_even,
    m_ef_exact,
    m_ef_sector,
    m_ef_stack,
    m_ef_variance_ratio,
    reduce_to_sectors,
)
from effport.errors import DomainError, InputShapeError, NearSingularError


class TestExact:
    def test_identity(self):
        assert m_ef_exact(invert(uniform_matrix(5, 0.0))) == pytest.approx(5.0)

    def test_uniform_10_05(self):
        got = m_ef_exact(invert(uniform_matrix(10, 0.5)))
        assert got == pytest.approx(10 / (1 + 9 * 0.5), abs=1e-10)

    def test_negative_pair_correlation_two_assets(self):
        # hedged pair: variance nearly cancels, effective size explodes
        c = CorrelationMatrix(np.array([[1.0, -0.99], [-0.99, 1.0]]))
        got = m_ef_exact(invert(c))
        assert got == pytest.approx(2 / (1 - 0.99), rel=1e-8)

    def test_accepts_plain_array(self):
        inv, _ = symmetric_inverse(uniform_matrix(4, 0.25).values)
        assert m_ef_exact(inv) == pytest.approx(4 / (1 + 3 * 0.25), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_permutation_invariance(self, seed, random_correlation):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 12))
        c = random_correlation(rng, m)
        perm = rng.permutation(m)
        inv_a, _ = symmetric_inverse(c)
        inv_b, _ = symmetric_inverse(c[np.ix_(perm, perm)])
        assert np.sum(inv_b) == pytest.approx(np.sum(inv_a), abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_block_additivity_random_blocks(self, seed, random_correlation):
        rng = np.random.default_rng(100 + seed)
        blocks = [
            CorrelationMatrix(random_correlation(rng, int(rng.integers(2, 7))))
            for _ in range(int(rng.integers(2, 5)))
        ]
        whole = m_ef_exact(invert(block_diagonal(blocks)))
        parts = sum(m_ef_exact(invert(b)) for b in blocks)
        assert abs(whole - parts) <= 1e-8


class TestUniformFormula:
    @pytest.mark.parametrize("m", [1, 2, 7, 50])
    def test_uncorrelated_gives_m(self, m):
        assert m_ef_uniform(m, 0.0) == m

    @pytest.mark.parametrize("m", [1, 3, 100])
    def test_perfect_correlation_gives_one(self, m):
        assert m_ef_uniform(m, 1.0) == 1.0

    def test_large_m_limit(self):
        assert m_ef_uniform(10**6, 0.2) == pytest.approx(5.0, abs=1e-4)

    def test_matches_exact_on_uniform_matrices(self):
        for m in (2, 5, 30):
            for c in (0.0, 0.3, 0.9):
                exact = m_ef_exact(invert(uniform_matrix(m, c)))
                assert exact == pytest.approx(m_ef_uniform(m, c), abs=1e-10)

    def test_monotone_in_m_and_bounded(self):
        c = 0.25
        values = [m_ef_uniform(m, c) for m in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1 / c for v in values)

    @pytest.mark.parametrize("c", [-0.01, 1.01])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            m_ef_uniform(5, c)


class TestEven:
    def test_identity(self):
        assert m_ef_even(uniform_matrix(6, 0.0)) == pytest.approx(6.0)

    def test_djia_scale_average(self):
        # 30 assets at average correlation 0.322 shrink to under three
        got = m_ef_even(uniform_matrix(30, 0.322))
        assert got == pytest.approx(2.90, abs=0.01)

    def test_equals_uniform_formula_on_uniform(self):
        for m, c in ((4, 0.2), (12, 0.7)):
            assert m_ef_even(uniform_matrix(m, c)) == pytest.approx(
                m_ef_uniform(m, c), abs=1e-12
            )

    def test_equals_exact_when_offdiagonals_equal(self):
        c = uniform_matrix(9, 0.45)
        assert m_ef_even(c) == pytest.approx(m_ef_exact(invert(c)), abs=1e-9)

    def test_negative_average_raises(self):
        # <C> = -0.6 < -1/(M-1) makes the denominator negative
        a = np.full((3, 3), -0.6)
        np.fill_diagonal(a, 1.0)
        with pytest.raises(DomainError):
            m_ef_even(CorrelationMatrix(a))

    def test_average_correlation_value(self):
        a = np.array([[1.0, 0.2, 0.4], [0.2, 1.0, 0.6], [0.4, 0.6, 1.0]])
        assert average_correlation(a) == pytest.approx((0.2 + 0.4 + 0.6) / 3)


class TestSectorReduction:
    def test_singleton_sectors_reproduce_matrix(self, random_correlation):
        rng = np.random.default_rng(17)
        c = random_correlation(rng, 5)
        part = SectorPartition([f"s{i}" for i in range(5)])
        reduced = reduce_to_sectors(c, part)
        assert np.allclose(reduced, c, atol=1e-12)

    def test_single_sector_over_uniform(self):
        m, c = 6, 0.4
        reduced = reduce_to_sectors(uniform_matrix(m, c), SectorPartition(["x"] * m))
        assert reduced.shape == (1, 1)
        assert reduced[0, 0] == pytest.approx((1 + (m - 1) * c) / m, abs=1e-12)

    def test_block_diagonal_gives_zero_cross_terms(self):
        c = block_diagonal([uniform_matrix(3, 0.5), uniform_matrix(4, 0.2)])
        part = SectorPartition(["a"] * 3 + ["b"] * 4)
        reduced = reduce_to_sectors(c, part)
        assert reduced[0, 1] == 0.0

    def test_rows_follow_sorted_sector_labels(self):
        c = block_diagonal([uniform_matrix(2, 0.5), uniform_matrix(3, 0.2)])
        part = SectorPartition(("z", "z", "a", "a", "a"))
        assert part.sectors == ("a", "z")
        np.testing.assert_allclose(np.diag(reduce_to_sectors(c, part)), [(1 + 2 * 0.2) / 3, 0.75])

    def test_label_count_mismatch(self):
        for n in (3, 5):
            with pytest.raises(InputShapeError, match=f"^partition labels {n} assets, not 4$"):
                reduce_to_sectors(uniform_matrix(4, 0.1), SectorPartition(("a",) * n))

    @pytest.mark.parametrize("labels", [(), {0: "a", 1: "b"}, [0, 1]])
    def test_labels_are_one_string_per_asset(self, labels):
        with pytest.raises(InputShapeError):
            SectorPartition(labels)

    def test_sector_equals_exact_for_singletons(self, random_correlation):
        rng = np.random.default_rng(23)
        c = random_correlation(rng, 6)
        part = SectorPartition([str(i) for i in range(6)])
        inv, _ = symmetric_inverse(c)
        assert m_ef_sector(c, part) == pytest.approx(float(np.sum(inv)), abs=1e-9)

    def test_single_sector_equals_uniform_formula(self):
        m, c = 8, 0.35
        got = m_ef_sector(uniform_matrix(m, c), SectorPartition(["x"] * m))
        assert got == pytest.approx(m_ef_uniform(m, c), abs=1e-12)

    def test_uniform_blocks_with_matching_sectors(self):
        blocks = [(4, 0.5), (3, 0.2), (5, 0.1)]
        c = block_diagonal([uniform_matrix(m, corr) for m, corr in blocks])
        labels = sum(([f"s{k}"] * m for k, (m, _) in enumerate(blocks)), [])
        got = m_ef_sector(c, SectorPartition(labels))
        expected = sum(m_ef_uniform(m, corr) for m, corr in blocks)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_singular_reduced_matrix(self):
        c = uniform_matrix(4, 0.0)
        # two sectors with identical reduced rows: [[0.25, 0], [0, 0.25]] is
        # fine, so force singularity with perfectly correlated blocks instead
        a = np.ones((4, 4)) * 1.0
        np.fill_diagonal(a, 1.0)
        part = SectorPartition(["a", "a", "b", "b"])
        with pytest.raises(NearSingularError):
            m_ef_sector(a, part)


class TestStack:
    def test_rows_match_one_matrix_estimates(self, random_correlation):
        rng = np.random.default_rng(31)
        stack = np.array([random_correlation(rng, 5) for _ in range(4)])
        # indices into one sorted label list; a matrix may miss some labels
        codes = np.array([[0, 0, 1, 1, 2], [2, 2, 2, 0, 0], [1, 1, 1, 1, 1], [0, 1, 2, 0, 1]])
        got = m_ef_stack(stack, codes)
        for c, row, column in zip(stack, codes, got.T):
            part = SectorPartition(["abc"[i] for i in row])
            expected = [effsize_report(c).m_exact, m_ef_even(c), m_ef_sector(c, part)]
            assert column == pytest.approx(expected, rel=1e-12)
        without = m_ef_stack(stack)
        assert np.array_equal(without[:2], got[:2]) and np.isnan(without[2]).all()

    def test_undefined_values_are_nan(self):
        # uniform -0.4 over 4 assets is indefinite, has a negative even
        # denominator and a negative one-sector reduction; the identity next
        # to it keeps its values
        a = np.full((4, 4), -0.4)
        np.fill_diagonal(a, 1.0)
        got = m_ef_stack(np.array([a, np.eye(4)]), np.zeros((2, 4), dtype=int))
        assert np.isnan(got[:, 0]).all()
        assert got[:, 1].tolist() == [4.0, 4.0, m_ef_sector(np.eye(4), SectorPartition("aaaa"))]


class TestVarianceRatio:
    def test_single_constituent_is_one(self):
        s = np.array([0.01, -0.02, 0.03, 0.0])
        assert m_ef_variance_ratio(s, s[:, None]) == pytest.approx(1.0)

    def test_reported_index_magnitudes(self):
        # variances set to sigma_s^2 = 1.73e-4 and sigma_index^2 = 5.22e-5;
        # their quotient is 3.31
        a = np.sqrt(1.73e-4)
        b = np.sqrt(5.22e-5)
        constituents = np.array([[a, -a], [-a, a]])
        index = np.array([b, -b])
        assert m_ef_variance_ratio(index, constituents) == pytest.approx(3.31, abs=0.01)

    def test_equal_weight_uncorrelated_index_scales_with_m(self):
        # oracle: variance of the mean of M iid series is 1/M of one variance
        rng = np.random.default_rng(8)
        m, t = 8, 20000
        panel = rng.normal(size=(t, m)) * 0.01
        assert m_ef_variance_ratio(panel.mean(axis=1), panel) == pytest.approx(m, rel=0.05)

    def test_zero_index_variance(self):
        with pytest.raises(DomainError, match="index returns have zero variance"):
            m_ef_variance_ratio(np.array([0.01, 0.01]), np.array([[0.1], [-0.1]]))

    def test_length_mismatch(self):
        with pytest.raises(InputShapeError, match=r"need a \(2, M>=1\) constituent"):
            m_ef_variance_ratio(np.array([0.01, -0.01]), np.array([[0.1], [-0.1], [0.0]]))

    def test_population_variance(self):
        # divide by T, not T - 1
        assert effsize._variance(np.array([0.0, 0.2])) == pytest.approx(0.01)

    def test_one_column_at_a_time(self):
        # bit for bit the mean of each column's own variance, as the
        # variance-ratio command has always printed it
        rng = np.random.default_rng(11)
        cols = rng.normal(size=(500, 7)) * 0.01
        index = cols.mean(axis=1)
        want = float(np.mean([effsize._variance(cols[:, j]) for j in range(7)]))
        assert m_ef_variance_ratio(index, cols) == want / effsize._variance(index)


class TestParticipationRatio:
    def test_even_weights(self):
        assert inverse_participation_ratio(np.full(7, 1 / 7)) == pytest.approx(7.0)

    def test_single_asset(self):
        assert inverse_participation_ratio([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_half_half(self):
        assert inverse_participation_ratio([0.5, 0.5, 0.0]) == pytest.approx(2.0)

    def test_all_zero(self):
        with pytest.raises(DomainError):
            inverse_participation_ratio([0.0, 0.0])


class TestReport:
    def test_identity_report(self):
        rep = effsize_report(uniform_matrix(5, 0.0))
        assert rep.m == 5
        assert rep.m_exact == pytest.approx(5.0)
        assert rep.m_even == pytest.approx(5.0)
        assert rep.m_uniform == pytest.approx(5.0)
        assert rep.m_sector is None

    def test_uniform_fills_closed_form(self):
        rep = effsize_report(uniform_matrix(30, 0.322))
        assert rep.m_uniform == pytest.approx(rep.m_even, abs=1e-9)

    def test_heterogeneous_has_no_uniform_entry(self, random_correlation):
        rng = np.random.default_rng(2)
        rep = effsize_report(random_correlation(rng, 6))
        assert rep.m_uniform is None

    def test_full_report(self, random_correlation):
        rng = np.random.default_rng(4)
        c = random_correlation(rng, 4)
        part = SectorPartition(["a", "a", "b", "b"])
        rep = effsize_report(c, partition=part)
        assert rep.m_sector is not None


def test_estimate_ordering_on_bundled_panel(sample_prices_path, sample_sectors_path):
    # On this sample universe the cheap estimates undershoot the exact value;
    # observed ordering for this dataset, not a general theorem.
    from effport.marketdata import load_prices, load_sectors, partition_for_assets, returns_matrix

    panel = load_prices(sample_prices_path)
    corr = CorrelationMatrix(correlation_values(returns_matrix(panel)))
    part = partition_for_assets(panel.assets, load_sectors(sample_sectors_path))
    exact = m_ef_exact(invert(corr))
    sector = m_ef_sector(corr, part)
    even = m_ef_even(corr)
    print(f"bundled panel: m_even={even:.3f} m_sector={sector:.3f} m_exact={exact:.3f}")
    assert even <= sector <= exact
