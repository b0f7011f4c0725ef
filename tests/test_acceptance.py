"""Release acceptance suite: one test per criterion, each printing a
PASS/FAIL line with its measured numbers. Run with

    pytest tests/test_acceptance.py -v -s

Criterion 7 carries a known, documented failure: at p = 0.60 the
total-fraction matching saturates for weak correlations (over 98% of wealth
invested), pushing the numeric effective size about 0.7 above the closed
form at C = 0.05, beyond the stated 0.3 bound. The assertion is kept as
stated rather than loosened; see README, "Known acceptance failure".
"""

import functools
import math
import time

import numpy as np
import pytest

from effport import cli
from effport.binmodel import BinaryModelParams, build_joint, sample, win_count_law
from effport.corrmat import (
    CorrelationMatrix,
    block_diagonal,
    invert,
    uniform_inverse_closed_form,
    uniform_matrix,
)
from effport.effsize import m_ef_exact, m_ef_uniform
from effport.kelly import (
    m_ef_kelly_numeric,
    maximize_growth_symmetric,
    misestimation_experiment,
)
from effport.marketdata import panel_from_returns, write_prices_csv
from effport.meanvar import (
    IdenticalAssetParams,
    minimal_variance_identical,
    mv_optimal_weights,
    portfolio_moments,
)

from conftest import make_random_correlation


def criterion(label):
    """Print one PASS/FAIL line per acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL [{time.perf_counter() - start:.2f}s]")
                raise
            print(f"ACCEPTANCE {label}: PASS [{time.perf_counter() - start:.2f}s]")

        return wrapper

    return decorate


@criterion("01 closed-form equivalence")
def test_01_closed_form_equivalence():
    start = time.perf_counter()
    for m in range(2, 101):
        for c in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            closed = uniform_inverse_closed_form(m, c)
            numeric = invert(uniform_matrix(m, c))
            expected = m / (1 + (m - 1) * c)
            assert abs(m_ef_exact(numeric) - expected) <= 1e-10, (m, c)
            assert np.max(np.abs(closed.values - numeric.values)) <= 1e-10, (m, c)
    assert time.perf_counter() - start < 5.0


@criterion("02 infinite-size limit")
def test_02_limit_behavior():
    value = m_ef_uniform(10**6, 0.2)
    assert 4.99 <= value <= 5.0, value


@criterion("03 block additivity")
def test_03_block_additivity():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(100):
        blocks = [
            uniform_matrix(int(rng.integers(2, 9)), float(rng.uniform(0.0, 0.9)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        whole = m_ef_exact(invert(block_diagonal(blocks)))
        parts = sum(m_ef_exact(invert(b)) for b in blocks)
        assert abs(whole - parts) <= 1e-8
    assert time.perf_counter() - start < 1.0


@criterion("04 mean-variance optimum")
def test_04_mean_variance_optimum():
    start = time.perf_counter()
    rng = np.random.default_rng(4321)
    mu, sigma, r_p = 0.1, 0.2, 0.05
    for _ in range(100):
        m = int(rng.integers(2, 13))
        corr = CorrelationMatrix(make_random_correlation(rng, m))
        params = IdenticalAssetParams(mu=mu, sigma=sigma, m=m)
        cinv = invert(corr)
        weights = mv_optimal_weights(r_p, params, cinv)
        got_r, got_v = portfolio_moments(
            weights, np.full(m, mu), np.full(m, sigma), corr
        )
        v_star = minimal_variance_identical(r_p, params, cinv)
        assert abs(got_r - r_p) <= 1e-12
        assert abs(got_v - v_star) <= 1e-10
        for _ in range(200):
            delta = rng.normal(size=m) * 10.0 ** rng.integers(-3, 1)
            delta -= delta.mean()  # keeps the expected return fixed
            _, v = portfolio_moments(
                weights.fractions + delta, np.full(m, mu), np.full(m, sigma), corr
            )
            assert v >= v_star - 1e-10
    assert time.perf_counter() - start < 5.0


@criterion("05 single-asset growth optimum")
def test_05_kelly_reduction():
    for p in (0.3, 0.5, 0.55, 0.6, 0.75):
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(1, p, 0.0)))
        assert abs(res.f_star - max(2 * p - 1, 0.0)) <= 1e-8, p


@criterion("06 binary model correctness")
def test_06_binary_model():
    start = time.perf_counter()
    for m in (2, 3, 5):
        for p in (0.55, 0.6, 0.7):
            for c in (0.0, 0.25, 0.5, 1.0):
                dist = build_joint(BinaryModelParams(m, p, c))
                probs = dist.probabilities
                assert abs(float(probs.sum()) - 1.0) <= 1e-12
                marginals = (probs[:, None] * (dist.outcomes == 1)).sum(axis=0)
                assert np.max(np.abs(marginals - p)) <= 1e-12
                r0 = dist.outcomes[:, 0].astype(float)
                r1 = dist.outcomes[:, -1].astype(float)
                mu = 2 * p - 1
                cov = float(probs @ (r0 * r1)) - mu * mu
                assert abs(cov / (4 * p * (1 - p)) - c) <= 1e-10
    assert time.perf_counter() - start < 1.0


@criterion("07 growth-size grid agreement")
def test_07_fig1_grid():
    start = time.perf_counter()
    grid = [round(0.05 * i, 10) for i in range(1, 20)]
    max_diff = {}
    diffs = {}
    for p in (0.55, 0.60, 0.70):
        diffs[p] = {
            c: m_ef_kelly_numeric(10, p, c) - m_ef_uniform(10, c) for c in grid
        }
        max_diff[p] = max(abs(d) for d in diffs[p].values())
    print(
        f"\n  p=0.55 max|diff|={max_diff[0.55]:.3f}, "
        f"p=0.60 max|diff|={max_diff[0.60]:.3f} (bound 0.3); "
        "p=0.70 diff on C in (0.1,0.4): "
        + ", ".join(f"{diffs[0.70][c]:+.2f}" for c in (0.15, 0.2, 0.25, 0.3, 0.35))
    )
    mid = [c for c in grid if 0.1 < c < 0.4]
    for c in mid:
        assert diffs[0.70][c] > 0.0, (c, diffs[0.70][c])
        assert diffs[0.70][c] > abs(diffs[0.55][c]), c
    assert time.perf_counter() - start < 60.0
    assert max_diff[0.55] <= 0.3, f"p=0.55 max discrepancy {max_diff[0.55]:.3f} > 0.3"
    assert max_diff[0.60] <= 0.3, (
        f"p=0.60 max discrepancy {max_diff[0.60]:.3f} > 0.3 "
        "(known failure: see module docstring and README)"
    )


@criterion("08 misestimated correlation curve")
def test_08_fig2_curve():
    start = time.perf_counter()
    grid = [round(0.05 * i, 10) for i in range(13)]
    results = misestimation_experiment(10, 0.55, 0.2, grid)
    g = {r.c_assumed: r.g_realized for r in results}
    g_star = max(g.values())
    peak = max(g, key=g.get)
    sign = "negative" if g[0.0] < 0 else "nonnegative"
    print(f"\n  peak at C'={peak}, G*(0.2)={g_star:.5f}, G(0)={g[0.0]:.5f} ({sign})")
    assert peak == 0.2
    assert g[0.05] < g[0.35]
    assert g[0.0] < 0.25 * g_star
    assert time.perf_counter() - start < 30.0


@criterion("09 synthetic pipeline consistency")
def test_09_synthetic_pipeline(tmp_path, capsys):
    start = time.perf_counter()
    target_c = 0.322
    draws = sample(BinaryModelParams(30, 0.55, target_c), 10**5, seed=42)

    prices = tmp_path / "prices.csv"
    write_prices_csv(panel_from_returns(draws, scale=0.01), prices)
    index = tmp_path / "index.csv"
    index_returns = draws.astype(float).mean(axis=1, keepdims=True)
    write_prices_csv(panel_from_returns(index_returns, assets=["IDX"], scale=0.01), index)

    corr_out = tmp_path / "corr.tsv"
    assert cli.main(["estimate-corr", str(prices), "--out", str(corr_out)]) == 0
    header, summary = capsys.readouterr().out.strip().splitlines()
    mean_corr = float(summary.split("\t")[header.split("\t").index("mean_corr")])

    assert cli.main(["effsize", "--corr", str(corr_out)]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    m_even = float(row.split("\t")[header.split("\t").index("m_even")])

    assert (
        cli.main(
            ["variance-ratio", "--index", str(index), "--constituents", str(prices)]
        )
        == 0
    )
    header, row = capsys.readouterr().out.strip().splitlines()
    ratio = float(row.split("\t")[header.split("\t").index("ratio")])

    print(f"\n  mean_corr={mean_corr:.4f} m_even={m_even:.4f} ratio={ratio:.4f}")
    assert abs(mean_corr - target_c) <= 0.01
    assert abs(m_even - 2.90) <= 0.1
    assert abs(ratio - m_even) <= 0.1 * m_even
    assert time.perf_counter() - start < 30.0


@criterion("10 seeded determinism")
def test_10_subset_curve_determinism(tmp_path, sample_prices_path, sample_sectors_path):
    start = time.perf_counter()
    outputs = []
    for name in ("first.tsv", "second.tsv"):
        out = tmp_path / name
        argv = [
            "subset-curve",
            "--prices", str(sample_prices_path),
            "--sectors", str(sample_sectors_path),
            "--sizes", "2,5,10,15,20,25,30",
            "--draws", "5000",
            "--seed", "20080415",
            "--out", str(out),
        ]
        assert cli.main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert time.perf_counter() - start < 60.0
