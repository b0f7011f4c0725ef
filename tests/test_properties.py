"""Property tests for the win-count law of the exchangeable win/lose model.

The enumerated 2^M outcome table (``build_joint``) is the oracle for the
closed-form (M+1)-point law (``win_count_law``) and for the growth solve on it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effport.binmodel import BinaryModelParams, WinCountLaw, build_joint, win_count_law
from effport.kelly import (
    FEASIBILITY_EPS,
    MAX_SYMMETRIC_ASSETS,
    m_ef_kelly_numeric,
    maximize_growth_symmetric,
)

probabilities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
correlations = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
winning_edges = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


def table_law(params):
    """The law regrouped from the full outcome table."""
    return WinCountLaw(params.m, *build_joint(params).sum_support)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), p=probabilities, c=correlations)
@example(m=12, p=0.6, c=0.0)
@example(m=12, p=0.6, c=1.0)
@example(m=1, p=0.3, c=1.0)
def test_law_matches_table(m, p, c):
    params = BinaryModelParams(m, p, c)
    law, table = win_count_law(params), table_law(params)
    assert np.array_equal(law.sums, table.sums)
    assert np.max(np.abs(law.probs - table.probs)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, MAX_SYMMETRIC_ASSETS), p=probabilities, c=correlations)
@example(m=MAX_SYMMETRIC_ASSETS, p=0.5, c=0.0)
def test_law_is_normalized(m, p, c):
    probs = win_count_law(BinaryModelParams(m, p, c)).probs
    assert np.all(probs >= 0.0)
    # log C(M,k) = log M! - log k! - log (M-k)! (each from math.lgamma) loses
    # about M * eps * log(M) to cancellation at the largest M
    assert abs(float(probs.sum()) - 1.0) <= 1e-11


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 12), p=probabilities, c=correlations)
@example(m=10, p=0.7, c=0.3)
@example(m=12, p=0.55, c=1.0)
def test_solver_same_on_law_and_table(m, p, c):
    params = BinaryModelParams(m, p, c)
    on_law = maximize_growth_symmetric(win_count_law(params))
    on_table = maximize_growth_symmetric(table_law(params))
    assert abs(on_law.f_star - on_table.f_star) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(p=winning_edges, c=correlations)
@example(p=0.55, c=0.5)
@example(p=0.7, c=1.0)
def test_first_order_optimality_at_500_assets(p, c):
    m = 500
    law = win_count_law(BinaryModelParams(m, p, c))
    res = maximize_growth_symmetric(law)
    slope = float(law.probs @ (law.sums / (1.0 + res.f_star * law.sums)))
    if res.f_star < (1.0 - FEASIBILITY_EPS) / m:
        assert abs(slope) <= 1e-9
    else:
        # weak correlation: the optimum sits on the feasibility bound
        assert slope >= 0.0
    assert 1.0 <= m_ef_kelly_numeric(m, p, c) <= m
