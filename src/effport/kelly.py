"""Growth-optimal (log-wealth) portfolios and their effective size.

Two solution paths are provided for exchangeable win/lose assets. The
first-order path linearizes the optimality condition (valid while the total
invested fraction stays small) and reuses the inverse correlation matrix.
The numeric path maximizes the exact expected log growth, which for identical
assets is a one-variable concave problem on the (M+1)-point law of the number
of winning assets on [0, (1-eps)/M], solved by one bracketed Newton iteration
on dG/df; the upper bound keeps wealth positive even when every asset loses
at once.

The numeric effective size matches total invested wealth between the
correlated portfolio and a fictitious uncorrelated one, interpolating the
uncorrelated total linearly between integer asset counts.

The numeric path runs on tuples of Python floats and sums every dot product
with ``math.fsum``, which rounds it correctly, so it imports no numpy; only
the general-fraction and first-order paths, which take arrays, do.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .binmodel import BinaryModelParams, JointBinaryDistribution, WinCountLaw, win_count_law
from .errors import (
    BankruptcyError,
    DomainError,
    EnumerationLimitError,
    ExtrapolationError,
    InputShapeError,
)

if TYPE_CHECKING:  # the growth solvers (fig1, fig2) need neither module
    from .corrmat import InverseCorrelationMatrix
    from .meanvar import PortfolioWeights

#: Safety margin keeping 1 + f * sum(R) positive at the all-losses outcome.
FEASIBILITY_EPS = 1e-9

#: Largest asset count the symmetric solvers accept. At this size every law
#: has 2001 points: ``fig1 --m 2000`` (three p, 21 correlations) takes about
#: 0.3 s in-process, and ``fig2 --m 2000`` 0.07 s, on a 2-core host (Python
#: 3.11.7).
MAX_SYMMETRIC_ASSETS = 2000


class GrowthResult(NamedTuple):
    """Optimal fraction per asset, growth rate and total fraction at the optimum."""

    f_star: float
    g_star: float
    total_fraction: float


class MisestimationResult(NamedTuple):
    """Realized growth when the investor optimized under the wrong correlation."""

    c_true: float
    c_assumed: float
    f_assumed: float
    g_realized: float


def kelly_fraction_binary(p: float) -> float:
    """Optimal fraction 2p - 1 for a single even-odds binary bet, floored at 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"win probability must lie in [0, 1], got {p}")
    return max(2.0 * p - 1.0, 0.0)


def growth_rate(weights, dist: JointBinaryDistribution) -> float:
    """Expected log growth of wealth for given fractions under an exact model.

    Raises BankruptcyError when any positive-probability outcome drives
    1 + sum_i f_i R_i to zero or below.
    """
    import numpy as np

    f = np.asarray(getattr(weights, "fractions", weights), dtype=float)
    if f.shape != (dist.m,):
        raise InputShapeError(f"expected {dist.m} fractions, got shape {f.shape}")
    return _expected_log_wealth(dist.probabilities.tolist(), (dist.outcomes @ f).tolist())


def _expected_log_wealth(probs: Sequence[float], gains: Sequence[float]) -> float:
    """E[log(1 + gain)] over the outcomes of positive probability."""
    live = [(q, g) for q, g in zip(probs, gains) if q > 0.0]
    if any(g <= -1.0 for _, g in live):
        raise BankruptcyError(
            "fractions admit total loss: some outcome drives wealth to zero or below"
        )
    return math.fsum([q * math.log1p(g) for q, g in live])


def _check_asset_cap(m: int) -> None:
    if m > MAX_SYMMETRIC_ASSETS:
        raise EnumerationLimitError(
            f"the symmetric growth solvers support at most {MAX_SYMMETRIC_ASSETS} "
            f"assets, got {m}"
        )


def kelly_first_order(
    mu: float, sigma: float, cinv: InverseCorrelationMatrix
) -> PortfolioWeights:
    """First-order optimal fractions mu * (C^-1 1) / (sigma^2 + mu^2 * S).

    S is the entry sum of the inverse. Nonpositive mean returns give all-zero
    weights (abstention); negative components are clipped to zero and flagged.
    """
    import numpy as np

    from .meanvar import PortfolioWeights

    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if mu <= 0.0:
        return PortfolioWeights(np.zeros(cinv.dim))
    row_sums = cinv.values @ np.ones(cinv.dim)
    denom = sigma**2 + mu**2 * float(row_sums.sum())
    f = mu * row_sums / denom
    clipped = bool(np.any(f < 0.0))
    if clipped:
        f = np.clip(f, 0.0, None)
    return PortfolioWeights(f, clipped=clipped)


def maximize_growth_symmetric(law: WinCountLaw) -> GrowthResult:
    """Exact growth maximum for exchangeable assets, solved in one variable.

    With identical assets the optimum spreads wealth evenly, so G depends on
    the common fraction f only through the summed return, whose law is
    ``law``. Abstention (f = 0) is always feasible, hence the optimal growth
    rate is never negative.

    G is concave: its maximum on [0, upper] is ``upper`` if dG/df(upper) >= 0,
    else the root of dG/df, found by Newton steps from f = 0 inside a bracket
    that the sign of dG/df shrinks; a step leaving it becomes the midpoint
    (``rtsafe``, Numerical Recipes). It stops at a step of at most 1e-16
    max(1, f), or when no float lies strictly inside the bracket, which every
    other step shrinks: it always ends.

    Every expectation is a ``math.fsum`` of the law's products. It abstains
    where the edge E[sum R] is at most (M + 1) eps E|sum R|, the rounding
    bound of a plain dot product, which also covers the rounding of the
    law's probabilities: at p = 1/2 the edge reached 0.4 of that over
    M = 1..300 and up to 2000, C = 0..1.
    """
    probs, sums = _largest_first(law)
    edge = math.fsum(map(mul, probs, sums))
    spread = math.fsum(map(mul, probs, map(abs, sums)))
    if edge <= (law.m + 1) * sys.float_info.epsilon * spread:
        return GrowthResult(f_star=0.0, g_star=0.0, total_fraction=0.0)
    upper = (1.0 - FEASIBILITY_EPS) / law.m
    lo, hi = 0.0, upper
    # the loop is skipped when G still rises at the bound
    f = upper if _derivatives(probs, sums, upper)[0] >= 0.0 else 0.0
    while f < upper:
        slope, curvature = _derivatives(probs, sums, f)
        lo, hi = (f, hi) if slope > 0.0 else (lo, f)
        nxt = min(max(f + slope / curvature, lo), hi)
        if abs(nxt - f) <= 1e-16 * max(1.0, f):
            f = nxt
            break
        if not lo < nxt < hi:  # the Newton point left the bracket
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        f = nxt
    g_star = _expected_log_wealth(probs, [f * s for s in sums])
    if g_star <= 0.0:
        # abstention is always feasible and gives exactly zero growth
        return GrowthResult(f_star=0.0, g_star=0.0, total_fraction=0.0)
    return GrowthResult(f_star=f, g_star=g_star, total_fraction=law.m * f)


def _largest_first(law: WinCountLaw) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The law's probabilities and sums, in order of decreasing probability.

    fsum keeps far fewer partial sums when the largest terms come first (20
    against up to 300 in the order of k at M = 2000), and its sums, being
    correctly rounded, do not depend on the order.
    """
    return tuple(zip(*sorted(zip(law.probs, law.sums), reverse=True)))


def _derivatives(probs: Sequence[float], sums: Sequence[float], f: float) -> tuple[float, float]:
    """dG/df and -d2G/df2 at the common fraction ``f``."""
    ratios = [s / (1.0 + f * s) for s in sums]
    return math.fsum(map(mul, probs, ratios)), math.fsum(map(mul, probs, map(mul, ratios, ratios)))


def uncorrelated_total_curve(m: int, p: float) -> tuple[float, ...]:
    """Total invested fraction k * f*(k) for k = 1..m uncorrelated assets.

    Once the optimum of some k sits at the bound (1 - eps) / k, so does that
    of every larger k (checked bit for bit against a solve at every k up to
    250, for p from 0.505 to 0.99). So the curve stops solving there and
    gives each later k the total k * ((1 - eps) / k) that its solve returns.
    """
    _check_asset_cap(m)
    totals = []
    for k in range(1, m + 1):
        upper = (1.0 - FEASIBILITY_EPS) / k
        res = maximize_growth_symmetric(win_count_law(BinaryModelParams(k, p, 0.0)))
        totals.append(res.total_fraction)
        if res.f_star == upper:
            totals += [j * ((1.0 - FEASIBILITY_EPS) / j) for j in range(k + 1, m + 1)]
            break
    return tuple(totals)


def invert_total_curve(totals: Sequence[float], target: float) -> float:
    """Solve totals(m_ef) = target by piecewise-linear interpolation on 1..M.

    The segment and the interpolation are those of ``numpy.interp`` on an
    increasing curve.
    """
    lo, hi = float(totals[0]), float(totals[-1])
    slack = 1e-9
    if target < lo - slack:
        raise ExtrapolationError(
            f"target total fraction {target:.6g} below the single-asset value {lo:.6g}",
            nearest_bound=lo,
        )
    if target > hi + slack:
        raise ExtrapolationError(
            f"target total fraction {target:.6g} above the {len(totals)}-asset value {hi:.6g}",
            nearest_bound=hi,
        )
    x = min(max(target, lo), hi)
    j = bisect_right(totals, x) - 1  # totals[j] <= x < totals[j + 1]
    if j >= len(totals) - 1 or totals[j] == x:
        return float(j + 1)
    return 1.0 / (totals[j + 1] - totals[j]) * (x - totals[j]) + (j + 1)


def m_ef_kelly_numeric_grids(
    m: int, p_values: Sequence[float], c_grid: Sequence[float]
) -> list[list[float]]:
    """Effective size from exact growth maximization and total-fraction matching.

    For every p of ``p_values``, solves sum f*(M, C) = m_ef * f*(m_ef,
    uncorrelated) for m_ef in [1, M] at every C of ``c_grid``, against one
    uncorrelated curve. Needs at least one p, and p > 1/2: below that nothing
    is invested on either side and the matching equation is degenerate. Every
    (p, C) is checked, then every p against 1/2, then the asset cap (by the
    first uncorrelated curve), before any law is built.
    """
    if len(p_values) < 1:
        raise DomainError("need at least one win probability")
    # C = 0 leads each row, so that M and p are refused even for an empty grid
    params = [[BinaryModelParams(m, p, c) for c in (0.0, *c_grid)] for p in p_values]
    for p in p_values:
        if p <= 0.5:
            raise DomainError(f"win probability must exceed 1/2, got {p}")
    grids = []
    for p, row in zip(p_values, params):
        totals = uncorrelated_total_curve(m, p)
        grids.append([
            invert_total_curve(totals, maximize_growth_symmetric(win_count_law(q)).total_fraction)
            for q in row[1:]
        ])
    return grids


def m_ef_kelly_numeric(m: int, p: float, c: float) -> float:
    """:func:`m_ef_kelly_numeric_grids` at the one point (``p``, ``c``)."""
    return m_ef_kelly_numeric_grids(m, [p], [c])[0][0]


def misestimation_experiment(
    m: int, p: float, c_true: float, c_assumed_grid: Sequence[float]
) -> list[MisestimationResult]:
    """Realized growth for an investor optimizing under assumed correlations.

    For each assumed value, the symmetric optimum is computed under the wrong
    model and then evaluated under the true one. The realized curve peaks at
    the true correlation. Every refusal comes before any law is built.
    """
    _check_asset_cap(m)
    true_params = BinaryModelParams(m, p, c_true)
    params = [BinaryModelParams(m, p, c) for c in c_assumed_grid]
    probs, sums = _largest_first(win_count_law(true_params))
    results: list[MisestimationResult] = []
    for q in params:
        assumed = maximize_growth_symmetric(win_count_law(q))
        realized = _expected_log_wealth(probs, [assumed.f_star * s for s in sums])
        results.append(
            MisestimationResult(
                c_true=float(c_true),
                c_assumed=float(q.c),
                f_assumed=assumed.f_star,
                g_realized=realized,
            )
        )
    return results
