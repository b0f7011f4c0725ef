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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

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

#: Largest asset count the symmetric solvers accept. The uncorrelated
#: reference curve costs O(M^2): about 2 s at this size.
MAX_SYMMETRIC_ASSETS = 2000


@dataclass(frozen=True)
class GrowthResult:
    """Optimal fraction per asset, growth rate at the optimum, and method tag."""

    f_star: float
    g_star: float
    total_fraction: float
    method: str


@dataclass(frozen=True)
class MisestimationResult:
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
    f = np.asarray(getattr(weights, "fractions", weights), dtype=float)
    if f.shape != (dist.m,):
        raise InputShapeError(f"expected {dist.m} fractions, got shape {f.shape}")
    return _expected_log_wealth(dist.probabilities, dist.outcomes @ f)


def _expected_log_wealth(probs: np.ndarray, gains: np.ndarray) -> float:
    """E[log(1 + gain)] over the outcomes of positive probability."""
    live = probs > 0.0
    if np.any(gains[live] <= -1.0):
        raise BankruptcyError(
            "fractions admit total loss: some outcome drives wealth to zero or below"
        )
    return float(probs[live] @ np.log1p(gains[live]))


def _check_asset_count(m: int) -> None:
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

    It abstains where the edge E[sum R] is at most (M + 1) eps E|sum R|, the
    rounding bound of its dot product: at p = 1/2 the rounded edge reached
    0.4 of that over M = 1..300 and up to 2000, C = 0..1.
    """
    sums, probs = law.sums, law.probs
    if float(probs @ sums) <= (law.m + 1) * np.finfo(float).eps * float(probs @ np.abs(sums)):
        return GrowthResult(f_star=0.0, g_star=0.0, total_fraction=0.0, method="numeric-exact")
    upper = (1.0 - FEASIBILITY_EPS) / law.m
    lo, hi = 0.0, upper
    # the loop is skipped when G still rises at the bound
    f = upper if float(probs @ (sums / (1.0 + upper * sums))) >= 0.0 else 0.0
    while f < upper:
        ratio = sums / (1.0 + f * sums)
        slope = float(probs @ ratio)
        lo, hi = (f, hi) if slope > 0.0 else (lo, f)
        nxt = min(max(f + slope / float(probs @ (ratio * ratio)), lo), hi)
        if abs(nxt - f) <= 1e-16 * max(1.0, f):
            f = nxt
            break
        if not lo < nxt < hi:  # the Newton point left the bracket
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        f = nxt
    g_star = float(probs @ np.log1p(f * sums))
    if g_star <= 0.0:
        # abstention is always feasible and gives exactly zero growth
        return GrowthResult(f_star=0.0, g_star=0.0, total_fraction=0.0, method="numeric-exact")
    return GrowthResult(
        f_star=f,
        g_star=g_star,
        total_fraction=law.m * f,
        method="numeric-exact",
    )


def uncorrelated_total_curve(m: int, p: float) -> np.ndarray:
    """Total invested fraction k * f*(k) for k = 1..m uncorrelated assets."""
    _check_asset_count(m)
    return np.array(
        [
            maximize_growth_symmetric(win_count_law(BinaryModelParams(k, p, 0.0))).total_fraction
            for k in range(1, m + 1)
        ]
    )


def invert_total_curve(totals: np.ndarray, target: float) -> float:
    """Solve totals(m_ef) = target by piecewise-linear interpolation on 1..M."""
    lo, hi = float(totals[0]), float(totals[-1])
    slack = 1e-9
    if target < lo - slack:
        raise ExtrapolationError(
            f"target total fraction {target:.6g} below the single-asset value {lo:.6g}",
            nearest_bound=lo,
        )
    if target > hi + slack:
        raise ExtrapolationError(
            f"target total fraction {target:.6g} above the {totals.size}-asset value {hi:.6g}",
            nearest_bound=hi,
        )
    grid = np.arange(1, totals.size + 1, dtype=float)
    return float(np.interp(min(max(target, lo), hi), totals, grid))


def m_ef_kelly_numeric(m: int, p: float, c: float) -> float:
    """Effective size from exact growth maximization and total-fraction matching.

    Solves sum f*(M, C) = m_ef * f*(m_ef, uncorrelated) for m_ef in [1, M].
    Needs p > 1/2: below that nothing is invested on either side and the
    matching equation is degenerate.
    """
    params = BinaryModelParams(m, p, c)
    if p <= 0.5:
        raise DomainError(f"win probability must exceed 1/2, got {p}")
    totals = uncorrelated_total_curve(m, p)
    target = maximize_growth_symmetric(win_count_law(params)).total_fraction
    return invert_total_curve(totals, target)


def misestimation_experiment(
    m: int, p: float, c_true: float, c_assumed_grid: Sequence[float]
) -> list[MisestimationResult]:
    """Realized growth for an investor optimizing under assumed correlations.

    For each assumed value, the symmetric optimum is computed under the wrong
    model and then evaluated under the true one. The realized curve peaks at
    the true correlation.
    """
    _check_asset_count(m)
    true_law = win_count_law(BinaryModelParams(m, p, c_true))
    results: list[MisestimationResult] = []
    for c_assumed in c_assumed_grid:
        assumed = maximize_growth_symmetric(win_count_law(BinaryModelParams(m, p, c_assumed)))
        realized = _expected_log_wealth(true_law.probs, assumed.f_star * true_law.sums)
        results.append(
            MisestimationResult(
                c_true=float(c_true),
                c_assumed=float(c_assumed),
                f_assumed=assumed.f_star,
                g_realized=realized,
            )
        )
    return results
