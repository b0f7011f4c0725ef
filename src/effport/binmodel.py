"""Hidden-asset model for exchangeable win/lose returns with tunable correlation.

A latent coin lands +1 with probability p; each asset then copies its sign
with conditional probabilities

    P(+1 | hidden +1) = p + (1-p) sqrt(C)
    P(-1 | hidden -1) = 1 - p + p sqrt(C)

which gives every asset the marginal win probability p and every pair the
correlation C, for C in [0, 1].

The model is exchangeable, so anything that treats the assets alike depends
only on the number k of winning assets. :func:`win_count_law` gives the exact
(M+1)-point law of k in closed form; the symmetric growth solvers (fig1,
fig2) run on it, up to the asset cap in :mod:`effport.kelly`.
:func:`m_ef_uniform` is the closed-form effective size of M assets at
uniform correlation C, which fig1 compares with the growth solvers.
:func:`build_joint` enumerates the full 2^M outcome table, needed only for
general (unequal) fractions and limited to 20 assets; beyond that, use
:func:`sample`.

Sampling uses numpy's PCG64 generator seeded explicitly, so identical seeds
reproduce identical draws on one platform; cross-platform reproduction is
guaranteed only at the level of the sampled statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, EnumerationLimitError

#: Largest asset count for exact enumeration of all 2^M outcomes.
ENUMERATION_LIMIT = 20

#: log(k!) for k = 0, 1, ...; grown on demand by :func:`_log_factorials`.
_LOG_FACTORIALS = np.zeros(1)


@dataclass(frozen=True)
class BinaryModelParams:
    """Asset count, win probability, and target pairwise correlation."""

    m: int
    p: float
    c: float

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"asset count must be >= 1, got {self.m}")
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"win probability must lie in (0, 1), got {self.p}")
        if not 0.0 <= self.c <= 1.0:
            raise DomainError(f"correlation must lie in [0, 1], got {self.c}")

    @property
    def cond_win(self) -> float:
        """P(asset +1 | hidden +1)."""
        return self.p + (1.0 - self.p) * math.sqrt(self.c)

    @property
    def cond_lose(self) -> float:
        """P(asset -1 | hidden -1)."""
        return 1.0 - self.p + self.p * math.sqrt(self.c)

    @property
    def mu(self) -> float:
        """Mean return 2p - 1 of one asset."""
        return 2.0 * self.p - 1.0

    @property
    def sigma2(self) -> float:
        """Return variance 4p(1-p) of one asset."""
        return 4.0 * self.p * (1.0 - self.p)


@dataclass(frozen=True, eq=False)
class JointBinaryDistribution:
    """Exact probability table over all 2^M sign vectors.

    Probabilities are stored as logs internally so enumeration stays accurate
    near the 20-asset limit; :attr:`probabilities` exponentiates on demand.
    The distribution is exchangeable: probability depends only on the number
    of winning assets.
    """

    m: int
    outcomes: np.ndarray
    log_probabilities: np.ndarray

    def __post_init__(self):
        if self.outcomes.shape != (2**self.m, self.m):
            raise DomainError("outcome table shape does not match asset count")
        if self.log_probabilities.shape != (2**self.m,):
            raise DomainError("probability vector shape does not match outcome table")

    @cached_property
    def probabilities(self) -> np.ndarray:
        out = np.exp(self.log_probabilities)
        out.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class WinCountLaw:
    """Exact law of the number k of winning assets, k = 0..M.

    ``sums[k] = 2k - M`` is the summed return of all assets when k of them
    win, and ``probs[k]`` its probability. An equal-fraction portfolio depends
    on the model only through these M + 1 points.
    """

    m: int
    sums: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if self.sums.shape != (self.m + 1,) or self.probs.shape != (self.m + 1,):
            raise DomainError("win-count law needs M + 1 sums and probabilities")


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n, each from math.lgamma.

    The table is a pure cache (entry k never changes); it at least doubles
    whenever it grows, so a sweep over M = 1..n builds it O(log n) times.
    """
    global _LOG_FACTORIALS
    if _LOG_FACTORIALS.size <= n:
        size = max(n + 1, 2 * _LOG_FACTORIALS.size)
        _LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(size)])
        _LOG_FACTORIALS.flags.writeable = False
    return _LOG_FACTORIALS[: n + 1]


def _xlogy(x: np.ndarray, y: float) -> np.ndarray:
    """x * log(y), with 0 where x == 0 (so 0 * log 0 = 0)."""
    log_y = math.log(y) if y > 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        return np.where(x == 0, 0.0, x * log_y)


def _log_mixture(wins: np.ndarray, params: BinaryModelParams) -> np.ndarray:
    """Log probability of one outcome vector with the given number of wins.

    P(R) = p * prod_i P(R_i | hidden +1) + (1-p) * prod_i P(R_i | hidden -1);
    :func:`_xlogy` keeps 0 * log 0 = 0 where a conditional is 0 or 1 (C = 1).
    """
    m = params.m
    a_win, a_lose = params.cond_win, params.cond_lose
    log_given_up = _xlogy(wins, a_win) + _xlogy(m - wins, 1.0 - a_win)
    log_given_down = _xlogy(wins, 1.0 - a_lose) + _xlogy(m - wins, a_lose)
    return np.logaddexp(
        math.log(params.p) + log_given_up,
        math.log1p(-params.p) + log_given_down,
    )


def build_joint(params: BinaryModelParams) -> JointBinaryDistribution:
    """Enumerate the exact joint distribution of all 2^M outcome vectors."""
    if params.m > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"exact enumeration supports at most {ENUMERATION_LIMIT} assets, "
            f"got {params.m}; draw samples instead"
        )
    m = params.m
    codes = np.arange(2**m, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(m - 1, -1, -1)) & 1
    outcomes = (2 * bits - 1).astype(np.int8)
    logp = _log_mixture(bits.sum(axis=1), params)
    outcomes.flags.writeable = False
    logp.flags.writeable = False
    return JointBinaryDistribution(m=m, outcomes=outcomes, log_probabilities=logp)


def win_count_law(params: BinaryModelParams) -> WinCountLaw:
    """Closed-form law of the number of winning assets, in O(M).

    P(k) = C(M,k) [p a^k (1-a)^(M-k) + (1-p) (1-b)^k b^(M-k)] with
    a = cond_win and b = cond_lose, evaluated in log space (the binomial
    coefficient from a table of log factorials), so it stays exact far beyond
    2^M tables.
    """
    m = params.m
    k = np.arange(m + 1, dtype=float)
    log_fact = _log_factorials(m)
    log_binom = log_fact[m] - log_fact - log_fact[::-1]
    probs = np.exp(log_binom + _log_mixture(k, params))
    sums = 2.0 * k - m
    probs.flags.writeable = False
    sums.flags.writeable = False
    return WinCountLaw(m=m, sums=sums, probs=probs)


def _check_uniform(m: int, c: float) -> None:
    """Refuse an asset count below 1 or a uniform correlation outside [0, 1]."""
    if m < 1:
        raise DomainError(f"asset count must be >= 1, got {m}")
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"uniform correlation must lie in [0, 1], got {c}")


def m_ef_uniform(m: int, c: float) -> float:
    """Closed form M / (1 + (M-1) C) for uniformly correlated assets.

    Equals M at C=0, 1 at C=1, and tends to 1/C as M grows.
    """
    _check_uniform(m, c)
    return m / (1.0 + (m - 1) * c)


def sample(params: BinaryModelParams, n: int, seed: int) -> np.ndarray:
    """Draw an (n, M) matrix of +1/-1 returns from the hidden-asset model.

    Each row first draws the hidden outcome, then every asset independently
    from its conditional. Identical seeds give identical output.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    hidden_up = rng.random(n) < params.p
    win_prob = np.where(hidden_up, params.cond_win, 1.0 - params.cond_lose)
    draws = rng.random((n, params.m))
    return np.where(draws < win_prob[:, None], 1, -1).astype(np.int8)
