"""Hidden-asset model for exchangeable win/lose returns with tunable correlation.

A latent coin lands +1 with probability p; each asset then copies its sign
with conditional probabilities

    P(+1 | hidden +1) = p + (1-p) sqrt(C)
    P(-1 | hidden -1) = 1 - p + p sqrt(C)

which gives every asset the marginal win probability p and every pair the
correlation C, for C in [0, 1].

The model is exchangeable, so anything that treats the assets alike depends
only on the number k of winning assets. :func:`win_count_law` gives the exact
(M+1)-point law of k in closed form, as tuples of Python floats; the
symmetric growth solvers (fig1, fig2) run on it, up to the asset cap in
:mod:`effport.kelly`, and so need no numpy.
:func:`m_ef_uniform` is the closed-form effective size of M assets at
uniform correlation C, which fig1 compares with the growth solvers.
:func:`build_joint` enumerates the full 2^M outcome table, needed only for
general (unequal) fractions and limited to 20 assets; beyond that, use
:func:`sample`.

Only the outcome table and sampling import numpy. Sampling uses numpy's
PCG64 generator seeded explicitly, so identical seeds reproduce identical
draws on one platform; cross-platform reproduction is guaranteed only at the
level of the sampled statistics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, EnumerationLimitError, check_int

if TYPE_CHECKING:  # the law (fig1, fig2) needs no numpy
    import numpy as np

#: Largest asset count for exact enumeration of all 2^M outcomes.
ENUMERATION_LIMIT = 20

#: log(k!) for k = 0, 1, ...; grown on demand by :func:`_log_factorials`.
_LOG_FACTORIALS = (0.0,)


#: ``_make`` of the tuples below that check their fields: it builds through
#: ``__new__``, so it and ``_replace``, which calls it, run the checks.
_checked_make = classmethod(lambda cls, values: cls(*values))


class BinaryModelParams(NamedTuple("BinaryModelParams", [("m", int), ("p", float), ("c", float)])):
    """Asset count, win probability, and target pairwise correlation."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, m: int, p: float, c: float):
        _check_asset_count(m)
        if not 0.0 < p < 1.0:
            raise DomainError(f"win probability must lie in (0, 1), got {p}")
        if not 0.0 <= c <= 1.0:
            raise DomainError(f"correlation must lie in [0, 1], got {c}")
        return super().__new__(cls, m, p, c)

    @property
    def cond_win(self) -> float:
        """P(asset +1 | hidden +1)."""
        return self.p + (1.0 - self.p) * math.sqrt(self.c)

    @property
    def cond_lose(self) -> float:
        """P(asset -1 | hidden -1)."""
        return 1.0 - self.p + self.p * math.sqrt(self.c)


class JointBinaryDistribution(NamedTuple("JointBinaryDistribution", [
    ("m", int), ("outcomes", "np.ndarray"), ("log_probabilities", "np.ndarray")
])):
    """Exact probability table over all 2^M sign vectors.

    Probabilities are stored as logs so enumeration stays accurate near the
    20-asset limit; :attr:`probabilities` exponentiates them on each access.
    The distribution is exchangeable: probability depends only on the number
    of winning assets. It holds arrays, so it compares by identity.
    """

    __slots__ = ()
    _make = _checked_make
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, m: int, outcomes: np.ndarray, log_probabilities: np.ndarray):
        if outcomes.shape != (2**m, m):
            raise DomainError("outcome table shape does not match asset count")
        if log_probabilities.shape != (2**m,):
            raise DomainError("probability vector shape does not match outcome table")
        return super().__new__(cls, m, outcomes, log_probabilities)

    @property
    def probabilities(self) -> np.ndarray:
        import numpy as np

        out = np.exp(self.log_probabilities)
        out.flags.writeable = False
        return out


class WinCountLaw(NamedTuple("WinCountLaw", [("m", int), ("sums", tuple), ("probs", tuple)])):
    """Exact law of the number k of winning assets, k = 0..M.

    ``sums[k] = 2k - M`` is the summed return of all assets when k of them
    win, and ``probs[k]`` its probability, each a tuple of M + 1 Python
    floats (any sequence given is converted). An equal-fraction portfolio
    depends on the model only through these M + 1 points.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, m: int, sums, probs):
        sums, probs = tuple(map(float, sums)), tuple(map(float, probs))
        if len(sums) != m + 1 or len(probs) != m + 1:
            raise DomainError("win-count law needs M + 1 sums and probabilities")
        return super().__new__(cls, m, sums, probs)


def _log_factorials(n: int) -> tuple[float, ...]:
    """log(k!) for k = 0..n, each from math.lgamma.

    The table is a pure cache (entry k never changes); it at least doubles
    whenever it grows, so a sweep over M = 1..n builds it O(log n) times.
    """
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) <= n:
        size = max(n + 1, 2 * len(_LOG_FACTORIALS))
        _LOG_FACTORIALS = tuple([math.lgamma(k + 1.0) for k in range(size)])
    return _LOG_FACTORIALS[: n + 1]


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)), computed as numpy's ``logaddexp`` computes it."""
    if x == y:  # also two infinities of one sign
        return x + math.log(2.0)
    if x > y:
        return x + math.log1p(math.exp(y - x))
    return y + math.log1p(math.exp(x - y))


def _log_mixture(params: BinaryModelParams) -> list[float]:
    """Log probability of one outcome vector with k wins, for k = 0..M.

    P(R) = p * prod_i P(R_i | hidden +1) + (1-p) * prod_i P(R_i | hidden -1).
    """
    m = params.m
    log_p, log_q = math.log(params.p), math.log1p(-params.p)
    up = _log_products(m, params.cond_win, 1.0 - params.cond_win)
    down = _log_products(m, 1.0 - params.cond_lose, params.cond_lose)
    return [_logaddexp(log_p + u, log_q + d) for u, d in zip(up, down)]


def _log_products(m: int, y_win: float, y_lose: float) -> list[float]:
    """k log(y_win) + (M - k) log(y_lose) for k = 0..M, where a count of 0
    contributes 0, so 0 * log 0 = 0 where a conditional is 0 (C = 1)."""
    log_win, log_lose = (math.log(y) if y > 0.0 else -math.inf for y in (y_win, y_lose))
    return [(k * log_win if k else 0.0) + ((m - k) * log_lose if k < m else 0.0)
            for k in range(m + 1)]


def build_joint(params: BinaryModelParams) -> JointBinaryDistribution:
    """Enumerate the exact joint distribution of all 2^M outcome vectors."""
    if params.m > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"exact enumeration supports at most {ENUMERATION_LIMIT} assets, "
            f"got {params.m}; draw samples instead"
        )
    import numpy as np

    m = params.m
    codes = np.arange(2**m, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(m - 1, -1, -1)) & 1
    outcomes = (2 * bits - 1).astype(np.int8)
    logp = np.array(_log_mixture(params))[bits.sum(axis=1)]
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
    log_fact = _log_factorials(m)
    probs = [
        math.exp(log_fact[m] - log_fact[k] - log_fact[m - k] + log_mix)
        for k, log_mix in enumerate(_log_mixture(params))
    ]
    return WinCountLaw(m=m, sums=[2.0 * k - m for k in range(m + 1)], probs=probs)


def _check_asset_count(m: int) -> None:
    """Refuse an asset count that is not an int (a bool included) or is below 1."""
    check_int(m, "asset count")
    if m < 1:
        raise DomainError(f"asset count must be >= 1, got {m}")


def _check_uniform(m: int, c: float) -> None:
    """Refuse a bad asset count (:func:`_check_asset_count`) or a correlation outside [0, 1]."""
    _check_asset_count(m)
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
    import numpy as np

    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    hidden_up = rng.random(n) < params.p
    win_prob = np.where(hidden_up, params.cond_win, 1.0 - params.cond_lose)
    draws = rng.random((n, params.m))
    return np.where(draws < win_prob[:, None], 1, -1).astype(np.int8)
