"""Effective portfolio size: exact value and its cheaper estimates.

The effective size of a portfolio of M correlated assets is the number of
hypothetical uncorrelated assets whose optimal portfolio behaves the same;
for both the minimum-variance and the growth-optimal framework it equals the
sum of all entries of the inverse correlation matrix. This module also
provides the average-correlation (even-investment) estimate, the
sector-reduced estimate, and the variance-ratio estimate from index data.
The closed form for uniform correlations, ``m_ef_uniform``, lives with the
uniform model in :mod:`effport.binmodel`.

:func:`m_ef_stack` evaluates the exact, even and sector estimates for a
whole (k, M, M) stack of matrices in one call, through the same formulas; a
value that is undefined or refused for one matrix is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrmat import solve_ones, solve_ones_stack
from .errors import DomainError, InputShapeError


def _matrix_values(c) -> np.ndarray:
    """Accept a CorrelationMatrix, an InverseCorrelationMatrix, or a plain array."""
    values = getattr(c, "values", None)
    if values is None:
        values = np.asarray(c, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InputShapeError(f"need a square matrix, got shape {values.shape}")
    return values


@dataclass(frozen=True)
class SectorPartition:
    """The sector label of each asset, in asset order."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise InputShapeError("partition must assign at least one asset")
        if not all(isinstance(label, str) for label in self.labels):
            raise InputShapeError("sector labels must be strings, one per asset")

    @property
    def sectors(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))

    def codes(self, m: int) -> np.ndarray:
        """Sector of each asset 0..m-1 as an index into :attr:`sectors`.

        Raises InputShapeError unless the partition labels exactly m assets.
        """
        if len(self.labels) != m:
            raise InputShapeError(f"partition labels {len(self.labels)} assets, not {m}")
        index = {label: i for i, label in enumerate(self.sectors)}
        return np.array([index[label] for label in self.labels])


@dataclass(frozen=True)
class EffSizeReport:
    """All effective-size numbers for one asset set, side by side.

    Estimates that do not apply to the input are None.
    """

    m: int
    m_exact: float
    m_even: float
    m_uniform: float | None = None
    m_sector: float | None = None


def m_ef_exact(cinv) -> float:
    """Exact effective size: the sum of all entries of the inverse matrix.

    Parameters
    ----------
    cinv : InverseCorrelationMatrix or square array holding the inverse.
    """
    return float(np.sum(_matrix_values(cinv)))


def _even_terms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<C> and the denominator 1 + (M-1)<C> for a (..., M, M) stack."""
    m = a.shape[-1]
    avg = (a.sum(axis=(-2, -1)) - np.trace(a, axis1=-2, axis2=-1)) / (m * (m - 1))
    return avg, 1.0 + (m - 1) * avg


def average_correlation(c) -> float:
    """Mean of the strictly off-diagonal entries of a correlation matrix."""
    a = _matrix_values(c)
    if a.shape[0] < 2:
        raise InputShapeError("average correlation needs at least 2 assets")
    return float(_even_terms(a)[0])


def m_ef_even(c) -> float:
    """Effective size of the evenly weighted portfolio, M / (1 + (M-1)<C>).

    <C> is the average off-diagonal correlation. Raises DomainError when the
    denominator is nonpositive (possible only with strongly negative <C>).
    """
    a = _matrix_values(c)
    m = a.shape[0]
    if m < 2:
        raise InputShapeError("even-investment estimate needs at least 2 assets")
    avg, denom = _even_terms(a)
    if denom <= 0.0:
        raise DomainError(
            f"nonpositive denominator 1+(M-1)<C> = {denom:.6g} with <C> = {avg:.6g}; "
            "estimate undefined for such negative average correlation"
        )
    return float(m / denom)


def _sector_weights(codes: np.ndarray, n: int) -> np.ndarray:
    """Row-normalized one-hot weights (..., n, M) of sector codes (..., M).

    ``codes`` holds each asset's sector index in 0..n-1; every index must
    occur. Row s averages over the assets of sector s.
    """
    onehot = (codes[..., None, :] == np.arange(n)[:, None]).astype(float)
    return onehot / onehot.sum(axis=-1, keepdims=True)


def _reduce(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Symmetrized W C W^T for matching stacks (or single matrices)."""
    reduced = weights @ a @ np.swapaxes(weights, -1, -2)
    return 0.5 * (reduced + np.swapaxes(reduced, -1, -2))


def reduce_to_sectors(c, partition: SectorPartition) -> np.ndarray:
    """Average a correlation matrix over a sector partition.

    Row and column s of the result belong to ``partition.sectors[s]``.
    Intra-sector entries sum over the whole block, diagonal included, divided
    by the squared sector size, so the diagonal need not be 1; inter-sector
    entries average the rectangular cross block.
    """
    a = _matrix_values(c)
    return _reduce(a, _sector_weights(partition.codes(a.shape[0]), len(partition.sectors)))


def m_ef_sector(c, partition: SectorPartition) -> float:
    """Sector-reduced effective size: entry sum of the inverse reduced matrix."""
    return float(solve_ones(reduce_to_sectors(c, partition)).m_ef[0])


def m_ef_stack(a: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
    """The (3, k) exact, even and sector effective sizes of a (k, M, M) stack, M >= 2.

    ``codes`` (k, M) gives each asset's sector as an index into one sorted
    label list; only the sectors present in a matrix enter its reduction, in
    that order. A value is NaN where it is undefined or refused (as by
    :func:`~effport.corrmat.solve_ones_stack`); the sector row is NaN without ``codes``.
    """
    out = np.full((3, len(a)), np.nan)
    out[0] = solve_ones_stack(a).m_ef
    _, denom = _even_terms(a)
    out[1] = a.shape[-1] / np.where(denom > 0.0, denom, np.nan)
    if codes is not None:
        present = np.zeros((codes.shape[0], int(codes.max()) + 1), dtype=bool)
        np.put_along_axis(present, codes, True, axis=1)
        # rank of each present sector among the sectors of its own matrix
        local = np.take_along_axis(np.cumsum(present, axis=1) - 1, codes, axis=1)
        counts = present.sum(axis=1)
        # np.unique would import numpy.ma; this gives the same counts in the same order
        for n in np.flatnonzero(np.bincount(counts)):
            # a view, not a copy of the stack, when every matrix has n sectors
            rows = counts == n if (counts != n).any() else slice(None)
            weights = _sector_weights(local[rows], int(n))
            out[2, rows] = solve_ones_stack(_reduce(a[rows], weights)).m_ef
    return out


def _variance(returns: np.ndarray) -> float:
    """Population (divide-by-T) variance of one return series."""
    mean = float(np.mean(returns))
    return float(np.mean((returns - mean) ** 2))


def m_ef_variance_ratio(index_returns: np.ndarray, constituents: np.ndarray) -> float:
    """Ratio of the mean constituent variance to the index return variance.

    ``index_returns`` holds T >= 2 returns, ``constituents`` the (T, M)
    returns of the constituents; each variance is the population one.
    """
    idx = np.asarray(index_returns, dtype=float)
    cols = np.asarray(constituents, dtype=float)
    if idx.ndim != 1 or idx.size < 2:
        raise InputShapeError(f"need >= 2 index returns in a 1-D array, got shape {idx.shape}")
    if cols.ndim != 2 or cols.shape[0] != idx.size or cols.shape[1] < 1:
        raise InputShapeError(
            f"need a ({idx.size}, M>=1) constituent return matrix, got shape {cols.shape}"
        )
    idx_var = _variance(idx)
    if idx_var == 0.0:
        raise DomainError("index returns have zero variance")
    # one column at a time: a vectorised variance sums in another order
    mean_var = float(np.mean([_variance(c) for c in cols.T]))
    return mean_var / idx_var


def inverse_participation_ratio(weights) -> float:
    """Herfindahl-style weight concentration measure 1 / sum(f_i^2).

    Distinct from the effective size: it sees only how unevenly wealth is
    spread, not the correlation structure.
    """
    f = np.asarray(getattr(weights, "fractions", weights), dtype=float)
    if not np.all(np.isfinite(f)):
        raise DomainError("weights must be finite")
    ss = float(np.sum(f * f))
    if ss == 0.0:
        raise DomainError("all-zero weights have no participation ratio")
    return 1.0 / ss


def effsize_report(c, partition: SectorPartition | None = None) -> EffSizeReport:
    """Compute every applicable effective-size estimate for one matrix.

    The uniform closed form is filled in only when all off-diagonal entries
    coincide; the sector estimate needs a partition. Raises NearSingularError
    when :func:`~effport.corrmat.solve_ones` refuses the matrix, naming
    lambda_min for one that is not positive definite.
    """
    a = _matrix_values(c)
    m = a.shape[0]
    exact = float(solve_ones(a).m_ef[0])
    even = m_ef_even(a) if m >= 2 else float(m)

    uniform = None
    if m >= 2:
        off = a[~np.eye(m, dtype=bool)]
        if np.ptp(off) <= 1e-12 and 0.0 <= off[0] <= 1.0:
            from .binmodel import m_ef_uniform

            uniform = m_ef_uniform(m, float(off[0]))

    sector = m_ef_sector(a, partition) if partition is not None else None
    return EffSizeReport(m=m, m_exact=exact, m_even=even, m_uniform=uniform, m_sector=sector)
