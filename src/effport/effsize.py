"""Effective portfolio size: exact value and its cheaper estimates.

The effective size of a portfolio of M correlated assets is the number of
hypothetical uncorrelated assets whose optimal portfolio behaves the same;
for both the minimum-variance and the growth-optimal framework it equals the
sum of all entries of the inverse correlation matrix. This module also
provides the average-correlation (even-investment) estimate, the
sector-reduced estimate, and the variance-ratio estimate from index data.
The closed form for uniform correlations, ``m_ef_uniform``, lives with the
uniform model in :mod:`effport.binmodel` and is importable from here too.

The exact, even and sector estimates also come in stacked form
(``*_stack``), evaluated for a whole (k, M, M) stack of matrices at once
through the same formulas; a value that is undefined for one matrix is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corrmat import SummaryStats, _series_values, solve_ones, solve_ones_stack
from .errors import DomainError, InputShapeError


def __getattr__(name: str):
    # m_ef_uniform is imported on first use, so price commands never load binmodel
    if name == "m_ef_uniform":
        from .binmodel import m_ef_uniform

        return m_ef_uniform
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _matrix_values(c) -> np.ndarray:
    """Accept a CorrelationMatrix, a ReducedSectorMatrix, or a plain array."""
    values = getattr(c, "values", None)
    if values is None:
        values = np.asarray(c, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InputShapeError(f"need a square matrix, got shape {values.shape}")
    return values


@dataclass(frozen=True)
class SectorPartition:
    """Assignment of asset indices to named sectors."""

    assignment: Mapping[int, str]

    def __post_init__(self):
        if not self.assignment:
            raise InputShapeError("partition must assign at least one asset")
        object.__setattr__(self, "assignment", dict(self.assignment))

    @classmethod
    def from_labels(cls, labels: Sequence[str]) -> "SectorPartition":
        """Partition where asset i belongs to sector labels[i]."""
        return cls({i: str(lab) for i, lab in enumerate(labels)})

    @property
    def sectors(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.assignment.values())))

    @property
    def n(self) -> int:
        return len(self.sectors)

    def codes(self, m: int) -> np.ndarray:
        """Sector of each asset 0..m-1 as an index into :attr:`sectors`.

        Raises InputShapeError unless the partition covers exactly those assets.
        """
        if set(self.assignment) != set(range(m)):
            raise InputShapeError(f"partition must cover asset indices 0..{m - 1} exactly")
        index = {label: i for i, label in enumerate(self.sectors)}
        return np.array([index[self.assignment[i]] for i in range(m)])

    @property
    def sizes(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for label in self.assignment.values():
            out[label] = out.get(label, 0) + 1
        return out


@dataclass(frozen=True, eq=False)
class ReducedSectorMatrix:
    """Sector-averaged correlation matrix.

    Intra-sector entries average over the full sector block including the
    unit diagonal of the asset matrix, so the diagonal here need not be 1.
    """

    values: np.ndarray
    sectors: tuple[str, ...]

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != len(self.sectors):
            raise InputShapeError("reduced matrix shape does not match sector count")
        object.__setattr__(self, "values", a)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


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
    m_variance_ratio: float | None = None


def m_ef_exact(cinv) -> float:
    """Exact effective size: the sum of all entries of the inverse matrix.

    Parameters
    ----------
    cinv : InverseCorrelationMatrix or square array holding the inverse.
    """
    return float(np.sum(_matrix_values(cinv)))


def m_ef_exact_stack(a: np.ndarray) -> np.ndarray:
    """Exact effective size of every matrix in a (k, M, M) stack.

    NaN where :func:`~effport.corrmat.solve_ones_stack` refuses the matrix.
    """
    return solve_ones_stack(a).m_ef


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


def m_ef_even_stack(a: np.ndarray) -> np.ndarray:
    """:func:`m_ef_even` for every matrix of a (k, M, M) stack, M >= 2.

    NaN where the denominator is nonpositive.
    """
    _, denom = _even_terms(a)
    return a.shape[-1] / np.where(denom > 0.0, denom, np.nan)


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


def reduce_to_sectors(c, partition: SectorPartition) -> ReducedSectorMatrix:
    """Average a correlation matrix over a sector partition.

    Intra-sector entries sum over the whole block, diagonal included, divided
    by the squared sector size; inter-sector entries average the rectangular
    cross block.
    """
    a = _matrix_values(c)
    sectors = partition.sectors
    reduced = _reduce(a, _sector_weights(partition.codes(a.shape[0]), len(sectors)))
    return ReducedSectorMatrix(values=reduced, sectors=sectors)


def m_ef_sector(c, partition: SectorPartition) -> float:
    """Sector-reduced effective size: entry sum of the inverse reduced matrix."""
    return float(solve_ones(reduce_to_sectors(c, partition).values).m_ef[0])


def m_ef_sector_stack(a: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """:func:`m_ef_sector` for every matrix of a (k, M, M) stack.

    ``codes`` (k, M) gives each asset's sector as an index into one sorted
    label list; only the sectors present in a matrix enter its reduction, in
    that order. NaN where the reduced matrix is refused.
    """
    present = np.zeros((codes.shape[0], int(codes.max()) + 1), dtype=bool)
    np.put_along_axis(present, codes, True, axis=1)
    # rank of each present sector among the sectors of its own matrix
    local = np.take_along_axis(np.cumsum(present, axis=1) - 1, codes, axis=1)
    counts = present.sum(axis=1)
    out = np.empty(codes.shape[0])
    # np.unique would import numpy.ma; this gives the same counts in the same order
    for n in np.flatnonzero(np.bincount(counts)):
        # a view, not a copy of the stack, when every matrix has n sectors
        rows = counts == n if (counts != n).any() else slice(None)
        weights = _sector_weights(local[rows], int(n))
        out[rows] = m_ef_exact_stack(_reduce(a[rows], weights))
    return out


def m_ef_variance_ratio(index_returns, constituents: Sequence) -> float:
    """Ratio of the mean constituent variance to the index return variance."""
    idx = _series_values(index_returns)
    if len(constituents) < 1:
        raise InputShapeError("need at least one constituent series")
    cols = [_series_values(s) for s in constituents]
    if any(c.size != idx.size for c in cols):
        raise InputShapeError("constituent series must cover the same periods as the index")
    idx_var = SummaryStats.of(idx).variance
    if idx_var == 0.0:
        raise DomainError("index returns have zero variance")
    mean_var = float(np.mean([SummaryStats.of(c).variance for c in cols]))
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


def effsize_report(
    c,
    partition: SectorPartition | None = None,
    index_returns=None,
    constituents: Sequence | None = None,
) -> EffSizeReport:
    """Compute every applicable effective-size estimate for one matrix.

    The uniform closed form is filled in only when all off-diagonal entries
    coincide; the sector estimate needs a partition; the variance ratio needs
    an index series plus its constituents. Raises NearSingularError when
    :func:`~effport.corrmat.solve_ones` refuses the matrix, naming
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
    ratio = None
    if index_returns is not None and constituents is not None:
        ratio = m_ef_variance_ratio(index_returns, constituents)
    return EffSizeReport(
        m=m,
        m_exact=exact,
        m_even=even,
        m_uniform=uniform,
        m_sector=sector,
        m_variance_ratio=ratio,
    )
