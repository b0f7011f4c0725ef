"""Correlation matrices: construction, estimation from returns, and inversion.

All averages use the population (divide-by-T) convention. The normalization
cancels inside the correlation quotient for equal-length series, so the choice
only matters for reported variances; fixing it keeps results bit-reproducible.

A series with exactly zero variance is treated as risk-free and gets
correlation 0 with everything instead of raising.

Inversion runs on whole stacks of matrices (:func:`inverse_stack`): one
batched eigenvalue call gives each matrix's 2-norm reciprocal condition, one
batched LU inverse follows, and a residual check accepts or refuses each
inverse on its own. :func:`symmetric_inverse` is the one-matrix case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InputShapeError, NearSingularError

#: Below this reciprocal condition number the entry sum of the inverse is
#: numerically meaningless and inversion is refused.
RCOND_FLOOR = 1e-12

#: Max-norm tolerance on C @ inv(C) - I for a usable inverse.
INVERSE_RESIDUAL_TOL = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _series_values(x) -> np.ndarray:
    """Accept a ReturnSeries or a plain 1-D sequence of returns."""
    values = x.returns if isinstance(x, ReturnSeries) else np.asarray(x, dtype=float)
    if values.ndim != 1:
        raise InputShapeError(f"return series must be 1-D, got shape {values.shape}")
    if values.size < 2:
        raise InputShapeError(f"return series needs at least 2 periods, got {values.size}")
    return values


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Per-period simple returns of a single asset.

    Every return exceeds -1 (prices stay positive). Correlation operations
    additionally require at least two periods.
    """

    asset_id: str
    returns: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        # a single-period series is a valid returns container; correlation
        # operations separately require at least two periods
        if r.ndim != 1 or r.size < 1:
            raise InputShapeError(
                f"series {self.asset_id!r}: need a nonempty 1-D array of returns"
            )
        if not np.all(np.isfinite(r)):
            raise DomainError(f"series {self.asset_id!r}: returns must be finite")
        if not np.all(r > -1.0):
            raise DomainError(f"series {self.asset_id!r}: every return must exceed -1")
        object.__setattr__(self, "returns", _readonly(r))

    def __len__(self) -> int:
        return self.returns.size

    def stats(self) -> "SummaryStats":
        return SummaryStats.of(self.returns)


@dataclass(frozen=True)
class SummaryStats:
    """Population mean, variance, and standard deviation of one series."""

    mean: float
    variance: float
    stdev: float

    @classmethod
    def of(cls, returns: np.ndarray) -> "SummaryStats":
        r = np.asarray(returns, dtype=float)
        mean = float(np.mean(r))
        variance = float(np.mean((r - mean) ** 2))
        return cls(mean=mean, variance=variance, stdev=math.sqrt(variance))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric unit-diagonal matrix of pairwise return correlations."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InputShapeError(f"correlation matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("correlation matrix entries must be finite")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
            raise InputShapeError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(a), 1.0, rtol=0.0, atol=1e-12):
            raise DomainError("correlation matrix must have a unit diagonal")
        if np.max(np.abs(a)) > 1.0 + 1e-12:
            raise DomainError("correlation entries must lie in [-1, 1]")
        a = np.clip(0.5 * (a + a.T), -1.0, 1.0)
        np.fill_diagonal(a, 1.0)
        object.__setattr__(self, "values", _readonly(a))

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class InverseCorrelationMatrix:
    """Inverse of a CorrelationMatrix together with its conditioning estimate.

    Construction verifies that ``source @ values`` reproduces the identity to
    within ``INVERSE_RESIDUAL_TOL`` per entry.
    """

    values: np.ndarray
    source: CorrelationMatrix
    reciprocal_condition: float

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.shape != self.source.values.shape:
            raise InputShapeError("inverse and source dimensions differ")
        residual = np.max(np.abs(self.source.values @ a - np.eye(a.shape[0])))
        if residual > INVERSE_RESIDUAL_TOL:
            raise NearSingularError(
                f"inverse residual {residual:.3e} exceeds {INVERSE_RESIDUAL_TOL:.0e}; "
                "matrix is effectively singular"
            )
        object.__setattr__(self, "values", _readonly(a))

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def pearson(x, y) -> float:
    """Pearson correlation of two equal-length return series.

    Returns 0.0 when either series has zero variance (risk-free convention).

    Parameters
    ----------
    x, y : ReturnSeries or 1-D array-like

    Raises InputShapeError on length mismatch or fewer than 2 periods.
    """
    a = _series_values(x)
    b = _series_values(y)
    if a.size != b.size:
        raise InputShapeError(f"length mismatch: {a.size} vs {b.size}")
    # a constant series has zero variance even when rounding in the mean
    # leaves the centered values slightly nonzero
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    da = a - a.mean()
    db = b - b.mean()
    var_a = float(np.mean(da * da))
    var_b = float(np.mean(db * db))
    if var_a == 0.0 or var_b == 0.0:
        return 0.0
    cov = float(np.mean(da * db))
    return float(np.clip(cov / math.sqrt(var_a * var_b), -1.0, 1.0))


def correlation_values(returns: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations of the columns of a (T, M) return matrix.

    Array-in/array-out core shared by :func:`estimate_matrix` and the sliding
    window pipeline. Zero-variance columns get correlation 0 off the diagonal.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 1:
        raise InputShapeError(f"need a (T>=2, M>=1) return matrix, got shape {r.shape}")
    z = r - r.mean(axis=0)
    sd = np.sqrt(np.mean(z * z, axis=0))
    riskfree = (np.ptp(r, axis=0) == 0.0) | (sd == 0.0)
    denom = np.where(riskfree, 1.0, sd)
    corr = (z.T @ z) / r.shape[0] / np.outer(denom, denom)
    corr[riskfree, :] = 0.0
    corr[:, riskfree] = 0.0
    corr = np.clip(0.5 * (corr + corr.T), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def estimate_matrix(panel: Sequence) -> CorrelationMatrix:
    """Estimate the correlation matrix of a panel of return series.

    Entry (i, j) equals ``pearson(panel[i], panel[j])``. The panel must hold
    at least two series of one common length.
    """
    if len(panel) < 2:
        raise InputShapeError(f"need at least 2 series, got {len(panel)}")
    columns = [_series_values(s) for s in panel]
    lengths = {c.size for c in columns}
    if len(lengths) != 1:
        raise InputShapeError(f"ragged panel: lengths {sorted(lengths)}")
    return CorrelationMatrix(correlation_values(np.column_stack(columns)))


class InverseStack(NamedTuple):
    """Inverses of a (k, n, n) stack with their per-matrix diagnostics.

    ``values`` holds NaN for every refused matrix; ``usable`` marks the
    matrices whose inverse passed both the condition and the residual check.
    """

    values: np.ndarray
    rcond: np.ndarray
    residual: np.ndarray
    usable: np.ndarray


def inverse_stack(a: np.ndarray) -> InverseStack:
    """Invert every symmetric matrix of a (k, n, n) stack in one pass.

    The reciprocal condition is the 2-norm value |eig|min / |eig|max; a
    matrix below RCOND_FLOOR is refused and replaced by the identity before
    the batched inverse, so it cannot abort the rest of the stack. Indefinite
    matrices invert like any other (LU with partial pivoting). Each inverse
    is symmetrized and refused when max|C @ inv - I| exceeds
    INVERSE_RESIDUAL_TOL.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise InputShapeError(f"need a (k, n, n) stack of square matrices, got shape {a.shape}")
    eye = np.eye(a.shape[1])
    eigs = np.abs(np.linalg.eigvalsh(a))
    largest = eigs.max(axis=1)
    # an all-zero matrix has condition 0 rather than 0/0
    rcond = eigs.min(axis=1) / np.where(largest == 0.0, np.inf, largest)
    conditioned = rcond >= RCOND_FLOOR
    inv = np.linalg.inv(np.where(conditioned[:, None, None], a, eye))
    inv = 0.5 * (inv + np.swapaxes(inv, 1, 2))
    residual = np.max(np.abs(a @ inv - eye), axis=(1, 2))
    usable = conditioned & (residual <= INVERSE_RESIDUAL_TOL)
    inv[~usable] = np.nan
    return InverseStack(values=inv, rcond=rcond, residual=residual, usable=usable)


def symmetric_inverse(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert one symmetric matrix; return (inverse, reciprocal condition).

    The one-matrix case of :func:`inverse_stack`. Raises NearSingularError
    when the reciprocal condition number falls below RCOND_FLOOR or the
    inverse fails the residual check.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputShapeError(f"matrix must be square, got shape {a.shape}")
    out = inverse_stack(a[None])
    rcond = float(out.rcond[0])
    if not rcond >= RCOND_FLOOR:
        raise NearSingularError(
            f"reciprocal condition {rcond:.3e} below {RCOND_FLOOR:.0e} "
            "(redundant or duplicated assets?)"
        )
    if not out.usable[0]:
        raise NearSingularError(
            f"inverse residual {out.residual[0]:.3e} exceeds {INVERSE_RESIDUAL_TOL:.0e}"
        )
    return out.values[0], rcond


def invert(corr: CorrelationMatrix) -> InverseCorrelationMatrix:
    """Invert a correlation matrix, recording its reciprocal condition."""
    inv, rcond = symmetric_inverse(corr.values)
    return InverseCorrelationMatrix(values=inv, source=corr, reciprocal_condition=rcond)


def uniform_matrix(m: int, c: float) -> CorrelationMatrix:
    """M x M matrix with unit diagonal and constant off-diagonal correlation c."""
    if m < 1:
        raise DomainError(f"asset count must be >= 1, got {m}")
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"uniform correlation must lie in [0, 1], got {c}")
    a = np.full((m, m), float(c))
    np.fill_diagonal(a, 1.0)
    return CorrelationMatrix(a)


def uniform_inverse_closed_form(m: int, c: float) -> InverseCorrelationMatrix:
    """Closed-form inverse of the uniform-correlation matrix.

    Diagonal entries are (1+(M-2)C)/((1-C)(1+(M-1)C)) and off-diagonal ones
    -C/((1-C)(1+(M-1)C)).
    """
    if m < 1:
        raise DomainError(f"asset count must be >= 1, got {m}")
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"uniform correlation must lie in [0, 1], got {c}")
    if m == 1:
        # a 1x1 matrix is [[1]] for any c; the general formula divides by 1-c
        return InverseCorrelationMatrix(
            values=np.ones((1, 1)), source=uniform_matrix(1, c), reciprocal_condition=1.0
        )
    if c == 1.0:
        raise NearSingularError("uniform correlation 1 makes the matrix singular")
    denom = (1.0 - c) * (1.0 + (m - 1) * c)
    off = -c / denom
    diag = (1.0 + (m - 2) * c) / denom
    a = np.full((m, m), off)
    np.fill_diagonal(a, diag)
    # eigenvalues of the source are 1-c (m-1 times) and 1+(m-1)c (once)
    rcond = min(1.0 - c, 1.0 + (m - 1) * c) / max(1.0 - c, 1.0 + (m - 1) * c)
    return InverseCorrelationMatrix(
        values=a, source=uniform_matrix(m, c), reciprocal_condition=float(rcond)
    )


def block_diagonal(blocks: Sequence[CorrelationMatrix]) -> CorrelationMatrix:
    """Assemble correlation blocks along the diagonal, zeros elsewhere."""
    if len(blocks) < 1:
        raise InputShapeError("need at least one block")
    out = np.zeros((sum(b.dim for b in blocks),) * 2)
    start = 0
    for b in blocks:
        out[start : start + b.dim, start : start + b.dim] = b.values
        start += b.dim
    return CorrelationMatrix(out)
