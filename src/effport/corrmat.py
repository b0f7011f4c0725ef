"""Correlation matrices: construction, estimation from returns, and solves.

All averages use the population (divide-by-T) convention. The normalization
cancels inside the correlation quotient for equal-length series, so the choice
only matters for reported variances; fixing it keeps results bit-reproducible.

A return column none of whose entries differs from the first (or whose squared
deviations from its mean sum to zero) is treated as risk-free and gets
correlation 0 with everything instead of raising.

The effective size 1'C^-1 1 is solved for whole stacks of matrices at once
(:func:`solve_ones_stack`) from one batched Cholesky factor C = L L' as
||L^-1 1||^2; no inverse is formed. Indefinite input has no factor and is
refused on every path. A matrix is also refused when the residual of
C x = 1 exceeds INVERSE_RESIDUAL_TOL, or when its reciprocal condition,
estimated in the 2-norm by power and inverse iteration, is below
RCOND_FLOOR; that estimate is never below the true value and was within a
factor 3.4 of it on every matrix measured (see README, "Conventions").
:func:`solve_ones` is the one-matrix case, and :func:`symmetric_inverse`
builds a full inverse from its factor.
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

#: Max-norm tolerance on the residual C x - 1 of the solve against ones.
INVERSE_RESIDUAL_TOL = 1e-8

#: Power steps behind the largest-eigenvalue estimate of the condition check.
POWER_STEPS = 4


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


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


def correlation_values(returns: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations of the columns of a (T, M) return matrix.

    The one-window case of :func:`_correlations`, as used by every
    price-panel command. A risk-free column gets 0 off the diagonal.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 1:
        raise InputShapeError(f"need a (T>=2, M>=1) return matrix, got shape {r.shape}")
    return _correlations([r], np.empty((1, r.shape[1], r.shape[1])))[0]


def _correlations(windows: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Correlations of k (rows, M) return windows of one length, in place of
    the (k, M, M) buffer ``out``.

    Each window's cross-product and column sums are taken alone about its own
    column means and turned into correlations by the corrected two-pass
    formula (Chan, Golub & LeVeque 1983), so no result depends on k. A column
    none of whose returns differs from the window's first, or with no positive
    variance, is risk-free: correlation 0. The upper triangle mirrors the
    lower one, so each matrix is exactly symmetric.
    """
    sums = np.empty(out.shape[:2])
    varying = np.empty(out.shape[:2], dtype=bool)
    for window, cross, total, varies in zip(windows, out, sums, varying):
        centred = window - window.mean(axis=0)
        np.matmul(centred.T, centred, out=cross)
        centred.sum(axis=0, out=total)
        (window != window[0]).any(axis=0, out=varies)
    # outer products by einsum: broadcasting (k, M, 1) against (k, 1, M) took
    # 2.5 times as long at k = 81, M = 40
    scaled = sums / math.sqrt(len(windows[0]))
    outer = np.einsum("ki,kj->kij", scaled, scaled)
    out -= outer
    centred_squares = out.diagonal(axis1=1, axis2=2)
    live = varying & (centred_squares > 0.0)
    scale = 1.0 / np.sqrt(np.where(live, centred_squares, np.inf))
    out *= np.einsum("ki,kj->kij", scale, scale, out=outer)
    del outer
    upper = np.triu_indices(out.shape[1], 1)
    out[:, upper[0], upper[1]] = out[:, upper[1], upper[0]]
    np.clip(out, -1.0, 1.0, out=out)
    diagonal = np.arange(out.shape[1])
    out[:, diagonal, diagonal] = 1.0
    return out


class OnesSolution(NamedTuple):
    """Outcome of solving C x = 1 for a (k, n, n) stack, per matrix.

    ``m_ef`` (1'C^-1 1) is NaN where ``usable`` is False. ``factor`` holds the
    lower Cholesky factors, the identity where the factorisation failed;
    there ``rcond`` is 0 and ``residual`` NaN.
    """

    m_ef: np.ndarray
    factor: np.ndarray
    rcond: np.ndarray
    residual: np.ndarray
    usable: np.ndarray


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack and the mask of members that have one.

    A member with a non-finite entry has none. ``np.linalg.cholesky`` raises
    for the whole stack on one failure; only then, or when a member is not
    finite, is each member factored alone into one preallocated stack that
    starts as identities, so a failed member keeps the identity.
    """
    factored = np.isfinite(a.min(axis=(1, 2))) & np.isfinite(a.max(axis=(1, 2)))
    if factored.all():
        try:
            return np.linalg.cholesky(a), factored
        except np.linalg.LinAlgError:
            pass
    factor = np.tile(np.eye(a.shape[1]), (len(a), 1, 1))
    for i in np.flatnonzero(factored):
        try:
            factor[i] = np.linalg.cholesky(a[i])
        except np.linalg.LinAlgError:
            factored[i] = False
    return factor, factored


def _forward(factor: np.ndarray) -> np.ndarray:
    """Solve L y = b by rows for every factor L of a (k, n, n) stack.

    Returns (k, 2, n): y for b the ones vector, and for the start of the
    LINPACK condition estimator (Higham, ch. 15), whose +-1 entries are
    chosen row by row to make |y| grow. The loop runs over the n rows, each
    step vectorised over the stack.
    """
    y = np.empty(factor.shape[:1] + (2,) + factor.shape[-1:])
    s, b = np.empty((2, len(factor), 2, 1))
    neg_diagonal = -factor.diagonal(axis1=1, axis2=2)[:, None]
    for j in range(factor.shape[-1]):
        # y_j = (b_j - s) / L_jj, computed with no temporaries as (s - b_j) / -L_jj
        np.matmul(y[:, :, :j], factor[:, j, :j, None], out=s)
        np.copysign(1.0, s, out=b)
        b[:, 0] = -1.0
        b += s
        np.divide(b[..., 0], neg_diagonal[..., j], out=y[:, :, j])
    return y


def _backward(factor: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve L' x = y by columns for every factor L of a stack; y is (k, 2, n)."""
    # rows first and the stack last, so that each step indexes leading axes only
    lt, x = factor.transpose(1, 2, 0), y.transpose(2, 1, 0).copy()
    for j in range(factor.shape[-1] - 1, -1, -1):
        x[j] /= lt[j, j]
        x[:j] -= lt[j, :j, None] * x[j]
    return np.ascontiguousarray(x.transpose(2, 1, 0))


def _largest_eigenvalue(factor: np.ndarray) -> np.ndarray:
    """Rayleigh quotient of L L' after POWER_STEPS power steps from the ones
    vector, and at least the largest diagonal entry."""
    v = np.ones(factor.shape[:-1])
    for _ in range(POWER_STEPS):
        v = (factor @ (v[:, None, :] @ factor).swapaxes(1, 2))[..., 0]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = (v[:, None, :] @ factor)[:, 0]
    diagonal = np.einsum("kij,kij->ki", factor, factor).max(axis=1)
    return np.maximum((w * w).sum(axis=1), diagonal)


def solve_ones_stack(a: np.ndarray) -> OnesSolution:
    """Solve C x = 1 for every symmetric matrix of a (k, n, n) stack at once.

    One batched Cholesky factorisation C = L L' gives y = L^-1 1, the entry
    sum of the inverse m_ef = y.y, and x = L'^-1 y. A matrix is refused when
    it has no factor (it is not positive definite), when its estimated
    reciprocal condition is below RCOND_FLOOR, or when max|C x - 1| exceeds
    INVERSE_RESIDUAL_TOL.

    The estimate is lambda_min / lambda_max. lambda_max comes from
    :func:`_largest_eigenvalue`, 1 / lambda_min from one step of inverse
    iteration: the solves that give x also run on the LINPACK start of
    :func:`_forward`. Neither eigenvalue estimate can pass the true value,
    so the rcond estimate is never below it. No (k, n, n) array besides the
    input and its factor is formed.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise InputShapeError(f"need a (k, n, n) stack of square matrices, got shape {a.shape}")
    factor, factored = _cholesky(a)
    y = _forward(factor)
    x = _backward(factor, y)
    residual = np.abs(a @ x[:, 0, :, None] - 1.0).max(axis=(1, 2))
    residual[~factored] = np.nan
    # |C^-1 u|^2 / u'C^-1 u, for u the ones vector and the LINPACK start,
    # is a weighted mean of the 1 / lambda_i and so at most 1 / lambda_min
    inverse_norm = ((x * x).sum(axis=2) / (y * y).sum(axis=2)).max(axis=1)
    rcond = np.where(factored, 1.0 / (inverse_norm * _largest_eigenvalue(factor)), 0.0)
    usable = (rcond >= RCOND_FLOOR) & (residual <= INVERSE_RESIDUAL_TOL)
    m_ef = np.where(usable, (y[:, 0] ** 2).sum(axis=1), np.nan)
    return OnesSolution(m_ef=m_ef, factor=factor, rcond=rcond, residual=residual, usable=usable)


def solve_ones(a: np.ndarray) -> OnesSolution:
    """:func:`solve_ones_stack` for one matrix, returned as a stack of one.

    Raises DomainError for a non-finite entry and NearSingularError naming
    the cause of any other refusal; a matrix that is not positive definite is
    named by its extreme eigenvalues.
    """
    a = np.asarray(a, dtype=float)
    out = solve_ones_stack(a[None])
    if np.isnan(out.residual[0]):
        if not np.isfinite(a).all():
            raise DomainError("matrix entries must be finite")
        eigs = np.linalg.eigvalsh(a)
        raise NearSingularError(
            f"matrix is not positive definite: lambda_min = {eigs[0]:.6g} (largest "
            f"{eigs[-1]:.6g}); duplicated assets, or no correlation matrix of real returns"
        )
    if not out.usable[0]:
        raise NearSingularError(
            f"reciprocal condition {out.rcond[0]:.3e} (floor {RCOND_FLOOR:.0e}), residual "
            f"max|Cx - 1| = {out.residual[0]:.3e} (tolerance {INVERSE_RESIDUAL_TOL:.0e}); "
            "redundant or duplicated assets?"
        )
    return out


def symmetric_inverse(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert one symmetric positive definite matrix; return (inverse, rcond).

    Refuses the matrix as :func:`solve_ones` does, then builds the inverse
    (L^-1)' L^-1 from its Cholesky factor.
    """
    out = solve_ones(a)
    linv = np.linalg.inv(out.factor[0])
    return linv.T @ linv, float(out.rcond[0])


def invert(corr: CorrelationMatrix) -> InverseCorrelationMatrix:
    """Invert a correlation matrix, recording its reciprocal condition."""
    inv, rcond = symmetric_inverse(corr.values)
    return InverseCorrelationMatrix(values=inv, source=corr, reciprocal_condition=rcond)


def uniform_matrix(m: int, c: float) -> CorrelationMatrix:
    """M x M matrix with unit diagonal and constant off-diagonal correlation c."""
    from .binmodel import _check_uniform

    _check_uniform(m, c)
    a = np.full((m, m), float(c))
    np.fill_diagonal(a, 1.0)
    return CorrelationMatrix(a)


def uniform_inverse_closed_form(m: int, c: float) -> InverseCorrelationMatrix:
    """Closed-form inverse of the uniform-correlation matrix.

    Diagonal entries are (1+(M-2)C)/((1-C)(1+(M-1)C)) and off-diagonal ones
    -C/((1-C)(1+(M-1)C)).
    """
    from .binmodel import _check_uniform

    _check_uniform(m, c)
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
