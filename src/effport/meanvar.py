"""Mean-variance portfolio algebra for the identical-asset setting.

Weights here may be negative: the unconstrained variance minimizer can short
when correlations are heterogeneous. The growth-optimal module enforces the
no-short convention separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrmat import CorrelationMatrix, InverseCorrelationMatrix
from .errors import DomainError, InputShapeError, check_int


@dataclass(frozen=True, eq=False)
class PortfolioWeights:
    """Fraction-of-wealth vector over M assets.

    ``clipped`` marks weights whose negative components were zeroed to honor
    the no-short convention.
    """

    fractions: np.ndarray
    clipped: bool = False

    def __post_init__(self):
        f = np.asarray(self.fractions, dtype=float)
        if f.ndim != 1 or f.size < 1:
            raise InputShapeError(f"weights must be a nonempty 1-D vector, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise DomainError("weights must be finite")
        f = np.array(f)
        f.flags.writeable = False
        object.__setattr__(self, "fractions", f)


@dataclass(frozen=True)
class IdenticalAssetParams:
    """Common per-period mean and standard deviation shared by all M assets."""

    mu: float
    sigma: float
    m: int

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        check_int(self.m, "asset count")
        if self.m < 1:
            raise DomainError(f"asset count must be >= 1, got {self.m}")


def portfolio_moments(weights, mu, sigma, corr: CorrelationMatrix) -> tuple[float, float]:
    """Expected return and variance of a weighted portfolio.

    R_P = sum_i f_i mu_i and V_P = sum_ij f_i f_j C_ij sigma_i sigma_j.
    """
    f = np.asarray(getattr(weights, "fractions", weights), dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    c = corr.values if isinstance(corr, CorrelationMatrix) else np.asarray(corr, dtype=float)
    m = c.shape[0]
    if f.shape != (m,) or mu.shape != (m,) or sigma.shape != (m,):
        raise InputShapeError(
            f"inconsistent dimensions: weights {f.shape}, mu {mu.shape}, "
            f"sigma {sigma.shape}, corr {c.shape}"
        )
    exposure = f * sigma
    r_p = float(f @ mu)
    v_p = float(exposure @ c @ exposure)
    return r_p, v_p


def _inverse_entry_sum(params: IdenticalAssetParams, cinv: InverseCorrelationMatrix) -> float:
    if params.mu == 0.0:
        raise DomainError("mean return must be nonzero to target a nonzero portfolio return")
    if cinv.dim != params.m:
        raise InputShapeError(f"params are for {params.m} assets but matrix has {cinv.dim}")
    s = float(np.sum(cinv.values))
    if s <= 0.0:
        raise DomainError(f"entry sum of the inverse must be positive, got {s:.6g}")
    return s


def minimal_variance_identical(
    target_return: float, params: IdenticalAssetParams, cinv: InverseCorrelationMatrix
) -> float:
    """Minimal portfolio variance at a fixed expected return, identical assets.

    V* = sigma^2 R_P^2 / (mu^2 * S) with S the entry sum of the inverse
    correlation matrix. Increasing in |R_P| and quadratic in it.
    """
    s = _inverse_entry_sum(params, cinv)
    return (params.sigma**2 * target_return**2) / (params.mu**2 * s)


def mv_optimal_weights(
    target_return: float, params: IdenticalAssetParams, cinv: InverseCorrelationMatrix
) -> PortfolioWeights:
    """Weights attaining the minimal variance: f = (R_P / (mu S)) C^{-1} 1."""
    s = _inverse_entry_sum(params, cinv)
    row_sums = cinv.values @ np.ones(cinv.dim)
    return PortfolioWeights(target_return / (params.mu * s) * row_sums)
