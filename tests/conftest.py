from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def make_random_correlation(rng, m, factors=None):
    """Well-conditioned random correlation matrix from a factor model."""
    factors = factors or max(2, m // 2)
    loadings = rng.normal(size=(m, factors))
    cov = loadings @ loadings.T + np.diag(rng.uniform(0.5, 1.5, size=m))
    scale = np.sqrt(np.diag(cov))
    corr = cov / np.outer(scale, scale)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def table_sum_support(dist):
    """(sums, probabilities) of the summed return 2k - M over k winning assets,
    regrouped from a full outcome table of ``build_joint``."""
    k = ((dist.outcomes + 1) // 2).sum(axis=1)
    probs = np.bincount(k, weights=dist.probabilities, minlength=dist.m + 1)
    return 2.0 * np.arange(dist.m + 1) - dist.m, probs


@pytest.fixture
def random_correlation():
    return make_random_correlation


@pytest.fixture
def sample_prices_path():
    return DATA_DIR / "synthetic_prices.csv"


@pytest.fixture
def sample_sectors_path():
    return DATA_DIR / "synthetic_sectors.csv"
