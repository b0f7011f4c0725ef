import os
import sys
from pathlib import Path

import pytest

# Tier-1 runs OpenBLAS at the thread count of the process entry
# (effport.__main__), so that its in-process checks see the bytes the CLI
# prints. OpenBLAS reads the variable when numpy loads, so it is set before
# numpy is imported here; test_cli.py checks that nothing imported numpy first.
NUMPY_LOADED_BEFORE_CONFTEST = "numpy" in sys.modules
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

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
