"""effport: effective portfolio size under asset correlations.

Quantifies how much correlations shrink real diversification: a portfolio of
M correlated assets behaves, for both minimum-variance and growth-optimal
investing, like a smaller portfolio of m_ef uncorrelated ones.

The public names below resolve on first use (PEP 562), each by importing only
the module that defines it, so ``import effport`` loads no submodule and each
command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, by the module that defines it.
_EXPORTS = {
    "binmodel": (
        "ENUMERATION_LIMIT", "BinaryModelParams", "JointBinaryDistribution", "WinCountLaw",
        "build_joint", "m_ef_uniform", "sample", "win_count_law",
    ),
    "corrmat": (
        "CorrelationMatrix", "InverseCorrelationMatrix", "ReturnSeries", "SummaryStats",
        "block_diagonal", "estimate_matrix", "invert", "pearson", "solve_ones",
        "solve_ones_stack", "symmetric_inverse", "uniform_inverse_closed_form", "uniform_matrix",
    ),
    "effsize": (
        "EffSizeReport", "ReducedSectorMatrix", "SectorPartition", "average_correlation",
        "effsize_report", "inverse_participation_ratio", "m_ef_even", "m_ef_exact",
        "m_ef_sector", "m_ef_variance_ratio", "reduce_to_sectors",
    ),
    "errors": (
        "BankruptcyError", "DataError", "DomainError", "EffportError", "EnumerationLimitError",
        "ExtrapolationError", "InputShapeError", "NearSingularError", "ParseError",
    ),
    "kelly": (
        "MAX_SYMMETRIC_ASSETS", "GrowthResult", "MisestimationResult", "growth_rate",
        "kelly_first_order", "kelly_fraction_binary", "m_ef_kelly_numeric",
        "maximize_growth_symmetric", "misestimation_experiment",
    ),
    "marketdata": (
        "PricePanel", "SubsetCurveSpec", "WindowSpec", "compute_returns", "load_prices",
        "load_sectors", "panel_from_returns", "sliding_window_effsize", "subset_curve",
        "write_prices_csv",
    ),
    "meanvar": (
        "IdenticalAssetParams", "PortfolioWeights", "minimal_variance_identical",
        "mv_optimal_weights", "portfolio_moments",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

#: Submodules that an attribute lookup imports; ``cli`` is not re-exported.
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
