"""effport: effective portfolio size under asset correlations.

Quantifies how much correlations shrink real diversification: a portfolio of
M correlated assets behaves, for both minimum-variance and growth-optimal
investing, like a smaller portfolio of m_ef uncorrelated ones.
"""

from .binmodel import (
    ENUMERATION_LIMIT,
    BinaryModelParams,
    JointBinaryDistribution,
    WinCountLaw,
    build_joint,
    sample,
    win_count_law,
)
from .corrmat import (
    CorrelationMatrix,
    InverseCorrelationMatrix,
    ReturnSeries,
    SummaryStats,
    block_diagonal,
    estimate_matrix,
    invert,
    pearson,
    solve_ones,
    solve_ones_stack,
    symmetric_inverse,
    uniform_inverse_closed_form,
    uniform_matrix,
)
from .effsize import (
    EffSizeReport,
    ReducedSectorMatrix,
    SectorPartition,
    average_correlation,
    effsize_report,
    inverse_participation_ratio,
    m_ef_even,
    m_ef_exact,
    m_ef_sector,
    m_ef_uniform,
    m_ef_variance_ratio,
    reduce_to_sectors,
)
from .errors import (
    BankruptcyError,
    DataError,
    DomainError,
    EffportError,
    EnumerationLimitError,
    ExtrapolationError,
    InputShapeError,
    NearSingularError,
    ParseError,
)
from .kelly import (
    MAX_SYMMETRIC_ASSETS,
    GrowthResult,
    MisestimationResult,
    growth_rate,
    kelly_first_order,
    kelly_fraction_binary,
    m_ef_kelly_numeric,
    maximize_growth_symmetric,
    misestimation_experiment,
)
from .marketdata import (
    PricePanel,
    SubsetCurveSpec,
    WindowSpec,
    compute_returns,
    load_prices,
    load_sectors,
    panel_from_returns,
    sliding_window_effsize,
    subset_curve,
    write_prices_csv,
)
from .meanvar import (
    IdenticalAssetParams,
    PortfolioWeights,
    minimal_variance_identical,
    mv_optimal_weights,
    portfolio_moments,
)

__version__ = "0.1.0"
