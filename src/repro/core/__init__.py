"""Analysis core: the paper's rank-based specialisation methodology.

This package is the primary contribution of the paper being
reproduced: a magnitude-agnostic statistical procedure (Algorithm 1)
that turns a performance dataset into optimisation strategies at every
degree of specialisation over {chip, application, input}, plus the
naive analyses it improves upon and the portability quantifications
built on top.
"""

from .ablation import (
    ConfidencePoint,
    MagnitudeComparison,
    confidence_ablation,
    magnitude_decide,
    magnitude_vs_rank,
)
from .algorithm1 import Analysis, OptDecision, SPECIALISATION_DIMS
from .sampling import (
    AgreementPoint,
    decision_agreement,
    restrict_dataset,
    sample_efficiency_curve,
    subsample_configs,
)
from .evaluation import (
    StrategyOutcomes,
    evaluate_strategies,
    optimisable_tests,
    strategy_outcomes,
    strategy_slowdown_vs_oracle,
)
from .naive import (
    ConfigRanking,
    do_no_harm,
    fewest_slowdowns,
    max_geomean,
    per_chip_breakdown,
    rank_configurations,
)
from .portfolio import (
    DEFAULT_TARGET,
    PORTFOLIO_LEVELS,
    PortfolioCurve,
    PortfolioSet,
    PortfolioStep,
    build_portfolios,
    greedy_portfolio,
    portfolio_coverage,
)
from .search import (
    SEARCH_STRATEGIES,
    LocalSearch,
    Observation,
    Proposal,
    RandomSearch,
    SearchStrategy,
    SuccessiveHalving,
    lattice_neighbours,
    make_strategy,
)
from .search_eval import (
    DEFAULT_BUDGETS,
    ReplayResult,
    budget_fractions,
    oracle_best,
    partition_fractions,
    replay_fractions,
    replay_search,
)
from .portability import (
    EnvelopeEntry,
    cross_chip_heatmap,
    max_geomean_speedup,
    performance_envelope,
    top_speedup_opts,
)
from .significance import classify_outcome, significant_difference, welch_tail
from .stats import (
    MWUResult,
    cl_effect_size,
    cl_from_u,
    geomean,
    mann_whitney_u,
    median,
    rankdata,
    speedup_ratio,
    t_cdf,
    t_tail,
)
from .strategies import (
    STRATEGY_DIMS,
    STRATEGY_ORDER,
    Strategy,
    build_strategies,
    load_strategies,
    oracle_assignment,
    save_strategies,
)

__all__ = [
    "Analysis",
    "OptDecision",
    "SPECIALISATION_DIMS",
    "ConfidencePoint",
    "MagnitudeComparison",
    "confidence_ablation",
    "magnitude_decide",
    "magnitude_vs_rank",
    "AgreementPoint",
    "decision_agreement",
    "restrict_dataset",
    "sample_efficiency_curve",
    "subsample_configs",
    "StrategyOutcomes",
    "evaluate_strategies",
    "optimisable_tests",
    "strategy_outcomes",
    "strategy_slowdown_vs_oracle",
    "ConfigRanking",
    "do_no_harm",
    "fewest_slowdowns",
    "max_geomean",
    "per_chip_breakdown",
    "rank_configurations",
    "DEFAULT_TARGET",
    "PORTFOLIO_LEVELS",
    "PortfolioCurve",
    "PortfolioSet",
    "PortfolioStep",
    "build_portfolios",
    "greedy_portfolio",
    "portfolio_coverage",
    "SEARCH_STRATEGIES",
    "LocalSearch",
    "Observation",
    "Proposal",
    "RandomSearch",
    "SearchStrategy",
    "SuccessiveHalving",
    "lattice_neighbours",
    "make_strategy",
    "DEFAULT_BUDGETS",
    "ReplayResult",
    "budget_fractions",
    "oracle_best",
    "partition_fractions",
    "replay_fractions",
    "replay_search",
    "EnvelopeEntry",
    "cross_chip_heatmap",
    "max_geomean_speedup",
    "performance_envelope",
    "top_speedup_opts",
    "classify_outcome",
    "significant_difference",
    "welch_tail",
    "MWUResult",
    "cl_effect_size",
    "cl_from_u",
    "geomean",
    "mann_whitney_u",
    "median",
    "rankdata",
    "speedup_ratio",
    "t_cdf",
    "t_tail",
    "Strategy",
    "STRATEGY_ORDER",
    "STRATEGY_DIMS",
    "build_strategies",
    "oracle_assignment",
    "save_strategies",
    "load_strategies",
]
