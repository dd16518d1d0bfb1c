"""From-scratch statistical machinery of the analysis core."""

from .effect import cl_effect_size, cl_from_u
from .mwu import MWUResult, mann_whitney_u
from .ranks import rankdata, tie_groups
from .summary import geomean, median, speedup_ratio
from .tdist import betainc_regularized, t_cdf, t_tail

__all__ = [
    "cl_effect_size",
    "cl_from_u",
    "MWUResult",
    "mann_whitney_u",
    "rankdata",
    "tie_groups",
    "geomean",
    "median",
    "speedup_ratio",
    "betainc_regularized",
    "t_cdf",
    "t_tail",
]
