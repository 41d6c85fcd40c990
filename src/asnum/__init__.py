"""a-numbers of Artin-Schreier covers of the projective line.

Exact arithmetic over prime fields for covers y^p - y = f branched only at
infinity: the combinatorial lower bound on the a-number, two independent
a-number computations, explicit minimal families for p = 3, 5 and 7, and
reproducible randomized surveys.
"""

from .anumber import (
    ANumberReport,
    InvariantViolation,
    a_number_fast,
    a_number_oracle,
    cartier_matrix,
    obstruction_matrix,
    p_rank,
    report,
)
from .bounds import (
    RamificationData,
    level_sum,
    lower_bound,
    lower_bound_single,
)
from .curve import BasicCurve
from .experiments import (
    Distribution,
    SearchResult,
    SearchSpaceError,
    distribution,
    min_a_exhaustive,
    min_a_random,
    sample_poly,
    sample_space_size,
)
from .families import (
    FamilyCheck,
    minimal_family,
    verify_family,
)
from .fppoly import (
    FpPoly,
    PolyParseError,
    SplitCoverError,
    normalize_artin_schreier,
    parse_poly,
)
from .linalg import FpMatrix, rank_nullity
from .numutil import HeadroomError

__version__ = "0.1.0"

__all__ = [
    "ANumberReport",
    "BasicCurve",
    "Distribution",
    "FamilyCheck",
    "FpMatrix",
    "FpPoly",
    "HeadroomError",
    "InvariantViolation",
    "PolyParseError",
    "RamificationData",
    "SearchResult",
    "SearchSpaceError",
    "SplitCoverError",
    "a_number_fast",
    "a_number_oracle",
    "cartier_matrix",
    "distribution",
    "level_sum",
    "lower_bound",
    "lower_bound_single",
    "min_a_exhaustive",
    "min_a_random",
    "minimal_family",
    "normalize_artin_schreier",
    "obstruction_matrix",
    "p_rank",
    "parse_poly",
    "rank_nullity",
    "report",
    "sample_poly",
    "sample_space_size",
    "verify_family",
]
