"""a-numbers of Artin-Schreier covers of the projective line.

Exact arithmetic over prime fields for covers y^p - y = f branched only at
infinity: the combinatorial lower bound on the a-number, two independent
a-number computations, explicit minimal families for p = 3 and p = 5, and
reproducible randomized surveys.
"""

from .anumber import (
    ANumberReport,
    CoverDifferential,
    InvariantViolation,
    KernelTuple,
    a_number_fast,
    a_number_oracle,
    cartier_matrix,
    is_regular,
    obstruction_matrix,
    obstruction_vector,
    p_rank,
    reconstruct,
    report,
)
from .bounds import (
    RamificationData,
    block_count,
    level_sum,
    lower_bound,
    lower_bound_p3,
    lower_bound_p5_5n1,
    lower_bound_single,
    threshold,
)
from .curve import BasicCurve, domain_basis, level_exponents
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
    family_p3,
    family_p5_binomial,
    family_p5_mod5,
    family_p5_trinomial25,
    minimal_family,
    verify_family,
)
from .fppoly import (
    FpPoly,
    PolyParseError,
    SplitCoverError,
    cartier,
    normalize_artin_schreier,
    parse_poly,
    section_after_cartier,
)
from .linalg import FpMatrix, kernel_basis, rank_nullity
from .numutil import HeadroomError

__version__ = "0.1.0"

__all__ = [
    "ANumberReport",
    "BasicCurve",
    "CoverDifferential",
    "Distribution",
    "FamilyCheck",
    "FpMatrix",
    "FpPoly",
    "HeadroomError",
    "InvariantViolation",
    "KernelTuple",
    "PolyParseError",
    "RamificationData",
    "SearchResult",
    "SearchSpaceError",
    "SplitCoverError",
    "a_number_fast",
    "a_number_oracle",
    "block_count",
    "cartier",
    "cartier_matrix",
    "distribution",
    "domain_basis",
    "family_p3",
    "family_p5_binomial",
    "family_p5_mod5",
    "family_p5_trinomial25",
    "is_regular",
    "kernel_basis",
    "level_exponents",
    "level_sum",
    "lower_bound",
    "lower_bound_p3",
    "lower_bound_p5_5n1",
    "lower_bound_single",
    "min_a_exhaustive",
    "min_a_random",
    "minimal_family",
    "normalize_artin_schreier",
    "obstruction_matrix",
    "obstruction_vector",
    "p_rank",
    "parse_poly",
    "rank_nullity",
    "reconstruct",
    "report",
    "sample_poly",
    "sample_space_size",
    "section_after_cartier",
    "threshold",
    "verify_family",
]
