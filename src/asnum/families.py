"""Explicit degree-d covers over F_3, F_5 and F_7 attaining the a-number lower bound.

``minimal_family(p, d)`` returns a polynomial f of degree d such that
y^p - y = f has the minimal a-number L(d).  Writing d = p^2 m + delta, almost
every member is the table row for delta: x^d plus one unit monomial
x^(slope m + shift) per (slope, shift) term.  A few degrees take a fixed
polynomial instead, most of them small degrees where a row exponent would
leave [1, d).  For p = 5 the degree 16 is fixed at x^16 + x^14 + x^9, the
member of an older trinomial family keyed on d mod 5 that it has always had.

The tables are literal data found by machine search, not re-derived from
formulas, and a claim covers only the degrees a sweep verified: every member
with d <= 500 for p = 3 and 5, and with d <= 1028 for p = 7 (the acceptance
sweeps).  For p = 7, where the paper leaves the question mostly open, its
patching reduction turns this into: for an ordinary X, the bound is realized
for every branch locus whose jumps are all verified degrees.

``verify_family`` builds and ranks the obstruction matrix of a member in
coordinate form.  A member has at most three terms, so the matrix is almost
empty (about 0.07 % nonzero at p = 5, d = 499) and peels to a tiny core.
"""

from dataclasses import dataclass

from .anumber import obstruction_coords
from .bounds import lower_bound_single
from .curve import BasicCurve
from .fppoly import FpPoly
from .linalg import coords_rank_nullity
from .numutil import check_degree

# p -> {delta: (strategy, ((slope, shift), ...))}: for d = p^2 m + delta the
# member is x^d + sum of x^(slope m + shift).  Every coprime residue has one
# row; p = 5 has binomials for 14 residues and mod-25 trinomials for the rest.
ROWS = {
    3: {
        1: ("p3", ((6, 2),)),
        2: ("p3", ((6, 1),)),
        4: ("p3", ((6, 2),)),
        5: ("p3", ((6, 4),)),
        7: ("p3", ((6, 5),)),
        8: ("p3", ((6, 4),)),
    },
    5: {
        1: ("p5_binomial", ((15, 3),)),
        2: ("p5_binomial", ((15, 1),)),
        3: ("p5_trinomial25", ((15, 4), (5, 1))),
        4: ("p5_binomial", ((15, 2),)),
        6: ("p5_binomial", ((15, 3),)),
        7: ("p5_trinomial25", ((15, 6), (5, 3))),
        8: ("p5_binomial", ((15, 4),)),
        9: ("p5_trinomial25", ((15, 7), (5, 3))),
        11: ("p5_binomial", ((15, 8),)),
        12: ("p5_binomial", ((15, 6),)),
        13: ("p5_binomial", ((15, 9),)),
        14: ("p5_binomial", ((15, 7),)),
        16: ("p5_trinomial25", ((15, 13), (5, 4))),
        17: ("p5_binomial", ((15, 11),)),
        18: ("p5_trinomial25", ((15, 14), (5, 6))),
        19: ("p5_binomial", ((15, 12),)),
        21: ("p5_binomial", ((15, 13),)),
        22: ("p5_trinomial25", ((15, 16), (5, 8))),
        23: ("p5_binomial", ((15, 14),)),
        24: ("p5_binomial", ((15, 12),)),
    },
    # binomials for 22 residues; trinomials with lower slopes (28, 7) for 13,
    # (35, 14) for 2, and x^(d-1) = x^(49 m + delta - 1) with slope 28 for 5
    7: {
        1: ("p7_binomial", ((28, 4),)),
        2: ("p7_binomial", ((28, 1),)),
        3: ("p7_trinomial49", ((49, 2), (28, 6))),
        4: ("p7_binomial", ((28, 2),)),
        5: ("p7_trinomial28", ((28, 6), (7, 3))),
        6: ("p7_binomial", ((28, 3),)),
        8: ("p7_binomial", ((28, 4),)),
        9: ("p7_trinomial28", ((28, 8), (7, 5))),
        10: ("p7_binomial", ((28, 5),)),
        11: ("p7_trinomial28", ((28, 9), (7, 3))),
        12: ("p7_binomial", ((28, 6),)),
        13: ("p7_trinomial35", ((35, 10), (14, 10))),
        15: ("p7_binomial", ((28, 11),)),
        16: ("p7_binomial", ((28, 8),)),
        17: ("p7_trinomial49", ((49, 16), (28, 13))),
        18: ("p7_trinomial28", ((28, 37), (7, 30))),
        19: ("p7_trinomial28", ((28, 13), (7, 3))),
        20: ("p7_binomial", ((28, 10),)),
        22: ("p7_trinomial28", ((28, 18), (7, 5))),
        23: ("p7_trinomial28", ((28, 15), (7, 5))),
        24: ("p7_binomial", ((28, 12),)),
        25: ("p7_binomial", ((28, 16),)),
        26: ("p7_trinomial35", ((35, 20), (14, 13))),
        27: ("p7_trinomial49", ((49, 26), (28, 18))),
        29: ("p7_binomial", ((28, 18),)),
        30: ("p7_trinomial28", ((28, 22), (7, 10))),
        31: ("p7_trinomial49", ((49, 30), (28, 20))),
        32: ("p7_trinomial28", ((28, 51), (7, 37))),
        33: ("p7_binomial", ((28, 20),)),
        34: ("p7_binomial", ((28, 17),)),
        36: ("p7_trinomial28", ((28, 25), (7, 6))),
        37: ("p7_binomial", ((28, 22),)),
        38: ("p7_trinomial28", ((28, 26), (7, 9))),
        39: ("p7_binomial", ((28, 23),)),
        40: ("p7_trinomial28", ((28, 27), (7, 8))),
        41: ("p7_binomial", ((28, 24),)),
        43: ("p7_binomial", ((28, 25),)),
        44: ("p7_trinomial28", ((28, 29), (7, 10))),
        45: ("p7_binomial", ((28, 26),)),
        46: ("p7_trinomial49", ((49, 45), (28, 27))),
        47: ("p7_binomial", ((28, 27),)),
        48: ("p7_binomial", ((28, 24),)),
    },
}

# p -> {d: (strategy, exponents of a unit-coefficient member)}: the degrees
# that take a fixed polynomial instead of their row
FIXED = {
    3: {1: ("small_d", (1,))},
    5: {
        1: ("small_d", (1,)),
        2: ("small_d", (2,)),
        3: ("small_d", (3, 2)),
        4: ("small_d", (4,)),
        16: ("p5_trinomial5", (16, 14, 9)),
    },
    7: {
        1: ("small_d", (1,)),
        3: ("small_d", (3,)),
        5: ("small_d", (5, 3)),
        18: ("small_d", (18, 13)),
        32: ("small_d", (32, 23, 9)),
    },
}


def _unit_poly(p: int, exponents) -> FpPoly:
    """The sum of x^e over the exponents; coinciding exponents add."""
    coeffs = [0] * (max(exponents) + 1)
    for e in exponents:
        coeffs[e] += 1
    return FpPoly(p, coeffs)


def _row(p: int, d: int, terms) -> FpPoly | None:
    """x^d + sum of x^(slope m + shift) for d = p^2 m + delta, or None when
    an exponent falls outside [1, d), where the row does not apply."""
    m = d // (p * p)
    lower = [slope * m + shift for slope, shift in terms]
    if not all(1 <= e < d for e in lower):
        return None
    return _unit_poly(p, [d, *lower])


def minimal_family(p: int, d: int) -> tuple[FpPoly, str]:
    """A degree-d polynomial attaining the bound, with the strategy that chose it.

    Strategies: the table rows "p3", "p5_binomial", "p5_trinomial25",
    "p7_binomial", "p7_trinomial28", "p7_trinomial35" and "p7_trinomial49"
    (named by the slope of their middle term); for the fixed members,
    "small_d" and, at p = 5, d = 16, "p5_trinomial5".  Raises ValueError for
    a prime without tables and for d not coprime to p.
    """
    if p not in ROWS:
        raise ValueError(
            f"no families available for p = {p}; only p in "
            f"{{{', '.join(map(str, sorted(ROWS)))}}}"
        )
    check_degree(p, d)
    fixed = FIXED[p].get(d)
    if fixed is not None:
        strategy, exponents = fixed
        return _unit_poly(p, exponents), strategy
    strategy, terms = ROWS[p][d % (p * p)]
    f = _row(p, d, terms)
    if f is None:
        raise ValueError(f"no table row applies to d = {d} for p = {p}")
    return f, strategy


@dataclass(frozen=True)
class FamilyCheck:
    """Outcome of verifying one family member against the lower bound."""

    p: int
    d: int
    strategy: str
    f: FpPoly
    a: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.a == self.bound


def verify_family(p: int, d: int) -> FamilyCheck:
    """Build the family member for (p, d) and compare its a-number to the bound.

    The a-number is the fast method's nullity of the obstruction matrix,
    built and ranked in coordinate form: a member has at most three terms,
    so its matrix is almost empty and peels to a tiny core.
    """
    f, strategy = minimal_family(p, d)
    curve = BasicCurve.from_poly(p, f)
    shape = (curve.dim_obstruction, curve.dim_domain)
    a = coords_rank_nullity(p, obstruction_coords(curve), shape)[1]
    return FamilyCheck(
        p=p, d=d, strategy=strategy, f=f, a=a, bound=lower_bound_single(p, d)
    )
