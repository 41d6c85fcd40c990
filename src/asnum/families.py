"""Explicit degree-d covers over F_3, F_5 and F_7 attaining the a-number lower bound.

``minimal_family(p, d)`` returns a polynomial f of degree d such that
y^p - y = f has the minimal a-number L(d).  Writing d = p^2 m + delta, almost
every member is the row for delta: x^d plus one unit monomial
x^(slope m + shift) per (slope, shift) term.  A residue with a trinomial row
in the table takes it; every other coprime residue takes the binomial rule
x^d + x^e with e = (d + p m')/2, where m' is whichever of m and m + 1 has the
parity of d.  As a row, the rule is the one term (p(p+1)/2, delta/2) for even
delta and (p(p+1)/2, (delta + p)/2) for odd delta.  A few degrees take a
fixed polynomial instead, most of them small degrees where a row exponent
would leave [1, d).  For p = 5 the degree 16 is fixed at x^16 + x^14 + x^9,
the member of an older trinomial family keyed on d mod 5 that it has always
had.

The trinomial rows are literal data found by machine search, and the tests
check the rule against a fresh search over unit binomials.  A claim covers
only the degrees a sweep verified: every member with d <= 500 for p = 3 and
5, and with d <= 1028 for p = 7 (the acceptance sweeps).  For p = 7, where
the paper leaves the question mostly open, its patching reduction turns this
into: for an ordinary X, the bound is realized for every branch locus whose
jumps are all verified degrees.

``verify_family`` builds and ranks the obstruction matrix of a member in
coordinate form.  A member has at most three terms, so the matrix is almost
empty (about 0.07 % nonzero at p = 5, d = 499).  At every verified degree it
peels to an empty or 2 x 2 core, except for the p7_trinomial49 members,
whose cores grow with d (70 x 70 at d = 248, 305 x 305 at d = 1011) and are
eliminated densely.
"""

from dataclasses import dataclass

from .anumber import obstruction_coords
from .bounds import lower_bound_single
from .curve import BasicCurve
from .fppoly import FpPoly
from .linalg import coords_rank_nullity
from .numutil import check_degree

# p -> the strategy name of the binomial rule; its keys are the primes served
_BINOMIAL = {3: "p3", 5: "p5_binomial", 7: "p7_binomial"}

# p -> {delta: (strategy, ((slope, shift), ...))}: the trinomial rows.  For
# d = p^2 m + delta the member is x^d + sum of x^(slope m + shift); a coprime
# residue without a row takes the binomial rule.
ROWS = {
    5: {
        3: ("p5_trinomial25", ((15, 4), (5, 1))),
        7: ("p5_trinomial25", ((15, 6), (5, 3))),
        9: ("p5_trinomial25", ((15, 7), (5, 3))),
        16: ("p5_trinomial25", ((15, 13), (5, 4))),
        18: ("p5_trinomial25", ((15, 14), (5, 6))),
        22: ("p5_trinomial25", ((15, 16), (5, 8))),
    },
    # lower slopes (28, 7) for 13 residues, (35, 14) for 2, and
    # x^(d-1) = x^(49 m + delta - 1) with slope 28 for 5
    7: {
        3: ("p7_trinomial49", ((49, 2), (28, 6))),
        5: ("p7_trinomial28", ((28, 6), (7, 3))),
        9: ("p7_trinomial28", ((28, 8), (7, 5))),
        11: ("p7_trinomial28", ((28, 9), (7, 3))),
        13: ("p7_trinomial35", ((35, 10), (14, 10))),
        17: ("p7_trinomial49", ((49, 16), (28, 13))),
        18: ("p7_trinomial28", ((28, 37), (7, 30))),
        19: ("p7_trinomial28", ((28, 13), (7, 3))),
        22: ("p7_trinomial28", ((28, 18), (7, 5))),
        23: ("p7_trinomial28", ((28, 15), (7, 5))),
        26: ("p7_trinomial35", ((35, 20), (14, 13))),
        27: ("p7_trinomial49", ((49, 26), (28, 18))),
        30: ("p7_trinomial28", ((28, 22), (7, 10))),
        31: ("p7_trinomial49", ((49, 30), (28, 20))),
        32: ("p7_trinomial28", ((28, 51), (7, 37))),
        36: ("p7_trinomial28", ((28, 25), (7, 6))),
        38: ("p7_trinomial28", ((28, 26), (7, 9))),
        40: ("p7_trinomial28", ((28, 27), (7, 8))),
        44: ("p7_trinomial28", ((28, 29), (7, 10))),
        46: ("p7_trinomial49", ((49, 45), (28, 27))),
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

    Strategies: the binomial rule, "p3", "p5_binomial" and "p7_binomial";
    the trinomial rows, "p5_trinomial25", "p7_trinomial28", "p7_trinomial35"
    and "p7_trinomial49" (named by the slope of their middle term); for the
    fixed members, "small_d" and, at p = 5, d = 16, "p5_trinomial5".  Raises
    ValueError for a prime without families and for d not coprime to p.
    """
    if p not in _BINOMIAL:
        raise ValueError(
            f"no families available for p = {p}; only p in "
            f"{{{', '.join(map(str, sorted(_BINOMIAL)))}}}"
        )
    check_degree(p, d)
    fixed = FIXED[p].get(d)
    if fixed is not None:
        strategy, exponents = fixed
        return _unit_poly(p, exponents), strategy
    delta = d % (p * p)
    rule = (p * (p + 1) // 2, (delta + p * (delta % 2)) // 2)
    strategy, terms = ROWS.get(p, {}).get(delta, (_BINOMIAL[p], (rule,)))
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
    so its matrix is almost empty, and it peels to an empty or 2 x 2 core
    for every strategy but p7_trinomial49 (see the module docstring).
    """
    f, strategy = minimal_family(p, d)
    curve = BasicCurve.from_poly(p, f)
    shape = (curve.dim_obstruction, curve.dim_domain)
    a = coords_rank_nullity(p, obstruction_coords(curve), shape)[1]
    return FamilyCheck(
        p=p, d=d, strategy=strategy, f=f, a=a, bound=lower_bound_single(p, d)
    )
