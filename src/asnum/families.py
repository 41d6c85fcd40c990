"""Explicit degree-d covers over F_3, F_5 and F_7 attaining the a-number lower bound.

``minimal_family(p, d)`` returns a polynomial f of degree d such that
y^p - y = f has the minimal a-number L(d).  Writing d = p^2 m + delta, almost
every member has one of two shapes.  A coprime residue takes the binomial
rule x^d + x^e with e = (d + p m')/2, where m' is whichever of m and m + 1
has the parity of d, unless it is a trinomial residue.  A trinomial residue
takes x^d + x^e' + x^(p m + c), with e' = (d + p(m + k))/2, k = 1 for odd
delta and 2 for even delta: the rule's exponent for odd delta, and that
exponent plus p for even delta.  So the only data is one integer c per
trinomial residue (6 residues at p = 5, 20 at p = 7, none at p = 3).  A few
degrees take a fixed polynomial instead, the small degrees where an exponent
would leave [1, d).  For p = 5 the degree 16 is fixed at x^16 + x^14 + x^9,
the member of an older trinomial family keyed on d mod 5 that it has always
had.

The c values were found by machine search, and the tests check the rule
against a fresh search over unit binomials and each c against a fresh
search over c.  A claim covers only the degrees a sweep verified: every
member with d <= 500 for p = 3 and 5, and with d <= 1028 for p = 7 (the
acceptance sweeps).  For p = 7, where the paper leaves the question mostly
open, its patching reduction turns this into: for an ordinary X, the bound
is realized for every branch locus whose jumps are all verified degrees.

``verify_family`` takes the a-number and the bound from the fast report
(anumber.report), so a member's a outside [L(d), genus] raises
InvariantViolation.  A member has at most three terms, so a_number_fast
builds and ranks its obstruction matrix in coordinate form; the matrix is
almost empty (about 0.07 % nonzero at p = 5, d = 499).  At every verified
degree it peels to an empty core, except for 2 x 2 cores at p = 5, d = 9 and
18, and 4 x 4 cores at p = 7, d = 13 and 26.
"""

from dataclasses import dataclass

from .anumber import report
from .curve import BasicCurve
from .fppoly import FpPoly
from .numutil import check_cells, check_degree

# p -> the strategy name of the binomial rule; its keys are the primes served
_BINOMIAL = {3: "p3", 5: "p5_binomial", 7: "p7_binomial"}

# p -> (strategy, {delta: c}): the trinomial residues.  For d = p^2 m + delta
# the member is the rule's x^d + x^e, with p more on e when delta is even, plus
# x^(p m + c); a coprime residue without a c takes the rule.
_TRINOMIAL = {
    5: ("p5_trinomial25", {3: 1, 7: 3, 9: 3, 16: 4, 18: 6, 22: 8}),
    7: (
        "p7_trinomial28",
        {3: 5, 5: 3, 9: 5, 11: 3, 13: 4, 17: 5, 18: 9, 19: 3, 22: 5, 23: 5,
         26: 8, 27: 5, 30: 10, 31: 5, 32: 9, 36: 6, 38: 9, 40: 8, 44: 10,
         46: 9},
    ),
}

# p -> {d: (strategy, exponents of a unit-coefficient member)}: the degrees
# that take a fixed polynomial instead of their rule or trinomial
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
    },
}


def _unit_poly(p: int, exponents) -> FpPoly:
    """The sum of x^e over the exponents; coinciding exponents add.

    Raises ValueError before allocating when the dense coefficient list
    would pass numutil.MAX_CELLS, the limit parse_poly applies to text.
    """
    size = max(exponents) + 1
    check_cells(1, size, "polynomial")
    coeffs = [0] * size
    for e in exponents:
        coeffs[e] += 1
    return FpPoly(p, coeffs)


def minimal_family(p: int, d: int) -> tuple[FpPoly, str]:
    """A degree-d polynomial attaining the bound, with the strategy that chose it.

    Strategies: the binomial rule, "p3", "p5_binomial" and "p7_binomial";
    the trinomial shape, "p5_trinomial25" and "p7_trinomial28"; for the
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
    m, delta = divmod(d, p * p)
    # the rule's e = (d + p m')/2, with m' the one of m and m + 1 of d's parity
    e = (d + p * (m + delta % 2)) // 2
    strategy, cs = _TRINOMIAL.get(p, (None, {}))
    if delta in cs:
        exponents = (d, e + p * (1 - delta % 2), p * m + cs[delta])
    else:
        strategy, exponents = _BINOMIAL[p], (d, e)
    if not all(1 <= x < d for x in exponents[1:]):
        raise ValueError(f"no member applies to d = {d} for p = {p}")
    return _unit_poly(p, exponents), strategy


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

    The a-number and the bound are those of report(curve, "fast"), which
    raises InvariantViolation when a falls outside [L(d), genus].  A member
    has at most three terms, so the fast path ranks it in coordinate form
    (see the module docstring).
    """
    f, strategy = minimal_family(p, d)
    rep = report(BasicCurve.from_poly(p, f), "fast")
    return FamilyCheck(p=p, d=d, strategy=strategy, f=f, a=rep.a, bound=rep.lower_bound)
