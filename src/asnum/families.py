"""Explicit degree-d covers over F_3 and F_5 attaining the a-number lower bound.

Each constructor returns a polynomial f of degree d such that y^p - y = f has
the minimal a-number.  For p = 5 there are three constructions: a binomial
for most residues of d mod 25, a trinomial for the remaining residues, and a
trinomial keyed on d mod 5 that covers everything; ``minimal_family`` tries
them in that order.  The residue tables are literal data found by exhaustive
machine search, not re-derived from formulas.
"""

from dataclasses import dataclass

from .anumber import a_number_fast
from .bounds import lower_bound_single
from .curve import BasicCurve
from .fppoly import FpPoly
from .numutil import ceil_div, check_degree

# second exponent of x^d + x^(15m + shift) per residue d = 25m + delta;
# the six residues 3, 7, 9, 16, 18, 22 admit no binomial with minimal a-number
BINOMIAL_SHIFT = {
    1: 3,
    2: 1,
    4: 2,
    6: 3,
    8: 4,
    11: 8,
    12: 6,
    13: 9,
    14: 7,
    17: 11,
    19: 12,
    21: 13,
    23: 14,
    24: 12,
}

# lower exponents of x^d + x^(15m + s1) + x^(5m + s2) for the six residues
# d = 25m + delta that the binomial family misses; every row is verified to
# attain the bound for all m by the degree sweep in the test suite
TRINOMIAL25_SHIFTS = {
    3: (4, 1),
    7: (6, 3),
    9: (7, 3),
    16: (13, 4),
    18: (14, 6),
    22: (16, 8),
}


def family_p3(d: int) -> FpPoly:
    """The minimal-a-number binomial of degree d over F_3.

    The second exponent is chosen so that, residue class by residue class,
    every obstruction slot reachable from the middle level is hit by a
    distinct basis tuple.  Degree 1 is a special case (x itself): the generic
    shift formula would overshoot the degree there.
    """
    check_degree(3, d)
    if d == 1:
        return FpPoly.monomial(3, 1)
    c = ceil_div(d, 3)
    if d % 3 == 1:
        b = 3 * ceil_div(c - 1, 3) - 1  # largest b = 2 (mod 3) with b <= c
        return FpPoly.monomial(3, d) + FpPoly.monomial(3, d - b)
    b = 3 * ceil_div(c - 2, 3)  # largest multiple of 3 with b <= c
    return FpPoly.monomial(3, d) + FpPoly.monomial(3, d - b - 1)


def family_p5_binomial(d: int) -> FpPoly | None:
    """The minimal-a-number binomial of degree d over F_5, or None.

    None when d mod 25 has no binomial row, and for d = 1 where the tabulated
    second exponent would exceed the degree.
    """
    check_degree(5, d)
    m, delta = divmod(d, 25)
    shift = BINOMIAL_SHIFT.get(delta)
    if shift is None:
        return None
    lo = 15 * m + shift
    if lo >= d:
        return None
    return FpPoly.monomial(5, d) + FpPoly.monomial(5, lo)


def family_p5_trinomial25(d: int) -> FpPoly | None:
    """The mod-25 trinomial of degree d over F_5, or None when inapplicable.

    Only the six residues missing from the binomial table have rows here.
    Inapplicable cases fall through to the mod-5 family: d = 3 (the middle
    exponent would exceed the degree) and d = 16 (kept on the mod-5 route; see
    family_p5_mod5 for its trinomial).
    """
    check_degree(5, d)
    m, delta = divmod(d, 25)
    row = TRINOMIAL25_SHIFTS.get(delta)
    if row is None:
        return None
    if m == 0 and delta == 16:
        return None
    mid = 15 * m + row[0]
    low = 5 * m + row[1]
    if low < 1 or mid >= d:
        return None
    return FpPoly.monomial(5, d) + FpPoly.monomial(5, mid) + FpPoly.monomial(5, low)


def family_p5_mod5(d: int) -> FpPoly:
    """The trinomial of degree d over F_5 keyed on d mod 5.

    Defined for every d coprime to 5: degrees 1 through 4 use x, x^2,
    x^3 + x^2, x^4, and larger degrees use one trinomial per residue class.
    For small quotients n two of the three exponents can coincide, in which
    case their coefficients add.
    """
    check_degree(5, d)
    if d == 1:
        return FpPoly.monomial(5, 1)
    if d == 2:
        return FpPoly.monomial(5, 2)
    if d == 3:
        return FpPoly.monomial(5, 3) + FpPoly.monomial(5, 2)
    if d == 4:
        return FpPoly.monomial(5, 4)
    n, c = divmod(d, 5)
    if c == 1:
        mid = 5 * n - 1
        low = 5 * n - 5 * (2 * (n + 2) // 5) + 4
    elif c == 2:
        mid = 5 * n + 1
        low = 5 * n - 5 * (2 * (n - 1) // 5) - 1
    elif c == 3:
        mid = 5 * n + 2
        low = 5 * n - 5 * (2 * (n - 1) // 5) - 1
    else:
        mid = 5 * n + 2
        low = 5 * n - 5 * (2 * (n + 1) // 5) + 3
    return (
        FpPoly.monomial(5, d)
        + FpPoly.monomial(5, mid)
        + FpPoly.monomial(5, low)
    )


def minimal_family(p: int, d: int) -> tuple[FpPoly, str]:
    """A degree-d polynomial attaining the bound, with the strategy that chose it.

    Strategies: "p3", "p5_binomial", "p5_trinomial25", "p5_trinomial5" (the
    mod-5 table) and "small_d" for the handful of degrees below the generic
    constructions.
    """
    if p == 3:
        f = family_p3(d)
        return f, ("small_d" if d == 1 else "p3")
    if p == 5:
        if d < 5:
            return family_p5_mod5(d), "small_d"
        f = family_p5_binomial(d)
        if f is not None:
            return f, "p5_binomial"
        f = family_p5_trinomial25(d)
        if f is not None:
            return f, "p5_trinomial25"
        return family_p5_mod5(d), "p5_trinomial5"
    raise ValueError(f"no families available for p = {p}; only p = 3 and p = 5")


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
    """Build the family member for (p, d) and compare its a-number to the bound."""
    f, strategy = minimal_family(p, d)
    curve = BasicCurve.from_poly(p, f)
    a = a_number_fast(curve)
    return FamilyCheck(
        p=p, d=d, strategy=strategy, f=f, a=a, bound=lower_bound_single(p, d)
    )
