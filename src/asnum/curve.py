"""Validated model of a cover y^p - y = f of the line branched only at infinity.

A differential on the cover is a tuple of line differentials, one per power
of y.  All the per-level integer data needed downstream is derived here once:
degree caps for regular components, degree caps for reconstructed components,
the "obstruction" exponents in between, and the obstruction matrix's layout.
"""

from dataclasses import dataclass
from itertools import accumulate

from .fppoly import FpPoly, normalize_artin_schreier
from .numutil import ceil_div


@dataclass(frozen=True)
class BasicCurve:
    """y^p - y = f with f normalized, plus derived integer data.

    Per level i (the coefficient of y^i in a differential on the cover):

      reg_bound[i]    largest exponent a regular component may carry
      comp_bound[i]   largest exponent a reconstructed component may carry
      slot_start[i]   first obstruction exponent, or None when there are none
      slot_count[i]   number of obstruction exponents

    Obstruction exponents are the e = -1 (mod p) with
    reg_bound[i] < e <= comp_bound[i]; a reconstructed differential is regular
    exactly when its coefficients vanish at every one of them.

    The obstruction matrix is laid out level-major: columns col_start[i] ..
    col_start[i+1] - 1 are the x^j dx of level i with 0 <= j <= reg_bound[i]
    and j != -1 (mod p), ascending (column k of the level is x^j with
    j = k + k // (p - 1), and x^j is column j - (j + 1) // p), and rows
    row_start[i] .. row_start[i+1] - 1 are its obstruction exponents,
    ascending.  dim_domain and dim_obstruction are the last offsets.
    """

    p: int
    f: FpPoly
    d: int
    reg_bound: tuple[int, ...]
    comp_bound: tuple[int, ...]
    slot_start: tuple
    slot_count: tuple[int, ...]
    genus: int
    col_start: tuple[int, ...]
    row_start: tuple[int, ...]

    @property
    def dim_domain(self) -> int:
        return self.col_start[-1]

    @property
    def dim_obstruction(self) -> int:
        return self.row_start[-1]

    @classmethod
    def from_poly(cls, p: int, f: FpPoly) -> "BasicCurve":
        """Normalize f and fill in the derived data.

        Raises SplitCoverError when f reduces to a^p - a.  The normalized
        polynomial never has degree divisible by p (such monomials are folded
        away), but the guard is kept as a cheap sanity check.
        """
        if f.p != p:
            raise ValueError(f"polynomial is over F_{f.p}, expected F_{p}")
        g = normalize_artin_schreier(f)
        d = int(g.degree)
        if d % p == 0:
            raise ValueError("ramification invariant divisible by p")
        reg = tuple(ceil_div((p - 1 - i) * d, p) - 2 for i in range(p))
        comp = tuple((p - 1 - i) * d - 2 for i in range(p))
        # the first e = -1 (mod p) above reg_bound, and how many fit up to comp_bound
        first = [b + 1 + (p - 2 - b) % p for b in reg]
        counts = [max((c - s) // p + 1, 0) for s, c in zip(first, comp)]
        # level i offers the b + 1 exponents 0 .. b = reg_bound[i] less the
        # (b + 1) // p of them that are -1 (mod p)
        cols = (max(b + 1 - (b + 1) // p, 0) for b in reg)
        return cls(
            p=p,
            f=g,
            d=d,
            reg_bound=reg,
            comp_bound=comp,
            slot_start=tuple(s if n else None for s, n in zip(first, counts)),
            slot_count=tuple(counts),
            genus=(p - 1) * (d - 1) // 2,
            col_start=tuple(accumulate(cols, initial=0)),
            row_start=tuple(accumulate(counts, initial=0)),
        )
