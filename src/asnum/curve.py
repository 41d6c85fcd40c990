"""Validated model of a cover y^p - y = f of the line branched only at infinity.

A differential on the cover is a tuple of line differentials, one per power
of y.  Every matrix shape downstream depends only on (p, d), never on f, so
the per-level integer data is a Layout, derived once per (p, d) by layout():
degree caps for regular components, degree caps for reconstructed
components, the "obstruction" exponents in between, and the obstruction
matrix's layout.  A BasicCurve is the layout of its degree plus f.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .fppoly import FpPoly, normalize_artin_schreier
from .numutil import ceil_div

# Layouts layout() keeps: one family sweep meets 734 degrees at p <= 5, or
# 881 at p = 7 up to d = 1028.  An entry is a dozen tuples of about p ints:
# with the cache's own bookkeeping, tracemalloc counted 0.8-0.9 KB at
# (3, 17), 2.6-2.7 KB at (7, 1000) and 89 KB at (503, 3), so a full cache
# holds about 3 MB at p = 7.
LAYOUT_CACHE = 1024


@dataclass(frozen=True)
class Layout:
    """The integer data of every cover y^p - y = f with f of degree d.

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

    Only a block of that matrix can be nonzero, whatever f of degree d is.
    The level-0 columns are never written: the lift of x^j dx at level 0 is
    itself.  The correction a basis tuple picks up at level t (the part the
    lift adds below its top level) has degree at most

      live_bound[t] = max over levels s > t with columns of
                      (top column exponent of s) + (s - t) * d,

    or -1 when no level above t has columns, so the obstruction rows of
    level t above live_bound[t] are zero.  The live block keeps the rest: the
    first live_start[i+1] - live_start[i] obstruction rows of each level i
    (full rows row_start[i] onwards), level-major, and the columns
    col_start[1] onwards; live_shape is its shape.
    """

    p: int
    d: int
    reg_bound: tuple[int, ...]
    comp_bound: tuple[int, ...]
    slot_start: tuple
    slot_count: tuple[int, ...]
    genus: int
    col_start: tuple[int, ...]
    row_start: tuple[int, ...]
    live_bound: tuple[int, ...]
    live_start: tuple[int, ...]

    @property
    def dim_domain(self) -> int:
        return self.col_start[-1]

    @property
    def dim_obstruction(self) -> int:
        return self.row_start[-1]

    @property
    def live_shape(self) -> tuple[int, int]:
        return self.live_start[-1], self.dim_domain - self.col_start[1]


def genus(p: int, d: int) -> int:
    """Genus of y^p - y = f with f of degree d, by Riemann-Hurwitz: O(1),
    where layout() takes O(p) work and memory."""
    return (p - 1) * (d - 1) // 2


@lru_cache(maxsize=LAYOUT_CACHE)
def layout(p: int, d: int) -> Layout:
    """The Layout of degree d over F_p, one object per (p, d) while cached.

    Raises ValueError when p divides d.
    """
    if d % p == 0:
        raise ValueError("ramification invariant divisible by p")
    reg = tuple(ceil_div((p - 1 - i) * d, p) - 2 for i in range(p))
    comp = tuple((p - 1 - i) * d - 2 for i in range(p))
    # the first e = -1 (mod p) above reg_bound, and how many fit up to comp_bound
    first = [b + 1 + (p - 2 - b) % p for b in reg]
    counts = [max((c - s) // p + 1, 0) for s, c in zip(first, comp)]
    # level i offers the b + 1 exponents 0 .. b = reg_bound[i] less the
    # (b + 1) // p of them that are -1 (mod p)
    cols = [max(b + 1 - (b + 1) // p, 0) for b in reg]
    # live_bound[t] = d + max(top column exponent of level t + 1,
    # live_bound[t + 1]), over what exists; -1 when neither does
    live = [-1] * p
    for t in range(p - 2, -1, -1):
        k = cols[t + 1] - 1
        top = k + k // (p - 1) if k >= 0 else -1
        higher = max(top, live[t + 1])
        live[t] = higher + d if higher >= 0 else -1
    # the live obstruction exponents of level t run up to live_bound[t]
    live_rows = (
        max(min((b - s) // p + 1, n), 0)
        for b, s, n in zip(live, first, counts)
    )
    return Layout(
        p=p,
        d=d,
        reg_bound=reg,
        comp_bound=comp,
        slot_start=tuple(s if n else None for s, n in zip(first, counts)),
        slot_count=tuple(counts),
        genus=genus(p, d),
        col_start=tuple(accumulate(cols, initial=0)),
        row_start=tuple(accumulate(counts, initial=0)),
        live_bound=tuple(live),
        live_start=tuple(accumulate(live_rows, initial=0)),
    )


@dataclass(frozen=True)
class BasicCurve(Layout):
    """y^p - y = f with f normalized: the Layout of its degree, plus f."""

    f: FpPoly

    @classmethod
    def from_poly(cls, p: int, f: FpPoly) -> "BasicCurve":
        """Normalize f and take the layout of its degree.

        Raises SplitCoverError when f reduces to a^p - a.  The normalized
        polynomial never has degree divisible by p (such monomials are folded
        away), but layout() keeps that guard as a cheap sanity check.
        """
        if f.p != p:
            raise ValueError(f"polynomial is over F_{f.p}, expected F_{p}")
        g = normalize_artin_schreier(f)
        return cls(**vars(layout(p, int(g.degree))), f=g)
