"""Two independent a-number computations for a basic cover, plus the p-rank.

Fast path: for each basis kernel tuple, reconstruct the corresponding
differential on the cover level by level and record the coefficients that can
spoil regularity; the a-number is the nullity of that obstruction matrix.

Oracle path: the matrix of the Cartier operator of the cover itself on the
full monomial basis x^j y^i dx of regular differentials, and its kernel
dimension.  Since y = y^p - f, y^i = sum_t comb(i, t) y^(pt) (-f)^(i-t), so
the entry at row x^r y^t dx and column x^j y^i dx is comb(i, t) times the
coefficient of x^(p(r+1)-1-j) in (-f)^(i-t).  The paths share only the
table of powers (-f)^e, so their agreement is a meaningful end-to-end check.

The power table and the obstruction build take a stack of polynomials of one
degree, one row each, since every matrix shape depends only on (p, d): the
survey engine builds a whole chunk of covers in one pass, and a single curve
is a stack of one.

Line differentials h dx are held as the FpPoly h.  The table is built with
numpy in int64, and the builds' int64 sums are checked for headroom before
anything is built.  reconstruct, the column reference for the fast build,
builds its own powers with exact FpPoly products, so it shares no
arithmetic with that table.

The p-rank is 0.  The oracle certifies it on the matrix it builds: in the
level-major basis the Cartier operator sends x^j y^i dx either to a lower
level or, on level i, to exponent (j+1)/p - 1 < j, so its matrix is strictly
upper triangular and hence nilpotent; the matrix is checked for that shape,
never assumed to have it.  The fast report builds no Cartier matrix and takes
p-rank 0 from the Deuring-Shafarevich formula (one totally ramified branch
point over the projective line).
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bounds import lower_bound_single
from .curve import BasicCurve, domain_basis, level_exponents
from .fppoly import FpPoly, cartier, section_after_cartier
from .linalg import FpMatrix, rank_nullity
from .numutil import check_int64_sum


class InvariantViolation(AssertionError):
    """A structural invariant of the computation failed: a bug, not bad input."""


class KernelTuple:
    """One line differential h dx per level, each killed by the Cartier operator.

    Component i must also respect the level degree cap reg_bound[i]; these
    two conditions carve out the domain of the obstruction map.
    """

    __slots__ = ("curve", "nu")

    def __init__(self, curve: BasicCurve, nu):
        nu = tuple(nu)
        if len(nu) != curve.p:
            raise ValueError(f"expected {curve.p} components, got {len(nu)}")
        for i, w in enumerate(nu):
            if w.p != curve.p:
                raise ValueError("component modulus mismatch")
            if not cartier(w).is_zero:
                raise ValueError(f"component {i} is not in the Cartier kernel")
            if w.degree > curve.reg_bound[i]:
                raise ValueError(f"component {i} exceeds degree cap {curve.reg_bound[i]}")
        self.curve = curve
        self.nu = nu

    @classmethod
    def unit(cls, curve: BasicCurve, level: int, exponent: int) -> "KernelTuple":
        """The basis tuple with x^exponent dx at the given level, 0 elsewhere."""
        nu = [FpPoly.zero(curve.p)] * curve.p
        nu[level] = FpPoly.monomial(curve.p, exponent)
        return cls(curve, nu)

    @classmethod
    def from_coefficients(cls, curve: BasicCurve, vec) -> "KernelTuple":
        """Build a tuple from coordinates in domain_basis order."""
        basis = domain_basis(curve)
        if len(vec) != len(basis):
            raise ValueError("coordinate vector has wrong length")
        polys = [dict() for _ in range(curve.p)]
        for (i, j), c in zip(basis, vec):
            polys[i][j] = c
        nu = []
        for i in range(curve.p):
            coeffs = [0] * (curve.reg_bound[i] + 1 if polys[i] else 0)
            for j, c in polys[i].items():
                coeffs[j] = c
            nu.append(FpPoly(curve.p, coeffs))
        return cls(curve, nu)

    def __add__(self, other):
        if not isinstance(other, KernelTuple) or other.curve is not self.curve:
            return NotImplemented
        return KernelTuple(self.curve, [a + b for a, b in zip(self.nu, other.nu)])

    def __eq__(self, other):
        return (
            isinstance(other, KernelTuple)
            and self.curve == other.curve
            and self.nu == other.nu
        )


class CoverDifferential:
    """A differential on the cover: omega[i] is the h of its h y^i dx component."""

    __slots__ = ("curve", "omega")

    def __init__(self, curve: BasicCurve, omega):
        omega = tuple(omega)
        if len(omega) != curve.p:
            raise ValueError(f"expected {curve.p} components, got {len(omega)}")
        self.curve = curve
        self.omega = omega

    def __eq__(self, other):
        return (
            isinstance(other, CoverDifferential)
            and self.curve == other.curve
            and self.omega == other.omega
        )

    def __str__(self):
        parts = []
        for i in range(self.curve.p - 1, -1, -1):
            h = self.omega[i]
            if h.is_zero:
                continue
            y = "" if i == 0 else (" y" if i == 1 else f" y^{i}")
            parts.append(f"({h}){y} dx")
        return " + ".join(parts) if parts else "0"


def _neg_f_power_stack(p: int, coeffs) -> list[np.ndarray]:
    """(N, e*(L-1) + 1) arrays of (-f)^e mod p for e = 0 .. p-1, one row per f.

    ``coeffs`` holds N coefficient rows of one length L.  Each product entry
    sums at most L terms below p^2, checked before anything is built; the
    same bound covers the products of a reduced binomial with a table entry
    in both matrix builds.  Each power is one shifted add per coefficient
    column of f that is nonzero in some row, or one np.convolve per row when
    there are fewer rows than such columns, as for a single large curve.
    """
    check_int64_sum(len(coeffs[0]), (p - 1) ** 2, "(-f)^e table")
    neg = -np.asarray(coeffs, dtype=np.int64) % p
    n, length = neg.shape
    cols = np.flatnonzero(neg.any(axis=0)).tolist()
    if n < len(cols):
        per_row = []
        for f in neg:
            row = [np.ones(1, dtype=np.int64)]
            for _ in range(1, p):
                row.append(np.convolve(row[-1], f) % p)
            per_row.append(row)
        return [np.array(power) for power in zip(*per_row)]
    powers = [np.ones((n, 1), dtype=np.int64)]
    for _ in range(1, p):
        prev = powers[-1]
        nxt = np.zeros((n, prev.shape[1] + length - 1), dtype=np.int64)
        for k in cols:
            nxt[:, k : k + prev.shape[1]] += neg[:, k, None] * prev
        powers.append(nxt % p)
    return powers


def reconstruct(curve: BasicCurve, v: KernelTuple) -> CoverDifferential:
    """The differential on the cover determined by a kernel tuple.

    Working down from the top level, each component picks up the projection
    (onto exponents = -1 mod p) of minus the binomial-weighted combination of
    the higher components multiplied by powers of -f.
    """
    p = curve.p
    neg = -curve.f
    negf = [FpPoly.one(p)]
    for _ in range(1, p):
        negf.append(negf[-1] * neg)
    omega: list = [None] * p
    omega[p - 1] = v.nu[p - 1]
    for t in range(p - 2, -1, -1):
        acc = FpPoly.zero(p)
        for src in range(t + 1, p):
            h = omega[src]
            if h.is_zero:
                continue
            scale = math.comb(src, t) % p
            if scale == 0:
                continue
            acc = acc + h * negf[src - t] * scale
        omega[t] = v.nu[t] + section_after_cartier(-acc)
    return CoverDifferential(curve, omega)


def is_regular(curve: BasicCurve, w: CoverDifferential) -> bool:
    """True when every component respects its level degree cap."""
    return all(w.omega[i].degree <= curve.reg_bound[i] for i in range(curve.p))


def obstruction_vector(curve: BasicCurve, v: KernelTuple) -> tuple[int, ...]:
    """Coefficients of the reconstructed differential at the obstruction slots.

    Level-major, slot exponent ascending; the zero vector exactly when the
    reconstruction is regular.
    """
    w = reconstruct(curve, v)
    out = []
    for i in range(curve.p):
        s = curve.slot_start[i]
        h = w.omega[i]
        out.extend(h.coeff(s + u * curve.p) for u in range(curve.slot_count[i]))
    return tuple(out)


def obstruction_matrix(curve: BasicCurve) -> FpMatrix:
    """Matrix of the obstruction map over the kernel-tuple basis.

    Columns follow domain_basis order; rows are obstruction slots,
    level-major then exponent ascending.  Built as a stack of one by
    obstruction_stack; columnwise agreement with obstruction_vector is
    covered by tests.
    """
    return FpMatrix(curve.p, obstruction_stack(curve, [curve.f.coeffs])[0])


def obstruction_stack(curve: BasicCurve, coeffs) -> np.ndarray:
    """Obstruction matrices of the covers y^p - y = f, f the rows of ``coeffs``.

    The rows are polynomials of degree curve.d over F_p; the matrix shape
    depends only on (p, d), so ``curve`` supplies it and the result is an
    (N, dim_obstruction, dim_domain) int64 stack, the same arithmetic for
    every row.  Below its top level a reconstructed component lives on
    exponents = -1 (mod p) only, so level t is stored compressed: row u
    stands for exponent p*u + p - 1.  One downward sweep
    t = p-2 .. 0 covers every basis column at once; at level t it touches
    only the columns whose top level is above t.  A source level src adds
    comb(src, t) * omega[src] * g with g = (-f)^(src-t) in two parts: the
    unit monomials x^j of the columns topped at src are one gather
    g[p*u + p - 1 - j], and the compressed components of the higher columns
    are a shifted-add convolution with g[::p] alone, since only exponents
    divisible by p move -1 (mod p) onto itself.  The obstruction rows of
    level t are then a slice of its compressed block.
    """
    p = curve.p
    rows = [max((c - (p - 1)) // p + 1, 0) for c in curve.comp_bound]
    # per entry, each source adds at most rows[t] <= rows[0] products below p^2
    check_int64_sum((p - 1) * rows[0], (p - 1) ** 2, "obstruction build")
    negf = _neg_f_power_stack(p, coeffs)
    n = negf[0].shape[0]
    exps = [np.array(level_exponents(curve, i), dtype=np.int64) for i in range(p)]
    col = list(accumulate((len(e) for e in exps), initial=0))
    mat = np.zeros((n, curve.dim_obstruction, curve.dim_domain), dtype=np.int64)
    # comp[t]: compressed level-t components of the columns col[t+1]: onwards
    comp = [np.zeros((n, 0, 0), dtype=np.int64)] * p
    row = list(accumulate(curve.slot_count, initial=0))
    for t in range(p - 2, -1, -1):
        base = col[t + 1]
        acc = np.zeros((n, rows[t], col[p] - base), dtype=np.int64)
        for src in range(t + 1, p):
            g = math.comb(src, t) % p * negf[src - t] % p
            if len(exps[src]):
                idx = p * np.arange(rows[t])[:, None] + (p - 1) - exps[src]
                ok = (idx >= 0) & (idx < g.shape[1])
                block = np.take(g, np.where(ok, idx, 0), axis=1) * ok
                acc[:, :, col[src] - base : col[src + 1] - base] += block
            w = comp[src]
            if w.size:
                m = w.shape[1]
                sub = acc[:, :, col[src + 1] - base :]
                gp = g[:, ::p]
                for k in np.flatnonzero(gp.any(axis=0)).tolist():
                    sub[:, k : k + m] += gp[:, k, None, None] * w
        comp[t] = (-acc) % p
        if curve.slot_count[t]:
            u = (curve.slot_start[t] - (p - 1)) // p
            mat[:, row[t] : row[t + 1], base:] = comp[t][:, u : u + curve.slot_count[t]]
    return mat


def a_number_fast(curve: BasicCurve) -> int:
    """a-number as the nullity of the obstruction matrix."""
    return rank_nullity(obstruction_matrix(curve))[1]


def cartier_matrix(curve: BasicCurve) -> FpMatrix:
    """Matrix of the Cartier operator of the cover on regular differentials.

    Basis: x^j y^i dx with 0 <= j <= reg_bound[i], level-major; its size is
    the genus.  Each (t, i) level block is one gather from (-f)^(i-t) by the
    closed form in the module docstring.  The operator preserves the regular
    span; the implementation checks this instead of assuming it.
    """
    p = curve.p
    negf = _neg_f_power_stack(p, [curve.f.coeffs])
    sizes = [max(b + 1, 0) for b in curve.reg_bound]
    if sum(sizes) != curve.genus:
        raise InvariantViolation("regular basis size disagrees with the genus")
    off = np.cumsum([0] + sizes)
    mat = np.zeros((curve.genus, curve.genus), dtype=np.int64)
    for i in range(p):
        for t in range(i + 1):
            g = negf[i - t][0]
            # enough rows r to reach every coefficient of g; rows past
            # reg_bound[t] must come out zero
            rows = max(sizes[t], (len(g) + sizes[i] - 1) // p)
            idx = p * np.arange(1, rows + 1)[:, None] - 1 - np.arange(sizes[i])
            ok = (idx >= 0) & (idx < len(g))
            block = np.zeros(idx.shape, dtype=np.int64)
            block[ok] = g[idx[ok]]
            if block[sizes[t] :].any():
                raise InvariantViolation("Cartier image left the regular span")
            # reduce the binomial first: products stay below p^2 in int64
            block = math.comb(i, t) % p * block[: sizes[t]] % p
            mat[off[t] : off[t + 1], off[i] : off[i + 1]] = block
    return FpMatrix(p, mat)


def a_number_oracle(curve: BasicCurve) -> int:
    """a-number as the nullity of the full Cartier matrix."""
    return rank_nullity(cartier_matrix(curve))[1]


def _certified_p_rank(m: FpMatrix) -> int:
    """p-rank from a Cartier matrix: 0, certified by strict triangularity.

    A strictly upper triangular matrix is nilpotent, so its stable rank is 0.
    Raises InvariantViolation when an entry on or below the diagonal is
    nonzero.
    """
    below = np.argwhere(np.tril(m.a))
    if below.size:
        r, c = below[0]
        raise InvariantViolation(
            f"Cartier matrix entry ({r}, {c}) is nonzero on or below the diagonal"
        )
    return 0


def p_rank(curve: BasicCurve) -> int:
    """p-rank of the cover: 0, certified by strict triangularity.

    Builds the Cartier matrix and checks that it is strictly upper triangular
    in the level-major basis; raises InvariantViolation otherwise.
    """
    return _certified_p_rank(cartier_matrix(curve))


@dataclass(frozen=True)
class ANumberReport:
    """a-number of one cover together with the standard companion invariants."""

    a: int
    method: str
    genus: int
    p_rank: int
    lower_bound: int
    dim_domain: int
    dim_obstruction: int


def report(curve: BasicCurve, method: str = "fast") -> ANumberReport:
    """Assemble the a-number (by the requested method) and companions.

    Raises InvariantViolation when a falls outside [L(d), genus] or, on the
    oracle path, the p-rank certificate fails.
    """
    if method == "fast":
        a = a_number_fast(curve)
        # Deuring-Shafarevich: a Z/pZ-cover of the projective line with one
        # totally ramified branch point has p-rank 0
        rank_p = 0
    elif method == "oracle":
        cartier_m = cartier_matrix(curve)
        a = rank_nullity(cartier_m)[1]
        rank_p = _certified_p_rank(cartier_m)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'fast' or 'oracle'")
    bound = lower_bound_single(curve.p, curve.d)
    if not bound <= a <= curve.genus:
        raise InvariantViolation(f"a = {a} outside [{bound}, {curve.genus}]")
    return ANumberReport(
        a=a,
        method=method,
        genus=curve.genus,
        p_rank=rank_p,
        lower_bound=bound,
        dim_domain=curve.dim_domain,
        dim_obstruction=curve.dim_obstruction,
    )
