"""Independent references the tests check the package against.

Column reference for the fast obstruction build, one kernel tuple lifted at
a time.  A line differential h dx is held as its polynomial h.  A kernel tuple
is a tuple of FpPoly, one per level i, each killed by the Cartier operator
and of degree at most reg_bound[i]; a differential on the cover is the tuple
of the h in its components h y^i dx.  reconstruct builds its own powers
(-f)^e with exact FpPoly products, so it shares no arithmetic with the int64
table of asnum.anumber, and kernel_vectors eliminates in Python ints,
sharing no code with asnum.linalg.  domain_basis enumerates the kernel-tuple
basis one exponent at a time, so the column checks share no column order
with the builds either.

Bound references: the counting windows of the lower bound, counted with
exact fractions one window at a time, and the closed forms of the bound for
p = 3 and for p = 5, d = 5n + 1; the package sums the windows with floor
sums instead.  Family reference: the p = 5 trinomials keyed on d mod 5, a
second minimal family beside the package's table rows.

Closed-form reference: the a-number of y^p - y = x^d from where the single
nonzero of each Cartier column lands, on Python ints with its own level
bounds, so it shares no code with either a-number path.
"""

import math
from fractions import Fraction

from asnum.fppoly import FpPoly


def domain_basis(curve) -> list[tuple[int, int]]:
    """The (level, exponent) pairs of the kernel-tuple basis, level-major.

    Level i holds the x^j dx with 0 <= j <= reg_bound[i] that the Cartier
    operator kills, the j with j + 1 not divisible by p, exponent ascending.
    """
    p = curve.p
    return [
        (i, j)
        for i in range(p)
        for j in range(curve.reg_bound[i] + 1)
        if (j + 1) % p != 0
    ]


def cartier(h: FpPoly) -> FpPoly:
    """Cartier operator on the line, acting on the h of a differential h dx.

    A term x^j dx survives exactly when j = -1 (mod p), and is sent to
    x^((j+1)/p - 1) dx; all other terms die.  Over the prime field the
    coefficientwise p-th root is the identity.
    """
    return FpPoly(h.p, h.coeffs[h.p - 1 :: h.p])


def section(h: FpPoly) -> FpPoly:
    """Keep exactly the terms x^j dx with j = -1 (mod p).

    This is the Cartier operator followed by its right inverse
    x^j dx -> x^(p(j+1)-1) dx: it projects h dx onto the complement of the
    Cartier kernel, keeping its Cartier image.
    """
    p = h.p
    out = [0] * len(h.coeffs)
    out[p - 1 :: p] = h.coeffs[p - 1 :: p]
    return FpPoly(p, out)


def unit(curve, level: int, j: int) -> tuple:
    """The basis kernel tuple with x^j dx at the given level, 0 elsewhere."""
    nu = [FpPoly.zero(curve.p)] * curve.p
    nu[level] = FpPoly(curve.p, [0] * j + [1])
    return tuple(nu)


def from_coords(curve, vec) -> tuple:
    """The kernel tuple with coordinates vec in domain_basis order."""
    basis = domain_basis(curve)
    assert len(vec) == len(basis), "coordinate vector has the wrong length"
    coeffs = [[0] * max(b + 1, 0) for b in curve.reg_bound]
    for (i, j), c in zip(basis, vec):
        coeffs[i][j] = int(c)
    return tuple(FpPoly(curve.p, cs) for cs in coeffs)


def reconstruct(curve, nu) -> tuple:
    """The differential on the cover that lifts the kernel tuple nu.

    Working down from the top level, each component picks up the projection
    (onto exponents = -1 mod p) of minus the binomial-weighted combination of
    the higher components multiplied by powers of -f.
    """
    p = curve.p
    negf = [FpPoly.one(p)]
    for _ in range(1, p):
        negf.append(negf[-1] * -curve.f)
    omega = [None] * p
    omega[p - 1] = nu[p - 1]
    for t in range(p - 2, -1, -1):
        acc = FpPoly.zero(p)
        for src in range(t + 1, p):
            if not omega[src].is_zero:
                acc = acc + omega[src] * (math.comb(src, t) % p) * negf[src - t]
        omega[t] = nu[t] + section(-acc)
    return tuple(omega)


def is_regular(curve, omega) -> bool:
    """True when every component respects its level degree cap."""
    return all(h.degree <= b for h, b in zip(omega, curve.reg_bound))


def obstruction_vector(curve, nu) -> tuple[int, ...]:
    """Coefficients of reconstruct(curve, nu) at the obstruction slots.

    Level-major, slot exponent ascending; the zero vector exactly when the
    reconstruction is regular.
    """
    out = []
    for i, h in enumerate(reconstruct(curve, nu)):
        s = curve.slot_start[i]
        out.extend(h.coeff(s + u * curve.p) for u in range(curve.slot_count[i]))
    return tuple(out)


def kernel_vectors(a, p: int) -> list[list[int]]:
    """A basis of the right kernel of the 2-D array a mod p, one list per free column.

    Gauss-Jordan elimination in Python ints.  The vector for free column f
    has a 1 at f, 0 at the other free columns, and minus column f of the
    reduced form at the pivot columns.
    """
    rows, cols = a.shape
    m = [[int(x) % p for x in row] for row in a.tolist()]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((k for k in range(r, rows) if m[k][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for k in range(rows):
            if k != r and m[k][c]:
                s = m[k][c]
                m[k] = [(x - s * y) % p for x, y in zip(m[k], m[r])]
        pivots.append(c)
    out = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -m[r][f] % p
        out.append(v)
    return out


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def monomial_a_number(p: int, d: int) -> int:
    """a-number of y^p - y = x^d, by counting the rows its Cartier matrix hits.

    The regular basis is the x^j y^i dx with 0 <= j <= reg[i] =
    ceil((p-1-i) d / p) - 2.  For f = x^d, (-f)^(i-t) is one term, so the
    image of column x^j y^i dx is comb(i, t) (-1)^(i-t) x^r y^t dx for the t
    with p(r + 1) - 1 - j = d(i - t), a unit multiple since i < p.  As p does
    not divide d, i - t is fixed mod p and at most one t in [0, i] fits.
    With one nonzero per column, the rank is the number of distinct rows
    (r, t) hit, and the a-number is the column count (the genus) less it.
    """
    reg = [_ceil_div((p - 1 - i) * d, p) - 2 for i in range(p)]
    # d(i - t) = -(j + 1) (mod p) fixes i - t
    d_inv = pow(d, -1, p)
    hit = set()
    for i in range(p):
        for j in range(reg[i] + 1):
            k = -(j + 1) * d_inv % p
            if k <= i:
                r = (j + 1 + d * k) // p - 1
                assert 0 <= r <= reg[i - k], "Cartier image left the regular span"
                hit.add((r, i - k))
    return sum(max(b + 1, 0) for b in reg) - len(hit)


def threshold(p: int, d: int, i: int, j: int) -> Fraction:
    """The open lower endpoint i*d - (1 - 1/p)*d*j of counting window (i, j)."""
    return i * d - (1 - Fraction(1, p)) * d * j


def block_count(p: int, d: int, i: int, j: int) -> int:
    """Number of multiples of p in the window (threshold(p, d, i, j), i*d].

    floor(threshold / p) on integers: threshold * p = i*d*p - d*j*(p-1).
    """
    return i * d // p - (i * d * p - d * j * (p - 1)) // (p * p)


def lower_bound_p3(d: int) -> int:
    """Closed form of the p = 3 bound: ceil(2d/3)+ceil(d/3)-ceil(d/9)-ceil(4d/9)."""
    if d < 1 or d % 3 == 0:
        raise ValueError(f"d = {d} is not a positive degree coprime to 3")
    return _ceil_div(2 * d, 3) + _ceil_div(d, 3) - _ceil_div(d, 9) - _ceil_div(4 * d, 9)


def lower_bound_p5_5n1(n: int) -> int:
    """Closed form of the p = 5 bound for degree d = 5n + 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 9 * n - (2 * n // 5 + (7 * n + 1) // 5 + (12 * n + 2) // 5)


def family_p5_mod5(d: int) -> FpPoly:
    """The trinomial of degree d over F_5 keyed on d mod 5, unit coefficients.

    Defined for every d coprime to 5: degrees 1 through 4 take x, x^2,
    x^3 + x^2 and x^4, and larger degrees one trinomial per residue class.
    For small quotients n two of the three exponents can coincide, in which
    case their coefficients add.
    """
    if d < 1 or d % 5 == 0:
        raise ValueError(f"d = {d} is not a positive degree coprime to 5")
    if d < 5:
        exponents = {1: (1,), 2: (2,), 3: (3, 2), 4: (4,)}[d]
    else:
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
        exponents = (d, mid, low)
    coeffs = [0] * (d + 1)
    for e in exponents:
        coeffs[e] += 1
    return FpPoly(5, coeffs)
