"""Dense polynomials over F_p and polynomial differentials h(x) dx on the line.

Coefficients are stored by exponent and kept trimmed, so the last entry is
nonzero whenever the polynomial is nonzero; the zero polynomial has an empty
coefficient tuple and degree -inf.  The base field is always the prime field,
so the p-th power map on coefficients is the identity and the semilinear
twists of the Cartier operator and of its right inverse disappear.
"""

import math
import re

import numpy as np

from .numutil import check_int64_sum, is_prime

NEG_INF = float("-inf")

_CONVOLVE_CUTOFF = 16


class PolyParseError(ValueError):
    """Raised when polynomial text cannot be parsed."""


class SplitCoverError(ValueError):
    """Raised when the right-hand side reduces to 0, so y^p - y = f splits."""


class FpPoly:
    """Immutable dense polynomial over F_p."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls(p, (1,))

    @classmethod
    def monomial(cls, p: int, exponent: int, coeff: int = 1) -> "FpPoly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls(p, (0,) * exponent + (coeff,))

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent: int) -> int:
        """Coefficient of x^exponent (0 beyond the stored range)."""
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def shift(self, k: int) -> "FpPoly":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero:
            return self
        return FpPoly(self.p, (0,) * k + self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __add__(self, other):
        if not isinstance(other, FpPoly) or other.p != self.p:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FpPoly(self.p, out)

    def __neg__(self):
        return FpPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, FpPoly) or other.p != self.p:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.p, [other * c for c in self.coeffs])
        if not isinstance(other, FpPoly) or other.p != self.p:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return FpPoly.zero(self.p)
        a, b = self.coeffs, other.coeffs
        if min(len(a), len(b)) > _CONVOLVE_CUTOFF:
            # each output coefficient sums at most min(len) products below p^2
            check_int64_sum(min(len(a), len(b)), (self.p - 1) ** 2, "polynomial product")
            out = np.convolve(np.array(a, np.int64), np.array(b, np.int64))
            return FpPoly(self.p, (out % self.p).tolist())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return FpPoly(self.p, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = FpPoly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
        return "+".join(parts)

    def __repr__(self):
        return f"FpPoly(p={self.p}, {self})"


_TERM_RE = re.compile(r"(\d+)(\*?x(?:\^(\d+))?)?|(x)(?:\^(\d+))?")


def parse_poly(text: str, p: int) -> FpPoly:
    """Parse a polynomial from text.

    Terms are ``c*x^e``, ``c*x``, ``x^e``, ``x`` or ``c``, joined with ``+`` or
    ``-``; whitespace is ignored and coefficients are reduced mod p.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise PolyParseError("empty polynomial text")
    if s[0] not in "+-":
        s = "+" + s
    pieces = re.findall(r"([+-])([^+-]+)", s)
    if "".join(sign + body for sign, body in pieces) != s:
        raise PolyParseError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, int] = {}
    for sign, body in pieces:
        m = _TERM_RE.fullmatch(body)
        if m is None:
            raise PolyParseError(f"bad term {body!r} in {text!r}")
        digits, xpart, exp_c, bare_x, exp_x = m.groups()
        if digits is not None:
            c = int(digits)
            e = 0 if xpart is None else int(exp_c) if exp_c is not None else 1
        else:
            c = 1
            e = int(exp_x) if exp_x is not None else 1
        if sign == "-":
            c = -c
        coeffs[e] = coeffs.get(e, 0) + c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return FpPoly(p, out)


class Differential:
    """A polynomial differential h(x) dx on the projective line."""

    __slots__ = ("h",)

    def __init__(self, h: FpPoly):
        self.h = h

    @classmethod
    def zero(cls, p: int) -> "Differential":
        return cls(FpPoly.zero(p))

    @classmethod
    def monomial(cls, p: int, exponent: int, coeff: int = 1) -> "Differential":
        return cls(FpPoly.monomial(p, exponent, coeff))

    @property
    def p(self) -> int:
        return self.h.p

    @property
    def degree(self):
        return self.h.degree

    @property
    def is_zero(self) -> bool:
        return self.h.is_zero

    def __eq__(self, other):
        return isinstance(other, Differential) and self.h == other.h

    def __hash__(self):
        return hash(("dx", self.h))

    def __add__(self, other):
        if not isinstance(other, Differential):
            return NotImplemented
        return Differential(self.h + other.h)

    def __sub__(self, other):
        if not isinstance(other, Differential):
            return NotImplemented
        return Differential(self.h - other.h)

    def __neg__(self):
        return Differential(-self.h)

    def scale(self, c: int) -> "Differential":
        return Differential(self.h * c)

    def __str__(self):
        return f"({self.h}) dx"

    __repr__ = __str__


def cartier(w: Differential) -> Differential:
    """Cartier operator on polynomial differentials of the line.

    A term x^j dx survives exactly when j = -1 (mod p), and is sent to
    x^((j+1)/p - 1) dx; all other terms die.  Over the prime field the
    coefficientwise p-th root is the identity.
    """
    p = w.p
    return Differential(FpPoly(p, w.h.coeffs[p - 1 :: p]))


def section(w: Differential) -> Differential:
    """Right inverse of the Cartier operator: x^j dx -> x^(p(j+1)-1) dx."""
    p = w.p
    out = [0] * (p * len(w.h.coeffs))
    for j, c in enumerate(w.h.coeffs):
        out[p * (j + 1) - 1] = c
    return Differential(FpPoly(p, out))


def section_after_cartier(w: Differential) -> Differential:
    """Compose section with cartier: keep exactly the terms x^j dx, j = -1 (mod p).

    This projects onto the complement of the Cartier kernel; it is what one
    application of section-after-cartier leaves of a differential.
    """
    p = w.p
    out = [0] * len(w.h.coeffs)
    for j in range(p - 1, len(out), p):
        out[j] = w.h.coeffs[j]
    return Differential(FpPoly(p, out))


def normalize_artin_schreier(f: FpPoly) -> FpPoly:
    """Reduce f to the standard representative of its cover y^p - y = f.

    Working down from the top exponent, each monomial c*x^(p*i) with i >= 1
    is traded for c*x^i (they define the same cover since c*x^(p*i) is the
    p-th power of c*x^i over the prime field), and the constant term is
    dropped.  Raises SplitCoverError when everything cancels, i.e. f was of
    the form a^p - a and the cover is disconnected.
    """
    p = f.p
    coeffs = list(f.coeffs)
    for e in range(len(coeffs) - 1, p - 1, -1):
        if e % p == 0 and coeffs[e]:
            coeffs[e // p] = (coeffs[e // p] + coeffs[e]) % p
            coeffs[e] = 0
    if coeffs:
        coeffs[0] = 0
    out = FpPoly(p, coeffs)
    if out.is_zero:
        raise SplitCoverError("cover is split: f reduces to a^p - a")
    return out
