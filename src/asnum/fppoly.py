"""Dense polynomials over F_p, their text grammar, and normalization of f.

Coefficients are stored by exponent and kept trimmed, so the last entry is
nonzero whenever the polynomial is nonzero; the zero polynomial has an empty
coefficient tuple and degree -inf.  Arithmetic is on Python ints, so every
product is exact for any p.  The package holds a differential h(x) dx on
the line as its polynomial h; there is no differential class.  The base
field is always the prime field, so c*x^(p*i) is the p-th power of c*x^i
and normalization folds it down.
"""

import re

from .numutil import check_cells, is_prime

NEG_INF = float("-inf")


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
    ``-``; whitespace is ignored and coefficients are reduced mod p.  The
    dense coefficient list must stay within numutil.MAX_CELLS, checked
    before it is allocated, so an exponent at or above MAX_CELLS raises
    ValueError even when normalization would fold it down (x^(3^17) at
    p = 3 is the cover of x).
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
    check_cells(1, max(coeffs) + 1, "polynomial")
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return FpPoly(p, out)


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
    top = len(coeffs) - 1
    # the multiples of p from the top down to p
    for e in range(top - top % p, p - 1, -p):
        if coeffs[e]:
            coeffs[e // p] = (coeffs[e // p] + coeffs[e]) % p
            coeffs[e] = 0
    if coeffs:
        coeffs[0] = 0
    out = FpPoly(p, coeffs)
    if out.is_zero:
        raise SplitCoverError("cover is split: f reduces to a^p - a")
    return out
