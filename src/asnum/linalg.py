"""Exact dense linear algebra over F_p, backed by numpy int64 arrays.

Plain Gaussian elimination with first-nonzero pivoting; the matrices in this
package stay at most a few thousand square, so exactness and simplicity win
over asymptotics.  All mod-p reductions are on integers, never floats.
"""

import numpy as np

from .numutil import is_prime


class FpMatrix:
    """Dense matrix over F_p; entries held reduced mod p in an int64 array."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        self.p = p
        self.a = a % p

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return f"FpMatrix(p={self.p}, shape={self.a.shape})"


def _row_echelon_rank(a: np.ndarray, p: int) -> int:
    """Rank via forward elimination on a copy of ``a``."""
    a = a.copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        below = np.flatnonzero(a[r + 1 :, c])
        if below.size:
            sel = r + 1 + below
            a[sel, c:] = (a[sel, c:] - np.outer(a[sel, c], a[r, c:])) % p
        r += 1
    return r


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and the list of pivot columns."""
    a = a.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_nullity(m: FpMatrix) -> tuple[int, int]:
    """Rank and nullity of ``m``; rank + nullity = cols."""
    rank = _row_echelon_rank(m.a, m.p)
    return rank, m.cols - rank


def kernel_basis(m: FpMatrix) -> list[np.ndarray]:
    """A basis of the right kernel, one int64 vector per free column."""
    rref, pivots = _rref(m.a, m.p)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = np.zeros(m.cols, dtype=np.int64)
        v[free] = 1
        for row, pc in enumerate(pivots):
            v[pc] = (-int(rref[row, free])) % m.p
        basis.append(v)
    return basis

