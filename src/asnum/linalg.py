"""Exact dense linear algebra over F_p, backed by numpy int64 arrays.

One forward Gaussian elimination with first-nonzero pivoting serves both
the rank (its pivot count) and the kernel (back-substitution on its
row-echelon form).  The matrices in this package stay at most a few thousand
square, so exactness and simplicity win over asymptotics.  All mod-p
reductions are on integers, never floats.
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


def _echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-echelon form of a copy of ``a`` (pivots scaled to 1) and its pivot columns.

    Forward elimination only: clearing above the pivots as well would cost
    the rank a full reduction it does not need.
    """
    a = a.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
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
        pivots.append(c)
    return a, pivots


def rank_nullity(m: FpMatrix) -> tuple[int, int]:
    """Rank and nullity of ``m``; rank + nullity = cols."""
    rank = len(_echelon(m.a, m.p)[1])
    return rank, m.cols - rank


def kernel_basis(m: FpMatrix) -> list[np.ndarray]:
    """A basis of the right kernel, one int64 vector per free column.

    The vector for free column f has a 1 at f, 0 at the other free columns,
    and its pivot entries solved by back-substitution, pivot rows bottom-up;
    the sums are taken in Python ints, so they cannot overflow.
    """
    ech, pivots = _echelon(m.a, m.p)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    v = np.zeros((m.cols, len(free)), dtype=object)
    v[free, range(len(free))] = 1
    ech = ech.astype(object)
    for row in reversed(range(len(pivots))):
        pc = pivots[row]
        v[pc] = -(ech[row, pc + 1 :] @ v[pc + 1 :]) % m.p
    return [v[:, k].astype(np.int64) for k in range(len(free))]
