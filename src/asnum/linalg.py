"""Exact dense linear algebra over F_p, backed by numpy int64 arrays.

One forward Gaussian elimination with first-nonzero pivoting serves both
the rank (its pivot count) and the kernel (back-substitution on its
row-echelon form).  The matrices in this package stay at most a few thousand
square, so exactness and simplicity win over asymptotics.  All mod-p
reductions are on integers, never floats.

stack_ranks is a second, independent elimination for the survey engine: it
ranks a whole stack of small matrices at once, so numpy's per-call cost is
paid per column of the stack instead of per column of every matrix.  On a
single matrix it is slower than _echelon, so rank_nullity and kernel_basis
keep _echelon.
"""

import numpy as np

from .numutil import check_int64_sum, is_prime


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
    # a scaled row and a row minus a multiple stay within (p-1)^2 in magnitude
    check_int64_sum(1, (p - 1) ** 2, "elimination")
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


def stack_ranks(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the matrices a[k] of an (N, rows, cols) stack of residues mod p.

    Eliminates in place, column by column for the whole stack: each matrix
    picks its first nonzero row among those not yet used as pivots (masked
    argmax), retires it through the free mask instead of swapping it up, and
    clears that column from its other free rows by cross-multiplication,
    lead * row - row[c] * pivot_row, which needs no inverse.  Only the union
    over the stack of rows that need clearing is touched.
    """
    # both products and their difference stay within (p-1)^2 in magnitude
    check_int64_sum(1, (p - 1) ** 2, "stacked elimination")
    n, rows, cols = a.shape
    ranks = np.zeros(n, dtype=np.int64)
    free = np.ones((n, rows), dtype=bool)
    at = np.arange(n)
    for c in range(cols):
        cand = free & (a[:, :, c] != 0)
        has = cand.any(axis=1)
        if not has.any():
            continue
        piv = cand.argmax(axis=1)
        ranks += has
        free[at[has], piv[has]] = False
        cand &= free
        need = np.flatnonzero(cand.any(axis=0))
        if need.size == 0:
            continue
        prow = a[at, piv, c:]
        lead = np.where(has, prow[:, 0], 1)
        block = a[:, need, c:]
        fac = block[:, :, 0] * cand[:, need]
        block *= lead[:, None, None]
        block -= fac[:, :, None] * prow[:, None, :]
        block %= p
        a[:, need, c:] = block
    return ranks


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
