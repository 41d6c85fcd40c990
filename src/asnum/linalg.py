"""Exact dense linear algebra over F_p, backed by numpy int64 arrays.

One forward Gaussian elimination with first-nonzero pivoting gives the rank
as its pivot count.  The matrices in this package stay at most a few thousand
square, so exactness and simplicity win over asymptotics.  All mod-p
reductions are on integers, never floats.  The elimination delays them: it
reduces only the column it searches for a pivot and, when a row below needs
clearing, the pivot row and the short vector of factors, and lets the rows
below run negative.  Each pivot lowers an entry at most once, by at most
(p-1)^2, so a rows x cols matrix needs no reduction at all in a dtype that
holds min(rows, cols) * (p-1)^2 + p.  The elimination therefore works on a
copy in the narrowest of int16 and int32 that does, and otherwise in int64,
where it reduces the rest once every INT64_MAX // (p-1)^2 updates, a period
fixed by p alone that no matrix within numutil.MAX_CELLS reaches for
p < 2^21.  In numpy an int64 % costs about ten times a subtraction, and
reducing every updated row was most of the elimination's work; the narrow
copy halves or quarters the bytes each update moves.

A single matrix is ranked by one body, coords_rank_nullity, which takes the
(row, col) coordinates and values of its nonzeros; rank_nullity hands it
those of a dense FpMatrix.  Before it eliminates, the body peels the pivots
that the zero pattern alone fixes (structured Gaussian elimination, after
LaMacchia and Odlyzko).  A zero row or column adds nothing to the rank.  A
column whose only nonzero sits in row r is a multiple of e_r, so column
operations clear the rest of row r, and rank(A) = 1 + rank(A without row r
and that column); the same holds for rows.  The obstruction matrices of the
minimal families are almost empty and peel to an empty core or one of at
most 4 x 4, so their rank costs O(nonzeros) instead of a walk over every
column.  A peeling round is one pass over the nonzeros and saves a row of
elimination per pivot, so the peel stops after a round whose pivots times
the column count fall below the nonzeros it scanned, and _echelon ranks the
core that is left.  Only that core is ever made dense, so a
matrix given in coordinate form costs O(nonzeros) when it is almost empty,
whatever its shape.

stack_ranks is a second, independent elimination for the survey engine: it
ranks a whole stack of small matrices at once, so numpy's per-call cost is
paid per column of the stack instead of per column of every matrix.  It
takes the stack in the package's one stack format, the sample axis last,
(rows, cols, N), as anumber.obstruction_stack builds it, so each row it
updates is one contiguous run per column.  It works on one copy in the
narrowest integer dtype that holds (p-1)^2 + p, and reduces by
a - p*(a // p) (numutil._reduce).  On a single matrix it is slower than
_echelon, so the single-matrix body keeps _echelon.
"""

import numpy as np

from .numutil import _reduce, check_cells, check_int64_sum, is_prime, narrowest_int_dtype


class FpMatrix:
    """Dense matrix over F_p; entries held reduced mod p in an integer array,
    int64 unless the package wraps a narrower build (_of_residues)."""

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
    def _of_residues(cls, p: int, a: np.ndarray) -> "FpMatrix":
        """Wrap a 2-D integer array of residues mod a prime p as is: no check,
        no copy.

        For the package's own builds, whose output is already reduced;
        rank_nullity copies the values into its int64 core, so a narrow
        dtype serves it as well.
        """
        m = cls.__new__(cls)
        m.p, m.a = p, a
        return m

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


def _check_headroom(p: int) -> None:
    """Raise HeadroomError unless _echelon stays exact in int64 at modulus p.

    _echelon forms products of two residues, up to (p-1)^2, and reduces its
    block once every INT64_MAX // (p-1)^2 updates; both need (p-1)^2 to fit
    int64, that is a period of at least 1.
    """
    check_int64_sum(1, (p - 1) ** 2, "elimination")


def _peel(r: np.ndarray, c: np.ndarray, shape) -> tuple[int, np.ndarray, np.ndarray]:
    """Pivots that the zero pattern fixes, and the coordinates left to eliminate.

    ``r`` and ``c`` are the distinct (row, col) coordinates of the nonzeros
    of a matrix of the given shape.  Returns (peeled_rank, r, c) with
    rank = peeled_rank + rank(core), where (r, c) are the coordinates that
    survive, in input order, and the core is the submatrix of the rows and
    columns that still hold one of them, in their original order: a
    coordinate survives exactly when both its row and its column do.  No arithmetic is done.  Each round
    is one pass over the coordinates.  It peels every singleton column, one
    pivot per row (another singleton column in that row is left zero), or,
    when there is none, every singleton row, one pivot per column.  The peel
    stops after a round whose pivots times the column count fall below the
    nonzeros it scanned: such a round costs more than the elimination steps
    it saves.
    """
    rows, cols = shape
    peeled = 0
    while r.size:
        # every singleton column goes, with one pivot per row it sits in
        dead_cols = np.bincount(c, minlength=cols) == 1
        single = dead_cols[c]
        if single.any():
            dead_rows = np.bincount(r[single], minlength=rows) > 0
            pivots = int(np.count_nonzero(dead_rows))
        else:
            dead_rows = np.bincount(r, minlength=rows) == 1
            single = dead_rows[r]
            if not single.any():
                break
            dead_cols = np.bincount(c[single], minlength=cols) > 0
            pivots = int(np.count_nonzero(dead_cols))
        peeled += pivots
        scanned = r.size
        keep = ~(dead_rows[r] | dead_cols[c])
        r, c = r[keep], c[keep]
        if pivots * cols < scanned:
            break
    return peeled, r, c


def _echelon(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` mod p: the pivot count of a forward elimination on a copy.

    The entries of ``a`` are residues in [0, p).  The copy is in the narrowest
    of int16 and int32 that holds min(rows, cols) * (p-1)^2 + p, else in
    int64.  Delayed reduction: at each column only the pivot-search slice is
    reduced mod p, and, when some row below needs clearing, the pivot row and
    the short vector of factors col[sel] * inv mod p.  The rows below take
    row -= factor * pivot_row with no % p; each pivot lowers an entry at most
    once, by at most (p-1)^2, so in int16 or int32 no entry ever leaves the
    dtype.  The block still to eliminate is reduced once every
    iinfo(dtype).max // (p-1)^2 updates (the period), which only int64 can
    reach: for p < 2^21 the int64 period exceeds 2^21, more updates than a
    matrix within numutil.MAX_CELLS has pivots, and at the edge of
    _check_headroom it is 1.  The pivot row is never read again, so moving it
    up is one copy of row r into its slot.  Forward elimination only:
    clearing above the pivots as well would cost the rank a full reduction it
    does not need.  The caller checks int64 headroom first (_check_headroom).
    """
    rows, cols = a.shape
    bound = min(rows, cols) * (p - 1) ** 2 + p
    dtype = narrowest_int_dtype(bound)
    a = a.astype(dtype)
    period = int(np.iinfo(dtype).max) // (p - 1) ** 2
    pending = 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[r:, c] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        piv = int(nz[0])
        sel = nz[1:]
        if sel.size:
            prow = a[r + piv, c + 1 :] % p
            fac = col[sel] * pow(int(col[piv]), -1, p) % p
        if piv:
            # the pivot row is never read again; row r takes its slot, and
            # needs no update there, being zero in column c
            a[r + piv, c + 1 :] = a[r, c + 1 :]
        if sel.size:
            if pending == period:
                a[r + 1 :, c + 1 :] %= p
                pending = 0
            a[r + sel, c + 1 :] -= fac[:, None] * prow
            pending += 1
        r += 1
    return r


def stack_ranks(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the matrices a[..., k] of a (rows, cols, N) stack of residues mod p.

    The sample axis is last, as obstruction_stack builds it, in any integer
    dtype.  ``a`` is not written to: the elimination runs on one C-order
    copy, column by column for the whole stack.  Each matrix picks its
    first nonzero row among those not yet used as pivots (masked argmax
    over axis 0), retires it through the free mask instead of swapping it
    up, and clears that column from its other free rows by
    cross-multiplication, lead * row - row[c] * pivot_row, which needs no
    inverse.  Only the union over the stack of rows that need clearing is
    updated; updating the whole block instead was slower.  Both products are
    residue products, at most (p-1)^2, so the copy is in the narrowest
    integer dtype that holds (p-1)^2 + p (numutil.narrowest_int_dtype), and
    each update is reduced by numutil._reduce, whose floor keeps it in
    [0, p) for negative a too.
    """
    # both products and their difference stay within (p-1)^2 in magnitude
    check_int64_sum(1, (p - 1) ** 2, "stacked elimination")
    rows, cols, n = a.shape
    a = a.astype(narrowest_int_dtype((p - 1) ** 2 + p), order="C")
    ranks = np.zeros(n, dtype=np.int64)
    free = np.ones((rows, n), dtype=bool)
    at = np.arange(n)
    # the pivot rows' entries are a[piv[k], j, k] = flat[piv[k] * cols * N + pos[j, k]]
    flat, pos = a.reshape(-1), np.arange(cols)[:, None] * n + at
    for c in range(cols):
        cand = free & (a[:, c] != 0)
        has = cand.any(axis=0)
        if not has.any():
            continue
        piv = cand.argmax(axis=0)
        ranks += has
        free[piv[has], at[has]] = False
        cand &= free
        need = np.flatnonzero(cand.any(axis=1))
        if need.size == 0:
            continue
        prow = flat[piv * (cols * n) + pos[c:]]
        lead = np.where(has, prow[0], 1)
        block = a[need, c:]
        fac = block[:, 0] * cand[need]
        block *= lead
        block -= fac[:, None] * prow
        a[need, c:] = _reduce(block, p)
    return ranks


def rank_nullity(m: FpMatrix) -> tuple[int, int]:
    """Rank and nullity of ``m``; rank + nullity = cols.

    Hands the coordinates and values of m's nonzeros to coords_rank_nullity.
    """
    # np.nonzero on a 2-D int64 array is several times slower
    flat = np.flatnonzero(m.a != 0)
    r, c = np.divmod(flat, m.cols)
    return coords_rank_nullity(m.p, (r, c, m.a.ravel()[flat]), m.a.shape)


def coords_rank_nullity(p: int, coords, shape) -> tuple[int, int]:
    """Rank and nullity of a matrix over F_p given by its nonzero coordinates.

    ``coords`` is (rows, cols, values): distinct coordinates, each with a
    nonzero residue mod p, of a matrix of the given shape.  Checks int64
    headroom first, whatever the zero pattern, peels (_peel), and makes only
    the core dense, within numutil.MAX_CELLS, for _echelon: the work follows
    the nonzeros and the core, never the full shape.  When the peel leaves
    no coordinate, as for almost every family member, the peeled pivots are
    the rank and nothing is made dense.
    """
    _check_headroom(p)
    r, c, v = coords
    peeled, live_r, live_c = _peel(r, c, shape)
    if not live_r.size:
        return peeled, shape[1] - peeled
    live_rows = np.bincount(live_r, minlength=shape[0]) > 0
    live_cols = np.bincount(live_c, minlength=shape[1]) > 0
    # the survivors, in input order, are the coordinates whose row and column
    # are both live; the cumulative counts renumber those from 0
    row_at, col_at = np.cumsum(live_rows) - 1, np.cumsum(live_cols) - 1
    size = (np.count_nonzero(live_rows), np.count_nonzero(live_cols))
    check_cells(*size, "elimination core")
    core = np.zeros(size, dtype=np.int64)
    core[row_at[live_r], col_at[live_c]] = v[live_rows[r] & live_cols[c]]
    rank = peeled + _echelon(core, p)
    return rank, shape[1] - rank
