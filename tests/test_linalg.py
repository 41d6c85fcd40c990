"""Exact F_p linear algebra: rank and nullity; the reference's kernel vectors."""

import math
import tracemalloc

import numpy as np
import pytest

import asnum.linalg
from asnum.anumber import cartier_matrix
from asnum.curve import BasicCurve
from asnum.experiments import sample_poly
from asnum.linalg import (
    FpMatrix,
    _echelon,
    _peel,
    coords_rank_nullity,
    rank_nullity,
    stack_ranks,
)
from asnum.numutil import INT64_MAX, HeadroomError, is_prime, narrowest_int_dtype
from reference import kernel_vectors


def sparse(rng, p, rows, cols, density):
    """A random rows x cols matrix mod p whose entries are nonzero with probability density."""
    mask = rng.random((rows, cols)) < density
    return np.where(mask, rng.integers(1, p, size=(rows, cols)), 0)


def coords(m):
    """The nonzero coordinates (rows, cols, values) of a dense matrix."""
    r, c = np.nonzero(m)
    return r, c, m[r, c]


def peel(m):
    """The coordinate peel of a dense matrix: (peeled, core)."""
    r, c, _ = coords(m)
    peeled, r, c = _peel(r, c, m.shape)
    return peeled, m[np.ix_(np.unique(r), np.unique(c))]


# the two entry points to one peel, a dense matrix or its own coordinates;
# the peel tests run each case through both
RANKS = (
    lambda p, m: rank_nullity(FpMatrix(p, m)),
    lambda p, m: coords_rank_nullity(p, coords(np.asarray(m) % p), np.shape(m)),
)


def test_rank_nullity_examples():
    assert rank_nullity(FpMatrix(5, np.eye(3))) == (3, 0)
    assert rank_nullity(FpMatrix(3, np.zeros((2, 4)))) == (0, 4)
    assert rank_nullity(FpMatrix(5, [[1, 2], [2, 4]])) == (1, 1)


def test_rank_handles_mod_p_dependence():
    # rows independent over the rationals, dependent mod 3
    m = FpMatrix(3, [[1, 1], [4, 4]])
    assert rank_nullity(m) == (1, 1)


def test_kernel_vectors_examples():
    assert kernel_vectors(np.eye(4, dtype=np.int64), 3) == []
    assert len(kernel_vectors(np.zeros((1, 2), dtype=np.int64), 3)) == 2
    assert len(kernel_vectors(np.zeros((0, 2), dtype=np.int64), 5)) == 2
    assert kernel_vectors(np.array([[1, 1]]), 5) == [[4, 1]]


def test_kernel_vectors_annihilate_and_are_independent():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            m = FpMatrix(p, rng.integers(0, p, size=(rows, cols)))
            basis = kernel_vectors(m.a, p)
            rank, nullity = rank_nullity(m)
            assert len(basis) == nullity
            for v in basis:
                assert not ((m.a @ v) % p).any()
            if basis:
                stacked = FpMatrix(p, np.array(basis))
                assert rank_nullity(stacked)[0] == len(basis)


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 13):
        for _ in range(25):
            rows, cols = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            m = rng.integers(0, p, size=(rows, cols))
            assert rank_nullity(FpMatrix(p, m))[0] == rank_nullity(FpMatrix(p, m.T))[0]
    # sparse inputs peel; the peel tries columns before rows, so a matrix and
    # its transpose take different peels to the same rank
    rng = np.random.default_rng(12)
    for p in (2, 3, 5, 13):
        for _ in range(25):
            rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            m = sparse(rng, p, rows, cols, rng.choice([0.05, 0.1, 0.2]))
            assert rank_nullity(FpMatrix(p, m))[0] == rank_nullity(FpMatrix(p, m.T))[0]


def test_elimination_checks_int64_headroom():
    # p = 2^32 + 15: one product of two residues passes 2^63; unchecked, the
    # rank came out 2, though the second row is minus the first
    p = 2**32 + 15
    m = FpMatrix(p, [[p - 1, p - 2], [1, 2]])
    with pytest.raises(HeadroomError, match="elimination"):
        rank_nullity(m)
    with pytest.raises(HeadroomError, match="stacked elimination"):
        stack_ranks(m.a[..., None].copy(), p)


# the largest prime with (p-1)^2 <= INT64_MAX, where _echelon reduces its block
# after every update, and one whose period is 8 updates
EDGE_P = 3037000493
PERIOD_8_P = 1073741789


def python_int_rank(m, p):
    """Rank by the reference's Python-int elimination, which shares no code with linalg."""
    return m.shape[1] - len(kernel_vectors(m, p))


# _echelon's copy is int16 while min(rows, cols) * (p-1)^2 + p fits, else
# int32, else int64: at p = 41 the shapes below cross int16 -> int32, at
# p = 10007 int32 -> int64
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 41, 10007, PERIOD_8_P, EDGE_P])
def test_echelon_matches_a_python_int_rank(p):
    rng = np.random.default_rng(500 + p % 1000)
    for rows, cols in ((1, 1), (5, 9), (9, 5), (24, 24), (30, 18)):
        for inner in (1, 4, min(rows, cols), None):
            if inner is None:
                m = rng.integers(0, p, size=(rows, cols))
            else:
                # a product of random factors, in Python ints: rank at most inner
                left = rng.integers(0, p, size=(rows, inner)).astype(object)
                right = rng.integers(0, p, size=(inner, cols)).astype(object)
                m = ((left @ right) % p).astype(np.int64)
            before = m.copy()
            assert _echelon(m, p) == python_int_rank(m, p), (rows, cols, inner)
            assert np.array_equal(m, before)


def test_narrowest_int_dtype_edges():
    # the one dtype rule of _echelon and of both dense obstruction-build steps
    assert narrowest_int_dtype(0) is np.int16
    assert narrowest_int_dtype(2**15 - 1) is np.int16
    assert narrowest_int_dtype(2**15) is np.int32
    assert narrowest_int_dtype(2**31 - 1) is np.int32
    assert narrowest_int_dtype(2**31) is np.int64


def test_echelon_eliminates_in_a_narrow_copy():
    # at (5, 499) the Cartier matrix is 996 x 996 and 996 * 4^2 + 5 fits
    # int16, so the copy takes a quarter of the int64 matrix's bytes
    curve = BasicCurve.from_poly(5, sample_poly(5, 499, np.random.default_rng(17)))
    m = cartier_matrix(curve)
    expect = _echelon(m.a, 5)
    before = m.a.copy()
    tracemalloc.start()
    try:
        assert _echelon(m.a, 5) == expect
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * m.a.nbytes
    assert np.array_equal(m.a, before)


def test_headroom_edge_prime_is_ranked():
    # (EDGE_P - 1)^2 fits int64, so it ranks; 2^32 + 15 does not
    # (test_elimination_checks_int64_headroom)
    edge = math.isqrt(INT64_MAX) + 1
    assert is_prime(EDGE_P) and not any(map(is_prime, range(EDGE_P + 1, edge + 1)))
    assert [INT64_MAX // (q - 1) ** 2 for q in (EDGE_P, PERIOD_8_P, edge + 1)] == [1, 8, 0]
    m = np.array([[EDGE_P - 1, EDGE_P - 2, 5], [1, 2, EDGE_P - 5], [3, 3, 3]])
    assert rank_nullity(FpMatrix(EDGE_P, m)) == (2, 1)
    assert python_int_rank(m, EDGE_P) == 2


def test_headroom_checked_before_the_peel():
    # diag(p - 1, 1) peels to an empty core, so no product is ever formed;
    # the precondition still holds for every matrix at this p
    p = 2**32 + 15
    m = np.array([[p - 1, 0], [0, 1]])
    assert peel(m)[1].size == 0
    for rank in RANKS:
        with pytest.raises(HeadroomError, match="elimination"):
            rank(p, m)


def test_core_size_checked_before_densifying(monkeypatch):
    # a cycle through 8193 rows and columns: nothing peels, so the core is
    # the whole 8193 x 8193 matrix, just over the limit; with np.zeros
    # unavailable in asnum.linalg, a core made before the check fails fast
    class NoZeros:
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, *args, **kwargs):
            raise AssertionError("np.zeros called before the size check")

    monkeypatch.setattr(asnum.linalg, "np", NoZeros())
    n = 2**13 + 1
    r = np.arange(n).repeat(2)
    c = (r + np.tile([0, 1], n)) % n
    with pytest.raises(ValueError, match=f"{n} x {n} exceeds the limit"):
        coords_rank_nullity(5, (r, c, np.ones(2 * n, dtype=np.int64)), (n, n))


def test_fully_peeled_matrix_skips_the_elimination(monkeypatch):
    # a permutation pattern peels to nothing, so the peeled pivots are the
    # whole rank: no core is ranked, and _echelon never runs
    def no_echelon(a, p):
        raise AssertionError("_echelon called on an empty core")

    monkeypatch.setattr(asnum.linalg, "_echelon", no_echelon)
    n = 60
    rng = np.random.default_rng(23)
    r, c = np.arange(n), rng.permutation(n)
    v = rng.integers(1, 7, size=n)
    assert coords_rank_nullity(7, (r, c, v), (n, n + 3)) == (n, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_peel_matches_echelon_on_sparse_matrices(p):
    rng = np.random.default_rng(100 + p)
    for rows, cols in ((0, 5), (5, 0), (1, 1), (6, 6), (3, 17), (17, 3), (40, 40)):
        for rank in RANKS:
            assert rank(p, np.zeros((rows, cols), dtype=np.int64)) == (0, cols)
        for density in (0.02, 0.08, 0.2, 0.5):
            for _ in range(4):
                m = sparse(rng, p, rows, cols, density)
                expect = _echelon(m, p)
                peeled, core = peel(m)
                assert peeled + _echelon(core, p) == expect
                assert [rank(p, m)[0] for rank in RANKS] == [expect, expect]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_peel_planted_singletons(p):
    rng = np.random.default_rng(200 + p)
    for _ in range(10):
        # columns 3.. hold no zero, so the only singletons are the planted ones:
        # columns 0 and 1 share row 3, column 2 sits alone in row 7; row 9 is zero
        m = np.zeros((12, 15), dtype=np.int64)
        m[:, 3:] = rng.integers(1, p, size=(12, 12))
        m[3, 0], m[3, 1], m[7, 2] = rng.integers(1, p, size=3)
        m[9] = 0
        # one pivot per row, then one round of 2 pivots is worth less than
        # the scan, so the rest is the core
        peeled, core = peel(m)
        assert (peeled, core.shape) == (2, (9, 12))
        expect = _echelon(m, p)
        assert [rank(p, m)[0] for rank in RANKS] == [expect, expect]
        # transposed, there is no singleton column: the rows peel, one pivot
        # per column, and the zero row is a zero column
        peeled, core = peel(m.T)
        assert (peeled, core.shape) == (2, (12, 9))
        assert [rank(p, m.T)[0] for rank in RANKS] == [expect, expect]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_peel_stops_on_a_chain_of_one_pivot_rounds(p):
    # upper bidiagonal: only column 0 is a singleton, and peeling it leaves
    # the same shape again.  One pivot against n columns is worth less than a
    # scan of 2n - 1 nonzeros, so the peel stops and _echelon ranks the rest.
    rng = np.random.default_rng(300 + p)
    n = 30
    m = np.diag(rng.integers(1, p, size=n)) + np.diag(rng.integers(1, p, size=n - 1), 1)
    peeled, core = peel(m)
    assert (peeled, core.shape) == (1, (n - 1, n - 1))
    assert [rank(p, m) for rank in RANKS] == [(n, 0), (n, 0)]
    m[n // 2, n // 2] = 0
    expect = _echelon(m, p)
    assert [rank(p, m)[0] for rank in RANKS] == [expect, expect]


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_stack_ranks_match_rank_nullity(p):
    rng = np.random.default_rng(p)
    for rows, cols in ((0, 3), (3, 0), (1, 1), (4, 4), (5, 9), (9, 5), (12, 12)):
        for inner in (1, 3, max(rows, cols)):
            # products of random factors give every rank up to min(rows, cols)
            left = rng.integers(0, p, size=(30, rows, inner))
            right = rng.integers(0, p, size=(30, inner, cols))
            # (rows, cols, N), a strided view: stack_ranks takes any layout
            stack = np.moveaxis((left @ right) % p, 0, -1)
            stack[..., ::7] = 0
            expect = [rank_nullity(FpMatrix(p, m))[0] for m in np.moveaxis(stack, -1, 0)]
            assert stack_ranks(stack, p).tolist() == expect, (rows, cols, inner)


# stack_ranks' copy is int16 while (p-1)^2 + p fits, else int32, else int64:
# 181 and 191 are the primes on each side of the int16 -> int32 edge
@pytest.mark.parametrize("p, dtype", [(181, np.int16), (191, np.int32), (EDGE_P, np.int64)])
def test_stack_ranks_dtype_edges(p, dtype, monkeypatch):
    assert narrowest_int_dtype((p - 1) ** 2 + p) is dtype
    rng = np.random.default_rng(p % 1000)
    for rows, cols in ((4, 4), (5, 9), (9, 5), (12, 12)):
        for inner in (1, 3, max(rows, cols)):
            # products in Python ints: at EDGE_P they pass int64
            left = rng.integers(0, p, size=(12, rows, inner)).astype(object)
            right = rng.integers(0, p, size=(12, inner, cols)).astype(object)
            stack = np.moveaxis((left @ right) % p, 0, -1).astype(np.int64, order="C")
            stack[..., ::5] = 0
            before = stack.copy()
            expect = [rank_nullity(FpMatrix(p, m))[0] for m in np.moveaxis(stack, -1, 0)]
            assert stack_ranks(stack, p).tolist() == expect, (rows, cols, inner)
            assert np.array_equal(stack, before)
            with monkeypatch.context() as m:
                m.setattr(asnum.linalg, "narrowest_int_dtype", lambda bound: np.int64)
                assert stack_ranks(stack, p).tolist() == expect, (rows, cols, inner)
                assert np.array_equal(stack, before)


def test_empty_matrix_edges():
    for rank in RANKS:
        assert rank(5, np.zeros((0, 3), dtype=np.int64)) == (0, 3)
        assert rank(5, np.zeros((3, 0), dtype=np.int64)) == (0, 0)


def test_validation():
    with pytest.raises(ValueError):
        FpMatrix(9, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(3, [1, 2, 3])
