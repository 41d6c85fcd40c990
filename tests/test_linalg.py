"""Exact F_p linear algebra: rank, nullity, kernels."""

import numpy as np
import pytest

from asnum.linalg import FpMatrix, kernel_basis, rank_nullity, stack_ranks
from asnum.numutil import HeadroomError


def test_rank_nullity_examples():
    assert rank_nullity(FpMatrix(5, np.eye(3))) == (3, 0)
    assert rank_nullity(FpMatrix(3, np.zeros((2, 4)))) == (0, 4)
    assert rank_nullity(FpMatrix(5, [[1, 2], [2, 4]])) == (1, 1)


def test_rank_handles_mod_p_dependence():
    # rows independent over the rationals, dependent mod 3
    m = FpMatrix(3, [[1, 1], [4, 4]])
    assert rank_nullity(m) == (1, 1)


def test_kernel_basis_examples():
    assert kernel_basis(FpMatrix(3, np.eye(4))) == []
    basis = kernel_basis(FpMatrix(3, np.zeros((1, 2))))
    assert len(basis) == 2
    (v,) = kernel_basis(FpMatrix(5, [[1, 1]]))
    assert (np.array([[1, 1]]) @ v) % 5 == 0
    assert v.any()


def test_kernel_vectors_annihilate_and_are_independent():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            m = FpMatrix(p, rng.integers(0, p, size=(rows, cols)))
            basis = kernel_basis(m)
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


def test_elimination_checks_int64_headroom():
    # p = 2^32 + 15: one product of two residues passes 2^63; unchecked, the
    # rank came out 2, though the second row is minus the first
    p = 2**32 + 15
    m = FpMatrix(p, [[p - 1, p - 2], [1, 2]])
    with pytest.raises(HeadroomError, match="elimination"):
        rank_nullity(m)
    with pytest.raises(HeadroomError, match="elimination"):
        kernel_basis(m)
    with pytest.raises(HeadroomError, match="stacked elimination"):
        stack_ranks(m.a[None].copy(), p)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_stack_ranks_match_rank_nullity(p):
    rng = np.random.default_rng(p)
    for rows, cols in ((0, 3), (3, 0), (1, 1), (4, 4), (5, 9), (9, 5), (12, 12)):
        for inner in (1, 3, max(rows, cols)):
            # products of random factors give every rank up to min(rows, cols)
            left = rng.integers(0, p, size=(30, rows, inner))
            right = rng.integers(0, p, size=(30, inner, cols))
            stack = (left @ right) % p
            stack[::7] = 0
            expect = [rank_nullity(FpMatrix(p, m))[0] for m in stack]
            assert stack_ranks(stack, p).tolist() == expect, (rows, cols, inner)


def test_empty_matrix_edges():
    assert rank_nullity(FpMatrix(5, np.zeros((0, 3)))) == (0, 3)
    assert rank_nullity(FpMatrix(5, np.zeros((3, 0)))) == (0, 0)
    assert len(kernel_basis(FpMatrix(5, np.zeros((0, 2))))) == 2


def test_validation():
    with pytest.raises(ValueError):
        FpMatrix(9, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(3, [1, 2, 3])
