"""Bound combinatorics: exact values, counting oracle, symmetry, closed forms."""

import math
from fractions import Fraction

import pytest

from asnum.bounds import (
    RamificationData,
    block_count,
    level_sum,
    lower_bound,
    lower_bound_p3,
    lower_bound_p5_5n1,
    lower_bound_single,
    threshold,
)
from asnum.numutil import ceil_div

SMALL_PD = [(p, d) for p in (2, 3, 5, 7) for d in range(1, 41) if d % p != 0]


def test_threshold_values():
    assert threshold(3, 17, 1, 1) == Fraction(17, 3)
    assert threshold(5, 11, 2, 2) == Fraction(22, 5)
    assert threshold(3, 4, 2, 0) == 8


def test_threshold_rejects_bad_indices():
    with pytest.raises(ValueError):
        threshold(5, 11, 1, 2)  # i < j
    with pytest.raises(ValueError):
        threshold(5, 11, 5, 2)  # i > p - 1
    with pytest.raises(ValueError):
        threshold(5, 11, 2, -1)
    with pytest.raises(ValueError):
        threshold(5, 10, 2, 1)  # p | d
    with pytest.raises(ValueError):
        threshold(4, 3, 1, 1)  # p not prime


def test_block_count_values():
    assert block_count(3, 17, 2, 1) == 11 - 7 == 4
    assert block_count(5, 11, 2, 2) == 4
    assert block_count(5, 1, 4, 2) == 0


def brute_force_block_count(p: int, d: int, i: int, j: int) -> int:
    """Independent count of {n : p | n, threshold < n <= i*d} by enumeration.

    Quadratic in d and deliberately naive.
    """
    t = threshold(p, d, i, j)
    return sum(1 for n in range(p, i * d + 1, p) if n > t)


def test_block_count_matches_enumeration():
    for p, d in SMALL_PD:
        for j in range(p):
            for i in range(j, p):
                assert block_count(p, d, i, j) == brute_force_block_count(p, d, i, j), (
                    p, d, i, j,
                )


def test_level_sum_values():
    assert level_sum(5, 11, 2) == 10
    assert level_sum(5, 11, 3) == 10
    assert level_sum(5, 1, 2) == 0


def test_lower_bound_table_captions():
    assert lower_bound_single(3, 17) == 8
    assert lower_bound_single(5, 11) == 10
    assert lower_bound_single(7, 12) == 18
    assert lower_bound_single(11, 7) == 18
    assert lower_bound_single(3, 14) == 6


def test_lower_bound_additive_over_branch_points():
    assert lower_bound(RamificationData(3, (17, 14))) == 14
    assert lower_bound(RamificationData(3, (17,))) == 8
    assert lower_bound(RamificationData(5, (1,))) == 0


def test_lower_bound_is_the_max_over_j():
    for p, d in SMALL_PD:
        best = max(level_sum(p, d, j) for j in range(1, p))
        assert lower_bound_single(p, d) == best, (p, d)


def test_lower_bound_p2_uses_level_one():
    for d in range(1, 30, 2):
        assert lower_bound_single(2, d) == level_sum(2, d, 1)


def test_symmetry_in_j():
    for p, d in SMALL_PD:
        for j in range(p):
            if j == 0:
                # L_p is out of range; the j = 0 partner is the full sum
                continue
            assert level_sum(p, d, j) == level_sum(p, d, p - j), (p, d, j)


def test_monotone_on_upper_range():
    for p, d in SMALL_PD:
        if p == 2:
            continue
        for j in range((p + 1) // 2, p - 1):
            assert level_sum(p, d, j) >= level_sum(p, d, j + 1), (p, d, j)


def test_closed_form_p3_values():
    assert lower_bound_p3(17) == 8
    assert lower_bound_p3(4) == 2
    assert lower_bound_p3(14) == 6


def test_closed_form_p3_agrees_with_lower_bound():
    for d in range(1, 301):
        if d % 3 == 0:
            continue
        assert lower_bound_p3(d) == lower_bound_single(3, d), d


def test_closed_form_p3_rejects_multiples_of_three():
    with pytest.raises(ValueError):
        lower_bound_p3(9)


def test_closed_form_p5_values():
    assert lower_bound_p5_5n1(3) == 15
    assert lower_bound_p5_5n1(2) == 10
    assert lower_bound_p5_5n1(5) == 24


def test_closed_form_p5_agrees_with_lower_bound():
    for n in range(1, 61):
        assert lower_bound_p5_5n1(n) == lower_bound_single(5, 5 * n + 1), n


def test_closed_form_p5_residue_pattern():
    # L({5n+1}) as a function of n mod 5: 24k, 24k+6, 24k+10, 24k+15, 24k+20
    offsets = {0: 0, 1: 6, 2: 10, 3: 15, 4: 20}
    for k in range(12):
        for r, off in offsets.items():
            n = 5 * k + r
            if n == 0:
                continue
            assert lower_bound_p5_5n1(n) == 24 * k + off, n


def test_p5_split_by_residue_mod_25():
    # L({25m + delta}) = 24m + ceil(4delta/5) + ceil(3delta/5)
    #                        - ceil(3delta/25) - ceil(8delta/25)
    for d in range(1, 401):
        if d % 5 == 0:
            continue
        m, delta = divmod(d, 25)
        expected = (
            24 * m
            + ceil_div(4 * delta, 5)
            + ceil_div(3 * delta, 5)
            - ceil_div(3 * delta, 25)
            - ceil_div(8 * delta, 25)
        )
        assert lower_bound_single(5, d) == expected, d


def test_ceiling_identity_p3():
    for d in range(1, 1001, 3):
        assert d % 3 == 1
        c = ceil_div(d, 3)
        lhs = ceil_div(2 * d, 9) + ceil_div(c - 2, 3) + ceil_div(c - 1, 3)
        assert lhs == ceil_div(4 * d, 9), d


def hermite_floor_sum(x: Fraction, n: int) -> int:
    """Right side of Hermite's identity: sum of floor(x + i/n) for i < n."""
    return sum(math.floor(x + Fraction(i, n)) for i in range(n))


def test_hermite_identity_on_p2_denominators():
    for p in (3, 5, 7, 11, 13):
        for num in range(-40, 41):
            x = Fraction(num, p * p)
            assert math.floor(p * x) == hermite_floor_sum(x, p), (p, num)


def test_ramification_data_validation():
    with pytest.raises(ValueError):
        RamificationData(3, ())
    with pytest.raises(ValueError):
        RamificationData(3, (6,))
    with pytest.raises(ValueError):
        RamificationData(3, (0,))
    with pytest.raises(ValueError):
        RamificationData(6, (1,))
    data = RamificationData(3, [17, 14])
    assert data.invariants == (17, 14)
