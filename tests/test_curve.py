"""Curve model: derived per-level data, genus, matrix layout, edge degrees."""

import copy
import dataclasses
import pickle

import pytest

from asnum.curve import LAYOUT_CACHE, BasicCurve, Layout, layout
from asnum.fppoly import FpPoly, SplitCoverError, parse_poly
from reference import domain_basis


def make(p, text):
    return BasicCurve.from_poly(p, parse_poly(text, p))


def test_worked_example_d11():
    c = make(5, "x^11")
    assert c.d == 11
    assert c.reg_bound == (7, 5, 3, 1, -2)
    assert c.comp_bound == (42, 31, 20, 9, -2)
    assert c.genus == 20
    assert c.dim_domain == 18
    assert c.slot_start == (9, 9, 4, 4, None)
    assert c.slot_count == (7, 5, 4, 2, 0)
    assert c.dim_obstruction == 18


def test_level_exponent_counts_d11():
    c = make(5, "x^11")
    assert c.col_start == (0, 7, 12, 16, 18, 18)
    assert c.row_start == (0, 7, 12, 16, 18, 18)
    assert len(domain_basis(c)) == 18


def test_generic_5n_plus_1_bounds():
    for n in (1, 2, 3, 7, 12):
        c = make(5, f"x^{5 * n + 1}")
        assert c.reg_bound == (4 * n - 1, 3 * n - 1, 2 * n - 1, n - 1, -2)


def test_dim_domain_table_for_5n_plus_1():
    # 40k, 40k+10, 40k+18, 40k+26, 40k+34 as n runs through 5k + 0..4
    offsets = {0: 0, 1: 10, 2: 18, 3: 26, 4: 34}
    for k in range(5):
        for r, off in offsets.items():
            n = 5 * k + r
            if n == 0:
                continue
            c = make(5, f"x^{5 * n + 1}")
            assert c.dim_domain == 40 * k + off, n


def test_genus_equals_monomial_count():
    for p in (2, 3, 5, 7, 11):
        for d in range(1, 61):
            if d % p == 0:
                continue
            c = make(p, f"x^{d}")
            assert c.genus == (p - 1) * (d - 1) // 2
            assert c.genus == sum(
                max(c.reg_bound[i] + 1, 0) for i in range(p)
            ), (p, d)


def test_dim_domain_closed_form_matches_enumeration():
    # every layout offset against a count: columns of the reference basis,
    # rows of the slot counts
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 101):
            if d % p == 0:
                continue
            c = make(p, f"x^{d}")
            levels = [i for i, _ in domain_basis(c)]
            assert c.col_start == tuple(
                sum(level < i for level in levels) for i in range(p + 1)
            ), (p, d)
            assert c.row_start == tuple(sum(c.slot_count[:i]) for i in range(p + 1))
            assert c.dim_domain == len(domain_basis(c)), (p, d)
            assert c.dim_obstruction == sum(c.slot_count), (p, d)


def test_live_layout_matches_enumeration():
    # the degree bound from the reference basis, one (level, exponent) at a
    # time: a column x^j of level i adds (-f)^(i-t) x^j, of degree
    # j + (i - t) d, to level t
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 101):
            if d % p == 0:
                continue
            c = make(p, f"x^{d}")
            basis = domain_basis(c)
            bound = tuple(
                max((j + (i - t) * d for i, j in basis if i > t), default=-1)
                for t in range(p)
            )
            assert c.live_bound == bound, (p, d)
            live = [
                sum(1 for u in range(c.slot_count[t]) if c.slot_start[t] + u * p <= bound[t])
                for t in range(p)
            ]
            assert c.live_start == tuple(sum(live[:i]) for i in range(p + 1)), (p, d)
            assert c.live_shape == (
                sum(live),
                sum(1 for i, _ in basis if i > 0),
            ), (p, d)


def test_live_layout_d11():
    c = make(5, "x^11")
    assert c.live_bound == (34, 23, 12, -1, -1)
    assert c.live_start == (0, 6, 9, 11, 11, 11)
    assert c.live_shape == (11, 11)


def test_top_level_always_empty():
    for p in (2, 3, 5, 7):
        for d in (1, 2, 4, 9, 23):
            if d % p == 0:
                continue
            c = make(p, f"x^{d}")
            assert c.reg_bound[p - 1] == -2
            assert c.slot_count[p - 1] == 0


def test_slot_arithmetic_consistency():
    for p in (3, 5, 7):
        for d in range(1, 41):
            if d % p == 0:
                continue
            c = make(p, f"x^{d}+x")
            for i in range(p):
                s, r = c.slot_start[i], c.slot_count[i]
                expected = [
                    e
                    for e in range(max(c.reg_bound[i] + 1, 0), c.comp_bound[i] + 1)
                    if (e + 1) % p == 0
                ]
                if r == 0:
                    assert s is None
                    assert expected == []
                else:
                    assert [s + u * p for u in range(r)] == expected


def test_genus_one_edge():
    c = make(3, "x^2")
    assert c.reg_bound == (0, -1, -2)  # only (0, 0) indexes the basis
    assert domain_basis(c) == [(0, 0)]
    assert c.dim_domain == 1
    assert c.slot_count == (1, 0, 0)


def test_degree_one_edge():
    c = make(3, "x")
    assert c.genus == 0
    assert c.dim_domain == 0
    assert c.dim_obstruction == 0
    assert domain_basis(c) == []


def test_construction_normalizes():
    c = make(3, "x^3")
    assert c.d == 1
    assert c.f == parse_poly("x", 3)
    c = make(5, "x^11+2*x^10+3")
    assert c.f == parse_poly("x^11+2*x^2", 5)


def test_split_cover_rejected():
    with pytest.raises(SplitCoverError):
        make(3, "x^3-x")


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        BasicCurve.from_poly(5, FpPoly(3, [0, 1]))


class TestLayout:
    def test_curves_of_one_degree_share_the_layout(self):
        a, b = make(5, "x^11"), make(5, "3*x^11+x^7+2*x")
        assert a.f != b.f
        for field in dataclasses.fields(Layout):
            assert getattr(a, field.name) is getattr(b, field.name), field.name
            assert getattr(a, field.name) is getattr(layout(5, 11), field.name), field.name

    def test_one_object_per_degree_in_a_bounded_cache(self):
        assert layout(7, 30) is layout(7, 30)
        assert layout(7, 30) is not layout(7, 31)
        assert layout.cache_info().maxsize == LAYOUT_CACHE

    def test_levels_with_columns_are_a_prefix(self):
        # reg_bound never rises from one level to the next, so the levels
        # with columns are 0 .. top, as the obstruction build assumes
        for p in (2, 3, 5, 7, 11, 13):
            for d in range(1, 90):
                if d % p == 0:
                    continue
                lay = layout(p, d)
                assert all(a >= b for a, b in zip(lay.reg_bound, lay.reg_bound[1:])), (p, d)
                has = [hi > lo for lo, hi in zip(lay.col_start, lay.col_start[1:])]
                assert has == sorted(has, reverse=True), (p, d)

    def test_degree_divisible_by_p_rejected(self):
        with pytest.raises(ValueError, match="divisible by p"):
            layout(3, 6)

    def test_curve_copies_and_pickles(self):
        c = make(7, "x^30+2*x^4")
        for twin in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert type(twin) is BasicCurve
            assert twin == c
            assert twin.live_shape == c.live_shape
