"""Family members: exact polynomials, table data, bound attainment."""

import hashlib

import numpy as np
import pytest

from asnum.anumber import (
    a_number_fast,
    a_number_oracle,
    obstruction_coords,
    obstruction_matrix,
)
from asnum.bounds import lower_bound_single
from asnum.curve import BasicCurve
from asnum.families import _TRINOMIAL, _unit_poly, minimal_family, verify_family
from asnum.fppoly import FpPoly, parse_poly
from asnum.linalg import _echelon, _peel, coords_rank_nullity
from reference import family_p5_mod5


def poly5(text):
    return parse_poly(text, 5)


def poly3(text):
    return parse_poly(text, 3)


def poly7(text):
    return parse_poly(text, 7)


def attaining_binomials(p, d):
    """Every e in [1, d) coprime to p such that x^d + x^e attains L(d)."""
    bound = lower_bound_single(p, d)
    found = []
    for e in range(1, d):
        if e % p == 0:
            continue
        f = FpPoly(p, [0] * e + [1] + [0] * (d - e - 1) + [1])
        if a_number_fast(BasicCurve.from_poly(p, f)) == bound:
            found.append(e)
    return found


def trinomial_cs(p):
    """The table's {delta: c} for p, empty at a prime without trinomials."""
    return _TRINOMIAL[p][1] if p in _TRINOMIAL else {}


def binomial_row_by_search(p, delta):
    """The (slope, shift) of the unique attaining binomials at m = 1 and 2."""
    (e1,) = attaining_binomials(p, p * p + delta)
    (e2,) = attaining_binomials(p, 2 * p * p + delta)
    return e2 - e1, 2 * e1 - e2


def attaining_cs_by_search(p, delta):
    """Every c in [1, p^2 + p), p not dividing c, such that
    x^d + x^((d + p(m + k))/2) + x^(p m + c), with k = 1 for odd delta and 2
    for even delta, has degree d and attains L(d) for d = p^2 m + delta at
    m = 1, 2 and 3."""
    k = 1 if delta % 2 else 2
    found = []
    for c in range(1, p * p + p):
        if c % p == 0:
            continue
        for m in (1, 2, 3):
            d = p * p * m + delta
            low = p * m + c
            if low >= d:
                break
            coeffs = [0] * (d + 1)
            for e in (d, (d + p * (m + k)) // 2, low):
                coeffs[e] += 1
            f = FpPoly(p, coeffs)
            if a_number_fast(BasicCurve.from_poly(p, f)) != lower_bound_single(p, d):
                break
        else:
            found.append(c)
    return found


def assert_normalized(f, p, d):
    assert f.degree == d
    # already normalized: no exponent divisible by p, no constant
    assert all(c == 0 for e, c in enumerate(f.coeffs) if e % p == 0)


def members(p, dmax, strategy):
    for d in range(1, dmax):
        if d % p:
            f, s = minimal_family(p, d)
            if s == strategy:
                yield d, f


class TestFamilyP3:
    def test_examples(self):
        assert minimal_family(3, 4) == (poly3("x^4+x^2"), "p3")
        assert minimal_family(3, 7) == (poly3("x^7+x^5"), "p3")
        assert minimal_family(3, 5) == (poly3("x^5+x^4"), "p3")
        assert minimal_family(3, 1) == (poly3("x"), "small_d")

    def test_rejects_multiples_of_three(self):
        with pytest.raises(ValueError):
            minimal_family(3, 6)

    def test_shape(self):
        # every degree but 1 is a binomial row
        assert [d for d, _ in members(3, 200, "small_d")] == [1]
        for d, f in members(3, 200, "p3"):
            assert_normalized(f, 3, d)
            assert sum(1 for c in f.coeffs if c) == 2


class TestFamilyP5Binomial:
    def test_examples(self):
        assert minimal_family(5, 11) == (poly5("x^11+x^8"), "p5_binomial")
        assert minimal_family(5, 27) == (poly5("x^27+x^16"), "p5_binomial")
        # residue 3 is a trinomial residue
        assert minimal_family(5, 28)[1] == "p5_trinomial25"

    def test_missing_residues(self):
        for delta in (3, 7, 9, 16, 18, 22):
            for m in (0, 1, 3):
                d = 25 * m + delta
                expected = {3: "small_d", 16: "p5_trinomial5"}.get(d, "p5_trinomial25")
                assert minimal_family(5, d)[1] == expected, d

    def test_degree_one_has_no_binomial(self):
        assert minimal_family(5, 1) == (poly5("x"), "small_d")

    def test_shape(self):
        for d, f in members(5, 300, "p5_binomial"):
            assert_normalized(f, 5, d)
            assert sum(1 for c in f.coeffs if c) == 2


class TestFamilyP5Trinomial25:
    def test_examples(self):
        assert minimal_family(5, 28) == (poly5("x^28+x^19+x^6"), "p5_trinomial25")
        # its shape applies, but d = 16 keeps the mod-5 family's trinomial
        assert minimal_family(5, 16) == (poly5("x^16+x^14+x^9"), "p5_trinomial5")
        assert minimal_family(5, 11)[1] == "p5_binomial"  # binomial residue

    def test_low_degree_residue_3_inapplicable(self):
        # the shape's middle exponent 4 would exceed the degree
        assert minimal_family(5, 3) == (poly5("x^3+x^2"), "small_d")

    def test_shape(self):
        for d, f in members(5, 300, "p5_trinomial25"):
            assert_normalized(f, 5, d)
            assert sum(1 for c in f.coeffs if c) == 3


class TestFamilyP7:
    def test_small_degrees(self):
        for d, text in {1: "x", 3: "x^3", 5: "x^5+x^3"}.items():
            assert minimal_family(7, d) == (poly7(text), "small_d"), d

    def test_examples(self):
        assert minimal_family(7, 2) == (poly7("x^2+x"), "p7_binomial")
        assert minimal_family(7, 64) == (poly7("x^64+x^39"), "p7_binomial")
        assert minimal_family(7, 54) == (poly7("x^54+x^34+x^10"), "p7_trinomial28")
        # d = 49 + 26, even delta: (75 + 7 * 3)/2 = 48 and 7 + c(26) = 15
        assert minimal_family(7, 75) == (poly7("x^75+x^48+x^15"), "p7_trinomial28")
        # d = 49 + 3, odd delta: (52 + 7 * 2)/2 = 33 and 7 + c(3) = 12
        assert minimal_family(7, 52) == (poly7("x^52+x^33+x^12"), "p7_trinomial28")
        # d = 13, m = 0: (13 + 7)/2 = 10 and c(13) = 4
        assert minimal_family(7, 13) == (poly7("x^13+x^10+x^4"), "p7_trinomial28")

    def test_coinciding_exponents_add(self):
        # the old d = 13 member x^13 + 2x^10 named x^10 twice; the builder
        # still adds coinciding exponents, though the shape now gives d = 13
        # three distinct ones
        assert _unit_poly(7, (13, 10, 10)) == poly7("x^13+2*x^10")
        f = minimal_family(7, 13)[0]
        assert sorted(c for c in f.coeffs if c) == [1, 1, 1]

    def test_shape(self):
        for d in range(1, 300):
            if d % 7:
                assert_normalized(minimal_family(7, d)[0], 7, d)


class TestTableSearch:
    """The binomial rule agrees with a fresh search over unit binomials, and
    each trinomial c with a fresh search over c."""

    STRATEGY = {3: "p3", 5: "p5_binomial", 7: "p7_binomial"}

    def assert_rule_matches_search(self, p, delta):
        slope, shift = binomial_row_by_search(p, delta)
        assert slope == p * (p + 1) // 2, (p, delta)
        for m in (1, 2):
            d = p * p * m + delta
            e = slope * m + shift
            f = FpPoly(p, [0] * e + [1] + [0] * (d - e - 1) + [1])
            assert minimal_family(p, d) == (f, self.STRATEGY[p]), (p, d)

    def assert_rule_at_every_binomial_residue(self, p):
        cs = trinomial_cs(p)
        for delta in range(1, p * p):
            if delta % p and delta not in cs:
                self.assert_rule_matches_search(p, delta)

    def test_p3_table(self):
        # p = 3 has no trinomial residues: every residue takes the rule
        assert 3 not in _TRINOMIAL
        self.assert_rule_at_every_binomial_residue(3)

    def test_p5_binomial_rows(self):
        self.assert_rule_at_every_binomial_residue(5)

    @pytest.mark.parametrize("delta", [1, 2, 15])
    def test_p7_binomial_rows(self, delta):
        assert delta not in trinomial_cs(7)
        self.assert_rule_matches_search(7, delta)

    def test_no_trinomial_residue_is_served_by_the_rule(self):
        # no c duplicates the rule: no unit binomial attains the bound there
        for p in _TRINOMIAL:
            for delta in trinomial_cs(p):
                assert attaining_binomials(p, p * p + delta) == [], (p, delta)

    @pytest.mark.parametrize("p", [5, 7])
    def test_trinomial_cs_match_search(self, p):
        # exactly one c attains the bound at m = 1, 2 and 3, the table's
        for delta, c in trinomial_cs(p).items():
            assert attaining_cs_by_search(p, delta) == [c], (p, delta)


class TestFamilyP5Mod5:
    def test_examples(self):
        assert family_p5_mod5(16) == poly5("x^16+x^14+x^9")
        assert family_p5_mod5(12) == poly5("x^12+x^11+x^9")
        assert family_p5_mod5(3) == poly5("x^3+x^2")
        assert family_p5_mod5(1) == poly5("x")
        assert family_p5_mod5(2) == poly5("x^2")
        assert family_p5_mod5(4) == poly5("x^4")

    def test_fixed_member_at_degree_16(self):
        # the one degree the package takes from this family, as a data entry
        assert minimal_family(5, 16) == (family_p5_mod5(16), "p5_trinomial5")

    def test_collapsing_exponents_merge(self):
        # d = 6: middle and low exponents coincide at 4
        assert family_p5_mod5(6) == poly5("x^6+2*x^4")

    def test_shape(self):
        for d in range(1, 300):
            if d % 5 == 0:
                continue
            f = family_p5_mod5(d)
            assert f.degree == d
            assert all(c == 0 for e, c in enumerate(f.coeffs) if e % 5 == 0)

    def test_attains_bound_for_every_residue(self):
        # all four residue rows, including small n where exponents collapse
        for n in range(1, 13):
            for r in (1, 2, 3, 4):
                d = 5 * n + r
                a = a_number_fast(BasicCurve.from_poly(5, family_p5_mod5(d)))
                assert a == lower_bound_single(5, d), d


class TestMinimalFamily:
    def test_strategy_dispatch(self):
        assert minimal_family(3, 17)[1] == "p3"
        assert minimal_family(3, 1)[1] == "small_d"
        assert minimal_family(5, 11)[1] == "p5_binomial"
        assert minimal_family(5, 28)[1] == "p5_trinomial25"
        assert minimal_family(5, 16)[1] == "p5_trinomial5"
        assert minimal_family(5, 3)[1] == "small_d"
        assert minimal_family(7, 17 + 49)[1] == "p7_trinomial28"
        assert minimal_family(7, 32)[1] == "p7_trinomial28"

    def test_unsupported_prime(self):
        with pytest.raises(ValueError, match=r"only p in \{3, 5, 7\}"):
            minimal_family(11, 4)

    def test_p3_p5_members_pinned(self):
        # recorded from the three hand-written constructors the tables replaced
        h = hashlib.sha1()
        for p in (3, 5):
            for d in range(1, 1001):
                if d % p == 0:
                    continue
                f, strategy = minimal_family(p, d)
                h.update(f"{p},{d},{strategy},{','.join(map(str, f.coeffs))};".encode())
        assert h.hexdigest() == "853a9ae112f99915f26cee8cea8e162194d8cff8"

    def test_p7_members_pinned(self):
        # recorded from the binomial rule and the one trinomial shape
        h = hashlib.sha1()
        for d in range(1, 1029):
            if d % 7 == 0:
                continue
            f, strategy = minimal_family(7, d)
            h.update(f"7,{d},{strategy},{','.join(map(str, f.coeffs))};".encode())
        assert h.hexdigest() == "da31a513c3050b039c207b62887b40f66836c969"


class TestVerifyFamily:
    def test_spot_values(self):
        check = verify_family(3, 17)
        assert check.ok and check.a == check.bound == 8
        check = verify_family(5, 11)
        assert check.ok and check.a == check.bound == 10
        check = verify_family(5, 16)
        assert check.ok and check.a == check.bound == 15
        check = verify_family(7, 13)
        assert check.ok and check.a == check.bound == 20

    @pytest.mark.parametrize("p", [3, 5])
    def test_sweep_medium_range(self, p):
        for d in range(1, 121):
            if d % p == 0:
                continue
            check = verify_family(p, d)
            assert check.ok, (p, d, str(check.f), check.a, check.bound)
            assert check.f.degree == d

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_oracle_confirms_family_members(self, p):
        # the independent full-matrix computation agrees on every small member
        # and on every trinomial residue at m = 1 and 2
        trinomials = [p * p * m + delta for m in (1, 2) for delta in trinomial_cs(p)]
        for d in [*range(1, 41), *trinomials]:
            if d % p == 0:
                continue
            check = verify_family(p, d)
            curve = BasicCurve.from_poly(p, check.f)
            assert a_number_oracle(curve) == check.a == check.bound, (p, d)

    # (p, d) -> the core of a member that does not peel to an empty one
    CORES = {(5, 9): (2, 2), (5, 18): (2, 2), (7, 13): (4, 4), (7, 26): (4, 4)}

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_obstruction_matrices_peel_to_a_tiny_core(self, p):
        # the speed of ranking a family member rests on this: the zero
        # pattern alone fixes all its pivots but those of a core of at
        # most 4 x 4, and almost always all of them, at every verified
        # degree; the rank is checked against the dense elimination on the
        # degrees where that is cheap
        dense = {*range(1, 121), 451, 499}
        for d in range(1, 1029 if p == 7 else 501):
            if d % p == 0:
                continue
            curve = BasicCurve.from_poly(p, minimal_family(p, d)[0])
            r, c, v = obstruction_coords(curve)
            shape = (curve.dim_obstruction, curve.dim_domain)
            _, live_r, live_c = _peel(r, c, shape)
            core_shape = (np.unique(live_r).size, np.unique(live_c).size)
            assert core_shape == self.CORES.get((p, d), (0, 0)), (p, d, core_shape)
            if d in dense:
                rank = coords_rank_nullity(p, (r, c, v), shape)[0]
                assert rank == _echelon(obstruction_matrix(curve).a, p), (p, d)
