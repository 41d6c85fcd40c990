"""Family constructors: exact polynomials, applicability, bound attainment."""

import pytest

from asnum.anumber import a_number_fast, a_number_oracle, obstruction_matrix
from asnum.bounds import lower_bound_single
from asnum.curve import BasicCurve
from asnum.families import (
    family_p3,
    family_p5_binomial,
    family_p5_mod5,
    family_p5_trinomial25,
    minimal_family,
    verify_family,
)
from asnum.fppoly import parse_poly
from asnum.linalg import _echelon, _peel


def poly5(text):
    return parse_poly(text, 5)


def poly3(text):
    return parse_poly(text, 3)


class TestFamilyP3:
    def test_examples(self):
        assert family_p3(4) == poly3("x^4+x^2")
        assert family_p3(7) == poly3("x^7+x^5")
        assert family_p3(5) == poly3("x^5+x^4")
        assert family_p3(1) == poly3("x")

    def test_rejects_multiples_of_three(self):
        with pytest.raises(ValueError):
            family_p3(6)

    def test_shape(self):
        for d in range(1, 200):
            if d % 3 == 0:
                continue
            f = family_p3(d)
            assert f.degree == d
            # already normalized: no exponent divisible by 3, no constant
            assert all(c == 0 for e, c in enumerate(f.coeffs) if e % 3 == 0)


class TestFamilyP5Binomial:
    def test_examples(self):
        assert family_p5_binomial(11) == poly5("x^11+x^8")
        assert family_p5_binomial(27) == poly5("x^27+x^16")
        assert family_p5_binomial(28) is None  # residue 3 has no binomial row

    def test_missing_residues(self):
        for delta in (3, 7, 9, 16, 18, 22):
            for m in (0, 1, 3):
                assert family_p5_binomial(25 * m + delta) is None

    def test_degree_one_has_no_binomial(self):
        assert family_p5_binomial(1) is None

    def test_shape(self):
        for d in range(2, 300):
            if d % 5 == 0:
                continue
            f = family_p5_binomial(d)
            if f is None:
                continue
            assert f.degree == d
            assert all(c == 0 for e, c in enumerate(f.coeffs) if e % 5 == 0)
            assert sum(1 for c in f.coeffs if c) == 2


class TestFamilyP5Trinomial25:
    def test_examples(self):
        assert family_p5_trinomial25(28) == poly5("x^28+x^19+x^6")
        assert family_p5_trinomial25(16) is None  # handled by the mod-5 family
        assert family_p5_trinomial25(11) is None  # binomial residue

    def test_low_degree_residue_3_inapplicable(self):
        assert family_p5_trinomial25(3) is None

    def test_shape(self):
        for d in range(2, 300):
            if d % 5 == 0:
                continue
            f = family_p5_trinomial25(d)
            if f is None:
                continue
            assert f.degree == d
            assert all(c == 0 for e, c in enumerate(f.coeffs) if e % 5 == 0)
            assert sum(1 for c in f.coeffs if c) == 3


class TestFamilyP5Mod5:
    def test_examples(self):
        assert family_p5_mod5(16) == poly5("x^16+x^14+x^9")
        assert family_p5_mod5(12) == poly5("x^12+x^11+x^9")
        assert family_p5_mod5(3) == poly5("x^3+x^2")
        assert family_p5_mod5(1) == poly5("x")
        assert family_p5_mod5(2) == poly5("x^2")
        assert family_p5_mod5(4) == poly5("x^4")

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

    def test_unsupported_prime(self):
        with pytest.raises(ValueError):
            minimal_family(7, 4)


class TestVerifyFamily:
    def test_spot_values(self):
        check = verify_family(3, 17)
        assert check.ok and check.a == check.bound == 8
        check = verify_family(5, 11)
        assert check.ok and check.a == check.bound == 10
        check = verify_family(5, 16)
        assert check.ok and check.a == check.bound == 15

    @pytest.mark.parametrize("p", [3, 5])
    def test_sweep_medium_range(self, p):
        for d in range(1, 121):
            if d % p == 0:
                continue
            check = verify_family(p, d)
            assert check.ok, (p, d, str(check.f), check.a, check.bound)
            assert check.f.degree == d

    @pytest.mark.parametrize("p", [3, 5])
    def test_oracle_confirms_family_members(self, p):
        # the independent full-matrix computation agrees on every small member
        for d in range(1, 41):
            if d % p == 0:
                continue
            check = verify_family(p, d)
            curve = BasicCurve.from_poly(p, check.f)
            assert a_number_oracle(curve) == check.a == check.bound, (p, d)

    @pytest.mark.parametrize("p", [3, 5])
    def test_obstruction_matrices_peel_to_a_tiny_core(self, p):
        # the speed of ranking a family member rests on this: the zero
        # pattern alone fixes all but at most a 2 x 2 core of its pivots
        for d in [*range(1, 121), 451, 499]:
            if d % p == 0:
                continue
            m = obstruction_matrix(BasicCurve.from_poly(p, minimal_family(p, d)[0]))
            peeled, core = _peel(m.a)
            assert core.size <= 4, (p, d, core.shape)
            assert peeled + len(_echelon(core, p)[1]) == len(_echelon(m.a, p)[1]), (p, d)
