"""Polynomials: arithmetic, text grammar, normalization; the reference's line operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asnum.fppoly import (
    FpPoly,
    PolyParseError,
    SplitCoverError,
    normalize_artin_schreier,
    parse_poly,
)
from asnum.numutil import HeadroomError, check_int64_sum
from reference import cartier, section


def poly(p, text):
    return parse_poly(text, p)


@st.composite
def random_poly(draw, primes=(2, 3, 5, 7), max_len=24):
    p = draw(st.sampled_from(primes))
    coeffs = draw(st.lists(st.integers(0, 12), max_size=max_len))
    return FpPoly(p, coeffs)


@st.composite
def random_poly_pair(draw, primes=(2, 3, 5, 7), max_len=24):
    p = draw(st.sampled_from(primes))
    a = draw(st.lists(st.integers(0, 12), max_size=max_len))
    b = draw(st.lists(st.integers(0, 12), max_size=max_len))
    return FpPoly(p, a), FpPoly(p, b)


class TestFpPoly:
    def test_trimming_and_degree(self):
        f = FpPoly(3, [1, 2, 0, 3, 0])  # 3 = 0 mod 3, so degree 1
        assert f.coeffs == (1, 2)
        assert f.degree == 1
        assert FpPoly(5, []).degree == float("-inf")
        assert FpPoly(5, [0, 0]).is_zero

    def test_reduction_mod_p(self):
        assert FpPoly(5, [7, -1]).coeffs == (2, 4)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            FpPoly(6, [1])

    def test_arithmetic(self):
        p = 5
        f = poly(p, "x^2+3*x+1")
        g = poly(p, "2*x+4")
        assert f + g == poly(p, "x^2+5*x+5") == poly(p, "x^2")
        assert f - f == FpPoly.zero(p)
        assert f * g == poly(p, "2*x^3+4*x^2+6*x^2+12*x+2*x+4") == poly(p, "2*x^3+4*x+4")
        assert f * 2 == poly(p, "2*x^2+6*x+2")
        assert poly(p, "x+1") ** 5 == poly(p, "x^5+1")  # freshman's dream

    def test_long_multiplication_matches_schoolbook(self):
        # long operands against a naive product summed outside FpPoly
        p = 7
        a = FpPoly(p, list(range(1, 40)))
        b = FpPoly(p, list(range(2, 30)))
        expected = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                expected[i + j] += ca * cb
        assert (a * b).coeffs == FpPoly(p, expected).coeffs

    def test_long_multiplication_checks_int64_headroom(self):
        # p = 2^32 + 15: a single product of two residues passes 2^63, but
        # FpPoly sums Python ints, so the product stays exact at any length
        p = 2**32 + 15
        long = FpPoly(p, [p - 1] * 17)
        expected = [0] * 33
        for i in range(17):
            for j in range(17):
                expected[i + j] += (p - 1) * (p - 1)
        assert (long * long).coeffs == tuple(c % p for c in expected)
        # the int64 guard the matrix builds use
        check_int64_sum(1, 2**63 - 1, "sum")
        with pytest.raises(HeadroomError):
            check_int64_sum(2, 2**62, "sum")

    def test_monomial_and_shift(self):
        assert FpPoly(3, (0, 0, 0, 0, 1)) == poly(3, "x^4")
        # multiplying by a monomial shifts the coefficients
        assert poly(3, "x+1") * FpPoly(3, (0, 0, 1)) == poly(3, "x^3+x^2")


class TestTextGrammar:
    def test_parse_basic_forms(self):
        assert parse_poly("x^11+x^8", 5).coeffs[11] == 1
        assert parse_poly("3*x^2", 5) == FpPoly(5, [0, 0, 3])
        assert parse_poly("x", 5) == FpPoly(5, [0, 1])
        assert parse_poly("7", 5) == FpPoly(5, [2])
        assert parse_poly(" x^2  +  2*x ", 5) == FpPoly(5, [0, 2, 1])
        assert parse_poly("x^3-x", 3) == FpPoly(3, [0, 2, 0, 1])
        assert parse_poly("-x+5", 3) == FpPoly(3, [2, 2])
        assert parse_poly("2x^3", 5) == FpPoly(5, [0, 0, 0, 2])

    def test_parse_merges_repeated_exponents(self):
        assert parse_poly("x^2+x^2+x^2", 3) == FpPoly.zero(3)

    def test_parse_failures(self):
        for bad in ("", "x^", "y+1", "x**2", "1++2", "3*", "x^-2"):
            with pytest.raises(PolyParseError):
                parse_poly(bad, 5)

    def test_str_canonical(self):
        assert str(poly(5, "x^11+x^8")) == "x^11+x^8"
        assert str(FpPoly(5, [4, 0, 2, 1])) == "x^3+2*x^2+4"
        assert str(FpPoly.zero(3)) == "0"
        assert str(FpPoly(3, [0, 2])) == "2*x"

    @given(random_poly())
    def test_str_round_trips(self, f):
        assert parse_poly(str(f), f.p) == f


class TestCartier:
    # the operators act on the h of a differential h dx

    def test_cartier_examples(self):
        assert cartier(poly(3, "x^2")) == poly(3, "1")
        assert cartier(poly(5, "x^3")).is_zero
        assert cartier(poly(5, "x^14+x^13")) == poly(5, "x^2")

    def test_projection_examples(self):
        assert section(poly(5, "x^14+x^3")) == poly(5, "x^14")
        assert section(poly(3, "x^4")).is_zero
        h = poly(3, "x^2+2*x^5")
        assert section(h) == h

    def test_cartier_kills_exactly_non_congruent_monomials(self):
        for p in (2, 3, 5, 7):
            for j in range(4 * p):
                image = cartier(FpPoly(p, [0] * j + [1]))
                if (j + 1) % p == 0:
                    assert image == FpPoly(p, [0] * ((j + 1) // p - 1) + [1])
                else:
                    assert image.is_zero

    @given(random_poly())
    def test_projection_keeps_only_the_cartier_image(self, h):
        # Cartier is injective on the terms x^j dx, j = -1 (mod p), so these
        # two facts pin the projection down to section
        kept = section(h)
        assert cartier(kept) == cartier(h)
        assert all(c == 0 for j, c in enumerate(kept.coeffs) if (j + 1) % h.p)

    @given(random_poly_pair())
    @settings(max_examples=60)
    def test_cartier_additive(self, pair):
        a, b = pair
        assert cartier(a + b) == cartier(a) + cartier(b)

    @given(random_poly(), st.integers(0, 12))
    def test_cartier_scalar_linear_over_prime_field(self, h, c):
        assert cartier(h * c) == cartier(h) * c


class TestNormalize:
    def test_examples(self):
        assert normalize_artin_schreier(poly(3, "x^4+x^3")) == poly(3, "x^4+x")
        assert normalize_artin_schreier(poly(5, "x^11+2*x^10")) == poly(5, "x^11+2*x^2")
        assert normalize_artin_schreier(poly(3, "x^3")) == poly(3, "x")

    def test_cascading_fold(self):
        # x^9 -> x^3 -> x over F_3, merging with whatever sits there
        assert normalize_artin_schreier(poly(3, "x^9")) == poly(3, "x")
        assert normalize_artin_schreier(poly(3, "x^9+x^3")) == poly(3, "2*x")

    def test_constant_dropped(self):
        assert normalize_artin_schreier(poly(5, "x^2+4")) == poly(5, "x^2")

    def test_split_cover_detected(self):
        with pytest.raises(SplitCoverError):
            normalize_artin_schreier(poly(3, "1"))
        with pytest.raises(SplitCoverError):
            normalize_artin_schreier(poly(3, "x^3-x"))
        # h^p - h for h = x^2 + 2x
        h = poly(3, "x^2+2*x")
        with pytest.raises(SplitCoverError):
            normalize_artin_schreier(h ** 3 - h)

    @given(random_poly(primes=(2, 3, 5, 7, 13), max_len=60))
    def test_matches_an_exponent_by_exponent_walk(self, f):
        # the reference visits every exponent from the top down to p
        p = f.p
        coeffs = list(f.coeffs)
        for e in range(len(coeffs) - 1, p - 1, -1):
            if e % p == 0 and coeffs[e]:
                coeffs[e // p] = (coeffs[e // p] + coeffs[e]) % p
                coeffs[e] = 0
        if coeffs:
            coeffs[0] = 0
        want = FpPoly(p, coeffs)
        if want.is_zero:
            with pytest.raises(SplitCoverError):
                normalize_artin_schreier(f)
        else:
            assert normalize_artin_schreier(f) == want

    @given(random_poly())
    def test_idempotent_and_degree_preserving(self, f):
        try:
            g = normalize_artin_schreier(f)
        except SplitCoverError:
            return
        assert normalize_artin_schreier(g) == g
        if not f.is_zero and int(f.degree) % f.p != 0:
            assert g.degree == f.degree
        # no surviving monomial with exponent divisible by p, no constant
        assert all(
            c == 0 for e, c in enumerate(g.coeffs) if e % f.p == 0
        )
