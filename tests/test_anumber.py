"""a-number computations: worked example, dual-method agreement, invariants."""

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asnum.anumber
from asnum.anumber import (
    ANumberReport,
    CoverDifferential,
    InvariantViolation,
    KernelTuple,
    _certified_p_rank,
    _neg_f_power_stack,
    a_number_fast,
    a_number_oracle,
    cartier_matrix,
    is_regular,
    obstruction_matrix,
    obstruction_vector,
    p_rank,
    reconstruct,
    report,
)
from asnum.bounds import lower_bound_single
from asnum.curve import BasicCurve, domain_basis
from asnum.families import minimal_family
from asnum.fppoly import FpPoly, cartier, parse_poly, section_after_cartier
from asnum.linalg import FpMatrix, rank_nullity
from asnum.experiments import sample_poly
from asnum.numutil import HeadroomError


def make(p, text):
    return BasicCurve.from_poly(p, parse_poly(text, p))


def random_curve(p, d, rng):
    return BasicCurve.from_poly(p, sample_poly(p, d, rng))


def random_kernel_tuple(curve, rng):
    vec = [int(v) for v in rng.integers(0, curve.p, size=curve.dim_domain)]
    return KernelTuple.from_coefficients(curve, vec)


class TestWorkedExampleD11:
    def setup_method(self):
        self.curve = make(5, "x^11")

    def test_gamma_of_unit_1_3(self):
        w = reconstruct(self.curve, KernelTuple.unit(self.curve, 1, 3))
        assert w.omega[1] == FpPoly.monomial(5, 3)
        assert w.omega[0] == FpPoly.monomial(5, 14)
        assert w.omega[2].is_zero and w.omega[3].is_zero and w.omega[4].is_zero
        assert not is_regular(self.curve, w)

    def test_regular_exactly_for_j_in_0_1_2_5(self):
        for j in (0, 1, 2, 3, 5):
            w = reconstruct(self.curve, KernelTuple.unit(self.curve, 1, j))
            assert is_regular(self.curve, w) == (j in (0, 1, 2, 5)), j

    def test_obstruction_vector_of_unit_1_3(self):
        vec = obstruction_vector(self.curve, KernelTuple.unit(self.curve, 1, 3))
        # the x^14 term sits in the second level-0 slot (slots start at 9)
        expected = [0] * self.curve.dim_obstruction
        expected[1] = 1
        assert list(vec) == expected


class TestReconstruct:
    def test_level_zero_units_pass_through(self):
        for p, text in ((3, "x^4+x^2"), (5, "x^11"), (7, "x^5+2*x^3")):
            c = make(p, text)
            for j in (0, 1):
                w = reconstruct(c, KernelTuple.unit(c, 0, j))
                assert w.omega[0] == FpPoly.monomial(p, j)
                assert all(w.omega[i].is_zero for i in range(1, p))

    def test_p3_closed_recursion(self):
        # for p = 3 the recursion collapses to one projection:
        # (h0, h1, 0) maps to (h0 + project(h1 * f)) + h1 y
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = random_curve(3, 8, rng)
            v = random_kernel_tuple(c, rng)
            w = reconstruct(c, v)
            h0, h1 = v.nu[:2]
            assert w.omega[1] == h1
            assert w.omega[0] == h0 + section_after_cartier(h1 * c.f)
            assert w.omega[2].is_zero

    def test_linearity(self):
        rng = np.random.default_rng(17)
        for p, d in ((3, 10), (5, 7), (7, 5)):
            c = random_curve(p, d, rng)
            for _ in range(5):
                u = random_kernel_tuple(c, rng)
                v = random_kernel_tuple(c, rng)
                lhs = reconstruct(c, u + v)
                rhs_u = reconstruct(c, u)
                rhs_v = reconstruct(c, v)
                for i in range(p):
                    assert lhs.omega[i] == rhs_u.omega[i] + rhs_v.omega[i]

    def test_components_respect_comp_bound_and_slot_structure(self):
        rng = np.random.default_rng(23)
        for p, d in ((3, 14), (5, 12)):
            c = random_curve(p, d, rng)
            for _ in range(10):
                w = reconstruct(c, random_kernel_tuple(c, rng))
                for i in range(p):
                    h = w.omega[i]
                    assert h.degree <= c.comp_bound[i]
                    # above reg_bound only slot exponents may carry coefficients
                    for e in range(max(c.reg_bound[i] + 1, 0), len(h.coeffs)):
                        if (e + 1) % p != 0:
                            assert h.coeff(e) == 0


class TestObstructionMap:
    def test_zero_vector_iff_regular(self):
        rng = np.random.default_rng(29)
        for p, d in ((3, 10), (5, 8)):
            c = random_curve(p, d, rng)
            for _ in range(30):
                v = random_kernel_tuple(c, rng)
                w = reconstruct(c, v)
                vec = obstruction_vector(c, v)
                assert is_regular(c, w) == (not any(vec))

    def test_obstruction_kernel_gives_regular_differentials(self):
        from asnum.linalg import kernel_basis

        rng = np.random.default_rng(53)
        for p, d in ((3, 10), (5, 8)):
            c = random_curve(p, d, rng)
            vectors = kernel_basis(obstruction_matrix(c))
            assert vectors  # the a-number is at least the positive lower bound here
            for coords in vectors:
                v = KernelTuple.from_coefficients(c, [int(x) for x in coords])
                assert is_regular(c, reconstruct(c, v))
                assert not any(obstruction_vector(c, v))

    def test_matrix_columns_match_vectors(self):
        # p = 2 has only the top source level; the larger primes reach many
        # source levels and binomials comb(src, t) far above p
        rng = np.random.default_rng(31)
        cases = [make(3, "x^4+x^2"), make(5, "x^11"), make(5, "x^16+x^14+x^9")]
        cases += [make(2, "x^13+x^6+x")]
        cases += [random_curve(p, d, rng) for p, d in ((7, 10), (3, 17), (11, 30), (13, 25), (71, 3))]
        for c in cases:
            m = obstruction_matrix(c).a
            assert m.shape == (c.dim_obstruction, c.dim_domain)
            for k, (i, j) in enumerate(domain_basis(c)):
                vec = obstruction_vector(c, KernelTuple.unit(c, i, j))
                assert tuple(int(x) for x in m[:, k]) == vec, (c.p, c.f, i, j)
        # at (67, 14) one reference column takes about 0.1 s and there are 429;
        # the map is linear, so random tuples check every column at once
        c = random_curve(67, 14, rng)
        m = obstruction_matrix(c).a
        for _ in range(3):
            coords = rng.integers(0, c.p, size=c.dim_domain)
            v = KernelTuple.from_coefficients(c, [int(x) for x in coords])
            assert tuple(int(x) for x in m @ coords % c.p) == obstruction_vector(c, v)

    @pytest.mark.parametrize(
        "p, d, sha1",
        [
            (5, 499, "9f6c4f70f06fad11fa9b1b3408ef181920599834"),
            (13, 60, "2b5521d94527fd13f5430d299096d555871a87d8"),
            (7, 101, "82ed1201afc9a44c73deb1e1127c153239b4d518"),
            (3, 499, "c2b1d6a6635f3abbd884345e7c7e2501a88f50bc"),
        ],
    )
    def test_matrix_bytes_pinned(self, p, d, sha1):
        # recorded from the per-level build that preceded the polyphase one
        c = random_curve(p, d, np.random.default_rng(1000 * p + d))
        m = obstruction_matrix(c).a
        assert m.dtype == np.int64
        assert hashlib.sha1(m.tobytes()).hexdigest() == sha1

    def test_family_matrix_bytes_pinned(self):
        c = BasicCurve.from_poly(5, minimal_family(5, 499)[0])
        m = obstruction_matrix(c).a
        assert m.dtype == np.int64
        assert hashlib.sha1(m.tobytes()).hexdigest() == "714eba6687081b979d47907c412bb948e46d7a8b"

    def test_int64_headroom_checked_before_building(self):
        # sizes only: a stand-in curve with p = 2^21 + 17, where the first
        # level's sums could pass 2^63; the guard must fire before any array
        p = 2**21 + 17
        big = SimpleNamespace(p=p, comp_bound=(2 * (p - 1) - 2,), f=FpPoly(p, (1, 1)))
        with pytest.raises(HeadroomError, match="obstruction build"):
            obstruction_matrix(big)

    def test_power_table_headroom_checked_before_building(self, monkeypatch):
        # p = 2^32 + 15: one product of two residues passes 2^63; with numpy
        # unavailable, any array built before the guard fails differently
        p = 2**32 + 15
        monkeypatch.setattr(asnum.anumber, "np", None)
        with pytest.raises(HeadroomError, match=r"\(-f\)\^e table"):
            _neg_f_power_stack(p, [(1, 1)])

    def test_shapes_on_degenerate_curves(self):
        c = make(3, "x^2")
        assert obstruction_matrix(c).a.shape == (1, 1)
        assert a_number_fast(c) == 1
        c = make(3, "x")
        assert obstruction_matrix(c).a.shape == (0, 0)
        assert a_number_fast(c) == 0


@st.composite
def small_covers(draw, primes=(2, 3, 5, 7, 11, 13), dmax=40, degree_above_p=False):
    p = draw(st.sampled_from(primes))
    d = draw(st.integers(p + 1 if degree_above_p else 1, dmax).filter(lambda d: d % p))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    lead = draw(st.integers(1, p - 1))
    return BasicCurve.from_poly(p, FpPoly(p, coeffs + [lead]))


@settings(max_examples=100, deadline=None)
@given(small_covers())
def test_fast_equals_oracle_within_bounds(c):
    a = a_number_fast(c)
    assert a == a_number_oracle(c)
    assert lower_bound_single(c.p, c.d) <= a <= c.genus


def compose_affine(f: FpPoly, alpha: int, beta: int) -> FpPoly:
    """f(alpha x + beta), by Horner's rule in FpPoly arithmetic."""
    line = FpPoly(f.p, (beta, alpha))
    out = FpPoly.zero(f.p)
    for c in reversed(f.coeffs):
        out = out * line + FpPoly(f.p, (c,))
    return out


# p = 2 is left out below: its only unit is 1, so it has no scaling and
# no substitution but x -> x + 1


@settings(max_examples=80, deadline=None)
@given(small_covers(primes=(3, 5, 7, 11, 13), dmax=30), st.data())
def test_fast_invariant_under_affine_substitution(c, data):
    # x -> alpha x + beta is an automorphism of the line fixing infinity
    alpha = data.draw(st.integers(1, c.p - 1), label="alpha")
    beta = data.draw(st.integers(1 if alpha == 1 else 0, c.p - 1), label="beta")
    moved = BasicCurve.from_poly(c.p, compose_affine(c.f, alpha, beta))
    assert a_number_fast(moved) == a_number_fast(c)


@settings(max_examples=40, deadline=None)
@given(small_covers(primes=(3, 5, 7, 11, 13), dmax=30), st.data())
def test_fast_invariant_under_scaling(c, data):
    # y -> u y carries y^p - y = f to y^p - y = u f since u^p = u; on the
    # basis x^j y^i dx the Cartier matrix becomes diag(u^-t) M diag(u^i),
    # with the same nullity but other entries.  A matrix entry is homogeneous
    # of degree i - t in the coefficients of f, and a shifted index keeps
    # that, so this catches what breaks it, such as assuming f monic
    u = data.draw(st.integers(2, c.p - 1), label="u")
    scaled = BasicCurve.from_poly(c.p, c.f * u)
    assert a_number_fast(scaled) == a_number_fast(c)


@settings(max_examples=120, deadline=None)
@given(small_covers(dmax=30, degree_above_p=True), st.data())
def test_fast_invariant_under_artin_schreier_shift(c, data):
    # y -> y + h carries y^p - y = f to y^p - y = f + h^p - h.  With
    # deg h < d/p the degree and so every derived size stay the same; the
    # curve is rebuilt with dataclasses.replace because from_poly would
    # normalize the shift away and hand back f itself.  120 examples: at 80,
    # a gather index shifted by -1 in the obstruction build went unnoticed
    # for 1 of 20 seeds
    p, top = c.p, (c.d - 1) // c.p
    coeffs = st.lists(st.integers(0, p - 1), min_size=top + 1, max_size=top + 1)
    h = FpPoly(p, data.draw(coeffs.filter(lambda cs: any(cs[1:])), label="h"))
    shifted = dataclasses.replace(c, f=c.f + h**p - h)
    assert shifted.f.degree == c.d
    assert a_number_fast(shifted) == a_number_fast(c)


class TestANumbers:
    def test_known_values(self):
        assert a_number_fast(make(5, "x^11+x^8")) == 10
        assert a_number_fast(make(3, "x^2")) == 1
        assert a_number_fast(make(5, "x^16+x^14+x^9")) == 15
        assert a_number_fast(make(3, "x^4+x^2")) == 2

    def test_oracle_known_values(self):
        assert a_number_oracle(make(5, "x^11+x^8")) == 10
        assert a_number_oracle(make(3, "x^4+x^2")) == 2
        assert a_number_oracle(make(3, "x")) == 0

    def test_cartier_matrix_shapes(self):
        assert cartier_matrix(make(3, "x^2")).a.shape == (1, 1)
        assert rank_nullity(cartier_matrix(make(3, "x^2")))[1] == 1
        c = make(5, "x^11")
        m = cartier_matrix(c)
        assert m.a.shape == (20, 20)
        assert rank_nullity(m)[1] == a_number_fast(c)

    def test_cartier_matrix_matches_line_cartier_operator(self):
        # column x^j y^i dx, level-t block: comb(i, t) C(x^j (-f)^(i-t) dx),
        # built with FpPoly arithmetic only; the unreduced binomials comb(i, t)
        # times an entry overflow int64 at p = 67, d = 14, and comb(i, t)
        # alone does at p = 71
        rng = np.random.default_rng(61)
        points = [(p, int(rng.integers(1, 41))) for p in (2, 3, 5, 7, 11, 13) for _ in range(3)]
        for p, d in points + [(67, 14), (71, 3)]:
            if d % p == 0:
                continue
            c = random_curve(p, d, rng)
            m = cartier_matrix(c).a
            sizes = [max(b + 1, 0) for b in c.reg_bound]
            starts = [sum(sizes[:i]) for i in range(p)]
            powers = [FpPoly.one(p)]
            for _ in range(1, p):
                powers.append(powers[-1] * -c.f)
            for i in range(p):
                for j in range(sizes[i]):
                    column = m[:, starts[i] + j]
                    for t in range(p):
                        block = column[starts[t] : starts[t] + sizes[t]].tolist()
                        want = [0] * sizes[t]
                        if t <= i:
                            x_j = FpPoly.monomial(p, j)
                            image = cartier(x_j * powers[i - t])
                            image = image * math.comb(i, t)
                            assert image.degree <= c.reg_bound[t], (p, d, i, j, t)
                            want[: len(image.coeffs)] = image.coeffs
                        assert block == want, (p, d, str(c.f), i, j, t)

    def test_methods_agree_on_random_curves(self):
        rng = np.random.default_rng(37)
        for p in (2, 3, 5, 7):
            for _ in range(12):
                d = int(rng.integers(1, 15))
                if d % p == 0:
                    continue
                c = random_curve(p, d, rng)
                fast = a_number_fast(c)
                assert fast == a_number_oracle(c), c.f
                assert cartier_matrix(c).a.shape == (c.genus, c.genus)

    def test_normalization_invariance(self):
        rng = np.random.default_rng(41)
        for p, d in ((3, 11), (5, 9)):
            for _ in range(8):
                f = sample_poly(p, d, rng)
                h = FpPoly(p, [int(v) for v in rng.integers(0, p, size=d // p + 1)])
                g = f + h ** p - h
                if g.is_zero:
                    continue
                c1 = BasicCurve.from_poly(p, f)
                c2 = BasicCurve.from_poly(p, g)
                assert c1.f == c2.f
                assert a_number_fast(c1) == a_number_fast(c2)

    def test_p2_a_number_is_determined_by_the_degree(self):
        # in characteristic 2 the a-number of every degree-d cover equals the
        # bound, so any deviation here means a pipeline bug
        from asnum.experiments import _rng_for

        for d in range(1, 24, 2):
            expected = lower_bound_single(2, d)
            for index in range(12):
                f = sample_poly(2, d, _rng_for(d, index))
                assert a_number_fast(BasicCurve.from_poly(2, f)) == expected, (d, str(f))

    def test_methods_agree_at_larger_primes(self):
        from asnum.experiments import _rng_for

        for p in (11, 13):
            for d in range(1, 7):
                if d % p == 0:
                    continue
                for index in range(5):
                    f = sample_poly(p, d, _rng_for(100 * p + d, index))
                    c = BasicCurve.from_poly(p, f)
                    assert a_number_fast(c) == a_number_oracle(c), (p, d, str(f))

    def test_p_rank_is_zero(self):
        for p, text in ((3, "x^2"), (5, "x^11"), (3, "x^4+x^2"), (7, "x^10+x^4")):
            assert p_rank(make(p, text)) == 0

    def test_bound_sandwich(self):
        rng = np.random.default_rng(43)
        for p in (3, 5, 7):
            for _ in range(10):
                d = int(rng.integers(1, 14))
                if d % p == 0:
                    continue
                c = random_curve(p, d, rng)
                a = a_number_fast(c)
                assert lower_bound_single(p, d) <= a <= c.genus


def brute_force_stable_rank(m: FpMatrix) -> int:
    """rank of m^g over F_p by plain int64 powers; shares no code with p_rank."""
    g = m.rows
    power = np.eye(g, dtype=np.int64)
    ranks = []
    for _ in range(g):
        power = (power @ m.a) % m.p
        ranks.append(rank_nullity(FpMatrix(m.p, power))[0])
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
    return ranks[-1] if ranks else 0


class TestPRankCertificate:
    def test_matches_brute_force_stable_rank(self):
        rng = np.random.default_rng(59)
        for p in (3, 5, 7):
            for _ in range(6):
                d = int(rng.integers(1, 31))
                if d % p == 0:
                    continue
                c = random_curve(p, d, rng)
                m = cartier_matrix(c)
                assert brute_force_stable_rank(m) == _certified_p_rank(m) == 0, (p, d)
                assert p_rank(c) == 0

    def test_accepts_strictly_upper_triangular(self):
        assert _certified_p_rank(FpMatrix(3, [[0, 1, 2], [0, 0, 1], [0, 0, 0]])) == 0
        assert _certified_p_rank(FpMatrix(5, np.zeros((0, 0)))) == 0

    @pytest.mark.parametrize("entries", [[[0, 1], [1, 0]], [[0, 0], [0, 2]], [[0, 0], [4, 0]]])
    def test_rejects_entry_on_or_below_diagonal(self, entries):
        with pytest.raises(InvariantViolation):
            _certified_p_rank(FpMatrix(5, entries))

    def test_p_rank_and_report_raise_on_bad_cartier_matrix(self, monkeypatch):
        # the transpose keeps the rank, so only the certificate can object
        c = make(5, "x^11+x^8")
        transposed = FpMatrix(5, cartier_matrix(c).a.T)
        monkeypatch.setattr(asnum.anumber, "cartier_matrix", lambda curve: transposed)
        with pytest.raises(InvariantViolation, match="diagonal"):
            p_rank(c)
        with pytest.raises(InvariantViolation, match="diagonal"):
            report(c, method="oracle")

        def unavailable(curve):
            raise RuntimeError("the fast report built the Cartier matrix")

        # the fast report takes p-rank 0 from Deuring-Shafarevich, no matrix
        monkeypatch.setattr(asnum.anumber, "cartier_matrix", unavailable)
        assert report(c, method="fast").p_rank == 0

    def test_report_rejects_a_outside_bound(self, monkeypatch):
        c = make(5, "x^11+x^8")
        monkeypatch.setattr(asnum.anumber, "a_number_fast", lambda curve: curve.genus + 1)
        with pytest.raises(InvariantViolation):
            report(c)


class TestReport:
    def test_report_values(self):
        rep = report(make(5, "x^11+x^8"))
        assert rep == ANumberReport(
            a=10,
            method="fast",
            genus=20,
            p_rank=0,
            lower_bound=10,
            dim_domain=18,
            dim_obstruction=18,
        )

    def test_report_genus_one(self):
        rep = report(make(3, "x^2"), method="oracle")
        assert (rep.a, rep.genus, rep.p_rank, rep.lower_bound) == (1, 1, 0, 1)
        assert rep.method == "oracle"

    def test_report_degree_one(self):
        rep = report(make(3, "x"))
        assert (rep.a, rep.genus, rep.p_rank, rep.lower_bound) == (0, 0, 0, 0)

    def test_report_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            report(make(3, "x^2"), method="guess")


class TestKernelTupleValidation:
    def test_rejects_non_kernel_component(self):
        c = make(5, "x^11")
        bad = [FpPoly.zero(5)] * 5
        bad[0] = FpPoly.monomial(5, 4)  # x^4 dx survives the Cartier operator
        with pytest.raises(ValueError):
            KernelTuple(c, bad)

    def test_rejects_overweight_component(self):
        c = make(5, "x^11")
        bad = [FpPoly.zero(5)] * 5
        bad[1] = FpPoly.monomial(5, 6)  # reg_bound[1] = 5
        with pytest.raises(ValueError):
            KernelTuple(c, bad)

    def test_unit_round_trip(self):
        c = make(5, "x^11")
        basis = domain_basis(c)
        coords = [0] * len(basis)
        coords[3] = 2
        v = KernelTuple.from_coefficients(c, coords)
        i, j = basis[3]
        assert v.nu[i] == FpPoly.monomial(5, j, 2)


def test_cover_differential_str():
    c = make(5, "x^11")
    w = reconstruct(c, KernelTuple.unit(c, 1, 3))
    assert str(w) == "(x^3) y dx + (x^14) dx"
