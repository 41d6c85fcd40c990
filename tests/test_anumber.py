"""a-number computations: worked example, dual-method agreement, invariants."""

import dataclasses
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asnum.anumber
import asnum.numutil
from asnum.anumber import (
    ANumberReport,
    InvariantViolation,
    _certified_p_rank,
    _check_build_headroom,
    _neg_f_power_stack,
    _neg_f_power_terms,
    a_number_fast,
    a_number_oracle,
    cartier_matrix,
    obstruction_coords,
    obstruction_matrix,
    obstruction_stack,
    p_rank,
    report,
)
from asnum.bounds import lower_bound_single
from asnum.curve import BasicCurve
from asnum.families import minimal_family
from asnum.fppoly import FpPoly, parse_poly
from asnum.linalg import FpMatrix, rank_nullity, stack_ranks
from asnum.experiments import sample_poly
from asnum.numutil import HeadroomError, narrowest_int_dtype
from reference import (
    cartier,
    domain_basis,
    from_coords,
    is_regular,
    kernel_vectors,
    monomial_a_number,
    obstruction_vector,
    reconstruct,
    section,
    unit,
)


def make(p, text):
    return BasicCurve.from_poly(p, parse_poly(text, p))


def random_curve(p, d, rng):
    return BasicCurve.from_poly(p, sample_poly(p, d, rng))


def random_kernel_tuple(curve, rng):
    return from_coords(curve, rng.integers(0, curve.p, size=curve.dim_domain))


class TestWorkedExampleD11:
    def setup_method(self):
        self.curve = make(5, "x^11")

    def test_gamma_of_unit_1_3(self):
        w = reconstruct(self.curve, unit(self.curve, 1, 3))
        assert w[1] == parse_poly("x^3", 5)
        assert w[0] == parse_poly("x^14", 5)
        assert w[2].is_zero and w[3].is_zero and w[4].is_zero
        assert not is_regular(self.curve, w)

    def test_regular_exactly_for_j_in_0_1_2_5(self):
        for j in (0, 1, 2, 3, 5):
            w = reconstruct(self.curve, unit(self.curve, 1, j))
            assert is_regular(self.curve, w) == (j in (0, 1, 2, 5)), j

    def test_obstruction_vector_of_unit_1_3(self):
        vec = obstruction_vector(self.curve, unit(self.curve, 1, 3))
        # the x^14 term sits in the second level-0 slot (slots start at 9)
        expected = [0] * self.curve.dim_obstruction
        expected[1] = 1
        assert list(vec) == expected


class TestReconstruct:
    def test_level_zero_units_pass_through(self):
        for p, text in ((3, "x^4+x^2"), (5, "x^11"), (7, "x^5+2*x^3")):
            c = make(p, text)
            for j in (0, 1):
                w = reconstruct(c, unit(c, 0, j))
                assert w[0] == FpPoly(p, [0] * j + [1])
                assert all(w[i].is_zero for i in range(1, p))

    def test_from_coords_places_each_unit(self):
        c = make(5, "x^11")
        basis = domain_basis(c)
        for k, (i, j) in enumerate(basis):
            coords = [0] * len(basis)
            coords[k] = 2
            assert from_coords(c, coords) == tuple(h * 2 for h in unit(c, i, j))

    def test_p3_closed_recursion(self):
        # for p = 3 the recursion collapses to one projection:
        # (h0, h1, 0) maps to (h0 + project(h1 * f)) + h1 y
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = random_curve(3, 8, rng)
            v = random_kernel_tuple(c, rng)
            w = reconstruct(c, v)
            h0, h1 = v[:2]
            assert w[1] == h1
            assert w[0] == h0 + section(h1 * c.f)
            assert w[2].is_zero

    def test_linearity(self):
        rng = np.random.default_rng(17)
        for p, d in ((3, 10), (5, 7), (7, 5)):
            c = random_curve(p, d, rng)
            for _ in range(5):
                u = random_kernel_tuple(c, rng)
                v = random_kernel_tuple(c, rng)
                lhs = reconstruct(c, tuple(a + b for a, b in zip(u, v)))
                rhs_u = reconstruct(c, u)
                rhs_v = reconstruct(c, v)
                for i in range(p):
                    assert lhs[i] == rhs_u[i] + rhs_v[i]

    def test_components_respect_comp_bound_and_slot_structure(self):
        rng = np.random.default_rng(23)
        for p, d in ((3, 14), (5, 12)):
            c = random_curve(p, d, rng)
            for _ in range(10):
                w = reconstruct(c, random_kernel_tuple(c, rng))
                for i in range(p):
                    h = w[i]
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
        rng = np.random.default_rng(53)
        for p, d in ((3, 10), (5, 8)):
            c = random_curve(p, d, rng)
            vectors = kernel_vectors(obstruction_matrix(c).a, p)
            assert vectors  # the a-number is at least the positive lower bound here
            for coords in vectors:
                v = from_coords(c, coords)
                assert is_regular(c, reconstruct(c, v))
                assert not any(obstruction_vector(c, v))

    def test_obstruction_kernel_is_killed_by_the_cover_cartier(self):
        # each kernel vector lifts to a regular differential; written in the
        # regular basis x^j y^i dx, the lifts must be independent and lie in
        # the kernel of the oracle's Cartier matrix, so the fast kernel is
        # the Cartier kernel itself, not only a space of the right dimension
        rng = np.random.default_rng(67)
        points = [(3, 8), (3, 17), (5, 7), (5, 11), (5, 13), (7, 9), (7, 12), (11, 5), (13, 4)]
        for p, d in points:
            for _ in range(3):
                c = random_curve(p, d, rng)
                rows = []
                for coords in kernel_vectors(obstruction_matrix(c).a, p):
                    w = reconstruct(c, from_coords(c, coords))
                    row = []
                    for h, b in zip(w, c.reg_bound):
                        assert h.degree <= b, (p, str(c.f), coords)
                        row += h.coeffs + (0,) * (b + 1 - len(h.coeffs))
                    rows.append(row)
                v = np.array(rows, dtype=np.int64).reshape(len(rows), c.genus)
                assert not kernel_vectors(v.T, p), (p, str(c.f))
                assert not (cartier_matrix(c).a @ v.T % p).any(), (p, str(c.f))

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
                vec = obstruction_vector(c, unit(c, i, j))
                assert tuple(int(x) for x in m[:, k]) == vec, (c.p, c.f, i, j)
        # at (67, 14) one reference column takes about 0.1 s and there are 429;
        # the map is linear, so random tuples check every column at once
        c = random_curve(67, 14, rng)
        m = obstruction_matrix(c).a
        for _ in range(3):
            coords = rng.integers(0, c.p, size=c.dim_domain)
            v = from_coords(c, coords)
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
        for build in (obstruction_matrix, obstruction_coords):
            with pytest.raises(HeadroomError, match="obstruction build"):
                build(big)

    def test_power_table_headroom_checked_before_building(self, monkeypatch):
        # p = 2^32 + 15: one product of two residues passes 2^63; with numpy
        # unavailable, any array built before the guard fails differently
        p = 2**32 + 15
        monkeypatch.setattr(asnum.anumber, "np", None)
        with pytest.raises(HeadroomError, match=r"\(-f\)\^e table"):
            _neg_f_power_stack(p, [(1, 1)])
        with pytest.raises(HeadroomError, match=r"\(-f\)\^e table"):
            _neg_f_power_terms(p, (1, 1), p - 1)

    def test_shapes_on_degenerate_curves(self):
        c = make(3, "x^2")
        assert obstruction_matrix(c).a.shape == (1, 1)
        assert a_number_fast(c) == 1
        assert_coords_match_dense(c)
        c = make(3, "x")
        assert obstruction_matrix(c).a.shape == (0, 0)
        assert a_number_fast(c) == 0
        assert_coords_match_dense(c)

    def test_reference_lift_is_zero_outside_the_live_rows(self):
        # the live rows come from a degree bound on the lift; the reference
        # lifts random tuples in FpPoly arithmetic, sharing no code with it
        rng = np.random.default_rng(71)
        for p in (2, 3, 5, 7, 11, 13):
            for d in (1, 2, p - 1, p + 1, 2 * p + 3, 3 * p - 1, 40):
                if d % p == 0:
                    continue
                c = random_curve(p, d, rng)
                dead = np.ones(c.dim_obstruction, dtype=bool)
                for i in range(p):
                    lo = c.row_start[i]
                    dead[lo : lo + c.live_start[i + 1] - c.live_start[i]] = False
                # a tuple on level 0 alone lifts to itself: no obstruction
                coords = np.zeros(c.dim_domain, dtype=np.int64)
                coords[: c.col_start[1]] = rng.integers(0, p, size=c.col_start[1])
                assert not any(obstruction_vector(c, from_coords(c, coords)))
                for _ in range(2):
                    vec = np.array(obstruction_vector(c, random_kernel_tuple(c, rng)))
                    assert not vec[dead].any(), (p, d, str(c.f))

    def test_live_stack_ranks_match_the_full_matrices(self):
        # 24 rows take the stack's shifted-add power table, a single curve
        # takes np.convolve
        rng = np.random.default_rng(73)
        for p, d in ((2, 13), (3, 17), (5, 11), (7, 30), (11, 25), (13, 17)):
            curves = [random_curve(p, d, rng) for _ in range(24)]
            c = curves[0]
            live = obstruction_stack(c, [curve.f.coeffs for curve in curves])
            assert live.shape == (*c.live_shape, 24)
            lengths = np.diff(c.live_start)
            rows = np.concatenate([np.arange(s, s + k) for s, k in zip(c.row_start, lengths)])
            blocks = np.moveaxis(live, -1, 0)
            for c, block, rank in zip(curves, blocks, stack_ranks(live.copy(), p)):
                full = obstruction_matrix(c)
                assert rank == rank_nullity(full)[0], (p, d, str(c.f))
                assert c.dim_domain - rank == a_number_fast(c)
                assert np.array_equal(full.a[rows, c.col_start[1] :], block)

    def test_single_curve_matches_its_row_in_a_stack(self):
        # a single curve takes the np.convolve power table; a stack of d + 2
        # rows, more than f has columns, takes the shifted adds
        rng = np.random.default_rng(79)
        for p in (5, 7, 13):
            for _ in range(8):
                d = int(rng.integers(1, 61))
                if d % p == 0:
                    continue
                curves = [random_curve(p, d, rng) for _ in range(d + 2)]
                c = curves[0]
                single = obstruction_stack(c, [c.f.coeffs])[..., 0]
                stacked = obstruction_stack(c, [curve.f.coeffs for curve in curves])
                assert np.array_equal(single, stacked[..., 0]), (p, d, str(c.f))

    def test_empty_live_block_builds_no_powers(self, monkeypatch):
        # at d = 2 the live block has no rows, so the a-number is the genus,
        # with no power of -f built
        def no_powers(*args, **kwargs):
            raise AssertionError("power table built for an empty live block")

        monkeypatch.setattr(asnum.anumber, "_neg_f_power_stack", no_powers)
        monkeypatch.setattr(asnum.anumber, "_neg_f_power_terms", no_powers)
        for p in (3, 13, 101, 1009):
            c = make(p, "x^2")
            assert c.live_shape[0] == 0
            assert a_number_fast(c) == c.genus
            assert obstruction_stack(c, [c.f.coeffs] * 3).shape == (*c.live_shape, 3)

    @pytest.mark.parametrize(
        "p, d, dtype",
        [(11, 36, np.int16), (11, 37, np.int32), (13, 20, np.int16), (13, 21, np.int32)],
    )
    def test_build_dtype_edges(self, p, d, dtype, monkeypatch):
        # the build's bound crosses from int16 to int32 between these points;
        # the int64 path needs p of about 1300, so it is forced here
        rng = np.random.default_rng(100 * p + d)
        curves = [random_curve(p, d, rng) for _ in range(24)]
        c = curves[0]
        assert narrowest_int_dtype(_check_build_headroom(c)) is dtype
        assert_coords_match_dense(c)
        rows = np.concatenate(
            [np.arange(s, s + k) for s, k in zip(c.row_start, np.diff(c.live_start))]
        )
        stack = obstruction_stack(c, [curve.f.coeffs for curve in curves])
        assert stack.dtype == dtype
        for curve, block in zip(curves, np.moveaxis(stack, -1, 0)):
            assert np.array_equal(densified(curve)[rows, c.col_start[1] :], block)
        monkeypatch.setattr(asnum.anumber, "narrowest_int_dtype", lambda bound: np.int64)
        wide = obstruction_stack(c, [curve.f.coeffs for curve in curves])
        assert wide.dtype == np.int64
        assert np.array_equal(wide, stack)

    @pytest.mark.parametrize("p, d, n, ratio", [(3, 17, 600, 4.0), (5, 499, 1, 2.5)])
    def test_stack_build_peak(self, p, d, n, ratio):
        # a survey chunk and a single large curve: the narrow accumulators
        # and padded powers keep the build's peak a small multiple of the
        # bytes its result would take in int64
        rng = np.random.default_rng(19)
        coeffs = [sample_poly(p, d, rng).coeffs for _ in range(n)]
        c = BasicCurve.from_poly(p, FpPoly(p, coeffs[0]))
        obstruction_stack(c, coeffs)
        tracemalloc.start()
        try:
            stack = obstruction_stack(c, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ratio * 8 * stack.size

    def test_single_curve_build_makes_no_int64_copy(self):
        # a stack of one is handed on in the build's narrow dtype: the peak
        # stays below 1.6x the bytes of its live block in int64, where a
        # further int64 copy of the block would pass it
        rng = np.random.default_rng(19)
        c = random_curve(5, 499, rng)
        obstruction_stack(c, [c.f.coeffs])
        tracemalloc.start()
        try:
            stack = obstruction_stack(c, [c.f.coeffs])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.dtype == np.int16
        assert peak < 1.6 * 8 * stack.size

    def test_build_peak_stays_below_twice_the_matrix(self):
        # the build negates and reduces its accumulator in place and makes
        # only the live block, which is set in the zeros of the full matrix
        c = random_curve(5, 499, np.random.default_rng(17))
        obstruction_matrix(c)
        tracemalloc.start()
        try:
            m = obstruction_matrix(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * m.a.nbytes


def densified(curve):
    """obstruction_coords(curve) as a dense array, once its coordinates are
    checked: int64, each (row, col) once, every value a nonzero residue."""
    r, c, v = obstruction_coords(curve)
    assert r.dtype == c.dtype == v.dtype == np.int64
    keys = r * curve.dim_domain + c
    assert np.unique(keys).size == keys.size
    assert ((v > 0) & (v < curve.p)).all()
    m = np.zeros((curve.dim_obstruction, curve.dim_domain), dtype=np.int64)
    m[r, c] = v
    return m


def assert_coords_match_dense(curve):
    m = obstruction_matrix(curve).a
    coords_m = densified(curve)
    assert (coords_m.dtype, coords_m.shape) == (m.dtype, m.shape)
    assert np.array_equal(coords_m, m), (curve.p, str(curve.f))


class TestObstructionCoords:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_family_members_match_the_dense_build(self, p):
        for d in [*range(1, 121), 451, 499]:
            if d % p:
                assert_coords_match_dense(
                    BasicCurve.from_poly(p, minimal_family(p, d)[0])
                )

    def test_family_matrix_bytes_pinned(self):
        # the pin of TestObstructionMap, recomputed from the coordinates
        m = densified(BasicCurve.from_poly(5, minimal_family(5, 499)[0]))
        assert hashlib.sha1(m.tobytes()).hexdigest() == "714eba6687081b979d47907c412bb948e46d7a8b"

    @pytest.mark.parametrize("p, delta, c", [(11, 3, 4), (11, 26, 13), (13, 3, 8), (13, 40, 8)])
    def test_trinomial_shape_at_larger_primes(self, p, delta, c):
        # the families' trinomial shape x^d + x^((d + p(m + k))/2) + x^(p m + c),
        # d = p^2 m + delta, k = 1 for odd delta and 2 for even, at an odd and
        # an even residue per prime; each c attains L(d) at m = 1 and 2
        for m in (1, 2):
            d = p * p * m + delta
            e = (d + p * (m + 2 - delta % 2)) // 2
            assert_coords_match_dense(make(p, f"x^{d}+x^{e}+x^{p * m + c}"))

    def test_terms_congruent_mod_p(self):
        # terms of one power of -f that agree mod p start unit progressions
        # at the same residue, whose keys interleave in one level
        for p, text in ((5, "x^23+x^18+x^8"), (7, "x^40+x^33+x^5")):
            assert_coords_match_dense(make(p, text))

    def test_cancelled_coordinates_are_dropped(self, monkeypatch):
        # at level 0 of this f a shifted compressed component cancels a unit
        # coordinate: the merge must drop that key, not emit a zero
        merge, vanished = asnum.anumber._merge, []

        def spy(keys, values, p):
            _, at, counts = np.unique(keys, return_inverse=True, return_counts=True)
            sums = np.zeros(counts.size, dtype=np.int64)
            np.add.at(sums, at, values)
            vanished.append(bool(((counts > 1) & (sums % p == 0)).any()))
            return merge(keys, values, p)

        monkeypatch.setattr(asnum.anumber, "_merge", spy)
        assert_coords_match_dense(make(5, "x^7+4*x^4+4*x^3"))
        assert any(vanished)

    def test_report_takes_the_coordinate_build_for_sparse_powers(self, monkeypatch):
        # a_number_fast picks the build from f: both sides of the choice,
        # checked against the oracle
        coords, calls = asnum.anumber.obstruction_coords, []

        def spy(curve):
            calls.append(curve)
            return coords(curve)

        monkeypatch.setattr(asnum.anumber, "obstruction_coords", spy)
        rng = np.random.default_rng(43)
        for p in (2, 3, 5, 7, 11, 13):
            for d in (7, 25, 60):
                lower = [e for e in range(1, d) if e % p]
                for terms in range(1, 6):
                    if d % p == 0 or terms > len(lower) + 1:
                        continue
                    coeffs = [0] * (d + 1)
                    for e in [d, *rng.choice(lower, terms - 1, replace=False)]:
                        coeffs[e] = int(rng.integers(1, p))
                    c = BasicCurve.from_poly(p, FpPoly(p, coeffs))
                    assert sum(map(bool, c.f.coeffs)) == terms
                    calls.clear()
                    assert report(c, "fast").a == a_number_oracle(c), (p, str(c.f))
                    assert len(calls) == (terms <= 3), (p, str(c.f))
        # at larger p the powers of a trinomial fill in: (-f)^top can have
        # comb(top + 2, 2) terms, 496 at p = 31 and 666 at p = 37, d = 40
        for p, f, takes_coords in (
            (31, "x^40+x^17+x^5", True),
            (37, "x^40+x^17+x^5", False),
            (37, "x^40+x^17", True),
            (101, "x^5+x^2", True),
            (101, "x^5", True),
        ):
            c = make(p, f)
            calls.clear()
            assert report(c, "fast").a == a_number_oracle(c), (p, f)
            assert len(calls) == takes_coords, (p, f)

    @pytest.mark.parametrize(
        "entries, what",
        [
            # the member's 12 table terms and, after its last level, 13 runs
            (25, "obstruction coordinate runs"),
            # the same and its 480 unit coordinates
            (505, "obstruction coordinates"),
        ],
    )
    def test_coordinate_count_is_checked_before_expanding(self, monkeypatch, entries, what):
        # with np.repeat unavailable in asnum.anumber, the expansion of the
        # unit coordinates fails the test unless the size check comes first
        class NoRepeat:
            def __getattr__(self, name):
                return getattr(np, name)

            def repeat(self, *args, **kwargs):
                raise AssertionError("np.repeat called before the size check")

        c = BasicCurve.from_poly(5, minimal_family(5, 499)[0])
        # the entries, at _COORD_CELLS = 16 cells each, pass the limit by one cell
        monkeypatch.setattr(asnum.numutil, "MAX_CELLS", 16 * entries - 1)
        monkeypatch.setattr(asnum.anumber, "np", NoRepeat())
        limit = f"{what}: 16 x {entries} exceeds the limit of {16 * entries - 1} "
        with pytest.raises(ValueError, match=limit):
            a_number_fast(c)

    def test_level_sums_count_their_shifted_copies(self, monkeypatch):
        # the (5, 16) member x^16 + x^14 + x^9 holds 84 entries when its
        # level 0 adds 4 shifted copies of higher components: those copies
        # pass the limit by one cell, and without them the a-number is L
        c = BasicCurve.from_poly(5, minimal_family(5, 16)[0])
        monkeypatch.setattr(asnum.numutil, "MAX_CELLS", 16 * 88 - 1)
        with pytest.raises(ValueError, match="obstruction coordinates: 16 x 88 exceeds"):
            a_number_fast(c)
        monkeypatch.setattr(asnum.numutil, "MAX_CELLS", 16 * 88)
        assert a_number_fast(c) == lower_bound_single(5, 16)

    def test_power_terms_are_counted_before_each_product(self, monkeypatch):
        # (-(1 + x + x^2))^e has 2e + 1 terms mod 13 for e <= 8: before the
        # eighth product, powers 0 .. 7 hold 64 terms and the product can
        # make 15 * 3 more; the table stops there, with nothing built past it
        monkeypatch.setattr(asnum.numutil, "MAX_CELLS", 16 * 109 - 1)
        with pytest.raises(ValueError, match=r"\(-f\)\^e terms: 16 x 109 exceeds"):
            _neg_f_power_terms(13, (1, 1, 1), 12)
        monkeypatch.setattr(asnum.numutil, "MAX_CELLS", 16 * 109)
        assert [len(e) for e, _ in _neg_f_power_terms(13, (1, 1, 1), 8)] == [
            1, 3, 5, 7, 9, 11, 13, 15, 17
        ]

    def test_power_terms_match_the_dense_table(self):
        rng = np.random.default_rng(41)
        for p, d in ((2, 9), (3, 10), (7, 12), (13, 5)):
            coeffs = sample_poly(p, d, rng).coeffs
            dense = _neg_f_power_stack(p, [coeffs])
            for e, (exps, vals) in enumerate(_neg_f_power_terms(p, coeffs, p - 1)):
                row = dense[e][:, 0]
                assert exps == np.flatnonzero(row).tolist(), (p, e)
                assert vals == row[exps].tolist(), (p, e)


@st.composite
def sparse_covers(draw, primes=(2, 3, 5, 7, 11, 13), dmax=60):
    """Covers whose f has 1 to 5 nonzero terms before normalization."""
    p = draw(st.sampled_from(primes))
    d = draw(st.integers(1, dmax).filter(lambda d: d % p))
    coeffs = [0] * (d + 1)
    for e in draw(st.lists(st.integers(0, d - 1), max_size=4, unique=True)):
        coeffs[e] = draw(st.integers(1, p - 1))
    coeffs[d] = draw(st.integers(1, p - 1))
    return BasicCurve.from_poly(p, FpPoly(p, coeffs))


@settings(max_examples=150, deadline=None)
@given(sparse_covers())
def test_coords_match_dense_build_on_sparse_f(c):
    assert_coords_match_dense(c)


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
                            x_j = FpPoly(p, [0] * j + [1])
                            image = cartier(x_j * powers[i - t])
                            image = image * math.comb(i, t)
                            assert image.degree <= c.reg_bound[t], (p, d, i, j, t)
                            want[: len(image.coeffs)] = image.coeffs
                        assert block == want, (p, d, str(c.f), i, j, t)

    @pytest.mark.parametrize("p, d", [(3, 499), (7, 101)])
    def test_rank_agrees_with_stack_ranks_on_structured_matrices(self, p, d):
        # _echelon runs hundreds of updates on these without reducing the rows
        # below the pivot; stack_ranks, a stack of one here, shares no code with it
        c = random_curve(p, d, np.random.default_rng(1000 * p + d))
        for m in (obstruction_matrix(c), cartier_matrix(c)):
            rank = rank_nullity(m)[0]
            assert rank > 100
            assert rank == stack_ranks(m.a[..., None].copy(), p)[0]

    def test_cartier_invariants_fire_on_a_wrong_layout(self):
        # the build checks its regular basis against the genus and the image
        # of every level against the regular span, instead of assuming both
        c = make(5, "x^11+x^8")
        reg = c.reg_bound
        wide = dataclasses.replace(c, reg_bound=(reg[0] + 1, *reg[1:]))
        with pytest.raises(InvariantViolation, match="regular basis size disagrees with the genus"):
            cartier_matrix(wide)
        moved = dataclasses.replace(c, reg_bound=(reg[0] - 2, reg[1] + 2, *reg[2:]))
        with pytest.raises(InvariantViolation, match="Cartier image left the regular span"):
            cartier_matrix(moved)
        # moving one exponent keeps every image inside the span
        shifted = dataclasses.replace(c, reg_bound=(reg[0] - 1, reg[1] + 1, *reg[2:]))
        assert cartier_matrix(shifted).a.shape == (c.genus, c.genus)

    def test_cartier_build_makes_no_second_full_copy(self):
        # the build hands its reduced array to FpMatrix without a second full copy
        c = random_curve(5, 499, np.random.default_rng(17))
        cartier_matrix(c)
        tracemalloc.start()
        try:
            m = cartier_matrix(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * m.a.nbytes

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

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_monomials_match_the_closed_form(self, p):
        # both paths against a count that shares no code with either
        for d in range(1, 40):
            if d % p:
                c = make(p, f"x^{d}")
                assert a_number_fast(c) == a_number_oracle(c) == monomial_a_number(p, d), d

    @pytest.mark.parametrize("p, d", [(101, 3), (101, 7), (211, 2)])
    def test_monomials_match_the_closed_form_at_large_primes(self, p, d):
        c = make(p, f"x^{d}")
        assert a_number_fast(c) == a_number_oracle(c) == monomial_a_number(p, d)

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

    def test_reports_the_first_entry_on_or_below_the_diagonal(self):
        # np.argwhere(np.tril(a))[0] is the reference: the first such entry
        # in row-major order
        rng = np.random.default_rng(61)
        for n in (1, 2, 5, 17, 40):
            for _ in range(20):
                a = np.triu(rng.integers(0, 7, size=(n, n)), 1)
                for _ in range(int(rng.integers(1, 4))):
                    r = int(rng.integers(0, n))
                    a[r, int(rng.integers(0, r + 1))] = int(rng.integers(1, 7))
                r, c = np.argwhere(np.tril(a))[0]
                with pytest.raises(InvariantViolation, match=rf"entry \({r}, {c}\) "):
                    _certified_p_rank(FpMatrix(7, a))

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
