"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is exact except criterion 7, whose tolerance bands are
statistical (about 3 sigma around the published fractions plus an allowance
for the sampling convention).
"""

import time

import numpy as np

from asnum.anumber import a_number_fast, a_number_oracle, cartier_matrix, p_rank
from asnum.bounds import level_sum, lower_bound_single
from asnum.curve import BasicCurve
from asnum.experiments import distribution, min_a_exhaustive, sample_poly, _rng_for
from asnum.families import verify_family
from asnum.fppoly import parse_poly
from reference import block_count, family_p5_mod5, is_regular, reconstruct, unit
from test_bounds import brute_force_block_count


def test_criterion_1_lower_bound_captions():
    start = time.perf_counter()
    expected = {(3, 17): 8, (5, 11): 10, (7, 12): 18, (11, 7): 18, (3, 14): 6}
    for (p, d), value in expected.items():
        assert lower_bound_single(p, d) == value, (p, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 5 * 0.001 * len(expected) + 0.05  # well under 1 ms each
    print(f"ACCEPTANCE 1 lower-bound captions: PASS ({elapsed * 1000:.2f} ms total)")


def test_criterion_2_family_p3_up_to_500():
    start = time.perf_counter()
    for d in range(1, 501):
        if d % 3 == 0:
            continue
        check = verify_family(3, d)
        assert check.ok, (d, check.a, check.bound)
    print(
        f"ACCEPTANCE 2 p=3 families d<=500: PASS "
        f"({time.perf_counter() - start:.1f} s)"
    )


def test_criterion_3_family_p5_up_to_500():
    start = time.perf_counter()
    strategies_seen = set()
    for d in range(1, 501):
        if d % 5 == 0:
            continue
        check = verify_family(5, d)
        assert check.ok, (d, check.a, check.bound, check.strategy)
        strategies_seen.add(check.strategy)
    # the sweep must exercise the binomial table, the mod-25 trinomial table
    # and the small-degree special cases
    assert {"p5_binomial", "p5_trinomial25", "small_d"} <= strategies_seen
    # all four mod-5 rows attain the bound too, including degrees the
    # dispatcher routes elsewhere
    for n in range(1, 31):
        for r in (1, 2, 3, 4):
            d = 5 * n + r
            a = a_number_fast(BasicCurve.from_poly(5, family_p5_mod5(d)))
            assert a == lower_bound_single(5, d), ("mod5", d)
    for d in (1, 2, 3, 4):
        a = a_number_fast(BasicCurve.from_poly(5, family_p5_mod5(d)))
        assert a == lower_bound_single(5, d), ("small", d)
    print(
        f"ACCEPTANCE 3 p=5 families d<=500 (+ all mod-5 rows): PASS "
        f"({time.perf_counter() - start:.1f} s)"
    )


def test_criterion_9_family_p7_up_to_1028():
    # the range the families module claims for p = 7
    start = time.perf_counter()
    total = 0
    strategies_seen = set()
    for d in range(1, 1029):
        if d % 7 == 0:
            continue
        check = verify_family(7, d)
        assert check.ok, (d, check.a, check.bound, check.strategy)
        strategies_seen.add(check.strategy)
        total += 1
    assert total == 882
    assert strategies_seen == {"p7_binomial", "p7_trinomial28", "small_d"}
    print(
        f"ACCEPTANCE 9 p=7 families d<=1028: PASS "
        f"({time.perf_counter() - start:.1f} s)"
    )


def test_criterion_4_dual_method_equivalence():
    start = time.perf_counter()
    checked = 0
    for p in (3, 5, 7):
        for d in range(1, 21):
            if d % p == 0:
                continue
            for index in range(100):
                f = sample_poly(p, d, _rng_for(1000 * p + d, index))
                curve = BasicCurve.from_poly(p, f)
                fast = a_number_fast(curve)
                oracle_m = cartier_matrix(curve)
                assert oracle_m.a.shape == (
                    (p - 1) * (d - 1) // 2,
                    (p - 1) * (d - 1) // 2,
                ), (p, d)
                assert fast == a_number_oracle(curve), (p, d, str(f))
                assert p_rank(curve) == 0, (p, d, str(f))
                checked += 1
    print(
        f"ACCEPTANCE 4 dual-method agreement on {checked} random covers: PASS "
        f"({time.perf_counter() - start:.1f} s)"
    )


def test_criterion_5_bound_combinatorics():
    start = time.perf_counter()
    for p in (3, 5, 7, 11, 13):
        for d in range(1, 201):
            if d % p == 0:
                continue
            sums = {j: level_sum(p, d, j) for j in range(p)}
            for j in range(1, p):
                assert sums[j] == sums[p - j], (p, d, j)
            for j in range((p + 1) // 2, p - 1):
                assert sums[j] >= sums[j + 1], (p, d, j)
            best = max(sums[j] for j in range(1, p))
            assert sums[(p - 1) // 2] == best, (p, d)
            for j in range(p):
                for i in range(j, p):
                    assert block_count(p, d, i, j) == brute_force_block_count(
                        p, d, i, j
                    ), (p, d, i, j)
                # the floor sums against the windows counted one at a time
                assert sums[j] == sum(block_count(p, d, i, j) for i in range(j, p)), (p, d, j)
    print(
        f"ACCEPTANCE 5 bound combinatorics p<=13 d<=200: PASS "
        f"({time.perf_counter() - start:.1f} s)"
    )


def test_criterion_6_worked_example():
    curve = BasicCurve.from_poly(5, parse_poly("x^11", 5))
    assert curve.reg_bound[0] == 7
    assert curve.reg_bound[1] == 5
    for j in (0, 1, 2, 3, 5):
        w = reconstruct(curve, unit(curve, 1, j))
        assert is_regular(curve, w) == (j in (0, 1, 2, 5)), j
    w = reconstruct(curve, unit(curve, 1, 3))
    assert w[1] == parse_poly("x^3", 5)
    assert w[0] == parse_poly("x^14", 5)
    assert all(w[i].is_zero for i in (2, 3, 4))
    print("ACCEPTANCE 6 worked example d=11: PASS")


def test_criterion_7_distribution_tables():
    start = time.perf_counter()
    # exact tallies pin the sampler and the survey engine; (3, 17) is the README's
    cases = [
        (3, 17, 10000, 0.63, 0.70, {8: 6650, 9: 2974, 10: 376}),
        (5, 11, 10000, 0.77, 0.83, {10: 8028, 11: 1877, 12: 78, 13: 13, 14: 4}),
        (7, 12, 1000, 0.80, 0.93, {18: 851, 19: 145, 20: 3, 21: 1}),
        (11, 7, 1000, 0.80, 0.93, {18: 901, 19: 99}),
    ]
    for p, d, n, lo, hi, tally in cases:
        dist = distribution(p, d, n, seed=1)
        assert dist.counts == tally, (p, d)
        bound = lower_bound_single(p, d)
        assert min(dist.counts) >= bound, (p, d)
        frac = dist.counts.get(bound, 0) / n
        assert lo <= frac <= hi, (p, d, frac)
        print(
            f"  table p={p} d={d}: fraction at bound = {frac:.4f} in [{lo}, {hi}]"
        )
    print(
        f"ACCEPTANCE 7 distribution tables: PASS "
        f"({time.perf_counter() - start:.1f} s)"
    )


def test_criterion_8_exhaustive_minimum():
    start = time.perf_counter()
    r34 = min_a_exhaustive(3, 4)
    assert r34.min_a == 2 == lower_bound_single(3, 4)
    assert r34.exhaustive and r34.candidates_tested == 18
    r32 = min_a_exhaustive(3, 2)
    assert r32.min_a == 1 == lower_bound_single(3, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 8 exhaustive minima: PASS ({elapsed:.2f} s)")
