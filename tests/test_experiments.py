"""Sampling, distributions, reproducibility, exhaustive and random search."""

import json
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import asnum.experiments
from asnum.bounds import lower_bound_single
from asnum.curve import BasicCurve, layout
from asnum.anumber import a_number_fast, a_number_oracle, obstruction_stack
from asnum._seeded import bounded_draws
from asnum.experiments import (
    Distribution,
    SearchSpaceError,
    distribution,
    free_exponents,
    min_a_exhaustive,
    min_a_random,
    sample_poly,
    sample_space_size,
    _a_numbers,
    _all_chunks,
    _chunk_rows,
    _draw,
    _random_chunks,
    _rng_for,
    _seeded_rows,
)
from asnum.fppoly import FpPoly
from asnum.linalg import stack_ranks


def set_chunk_rows(monkeypatch, p, d, rows):
    """Make engine chunks at (p, d) hold `rows` samples; None keeps the default."""
    if rows is not None:
        monkeypatch.setattr(asnum.experiments, "CHUNK_ROWS", rows)
        assert _chunk_rows(layout(p, d)) == rows


def fake_pool(monkeypatch, jobs=None):
    """Run pool jobs in this process; returns the list of max_workers asked for.

    Each job's arguments are appended to `jobs` when it is given.
    """
    recorded = []

    class InProcessPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            args = list(args)
            if jobs is not None:
                jobs.extend(args)
            return map(fn, args)

    monkeypatch.setattr(asnum.experiments, "ProcessPoolExecutor", InProcessPool)
    return recorded


class TestSampling:
    def test_structure(self):
        rng = _rng_for(1, 0)
        for _ in range(30):
            f = sample_poly(3, 13, rng)
            assert f.degree == 13
            assert f.coeff(0) == 0
            assert all(f.coeff(e) == 0 for e in (3, 6, 9, 12))

    def test_determinism(self):
        a = sample_poly(5, 9, _rng_for(42, 3))
        b = sample_poly(5, 9, _rng_for(42, 3))
        assert a == b
        c = sample_poly(5, 9, _rng_for(42, 4))
        d = sample_poly(5, 9, _rng_for(43, 3))
        # different indices or master seeds give fresh draws
        assert not (a == c and a == d)

    def test_space_size(self):
        assert free_exponents(3, 4) == [1, 2]
        assert sample_space_size(3, 4) == 18
        assert sample_space_size(3, 2) == 6
        assert sample_space_size(5, 2) == 20
        # slot count: d-1 minus the multiples of p below d
        for p, d in ((3, 10), (5, 11), (7, 12)):
            assert len(free_exponents(p, d)) == (d - 1) - (d - 1) // p

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            sample_poly(3, 6, _rng_for(0, 0))


class TestDistribution:
    def test_reproducible_and_consistent(self):
        d1 = distribution(3, 7, 60, seed=5)
        d2 = distribution(3, 7, 60, seed=5)
        assert d1.counts == d2.counts
        assert sum(d1.counts.values()) == 60
        assert min(d1.counts) >= lower_bound_single(3, 7)
        d3 = distribution(3, 7, 60, seed=6)
        assert d3.counts != d1.counts or d3.seed != d1.seed

    def test_thread_count_does_not_change_counts(self, monkeypatch):
        # 7 samples per chunk: 40 samples fill 6 chunks, enough for a pool
        set_chunk_rows(monkeypatch, 3, 8, 7)
        serial = distribution(3, 8, 40, seed=9, threads=1)
        parallel = distribution(3, 8, 40, seed=9, threads=2)
        assert serial.counts == parallel.counts

    def test_worker_count_clamped_to_cpus(self, monkeypatch):
        recorded = fake_pool(monkeypatch)
        set_chunk_rows(monkeypatch, 3, 8, 7)
        clamped = distribution(3, 8, 40, seed=9, threads=10**6)
        cpus = os.cpu_count() or 1
        assert recorded == ([] if cpus == 1 else [min(cpus, 6)])
        assert clamped.counts == distribution(3, 8, 40, seed=9, threads=1).counts

    def test_jobs_hold_whole_chunks(self, monkeypatch):
        jobs = []
        fake_pool(monkeypatch, jobs)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        set_chunk_rows(monkeypatch, 3, 8, 7)
        parallel = distribution(3, 8, 300, seed=9, threads=2)
        sizes = [hi - lo for _, _, _, lo, hi in jobs]
        assert len(jobs) > 1 and all(size % 7 == 0 for size in sizes[:-1])
        assert [lo for *_, lo, _ in jobs] == [0, *np.cumsum(sizes[:-1]).tolist()]
        assert sum(sizes) == 300
        assert parallel.counts == distribution(3, 8, 300, seed=9, threads=1).counts

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        recorded = fake_pool(monkeypatch)
        assert _chunk_rows(layout(3, 17)) >= 100
        for seed in range(3):
            serial = distribution(3, 17, 100, seed, threads=1)
            assert distribution(3, 17, 100, seed, threads=8).counts == serial.counts
        assert recorded == []

    def test_one_shape_per_survey_and_per_job(self, monkeypatch):
        # a survey builds no curve: it takes the layout of (p, d) once per
        # call, or once per worker job
        calls = []
        monkeypatch.setattr(BasicCurve, "from_poly", None)
        monkeypatch.setattr(
            asnum.experiments, "layout", lambda p, d: calls.append((p, d)) or layout(p, d)
        )
        assert distribution(3, 17, 600, 1).counts == {8: 384, 9: 187, 10: 29}
        assert calls == [(3, 17)]
        calls.clear()
        min_a_random(3, 17, 600, 1)
        min_a_exhaustive(3, 4)
        assert calls == [(3, 17), (3, 4)]
        jobs = []
        fake_pool(monkeypatch, jobs)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        set_chunk_rows(monkeypatch, 3, 8, 7)
        calls.clear()
        distribution(3, 8, 300, seed=9, threads=2)
        assert len(jobs) > 1 and calls == [(3, 8)] * (1 + len(jobs))

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution(3, 6, 10, seed=0)
        with pytest.raises(ValueError):
            distribution(3, 7, 0, seed=0)
        with pytest.raises(ValueError):
            distribution(3, 7, 10, seed=-1)


class TestSerialization:
    def test_json_round_trip(self):
        dist = replace(distribution(3, 7, 25, seed=2), elapsed=0.125)
        assert Distribution.from_json(dist.to_json()) == dist

    def test_csv_round_trip(self):
        dist = replace(distribution(5, 6, 25, seed=2), elapsed=0.125)
        text = dist.to_csv()
        assert text.startswith("# schema_version=1\n")
        assert "a,count" in text
        assert Distribution.from_csv(text) == dist

    def test_schema_version_rules(self):
        dist = replace(distribution(3, 7, 25, seed=2), elapsed=0.125)
        doc = json.loads(dist.to_json())
        csv = dist.to_csv()
        for version in (2, 0):
            with pytest.raises(ValueError, match=f"unsupported schema version {version}"):
                Distribution.from_json(json.dumps({**doc, "schema_version": version}))
            with pytest.raises(ValueError, match=f"unsupported schema version {version}"):
                Distribution.from_csv(csv.replace("schema_version=1", f"schema_version={version}"))
        # JSON must carry the version; CSV without the line reads as version 1
        del doc["schema_version"]
        with pytest.raises(ValueError, match="unsupported schema version None"):
            Distribution.from_json(json.dumps(doc))
        assert Distribution.from_csv(csv.replace("# schema_version=1\n", "")) == dist

    @pytest.mark.parametrize("key", ["p", "d", "n_samples", "seed", "counts", "elapsed_ms"])
    def test_missing_field_is_named(self, key):
        dist = distribution(3, 7, 25, seed=2)
        doc = json.loads(dist.to_json())
        del doc[key]
        with pytest.raises(ValueError, match=f"field '{key}'"):
            Distribution.from_json(json.dumps(doc))
        # CSV counts are the a,count table, and a CSV may leave out elapsed_ms
        if key not in ("counts", "elapsed_ms"):
            text = "".join(
                line for line in dist.to_csv().splitlines(True) if not line.startswith(f"# {key}=")
            )
            with pytest.raises(ValueError, match=f"field '{key}'"):
                Distribution.from_csv(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("p", "3"),
            ("d", 7.0),
            ("n_samples", 25.0),
            ("seed", True),
            ("elapsed_ms", "5"),
            ("counts", [1]),
            ("counts", {"8": 25.0}),
            ("counts", {"eight": 25}),
        ],
    )
    def test_field_of_wrong_type_is_named(self, key, value):
        doc = json.loads(distribution(3, 7, 25, seed=2).to_json())
        doc[key] = value
        with pytest.raises(ValueError, match=f"field '{key}'"):
            Distribution.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "counts, n_samples, message",
        [
            ({8: 30, 9: -5}, 25, "negative count"),
            ({99: 25}, 25, "above the genus"),
            ({7: 25}, 25, "below the lower bound"),
            ({}, 0, "at least 1"),
        ],
    )
    def test_impossible_tally_is_refused(self, counts, n_samples, message):
        # (3, 17): L = 8, genus 16; the constructor and both readers refuse it
        with pytest.raises(ValueError, match=message):
            Distribution(p=3, d=17, n_samples=n_samples, seed=0, counts=counts, elapsed=0.0)
        doc = json.loads(distribution(3, 17, 25, seed=2).to_json())
        doc["n_samples"] = n_samples
        doc["counts"] = {str(a): c for a, c in counts.items()}
        with pytest.raises(ValueError, match=message):
            Distribution.from_json(json.dumps(doc))
        text = f"# p=3\n# d=17\n# n_samples={n_samples}\n# seed=0\na,count\n"
        text += "".join(f"{a},{c}\n" for a, c in counts.items())
        with pytest.raises(ValueError, match=message):
            Distribution.from_csv(text)

    def test_large_prime_tally_is_checked_without_a_layout(self, monkeypatch):
        # a layout takes O(p) work and memory; the genus check must not
        monkeypatch.setattr(asnum.experiments, "layout", None)
        p, d = 100003, 2
        genus = (p - 1) * (d - 1) // 2
        assert Distribution(p, d, 1, 0, {genus: 1}, 0.0).counts == {genus: 1}
        with pytest.raises(ValueError, match="above the genus"):
            Distribution(p, d, 1, 0, {genus + 1: 1}, 0.0)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", -4, "seed must be nonnegative"),
            ("elapsed_ms", -9, "elapsed time is negative"),
        ],
    )
    def test_impossible_request_is_refused(self, key, value, message):
        # no survey has a negative seed or elapsed time; the constructor runs
        # the request check and the time check, so both readers refuse them
        dist = distribution(3, 7, 25, seed=2)
        doc = json.loads(dist.to_json())
        with pytest.raises(ValueError, match=message):
            Distribution.from_json(json.dumps({**doc, key: value}))
        text = dist.to_csv().replace(f"# {key}={doc[key]}\n", f"# {key}={value}\n")
        assert f"# {key}={value}\n" in text
        with pytest.raises(ValueError, match=message):
            Distribution.from_csv(text)

    def test_json_schema_fields(self):
        doc = json.loads(distribution(3, 4, 5, seed=1).to_json())
        assert set(doc) == {
            "schema_version",
            "p",
            "d",
            "n_samples",
            "seed",
            "counts",
            "elapsed_ms",
        }

    def test_csv_rejects_duplicate_rows(self):
        text = "# p=3\n# d=4\n# n_samples=1\n# seed=0\na,count\n2,5\n2,1\n"
        with pytest.raises(ValueError, match="duplicate row for a = 2"):
            Distribution.from_csv(text)

    def test_csv_rejects_headerless_text(self):
        with pytest.raises(ValueError, match="field 'counts'"):
            Distribution.from_csv("# p=3\n# d=4\n# n_samples=1\n# seed=0\n1,1\n")

    def test_tally_invariants_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(p=3, d=4, n_samples=5, seed=0, counts={2: 4}, elapsed=0.0)
        with pytest.raises(ValueError, match="below the lower bound"):
            Distribution(p=3, d=4, n_samples=1, seed=0, counts={1: 1}, elapsed=0.0)


class TestExhaustiveSearch:
    def test_small_cases(self):
        result = min_a_exhaustive(3, 4)
        assert (result.min_a, str(result.witness), result.candidates_tested) == (
            2,
            "x^4+x^2",
            18,
        )
        assert result.exhaustive
        assert a_number_fast(BasicCurve.from_poly(3, result.witness)) == 2

        assert min_a_exhaustive(3, 2).min_a == 1
        assert min_a_exhaustive(5, 2).min_a == lower_bound_single(5, 2) == 2

    def test_minimum_equals_bound_on_small_degrees(self):
        for p, d in ((3, 4), (3, 5), (5, 2), (5, 3)):
            assert min_a_exhaustive(p, d).min_a == lower_bound_single(p, d)

    def test_cap_enforced(self):
        with pytest.raises(SearchSpaceError, match="min_a_random"):
            min_a_exhaustive(3, 40)
        # a generous explicit cap lets the same call proceed conceptually
        assert min_a_exhaustive(3, 4, cap=18).candidates_tested == 18
        with pytest.raises(SearchSpaceError):
            min_a_exhaustive(3, 4, cap=17)


class TestEngine:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_per_curve_evaluation(self, p):
        degrees = [d for d in (1, 2, 3, 4, 5, 9, 14, 17) if d % p]
        # the shapes include empty matrices: no obstruction rows, no domain
        assert layout(p, 1).dim_domain == layout(p, 1).dim_obstruction == 0
        for d in degrees:
            shape = layout(p, d)
            for rows, a in _a_numbers(shape, _random_chunks(shape, 7 * p + d, 0, 30)):
                expect = [
                    a_number_fast(BasicCurve.from_poly(p, FpPoly(p, row.tolist())))
                    for row in rows
                ]
                assert a.tolist() == expect, (p, d)

    @pytest.mark.parametrize("p, d", [(3, 17), (5, 11), (7, 30)])
    def test_whole_chunks_match_the_oracle(self, p, d):
        # the Cartier oracle shares only the single-row np.convolve power
        # table with the engine, whose chunks take the shifted adds
        shape = layout(p, d)
        rows = _seeded_rows(p, d, 11 * p + d, 0, 64)
        a = shape.dim_domain - stack_ranks(obstruction_stack(shape, rows), p)
        expect = [a_number_oracle(BasicCurve.from_poly(p, FpPoly(p, row.tolist()))) for row in rows]
        assert a.tolist() == expect, (p, d)
        assert len(set(expect)) > 1, (p, d)

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_tallies_independent_of_chunk_boundaries(self, monkeypatch, rows):
        # tallies and witness recorded with the one-cover-at-a-time engine
        cases = [
            ((3, 17, 300, 4), {8: 197, 9: 94, 10: 9}),
            ((5, 11, 100, 4), {10: 84, 11: 16}),
            ((7, 9, 40, 2), {13: 36, 14: 4}),
        ]
        for (p, d, n, seed), tally in cases:
            set_chunk_rows(monkeypatch, p, d, rows)
            assert distribution(p, d, n, seed).counts == tally, (p, d)
        set_chunk_rows(monkeypatch, 5, 11, rows)
        r = min_a_random(5, 11, 300, seed=2)
        assert (r.min_a, str(r.witness), r.candidates_tested) == (
            10,
            "4*x^11+x^9+2*x^7+4*x^6+2*x^4+x^3+x",
            300,
        )

    def test_chunks_respect_the_cell_cap(self, monkeypatch):
        rows, cols = layout(3, 17).live_shape
        cells = rows * cols
        monkeypatch.setattr(asnum.experiments, "CHUNK_CELLS", 5 * cells + 1)
        assert _chunk_rows(layout(3, 17)) == 5
        assert distribution(3, 17, 300, 4).counts == {8: 197, 9: 94, 10: 9}

    @pytest.mark.parametrize(
        "row",
        [
            [1, 1, 2, 0, 1],  # constant term
            [0, 1, 2, 0, 0],  # degree below 4
            [0, 1, 2, 1, 1],  # x^3, exponent divisible by p
            [0, 3, 2, 0, 1],  # coefficient not reduced mod p
            [0, -1, 2, 0, 1],  # negative coefficient
        ],
    )
    def test_rejects_rows_not_normalized(self, row):
        good = [0, 1, 2, 0, 2]
        assert [a.tolist() for _, a in _a_numbers(layout(3, 4), [np.array([good])])] == [[2]]
        with pytest.raises(ValueError, match="not normalized"):
            list(_a_numbers(layout(3, 4), [np.array([good, row])]))

    def test_rejects_rows_of_another_degree(self):
        with pytest.raises(ValueError, match="not normalized"):
            list(_a_numbers(layout(3, 4), [np.array([[0, 1, 2, 0, 1, 0]])]))


class TestSeededDraw:
    """The batched seeded draw against the per-sample generators it mirrors."""

    @staticmethod
    def reference(p, d, seed, lo, hi):
        return _draw(p, d, [_rng_for(seed, index) for index in range(lo, hi)])

    @staticmethod
    def exact_rows(p, d, seed, lo, hi):
        free = free_exponents(p, d)
        return bounded_draws(seed, lo, hi, [p - 1] + [p] * len(free))[1]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 65537])
    def test_matches_per_sample_generators(self, p):
        for d in (d for d in (1, 4, 7, 11) if d % p):
            for seed in (0, 1, 2**32 - 1, 2**32):
                rows = _seeded_rows(p, d, seed, 0, 24)
                assert np.array_equal(rows, self.reference(p, d, seed, 0, 24)), (p, d, seed)
                # a seed of 2^32 is three entropy words: every row falls back
                assert self.exact_rows(p, d, seed, 0, 24).all() == (seed < 2**32)

    def test_indices_across_two_to_the_32(self):
        lo, hi = 2**32 - 4, 2**32 + 4
        for p, d in ((3, 17), (5, 11)):
            rows = _seeded_rows(p, d, 7, lo, hi)
            assert np.array_equal(rows, self.reference(p, d, 7, lo, hi))
            assert self.exact_rows(p, d, 7, lo, hi).tolist() == [True] * 4 + [False] * 4

    def test_rejected_draws_fall_back(self):
        # Lemire's draw redraws about half the words for a range just above 2^31
        p = 2147483659
        exact = self.exact_rows(p, 3, 1, 0, 64)
        assert exact.any() and not exact.all()
        assert np.array_equal(_seeded_rows(p, 3, 1, 0, 64), self.reference(p, 3, 1, 0, 64))

    @pytest.mark.parametrize("cells", [1, 200, None])
    def test_chunks_across_draw_blocks(self, monkeypatch, cells):
        # each chunk is one draw; a CHUNK_CELLS cap below the 2x2 live block
        # of (3, 8) times 7 rows cuts the draws to one row each
        set_chunk_rows(monkeypatch, 3, 8, 7)
        if cells is not None:
            monkeypatch.setattr(asnum.experiments, "CHUNK_CELLS", cells)
        chunks = list(_random_chunks(layout(3, 8), 5, 3, 60))
        lengths = [1] * 57 if cells == 1 else [7] * 8 + [1]
        assert [len(rows) for rows in chunks] == lengths
        assert np.array_equal(np.concatenate(chunks), self.reference(3, 8, 5, 3, 60))


class TestSearchAcrossChunks:
    # recorded with the one-cover-at-a-time engine; with 7 samples per chunk
    # the first candidate to attain the minimum must win over later chunks
    @pytest.mark.parametrize("rows", [7, None])
    def test_exhaustive_witness(self, monkeypatch, rows):
        set_chunk_rows(monkeypatch, 3, 10, rows)
        r = min_a_exhaustive(3, 10)
        assert (r.min_a, str(r.witness), r.candidates_tested) == (4, "x^10+x^8", 1458)

    @pytest.mark.parametrize("rows", [7, None])
    def test_random_witness(self, monkeypatch, rows):
        set_chunk_rows(monkeypatch, 3, 17, rows)
        r = min_a_random(3, 17, 1500, seed=5)
        assert (r.min_a, str(r.witness), r.candidates_tested) == (
            8,
            "2*x^17+x^16+2*x^11+x^8+x^7+x^5+2*x^4+2*x",
            1500,
        )


class TestRandomSearch:
    def test_basic(self):
        result = min_a_random(3, 10, 40, seed=3)
        assert not result.exhaustive
        assert result.candidates_tested == 40
        assert result.min_a >= lower_bound_single(3, 10)
        assert a_number_fast(BasicCurve.from_poly(3, result.witness)) == result.min_a

    def test_reproducible(self):
        r1 = min_a_random(5, 7, 30, seed=8)
        r2 = min_a_random(5, 7, 30, seed=8)
        assert r1.min_a == r2.min_a and r1.witness == r2.witness
        # the first candidate attaining the minimum is the witness
        assert (r1.min_a, str(r1.witness), r1.candidates_tested) == (
            7,
            "3*x^7+x^6+4*x^3+x^2+x",
            30,
        )

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            min_a_random(5, 7, 3, seed=-1)

    def test_large_prime_minima(self):
        # the bound is attained by most covers, so modest sample counts find it
        assert min_a_random(7, 12, 150, seed=1).min_a == 18
        assert min_a_random(11, 7, 150, seed=1).min_a == 18


class TestDegreeDividingPMinusOne:
    """When d divides p - 1, every cover of degree d has a = L(d).

    Recalled from S. Farnell and R. Pries, "Families of Artin-Schreier curves
    with Cartier-Manin matrix of constant rank", Linear Algebra Appl. 439
    (2013): for d | p - 1 the Cartier-Manin matrix of y^p - y = f has the
    same rank for every f of degree d.  The tallies below are the evidence
    here, not a proof.
    """

    def test_every_cover_at_11_5(self):
        shape = layout(11, 5)
        counts = Counter()
        for _, a in _a_numbers(shape, _all_chunks(shape)):
            counts.update(a.tolist())
        assert counts == {lower_bound_single(11, 5): sample_space_size(11, 5)} == {12: 146410}

    def test_seeded_survey_at_19_9(self):
        assert distribution(19, 9, 3000, 1).counts == {lower_bound_single(19, 9): 3000}
        assert lower_bound_single(19, 9) == 40
