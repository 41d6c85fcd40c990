"""Sampling, distributions, reproducibility, exhaustive and random search."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import asnum.experiments
from asnum.bounds import lower_bound_single
from asnum.curve import BasicCurve
from asnum.anumber import a_number_fast
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
    _chunk_rows,
    _random_chunks,
    _rng_for,
    _shape,
)
from asnum.fppoly import FpPoly


def set_chunk_rows(monkeypatch, p, d, rows):
    """Make engine chunks at (p, d) hold `rows` samples; None keeps the default."""
    if rows is not None:
        monkeypatch.setattr(asnum.experiments, "CHUNK_ROWS", rows)
        assert _chunk_rows(p, d) == rows


def fake_pool(monkeypatch):
    """Run pool jobs in this process; returns the list of max_workers asked for."""
    recorded = []

    class InProcessPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

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

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        recorded = fake_pool(monkeypatch)
        assert _chunk_rows(3, 17) >= 100
        for seed in range(3):
            serial = distribution(3, 17, 100, seed, threads=1)
            assert distribution(3, 17, 100, seed, threads=8).counts == serial.counts
        assert recorded == []

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
        assert _shape(p, 1).dim_domain == _shape(p, 1).dim_obstruction == 0
        for d in degrees:
            for rows, a in _a_numbers(p, d, _random_chunks(p, d, 7 * p + d, 0, 30)):
                expect = [
                    a_number_fast(BasicCurve.from_poly(p, FpPoly(p, row.tolist())))
                    for row in rows
                ]
                assert a.tolist() == expect, (p, d)

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
        shape = _shape(3, 17)
        cells = shape.dim_obstruction * shape.dim_domain
        monkeypatch.setattr(asnum.experiments, "CHUNK_CELLS", 5 * cells + 1)
        assert _chunk_rows(3, 17) == 5
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
        assert [a.tolist() for _, a in _a_numbers(3, 4, [np.array([good])])] == [[2]]
        with pytest.raises(ValueError, match="not normalized"):
            list(_a_numbers(3, 4, [np.array([good, row])]))

    def test_rejects_rows_of_another_degree(self):
        with pytest.raises(ValueError, match="not normalized"):
            list(_a_numbers(3, 4, [np.array([[0, 1, 2, 0, 1, 0]])]))


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
