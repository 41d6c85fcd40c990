"""Randomized and exhaustive surveys of a-numbers over degree-d covers.

Sampling draws uniformly over the normalized representatives of degree d:
leading coefficient nonzero, no monomials with exponent divisible by p, no
constant term.  This samples covers (up to the standard equivalence) rather
than raw polynomials; comparisons against published counts are therefore
statistical, not exact.

Every sample gets its own generator seeded from (master seed, sample index),
so tallies are bit-for-bit reproducible and independent of how samples are
distributed over worker processes.
"""

import itertools
import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .anumber import a_number_fast
from .bounds import lower_bound_single
from .curve import BasicCurve
from .fppoly import FpPoly
from .numutil import check_degree

SCHEMA_VERSION = 1

DEFAULT_EXHAUSTIVE_CAP = 10**6


class SearchSpaceError(ValueError):
    """Raised when an exhaustive enumeration would exceed its candidate cap."""


def free_exponents(p: int, d: int) -> list[int]:
    """Exponents 0 < e < d with p not dividing e: the free coefficient slots."""
    return [e for e in range(1, d) if e % p != 0]


def sample_space_size(p: int, d: int) -> int:
    """Number of normalized degree-d polynomials: (p-1) * p^(#free slots)."""
    check_degree(p, d)
    return (p - 1) * p ** len(free_exponents(p, d))


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def sample_poly(p: int, d: int, rng: np.random.Generator) -> FpPoly:
    """One uniform normalized polynomial of degree d.

    The leading coefficient is drawn first (uniform over nonzero residues),
    then the free slots in increasing exponent order; keep this order fixed
    or reproducibility breaks.
    """
    check_degree(p, d)
    coeffs = [0] * (d + 1)
    coeffs[d] = int(rng.integers(1, p))
    free = free_exponents(p, d)
    if free:
        vals = rng.integers(0, p, size=len(free))
        for e, v in zip(free, vals):
            coeffs[e] = int(v)
    return FpPoly(p, coeffs)


@dataclass(frozen=True)
class Distribution:
    """Tally of a-numbers over sampled degree-d covers.

    Counts must sum to n_samples, and no observed a-number may undercut the
    lower bound; both are enforced, also on tallies parsed back from files.
    """

    p: int
    d: int
    n_samples: int
    seed: int
    counts: dict
    elapsed: float

    def __post_init__(self):
        if sum(self.counts.values()) != self.n_samples:
            raise ValueError("counts do not sum to n_samples")
        if self.counts and min(self.counts) < lower_bound_single(self.p, self.d):
            raise ValueError("tally contains an a-number below the lower bound")

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "p": self.p,
            "d": self.d,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "counts": {str(a): self.counts[a] for a in sorted(self.counts)},
            "elapsed_ms": int(self.elapsed * 1000),
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Distribution":
        doc = json.loads(text)
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {doc.get('schema_version')}")
        return cls(
            p=doc["p"],
            d=doc["d"],
            n_samples=doc["n_samples"],
            seed=doc["seed"],
            counts={int(a): int(c) for a, c in doc["counts"].items()},
            elapsed=doc["elapsed_ms"] / 1000.0,
        )

    def to_csv(self) -> str:
        lines = [
            f"# schema_version={SCHEMA_VERSION}",
            f"# p={self.p}",
            f"# d={self.d}",
            f"# n_samples={self.n_samples}",
            f"# seed={self.seed}",
            f"# elapsed_ms={int(self.elapsed * 1000)}",
            "a,count",
        ]
        lines.extend(f"{a},{self.counts[a]}" for a in sorted(self.counts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Distribution":
        meta = {}
        counts = {}
        header_seen = False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                continue
            if line == "a,count":
                header_seen = True
                continue
            a_text, _, c = line.partition(",")
            a = int(a_text)
            if a in counts:
                raise ValueError(f"duplicate row for a = {a}")
            counts[a] = int(c)
        if not header_seen:
            raise ValueError("missing a,count header")
        return cls(
            p=int(meta["p"]),
            d=int(meta["d"]),
            n_samples=int(meta["n_samples"]),
            seed=int(meta["seed"]),
            counts=counts,
            elapsed=int(meta.get("elapsed_ms", "0")) / 1000.0,
        )


def _random_polys(p: int, d: int, seed: int, lo: int, hi: int):
    """The seeded samples with indices lo <= index < hi, in index order."""
    for index in range(lo, hi):
        yield sample_poly(p, d, _rng_for(seed, index))


def _all_polys(p: int, d: int):
    """Every normalized degree-d polynomial, by leading coefficient, then free slots in order."""
    free = free_exponents(p, d)
    for lead in range(1, p):
        for tail in itertools.product(range(p), repeat=len(free)):
            coeffs = [0] * (d + 1)
            coeffs[d] = lead
            for e, c in zip(free, tail):
                coeffs[e] = c
            yield FpPoly(p, coeffs)


def _a_numbers(p: int, polys):
    """The survey engine: (f, a-number of y^p - y = f) for each candidate f."""
    for f in polys:
        yield f, a_number_fast(BasicCurve.from_poly(p, f))


def _tally_range(args) -> Counter:
    p, d, seed, lo, hi = args
    return Counter(a for _, a in _a_numbers(p, _random_polys(p, d, seed, lo, hi)))


def distribution(
    p: int, d: int, n_samples: int, seed: int, threads: int = 1
) -> Distribution:
    """Tally a-numbers of n_samples random covers.

    The result depends only on (p, d, n_samples, seed); worker count affects
    speed only.  At most min(threads, CPU count, n_samples) worker processes
    are started.
    """
    check_degree(p, d)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    start = time.perf_counter()
    threads = min(threads, os.cpu_count() or 1, n_samples)
    if threads <= 1:
        counts = _tally_range((p, d, seed, 0, n_samples))
    else:
        chunk = max(1, -(-n_samples // (4 * threads)))
        jobs = [
            (p, d, seed, lo, min(lo + chunk, n_samples))
            for lo in range(0, n_samples, chunk)
        ]
        counts = Counter()
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(_tally_range, jobs):
                counts.update(part)
    elapsed = time.perf_counter() - start
    return Distribution(
        p=p,
        d=d,
        n_samples=n_samples,
        seed=seed,
        counts=dict(sorted(counts.items())),
        elapsed=elapsed,
    )


@dataclass(frozen=True)
class SearchResult:
    """Minimal observed a-number over a candidate set, with a witness."""

    p: int
    d: int
    min_a: int
    witness: FpPoly
    exhaustive: bool
    candidates_tested: int


def _search(p: int, d: int, polys, exhaustive: bool) -> SearchResult:
    """Minimum a-number over the candidates; the first to attain it is the witness."""
    best_a = None
    witness = None
    tested = 0
    for f, a in _a_numbers(p, polys):
        tested += 1
        if best_a is None or a < best_a:
            best_a, witness = a, f
    return SearchResult(
        p=p, d=d, min_a=best_a, witness=witness, exhaustive=exhaustive, candidates_tested=tested
    )


def min_a_exhaustive(p: int, d: int, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> SearchResult:
    """Minimum a-number over every normalized polynomial of degree d.

    Raises SearchSpaceError when the space exceeds ``cap`` candidates.
    """
    check_degree(p, d)
    total = sample_space_size(p, d)
    if total > cap:
        raise SearchSpaceError(
            f"search space has {total} candidates, above the cap of {cap}; "
            f"use min_a_random instead"
        )
    return _search(p, d, _all_polys(p, d), exhaustive=True)


def min_a_random(p: int, d: int, n_samples: int, seed: int) -> SearchResult:
    """Minimum a-number over n_samples random covers: an upper bound for the true minimum."""
    check_degree(p, d)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _search(p, d, _random_polys(p, d, seed, 0, n_samples), exhaustive=False)
