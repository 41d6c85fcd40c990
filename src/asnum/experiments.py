"""Randomized and exhaustive surveys of a-numbers over degree-d covers.

Sampling draws uniformly over the normalized representatives of degree d:
leading coefficient nonzero, no monomials with exponent divisible by p, no
constant term.  This samples covers (up to the standard equivalence) rather
than raw polynomials; comparisons against published counts are therefore
statistical, not exact.

Every sample gets its own generator seeded from (master seed, sample index),
so tallies are bit-for-bit reproducible and independent of how samples are
distributed over worker processes.  Only a survey with threads > 1 starts
a pool, so only that branch imports ProcessPoolExecutor, and with it
multiprocessing: importing the package loads neither.  A survey does not
build those generators one by one: asnum._seeded mirrors numpy's
SeedSequence, PCG64 and 32-bit Lemire algorithms in numpy integer
arithmetic and draws a whole chunk of samples at once, bit for bit.  The per-sample generator (_rng_for
and _draw) is its reference, and draws the few rows the batch cannot.

The survey engine, _a_numbers, works on chunks: (N, d+1) arrays of
coefficient rows, drawn or enumerated in index order.  The obstruction
matrix has a layout fixed by (p, d), the cached curve.layout(p, d); a
survey takes it once (once per worker job) and passes it on.  So a
chunk is checked for normalization with one vectorized test, built as one
obstruction stack and ranked by one stacked elimination; no FpPoly or
BasicCurve is made per sample.  The build, the stack it hands on and the
elimination all hold the sample axis last, (..., N), so their numpy calls
walk contiguous memory and the stack passes between them as it was built,
(rows, cols, N), in the build's narrow dtype.  The stack holds
only the live blocks (Layout), the part of each matrix that can be
nonzero, so a = dim_domain - rank of the live block.  A chunk holds at most
CHUNK_ROWS samples and CHUNK_CELLS live-block cells, so memory stays flat for
any n, and chunk boundaries change no result.
"""

import json
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._seeded import bounded_draws
from .anumber import obstruction_stack
from .bounds import lower_bound_single
from .curve import Layout, genus, layout
from .fppoly import FpPoly
from .linalg import stack_ranks
from .numutil import ceil_div, check_degree

SCHEMA_VERSION = 1

# Distribution fields a survey file holds unchanged, in file order
_FIELDS = ("p", "d", "n_samples", "seed")

DEFAULT_EXHAUSTIVE_CAP = 10**6

# An engine chunk holds at most CHUNK_ROWS samples and CHUNK_CELLS
# live-block cells (per stack 2 MB in int16, 8 MB in int64).  The per-chunk
# numpy calls dominate on the small live blocks of (3, 17) and (5, 11), 4x4
# and 11x11.
# Median per sample over 15 interleaved surveys of 8192 samples, on a
# shared 2-core VM, at 128 / 512 / 1024 / 2048 / 4096 samples per chunk:
# (3, 17) 6.8 / 2.9 / 2.0 / 1.8 / 1.9 us, (5, 11) 9.5 / 4.0 / 3.2 / 2.5 /
# 2.4 us; the int16 stack of a chunk of 2048 at (5, 11) holds 0.5 MB.
# Matrices of a few hundred rows gain from chunks of several samples up to
# the cell cap.  The seeded draw (asnum._seeded), one per chunk, costs
# mostly numpy calls made once per draw: 2.8 us per sample in draws of 128
# samples at (3, 17), 1.0 us from about 600 on.
CHUNK_ROWS = 2048
CHUNK_CELLS = 2**20


class SearchSpaceError(ValueError):
    """Raised when an exhaustive enumeration would exceed its candidate cap."""


def free_exponents(p: int, d: int) -> list[int]:
    """Exponents 0 < e < d with p not dividing e: the free coefficient slots."""
    return [e for e in range(1, d) if e % p != 0]


def sample_space_size(p: int, d: int) -> int:
    """Number of normalized degree-d polynomials: (p-1) * p^(#free slots)."""
    check_degree(p, d)
    return (p - 1) * p ** len(free_exponents(p, d))


def _check_request(p: int, d: int, n_samples: int, seed: int) -> None:
    """Raise ValueError unless (p, d, n_samples, seed) asks for a valid survey."""
    check_degree(p, d)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _rng_for(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _draw(p: int, d: int, rngs) -> np.ndarray:
    """One uniform normalized degree-d coefficient row per generator, (N, d+1).

    Each generator draws the leading coefficient first (uniform over nonzero
    residues), then the free slots in increasing exponent order; keep this
    order fixed or reproducibility breaks.  This is the reference for the
    batched draw of _seeded_rows, which mirrors numpy's SeedSequence, PCG64
    and 32-bit Lemire algorithms to give the same rows without a generator
    per sample.
    """
    free = free_exponents(p, d)
    leads = []
    tails = []
    for rng in rngs:
        leads.append(rng.integers(1, p))
        if free:
            tails.append(rng.integers(0, p, size=len(free)))
    rows = np.zeros((len(leads), d + 1), dtype=np.int64)
    rows[:, d] = leads
    if free:
        rows[:, free] = tails
    return rows


def sample_poly(p: int, d: int, rng: np.random.Generator) -> FpPoly:
    """One uniform normalized polynomial of degree d: a one-row draw."""
    check_degree(p, d)
    return FpPoly(p, _draw(p, d, [rng])[0].tolist())


@dataclass(frozen=True)
class Distribution:
    """Tally of a-numbers over sampled degree-d covers.

    (p, d, n_samples, seed) passes the check of a survey request, elapsed
    is nonnegative, every count is nonnegative and they sum to n_samples,
    and every observed a-number lies in [L(d), genus]; all of this is
    enforced, also on tallies parsed back from files.
    """

    p: int
    d: int
    n_samples: int
    seed: int
    counts: dict
    elapsed: float

    def __post_init__(self):
        _check_request(self.p, self.d, self.n_samples, self.seed)
        if self.elapsed < 0:
            raise ValueError("elapsed time is negative")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("tally contains a negative count")
        if sum(self.counts.values()) != self.n_samples:
            raise ValueError("counts do not sum to n_samples")
        if self.counts and min(self.counts) < lower_bound_single(self.p, self.d):
            raise ValueError("tally contains an a-number below the lower bound")
        if self.counts and max(self.counts) > genus(self.p, self.d):
            raise ValueError("tally contains an a-number above the genus")

    def _record(self) -> dict:
        """The survey file record in file order; CSV writes the counts last, as rows."""
        return {
            "schema_version": SCHEMA_VERSION,
            **{key: getattr(self, key) for key in _FIELDS},
            "counts": {a: self.counts[a] for a in sorted(self.counts)},
            "elapsed_ms": int(self.elapsed * 1000),
        }

    @classmethod
    def _from_record(cls, record: dict) -> "Distribution":
        """The Distribution a parsed survey file holds; both readers end here.

        Raises ValueError on a schema_version other than SCHEMA_VERSION, and
        on a field that is missing or not an int (counts: not a mapping from
        a-numbers to int counts), naming it.  A bool is not an int here; an
        a-number may be written as a decimal string, as JSON keys are.
        """
        if record.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {record.get('schema_version')}")
        for key in (*_FIELDS, "counts", "elapsed_ms"):
            if key not in record:
                raise ValueError(f"survey file lacks field {key!r}")
        for key in (*_FIELDS, "elapsed_ms"):
            if type(record[key]) is not int:
                raise ValueError(f"survey file field {key!r} is not an integer")
        counts = record["counts"]
        if not isinstance(counts, dict) or not all(
            type(c) is int and (type(a) is int or (isinstance(a, str) and a.isdecimal()))
            for a, c in counts.items()
        ):
            raise ValueError("survey file field 'counts' is not a mapping of integers")
        return cls(
            **{key: record[key] for key in _FIELDS},
            counts={int(a): c for a, c in counts.items()},
            elapsed=record["elapsed_ms"] / 1000.0,
        )

    def to_json(self) -> str:
        return json.dumps(self._record(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Distribution":
        return cls._from_record(json.loads(text))

    def to_csv(self) -> str:
        record = self._record()
        counts = record.pop("counts")
        lines = [f"# {key}={value}" for key, value in record.items()]
        lines.append("a,count")
        lines.extend(f"{a},{c}" for a, c in counts.items())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Distribution":
        # a CSV file may leave out schema_version and elapsed_ms
        record = {"schema_version": SCHEMA_VERSION, "elapsed_ms": 0}
        counts = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                if key in ("schema_version", *_FIELDS, "elapsed_ms"):
                    record[key] = int(value)
                continue
            if line == "a,count":
                record["counts"] = counts
                continue
            a_text, _, c = line.partition(",")
            a = int(a_text)
            if a in counts:
                raise ValueError(f"duplicate row for a = {a}")
            counts[a] = int(c)
        return cls._from_record(record)


def _chunk_rows(shape: Layout) -> int:
    """Samples per engine chunk at the shape's (p, d): within CHUNK_ROWS and
    CHUNK_CELLS of the live blocks, at least one."""
    rows, cols = shape.live_shape
    cells = max(1, rows * cols)
    return max(1, min(CHUNK_ROWS, CHUNK_CELLS // cells))


def _seeded_rows(p: int, d: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """_draw over _rng_for(seed, index) for lo <= index < hi, in one batched draw.

    Rows the batch cannot give exactly (see asnum._seeded) are drawn with
    their own generator.
    """
    free = free_exponents(p, d)
    draws, exact = bounded_draws(seed, lo, hi, [p - 1] + [p] * len(free))
    rows = np.zeros((hi - lo, d + 1), dtype=np.int64)
    rows[:, d] = draws[:, 0] + 1
    rows[:, free] = draws[:, 1:]
    for r in np.flatnonzero(~exact):
        rows[r] = _draw(p, d, [_rng_for(seed, lo + int(r))])[0]
    return rows


def _random_chunks(shape: Layout, seed: int, lo: int, hi: int):
    """The seeded samples with indices lo <= index < hi, in index order, as
    chunks, each one batched draw."""
    size = _chunk_rows(shape)
    for start in range(lo, hi, size):
        yield _seeded_rows(shape.p, shape.d, seed, start, min(start + size, hi))


def _all_chunks(shape: Layout):
    """Every normalized degree-d polynomial as chunks, in enumeration order.

    Candidate k is the mixed-radix number (leading coefficient - 1, then the
    free slots in increasing exponent order), the last slot varying fastest.
    """
    p, d = shape.p, shape.d
    free = free_exponents(p, d)
    total = sample_space_size(p, d)
    size = _chunk_rows(shape)
    for start in range(0, total, size):
        k = np.arange(start, min(start + size, total), dtype=np.int64)
        rows = np.zeros((len(k), d + 1), dtype=np.int64)
        for e in reversed(free):
            k, rows[:, e] = np.divmod(k, p)
        rows[:, d] = k + 1
        yield rows


def _a_numbers(shape: Layout, chunks):
    """The survey engine: (rows, a-numbers) for each chunk of coefficient rows.

    Each chunk is an (N, d+1) int64 array of normalized polynomials f of
    the shape's degree d; its a-numbers are those of the covers
    y^p - y = f, as an int64 array of length N.  Raises ValueError on a row
    that is not normalized with degree d.
    """
    p, d = shape.p, shape.d
    for rows in chunks:
        if (
            rows.shape[1] != d + 1
            or ((rows < 0) | (rows >= p)).any()
            or not rows[:, d].all()
            or rows[:, ::p].any()
        ):
            raise ValueError(f"rows are not normalized polynomials of degree {d} mod {p}")
        yield rows, shape.dim_domain - stack_ranks(obstruction_stack(shape, rows), p)


def _tally(shape: Layout, seed: int, lo: int, hi: int) -> Counter:
    counts = Counter()
    for _, a in _a_numbers(shape, _random_chunks(shape, seed, lo, hi)):
        counts.update(a.tolist())
    return counts


def _tally_range(args) -> Counter:
    """A worker job: the tally of samples lo .. hi-1, on its own shape."""
    p, d, seed, lo, hi = args
    return _tally(layout(p, d), seed, lo, hi)


def distribution(
    p: int, d: int, n_samples: int, seed: int, threads: int = 1
) -> Distribution:
    """Tally a-numbers of n_samples random covers.

    The result depends only on (p, d, n_samples, seed); worker count affects
    speed only.  At most min(threads, CPU count, engine chunks) worker
    processes are started, so a survey of one chunk starts none.
    """
    _check_request(p, d, n_samples, seed)
    start = time.perf_counter()
    shape = layout(p, d)
    size = _chunk_rows(shape)
    threads = min(threads, os.cpu_count() or 1, ceil_div(n_samples, size))
    if threads <= 1:
        counts = _tally(shape, seed, 0, n_samples)
    else:
        # about 4 jobs per worker, each a whole number of chunks
        per_job = size * ceil_div(n_samples, 4 * threads * size)
        jobs = [
            (p, d, seed, lo, min(lo + per_job, n_samples))
            for lo in range(0, n_samples, per_job)
        ]
        # imported here: it loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

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


def _search(shape: Layout, chunks, exhaustive: bool) -> SearchResult:
    """Minimum a-number over the candidates; the first to attain it is the witness."""
    p, d = shape.p, shape.d
    best_a = None
    witness = None
    tested = 0
    for rows, a in _a_numbers(shape, chunks):
        tested += len(a)
        first = int(a.argmin())
        if best_a is None or a[first] < best_a:
            best_a, witness = int(a[first]), rows[first]
    witness = FpPoly(p, witness.tolist())
    return SearchResult(
        p=p, d=d, min_a=best_a, witness=witness, exhaustive=exhaustive, candidates_tested=tested
    )


def min_a_exhaustive(p: int, d: int, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> SearchResult:
    """Minimum a-number over every normalized polynomial of degree d.

    Raises SearchSpaceError when the space exceeds ``cap`` candidates.
    """
    total = sample_space_size(p, d)
    if total > cap:
        raise SearchSpaceError(
            f"search space has {total} candidates, above the cap of {cap}; "
            f"use min_a_random instead"
        )
    shape = layout(p, d)
    return _search(shape, _all_chunks(shape), exhaustive=True)


def min_a_random(p: int, d: int, n_samples: int, seed: int) -> SearchResult:
    """Minimum a-number over n_samples random covers: an upper bound for the true minimum."""
    _check_request(p, d, n_samples, seed)
    shape = layout(p, d)
    return _search(shape, _random_chunks(shape, seed, 0, n_samples), exhaustive=False)
