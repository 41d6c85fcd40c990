"""Randomized and exhaustive surveys of a-numbers over degree-d covers.

Sampling draws uniformly over the normalized representatives of degree d:
leading coefficient nonzero, no monomials with exponent divisible by p, no
constant term.  This samples covers (up to the standard equivalence) rather
than raw polynomials; comparisons against published counts are therefore
statistical, not exact.

Every sample gets its own generator seeded from (master seed, sample index),
so tallies are bit-for-bit reproducible and independent of how samples are
distributed over worker processes.

The survey engine, _a_numbers, works on chunks: (N, d+1) arrays of
coefficient rows, drawn or enumerated in index order.  The obstruction
matrix has a shape fixed by (p, d), so a chunk is checked for normalization
with one vectorized test, built as one obstruction stack and ranked by one
stacked elimination; no FpPoly or BasicCurve is made per sample.  A chunk
holds at most CHUNK_ROWS samples and CHUNK_CELLS matrix cells, so memory
stays flat for any n, and chunk boundaries change no result.
"""

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .anumber import obstruction_stack
from .bounds import lower_bound_single
from .curve import BasicCurve
from .fppoly import FpPoly
from .linalg import stack_ranks
from .numutil import ceil_div, check_degree

SCHEMA_VERSION = 1

# Distribution fields a survey file holds unchanged, in file order
_FIELDS = ("p", "d", "n_samples", "seed")

DEFAULT_EXHAUSTIVE_CAP = 10**6

# An engine chunk holds at most CHUNK_ROWS samples and CHUNK_CELLS
# obstruction-matrix cells (8 MB of int64 per stack).  On 12x12 and 18x18
# matrices 128 samples amortize the per-chunk numpy calls, and more only
# raised the peak RSS; matrices of a few hundred rows gain from chunks of
# several samples up to the cell cap.
CHUNK_ROWS = 128
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
    order fixed or reproducibility breaks.
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

        Raises ValueError on a schema_version other than SCHEMA_VERSION and
        on a missing field, naming it.
        """
        if record.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {record.get('schema_version')}")
        for key in (*_FIELDS, "counts", "elapsed_ms"):
            if key not in record:
                raise ValueError(f"survey file lacks field {key!r}")
        return cls(
            **{key: record[key] for key in _FIELDS},
            counts={int(a): int(c) for a, c in record["counts"].items()},
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


def _shape(p: int, d: int) -> BasicCurve:
    """The cover y^p - y = x^d: its derived data is that of every degree-d cover."""
    return BasicCurve.from_poly(p, FpPoly.monomial(p, d))


def _chunk_rows(p: int, d: int) -> int:
    """Samples per engine chunk: within CHUNK_ROWS and CHUNK_CELLS, at least one."""
    shape = _shape(p, d)
    cells = max(1, shape.dim_obstruction * shape.dim_domain)
    return max(1, min(CHUNK_ROWS, CHUNK_CELLS // cells))


def _random_chunks(p: int, d: int, seed: int, lo: int, hi: int):
    """The seeded samples with indices lo <= index < hi, in index order, as chunks."""
    size = _chunk_rows(p, d)
    for start in range(lo, hi, size):
        stop = min(start + size, hi)
        yield _draw(p, d, (_rng_for(seed, index) for index in range(start, stop)))


def _all_chunks(p: int, d: int):
    """Every normalized degree-d polynomial as chunks, in enumeration order.

    Candidate k is the mixed-radix number (leading coefficient - 1, then the
    free slots in increasing exponent order), the last slot varying fastest.
    """
    free = free_exponents(p, d)
    total = sample_space_size(p, d)
    size = _chunk_rows(p, d)
    for start in range(0, total, size):
        k = np.arange(start, min(start + size, total), dtype=np.int64)
        rows = np.zeros((len(k), d + 1), dtype=np.int64)
        for e in reversed(free):
            k, rows[:, e] = np.divmod(k, p)
        rows[:, d] = k + 1
        yield rows


def _a_numbers(p: int, d: int, chunks):
    """The survey engine: (rows, a-numbers) for each chunk of coefficient rows.

    Each chunk is an (N, d+1) int64 array of normalized polynomials f of
    degree d; its a-numbers are those of the covers y^p - y = f, as an
    int64 array of length N.  Raises ValueError on a row that is not
    normalized with degree d.
    """
    shape = _shape(p, d)
    for rows in chunks:
        if (
            rows.shape[1] != d + 1
            or ((rows < 0) | (rows >= p)).any()
            or not rows[:, d].all()
            or rows[:, ::p].any()
        ):
            raise ValueError(f"rows are not normalized polynomials of degree {d} mod {p}")
        yield rows, shape.dim_domain - stack_ranks(obstruction_stack(shape, rows), p)


def _tally_range(args) -> Counter:
    p, d, seed, lo, hi = args
    counts = Counter()
    for _, a in _a_numbers(p, d, _random_chunks(p, d, seed, lo, hi)):
        counts.update(a.tolist())
    return counts


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
    threads = min(threads, os.cpu_count() or 1, ceil_div(n_samples, _chunk_rows(p, d)))
    if threads <= 1:
        counts = _tally_range((p, d, seed, 0, n_samples))
    else:
        per_job = ceil_div(n_samples, 4 * threads)
        jobs = [
            (p, d, seed, lo, min(lo + per_job, n_samples))
            for lo in range(0, n_samples, per_job)
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


def _search(p: int, d: int, chunks, exhaustive: bool) -> SearchResult:
    """Minimum a-number over the candidates; the first to attain it is the witness."""
    best_a = None
    witness = None
    tested = 0
    for rows, a in _a_numbers(p, d, chunks):
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
    return _search(p, d, _all_chunks(p, d), exhaustive=True)


def min_a_random(p: int, d: int, n_samples: int, seed: int) -> SearchResult:
    """Minimum a-number over n_samples random covers: an upper bound for the true minimum."""
    _check_request(p, d, n_samples, seed)
    return _search(p, d, _random_chunks(p, d, seed, 0, n_samples), exhaustive=False)
