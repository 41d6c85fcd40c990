"""The benchmark workloads, as lists of calls into the public asnum API.

A call is a tuple (kind, args).  ``run`` makes the call the way a user of the
package does; ``replay`` makes the same computation stage by stage through
public functions inside spans, and must return the same answer.  ``answer``
turns either result into the JSON-able value stored in goldens.json.

Inputs come from fixed pools recorded with their answers at the parent
commit; the workload seed only chooses which pool entries a run uses and in
what order, so every seed has goldens.  A run is a whole number of rounds,
each the same mix of calls, so runs of one workload repeat the same amount of
work and the same exact counts whatever the seed.
"""

import hashlib
import math
import random

import numpy as np

from asnum import (
    BasicCurve,
    FpPoly,
    cartier_matrix,
    distribution,
    lower_bound_single,
    minimal_family,
    obstruction_matrix,
    p_rank,
    rank_nullity,
    report,
    sample_poly,
    verify_family,
)


def digest(f: FpPoly) -> str:
    """Short stable fingerprint of a polynomial's coefficients."""
    return hashlib.sha1(",".join(map(str, f.coeffs)).encode()).hexdigest()[:16]


def call_key(call) -> str:
    kind, args = call
    return kind + " " + " ".join(map(str, args))


# ---------------------------------------------------------------- survey

# n per call is chosen so both sizes cost about the same per call at the
# parent commit, which keeps the call-time distribution unimodal
SURVEY_SIZES = ((3, 17, 600), (5, 11, 210))
SURVEY_POOL = 256

# ---------------------------------------------------------------- bigcurve

BIGCURVE_GRID = ((3, 499), (5, 499), (13, 60), (7, 101))
BIGCURVE_POOL = 32

# ---------------------------------------------------------------- family


def family_degrees() -> list[tuple[int, int]]:
    return [(p, d) for p in (3, 5) for d in range(1, 501) if d % p]


def bigcurve_poly(p: int, d: int, index: int) -> FpPoly:
    """Pool entry `index` for grid point (p, d): a random degree-d polynomial.

    Drawn by the benchmark itself, not by asnum.experiments, so bigcurve
    stays off the experiments layer.  from_poly normalizes it; p does not
    divide d and the leading coefficient is nonzero, so the degree stays d.
    """
    rng = np.random.default_rng((p, d, index))
    coeffs = rng.integers(0, p, size=d + 1).tolist()
    coeffs[d] = int(rng.integers(1, p))
    return FpPoly(p, coeffs)


class Workload:
    name = ""
    # wall time of one round at the parent commit on a 2-core VM; a run of
    # --seconds s does ceil(seconds / nominal_round_s) rounds
    nominal_round_s = 1.0

    def rounds(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.nominal_round_s))

    def calls(self, seed: int, rounds: int) -> list:
        raise NotImplementedError

    def warmup_call(self):
        raise NotImplementedError

    def golden_calls(self) -> list:
        """Every call any run can make, the warm-up call included."""
        raise NotImplementedError


class Survey(Workload):
    name = "survey"
    nominal_round_s = 0.41

    def calls(self, seed, rounds):
        order = random.Random(seed).sample(range(SURVEY_POOL), SURVEY_POOL)
        return [
            ("distribution", (p, d, n, order[r % SURVEY_POOL]))
            for r in range(rounds)
            for p, d, n in SURVEY_SIZES
        ]

    def warmup_call(self):
        p, d, n = SURVEY_SIZES[0]
        return ("distribution", (p, d, n, SURVEY_POOL))

    def golden_calls(self):
        return [
            ("distribution", (p, d, n, s))
            for p, d, n in SURVEY_SIZES
            for s in range(SURVEY_POOL)
        ] + [self.warmup_call()]


class BigCurve(Workload):
    name = "bigcurve"
    nominal_round_s = 2.6

    def calls(self, seed, rounds):
        rng = random.Random(seed)
        orders = [rng.sample(range(BIGCURVE_POOL), BIGCURVE_POOL) for _ in BIGCURVE_GRID]
        return [
            ("anumber_both", (p, d, order[r % BIGCURVE_POOL]))
            for r in range(rounds)
            for (p, d), order in zip(BIGCURVE_GRID, orders)
        ]

    def warmup_call(self):
        p, d = BIGCURVE_GRID[-1]
        return ("anumber_both", (p, d, BIGCURVE_POOL))

    def golden_calls(self):
        return [
            ("anumber_both", (p, d, i))
            for p, d in BIGCURVE_GRID
            for i in range(BIGCURVE_POOL)
        ] + [self.warmup_call()]


class FamilySweep(Workload):
    name = "family_sweep"
    nominal_round_s = 5.9

    def calls(self, seed, rounds):
        sweep = [("verify_family", pd) for pd in family_degrees()]
        # rotating keeps each curve 734 calls from its next visit, far
        # beyond the 64-entry cache of (-f)^e powers
        start = random.Random(seed).randrange(len(sweep))
        sweep = sweep[start:] + sweep[:start]
        return sweep * rounds

    def warmup_call(self):
        return ("verify_family", (5, 101))

    def golden_calls(self):
        return [("verify_family", pd) for pd in family_degrees()]


WORKLOADS = {w.name: w for w in (Survey(), BigCurve(), FamilySweep())}


# ------------------------------------------------------------ untraced calls


def run(call):
    """Make the call through the public API; returns its raw result."""
    kind, args = call
    if kind == "distribution":
        return distribution(*args, threads=1)
    if kind == "anumber_both":
        p, d, index = args
        f = bigcurve_poly(p, d, index)
        return _anumber_both(p, f)
    if kind == "verify_family":
        return verify_family(*args)
    raise ValueError(f"unknown call kind {kind!r}")


def _anumber_both(p, f):
    curve = BasicCurve.from_poly(p, f)
    return curve, report(curve, "fast"), report(curve, "oracle")


def covers(call) -> int:
    """a-numbers the call computes."""
    kind, args = call
    if kind == "distribution":
        return args[2]
    if kind == "anumber_both":
        return 2
    return 1


def size_class(call) -> tuple:
    """The call without its seed or pool index: calls of one class cost alike."""
    kind, args = call
    if kind in ("distribution", "anumber_both"):
        return (kind,) + args[:-1]
    return call


def answer(call, result):
    """JSON-able answer of a call, as compared with goldens.json."""
    kind = call[0]
    if kind == "distribution":
        return {str(a): c for a, c in sorted(result.counts.items())}
    if kind == "anumber_both":
        curve, fast, oracle = result
        return {
            "f": digest(curve.f),
            "a": [fast.a, oracle.a],
            "p_rank": [fast.p_rank, oracle.p_rank],
            "bound": fast.lower_bound,
            "genus": fast.genus,
        }
    if kind == "verify_family":
        return [result.strategy, digest(result.f), result.a, result.bound, result.ok]
    raise ValueError(f"unknown call kind {kind!r}")


def invariant_error(call, ans) -> str | None:
    """A failure the answer shows by itself, without goldens."""
    if call[0] == "anumber_both":
        if ans["a"][0] != ans["a"][1]:
            return f"fast a = {ans['a'][0]} but oracle a = {ans['a'][1]}"
        if ans["p_rank"] != [0, 0]:
            return f"p-rank {ans['p_rank']} is not 0"
    return None


# ------------------------------------------------------------ traced replay


def _rng(seed, index):
    # the per-sample generator of asnum.experiments, rebuilt from numpy
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _neg_f_powers(curve):
    # (-f)^e for e < p, as the library builds them for both matrix builds
    neg = -curve.f
    out = [FpPoly.one(curve.p)]
    for _ in range(1, curve.p):
        out.append(out[-1] * neg)
    return out


def _a_fast(tr, curve):
    tr.stage("fppoly.mul", _neg_f_powers, curve)
    m = tr.matrix_stage("anumber.obstruction_matrix", obstruction_matrix, curve)
    idx = tr.begin("linalg.rank_nullity.obstruction")
    _, nullity = rank_nullity(m)
    tr.end(idx, m.rows * m.cols)
    return nullity


def _cover(tr, p, f):
    curve = tr.stage("curve.from_poly", BasicCurve.from_poly, p, f)
    return curve, _a_fast(tr, curve)


def _replay_report(tr, curve, method):
    idx = tr.begin("anumber.report")
    if method == "fast":
        m = tr.matrix_stage("anumber.obstruction_matrix", obstruction_matrix, curve)
        rank_name = "linalg.rank_nullity.obstruction"
    else:
        m = tr.matrix_stage("anumber.cartier_matrix", cartier_matrix, curve)
        rank_name = "linalg.rank_nullity.cartier"
    ridx = tr.begin(rank_name)
    _, a = rank_nullity(m)
    tr.end(ridx, m.rows * m.cols)
    bound = tr.stage("bounds.lower_bound_single", lower_bound_single, curve.p, curve.d)
    if not bound <= a <= curve.genus:
        raise AssertionError(f"a = {a} outside [{bound}, {curve.genus}]")
    pr = tr.stage("anumber.p_rank", p_rank, curve)
    tr.end(idx)
    return a, pr, bound


def replay(call, tr):
    """Recompute the call stage by stage inside spans; returns its answer.

    The caller opens the call's root span.  Returns the same JSON-able value
    as answer(call, run(call)).
    """
    kind, args = call
    if kind == "distribution":
        p, d, n, seed = args
        counts: dict = {}
        for index in range(n):
            rng = tr.stage("experiments.rng", _rng, seed, index)
            f = tr.stage("experiments.sample_poly", sample_poly, p, d, rng)
            _, a = _cover(tr, p, f)
            counts[a] = counts.get(a, 0) + 1
        return {str(a): c for a, c in sorted(counts.items())}
    if kind == "anumber_both":
        p, d, index = args
        f = bigcurve_poly(p, d, index)
        curve = tr.stage("curve.from_poly", BasicCurve.from_poly, p, f)
        tr.stage("fppoly.mul", _neg_f_powers, curve)
        a_fast, pr_fast, bound = _replay_report(tr, curve, "fast")
        a_oracle, pr_oracle, _ = _replay_report(tr, curve, "oracle")
        return {
            "f": digest(curve.f),
            "a": [a_fast, a_oracle],
            "p_rank": [pr_fast, pr_oracle],
            "bound": bound,
            "genus": curve.genus,
        }
    if kind == "verify_family":
        p, d = args
        f, strategy = tr.stage("families.minimal_family", minimal_family, p, d)
        _, a = _cover(tr, p, f)
        bound = tr.stage("bounds.lower_bound_single", lower_bound_single, p, d)
        return [strategy, digest(f), a, bound, a == bound]
    raise ValueError(f"unknown call kind {kind!r}")


def root_span(call) -> str:
    """Name of the span that wraps one replayed call."""
    kind = call[0]
    if kind == "distribution":
        return "experiments.distribution"
    if kind == "verify_family":
        return "families.verify_family"
    return "call.anumber_both"
