"""Benchmark of the asnum package: workloads run against its public API.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; asnum is imported from its src/
directory, never from an installed copy.  With --trace 0 the workload's
calls are timed one by one with nothing in between and the end-to-end
metrics are printed; with --trace 1 the same kind of calls are made once
untraced and once replayed stage by stage inside spans, and the per-layer
metrics are printed.  Every answer is checked against goldens.json.  Human-
readable tables go to stdout first; the last line is one JSON object, and the
exit code is 0 only when every answer was correct.  Full results (and, when
tracing, the spans) are written under perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# calls that must lie above the value reported as call_ms.tail
TAIL_CALLS_ABOVE = 10
# a traced run replays this share of an untraced run's rounds, twice over
TRACE_ROUND_SHARE = 0.25


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_env() -> None:
    """Pin the environment every workload process runs in; call before numpy loads.

    One BLAS thread: with two on a 2-core VM the peak RSS of bigcurve was
    83 MB in some runs and 90 MB in others, and the timings were no steadier.
    """
    os.environ.pop("ASNUM_THREADS", None)
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_asnum():
    """Import asnum from this checkout's src/, or exit non-zero."""
    if not (SRC / "asnum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no asnum package at {SRC / 'asnum'}")
    sys.path.insert(0, str(SRC))
    import asnum

    if SRC not in Path(asnum.__file__).resolve().parents:
        sys.exit(f"perfbench: imported asnum from {asnum.__file__}, not from {SRC}")
    return asnum


def git_revision() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(asnum, np, workload: str, seed: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "asnum": asnum.__version__,
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its warm-up call finishing.

    The probe reports the CLOCK_MONOTONIC time at which its warm-up call
    finished; that clock is shared by all processes on the host.
    """
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe"]
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        times.append((int(out.split()[-1]) - start) / 1e9)
    return times


def class_median(values: list[float], classes: list) -> float:
    """Median of the values after each is replaced by the median of its class.

    A workload mixes call sizes whose times form separate clusters; when the
    middle of the sorted times falls in the gap between two clusters the plain
    median is set by a few extreme calls of each.  Taking class medians first
    puts it at the clusters' own medians instead.
    """
    by_class: dict = {}
    for v, c in zip(values, classes):
        by_class.setdefault(c, []).append(v)
    med = {c: statistics.median(vs) for c, vs in by_class.items()}
    return statistics.median(med[c] for c in classes)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_CALLS_ABOVE values above it.

    Returns (value, percentile, values above).  With too few values it is the
    maximum, at percentile 100 with none above.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_CALLS_ABOVE:
        return s[-1], 100.0, 0
    return s[n - 1 - TAIL_CALLS_ABOVE], 100.0 * (n - TAIL_CALLS_ABOVE) / n, TAIL_CALLS_ABOVE


class Checker:
    """Compares answers with goldens.json and counts failed calls."""

    def __init__(self, workloads, goldens: dict):
        self.w = workloads
        self.goldens = goldens
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, call, ans, error: str | None = None) -> bool:
        self.attempted += 1
        key = self.w.call_key(call)
        if error is None:
            error = self.w.invariant_error(call, ans)
        if error is None:
            if key not in self.goldens:
                error = "no golden recorded"
            elif ans != self.goldens[key]:
                error = f"answer {ans} differs from golden {self.goldens[key]}"
        if error is not None:
            self.failures.append(f"{key}: {error}")
        return error is None


def timed_calls(w, calls, checker):
    """Run calls untraced, one by one; per-call ns, covers returned and answers."""
    times, covers, answers = [], [], []
    for call in calls:
        start = time.perf_counter_ns()
        try:
            result = w.run(call)
            error = None
        except Exception as exc:  # a raising call is a failed call, not a crash
            result, error = None, f"raised {exc!r}"
        times.append(time.perf_counter_ns() - start)
        ans = w.answer(call, result) if error is None else None
        checker.check(call, ans, error)
        covers.append(w.covers(call) if error is None else 0)
        answers.append(ans)
    return times, covers, answers


def end_to_end(w, workload, seed, seconds, checker):
    """Metrics a user sees, measured with tracing off."""
    setups = measure_setup(workload.name, seed)
    warm = workload.warmup_call()
    checker.check(warm, w.answer(warm, w.run(warm)))
    calls = workload.calls(seed, workload.rounds(seconds))
    times, covers, _ = timed_calls(w, calls, checker)
    ms = [t / 1e6 for t in times]
    tail_ms, tail_pct, above = tail(ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "covers_per_s": (sum(covers) / (sum(times) / 1e9), "1/s"),
        "call_ms.p50": (class_median(ms, [w.size_class(c) for c in calls]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "calls": len(calls),
        "covers": sum(covers),
        "call_ms.tail": tail_ms,
        "tail_percentile": tail_pct,
        "tail_calls_above": above,
        "setup_s_samples": setups,
        "fail_frac": len(checker.failures) / checker.attempted,
    }
    return metrics, detail


def per_layer(w, spans, workload, seed, seconds, checker):
    """Per-layer metrics from untraced calls and a traced replay of the same calls.

    Each round runs untraced and is then replayed, so both see the host in
    the same state; a curve met again in the replay may find its (-f)^e
    powers in the library's cache, which fppoly.mul measures separately.
    """
    rounds = max(1, math.ceil(workload.rounds(seconds) * TRACE_ROUND_SHARE))
    per_round = len(workload.calls(seed, 1))
    calls = workload.calls(seed, rounds)
    w.run(workload.warmup_call())
    times, covers = [], []
    tr = spans.Tracer()
    for r in range(rounds):
        batch = calls[r * per_round : (r + 1) * per_round]
        t, c, answers = timed_calls(w, batch, checker)
        times += t
        covers += c
        for call, expected in zip(batch, answers):
            tr.new_call()
            root = tr.begin(w.root_span(call))
            try:
                ans, error = w.replay(call, tr), None
            except Exception as exc:
                ans, error = None, f"replay raised {exc!r}"
            tr.close_to(root)
            if error is None and ans != expected:
                error = f"replay answer {ans} differs from the untraced {expected}"
            checker.check(call, ans, error)

    summary = tr.summary()
    root_ns = [0] * len(calls)
    stage_ns = [0] * len(calls)
    side_ns = 0
    for s in tr.spans:
        dur = s[spans.END] - s[spans.START]
        if s[spans.PARENT] < 0:
            root_ns[s[spans.CALL]] += dur
        elif s[spans.NAME] in spans.SIDE_STAGES:
            side_ns += dur
        elif tr.spans[s[spans.PARENT]][spans.PARENT] < 0:
            stage_ns[s[spans.CALL]] += dur

    def row(name):
        return summary.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "cells": 0})

    def mean_us(name):
        r = row(name)
        return r["total_ns"] / r["calls"] / 1e3 if r["calls"] else 0.0

    def kind_stats(kind):
        idx = [i for i, c in enumerate(calls) if c[0] == kind]
        untraced = sum(times[i] for i in idx)
        own = sum(times[i] - stage_ns[i] for i in idx)
        return untraced, own, sum(covers[i] for i in idx)

    m = {}
    ns, own, n = kind_stats("distribution")
    m["experiments.distribution.us_per_cover"] = (ns / n / 1e3 if n else 0.0, "us")
    for name in ("experiments.rng", "experiments.sample_poly", "curve.from_poly"):
        m[name + ".us"] = (mean_us(name), "us")
    m["experiments.engine_self.us"] = (own / n / 1e3 if n else 0.0, "us")
    for name, fields in (
        ("anumber.obstruction_matrix", ("ms", "calls", "cells")),
        ("anumber.cartier_matrix", ("ms", "calls", "cells")),
        ("anumber.p_rank", ("ms", "calls")),
        ("anumber.report", ("ms",)),
        ("linalg.rank_nullity.obstruction", ("ms", "calls", "cells")),
        ("linalg.rank_nullity.cartier", ("ms", "calls", "cells")),
        ("fppoly.mul", ("ms",)),
    ):
        r = row(name)
        values = {"ms": (r["total_ns"] / 1e6, "ms"), "calls": (r["calls"], "count"), "cells": (r["cells"], "count")}
        for field in fields:
            m[f"{name}.{field}"] = values[field]
    m["families.minimal_family.us"] = (mean_us("families.minimal_family"), "us")
    _, own, _ = kind_stats("verify_family")
    m["families.verify_family.ms"] = (own / 1e6, "ms")
    m["bounds.lower_bound_single.us"] = (mean_us("bounds.lower_bound_single"), "us")
    m["trace.overhead_frac"] = ((sum(root_ns) - side_ns) / sum(times) - 1, "ratio")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.json.gz"
    tr.write(spans_path)
    detail = {
        "calls": len(calls),
        "covers": sum(covers),
        "rounds": rounds,
        "spans": len(tr.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "by_span": summary,
        "by_module": spans.module_table(summary),
        "fail_frac": len(checker.failures) / checker.attempted,
    }
    return m, detail


def print_tables(metrics: dict, detail: dict) -> None:
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    if "tail_percentile" in detail:
        print(
            f"call_ms.tail {detail['call_ms.tail']:.6g} ms is p{detail['tail_percentile']:.4g} of {detail['calls']} calls "
            f"({detail['tail_calls_above']} above); {detail['covers']} covers"
        )
    if "by_module" in detail:
        print(f"{'module':<12} {'self ms':>12} {'spans':>9}")
        for mod, r in sorted(detail["by_module"].items()):
            print(f"{mod:<12} {r['self_ms']:>12.3f} {r['spans']:>9}")
        print(f"{'span':<34} {'calls':>9} {'total ms':>12} {'self ms':>12} {'cells':>12}")
        for name, r in sorted(detail["by_span"].items()):
            print(
                f"{name:<34} {r['calls']:>9} {r['total_ns'] / 1e6:>12.3f} "
                f"{r['self_ns'] / 1e6:>12.3f} {r['cells']:>12}"
            )
    print(f"fail_frac {detail['fail_frac']:.6g} ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    prepare_env()
    asnum = import_asnum()
    import numpy as np

    import spans
    import workloads as w

    if args.workload not in w.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(w.WORKLOADS)}")
    workload = w.WORKLOADS[args.workload]

    if args.probe:
        w.run(workload.warmup_call())
        print(time.monotonic_ns(), flush=True)
        return 0

    goldens = json.loads(GOLDENS.read_text())["answers"]
    checker = Checker(w, goldens)
    prov = provenance(asnum, np, args.workload, args.seed, args.trace)
    print("provenance " + json.dumps(prov))
    if args.trace:
        metrics, detail = per_layer(w, spans, workload, args.seed, args.seconds, checker)
    else:
        metrics, detail = end_to_end(w, workload, args.seed, args.seconds, checker)
    print_tables(metrics, detail)
    for line in checker.failures[:20]:
        print("FAILED " + line)

    correct = not checker.failures
    OUT.mkdir(exist_ok=True)
    record = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "failures": checker.failures,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": len(checker.failures),
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
