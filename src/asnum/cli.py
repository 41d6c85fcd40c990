"""Command-line front end: bounds, a-number reports, families, experiments.

Subcommands: bound, anumber, family, experiment, search.  Text output is
stable and line-oriented; experiment results can also be written as CSV or
JSON (see experiments module for the schemas).  The worker count of
experiment defaults to the ASNUM_THREADS environment variable.

Exit codes: 0 on success; 1 for bad input (including a polynomial, matrix
or coordinate list that would pass the limit of 2^26 cells, refused before
allocating and reported as "error: ..."), a family member whose a-number
lies above the bound (MISMATCH) or a disagreement
between the two a-number methods; 2 for an argument error caught
by the parser (a usage line and "error: ..."), such as a non-prime --p or a
--threads / ASNUM_THREADS that is not a positive integer; 3 when an internal
invariant of the computation is violated (a bug, reported as
"invariant violated: ..."), among them an a-number outside [L(d), genus]
in anumber or family.
"""

import argparse
import os
import sys

from .anumber import InvariantViolation, report
from .bounds import RamificationData, lower_bound_single
from .curve import BasicCurve
from .experiments import (
    SearchSpaceError,
    DEFAULT_EXHAUSTIVE_CAP,
    distribution,
    min_a_exhaustive,
    min_a_random,
)
from .families import minimal_family, verify_family
from .fppoly import FpPoly, PolyParseError, SplitCoverError, parse_poly
from .numutil import is_prime


def _parse_f(args) -> FpPoly:
    if args.coeffs is not None:
        try:
            coeffs = [int(c) for c in args.coeffs.split(",")]
        except ValueError as exc:
            raise PolyParseError(f"bad --coeffs list: {args.coeffs!r}") from exc
        return FpPoly(args.p, coeffs)
    return parse_poly(args.f, args.p)


def cmd_bound(args) -> int:
    data = RamificationData(args.p, tuple(args.d))
    # L(D) is the sum of the single-point bounds, so each is computed once
    singles = [lower_bound_single(args.p, d) for d in data.invariants]
    for d, bound in zip(data.invariants, singles):
        print(f"L({{{d}}}) = {bound}")
    print(f"L(D) = {sum(singles)}")
    return 0


def cmd_anumber(args) -> int:
    f = _parse_f(args)
    curve = BasicCurve.from_poly(args.p, f)
    methods = ("fast", "oracle") if args.method == "both" else (args.method,)
    reports = [report(curve, method) for method in methods]
    first = reports[0]
    print(f"f = {curve.f}")
    print(f"d = {curve.d}")
    print(f"genus = {first.genus}")
    print(f"lower bound = {first.lower_bound}")
    print(f"kernel candidates dim = {first.dim_domain}")
    print(f"obstruction slots = {first.dim_obstruction}")
    for rep in reports:
        print(f"a-number ({rep.method}) = {rep.a}")
    print(f"p-rank = {first.p_rank}")
    if args.method == "both":
        fast, oracle = (rep.a for rep in reports)
        if fast != oracle:
            print(f"METHOD DISAGREEMENT: fast={fast} oracle={oracle}", file=sys.stderr)
            return 1
        print("methods agree")
    return 0


def cmd_family(args) -> int:
    if args.d is not None:
        if args.verify:
            check = verify_family(args.p, args.d)
            f, strategy = check.f, check.strategy
        else:
            f, strategy = minimal_family(args.p, args.d)
        print(f"f = {f}")
        print(f"strategy = {strategy}")
        if args.verify:
            print(f"a = {check.a}")
            print(f"L = {check.bound}")
            print("ok" if check.ok else "MISMATCH")
            return 0 if check.ok else 1
        return 0
    if args.dmax < 1:
        print(f"error: --dmax must be at least 1, not {args.dmax}", file=sys.stderr)
        return 1
    failures = []
    total = 0
    for d in range(1, args.dmax + 1):
        if d % args.p == 0:
            continue
        total += 1
        check = verify_family(args.p, d)
        if not check.ok:
            failures.append(check)
            print(f"FAIL d={d} f={check.f} a={check.a} L={check.bound}")
    print(f"d <= {args.dmax}: {total - len(failures)}/{total} families attain the bound")
    return 0 if not failures else 1


def _histogram(dist) -> None:
    print(
        f"p={dist.p} d={dist.d} n={dist.n_samples} seed={dist.seed} "
        f"elapsed_ms={int(dist.elapsed * 1000)}"
    )
    print("a,count,fraction")
    for a in sorted(dist.counts):
        c = dist.counts[a]
        print(f"{a},{c},{c / dist.n_samples:.4f}")


def cmd_experiment(args) -> int:
    if args.out and args.format == "text":
        raise ValueError("--out requires --format csv or json")
    made = False
    if args.out:
        # a path that cannot be written fails here, before the survey
        made = not os.path.exists(args.out)
        open(args.out, "a").close()
    try:
        dist = distribution(args.p, args.d, args.n, args.seed, threads=args.threads)
    except BaseException:
        if made:
            os.remove(args.out)
        raise
    if args.format == "text":
        _histogram(dist)
        return 0
    payload = dist.to_csv() if args.format == "csv" else dist.to_json()
    if not args.out:
        sys.stdout.write(payload)
        return 0
    with open(args.out, "w") as handle:
        handle.write(payload)
    _histogram(dist)
    print(f"wrote {args.out}")
    return 0


def cmd_search(args) -> int:
    if args.mode == "exhaustive":
        result = min_a_exhaustive(args.p, args.d, cap=args.cap)
    else:
        result = min_a_random(args.p, args.d, args.n, args.seed)
    print(f"mode = {args.mode}")
    print(f"candidates = {result.candidates_tested}")
    print(f"exhaustive = {'yes' if result.exhaustive else 'no'}")
    print(f"min a = {result.min_a}")
    print(f"witness = {result.witness}")
    print(f"lower bound = {lower_bound_single(args.p, args.d)}")
    return 0


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asnum",
        description="a-numbers of Artin-Schreier covers of the line branched at one point",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("bound", help="evaluate the a-number lower bound")
    q.add_argument("--p", type=_prime, required=True)
    q.add_argument("--d", type=int, action="append", required=True,
                   help="ramification jump; repeat for several branch points")
    q.set_defaults(func=cmd_bound)

    q = sub.add_parser("anumber", help="a-number report for y^p - y = f")
    q.add_argument("--p", type=_prime, required=True)
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--f", help='polynomial text, e.g. "x^11+x^8"')
    g.add_argument("--coeffs", help="comma-separated coefficients, constant first")
    q.add_argument("--method", choices=("fast", "oracle", "both"), default="fast")
    q.set_defaults(func=cmd_anumber)

    q = sub.add_parser("family", help="minimal-a-number family members (p = 3, 5 or 7)")
    q.add_argument("--p", type=_prime, required=True)
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--d", type=int)
    g.add_argument("--dmax", type=int, help="verify every valid d up to this bound")
    q.add_argument("--verify", action="store_true",
                   help="also compare the a-number to the bound (single-d mode)")
    q.set_defaults(func=cmd_family)

    q = sub.add_parser("experiment", help="a-number distribution over random covers")
    q.add_argument("--p", type=_prime, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", choices=("text", "csv", "json"), default="text")
    q.add_argument("--out", help="write csv/json to this path")
    # a string default goes through _positive only when experiment is parsed
    q.add_argument("--threads", type=_positive,
                   default=os.environ.get("ASNUM_THREADS", "1"),
                   help="worker processes (default: ASNUM_THREADS, else 1)")
    q.set_defaults(func=cmd_experiment)

    q = sub.add_parser("search", help="minimal a-number over degree-d covers")
    q.add_argument("--p", type=_prime, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    q.add_argument("--n", type=int, default=1000, help="samples in random mode")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
                   help="candidate cap for exhaustive mode")
    q.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except SplitCoverError as exc:
        print(f"invalid cover: {exc}", file=sys.stderr)
        return 1
    except SearchSpaceError as exc:
        print(f"search space too large: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
