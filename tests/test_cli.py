"""Command-line behavior: outputs, formats, exit codes, error messages."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import asnum.anumber
import asnum.cli
from asnum.anumber import InvariantViolation
from asnum.bounds import lower_bound_single
from asnum.cli import main
from asnum.experiments import Distribution
from reference import monomial_a_number


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "3", "--d", "17")
        assert code == 0
        assert "L({17}) = 8" in out
        assert "L(D) = 8" in out

    def test_multiple_points(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "3", "--d", "17", "--d", "14")
        assert code == 0
        assert "L({17}) = 8" in out and "L({14}) = 6" in out and "L(D) = 14" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "bound", "--p", "5", "--d", "1")
        assert code == 0
        assert "L(D) = 0" in out

    def test_rejects_divisible_jump(self, capsys):
        code, _, err = run(capsys, "bound", "--p", "3", "--d", "6")
        assert code != 0
        assert "divisible" in err

    def test_each_bound_computed_once(self, capsys, monkeypatch):
        # L(D) sums the printed single-point bounds instead of recomputing them
        calls = []
        monkeypatch.setattr(
            asnum.cli, "lower_bound_single",
            lambda p, d: calls.append(d) or lower_bound_single(p, d),
        )
        code, out, _ = run(
            capsys, "bound", "--p", "5", "--d", "11", "--d", "7", "--d", "11"
        )
        assert code == 0
        assert calls == [11, 7, 11]
        total = 2 * lower_bound_single(5, 11) + lower_bound_single(5, 7)
        assert out.splitlines()[-1] == f"L(D) = {total}"


class TestAnumber:
    def test_fast(self, capsys):
        code, out, _ = run(capsys, "anumber", "--p", "5", "--f", "x^11+x^8")
        assert code == 0
        assert "a-number (fast) = 10" in out
        assert "genus = 20" in out
        assert "p-rank = 0" in out
        assert "lower bound = 10" in out

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(capsys, "anumber", "--p", "3", "--f", "x^2", "--method", "both")
        assert code == 0
        assert "a-number (fast) = 1" in out
        assert "a-number (oracle) = 1" in out
        assert "methods agree" in out

    def test_normalization_path(self, capsys):
        code, out, _ = run(capsys, "anumber", "--p", "3", "--f", "x^3")
        assert code == 0
        assert "f = x" in out.splitlines()[0]
        assert "d = 1" in out
        assert "a-number (fast) = 0" in out

    def test_coeffs_input(self, capsys):
        code, out, _ = run(capsys, "anumber", "--p", "5", "--coeffs", "0,0,0,0,0,0,0,0,1,0,0,1")
        assert code == 0
        assert "f = x^11+x^8" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "anumber", "--p", "5", "--f", "x**2")
        assert code != 0
        assert "parse error" in err

    def test_split_cover(self, capsys):
        code, _, err = run(capsys, "anumber", "--p", "3", "--f", "x^3-x")
        assert code != 0
        assert "split" in err

    def test_both_methods_build_one_cartier_matrix(self, capsys, monkeypatch):
        built = []
        real = asnum.anumber.cartier_matrix

        def counted(curve):
            built.append(curve)
            return real(curve)

        monkeypatch.setattr(asnum.anumber, "cartier_matrix", counted)
        code, out, _ = run(capsys, "anumber", "--p", "5", "--f", "x^11+x^8", "--method", "both")
        assert code == 0
        assert "methods agree" in out
        assert len(built) == 1

    @pytest.mark.parametrize(
        "method, f",
        [
            # four terms: the fast path takes the dense build
            pytest.param("fast", "x^100001+x^3+x^2+x", id="fast"),
            pytest.param("oracle", "x^100001", id="oracle"),
        ],
    )
    def test_oversized_matrix_is_refused_before_allocating(
        self, capsys, monkeypatch, method, f
    ):
        # d = 100001 asks for a 191 GiB obstruction matrix and a 298 GiB
        # Cartier matrix; with np.zeros unavailable in asnum.anumber, an array
        # allocated before the size check fails the test instead of filling memory
        class NoZeros:
            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, *args, **kwargs):
                raise AssertionError("np.zeros called before the size check")

        monkeypatch.setattr(asnum.anumber, "np", NoZeros())
        code, out, err = run(capsys, "anumber", "--p", "5", "--f", f, "--method", method)
        assert code == 1
        assert err.startswith("error: ") and "exceeds the limit of" in err
        assert "Traceback" not in err + out

    @pytest.mark.parametrize(
        "p, f, a, closed_form",
        [
            # the dense live blocks of the first two are 96000 x 96000 and
            # 9144 x 9144, over the limit; the coordinate build ranks them
            (5, "x^100001", 120000, monomial_a_number(5, 100001)),
            (7, "x^4978+x^2846", 7314, lower_bound_single(7, 4978)),
            (503, "x^3", 502, monomial_a_number(503, 3)),
        ],
    )
    def test_sparse_curves_take_the_coordinate_build(self, capsys, p, f, a, closed_form):
        # each a-number against a closed form that shares no code with either path
        code, out, err = run(capsys, "anumber", "--p", str(p), "--f", f)
        assert code == 0 and err == ""
        assert f"a-number (fast) = {a}\n" in out
        assert a == closed_form

    def test_large_prime_trinomial_is_refused_before_allocating(self, capsys):
        # the powers of a trinomial at p = 1009 fill in, so the fast path
        # takes the dense build, whose 501500 x 502497 live block is refused
        # before the power table or anything else of that size is built
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "anumber", "--p", "1009", "--f", "x^1000+x^2+x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error: obstruction matrix: 501500 x 502497 exceeds the limit of")
        assert peak < 2**21

    def test_huge_exponent_is_refused_before_allocating(self, capsys):
        # x^9999999999 would be a dense list of 10^10 coefficients; the size
        # check comes before it, so the refusal allocates nothing of that size
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "anumber", "--p", "3", "--f", "x^9999999999")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error: polynomial: 1 x 10000000000 exceeds the limit of")
        assert peak < 2**20

    def test_bad_coeffs_list(self, capsys):
        code, out, err = run(capsys, "anumber", "--p", "5", "--coeffs", "1,x")
        assert code == 1
        assert out == ""
        assert err == "parse error: bad --coeffs list: '1,x'\n"

    def test_method_disagreement_exits_1(self, capsys, monkeypatch):
        real = asnum.cli.report

        def skewed(curve, method="fast"):
            rep = real(curve, method)
            return dataclasses.replace(rep, a=rep.a + 1) if method == "oracle" else rep

        monkeypatch.setattr(asnum.cli, "report", skewed)
        code, out, err = run(capsys, "anumber", "--p", "5", "--f", "x^11+x^8", "--method", "both")
        assert code == 1
        assert "a-number (fast) = 10" in out and "a-number (oracle) = 11" in out
        assert "methods agree" not in out
        assert err == "METHOD DISAGREEMENT: fast=10 oracle=11\n"

    def test_invariant_violation_exits_3(self, capsys, monkeypatch):
        def broken(curve, method="fast"):
            raise InvariantViolation("a = 9 outside [1, 1]")

        monkeypatch.setattr(asnum.cli, "report", broken)
        code, _, err = run(capsys, "anumber", "--p", "3", "--f", "x^2")
        assert code == 3
        assert "invariant violated: a = 9 outside [1, 1]" in err


class TestFamily:
    def test_single_with_verify(self, capsys):
        code, out, _ = run(capsys, "family", "--p", "5", "--d", "16", "--verify")
        assert code == 0
        assert "f = x^16+x^14+x^9" in out
        assert "a = 15" in out and "L = 15" in out and "ok" in out

    def test_small_d(self, capsys):
        code, out, _ = run(capsys, "family", "--p", "5", "--d", "3")
        assert code == 0
        assert "f = x^3+x^2" in out

    def test_range_sweep(self, capsys):
        code, out, _ = run(capsys, "family", "--p", "3", "--dmax", "40")
        assert code == 0
        assert "27/27 families attain the bound" in out

    def test_range_sweep_reports_a_failing_member(self, capsys, monkeypatch):
        real = asnum.cli.verify_family

        def failing_at_7(p, d):
            check = real(p, d)
            return dataclasses.replace(check, a=check.a + 1) if d == 7 else check

        monkeypatch.setattr(asnum.cli, "verify_family", failing_at_7)
        code, out, _ = run(capsys, "family", "--p", "3", "--dmax", "10")
        assert code == 1
        check = real(3, 7)
        assert out.splitlines() == [
            f"FAIL d=7 f={check.f} a={check.a + 1} L={check.bound}",
            "d <= 10: 6/7 families attain the bound",
        ]

    def test_huge_degree_is_refused_before_allocating(self, capsys):
        # the member x^1000000001 + ... would be a dense list of 10^9
        # coefficients; the size check comes before it
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "family", "--p", "5", "--d", "1000000001")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error: polynomial: 1 x 1000000002 exceeds the limit of")
        assert peak < 2**20

    def test_invariant_violation_exits_3(self, capsys, monkeypatch):
        # the family check is the fast report, so a below L(d) is a bug
        monkeypatch.setattr(asnum.anumber, "a_number_fast", lambda curve: 0)
        code, out, err = run(capsys, "family", "--p", "5", "--d", "11", "--verify")
        assert code == 3
        assert out == ""
        assert err == "invariant violated: a = 0 outside [10, 20]\n"

    @pytest.mark.parametrize("dmax", ["0", "-5"])
    def test_range_rejects_dmax_below_one(self, capsys, dmax):
        code, out, err = run(capsys, "family", "--p", "3", "--dmax", dmax)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --dmax must be at least 1")

    def test_unsupported_prime(self, capsys):
        code, out, err = run(capsys, "family", "--p", "11", "--d", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: no families available for p = 11")
        assert "p in {3, 5, 7}" in err

    def test_p7_member(self, capsys):
        code, out, _ = run(capsys, "family", "--p", "7", "--d", "13", "--verify")
        assert code == 0
        assert out == "f = x^13+x^10+x^4\nstrategy = p7_trinomial28\na = 20\nL = 20\nok\n"

    def test_non_prime_p_is_a_usage_error(self, capsys):
        # p = 1 would otherwise skip every degree and report 0/0
        with pytest.raises(SystemExit) as exc:
            main(["family", "--p", "1", "--dmax", "5"])
        assert exc.value.code == 2


class TestExperiment:
    def test_text_histogram(self, capsys):
        code, out, _ = run(capsys, "experiment", "--p", "3", "--d", "4", "--n", "30", "--seed", "1")
        assert code == 0
        assert "p=3 d=4 n=30 seed=1" in out
        assert "a,count,fraction" in out

    def test_json_stdout_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--p", "3", "--d", "4", "--n", "25",
            "--seed", "2", "--format", "json",
        )
        assert code == 0
        dist = Distribution.from_json(out)
        assert sum(dist.counts.values()) == 25

    def test_csv_file_reproducible(self, capsys, tmp_path):
        target = tmp_path / "dist.csv"
        args = ("experiment", "--p", "3", "--d", "4", "--n", "25", "--seed", "3",
                "--format", "csv", "--out", str(target))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert f"wrote {target}" in out
        first = Distribution.from_csv(target.read_text())
        code, _, _ = run(capsys, *args)
        assert code == 0
        second = Distribution.from_csv(target.read_text())
        assert first.counts == second.counts

    def test_out_requires_machine_format(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "experiment", "--p", "3", "--d", "4", "--n", "5",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code != 0
        assert "--format" in err

    def test_out_checked_before_surveying(self, capsys, monkeypatch, tmp_path):
        def survey(*args, **kwargs):
            pytest.fail("experiment surveyed before rejecting --out")

        monkeypatch.setattr(asnum.cli, "distribution", survey)
        code, _, err = run(
            capsys, "experiment", "--p", "3", "--d", "17", "--n", "20000",
            "--out", str(tmp_path / "x.txt"),
        )
        assert (code, err) == (1, "error: --out requires --format csv or json\n")
        assert not (tmp_path / "x.txt").exists()

    def test_unwritable_out_fails_before_surveying(self, capsys, monkeypatch, tmp_path):
        def survey(*args, **kwargs):
            pytest.fail("experiment surveyed before checking --out")

        monkeypatch.setattr(asnum.cli, "distribution", survey)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "experiment", "--p", "5", "--d", "11", "--n", "3",
            "--format", "json", "--out", str(target),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2]") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_failed_survey_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        def survey(*args, **kwargs):
            raise ValueError("survey failed")

        monkeypatch.setattr(asnum.cli, "distribution", survey)
        target, kept = tmp_path / "x.json", tmp_path / "kept.csv"
        kept.write_text("old\n")
        for path, fmt in ((target, "json"), (kept, "csv")):
            code, _, err = run(
                capsys, "experiment", "--p", "5", "--d", "11", "--n", "3",
                "--format", fmt, "--out", str(path),
            )
            assert (code, err) == (1, "error: survey failed\n")
        assert not target.exists()
        assert kept.read_text() == "old\n"

    def test_threads_flag(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--p", "3", "--d", "4", "--n", "20",
            "--seed", "4", "--threads", "2", "--format", "json",
        )
        assert code == 0
        parallel = Distribution.from_json(out)
        serial = Distribution.from_json(
            run(capsys, "experiment", "--p", "3", "--d", "4", "--n", "20",
                "--seed", "4", "--format", "json")[1]
        )
        assert parallel.counts == serial.counts

    def test_threads_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ASNUM_THREADS", "2")
        from asnum.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "--p", "3", "--d", "4", "--n", "1"]
        )
        assert args.threads == 2

    @pytest.mark.parametrize(
        "env, flags",
        [("abc", []), (None, ["--threads", "0"]), (None, ["--threads", "-7"])],
    )
    def test_threads_must_be_positive(self, capsys, monkeypatch, env, flags):
        if env is None:
            monkeypatch.delenv("ASNUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("ASNUM_THREADS", env)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--p", "3", "--d", "7", "--n", "5", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --threads" in err
        # only experiment takes a worker count
        assert run(capsys, "bound", "--p", "3", "--d", "7")[0] == 0


class TestSearch:
    def test_exhaustive(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "3", "--d", "4")
        assert code == 0
        assert "min a = 2" in out
        assert "candidates = 18" in out
        assert "exhaustive = yes" in out

    def test_exhaustive_degree_two(self, capsys):
        code, out, _ = run(capsys, "search", "--p", "3", "--d", "2", "--mode", "exhaustive")
        assert code == 0
        assert "min a = 1" in out

    def test_cap_exceeded_suggests_random(self, capsys):
        code, _, err = run(capsys, "search", "--p", "3", "--d", "50")
        assert code != 0
        assert "min_a_random" in err or "random" in err

    def test_random_mode(self, capsys):
        code, out, _ = run(
            capsys, "search", "--p", "3", "--d", "10", "--mode", "random",
            "--n", "30", "--seed", "1",
        )
        assert code == 0
        assert "exhaustive = no" in out
        assert "witness = " in out

    def test_random_mode_rejects_negative_seed(self, capsys):
        code, out, err = run(
            capsys, "search", "--p", "5", "--d", "7", "--mode", "random",
            "--n", "3", "--seed", "-1",
        )
        assert (code, out) == (1, "")
        assert err == "error: seed must be nonnegative\n"


def test_prime_validation(capsys):
    with pytest.raises(SystemExit):
        main(["bound", "--p", "4", "--d", "1"])
    capsys.readouterr()


def test_module_entry_point():
    import os
    import subprocess
    import sys

    # the child imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(asnum.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "asnum", "bound", "--p", "3", "--d", "17"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "L(D) = 8" in proc.stdout
