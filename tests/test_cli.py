"""Command-line behavior: outputs, formats, exit codes, error messages."""

import json

import pytest

import asnum.anumber
import asnum.cli
from asnum.anumber import InvariantViolation
from asnum.cli import main
from asnum.experiments import Distribution


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

    @pytest.mark.parametrize("dmax", ["0", "-5"])
    def test_range_rejects_dmax_below_one(self, capsys, dmax):
        code, out, err = run(capsys, "family", "--p", "3", "--dmax", dmax)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --dmax must be at least 1")

    def test_unsupported_prime(self, capsys):
        code, _, err = run(capsys, "family", "--p", "7", "--d", "4")
        assert code != 0
        assert "p in {3, 5}" in err


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
