"""Checks of the benchmark itself; run with

    python3 -m pytest -q perfbench/selftest.py

from the root of the checkout.  The smoke runs make each workload's
smallest run (one round), so the whole file takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_env()
run.import_asnum()

import workloads as w  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDENS = json.loads(run.GOLDENS.read_text())["answers"]
TINY = "0.01"


def bench(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", TINY, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(lines) -> dict:
    return json.loads(lines[-1])


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_workloads_match_spec():
    assert [x["name"] for x in SPEC["workloads"]] == list(w.WORKLOADS)


def test_tail_has_ten_calls_above():
    values = list(range(100))
    value, pct, above = run.tail(values)
    assert (value, pct, above) == (89, 90.0, 10)
    assert sum(v > value for v in values) == 10
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_goldens_cover_every_call():
    for workload in w.WORKLOADS.values():
        missing = [c for c in workload.golden_calls() if w.call_key(c) not in GOLDENS]
        assert not missing
        for seed in (0, 1, 12345):
            calls = workload.calls(seed, workload.rounds(SPEC["run_seconds"]))
            assert all(w.call_key(c) in GOLDENS for c in calls)


def test_readme_tally_is_a_golden():
    assert GOLDENS["distribution 3 17 10000 1"] == {"8": 6650, "9": 2974, "10": 376}


@pytest.mark.parametrize("workload", list(w.WORKLOADS))
def test_smoke(workload):
    code, lines, err = bench(ROOT, workload, 1, 0)
    assert code == 0, err
    out = result(lines)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())

    traced = []
    for seed in (1, 2):
        code, lines, err = bench(ROOT, workload, seed, 1)
        assert code == 0, err
        out = result(lines)
        assert out["correct"]
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")
        assert any(line.startswith("module") for line in lines)
        traced.append(out)
    # exact counts repeat between runs, whatever the seed
    assert counts(traced[0]["metrics"]) == counts(traced[1]["metrics"])
    assert any(counts(traced[0]["metrics"]).values())
    covers = [
        json.loads((run.OUT / f"{workload}-seed{seed}-trace1.json").read_text())["detail"]["covers"]
        for seed in (1, 2)
    ]
    assert covers[0] == covers[1] > 0


def test_corrupted_golden_fails(tmp_path):
    root = copy_checkout(tmp_path, with_src=True)
    path = root / "perfbench" / "goldens.json"
    doc = json.loads(path.read_text())
    first = w.WORKLOADS["survey"].calls(1, 1)[0]
    tally = doc["answers"][w.call_key(first)]
    a = next(iter(tally))
    tally[a] += 1
    path.write_text(json.dumps(doc))
    code, lines, _ = bench(root, "survey", 1, 0)
    assert code != 0
    out = result(lines)
    assert not out["correct"] and out["failed"] == 1


def test_bare_directory_fails(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    code, lines, err = bench(root, "survey", 1, 0)
    assert code != 0
    assert not lines or not lines[-1].startswith("{")
    assert "no asnum package" in err
