"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload through both the untraced and the traced
path with ``run.TRIALS`` lowered to 20 (about a minute in total on two
cores).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report_from_table(workload: str, seed: int = 0, trials: int = 1000) -> dict:
    """A structured report exactly as the expected table describes it."""
    return {
        "seed": seed,
        "trials": trials,
        "checks": [{"check_id": cid, "verdict": verdict, "witness": witness}
                   for cid, (verdict, witness)
                   in expected.EXPECTED_CHECKS[workload].items()],
    }


SMOKE_TRIALS = 20


def _run_bench(monkeypatch, capsys, *args: str) -> tuple[dict, str]:
    """``run.main`` in this process with few trials per command."""
    monkeypatch.setattr(run, "TRIALS", SMOKE_TRIALS)
    assert run.main(list(args)) == 0
    stdout = capsys.readouterr().out
    return json.loads(stdout.strip().splitlines()[-1]), stdout


@pytest.mark.parametrize("workload", tuple(expected.WORKLOADS))
def test_gate_accepts_the_expected_report(workload):
    report = _report_from_table(workload)
    assert expected.gate_report(workload, report, expected.EXPECTED_EXIT[workload],
                                0, 1000) == []


def test_altered_expected_verdict_is_a_failure(monkeypatch):
    report = _report_from_table("verify-all")
    monkeypatch.setitem(expected.VERIFY_ALL, "dirac/rotor_isometry", ("fail", None))
    problems = expected.gate_report("verify-all", report, 1, 0, 1000)
    assert problems == ["dirac/rotor_isometry: verdict pass, expected fail"]


def test_altered_expected_witness_is_a_failure(monkeypatch):
    report = _report_from_table("verify-all")
    monkeypatch.setitem(
        expected.VERIFY_ALL, "dirac/rotor_correspondence",
        ("fail", "unit signs found (reference -1 each): {'i': -1, 'j': -1, 'k': -1}"))
    problems = expected.gate_report("verify-all", report, 1, 0, 1000)
    assert len(problems) == 1 and problems[0].startswith("dirac/rotor_correspondence")


def test_changed_report_is_a_failure():
    report = _report_from_table("simulate-h3")
    report["checks"][2]["verdict"] = "fail"
    del report["checks"][3]
    problems = expected.gate_report("simulate-h3", report, 1, 0, 1000)
    assert len(problems) == 3   # exit code, one verdict, one missing check


def test_seed_reaches_the_command():
    args = child.cli_args("simulate-shor9", 4242, 7)
    assert args[args.index("--seed") + 1] == "4242"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "cli", "simulate-h3",
         "--seed", "4242", "--trials", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["seed"] == 4242 and report["trials"] == 3
    # The gate rejects a report made with another seed.
    assert expected.gate_report("simulate-h3", report, 0, 4243, 3)


@pytest.mark.parametrize("workload", tuple(expected.WORKLOADS))
def test_smoke_untraced(workload, monkeypatch, capsys):
    result, stdout = _run_bench(monkeypatch, capsys, "--workload", workload,
                                "--seed", "5", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    environment = json.loads(stdout.splitlines()[0].split(": ", 1)[1])
    assert environment["seed"] == 5 and environment["trials"] == SMOKE_TRIALS


@pytest.mark.parametrize("workload", tuple(expected.WORKLOADS))
def test_smoke_traced(workload, monkeypatch, capsys):
    result, _ = _run_bench(monkeypatch, capsys, "--workload", workload,
                           "--seed", "5", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["codes.roundtrips"]["value"] == (
        expected.expected_counts(workload, SMOKE_TRIALS)["codes.roundtrips"])


def test_missing_sources_exit_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-h3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
