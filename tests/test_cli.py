import json

import pytest

from hqec import cli
from hqec.report import (
    MAX_TRIALS,
    CheckRecord,
    RunConfig,
    SuiteReport,
    render,
    serialize,
    to_structured,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- configuration ------------------------------------------------------------

def test_runconfig_validation():
    RunConfig("verify", seed=0, trials=1)
    RunConfig("verify", trials=MAX_TRIALS)
    for trials in (0, MAX_TRIALS + 1):
        with pytest.raises(ValueError):
            RunConfig("verify", trials=trials)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig("verify", tol=tol)
    with pytest.raises(ValueError):
        RunConfig("verify", seed=-1)
    with pytest.raises(ValueError):
        RunConfig("verify", seed=2 ** 64)


# --- report serialization ---------------------------------------------------

def _sample_report() -> SuiteReport:
    return SuiteReport("verify-demo", 7, 12, (
        CheckRecord("alpha", "an identity", True, 1.25e-13, None),
        CheckRecord("beta", "another identity", False, 2.0, "sign flipped"),
    ), wall_time_s=0.25)


def test_structured_roundtrip_is_byte_identical():
    doc = serialize(to_structured(_sample_report()))
    again = serialize(json.loads(doc))
    assert again == doc


def test_structured_fields():
    doc = to_structured(_sample_report())
    assert doc["suite"] == "verify-demo"
    assert doc["seed"] == 7
    assert doc["overall"] == "fail"
    assert doc["checks"][0]["max_deviation"] == "1.25e-13"
    assert doc["checks"][1]["witness"] == "sign flipped"


def test_text_rendering():
    text = render(_sample_report(), "text")
    assert "PASS  alpha" in text
    assert "FAIL  beta" in text
    assert "overall: FAIL" in text


# --- exit codes ----------------------------------------------------------

def test_verify_quaternion_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "quaternion", "--trials", "25")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_dirac_exits_one(capsys):
    # the transformed-basis sign findings are reported as check failures
    code, out, _ = run_cli(capsys, "verify", "dirac", "--trials", "25")
    assert code == 1
    assert "overall: FAIL" in out
    assert "signs found" in out


def test_usage_error_unknown_target(capsys):
    code, _, err = run_cli(capsys, "verify", "everything")
    assert code == 2


def test_usage_error_missing_command(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_usage_error_bad_trials(capsys):
    code, _, err = run_cli(capsys, "verify", "quaternion", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_usage_error_trials_above_ceiling(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a run started despite the trials ceiling")

    monkeypatch.setattr(cli, "cmd_simulate", never)
    code, out, err = run_cli(capsys, "simulate", "r3",
                             "--trials", "1000000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and str(MAX_TRIALS) in err


def test_exit_matches_overall_verdict(capsys):
    code, out, _ = run_cli(capsys, "simulate", "r3", "--trials", "20",
                           "--format", "structured")
    doc = json.loads(out)
    assert (code == 0) == (doc["overall"] == "pass")


# --- output destinations and formats ----------------------------------------

def test_structured_output_parses(capsys):
    code, out, _ = run_cli(capsys, "verify", "linalg", "--trials", "25",
                           "--format", "structured")
    doc = json.loads(out)
    assert doc["suite"] == "verify-linalg"
    assert {"check_id", "anchor", "verdict", "max_deviation", "witness"} \
        <= set(doc["checks"][0])


def test_json_alias(capsys):
    code, out, _ = run_cli(capsys, "verify", "linalg", "--trials", "25",
                           "--format", "json")
    assert json.loads(out)["suite"] == "verify-linalg"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "simulate", "r3", "--trials", "10",
                           "--format", "structured", "--out", str(target))
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["suite"] == "simulate-r3"


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "verify", "quaternion", "--trials", "5",
                             "--out", str(target))
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1
    assert not target.exists()


# --- seeding ------------------------------------------------------------------

def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "9")
    _, out, _ = run_cli(capsys, "verify", "linalg", "--trials", "10",
                        "--format", "structured")
    assert json.loads(out)["seed"] == 9


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "9")
    _, out, _ = run_cli(capsys, "verify", "linalg", "--trials", "10",
                        "--seed", "3", "--format", "structured")
    assert json.loads(out)["seed"] == 3


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    code, _, err = run_cli(capsys, "verify", "linalg", "--trials", "10")
    assert code == 2


def test_same_seed_same_structured_report(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert cli.main(["simulate", "r3", "--trials", "40", "--seed", "5",
                         "--format", "structured", "--out", str(p)]) == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc.pop("wall_time_s")
    assert json.dumps(docs[0]) == json.dumps(docs[1])


# --- demos ------------------------------------------------------------------

def test_demo_phase_failure(capsys):
    code, out, _ = run_cli(capsys, "demo", "phase-failure")
    assert code == 0
    assert "mapped to the encoding of" in out


def test_demo_effective_count(capsys):
    code, out, _ = run_cli(capsys, "demo", "effective-count")
    assert code == 0
    assert "count = 7" in out


def test_demo_hopf(capsys):
    code, out, _ = run_cli(capsys, "demo", "hopf")
    assert code == 0
    assert "1 -> (+1, +0, +0)" in out
    assert "j -> (-1, +0, +0)" in out


# --- aggregation --------------------------------------------------------------

def test_verify_all_aggregates(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--trials", "5",
                           "--format", "structured")
    doc = json.loads(out)
    ids = [c["check_id"] for c in doc["checks"]]
    assert any(i.startswith("quaternion/") for i in ids)
    assert any(i.startswith("linalg/") for i in ids)
    assert any(i.startswith("codes/") for i in ids)
    assert any(i.startswith("dirac/") for i in ids)
