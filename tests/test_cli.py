import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hqec
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
from hqec.verify import SUITE_RUNNERS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- configuration ------------------------------------------------------------

def _config(seed=0, trials=1000, tol=None):
    return RunConfig(seed=seed, trials=trials, tol=tol, fmt="text", out=None)


def test_runconfig_validation():
    _config(seed=0, trials=1)
    _config(trials=MAX_TRIALS)
    for trials in (0, MAX_TRIALS + 1):
        with pytest.raises(ValueError, match="trials must be between 1 and"):
            _config(trials=trials)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            _config(tol=tol)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            _config(seed=seed)


def test_report_records_take_every_field_but_the_witness():
    # cli passes every RunConfig field and the wall time; a check's witness
    # is the one field its callers may omit
    with pytest.raises(TypeError):
        RunConfig(seed=0, trials=10)
    with pytest.raises(TypeError):
        SuiteReport("verify-demo", 7, 12, ())
    with pytest.raises(TypeError):
        CheckRecord("alpha", "an identity", True)
    assert CheckRecord("alpha", "an identity", True, 0.5).witness is None


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


@pytest.mark.parametrize("argv", [("verify", "quaternion"), ("demo", "hopf")],
                         ids=["verify", "demo"])
def test_tol_is_a_usage_error_outside_simulate(capsys, argv):
    # --tol sets the simulate gate only; elsewhere it used to be ignored
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-300")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tol" in err


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


@pytest.mark.parametrize("trials, error", [
    (0, ValueError), (-1, ValueError), (1.5, TypeError), (True, TypeError)])
@pytest.mark.parametrize("suite", list(SUITE_RUNNERS))
def test_suites_check_their_trial_count(suite, trials, error):
    # called directly, a suite rejects what RunConfig rejects for the CLI,
    # with its own message and before it draws
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="trials must be"):
            SUITE_RUNNERS[suite](0, trials)


def test_commands_do_not_import_numpy_ma():
    # numpy.ma is imported lazily by np.unique and its set routines, about
    # 10 ms in a fresh process
    script = (
        "import contextlib, io, sys\n"
        "from hqec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['simulate', 'h3', '--trials', '3'])\n"
        "    main(['verify', 'all', '--trials', '3'])\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(Path(hqec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_hqec_loads_no_command_module():
    # perfbench's setup_s times `import hqec`; the verify suites, the CLI and
    # the report renderer must stay out of it
    script = (
        "import json, sys\n"
        "import hqec\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('hqec')]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(hqec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert loaded >= {"hqec", "hqec.linalg"}
    assert loaded.isdisjoint({"hqec.verify", "hqec.cli", "hqec.report"})


# the names `hqec` exported from hqec.dirac when it imported that module eagerly
DIRAC_EXPORTS = ("ErrorRotor", "GammaSet", "MajoranaSpinor", "build_gammas_standard",
                 "build_majorana_transform", "clifford_check", "error_generators",
                 "quaternion_correspondence", "transform_basis")


def test_importing_hqec_loads_no_dirac_and_builds_no_dataclass():
    # hqec.dirac loads on the first use of one of its exports, and no module
    # that `import hqec` loads generates a dataclass class
    script = (
        "import dataclasses, json, sys\n"
        "made = []\n"
        "process = dataclasses._process_class\n"
        "dataclasses._process_class = lambda cls, *args: (\n"
        "    made.append(cls.__qualname__) or process(cls, *args))\n"
        "import hqec\n"
        "loaded = 'hqec.dirac' in sys.modules\n"
        "rotor = hqec.ErrorRotor\n"
        "print(json.dumps([made, loaded, rotor is sys.modules['hqec.dirac'].ErrorRotor]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(hqec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], False, True]


def test_importing_the_cli_builds_no_dataclass_and_loads_no_dataclasses():
    # report's records are plain read-only classes, so no module a command
    # process loads generates a dataclass, and none imports dataclasses
    patched = (
        "import dataclasses, json, sys\n"
        "made = []\n"
        "process = dataclasses._process_class\n"
        "dataclasses._process_class = lambda cls, *args: (\n"
        "    made.append(cls.__qualname__) or process(cls, *args))\n"
        "import hqec.cli\n"
        "print(json.dumps(made))\n")
    plain = ("import json, sys\n"
             "import hqec.cli\n"
             "print(json.dumps('dataclasses' in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(hqec.__file__).parents[1]))
    for script, expected in ((patched, []), (plain, False)):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("name", DIRAC_EXPORTS)
def test_each_dirac_export_is_the_dirac_object(name):
    from hqec import dirac
    assert getattr(hqec, name) is getattr(dirac, name)
    assert name in dir(hqec)


def test_an_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="module 'hqec' has no attribute 'no_such_name'"):
        hqec.no_such_name
    assert {"StateVector", "roundtrip", "__version__"} <= set(dir(hqec))
