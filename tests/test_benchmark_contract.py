"""The benchmark's reader contract, checked at tier 1.

``perfbench`` builds each workload's correction maps and reads their size
through ``tracer.map_bytes`` and a domain state through ``cmap.domain[0]``.
A storage change that alters either fails here before it fails the
benchmark's set-up gate.  ``perfbench`` also pins the number of
``codes.roundtrip`` calls at one per trial and takes a median over them, so a
simulation loop that batches its trials fails here first.  Its tracer runs
here too, in a fresh interpreter right after the command line's import: a
lazy import that leaves a traced module unloaded fails here first as well.
The benchmark modules are loaded by file path and never edited.

``perfbench`` also spans every ``Quaternion.__mul__`` call.  The quaternion
suite runs its randomized checks through the array kernel, so it makes few
scalar products; the mutation tests below show that the kernel is still what
the suite checks, term by term and against the scalar product.  The linalg
and dirac suites run theirs array-at-a-time as well, and every suite runs the
public scalar functions on its spot rows only.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hqec import cli, codes, dirac, linalg, sampling, verify
from hqec import quaternion as quat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
expected = _load("expected")

# The completed maps each workload's command builds, as perfbench's
# child._builders lists them (fixtures of tests/conftest.py).
WORKLOAD_MAPS = {
    "verify-all": ("r3_correction", "h3_correction", "shor9_correction"),
    "simulate-h3": ("h3_correction",),
    "simulate-shor9": ("shor9_correction",),
}


def test_every_workload_is_covered():
    assert set(WORKLOAD_MAPS) == set(expected.WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOAD_MAPS))
def test_map_bytes_match_the_pinned_counts(workload, request):
    maps = [request.getfixturevalue(f) for f in WORKLOAD_MAPS[workload]]
    pinned = expected.expected_counts(workload, 1000)["codes.correction_map_bytes"]
    assert sum(tracer.map_bytes(m) for m in maps) == pinned
    for cmap in maps:
        amps = cmap.domain[0].amplitudes
        assert amps.shape == (cmap.code.dim * cmap.ancilla_dim,)


@pytest.mark.parametrize("name", ["r3", "h3", "shor9"])
@pytest.mark.parametrize("trials", [1, 7])
def test_simulate_makes_one_roundtrip_call_per_trial(trials, name, request,
                                                     monkeypatch):
    cmap = request.getfixturevalue(f"{name}_correction")
    calls = []
    original = codes.roundtrip

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codes, "roundtrip", counting)
    draw = codes.combined_draw(cmap.code, cmap.errors)
    fidelities, _ = codes.simulate(cmap, draw, np.random.default_rng(0), trials)
    assert len(calls) == trials == len(fidelities)


# A fresh interpreter imports the command line and nothing else, then runs
# two commands under perfbench's tracer, as its traced child process does,
# and prints each command's exit code and number of codes.roundtrip spans.
_TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from hqec import cli
spans = tracer.Tracer()
spans.instrument()
counts = {}
for argv in sys.argv[2:]:
    start = len(spans.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv.split())
    counts[argv] = [code, sum(s[0] == "codes.roundtrip" for s in spans.spans[start:])]
spans.uninstrument()
print(json.dumps(counts))
"""


def test_perfbench_traces_the_commands_right_after_the_cli_import():
    # instrument() looks up every TRACED_MODULES module in sys.modules, so
    # importing the cli must load them all; each simulated trial is one
    # codes.roundtrip span: five 1000-trial checks scale with --trials and
    # the determinism check runs 2 x 16 trials
    commands = ["verify codes --trials 7", "simulate shor9 --trials 7"]
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    run = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(PERFBENCH / "tracer.py"),
                          *commands], env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == {commands[0]: [0, 5 * 7 + 32],
                                      commands[1]: [0, 7]}


def test_verify_quaternion_makes_few_scalar_products(monkeypatch, capsys):
    calls = 0
    original = quat.Quaternion.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(quat.Quaternion, "__mul__", counting)
    assert cli.main(["verify", "quaternion", "--trials", "1000"]) == 0
    capsys.readouterr()
    # 55,756 when every trial made its products one Quaternion at a time
    assert calls <= 1000


def _verdicts(seed: int = 0, trials: int = 100) -> dict:
    return {r.check_id: r for r in verify.quaternion_suite(seed, trials)}


def test_a_broken_kernel_term_fails_associativity(monkeypatch):
    def broken(a, b):
        aw, ax, ay, az = np.moveaxis(a, -1, 0)
        bw, bx, by, bz = np.moveaxis(b, -1, 0)
        return np.stack([
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz + az * by,    # sign of az*by flipped
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ], axis=-1)

    monkeypatch.setattr(quat, "_hamilton", broken)
    assert not _verdicts()["mul_associative"].passed


PRODUCT_CHECKS = ("norm_multiplicative", "mul_associative", "rotation_geometry",
                  "su2_right_action_matrix", "hopf_phase_invariance",
                  "hopf_equivariance")


def test_kernel_drift_in_the_spot_rows_fails_the_checks(monkeypatch):
    original = quat._hamilton

    def drifting(a, b):
        # one ulp off the scalar product, in the spot-checked rows only
        out = original(a, b)
        if out.ndim == 2:
            out[:16] = np.nextafter(out[:16], np.inf)
        return out

    monkeypatch.setattr(quat, "_hamilton", drifting)
    monkeypatch.setattr(verify, "_BLOCK", 10_000)    # one block per check
    records = _verdicts()
    for check_id in PRODUCT_CHECKS:
        assert not records[check_id].passed, check_id
    # far inside the tolerance: only the bit-for-bit spot check catches it
    assert records["norm_multiplicative"].max_deviation < 1e-14


# the public functions whose calls grew with the trial count in the loop form
# of the suites, each at the name the suites call it by; no suite imports
# random_unit_quaternion any more, so it is counted at its home in sampling
SCALAR_ROUTES = {
    "tensor_state": (verify, "tensor_state"),
    "StateVector": (linalg.StateVector, "__post_init__"),
    "quaternion_correspondence": (dirac, "quaternion_correspondence"),
    "random_unit_quaternion": (sampling, "random_unit_quaternion"),
}
# their calls at 1000 trials, all on the spot rows: _SPOT trials of each
# field or check.  The loop form made 4,752 StateVector and 1,080
# tensor_state calls (linalg), 1,016 quaternion_correspondence and 1,200
# random_unit_quaternion calls (dirac), and 4,000 random_unit_quaternion
# calls (quaternion).
SPOT_CALLS = {
    "linalg": {"StateVector": 492, "tensor_state": 96},
    "dirac": {"quaternion_correspondence": 32},
    "quaternion": {},
}


@pytest.mark.parametrize("suite", list(SPOT_CALLS))
def test_verify_calls_the_scalar_functions_on_the_spot_rows_only(suite, monkeypatch,
                                                                  capsys):
    calls = dict.fromkeys(SCALAR_ROUTES, 0)
    for name, (owner, attr) in SCALAR_ROUTES.items():
        def counting(*args, _name=name, _original=getattr(owner, attr)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, attr, counting)

    def counted(trials: int) -> dict:
        calls.update(dict.fromkeys(calls, 0))
        cli.main(["verify", suite, "--trials", str(trials)])
        capsys.readouterr()
        return {k: v for k, v in calls.items() if v}

    # at _SPOT trials every trial is a spot row
    assert counted(1000) == counted(verify._SPOT) == SPOT_CALLS[suite]
