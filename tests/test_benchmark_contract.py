"""The benchmark's reader contract, checked at tier 1.

``perfbench`` builds each workload's correction maps and reads their size
through ``tracer.map_bytes`` and a domain state through ``cmap.domain[0]``.
A storage change that alters either fails here before it fails the
benchmark's set-up gate.  ``perfbench`` also pins the number of
``codes.roundtrip`` calls at one per trial and takes a median over them, so a
simulation loop that batches its trials fails here first.  Its tracer runs
here too, in a fresh interpreter right after the command line's import: a
lazy import that leaves a traced module unloaded fails here first as well,
and so does a change to what ``simulate h3`` completes, which ``perfbench``
pins as ``linalg.completion_dim``.
The benchmark modules are loaded by file path and never edited.

``perfbench`` also spans every ``Quaternion.__mul__`` call and every public
function of the package.  The quaternion, linalg and dirac suites run their
randomized checks through stacked-row functions, so they make few scalar
products; the mutation test below shows that the kernel is still what the
suite checks, term by term.  No suite makes more calls of a public function
at 1000 trials than at 1, except the one ``codes.roundtrip`` per simulated
trial that ``perfbench`` pins.  Nor does the ``tracemalloc`` peak of a suite
whose results do not grow with the trials rise by more than 0.5 MiB from
2,000 trials to 20,000: ``perfbench`` reads the process peak as
``peak_rss_mb``.
"""

import collections
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hqec import cli, codes, verify
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
# commands under perfbench's tracer, as its traced child process does, and
# prints each command's exit code, number of codes.roundtrip spans and sum of
# the dim annotations of its linalg.complete_orthonormal spans.
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
    new = spans.spans[start:]
    counts[argv] = [code, sum(s[0] == "codes.roundtrip" for s in new),
                    sum(s[4]["dim"] for s in new if s[0] == "linalg.complete_orthonormal")]
spans.uninstrument()
print(json.dumps(counts))
"""


def _traced_run(*commands: str) -> dict[str, list[int]]:
    """``_TRACED_RUN``'s counts for each command, in one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    run = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(PERFBENCH / "tracer.py"),
                          *commands], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_perfbench_traces_the_commands_right_after_the_cli_import():
    # instrument() looks up every TRACED_MODULES module in sys.modules, so
    # importing the cli must load them all; each simulated trial is one
    # codes.roundtrip span: five 1000-trial checks scale with --trials and
    # the determinism check runs 2 x 16 trials
    commands = ["verify codes --trials 7", "simulate shor9 --trials 7"]
    counts = _traced_run(*commands)
    assert {argv: run[:2] for argv, run in counts.items()} == {
        commands[0]: [0, 5 * 7 + 32], commands[1]: [0, 7]}


def test_simulate_h3_completes_the_pinned_dimension():
    # the annotator reads len() of each complete_orthonormal result, so a
    # change to the completion's calls or its result moves the pin here first
    command = "simulate h3 --trials 7"
    exit_code, roundtrips, dims = _traced_run(command)[command]
    assert exit_code == 0 and roundtrips == 7
    assert dims == expected.expected_counts("simulate-h3", 7)["linalg.completion_dim"]


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


# the one public function that runs once per trial: perfbench counts its
# calls as the simulated roundtrips
PER_TRIAL = ("codes.roundtrip",)


@pytest.mark.parametrize("suite", list(verify.SUITE_RUNNERS))
def test_no_public_call_count_grows_with_the_trials(suite, capsys):
    # perfbench's tracer spans every public function of the package and its
    # traced methods; no suite's randomized checks go through any of them
    # trial by trial
    def counted(trials: int) -> collections.Counter:
        spans = tracer.Tracer()
        spans.instrument()
        try:
            cli.main(["verify", suite, "--trials", str(trials)])
        finally:
            spans.uninstrument()
        capsys.readouterr()
        return collections.Counter(s[0] for s in spans.spans if s[0] not in PER_TRIAL)

    assert counted(1000) == counted(1)


# the codes suite is left out: simulate returns per-trial arrays, as the
# comment on report.MAX_TRIALS says
@pytest.mark.parametrize("suite", ["quaternion", "linalg", "dirac"])
def test_suite_memory_stays_flat_in_the_trials(suite):
    run = verify.SUITE_RUNNERS[suite]
    run(0, 1)        # imports and caches are made before the first peak

    def peak(trials: int) -> int:
        tracemalloc.start()
        try:
            run(0, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) <= peak(2_000) + 2 ** 19
