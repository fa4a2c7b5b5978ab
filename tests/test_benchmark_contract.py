"""The benchmark's reader contract, checked at tier 1.

``perfbench`` builds each workload's correction maps and reads their size
through ``tracer.map_bytes`` and a domain state through ``cmap.domain[0]``.
A storage change that alters either fails here before it fails the
benchmark's set-up gate.  ``perfbench`` also pins the number of
``codes.roundtrip`` calls at one per trial and takes a median over them, so a
simulation loop that batches its trials fails here first.  The benchmark
modules are loaded by file path and never edited.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hqec import codes

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


@pytest.mark.parametrize("trials", [1, 7])
def test_simulate_makes_one_roundtrip_call_per_trial(trials, r3_correction,
                                                     monkeypatch):
    calls = []
    original = codes.roundtrip

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(codes, "roundtrip", counting)
    code = r3_correction.code
    draw = codes.combined_draw(r3_correction.errors, code.field)
    fidelities, _ = codes.simulate(r3_correction, draw,
                                   np.random.default_rng(0), trials)
    assert len(calls) == trials == len(fidelities)
