"""The benchmark's reader contract, checked at tier 1.

``perfbench`` builds each workload's correction maps and reads their size
through ``tracer.map_bytes`` and a domain state through ``cmap.domain[0]``.
A storage change that alters either fails here before it fails the
benchmark's set-up gate.  ``perfbench`` also pins the number of
``codes.roundtrip`` calls at one per trial and takes a median over them, so a
simulation loop that batches its trials fails here first.  The benchmark
modules are loaded by file path and never edited.

``perfbench`` also spans every ``Quaternion.__mul__`` call.  The quaternion
suite runs its randomized checks through the array kernel, so it makes few
scalar products; the mutation tests below show that the kernel is still what
the suite checks, term by term and against the scalar product.
"""

import importlib.util
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
