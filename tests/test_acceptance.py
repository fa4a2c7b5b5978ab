"""End-to-end acceptance criteria for the whole package.

Each test covers one criterion at its pinned tolerance and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in failure reports).  Criterion
6 checks every transformed-basis identity against its bundled reference
constants exactly as stated; the three reference sign conventions that are
mutually inconsistent with the transform matrix itself are asserted anyway,
so their failure is an expected, documented outcome rather than a defect in
the checks (the sign classifications in the failure output show what the
construction actually realizes).
"""

import json
import math
import time

import numpy as np

from hqec import cli, codes, dirac
from hqec import quaternion as quat
from hqec.codes import (
    CombinedError,
    ErrorFamily,
    ErrorSet,
    ErrorTerm,
    effective_error_basis,
    identity_error,
    kl_check,
    pauli_error,
    phase_error_pi,
    phase_failure_demo,
    roundtrip,
    so2_error,
)
from hqec.linalg import ScalarField, is_isometry
from hqec.sampling import random_coefficients, random_unit_quaternion, rng_for


def _conclude(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} [{description}]: {status}")
    for item in failures:
        print(f"    - {item}")
    assert not failures, f"criterion {num} failed: " + " | ".join(failures)


R3_TABLE = [
    (0b000, 0b00, 1.0, 0b000, 0b00),
    (0b111, 0b00, 1.0, 0b111, 0b00),
    (0b100, 0b00, 1.0, 0b000, 0b10),
    (0b011, 0b00, -1.0, 0b111, 0b10),
    (0b010, 0b00, 1.0, 0b000, 0b01),
    (0b101, 0b00, -1.0, 0b111, 0b01),
    (0b001, 0b00, 1.0, 0b000, 0b11),
    (0b110, 0b00, -1.0, 0b111, 0b11),
]


def test_criterion_1_correction_table():
    failures = []
    start = time.perf_counter()
    cmap = codes.build_r3_correction()
    u = cmap.operator.matrix
    for word, anc, sign, word_out, anc_out in R3_TABLE:
        x = np.zeros(32)
        x[word * 4 + anc] = 1.0
        expected = np.zeros(32)
        expected[word_out * 4 + anc_out] = sign
        if not np.array_equal(u @ x, expected):
            failures.append(f"row |{word:03b}>|{anc:02b}> not reproduced exactly")
    dev = is_isometry(cmap.operator).max_deviation
    if dev > 1e-10:
        failures.append(f"completed operator orthogonality deviation {dev:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _conclude(1, "real 3-site correction table, all 8 rows exact", failures)


def test_criterion_2_first_site_rotation_roundtrips(r3_correction):
    failures = []
    code = r3_correction.code
    rng = rng_for(0, 1001)
    worst_fid = 0.0
    worst_anc = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        a, b = random_coefficients(code.field, 2, rng)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        res = roundtrip(r3_correction, (a, b), so2_error(theta, 0))
        worst_fid = max(worst_fid, abs(res.fidelity - 1.0))
        expected_anc = np.array([math.cos(theta), 0.0, math.sin(theta), 0.0])
        worst_anc = max(worst_anc, float(
            np.abs(res.ancilla.amplitudes - expected_anc).max()))
    elapsed = time.perf_counter() - start
    if worst_fid > 1e-10:
        failures.append(f"fidelity deviation {worst_fid:.3e} > 1e-10")
    if worst_anc > 1e-10:
        failures.append(f"ancilla mismatch {worst_anc:.3e} > 1e-10 "
                        "(expected alpha|00> + beta|10>)")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s for 1000 trials")
    _conclude(2, "first-site rotations: logical state and ancilla pattern",
              failures)


def test_criterion_3_phase_error_failure_claim():
    failures = []
    code = codes.build_complex3_code()
    errors = ErrorSet((identity_error(code.field),
                       ErrorTerm("phase(pi)@0", phase_error_pi(0))))
    report = kl_check(code, errors)
    if report.passed:
        failures.append("conditions unexpectedly pass for {identity, phase}")
    diag = [v for v in report.violations if v.kind == "diagonal"]
    if not any(v.values == (1j, -1j) for v in diag):
        failures.append(f"witness (1j, -1j) not found; saw "
                        f"{[v.values for v in diag]}")
    rng = rng_for(0, 1003)
    for a, b in [(1 / math.sqrt(2), 1 / math.sqrt(2)),
                 tuple(random_coefficients(ScalarField.COMPLEX, 2, rng))]:
        demo = phase_failure_demo(a, b)
        if demo.match_residual > 1e-12:
            failures.append(f"mimic residual {demo.match_residual:.3e} > 1e-12")
        if demo.physically_equivalent and abs(a) > 1e-9 and abs(b) > 1e-9:
            failures.append("mimic wrongly reported as the same physical state")
    _conclude(3, "phase error defeats the complex repetition code, "
                 "witness (i, -i)", failures)


def test_criterion_4_quaternionic_code():
    failures = []
    start = time.perf_counter()
    for unit in ("i", "j"):
        code = codes.build_h3_code(unit)
        basis = effective_error_basis(code, ErrorFamily.SU2)
        report = kl_check(code, basis)
        dev = report.max_deviation
        if not report.passed or dev > 1e-12:
            failures.append(f"conditions fail for unit {unit} (dev {dev:.3e})")
        off = report.gram - np.diag(np.diag(report.gram))
        if np.abs(off).max() > 1e-12:
            failures.append(f"Gram off-diagonals exceed 1e-12 for unit {unit}")
    cmap = codes.build_h3_correction("j")
    code = cmap.code
    rng = rng_for(0, 1004)
    worst = 0.0
    for _ in range(1000):
        logical = random_coefficients(code.field, 2, rng)
        u = random_unit_quaternion(rng)
        site = int(rng.integers(3))
        res = roundtrip(cmap, logical, codes.su2_error(u, site))
        worst = max(worst, abs(res.fidelity - 1.0))
    if worst > 1e-10:
        failures.append(f"min roundtrip fidelity off by {worst:.3e} > 1e-10")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _conclude(4, "quaternionic 3-site code corrects unit right "
                 "multiplications (both repetition units)", failures)


def test_criterion_5_linear_combination_theorem(r3_correction, h3_correction):
    failures = []
    rng = rng_for(0, 1005)
    for cmap, family in ((r3_correction, ErrorFamily.SO2),
                         (h3_correction, ErrorFamily.SU2)):
        code = cmap.code
        basis = effective_error_basis(code, family)
        worst = 0.0
        for _ in range(1000):
            logical = random_coefficients(code.field, 2, rng)
            err = CombinedError(basis,
                                random_coefficients(code.field, len(basis), rng))
            res = roundtrip(cmap, logical, err)
            worst = max(worst, res.residual)
        if worst > 1e-10:
            failures.append(f"{code.name}: factorization residual "
                            f"{worst:.3e} > 1e-10")
    _conclude(5, "corrected output factors as (encoded state) x (ancilla "
                 "superposition) for random error combinations", failures)


def test_criterion_6_gamma_identities():
    failures = []
    start = time.perf_counter()
    gs = dirac.build_gammas_standard()
    gm = dirac.majorana_set(gs)

    for label, gset in (("standard", gs), ("transformed", gm)):
        rep = dirac.clifford_check(gset)
        if not rep.passed or rep.max_deviation > 1e-12:
            failures.append(f"clifford relations fail in {label} basis "
                            f"(dev {rep.max_deviation:.3e})")

    um = dirac.build_majorana_transform(gs)
    dev = float(np.abs(um - dirac.MAJORANA_TRANSFORM_REFERENCE).max())
    if dev > 1e-15:
        failures.append(f"transform differs from reference matrix by {dev:.3e}")
    dev = float(np.abs(um @ um.conj().T - np.eye(4)).max())
    if dev > 1e-14:
        failures.append(f"transform unitarity deviation {dev:.3e}")

    images = dirac.check_basis_images(gs, um, tol=1e-13)
    for name, match in images.items():
        if not match.matches_reference:
            failures.append(
                f"basis image {name}: reference deviation "
                f"{match.reference_deviation:.3e} > 1e-13 "
                f"(identity holds with sign {match.sign})")

    gens = dirac.error_generators(gm)
    dev = max(float(np.abs(np.asarray(g).imag).max()) for g in gens)
    if dev > 1e-14:
        failures.append(f"transformed generators not real (dev {dev:.3e})")
    bilinears = dirac.check_majorana_bilinears(gm)
    for name, match in bilinears.items():
        if not match.matches_reference:
            failures.append(
                f"bilinear {name}: sign pattern differs from reference "
                f"(matches with sign {match.sign})")

    units = (quat.ONE, quat.I, quat.J, quat.K)
    rotors = [dirac.ErrorRotor(*(1.0 if i == k else 0.0 for i in range(4)))
              for k in range(4)]
    worst = 0.0
    for rotor in rotors:
        for q in units:
            worst = max(worst,
                        dirac.quaternion_correspondence(rotor, q, gm).max_deviation)
    rng = rng_for(0, 1006)
    for _ in range(1000):
        e = random_unit_quaternion(rng)
        rotor = dirac.ErrorRotor(e.w, e.x, e.y, e.z)
        q = quat.Quaternion.from_array(rng.standard_normal(4))
        worst = max(worst,
                    dirac.quaternion_correspondence(rotor, q, gm).max_deviation)
    if worst > 1e-12:
        signs = dirac.classify_unit_correspondences(gens)
        failures.append(f"rotor correspondence deviation {worst:.3e} > 1e-12 "
                        f"(unit signs realized: {signs}, reference: all -1)")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _conclude(6, "gamma-matrix identities against the bundled reference "
                 "constants", failures)


def test_criterion_7_counting_and_nine_qubit_conditions():
    failures = []
    start = time.perf_counter()
    b3 = codes.build_b3_code()
    singles = ErrorSet(tuple(
        ErrorTerm(f"{axis.upper()}@{site}", pauli_error(axis, site))
        for site in range(3) for axis in ("x", "y", "z")))
    count = codes.count_effective_errors(b3, singles)
    if count != 7:
        failures.append(f"effective error count {count} != 7")
    shor9 = codes.build_shor9_code()
    basis = effective_error_basis(shor9, ErrorFamily.PAULI_PER_SITE)
    if len(basis) != 28:
        failures.append(f"expected 28 operators, got {len(basis)}")
    report = kl_check(shor9, basis)
    dev = report.max_deviation
    if not report.passed or dev > 1e-12:
        failures.append(f"nine-qubit conditions fail (dev {dev:.3e})")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _conclude(7, "seven distinct pre-encoding errors; nine-qubit code passes "
                 "the conditions for all 28 operators", failures)


def test_criterion_8_deterministic_reports(tmp_path):
    failures = []
    docs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        cli.main(["verify", "all", "--seed", "42",
                  "--format", "structured", "--out", str(out)])
        docs.append(json.loads(out.read_text()))
    for doc in docs:
        doc.pop("wall_time_s", None)
    if json.dumps(docs[0], indent=2) != json.dumps(docs[1], indent=2):
        failures.append("two seeded runs produced different reports")
    _conclude(8, "identical structured reports for identical seeds "
                 "(wall time aside)", failures)
