"""Seeded invariant suites behind the ``verify`` command.

Each function runs the full battery of checks for one module and returns
plain CheckRecords.  Randomized checks draw from generators derived from
(seed, fixed stream id), so results are reproducible bit for bit and
independent of execution order.
"""

from __future__ import annotations

import numpy as np

from . import codes, dirac
from . import quaternion as quat
from .linalg import (
    LinearMap,
    RankDeficiencyError,
    ScalarField,
    SiteOperator,
    apply_site,
    basis_state,
    complete_orthonormal,
    inner,
    is_isometry,
    site_operator_matrix,
    tensor_state,
)
from .quaternion import ComplexPair, ImaginaryVector, Quaternion
from .report import CheckRecord
from .sampling import (
    random_orthogonal,
    random_quaternion,
    random_state,
    random_unit_quaternion,
    random_unitary,
    rng_for,
)

# ---------------------------------------------------------------------------
# quaternion suite


def quaternion_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = []

    rng = rng_for(seed, 101)
    dev = 0.0
    for _ in range(10_000):
        q, h = random_quaternion(rng), random_quaternion(rng)
        d = abs(q.norm() * h.norm() - (q * h).norm()) / (1.0 + q.norm() * h.norm())
        dev = max(dev, d)
    records.append(CheckRecord("norm_multiplicative", "multiplicative norm",
                               dev <= 1e-12, dev))

    rng = rng_for(seed, 102)
    dev = 0.0
    for _ in range(trials):
        q, u, v = (random_quaternion(rng) for _ in range(3))
        diff = (q * u) * v - q * (u * v)
        dev = max(dev, float(np.abs(diff.as_array()).max()))
    records.append(CheckRecord("mul_associative", "associativity of the product",
                               dev <= 1e-12, dev))

    rng = rng_for(seed, 103)
    dev = 0.0
    for _ in range(trials):
        q = random_unit_quaternion(rng)
        while q.as_array()[1:] @ q.as_array()[1:] < 1e-4:
            q = random_unit_quaternion(rng)
        v = ImaginaryVector(*rng.standard_normal(3))
        rotated = quat.rotate_vector(q, v)
        dev = max(dev, abs(rotated.length() - v.length()) / (1.0 + v.length()))
        axis = quat.rotation_axis(q)
        fixed = quat.rotate_vector(q, axis)
        dev = max(dev, float(np.abs(np.array([fixed.x - axis.x, fixed.y - axis.y,
                                              fixed.z - axis.z])).max()))
        q2 = random_unit_quaternion(rng)
        twice = quat.rotate_vector(q2, rotated)
        once = quat.rotate_vector((q2 * q).normalized(), v)
        dev = max(dev, float(np.abs(np.array([twice.x - once.x, twice.y - once.y,
                                              twice.z - once.z])).max()))
    records.append(CheckRecord(
        "rotation_geometry", "conjugation rotates the imaginary 3-space",
        dev <= 1e-12, dev))

    rng = rng_for(seed, 104)
    dev = 0.0
    basis = (quat.ONE, quat.I, quat.J, quat.K)
    for trial in range(trials):
        u = random_unit_quaternion(rng)
        qs = basis if trial < 4 else (random_quaternion(rng),)
        m = quat.su2_matrix(u)
        for q in qs:
            lhs = quat.su2_right_action(q, u)
            pair = quat.extract_qubit(q)
            vec = m @ np.array([pair.a, pair.b])
            rhs = quat.embed_qubit(ComplexPair(vec[0], vec[1]))
            dev = max(dev, float(np.abs((lhs - rhs).as_array()).max()))
    records.append(CheckRecord(
        "su2_right_action_matrix",
        "right multiplication equals the 2x2 unitary on the amplitude pair",
        dev <= 1e-12, dev))

    rng = rng_for(seed, 105)
    dev_phase = dev_equi = dev_shape = 0.0
    for _ in range(trials):
        q = random_quaternion(rng)
        if q.norm() < 1e-3:
            continue
        phi = rng.uniform(0.0, 2.0 * np.pi)
        u = random_unit_quaternion(rng)
        v = quat.hopf_project(q)
        dev_shape = max(dev_shape, abs(v.length() - 1.0))
        v_phase = quat.hopf_project(quat.exp_phase(phi) * q)
        dev_phase = max(dev_phase, float(np.abs(np.array(
            [v_phase.x - v.x, v_phase.y - v.y, v_phase.z - v.z])).max()))
        v_act = quat.hopf_project(q * u.conj())
        rot = u * v.to_quaternion() * u.conj()
        dev_equi = max(dev_equi, float(np.abs(
            v_act.to_quaternion().as_array() - rot.as_array()).max()))
    records.append(CheckRecord(
        "hopf_phase_invariance", "projection is blind to the left phase",
        max(dev_phase, dev_shape) <= 1e-12, max(dev_phase, dev_shape)))
    records.append(CheckRecord(
        "hopf_equivariance", "right action projects to a sphere rotation",
        dev_equi <= 1e-12, dev_equi))

    rng = rng_for(seed, 106)
    dev = 0.0
    canonical = []
    for r in range(2):
        for c in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[r, c] = 1.0
            canonical.extend([e, 1j * e, -e, -1j * e])
    mats = canonical + [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                        for _ in range(trials)]
    for m in mats:
        u, w = quat.decompose_matrix(m)
        dev = max(dev, float(np.abs(quat.compose_matrix(u, w) - m).max()))
        q = random_quaternion(rng)
        pair = quat.extract_qubit(q)
        vec = m @ np.array([pair.a, pair.b])
        lhs = quat.embed_qubit(ComplexPair(vec[0], vec[1]))
        rhs = q * u + quat.I * (q * w)
        dev = max(dev, float(np.abs((lhs - rhs).as_array()).max()))
    records.append(CheckRecord(
        "matrix_decompose_roundtrip",
        "2x2 complex matrices act as q -> q*u + i*q*w",
        dev <= 1e-10, dev))

    classes = [quat.classify_pauli_action(axis, seed=seed) for axis in ("x", "y", "z")]
    repeat = [quat.classify_pauli_action(axis, seed=seed) for axis in ("x", "y", "z")]
    stable = classes == repeat
    dev = max(c.max_deviation for c in classes)
    witness = "; ".join(c.describe() for c in classes)
    records.append(CheckRecord(
        "pauli_sandwich_classification",
        "each sandwich action is one Pauli matrix up to a global left phase",
        stable and dev <= 1e-12, dev, witness))
    return records


# ---------------------------------------------------------------------------
# linalg suite


def _random_isometry(field: ScalarField, dim: int, rng) -> np.ndarray:
    return random_unitary(dim, rng) if field.is_complex else random_orthogonal(dim, rng)


def linalg_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = []
    pair_count = min(trials, 200)

    rng = rng_for(seed, 201)
    dev = 0.0
    negative_ok = True
    for field in ScalarField:
        n_sites = 2
        dim = field.site_dim ** n_sites
        mat = _random_isometry(field, dim, rng)
        lm = LinearMap(field, mat)
        check = is_isometry(lm)
        dev = max(dev, check.max_deviation)
        if not check.passed:
            negative_ok = False
        for _ in range(pair_count):
            u = random_state(field, n_sites, rng, normalize=False)
            v = random_state(field, n_sites, rng, normalize=False)
            dev = max(dev, abs(inner(lm.apply(u), lm.apply(v)) - inner(u, v)))
    stretched = is_isometry(LinearMap(ScalarField.REAL, np.diag([1.0, 2.0])))
    negative_ok = negative_ok and not stretched.passed
    records.append(CheckRecord(
        "isometry_preserves_inner",
        "maps passing the isometry check preserve inner products",
        negative_ok and dev <= 1e-10, dev,
        "diag(1, 2) correctly rejected" if not stretched.passed else
        "diag(1, 2) wrongly accepted"))

    rng = rng_for(seed, 202)
    dev = 0.0
    for field in ScalarField:
        n_sites = 3
        for _ in range(min(trials, 60)):
            site = int(rng.integers(n_sites))
            d = field.site_dim
            block = rng.standard_normal((d, d))
            if field.is_complex:
                block = block + 1j * rng.standard_normal((d, d))
            op = SiteOperator(field, site, block)
            state = random_state(field, n_sites, rng, normalize=False)
            fast = apply_site(op, state).amplitudes
            full = site_operator_matrix(op, n_sites) @ state.amplitudes
            dev = max(dev, float(np.abs(fast - full).max()))
    records.append(CheckRecord(
        "site_application_matches_kron",
        "site-local application equals the full Kronecker operator",
        dev <= 1e-12, dev))

    rng = rng_for(seed, 203)
    dev = 0.0
    for field in ScalarField:
        for _ in range(min(trials, 60)):
            u = random_state(field, 1, rng, normalize=False)
            u2 = random_state(field, 1, rng, normalize=False)
            v = random_state(field, 1, rng, normalize=False)
            alpha, beta = rng.standard_normal(2)
            left = tensor_state([u.with_amplitudes(alpha * u.amplitudes
                                                   + beta * u2.amplitudes), v])
            right = (alpha * tensor_state([u, v]).amplitudes
                     + beta * tensor_state([u2, v]).amplitudes)
            dev = max(dev, float(np.abs(left.amplitudes - right).max()))
            left = tensor_state([v, u.with_amplitudes(alpha * u.amplitudes
                                                      + beta * u2.amplitudes)])
            right = (alpha * tensor_state([v, u]).amplitudes
                     + beta * tensor_state([v, u2]).amplitudes)
            dev = max(dev, float(np.abs(left.amplitudes - right).max()))
    records.append(CheckRecord(
        "tensor_bilinearity", "the tensor product is linear in each factor",
        dev <= 1e-12, dev))

    rng = rng_for(seed, 204)
    dev = 0.0
    witness = None
    negative_ok = False
    for field in ScalarField:
        n_sites = 2
        dim = field.site_dim ** n_sites
        partial = [random_state(field, n_sites, rng) for _ in range(3)]
        mat = complete_orthonormal(partial)
        gram = mat.conj().T @ mat
        dev = max(dev, float(np.abs(gram - np.eye(dim)).max()))
        lead = mat[:, :len(partial)]
        for v in partial:
            resid = v.amplitudes - lead @ (lead.conj().T @ v.amplitudes)
            dev = max(dev, float(np.linalg.norm(resid)))
    try:
        e0 = basis_state(ScalarField.REAL, 1, 0)
        e1 = basis_state(ScalarField.REAL, 1, 1)
        nearly = e0.with_amplitudes(e0.amplitudes + 1e-15 * e1.amplitudes)
        complete_orthonormal([e0, nearly])
        witness = "dependent input was not rejected"
    except RankDeficiencyError as exc:
        negative_ok = exc.index == 1
        witness = f"dependent input rejected at index {exc.index}"
    records.append(CheckRecord(
        "orthonormal_completion",
        "completion returns an orthonormal basis extending the input span",
        negative_ok and dev <= 1e-10, dev, witness))
    return records


# ---------------------------------------------------------------------------
# codes suite


def codes_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = []

    # each KL check runs on its map's own code, so the roundtrips below read
    # the error images the check made
    r3_map = codes.build_r3_correction()
    h3_map = codes.build_h3_correction("j")
    shor9_map = codes.build_shor9_correction()
    r3, h3, shor9 = r3_map.code, h3_map.code, shor9_map.code
    so2_basis = codes.effective_error_basis(r3, codes.ErrorFamily.SO2)
    su2_basis = codes.effective_error_basis(h3, codes.ErrorFamily.SU2)
    pauli_basis = codes.effective_error_basis(shor9, codes.ErrorFamily.PAULI_PER_SITE)

    report = codes.kl_check(r3, so2_basis)
    dev = codes.kl_condition_deviation(report)
    records.append(CheckRecord(
        "kl_r3_so2", "correctability of plane rotations on the real code",
        report.passed and dev <= 1e-12, dev))

    dev = 0.0
    ok = True
    h3_i = codes.build_h3_code("i")
    for code, basis in ((h3_i, codes.effective_error_basis(h3_i, codes.ErrorFamily.SU2)),
                        (h3, su2_basis)):
        rep = codes.kl_check(code, basis)
        ok = ok and rep.passed
        dev = max(dev, codes.kl_condition_deviation(rep))
    records.append(CheckRecord(
        "kl_h3_su2", "correctability of unit right multiplications on the "
        "quaternionic code (both repetition units)",
        ok and dev <= 1e-12, dev))

    c3 = codes.build_complex3_code()
    phase_set = codes.ErrorSet((codes.identity_error(c3.field),
                                codes.ErrorTerm("phase(pi)@0", codes.phase_error_pi(0))))
    rep = codes.kl_check(c3, phase_set)
    witness_found = any(v.kind == "diagonal" and v.values == (1j, -1j)
                        for v in rep.violations)
    records.append(CheckRecord(
        "kl_complex3_phase_expected_fail",
        "expected negative: the phase error defeats the plain complex code",
        (not rep.passed) and witness_found, None,
        "verdict fail as required; diagonal values (1j, -1j)" if witness_found
        else "expected witness (1j, -1j) not found"))

    rep = codes.kl_check(shor9, pauli_basis)
    dev = codes.kl_condition_deviation(rep)
    records.append(CheckRecord(
        "kl_shor9_pauli", "correctability of all single-site Paulis on the "
        "nine-qubit code", rep.passed and dev <= 1e-12, dev))

    dev = max(cmap.isometry_deviation() for cmap in (r3_map, h3_map, shor9_map))
    records.append(CheckRecord(
        "correction_maps_isometric",
        "synthesized correction operators are orthogonal/unitary",
        dev <= 1e-10, dev))

    def roundtrip_dev(cmap, draw_error, rng) -> float:
        fidelities, residuals = codes.simulate(cmap, draw_error, rng, trials)
        return float(max(residuals.max(), np.abs(fidelities - 1.0).max()))

    rng = rng_for(seed, 301)     # one stream for both maps, r3 first
    dev = max(roundtrip_dev(cmap, codes.combined_draw(basis, cmap.code.field), rng)
              for cmap, basis in ((r3_map, so2_basis), (h3_map, su2_basis)))
    records.append(CheckRecord(
        "combined_error_linearity",
        "correction of arbitrary linear combinations of basis errors",
        dev <= 1e-10, dev))

    dev = roundtrip_dev(r3_map, lambda rng: codes.so2_error(
        rng.uniform(0.0, 2.0 * np.pi), int(rng.integers(r3.n_sites))),
        rng_for(seed, 302))
    records.append(CheckRecord(
        "roundtrip_fidelity_r3", "plane-rotation roundtrips recover the "
        "logical state", dev <= 1e-10, dev))

    dev = roundtrip_dev(h3_map, lambda rng: codes.su2_error(
        random_unit_quaternion(rng), int(rng.integers(h3.n_sites))),
        rng_for(seed, 303))
    records.append(CheckRecord(
        "roundtrip_fidelity_h3", "unit right-multiplication roundtrips "
        "recover the logical state", dev <= 1e-10, dev))

    dev = roundtrip_dev(shor9_map, codes.combined_draw(pauli_basis, shor9.field),
                        rng_for(seed, 304))
    records.append(CheckRecord(
        "roundtrip_fidelity_shor9", "single-site Pauli combinations on the "
        "nine-qubit code", dev <= 1e-10, dev))

    b3 = codes.build_b3_code()
    singles = codes.ErrorSet(codes.effective_error_basis(
        b3, codes.ErrorFamily.PAULI_PER_SITE).terms[1:])
    count = codes.count_effective_errors(b3, singles)
    records.append(CheckRecord(
        "effective_count_b3",
        "nine single-site Paulis produce seven distinct actions on the "
        "pre-encoding code", count == 7, float(abs(count - 7)),
        f"count = {count} (the three phase errors share one action)"))

    def _fingerprint() -> str:
        fidelities, residuals = codes.simulate(
            r3_map, codes.combined_draw(so2_basis, r3.field), rng_for(seed, 305), 16)
        return "|".join(f"{f!r}:{r!r}" for f, r in
                        zip(fidelities.tolist(), residuals.tolist()))

    first, second = _fingerprint(), _fingerprint()
    records.append(CheckRecord(
        "deterministic_reports", "identical seeds reproduce results bit for bit",
        first == second, None,
        "two seeded runs agree exactly" if first == second else "runs differ"))
    return records


# ---------------------------------------------------------------------------
# dirac suite


def dirac_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = []
    gs = dirac.build_gammas_standard()
    gm = dirac.majorana_set(gs)

    rep = dirac.clifford_check(gs)
    records.append(CheckRecord(
        "clifford_standard", "anticommutators and squares in the block basis",
        rep.passed and rep.max_deviation <= 1e-12, rep.max_deviation))

    rng = rng_for(seed, 401)
    dev = dirac.clifford_check(gm).max_deviation
    ok = dirac.clifford_check(gm).passed
    for _ in range(100):
        u = random_unitary(4, rng)
        rep = dirac.clifford_check(dirac.transform_basis(gs, u))
        ok = ok and rep.passed
        dev = max(dev, rep.max_deviation)
    records.append(CheckRecord(
        "clifford_transformed",
        "the defining relations survive arbitrary unitary basis changes",
        ok and dev <= 1e-12, dev))

    um = dirac.build_majorana_transform(gs)
    dev_ref = float(np.abs(um - dirac.MAJORANA_TRANSFORM_REFERENCE).max())
    dev_unitary = is_isometry(um, 1e-14).max_deviation
    records.append(CheckRecord(
        "majorana_transform_matrix",
        "the product formula reproduces the reference matrix and is unitary",
        dev_ref <= 1e-15 and dev_unitary <= 1e-14, max(dev_ref, dev_unitary)))

    images = dirac.check_basis_images(gs, um)
    signs = {k: v.sign for k, v in images.items()}
    ok = all(v.matches_reference for v in images.values())
    dev = max(v.reference_deviation for v in images.values())
    records.append(CheckRecord(
        "majorana_basis_images",
        "conjugation sends each matrix to its reference +-i partner",
        ok and dev <= 1e-13, dev,
        f"signs found vs reference: {signs}"))

    gens = dirac.error_generators(gm)
    dev = max(float(np.abs(np.asarray(g).imag).max()) for g in gens)
    records.append(CheckRecord(
        "generators_real", "the transformed rotation bilinears are real",
        dev <= 1e-14, dev))

    bil = dirac.check_majorana_bilinears(gm)
    signs = {k: v.sign for k, v in bil.items()}
    ok = all(v.matches_reference for v in bil.values())
    dev = max(v.reference_deviation for v in bil.values())
    records.append(CheckRecord(
        "generator_sign_patterns",
        "transformed bilinears match the reference +-1 patterns",
        ok and dev <= 1e-12, dev,
        f"signs found vs reference: {signs}"))

    rng = rng_for(seed, 402)
    dev = 0.0
    units = (Quaternion(1, 0, 0, 0), quat.I, quat.J, quat.K)
    rotors = [dirac.ErrorRotor(*(1.0 if i == k else 0.0 for i in range(4)))
              for k in range(4)]
    pairs = [(r, q) for r in rotors for q in units]
    for _ in range(trials):
        e = random_unit_quaternion(rng)
        pairs.append((dirac.ErrorRotor(e.w, e.x, e.y, e.z), random_quaternion(rng)))
    for rotor, q in pairs:
        rep = dirac.quaternion_correspondence(rotor, q, gm)
        dev = max(dev, rep.max_deviation)
    unit_signs = dirac.classify_unit_correspondences(dirac.error_generators(gm))
    records.append(CheckRecord(
        "rotor_correspondence",
        "rotor action equals right multiplication by the conjugate coefficient "
        "quaternion", dev <= 1e-12, dev,
        f"unit signs found (reference -1 each): {unit_signs}"))

    rng = rng_for(seed, 403)
    dev = 0.0
    for _ in range(min(trials, 200)):
        e = random_unit_quaternion(rng)
        rotor = dirac.ErrorRotor(e.w, e.x, e.y, e.z)
        dev = max(dev, is_isometry(rotor.matrix(gens).real).max_deviation)
    records.append(CheckRecord(
        "rotor_isometry", "unit rotors act as isometries of R^4",
        dev <= 1e-12, dev))
    return records


SUITE_RUNNERS = {
    "quaternion": quaternion_suite,
    "linalg": linalg_suite,
    "codes": codes_suite,
    "dirac": dirac_suite,
}
