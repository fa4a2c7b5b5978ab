"""Seeded invariant suites behind the ``verify`` command.

Each function runs the full battery of checks for one module and returns
plain CheckRecords.  Randomized checks draw from generators derived from
(seed, fixed stream id), so results are reproducible bit for bit and
independent of execution order.

The quaternion suite evaluates its randomized checks as array expressions
through the private row-wise kernel of :mod:`hqec.quaternion` (Hamilton
product, norm, conjugate), in blocks of trials.  It spot-checks the public
scalar API: the first 16 trials of each check also run through ``*``,
``rotate_vector``, ``su2_right_action``, ``hopf_project`` and
``decompose_matrix``, and the largest scalar-versus-array difference is folded
into the check's deviation.  The kernel repeats the scalar arithmetic term by
term, so that difference is 0.0 and leaves the printed deviation unchanged;
any drift fails the product-based checks.
"""

from __future__ import annotations

import functools

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
from .quaternion import ImaginaryVector, Quaternion
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
#
# Draws keep the order of one trial at a time: a block draw of standard
# normals equals the same draws made one after another, and checks with a
# rejection or skip rule keep a loop that only draws.  Trials run in blocks of
# at most _BLOCK, so memory stays small and flat at any trial count.  The spot
# check covers the first _SPOT trials.  For the product-based checks it must
# find no difference at all.  matrix_decompose_roundtrip solves its 8x8
# system for a block of right-hand sides in one LAPACK call, so its spot check
# is held to the check's tolerance instead.

_BLOCK = 512
_SPOT = 16
_ONE, _I, _J = (u.as_array() for u in (quat.ONE, quat.I, quat.J))


def _over_blocks(check, rng, trials: int) -> list[float]:
    """Elementwise max of ``check(rng, start, n)`` over consecutive blocks of
    trials; each block draws its own trials from ``rng`` in order."""
    worst = check(rng, 0, min(_BLOCK, trials))
    for start in range(_BLOCK, trials, _BLOCK):
        part = check(rng, start, min(_BLOCK, trials - start))
        worst = [max(a, b) for a, b in zip(worst, part)]
    return worst


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


def _columns(draws: list[tuple[Quaternion, ...]], width: int) -> list[np.ndarray]:
    """One contiguous (n, 4) array per position of the drawn tuples."""
    rows = np.array([[(q.w, q.x, q.y, q.z) for q in d] for d in draws],
                    dtype=float).reshape(len(draws), width, 4)
    return [np.ascontiguousarray(rows[:, k]) for k in range(width)]


def _quats(rows: np.ndarray, start: int) -> list[Quaternion]:
    """The rows of a block starting at trial ``start`` that fall among the
    first _SPOT trials, as Quaternions."""
    return [Quaternion.from_array(r) for r in rows[:max(0, _SPOT - start)]]


def _spot_gap(scalar: list[tuple], *arrays: np.ndarray) -> float:
    """max |scalar - array| over the spot rows; ``scalar`` holds one tuple of
    Quaternions or arrays per row, matching ``arrays`` position by position."""
    gap = 0.0
    for k, row in enumerate(scalar):
        for want, got in zip(row, arrays):
            if isinstance(want, Quaternion):
                want = want.as_array()
            gap = max(gap, _max_abs(want - got[k]))
    return gap


def _pure(a: np.ndarray) -> np.ndarray:
    """Rows with the scalar part set to 0.0, as an ImaginaryVector keeps them."""
    out = a.copy()
    out[:, 0] = 0.0
    return out


def _rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise :func:`quat.rotate_vector`."""
    return _pure(quat._hamilton(quat._hamilton(q, v), quat._conj(q)))


def _hopf(q: np.ndarray) -> np.ndarray:
    """Row-wise :func:`quat.hopf_project`."""
    r = quat._hamilton(quat._hamilton(quat._conj(q), _I), q)
    return _pure(r * (1.0 / quat._norm_sq(q))[:, None])


def _norm_multiplicative(rng, start: int, n: int) -> list[float]:
    norm = quat._norm
    q, h = np.moveaxis(rng.standard_normal((n, 2, 4)), 1, 0)
    qh = quat._hamilton(q, h)
    scale = norm(q) * norm(h)
    dev = _max_abs(np.abs(scale - norm(qh)) / (1.0 + scale))
    scalar = [(a * b,) for a, b in zip(_quats(q, start), _quats(h, start))]
    return [dev, _spot_gap(scalar, qh)]


def _associativity(rng, start: int, n: int) -> list[float]:
    mul = quat._hamilton
    q, u, v = np.moveaxis(rng.standard_normal((n, 3, 4)), 1, 0)
    left, right = mul(mul(q, u), v), mul(q, mul(u, v))
    scalar = [((a * b) * c, a * (b * c)) for a, b, c in
              zip(_quats(q, start), _quats(u, start), _quats(v, start))]
    return [_max_abs(left - right), _spot_gap(scalar, left, right)]


def _rotation_geometry(rng, start: int, n: int) -> list[float]:
    draws = []
    for _ in range(n):
        q = random_unit_quaternion(rng)
        while q.as_array()[1:] @ q.as_array()[1:] < 1e-4:
            q = random_unit_quaternion(rng)
        v = Quaternion(0.0, *rng.standard_normal(3))
        draws.append((q, v, random_unit_quaternion(rng)))
    q, v, q2 = _columns(draws, 3)
    norm = quat._norm
    rotated = _rotate(q, v)
    axis = _pure(q) / norm(_pure(q))[:, None]
    fixed = _rotate(q, axis)
    twice = _rotate(q2, rotated)
    q2q = quat._hamilton(q2, q)
    once = _rotate(q2q * (1.0 / norm(q2q))[:, None], v)
    length = norm(v)
    dev = max(_max_abs(np.abs(norm(rotated) - length) / (1.0 + length)),
              _max_abs(fixed - axis), _max_abs(twice - once))
    scalar = []
    for a, b, c in zip(_quats(q, start), _quats(v, start), _quats(q2, start)):
        vec = ImaginaryVector(b.x, b.y, b.z)
        r, ax = quat.rotate_vector(a, vec), quat.rotation_axis(a)
        scalar.append(tuple(x.to_quaternion() for x in (
            r, ax, quat.rotate_vector(a, ax), quat.rotate_vector(c, r),
            quat.rotate_vector((c * a).normalized(), vec))))
    return [dev, _spot_gap(scalar, rotated, axis, fixed, twice, once)]


def _su2_right_action(rng, start: int, n: int) -> list[float]:
    basis = (quat.ONE, quat.I, quat.J, quat.K)
    draws = []
    for trial in range(start, start + n):
        u = random_unit_quaternion(rng)
        qs = basis if trial < 4 else (random_quaternion(rng),)
        draws.extend((q, u) for q in qs)
    q, u = _columns(draws, 2)
    lhs = quat._hamilton(q, quat._conj(u))
    c, d = u.view(complex).T
    m = np.stack([np.stack([c.conj(), d.conj()], axis=-1),
                  np.stack([-d, c], axis=-1)], axis=-2)
    rhs = (m @ q.view(complex)[..., None])[..., 0].view(float)
    scalar = [(quat.su2_right_action(a, b), quat.su2_matrix(b))
              for a, b in zip(_quats(q, start), _quats(u, start))]
    return [_max_abs(lhs - rhs), _spot_gap(scalar, lhs, m)]


def _hopf_projection(rng, start: int, n: int) -> list[float]:
    draws = []
    for _ in range(n):
        q = random_quaternion(rng)
        if q.norm() < 1e-3:
            continue
        phase = quat.exp_phase(rng.uniform(0.0, 2.0 * np.pi))
        draws.append((q, phase, random_unit_quaternion(rng)))
    q, phase, u = _columns(draws, 3)
    mul, conj = quat._hamilton, quat._conj
    v = _hopf(q)
    v_phase = _hopf(mul(phase, q))
    v_act = _hopf(mul(q, conj(u)))
    rot = mul(mul(u, v), conj(u))
    dev_shape = _max_abs(quat._norm(v) - 1.0)
    dev_phase = _max_abs(v_phase - v)
    dev_equi = _max_abs(v_act - rot)
    scalar = []
    for a, p, b in zip(_quats(q, start), _quats(phase, start), _quats(u, start)):
        va = quat.hopf_project(a).to_quaternion()
        scalar.append((va, quat.hopf_project(p * a).to_quaternion(),
                       quat.hopf_project(a * b.conj()).to_quaternion(),
                       b * va * b.conj()))
    return [max(dev_phase, dev_shape), dev_equi,
            _spot_gap(scalar, v, v_phase, v_act, rot)]


def _matrix_decomposition(matrices: np.ndarray, rng, start: int,
                          n: int) -> list[float]:
    """Deviation of decompose/compose, and of q -> q*u + i*q*w from a block
    of the matrices acting on the amplitude pairs of fresh draws q."""
    m = matrices[start:start + n]
    q = rng.standard_normal((n, 4))
    mul = quat._hamilton
    # right-hand sides: the embedded columns m @ (1, 0) and m @ (0, 1)
    rhs = np.ascontiguousarray(m.transpose(0, 2, 1)).reshape(-1, 4).view(float)
    uw = np.linalg.solve(quat._DECOMPOSITION_SYSTEM, rhs.T).T
    u, w = uw[:, :4], uw[:, 4:]
    composed = np.stack([(mul(e, u) + mul(_I, mul(e, w))).view(complex)
                         for e in (_ONE, _J)], axis=-1)
    lhs = (m @ q.view(complex)[..., None])[..., 0].view(float)
    dev = max(_max_abs(composed - m),
              _max_abs(lhs - (mul(q, u) + mul(_I, mul(q, w)))))
    scalar = []
    for k in range(min(n, max(0, _SPOT - start))):
        su, sw = quat.decompose_matrix(m[k])
        scalar.append((su, sw, quat.compose_matrix(su, sw)))
    return [max(dev, _spot_gap(scalar, u, w, composed))]


def _exact(check_id: str, anchor: str, dev: float, gap: float) -> CheckRecord:
    """A product-based check: within 1e-12, and bit-identical to the scalar
    route on the spot rows."""
    return CheckRecord(check_id, anchor, dev <= 1e-12 and gap == 0.0, max(dev, gap))


def quaternion_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = [
        _exact("norm_multiplicative", "multiplicative norm",
               *_over_blocks(_norm_multiplicative, rng_for(seed, 101), 10_000)),
        _exact("mul_associative", "associativity of the product",
               *_over_blocks(_associativity, rng_for(seed, 102), trials)),
        _exact("rotation_geometry", "conjugation rotates the imaginary 3-space",
               *_over_blocks(_rotation_geometry, rng_for(seed, 103), trials)),
        _exact("su2_right_action_matrix",
               "right multiplication equals the 2x2 unitary on the amplitude pair",
               *_over_blocks(_su2_right_action, rng_for(seed, 104), trials)),
    ]

    dev_phase, dev_equi, gap = _over_blocks(_hopf_projection, rng_for(seed, 105),
                                            trials)
    records.append(_exact(
        "hopf_phase_invariance", "projection is blind to the left phase",
        dev_phase, gap))
    records.append(_exact(
        "hopf_equivariance", "right action projects to a sphere rotation",
        dev_equi, gap))

    rng = rng_for(seed, 106)
    canonical = []
    for r in range(2):
        for c in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[r, c] = 1.0
            canonical.extend([e, 1j * e, -e, -1j * e])
    # every matrix is drawn before the first q
    drawn = rng.standard_normal((trials, 2, 2, 2))
    matrices = np.concatenate([canonical, drawn[:, 0] + 1j * drawn[:, 1]])
    dev, = _over_blocks(functools.partial(_matrix_decomposition, matrices), rng,
                        len(matrices))
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
