"""Seeded invariant suites behind the ``verify`` command.

Each function runs the full battery of checks for one module and returns
plain CheckRecords.  Randomized checks draw from generators derived from
(seed, fixed stream id), so results are reproducible bit for bit and
independent of execution order.

Each record decides its verdict once: it takes the library's verdict where
there is one, or compares its deviation with one named constant, a library
tolerance or a ``TOL_*`` constant below.

The quaternion, linalg and dirac suites evaluate their randomized checks as
array expressions over blocks of trials, through the stacked-row functions of
the modules that own the arithmetic: the row-wise quaternion kernel (product,
norm, conjugate, rotation, Hopf projection, right-multiplication matrices, the
2x2 decomposition), ``linalg``'s Kronecker step and site kernel, ``sampling``'s
unitaries, and ``dirac``'s rotor matrices and Clifford deviations.  Where a
public function computes the same thing for one object (``hopf_project``,
``right_mult_matrix``, ``tensor_state``, ``apply_site``, ``random_unitary``,
``ErrorRotor.matrix``, ``clifford_check``), it is the one-row case of that
function, so each identity has one implementation.  The draws follow one
rule, in the codes suite's single-site drawers too: standard normals come in
blocks from the check's stream, uniforms and integers in blocks from a
sub-stream of their own, and a row that breaks a rule of the check is drawn
again from a redraw sub-stream, so each check runs exactly its trial count and
its draws do not depend on the block size.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import codes, dirac, linalg
from . import quaternion as quat
from .linalg import (
    LinearMap,
    RankDeficiencyError,
    ScalarField,
    SiteOperator,
    TOL_ISO,
    _is_index,
    basis_state,
    complete_orthonormal,
    is_isometry,
)
from .quaternion import Quaternion
from .report import CheckRecord
from .sampling import (
    UNIT_FLOOR,
    _amplitudes,
    _unit_rows,
    _unitary_rows,
    _width,
    random_orthogonal,
    random_state,
    random_unitary,
    rng_for,
)

# ---------------------------------------------------------------------------
# Trials in blocks
#
# The randomized checks of the quaternion, linalg and dirac suites evaluate
# their identities as array expressions over blocks of at most _BLOCK trials,
# so memory stays small and flat at any trial count.  Every check draws by one
# rule, and so do the codes suite's drawers, asked for codes._BLOCK trials at a
# time.  Its standard normals come in (n, width) blocks from its own stream,
# rng_for(seed, stream); its uniforms or integers come in blocks from the
# sub-stream rng_for(seed, stream, _VALUES).  A row that breaks a rule of the
# check (a unit group of norm at most UNIT_FLOOR, a rotation axis of square
# below _AXIS_FLOOR, a Hopf q of norm below _HOPF_FLOOR) is drawn again from
# the sub-stream rng_for(seed, stream, _REDRAW): rows one at a time, in trial
# order, each until it passes.  Every stream draws one kind of value only, and
# numpy returns the same values for such a stream however the calls split it,
# so the draws depend on (seed, trials) alone, never on _BLOCK.

_BLOCK = 512
TOL_DECOMPOSE = 1e-10
_AXIS_FLOOR = 1e-4    # rotation_geometry redraws a q whose axis has a smaller square
_HOPF_FLOOR = 1e-3    # hopf_projection redraws a q of smaller norm
_VALUES, _REDRAW = 1, 2    # the sub-streams of uniforms or integers, and of redraws


def _check_trials(trials: int) -> None:
    """Each suite's check of its trial count, before it draws: TypeError for
    a non-integer or a bool, ValueError below 1, as the CLI rejects them."""
    if not _is_index(trials):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


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


def _accepted(rows: np.ndarray, units: tuple[int, ...], keep) -> np.ndarray:
    """Which rows pass the draw rules; the 4-column group at each offset in
    ``units`` is normalized in place as :meth:`Quaternion.normalized` does it.
    A row passes when each unit group has a norm above ``UNIT_FLOOR`` and
    ``keep``, when not None, accepts it."""
    ok = np.ones(len(rows), dtype=bool)
    for c in units:
        norm = quat._norm(rows[:, c:c + 4])
        ok &= norm > UNIT_FLOOR
        rows[:, c:c + 4] *= (1.0 / norm)[:, None]
    return ok if keep is None else ok & keep(rows)


def _normal_rows(rng, redraw, n: int, width: int, units: tuple[int, ...],
                 keep) -> np.ndarray:
    """``n`` rows of ``width`` standard normals from ``rng``, unit groups
    normalized (see :func:`_accepted`).  A row that fails the rules is drawn
    again from ``redraw``: rows one at a time, in trial order, each until it
    passes."""
    rows = rng.standard_normal((n, width))
    for k in np.flatnonzero(~_accepted(rows, units, keep)):
        while True:
            rows[k:k + 1] = redraw.standard_normal((1, width))
            if _accepted(rows[k:k + 1], units, keep)[0]:
                break
    return rows


# ---------------------------------------------------------------------------
# quaternion suite


def _norm_multiplicative(rng, start: int, n: int) -> list[float]:
    norm = quat._norm
    q, h = np.moveaxis(rng.standard_normal((n, 2, 4)), 1, 0)
    scale = norm(q) * norm(h)
    return [_max_abs(np.abs(scale - norm(quat._hamilton(q, h))) / (1.0 + scale))]


def _associativity(rng, start: int, n: int) -> list[float]:
    mul = quat._hamilton
    q, u, v = np.moveaxis(rng.standard_normal((n, 3, 4)), 1, 0)
    return [_max_abs(mul(mul(q, u), v) - mul(q, mul(u, v)))]


def _axis_square(q: np.ndarray) -> np.ndarray:
    """Row-wise ``a[1:] @ a[1:]`` of ``a = q.as_array()``, bit for bit."""
    return np.matmul(q[:, None, 1:], q[:, 1:, None])[:, 0, 0]


def _rotation_geometry(redraw, rng, start: int, n: int) -> list[float]:
    rows = _normal_rows(rng, redraw, n, 11, (0, 7),
                        lambda r: _axis_square(r[:, :4]) >= _AXIS_FLOOR)
    q, q2 = rows[:, :4], rows[:, 7:]
    v = np.zeros((n, 4))
    v[:, 1:] = rows[:, 4:7]
    norm, rotate = quat._norm, quat._rotate
    rotated = rotate(q, v)
    axis = quat._pure(q) / norm(quat._pure(q))[:, None]
    q2q = quat._hamilton(q2, q)
    once = rotate(q2q * (1.0 / norm(q2q))[:, None], v)
    length = norm(v)
    return [max(_max_abs(np.abs(norm(rotated) - length) / (1.0 + length)),
                _max_abs(rotate(q, axis) - axis), _max_abs(rotate(q2, rotated) - once))]


def _su2_right_action(redraw, rng, start: int, n: int) -> list[float]:
    rows = _normal_rows(rng, redraw, n, 8, (0,), None)
    # each of the first four trials pairs its u with 1, i, j, k, not its q
    head = min(n, max(0, 4 - start))
    q = np.concatenate([np.tile(quat._UNITS, (head, 1)), rows[head:, 4:]])
    u = np.concatenate([np.repeat(rows[:head, :4], 4, axis=0), rows[head:, :4]])
    lhs = quat._hamilton(q, quat._conj(u))
    # the 2x2 unitary [[c~, d~], [-d, c]] of u = c + d*j on the pair (a, b)
    c, d = u.view(complex).T
    m = np.stack([np.stack([c.conj(), d.conj()], axis=-1),
                  np.stack([-d, c], axis=-1)], axis=-2)
    rhs = (m @ q.view(complex)[..., None])[..., 0].view(float)
    return [_max_abs(lhs - rhs)]


def _hopf_projection(phases, redraw, rng, start: int, n: int) -> list[float]:
    rows = _normal_rows(rng, redraw, n, 8, (4,),
                        lambda r: quat._norm(r[:, :4]) >= _HOPF_FLOOR)
    q, u = rows[:, :4], rows[:, 4:]
    phase = np.zeros((n, 4))
    phis = phases.uniform(0.0, 2.0 * np.pi, n)
    phase[:, 0] = [math.cos(phi) for phi in phis]    # the left phase e^(i phi)
    phase[:, 1] = [math.sin(phi) for phi in phis]
    mul, conj, hopf = quat._hamilton, quat._conj, quat._hopf
    v = hopf(q)
    dev_shape = _max_abs(quat._norm(v) - 1.0)
    dev_phase = _max_abs(hopf(mul(phase, q)) - v)
    dev_equi = _max_abs(hopf(mul(q, conj(u))) - mul(mul(u, v), conj(u)))
    return [max(dev_phase, dev_shape), dev_equi]


# the 16 canonical matrices e_rc, i e_rc, -e_rc, -i e_rc (e_rc row-major)
# take the place of the first 16 trials' drawn matrices
_CANONICAL = np.concatenate([(e, 1j * e, -e, -1j * e)
                             for e in np.eye(4, dtype=complex).reshape(4, 2, 2)])


def _matrix_decomposition(rng, start: int, n: int) -> list[float]:
    """Deviation of decompose/compose, and of q -> q*u + i*q*w from a block
    of matrices acting on the amplitude pairs of the q.  Each trial draws one
    row: its matrix, real parts then imaginary, then its q."""
    rows = rng.standard_normal((n, 12))
    m = (rows[:, :4] + 1j * rows[:, 4:8]).reshape(n, 2, 2)
    head = _CANONICAL[start:start + n]
    m[:len(head)] = head
    q = rows[:, 8:]
    mul = quat._hamilton
    u, w = quat._decompose(m)
    lhs = (m @ q.view(complex)[..., None])[..., 0].view(float)
    return [max(_max_abs(quat._compose(u, w) - m),
                _max_abs(lhs - (mul(q, u) + mul(quat._I, mul(q, w)))))]


def _exact(check_id: str, anchor: str, dev: float) -> CheckRecord:
    """A product-based check: within ``quat.TOL_COMPARE``."""
    return CheckRecord(check_id, anchor, dev <= quat.TOL_COMPARE, dev)


def quaternion_suite(seed: int, trials: int) -> list[CheckRecord]:
    _check_trials(trials)
    records = [
        _exact("norm_multiplicative", "multiplicative norm",
               *_over_blocks(_norm_multiplicative, rng_for(seed, 101), trials)),
        _exact("mul_associative", "associativity of the product",
               *_over_blocks(_associativity, rng_for(seed, 102), trials)),
        _exact("rotation_geometry", "conjugation rotates the imaginary 3-space",
               *_over_blocks(functools.partial(_rotation_geometry,
                                               rng_for(seed, 103, _REDRAW)),
                             rng_for(seed, 103), trials)),
        _exact("su2_right_action_matrix",
               "right multiplication equals the 2x2 unitary on the amplitude pair",
               *_over_blocks(functools.partial(_su2_right_action,
                                               rng_for(seed, 104, _REDRAW)),
                             rng_for(seed, 104), trials)),
    ]

    dev_phase, dev_equi = _over_blocks(
        functools.partial(_hopf_projection, rng_for(seed, 105, _VALUES),
                          rng_for(seed, 105, _REDRAW)),
        rng_for(seed, 105), trials)
    records.append(_exact(
        "hopf_phase_invariance", "projection is blind to the left phase", dev_phase))
    records.append(_exact(
        "hopf_equivariance", "right action projects to a sphere rotation", dev_equi))

    dev, = _over_blocks(_matrix_decomposition, rng_for(seed, 106), trials)
    records.append(CheckRecord(
        "matrix_decompose_roundtrip",
        "2x2 complex matrices act as q -> q*u + i*q*w",
        dev <= TOL_DECOMPOSE, dev))

    classes = [quat.classify_pauli_action(axis, seed=seed) for axis in ("x", "y", "z")]
    repeat = [quat.classify_pauli_action(axis, seed=seed) for axis in ("x", "y", "z")]
    dev = max(c.max_deviation for c in classes)
    records.append(CheckRecord(
        "pauli_sandwich_classification",
        "each sandwich action is one Pauli matrix up to a global left phase",
        classes == repeat and dev <= quat.TOL_COMPARE, dev,
        "; ".join(c.describe() for c in classes)))
    return records


# ---------------------------------------------------------------------------
# linalg suite

TOL_KERNEL = 1e-12    # site application and tensor products vs dense forms


def _random_isometry(field: ScalarField, dim: int, rng) -> np.ndarray:
    return random_unitary(dim, rng) if field.is_complex else random_orthogonal(dim, rng)


def _matvec(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise ``mat @ row``: one matrix-vector product per row."""
    return np.matmul(mat, rows[..., None])[..., 0]


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise <a|b>: one dot product per row, conjugate-linear in ``a``."""
    return np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0]


def _isometry_pairs(lm: LinearMap, rng, start: int, n: int) -> list[float]:
    """|<Mu|Mv> - <u|v>| over a block of pairs of unnormalized states."""
    field, dim = lm.field, lm.dim_in
    normals = rng.standard_normal((n, 2, _width(field, dim)))
    u, v = (_amplitudes(field, normals[:, k]) for k in range(2))
    diff = _inner(_matvec(lm.matrix, u), _matvec(lm.matrix, v)) - _inner(u, v)
    # abs() of each difference: hypot, which numpy's complex abs need not match
    return [_max_abs(np.hypot(diff.real, diff.imag))]


def _site_matrices(ops: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """The full-space matrices identity x ... x op x ... x identity of a
    stack of site operators ``ops`` acting on ``site``."""
    eye = np.eye(ops.shape[-1], dtype=ops.dtype)[None]
    mat = np.ones((1, 1, 1), dtype=ops.dtype)
    for k in range(n_sites):
        mat = np.kron(mat, ops if k == site else eye)
    return mat


def _site_application(sites_rng, field: ScalarField, rng, start: int,
                      n: int) -> list[float]:
    """Site-local application against the full Kronecker operator, over a
    block of random sites (from ``sites_rng``), operators and unnormalized
    3-site states."""
    n_sites, d = 3, field.site_dim
    op_width = _width(field, d * d)
    sites = sites_rng.integers(n_sites, size=n)
    normals = rng.standard_normal((n, op_width + _width(field, d ** n_sites)))
    ops = _amplitudes(field, normals[:, :op_width]).reshape(n, d, d)
    states = _amplitudes(field, normals[:, op_width:])
    dev = 0.0
    for site in range(n_sites):    # one site at a time: the dense matrices are large
        rows = sites == site
        fast = linalg._site_rows(ops[rows], site, states[rows])
        full = _matvec(_site_matrices(ops[rows], site, n_sites), states[rows])
        dev = max(dev, _max_abs(fast - full))
    return [dev]


def _tensor_bilinearity(field: ScalarField, rng, start: int, n: int) -> list[float]:
    """(au + bu') x v against a(u x v) + b(u' x v), and the same in the
    second factor, over a block of unnormalized 1-site states."""
    kron = linalg._kron
    w = _width(field, field.site_dim)
    normals = rng.standard_normal((n, 3 * w + 2))
    u, u2, v = (_amplitudes(field, normals[:, k * w:(k + 1) * w]) for k in range(3))
    alpha, beta = normals[:, -2:-1], normals[:, -1:]
    mixed = alpha * u + beta * u2
    return [max(_max_abs(kron(mixed, v) - (alpha * kron(u, v) + beta * kron(u2, v))),
                _max_abs(kron(v, mixed) - (alpha * kron(v, u) + beta * kron(v, u2))))]


def linalg_suite(seed: int, trials: int) -> list[CheckRecord]:
    _check_trials(trials)
    records = []

    rng = rng_for(seed, 201)
    dev = 0.0
    negative_ok = True
    for field in ScalarField:
        lm = LinearMap(field, _random_isometry(field, field.site_dim ** 2, rng))
        check = is_isometry(lm)
        negative_ok = negative_ok and check.passed
        pair_dev, = _over_blocks(functools.partial(_isometry_pairs, lm),
                                 rng, min(trials, 200))
        dev = max(dev, check.max_deviation, pair_dev)
    stretched = is_isometry(LinearMap(ScalarField.REAL, np.diag([1.0, 2.0])))
    records.append(CheckRecord(
        "isometry_preserves_inner",
        "maps passing the isometry check preserve inner products",
        negative_ok and not stretched.passed and dev <= TOL_ISO, dev,
        "diag(1, 2) correctly rejected" if not stretched.passed else
        "diag(1, 2) wrongly accepted"))

    for check_id, anchor, stream, check in (
            ("site_application_matches_kron",
             "site-local application equals the full Kronecker operator",
             202, functools.partial(_site_application,
                                    rng_for(seed, 202, _VALUES))),
            ("tensor_bilinearity", "the tensor product is linear in each factor",
             203, _tensor_bilinearity)):
        rng = rng_for(seed, stream)
        dev = max(_over_blocks(functools.partial(check, field), rng, min(trials, 60))[0]
                  for field in ScalarField)
        records.append(CheckRecord(check_id, anchor, dev <= TOL_KERNEL, dev))

    rng = rng_for(seed, 204)
    dev = 0.0
    negative_ok, parts_ok = False, True
    for field in ScalarField:
        n_sites = 2
        dim = field.site_dim ** n_sites
        partial = [random_state(field, n_sites, rng) for _ in range(3)]
        basis = complete_orthonormal(partial)
        # as codes._signed_columns reads it: lead and fill, then distinct zero rows
        lead, outside = basis.lead, basis.outside
        held = np.hstack((lead, basis.fill))
        parts_ok = parts_ok and held.shape[1] + len(outside) == dim and (
            np.bincount(outside, minlength=dim).max() <= 1)
        gram = held.conj().T @ held
        dev = max(dev, _max_abs(gram - np.eye(len(gram))), _max_abs(held[outside]))
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
        negative_ok and parts_ok and dev <= TOL_ISO, dev, witness))
    return records


# ---------------------------------------------------------------------------
# codes suite


def _site_operators(code: codes.Code, sites, mats: np.ndarray):
    """The single-site operators of a block, on sites drawn from ``sites``."""
    return map(functools.partial(SiteOperator._checked, code.field),
               sites.integers(code.n_sites, size=len(mats)).tolist(), mats)


def _so2_draw(code: codes.Code, sites):
    """roundtrip_fidelity_r3's block drawer: per trial one row of the logical
    normals and a normal pair (x, y), whose angle atan2(y, x) is uniform on
    the circle, and a site from ``sites``; the rotations as
    :func:`codes.so2_error` builds them."""
    width = _width(code.field, len(code.codewords))

    def draw(rng, n: int):
        rows = rng.standard_normal((n, width + 2))
        angles = list(map(math.atan2, rows[:, width + 1].tolist(), rows[:, width].tolist()))
        cos, sin = (np.array(list(map(f, angles))) for f in (math.cos, math.sin))
        mats = np.stack([cos, -sin, sin, cos], -1, dtype=code.field.dtype).reshape(n, 2, 2)
        return zip(_unit_rows(code.field, rows[:, :width]), _site_operators(code, sites, mats))

    return draw


def _su2_draw(code: codes.Code, sites, redraw):
    """roundtrip_fidelity_h3's block drawer: per trial one row of the logical
    normals and a unit group (redrawn from ``redraw`` as the rule says), and
    a site from ``sites``.  It builds the operators row-wise, as
    :func:`codes.su2_error` does."""
    width = _width(code.field, len(code.codewords))

    def draw(rng, n: int):
        rows = _normal_rows(rng, redraw, n, width + 4, (width,), None)
        u = rows[:, width:]
        if not np.all(np.abs(quat._norm(u) - 1.0) <= quat.TOL_UNIT):
            raise ValueError("SU(2) errors require a unit quaternion")
        mats = quat._right_mult(quat._conj(u))
        return zip(_unit_rows(code.field, rows[:, :width]), _site_operators(code, sites, mats))

    return draw


def codes_suite(seed: int, trials: int) -> list[CheckRecord]:
    _check_trials(trials)
    records = []

    # the r3 and h3 checks run on their maps' own error sets, whose images
    # synthesis made; shor9's map holds 22 representatives of the 28 Paulis
    r3_map = codes.build_r3_correction()
    h3_map = codes.build_h3_correction("j")
    shor9_map = codes.build_shor9_correction()
    r3, h3, shor9 = r3_map.code, h3_map.code, shor9_map.code
    pauli_basis = codes.effective_error_basis(shor9, codes.ErrorFamily.PAULI_PER_SITE)

    report = codes.kl_check(r3, r3_map.errors)
    records.append(CheckRecord(
        "kl_r3_so2", "correctability of plane rotations on the real code",
        report.passed, report.max_deviation))

    h3_i = codes.build_h3_code("i")
    reps = [codes.kl_check(h3_i, codes.effective_error_basis(h3_i, codes.ErrorFamily.SU2)),
            codes.kl_check(h3, h3_map.errors)]
    records.append(CheckRecord(
        "kl_h3_su2", "correctability of unit right multiplications on the "
        "quaternionic code (both repetition units)",
        all(r.passed for r in reps), max(r.max_deviation for r in reps)))

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
    records.append(CheckRecord(
        "kl_shor9_pauli", "correctability of all single-site Paulis on the "
        "nine-qubit code", rep.passed, rep.max_deviation))

    dev = max(cmap.isometry_deviation() for cmap in (r3_map, h3_map, shor9_map))
    records.append(CheckRecord(
        "correction_maps_isometric",
        "synthesized correction operators are orthogonal/unitary",
        dev <= TOL_ISO, dev))

    def roundtrip_dev(cmap, draw, rng) -> float:
        fidelities, residuals = codes.simulate(cmap, draw, rng, trials)
        return float(max(residuals.max(), np.abs(fidelities - 1.0).max()))

    rng = rng_for(seed, 301)     # one stream for both maps, r3 first
    dev = max(roundtrip_dev(cmap, codes.combined_draw(cmap.code, cmap.errors), rng)
              for cmap in (r3_map, h3_map))
    records.append(CheckRecord(
        "combined_error_linearity",
        "correction of arbitrary linear combinations of basis errors",
        dev <= codes.SYNTH_TOL, dev))

    dev = roundtrip_dev(r3_map, _so2_draw(r3, rng_for(seed, 302, _VALUES)),
                        rng_for(seed, 302))
    records.append(CheckRecord(
        "roundtrip_fidelity_r3", "plane-rotation roundtrips recover the "
        "logical state", dev <= codes.SYNTH_TOL, dev))

    dev = roundtrip_dev(h3_map, _su2_draw(h3, rng_for(seed, 303, _VALUES),
                                          rng_for(seed, 303, _REDRAW)),
                        rng_for(seed, 303))
    records.append(CheckRecord(
        "roundtrip_fidelity_h3", "unit right-multiplication roundtrips recover "
        "the logical state", dev <= codes.SYNTH_TOL, dev))

    dev = roundtrip_dev(shor9_map, codes.combined_draw(shor9, pauli_basis),
                        rng_for(seed, 304))
    records.append(CheckRecord(
        "roundtrip_fidelity_shor9", "single-site Pauli combinations on the "
        "nine-qubit code", dev <= codes.SYNTH_TOL, dev))

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
            r3_map, codes.combined_draw(r3, r3_map.errors), rng_for(seed, 305), 16)
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

TOL_TRANSFORM_REFERENCE = 1e-15  # the Majorana transform vs its reference
TOL_TRANSFORM_UNITARY = 1e-14    # the Majorana transform's unitarity
TOL_GENERATORS_REAL = 1e-14      # imaginary part of the transformed bilinears


def _transformed_cliffords(gs: dirac.GammaSet, rng, start: int,
                           n: int) -> list[float]:
    """The Clifford relations after a block of random unitary basis changes."""
    u = _unitary_rows(rng.standard_normal((n, 2, 4, 4)))
    uh = u.conj().swapaxes(-1, -2)
    return [_max_abs(np.max(dirac._clifford_deviations([u @ m @ uh for m in gs.all()]),
                            axis=0))]


def _rotor_correspondence(gens, redraw, rng, start: int, n: int) -> list[float]:
    """Rotor action against right multiplication by the conjugate, for a
    block of random unit rotors and quaternions."""
    rows = _normal_rows(rng, redraw, n, 8, (0,), None)
    e, q = rows[:, :4], rows[:, 4:]
    lhs = _matvec(dirac._rotor_matrices(e, gens), q).real
    return [_max_abs(lhs - quat._hamilton(q, quat._conj(e)))]


def _rotor_isometry(gens, redraw, rng, start: int, n: int) -> list[float]:
    """The isometry deviation of a block of random unit rotors on R^4."""
    rotors = _normal_rows(rng, redraw, n, 4, (0,), None)
    mats = dirac._rotor_matrices(rotors, gens).real
    gram = mats.swapaxes(-1, -2) @ mats        # is_isometry's Gram matrix
    gram[:, range(4), range(4)] -= 1.0
    return [_max_abs(gram)]


def dirac_suite(seed: int, trials: int) -> list[CheckRecord]:
    _check_trials(trials)
    records = []
    gs = dirac.build_gammas_standard()
    gm = dirac.majorana_set(gs)

    rep = dirac.clifford_check(gs)
    records.append(CheckRecord(
        "clifford_standard", "anticommutators and squares in the block basis",
        rep.passed, rep.max_deviation))

    rep = dirac.clifford_check(gm)
    dev, = _over_blocks(functools.partial(_transformed_cliffords, gs),
                        rng_for(seed, 401), 100)
    records.append(CheckRecord(
        "clifford_transformed",
        "the defining relations survive arbitrary unitary basis changes",
        rep.passed and dev <= dirac.TOL_IDENTITY, max(rep.max_deviation, dev)))

    um = dirac.build_majorana_transform(gs)
    dev_ref = float(np.abs(um - dirac.MAJORANA_TRANSFORM_REFERENCE).max())
    dev_unitary = is_isometry(um).max_deviation
    records.append(CheckRecord(
        "majorana_transform_matrix",
        "the product formula reproduces the reference matrix and is unitary",
        dev_ref <= TOL_TRANSFORM_REFERENCE and dev_unitary <= TOL_TRANSFORM_UNITARY,
        max(dev_ref, dev_unitary)))

    images = dirac.check_basis_images(gs, um)
    signs = {k: v.sign for k, v in images.items()}
    records.append(CheckRecord(
        "majorana_basis_images",
        "conjugation sends each matrix to its reference +-i partner",
        all(v.matches_reference for v in images.values()),
        max(v.reference_deviation for v in images.values()),
        f"signs found vs reference: {signs}"))

    gens = dirac.error_generators(gm)
    dev = max(float(np.abs(np.asarray(g).imag).max()) for g in gens)
    records.append(CheckRecord(
        "generators_real", "the transformed rotation bilinears are real",
        dev <= TOL_GENERATORS_REAL, dev))

    bil = dirac.check_majorana_bilinears(gm)
    signs = {k: v.sign for k, v in bil.items()}
    records.append(CheckRecord(
        "generator_sign_patterns",
        "transformed bilinears match the reference +-1 patterns",
        all(v.matches_reference for v in bil.values()),
        max(v.reference_deviation for v in bil.values()),
        f"signs found vs reference: {signs}"))

    # each unit rotor against each unit quaternion, then the random trials
    dev = max(dirac.quaternion_correspondence(
        dirac.ErrorRotor(*r), Quaternion.from_array(q), gm).max_deviation
        for r in quat._UNITS for q in quat._UNITS)
    trial_dev, = _over_blocks(
        functools.partial(_rotor_correspondence, gens, rng_for(seed, 402, _REDRAW)),
        rng_for(seed, 402), trials)
    dev = max(dev, trial_dev)
    unit_signs = dirac.classify_unit_correspondences(gens)
    records.append(CheckRecord(
        "rotor_correspondence",
        "rotor action equals right multiplication by the conjugate coefficient "
        "quaternion", dev <= dirac.TOL_IDENTITY, dev,
        f"unit signs found (reference -1 each): {unit_signs}"))

    dev, = _over_blocks(
        functools.partial(_rotor_isometry, gens, rng_for(seed, 403, _REDRAW)),
        rng_for(seed, 403), min(trials, 200))
    records.append(CheckRecord(
        "rotor_isometry", "unit rotors act as isometries of R^4",
        dev <= dirac.TOL_IDENTITY, dev))
    return records


SUITE_RUNNERS = {
    "quaternion": quaternion_suite,
    "linalg": linalg_suite,
    "codes": codes_suite,
    "dirac": dirac_suite,
}
