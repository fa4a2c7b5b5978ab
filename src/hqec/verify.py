"""Seeded invariant suites behind the ``verify`` command.

Each function runs the full battery of checks for one module and returns
plain CheckRecords.  Randomized checks draw from generators derived from
(seed, fixed stream id), so results are reproducible bit for bit and
independent of execution order.

Each record decides its verdict once: it takes the library's verdict where
there is one, or compares its deviation with one named constant, a library
tolerance or a ``TOL_*`` constant below.

The quaternion, linalg and dirac suites evaluate their randomized checks as
array expressions over blocks of trials: the quaternion identities through the
private row-wise kernel of :mod:`hqec.quaternion` (Hamilton product, norm,
conjugate), the linear-algebra and spinor identities through stacked numpy
products.  Their draws follow one rule: standard normals come in blocks from
the check's stream, uniforms and integers in blocks from a sub-stream of their
own, and a row that breaks a rule of the check is drawn again from a redraw
sub-stream, so each check runs exactly its trial count and its draws do not
depend on the block size.  Each spot-checks the public scalar API: the first
16 trials of each check (of each field, in the linalg suite) also run through
the public functions (``*``, ``rotate_vector``, ``su2_right_action``,
``hopf_project``, ``decompose_matrix``; ``inner``, ``LinearMap.apply``,
``apply_site``, ``tensor_state``; ``transform_basis``, ``clifford_check``,
``quaternion_correspondence``, ``is_isometry``), and the largest
scalar-versus-array difference is folded into the check's deviation.
The array forms repeat the scalar arithmetic operation by operation, so that
difference is 0.0 and leaves the printed deviation unchanged; any drift fails
the check.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import codes, dirac
from . import quaternion as quat
from .linalg import (
    LinearMap,
    RankDeficiencyError,
    ScalarField,
    SiteOperator,
    StateVector,
    TOL_ISO,
    apply_site,
    basis_state,
    complete_orthonormal,
    inner,
    is_isometry,
    tensor_state,
)
from .quaternion import ImaginaryVector, Quaternion
from .report import CheckRecord
from .sampling import (
    UNIT_FLOOR,
    random_orthogonal,
    random_state,
    random_unit_quaternion,
    random_unitary,
    rng_for,
)

# ---------------------------------------------------------------------------
# Trials in blocks
#
# The randomized checks of the quaternion, linalg and dirac suites evaluate
# their identities as array expressions over blocks of at most _BLOCK trials,
# so memory stays small and flat at any trial count.  Every check draws by one
# rule.  Its standard normals come in (n, width) blocks from its own stream,
# rng_for(seed, stream); its uniforms or integers come in blocks from the
# sub-stream rng_for(seed, stream, _VALUES).  A row that breaks a rule of the
# check (a unit group of norm at most UNIT_FLOOR, a rotation axis of square
# below _AXIS_FLOOR, a Hopf q of norm below _HOPF_FLOOR) is drawn again from
# the sub-stream rng_for(seed, stream, _REDRAW): rows one at a time, in trial
# order, each until it passes.  Every stream draws one kind of value only, and
# numpy returns the same values for such a stream however the calls split it,
# so the draws depend on (seed, trials) alone, never on _BLOCK.  The spot check
# runs the first _SPOT trials of each check through the public functions too
# and takes the largest difference; every array expression repeats the
# arithmetic of the function it mirrors, so the spot check must find no
# difference at all.  matrix_decompose_roundtrip solves its 8x8 system for a
# block of right-hand sides in one LAPACK call, so its spot check is held to
# the check's tolerance, TOL_DECOMPOSE, instead.

_BLOCK = 512
_SPOT = 16
TOL_DECOMPOSE = 1e-10
_AXIS_FLOOR = 1e-4    # rotation_geometry redraws a q whose axis has a smaller square
_HOPF_FLOOR = 1e-3    # hopf_projection redraws a q of smaller norm
_VALUES, _REDRAW = 1, 2    # the sub-streams of uniforms or integers, and of redraws
_ONE, _I, _J = (u.as_array() for u in (quat.ONE, quat.I, quat.J))
_UNITS = np.eye(4)    # the rows 1, i, j, k


def _over_blocks(check, rng, trials: int) -> list[float]:
    """Elementwise max of ``check(rng, start, n)`` over consecutive blocks of
    trials; each block draws its own trials from ``rng`` in order."""
    worst = check(rng, 0, min(_BLOCK, trials))
    for start in range(_BLOCK, trials, _BLOCK):
        part = check(rng, start, min(_BLOCK, trials - start))
        worst = [max(a, b) for a, b in zip(worst, part)]
    return worst


def _spot(start: int, n: int) -> int:
    """How many rows of a block starting at trial ``start`` are spot rows."""
    return min(n, max(0, _SPOT - start))


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


def _quats(rows: np.ndarray, start: int) -> list[Quaternion]:
    """The spot rows of a block starting at trial ``start``, as Quaternions."""
    return [Quaternion.from_array(r) for r in rows[:_spot(start, len(rows))]]


def _spot_gap(scalar: list[tuple], *arrays: np.ndarray) -> float:
    """max |scalar - array| over the spot rows; ``scalar`` holds one tuple of
    Quaternions, arrays or numbers per row, matching ``arrays`` position by
    position."""
    gap = 0.0
    for k, got in enumerate(arrays):
        want = [q.as_array() if isinstance(q, Quaternion) else q
                for q in (row[k] for row in scalar)]
        if want:
            gap = max(gap, _max_abs(np.array(want) - got[:len(want)]))
    return gap


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


def _axis_square(q: np.ndarray) -> np.ndarray:
    """Row-wise ``a[1:] @ a[1:]`` of ``a = q.as_array()``, bit for bit."""
    return np.matmul(q[:, None, 1:], q[:, 1:, None])[:, 0, 0]


def _rotation_geometry(redraw, rng, start: int, n: int) -> list[float]:
    rows = _normal_rows(rng, redraw, n, 11, (0, 7),
                        lambda r: _axis_square(r[:, :4]) >= _AXIS_FLOOR)
    q, q2 = rows[:, :4], rows[:, 7:]
    v = np.zeros((n, 4))
    v[:, 1:] = rows[:, 4:7]
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


def _su2_right_action(redraw, rng, start: int, n: int) -> list[float]:
    rows = _normal_rows(rng, redraw, n, 8, (0,), None)
    # each of the first four trials pairs its u with 1, i, j, k, not its q
    head = min(n, max(0, 4 - start))
    q = np.concatenate([np.tile(_UNITS, (head, 1)), rows[head:, 4:]])
    u = np.concatenate([np.repeat(rows[:head, :4], 4, axis=0), rows[head:, :4]])
    lhs = quat._hamilton(q, quat._conj(u))
    c, d = u.view(complex).T
    m = np.stack([np.stack([c.conj(), d.conj()], axis=-1),
                  np.stack([-d, c], axis=-1)], axis=-2)
    rhs = (m @ q.view(complex)[..., None])[..., 0].view(float)
    scalar = [(quat.su2_right_action(a, b), quat.su2_matrix(b))
              for a, b in zip(_quats(q, start), _quats(u, start))]
    return [_max_abs(lhs - rhs), _spot_gap(scalar, lhs, m)]


def _hopf_projection(phases, redraw, rng, start: int, n: int) -> list[float]:
    rows = _normal_rows(rng, redraw, n, 8, (4,),
                        lambda r: quat._norm(r[:, :4]) >= _HOPF_FLOOR)
    q, u = rows[:, :4], rows[:, 4:]
    phase = np.zeros((n, 4))
    phis = phases.uniform(0.0, 2.0 * np.pi, n)
    phase[:, 0] = [math.cos(phi) for phi in phis]    # quat.exp_phase
    phase[:, 1] = [math.sin(phi) for phi in phis]
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
    for k in range(_spot(start, n)):
        su, sw = quat.decompose_matrix(m[k])
        scalar.append((su, sw, quat.compose_matrix(su, sw)))
    return [max(dev, _spot_gap(scalar, u, w, composed))]


def _exact(check_id: str, anchor: str, dev: float, gap: float) -> CheckRecord:
    """A product-based check: within ``quat.TOL_COMPARE``, and bit-identical
    to the scalar route on the spot rows."""
    return CheckRecord(check_id, anchor, dev <= quat.TOL_COMPARE and gap == 0.0,
                       max(dev, gap))


def quaternion_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = [
        _exact("norm_multiplicative", "multiplicative norm",
               *_over_blocks(_norm_multiplicative, rng_for(seed, 101), 10_000)),
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

    dev_phase, dev_equi, gap = _over_blocks(
        functools.partial(_hopf_projection, rng_for(seed, 105, _VALUES),
                          rng_for(seed, 105, _REDRAW)),
        rng_for(seed, 105), trials)
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


def _amplitudes(field: ScalarField, normals: np.ndarray) -> np.ndarray:
    """Amplitudes from the last axis of a block of normals, as
    :func:`random_coefficients` draws them: over C the real parts, then the
    imaginary parts."""
    if not field.is_complex:
        return normals
    half = normals.shape[-1] // 2
    return normals[..., :half] + 1j * normals[..., half:]


def _width(field: ScalarField, count: int) -> int:
    """The normals :func:`random_coefficients` draws for ``count`` amplitudes."""
    return 2 * count if field.is_complex else count


def _matvec(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise ``mat @ row``: one matrix-vector product per row, as
    :meth:`LinearMap.apply` makes it."""
    return np.matmul(mat, rows[..., None])[..., 0]


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise :func:`inner`: one dot product per row."""
    return np.matmul(a.conj()[:, None, :], b[:, :, None])[:, 0, 0]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise :func:`tensor_state` of two factors."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), a.shape[1] * b.shape[1])


def _isometry_pairs(lm: LinearMap, rng, start: int, n: int) -> list[float]:
    """|<Mu|Mv> - <u|v>| over a block of pairs of unnormalized states."""
    field, dim = lm.field, lm.dim_in
    normals = rng.standard_normal((n, 2, _width(field, dim)))
    u, v = (_amplitudes(field, normals[:, k]) for k in range(2))
    mu, mv = _matvec(lm.matrix, u), _matvec(lm.matrix, v)
    mapped, plain = _inner(mu, mv), _inner(u, v)
    diff = mapped - plain
    # abs() of each difference: hypot, which numpy's complex abs need not match
    dev = _max_abs(np.hypot(diff.real, diff.imag))
    scalar = []
    for k in range(_spot(start, n)):
        su, sv = StateVector(field, 2, u[k]), StateVector(field, 2, v[k])
        au, av = lm.apply(su), lm.apply(sv)
        scalar.append((au.amplitudes, av.amplitudes, inner(au, av), inner(su, sv)))
    return [dev, _spot_gap(scalar, mu, mv, mapped, plain)]


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
    dim = d ** n_sites
    op_width = _width(field, d * d)
    sites = sites_rng.integers(n_sites, size=n)
    normals = rng.standard_normal((n, op_width + _width(field, dim)))
    ops = _amplitudes(field, normals[:, :op_width]).reshape(n, d, d)
    states = _amplitudes(field, normals[:, op_width:])
    fast, full = np.empty_like(states), np.empty_like(states)
    for site in range(n_sites):    # one site at a time: the dense matrices are large
        rows = sites == site
        cube = states[rows].reshape(-1, d ** site, d, d ** (n_sites - 1 - site))
        fast[rows] = np.matmul(ops[rows][:, None], cube).reshape(-1, dim)
        full[rows] = _matvec(_site_matrices(ops[rows], site, n_sites), states[rows])
    scalar = [(apply_site(SiteOperator(field, int(sites[k]), ops[k]),
                          StateVector(field, n_sites, states[k])).amplitudes,)
              for k in range(_spot(start, n))]
    return [_max_abs(fast - full), _spot_gap(scalar, fast)]


def _tensor_bilinearity(field: ScalarField, rng, start: int, n: int) -> list[float]:
    """(au + bu') x v against a(u x v) + b(u' x v), and the same in the
    second factor, over a block of unnormalized 1-site states."""
    w = _width(field, field.site_dim)
    normals = rng.standard_normal((n, 3 * w + 2))
    u, u2, v = (_amplitudes(field, normals[:, k * w:(k + 1) * w]) for k in range(3))
    alpha, beta = normals[:, -2:-1], normals[:, -1:]
    mixed = alpha * u + beta * u2
    left, left_swapped = _kron(mixed, v), _kron(v, mixed)
    dev = max(_max_abs(left - (alpha * _kron(u, v) + beta * _kron(u2, v))),
              _max_abs(left_swapped - (alpha * _kron(v, u) + beta * _kron(v, u2))))
    scalar = []
    for k in range(_spot(start, n)):
        sm, sv = StateVector(field, 1, mixed[k]), StateVector(field, 1, v[k])
        scalar.append((tensor_state((sm, sv)).amplitudes,
                       tensor_state((sv, sm)).amplitudes))
    return [dev, _spot_gap(scalar, left, left_swapped)]


def linalg_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = []

    rng = rng_for(seed, 201)
    dev = gap = 0.0
    negative_ok = True
    for field in ScalarField:
        lm = LinearMap(field, _random_isometry(field, field.site_dim ** 2, rng))
        check = is_isometry(lm)
        negative_ok = negative_ok and check.passed
        pair_dev, pair_gap = _over_blocks(functools.partial(_isometry_pairs, lm),
                                          rng, min(trials, 200))
        dev, gap = max(dev, check.max_deviation, pair_dev), max(gap, pair_gap)
    stretched = is_isometry(LinearMap(ScalarField.REAL, np.diag([1.0, 2.0])))
    records.append(CheckRecord(
        "isometry_preserves_inner",
        "maps passing the isometry check preserve inner products",
        negative_ok and not stretched.passed and dev <= TOL_ISO and gap == 0.0,
        max(dev, gap),
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
        dev = gap = 0.0
        for field in ScalarField:
            field_dev, field_gap = _over_blocks(functools.partial(check, field), rng,
                                                min(trials, 60))
            dev, gap = max(dev, field_dev), max(gap, field_gap)
        records.append(CheckRecord(check_id, anchor,
                                   dev <= TOL_KERNEL and gap == 0.0, max(dev, gap)))

    rng = rng_for(seed, 204)
    dev = 0.0
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
        negative_ok and dev <= TOL_ISO, dev, witness))
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
    records.append(CheckRecord(
        "kl_r3_so2", "correctability of plane rotations on the real code",
        report.passed, codes.kl_condition_deviation(report)))

    h3_i = codes.build_h3_code("i")
    reps = [codes.kl_check(h3_i, codes.effective_error_basis(h3_i, codes.ErrorFamily.SU2)),
            codes.kl_check(h3, su2_basis)]
    records.append(CheckRecord(
        "kl_h3_su2", "correctability of unit right multiplications on the "
        "quaternionic code (both repetition units)",
        all(r.passed for r in reps), max(map(codes.kl_condition_deviation, reps))))

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
        "nine-qubit code", rep.passed, codes.kl_condition_deviation(rep)))

    dev = max(cmap.isometry_deviation() for cmap in (r3_map, h3_map, shor9_map))
    records.append(CheckRecord(
        "correction_maps_isometric",
        "synthesized correction operators are orthogonal/unitary",
        dev <= TOL_ISO, dev))

    def roundtrip_dev(cmap, draw_error, rng) -> float:
        fidelities, residuals = codes.simulate(cmap, draw_error, rng, trials)
        return float(max(residuals.max(), np.abs(fidelities - 1.0).max()))

    rng = rng_for(seed, 301)     # one stream for both maps, r3 first
    dev = max(roundtrip_dev(cmap, codes.combined_draw(basis, cmap.code.field), rng)
              for cmap, basis in ((r3_map, so2_basis), (h3_map, su2_basis)))
    records.append(CheckRecord(
        "combined_error_linearity",
        "correction of arbitrary linear combinations of basis errors",
        dev <= codes.SYNTH_TOL, dev))

    dev = roundtrip_dev(r3_map, lambda rng: codes.so2_error(
        rng.uniform(0.0, 2.0 * np.pi), int(rng.integers(r3.n_sites))),
        rng_for(seed, 302))
    records.append(CheckRecord(
        "roundtrip_fidelity_r3", "plane-rotation roundtrips recover the "
        "logical state", dev <= codes.SYNTH_TOL, dev))

    dev = roundtrip_dev(h3_map, lambda rng: codes.su2_error(
        random_unit_quaternion(rng), int(rng.integers(h3.n_sites))),
        rng_for(seed, 303))
    records.append(CheckRecord(
        "roundtrip_fidelity_h3", "unit right-multiplication roundtrips "
        "recover the logical state", dev <= codes.SYNTH_TOL, dev))

    dev = roundtrip_dev(shor9_map, codes.combined_draw(pauli_basis, shor9.field),
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

TOL_TRANSFORM_REFERENCE = 1e-15  # the Majorana transform vs its reference
TOL_TRANSFORM_UNITARY = 1e-14    # the Majorana transform's unitarity
TOL_GENERATORS_REAL = 1e-14      # imaginary part of the transformed bilinears
_SQUARES = (1.0, -1.0, -1.0, -1.0, 1.0)   # of g0, g1, g2, g3, g5


def _unitaries(normals: np.ndarray) -> np.ndarray:
    """Row-wise :func:`random_unitary` from its draws, shape (n, 2, d, d)."""
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _clifford_deviation(mats: list[np.ndarray]) -> np.ndarray:
    """Row-wise :func:`dirac.clifford_check` deviation of stacked gamma sets
    g0, g1, g2, g3, g5."""
    devs = [np.abs(a @ b + b @ a).max(axis=(1, 2))
            for k, a in enumerate(mats) for b in mats[k + 1:]]
    devs += [np.abs(g @ g - sign * np.eye(4)).max(axis=(1, 2))
             for g, sign in zip(mats, _SQUARES)]
    g0, g1, g2, g3, g5 = mats
    devs.append(np.abs(g5 - (-1j) * g0 @ g1 @ g2 @ g3).max(axis=(1, 2)))
    return np.max(devs, axis=0)


def _transformed_cliffords(gs: dirac.GammaSet, rng, start: int,
                           n: int) -> list[float]:
    """The Clifford relations after a block of random unitary basis changes."""
    u = _unitaries(rng.standard_normal((n, 2, 4, 4)))
    uh = u.conj().swapaxes(-1, -2)
    mats = [u @ m @ uh for m in gs.all()]
    devs = _clifford_deviation(mats)
    scalar = []
    for k in range(_spot(start, n)):
        g = dirac.transform_basis(gs, u[k])
        scalar.append((*g.all(), dirac.clifford_check(g).max_deviation))
    return [_max_abs(devs), _spot_gap(scalar, *mats, devs)]


def _rotor_matrices(e: np.ndarray, gens: tuple[np.ndarray, ...]) -> np.ndarray:
    """Row-wise :meth:`dirac.ErrorRotor.matrix` of coefficient rows ``e``."""
    e1m, e2m, e3m = gens
    c = e[:, :, None, None]
    return (c[:, 0] * np.eye(4, dtype=e1m.dtype)
            + c[:, 1] * e1m + c[:, 2] * e2m + c[:, 3] * e3m)


def _rotor_correspondence(gm: dirac.GammaSet, gens, redraw, rng, start: int,
                          n: int) -> list[float]:
    """Rotor action against right multiplication by the conjugate, for a
    block of random unit rotors and quaternions."""
    rows = _normal_rows(rng, redraw, n, 8, (0,), None)
    e, q = rows[:, :4], rows[:, 4:]
    lhs = _matvec(_rotor_matrices(e, gens), q).real
    rhs = quat._hamilton(q, quat._conj(e))
    scalar = []
    for k in range(_spot(start, n)):
        rep = dirac.quaternion_correspondence(
            dirac.ErrorRotor(*e[k]), Quaternion.from_array(q[k]), gm)
        scalar.append((rep.lhs, rep.rhs))
    return [_max_abs(lhs - rhs), _spot_gap(scalar, lhs, rhs)]


def _rotor_isometry(gens, redraw, rng, start: int, n: int) -> list[float]:
    """The isometry deviation of a block of random unit rotors on R^4."""
    rotors = _normal_rows(rng, redraw, n, 4, (0,), None)
    mats = _rotor_matrices(rotors, gens).real
    gram = mats.swapaxes(-1, -2) @ mats        # is_isometry's Gram matrix
    gram[:, range(4), range(4)] -= 1.0
    devs = np.abs(gram).max(axis=(1, 2))
    scalar = [(is_isometry(mats[k]).max_deviation,) for k in range(_spot(start, n))]
    return [_max_abs(devs), _spot_gap(scalar, devs)]


def dirac_suite(seed: int, trials: int) -> list[CheckRecord]:
    records = []
    gs = dirac.build_gammas_standard()
    gm = dirac.majorana_set(gs)

    rep = dirac.clifford_check(gs)
    records.append(CheckRecord(
        "clifford_standard", "anticommutators and squares in the block basis",
        rep.passed, rep.max_deviation))

    rep = dirac.clifford_check(gm)
    dev, gap = _over_blocks(functools.partial(_transformed_cliffords, gs),
                            rng_for(seed, 401), 100)
    records.append(CheckRecord(
        "clifford_transformed",
        "the defining relations survive arbitrary unitary basis changes",
        rep.passed and dev <= dirac.TOL_IDENTITY and gap == 0.0,
        max(rep.max_deviation, dev, gap)))

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
        for r in _UNITS for q in _UNITS)
    trial_dev, gap = _over_blocks(
        functools.partial(_rotor_correspondence, gm, gens, rng_for(seed, 402, _REDRAW)),
        rng_for(seed, 402), trials)
    dev = max(dev, trial_dev, gap)
    unit_signs = dirac.classify_unit_correspondences(gens)
    records.append(CheckRecord(
        "rotor_correspondence",
        "rotor action equals right multiplication by the conjugate coefficient "
        "quaternion", dev <= dirac.TOL_IDENTITY and gap == 0.0, dev,
        f"unit signs found (reference -1 each): {unit_signs}"))

    dev, gap = _over_blocks(
        functools.partial(_rotor_isometry, gens, rng_for(seed, 403, _REDRAW)),
        rng_for(seed, 403), min(trials, 200))
    records.append(CheckRecord(
        "rotor_isometry", "unit rotors act as isometries of R^4",
        dev <= dirac.TOL_IDENTITY and gap == 0.0, max(dev, gap)))
    return records


SUITE_RUNNERS = {
    "quaternion": quaternion_suite,
    "linalg": linalg_suite,
    "codes": codes_suite,
    "dirac": dirac_suite,
}
