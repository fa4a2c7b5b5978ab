import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import quaternion as quat
from hqec import verify
from hqec.quaternion import (
    I,
    J,
    K,
    ONE,
    ComplexPair,
    ImaginaryVector,
    Quaternion,
)
from hqec.report import CheckRecord
from hqec.sampling import random_quaternion, rng_for

from conftest import FixedDraws, _close, drawn_row, left_mult, tiny_streams, unit_draw

finite = st.floats(min_value=-10, max_value=10,
                   allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quaternions = quaternions.filter(lambda q: q.norm() > 0.1)
unit_quaternions = nonzero_quaternions.map(lambda q: q.normalized())


def _left_phase(phi: float) -> Quaternion:
    """The left phase unit cos(phi) + sin(phi)*i, i.e. exp(i*phi) embedded."""
    return Quaternion(math.cos(phi), math.sin(phi), 0.0, 0.0)


# --- multiplication table ---------------------------------------------------

def test_unit_table():
    assert _close(I * J, K)
    assert _close(J * K, I)
    assert _close(K * I, J)
    assert _close(J * I, -K)
    for u in (I, J, K):
        assert _close(u * u, -ONE)


def test_one_is_identity():
    q = Quaternion(0.3, -1.2, 4.0, 0.5)
    assert _close(ONE * q, q)
    assert _close(q * ONE, q)


def test_bilinear_expansion():
    assert _close((ONE + I) * (ONE + J), Quaternion(1, 1, 1, 1))


@given(quaternions, quaternions)
def test_norm_multiplicative(q, h):
    assert abs(q.norm() * h.norm() - (q * h).norm()) \
        <= 1e-12 * (1.0 + q.norm() * h.norm())


@given(quaternions, quaternions, quaternions)
def test_associativity(q, u, v):
    assert _close((q * u) * v, q * (u * v))



@pytest.mark.parametrize("factor", [2, 2.0], ids=["int", "float"])
def test_only_quaternions_multiply(factor):
    with pytest.raises(TypeError):
        I * factor
    with pytest.raises(TypeError):
        factor * I


# --- conjugation ----------------------------------------------------------

def test_conj_examples():
    assert _close(I.conj(), -I)
    assert _close((I * J).conj(), J.conj() * I.conj())
    assert _close((I * J).conj(), -K)


@given(quaternions, quaternions)
def test_conj_antiautomorphism(q, u):
    assert _close((q * u).conj(), u.conj() * q.conj())


@given(quaternions)
def test_conj_gives_norm(q):
    p = q * q.conj()
    assert abs(p.w - q.norm_sq()) <= 1e-12 * (1 + q.norm_sq())
    assert abs(p.x) + abs(p.y) + abs(p.z) <= 1e-12 * (1 + q.norm_sq())


# --- rotations ----------------------------------------------------------
# The rotation q * v * conj(q) and the axis of q, as scalar arithmetic: the
# second route the array kernel and verify's rotation check are held to.

def _rotated(q: Quaternion, v: ImaginaryVector) -> ImaginaryVector:
    r = q * v.to_quaternion() * q.conj()
    return ImaginaryVector(r.x, r.y, r.z)


def _axis(q: Quaternion) -> ImaginaryVector:
    """The unit imaginary part of q, the axis its rotation fixes."""
    length = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    return ImaginaryVector(q.x / length, q.y / length, q.z / length)


def _rotate(q: Quaternion, v: ImaginaryVector) -> ImaginaryVector:
    """The row kernel's rotation of one vector."""
    _, x, y, z = quat._rotate(q.as_array(), v.to_quaternion().as_array()).tolist()
    return ImaginaryVector(x, y, z)


def test_rotate_examples():
    v = ImaginaryVector(1, 0, 0)
    assert _close(_rotate(ONE, v), v)
    assert _close(_rotate(K, v), ImaginaryVector(-1, 0, 0))
    half = Quaternion(1, 0, 0, 1).normalized()
    assert _close(_rotate(half, v), ImaginaryVector(0, 1, 0))


@given(unit_quaternions, st.tuples(finite, finite, finite))
def test_rotation_preserves_length(q, xyz):
    v = ImaginaryVector(*xyz)
    assert abs(_rotate(q, v).length() - v.length()) <= 1e-12 * (1 + v.length())


@given(unit_quaternions)
def test_rotation_fixes_axis(q):
    if q.as_array()[1:] @ q.as_array()[1:] < 1e-6:
        return
    axis = _axis(q)
    assert _close(_rotate(q, axis), axis, tol=1e-10)


@given(unit_quaternions, unit_quaternions, st.tuples(finite, finite, finite))
def test_rotation_composition(q1, q2, xyz):
    v = ImaginaryVector(*xyz)
    twice = _rotate(q2, _rotate(q1, v))
    once = _rotate((q2 * q1).normalized(), v)
    assert _close(twice, once, tol=1e-10)


# --- qubit embedding ----------------------------------------------------

def test_embed_examples():
    assert _close(quat.embed_qubit(ComplexPair(1, 0)), ONE)
    assert _close(quat.embed_qubit(ComplexPair(0, 1)), J)
    assert _close(quat.embed_qubit(ComplexPair(1j, 1j)), I + K)


@given(st.tuples(finite, finite, finite, finite))
def test_embed_extract_roundtrip(parts):
    pair = ComplexPair(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    assert _close(quat.extract_qubit(quat.embed_qubit(pair)), pair)


@given(st.tuples(finite, finite, finite, finite),
       st.floats(min_value=0, max_value=7, allow_nan=False))
def test_left_phase_is_complex_phase(parts, phi):
    pair = ComplexPair(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    lhs = _left_phase(phi) * quat.embed_qubit(pair)
    scale = complex(math.cos(phi), math.sin(phi))
    rhs = quat.embed_qubit(ComplexPair(scale * pair.a, scale * pair.b))
    assert _close(lhs, rhs)


# --- SU(2) right action -------------------------------------------------
# The action of u is right multiplication by conj(u), the operator su2_error
# builds; on the amplitude pair it is the 2x2 unitary below.

def _su2_matrix(u: Quaternion) -> np.ndarray:
    """The 2x2 unitary [[c~, d~], [-d, c]] acting on (a, b), where u = c + d*j."""
    p = quat.extract_qubit(u)
    return np.array([[np.conj(p.a), np.conj(p.b)], [-p.b, p.a]], dtype=complex)


def _su2_action(q: Quaternion, u: Quaternion) -> Quaternion:
    return Quaternion.from_array(quat.right_mult_matrix(u.conj()) @ q.as_array())


def test_su2_examples():
    q = Quaternion(0.3, 0.1, -0.7, 0.2)
    assert _close(_su2_action(q, ONE), q)
    assert _close(_su2_action(ONE, J), -J)
    assert np.allclose(_su2_matrix(J) @ np.array([1, 0]), [0, -1])
    assert _close(_su2_action(J, J), ONE)
    assert np.allclose(_su2_matrix(J) @ np.array([0, 1]), [1, 0])


@given(quaternions, unit_quaternions)
def test_su2_action_matches_matrix(q, u):
    lhs = _su2_action(q, u)
    pair = quat.extract_qubit(q)
    vec = _su2_matrix(u) @ np.array([pair.a, pair.b])
    rhs = quat.embed_qubit(ComplexPair(vec[0], vec[1]))
    assert _close(lhs, rhs)


@given(quaternions, unit_quaternions)
def test_su2_action_preserves_norm(q, u):
    assert abs(_su2_action(q, u).norm() - q.norm()) <= 1e-12 * (1 + q.norm())


# --- Pauli sandwich actions ----------------------------------------------

def test_pauli_sandwich_values():
    assert _close(quat.pauli_action("x", ONE), -ONE)      # i*1*i
    assert _close(quat.pauli_action("z", I), -K)          # i*i*k
    assert _close(quat.pauli_action("y", ONE), K)         # i*1*j
    with pytest.raises(ValueError):
        quat.pauli_action("w", ONE)


def test_pauli_classification():
    # Derived correspondence: the sandwich labeled x acts as -sigma_z, the
    # one labeled z as -sigma_x, and the y sandwich is exactly sigma_y.
    expected = {"x": ("z", -1 + 0j), "y": ("y", 1 + 0j), "z": ("x", -1 + 0j)}
    for axis, (target, phase) in expected.items():
        cls = quat.classify_pauli_action(axis, seed=0)
        assert cls.target == target
        assert abs(cls.phase - phase) <= 1e-12
        assert cls.max_deviation <= 1e-12


def test_pauli_classification_stable():
    first = [quat.classify_pauli_action(a, seed=0) for a in "xyz"]
    second = [quat.classify_pauli_action(a, seed=0) for a in "xyz"]
    assert first == second


def test_pauli_confirmation_drift_is_a_fail_record_not_an_error(monkeypatch):
    # exact on the basis quaternions 1 and j, from which the matrix is read,
    # but about 1e-9 off on the random quaternions that confirm it: the
    # classification reports the drift and the suite's record decides it
    exact = quat.pauli_action

    def drifting(axis, q):
        out = exact(axis, q)
        return out if q in (ONE, quat.J) else out + quat.Quaternion(1e-9, 0, 0, 0)

    monkeypatch.setattr(quat, "pauli_action", drifting)
    cls = quat.classify_pauli_action("x", seed=0)
    assert cls.target == "z"
    assert 0.5e-9 <= cls.max_deviation <= 2e-9
    records = {r.check_id: r for r in verify.quaternion_suite(0, 5)}
    record = records["pauli_sandwich_classification"]
    assert not record.passed
    assert record.max_deviation == cls.max_deviation


# --- Hopf projection ------------------------------------------------------

def test_hopf_examples():
    assert _close(quat.hopf_project(ONE), ImaginaryVector(1, 0, 0))
    assert _close(quat.hopf_project(J), ImaginaryVector(-1, 0, 0))
    phased = _left_phase(0.7) * ONE
    assert _close(quat.hopf_project(phased), ImaginaryVector(1, 0, 0))


def test_hopf_rejects_zero():
    with pytest.raises(ValueError):
        quat.hopf_project(Quaternion(0, 0, 0, 0))


@given(nonzero_quaternions)
def test_hopf_image_on_sphere(q):
    v = quat.hopf_project(q)
    assert abs(v.length() - 1.0) <= 1e-10


@given(nonzero_quaternions, st.floats(min_value=0, max_value=7, allow_nan=False))
def test_hopf_phase_invariance(q, phi):
    assert _close(quat.hopf_project(_left_phase(phi) * q),
                  quat.hopf_project(q), tol=1e-10)


@given(nonzero_quaternions, unit_quaternions)
def test_hopf_equivariance(q, u):
    lhs = quat.hopf_project(q * u.conj())
    rhs = u * quat.hopf_project(q).to_quaternion() * u.conj()
    assert _close(lhs.to_quaternion(), rhs, tol=1e-10)


# --- matrix decomposition -------------------------------------------------
# The row kernel's decomposition and composition, one matrix at a time.

def _decompose(m) -> tuple[Quaternion, Quaternion]:
    u, w = quat._decompose(np.asarray(m, dtype=complex)[None])
    return Quaternion.from_array(u[0]), Quaternion.from_array(w[0])


def _compose(u: Quaternion, w: Quaternion) -> np.ndarray:
    return quat._compose(u.as_array()[None], w.as_array()[None])[0]


def test_decompose_trivial_cases():
    u, w = _decompose(np.eye(2))
    assert _close(u, ONE) and _close(w, Quaternion(0, 0, 0, 0))
    u, w = _decompose(1j * np.eye(2))
    assert _close(u, Quaternion(0, 0, 0, 0)) and _close(w, ONE)


def test_decompose_sigma_x_roundtrip():
    sx = quat.PAULI_MATRICES["x"]
    u, w = _decompose(sx)
    assert np.abs(_compose(u, w) - sx).max() <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = Quaternion.from_array(rng.standard_normal(4))
        pair = quat.extract_qubit(q)
        vec = sx @ np.array([pair.a, pair.b])
        lhs = quat.embed_qubit(ComplexPair(vec[0], vec[1]))
        rhs = q * u + I * (q * w)
        assert _close(lhs, rhs, tol=1e-10)


@settings(max_examples=50)
@given(st.lists(finite, min_size=8, max_size=8))
def test_decompose_compose_identity(entries):
    m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    u, w = _decompose(m)
    assert np.abs(_compose(u, w) - m).max() <= 1e-10


# --- non-finite input -----------------------------------------------------

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("call", [
    Quaternion.normalized, quat.hopf_project,
], ids=["normalized", "hopf_project"])
def test_non_finite_quaternion_is_rejected(call, slot, bad):
    parts = [0.5, -1.0, 2.0, 0.25]
    parts[slot] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            call(Quaternion(*parts))


@pytest.mark.parametrize("call, q", [
    (Quaternion.normalized, Quaternion(1e300, 1e300, 0, 0)),
    (quat.hopf_project, Quaternion(1e300, 1e300, 0, 0)),
], ids=["normalized", "hopf_project"])
def test_norm_overflow_is_rejected(call, q):
    # finite components whose norm overflows used to give zeros or a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm overflows"):
            call(q)


@pytest.mark.parametrize("a, b", [
    (Quaternion(1e300, 0, 0, 0), Quaternion(0, 1e300, 1e300, 0)),
    (Quaternion(1e308, 0, 0, 0), Quaternion(-1e308, 0, 0, 0)),
], ids=["norm", "difference"])
def test_quaternion_isclose_rejects_an_overflow(a, b):
    # the bound tol * (1 + norms) used to be inf, which passed any difference
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            _close(a, b)


@pytest.mark.parametrize("a, b", [
    (ImaginaryVector(1e300, 0, 0), ImaginaryVector(0, 1e300, 0)),
    (ImaginaryVector(1e308, 0, 0), ImaginaryVector(-1e308, 0, 0)),
], ids=["norm", "difference"])
def test_imaginary_vector_isclose_rejects_an_overflow(a, b):
    # the squared difference used to raise a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            _close(a, b)


@pytest.mark.parametrize("a, b", [
    (ComplexPair(1e308 + 1e308j, 0), ComplexPair(-1e308, 1e308)),
    (ComplexPair(1e308, 0), ComplexPair(-1e308, 0)),
], ids=["both", "difference"])
def test_complex_pair_isclose_rejects_an_overflow(a, b):
    # an infinite bound used to pass a difference of 2e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            _close(a, b)


def test_large_finite_norm_keeps_its_values():
    q = Quaternion(1e150, -3e150, 2e150, 0)
    assert q.normalized() == q.scaled(1.0 / math.sqrt(q.norm_sq()))
    assert quat.hopf_project(q).length() == pytest.approx(1.0)


# --- the row-wise array kernel --------------------------------------------

# Components scaled by 10**e, |e| <= 100: no product or norm overflows.
scaled_rows = st.builds(
    lambda parts, e: [p * 10.0 ** e for p in parts],
    st.tuples(finite, finite, finite, finite), st.integers(-100, 100))


@given(st.lists(st.tuples(scaled_rows, scaled_rows), min_size=1, max_size=8))
def test_array_kernel_matches_the_scalar_methods(pairs):
    a = np.array([p for p, _ in pairs])
    b = np.array([q for _, q in pairs])
    product, norm, conj = quat._hamilton(a, b), quat._norm(a), quat._conj(a)
    first = quat._hamilton(a[0], b)      # a single row broadcast over b
    pure = quat._pure(b)
    rotated, right = quat._rotate(a, pure), quat._right_mult(a)
    for k in range(len(pairs)):
        qa, qb = Quaternion.from_array(a[k]), Quaternion.from_array(b[k])
        assert np.array_equal(product[k], (qa * qb).as_array())
        assert np.array_equal(first[k], (Quaternion.from_array(a[0]) * qb).as_array())
        assert norm[k] == qa.norm()
        assert np.array_equal(conj[k], qa.conj().as_array())
        vb = ImaginaryVector(qb.x, qb.y, qb.z)
        assert np.array_equal(rotated[k], _rotated(qa, vb).to_quaternion().as_array())
        # column c is the c-th unit times qa, as the scalar product makes it
        want = np.column_stack([(u * qa).as_array() for u in (ONE, I, J, K)])
        assert right[k].tobytes() == want.tobytes()
        assert right[k].tobytes() == quat.right_mult_matrix(qa).tobytes()


@given(st.lists(nonzero_quaternions, min_size=1, max_size=8))
def test_hopf_rows_match_the_scalar_projection(qs):
    rows = quat._hopf(np.array([q.as_array() for q in qs]))
    for row, q in zip(rows, qs):
        assert np.array_equal(row, _projected(q).to_quaternion().as_array())
        assert quat.hopf_project(q) == _projected(q)


# --- the verify suite against its loop reference ---------------------------


def _projected(q: Quaternion) -> ImaginaryVector:
    """The Hopf projection q^-1 * i * q in scalar arithmetic."""
    r = (q.conj() * I * q).scaled(1.0 / q.norm_sq())
    return ImaginaryVector(r.x, r.y, r.z)


# the 8x8 system of q -> q*u + i*q*w, built from the scalar product: the
# system the 2x2 decomposition solved before it used the formula
_DECOMPOSITION = np.block([[left_mult(ONE), left_mult(I)],
                           [left_mult(J), left_mult(K)]])


def _solved_decomposition(m: np.ndarray) -> tuple[Quaternion, Quaternion]:
    """(u, w) with M(q) = q*u + i*q*w for one 2x2 matrix, one solve each."""
    rhs = []
    for pair in (ComplexPair(1, 0), ComplexPair(0, 1)):
        image = m @ np.array([pair.a, pair.b])
        rhs.append(quat.embed_qubit(ComplexPair(image[0], image[1])).as_array())
    solution = np.linalg.solve(_DECOMPOSITION, np.concatenate(rhs))
    return Quaternion.from_array(solution[:4]), Quaternion.from_array(solution[4:])


def _formula_decomposition(m: np.ndarray) -> tuple[Quaternion, Quaternion]:
    """(u, w) with M(q) = q*u + i*q*w for one 2x2 matrix by the formula for
    u = c + d*j and w = c' + d'*j, in scalar complex arithmetic."""
    (m00, m01), (m10, m11) = m.tolist()
    c, c2 = (m00 + m11.conjugate()) / 2, (m00 - m11.conjugate()) * -0.5j
    d, d2 = (m10 - m01.conjugate()) / 2, (m10 + m01.conjugate()) * -0.5j
    return (quat.embed_qubit(ComplexPair(c, d)), quat.embed_qubit(ComplexPair(c2, d2)))


def test_the_decomposition_formula_matches_the_solved_system():
    # measured on these draws: the formula and the solve differ by at most
    # 4.4e-16 in u and 0.0 in w, and recompose within 4.6e-16 and 5.0e-16
    rng = rng_for(0, 107)
    m = (rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2)))
    u, w = quat._decompose(m)
    solved = [_solved_decomposition(x) for x in m]
    su, sw = (np.array([p[k].as_array() for p in solved]) for k in (0, 1))
    assert np.abs(u - su).max() <= 1e-15 and np.abs(w - sw).max() <= 1e-15
    assert np.abs(quat._compose(u, w) - m).max() <= 1e-15
    assert np.abs(quat._compose(su, sw) - m).max() <= 1e-15
    # each row is the scalar formula's, bit for bit
    for k in range(len(m)):
        fu, fw = _formula_decomposition(m[k])
        assert np.array_equal(u[k], fu.as_array()) and np.array_equal(w[k], fw.as_array())


def _reference_quaternion_suite(seed: int, trials: int) -> list[CheckRecord]:
    """The scalar loop form of verify.quaternion_suite: one Quaternion
    product at a time, each trial's draws by the rule of drawn_row."""
    records = []

    rng = rng_for(seed, 101)
    dev = 0.0
    for _ in range(trials):
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

    def rotation_draw(row):
        if not (unit_draw(row[:4]) and unit_draw(row[7:])):
            return False
        axis = Quaternion.from_array(row[:4]).normalized().as_array()[1:]
        return axis @ axis >= 1e-4

    rng, redraw = rng_for(seed, 103), rng_for(seed, 103, 2)
    dev = 0.0
    for _ in range(trials):
        row = drawn_row(rng, redraw, 11, rotation_draw)
        q = Quaternion.from_array(row[:4]).normalized()
        v = ImaginaryVector(*row[4:7])
        rotated = _rotated(q, v)
        dev = max(dev, abs(rotated.length() - v.length()) / (1.0 + v.length()))
        axis = _axis(q)
        fixed = _rotated(q, axis)
        dev = max(dev, float(np.abs(np.array([fixed.x - axis.x, fixed.y - axis.y,
                                              fixed.z - axis.z])).max()))
        q2 = Quaternion.from_array(row[7:]).normalized()
        twice = _rotated(q2, rotated)
        once = _rotated((q2 * q).normalized(), v)
        dev = max(dev, float(np.abs(np.array([twice.x - once.x, twice.y - once.y,
                                              twice.z - once.z])).max()))
    records.append(CheckRecord(
        "rotation_geometry", "conjugation rotates the imaginary 3-space",
        dev <= 1e-12, dev))

    rng, redraw = rng_for(seed, 104), rng_for(seed, 104, 2)
    dev = 0.0
    basis = (quat.ONE, quat.I, quat.J, quat.K)
    for trial in range(trials):
        row = drawn_row(rng, redraw, 8, lambda r: unit_draw(r[:4]))
        u = Quaternion.from_array(row[:4]).normalized()
        qs = basis if trial < 4 else (Quaternion.from_array(row[4:]),)
        m = _su2_matrix(u)
        for q in qs:
            lhs = q * u.conj()
            pair = quat.extract_qubit(q)
            vec = m @ np.array([pair.a, pair.b])
            rhs = quat.embed_qubit(ComplexPair(vec[0], vec[1]))
            dev = max(dev, float(np.abs((lhs - rhs).as_array()).max()))
    records.append(CheckRecord(
        "su2_right_action_matrix",
        "right multiplication equals the 2x2 unitary on the amplitude pair",
        dev <= 1e-12, dev))

    rng, redraw = rng_for(seed, 105), rng_for(seed, 105, 2)
    phases = rng_for(seed, 105, 1)
    dev_phase = dev_equi = dev_shape = 0.0
    for _ in range(trials):
        row = drawn_row(rng, redraw, 8, lambda r: Quaternion.from_array(
            r[:4]).norm() >= 1e-3 and unit_draw(r[4:]))
        q = Quaternion.from_array(row[:4])
        phi = phases.uniform(0.0, 2.0 * np.pi)
        u = Quaternion.from_array(row[4:]).normalized()
        v = _projected(q)
        dev_shape = max(dev_shape, abs(v.length() - 1.0))
        v_phase = _projected(_left_phase(phi) * q)
        dev_phase = max(dev_phase, float(np.abs(np.array(
            [v_phase.x - v.x, v_phase.y - v.y, v_phase.z - v.z])).max()))
        v_act = _projected(q * u.conj())
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
    # each trial draws one row: its matrix, real parts then imaginary, then
    # its q; the first 16 trials take the canonical matrices instead
    for trial in range(trials):
        row = rng.standard_normal(12)
        m = canonical[trial] if trial < 16 else (row[:4] + 1j * row[4:8]).reshape(2, 2)
        u, w = _formula_decomposition(m)
        composed = []
        for e in (quat.ONE, quat.J):
            pair = quat.extract_qubit(e * u + quat.I * (e * w))
            composed.append([pair.a, pair.b])
        dev = max(dev, float(np.abs(np.array(composed).T - m).max()))
        q = Quaternion.from_array(row[8:])
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


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [0, 1, 4, 5, 1000])
def test_quaternion_suite_matches_the_loop_reference(seed, trials):
    # trials below 5 end inside the su2 check's basis-quaternion branch;
    # every verdict, witness and deviation is exactly that of the loop
    if trials == 0:     # rejected before any draw; the loop has no such run
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify.quaternion_suite(seed, trials)
        return
    assert verify.quaternion_suite(seed, trials) \
        == _reference_quaternion_suite(seed, trials)


@pytest.mark.parametrize(("block", "trials"), [(3, 10), (64, 200)])
def test_blocked_quaternion_suite_matches_the_loop_reference(block, trials,
                                                              monkeypatch):
    # many blocks: each draws its trials in order, the su2 basis branch
    # follows the trial index across block boundaries, and the records are
    # those of the default block at every block size
    default = verify.quaternion_suite(7, trials)
    assert default == _reference_quaternion_suite(7, trials)
    for size in sorted({block, 3, 7}):
        monkeypatch.setattr(verify, "_BLOCK", size)
        assert verify.quaternion_suite(7, trials) == default


def test_a_rejected_row_is_redrawn_in_trial_order_until_it_passes():
    rng = np.random.default_rng(5)
    block, redraws = rng.standard_normal((5, 8)), rng.standard_normal((3, 8))
    block[:, 4] = redraws[:, 4] = 0.5
    block[1, :4] = 1e-9         # a unit group of norm at most UNIT_FLOOR
    block[3, 4] = -0.5          # refused by keep
    redraws[0, :4] = 1e-9       # so the first redraw fails too
    normals, redraw = FixedDraws(block), FixedDraws(redraws)
    rows = verify._normal_rows(normals, redraw, 5, 8, (0,), lambda r: r[:, 4] > 0)
    assert redraw.drawn == 3 * 8
    # trial 1 takes the second redraw, trial 3 the third; every other row is
    # the block's own, its unit group normalized as Quaternion.normalized does
    for k, want in enumerate([block[0], redraws[1], block[2], redraws[2], block[4]]):
        unit = Quaternion.from_array(want[:4]).normalized().as_array()
        assert np.array_equal(rows[k], np.concatenate([unit, want[4:]]))


# positions in the standard normals of each stream that make a rule fire:
# stream 103, q of trial 2 (norm at most 1e-6) and the axis of q in trial 5
# (squared length below 1e-4), and q2 of the first redraw, which is redrawn
# again; stream 104, u of trials 1 and 6; stream 105, q of trial 3 (norm
# below 1e-3) and u of trial 4
TINY = {(103,): [*range(22, 26), 56, 57, 58], (103, 2): range(7, 11),
        (104,): [*range(8, 12), *range(48, 52)],
        (105,): [*range(24, 28), *range(36, 40)]}


@pytest.mark.parametrize("block", [512, 3])
def test_a_redrawn_row_comes_from_the_redraw_stream(block, monkeypatch):
    made = {}
    monkeypatch.setattr(verify, "_BLOCK", block)
    monkeypatch.setattr(verify, "rng_for", tiny_streams(TINY, made))
    got = verify.quaternion_suite(0, 40)
    drawn = {s: g.drawn for s, g in made.items()}
    monkeypatch.setitem(globals(), "rng_for", tiny_streams(TINY, made))
    assert got == _reference_quaternion_suite(0, 40)
    assert drawn == {s: g.drawn for s, g in made.items()}
    # each trial draws one row; each redraw takes whole rows of its own stream
    assert [drawn[(s,)] for s in (103, 104, 105)] == [40 * 11, 40 * 8, 40 * 8]
    assert [drawn[(s, 2)] for s in (103, 104, 105)] == [3 * 11, 2 * 8, 2 * 8]
    assert drawn[(105, 1)] == 40
    assert drawn[(106,)] == 40 * 12


def test_the_hopf_checks_run_exactly_their_trial_count(monkeypatch):
    made, rows = {}, []
    monkeypatch.setattr(verify, "rng_for", tiny_streams(TINY, made))
    original = quat._hopf
    monkeypatch.setattr(quat, "_hopf", lambda q: rows.append(len(q)) or original(q))
    records = {r.check_id: r for r in verify.quaternion_suite(0, 40)}
    # q of trial 3 is redrawn, not skipped: three projections of every trial
    assert sum(rows) == 3 * 40
    assert records["hopf_phase_invariance"].passed
    assert records["hopf_equivariance"].passed
