import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import quaternion as quat
from hqec.quaternion import (
    I,
    J,
    K,
    ONE,
    ComplexPair,
    ImaginaryVector,
    Quaternion,
)

finite = st.floats(min_value=-10, max_value=10,
                   allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quaternions = quaternions.filter(lambda q: q.norm() > 0.1)
unit_quaternions = nonzero_quaternions.map(lambda q: q.normalized())


# --- multiplication table ---------------------------------------------------

def test_unit_table():
    assert (I * J).isclose(K)
    assert (J * K).isclose(I)
    assert (K * I).isclose(J)
    assert (J * I).isclose(-K)
    for u in (I, J, K):
        assert (u * u).isclose(-ONE)


def test_one_is_identity():
    q = Quaternion(0.3, -1.2, 4.0, 0.5)
    assert (ONE * q).isclose(q)
    assert (q * ONE).isclose(q)


def test_bilinear_expansion():
    assert ((ONE + I) * (ONE + J)).isclose(Quaternion(1, 1, 1, 1))


@given(quaternions, quaternions)
def test_norm_multiplicative(q, h):
    assert abs(q.norm() * h.norm() - (q * h).norm()) \
        <= 1e-12 * (1.0 + q.norm() * h.norm())


@given(quaternions, quaternions, quaternions)
def test_associativity(q, u, v):
    assert ((q * u) * v).isclose(q * (u * v), tol=1e-12)


# --- conjugation and inverse ------------------------------------------------

def test_conj_examples():
    assert I.conj().isclose(-I)
    assert (2 * ONE).inverse().isclose(Quaternion(0.5, 0, 0, 0))
    assert (I * J).conj().isclose(J.conj() * I.conj())
    assert (I * J).conj().isclose(-K)


@given(quaternions, quaternions)
def test_conj_antiautomorphism(q, u):
    assert (q * u).conj().isclose(u.conj() * q.conj())


@given(quaternions)
def test_conj_gives_norm(q):
    p = q * q.conj()
    assert abs(p.w - q.norm_sq()) <= 1e-12 * (1 + q.norm_sq())
    assert abs(p.x) + abs(p.y) + abs(p.z) <= 1e-12 * (1 + q.norm_sq())


@given(nonzero_quaternions)
def test_inverse(q):
    assert (q * q.inverse()).isclose(ONE)


def test_inverse_of_zero_rejected():
    with pytest.raises(ValueError):
        Quaternion(0, 0, 0, 0).inverse()
    with pytest.raises(ValueError):
        Quaternion(1e-14, 0, 0, 0).inverse()


# --- rotations ----------------------------------------------------------

def test_rotate_examples():
    v = ImaginaryVector(1, 0, 0)
    assert quat.rotate_vector(ONE, v).isclose(v)
    assert quat.rotate_vector(K, v).isclose(ImaginaryVector(-1, 0, 0))
    half = Quaternion(1, 0, 0, 1).normalized()
    assert quat.rotate_vector(half, v).isclose(ImaginaryVector(0, 1, 0))


def test_rotate_rejects_non_unit():
    with pytest.raises(ValueError):
        quat.rotate_vector(Quaternion(2, 0, 0, 0), ImaginaryVector(1, 0, 0))


@given(unit_quaternions, st.tuples(finite, finite, finite))
def test_rotation_preserves_length(q, xyz):
    v = ImaginaryVector(*xyz)
    assert abs(quat.rotate_vector(q, v).length() - v.length()) \
        <= 1e-12 * (1 + v.length())


@given(unit_quaternions)
def test_rotation_fixes_axis(q):
    if q.as_array()[1:] @ q.as_array()[1:] < 1e-6:
        return
    axis = quat.rotation_axis(q)
    assert quat.rotate_vector(q, axis).isclose(axis, tol=1e-10)


@given(unit_quaternions, unit_quaternions, st.tuples(finite, finite, finite))
def test_rotation_composition(q1, q2, xyz):
    v = ImaginaryVector(*xyz)
    twice = quat.rotate_vector(q2, quat.rotate_vector(q1, v))
    once = quat.rotate_vector((q2 * q1).normalized(), v)
    assert twice.isclose(once, tol=1e-10)


def test_imaginary_vector_rejects_scalar_part():
    with pytest.raises(ValueError):
        ImaginaryVector.from_quaternion(Quaternion(1, 1, 0, 0))


# --- qubit embedding ----------------------------------------------------

def test_embed_examples():
    assert quat.embed_qubit(ComplexPair(1, 0)).isclose(ONE)
    assert quat.embed_qubit(ComplexPair(0, 1)).isclose(J)
    assert quat.embed_qubit(ComplexPair(1j, 1j)).isclose(I + K)


@given(st.tuples(finite, finite, finite, finite))
def test_embed_extract_roundtrip(parts):
    pair = ComplexPair(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    assert quat.extract_qubit(quat.embed_qubit(pair)).isclose(pair)


@given(st.tuples(finite, finite, finite, finite),
       st.floats(min_value=0, max_value=7, allow_nan=False))
def test_left_phase_is_complex_phase(parts, phi):
    pair = ComplexPair(complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    lhs = quat.exp_phase(phi) * quat.embed_qubit(pair)
    scale = complex(math.cos(phi), math.sin(phi))
    rhs = quat.embed_qubit(ComplexPair(scale * pair.a, scale * pair.b))
    assert lhs.isclose(rhs)


# --- SU(2) right action -------------------------------------------------

def test_su2_examples():
    q = Quaternion(0.3, 0.1, -0.7, 0.2)
    assert quat.su2_right_action(q, ONE).isclose(q)
    assert quat.su2_right_action(ONE, J).isclose(-J)
    assert np.allclose(quat.su2_matrix(J) @ np.array([1, 0]), [0, -1])
    assert quat.su2_right_action(J, J).isclose(ONE)
    assert np.allclose(quat.su2_matrix(J) @ np.array([0, 1]), [1, 0])


def test_su2_rejects_non_unit():
    with pytest.raises(ValueError):
        quat.su2_right_action(ONE, Quaternion(1, 1, 0, 0))


@given(quaternions, unit_quaternions)
def test_su2_action_matches_matrix(q, u):
    lhs = quat.su2_right_action(q, u)
    pair = quat.extract_qubit(q)
    vec = quat.su2_matrix(u) @ np.array([pair.a, pair.b])
    rhs = quat.embed_qubit(ComplexPair(vec[0], vec[1]))
    assert lhs.isclose(rhs, tol=1e-12)


@given(quaternions, unit_quaternions)
def test_su2_action_preserves_norm(q, u):
    assert abs(quat.su2_right_action(q, u).norm() - q.norm()) \
        <= 1e-12 * (1 + q.norm())


# --- Pauli sandwich actions ----------------------------------------------

def test_pauli_sandwich_values():
    assert quat.pauli_action("x", ONE).isclose(-ONE)      # i*1*i
    assert quat.pauli_action("z", I).isclose(-K)          # i*i*k
    assert quat.pauli_action("y", ONE).isclose(K)         # i*1*j
    with pytest.raises(ValueError):
        quat.pauli_action("w", ONE)


def test_pauli_classification():
    # Derived correspondence: the sandwich labeled x acts as -sigma_z, the
    # one labeled z as -sigma_x, and the y sandwich is exactly sigma_y.
    expected = {"x": ("z", -1 + 0j), "y": ("y", 1 + 0j), "z": ("x", -1 + 0j)}
    for axis, (target, phase) in expected.items():
        cls = quat.classify_pauli_action(axis)
        assert cls.target == target
        assert abs(cls.phase - phase) <= 1e-12
        assert cls.max_deviation <= 1e-12


def test_pauli_classification_stable():
    first = [quat.classify_pauli_action(a) for a in "xyz"]
    second = [quat.classify_pauli_action(a) for a in "xyz"]
    assert first == second


# --- Hopf projection ------------------------------------------------------

def test_hopf_examples():
    assert quat.hopf_project(ONE).isclose(ImaginaryVector(1, 0, 0))
    assert quat.hopf_project(J).isclose(ImaginaryVector(-1, 0, 0))
    phased = quat.exp_phase(0.7) * ONE
    assert quat.hopf_project(phased).isclose(ImaginaryVector(1, 0, 0))


def test_hopf_rejects_zero():
    with pytest.raises(ValueError):
        quat.hopf_project(Quaternion(0, 0, 0, 0))


@given(nonzero_quaternions)
def test_hopf_image_on_sphere(q):
    v = quat.hopf_project(q)
    assert abs(v.length() - 1.0) <= 1e-10


@given(nonzero_quaternions, st.floats(min_value=0, max_value=7, allow_nan=False))
def test_hopf_phase_invariance(q, phi):
    assert quat.hopf_project(quat.exp_phase(phi) * q).isclose(
        quat.hopf_project(q), tol=1e-10)


@given(nonzero_quaternions, unit_quaternions)
def test_hopf_equivariance(q, u):
    lhs = quat.hopf_project(q * u.conj())
    rhs = u * quat.hopf_project(q).to_quaternion() * u.conj()
    assert lhs.to_quaternion().isclose(rhs, tol=1e-10)


# --- matrix decomposition -------------------------------------------------

def test_decompose_trivial_cases():
    u, w = quat.decompose_matrix(np.eye(2))
    assert u.isclose(ONE) and w.isclose(Quaternion(0, 0, 0, 0))
    u, w = quat.decompose_matrix(1j * np.eye(2))
    assert u.isclose(Quaternion(0, 0, 0, 0)) and w.isclose(ONE)


def test_decompose_sigma_x_roundtrip():
    sx = quat.PAULI_MATRICES["x"]
    u, w = quat.decompose_matrix(sx)
    assert np.abs(quat.compose_matrix(u, w) - sx).max() <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = Quaternion.from_array(rng.standard_normal(4))
        pair = quat.extract_qubit(q)
        vec = sx @ np.array([pair.a, pair.b])
        lhs = quat.embed_qubit(ComplexPair(vec[0], vec[1]))
        rhs = q * u + I * (q * w)
        assert lhs.isclose(rhs, tol=1e-10)


def test_decompose_rejects_bad_shape():
    with pytest.raises(ValueError):
        quat.decompose_matrix(np.eye(3))


@settings(max_examples=50)
@given(st.lists(finite, min_size=8, max_size=8))
def test_decompose_compose_identity(entries):
    m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    u, w = quat.decompose_matrix(m)
    assert np.abs(quat.compose_matrix(u, w) - m).max() <= 1e-10
