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

from conftest import FixedDraws, _close, drawn_row, tiny_streams, unit_draw

finite = st.floats(min_value=-10, max_value=10,
                   allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quaternions = quaternions.filter(lambda q: q.norm() > 0.1)
unit_quaternions = nonzero_quaternions.map(lambda q: q.normalized())


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

def test_rotate_examples():
    v = ImaginaryVector(1, 0, 0)
    assert _close(quat.rotate_vector(ONE, v), v)
    assert _close(quat.rotate_vector(K, v), ImaginaryVector(-1, 0, 0))
    half = Quaternion(1, 0, 0, 1).normalized()
    assert _close(quat.rotate_vector(half, v), ImaginaryVector(0, 1, 0))


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
    assert _close(quat.rotate_vector(q, axis), axis, tol=1e-10)


@given(unit_quaternions, unit_quaternions, st.tuples(finite, finite, finite))
def test_rotation_composition(q1, q2, xyz):
    v = ImaginaryVector(*xyz)
    twice = quat.rotate_vector(q2, quat.rotate_vector(q1, v))
    once = quat.rotate_vector((q2 * q1).normalized(), v)
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
    lhs = quat.exp_phase(phi) * quat.embed_qubit(pair)
    scale = complex(math.cos(phi), math.sin(phi))
    rhs = quat.embed_qubit(ComplexPair(scale * pair.a, scale * pair.b))
    assert _close(lhs, rhs)


# --- SU(2) right action -------------------------------------------------

def test_su2_examples():
    q = Quaternion(0.3, 0.1, -0.7, 0.2)
    assert _close(quat.su2_right_action(q, ONE), q)
    assert _close(quat.su2_right_action(ONE, J), -J)
    assert np.allclose(quat.su2_matrix(J) @ np.array([1, 0]), [0, -1])
    assert _close(quat.su2_right_action(J, J), ONE)
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
    assert _close(lhs, rhs)


@given(quaternions, unit_quaternions)
def test_su2_action_preserves_norm(q, u):
    assert abs(quat.su2_right_action(q, u).norm() - q.norm()) \
        <= 1e-12 * (1 + q.norm())


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


# --- Hopf projection ------------------------------------------------------

def test_hopf_examples():
    assert _close(quat.hopf_project(ONE), ImaginaryVector(1, 0, 0))
    assert _close(quat.hopf_project(J), ImaginaryVector(-1, 0, 0))
    phased = quat.exp_phase(0.7) * ONE
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
    assert _close(quat.hopf_project(quat.exp_phase(phi) * q),
                  quat.hopf_project(q), tol=1e-10)


@given(nonzero_quaternions, unit_quaternions)
def test_hopf_equivariance(q, u):
    lhs = quat.hopf_project(q * u.conj())
    rhs = u * quat.hopf_project(q).to_quaternion() * u.conj()
    assert _close(lhs.to_quaternion(), rhs, tol=1e-10)


# --- matrix decomposition -------------------------------------------------

def test_decompose_trivial_cases():
    u, w = quat.decompose_matrix(np.eye(2))
    assert _close(u, ONE) and _close(w, Quaternion(0, 0, 0, 0))
    u, w = quat.decompose_matrix(1j * np.eye(2))
    assert _close(u, Quaternion(0, 0, 0, 0)) and _close(w, ONE)


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
        assert _close(lhs, rhs, tol=1e-10)


def test_decompose_rejects_bad_shape():
    with pytest.raises(ValueError):
        quat.decompose_matrix(np.eye(3))


@settings(max_examples=50)
@given(st.lists(finite, min_size=8, max_size=8))
def test_decompose_compose_identity(entries):
    m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    u, w = quat.decompose_matrix(m)
    assert np.abs(quat.compose_matrix(u, w) - m).max() <= 1e-10


# --- non-finite input -----------------------------------------------------

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("call", [
    Quaternion.normalized, quat.hopf_project, quat.rotation_axis,
], ids=["normalized", "hopf_project", "rotation_axis"])
def test_non_finite_quaternion_is_rejected(call, slot, bad):
    parts = [0.5, -1.0, 2.0, 0.25]
    parts[slot] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            call(Quaternion(*parts))


@pytest.mark.parametrize("call, q", [
    (Quaternion.normalized, Quaternion(1e300, 1e300, 0, 0)),
    (quat.rotation_axis, Quaternion(0, 1e300, 1e300, 0)),
    (quat.hopf_project, Quaternion(1e300, 1e300, 0, 0)),
], ids=["normalized", "rotation_axis", "hopf_project"])
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
    length = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    assert quat.rotation_axis(q) == ImaginaryVector(q.x / length, q.y / length,
                                                    q.z / length)
    assert quat.hopf_project(q).length() == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan),
                                 complex(-math.inf, 1.0)])
@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_decompose_rejects_non_finite_entries(entry, bad):
    m = np.array([[1.0, 2.0j], [-0.5, 1.0 + 1.0j]])
    m[entry] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            quat.decompose_matrix(m)


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
    for k in range(len(pairs)):
        qa, qb = Quaternion.from_array(a[k]), Quaternion.from_array(b[k])
        assert np.array_equal(product[k], (qa * qb).as_array())
        assert np.array_equal(first[k], (Quaternion.from_array(a[0]) * qb).as_array())
        assert norm[k] == qa.norm()
        assert np.array_equal(conj[k], qa.conj().as_array())


# --- the verify suite against its loop reference ---------------------------


def _reference_quaternion_suite(seed: int, trials: int) -> list[CheckRecord]:
    """The scalar loop form of verify.quaternion_suite: one Quaternion
    product at a time, each trial's draws by the rule of drawn_row."""
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
        rotated = quat.rotate_vector(q, v)
        dev = max(dev, abs(rotated.length() - v.length()) / (1.0 + v.length()))
        axis = quat.rotation_axis(q)
        fixed = quat.rotate_vector(q, axis)
        dev = max(dev, float(np.abs(np.array([fixed.x - axis.x, fixed.y - axis.y,
                                              fixed.z - axis.z])).max()))
        q2 = Quaternion.from_array(row[7:]).normalized()
        twice = quat.rotate_vector(q2, rotated)
        once = quat.rotate_vector((q2 * q).normalized(), v)
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

    rng, redraw = rng_for(seed, 105), rng_for(seed, 105, 2)
    phases = rng_for(seed, 105, 1)
    dev_phase = dev_equi = dev_shape = 0.0
    for _ in range(trials):
        row = drawn_row(rng, redraw, 8, lambda r: Quaternion.from_array(
            r[:4]).norm() >= 1e-3 and unit_draw(r[4:]))
        q = Quaternion.from_array(row[:4])
        phi = phases.uniform(0.0, 2.0 * np.pi)
        u = Quaternion.from_array(row[4:]).normalized()
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


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [0, 1, 4, 5, 1000])
def test_quaternion_suite_matches_the_loop_reference(seed, trials):
    # trials below 5 end inside the su2 check's basis-quaternion branch;
    # every verdict, witness and deviation is exactly that of the loop
    assert verify.quaternion_suite(seed, trials) \
        == _reference_quaternion_suite(seed, trials)


@pytest.mark.parametrize(("block", "trials"), [(3, 10), (64, 200)])
def test_blocked_quaternion_suite_matches_the_loop_reference(block, trials,
                                                              monkeypatch):
    # many blocks: each draws its trials in order, the su2 basis branch and
    # the spot rows follow the trial index across block boundaries, and the
    # records are those of the default block at every block size
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


def test_the_hopf_checks_run_exactly_their_trial_count(monkeypatch):
    made, rows = {}, []
    monkeypatch.setattr(verify, "rng_for", tiny_streams(TINY, made))
    original = verify._hopf
    monkeypatch.setattr(verify, "_hopf", lambda q: rows.append(len(q)) or original(q))
    records = {r.check_id: r for r in verify.quaternion_suite(0, 40)}
    # q of trial 3 is redrawn, not skipped: three projections of every trial
    assert sum(rows) == 3 * 40
    assert records["hopf_phase_invariance"].passed
    assert records["hopf_equivariance"].passed
