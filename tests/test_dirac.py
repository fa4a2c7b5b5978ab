import dataclasses
import functools

import numpy as np
import pytest

from hqec import cli, dirac, verify
from hqec import quaternion as quat
from hqec.dirac import (
    ErrorRotor,
    GammaSet,
    MajoranaSpinor,
    build_gammas_standard,
    build_majorana_transform,
    check_basis_images,
    check_majorana_bilinears,
    classify_unit_correspondences,
    clifford_check,
    error_generators,
    majorana_set,
    quaternion_correspondence,
    transform_basis,
)
from hqec.linalg import is_isometry
from hqec.quaternion import Quaternion
from hqec.report import CheckRecord
from hqec.sampling import (
    random_unit_quaternion,
    random_unitary,
    rng_for,
)

from conftest import _close, drawn_row, one_ulp_up, tiny_streams, unit_draw

SX = quat.PAULI_MATRICES["x"]
SY = quat.PAULI_MATRICES["y"]
SZ = quat.PAULI_MATRICES["z"]


def _diag_blocks(b):
    z = np.zeros((2, 2))
    return np.block([[b, z], [z, b]])


# --- construction and algebra ----------------------------------------------

def test_gamma0_swaps_halves():
    g = build_gammas_standard()
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.array_equal(g.g0, expected)


def test_gamma5_diagonal():
    g = build_gammas_standard()
    assert np.array_equal(g.g5, np.diag([-1.0, -1.0, 1.0, 1.0]))


def test_gamma0_squares_to_identity():
    g = build_gammas_standard()
    assert np.array_equal(g.g0 @ g.g0, np.eye(4))


def test_clifford_standard_exact():
    report = clifford_check(build_gammas_standard())
    assert report.passed
    assert report.max_deviation == 0.0


def test_clifford_detects_violation():
    g = build_gammas_standard()
    broken = GammaSet(g.g0, g.g0, g.g2, g.g3, g.g5)
    report = clifford_check(broken)
    assert not report.passed
    assert any("g1" in f for f in report.failures)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clifford_rejects_a_non_finite_set(bad):
    # every deviation test would pass a NaN, so the check refuses the set
    g = build_gammas_standard()
    g1 = g.g1.copy()
    g1[1, 2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        clifford_check(GammaSet(g.g0, g1, g.g2, g.g3, g.g5))


def test_clifford_invariant_under_random_unitaries():
    g = build_gammas_standard()
    rng = rng_for(0, 7)
    for _ in range(20):
        u = random_unitary(4, rng)
        report = clifford_check(transform_basis(g, u))
        assert report.passed
        assert report.max_deviation <= 1e-12


def test_transform_identity_and_rejection():
    g = build_gammas_standard()
    same = transform_basis(g, np.eye(4))
    assert np.array_equal(same.g1, g.g1)
    with pytest.raises(ValueError):
        transform_basis(g, np.diag([1.0, 2.0, 1.0, 1.0]))


# --- the real-basis transform -------------------------------------------

def test_majorana_transform_matches_reference_exactly():
    um = build_majorana_transform(build_gammas_standard())
    assert np.array_equal(um, dirac.MAJORANA_TRANSFORM_REFERENCE)
    assert um[0, 1] == (1 + 1j) / 2


def test_majorana_transform_unitary():
    um = build_majorana_transform(build_gammas_standard())
    assert np.abs(um @ um.conj().T - np.eye(4)).max() <= 1e-14


def test_g2_invariant_under_transform():
    g = build_gammas_standard()
    gm = majorana_set(g)
    assert np.abs(gm.g2 - g.g2).max() <= 1e-15


def test_basis_image_signs():
    # Derived classification: each image matches its reference target only
    # after flipping the imaginary coefficient, except the invariant g2.
    g = build_gammas_standard()
    matches = check_basis_images(g, build_majorana_transform(g))
    assert {k: v.sign for k, v in matches.items()} == {
        "g0": -1, "g1": -1, "g2": 1, "g3": -1, "g5": -1}
    assert all(v.deviation <= 1e-13 for v in matches.values())
    assert matches["g2"].matches_reference


def test_majorana_condition_i_gamma_real():
    gm = majorana_set()
    for m in (gm.g0, gm.g1, gm.g2, gm.g3):
        assert np.abs((1j * m).imag).max() <= 1e-14


# --- error generators ----------------------------------------------------

def test_standard_bilinears_block_forms():
    # Derived block forms: gamma2 gamma3 = -i(sx + sx) and cyclic partners.
    g = build_gammas_standard()
    assert np.abs(g.g2 @ g.g3 - (-1j) * _diag_blocks(SX)).max() == 0.0
    assert np.abs(g.g3 @ g.g1 - (-1j) * _diag_blocks(SY)).max() == 0.0
    assert np.abs(g.g1 @ g.g2 - (-1j) * _diag_blocks(SZ)).max() == 0.0


def test_majorana_generators_real_and_closed():
    gm = majorana_set()
    e1, e2, e3 = error_generators(gm)
    for e in (e1, e2, e3):
        assert np.abs(e.imag).max() <= 1e-14
    assert np.abs(e1 @ e2 - e3).max() <= 1e-14


def test_majorana_bilinear_signs():
    matches = check_majorana_bilinears(majorana_set())
    assert {k: v.sign for k, v in matches.items()} == {
        "g2g3": -1, "g3g1": 1, "g1g2": -1}
    assert matches["g3g1"].matches_reference


# --- chi preservation -----------------------------------------------------

def _chi(psi):
    """chi = (xi - eta)/sqrt(2) of a Dirac spinor (xi upper, eta lower pair)."""
    return (psi[:2] - psi[2:]) / np.sqrt(2.0)


def test_chi_preserved_for_rest_spinor():
    # the bilinears are block diagonal with equal blocks, so they act on xi
    # and eta alike and keep the Majorana condition chi = 0
    g = build_gammas_standard()
    bilinears = (g.g2 @ g.g3, g.g3 @ g.g1, g.g1 @ g.g2)
    psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    assert np.abs(_chi(psi)).max() <= 1e-15
    rng = rng_for(1, 8)
    for _ in range(20):
        rotor = ErrorRotor(*rng.standard_normal(4))
        out = rotor.matrix(bilinears) @ psi
        assert np.linalg.norm(_chi(out)) <= 1e-11


def test_chi_identity_rotor():
    psi = np.array([0.3, -0.2, 0.3, -0.2], dtype=complex)
    g = build_gammas_standard()
    rotor = ErrorRotor(1.0, 0.0, 0.0, 0.0)
    out = rotor.matrix((g.g2 @ g.g3, g.g3 @ g.g1, g.g1 @ g.g2)) @ psi
    assert np.abs(out - psi).max() <= 1e-15


# --- quaternion correspondence ---------------------------------------------

def test_unit_sign_classification():
    gm = majorana_set()
    signs = classify_unit_correspondences(error_generators(gm))
    assert signs == {"i": 1, "j": -1, "k": 1}


def test_correspondence_j_unit_matches_reference():
    # The j direction realizes the reference identity q*j = -E2 Psi_q.
    gm = majorana_set()
    rotor = ErrorRotor(0.0, 0.0, 1.0, 0.0)
    for q in (quat.ONE, quat.I, quat.J, quat.K, quat.Quaternion(1, -2, 0.5, 3)):
        rep = quaternion_correspondence(rotor, q, gm)
        assert rep.passed
        assert rep.max_deviation <= 1e-12


def test_correspondence_builds_the_generators_once_per_set(monkeypatch):
    from hqec import verify

    built = []
    build = dirac.error_generators

    def counting(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(dirac, "error_generators", counting)
    # 1,017 correspondence checks on one gamma set, which the suite also
    # hands to error_generators once itself
    verify.dirac_suite(0, 1000)
    assert len(built) <= 2


def test_correspondence_i_unit_flips_sign():
    gm = majorana_set()
    rotor = ErrorRotor(0.0, 1.0, 0.0, 0.0)
    rep = quaternion_correspondence(rotor, quat.ONE, gm)
    assert not rep.passed
    # reference claims 1*conj(i) = -i; the generator realizes +i instead
    assert np.allclose(rep.rhs, [0, -1, 0, 0])
    assert np.allclose(rep.lhs, [0, 1, 0, 0])


def test_non_real_basis_is_rejected():
    # the standard basis's generators are imaginary, so no real spinor map exists
    g = build_gammas_standard()
    rotor = ErrorRotor(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="generator triple is not real"):
        quaternion_correspondence(rotor, quat.ONE, g)


def test_verify_dirac_classifies_the_unit_signs_once(monkeypatch, capsys):
    # the signs depend only on the gamma set, never on a rotor or quaternion
    calls = []
    classify = dirac.classify_unit_correspondences

    def counted(generators):
        calls.append(1)
        return classify(generators)

    monkeypatch.setattr(dirac, "classify_unit_correspondences", counted)
    assert cli.main(["verify", "dirac", "--trials", "1000"]) == 1
    assert "unit signs found" in capsys.readouterr().out
    assert len(calls) == 1


def test_derived_correspondence_via_unit_signs():
    # With the generator triple as built, the rotor acts as right
    # multiplication by e0 + e1*i - e2*j + e3*k; verified against the
    # quaternion product as the oracle.
    gm = majorana_set()
    gens = error_generators(gm)
    rng = rng_for(2, 9)
    for _ in range(200):
        e = rng.standard_normal(4)
        q = quat.Quaternion.from_array(rng.standard_normal(4))
        rotor = ErrorRotor(*e)
        lhs = (rotor.matrix(gens) @ q.as_array()).real
        rhs = (q * quat.Quaternion(e[0], e[1], -e[2], e[3])).as_array()
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_unit_rotor_is_isometry():
    gm = majorana_set()
    gens = error_generators(gm)
    rng = rng_for(3, 10)
    for _ in range(50):
        e = random_unit_quaternion(rng)
        assert abs(e.norm_sq() - 1.0) <= 1e-12
        rotor = ErrorRotor(e.w, e.x, e.y, e.z)
        assert is_isometry(rotor.matrix(gens).real).passed


# --- real-subspace invariance ------------------------------------------------

def _real_rotor_matrix(rotor):
    """The rotor in the Majorana basis, whose generator triple is real."""
    mat = rotor.matrix(error_generators(majorana_set()))
    assert np.abs(mat.imag).max() <= 1e-14
    return mat.real


def test_real_input_stays_real():
    rng = rng_for(4, 11)
    rotor = ErrorRotor(*rng.standard_normal(4))
    s = rng.standard_normal(4).astype(complex)
    out = _real_rotor_matrix(rotor) @ s
    assert np.abs(out.imag).max() <= 1e-14


def test_imaginary_input_stays_imaginary():
    rng = rng_for(5, 12)
    rotor = ErrorRotor(*rng.standard_normal(4))
    s = 1j * rng.standard_normal(4)
    gm = majorana_set()
    out = rotor.matrix(error_generators(gm)).real @ s
    assert np.abs(out.real).max() <= 1e-14


def test_parts_transform_independently():
    rng = rng_for(6, 13)
    for _ in range(20):
        rotor = ErrorRotor(*rng.standard_normal(4))
        s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mat = _real_rotor_matrix(rotor)
        split = mat @ s.real + 1j * (mat @ s.imag)
        assert np.abs(mat @ s - split).max() <= 1e-12


# --- spinor containers ----------------------------------------------------

def test_majorana_spinor_roundtrip():
    q = quat.Quaternion(1, -2, 3, -4)
    m = MajoranaSpinor.from_quaternion(q)
    assert _close(quat.Quaternion.from_array(m.components), q)
    with pytest.raises(ValueError):
        MajoranaSpinor(np.array([1j, 0, 0, 0]))


# --- the suite against its loop form ----------------------------------------

def _reference_dirac_suite(seed: int, trials: int) -> list[CheckRecord]:
    """The scalar loop form of verify.dirac_suite: one trial at a time
    through the public functions, each trial's draws by the rule of
    drawn_row."""
    records = []
    gs = dirac.build_gammas_standard()
    gm = dirac.majorana_set(gs)

    rep = dirac.clifford_check(gs)
    records.append(CheckRecord(
        "clifford_standard", "anticommutators and squares in the block basis",
        rep.passed, rep.max_deviation))

    rng = rng_for(seed, 401)
    reps = [dirac.clifford_check(gm)] + [
        dirac.clifford_check(dirac.transform_basis(gs, random_unitary(4, rng)))
        for _ in range(100)]
    records.append(CheckRecord(
        "clifford_transformed",
        "the defining relations survive arbitrary unitary basis changes",
        all(r.passed for r in reps), max(r.max_deviation for r in reps)))

    um = dirac.build_majorana_transform(gs)
    dev_ref = float(np.abs(um - dirac.MAJORANA_TRANSFORM_REFERENCE).max())
    dev_unitary = is_isometry(um).max_deviation
    records.append(CheckRecord(
        "majorana_transform_matrix",
        "the product formula reproduces the reference matrix and is unitary",
        dev_ref <= verify.TOL_TRANSFORM_REFERENCE
        and dev_unitary <= verify.TOL_TRANSFORM_UNITARY,
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
        dev <= verify.TOL_GENERATORS_REAL, dev))

    bil = dirac.check_majorana_bilinears(gm)
    signs = {k: v.sign for k, v in bil.items()}
    records.append(CheckRecord(
        "generator_sign_patterns",
        "transformed bilinears match the reference +-1 patterns",
        all(v.matches_reference for v in bil.values()),
        max(v.reference_deviation for v in bil.values()),
        f"signs found vs reference: {signs}"))

    rng, redraw = rng_for(seed, 402), rng_for(seed, 402, 2)
    dev = 0.0
    units = (Quaternion(1, 0, 0, 0), quat.I, quat.J, quat.K)
    rotors = [ErrorRotor(*(1.0 if i == k else 0.0 for i in range(4)))
              for k in range(4)]
    pairs = [(r, q) for r in rotors for q in units]
    for _ in range(trials):
        row = drawn_row(rng, redraw, 8, lambda r: unit_draw(r[:4]))
        e = Quaternion.from_array(row[:4]).normalized()
        pairs.append((ErrorRotor(e.w, e.x, e.y, e.z), Quaternion.from_array(row[4:])))
    for rotor, q in pairs:
        rep = quaternion_correspondence(rotor, q, gm)
        dev = max(dev, rep.max_deviation)
    unit_signs = classify_unit_correspondences(gens)
    records.append(CheckRecord(
        "rotor_correspondence",
        "rotor action equals right multiplication by the conjugate coefficient "
        "quaternion", dev <= dirac.TOL_IDENTITY, dev,
        f"unit signs found (reference -1 each): {unit_signs}"))

    rng, redraw = rng_for(seed, 403), rng_for(seed, 403, 2)
    dev = 0.0
    for _ in range(min(trials, 200)):
        e = Quaternion.from_array(drawn_row(rng, redraw, 4, unit_draw)).normalized()
        rotor = ErrorRotor(e.w, e.x, e.y, e.z)
        dev = max(dev, is_isometry(rotor.matrix(gens).real).max_deviation)
    records.append(CheckRecord(
        "rotor_isometry", "unit rotors act as isometries of R^4",
        dev <= dirac.TOL_IDENTITY, dev))
    return records


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [0, 1, 5, 60, 200, 1000])
def test_dirac_suite_matches_the_loop_reference(seed, trials):
    # every verdict, witness and deviation is exactly that of the loop,
    # rotor_correspondence's criterion-6 sign finding included
    assert verify.dirac_suite(seed, trials) == _reference_dirac_suite(seed, trials)


def test_blocked_dirac_suite_matches_the_loop_reference(monkeypatch):
    # many blocks: each draws its trials in order, the spot rows follow the
    # trial index across block boundaries, and the records are those of the
    # default block at every block size
    default = verify.dirac_suite(7, 100)
    assert default == _reference_dirac_suite(7, 100)
    for size in (3, 7):
        monkeypatch.setattr(verify, "_BLOCK", size)
        assert verify.dirac_suite(7, 100) == default


def test_a_redrawn_rotor_comes_from_the_redraw_stream(monkeypatch):
    # a tiny rotor in trial 2 of each rotor stream is drawn again, as a whole
    # row, from the stream's redraw sub-stream
    tiny = {(402,): range(16, 20), (403,): range(8, 12)}
    made = {}
    monkeypatch.setattr(verify, "rng_for", tiny_streams(tiny, made))
    got = verify.dirac_suite(0, 50)
    drawn = {s: g.drawn for s, g in made.items()}
    monkeypatch.setitem(globals(), "rng_for", tiny_streams(tiny, made))
    assert got == _reference_dirac_suite(0, 50)
    assert drawn == {s: g.drawn for s, g in made.items()}
    assert (drawn[(402,)], drawn[(402, 2)]) == (50 * 8, 8)
    assert (drawn[(403,)], drawn[(403, 2)]) == (50 * 4, 4)


DIRAC_DRIFT = {
    "transform_basis": lambda g: GammaSet(*map(one_ulp_up, g.all())),
    "clifford_check": lambda r: dataclasses.replace(
        r, max_deviation=one_ulp_up(r.max_deviation)),
    "is_isometry": lambda r: dataclasses.replace(
        r, max_deviation=one_ulp_up(r.max_deviation)),
    "quaternion_correspondence": lambda r: dataclasses.replace(
        r, lhs=one_ulp_up(r.lhs)),
}


@pytest.mark.parametrize(("name", "check_id"), [
    ("transform_basis", "clifford_transformed"),
    ("clifford_check", "clifford_transformed"),
    ("is_isometry", "rotor_isometry")])
def test_a_public_function_one_ulp_off_fails_its_check(name, check_id, monkeypatch):
    # the spot rows run through the public function, bit for bit, so one ulp
    # of drift fails the check although it is far inside the tolerance
    owner = verify if name == "is_isometry" else dirac
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: DIRAC_DRIFT[name](original(*args)))
    records = {r.check_id: r for r in verify.dirac_suite(0, 20)}
    assert not records[check_id].passed
    assert records[check_id].max_deviation < 1e-13


def test_a_drifting_correspondence_opens_a_spot_gap(monkeypatch):
    # rotor_correspondence fails anyway (criterion 6), so the drift shows in
    # the block's spot gap, which the record folds into its deviation
    gm = majorana_set()
    gens = error_generators(gm)

    def gap():
        check = functools.partial(verify._rotor_correspondence, gm, gens,
                                  rng_for(0, 402, 2))
        return verify._over_blocks(check, rng_for(0, 402), 20)[1]

    assert gap() == 0.0
    original = dirac.quaternion_correspondence
    monkeypatch.setattr(dirac, "quaternion_correspondence", lambda *args:
                        DIRAC_DRIFT["quaternion_correspondence"](original(*args)))
    assert 0.0 < gap() < 1e-14
