import math
import tracemalloc

import numpy as np
import pytest

from hqec import codes
from hqec import quaternion as quat
from hqec.codes import (
    CombinedError,
    ErrorFamily,
    ErrorSet,
    ErrorTerm,
    SynthesisError,
    build_b3_code,
    build_complex3_code,
    build_h3_code,
    build_r3_code,
    build_shor9_code,
    combined_draw,
    count_effective_errors,
    effective_error_basis,
    effective_representatives,
    identity_error,
    kl_check,
    kl_condition_deviation,
    pauli_error,
    phase_error_pi,
    phase_failure_demo,
    roundtrip,
    simulate,
    so2_error,
    su2_error,
    synthesize_correction,
)
from hqec.linalg import (
    FieldMismatchError,
    ScalarField,
    SiteOperator,
    StateVector,
    apply_site,
    basis_state,
    inner,
    is_isometry,
)
from hqec.sampling import random_coefficients, random_unit_quaternion, rng_for


def _pauli_singles(n_sites: int) -> ErrorSet:
    return ErrorSet(tuple(
        ErrorTerm(f"{axis.upper()}@{site}", pauli_error(axis, site))
        for site in range(n_sites) for axis in ("x", "y", "z")))


# --- code constructions ---------------------------------------------------

def test_r3_codewords():
    code = build_r3_code()
    assert code.field is ScalarField.REAL
    assert np.argmax(code.codewords[0].amplitudes) == 0
    assert np.argmax(code.codewords[1].amplitudes) == 7


def test_complex3_matches_r3_kets():
    code = build_complex3_code()
    assert code.field is ScalarField.COMPLEX
    assert code.codewords[1].amplitudes[7] == 1.0 + 0j


@pytest.mark.parametrize("unit,site_index", [("i", 1), ("j", 2)])
def test_h3_codewords(unit, site_index):
    code = build_h3_code(unit)
    expected = site_index * (16 + 4 + 1)
    assert code.codewords[1].amplitudes[expected] == 1.0
    assert abs(inner(code.codewords[0], code.codewords[1])) == 0.0
    with pytest.raises(ValueError):
        build_h3_code("k")


def test_b3_amplitudes():
    code = build_b3_code()
    plus = code.codewords[0].amplitudes
    s = 1 / math.sqrt(2)
    assert np.allclose(plus, [s, 0, 0, 0, 0, 0, 0, s])
    assert abs(inner(code.codewords[0], code.codewords[1])) == 0.0


def test_shor9_codewords():
    code = build_shor9_code()
    assert code.n_sites == 9 and code.dim == 512
    assert abs(code.codewords[0].norm() - 1.0) <= 1e-12
    assert abs(inner(code.codewords[0], code.codewords[1])) <= 1e-15


def test_code_rejects_non_orthonormal_words():
    w = basis_state(ScalarField.REAL, 1, 0)
    with pytest.raises(ValueError):
        codes.Code("bad", ScalarField.REAL, 1, (w, w))


# --- error operators --------------------------------------------------------

def test_so2_action():
    theta = 0.9
    op = so2_error(theta, 0)
    zero = basis_state(ScalarField.REAL, 1, 0)
    out = apply_site(op, zero)
    assert np.allclose(out.amplitudes, [math.cos(theta), math.sin(theta)])
    with pytest.raises(FieldMismatchError):
        so2_error(theta, 0, ScalarField.QUATERNION_R4)


def test_phase_error_values():
    op = phase_error_pi(0)
    assert op.matrix[0, 0] == 1j and op.matrix[1, 1] == -1j


def test_su2_error_is_right_multiplication_by_conjugate():
    op = su2_error(quat.I, 0)
    one = basis_state(ScalarField.QUATERNION_R4, 1, 0)
    out = apply_site(op, one)
    assert np.allclose(out.amplitudes, [0, -1, 0, 0])   # 1 * conj(i) = -i
    with pytest.raises(ValueError):
        su2_error(quat.Quaternion(1, 1, 0, 0), 0)


def test_effective_basis_sizes():
    assert len(effective_error_basis(build_r3_code(), ErrorFamily.SO2)) == 4
    assert len(effective_error_basis(build_h3_code(), ErrorFamily.SU2)) == 10
    assert len(effective_error_basis(build_shor9_code(),
                                     ErrorFamily.PAULI_PER_SITE)) == 28
    with pytest.raises(FieldMismatchError):
        effective_error_basis(build_r3_code(), ErrorFamily.SU2)
    with pytest.raises(FieldMismatchError):
        effective_error_basis(build_h3_code(), ErrorFamily.SO2)


def test_combined_error_is_the_sum_of_its_terms():
    code = build_h3_code()
    basis = effective_error_basis(code, ErrorFamily.SU2)
    rng = rng_for(6, 1)
    state = StateVector(code.field, 3, rng.standard_normal(code.dim))
    coeffs = random_coefficients(code.field, len(basis), rng)
    coeffs[3] = 0.0
    expected = np.zeros(code.dim)
    for c, term in zip(coeffs, basis):
        if c != 0:
            expected = expected + c * codes.apply_error(term.op, state).amplitudes
    assert np.array_equal(CombinedError(basis, coeffs).apply(state).amplitudes,
                          expected)


def test_combined_error_checks_every_term():
    code = build_r3_code()
    word = code.codewords[0]
    eye = identity_error(code.field)
    off_site = ErrorTerm("far", SiteOperator(ScalarField.REAL, 3, np.eye(2)))
    with pytest.raises(ValueError, match="out of range"):
        CombinedError(ErrorSet((eye, off_site)), np.ones(2)).apply(word)
    complex_term = ErrorTerm("Z@0", pauli_error("z", 0))
    with pytest.raises(FieldMismatchError):
        CombinedError(ErrorSet((eye, complex_term)), np.ones(2)).apply(word)


def test_combined_error_requires_nonzero_coefficient():
    basis = effective_error_basis(build_r3_code(), ErrorFamily.SO2)
    with pytest.raises(ValueError):
        CombinedError(basis, np.zeros(4))
    with pytest.raises(ValueError):
        CombinedError(basis, np.ones(3))


# --- correctability conditions ---------------------------------------------

def test_kl_r3_so2_passes():
    code = build_r3_code()
    report = kl_check(code, effective_error_basis(code, ErrorFamily.SO2))
    assert report.passed
    assert kl_condition_deviation(report) <= 1e-12
    assert np.allclose(report.gram, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("unit", ["i", "j"])
def test_kl_h3_su2_passes_for_both_units(unit):
    code = build_h3_code(unit)
    report = kl_check(code, effective_error_basis(code, ErrorFamily.SU2))
    assert report.passed
    assert kl_condition_deviation(report) <= 1e-12
    assert np.allclose(report.gram, np.eye(10), atol=1e-12)


def test_kl_complex3_phase_error_fails_with_exact_witness():
    code = build_complex3_code()
    errors = ErrorSet((identity_error(code.field),
                       ErrorTerm("phase(pi)@0", phase_error_pi(0))))
    report = kl_check(code, errors)
    assert not report.passed
    assert report.gram is None
    diag = [v for v in report.violations if v.kind == "diagonal"]
    assert any(v.values == (1j, -1j) for v in diag)
    # the identity-vs-error diagonal is the witness: <w0|E|w0> = i, <w1|E|w1> = -i
    v = next(v for v in diag if v.values == (1j, -1j))
    assert (v.p1, v.p2) == (0, 1)


def test_kl_shor9_pauli_passes():
    code = build_shor9_code()
    report = kl_check(code, effective_error_basis(code, ErrorFamily.PAULI_PER_SITE))
    assert report.passed
    assert kl_condition_deviation(report) <= 1e-12
    # degenerate pairs: the ancilla Gram matrix is not diagonal
    off = report.gram - np.diag(np.diag(report.gram))
    assert np.abs(off).max() > 0.5


def test_kl_table_indexing():
    code = build_r3_code()
    errors = effective_error_basis(code, ErrorFamily.SO2)
    report = kl_check(code, errors)
    assert report.table.shape == (4, 2, 4, 2)
    assert report.table[0, 0, 0, 0] == 1.0


# --- correction synthesis ----------------------------------------------------

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


@pytest.mark.parametrize("word,anc,sign,word_out,anc_out", R3_TABLE)
def test_r3_correction_table_rows(r3_correction, word, anc, sign, word_out, anc_out):
    u = r3_correction.operator.matrix
    x = np.zeros(32)
    x[word * 4 + anc] = 1.0
    expected = np.zeros(32)
    expected[word_out * 4 + anc_out] = sign
    assert np.array_equal(u @ x, expected)


def test_r3_correction_operator_is_orthogonal(r3_correction):
    assert is_isometry(r3_correction.operator).max_deviation <= 1e-10


def test_synthesis_rejects_insufficient_ancilla():
    code = build_r3_code()
    errors = effective_error_basis(code, ErrorFamily.SO2)
    with pytest.raises(SynthesisError):
        synthesize_correction(code, errors, 1)


def test_synthesis_rejects_failing_set():
    code = build_complex3_code()
    errors = ErrorSet((identity_error(code.field),
                       ErrorTerm("phase(pi)@0", phase_error_pi(0))))
    with pytest.raises(SynthesisError):
        synthesize_correction(code, errors, 2)


def test_synthesis_rejects_degenerate_images():
    # the full single-site Pauli set on the nine-qubit code passes the
    # conditions but with non-orthogonal images; direct synthesis must refuse
    code = build_shor9_code()
    errors = effective_error_basis(code, ErrorFamily.PAULI_PER_SITE)
    with pytest.raises(SynthesisError, match="orthogonal"):
        synthesize_correction(code, errors, 5)


def test_synthesis_requires_identity_first():
    code = build_r3_code()
    basis = effective_error_basis(code, ErrorFamily.SO2)
    shuffled = ErrorSet((basis[1], basis[0], basis[2], basis[3]))
    with pytest.raises(SynthesisError, match="identity"):
        synthesize_correction(code, shuffled, 2)


def test_synthesis_rejects_empty_error_set():
    with pytest.raises(SynthesisError, match="empty"):
        synthesize_correction(build_r3_code(), ErrorSet(()), 2)


def test_synthesis_validates_ancilla_assignment():
    code = build_r3_code()
    errors = effective_error_basis(code, ErrorFamily.SO2)
    with pytest.raises(SynthesisError):
        synthesize_correction(code, errors, 2, ancilla_states=(1, 0, 2, 3))
    with pytest.raises(SynthesisError):
        synthesize_correction(code, errors, 2, ancilla_states=(0, 1, 1, 3))


def test_h3_partial_isometry_vectors(h3_correction):
    assert len(h3_correction.domain) == 20
    assert h3_correction.domain[0].dim == 1024
    for vecs in (h3_correction.domain, h3_correction.image):
        mat = np.column_stack([v.amplitudes for v in vecs])
        assert np.abs(mat.T @ mat - np.eye(20)).max() <= 1e-12


def test_h3_completed_operator(h3_correction):
    assert is_isometry(h3_correction.operator).max_deviation <= 1e-10


def test_h3_completed_operator_is_a_signed_permutation(h3_correction):
    # the error images are signed canonical vectors, so completion must not
    # leak rounding into any entry
    assert np.isin(h3_correction.operator.matrix, (-1.0, 0.0, 1.0)).all()


# --- the partial map --------------------------------------------------------

def _shor9_input(cmap, rng):
    dim = 2 ** cmap.total_sites
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(ScalarField.COMPLEX, cmap.total_sites, amps)


def test_partial_map_apply_is_image_times_domain_adjoint(shor9_correction):
    cmap = shor9_correction
    state = _shor9_input(cmap, np.random.default_rng(4))
    dom = np.column_stack([v.amplitudes for v in cmap.domain])
    img = np.column_stack([v.amplitudes for v in cmap.image])
    expected = img @ (dom.conj().T @ state.amplitudes)
    assert np.array_equal(cmap.apply(state).amplitudes, expected)


def test_partial_map_apply_does_not_copy_the_domain(shor9_correction):
    cmap = shor9_correction
    state = _shor9_input(cmap, np.random.default_rng(5))
    cmap.apply(state)
    tracemalloc.start()
    try:
        cmap.apply(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    adjoint_bytes = sum(v.amplitudes.nbytes for v in cmap.domain)
    assert peak < 2 ** 20 < adjoint_bytes


def test_partial_map_rejects_wrong_field(shor9_correction):
    cmap = shor9_correction
    real = StateVector(ScalarField.REAL, cmap.total_sites,
                       np.ones(2 ** cmap.total_sites))
    with pytest.raises(FieldMismatchError):
        cmap.apply(real)


def test_partial_map_rejects_wrong_dimension(shor9_correction):
    cmap = shor9_correction
    word = cmap.code.codewords[0]
    with pytest.raises(ValueError, match="dimension mismatch"):
        cmap.apply(word)


# --- roundtrips ---------------------------------------------------------------

def test_roundtrip_identity_error(r3_correction):
    code = r3_correction.code
    basis = r3_correction.errors
    err = CombinedError(basis, np.array([1.0, 0, 0, 0]))
    res = roundtrip(code, r3_correction, (0.6, 0.8), err)
    assert res.residual <= 1e-12
    assert abs(res.fidelity - 1.0) <= 1e-12
    assert np.allclose(res.ancilla.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_roundtrip_worked_example(r3_correction):
    code = r3_correction.code
    rng = rng_for(3, 1)
    for _ in range(50):
        a, b = random_coefficients(code.field, 2, rng)
        theta = rng.uniform(0, 2 * math.pi)
        res = roundtrip(code, r3_correction, (a, b), so2_error(theta, 0))
        assert abs(res.fidelity - 1.0) <= 1e-10
        assert res.residual <= 1e-10
        expected_anc = np.array([math.cos(theta), 0.0, math.sin(theta), 0.0])
        assert np.abs(res.ancilla.amplitudes - expected_anc).max() <= 1e-10
        assert np.allclose(res.recovered_coeffs, [a, b], atol=1e-10)


def test_roundtrip_h3_random_unit_errors(h3_correction):
    code = h3_correction.code
    rng = rng_for(4, 2)
    for _ in range(50):
        logical = random_coefficients(code.field, 2, rng)
        u = random_unit_quaternion(rng)
        site = int(rng.integers(3))
        res = roundtrip(code, h3_correction, logical, su2_error(u, site))
        assert abs(res.fidelity - 1.0) <= 1e-10
        assert res.residual <= 1e-10


def test_roundtrip_flags_out_of_family_error(r3_correction):
    # diag(1, -1) is not a plane rotation and lies outside the corrected span
    code = r3_correction.code
    bad = codes.SiteOperator(ScalarField.REAL, 0, np.diag([1.0, -1.0]))
    with pytest.raises(codes.FactorizationError) as err:
        roundtrip(code, r3_correction, (0.6, 0.8), bad)
    assert err.value.result.residual > 1e-3
    res = roundtrip(code, r3_correction, (0.6, 0.8), bad, tol=None)
    assert res.residual > 1e-3


def test_roundtrip_shor9_combined(shor9_correction):
    code = shor9_correction.code
    basis = effective_error_basis(code, ErrorFamily.PAULI_PER_SITE)
    rng = rng_for(5, 3)
    for _ in range(25):
        logical = random_coefficients(code.field, 2, rng)
        err = CombinedError(basis, random_coefficients(code.field, len(basis), rng))
        res = roundtrip(code, shor9_correction, logical, err)
        assert abs(res.fidelity - 1.0) <= 1e-10
        assert res.residual <= 1e-10


def test_roundtrip_linearity_r3(r3_correction):
    code = r3_correction.code
    basis = r3_correction.errors
    rng = rng_for(6, 4)
    for _ in range(100):
        logical = random_coefficients(code.field, 2, rng)
        err = CombinedError(basis, random_coefficients(code.field, 4, rng))
        res = roundtrip(code, r3_correction, logical, err)
        assert res.residual <= 1e-10
        assert abs(res.fidelity - 1.0) <= 1e-10


# --- phase-failure demonstration ---------------------------------------------

def test_phase_failure_generic_pair():
    rep = phase_failure_demo()
    assert rep.match_residual <= 1e-12
    assert not rep.physically_equivalent
    assert not rep.kl.passed


def test_phase_failure_benign_edge():
    rep = phase_failure_demo(1.0, 0.0)
    assert rep.match_residual <= 1e-12
    assert rep.physically_equivalent


def test_phase_failure_random_pair():
    rng = rng_for(7, 5)
    a, b = random_coefficients(ScalarField.COMPLEX, 2, rng)
    rep = phase_failure_demo(a, b)
    assert rep.match_residual <= 1e-12
    assert rep.mimic_coeffs == (1j * a, -1j * b)
    assert not rep.physically_equivalent


# --- effective error counting ---------------------------------------------

def test_count_b3_is_seven():
    assert count_effective_errors(build_b3_code(), _pauli_singles(3)) == 7


def test_count_r3_generators():
    code = build_r3_code()
    gens = ErrorSet(tuple(effective_error_basis(code, ErrorFamily.SO2))[1:])
    assert count_effective_errors(code, gens) == 3


def test_count_empty_set():
    assert count_effective_errors(build_r3_code(), ErrorSet(())) == 0


def test_count_excludes_identity():
    code = build_b3_code()
    with_id = ErrorSet((identity_error(code.field), *_pauli_singles(3)))
    assert count_effective_errors(code, with_id) == 7


def test_shor9_effective_representatives(shor9_correction):
    code = build_shor9_code()
    basis = effective_error_basis(code, ErrorFamily.PAULI_PER_SITE)
    reps, mapping = effective_representatives(code, basis)
    assert len(reps) == 22            # identity + 9 X + 9 Y + 3 Z-blocks
    assert reps.labels[0] == "I"
    assert len(mapping) == 28
    # the three phase errors of one block share a class
    z_first_block = [basis.labels.index(f"Z@{k}") for k in range(3)]
    assert len({mapping[i] for i in z_first_block}) == 1
    assert len(shor9_correction.errors) == 22


# --- derived error table of the quaternionic code ---------------------------

def test_h3_error_table_derived():
    table = codes.h3_error_table("j")
    assert table["1"] == [(1, "i"), (1, "j"), (1, "k")]
    assert table["j"] == [(-1, "k"), (-1, "1"), (1, "i")]
    table_i = codes.h3_error_table("i")
    assert table_i["i"] == [(-1, "1"), (1, "k"), (-1, "j")]


def test_h3_table_readings_disagree_in_known_cells():
    diffs = codes.h3_table_comparison()
    # reading the second codeword as the i-repetition: two sign flips
    assert {(row, col) for row, col, *_ in diffs["i-codeword"]} == {
        ("i", "j"), ("i", "k")}
    # literal reading (j-repetition): the first-row units come out swapped
    assert {(row, col) for row, col, *_ in diffs["j-codeword"]} == {
        ("1", "i"), ("1", "j"), ("j", "i"), ("j", "j")}


# --- determinism ------------------------------------------------------------

def test_kl_reports_are_deterministic():
    code = build_h3_code()
    errors = effective_error_basis(code, ErrorFamily.SU2)
    first = kl_check(code, errors)
    second = kl_check(code, errors)
    assert np.array_equal(first.table, second.table)
    assert first.passed == second.passed


def test_seeded_roundtrips_are_bit_identical(r3_correction):
    code = r3_correction.code
    basis = r3_correction.errors

    def run():
        rng = rng_for(42, 9)
        out = []
        for _ in range(20):
            logical = random_coefficients(code.field, 2, rng)
            err = CombinedError(basis, random_coefficients(code.field, 4, rng))
            res = roundtrip(code, r3_correction, logical, err)
            out.append((res.fidelity, res.residual))
        return out

    reference = run()
    assert run() == reference
    # the shared loop keeps the draw order: logical state first, then error
    fidelities, residuals = simulate(
        r3_correction, combined_draw(basis, code.field), rng_for(42, 9), 20)
    assert list(zip(fidelities.tolist(), residuals.tolist())) == reference
