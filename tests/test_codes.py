import functools
import itertools
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqec import codes, verify
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
    LinearMap,
    OrthonormalBasis,
    ScalarField,
    SiteOperator,
    StateVector,
    _norm,
    apply_site,
    basis_state,
    complete_orthonormal,
    is_isometry,
)
from hqec.sampling import random_coefficients, random_unit_quaternion, rng_for

from conftest import (FixedDraws, _close, _dense_assembly, drawn_row, h3x4_code, inner,
                      left_mult, tiny_streams, unit_draw)


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


@pytest.mark.parametrize("amps,pair", [
    ([[2, 0, 0, 0]], "0, 0"),
    ([[1, 0, 0, 0], [1, 0, 0, 0]], "0, 1"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]], "1, 2"),
    ([[1, 0, 0, 0], [0, 2, 0, 0], [1, 0, 0, 0]], "1, 1"),
])
def test_code_names_the_first_non_orthonormal_pair(amps, pair):
    words = tuple(StateVector(ScalarField.REAL, 2, a) for a in amps)
    with pytest.raises(ValueError, match=f"codewords {pair} are not orthonormal"):
        codes.Code("bad", ScalarField.REAL, 2, words)


@pytest.mark.parametrize("field", [ScalarField.REAL, ScalarField.COMPLEX])
def test_code_with_an_overflowing_gram_raises_without_a_warning(field):
    words = (StateVector(field, 1, [1.0, 0.0]), StateVector(field, 1, [0.0, 1e200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="codewords 1, 1 are not orthonormal"):
            codes.Code("huge", field, 1, words)


def test_code_rejects_a_codeword_of_another_type():
    # a bare array used to fail on the missing .field attribute
    with pytest.raises(TypeError, match="codeword 0 must be a StateVector, got ndarray"):
        codes.Code("bad", ScalarField.REAL, 1, (np.array([1.0, 0.0]),))


def test_code_rejects_empty_codewords():
    with pytest.raises(ValueError, match="at least one codeword"):
        codes.Code("e", ScalarField.REAL, 1, ())


@pytest.mark.parametrize("n_sites", [3.0, np.float64(3.0), True],
                         ids=["float", "numpy-float", "bool"])
def test_code_rejects_a_site_count_that_is_not_an_index(n_sites):
    # 3.0 (or True on one site) compares equal to its codewords' site count,
    # so the code used to be built with a site count that is not an integer
    words = build_r3_code().codewords if n_sites != 1 else (basis_state(
        ScalarField.REAL, 1, 0),)
    with pytest.raises(TypeError, match="n_sites must be an integer"):
        codes.Code("c", ScalarField.REAL, n_sites, words)


@pytest.mark.parametrize("build", [build_r3_code, build_h3_code, build_shor9_code])
def test_code_holds_its_codewords_as_one_read_only_array(build):
    code = build()
    assert np.array_equal(code.words,
                          np.stack([w.amplitudes for w in code.codewords]))
    assert code.words.dtype == code.field.dtype
    assert not code.words.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        code.words[0, 0] = 2.0


@pytest.mark.parametrize("build", [build_r3_code, build_h3_code, build_b3_code,
                                   build_shor9_code])
def test_code_holds_its_codeword_support_as_a_read_only_index(build):
    code = build()
    assert np.array_equal(code.support, np.flatnonzero(code.words.any(axis=0)))
    assert not code.support.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        code.support[0] = 1


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
            expected = expected + c * codes._error_amplitudes(term.op, state)
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
    # a zero coefficient does not excuse a term over another field
    with pytest.raises(FieldMismatchError):
        CombinedError(ErrorSet((eye, identity_error(ScalarField.COMPLEX))),
                      [1.0, 0.0]).apply(word)


def _non_square_error() -> ErrorTerm:
    # maps the 8-dim r3 space to a 4-dim one
    return ErrorTerm("squash", LinearMap(ScalarField.REAL, np.ones((4, 8))))


def test_kl_check_rejects_non_square_error():
    code = build_r3_code()
    errors = ErrorSet((identity_error(code.field), _non_square_error()))
    with pytest.raises(ValueError, match="dimension mismatch"):
        kl_check(code, errors)


def test_combined_error_rejects_non_square_error():
    code = build_r3_code()
    errors = ErrorSet((identity_error(code.field), _non_square_error()))
    with pytest.raises(ValueError, match="dimension mismatch"):
        CombinedError(errors, np.ones(2)).apply(code.codewords[0])


def test_combined_error_requires_nonzero_coefficient():
    basis = effective_error_basis(build_r3_code(), ErrorFamily.SO2)
    with pytest.raises(ValueError):
        CombinedError(basis, np.zeros(4))
    with pytest.raises(ValueError):
        CombinedError(basis, np.ones(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "complex-inf"])
def test_combined_error_rejects_non_finite_coefficients(bad):
    basis = effective_error_basis(build_r3_code(), ErrorFamily.SO2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="error coefficients must be finite"):
            CombinedError(basis, [bad, 0.0, 0.0, 0.0])


def test_combined_error_with_a_zero_weighted_nan_term_raises_without_a_warning():
    word = build_r3_code().codewords[0]
    nan_term = ErrorTerm("nan", SiteOperator(ScalarField.REAL, 0,
                                             [[math.nan, 0.0], [0.0, 1.0]]))
    error = CombinedError(ErrorSet((identity_error(ScalarField.REAL), nan_term)),
                          [1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            error.apply(word)


def test_error_set_holds_its_images_read_only_per_code():
    code = build_r3_code()
    basis = effective_error_basis(code, ErrorFamily.SO2)
    images, columns = codes._images(code, basis)
    full = [[apply_site(t.op, w).amplitudes for w in code.codewords] for t in basis]
    assert np.array_equal(codes._scatter(images, columns, code.dim), full)
    # the support columns only: every other amplitude of every image is zero
    assert np.array_equal(columns, np.flatnonzero(np.any(full, axis=(0, 1))))
    assert not images.flags.writeable and not columns.flags.writeable
    held = codes._images(code, basis)
    assert held[0] is images and held[1] is columns
    other = build_r3_code()                    # equal, but another object
    assert codes._images(other, basis)[0] is not images


def _record_calls(monkeypatch, owner, name, record) -> list:
    """Patch ``owner.name`` to append ``record(*args)`` of each call to the
    returned list."""
    calls, original = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def _count_error_amplitudes(monkeypatch) -> list:
    """Record every (op, state) that ``codes._error_amplitudes`` applies."""
    return _record_calls(monkeypatch, codes, "_error_amplitudes",
                         lambda op, state: (id(op), id(state)))


def _each_term_on_each_codeword_once(calls, code, errors) -> bool:
    expected = {(id(t.op), id(w)) for t in errors for w in code.codewords}
    return len(calls) == len(expected) and set(calls) == expected


def test_kl_check_then_synthesis_make_the_images_once(monkeypatch):
    code = build_r3_code()
    basis = effective_error_basis(code, ErrorFamily.SO2)
    calls = _count_error_amplitudes(monkeypatch)
    kl_check(code, basis)
    synthesize_correction(code, basis, 2, complete=False)
    assert _each_term_on_each_codeword_once(calls, code, basis)


def test_effective_error_functions_make_the_images_once(monkeypatch):
    code = build_b3_code()
    singles = _pauli_singles(3)
    calls = _count_error_amplitudes(monkeypatch)
    codes.effective_error_classes(code, singles)
    count_effective_errors(code, singles)
    effective_representatives(code, singles)
    assert _each_term_on_each_codeword_once(calls, code, singles)


def test_error_term_rejects_an_op_of_another_type():
    with pytest.raises(TypeError, match="SiteOperator or LinearMap, got str"):
        ErrorTerm("x", "oops")
    with pytest.raises(TypeError, match="got ndarray"):
        ErrorTerm("x", np.eye(2))


def test_error_set_rejects_a_term_of_another_type():
    # a bare label used to fail inside kl_check on the missing .op attribute
    with pytest.raises(TypeError, match="entry 1 must be an ErrorTerm, got str"):
        ErrorSet((identity_error(ScalarField.REAL), "x"))


# --- correctability conditions ---------------------------------------------

def test_kl_r3_so2_passes():
    code = build_r3_code()
    report = kl_check(code, effective_error_basis(code, ErrorFamily.SO2))
    assert report.passed
    assert report.max_deviation <= 1e-12
    assert np.allclose(report.gram, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("unit", ["i", "j"])
def test_kl_h3_su2_passes_for_both_units(unit):
    code = build_h3_code(unit)
    report = kl_check(code, effective_error_basis(code, ErrorFamily.SU2))
    assert report.passed
    assert report.max_deviation <= 1e-12
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
    assert report.max_deviation <= 1e-12
    # degenerate pairs: the ancilla Gram matrix is not diagonal
    off = report.gram - np.diag(np.diag(report.gram))
    assert np.abs(off).max() > 0.5


def test_kl_condition_deviation_of_empty_set_is_zero():
    report = kl_check(build_r3_code(), ErrorSet(()))
    assert report.passed
    assert report.max_deviation == 0.0


_IMAGE_ENTRIES = pytest.mark.parametrize("entry", [
    kl_check,
    lambda code, errors: synthesize_correction(code, errors, 1),
    codes.effective_error_classes,
    count_effective_errors,
], ids=["kl_check", "synthesize_correction", "effective_error_classes",
        "count_effective_errors"])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@_IMAGE_ENTRIES
def test_non_finite_error_images_raise(entry, bad):
    field = ScalarField.REAL
    errors = ErrorSet((identity_error(field),
                       ErrorTerm("bad", SiteOperator(field, 0, [[bad, 0], [0, 1]]))))
    with pytest.raises(ValueError, match="error images must be finite"):
        entry(build_r3_code(), errors)


_KL_ENTRIES = pytest.mark.parametrize("entry", [
    kl_check,
    lambda code, errors: synthesize_correction(code, errors, 1, complete=False),
    lambda code, errors: synthesize_correction(code, errors, 1),
], ids=["kl_check", "synthesize_partial", "synthesize_completed"])


@_KL_ENTRIES
def test_overflowing_kl_table_raises(entry):
    # the images are finite, but their squared norm 1e400 overflows the table
    field = ScalarField.REAL
    huge = SiteOperator(field, 0, [[1e200, 0], [0, 1e200]])
    errors = ErrorSet((identity_error(field), ErrorTerm("huge", huge)))
    with pytest.raises(ValueError, match="KL table of the error images must be finite"):
        entry(build_r3_code(), errors)


def _without_runtime_warnings(check, *args):
    """Run ``check`` with every RuntimeWarning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@_IMAGE_ENTRIES
def test_non_finite_error_images_raise_without_a_warning(entry, bad):
    _without_runtime_warnings(test_non_finite_error_images_raise, entry, bad)


@_KL_ENTRIES
def test_overflowing_kl_table_raises_without_a_warning(entry):
    _without_runtime_warnings(test_overflowing_kl_table_raises, entry)


def test_kl_table_indexing():
    code = build_r3_code()
    errors = effective_error_basis(code, ErrorFamily.SO2)
    report = kl_check(code, errors)
    assert report.table.shape == (4, 2, 4, 2)
    assert report.table[0, 0, 0, 0] == 1.0


# --- negative controls ----------------------------------------------------------
# Each positive KL verdict, one step past its claim (Knill & Laflamme,
# quant-ph/9604034, Thm. III.2): r3 corrects SO(2) but not a reflection or a
# two-site rotation; h3 corrects unit multiplications from either side alone
# but not from both on one site; shor9 corrects single-site Paulis and bit
# flips in two blocks, but not two bit flips in one block or phase flips in
# two blocks; b3 alone does not correct a phase flip.

# the shor9 and b3 witnesses carry the rounding of 1/sqrt(2) products, up to
# 4.4e-16; the others are exact
WITNESS_TOL = 1e-15


def _product_map(field, n_sites, factors):
    """The dense map of site matrices ``factors[site]`` applied together."""
    d = field.site_dim
    matrix = np.eye(d ** n_sites, dtype=field.dtype)
    for site, m in factors.items():
        matrix = np.kron(np.kron(np.eye(d ** site), m),
                         np.eye(d ** (n_sites - site - 1))) @ matrix
    return LinearMap(field, matrix)


def _with_terms(code, family, *terms):
    return ErrorSet(tuple(effective_error_basis(code, family)) + terms)


def _left_units(sites):
    field = ScalarField.QUATERNION_R4
    return tuple(ErrorTerm(f"{u}*@{site}", SiteOperator(
        field, site, left_mult(quat.UNITS[u])))
        for site in sites for u in "ijk")


def _r3_reflection():
    code = build_r3_code()
    return code, _with_terms(code, ErrorFamily.SO2, ErrorTerm(
        "refl@0", SiteOperator(code.field, 0, np.diag([1.0, -1.0]))))


def _r3_rot90_pair():
    code = build_r3_code()
    rot = so2_error(math.pi / 2.0, 0).matrix
    return code, _with_terms(code, ErrorFamily.SO2, ErrorTerm(
        "rot90@0,1", _product_map(code.field, 3, {0: rot, 1: rot})))


def _h3_left_units(unit):
    code = build_h3_code(unit)
    return code, ErrorSet((identity_error(code.field),) + _left_units(range(3)))


def _h3_both_sides():
    code = build_h3_code("j")
    right = tuple(ErrorTerm(f"*{u}@0", su2_error(quat.UNITS[u].conj(), 0)) for u in "ijk")
    return code, ErrorSet((identity_error(code.field),) + right + _left_units([0]))


def _shor9_with(label, factors):
    code = build_shor9_code()
    return code, _with_terms(code, ErrorFamily.PAULI_PER_SITE, ErrorTerm(
        label, _product_map(code.field, 9, factors)))


def _b3_phase_flip():
    code = build_b3_code()
    return code, ErrorSet((identity_error(code.field),
                           ErrorTerm("Z@0", pauli_error("z", 0))))


_X, _Z = quat.PAULI_MATRICES["x"], quat.PAULI_MATRICES["z"]

# id: (code and error set, None for a pass or the first violation's kind,
# error pair and values: the two diagonal values in ascending order, or the
# cross term's modulus)
_NEGATIVE_CONTROLS = {
    "r3-reflection": (_r3_reflection, ("diagonal", "I", "refl@0", (-1.0, 1.0))),
    "r3-rot90-two-sites": (_r3_rot90_pair, ("cross", "rot90@2", "rot90@0,1", 1.0)),
    "h3[i]-left-units": (lambda: _h3_left_units("i"), None),
    "h3[j]-left-units": (lambda: _h3_left_units("j"), None),
    "h3[j]-both-sides": (_h3_both_sides, ("diagonal", "*i@0", "i*@0", (-1.0, 1.0))),
    "shor9-X0X1": (lambda: _shor9_with("X0X1", {0: _X, 1: _X}),
                   ("diagonal", "X@2", "X0X1", (-1.0, 1.0))),
    "shor9-Z0Z3": (lambda: _shor9_with("Z0Z3", {0: _Z, 3: _Z}),
                   ("cross", "Z@6", "Z0Z3", 1.0)),
    "shor9-X0X3": (lambda: _shor9_with("X0X3", {0: _X, 3: _X}), None),
    "b3-Z0": (_b3_phase_flip, ("cross", "I", "Z@0", 1.0)),
}


@pytest.mark.parametrize("case", list(_NEGATIVE_CONTROLS))
def test_kl_negative_controls(case):
    build, witness = _NEGATIVE_CONTROLS[case]
    code, errors = build()
    report = kl_check(code, errors)
    assert report.passed is (witness is None)
    if witness is None:
        assert report.max_deviation <= codes.KL_TOL
        return
    kind, first, second, values = witness
    v = report.violations[0]
    assert (v.kind, report.labels[v.p1], report.labels[v.p2]) == (kind, first, second)
    if kind == "diagonal":
        assert all(abs(value.imag) <= WITNESS_TOL for value in np.asarray(v.values))
        got = sorted(np.real(v.values))
        assert np.abs(np.subtract(got, values)).max() <= WITNESS_TOL
    else:
        assert abs(v.deviation - values) <= WITNESS_TOL



def test_kl_violations_describe_their_values():
    code, errors = _r3_rot90_pair()
    report = kl_check(code, errors)
    assert [v.describe(report.labels) for v in report.violations[:2]] == [
        "<w0|rot90@2^ rot90@0,1|w1> = 1.0 (should vanish)",
        "<w1|rot90@2^ rot90@0,1|w0> = -1.0 (should vanish)"]
    code, errors = _r3_reflection()
    report = kl_check(code, errors)
    assert report.violations[0].describe(report.labels) == \
        "<w1|I^ refl@0|w1> = -1.0 but <w0|...|w0> = 1.0"


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


def test_synthesis_rejects_negative_ancilla_state():
    # -1 would wrap onto |11>, the state already assigned to the last error
    code = build_r3_code()
    errors = effective_error_basis(code, ErrorFamily.SO2)
    for complete in (False, True):
        with pytest.raises(SynthesisError, match="out of range"):
            synthesize_correction(code, errors, 2, ancilla_states=(0, -1, 2, 3),
                                  complete=complete)


@pytest.mark.parametrize("complete", [False, True])
@pytest.mark.parametrize("bad", [True, 1.5, np.True_], ids=["bool", "float", "np-bool"])
def test_synthesis_rejects_non_integer_ancilla_state(bad, complete):
    # True == 1 passed every other check and set all ancilla amplitudes
    code = build_r3_code()
    errors = effective_error_basis(code, ErrorFamily.SO2)
    with pytest.raises(SynthesisError, match="integers"):
        synthesize_correction(code, errors, 2, ancilla_states=(0, bad, 2, 3),
                              complete=complete)


@pytest.mark.parametrize("complete", [False, True])
@pytest.mark.parametrize("bad", [2.0, -1, True, np.True_],
                         ids=["float", "negative", "bool", "np-bool"])
def test_synthesis_rejects_an_invalid_ancilla_count(bad, complete):
    # two errors fit in 2.0 or True ancilla sites, so only the type check
    # stops them; -1 used to report "0.5 states"
    code = build_r3_code()
    errors = ErrorSet(effective_error_basis(code, ErrorFamily.SO2).terms[:2])
    with pytest.raises(SynthesisError, match="non-negative integer"):
        synthesize_correction(code, errors, bad, complete=complete)


def test_synthesis_accepts_numpy_integer_ancilla_states(r3_correction):
    states = tuple(np.array(codes.R3_TABLE_ANCILLA_STATES))
    cmap = synthesize_correction(r3_correction.code, r3_correction.errors, 2,
                                 ancilla_states=states)
    assert np.array_equal(cmap.operator.matrix, r3_correction.operator.matrix)


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


@functools.cache
def _partial_map(name):
    """The partial isometries: r3 and h3 without their completion, and shor9."""
    return {"r3": lambda: codes.build_r3_correction(complete=False),
            "h3[i]": lambda: codes.build_h3_correction("i", complete=False),
            "h3[j]": lambda: codes.build_h3_correction("j", complete=False),
            "shor9": codes.build_shor9_correction}[name]()


_PARTIAL_MAPS = ("r3", "h3[i]", "h3[j]", "shor9")


def _random_input(cmap, rng, scale=1.0):
    dim = cmap.code.dim * cmap.ancilla_dim
    amps = rng.standard_normal(dim)
    if cmap.code.field.is_complex:
        amps = amps + 1j * rng.standard_normal(dim)
    return StateVector(cmap.code.field, cmap.total_sites, scale * amps)


def test_partial_map_apply_is_image_times_domain_adjoint():
    # image @ domain^H sends each domain vector to its image and what is
    # orthogonal to the domain span to zero (shor9's dense product would be
    # 16384 x 16384)
    for name in _PARTIAL_MAPS:
        cmap = _partial_map(name)
        for dom, img in zip(cmap.domain, cmap.image, strict=True):
            assert np.abs(cmap.apply(dom).amplitudes - img.amplitudes).max() <= 1e-15
        domain = np.column_stack([v.amplitudes for v in cmap.domain])
        x = _random_input(cmap, np.random.default_rng(4)).amplitudes
        outside = x - domain @ (domain.conj().T @ x)
        out = cmap.apply(StateVector(cmap.code.field, cmap.total_sites, outside))
        assert _norm(out.amplitudes) <= 1e-15 * _norm(x)


@pytest.mark.parametrize("name", _PARTIAL_MAPS)
def test_partial_map_output_lies_in_the_assigned_ancilla_states(name):
    cmap = _partial_map(name)
    out = cmap.apply(_random_input(cmap, np.random.default_rng(9))).amplitudes
    table = out.reshape(cmap.code.dim, cmap.ancilla_dim)
    unused = np.setdiff1d(np.arange(cmap.ancilla_dim), cmap.ancilla_states)
    assert np.all(table[:, unused] == 0)
    assert np.all(np.any(table[:, list(cmap.ancilla_states)] != 0, axis=0))


def _full_adjoint(cmap):
    return codes._scatter(cmap._domain_adjoint, cmap._columns, cmap.code.dim)


@pytest.mark.parametrize("name", _PARTIAL_MAPS)
def test_partial_map_corrects_onto_the_support_rows_only(name):
    # the rows are the codeword support; the state CorrectionMap.apply builds
    # holds the block there and is exactly zero on every other row
    cmap = _partial_map(name)
    support = cmap.code.support
    rng = np.random.default_rng(13)
    for _ in range(20):
        state = _random_input(cmap, rng)
        corrupted = state.amplitudes[::cmap.ancilla_dim]
        rows, block = cmap._correct(corrupted)
        assert np.array_equal(rows, support)
        table = cmap.apply(state).amplitudes.reshape(cmap.code.dim, -1)
        assert np.array_equal(table[support], block)
        assert np.all(np.delete(table, support, axis=0) == 0.0)


@pytest.mark.parametrize("name", _PARTIAL_MAPS)
def test_partial_map_holds_the_fixed_operands_of_its_correction(name):
    # the ancilla index and the codewords on the support are built once per
    # map, read-only, and give the block of the per-call gather bit for bit
    cmap = _partial_map(name)
    words, support = cmap.code.words, cmap.code.support
    assert np.array_equal(cmap._ancilla_index, cmap.ancilla_states)
    assert np.array_equal(cmap._support_words, words[:, support])
    for held in (cmap._ancilla_index, cmap._support_words):
        assert not held.flags.writeable
    rng = np.random.default_rng(17)
    for _ in range(10):
        corrupted = _random_input(cmap, rng).amplitudes[::cmap.ancilla_dim]
        weights = np.zeros((len(words), cmap.ancilla_dim), cmap.code.field.dtype)
        weights[:, list(cmap.ancilla_states)] = (
            _full_adjoint(cmap) @ corrupted).reshape(-1, len(words)).T
        assert np.array_equal(cmap._correct(corrupted)[1],
                              words[:, support].T @ weights)


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


# a partial map (shor9) and a completed one (r3) share one input check
_MAP_KINDS = pytest.mark.parametrize(
    "fixture", ["shor9_correction", "r3_correction"], ids=["partial", "completed"])


@_MAP_KINDS
def test_correction_map_rejects_wrong_field(fixture, request):
    cmap = request.getfixturevalue(fixture)
    other = ScalarField.REAL if cmap.code.field.is_complex else ScalarField.COMPLEX
    state = StateVector(other, cmap.total_sites, np.ones(2 ** cmap.total_sites))
    with pytest.raises(FieldMismatchError,
                       match=f"map over {cmap.code.field.value} applied to "
                             f"{other.value} state"):
        cmap.apply(state)


@_MAP_KINDS
def test_correction_map_rejects_wrong_dimension(fixture, request):
    cmap = request.getfixturevalue(fixture)
    word = cmap.code.codewords[0]
    with pytest.raises(ValueError, match="dimension mismatch"):
        cmap.apply(word)


# --- storage of the partial isometry ------------------------------------------

def _reference_pairs(cmap):
    """The per-vector form of the synthesis pairs: one validated state per
    domain and image vector, each built by its own kron."""
    code, n_ancilla = cmap.code, cmap.n_ancilla
    images = codes._scatter(*codes._images(code, cmap.errors), code.dim)
    diag = np.real(np.diag(kl_check(code, cmap.errors).gram))
    anc0 = basis_state(code.field, n_ancilla, 0).amplitudes
    domain, image = [], []
    for p in range(len(cmap.errors)):
        scale = 1.0 / math.sqrt(diag[p])
        anc_p = basis_state(code.field, n_ancilla, cmap.ancilla_states[p]).amplitudes
        for corrupted, w in zip(images[p], code.codewords):
            domain.append(StateVector(code.field, cmap.total_sites,
                                      scale * np.kron(corrupted, anc0)))
            image.append(StateVector(code.field, cmap.total_sites,
                                     np.kron(w.amplitudes, anc_p)))
    return domain, image


_BUILT_MAPS = {
    "r3": codes.build_r3_correction,
    "h3[i]": lambda: codes.build_h3_correction("i"),
    "h3[j]": lambda: codes.build_h3_correction("j"),
    "shor9": codes.build_shor9_correction,
}


@pytest.mark.parametrize("name", list(_BUILT_MAPS))
def test_derived_pairs_match_the_reference(name):
    cmap = _BUILT_MAPS[name]()
    ref_domain, ref_image = _reference_pairs(cmap)
    for got, ref in ((cmap.domain, ref_domain), (cmap.image, ref_image)):
        assert len(got) == len(ref)
        for v, w in zip(got, ref):
            assert v.n_sites == w.n_sites and v.field is w.field
            assert np.array_equal(v.amplitudes, w.amplitudes)


@pytest.mark.parametrize("name", ["r3", "h3[i]", "h3[j]"])
def test_completed_operator_matches_the_reference(name):
    cmap = _BUILT_MAPS[name]()
    ref_domain, ref_image = _reference_pairs(cmap)
    expected = (_dense_assembly(complete_orthonormal(ref_image))
                @ _dense_assembly(complete_orthonormal(ref_domain)).conj().T)
    assert cmap.operator.matrix.dtype == expected.dtype
    assert cmap.operator.matrix.tobytes() == expected.tobytes()


def _use_shor9_map():
    cmap = codes.build_shor9_correction()
    cmap.apply(_shor9_input(cmap, np.random.default_rng(6)))
    cmap.isometry_deviation()
    return cmap


def test_correction_map_holds_only_its_fields():
    # no attribute dict: a cache added to a used map could not be stored
    cmap = _use_shor9_map()
    assert not hasattr(cmap, "__dict__")
    assert all(hasattr(cmap, name) for name in type(cmap).__slots__)


def test_shor9_map_holds_its_partial_isometry_once():
    # the stacked domain adjoint and image are 2 x 44 x 16384 complex
    # amplitudes, 22 MiB; a second copy of either would exceed both bounds
    tracemalloc.start()
    try:
        cmap = _use_shor9_map()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cmap.isometry_deviation() <= 1e-12
    assert current <= 24 * 2 ** 20
    assert peak <= 40 * 2 ** 20


def test_shor9_map_holds_only_its_code_space_block():
    # the domain adjoint is held on the 80 columns of its support, 44 x 80
    # complex amplitudes, 55 KiB (352 KiB at full width); no 16384-dimensional
    # stack may outlive synthesis or a use of the map
    tracemalloc.start()
    try:
        cmap = _use_shor9_map()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cmap._domain_adjoint.shape == (44, 80)
    assert cmap._columns.shape == (80,)
    assert current <= 2 ** 20


# --- the held (perm, sign) completion ------------------------------------------

_COMPLETED_MAPS = ("r3", "h3[i]", "h3[j]")


@functools.cache
def _completed_map(name):
    return _BUILT_MAPS[name]()


@functools.cache
def _dense_operator(name):
    return _completed_map(name).operator.matrix


def _with_completion(cmap, completion):
    """The map ``cmap`` holding ``completion`` as its completed operator."""
    return codes.CorrectionMap(cmap.code, cmap.errors, cmap.n_ancilla, cmap.ancilla_states,
                               cmap._domain_adjoint, cmap._columns, completion)


@pytest.mark.parametrize("name", _COMPLETED_MAPS)
def test_signed_canonical_completion_is_held_as_index_arrays(name):
    cmap = _completed_map(name)
    perm, sign = cmap._completion
    dim = cmap.code.dim * cmap.ancilla_dim
    assert perm.shape == sign.shape == (dim,)
    assert not perm.flags.writeable and not sign.flags.writeable


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(_COMPLETED_MAPS), seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-30.0, 30.0))
def test_held_completion_apply_matches_the_dense_operator(name, seed, log_scale):
    cmap = _completed_map(name)
    state = _random_input(cmap, np.random.default_rng(seed), 10.0 ** log_scale)
    assert np.array_equal(cmap.apply(state).amplitudes,
                          _dense_operator(name) @ state.amplitudes)


class _DenseProduct:
    """What :func:`roundtrip` reads of a completed map, correcting by the
    product of its dense operator's ancilla-|0> columns in place of the
    scatter of ``(perm, sign)``."""

    def __init__(self, cmap):
        self.code, self.n_ancilla = cmap.code, cmap.n_ancilla
        self._gather = cmap.operator.matrix[:, ::cmap.ancilla_dim]

    def _correct(self, corrupted):
        return slice(None), self._gather.dot(corrupted).reshape(self.code.dim, -1)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(_COMPLETED_MAPS), seed=st.integers(0, 2 ** 32 - 1))
def test_held_completion_roundtrip_matches_the_dense_operator(name, seed):
    cmap = _completed_map(name)
    dense = _DenseProduct(cmap)
    code = cmap.code
    rng = np.random.default_rng(seed)
    logical = random_coefficients(code.field, 2, rng)
    error = _combined(cmap)(rng)
    _assert_same_roundtrip(roundtrip(cmap, logical, error),
                           roundtrip(dense, logical, error))


@pytest.mark.parametrize("name", _COMPLETED_MAPS)
def test_held_isometry_check_agrees_with_the_dense_check(name):
    cmap = _completed_map(name)
    assert cmap.isometry_deviation() == is_isometry(cmap.operator).max_deviation == 0.0
    perm, sign = cmap._completion
    perm = perm.copy()
    perm[1] = perm[0]                  # two columns sent to one row
    broken = _with_completion(cmap, (perm, sign))
    assert broken.isometry_deviation() == is_isometry(broken.operator).max_deviation
    assert broken.isometry_deviation() == 1.0


@pytest.mark.parametrize("name", _COMPLETED_MAPS)
def test_held_completion_maps_each_pair(name):
    # the h3 images are exact signed canonical vectors; the r3 rotations by
    # pi/2 leave cos(pi/2) = 6.1e-17 along another domain vector
    cmap = _completed_map(name)
    tol = 0.0 if cmap.code.field is ScalarField.QUATERNION_R4 else 1e-16
    for dom, img in zip(cmap.domain, cmap.image, strict=True):
        assert np.abs(cmap.apply(dom).amplitudes - img.amplitudes).max() <= tol


def _h3_synthesis_bytes():
    """The h3 map and the bytes its synthesis keeps, by ``tracemalloc``, with
    any installed ``sys.settrace`` tracer paused over the measured call: a
    line tracer's own allocations would land in the window."""
    code = build_h3_code()
    errors = effective_error_basis(code, ErrorFamily.SU2)
    kl_check(code, errors)
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        cmap = synthesize_correction(code, errors, 2)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)
    return cmap, current


def test_h3_map_holds_only_its_index_arrays():
    # the dense 1024 x 1024 operator is 8 MiB; what synthesis adds next to
    # the code and the image table its error set already holds is the
    # domain adjoint on its support, 20 x 20 (20 x 64 at full width), and
    # the two 1024-entry index arrays, 19 KiB
    cmap, current = _h3_synthesis_bytes()
    perm, sign = cmap._completion
    assert cmap._domain_adjoint.shape == (20, 20)
    assert cmap._domain_adjoint.nbytes + perm.nbytes + sign.nbytes == 19584
    assert current < 32 * 1024


def test_h3_map_bytes_hold_under_a_line_tracer():
    # a tracer that keeps every line event, installed around the measurement
    # (as a per-test coverage tracer is), is paused over the window and
    # restored after it
    events = []

    def trace(frame, event, arg):
        def local(frame, event, arg):
            events.append((frame.f_code.co_name, frame.f_lineno))
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _, current = _h3_synthesis_bytes()
        restored = sys.gettrace()
    finally:
        sys.settrace(previous)
    assert current < 32 * 1024
    assert restored is trace
    assert {name for name, _ in events} >= {"_h3_synthesis_bytes", "kl_check"}
    assert "synthesize_correction" not in {name for name, _ in events}


# --- the five-qubit code (Laflamme et al., quant-ph/9602019), test-side --------

_FIVE_STABILIZER = "XZZXI"     # with its cyclic shifts, the code's generators


def _pauli_string(word, state):
    """``state`` with the Pauli ``word[site]`` applied on each site."""
    for site, axis in enumerate(word):
        if axis != "I":
            state = apply_site(pauli_error(axis.lower(), site), state)
    return state


def _five_qubit_code():
    """|0_L>, |00000> projected onto the +1 space of the four shifts of
    ``XZZXI`` (16 terms of modulus 1/4), and |1_L>, X on every site of it."""
    zero = basis_state(ScalarField.COMPLEX, 5, 0)
    for shift in range(4):
        word = _FIVE_STABILIZER[5 - shift:] + _FIVE_STABILIZER[:5 - shift]
        zero = zero.with_amplitudes(zero.amplitudes + _pauli_string(word, zero).amplitudes)
    zero = zero.with_amplitudes(zero.amplitudes / _norm(zero.amplitudes))
    return codes.Code("five", ScalarField.COMPLEX, 5, (zero, _pauli_string("XXXXX", zero)))


def _five_qubit_basis():
    """The identity and the 15 single-site Paulis."""
    return ErrorSet((identity_error(ScalarField.COMPLEX),) + _pauli_singles(5).terms)


@functools.cache
def _five_qubit_map():
    return synthesize_correction(_five_qubit_code(), _five_qubit_basis(), 4, complete=False)


def test_five_qubit_code_is_perfect():
    # 16 orthonormal images of 2 codewords fill the 2^5 amplitudes exactly:
    # the KL table, as a 32 x 32 Gram matrix, is the identity
    code, basis = _five_qubit_code(), _five_qubit_basis()
    assert [sorted(set(np.abs(w).tolist())) for w in code.words] == [[0.0, 0.25]] * 2
    assert np.count_nonzero(code.words, axis=1).tolist() == [16, 16]
    report = kl_check(code, basis)
    assert report.passed and report.max_deviation == 0.0
    assert np.array_equal(report.gram, np.eye(16))
    assert len(basis) * len(code.codewords) == 2 ** code.n_sites == 32
    assert np.array_equal(report.table.reshape(32, 32), np.eye(32))


def test_five_qubit_partial_map_corrects_every_combination():
    cmap = _five_qubit_map()
    assert cmap.operator is None and cmap.ancilla_dim == 16
    fidelities, residuals = simulate(cmap, combined_draw(cmap.code, cmap.errors),
                                     rng_for(5, 1), 200)
    assert np.abs(fidelities - 1.0).max() <= 1e-10
    assert residuals.max() <= 1e-10


# --- channel-level known answers ------------------------------------------------
# The entanglement fidelity of encode, independent flips of each site with
# probability r, |0_A>, the completed operator and a discarded ancilla:
# F_e = sum over flip patterns S and ancilla states a of
# p_S |tr(W^H <a| U (K_S x |0_A>) W) / 2|^2, W the codewords as columns.
# Every product is exact; the sums round.
CHANNEL_TOL = 1e-15
_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])    # so2_error(pi / 2) without cos(pi / 2)


def _entanglement_infidelity(cmap, flip, r):
    code, n = cmap.code, cmap.code.n_sites
    blocks = cmap.operator.matrix.reshape(code.dim, cmap.ancilla_dim,
                                          code.dim, cmap.ancilla_dim)[..., 0]
    words = code.words.T
    fidelity = 0.0
    for pattern in itertools.product((False, True), repeat=n):
        kraus = _product_map(code.field, n, {site: flip for site, flipped
                                             in enumerate(pattern) if flipped}).matrix
        weight = r ** sum(pattern) * (1.0 - r) ** (n - sum(pattern))
        for a in range(cmap.ancilla_dim):
            logical = words.conj().T @ blocks[:, a, :] @ kraus @ words
            fidelity += weight * abs(np.trace(logical) / 2.0) ** 2
    return 1.0 - fidelity


@pytest.mark.parametrize("r", [0.01, 0.1, 0.3])
def test_r3_under_rot90_flips_fails_with_two_or_three(r):
    # one flip is corrected; two or three leave a logical map of trace zero
    got = _entanglement_infidelity(_completed_map("r3"), _ROT90, r)
    assert abs(got - (3 * r ** 2 - 2 * r ** 3)) <= CHANNEL_TOL


@pytest.mark.parametrize("r", [0.01, 0.1, 0.3])
def test_complex3_bit_flip_map_under_phase_flips_fails_with_an_odd_number(r):
    # the {I, X@k} map completes to a signed permutation over C; a phase flip
    # passes it as logical Z, of trace zero, an even number as the identity
    code = build_complex3_code()
    cmap = synthesize_correction(code, _bit_flips(code), 2)
    assert type(cmap._completion) is tuple
    got = _entanglement_infidelity(cmap, quat.PAULI_MATRICES["z"], r)
    assert abs(got - (3 * r - 6 * r ** 2 + 4 * r ** 3)) <= CHANNEL_TOL


# --- known answers on the basis images ----------------------------------------

def _image_certificate(cmap, errors, states):
    """The first (label, l) whose image E_p w_l x |0_A> the map's ``_correct``
    does not send to sqrt(d_p) w_l x |a_p>, for the images ``errors`` holds
    and the ancilla states ``states`` (a_p), with d_p = |E_p w_0|^2; None when
    every image lands there."""
    code = cmap.code
    images = codes._scatter(*codes._images(code, errors), code.dim)
    for label, a, pair in zip(errors.labels, states, images, strict=True):
        root_d = _norm(pair[0])
        for l, (word, image) in enumerate(zip(code.words, pair, strict=True)):
            rows, block = cmap._correct(image)
            expected = np.zeros((code.dim, cmap.ancilla_dim), code.field.dtype)
            expected[:, a] = root_d * word
            if not np.allclose(block, expected[rows], rtol=0.0, atol=1e-12):
                return label, l
    return None


_CERTIFIED_MAPS = {
    "r3": lambda: _completed_map("r3"),
    "r3-partial": lambda: _partial_map("r3"),
    "h3": lambda: _completed_map("h3[j]"),
    "h3-partial": lambda: _partial_map("h3[j]"),
    "shor9": lambda: _partial_map("shor9"),
    "five-partial": lambda: _five_qubit_map(),
}


@pytest.mark.parametrize("name", list(_CERTIFIED_MAPS))
def test_correction_sends_each_held_image_to_its_codeword_and_ancilla(name):
    # r3 4 errors x 2 codewords, h3 10 x 2, shor9 its 22 representatives x 2,
    # the five-qubit code 16 x 2
    cmap = _CERTIFIED_MAPS[name]()
    assert len(cmap.errors) == {"r3": 4, "h3": 10, "shor9": 22,
                                "five": 16}[name.partition("-")[0]]
    assert _image_certificate(cmap, cmap.errors, cmap.ancilla_states) is None


def test_shor9_correction_sends_all_28_pauli_images_to_their_class_state():
    # the six Paulis effective_representatives dropped land on the ancilla
    # state of the representative of their class
    cmap = _partial_map("shor9")
    basis = _basis(cmap)
    reps, mapping = effective_representatives(cmap.code, basis)
    assert len(basis) == 28 and reps.labels == cmap.errors.labels
    dropped = [p for p, c in enumerate(mapping) if basis[p] is not reps[c]]
    assert len(dropped) == 6
    states = [cmap.ancilla_states[c] for c in mapping]
    assert _image_certificate(cmap, basis, states) is None


def test_image_certificate_names_the_reflection_that_r3_does_not_correct():
    # diag(1, -1)@0 fixes |000> but flips the sign of |111>, so no ancilla
    # state takes both images: the second codeword is the witness
    label = "diag(1,-1)@0"
    reflection = ErrorSet((ErrorTerm(label, SiteOperator(ScalarField.REAL, 0,
                                                         np.diag([1.0, -1.0]))),))
    for cmap in (_completed_map("r3"), _partial_map("r3")):
        assert _image_certificate(cmap, reflection, (0,)) == (label, 1)


@pytest.mark.parametrize("name", _COMPLETED_MAPS)
def test_completed_map_holds_views_of_its_ancilla_zero_columns(name):
    cmap = _completed_map(name)
    step = cmap.ancilla_dim
    (perm, sign), (rows, signs) = cmap._completion, cmap._gather
    for held, full in ((rows, perm[::step]), (signs, sign[::step])):
        assert np.array_equal(held, full) and np.shares_memory(held, full)
        assert not held.flags.writeable
    assert _partial_map(name)._gather is None


def test_error_set_holds_the_pair_rows_of_its_images(r3_correction):
    code, errors = r3_correction.code, r3_correction.errors
    images, columns = codes._images(code, errors)
    pairs = errors._image_slot[3]
    assert pairs.shape == (len(errors) * len(code.codewords), len(columns))
    assert np.shares_memory(pairs, images) and not pairs.flags.writeable
    assert np.array_equal(pairs, images.reshape(pairs.shape))


def test_completed_hot_paths_never_build_the_dense_operator(monkeypatch):
    from hqec import cli, verify
    from hqec.report import RunConfig

    def forbidden(self):
        raise AssertionError("the dense operator must not be built")

    monkeypatch.setattr(codes.CorrectionMap, "operator", property(forbidden))
    for code_id in ("r3", "h3"):
        records = cli.cmd_simulate(code_id, RunConfig(0, 5, None, "text", None))
        assert all(rec.passed for rec in records)
    assert all(rec.passed for rec in verify.codes_suite(0, 5))


def _bit_flips(code):
    """{I, X@0, X@1, X@2} on a three-qubit complex code."""
    return ErrorSet((identity_error(code.field),) + tuple(
        ErrorTerm(f"X@{site}", pauli_error("x", site)) for site in range(3)))


def _b3_bit_flips():
    # b3's domain vectors (|x> +- |~x>)/sqrt(2) are not signed canonical
    code = build_b3_code()
    return code, _bit_flips(code)


def _r3_mixed():
    # E sends |000> to (|001> + |010>)/sqrt(2) and |111> to
    # (|110> + |101>)/sqrt(2): the image basis is signed canonical and the
    # domain basis is not
    code = build_r3_code()
    matrix = np.zeros((8, 8))
    matrix[[1, 2], 0] = matrix[[5, 6], 7] = 1 / math.sqrt(2.0)
    return code, ErrorSet((identity_error(code.field),
                           ErrorTerm("E", LinearMap(code.field, matrix))))


# (code and error set, ancilla sites) whose completion is no signed permutation
_UNSIGNED_COMPLETIONS = {
    "b3": (_b3_bit_flips, 2),
    "r3-mixed": (_r3_mixed, 1),
    "five": (lambda: (_five_qubit_code(), _five_qubit_basis()), 4),
}


@pytest.mark.parametrize("name", list(_UNSIGNED_COMPLETIONS))
def test_a_completion_that_is_no_signed_permutation_raises(name):
    build, n_ancilla = _UNSIGNED_COMPLETIONS[name]
    code, errors = build()
    with pytest.raises(SynthesisError, match="not a signed permutation; .*complete=False"):
        synthesize_correction(code, errors, n_ancilla)
    cmap = synthesize_correction(code, errors, n_ancilla, complete=False)
    assert cmap.operator is None
    fidelities, residuals = simulate(
        cmap, combined_draw(code, errors), rng_for(3, 5), 50)
    assert np.abs(fidelities - 1.0).max() <= 1e-10
    assert residuals.max() <= 1e-10


def _held_basis(matrix, outside=()):
    """A held basis whose lead is the first column of ``matrix`` and whose
    fill is the rest, with canonical vectors on ``outside`` between them."""
    return OrthonormalBasis(matrix[:, :1], np.array(outside, dtype=np.intp),
                            matrix[:, 1:])


def test_signed_columns_need_one_unit_entry_per_column():
    # lead and fill are scanned; each outside vector is +1 in its own row
    rows, values = codes._signed_columns(_held_basis(np.array([[0.0, -1.0], [1.0, 0.0]])))
    assert rows.tolist() == [1, 0] and values.tolist() == [1.0, -1.0]
    rows, values = codes._signed_columns(
        _held_basis(np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), outside=[0]))
    assert rows.tolist() == [2, 0, 1] and values.tolist() == [-1.0, 1.0, 1.0]
    for matrix in (np.diag([1.0, 0.5]), np.diag([0.5, 1.0]), np.diag([1.0, 1j]),
                   np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
                   np.array([[1.0, 0.0], [1.0, 1.0]])):
        with pytest.raises(SynthesisError, match="complete=False"):
            codes._signed_columns(_held_basis(matrix))


@pytest.mark.parametrize("build,dim", [(codes.build_r3_correction, 32),
                                       (codes.build_h3_correction, 1024)],
                         ids=["r3", "h3"])
def test_completed_build_completes_two_bases(build, dim, monkeypatch):
    # the benchmark's completion count reads these two calls
    rows = []

    def counting(partial):
        basis = complete_orthonormal(partial)
        rows.append(len(basis))
        return basis

    monkeypatch.setattr(codes, "complete_orthonormal", counting)
    build()
    assert rows == [dim, dim]


def test_h3_build_holds_one_dense_basis_at_a_time():
    # a completed 1024 x 1024 basis as one matrix is 8 MiB, and the build
    # peaked at about 8.4 MiB while it made one; the held bases are 20
    # columns each
    tracemalloc.start()
    try:
        codes.build_h3_correction()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


@pytest.mark.parametrize("build", [codes.build_r3_correction,
                                   lambda: codes.build_h3_correction("i"),
                                   lambda: codes.build_h3_correction("j")],
                         ids=["r3", "h3[i]", "h3[j]"])
def test_signed_builds_build_no_dense_basis(build):
    # (perm, sign) is read from the held bases, which have no dense form; the
    # h3 build's tracemalloc bound guards against a dense build of another kind
    cmap = build()
    perm, sign = cmap._completion
    assert np.array_equal(np.sort(perm), np.arange(cmap.domain[0].dim))
    assert np.isin(sign, (-1.0, 1.0)).all()
    assert not perm.flags.writeable and not sign.flags.writeable
    assert not hasattr(OrthonormalBasis, "matrix")
    assert OrthonormalBasis.__slots__ == ("lead", "outside", "fill")


# --- roundtrips ---------------------------------------------------------------

def test_roundtrip_identity_error(r3_correction):
    code = r3_correction.code
    basis = r3_correction.errors
    err = CombinedError(basis, np.array([1.0, 0, 0, 0]))
    res = roundtrip(r3_correction, (0.6, 0.8), err)
    assert res.residual <= 1e-12
    assert abs(res.fidelity - 1.0) <= 1e-12
    assert np.allclose(res.ancilla.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_roundtrip_worked_example(r3_correction):
    code = r3_correction.code
    rng = rng_for(3, 1)
    for _ in range(50):
        a, b = random_coefficients(code.field, 2, rng)
        theta = rng.uniform(0, 2 * math.pi)
        res = roundtrip(r3_correction, (a, b), so2_error(theta, 0))
        assert abs(res.fidelity - 1.0) <= 1e-10
        assert res.residual <= 1e-10
        expected_anc = np.array([math.cos(theta), 0.0, math.sin(theta), 0.0])
        assert np.abs(res.ancilla.amplitudes - expected_anc).max() <= 1e-10


def test_roundtrip_h3_random_unit_errors(h3_correction):
    code = h3_correction.code
    rng = rng_for(4, 2)
    for _ in range(50):
        logical = random_coefficients(code.field, 2, rng)
        u = random_unit_quaternion(rng)
        site = int(rng.integers(3))
        res = roundtrip(h3_correction, logical, su2_error(u, site))
        assert abs(res.fidelity - 1.0) <= 1e-10
        assert res.residual <= 1e-10


def test_roundtrip_flags_out_of_family_error(r3_correction):
    # diag(1, -1) is not a plane rotation and lies outside the corrected span;
    # the residual reports it and the caller judges it
    bad = codes.SiteOperator(ScalarField.REAL, 0, np.diag([1.0, -1.0]))
    res = roundtrip(r3_correction, (0.6, 0.8), bad)
    assert res.residual > 1e-3


def test_roundtrip_shor9_combined(shor9_correction):
    code = shor9_correction.code
    basis = effective_error_basis(code, ErrorFamily.PAULI_PER_SITE)
    rng = rng_for(5, 3)
    for _ in range(25):
        logical = random_coefficients(code.field, 2, rng)
        err = CombinedError(basis, random_coefficients(code.field, len(basis), rng))
        res = roundtrip(shor9_correction, logical, err)
        assert abs(res.fidelity - 1.0) <= 1e-10
        assert res.residual <= 1e-10


def test_roundtrip_linearity_r3(r3_correction):
    code = r3_correction.code
    basis = r3_correction.errors
    rng = rng_for(6, 4)
    for _ in range(100):
        logical = random_coefficients(code.field, 2, rng)
        err = CombinedError(basis, random_coefficients(code.field, 4, rng))
        res = roundtrip(r3_correction, logical, err)
        assert res.residual <= 1e-10
        assert abs(res.fidelity - 1.0) <= 1e-10


def _reference_roundtrip(code, cmap, logical, error):
    """The roundtrip before it worked on amplitude arrays: every intermediate
    is a validated state, a combination is applied term by term through
    ``CombinedError.apply``, and the map is applied to the full
    corrupted x |0_A> state through ``CorrectionMap.apply``.  The norm gap
    reads the corrupted state, as :func:`roundtrip` reads it (the norm of
    corrupted x |0_A> sums its entries in another order).  Returns
    (ancilla, residual, fidelity) without a residual gate."""
    encoded = codes.encode(code, logical)
    scale = encoded.norm()
    if isinstance(error, CombinedError):
        corrupted = error.apply(encoded)
    else:
        corrupted = encoded.with_amplitudes(codes._error_amplitudes(error, encoded))
    anc0 = basis_state(code.field, cmap.n_ancilla, 0)
    total = StateVector(code.field, cmap.total_sites,
                        np.kron(corrupted.amplitudes, anc0.amplitudes))
    out = cmap.apply(total)

    anc_dim = cmap.ancilla_dim
    table = out.amplitudes.reshape(code.dim, anc_dim)
    ref = encoded.amplitudes / scale
    anc = ref.conj() @ table
    residual_f = float(np.linalg.norm(table - np.outer(ref, anc)))
    norm_gap = abs(corrupted.norm() - out.norm())
    residual = max(residual_f, norm_gap)

    anc_norm = float(np.linalg.norm(anc))
    if anc_norm > 0:
        code_amps = table @ anc.conj() / (anc_norm ** 2)
    else:
        code_amps = np.zeros(code.dim, dtype=table.dtype)
    cf_norm = float(np.linalg.norm(code_amps))
    fidelity = float(abs(np.vdot(ref, code_amps)) / cf_norm) if cf_norm > 0 else 0.0
    return StateVector(code.field, cmap.n_ancilla, anc), residual, fidelity


_FAMILY = {ScalarField.REAL: ErrorFamily.SO2,
           ScalarField.QUATERNION_R4: ErrorFamily.SU2,
           ScalarField.COMPLEX: ErrorFamily.PAULI_PER_SITE}


def _basis(cmap):
    """The whole family basis, which `hqec simulate` combines (28 terms for
    shor9, whose map holds 22 representatives)."""
    return effective_error_basis(cmap.code, _FAMILY[cmap.code.field])


def _combined(cmap):
    """One combination over the whole family basis per call, drawn as the
    per-trial loop drew it before :func:`combined_draw` drew blocks."""
    basis, field = _basis(cmap), cmap.code.field
    return lambda rng: CombinedError(basis, random_coefficients(field, len(basis), rng))


def _single_site(cmap):
    code = cmap.code
    if code.field is ScalarField.QUATERNION_R4:
        return lambda rng: su2_error(random_unit_quaternion(rng),
                                     int(rng.integers(code.n_sites)))
    return lambda rng: so2_error(rng.uniform(0, 2 * math.pi),
                                 int(rng.integers(code.n_sites)), code.field)


def _dense_error(cmap):
    """A random full-space map per call, of unit scale, outside the corrected
    span: the ``LinearMap`` error of a roundtrip."""
    field, dim = cmap.code.field, cmap.code.dim

    def draw(rng):
        matrix = rng.standard_normal((dim, dim))
        if field.is_complex:
            matrix = matrix + 1j * rng.standard_normal((dim, dim))
        return LinearMap(field, matrix / math.sqrt(dim))

    return draw


def _assert_same_roundtrip(got, want):
    """Two roundtrip results agree bit for bit."""
    assert (got.residual, got.fidelity) == (want.residual, want.fidelity)
    assert got.ancilla.amplitudes.dtype == want.ancilla.amplitudes.dtype
    assert got.ancilla.amplitudes.tobytes() == want.ancilla.amplitudes.tobytes()


def _assert_matches_the_state_reference(cmap, draw_error, rng, trials):
    code = cmap.code
    for _ in range(trials):
        logical = random_coefficients(code.field, 2, rng)
        error = draw_error(rng)
        res = roundtrip(cmap, logical, error)
        _assert_same_roundtrip(roundtrip(cmap, logical, error), res)
        ancilla, residual, fidelity = _reference_roundtrip(code, cmap, logical, error)
        assert res.ancilla.amplitudes.dtype == ancilla.amplitudes.dtype
        if isinstance(error, CombinedError) or cmap._completion is None:
            # a combination corrupts through the stacked images, which sums
            # the terms in another order than CombinedError.apply; a partial
            # map's output is contracted on its support rows only, which sums
            # them in another order than the whole table
            assert abs(res.residual - residual) <= 1e-15
            assert abs(res.fidelity - fidelity) <= 1e-15
            assert np.abs(res.ancilla.amplitudes - ancilla.amplitudes).max() <= 1e-15
        else:
            assert res.residual == residual and res.fidelity == fidelity
            assert res.ancilla.amplitudes.tobytes() == ancilla.amplitudes.tobytes()


_DRAWS = pytest.mark.parametrize("draw", [_combined, _single_site, _dense_error],
                                 ids=["combined", "site", "linear-map"])


@_DRAWS
@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction", "shor9_correction"])
def test_roundtrip_matches_the_checked_twice_reference_bit_for_bit(fixture, draw,
                                                                  request):
    # each roundtrip is run twice, the two bit for bit equal, and checked
    # against the dense full-width reference
    cmap = request.getfixturevalue(fixture)
    _assert_matches_the_state_reference(cmap, draw(cmap), rng_for(11, 9),
                                        10 if draw is _dense_error else 40)


@pytest.mark.parametrize("draw", [_combined, _single_site], ids=["combined", "site"])
@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction", "shor9_correction"])
def test_roundtrip_matches_the_state_reference(fixture, draw, request):
    cmap = request.getfixturevalue(fixture)
    _assert_matches_the_state_reference(cmap, draw(cmap), rng_for(11, 7), 20)


def _raised(call, *args, **kwargs):
    """The type and message of the exception ``call`` raises, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            call(*args, **kwargs)
    return type(info.value), str(info.value)


def _zero_weighted_nan_error():
    nan_term = ErrorTerm("nan", SiteOperator(ScalarField.REAL, 0,
                                             [[math.nan, 0.0], [0.0, 1.0]]))
    return CombinedError(ErrorSet((identity_error(ScalarField.REAL), nan_term)),
                         [1.0, 0.0])


def _overflowing_shor9_error():
    """A map whose corrupted amplitudes are finite but whose norms overflow."""
    code = _partial_map("shor9").code
    matrix = 1e307 * np.eye(code.dim, dtype=code.field.dtype)
    matrix[0, 7] = 1e307
    return LinearMap(code.field, matrix)


_NON_FINITE = (ValueError, "logical coefficients must be finite")
_VANISHING = (ValueError, "logical coefficients must not all vanish")
_NAN_AMPLITUDES = (ValueError, "amplitudes must be finite")
_OVERFLOW = (ValueError, "a norm overflows: the state is too large")

# (map fixture, logical coefficients, error, the type and message raised)
_REJECTED_INPUTS = {
    "nan-logical": ("r3_correction", (math.nan, 1.0), lambda: so2_error(0.3, 0),
                    _NON_FINITE),
    "inf-logical": ("r3_correction", (math.inf, 1.0), lambda: so2_error(0.3, 0),
                    _NON_FINITE),
    "zero-logical": ("r3_correction", (0.0, 0.0), lambda: so2_error(0.3, 0),
                     _VANISHING),
    "nan-error": ("r3_correction", (0.6, 0.8), lambda: SiteOperator(
        ScalarField.REAL, 1, [[math.nan, 0.0], [0.0, 1.0]]), _NAN_AMPLITUDES),
    "non-square-error": ("r3_correction", (0.6, 0.8), lambda: _non_square_error().op,
                         (ValueError, "dimension mismatch: error of shape (4, 8) "
                                      "on a state of dimension 8")),
    "zero-weighted-nan-term": ("r3_correction", (0.6, 0.8), _zero_weighted_nan_error,
                               (ValueError, "error images must be finite")),
    "overflowing-error-norm": ("shor9_correction", (0.6, 0.8),
                               _overflowing_shor9_error, _OVERFLOW),
    "overflowing-logical": ("r3_correction", (1e160, 1e160),
                            lambda: so2_error(0.3, 0), _OVERFLOW),
    # the logical checks run only once the encoded norm is found non-finite,
    # zero or tiny, or the encoding's dtype not the field's: their order
    # against each other and against the error's checks is as before
    "nan-logical-nan-error": ("r3_correction", (math.nan, 1.0), lambda: SiteOperator(
        ScalarField.REAL, 1, [[math.nan, 0.0], [0.0, 1.0]]), _NON_FINITE),
    "complex-nan-logical-on-a-real-code": ("r3_correction", (complex(math.nan, 1.0), 0.8),
                                           lambda: so2_error(0.3, 0), _NON_FINITE),
    "complex-logical-nan-imaginary-part": ("r3_correction", (complex(0.6, math.nan), 0.8),
                                           lambda: so2_error(0.3, 0), _NON_FINITE),
    "complex-zero-logical-on-a-real-code": ("r3_correction", (0j, 0j),
                                            lambda: so2_error(0.3, 0), _VANISHING),
    "complex-logical-on-a-real-code": ("r3_correction", (0.6j, 0.8),
                                       lambda: so2_error(0.3, 0),
                                       (FieldMismatchError,
                                        "complex entries are invalid over real")),
    "wrong-length-nan-logical": ("r3_correction", (math.nan, 0.6, 0.8),
                                 lambda: so2_error(0.3, 0),
                                 (ValueError, "expected 2 logical coefficients")),
    "inf-logical-linear-map-error": ("r3_correction", (math.inf, 1.0),
                                     lambda: _non_square_error().op, _NON_FINITE),
    "zero-logical-linear-map-error": ("r3_correction", (0.0, 0.0),
                                      lambda: LinearMap(ScalarField.REAL, np.eye(8)),
                                      _VANISHING),
    "nan-linear-map-error": ("r3_correction", (0.6, 0.8), lambda: LinearMap(
        ScalarField.REAL, np.full((8, 8), math.nan)), _NAN_AMPLITUDES),
    "overflowing-shor9-encoded-norm": ("shor9_correction", (1.7e308, 1.7e308),
                                       lambda: pauli_error("x", 0), _OVERFLOW),
}


@pytest.mark.parametrize("case", list(_REJECTED_INPUTS))
def test_roundtrip_rejects_invalid_input(case, request):
    fixture, logical, make_error, raised = _REJECTED_INPUTS[case]
    cmap = request.getfixturevalue(fixture)
    assert _raised(roundtrip, cmap, logical, make_error()) == raised


@pytest.mark.parametrize("case", list(_REJECTED_INPUTS))
def test_roundtrip_rejects_what_the_checked_twice_reference_rejects(case, request):
    # each rejection is checked twice: a second call raises the same, and the
    # map's roundtrip of a valid input is bit for bit what it was before
    fixture, logical, make_error, raised = _REJECTED_INPUTS[case]
    cmap = request.getfixturevalue(fixture)
    valid = (0.6, 0.8), SiteOperator(cmap.code.field, 0, [[0.0, 1.0], [1.0, 0.0]])
    before, error = roundtrip(cmap, *valid), make_error()
    assert [_raised(roundtrip, cmap, logical, error) for _ in range(2)] == [raised] * 2
    _assert_same_roundtrip(roundtrip(cmap, *valid), before)


@pytest.mark.parametrize("draw", [_combined, _single_site], ids=["combined", "site"])
@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction"])
def test_roundtrip_coerces_complex_typed_logical_coefficients(fixture, draw, request):
    # over a real field, complex-typed coefficients with zero imaginary parts
    # are the real ones: the encoded and the corrupted amplitudes are both
    # coerced to the field, so no ComplexWarning reaches the correction
    cmap = request.getfixturevalue(fixture)
    code = cmap.code
    draw_error = draw(cmap)
    rng = rng_for(8, 5)
    for _ in range(5):
        logical = random_coefficients(code.field, 2, rng)
        error = draw_error(rng)
        expected = roundtrip(cmap, logical, error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = roundtrip(cmap, logical.astype(complex), error)
        assert res.ancilla.amplitudes.dtype == code.field.dtype
        _assert_same_roundtrip(res, expected)
        for imag in ((1e-3, 0.0), (0.0, -1e-300)):
            with pytest.raises(FieldMismatchError):
                roundtrip(cmap, logical + 1j * np.array(imag), error)


@pytest.mark.parametrize("draw", [_combined, _single_site], ids=["combined", "site"])
@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction", "shor9_correction"])
def test_roundtrip_builds_only_the_states_it_needs(fixture, draw, request,
                                                   monkeypatch):
    # each array is checked once, where it enters, so no state is validated
    # again: the encoded state a single-site error acts on and the ancilla
    # are built from the checked arrays as they are
    cmap = request.getfixturevalue(fixture)
    code = cmap.code
    rng = rng_for(8, 1)
    logical = random_coefficients(code.field, 2, rng)
    error = draw(cmap)(rng)
    built = []
    validate = StateVector.__post_init__

    def counting(self):
        built.append(self.n_sites)
        validate(self)

    def forbidden(self, state):
        raise AssertionError("roundtrip must not apply a map to a state")

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    monkeypatch.setattr(codes.CorrectionMap, "apply", forbidden)
    monkeypatch.setattr(LinearMap, "apply", forbidden)
    ancilla = roundtrip(cmap, logical, error).ancilla
    assert built == []
    amps = ancilla.amplitudes
    assert not amps.flags.writeable
    assert amps.dtype == code.field.dtype and amps.shape == (cmap.ancilla_dim,)
    validated = StateVector(code.field, cmap.n_ancilla, amps)
    assert built == [cmap.n_ancilla]
    assert (ancilla.field, ancilla.n_sites) == (validated.field, validated.n_sites)
    assert validated.amplitudes.tobytes() == amps.tobytes()


def test_shor9_roundtrip_builds_no_whole_output_table(shor9_correction):
    # the partial map corrects onto its 8 support rows: the whole 512 x 32
    # complex output table alone would take 256 KiB
    cmap = shor9_correction
    code = cmap.code
    rng = rng_for(8, 2)
    logical = random_coefficients(code.field, 2, rng)
    error = _combined(cmap)(rng)
    roundtrip(cmap, logical, error)
    tracemalloc.start()
    try:
        roundtrip(cmap, logical, error)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024 < code.dim * cmap.ancilla_dim * 16


@st.composite
def _out_of_family_cases(draw):
    """shor9 inputs whose logical coefficients are scaled by 1e-30..1e30 and
    whose error is a random dense map, outside the corrected span."""
    code = _partial_map("shor9").code
    logical = _unit_coefficients(draw, code.field, len(code.codewords))
    logical = logical * 10.0 ** draw(st.floats(-30.0, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (code.dim, code.dim)
    matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return logical, LinearMap(code.field, matrix / math.sqrt(code.dim))


@settings(max_examples=25, deadline=None)
@given(case=_out_of_family_cases())
def test_partial_map_residual_on_the_support_matches_the_full_table(case):
    # the map's output is zero off the codeword support, so the residual
    # taken on those rows is the residual of the whole code x ancilla table
    cmap = _partial_map("shor9")
    logical, error = case
    residual = _reference_roundtrip(cmap.code, cmap, logical, error)[1]
    res = roundtrip(cmap, logical, error)
    assert abs(res.residual - residual) <= 1e-15 * residual


def test_completed_map_residual_reads_the_whole_table(h3_correction):
    # a completed map sends what lies outside its domain span to rows off the
    # codeword support, where only a whole-table residual sees it
    cmap, code = h3_correction, h3_correction.code
    rng = rng_for(8, 4)
    for _ in range(5):
        logical = random_coefficients(code.field, 2, rng)
        error = LinearMap(code.field, rng.standard_normal((code.dim, code.dim)))
        residual = _reference_roundtrip(code, cmap, logical, error)[1]
        res = roundtrip(cmap, logical, error)
        assert residual > 1e-3
        assert abs(res.residual - residual) <= 1e-15 * residual


def test_shor9_roundtrip_builds_no_dense_temporary(shor9_correction):
    # the (28, 512) corruption intermediate and the full residual table
    # took the peak of one roundtrip to 822 KB
    cmap = shor9_correction
    rng = rng_for(8, 3)
    logical = random_coefficients(cmap.code.field, 2, rng)
    error = _combined(cmap)(rng)
    roundtrip(cmap, logical, error)      # the images are held
    tracemalloc.start()
    try:
        roundtrip(cmap, logical, error)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 2 ** 10


@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction", "shor9_correction"])
def test_simulate_applies_each_term_to_the_codewords_once(fixture, request,
                                                          monkeypatch):
    # combined draws corrupt through the images their set holds, so the
    # number of term applications does not grow with the trials
    cmap = request.getfixturevalue(fixture)
    code = cmap.code
    calls = _count_error_amplitudes(monkeypatch)
    counts = {}
    for trials in (1, 7):
        calls.clear()
        draw = combined_draw(code, _basis(cmap))   # a fresh error set each time
        simulate(cmap, draw, rng_for(8, 2), trials)
        counts[trials] = len(calls)
    n_terms = len(effective_error_basis(code, _FAMILY[code.field]))
    assert counts == {1: n_terms * len(code.codewords),
                      7: n_terms * len(code.codewords)}


@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction", "shor9_correction"])
def test_simulate_takes_no_numpy_norm_per_trial(fixture, request, monkeypatch):
    # the roundtrip and the draws take their norms through linalg._norm,
    # which skips np.linalg.norm's dispatch
    cmap = request.getfixturevalue(fixture)
    calls = _record_calls(monkeypatch, np.linalg, "norm", lambda *args: args)
    simulate(cmap, combined_draw(cmap.code, _basis(cmap)), rng_for(8, 2), 7)
    assert calls == []


@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction", "shor9_correction"])
def test_simulate_checks_finiteness_once_per_array(fixture, request, monkeypatch):
    # the roundtrip's norms stand as its finiteness checks, the logical
    # coefficients' too (a non-finite one makes the encoded norm non-finite),
    # and the drawer checks the error coefficients of its block at once
    cmap = request.getfixturevalue(fixture)
    code, basis = cmap.code, _basis(cmap)
    codes._images(code, basis)                  # the set holds its images
    shapes = _record_calls(monkeypatch, np, "isfinite", lambda x, *args: np.shape(x))
    simulate(cmap, combined_draw(code, basis), rng_for(8, 2), 7)
    assert shapes == [(7, len(basis))]


def test_combined_errors_of_checked_rows_equal_the_one_row_errors():
    code = build_h3_code()
    basis = effective_error_basis(code, ErrorFamily.SU2)
    rows = rng_for(6, 2).standard_normal((5, len(basis)))
    block = CombinedError._of_rows(basis, rows)
    assert len(block) == len(rows)
    for error, row in zip(block, rows, strict=True):
        one = CombinedError(basis, row)
        assert error.errors is one.errors is basis
        assert error.coefficients.dtype == one.coefficients.dtype
        assert error.coefficients.tobytes() == one.coefficients.tobytes()
        assert (error._corrupt(code, np.array([0.6, 0.8])).tobytes()
                == one._corrupt(code, np.array([0.6, 0.8])).tobytes())


def _bad_blocks():
    """(rows, the row CombinedError rejects alone or None, the message) for
    the four-term r3 basis."""
    rows = np.ones((3, 4))
    nan, inf, zero = rows.copy(), rows.astype(complex), rows.copy()
    nan[1, 2], inf[2, 0], zero[1] = math.nan, complex(0.0, -math.inf), 0.0
    width = "one coefficient per error term required"
    return {"narrow": (rows[:, :3], rows[0, :3], width),
            "wide": (np.ones((3, 5)), np.ones(5), width),
            "flat": (np.ones(4), None, width),
            "nan": (nan, nan[1], "error coefficients must be finite"),
            "complex-inf": (inf, inf[2], "error coefficients must be finite"),
            "zero-row": (zero, zero[1], "at least one coefficient must be nonzero")}


@pytest.mark.parametrize("case", list(_bad_blocks()))
def test_combined_errors_of_checked_rows_reject_a_bad_block(case):
    basis = effective_error_basis(build_r3_code(), ErrorFamily.SO2)
    rows, row, message = _bad_blocks()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            CombinedError._of_rows(basis, rows)
        if row is not None:             # with the message of the row alone
            with pytest.raises(ValueError, match=f"^{message}$"):
                CombinedError(basis, row)


@pytest.mark.parametrize("returned", [4, 6], ids=["short", "long"])
def test_simulate_rejects_a_drawer_that_returns_another_count(r3_correction, returned):
    # a short block left np.empty entries as results, a long one an IndexError
    draw = combined_draw(r3_correction.code, r3_correction.errors)
    with pytest.raises(ValueError, match=f"returned {returned} trials for a block of 5"):
        simulate(r3_correction, lambda rng, n: list(draw(rng, returned)),
                 rng_for(0, 1), 5)


class _Zeros:
    """A generator stand-in whose standard normals are all zero."""

    def standard_normal(self, size=None):
        return np.zeros(size)


@pytest.mark.parametrize("fixture", ["r3_correction", "shor9_correction"])
def test_a_zero_draw_raises_without_a_warning(fixture, request):
    code = request.getfixturevalue(fixture).code
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cannot normalize a draw of zero norm"):
            combined_draw(code, _basis(request.getfixturevalue(fixture)))(_Zeros(), 3)
        with pytest.raises(ValueError, match="cannot normalize a draw of zero norm"):
            random_coefficients(code.field, 2, _Zeros())


def _reference_simulate(cmap, draw_error, rng, trials):
    """The per-trial loop :func:`simulate` ran before it drew in blocks, kept
    verbatim: each trial draws its logical coefficients, then its error as
    ``draw_error(rng)``, and makes one roundtrip."""
    code = cmap.code
    fidelities = np.empty(trials)
    residuals = np.empty(trials)
    for t in range(trials):
        logical = random_coefficients(code.field, len(code.codewords), rng)
        res = roundtrip(cmap, logical, draw_error(rng))
        fidelities[t], residuals[t] = res.fidelity, res.residual
    return fidelities, residuals


def _site_streams(seed, stream):
    """A single-site run's simulation stream and its sites and redraw
    sub-streams, as verify's codes suite makes them."""
    return rng_for(seed, stream), rng_for(seed, stream, 1), rng_for(seed, stream, 2)


def _site_drawer(cmap, sites, redraw):
    """The block drawer of verify's single-site roundtrip check for the map's
    field: SU(2) errors over H, plane rotations otherwise."""
    if cmap.code.field is ScalarField.QUATERNION_R4:
        return verify._su2_draw(cmap.code, sites, redraw)
    return verify._so2_draw(cmap.code, sites)


def _site_trial(cmap, rng, sites, redraw):
    """One trial of verify's single-site roundtrip checks by the draw rule,
    through the public builders: one row from ``rng``, drawn whole again from
    ``redraw`` while its unit group has a norm at most UNIT_FLOOR; a site from
    ``sites``; the logical coefficients as :func:`random_coefficients` makes
    them from the row's first normals; the error from the rest of the row, a
    unit quaternion over H, else the angle atan2(y, x) of a normal pair."""
    code = cmap.code
    count = len(code.codewords)
    width = 2 * count if code.field.is_complex else count
    if code.field is ScalarField.QUATERNION_R4:
        row = drawn_row(rng, redraw, width + 4, lambda r: unit_draw(r[width:]))
        error = su2_error(quat.Quaternion.from_array(row[width:]).normalized(),
                          int(sites.integers(code.n_sites)))
    else:
        row = rng.standard_normal(width + 2)
        error = so2_error(math.atan2(row[width + 1], row[width]),
                          int(sites.integers(code.n_sites)), code.field)
    return random_coefficients(code.field, count, FixedDraws(row[:width])), error


def _reference_site_simulate(cmap, streams, trials):
    """The per-trial loop of verify's single-site roundtrip checks: each
    trial draws as :func:`_site_trial` from ``streams`` and makes one
    roundtrip."""
    fidelities, residuals = np.empty(trials), np.empty(trials)
    for t in range(trials):
        res = roundtrip(cmap, *_site_trial(cmap, *streams))
        fidelities[t], residuals[t] = res.fidelity, res.residual
    return fidelities, residuals


def _assert_same_runs(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


def _assert_same_places(streams, ref_streams):
    """The same draws were made: each generator stands at the same place."""
    assert [g.bit_generator.state for g in streams] \
        == [w.bit_generator.state for w in ref_streams]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("drawer", ["combined", "site"])
@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction", "shor9_correction"])
def test_simulate_matches_the_per_trial_loop_bit_for_bit(fixture, drawer, seed,
                                                         request):
    # at and around each block boundary, B = codes._BLOCK trials a block
    cmap = request.getfixturevalue(fixture)
    b = codes._BLOCK
    for trials in (1, b - 1, b, b + 1, 2 * b + 3):
        streams, ref_streams = _site_streams(seed, trials), _site_streams(seed, trials)
        if drawer == "combined":
            got = simulate(cmap, combined_draw(cmap.code, _basis(cmap)), streams[0], trials)
            want = _reference_simulate(cmap, _combined(cmap), ref_streams[0], trials)
        else:
            got = simulate(cmap, _site_drawer(cmap, *streams[1:]), streams[0], trials)
            want = _reference_site_simulate(cmap, ref_streams, trials)
        _assert_same_runs(got, want)
        _assert_same_places(streams, ref_streams)


def test_simulate_keeps_the_draw_order_on_a_shared_stream(r3_correction, h3_correction):
    # r3, then h3 on the same generator, as combined_error_linearity runs them
    rng, ref_rng = rng_for(5, 301), rng_for(5, 301)
    for cmap in (r3_correction, h3_correction):
        got = simulate(cmap, combined_draw(cmap.code, _basis(cmap)), rng, 600)
        want = _reference_simulate(cmap, _combined(cmap), ref_rng, 600)
        _assert_same_runs(got, want)
    assert rng.standard_normal() == ref_rng.standard_normal()


# positions in the h3 single-site draws, rows of two logical normals and a
# unit group, that make the redraw rule fire: the unit groups of trial 1 and
# of trial 130 (in the second block), and of the first redraw row, which is
# redrawn again
_TINY_SITE = {(303,): [*range(8, 12), *range(6 * 130 + 2, 6 * 130 + 6)],
              (303, 2): range(2, 6)}


def _tiny_site_streams():
    """Fixed draws of stream 303 and its redraw sub-stream with the unit
    groups of ``_TINY_SITE`` shrunk, and the real sites sub-stream."""
    fixed = tiny_streams(_TINY_SITE, {})
    return fixed(4, 303), rng_for(4, 303, 1), fixed(4, 303, 2)


def test_su2_drawer_redraws_a_row_from_the_redraw_stream(h3_correction):
    trials = codes._BLOCK + 5
    streams, ref_streams = _tiny_site_streams(), _tiny_site_streams()
    got = simulate(h3_correction, _site_drawer(h3_correction, *streams[1:]),
                   streams[0], trials)
    want = _reference_site_simulate(h3_correction, ref_streams, trials)
    _assert_same_runs(got, want)
    # one row of six normals a trial; trial 1 takes the second redraw row,
    # trial 130 the third
    drawn = [(s[0].drawn, s[2].drawn) for s in (streams, ref_streams)]
    assert drawn == [(trials * 6, 3 * 6)] * 2
    _assert_same_places(streams[1:2], ref_streams[1:2])


def test_a_drawer_that_redraws_from_the_simulation_stream_fails(h3_correction,
                                                                monkeypatch):
    # the planted fault: the drawer takes its redraws from the simulation's
    # own stream, so the test above must fail
    su2_draw = verify._su2_draw
    monkeypatch.setattr(verify, "_su2_draw", lambda code, sites, redraw: (
        lambda rng, n: su2_draw(code, sites, rng)(rng, n)))
    with pytest.raises(AssertionError):
        test_su2_drawer_redraws_a_row_from_the_redraw_stream(h3_correction)


def test_su2_drawer_keeps_the_unit_check(h3_correction, monkeypatch):
    # su2_error's check, row by row: no row passes a negative tolerance
    monkeypatch.setattr(quat, "TOL_UNIT", -1.0)
    with pytest.raises(ValueError, match="unit quaternion"):
        verify._su2_draw(h3_correction.code, rng_for(0, 303, 1),
                         rng_for(0, 303, 2))(rng_for(0, 303), 3)


@pytest.mark.parametrize("fixture", ["r3_correction", "h3_correction"])
def test_site_drawers_build_the_public_operators_unchecked(fixture, request):
    # each drawn operator, built by SiteOperator._checked, is the one
    # so2_error or su2_error builds from the same draws, bit for bit
    cmap = request.getfixturevalue(fixture)
    streams, ref_streams = _site_streams(9, 302), _site_streams(9, 302)
    for logical, op in _site_drawer(cmap, *streams[1:])(streams[0], 37):
        ref_logical, ref = _site_trial(cmap, *ref_streams)
        assert np.array_equal(logical, ref_logical)
        assert (op.field, op.site) == (ref.field, ref.site)
        assert op.matrix.dtype == ref.matrix.dtype
        assert op.matrix.tobytes() == ref.matrix.tobytes()
        assert not op.matrix.flags.writeable
        with pytest.raises(AttributeError, match="cannot assign"):
            op.site = ref.site
    _assert_same_places(streams, ref_streams)


@pytest.mark.parametrize("name", ["shor9", "h3[j]"])
def test_support_products_equal_the_full_width_products(name):
    # _correct reads the corrupted amplitudes on the images' support only and
    # _corrupt multiplies the images' support columns only: both are the
    # full-width products bit for bit, for any input, not only code-space ones
    cmap = _partial_map(name)
    code = cmap.code
    full_adjoint = _full_adjoint(cmap)
    assert cmap._domain_adjoint.shape[1] < code.dim
    rng = np.random.default_rng(21)

    def draw(count, scale=1.0):
        values = rng.standard_normal(count)
        if code.field.is_complex:
            values = values + 1j * rng.standard_normal(count)
        return scale * values

    for errors in (cmap.errors, _basis(cmap)):
        images = codes._scatter(*codes._images(code, errors), code.dim)
        for _ in range(200):
            corrupted = draw(code.dim, 10.0 ** rng.uniform(-30, 30))
            assert np.array_equal(cmap._domain_adjoint @ corrupted[cmap._columns],
                                  full_adjoint @ corrupted)
            logical = draw(len(code.codewords), 10.0 ** rng.uniform(-30, 30))
            error = CombinedError(errors, draw(len(errors)))
            weights = (error.coefficients[:, None] * logical).reshape(-1)
            assert np.array_equal(error._corrupt(code, logical),
                                  weights @ images.reshape(-1, code.dim))


_CORRUPTION_CODES = {"r3": build_r3_code, "h3[j]": lambda: build_h3_code("j"),
                     "shor9": build_shor9_code}


@functools.cache
def _code_and_basis(name):
    code = _CORRUPTION_CODES[name]()
    return code, effective_error_basis(code, _FAMILY[code.field])


def _unit_coefficients(draw, field, count):
    parts = draw(arrays(np.float64, (2 if field.is_complex else 1, count),
                        elements=st.floats(-1.0, 1.0)))
    coeffs = parts[0] + 1j * parts[1] if field.is_complex else parts[0]
    norm = np.linalg.norm(coeffs)
    assume(norm > 1e-3)
    return coeffs / norm


@st.composite
def _corruption_cases(draw):
    code, basis = _code_and_basis(draw(st.sampled_from(sorted(_CORRUPTION_CODES))))
    logical = _unit_coefficients(draw, code.field, len(code.codewords))
    error = CombinedError(basis, _unit_coefficients(draw, code.field, len(basis)))
    return code, logical, error


@settings(max_examples=200, deadline=None)
@given(case=_corruption_cases())
def test_table_corruption_matches_the_term_by_term_sum(case):
    code, logical, error = case
    expected = error.apply(codes.encode(code, logical)).amplitudes
    assert np.abs(error._corrupt(code, logical) - expected).max() <= 1e-15


@pytest.mark.parametrize("logical", [("a", "b"), (None, 1.0),
                                     np.array([0.6, 0.8], dtype=object)],
                         ids=["strings", "none", "object-floats"])
def test_roundtrip_rejects_non_numeric_logicals_as_the_reference(r3_correction, logical):
    # only float and complex coefficients wait for the norm; np.isfinite
    # rejects these at once, before the encoding, as encode does
    got = _raised(roundtrip, r3_correction, logical, so2_error(0.3, 0))
    assert got[0] is TypeError and "isfinite" in got[1]
    assert _raised(codes.encode, r3_correction.code, logical) == got


def _tiny_case(name):
    """(map fixture, error) of the underflow tests: one in-family error per map."""
    return {"r3": ("r3_correction", so2_error(0.3, 0)),
            "h3": ("h3_correction", su2_error(quat.Quaternion(0.6, 0.0, 0.8, 0.0), 1)),
            "shor9": ("shor9_correction", pauli_error("y", 4))}[name]


@pytest.mark.parametrize("s", [1e-150, 1e-160, 1e-170])
@pytest.mark.parametrize("name", ["r3", "h3", "shor9"])
def test_roundtrip_of_tiny_logical_coefficients_keeps_its_verdict(name, s, request):
    # (0.6 s, 0.8 s) once read fidelity 1.0000055615710528 on r3 at 1e-160 and
    # raised "must not all vanish" at 1e-170: the squared norms underflowed.
    # Scaled up by a power of two, they read as at scale 1, within rounding
    # (the fidelity at scale 1 itself reads 1 + 2 ** -52 on r3).
    fixture, error = _tiny_case(name)
    cmap = request.getfixturevalue(fixture)
    rounding = 8 * np.finfo(float).eps
    one = roundtrip(cmap, np.array([0.6, 0.8]), error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = roundtrip(cmap, s * np.array([0.6, 0.8]), error)
    assert tiny.fidelity <= 1.0 + rounding
    assert abs(tiny.fidelity - 1.0) <= codes.SYNTH_TOL
    assert abs(tiny.fidelity - one.fidelity) <= rounding
    assert abs(tiny.residual - s * one.residual) <= rounding * s
    assert (np.abs(tiny.ancilla.amplitudes - s * one.ancilla.amplitudes).max()
            <= rounding * s)


def test_roundtrip_scales_the_least_subnormal_logical_up(r3_correction):
    # 2 ** -1074 is lifted by 2 ** 1022, the largest factor roundtrip uses
    error = so2_error(0.3, 0)
    res = roundtrip(r3_correction, (5e-324, 0.0), error)
    assert res.fidelity == roundtrip(r3_correction, (1.0, 0.0), error).fidelity
    assert res.residual == 0.0


def test_unit_logical_coefficients_are_never_rescaled(r3_correction, monkeypatch):
    # no unit draw comes near the floor, so its bits are the reference's
    calls = []
    original = math.frexp
    monkeypatch.setattr(math, "frexp", lambda x: calls.append(x) or original(x))
    simulate(r3_correction, combined_draw(r3_correction.code, r3_correction.errors),
             rng_for(8, 2), 50)
    assert calls == []
    roundtrip(r3_correction, (1e-170, 0.0), so2_error(0.3, 0))
    assert len(calls) == 1



def test_roundtrip_of_an_error_outside_the_map_has_fidelity_zero(shor9_correction):
    # Y@0 Y@3 flips a bit in two blocks: its images are orthogonal to every
    # E_p w_l of the single-site basis, so the partial map sends them to zero
    matrix = functools.reduce(np.kron, [quat.PAULI_MATRICES["y"] if site in (0, 3)
                                        else np.eye(2) for site in range(9)])
    result = roundtrip(shor9_correction, (1.0, 0.0),
                       LinearMap(ScalarField.COMPLEX, matrix))
    assert result.fidelity == 0.0
    assert not result.ancilla.amplitudes.any()
    assert abs(result.residual - 1.0) <= 1e-12


def test_roundtrip_checks_zero_weighted_terms(r3_correction):
    errors = ErrorSet((identity_error(ScalarField.REAL),
                       identity_error(ScalarField.COMPLEX)))
    with pytest.raises(FieldMismatchError):
        roundtrip(r3_correction, (0.6, 0.8),
                  CombinedError(errors, [1.0, 0.0]))


def test_roundtrip_rejects_an_error_of_another_type(r3_correction):
    with pytest.raises(TypeError, match="CombinedError, SiteOperator or LinearMap"):
        roundtrip(r3_correction, (0.6, 0.8), "X@0")


def test_simulate_rejects_negative_trials(r3_correction):
    draw = combined_draw(r3_correction.code, r3_correction.errors)
    with pytest.raises(ValueError, match="trials must be nonnegative"):
        simulate(r3_correction, draw, rng_for(0, 1), -1)


@pytest.mark.parametrize("trials", [2.5, True], ids=["float", "bool"])
def test_simulate_rejects_non_integer_trials(r3_correction, trials):
    draw = combined_draw(r3_correction.code, r3_correction.errors)
    with pytest.raises(TypeError, match="trials must be an integer"):
        simulate(r3_correction, draw, rng_for(0, 1), trials)


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


@pytest.mark.parametrize("a, b, equivalent", [
    (1e200, 1e200, False), (1e-200, 1e-200, False),
    (1e200, 0.0, True), (0.0, 1e-200, True), (1.5e308 + 1.5e308j, 1e308, False),
], ids=["huge", "tiny", "huge-benign", "tiny-benign", "modulus-overflows"])
def test_phase_failure_verdict_holds_at_extreme_scale(a, b, equivalent):
    # |2i*a*b| used to overflow to inf <= inf, or underflow to 0, and read
    # a generic pair as equivalent; an amplitude whose modulus overflows
    # raised OverflowError
    assert phase_failure_demo(a, b).physically_equivalent is equivalent


def test_phase_failure_rejects_the_zero_pair():
    with pytest.raises(ValueError, match="nonzero amplitude"):
        phase_failure_demo(0.0, 0.0)


# --- effective error counting ---------------------------------------------

def test_count_b3_is_seven():
    assert count_effective_errors(build_b3_code(), _pauli_singles(3)) == 7


def _reference_effective_error_classes(code, errors):
    """The classes as one allclose comparison per (error, class) pair
    computed them: each error joins the first class whose first member's
    action matches its own within ACTION_TOL."""
    images = codes._scatter(*codes._images(code, errors), code.dim)
    classes = []
    for idx, action in enumerate(images):
        for cls in classes:
            if np.allclose(action, images[cls[0]], atol=codes.ACTION_TOL, rtol=0.0):
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return classes


@pytest.mark.parametrize("case", ["shor9", "b3-singles", "r3", "h3"])
def test_effective_error_classes_match_the_reference_on_the_built_in_sets(case):
    code, errors, n_classes = {
        "shor9": (build_shor9_code(), None, 22),
        "b3-singles": (build_b3_code(), _pauli_singles(3), 7),
        "r3": (build_r3_code(), None, 4),
        "h3": (build_h3_code(), None, 10),
    }[case]
    if errors is None:
        errors = effective_error_basis(code, _FAMILY[code.field])
    classes = codes.effective_error_classes(code, errors)
    assert classes == _reference_effective_error_classes(code, errors)
    assert len(classes) == n_classes


_ACTION_STEPS = {"below": np.nextafter(codes.ACTION_TOL, 0.0),
                 "at": codes.ACTION_TOL,
                 "above": np.nextafter(codes.ACTION_TOL, 1.0)}


@st.composite
def _near_tolerance_sets(draw):
    """Dense errors on a repetition code, whose codewords are the first and
    the last basis state.  Each error is a fresh matrix, filled on the upper
    half of those two columns, or an earlier error's matrix with up to three
    entries of the lower half set to ACTION_TOL or one ulp either side, in a
    real or an imaginary direction.  A move from a fresh matrix thus changes
    its images by exactly that step."""
    code = draw(st.sampled_from([build_r3_code(), build_complex3_code()]))
    dim, half = code.dim, code.dim // 2
    matrices = []
    for _ in range(draw(st.integers(2, 6))):
        if matrices and draw(st.booleans()):
            matrix = matrices[draw(st.integers(0, len(matrices) - 1))].copy()
            for _ in range(draw(st.integers(1, 3))):
                step = _ACTION_STEPS[draw(st.sampled_from(sorted(_ACTION_STEPS)))]
                step *= draw(st.sampled_from([1.0, -1.0]))
                if code.field.is_complex and draw(st.booleans()):
                    step = step * 1j
                row = draw(st.integers(half, dim - 1))
                matrix[row, draw(st.sampled_from([0, dim - 1]))] = step
        else:
            matrix = np.zeros((dim, dim), dtype=code.field.dtype)
            matrix[:half, [0, dim - 1]] = draw(arrays(
                np.float64, (half, 2), elements=st.floats(-1.0, 1.0)))
        matrices.append(matrix)
    errors = ErrorSet(tuple(ErrorTerm(f"e{k}", LinearMap(code.field, m))
                            for k, m in enumerate(matrices)))
    return code, errors


@settings(max_examples=200, deadline=None)
@given(case=_near_tolerance_sets())
def test_effective_error_classes_match_the_reference_at_the_tolerance(case):
    code, errors = case
    assert (codes.effective_error_classes(code, errors)
            == _reference_effective_error_classes(code, errors))


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

H3_TABLE_UNITS = ("i", "j", "k")


def h3_error_table(second_unit: str = "j") -> dict[str, list[tuple[int, str]]]:
    """First-site error table of the quaternionic repetition code, derived
    from the multiplication table: entry (codeword u, column v) is the signed
    unit of u*v (right multiplication)."""
    rows: dict[str, list[tuple[int, str]]] = {}
    for row_unit in ("1", second_unit):
        cells = []
        for col in H3_TABLE_UNITS:
            product = quat.UNITS[row_unit] * quat.UNITS[col]
            for name, u in quat.UNITS.items():
                if _close(product, u):
                    cells.append((1, name))
                    break
                if _close(product, -u):
                    cells.append((-1, name))
                    break
        rows[row_unit] = cells
    return rows


# Two reference readings of the code's error table as the paper prints it.
# Neither matches the table derived from right multiplication in every cell;
# the comparison below records exactly which cells differ under each reading.
H3_REFERENCE_READINGS = {
    # second codeword = i-repetition (row-1 cells force this identification)
    "i-codeword": {"1": [(1, "i"), (1, "j"), (1, "k")],
                   "i": [(-1, "1"), (-1, "k"), (1, "j")]},
    # second codeword = j-repetition (symbols read literally)
    "j-codeword": {"1": [(1, "j"), (1, "i"), (1, "k")],
                   "j": [(-1, "1"), (-1, "k"), (1, "i")]},
}


def h3_table_comparison() -> dict[str, list[tuple[str, str, tuple, tuple]]]:
    """Cells where the derived table differs from each reference reading:
    per reading, tuples (row unit, column unit, derived cell, reference
    cell)."""
    diffs: dict[str, list[tuple[str, str, tuple, tuple]]] = {}
    for reading, table in H3_REFERENCE_READINGS.items():
        second = "i" if "i-" in reading else "j"
        derived = h3_error_table(second)
        rows = []
        for row_unit, cells in table.items():
            for col, reference_cell in zip(H3_TABLE_UNITS, cells):
                derived_cell = derived[row_unit][H3_TABLE_UNITS.index(col)]
                if derived_cell != tuple(reference_cell):
                    rows.append((row_unit, col, derived_cell, tuple(reference_cell)))
        diffs[reading] = rows
    return diffs


def test_h3_error_table_derived():
    table = h3_error_table("j")
    assert table["1"] == [(1, "i"), (1, "j"), (1, "k")]
    assert table["j"] == [(-1, "k"), (-1, "1"), (1, "i")]
    table_i = h3_error_table("i")
    assert table_i["i"] == [(-1, "1"), (1, "k"), (-1, "j")]


def test_h3_table_readings_disagree_in_known_cells():
    diffs = h3_table_comparison()
    # reading the second codeword as the i-repetition: two sign flips
    assert {(row, col) for row, col, *_ in diffs["i-codeword"]} == {
        ("i", "j"), ("i", "k")}
    # literal reading (j-repetition): the first-row units come out swapped
    assert {(row, col) for row, col, *_ in diffs["j-codeword"]} == {
        ("1", "i"), ("1", "j"), ("j", "i"), ("j", "j")}



# --- which field decides ------------------------------------------------------
# Under q = a + b*j (embed_qubit), h3's unit right multiplications are
# complex-linear site matrices, the same ones complex3 can carry.  h3 composes
# its sites over R, so its KL table is the product of the real parts of the
# site inner products; over C the product of the complex values fails.

_SITE_MATRICES = {"i": 1j * _Z, "j": -1j * quat.PAULI_MATRICES["y"], "k": 1j * _X}


def _real_form(matrix: np.ndarray) -> np.ndarray:
    """The real 4x4 matrix of q -> embed(matrix @ extract(q)) on (w, x, y, z)."""
    columns = []
    for unit in quat.UNITS.values():
        pair = quat.extract_qubit(unit)
        a, b = matrix @ np.array([pair.a, pair.b])
        columns.append(quat.embed_qubit(quat.ComplexPair(a, b)).as_array())
    return np.column_stack(columns)


def _site_factor_table(real_parts: bool) -> np.ndarray:
    """[a, l, b, m] = the product over three sites of <M_a w_l|M_b w_m> on
    the site (or of its real part), w = (1, 0) and (0, 1), M_a the site
    factor of the 10-term basis {I, *i@k, *j@k, *k@k}."""
    terms = [{}] + [{site: _SITE_MATRICES[u]} for site in range(3) for u in "ijk"]
    table = np.ones((len(terms), 2, len(terms), 2))
    for site in range(3):
        images = np.array([[term.get(site, np.eye(2))[:, l] for l in range(2)]
                           for term in terms])
        inner = np.einsum("ali,bmi->albm", images.conj(), images)
        table = table * (inner.real if real_parts else inner)
    return table


@pytest.mark.parametrize("unit", list(_SITE_MATRICES))
def test_h3_unit_errors_are_complex_site_matrices(unit):
    assert np.array_equal(su2_error(quat.UNITS[unit].conj(), 0).matrix,
                          _real_form(_SITE_MATRICES[unit]))


def test_h3_kl_table_is_the_product_of_real_site_parts():
    code = build_h3_code("j")
    report = kl_check(code, effective_error_basis(code, ErrorFamily.SU2))
    assert report.passed
    assert np.array_equal(report.table, _site_factor_table(real_parts=True))


def _complex3_errors(units: str) -> ErrorSet:
    """{I} and the site matrices of ``units`` on each complex3 site."""
    return ErrorSet((identity_error(ScalarField.COMPLEX),) + tuple(
        ErrorTerm(f"{u}@{site}", SiteOperator(ScalarField.COMPLEX, site, _SITE_MATRICES[u]))
        for site in range(3) for u in units))


def test_complex3_with_the_same_site_matrices_fails():
    report = kl_check(build_complex3_code(), _complex3_errors("ijk"))
    assert not report.passed and report.max_deviation == 2.0
    assert np.array_equal(report.table, _site_factor_table(real_parts=False))


def _verdict_rows(complex3: codes.KLReport, real: codes.KLReport) -> list[tuple[bool, float]]:
    """(verdict, deviation) of complex3 read with complex logical
    coefficients, of complex3 read with real ones (its table's real part),
    and of the code over the real composition."""
    deviations = [_table_deviation(complex3.table), _table_deviation(complex3.table.real),
                  _table_deviation(real.table)]
    assert [deviations[0], deviations[2]] == [complex3.max_deviation, real.max_deviation]
    assert [deviations[0] <= codes.KL_TOL, deviations[2] <= codes.KL_TOL] == [
        complex3.passed, real.passed]
    return [(d <= codes.KL_TOL, d) for d in deviations]


@pytest.mark.parametrize("units", ["ijk", "i"], ids=["10-term", "I-iZ"])
def test_the_verdict_table_on_h3_sites(units):
    # the same site matrices: h3's unit right multiplications, complex3's
    # iZ, -iY, iX; only complex logical coefficients fail
    code = build_h3_code("j")
    h3 = kl_check(code, ErrorSet(tuple(
        t for t in effective_error_basis(code, ErrorFamily.SU2)
        if t.label == "I" or t.label[1] in units)))
    complex3 = kl_check(build_complex3_code(), _complex3_errors(units))
    assert len(h3.labels) == len(complex3.labels) == 1 + 3 * len(units)
    assert _verdict_rows(complex3, h3) == [(False, 2.0), (True, 0.0), (True, 0.0)]


def test_the_verdict_table_on_r3_sites():
    # r3's rot90 is -iY on real amplitudes (its diagonal is cos(pi/2), not 0);
    # with that site matrix complex3 passes too: the phase errors that fail it
    # are not real matrices, so r3's sites cannot carry them
    code = build_r3_code()
    r3 = kl_check(code, effective_error_basis(code, ErrorFamily.SO2))
    rot90 = so2_error(math.pi / 2.0, 0).matrix
    assert np.abs(rot90 - _SITE_MATRICES["j"]).max() <= 1e-16
    complex3 = kl_check(build_complex3_code(), _complex3_errors("j"))
    assert _verdict_rows(complex3, r3) == [(True, 0.0), (True, 0.0), (True, 0.0)]


# The four-codeword h3 code, 1x1x1, ixixi, jxjxj and kxkxk: a whole quaternion
# copied three times.  Under J = L_i x L_i x L_i (left multiplication by i on
# every site) it is a complex qubit with logical a + b*j, as q = a + b*j embeds
# one, and it corrects the same ten errors.  So complex logical coefficients
# alone do not make complex3 fail: each h3 site keeps its own complex unit,
# and the sites are composed over R, while over C the three sites share one i.

_H = ScalarField.QUATERNION_R4


def _left_i_on_every_site() -> np.ndarray:
    left = left_mult(quat.I)
    return np.kron(left, np.kron(left, left))


def _dense_errors(errors: ErrorSet) -> list[np.ndarray]:
    return [_product_map(_H, 3, {t.op.site: t.op.matrix}).matrix for t in errors]


def test_four_codeword_h3_code_is_correctable():
    code = h3x4_code()
    basis = effective_error_basis(code, ErrorFamily.SU2)
    report = kl_check(code, basis)
    assert len(basis) == 10 and report.passed and report.max_deviation == 0.0
    assert np.array_equal(report.gram, np.eye(10))


def test_four_codeword_h3_map_corrects_combined_errors():
    # measured: largest |F - 1| 4.4e-16, largest residual 4.2e-16
    code = h3x4_code()
    basis = effective_error_basis(code, ErrorFamily.SU2)
    cmap = synthesize_correction(code, basis, 2)
    perm, sign = cmap._completion
    assert np.array_equal(np.sort(perm), np.arange(4 ** 5))
    assert np.isin(sign, (-1.0, 1.0)).all()
    fidelities, residuals = simulate(cmap, combined_draw(code, basis), rng_for(0, 501), 1000)
    assert np.abs(fidelities - 1.0).max() <= 1e-15 and residuals.max() <= 1e-15


def test_four_codeword_h3_code_is_a_complex_qubit_under_left_i():
    code, j = h3x4_code(), _left_i_on_every_site()
    w = code.words
    assert np.array_equal(j @ j, -np.eye(64))
    # 1^3 -> i^3 -> -1^3 and j^3 -> k^3 -> -j^3: J maps the code to itself
    for a, b in ((w[0], w[1]), (w[1], -w[0]), (w[2], w[3]), (w[3], -w[2])):
        assert np.array_equal(j @ a, b)
    errors = _dense_errors(effective_error_basis(code, ErrorFamily.SU2))
    assert all(np.array_equal(j @ e, e @ j) for e in errors)
    # the complex KL table <x, y> + i <x, J y> on the logical basis 1^3, j^3
    images = np.array([[e @ w[l] for l in (0, 2)] for e in errors])
    table = (np.einsum("ali,bmi->albm", images, images)
             + 1j * np.einsum("ali,bmi->albm", images, images @ j.T))
    assert _table_deviation(table) == 0.0


def test_each_h3_site_keeps_its_own_complex_unit():
    # over C, iZ on one site multiplies |000> by the logical i; on h3x4, left
    # multiplication by i on one site takes 1^3 out of the code, and only J,
    # on all three sites at once, acts as the logical i
    c3 = build_complex3_code()
    word = c3.codewords[0]
    iz0 = SiteOperator(ScalarField.COMPLEX, 0, 1j * _Z)
    assert np.array_equal(apply_site(iz0, word).amplitudes, 1j * word.amplitudes)
    code = h3x4_code()
    left_i0 = SiteOperator(_H, 0, left_mult(quat.I))
    moved = apply_site(left_i0, code.codewords[0]).amplitudes
    assert not (code.words @ moved).any()     # orthogonal to every codeword
    assert np.array_equal(_left_i_on_every_site() @ code.words[0], code.words[1])


def _left_right_products() -> ErrorSet:
    """The identity and, per site, L_u, R_v and L_u R_v for units u, v: 46 terms."""
    left = {u: left_mult(quat.UNITS[u]) for u in "ijk"}
    right = {v: quat.right_mult_matrix(quat.UNITS[v]) for v in "ijk"}
    per_site = ([(f"{u}*", left[u]) for u in "ijk"] + [(f"*{v}", right[v]) for v in "ijk"]
                + [(f"{u}*{v}", left[u] @ right[v]) for u in "ijk" for v in "ijk"])
    return ErrorSet((identity_error(_H),) + tuple(
        ErrorTerm(f"{label}@{site}", SiteOperator(_H, site, m))
        for site in range(3) for label, m in per_site))


@pytest.mark.parametrize("build", [lambda: build_h3_code("j"), h3x4_code],
                         ids=["h3[j]", "h3x4"])
def test_left_or_right_units_pass_and_both_fail_on_the_h3_codes(build):
    # L_i R_i sends 1 to -1 and j to j on a site: a logical phase flip
    code = build()
    left = kl_check(code, ErrorSet((identity_error(_H),) + _left_units(range(3))))
    assert left.passed and left.max_deviation == 0.0
    both = _left_right_products()
    report = kl_check(code, both)
    assert len(both) == 46 and not report.passed and report.max_deviation == 2.0


# --- KL oracle ----------------------------------------------------------------

def _reference_kl_check(code, errors, tol=codes.KL_TOL):
    """The loop form of the check: every table entry is one inner product of
    two error images, and the violations are collected cell by cell."""
    n_err, n_words = len(errors), len(code.codewords)
    images = [[w.with_amplitudes(codes._error_amplitudes(t.op, w))
               for w in code.codewords] for t in errors]
    dtype = complex if code.field.is_complex else float
    table = np.zeros((n_err, n_words, n_err, n_words), dtype=dtype)
    for p1 in range(n_err):
        for l1 in range(n_words):
            for p2 in range(n_err):
                for l2 in range(n_words):
                    table[p1, l1, p2, l2] = inner(images[p1][l1], images[p2][l2])

    violations = []
    deviation = 0.0
    for p1 in range(n_err):
        for p2 in range(n_err):
            for l1 in range(n_words):
                for l2 in range(n_words):
                    if l1 == l2:
                        continue
                    value = table[p1, l1, p2, l2]
                    deviation = max(deviation, abs(value))
                    if abs(value) > tol:
                        violations.append(codes.KLViolation(
                            "cross", p1, p2, l1, l2, (value,), abs(value)))
            diag = table[p1, range(n_words), p2, range(n_words)]
            deviation = max(deviation, *(abs(diag[m] - diag[n])
                                         for m in range(n_words)
                                         for n in range(n_words)))
            spread_idx = (int(np.argmin(diag.real)), int(np.argmax(diag.real)))
            if code.field.is_complex:
                pair_dev = 0.0
                pair = (0, 0)
                for m in range(n_words):
                    for n in range(n_words):
                        d = abs(diag[m] - diag[n])
                        if d > pair_dev:
                            pair_dev, pair = d, (m, n)
                spread_idx = pair
            m, n = spread_idx
            dev = abs(diag[m] - diag[n])
            if dev > tol:
                violations.append(codes.KLViolation(
                    "diagonal", p1, p2, m, n, (diag[m], diag[n]), dev))

    passed = not violations
    gram = None
    if passed:
        gram = np.mean(table[:, range(n_words), :, range(n_words)], axis=0)
    return codes.KLReport(passed, table, tuple(violations), gram, errors.labels,
                          float(deviation))


def _assert_same_report(got, ref):
    assert got.passed == ref.passed
    assert got.table.dtype == ref.table.dtype
    assert np.array_equal(got.table, ref.table)
    assert (got.gram is None) == (ref.gram is None)
    if ref.gram is not None:
        assert np.array_equal(got.gram, ref.gram)
    assert got.labels == ref.labels
    assert len(got.violations) == len(ref.violations)
    for v, w in zip(got.violations, ref.violations):
        assert (v.kind, v.p1, v.p2, v.l1, v.l2) == (w.kind, w.p1, w.p2, w.l1, w.l2)
        assert v.values == w.values and v.deviation == w.deviation
    assert got.max_deviation == ref.max_deviation


_PHASES = {ScalarField.REAL: [1.0, -1.0],
           ScalarField.COMPLEX: [1.0, -1.0, 1j, -1j],
           ScalarField.QUATERNION_R4: [1.0, -1.0]}


def _small_matrix(draw, field, dim):
    """A dim x dim matrix with entries in -2..2 (Gaussian integers over C),
    so every inner product of the images is computed exactly."""
    entries = arrays(np.int64, (dim, dim), elements=st.integers(-2, 2))
    mat = draw(entries).astype(field.dtype)
    if field.is_complex:
        mat = mat + 1j * draw(entries)
    return mat


@st.composite
def _kl_cases(draw):
    """A code of signed (phased) canonical codewords and an error set of
    site operators, full-space maps and scaled identities; most draws fail
    the conditions, sets of scaled identities pass them."""
    field = draw(st.sampled_from(list(ScalarField)))
    n_sites = draw(st.integers(1, 2))
    dim = field.site_dim ** n_sites
    n_words = draw(st.integers(2, min(3, dim)))
    indices = draw(st.lists(st.integers(0, dim - 1), min_size=n_words,
                            max_size=n_words, unique=True))
    words = []
    for i in indices:
        amps = np.zeros(dim, dtype=field.dtype)
        amps[i] = draw(st.sampled_from(_PHASES[field]))
        words.append(StateVector(field, n_sites, amps))
    code = codes.Code("drawn", field, n_sites, tuple(words))

    terms = []
    for p in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["site", "map", "scalar"]))
        d = field.site_dim
        if kind == "site":
            op = SiteOperator(field, draw(st.integers(0, n_sites - 1)),
                              _small_matrix(draw, field, d))
        elif kind == "map":
            op = LinearMap(field, _small_matrix(draw, field, dim))
        else:
            op = SiteOperator(field, 0, draw(st.integers(-2, 2)) * np.eye(d))
        terms.append(ErrorTerm(f"{kind}{p}", op))
    return code, ErrorSet(tuple(terms))


@settings(max_examples=200, deadline=None)
@given(case=_kl_cases())
def test_kl_check_matches_the_loop_reference(case):
    code, errors = case
    _assert_same_report(kl_check(code, errors), _reference_kl_check(code, errors))


def test_builtin_kl_tables_match_the_loop_reference():
    phase_set = ErrorSet((identity_error(ScalarField.COMPLEX),
                          ErrorTerm("phase(pi)@0", phase_error_pi(0))))
    cases = [(build_r3_code(), ErrorFamily.SO2),
             (build_h3_code("i"), ErrorFamily.SU2),
             (build_h3_code("j"), ErrorFamily.SU2)]
    for code, family in cases:
        errors = effective_error_basis(code, family)
        got, ref = kl_check(code, errors), _reference_kl_check(code, errors)
        assert got.table.tobytes() == ref.table.tobytes()
        _assert_same_report(got, ref)
    c3 = build_complex3_code()
    _assert_same_report(kl_check(c3, phase_set), _reference_kl_check(c3, phase_set))

    shor9 = build_shor9_code()
    errors = effective_error_basis(shor9, ErrorFamily.PAULI_PER_SITE)
    got, ref = kl_check(shor9, errors), _reference_kl_check(shor9, errors)
    assert got.passed and ref.passed
    assert np.abs(got.table - ref.table).max() <= 1e-15


def _table_deviation(table):
    """The largest cross term or diagonal spread, recomputed over the whole
    table [a, l, b, m] with np.abs."""
    n_words = table.shape[1]
    cross = np.abs(table) * ~np.eye(n_words, dtype=bool)[:, None, :]
    diag = table[:, range(n_words), :, range(n_words)]      # (L, P, P)
    spread = np.abs(diag[:, None, :, :] - diag[None, :, :, :])
    return max(float(cross.max(initial=0.0)), float(spread.max(initial=0.0)))


def test_printed_kl_deviations_match_the_whole_table():
    # every (code, set) pair whose KL deviation verify or simulate prints
    phase_set = ErrorSet((identity_error(ScalarField.COMPLEX),
                          ErrorTerm("phase(pi)@0", phase_error_pi(0))))
    r3_map, h3_map = codes.build_r3_correction(), codes.build_h3_correction()
    shor9 = build_shor9_code()
    h3_i = build_h3_code("i")
    cases = [(r3_map.code, r3_map.errors, 0.0),
             (h3_map.code, h3_map.errors, 0.0),
             (h3_i, effective_error_basis(h3_i, ErrorFamily.SU2), 0.0),
             (shor9, effective_error_basis(shor9, ErrorFamily.PAULI_PER_SITE),
              1.5947675498076692e-17),
             (build_complex3_code(), phase_set, 2.0)]
    for code, errors, printed in cases:
        report = kl_check(code, errors)
        assert report.max_deviation == _table_deviation(report.table) == printed


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
            res = roundtrip(r3_correction, logical, err)
            out.append((res.fidelity, res.residual))
        return out

    reference = run()
    assert run() == reference
    # the shared loop keeps the draw order: logical state first, then error
    fidelities, residuals = simulate(
        r3_correction, combined_draw(code, basis), rng_for(42, 9), 20)
    assert list(zip(fidelities.tolist(), residuals.tolist())) == reference


# --- documentation ------------------------------------------------------------

def test_readme_library_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
