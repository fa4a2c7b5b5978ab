"""The frozen record contract of hqec's value types.

Every record class is read-only once built: assigning or deleting any
attribute raises AttributeError, as it did when these were frozen
dataclasses.  Each class's public fields and constructor signature are
pinned, and the four types that callers compare (``Quaternion``,
``ImaginaryVector``, ``PauliActionClass``, ``CheckRecord``) compare and hash
by value; the others compare by identity.  The report records take every
field the dataclasses had, in their order, with no default but the witness.
"""

import inspect
import math

import numpy as np
import pytest

from hqec import codes, dirac, linalg, report
from hqec import quaternion as quat

R = linalg.ScalarField.REAL


def _r3_objects():
    cmap = codes.build_r3_correction()
    code, errors = cmap.code, cmap.errors
    error = codes.CombinedError(errors, np.ones(len(errors)))
    return {
        codes.Code: code,
        codes.ErrorTerm: errors[0],
        codes.ErrorSet: errors,
        codes.CombinedError: error,
        codes.KLReport: codes.kl_check(code, errors),
        codes.KLViolation: codes.phase_failure_demo().kl.violations[0],
        codes.CorrectionMap: cmap,
        codes.RoundtripResult: codes.roundtrip(cmap, (0.6, 0.8), error),
        codes.PhaseFailureReport: codes.phase_failure_demo(),
    }


def _objects():
    gammas = dirac.build_gammas_standard()
    q = quat.Quaternion(0.5, -0.5, 0.5, 0.5)
    rotor = dirac.ErrorRotor(1.0, 0.0, 0.0, 0.0)
    return {
        linalg.StateVector: linalg.basis_state(R, 1, 0),
        linalg.LinearMap: linalg.LinearMap(R, np.eye(2)),
        linalg.SiteOperator: linalg.SiteOperator(R, 0, np.eye(2)),
        linalg.IsometryResult: linalg.is_isometry(np.eye(2)),
        linalg.OrthonormalBasis: linalg.complete_orthonormal([linalg.basis_state(R, 2, 1)]),
        quat.Quaternion: q,
        quat.ImaginaryVector: quat.ImaginaryVector(1.0, 0.0, 0.0),
        quat.ComplexPair: quat.ComplexPair(1j, 0j),
        quat.PauliActionClass: quat.classify_pauli_action("x", 0),
        **_r3_objects(),
        dirac.GammaSet: gammas,
        dirac.CliffordReport: dirac.clifford_check(gammas),
        dirac.SignedMatch: dirac.match_up_to_sign(np.eye(2), np.eye(2), "eye"),
        dirac.MajoranaSpinor: dirac.MajoranaSpinor.from_quaternion(q),
        dirac.ErrorRotor: rotor,
        dirac.CorrespondenceReport: dirac.quaternion_correspondence(
            rotor, q, dirac.majorana_set()),
        report.RunConfig: report.RunConfig(0, 1000, None, "text", None),
        report.CheckRecord: report.CheckRecord("alpha", "an identity", True, 0.5),
        report.SuiteReport: report.SuiteReport("verify-demo", 7, 12, (), 0.25),
    }


OBJECTS = _objects()

# class: (public fields, the parameters of the constructor), as the frozen
# dataclasses had them
CONTRACT = {
    linalg.StateVector: (
        ("field", "n_sites", "amplitudes"),
        "(field: 'ScalarField', n_sites: 'int', amplitudes: 'np.ndarray')"),
    linalg.LinearMap: (
        ("field", "matrix"), "(field: 'ScalarField', matrix: 'np.ndarray')"),
    linalg.SiteOperator: (
        ("field", "site", "matrix"),
        "(field: 'ScalarField', site: 'int', matrix: 'np.ndarray')"),
    linalg.IsometryResult: (
        ("passed", "max_deviation"), "(passed: 'bool', max_deviation: 'float')"),
    linalg.OrthonormalBasis: (
        ("lead", "outside", "fill"),
        "(lead: 'np.ndarray', outside: 'np.ndarray', fill: 'np.ndarray')"),
    quat.Quaternion: (
        ("w", "x", "y", "z"),
        "(w: 'float', x: 'float', y: 'float', z: 'float')"),
    quat.ImaginaryVector: (
        ("x", "y", "z"), "(x: 'float', y: 'float', z: 'float')"),
    quat.ComplexPair: (("a", "b"), "(a: 'complex', b: 'complex')"),
    quat.PauliActionClass: (
        ("axis", "target", "phase", "max_deviation"),
        "(axis: 'str', target: 'str', phase: 'complex', max_deviation: 'float')"),
    codes.Code: (
        ("name", "field", "n_sites", "codewords", "words", "support", "dim"),
        "(name: 'str', field: 'ScalarField', n_sites: 'int', "
        "codewords: 'tuple[StateVector, ...]')"),
    codes.ErrorTerm: (
        ("label", "op"), "(label: 'str', op: 'SiteOperator | LinearMap')"),
    codes.ErrorSet: (("terms",), "(terms: 'tuple[ErrorTerm, ...]')"),
    codes.CombinedError: (
        ("errors", "coefficients"),
        "(errors: 'ErrorSet', coefficients: 'np.ndarray')"),
    codes.KLViolation: (
        ("kind", "p1", "p2", "l1", "l2", "values", "deviation"),
        "(kind: 'str', p1: 'int', p2: 'int', l1: 'int', l2: 'int', values: 'tuple', "
        "deviation: 'float')"),
    codes.KLReport: (
        ("passed", "table", "violations", "gram", "labels", "max_deviation"),
        "(passed: 'bool', table: 'np.ndarray', violations: 'tuple[KLViolation, ...]', "
        "gram: 'np.ndarray | None', labels: 'tuple[str, ...]', "
        "max_deviation: 'float')"),
    codes.CorrectionMap: (
        ("code", "errors", "n_ancilla", "ancilla_states", "ancilla_dim"),
        "(code: 'Code', errors: 'ErrorSet', n_ancilla: 'int', "
        "ancilla_states: 'tuple[int, ...]', _domain_adjoint: 'np.ndarray', "
        "_columns: 'np.ndarray', "
        "_completion: 'tuple[np.ndarray, np.ndarray] | None')"),
    codes.RoundtripResult: (
        ("ancilla", "residual", "fidelity"),
        "(ancilla: 'StateVector', residual: 'float', fidelity: 'float')"),
    codes.PhaseFailureReport: (
        ("coeffs", "mimic_coeffs", "match_residual", "physically_equivalent", "kl"),
        "(coeffs: 'tuple[complex, complex]', mimic_coeffs: 'tuple[complex, complex]', "
        "match_residual: 'float', physically_equivalent: 'bool', kl: 'KLReport')"),
    dirac.GammaSet: (
        ("g0", "g1", "g2", "g3", "g5"),
        "(g0: 'np.ndarray', g1: 'np.ndarray', g2: 'np.ndarray', g3: 'np.ndarray', "
        "g5: 'np.ndarray')"),
    dirac.CliffordReport: (
        ("passed", "max_deviation", "failures"),
        "(passed: 'bool', max_deviation: 'float', failures: 'tuple[str, ...]')"),
    dirac.SignedMatch: (
        ("name", "sign", "deviation", "reference_deviation"),
        "(name: 'str', sign: 'int | None', deviation: 'float', "
        "reference_deviation: 'float')"),
    dirac.MajoranaSpinor: (("components",), "(components: 'np.ndarray')"),
    dirac.ErrorRotor: (
        ("e0", "e1", "e2", "e3"),
        "(e0: 'float', e1: 'float', e2: 'float', e3: 'float')"),
    dirac.CorrespondenceReport: (
        ("lhs", "rhs", "max_deviation"),
        "(lhs: 'np.ndarray', rhs: 'np.ndarray', max_deviation: 'float')"),
    report.RunConfig: (
        ("seed", "trials", "tol", "fmt", "out"),
        "(seed: 'int', trials: 'int', tol: 'float | None', fmt: 'str', "
        "out: 'Path | None')"),
    report.CheckRecord: (
        ("check_id", "anchor", "passed", "max_deviation", "witness"),
        "(check_id: 'str', anchor: 'str', passed: 'bool', "
        "max_deviation: 'float | None', witness: 'str | None' = None)"),
    report.SuiteReport: (
        ("suite", "seed", "trials", "records", "wall_time_s"),
        "(suite: 'str', seed: 'int', trials: 'int', "
        "records: 'tuple[CheckRecord, ...]', wall_time_s: 'float')"),
}

VALUE_TYPES = (quat.Quaternion, quat.ImaginaryVector, quat.PauliActionClass,
               report.CheckRecord)


def _id(cls):
    return cls.__name__


def test_every_record_class_is_covered():
    assert set(OBJECTS) == set(CONTRACT)
    for module in (linalg, quat, codes, dirac, report):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and issubclass(cls, linalg._Frozen):
                assert cls in CONTRACT


@pytest.mark.parametrize("cls", list(CONTRACT), ids=_id)
def test_public_fields_and_signature_are_pinned(cls):
    fields, signature = CONTRACT[cls]
    params = inspect.signature(cls).replace(return_annotation=inspect.Signature.empty)
    assert str(params) == signature
    assert tuple(n for n in cls.__slots__ if not n.startswith("_")) == fields
    obj = OBJECTS[cls]
    for name in fields:
        getattr(obj, name)


@pytest.mark.parametrize("cls", list(CONTRACT), ids=_id)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = OBJECTS[cls]
    fields = [name for name in cls.__slots__ if name != "__dict__"]
    held = {name: getattr(obj, name) for name in fields}
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert all(getattr(obj, name) is value for name, value in held.items())
    assert not hasattr(obj, "not_a_field")


@pytest.mark.parametrize("cls", list(CONTRACT), ids=_id)
def test_equality_is_by_value_only_for_the_compared_types(cls):
    obj = OBJECTS[cls]
    assert obj == obj and hash(obj) == hash(obj)
    if cls not in VALUE_TYPES:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_value_types_compare_and_hash_by_their_fields():
    pairs = [(lambda: quat.Quaternion(1.0, -2.0, 0.5, 0.0), quat.Quaternion(1.0, -2.0, 0.5, 1.0)),
             (lambda: quat.ImaginaryVector(0.0, 3.0, -1.0), quat.ImaginaryVector(0.0, 3.0, 1.0)),
             (lambda: quat.classify_pauli_action("y", 3),
              quat.classify_pauli_action("z", 3)),
             (lambda: report.CheckRecord("alpha", "an identity", True, 0.5, "w"),
              report.CheckRecord("alpha", "an identity", True, 0.5, None))]
    for make, other in pairs:
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != other
        assert len({a, b, other}) == 2
    # another class is never equal, even with the same field values
    assert quat.Quaternion(0.0, 1.0, 0.0, 0.0) != (0.0, 1.0, 0.0, 0.0)
    assert quat.ImaginaryVector(1.0, 0.0, 0.0) != quat.Quaternion(1.0, 0.0, 0.0, 0.0)
    # fields compare as a tuple does: a NaN equals only itself
    nan = math.nan
    assert quat.Quaternion(nan, 0.0, 0.0, 0.0) == quat.Quaternion(nan, 0.0, 0.0, 0.0)
    assert quat.Quaternion(float("nan"), 0.0, 0.0, 0.0) != quat.Quaternion(float("nan"), 0.0, 0.0, 0.0)


def test_repr_shows_the_public_fields():
    # the error messages of quaternion.py print quaternions this way
    assert repr(quat.Quaternion(1.0, -0.0, 2.5, math.inf)) == \
        "Quaternion(w=1.0, x=-0.0, y=2.5, z=inf)"
    assert repr(dirac.ErrorRotor(1, 0, 0, 0)) == "ErrorRotor(e0=1, e1=0, e2=0, e3=0)"
    assert repr(linalg.IsometryResult(True, 0.0)) == \
        "IsometryResult(passed=True, max_deviation=0.0)"
    # as the report dataclasses printed themselves
    assert repr(report.CheckRecord("alpha", "an identity", True, None)) == (
        "CheckRecord(check_id='alpha', anchor='an identity', passed=True, "
        "max_deviation=None, witness=None)")
    assert repr(report.RunConfig(7, 12, 0.5, "text", None)) == \
        "RunConfig(seed=7, trials=12, tol=0.5, fmt='text', out=None)"
    assert repr(report.SuiteReport("s", 7, 12, (), 0.25)) == \
        "SuiteReport(suite='s', seed=7, trials=12, records=(), wall_time_s=0.25)"
