"""Repetition-style codes, error models, the Knill-Laflamme checker, and
unitary correction-operator synthesis.

The correction scheme is the ancilla-transfer form: a unitary U maps
(E_p w_l) x |0_A> to w_l x |A_p> for every error E_p in a fixed set and every
codeword w_l.  Linearity then corrects arbitrary linear combinations of the
set: the corrupted, corrected state factors as (encoded state) x (ancilla
superposition), and the logical content is recovered intact.

Synthesis requires the error images to be mutually orthogonal (a diagonal
ancilla Gram matrix).  That condition is sufficient but not necessary for
correctability in general; degenerate sets can first be reduced to one
representative per distinct code-space action (see
:func:`effective_representatives`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quaternion as quat
from .linalg import (
    FieldMismatchError,
    LinearMap,
    ScalarField,
    SiteOperator,
    StateVector,
    _site_amplitudes,
    apply_site,
    basis_state,
    complete_orthonormal,
    inner,
    is_isometry,
    tensor_state,
)
from .quaternion import Quaternion
from .sampling import random_coefficients

KL_TOL = 1e-12
SYNTH_TOL = 1e-10


class SynthesisError(ValueError):
    pass


class FactorizationError(ValueError):
    """Corrected output failed to split as code-state x ancilla; carries the
    offending result for diagnosis."""

    def __init__(self, message: str, result: "RoundtripResult"):
        self.result = result
        super().__init__(message)


# ---------------------------------------------------------------------------
# Codes


@dataclass(frozen=True)
class Code:
    name: str
    field: ScalarField
    n_sites: int
    codewords: tuple[StateVector, ...]

    def __post_init__(self) -> None:
        for idx, w in enumerate(self.codewords):
            if w.field is not self.field or w.n_sites != self.n_sites:
                raise FieldMismatchError(f"codeword {idx} does not match the code")
            for jdx, v in enumerate(self.codewords[: idx + 1]):
                expect = 1.0 if jdx == idx else 0.0
                if abs(inner(v, w) - expect) > 1e-10:
                    raise ValueError(f"codewords {jdx}, {idx} are not orthonormal")

    @property
    def dim(self) -> int:
        return self.field.site_dim ** self.n_sites


def encode(code: Code, coeffs) -> StateVector:
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (len(code.codewords),):
        raise ValueError(f"expected {len(code.codewords)} logical coefficients")
    amps = sum(c * w.amplitudes for c, w in zip(coeffs, code.codewords))
    return StateVector(code.field, code.n_sites, amps)


def _repetition_codewords(field: ScalarField, n_sites: int,
                          unit_indices: tuple[int, int]) -> tuple[StateVector, ...]:
    dim = field.site_dim
    words = []
    for u in unit_indices:
        index = sum(u * dim ** k for k in range(n_sites))
        words.append(basis_state(field, n_sites, index))
    return tuple(words)


def build_r3_code() -> Code:
    """Three real qubits, codewords |000> and |111>."""
    return Code("r3", ScalarField.REAL, 3,
                _repetition_codewords(ScalarField.REAL, 3, (0, 1)))


def build_complex3_code() -> Code:
    """The same repetition kets over complex amplitudes."""
    return Code("complex3", ScalarField.COMPLEX, 3,
                _repetition_codewords(ScalarField.COMPLEX, 3, (0, 1)))


H3_UNIT_INDEX = {"i": 1, "j": 2}


def build_h3_code(second_unit: str = "j") -> Code:
    """Three quaternionic sites, codewords 1x1x1 and uxuxu.

    The repetition unit u of the second codeword is configurable between the
    quaternion units i and j; the correction property holds for either (and
    the checks below prove it for both), so the choice is a labeling matter.
    """
    if second_unit not in H3_UNIT_INDEX:
        raise ValueError(f"second_unit must be 'i' or 'j', got {second_unit!r}")
    return Code(f"h3[{second_unit}]", ScalarField.QUATERNION_R4, 3,
                _repetition_codewords(ScalarField.QUATERNION_R4, 3,
                                      (0, H3_UNIT_INDEX[second_unit])))


def _b3_words() -> tuple[np.ndarray, np.ndarray]:
    plus = np.zeros(8, dtype=complex)
    minus = np.zeros(8, dtype=complex)
    plus[0] = plus[7] = 1.0 / math.sqrt(2.0)
    minus[0] = 1.0 / math.sqrt(2.0)
    minus[7] = -1.0 / math.sqrt(2.0)
    return plus, minus


def build_b3_code() -> Code:
    """(|000> +- |111>)/sqrt(2): the three-qubit pre-encoding stage of the
    nine-qubit code."""
    plus, minus = _b3_words()
    return Code("b3", ScalarField.COMPLEX, 3,
                (StateVector(ScalarField.COMPLEX, 3, plus),
                 StateVector(ScalarField.COMPLEX, 3, minus)))


def build_shor9_code() -> Code:
    """Nine complex qubits: each b3 codeword repeated across three blocks."""
    plus, minus = _b3_words()
    sv = lambda a: StateVector(ScalarField.COMPLEX, 3, a)
    w0 = tensor_state([sv(plus)] * 3)
    w1 = tensor_state([sv(minus)] * 3)
    return Code("shor9", ScalarField.COMPLEX, 9, (w0, w1))


# ---------------------------------------------------------------------------
# Error operators


@dataclass(frozen=True)
class ErrorTerm:
    label: str
    op: SiteOperator | LinearMap


@dataclass(frozen=True)
class ErrorSet:
    """An ordered list of labeled error operators.  Sets meant for correction
    synthesis start with the identity (entry 0)."""

    terms: tuple[ErrorTerm, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, idx: int) -> ErrorTerm:
        return self.terms[idx]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)


@dataclass(frozen=True)
class CombinedError:
    """A linear combination sum_p e_p E_p over an ErrorSet."""

    errors: ErrorSet
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients)
        if coeffs.shape != (len(self.errors),):
            raise ValueError("one coefficient per error term required")
        if not np.any(np.abs(coeffs) > 0):
            raise ValueError("at least one coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    def apply(self, state: StateVector) -> StateVector:
        """Each term is checked against ``state`` as it is applied; only the
        sum is validated as a state."""
        amps = np.zeros_like(state.amplitudes,
                             dtype=complex if state.field.is_complex else float)
        for c, term in zip(self.coefficients, self.errors):
            if c != 0:
                amps = amps + c * _error_amplitudes(term.op, state)
        return state.with_amplitudes(amps)


def apply_error(op: SiteOperator | LinearMap, state: StateVector) -> StateVector:
    return state.with_amplitudes(_error_amplitudes(op, state))


def _error_amplitudes(op: SiteOperator | LinearMap, state: StateVector) -> np.ndarray:
    """The amplitudes of ``op`` applied to ``state``, checked for field, site
    and dimension but not validated as a state."""
    if isinstance(op, SiteOperator):
        return _site_amplitudes(op, state)
    return op._amplitudes(state)


def identity_error(field: ScalarField) -> ErrorTerm:
    eye = np.eye(field.site_dim, dtype=field.dtype)
    return ErrorTerm("I", SiteOperator(field, 0, eye))


def so2_error(theta: float, site: int,
              field: ScalarField = ScalarField.REAL) -> SiteOperator:
    """Plane rotation |0> -> cos |0> + sin |1>, |1> -> -sin |0> + cos |1>."""
    if field is ScalarField.QUATERNION_R4:
        raise FieldMismatchError("plane rotations act on 2-dimensional sites")
    c, s = math.cos(theta), math.sin(theta)
    return SiteOperator(field, site, np.array([[c, -s], [s, c]]))


def phase_error_pi(site: int) -> SiteOperator:
    """diag(i, -i): opposite phases on |0> and |1>."""
    return SiteOperator(ScalarField.COMPLEX, site, np.diag([1j, -1j]))


def pauli_error(axis: str, site: int) -> SiteOperator:
    return SiteOperator(ScalarField.COMPLEX, site, quat.PAULI_MATRICES[axis])


def su2_error(u: Quaternion, site: int) -> SiteOperator:
    """Right multiplication by conj(u) on one quaternionic site, the SU(2)
    action in real 4x4 form."""
    if not u.is_unit():
        raise ValueError("SU(2) errors require a unit quaternion")
    return SiteOperator(ScalarField.QUATERNION_R4, site,
                        quat.right_mult_matrix(u.conj()))


def right_unit_error(unit: str, site: int) -> SiteOperator:
    """Right multiplication by a quaternion basis unit (i, j, or k)."""
    return SiteOperator(ScalarField.QUATERNION_R4, site,
                        quat.right_mult_matrix(quat.UNITS[unit]))


class ErrorFamily(Enum):
    SO2 = "so2"
    SU2 = "su2"
    PAULI_PER_SITE = "pauli"


def effective_error_basis(code: Code, family: ErrorFamily) -> ErrorSet:
    """The discrete generating set whose span contains every family error.

    A plane rotation is identity*cos + (90-degree rotation)*sin, a right
    multiplication by conj(u) is a combination of identity and the three unit
    right multiplications, and any 2x2 unitary is a combination of identity
    and the Paulis, so one generator set per site suffices in each family.
    """
    terms = [identity_error(code.field)]
    if family is ErrorFamily.SO2:
        if code.field is ScalarField.QUATERNION_R4:
            raise FieldMismatchError("plane rotations need 2-dimensional sites")
        for site in range(code.n_sites):
            terms.append(ErrorTerm(f"rot90@{site}",
                                   so2_error(math.pi / 2.0, site, code.field)))
    elif family is ErrorFamily.SU2:
        if code.field is not ScalarField.QUATERNION_R4:
            raise FieldMismatchError("unit right multiplications need quaternionic sites")
        for site in range(code.n_sites):
            for unit in ("i", "j", "k"):
                terms.append(ErrorTerm(f"*{unit}@{site}", right_unit_error(unit, site)))
    elif family is ErrorFamily.PAULI_PER_SITE:
        if code.field is not ScalarField.COMPLEX:
            raise FieldMismatchError("Pauli errors need complex sites")
        for site in range(code.n_sites):
            for axis in ("x", "y", "z"):
                terms.append(ErrorTerm(f"{axis.upper()}@{site}", pauli_error(axis, site)))
    else:  # pragma: no cover
        raise ValueError(f"unknown family {family}")
    return ErrorSet(tuple(terms))


# ---------------------------------------------------------------------------
# Knill-Laflamme conditions


@dataclass(frozen=True)
class KLViolation:
    kind: str            # "cross" (l1 != l2) or "diagonal" (unequal diagonals)
    p1: int
    p2: int
    l1: int
    l2: int
    values: tuple
    deviation: float

    def describe(self, labels: tuple[str, ...]) -> str:
        if self.kind == "cross":
            return (f"<w{self.l1}|{labels[self.p1]}^ {labels[self.p2]}|w{self.l2}> "
                    f"= {self.values[0]} (should vanish)")
        return (f"<w{self.l1}|{labels[self.p1]}^ {labels[self.p2]}|w{self.l1}> = "
                f"{self.values[0]} but <w{self.l2}|...|w{self.l2}> = {self.values[1]}")


@dataclass(frozen=True)
class KLReport:
    passed: bool
    table: np.ndarray          # [p1, l1, p2, l2] = <E_p1 w_l1 | E_p2 w_l2>
    violations: tuple[KLViolation, ...]
    gram: np.ndarray | None    # ancilla Gram <A_p1|A_p2> when passing
    tol: float
    labels: tuple[str, ...]

    @property
    def max_deviation(self) -> float:
        dev = 0.0
        for v in self.violations:
            dev = max(dev, v.deviation)
        return dev


def kl_check(code: Code, errors: ErrorSet, tol: float = KL_TOL) -> KLReport:
    """Evaluate both correctability condition families for an error set.

    Cross condition: <w_l1| E_p1^ E_p2 |w_l2> = 0 for l1 != l2.
    Diagonal condition: the l1 = l2 values agree across codewords.
    Failure is a verdict carried by the report, not an exception.  When both
    families hold, the common diagonal values form the ancilla Gram matrix.
    """
    n_err, n_words = len(errors), len(code.codewords)
    images = [[apply_error(t.op, w) for w in code.codewords] for t in errors]
    dtype = complex if code.field.is_complex else float
    table = np.zeros((n_err, n_words, n_err, n_words), dtype=dtype)
    for p1 in range(n_err):
        for l1 in range(n_words):
            for p2 in range(n_err):
                for l2 in range(n_words):
                    table[p1, l1, p2, l2] = inner(images[p1][l1], images[p2][l2])

    violations: list[KLViolation] = []
    for p1 in range(n_err):
        for p2 in range(n_err):
            for l1 in range(n_words):
                for l2 in range(n_words):
                    if l1 == l2:
                        continue
                    value = table[p1, l1, p2, l2]
                    if abs(value) > tol:
                        violations.append(KLViolation(
                            "cross", p1, p2, l1, l2, (value,), abs(value)))
            diag = table[p1, range(n_words), p2, range(n_words)]
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
                violations.append(KLViolation(
                    "diagonal", p1, p2, m, n, (diag[m], diag[n]), dev))

    passed = not violations
    gram = None
    if passed:
        gram = np.mean(table[:, range(n_words), :, range(n_words)], axis=0)
    return KLReport(passed, table, tuple(violations), gram, tol, errors.labels)


def kl_condition_deviation(report: KLReport) -> float:
    """Largest deviation from either condition family, verdict aside: the
    biggest cross term or the biggest spread between diagonal values."""
    table = report.table
    n_words = table.shape[1]
    dev = 0.0
    for l1 in range(n_words):
        for l2 in range(n_words):
            if l1 != l2:
                dev = max(dev, float(np.abs(table[:, l1, :, l2]).max()))
    diag = table[:, range(n_words), :, range(n_words)]      # (L, P, P)
    spread = np.abs(diag[:, None, :, :] - diag[None, :, :, :])
    dev = max(dev, float(spread.max()))
    return dev


# ---------------------------------------------------------------------------
# Correction synthesis


@dataclass(frozen=True)
class CorrectionMap:
    """The ancilla-transfer partial isometry, optionally completed to a full
    orthogonal/unitary operator on code-space x ancilla-space."""

    code: Code
    errors: ErrorSet
    n_ancilla: int
    ancilla_states: tuple[int, ...]
    domain: tuple[StateVector, ...]
    image: tuple[StateVector, ...]
    operator: LinearMap | None

    @property
    def total_sites(self) -> int:
        return self.code.n_sites + self.n_ancilla

    @property
    def ancilla_dim(self) -> int:
        return self.code.field.site_dim ** self.n_ancilla

    def ancilla_zero(self) -> StateVector:
        return basis_state(self.code.field, self.n_ancilla, 0)

    def _pair_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjoint of the stacked domain (one row per domain vector) and
        the stacked image (one column per image vector), built once.  Only
        the adjoint is kept: it is all that :meth:`apply` needs, and the
        domain vectors are kept in ``domain`` anyway."""
        cached = getattr(self, "_pair_cache", None)
        if cached is None:
            adj = np.column_stack([v.amplitudes for v in self.domain]).conj().T
            cached = (adj, np.column_stack([v.amplitudes for v in self.image]))
            object.__setattr__(self, "_pair_cache", cached)
        return cached

    def isometry_deviation(self) -> float:
        """Largest deviation from length preservation: of the completed
        operator when there is one, else of the orthonormal domain and image
        lists that define the partial isometry."""
        if self.operator is not None:
            return is_isometry(self.operator).max_deviation
        adj, img = self._pair_matrices()
        grams = (adj @ adj.conj().T, img.conj().T @ img)
        return max(float(np.abs(g - np.eye(g.shape[0])).max()) for g in grams)

    def apply(self, state: StateVector) -> StateVector:
        """Apply the correction operator.  Without a completion this acts as
        the partial isometry and annihilates anything outside its domain
        span; downstream residual checks surface such inputs."""
        if self.operator is not None:
            return self.operator.apply(state)
        field = self.code.field
        if state.field is not field:
            raise FieldMismatchError(
                f"map over {field.value} applied to {state.field.value} state")
        adj, img = self._pair_matrices()
        if state.dim != adj.shape[1]:
            raise ValueError(f"dimension mismatch: {adj.shape[1]} vs {state.dim}")
        return state.with_amplitudes(img @ (adj @ state.amplitudes))


def synthesize_correction(code: Code, errors: ErrorSet, n_ancilla: int, *,
                          ancilla_states: tuple[int, ...] | None = None,
                          complete: bool = True,
                          tol: float = SYNTH_TOL,
                          kl_tol: float = KL_TOL) -> CorrectionMap:
    """Build the unitary correction operator for an effective error set.

    Requires the correctability check to pass with a *diagonal* ancilla Gram
    matrix (mutually orthogonal error images).  The identity error keeps the
    ancilla at |0_A>; each remaining error is assigned its own ancilla basis
    state, by default in set order, or explicitly through ``ancilla_states``.
    Signs and coefficients of the resulting map are derived from the defining
    pairs, never hard-coded.
    """
    if len(errors) == 0:
        raise SynthesisError("the error set is empty; entry 0 must be the identity")
    report = kl_check(code, errors, kl_tol)
    if not report.passed:
        worst = report.violations[0].describe(report.labels)
        raise SynthesisError(f"error set is not correctable: {worst}")
    gram = report.gram
    off = gram - np.diag(np.diag(gram))
    if np.abs(off).max(initial=0.0) > tol:
        raise SynthesisError("error images are not orthogonal "
                             "(ancilla Gram matrix has off-diagonal entries)")
    diag = np.real(np.diag(gram))
    if np.any(diag <= tol):
        raise SynthesisError("an error operator annihilates the code space")

    identity_action = np.stack([w.amplitudes for w in code.codewords])
    if not np.allclose(_restriction(errors[0], code), identity_action,
                       atol=kl_tol, rtol=0.0):
        raise SynthesisError("entry 0 of the error set must act as the "
                             "identity on the code space")

    n_err = len(errors)
    anc_dim = code.field.site_dim ** n_ancilla
    if anc_dim < n_err:
        raise SynthesisError(
            f"{n_ancilla} ancilla sites give {anc_dim} states < {n_err} errors")
    if ancilla_states is None:
        ancilla_states = tuple(range(n_err))
    if len(ancilla_states) != n_err or len(set(ancilla_states)) != n_err:
        raise SynthesisError("need one distinct ancilla state per error")
    if ancilla_states[0] != 0:
        raise SynthesisError("the identity error must map to ancilla |0_A>")
    if max(ancilla_states) >= anc_dim:
        raise SynthesisError("ancilla state index out of range")

    anc0 = basis_state(code.field, n_ancilla, 0)
    total_sites = code.n_sites + n_ancilla
    domain: list[StateVector] = []
    image: list[StateVector] = []
    for p, term in enumerate(errors):
        scale = 1.0 / math.sqrt(diag[p])
        anc_p = basis_state(code.field, n_ancilla, ancilla_states[p])
        for w in code.codewords:
            corrupted = apply_error(term.op, w)
            domain.append(StateVector(
                code.field, total_sites,
                scale * np.kron(corrupted.amplitudes, anc0.amplitudes)))
            image.append(StateVector(
                code.field, total_sites,
                np.kron(w.amplitudes, anc_p.amplitudes)))

    operator = None
    if complete:
        dom_full = complete_orthonormal(domain)
        img_full = complete_orthonormal(image)
        dom_mat = np.column_stack([v.amplitudes for v in dom_full])
        img_mat = np.column_stack([v.amplitudes for v in img_full])
        operator = LinearMap(code.field, img_mat @ dom_mat.conj().T)
    return CorrectionMap(code, errors, n_ancilla, tuple(ancilla_states),
                         tuple(domain), tuple(image), operator)


# Ancilla order reproducing the reference correction table for the real
# 3-site code: site errors 1, 2, 3 land on |10>, |01>, |11> respectively.
R3_TABLE_ANCILLA_STATES = (0, 2, 1, 3)


def build_r3_correction(complete: bool = True) -> CorrectionMap:
    code = build_r3_code()
    errors = effective_error_basis(code, ErrorFamily.SO2)
    return synthesize_correction(code, errors, 2,
                                 ancilla_states=R3_TABLE_ANCILLA_STATES,
                                 complete=complete)


def build_h3_correction(second_unit: str = "j", complete: bool = True) -> CorrectionMap:
    code = build_h3_code(second_unit)
    errors = effective_error_basis(code, ErrorFamily.SU2)
    return synthesize_correction(code, errors, 2, complete=complete)


def build_shor9_correction() -> CorrectionMap:
    """Correction map for the nine-qubit code over single-site Paulis.

    The 28-element basis is degenerate (the three phase errors inside one
    block share an action), so the map is synthesized on one representative
    per distinct action; linearity still corrects every combination of the
    original 28.  Completion of the 16384-dimensional operator is skipped.
    """
    code = build_shor9_code()
    errors = effective_error_basis(code, ErrorFamily.PAULI_PER_SITE)
    reps, _ = effective_representatives(code, errors)
    return synthesize_correction(code, reps, 5, complete=False)


# ---------------------------------------------------------------------------
# Roundtrip simulation


@dataclass(frozen=True)
class RoundtripResult:
    code_factor: StateVector       # recovered code-space state
    ancilla: StateVector           # extracted ancilla factor
    recovered_coeffs: np.ndarray   # <w_l | code_factor>
    residual: float                # rank-one factorization residual
    fidelity: float                # |<encoded | code_factor>| after normalization


def roundtrip(code: Code, cmap: CorrectionMap, logical,
              error: CombinedError | SiteOperator | LinearMap,
              tol: float | None = SYNTH_TOL) -> RoundtripResult:
    """Encode, corrupt, append |0_A>, correct, and factor the result.

    The output must split as (encoded state) x (ancilla superposition); the
    residual measures the failure of that split and flags both a broken map
    and an out-of-family error.  A residual above ``tol`` raises
    FactorizationError; pass ``tol=None`` to always get the result back and
    judge the residual yourself (what the reporting suites do).
    """
    encoded = encode(code, logical)
    scale = encoded.norm()
    if scale <= 0:
        raise ValueError("logical coefficients must not all vanish")
    if isinstance(error, CombinedError):
        corrupted = error.apply(encoded)
    else:
        corrupted = apply_error(error, encoded)
    anc0 = cmap.ancilla_zero()
    total = StateVector(code.field, cmap.total_sites,
                        np.kron(corrupted.amplitudes, anc0.amplitudes))
    out = cmap.apply(total)

    anc_dim = cmap.ancilla_dim
    table = out.amplitudes.reshape(code.dim, anc_dim)
    ref = encoded.amplitudes / scale
    anc = ref.conj() @ table
    residual_f = float(np.linalg.norm(table - np.outer(ref, anc)))
    norm_gap = abs(total.norm() - out.norm())
    residual = max(residual_f, norm_gap)

    anc_norm = float(np.linalg.norm(anc))
    if anc_norm > 0:
        code_amps = table @ anc.conj() / (anc_norm ** 2)
    else:
        code_amps = np.zeros(code.dim, dtype=table.dtype)
    cf_norm = float(np.linalg.norm(code_amps))
    fidelity = float(abs(np.vdot(ref, code_amps)) / cf_norm) if cf_norm > 0 else 0.0
    code_factor = StateVector(code.field, code.n_sites, code_amps)
    ancilla = StateVector(code.field, cmap.n_ancilla, anc)
    coeffs = np.array([inner(w, code_factor) for w in code.codewords])
    result = RoundtripResult(code_factor, ancilla, coeffs, residual, fidelity)
    if tol is not None and residual > tol:
        raise FactorizationError(
            f"output does not factor (residual {residual:.3e} > {tol:.1e}); "
            "the map is broken or the error lies outside the corrected family",
            result)
    return result


def combined_draw(errors: ErrorSet, field: ScalarField):
    """An error draw for :func:`simulate`: a random linear combination of the
    set, with coefficients from :func:`random_coefficients`."""
    return lambda rng: CombinedError(
        errors, random_coefficients(field, len(errors), rng))


def simulate(cmap: CorrectionMap, draw_error, rng: np.random.Generator,
             trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded roundtrips through a correction map.

    Each trial draws the logical coefficients, then the error as
    ``draw_error(rng)``, and makes one :func:`roundtrip` call without a
    residual gate.  Returns the per-trial fidelities and residuals; the draw
    order fixes every seeded report.
    """
    code = cmap.code
    fidelities = np.empty(trials)
    residuals = np.empty(trials)
    for t in range(trials):
        logical = random_coefficients(code.field, len(code.codewords), rng)
        res = roundtrip(code, cmap, logical, draw_error(rng), tol=None)
        fidelities[t], residuals[t] = res.fidelity, res.residual
    return fidelities, residuals


# ---------------------------------------------------------------------------
# Phase-failure demonstration


@dataclass(frozen=True)
class PhaseFailureReport:
    coeffs: tuple[complex, complex]            # logical input (a, b)
    mimic_coeffs: tuple[complex, complex]      # (i*a, -i*b)
    match_residual: float                      # corrupted vs encode(i*a, -i*b)
    physically_equivalent: bool                # (i*a, -i*b) ~ phase * (a, b)?
    kl: KLReport                               # verdict for {identity, phase error}


def phase_failure_demo(a: complex = 1 / math.sqrt(2.0),
                       b: complex = 1 / math.sqrt(2.0)) -> PhaseFailureReport:
    """Show how the plain complex repetition code loses to the diag(i, -i)
    phase error.

    Applying the error on any single site turns the encoding of (a, b) into
    the *valid* encoding of (i*a, -i*b): no measurement can tell a corrupted
    word from an uncorrupted one.  Whenever both amplitudes are nonzero the
    pair (i*a, -i*b) is not a global phase times (a, b), so the mimic is a
    genuinely different physical state and the code fails.  With a or b zero
    the mimic differs only by phase and the failure is benign.
    """
    code = build_complex3_code()
    encoded = encode(code, (a, b))
    mimic = encode(code, (1j * a, -1j * b))
    residual = 0.0
    for site in range(code.n_sites):
        corrupted = apply_site(phase_error_pi(site), encoded)
        residual = max(residual, float(
            np.linalg.norm(corrupted.amplitudes - mimic.amplitudes)))

    # (i*a, -i*b) is a phase multiple of (a, b) iff the cross term vanishes,
    # i.e. iff one of the amplitudes is zero.
    cross = (1j * a) * b - a * (-1j * b)
    equivalent = abs(cross) <= 1e-12 * max(1.0, abs(a) * abs(b))
    errors = ErrorSet((identity_error(code.field),
                       ErrorTerm("phase(pi)@0", phase_error_pi(0))))
    return PhaseFailureReport((a, b), (1j * a, -1j * b), residual,
                              equivalent, kl_check(code, errors))


# ---------------------------------------------------------------------------
# Effective error counting


def _restriction(term: ErrorTerm, code: Code) -> np.ndarray:
    return np.stack([apply_error(term.op, w).amplitudes for w in code.codewords])


def effective_error_classes(code: Code, errors: ErrorSet,
                            atol: float = 1e-12) -> list[list[int]]:
    """Group error operators by their action on the code space.

    Two operators are identified exactly when their restrictions to the
    codewords agree componentwise (within ``atol``, which stands in for exact
    equality over floats).
    """
    classes: list[list[int]] = []
    reps: list[np.ndarray] = []
    for idx, term in enumerate(errors):
        r = _restriction(term, code)
        for cls, rep in zip(classes, reps):
            if r.shape == rep.shape and np.allclose(r, rep, atol=atol, rtol=0.0):
                cls.append(idx)
                break
        else:
            classes.append([idx])
            reps.append(r)
    return classes


def count_effective_errors(code: Code, errors: ErrorSet,
                           atol: float = 1e-12) -> int:
    """Number of distinct nontrivial code-space actions in the set."""
    if len(errors) == 0:
        return 0
    identity = np.stack([w.amplitudes for w in code.codewords])
    count = 0
    for cls in effective_error_classes(code, errors, atol):
        rep = _restriction(errors[cls[0]], code)
        if not (rep.shape == identity.shape
                and np.allclose(rep, identity, atol=atol, rtol=0.0)):
            count += 1
    return count


def effective_representatives(code: Code, errors: ErrorSet,
                              atol: float = 1e-12) -> tuple[ErrorSet, list[int]]:
    """One representative per distinct code-space action, plus the class
    index of every original operator.  Preserves set order, so an identity
    at entry 0 stays first."""
    classes = effective_error_classes(code, errors, atol)
    reps = ErrorSet(tuple(errors[cls[0]] for cls in classes))
    mapping = [0] * len(errors)
    for c_idx, cls in enumerate(classes):
        for idx in cls:
            mapping[idx] = c_idx
    return reps, mapping


# ---------------------------------------------------------------------------
# Quaternionic repetition-code error table

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
                if product.isclose(u):
                    cells.append((1, name))
                    break
                if product.isclose(-u):
                    cells.append((-1, name))
                    break
        rows[row_unit] = cells
    return rows


# Two reference readings of the code's error table, bundled as constants in
# the same spirit as the gamma-matrix reference forms.  Neither matches the
# table derived from right multiplication in every cell; the comparison below
# records exactly which cells differ under each reading.
H3_REFERENCE_READINGS = {
    # second codeword = i-repetition (row-1 cells force this identification)
    "i-codeword": {"1": [(1, "i"), (1, "j"), (1, "k")],
                   "i": [(-1, "1"), (-1, "k"), (1, "j")]},
    # second codeword = j-repetition (symbols read literally)
    "j-codeword": {"1": [(1, "j"), (1, "i"), (1, "k")],
                   "j": [(-1, "1"), (-1, "k"), (1, "i")]},
}


def h3_table_comparison() -> dict[str, list[tuple[str, str, tuple, tuple]]]:
    """Cells where the derived table differs from each reference reading.

    Returns, per reading, tuples (row unit, column unit, derived cell,
    reference cell).
    """
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
