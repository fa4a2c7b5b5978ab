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

A roundtrip computes only its per-trial products; its fixed operands are
held once.  A code holds its codewords as the rows of ``Code.words`` and
``Code.support``, where some codeword is nonzero.  An error set holds its
images E_p w_l on the columns where some image is nonzero, for the last code
it was asked about, and their (pairs, columns) view: a combination
sum_p e_p E_p corrupts sum_l a_l w_l as one product of the weights e_p a_l
with the view; the KL table, synthesis's identity check and the effective
error count scatter the images to full width, exactly.  A correction map
holds its partial isometry in factored form, the domain adjoint on the
images' columns; the codewords and the ancilla states define the image.  A
completion is a signed permutation ``(perm, sign)``, with views of its
ancilla-|0> columns, the only ones corrupted x |0_A> reaches; a completion
that is none raises :class:`SynthesisError`.  A roundtrip corrects onto
``Code.support`` without a completion, by ``ndarray.dot`` products (the BLAS
calls of ``@``, with less dispatch), and every row by a scatter with one.  It
checks its logical coefficients' finiteness by their encoded norm alone and
scales up those too small for it.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import quaternion as quat
from ._frozen import _Frozen, _set
from .linalg import (
    FieldMismatchError,
    LinearMap,
    OrthonormalBasis,
    ScalarField,
    SiteOperator,
    StateVector,
    TOL_ISO,
    _field_amplitudes,
    _finite_norm,
    _is_index,
    _norm,
    _site_amplitudes,
    apply_site,
    basis_state,
    complete_orthonormal,
    tensor_state,
)
from .quaternion import Quaternion
from .sampling import _unit_rows, _width

KL_TOL = 1e-12
SYNTH_TOL = 1e-10
_NORM_FLOOR = 2.0 ** -400    # roundtrip scales up smaller encoded norms (see there)
_BLOCK = 128    # the trials simulate asks its drawer for at a time
# two error actions on the code space agree within this, componentwise
ACTION_TOL = 1e-12
# the phase-failure cross term vanishes within this, relative to |a|^2 + |b|^2
EQUIVALENCE_TOL = 1e-12


class SynthesisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Codes


class Code(_Frozen):
    """Codewords, also held as the rows of the read-only array ``words``, with
    ``support``, the read-only indices of the amplitudes some codeword holds
    nonzero, and ``dim``, the amplitudes of a state (site_dim ** n_sites)."""

    __slots__ = ("name", "field", "n_sites", "codewords", "words", "support", "dim")

    def __init__(self, name: str, field: ScalarField, n_sites: int,
                 codewords: tuple[StateVector, ...]) -> None:
        if not _is_index(n_sites):
            raise TypeError(f"n_sites must be an integer, got {n_sites!r}")
        if not codewords:
            raise ValueError("a code needs at least one codeword")
        for idx, w in enumerate(codewords):
            if not isinstance(w, StateVector):
                raise TypeError(f"codeword {idx} must be a StateVector, "
                                f"got {type(w).__name__}")
            if w.field is not field or w.n_sites != n_sites:
                raise FieldMismatchError(f"codeword {idx} does not match the code")
        words = np.stack([w.amplitudes for w in codewords])
        words.setflags(write=False)
        # an overflow makes a diagonal entry inf, which the check reports
        with np.errstate(over="ignore", invalid="ignore"):
            gram = words.conj() @ words.T              # [j, i] = <w_j|w_i>
        bad = np.abs(gram - np.eye(len(words))) > TOL_ISO
        pairs = np.argwhere(np.triu(bad).T)           # (i, j), j <= i, row-major
        if len(pairs):
            idx, jdx = pairs[0].tolist()
            raise ValueError(f"codewords {jdx}, {idx} are not orthonormal")
        support = np.flatnonzero(words.any(axis=0))
        support.setflags(write=False)
        self._init(name, field, n_sites, codewords, words, support, words.shape[1])


def encode(code: Code, coeffs) -> StateVector:
    """The state sum_l a_l w_l of the logical coefficients ``coeffs``."""
    with np.errstate(over="ignore", invalid="ignore"):     # raises ValueError instead
        amps = _encoded_amplitudes(code, coeffs)[1]
    return StateVector(code.field, code.n_sites, amps)


def _encoded_amplitudes(code: Code, coeffs) -> tuple[np.ndarray, np.ndarray, float]:
    """The logical coefficients ``coeffs`` as an array, checked for shape; the
    amplitudes sum_l a_l w_l in the code's field, not validated as a state;
    and their norm; under the caller's errstate.  Float and complex ``coeffs``
    are checked for finiteness only when the amplitudes need a coercion or
    their norm is not finite or below ``_NORM_FLOOR``, as a non-finite one
    makes it; others at once, as np.isfinite takes them (strings it rejects)."""
    coeffs, words = np.asarray(coeffs), code.codewords
    if coeffs.shape != (len(words),):
        raise ValueError(f"expected {len(words)} logical coefficients")
    if coeffs.dtype.kind not in "fc" and not np.isfinite(coeffs).all():
        raise ValueError("logical coefficients must be finite")
    encoded = words[0].amplitudes * coeffs[0]
    for k in range(1, len(words)):
        encoded += words[k].amplitudes * coeffs[k]
    norm = _norm(encoded)
    if not _NORM_FLOOR <= norm < math.inf or encoded.dtype != code.field.dtype:
        if not np.isfinite(coeffs).all():
            raise ValueError("logical coefficients must be finite")
        norm = _finite_norm(encoded := _field_amplitudes(code.field, code.n_sites, encoded))
    return coeffs, encoded, norm


def _repetition_codewords(field: ScalarField, n_sites: int,
                          unit_indices: tuple[int, int]) -> tuple[StateVector, ...]:
    dim = field.site_dim
    return tuple(basis_state(field, n_sites, sum(u * dim ** k for k in range(n_sites)))
                 for u in unit_indices)


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
    plus, minus = np.zeros((2, 8), dtype=complex)
    plus[[0, 7]] = minus[0] = 1.0 / math.sqrt(2.0)
    minus[7] = -1.0 / math.sqrt(2.0)
    return plus, minus


def build_b3_code() -> Code:
    """(|000> +- |111>)/sqrt(2): the three-qubit pre-encoding stage of the
    nine-qubit code."""
    return Code("b3", ScalarField.COMPLEX, 3,
                tuple(StateVector(ScalarField.COMPLEX, 3, w) for w in _b3_words()))


def build_shor9_code() -> Code:
    """Nine complex qubits: each b3 codeword repeated across three blocks."""
    return Code("shor9", ScalarField.COMPLEX, 9, tuple(
        tensor_state([StateVector(ScalarField.COMPLEX, 3, w)] * 3) for w in _b3_words()))


# ---------------------------------------------------------------------------
# Error operators


class ErrorTerm(_Frozen):
    __slots__ = ("label", "op")

    def __init__(self, label: str, op: SiteOperator | LinearMap) -> None:
        if not isinstance(op, (SiteOperator, LinearMap)):
            raise TypeError("an error term's op must be a SiteOperator or "
                            f"LinearMap, got {type(op).__name__}")
        self._init(label, op)


class ErrorSet(_Frozen):
    """An ordered list of labeled error operators.  Sets meant for correction
    synthesis start with the identity (entry 0)."""

    __slots__ = ("terms", "_image_slot")

    def __init__(self, terms: tuple[ErrorTerm, ...]) -> None:
        for idx, t in enumerate(terms):
            if not isinstance(t, ErrorTerm):
                raise TypeError(f"error set entry {idx} must be an ErrorTerm, "
                                f"got {type(t).__name__}")
        # _image_slot: what _images holds for the last code the set was asked about
        self._init(terms, [])

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, idx: int) -> ErrorTerm:
        return self.terms[idx]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)


class CombinedError(_Frozen):
    """A linear combination sum_p e_p E_p over an ErrorSet."""

    __slots__ = ("errors", "coefficients")

    def __init__(self, errors: ErrorSet, coefficients: np.ndarray) -> None:
        coeffs = np.asarray(coefficients)
        _check_coefficient_rows(errors, coeffs[None])
        self._init(errors, coeffs)

    @classmethod
    def _of_rows(cls, errors: ErrorSet, rows: np.ndarray) -> list["CombinedError"]:
        """``[CombinedError(errors, row) for row in rows]``, checked once."""
        _check_coefficient_rows(errors, rows)
        out = [object.__new__(cls) for _ in rows]
        for error, row in zip(out, rows):
            error._init(errors, row)
        return out

    def apply(self, state: StateVector) -> StateVector:
        """Each term is checked against ``state`` as it is applied, whatever
        its coefficient; only the sum is validated as a state."""
        amps = np.zeros_like(state.amplitudes,
                             dtype=complex if state.field.is_complex else float)
        # a non-finite term is the state check's to report, without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            for c, term in zip(self.coefficients, self.errors):
                amps = amps + c * _error_amplitudes(term.op, state)
        return state.with_amplitudes(amps)

    def _corrupt(self, code: Code, logical: np.ndarray) -> np.ndarray:
        """The amplitudes of this error applied to ``encode(code, logical)``,
        not validated as a state: sum_p e_p sum_l a_l (E_p w_l), one product
        of the weights e_p a_l with the (pairs, columns) images the set holds,
        scattered to full width; :func:`roundtrip` holds the errstate."""
        if not (slot := self.errors._image_slot) or slot[0] is not code:
            _images(code, self.errors)
        block = (self.coefficients[:, None] * logical).ravel().dot(slot[3])
        out = np.zeros(code.dim, block.dtype)
        out[slot[2]] = block
        return out


def _check_coefficient_rows(errors: ErrorSet, rows: np.ndarray) -> None:
    """The checks of :class:`CombinedError` on each row of ``rows``."""
    if rows.shape[1:] != (len(errors),):
        raise ValueError("one coefficient per error term required")
    if not np.isfinite(rows).all():
        raise ValueError("error coefficients must be finite")
    if not rows.any(axis=-1).all():
        raise ValueError("at least one coefficient must be nonzero")


def _error_amplitudes(op: SiteOperator | LinearMap, state: StateVector) -> np.ndarray:
    """The amplitudes of ``op`` applied to ``state``, checked for field, site
    and dimension (a full-space map must map the state's space to itself) but
    not validated as a state."""
    if isinstance(op, SiteOperator):
        return _site_amplitudes(op, state.field, state.n_sites, state.amplitudes)
    if op.matrix.shape != (state.dim, state.dim):
        raise ValueError(f"dimension mismatch: error of shape {op.matrix.shape} "
                         f"on a state of dimension {state.dim}")
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
                terms.append(ErrorTerm(f"*{unit}@{site}",
                                       su2_error(quat.UNITS[unit].conj(), site)))
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


class KLViolation(_Frozen):
    """``kind`` is "cross" (l1 != l2) or "diagonal" (unequal diagonals)."""

    __slots__ = ("kind", "p1", "p2", "l1", "l2", "values", "deviation")

    def __init__(self, kind: str, p1: int, p2: int, l1: int, l2: int,
                 values: tuple, deviation: float) -> None:
        self._init(kind, p1, p2, l1, l2, values, deviation)

    def describe(self, labels: tuple[str, ...]) -> str:
        if self.kind == "cross":
            return (f"<w{self.l1}|{labels[self.p1]}^ {labels[self.p2]}|w{self.l2}> "
                    f"= {self.values[0]} (should vanish)")
        return (f"<w{self.l1}|{labels[self.p1]}^ {labels[self.p2]}|w{self.l1}> = "
                f"{self.values[0]} but <w{self.l2}|...|w{self.l2}> = {self.values[1]}")


class KLReport(_Frozen):
    """``table[p1, l1, p2, l2]`` = <E_p1 w_l1 | E_p2 w_l2>; ``gram`` the ancilla
    Gram <A_p1|A_p2> when passing; ``max_deviation`` the largest cross-term
    modulus or diagonal spread, verdict aside (0.0 for an empty error set)."""

    __slots__ = ("passed", "table", "violations", "gram", "labels", "max_deviation")

    def __init__(self, passed: bool, table: np.ndarray,
                 violations: tuple[KLViolation, ...], gram: np.ndarray | None,
                 labels: tuple[str, ...], max_deviation: float) -> None:
        self._init(passed, table, violations, gram, labels, max_deviation)


def _images(code: Code, errors: ErrorSet) -> tuple[np.ndarray, np.ndarray]:
    """The code-space action of an error set as read-only ``(images, columns)``:
    [p, l] holds E_p w_l on ``columns``, where some image is nonzero.  The set
    holds them, and their (pairs, columns) view, for the last code it was asked
    about, once each term is checked against it and each image found finite."""
    slot = errors._image_slot
    if slot and slot[0] is code:
        return slot[1], slot[2]
    images = np.empty((len(errors), len(code.codewords), code.dim),
                      dtype=code.field.dtype)
    with np.errstate(invalid="ignore", over="ignore"):     # raises ValueError below
        for p, term in enumerate(errors):
            images[p] = [_error_amplitudes(term.op, w) for w in code.codewords]
    if not np.all(np.isfinite(images)):
        raise ValueError("error images must be finite")
    columns = np.flatnonzero(images.any(axis=(0, 1)))
    images = np.ascontiguousarray(images[..., columns])
    for arr in (images, columns):
        arr.setflags(write=False)
    pairs = images.reshape(len(errors) * len(code.codewords), len(columns))
    slot[:] = [code, images, columns, pairs]
    return images, columns


def _scatter(block: np.ndarray, columns: np.ndarray, dim: int) -> np.ndarray:
    """``block`` placed at ``columns`` of a zero array of last axis ``dim``."""
    out = np.zeros((*block.shape[:-1], dim), dtype=block.dtype)
    out[..., columns] = block
    return out


def kl_check(code: Code, errors: ErrorSet) -> KLReport:
    """Evaluate both correctability condition families for an error set.

    Cross condition: <w_l1| E_p1^ E_p2 |w_l2> = 0 for l1 != l2.
    Diagonal condition: the l1 = l2 values agree across codewords.
    Failure is a verdict carried by the report, not an exception.  When both
    families hold, the common diagonal values form the ancilla Gram matrix.
    Non-finite error images, or a table that overflows, raise ValueError.

    The table is the full-width Gram matrix of the images of :func:`_images`.
    Violations come per error pair (p1, p2) in row-major order: its cross
    terms in (l1, l2) order, then at most one diagonal violation for the pair
    of codewords whose diagonal values are furthest apart (over the reals the
    smallest and the largest value, over C the first largest pair (m, n) in
    row-major order).
    """
    images = _scatter(*_images(code, errors), code.dim)
    n_err, n_words, dim = images.shape
    flat = images.reshape(n_err * n_words, dim)
    with np.errstate(over="ignore", invalid="ignore"):     # raises ValueError below
        table = (flat.conj() @ flat.T).reshape(n_err, n_words, n_err, n_words)
    if not np.all(np.isfinite(table)):
        raise ValueError("the KL table of the error images must be finite")

    by_pair = table.transpose(0, 2, 1, 3)                 # [p1, p2, l1, l2]
    cross = np.where(np.eye(n_words, dtype=bool), 0.0, _modulus(by_pair))
    violations = []
    for p1, p2, l1, l2 in np.argwhere(cross > KL_TOL).tolist():
        value = by_pair[p1, p2, l1, l2]
        violations.append(KLViolation(
            "cross", p1, p2, l1, l2, (value,), abs(value)))

    diag = table[:, range(n_words), :, range(n_words)]    # [l, p1, p2]
    if code.field.is_complex:
        spread = _modulus(diag[:, None] - diag[None, :])
        m, n = np.divmod(spread.reshape(n_words * n_words, n_err, n_err)
                         .argmax(axis=0), n_words)
    else:
        m, n = diag.argmin(axis=0), diag.argmax(axis=0)
    first = np.take_along_axis(diag, m[None], axis=0)[0]
    second = np.take_along_axis(diag, n[None], axis=0)[0]
    dev = _modulus(first - second)
    for p1, p2 in np.argwhere(dev > KL_TOL).tolist():
        violations.append(KLViolation(
            "diagonal", p1, p2, int(m[p1, p2]), int(n[p1, p2]),
            (first[p1, p2], second[p1, p2]), dev[p1, p2]))
    violations.sort(key=lambda v: (v.p1, v.p2, v.kind == "diagonal"))

    passed = not violations
    gram = np.mean(diag, axis=0) if passed else None
    deviation = max(float(cross.max(initial=0.0)), float(dev.max(initial=0.0)))
    return KLReport(passed, table, tuple(violations), gram, errors.labels,
                    deviation)


def _modulus(values: np.ndarray) -> np.ndarray:
    """Entrywise abs() as Python's scalar abs() computes it: np.abs of a
    complex array may differ from that in the last bit, np.hypot does not."""
    return np.hypot(values.real, values.imag)


# ---------------------------------------------------------------------------
# Correction synthesis


class CorrectionMap(_Frozen):
    """The ancilla-transfer partial isometry E_p w_l x |0_A> -> w_l x |a_p>,
    optionally completed to a full orthogonal/unitary operator.

    The partial isometry is held in factored form.  Its domain lies in the
    ancilla-|0> block, so the map keeps only that block of its adjoint: row
    (p, l) of ``_domain_adjoint`` is conj(E_p w_l) / sqrt(d_p), on the images'
    ``_columns``.  Image vector (p, l) is w_l x |a_p>, given by the codewords
    and ``ancilla_states``.  ``domain`` and ``image`` build the full states on
    access.  It corrects onto the rows of ``code.support`` only (see
    :meth:`_correct`), and :meth:`apply` scatters them into the whole output.

    ``_completion`` is None for a partial map, else the signed permutation
    ``(perm, sign)`` of :func:`_completed_operator`: column c of the operator
    holds ``sign[c]`` in row ``perm[c]``.  ``operator`` is its dense form,
    built on access.  ``_gather`` holds views of its ancilla-|0> entries,
    every ``ancilla_dim``-th, for :meth:`_correct`."""

    __slots__ = ("code", "errors", "n_ancilla", "ancilla_states", "_domain_adjoint",
                 "_columns", "_completion", "ancilla_dim", "_ancilla_index",
                 "_support_words", "_gather")

    def __init__(self, code: Code, errors: ErrorSet, n_ancilla: int,
                 ancilla_states: tuple[int, ...], _domain_adjoint: np.ndarray,
                 _columns: np.ndarray,
                 _completion: tuple[np.ndarray, np.ndarray] | None) -> None:
        # the fixed operands of _correct: for a partial map ancilla_states as an
        # index array and the codewords on code.support, read-only, else _gather
        step = code.field.site_dim ** n_ancilla
        index = np.array(ancilla_states, dtype=np.intp)
        words = code.words[:, code.support]
        index.setflags(write=False)
        words.setflags(write=False)
        gather = _completion and tuple(held[::step] for held in _completion)
        self._init(code, errors, n_ancilla, ancilla_states, _domain_adjoint, _columns,
                   _completion, step, index, words, gather)

    @property
    def total_sites(self) -> int:
        return self.code.n_sites + self.n_ancilla

    @property
    def domain(self) -> tuple[StateVector, ...]:
        """The states E_p w_l x |0_A> / sqrt(d_p) the map sends to ``image``."""
        anc0 = np.eye(self.ancilla_dim, 1, dtype=self.code.field.dtype)
        adj = _scatter(self._domain_adjoint, self._columns, self.code.dim)
        full = adj.conj().T[:, None, :] * anc0[None]
        return _column_states(self.code.field, self.total_sites,
                              full.reshape(-1, full.shape[-1]))

    @property
    def image(self) -> tuple[StateVector, ...]:
        """The states w_l x |a_p>, in the order of ``domain``."""
        words = self.code.words
        anc = np.eye(self.ancilla_dim, dtype=self.code.field.dtype)[
            :, list(self.ancilla_states)]                  # column p is |a_p>
        full = words.T[:, None, None, :] * anc[None, :, :, None]
        return _column_states(self.code.field, self.total_sites,
                              full.reshape(-1, anc.shape[1] * len(words)))

    @property
    def operator(self) -> LinearMap | None:
        """The completed operator as a dense matrix, None without a
        completion."""
        if self._completion is None:
            return None
        return LinearMap(self.code.field, _signed_matrix(*self._completion))

    def isometry_deviation(self) -> float:
        """Largest deviation from length preservation: of the completed
        operator when there is one, else of the orthonormal domain and image
        vectors that define the partial isometry.  The image Gram entry of
        pairs (p, l), (q, m) is [a_p = a_q] <w_l|w_m>.

        The ``(perm, sign)`` operator is checked on its arrays.  Its Gram
        entry (c, d) is [perm[c] = perm[d]] conj(sign[c]) sign[d]: the
        identity plus sign[c] conj(sign[c]) - 1 on the diagonal when ``perm``
        is a permutation, else an off-diagonal entry of modulus 1."""
        if self._completion is not None:
            perm, sign = self._completion
            if not np.array_equal(np.sort(perm), np.arange(len(perm))):
                return 1.0
            return float(np.abs(sign * sign.conj() - 1.0).max())
        adj = _scatter(self._domain_adjoint, self._columns, self.code.dim)
        words, anc = self.code.words, self._ancilla_index
        grams = (adj @ adj.conj().T,
                 np.kron(np.equal.outer(anc, anc), words.conj() @ words.T))
        return max(float(np.abs(g - np.eye(g.shape[0])).max()) for g in grams)

    def apply(self, state: StateVector) -> StateVector:
        """Apply the correction operator to a state over the code's field of
        code x ancilla size.  Without a completion this acts as the partial
        isometry and annihilates anything outside its domain span;
        downstream residual checks surface such inputs."""
        field, expected = self.code.field, self.code.dim * self.ancilla_dim
        if state.field is not field:
            raise FieldMismatchError(
                f"map over {field.value} applied to {state.field.value} state")
        if state.dim != expected:
            raise ValueError(f"dimension mismatch: {expected} vs {state.dim}")
        if self._completion is not None:
            perm, sign = self._completion
            out = np.empty_like(state.amplitudes)
            out[perm] = sign * state.amplitudes
            return state.with_amplitudes(out)
        rows, block = self._correct(state.amplitudes[::self.ancilla_dim])
        out = np.zeros((self.code.dim, self.ancilla_dim), self.code.field.dtype)
        out[rows] = block
        return state.with_amplitudes(out.reshape(-1))

    def _correct(self, corrupted: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray]:
        """The image of corrupted x |0_A> from the code-space amplitudes
        alone, unchecked (:meth:`apply` checks each state, :func:`roundtrip`
        builds ``corrupted`` over ``self.code``), as ``(rows, block)``: the
        (code row, ancilla) output table on the rows that can be nonzero.
        Without a completion they are ``code.support``, the codewords weighted
        per ancilla state.  A completion gives every row, ``slice(None)``, by
        a scatter of its ancilla-|0> entries ``_gather``."""
        gather = self._gather
        if gather is None:
            words = self._support_words
            coeffs = self._domain_adjoint.dot(corrupted[self._columns])
            weights = np.zeros((len(words), self.ancilla_dim), self.code.field.dtype)
            weights[:, self._ancilla_index] = coeffs.reshape(-1, len(words)).T
            return self.code.support, words.T.dot(weights)
        rows, sign = gather
        out = np.zeros((self.code.dim, self.ancilla_dim), sign.dtype)
        out.reshape(-1)[rows] = sign * corrupted
        return slice(None), out


def synthesize_correction(code: Code, errors: ErrorSet, n_ancilla: int, *,
                          ancilla_states: tuple[int, ...] | None = None,
                          complete: bool = True) -> CorrectionMap:
    """Build the unitary correction operator for an effective error set.

    Requires the correctability check to pass with a *diagonal* ancilla Gram
    matrix (mutually orthogonal error images).  The identity error keeps the
    ancilla at |0_A>; each remaining error is assigned its own ancilla basis
    state, by default in set order, or explicitly through ``ancilla_states``.
    Signs and coefficients of the resulting map are derived from the defining
    pairs, never hard-coded.  ``complete=True`` completes the map to a signed
    permutation, as for ``r3`` and ``h3``; a completion that is none raises
    :class:`SynthesisError`, and ``complete=False`` keeps the partial map.
    """
    if not _is_index(n_ancilla) or n_ancilla < 0:
        raise SynthesisError(
            f"n_ancilla must be a non-negative integer, got {n_ancilla!r}")
    if len(errors) == 0:
        raise SynthesisError("the error set is empty; entry 0 must be the identity")
    report = kl_check(code, errors)
    if not report.passed:
        worst = report.violations[0].describe(report.labels)
        raise SynthesisError(f"error set is not correctable: {worst}")
    gram = report.gram
    off = gram - np.diag(np.diag(gram))
    if np.abs(off).max(initial=0.0) > SYNTH_TOL:
        raise SynthesisError("error images are not orthogonal "
                             "(ancilla Gram matrix has off-diagonal entries)")
    diag = np.real(np.diag(gram))
    if np.any(diag <= SYNTH_TOL):
        raise SynthesisError("an error operator annihilates the code space")

    images, columns = _images(code, errors)        # held by kl_check
    if not np.allclose(_scatter(images[0], columns, code.dim), code.words,
                       atol=KL_TOL, rtol=0.0):
        raise SynthesisError("entry 0 of the error set must act as the "
                             "identity on the code space")

    n_err = len(errors)
    anc_dim = code.field.site_dim ** n_ancilla
    if anc_dim < n_err:
        raise SynthesisError(
            f"{n_ancilla} ancilla sites give {anc_dim} states < {n_err} errors")
    if ancilla_states is None:
        ancilla_states = tuple(range(n_err))
    if not all(_is_index(a) for a in ancilla_states):
        raise SynthesisError("ancilla states must be integers")
    if len(ancilla_states) != n_err or len(set(ancilla_states)) != n_err:
        raise SynthesisError("need one distinct ancilla state per error")
    if ancilla_states[0] != 0:
        raise SynthesisError("the identity error must map to ancilla |0_A>")
    if min(ancilla_states) < 0 or max(ancilla_states) >= anc_dim:
        raise SynthesisError("ancilla state index out of range")

    adjoint = images.conj() * (1.0 / np.sqrt(diag))[:, None, None]
    args = (code, errors, n_ancilla, tuple(ancilla_states),
            adjoint.reshape(-1, len(columns)), columns)
    cmap = CorrectionMap(*args, None)      # completed, if asked, before a caller sees it
    return CorrectionMap(*args, _completed_operator(cmap)) if complete else cmap


def _completed_operator(cmap: CorrectionMap) -> tuple[np.ndarray, np.ndarray]:
    """The operator image @ domain^H of the completed image and domain bases,
    as ``(perm, sign)``.  Vector k of each basis holds one entry, +-1 (else
    :func:`_signed_columns` raises), so the product sends coordinate
    ``domain`` row k to ``image`` row k, with sign +1 exactly when the two
    entries agree: the value the dense product computes.  Both are read from
    the bases as :func:`complete_orthonormal` holds them, so a build makes no
    ``dim x dim`` array."""
    img = _signed_columns(complete_orthonormal(cmap.image))
    domain = complete_orthonormal(cmap.domain)
    dom = _signed_columns(domain)
    perm = np.empty(len(domain), dtype=np.intp)
    sign = np.empty(len(domain), dtype=dom[1].dtype)
    perm[dom[0]] = img[0]
    sign[dom[0]] = np.where(img[1] == dom[1], 1.0, -1.0)
    perm.setflags(write=False)
    sign.setflags(write=False)
    return perm, sign


def _signed_columns(basis: OrthonormalBasis) -> tuple[np.ndarray, np.ndarray]:
    """The row and the value of each basis vector's one nonzero entry, in
    basis order.  SynthesisError unless every vector holds exactly one and it
    is exactly +-1.  Only ``lead`` and ``fill`` are scanned: each canonical
    vector ``outside`` holds +1 in its own row."""
    held = np.hstack((basis.lead, basis.fill))
    nonzero = held != 0
    rows = nonzero.argmax(axis=0)
    values = held[rows, np.arange(held.shape[1])]
    if not ((np.count_nonzero(nonzero, axis=0) == 1).all()
            and np.all((values == 1) | (values == -1))):
        raise SynthesisError("the completion is not a signed permutation; "
                             "synthesize with complete=False for the partial map")
    k, outside = basis.lead.shape[1], basis.outside
    return (np.concatenate((rows[:k], outside, rows[k:])),
            np.concatenate((values[:k], np.ones(len(outside), values.dtype), values[k:])))


def _signed_matrix(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The square matrix whose column c holds ``values[c]`` in row
    ``rows[c]`` and zeros elsewhere."""
    matrix = np.zeros((len(rows), len(rows)), dtype=values.dtype)
    matrix[rows, np.arange(len(rows))] = values
    return matrix


def _column_states(field: ScalarField, n_sites: int,
                   stack: np.ndarray) -> tuple[StateVector, ...]:
    """One state per column of a stacked (dim, n) array."""
    return tuple(StateVector(field, n_sites, column) for column in stack.T)


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
    # the full basis, and the images it holds, are dropped before synthesis
    reps, _ = effective_representatives(
        code, effective_error_basis(code, ErrorFamily.PAULI_PER_SITE))
    return synthesize_correction(code, reps, 5, complete=False)


# ---------------------------------------------------------------------------
# Roundtrip simulation


class RoundtripResult(_Frozen):
    """The extracted ancilla factor, the rank-one factorization residual, and
    the fidelity |<encoded | code factor>| after normalization."""

    __slots__ = ("ancilla", "residual", "fidelity")

    def __init__(self, ancilla: StateVector, residual: float, fidelity: float) -> None:
        _set(self, "ancilla", ancilla)
        _set(self, "residual", residual)
        _set(self, "fidelity", fidelity)


@np.errstate(over="ignore", invalid="ignore")     # raises ValueError below
def roundtrip(cmap: CorrectionMap, logical,
              error: CombinedError | SiteOperator | LinearMap) -> RoundtripResult:
    """Encode ``logical`` in ``cmap.code``, corrupt, append |0_A>, correct,
    and factor the result.

    The output should split as (encoded state) x (ancilla superposition);
    the residual measures the failure of that split and flags both a broken
    map and an out-of-family error.  It is a measurement, not a verdict: the
    caller compares it with its own tolerance.

    Each call computes only its per-trial products, from operands held once
    (see the module docstring), and checks each array once, where it enters,
    for finiteness by its norm: float or complex ``logical`` is checked as
    :func:`encode` checks it, in its order, only when its encoding's norm is
    not finite or is below ``_NORM_FLOOR`` or its dtype is not the field's.
    Nonzero coefficients below the floor are scaled up by an exact power of
    two, the residual and the ancilla back down, so that no norm underflows.
    An overflowing norm raises ValueError, an error of another type TypeError.
    """
    if not isinstance(error, (CombinedError, SiteOperator, LinearMap)):
        raise TypeError("error must be a CombinedError, SiteOperator or "
                        f"LinearMap, got {type(error).__name__}")
    code = cmap.code
    field, n_sites, power = code.field, code.n_sites, 0
    logical, encoded, scale = _encoded_amplitudes(code, logical)
    if scale < _NORM_FLOOR:
        if not logical.any():
            raise ValueError("logical coefficients must not all vanish")
        # the largest modulus to [1/2, 1); 2 ** 1022 lifts 2 ** -1074 to 2 ** -52
        power = min(-math.frexp(np.abs(logical).max())[1], 1022)
        logical, encoded, scale = _encoded_amplitudes(code, logical * 2.0 ** power)
    if isinstance(error, CombinedError):
        amps = error._corrupt(code, logical)
    elif isinstance(error, SiteOperator):
        amps = _site_amplitudes(error, field, n_sites, encoded)
    else:
        amps = _error_amplitudes(error, StateVector._checked(field, n_sites, encoded))
    corrupted = _field_amplitudes(field, n_sites, amps)
    corrupted_norm = _finite_norm(corrupted)
    rows, block = cmap._correct(corrupted)

    ref_block = encoded[rows] / scale
    anc = ref_block.conj().dot(block)
    diff = ref_block[:, None] * anc
    residual_f = _norm(np.subtract(block, diff, out=diff))
    norm_gap = abs(corrupted_norm - _norm(block))
    residual = max(residual_f, norm_gap)

    anc_norm = _norm(anc)
    if anc_norm > 0:
        code_amps = block.dot(anc.conj()) / (anc_norm ** 2)
    else:
        code_amps = np.zeros(len(block), dtype=block.dtype)
    cf_norm = _norm(code_amps)
    fidelity = (float(abs(np.vdot(ref_block, code_amps)) / cf_norm)
                if cf_norm > 0 else 0.0)
    if not (scale < math.inf and residual_f < math.inf and norm_gap < math.inf
            and anc_norm < math.inf and fidelity < math.inf):    # each >= 0 or NaN
        raise ValueError("a norm overflows: the state is too large")
    if power:
        anc *= 2.0 ** -power
        residual *= 2.0 ** -power
    return RoundtripResult(StateVector._checked(field, cmap.n_ancilla, anc),
                           residual, fidelity)


def combined_draw(code: Code, errors: ErrorSet):
    """A block drawer for :func:`simulate`: per trial the logical, then the
    error coefficients, as two :func:`random_coefficients` calls draw them."""
    split = _width(code.field, len(code.codewords))

    def draw(rng: np.random.Generator, n: int):
        rows = rng.standard_normal((n, split + _width(code.field, len(errors))))
        logical, coeffs = (_unit_rows(code.field, r) for r in np.hsplit(rows, [split]))
        return zip(logical, CombinedError._of_rows(errors, coeffs))

    return draw


def simulate(cmap: CorrectionMap, draw, rng: np.random.Generator,
             trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded roundtrips through a correction map.

    ``draw(rng, n)`` returns an iterable of ``n`` (logical coefficients,
    error) trials drawn from ``rng``, asked for in blocks of at most
    ``_BLOCK``; the draw order fixes every seeded report.  Each trial makes
    one :func:`roundtrip` call.  Returns the fidelities and residuals.
    ``trials`` must be a nonnegative integer: TypeError otherwise, ValueError
    when negative, and when ``draw`` returns another number of trials.
    """
    if not _is_index(trials):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    fidelities, residuals = np.empty(trials), np.empty(trials)
    for start in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - start)
        if len(block := list(draw(rng, n))) != n:
            raise ValueError(f"the drawer returned {len(block)} trials for a block of {n}")
        for t, (logical, error) in enumerate(block, start):
            res = roundtrip(cmap, logical, error)
            fidelities[t], residuals[t] = res.fidelity, res.residual
        del block                           # freed before the next block is drawn
    return fidelities, residuals


# ---------------------------------------------------------------------------
# Phase-failure demonstration


class PhaseFailureReport(_Frozen):
    """The logical input (a, b), its mimic (i*a, -i*b), the corrupted state's
    residual against the mimic's encoding, whether the mimic is a phase times
    (a, b), and the KL verdict for {identity, phase error}."""

    __slots__ = ("coeffs", "mimic_coeffs", "match_residual", "physically_equivalent", "kl")

    def __init__(self, coeffs: tuple[complex, complex],
                 mimic_coeffs: tuple[complex, complex], match_residual: float,
                 physically_equivalent: bool, kl: KLReport) -> None:
        self._init(coeffs, mimic_coeffs, match_residual, physically_equivalent, kl)


def phase_failure_demo(a: complex = 1 / math.sqrt(2.0),
                       b: complex = 1 / math.sqrt(2.0)) -> PhaseFailureReport:
    """Show how the plain complex repetition code loses to the diag(i, -i)
    phase error.

    Applying the error on any single site turns the encoding of (a, b) into
    the *valid* encoding of (i*a, -i*b): no measurement can tell a corrupted
    word from an uncorrupted one.  Whenever both amplitudes are nonzero the
    pair (i*a, -i*b) is not a global phase times (a, b), so the mimic is a
    genuinely different physical state and the code fails.  With a or b zero
    the mimic differs only by phase and the failure is benign.  The verdict
    is taken after scaling the largest part to one, so it holds at any scale;
    the zero pair raises ValueError.
    """
    # the largest real or imaginary part: abs() of a complex amplitude can
    # itself overflow
    scale = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag))
    if scale == 0:
        raise ValueError("the demo needs a nonzero amplitude pair")
    code = build_complex3_code()
    encoded = encode(code, (a, b))
    mimic = encode(code, (1j * a, -1j * b))
    residual = 0.0
    for site in range(code.n_sites):
        corrupted = apply_site(phase_error_pi(site), encoded)
        residual = max(residual, float(
            np.linalg.norm(corrupted.amplitudes - mimic.amplitudes)))

    # (i*a, -i*b) is a phase multiple of (a, b) iff the cross term
    # 2i*a*b vanishes, i.e. iff one of the amplitudes is zero.  The test is
    # homogeneous in the scale, and dividing by it keeps the product from
    # overflowing or underflowing.
    a_s, b_s = a / scale, b / scale
    equivalent = abs(a_s * b_s) <= EQUIVALENCE_TOL * (abs(a_s) ** 2 + abs(b_s) ** 2)
    errors = ErrorSet((identity_error(code.field),
                       ErrorTerm("phase(pi)@0", phase_error_pi(0))))
    return PhaseFailureReport((a, b), (1j * a, -1j * b), residual,
                              equivalent, kl_check(code, errors))


# ---------------------------------------------------------------------------
# Effective error counting


def effective_error_classes(code: Code, errors: ErrorSet) -> list[list[int]]:
    """Group error operators by their action on the code space.

    Two operators are identified exactly when their restrictions to the
    codewords agree componentwise (within ``ACTION_TOL``, which stands in
    for exact equality over floats): each error joins the first class whose
    first member's action matches its own.
    """
    images, _ = _images(code, errors)           # all zero off their columns
    classes: list[list[int]] = []
    leaders: list[int] = []
    for idx, action in enumerate(images):
        hits = np.flatnonzero(
            (np.abs(images[leaders] - action) <= ACTION_TOL).all(axis=(1, 2)))
        if len(hits):
            classes[hits[0]].append(idx)
        else:
            classes.append([idx])
            leaders.append(idx)
    return classes


def count_effective_errors(code: Code, errors: ErrorSet) -> int:
    """Number of distinct nontrivial code-space actions in the set."""
    images = _scatter(*_images(code, errors), code.dim)
    return sum(not np.allclose(images[cls[0]], code.words, atol=ACTION_TOL, rtol=0.0)
               for cls in effective_error_classes(code, errors))


def effective_representatives(code: Code,
                              errors: ErrorSet) -> tuple[ErrorSet, list[int]]:
    """One representative per distinct code-space action, plus the class
    index of every original operator.  Preserves set order, so an identity
    at entry 0 stays first."""
    classes = effective_error_classes(code, errors)
    reps = ErrorSet(tuple(errors[cls[0]] for cls in classes))
    mapping = [0] * len(errors)
    for c_idx, cls in enumerate(classes):
        for idx in cls:
            mapping[idx] = c_idx
    return reps, mapping
