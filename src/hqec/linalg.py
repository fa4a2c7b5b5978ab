"""Dense tensor-product states and operators over three scalar fields.

States live in (C^2)^(x n), (R^2)^(x n), or (R^4)^(x n); the quaternionic
case stores each site as its four real coordinates and uses the plain
Euclidean inner product on R^(4^n).  Site ordering is big-endian: the
leftmost ket symbol is the most significant index.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._frozen import _Frozen, _set

TOL_RANK = 1e-10
TOL_ISO = 1e-10


class ScalarField(Enum):
    """A scalar field.  Each member holds, as plain attributes set once,
    ``site_dim`` (the real or complex dimension of one site), ``dtype`` (the
    amplitudes' numpy dtype) and ``is_complex``."""

    REAL = "real"
    COMPLEX = "complex"
    QUATERNION_R4 = "quaternion_r4"

    def __init__(self, value: str) -> None:
        self.site_dim = 4 if value == "quaternion_r4" else 2
        self.is_complex = value == "complex"
        self.dtype = np.dtype(complex) if self.is_complex else np.dtype(float)


class FieldMismatchError(ValueError):
    pass


class RankDeficiencyError(ValueError):
    """Raised when a vector list is linearly dependent; carries the index of
    the first offending vector."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"vector {index} is dependent on its predecessors")


def _coerce(field: ScalarField, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if not field.is_complex and np.iscomplexobj(arr):
        if np.abs(arr.imag).max(initial=0.0) > 0:
            raise FieldMismatchError(f"complex entries are invalid over {field.value}")
        arr = arr.real
    out = np.array(arr, dtype=field.dtype)
    out.setflags(write=False)
    return out


def _field_amplitudes(field: ScalarField, n_sites: int,
                      amps: np.ndarray) -> np.ndarray:
    """The array ``amps`` checked for field and shape as the amplitudes of an
    ``n_sites`` state over ``field``, for callers whose array is their own and
    who check its finiteness (see :func:`_finite_norm`): ``amps`` itself when
    it has the field's dtype, else a coerced copy.  FieldMismatchError for a
    complex entry over a real field, ValueError for a wrong shape."""
    if amps.dtype != field.dtype:
        amps = _coerce(field, amps)
    expected = field.site_dim ** n_sites
    if amps.shape != (expected,):
        raise ValueError(
            f"expected {expected} amplitudes for {n_sites} sites "
            f"of dimension {field.site_dim}, got shape {amps.shape}")
    return amps


def _finite_norm(amps: np.ndarray) -> float:
    """``_norm(amps)``, as the finiteness check too: a finite norm has finite terms."""
    norm = _norm(amps)
    if not math.isfinite(norm) and not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    return norm


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float or complex array, bit for bit: the
    same operations its ``ord=None`` path performs (the dot product of the
    flattened array with itself, the real and imaginary parts summed for a
    complex one, then the square root), without numpy's dispatch."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


class StateVector(_Frozen):
    __slots__ = ("field", "n_sites", "amplitudes")

    def __init__(self, field: ScalarField, n_sites: int, amplitudes: np.ndarray) -> None:
        _set(self, "field", field)
        _set(self, "n_sites", n_sites)
        _set(self, "amplitudes", amplitudes)
        self.__post_init__()        # the validation perfbench traces, by name

    def __post_init__(self) -> None:
        if not _is_index(self.n_sites):
            raise TypeError(f"n_sites must be an integer, got {self.n_sites!r}")
        if self.n_sites < 0:
            raise ValueError(f"n_sites must be nonnegative, got {self.n_sites}")
        # a read-only copy: made once from an array of the field's dtype
        values = self.amplitudes
        if type(values) is np.ndarray and values.dtype == self.field.dtype:
            amps = values.copy()
            amps.setflags(write=False)
        else:
            amps = _coerce(self.field, values)
        amps = _field_amplitudes(self.field, self.n_sites, amps)
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        _set(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        """The Euclidean norm; ValueError when it overflows a float."""
        with np.errstate(over="ignore"):                 # raises ValueError below
            n = float(np.linalg.norm(self.amplitudes))
        if not np.isfinite(n):
            raise ValueError("a norm overflows: the state is too large")
        return n

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(self.field, self.n_sites, amplitudes)

    @classmethod
    def _checked(cls, field: ScalarField, n_sites: int, amps: np.ndarray) -> "StateVector":
        """The state of ``amps`` as it is, not validated: the caller has checked
        that ``n_sites`` is a nonnegative integer and that ``amps`` has
        ``field.dtype``, shape ``(field.site_dim ** n_sites,)`` and finite
        entries.  ``amps`` is made read-only; nothing else may write to it."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        _set(state, "field", field)
        _set(state, "n_sites", n_sites)
        _set(state, "amplitudes", amps)
        return state


def _is_index(value) -> bool:
    """A Python or numpy integer; a bool is not one (numpy reads a boolean
    scalar index as a mask)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def basis_state(field: ScalarField, n_sites: int, index: int) -> StateVector:
    if not _is_index(index):
        raise TypeError(f"basis index must be an integer, got {index!r}")
    dim = field.site_dim ** n_sites
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=field.dtype)
    amps[index] = 1.0
    return StateVector(field, n_sites, amps)


class LinearMap(_Frozen):
    __slots__ = ("field", "matrix")

    def __init__(self, field: ScalarField, matrix: np.ndarray) -> None:
        mat = _coerce(field, matrix)
        if mat.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={mat.ndim}")
        self._init(field, mat)

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    def apply(self, state: StateVector) -> StateVector:
        return state.with_amplitudes(self._amplitudes(state))

    def _amplitudes(self, state: StateVector) -> np.ndarray:
        """The image amplitudes of ``state``, checked for field and dimension
        but not validated as a state."""
        if state.field is not self.field:
            raise FieldMismatchError(
                f"map over {self.field.value} applied to {state.field.value} state")
        if state.dim != self.dim_in:
            raise ValueError(f"dimension mismatch: {self.dim_in} vs {state.dim}")
        return self.matrix @ state.amplitudes


class SiteOperator(_Frozen):
    """A site-local operator together with the site index it acts on."""

    __slots__ = ("field", "site", "matrix")

    def __init__(self, field: ScalarField, site: int, matrix: np.ndarray) -> None:
        mat = _coerce(field, matrix)
        d = field.site_dim
        if mat.shape != (d, d):
            raise ValueError(f"site operator must be {d}x{d}, got {mat.shape}")
        if not _is_index(site):
            raise TypeError(f"site index must be an integer, got {site!r}")
        if site < 0:
            raise ValueError("site index must be nonnegative")
        self._init(field, site, mat)

    @classmethod
    def _checked(cls, field: ScalarField, site: int, matrix: np.ndarray) -> "SiteOperator":
        """The operator of ``matrix`` as it is, not validated: the caller has
        checked that ``site`` is a nonnegative integer and that ``matrix`` has
        ``field.dtype`` and shape ``(field.site_dim, field.site_dim)``.
        ``matrix`` is made read-only; nothing else may write to it."""
        matrix.setflags(write=False)
        op = object.__new__(cls)
        _set(op, "field", field)
        _set(op, "site", site)
        _set(op, "matrix", matrix)
        return op


def tensor_state(factors: list[StateVector] | tuple[StateVector, ...]) -> StateVector:
    """Kronecker product of states; the leftmost factor varies slowest."""
    if not factors:
        raise ValueError("need at least one factor")
    field = factors[0].field
    if any(f.field is not field for f in factors):
        raise FieldMismatchError("all tensor factors must share a scalar field")
    amps = factors[0].amplitudes
    for f in factors[1:]:
        amps = _kron(amps, f.amplitudes)
    return StateVector(field, sum(f.n_sites for f in factors), amps)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of each amplitude row of ``a`` with the matching
    row of ``b`` (rows broadcast): one product per entry, as ``np.kron``
    forms it for two vectors."""
    return (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], -1)


def apply_site(op: SiteOperator, state: StateVector) -> StateVector:
    """Apply a site-local operator without forming the full Kronecker product."""
    # a non-finite operator is the state check's to report, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        amps = _site_amplitudes(op, state.field, state.n_sites, state.amplitudes)
    return state.with_amplitudes(amps)


def _site_amplitudes(op: SiteOperator, field: ScalarField, n_sites: int,
                     amps: np.ndarray) -> np.ndarray:
    """``op`` applied to the amplitudes ``amps`` of an ``n_sites`` state over
    ``field``, checked for field and site but not validated as a state, under
    the caller's errstate: the kernel of :func:`apply_site`."""
    if op.field is not field:
        raise FieldMismatchError(
            f"operator over {op.field.value} applied to {field.value} state")
    if op.site >= n_sites:
        raise ValueError(f"site {op.site} out of range for {n_sites} sites")
    return _site_rows(op.matrix, op.site, amps)


def _site_rows(mats: np.ndarray, site: int, amps: np.ndarray) -> np.ndarray:
    """Apply the ``d x d`` matrices ``mats`` at ``site`` to the amplitude rows
    ``amps``, leading axes broadcast, unchecked: :func:`_site_amplitudes`'s kernel."""
    d, dim = mats.shape[-1], amps.shape[-1]
    cube = amps.reshape(*amps.shape[:-1], d ** site, d, dim // d ** (site + 1))
    out = mats[..., None, :, :] @ cube
    return out.reshape(*out.shape[:-3], dim)


class OrthonormalBasis(_Frozen):
    """An orthonormal basis of ``dim`` vectors, held in the form
    :func:`complete_orthonormal` computes it: ``lead``, the orthonormalized
    input as the columns of a ``dim x k`` array; then the canonical vector of
    each coordinate in the index array ``outside``, in its order; then
    ``fill``, the swept vectors of the support, as columns.  All three are
    read-only.  ``len()`` is the number of vectors, ``dim``."""

    __slots__ = ("lead", "outside", "fill")

    def __init__(self, lead: np.ndarray, outside: np.ndarray, fill: np.ndarray) -> None:
        self._init(lead, outside, fill)

    def __len__(self) -> int:
        return len(self.lead)


def complete_orthonormal(partial: list[StateVector]) -> OrthonormalBasis:
    """Extend a linearly independent list to an orthonormal basis.

    Stabilized Gram-Schmidt with a second re-orthogonalization pass; the
    basis's ``lead`` vectors span exactly span(partial).  Dependent input
    raises RankDeficiencyError with the offending index.

    The fill is split by support, the union of the input vectors' nonzero
    coordinates.  A canonical vector outside the support is exactly
    orthogonal to the input and to every other such vector, so those follow
    the input unchanged, in index order, and are held as their indices
    (``outside``).  Only the canonical vectors inside the support go through
    the Gram-Schmidt sweep (a conservative acceptance threshold, then a
    permissive one if short), and they come last (``fill``).  Signed
    canonical input thus completes with exact 0 and +-1 entries, and input
    dense on every coordinate gets the plain sweep over all of them.  No
    ``dim x dim`` array is built.
    """
    if not partial:
        raise ValueError("need at least one vector")
    field = partial[0].field
    dim = partial[0].dim
    if any(v.field is not field or v.dim != dim for v in partial):
        raise FieldMismatchError("all vectors must share field and dimension")
    support = np.flatnonzero(np.any(
        np.column_stack([v.amplitudes for v in partial]) != 0, axis=1))
    # The columns hold the orthonormalized input, then the vectors the sweep
    # accepts.  Canonical vectors outside the support never need projecting.
    # (More inputs than support coordinates are dependent; Gram-Schmidt below
    # reports the first dependent one.)
    basis = np.zeros((dim, max(len(support), len(partial))), dtype=field.dtype)
    count = 0

    def orthogonalized(vec: np.ndarray) -> np.ndarray:
        head = basis[:, :count]
        for _ in range(2):
            if count:
                vec = vec - head @ (head.conj().T @ vec)    # a real .conj() is itself
        return vec

    for idx, v in enumerate(partial):
        scale = max(1.0, v.norm())
        u = orthogonalized(v.amplitudes.copy())
        n = np.linalg.norm(u)
        if n <= TOL_RANK * scale:
            raise RankDeficiencyError(idx)
        basis[:, count] = u / n
        count += 1

    for threshold in (0.5, 10 * TOL_RANK):
        for i in support:
            if count == len(support):
                break
            e = np.zeros(dim, dtype=field.dtype)
            e[i] = 1.0
            u = orthogonalized(e)
            n = np.linalg.norm(u)
            if n > threshold:
                basis[:, count] = u / n
                count += 1
    if count != len(support):
        raise RuntimeError("failed to complete the basis")  # unreachable in practice

    k = len(partial)
    outside = np.flatnonzero(np.bincount(support, minlength=dim) == 0)
    basis.setflags(write=False)
    outside.setflags(write=False)
    return OrthonormalBasis(basis[:, :k], outside, basis[:, k:count])


class IsometryResult(_Frozen):
    __slots__ = ("passed", "max_deviation")

    def __init__(self, passed: bool, max_deviation: float) -> None:
        self._init(passed, max_deviation)


def is_isometry(m: LinearMap | np.ndarray) -> IsometryResult:
    """Check m^H m = identity (m^T m over the real fields) within ``TOL_ISO``;
    reports the largest absolute deviation (0.0 for a 0x0 matrix).  The
    identity is subtracted and the modulus taken in place, in the Gram matrix
    itself.  Raises ValueError for a non-square or non-finite matrix."""
    mat = m.matrix if isinstance(m, LinearMap) else np.asarray(m)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("isometry check expects a square matrix")
    if not np.isfinite(mat).all():
        raise ValueError("isometry check expects finite entries")
    gram = (mat.conj().T @ mat).astype(np.result_type(mat, float), copy=False)
    gram[np.diag_indices_from(gram)] -= 1.0
    dev = float(np.abs(gram, out=gram).real.max(initial=0.0))
    return IsometryResult(dev <= TOL_ISO, dev)
