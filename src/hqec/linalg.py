"""Dense tensor-product states and operators over three scalar fields.

States live in (C^2)^(x n), (R^2)^(x n), or (R^4)^(x n); the quaternionic
case stores each site as its four real coordinates and uses the plain
Euclidean inner product on R^(4^n).  Site ordering is big-endian: the
leftmost ket symbol is the most significant index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

TOL_RANK = 1e-10
TOL_ISO = 1e-10


class ScalarField(Enum):
    REAL = "real"
    COMPLEX = "complex"
    QUATERNION_R4 = "quaternion_r4"

    @property
    def site_dim(self) -> int:
        return 4 if self is ScalarField.QUATERNION_R4 else 2

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(complex) if self is ScalarField.COMPLEX else np.dtype(float)

    @property
    def is_complex(self) -> bool:
        return self is ScalarField.COMPLEX


class FieldMismatchError(ValueError):
    pass


class RankDeficiencyError(ValueError):
    """Raised when a vector list is linearly dependent; carries the index of
    the first offending vector."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"vector {index} is dependent on its predecessors")


def _coerce(field: ScalarField, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if not field.is_complex and np.iscomplexobj(arr):
        if np.abs(arr.imag).max(initial=0.0) > 0:
            raise FieldMismatchError(f"complex entries are invalid over {field.value}")
        arr = arr.real
    out = np.array(arr, dtype=field.dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    field: ScalarField
    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _coerce(self.field, self.amplitudes)
        expected = self.field.site_dim ** self.n_sites
        if amps.shape != (expected,):
            raise ValueError(
                f"expected {expected} amplitudes for {self.n_sites} sites "
                f"of dimension {self.field.site_dim}, got shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(self.field, self.n_sites, amplitudes)

    def scaled(self, s: complex | float) -> "StateVector":
        return self.with_amplitudes(self.amplitudes * s)


def basis_state(field: ScalarField, n_sites: int, index: int) -> StateVector:
    amps = np.zeros(field.site_dim ** n_sites, dtype=field.dtype)
    amps[index] = 1.0
    return StateVector(field, n_sites, amps)


@dataclass(frozen=True)
class LinearMap:
    field: ScalarField
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _coerce(self.field, self.matrix)
        if mat.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={mat.ndim}")
        object.__setattr__(self, "matrix", mat)

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


@dataclass(frozen=True)
class SiteOperator:
    """A site-local operator together with the site index it acts on."""

    field: ScalarField
    site: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _coerce(self.field, self.matrix)
        d = self.field.site_dim
        if mat.shape != (d, d):
            raise ValueError(f"site operator must be {d}x{d}, got {mat.shape}")
        if self.site < 0:
            raise ValueError("site index must be nonnegative")
        object.__setattr__(self, "matrix", mat)


def tensor_state(factors: list[StateVector] | tuple[StateVector, ...]) -> StateVector:
    """Kronecker product of states; the leftmost factor varies slowest."""
    if not factors:
        raise ValueError("need at least one factor")
    field = factors[0].field
    if any(f.field is not field for f in factors):
        raise FieldMismatchError("all tensor factors must share a scalar field")
    amps = factors[0].amplitudes
    for f in factors[1:]:
        amps = np.kron(amps, f.amplitudes)
    return StateVector(field, sum(f.n_sites for f in factors), amps)


def inner(u: StateVector, v: StateVector) -> complex | float:
    """<u|v>: Hermitian (conjugate-linear in u) over C, Euclidean otherwise."""
    if u.field is not v.field:
        raise FieldMismatchError("inner product requires matching fields")
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    if u.field.is_complex:
        return complex(np.vdot(u.amplitudes, v.amplitudes))
    return float(np.dot(u.amplitudes, v.amplitudes))


def apply_site(op: SiteOperator, state: StateVector) -> StateVector:
    """Apply a site-local operator without forming the full Kronecker product."""
    return state.with_amplitudes(_site_amplitudes(op, state))


def _site_amplitudes(op: SiteOperator, state: StateVector) -> np.ndarray:
    """The amplitudes of ``op`` applied to ``state``, checked for field and
    site but not validated as a state: the kernel of :func:`apply_site`."""
    if op.field is not state.field:
        raise FieldMismatchError(
            f"operator over {op.field.value} applied to {state.field.value} state")
    if op.site >= state.n_sites:
        raise ValueError(f"site {op.site} out of range for {state.n_sites} sites")
    d = state.field.site_dim
    lead = d ** op.site
    cube = state.amplitudes.reshape(lead, d, -1)
    out = np.einsum("ij,ajb->aib", op.matrix, cube)
    return out.reshape(-1)


def site_operator_matrix(op: SiteOperator, n_sites: int) -> np.ndarray:
    """The full-space matrix identity x ... x op x ... x identity."""
    d = op.field.site_dim
    eye = np.eye(d, dtype=op.field.dtype)
    mat = np.ones((1, 1), dtype=op.field.dtype)
    for k in range(n_sites):
        mat = np.kron(mat, op.matrix if k == op.site else eye)
    return mat


def _project_coeffs(basis: np.ndarray, v: np.ndarray, hermitian: bool) -> np.ndarray:
    return basis.conj().T @ v if hermitian else basis.T @ v


def complete_orthonormal(partial: list[StateVector],
                         tol_rank: float = TOL_RANK) -> list[StateVector]:
    """Extend a linearly independent list to an orthonormal basis.

    Stabilized Gram-Schmidt with a second re-orthogonalization pass; the
    leading len(partial) output vectors span exactly span(partial).
    Dependent input raises RankDeficiencyError with the offending index.

    The fill is split by support, the union of the input vectors' nonzero
    coordinates.  A canonical vector outside the support is exactly
    orthogonal to the input and to every other such vector, so those follow
    the input unchanged, in index order.  Only the canonical vectors inside
    the support go through the Gram-Schmidt sweep (a conservative acceptance
    threshold, then a permissive one if short), and they come last.  Signed
    canonical input thus completes with exact 0 and +-1 entries, and input
    dense on every coordinate gets the plain sweep over all of them.
    """
    if not partial:
        raise ValueError("need at least one vector")
    field = partial[0].field
    n_sites = partial[0].n_sites
    dim = partial[0].dim
    if any(v.field is not field or v.dim != dim for v in partial):
        raise FieldMismatchError("all vectors must share field and dimension")
    hermitian = field.is_complex
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
                vec = vec - head @ _project_coeffs(head, vec, hermitian)
        return vec

    for idx, v in enumerate(partial):
        scale = max(1.0, v.norm())
        u = orthogonalized(v.amplitudes.copy())
        n = np.linalg.norm(u)
        if n <= tol_rank * scale:
            raise RankDeficiencyError(idx)
        basis[:, count] = u / n
        count += 1

    for threshold in (0.5, 10 * tol_rank):
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

    out = [StateVector(field, n_sites, basis[:, k]) for k in range(len(partial))]
    e = np.zeros(dim, dtype=field.dtype)
    for i in np.setdiff1d(np.arange(dim), support):
        e[i] = 1.0
        out.append(StateVector(field, n_sites, e))      # validation copies e
        e[i] = 0.0
    out.extend(StateVector(field, n_sites, basis[:, k])
               for k in range(len(partial), count))
    return out


@dataclass(frozen=True)
class IsometryResult:
    passed: bool
    max_deviation: float


def is_isometry(m: LinearMap | np.ndarray, tol: float = TOL_ISO) -> IsometryResult:
    """Check m^H m = identity (m^T m over the real fields); reports the
    largest absolute deviation."""
    mat = m.matrix if isinstance(m, LinearMap) else np.asarray(m)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("isometry check expects a square matrix")
    gram = mat.conj().T @ mat
    dev = float(np.abs(gram - np.eye(mat.shape[0])).max())
    return IsometryResult(dev <= tol, dev)
