"""Hamilton quaternions and the quaternionic picture of a single qubit.

A qubit a|0> + b|1> with complex amplitudes a = ax + i*ay, b = bx + i*by is
stored as the quaternion q = ax*1 + ay*i + bx*j + by*k.  Under this embedding
the ordinary complex unit acts by *left* multiplication with the quaternion
unit i, while SU(2) gates act by *right* multiplication with a unit
quaternion.  The two actions commute, which is what makes the quaternionic
form useful: the global phase is a left factor exp(phi*i) and can be divided
out by the Hopf projection q -> q^-1 * i * q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances: the algebra itself is exact, these bound float64 round-off.
TOL_UNIT = 1e-9
TOL_ZERO = 1e-12
TOL_COMPARE = 1e-12

PAULI_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Quaternion:
    """w + x*i + y*j + z*k with the Hamilton convention i*j = k."""

    w: float
    x: float
    y: float
    z: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion | float | int") -> "Quaternion":
        if isinstance(other, (int, float)):
            return self.scaled(float(other))
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __rmul__(self, other: float | int) -> "Quaternion":
        return self.scaled(float(other))

    def scaled(self, s: float) -> "Quaternion":
        return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        """conj(q) / |q|^2.  Rejects near-zero and non-finite input."""
        _require_finite(self, "invert")
        n2 = self.norm_sq()
        if n2 <= TOL_ZERO * TOL_ZERO:
            raise ValueError("cannot invert a (near-)zero quaternion")
        return self.conj().scaled(1.0 / n2)

    def normalized(self) -> "Quaternion":
        """q / |q|.  Rejects near-zero and non-finite input."""
        _require_finite(self, "normalize")
        n = self.norm()
        if n <= TOL_ZERO:
            raise ValueError("cannot normalize a (near-)zero quaternion")
        return self.scaled(1.0 / n)

    def is_unit(self, tol: float = TOL_UNIT) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def isclose(self, other: "Quaternion", tol: float = TOL_COMPARE) -> bool:
        return (self - other).norm() <= tol * (1.0 + self.norm() + other.norm())

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return cls(w, x, y, z)


def _require_finite(q: Quaternion, action: str) -> None:
    # A non-finite component would pass the <= TOL guards as NaN.
    if not all(map(math.isfinite, (q.w, q.x, q.y, q.z))):
        raise ValueError(f"cannot {action} a non-finite quaternion: {q!r}")


# ---------------------------------------------------------------------------
# Array kernel: rows of (..., 4) float arrays hold (w, x, y, z).  Every term is
# written in the order of the scalar methods above, so a row of the result
# equals the scalar result bit for bit.

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise (broadcast) Hamilton product, as :meth:`Quaternion.__mul__`."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def _conj(a: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`Quaternion.conj`."""
    return a * _CONJ_SIGNS


def _norm_sq(a: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`Quaternion.norm_sq`."""
    w, x, y, z = np.moveaxis(a, -1, 0)
    return w * w + x * x + y * y + z * z


def _norm(a: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`Quaternion.norm`."""
    return np.sqrt(_norm_sq(a))


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
UNITS = {"1": ONE, "i": I, "j": J, "k": K}


@dataclass(frozen=True)
class ImaginaryVector:
    """A pure-imaginary quaternion x*i + y*j + z*k; the scalar part is zero
    by construction."""

    x: float
    y: float
    z: float

    def to_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    @classmethod
    def from_quaternion(cls, q: Quaternion, tol: float = 1e-9) -> "ImaginaryVector":
        if abs(q.w) > tol * (1.0 + q.norm()):
            raise ValueError(f"quaternion has a scalar part: {q.w!r}")
        return cls(q.x, q.y, q.z)

    def length(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def isclose(self, other: "ImaginaryVector", tol: float = TOL_COMPARE) -> bool:
        d = math.sqrt((self.x - other.x) ** 2 + (self.y - other.y) ** 2
                      + (self.z - other.z) ** 2)
        return d <= tol * (1.0 + self.length() + other.length())


@dataclass(frozen=True)
class ComplexPair:
    """Complex amplitudes (a, b) of |0> and |1>."""

    a: complex
    b: complex

    def isclose(self, other: "ComplexPair", tol: float = TOL_COMPARE) -> bool:
        return (abs(self.a - other.a) + abs(self.b - other.b)) <= tol * (
            1.0 + abs(self.a) + abs(self.b) + abs(other.a) + abs(other.b))


def embed_qubit(p: ComplexPair) -> Quaternion:
    """(a, b) -> a.re + a.im*i + b.re*j + b.im*k."""
    return Quaternion(p.a.real, p.a.imag, p.b.real, p.b.imag)


def extract_qubit(q: Quaternion) -> ComplexPair:
    """Inverse of :func:`embed_qubit`."""
    return ComplexPair(complex(q.w, q.x), complex(q.y, q.z))


def exp_phase(phi: float) -> Quaternion:
    """The left phase unit cos(phi) + sin(phi)*i, i.e. exp(i*phi) embedded."""
    return Quaternion(math.cos(phi), math.sin(phi), 0.0, 0.0)


def rotate_vector(q: Quaternion, v: ImaginaryVector) -> ImaginaryVector:
    """Rotate a 3-vector by the unit quaternion q via q * v * conj(q)."""
    if not q.is_unit():
        raise ValueError("rotation requires a unit quaternion")
    r = q * v.to_quaternion() * q.conj()
    return ImaginaryVector(r.x, r.y, r.z)


def rotation_axis(q: Quaternion) -> ImaginaryVector:
    """Unit imaginary part of q; the axis fixed by rotate_vector(q, .)."""
    _require_finite(q, "take the axis of")
    length = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    if length <= TOL_ZERO:
        raise ValueError("quaternion has no imaginary part")
    return ImaginaryVector(q.x / length, q.y / length, q.z / length)


def su2_right_action(q: Quaternion, u: Quaternion) -> Quaternion:
    """Apply the SU(2) element attached to the unit quaternion u: q * conj(u)."""
    if not u.is_unit():
        raise ValueError("the SU(2) action requires a unit quaternion")
    return q * u.conj()


def su2_matrix(u: Quaternion) -> np.ndarray:
    """The 2x2 unitary [[c~, d~], [-d, c]] acting on (a, b), where u = c + d*j.

    Applying this matrix to extract_qubit(q) agrees with embed of
    q * conj(u) for every q; right multiplication and the matrix action are
    the same map in two coordinate systems.
    """
    p = extract_qubit(u)
    c, d = p.a, p.b
    return np.array([[np.conj(c), np.conj(d)], [-d, c]], dtype=complex)


def pauli_action(axis: str, q: Quaternion) -> Quaternion:
    """Sandwich products i*q*i, i*q*j, i*q*k for axis x, y, z.

    The sandwich form is returned verbatim.  Which 2x2 Pauli matrix each
    axis actually realizes (up to a global left phase) is an empirical
    question answered by :func:`classify_pauli_action`; the axis labels here
    follow the sandwich's unit, not the matrix found.
    """
    try:
        unit = {"x": I, "y": J, "z": K}[axis]
    except KeyError:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}") from None
    return I * q * unit


@dataclass(frozen=True)
class PauliActionClass:
    """Empirical classification of one sandwich action as phase * Pauli."""

    axis: str
    target: str          # which Pauli matrix the sandwich realizes
    phase: complex       # global left phase, |phase| = 1
    max_deviation: float

    def describe(self) -> str:
        return (f"sandwich '{self.axis}' acts as ({self.phase.real:+.0f}"
                f"{self.phase.imag:+.0f}j) * sigma_{self.target}")


def _action_matrix(axis: str) -> np.ndarray:
    """2x2 complex matrix of the sandwich action in the (a, b) coordinates.

    The sandwich commutes with left multiplication by i, so it is
    complex-linear on the pair (a, b) and a matrix exists.
    """
    cols = []
    for basis in (ComplexPair(1, 0), ComplexPair(0, 1)):
        image = extract_qubit(pauli_action(axis, embed_qubit(basis)))
        cols.append([image.a, image.b])
    return np.array(cols, dtype=complex).T


def classify_pauli_action(axis: str, samples: int = 32, seed: int = 0,
                          tol: float = TOL_COMPARE) -> PauliActionClass:
    """Match the sandwich action against phase * Pauli and report the match.

    Raises ValueError if no Pauli matrix fits, which would indicate a broken
    multiplication table rather than bad input.
    """
    m = _action_matrix(axis)
    found = None
    for name, p in PAULI_MATRICES.items():
        mask = np.abs(p) > 0.5
        ratios = m[mask] / p[mask]
        phase = ratios[0]
        if (np.allclose(ratios, phase, atol=1e-12)
                and abs(abs(phase) - 1.0) <= 1e-12
                and np.allclose(m, phase * p, atol=1e-12)):
            found = (name, complex(phase))
            break
    if found is None:
        raise ValueError(f"sandwich action for axis {axis!r} is not phase * Pauli")
    # Confirm the matrix reproduces the sandwich on random quaternions.
    rng = np.random.default_rng([seed, ord(axis)])
    dev = 0.0
    for _ in range(samples):
        q = Quaternion.from_array(rng.standard_normal(4))
        lhs = pauli_action(axis, q)
        pair = extract_qubit(q)
        vec = m @ np.array([pair.a, pair.b])
        rhs = embed_qubit(ComplexPair(vec[0], vec[1]))
        dev = max(dev, (lhs - rhs).norm())
    if dev > tol * 10:
        raise ValueError(f"sandwich action disagrees with its matrix: {dev}")
    return PauliActionClass(axis, found[0], found[1], dev)


def hopf_project(q: Quaternion) -> ImaginaryVector:
    """The circle-bundle projection q -> q^-1 * i * q of the 3-sphere onto
    the 2-sphere of physical qubit states.

    The image is pure imaginary with unit length, is unchanged under left
    phase factors exp(phi*i), and transforms by the rotation attached to u
    when q is replaced by q * conj(u).
    """
    _require_finite(q, "project")
    n2 = q.norm_sq()
    if n2 <= TOL_ZERO * TOL_ZERO:
        raise ValueError("cannot project the zero quaternion")
    r = (q.conj() * I * q).scaled(1.0 / n2)
    return ImaginaryVector(r.x, r.y, r.z)


def left_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of p -> q * p on (w, x, y, z) coordinates."""
    cols = [(q * u).as_array() for u in (ONE, I, J, K)]
    return np.column_stack(cols)


def right_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of p -> p * q on (w, x, y, z) coordinates."""
    cols = [(u * q).as_array() for u in (ONE, I, J, K)]
    return np.column_stack(cols)


# The 8x8 real matrix taking (u, w) to the embedded images of 1 and j under
# q -> q*u + i*q*w, that is q*u + (i*q)*w: the system decompose_matrix solves.
_DECOMPOSITION_SYSTEM = np.block([
    [left_mult_matrix(ONE), left_mult_matrix(I)],
    [left_mult_matrix(J), left_mult_matrix(K)]])
_DECOMPOSITION_SYSTEM.setflags(write=False)


def decompose_matrix(m: np.ndarray) -> tuple[Quaternion, Quaternion]:
    """Write a 2x2 complex matrix M as the pair (u, w) with
    M(q) = q*u + i*q*w under the qubit embedding.

    Both sides are 8-real-dimensional and the correspondence is a linear
    bijection, so the 8x8 system it solves is square and always solvable; a
    large residual would mean the solver itself is broken, not the input.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("cannot decompose a matrix with non-finite entries")
    rhs = []
    for pair in (ComplexPair(1, 0), ComplexPair(0, 1)):
        image = m @ np.array([pair.a, pair.b])
        rhs.append(embed_qubit(ComplexPair(image[0], image[1])).as_array())
    solution = np.linalg.solve(_DECOMPOSITION_SYSTEM, np.concatenate(rhs))
    return Quaternion.from_array(solution[:4]), Quaternion.from_array(solution[4:])


def compose_matrix(u: Quaternion, w: Quaternion) -> np.ndarray:
    """Inverse of :func:`decompose_matrix`: the 2x2 matrix of
    q -> q*u + i*q*w."""
    cols = []
    for q in (ONE, J):
        image = q * u + I * (q * w)
        pair = extract_qubit(image)
        cols.append([pair.a, pair.b])
    return np.array(cols, dtype=complex).T
