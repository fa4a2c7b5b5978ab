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

import numpy as np

from ._frozen import _Frozen, _set, _Value

# Tolerances: the algebra itself is exact, these bound float64 round-off.
TOL_UNIT = 1e-9
TOL_ZERO = 1e-12
TOL_COMPARE = 1e-12
PAULI_SAMPLES = 32     # random quaternions that confirm a Pauli classification

PAULI_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class Quaternion(_Value):
    """w + x*i + y*j + z*k with the Hamilton convention i*j = k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        _set(self, "w", w)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def scaled(self, s: float) -> "Quaternion":
        return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> "Quaternion":
        """q / |q|.  Rejects near-zero, non-finite and overflowing input."""
        n = _checked_norm(self, self.norm(), "normalize")
        if n <= TOL_ZERO:
            raise ValueError("cannot normalize a (near-)zero quaternion")
        return self.scaled(1.0 / n)

    def is_unit(self) -> bool:
        return abs(self.norm() - 1.0) <= TOL_UNIT

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Quaternion":
        w, x, y, z = (float(v) for v in arr)
        return cls(w, x, y, z)


def _checked_norm(q: Quaternion, norm: float, action: str) -> float:
    """``norm``, a (squared) length computed from q, once q is finite and the
    length has not overflowed: a non-finite component would pass the <= TOL
    guards as NaN, and an overflowed length would scale by 0.0."""
    if not all(map(math.isfinite, (q.w, q.x, q.y, q.z))):
        raise ValueError(f"cannot {action} a non-finite quaternion: {q!r}")
    if norm == math.inf:
        raise ValueError(f"cannot {action} {q!r}: its norm overflows")
    return norm


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
_ONE, _I, _J = (u.as_array() for u in (ONE, I, J))
_UNITS = np.eye(4)    # the rows 1, i, j, k


def _pure(a: np.ndarray) -> np.ndarray:
    """Rows with the scalar part set to 0.0, as an ImaginaryVector keeps them."""
    out = a.copy()
    out[..., 0] = 0.0
    return out


def _rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise rotation of the pure rows ``v`` by the unit rows ``q``:
    q * v * conj(q)."""
    return _pure(_hamilton(_hamilton(q, v), _conj(q)))


def _hopf(q: np.ndarray) -> np.ndarray:
    """Row-wise Hopf projection q^-1 * i * q of nonzero rows, as pure rows;
    the arithmetic of :func:`hopf_project`."""
    r = _hamilton(_hamilton(_conj(q), _I), q)
    return _pure(r * (1.0 / _norm_sq(q))[..., None])


def _right_mult(q: np.ndarray) -> np.ndarray:
    """The 4x4 real matrices of p -> p * q, one per row of ``q``, as one
    C-ordered stack: column c is the c-th unit times q.  The arithmetic of
    :func:`right_mult_matrix`."""
    return np.ascontiguousarray(_hamilton(_UNITS, q[..., None, :]).swapaxes(-1, -2))


class ImaginaryVector(_Value):
    """A pure-imaginary quaternion x*i + y*j + z*k; the scalar part is zero
    by construction."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self._init(x, y, z)

    def to_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def length(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


class ComplexPair(_Frozen):
    """Complex amplitudes (a, b) of |0> and |1>."""

    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex) -> None:
        self._init(a, b)


def embed_qubit(p: ComplexPair) -> Quaternion:
    """(a, b) -> a.re + a.im*i + b.re*j + b.im*k."""
    return Quaternion(p.a.real, p.a.imag, p.b.real, p.b.imag)


def extract_qubit(q: Quaternion) -> ComplexPair:
    """Inverse of :func:`embed_qubit`."""
    return ComplexPair(complex(q.w, q.x), complex(q.y, q.z))


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


class PauliActionClass(_Value):
    """Empirical classification of one sandwich action as phase * Pauli: the
    Pauli matrix ``target`` it realizes and the global left phase, |phase| = 1."""

    __slots__ = ("axis", "target", "phase", "max_deviation")

    def __init__(self, axis: str, target: str, phase: complex, max_deviation: float) -> None:
        self._init(axis, target, phase, max_deviation)

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


def classify_pauli_action(axis: str, seed: int) -> PauliActionClass:
    """Match the sandwich action against phase * Pauli and report the match,
    with the largest disagreement of the matrix and the sandwich on
    ``PAULI_SAMPLES`` random quaternions as ``max_deviation``, for the caller
    to judge.

    Raises ValueError if no Pauli matrix fits, which would indicate a broken
    multiplication table rather than bad input.
    """
    m = _action_matrix(axis)
    found = None
    for name, p in PAULI_MATRICES.items():
        mask = np.abs(p) > 0.5
        ratios = m[mask] / p[mask]
        phase = ratios[0]
        if (np.allclose(ratios, phase, atol=TOL_COMPARE)
                and abs(abs(phase) - 1.0) <= TOL_COMPARE
                and np.allclose(m, phase * p, atol=TOL_COMPARE)):
            found = (name, complex(phase))
            break
    if found is None:
        raise ValueError(f"sandwich action for axis {axis!r} is not phase * Pauli")
    # Confirm the matrix reproduces the sandwich on random quaternions.
    rng = np.random.default_rng([seed, ord(axis)])
    dev = 0.0
    for _ in range(PAULI_SAMPLES):
        q = Quaternion.from_array(rng.standard_normal(4))
        lhs = pauli_action(axis, q)
        pair = extract_qubit(q)
        vec = m @ np.array([pair.a, pair.b])
        rhs = embed_qubit(ComplexPair(vec[0], vec[1]))
        dev = max(dev, (lhs - rhs).norm())
    return PauliActionClass(axis, found[0], found[1], dev)


def hopf_project(q: Quaternion) -> ImaginaryVector:
    """The circle-bundle projection q -> q^-1 * i * q of the 3-sphere onto
    the 2-sphere of physical qubit states.

    The image is pure imaginary with unit length, is unchanged under left
    phase factors exp(phi*i), and transforms by the rotation attached to u
    when q is replaced by q * conj(u).
    """
    if _checked_norm(q, q.norm_sq(), "project") <= TOL_ZERO * TOL_ZERO:
        raise ValueError("cannot project the zero quaternion")
    _, x, y, z = _hopf(q.as_array()).tolist()
    return ImaginaryVector(x, y, z)


def right_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of p -> p * q on (w, x, y, z) coordinates."""
    return _right_mult(q.as_array())


def _decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (u, w) with M(q) = q*u + i*q*w under the qubit embedding, one
    pair per 2x2 complex matrix of the stack ``m``.  With u = c + d*j and
    w = c' + d'*j, M is [[c + i c', i conj(d') - conj(d)],
    [d + i d', conj(c) + i conj(c')]], which gives each part by formula."""
    m00, m01, m10, m11 = np.moveaxis(m.reshape(-1, 4), -1, 0)
    c, c2 = (m00 + m11.conj()) / 2, (m00 - m11.conj()) * -0.5j
    d, d2 = (m10 - m01.conj()) / 2, (m10 + m01.conj()) * -0.5j
    return np.stack([c, d], axis=-1).view(float), np.stack([c2, d2], axis=-1).view(float)


def _compose(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_decompose`: the stack of 2x2 matrices of
    q -> q*u + i*q*w, whose columns are the images of 1 and j."""
    return np.stack([(_hamilton(e, u) + _hamilton(_I, _hamilton(e, w))).view(complex)
                     for e in (_ONE, _J)], axis=-1)
