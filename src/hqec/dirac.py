"""The 4x4 gamma-matrix algebra, a real (Majorana-style) basis change, and
the spinor image of quaternionic qubit errors.

The module builds the standard block representation of the five gamma
matrices, verifies the defining anticommutation/square relations in any
basis, constructs an explicit unitary basis change after which the three
rotation bilinears gamma_i gamma_j become real matrices, and checks that
those real matrices act on a 4-component real spinor exactly like right
quaternion multiplications.

Sign conventions are treated as data, not assumptions: every identity that
involves a sign is verified against reference constants, and where a
computed quantity matches the reference only up to a global sign the reports
record the sign actually found instead of silently flipping it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import quaternion as quat
from ._frozen import _Frozen
from .linalg import is_isometry
from .quaternion import Quaternion

_SX = quat.PAULI_MATRICES["x"]
_SY = quat.PAULI_MATRICES["y"]
_SZ = quat.PAULI_MATRICES["z"]
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

# Tolerances: the algebra is exact, these bound float64 round-off.
TOL_IDENTITY = 1e-12     # the algebraic identities checked below
TOL_REAL = 1e-10         # imaginary part a real generator triple may carry
TOL_BASIS_IMAGE = 1e-13  # a conjugated gamma matrix against its reference image


class GammaSet(_Frozen):
    """Five 4x4 matrices: gamma0..gamma3 plus the chirality matrix gamma5."""

    __slots__ = ("g0", "g1", "g2", "g3", "g5", "__dict__")    # a dict for _generators

    def __init__(self, g0: np.ndarray, g1: np.ndarray, g2: np.ndarray,
                 g3: np.ndarray, g5: np.ndarray) -> None:
        self._init(g0, g1, g2, g3, g5)

    def all(self) -> tuple[np.ndarray, ...]:
        return self.g0, self.g1, self.g2, self.g3, self.g5

    @cached_property
    def _generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The :func:`error_generators` triple, built once per set."""
        return error_generators(self)


def _finite(g: GammaSet) -> GammaSet:
    """``g`` once every entry is finite (ValueError else), since every
    deviation test would pass a NaN."""
    if not all(np.isfinite(m).all() for m in g.all()):
        raise ValueError("gamma matrices must be finite")
    return g


def _block(a, b, c, d) -> np.ndarray:
    return np.block([[a, b], [c, d]]).astype(complex)


def build_gammas_standard() -> GammaSet:
    """The block form: g0 swaps the 2-spinor halves, g1..g3 are off-diagonal
    Pauli blocks, and g5 = -i g0 g1 g2 g3 is diagonal."""
    g0 = _block(_Z2, _I2, _I2, _Z2)
    g1 = _block(_Z2, -_SX, _SX, _Z2)
    g2 = _block(_Z2, -_SY, _SY, _Z2)
    g3 = _block(_Z2, -_SZ, _SZ, _Z2)
    g5 = -1j * g0 @ g1 @ g2 @ g3
    gs = GammaSet(g0, g1, g2, g3, g5)
    report = clifford_check(gs)
    if not report.passed:  # construction is exact; failure means a code bug
        raise AssertionError(f"standard gamma set violates its algebra: {report}")
    return gs


class CliffordReport(_Frozen):
    __slots__ = ("passed", "max_deviation", "failures")

    def __init__(self, passed: bool, max_deviation: float,
                 failures: tuple[str, ...]) -> None:
        self._init(passed, max_deviation, failures)


_NAMES = ("g0", "g1", "g2", "g3", "g5")
_SQUARES = (1.0, -1.0, -1.0, -1.0, 1.0)
# the relations clifford_check tests, in the order of _clifford_deviations
_RELATIONS = ([f"{a},{b} do not anticommute" for k, a in enumerate(_NAMES)
               for b in _NAMES[k + 1:]]
              + [f"{name}^2 != {sign:+.0f}" for name, sign in zip(_NAMES, _SQUARES)]
              + ["g5 != -i g0 g1 g2 g3"])


def _clifford_deviations(mats) -> list[np.ndarray]:
    """The deviation of each relation in ``_RELATIONS`` for stacked gamma
    sets ``mats`` = (g0, g1, g2, g3, g5), each of shape (..., 4, 4)."""
    axes = (-2, -1)
    devs = [np.abs(a @ b + b @ a).max(axis=axes)
            for k, a in enumerate(mats) for b in mats[k + 1:]]
    devs += [np.abs(g @ g - sign * np.eye(4)).max(axis=axes)
             for g, sign in zip(mats, _SQUARES)]
    g0, g1, g2, g3, g5 = mats
    devs.append(np.abs(g5 - (-1j) * g0 @ g1 @ g2 @ g3).max(axis=axes))
    return devs


def clifford_check(g: GammaSet) -> CliffordReport:
    """Verify pairwise anticommutation, the five squares, and the product
    formula for gamma5.  Basis changes leave all of these invariant.

    Raises ValueError for a non-finite entry, which every deviation test
    would pass as NaN."""
    devs = [float(d) for d in _clifford_deviations(_finite(g).all())]
    failures = tuple(f"{relation} (dev {d:.3e})"
                     for relation, d in zip(_RELATIONS, devs) if d > TOL_IDENTITY)
    return CliffordReport(not failures, max(devs), failures)


def transform_basis(g: GammaSet, u: np.ndarray) -> GammaSet:
    """Conjugate every matrix by a unitary: gamma' = U gamma U^H.  A
    non-finite entry of ``g`` or ``u`` raises ValueError."""
    _finite(g)
    u = np.asarray(u, dtype=complex)
    check = is_isometry(u)
    if not check.passed:
        raise ValueError(f"basis change must be unitary (deviation {check.max_deviation:.3e})")
    uh = u.conj().T
    return GammaSet(*(u @ m @ uh for m in g.all()))


def build_majorana_transform(g: GammaSet) -> np.ndarray:
    """The unitary g2 (g5 + i g1)(g0 + i g3) / 2.

    It commutes with g2 and swaps the roles of g3 with i*g0 and of g1 with
    i*g5, so that after conjugation every i*gamma_k is a real matrix.
    """
    return g.g2 @ (g.g5 + 1j * g.g1) @ (g.g0 + 1j * g.g3) / 2.0


# The explicit matrix the transform evaluates to.
MAJORANA_TRANSFORM_REFERENCE = (1j + 1) / 2 * np.array(
    [[0, 1, 1j, 0],
     [-1j, 0, 0, 1],
     [-1, 0, 0, 1j],
     [0, -1j, -1, 0]], dtype=complex)

# Reference targets for the conjugated matrices, up to the recorded sign:
# pairs (coefficient, source matrix name).  The realized images satisfy
# gamma_k' = sign * coefficient * source with sign in {+1, -1}; the checks
# report the sign found per matrix.
BASIS_IMAGE_REFERENCE = {
    "g0": (-1j, "g3"),
    "g1": (1j, "g5"),
    "g2": (1.0, "g2"),
    "g3": (1j, "g0"),
    "g5": (-1j, "g1"),
}


class SignedMatch(_Frozen):
    """Result of matching a computed matrix against sign * reference: ``sign``
    is +1, -1 or None (neither matches), ``deviation`` the residual for the best
    sign, ``reference_deviation`` the residual against the reference (+1)."""

    __slots__ = ("name", "sign", "deviation", "reference_deviation")

    def __init__(self, name: str, sign: int | None, deviation: float,
                 reference_deviation: float) -> None:
        self._init(name, sign, deviation, reference_deviation)

    @property
    def matches_reference(self) -> bool:
        return self.sign == 1


def match_up_to_sign(computed: np.ndarray, reference: np.ndarray,
                     name: str, tol: float = TOL_IDENTITY) -> SignedMatch:
    """Classify ``computed`` as +-``reference`` within ``tol``; a non-finite
    entry of either, whose deviation would be NaN, raises ValueError."""
    if not (np.isfinite(computed).all() and np.isfinite(reference).all()):
        raise ValueError(f"{name}: matrices must be finite")
    plus = float(np.abs(computed - reference).max())
    minus = float(np.abs(computed + reference).max())
    if plus <= tol:
        return SignedMatch(name, 1, plus, plus)
    if minus <= tol:
        return SignedMatch(name, -1, minus, plus)
    return SignedMatch(name, None, min(plus, minus), plus)


def check_basis_images(g: GammaSet, u: np.ndarray,
                       tol: float = TOL_BASIS_IMAGE) -> dict[str, SignedMatch]:
    """Compare U gamma U^H against the reference images, sign-classified."""
    transformed = transform_basis(g, u)
    sources = {"g0": g.g0, "g1": g.g1, "g2": g.g2, "g3": g.g3, "g5": g.g5}
    images = {"g0": transformed.g0, "g1": transformed.g1, "g2": transformed.g2,
              "g3": transformed.g3, "g5": transformed.g5}
    out = {}
    for name, (coeff, source) in BASIS_IMAGE_REFERENCE.items():
        out[name] = match_up_to_sign(images[name], coeff * sources[source], name, tol)
    return out


def majorana_set(g: GammaSet | None = None) -> GammaSet:
    g = g or build_gammas_standard()
    return transform_basis(g, build_majorana_transform(g))


def error_generators(g: GammaSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rotation bilinears (-g2 g3, -g3 g1, g1 g2) in the given basis.

    In a basis where all i*gamma_k are real these three matrices are real,
    and the third is always the product of the first two.  A non-finite
    entry of ``g`` raises ValueError.
    """
    _finite(g)
    return -g.g2 @ g.g3, -g.g3 @ g.g1, g.g1 @ g.g2


# Reference real forms of the transformed bilinears g2'g3', g3'g1', g1'g2'
# (the generators above are their signed versions).  These coincide with the
# right-multiplication matrices by the quaternion units i, j, k.
MAJORANA_BILINEAR_REFERENCE = {
    "g2g3": np.array([[0, -1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float),
    "g3g1": np.array([[0, 0, -1, 0], [0, 0, 0, -1],
                      [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float),
    "g1g2": np.array([[0, 0, 0, 1], [0, 0, -1, 0],
                      [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float),
}


def check_majorana_bilinears(g_majorana: GammaSet) -> dict[str, SignedMatch]:
    """Sign-classify the transformed bilinears against their reference forms
    (ValueError for a non-finite entry)."""
    g = _finite(g_majorana)
    bilinears = {"g2g3": g.g2 @ g.g3, "g3g1": g.g3 @ g.g1, "g1g2": g.g1 @ g.g2}
    return {name: match_up_to_sign(bilinears[name], MAJORANA_BILINEAR_REFERENCE[name],
                                   name) for name in bilinears}


# ---------------------------------------------------------------------------
# Spinors and rotors


class MajoranaSpinor(_Frozen):
    """A real 4-vector identified with the quaternion q0 + q1 i + q2 j + q3 k."""

    __slots__ = ("components",)

    def __init__(self, components: np.ndarray) -> None:
        comp = np.asarray(components)
        if comp.shape != (4,) or not np.isfinite(comp).all():
            raise ValueError("four finite components required")
        if np.iscomplexobj(comp):
            raise ValueError("components must be real")
        self._init(comp.astype(float))

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "MajoranaSpinor":
        return cls(q.as_array())


class ErrorRotor(_Frozen):
    """Real coefficients (e0, e1, e2, e3) over identity and a generator
    triple; with sum of squares one the rotor acts as an isometry of R^4."""

    __slots__ = ("e0", "e1", "e2", "e3")

    def __init__(self, e0: float, e1: float, e2: float, e3: float) -> None:
        self._init(e0, e1, e2, e3)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(self.e0, self.e1, self.e2, self.e3)

    def matrix(self, generators: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        return _rotor_matrices(np.array([[self.e0, self.e1, self.e2, self.e3]]),
                               generators)[0]


def _rotor_matrices(e: np.ndarray, generators) -> np.ndarray:
    """The rotor matrices e0 + e1 E1 + e2 E2 + e3 E3, one per coefficient
    row of ``e``, over the generator triple (E1, E2, E3)."""
    e1m, e2m, e3m = generators
    c = e[:, :, None, None]
    return (c[:, 0] * np.eye(4, dtype=e1m.dtype)
            + c[:, 1] * e1m + c[:, 2] * e2m + c[:, 3] * e3m)


class CorrespondenceReport(_Frozen):
    """Rotor action on a real spinor versus right quaternion multiplication.

    ``max_deviation`` measures the reference identity
    rotor(e) Psi_q = Psi_{q * conj(e)}.  The signs the generator triple
    realizes instead depend on the gamma set alone; see
    :func:`classify_unit_correspondences`.
    """

    __slots__ = ("lhs", "rhs", "max_deviation")

    def __init__(self, lhs: np.ndarray, rhs: np.ndarray, max_deviation: float) -> None:
        self._init(lhs, rhs, max_deviation)


def classify_unit_correspondences(
        generators: tuple[np.ndarray, np.ndarray, np.ndarray]) -> dict[str, int | None]:
    """For each quaternion unit, the sign s such that the matrix of
    p -> p * unit equals s times the matching generator (the documented
    discrepancy when it is not the reference value -1)."""
    out: dict[str, int | None] = {}
    for name, gen in zip(("i", "j", "k"), generators):
        r = quat.right_mult_matrix(quat.UNITS[name])
        match = match_up_to_sign(gen.real, r, name)
        imag = float(np.abs(np.asarray(gen).imag).max()) if np.iscomplexobj(gen) else 0.0
        out[name] = match.sign if imag <= TOL_IDENTITY else None
    return out


def quaternion_correspondence(rotor: ErrorRotor, q: Quaternion,
                              g_majorana: GammaSet) -> CorrespondenceReport:
    """Check rotor(e) applied to Psi_q against q * conj(e).

    The right side is computed with the quaternion product as the oracle;
    the left side uses the generator triple the given (real) basis holds.
    A non-finite rotor, quaternion or gamma entry, or an overflow, raises
    ValueError in place of a NaN or inf deviation.
    """
    psi = MajoranaSpinor.from_quaternion(q)
    with np.errstate(over="ignore", invalid="ignore"):     # raises ValueError below
        lhs_c = rotor.matrix(g_majorana._generators) @ psi.components
        if np.abs(lhs_c.imag).max(initial=0.0) > TOL_REAL:
            raise ValueError("generator triple is not real; use a real basis")
        lhs = lhs_c.real
        rhs = (q * rotor.as_quaternion().conj()).as_array()
        dev = float(np.abs(lhs - rhs).max())
    if not np.isfinite(dev):
        raise ValueError("the rotor, the quaternion and their images must be finite")
    return CorrespondenceReport(lhs, rhs, dev)

