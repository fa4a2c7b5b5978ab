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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quaternion as quat
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
TOL_SPINOR_REAL = 1e-12  # imaginary part a Majorana spinor's components may carry


@dataclass(frozen=True)
class GammaSet:
    """Five 4x4 matrices: gamma0..gamma3 plus the chirality matrix gamma5."""

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g5: np.ndarray

    def all(self) -> tuple[np.ndarray, ...]:
        return self.g0, self.g1, self.g2, self.g3, self.g5

    @cached_property
    def _generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The :func:`error_generators` triple, built once per set."""
        return error_generators(self)


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


@dataclass(frozen=True)
class CliffordReport:
    passed: bool
    max_deviation: float
    failures: tuple[str, ...]


def clifford_check(g: GammaSet) -> CliffordReport:
    """Verify pairwise anticommutation, the five squares, and the product
    formula for gamma5.  Basis changes leave all of these invariant.

    Raises ValueError for a non-finite entry, which every deviation test
    would pass as NaN."""
    mats = {"g0": g.g0, "g1": g.g1, "g2": g.g2, "g3": g.g3, "g5": g.g5}
    if not all(np.isfinite(m).all() for m in mats.values()):
        raise ValueError("gamma matrices must be finite")
    squares = {"g0": 1.0, "g1": -1.0, "g2": -1.0, "g3": -1.0, "g5": 1.0}
    eye = np.eye(4)
    failures = []
    dev = 0.0

    names = list(mats)
    for a_idx, na in enumerate(names):
        for nb in names[a_idx + 1:]:
            d = float(np.abs(mats[na] @ mats[nb] + mats[nb] @ mats[na]).max())
            dev = max(dev, d)
            if d > TOL_IDENTITY:
                failures.append(f"{na},{nb} do not anticommute (dev {d:.3e})")
    for name, sign in squares.items():
        d = float(np.abs(mats[name] @ mats[name] - sign * eye).max())
        dev = max(dev, d)
        if d > TOL_IDENTITY:
            failures.append(f"{name}^2 != {sign:+.0f} (dev {d:.3e})")
    d = float(np.abs(g.g5 - (-1j) * g.g0 @ g.g1 @ g.g2 @ g.g3).max())
    dev = max(dev, d)
    if d > TOL_IDENTITY:
        failures.append(f"g5 != -i g0 g1 g2 g3 (dev {d:.3e})")
    return CliffordReport(not failures, dev, tuple(failures))


def transform_basis(g: GammaSet, u: np.ndarray) -> GammaSet:
    """Conjugate every matrix by a unitary: gamma' = U gamma U^H."""
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


@dataclass(frozen=True)
class SignedMatch:
    """Result of matching a computed matrix against sign * reference."""

    name: str
    sign: int | None              # +1 / -1, or None when neither sign matches
    deviation: float              # residual for the best sign
    reference_deviation: float    # residual against the reference itself (+1)

    @property
    def matches_reference(self) -> bool:
        return self.sign == 1


def match_up_to_sign(computed: np.ndarray, reference: np.ndarray,
                     name: str, tol: float = TOL_IDENTITY) -> SignedMatch:
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
    and the third is always the product of the first two.
    """
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
    """Sign-classify the transformed bilinears against their reference forms."""
    g2, g3, g1 = g_majorana.g2, g_majorana.g3, g_majorana.g1
    bilinears = {"g2g3": g2 @ g3, "g3g1": g3 @ g1, "g1g2": g1 @ g2}
    return {name: match_up_to_sign(bilinears[name], MAJORANA_BILINEAR_REFERENCE[name],
                                   name) for name in bilinears}


# ---------------------------------------------------------------------------
# Spinors and rotors


@dataclass(frozen=True)
class MajoranaSpinor:
    """A real 4-vector identified with the quaternion q0 + q1 i + q2 j + q3 k."""

    components: np.ndarray

    def __post_init__(self) -> None:
        comp = np.asarray(self.components)
        if comp.shape != (4,):
            raise ValueError("four components required")
        if np.iscomplexobj(comp):
            if np.abs(comp.imag).max(initial=0.0) > TOL_SPINOR_REAL:
                raise ValueError("components must be real")
            comp = comp.real
        object.__setattr__(self, "components", comp.astype(float))

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "MajoranaSpinor":
        return cls(q.as_array())


@dataclass(frozen=True)
class ErrorRotor:
    """Real coefficients (e0, e1, e2, e3) over identity and a generator
    triple; with sum of squares one the rotor acts as an isometry of R^4."""

    e0: float
    e1: float
    e2: float
    e3: float

    def as_quaternion(self) -> Quaternion:
        return Quaternion(self.e0, self.e1, self.e2, self.e3)

    def matrix(self, generators: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        e1m, e2m, e3m = generators
        return (self.e0 * np.eye(4, dtype=e1m.dtype)
                + self.e1 * e1m + self.e2 * e2m + self.e3 * e3m)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Rotor action on a real spinor versus right quaternion multiplication.

    ``max_deviation`` measures the reference identity
    rotor(e) Psi_q = Psi_{q * conj(e)}.  The signs the generator triple
    realizes instead depend on the gamma set alone; see
    :func:`classify_unit_correspondences`.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    max_deviation: float
    passed: bool


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
    """
    psi = MajoranaSpinor.from_quaternion(q)
    lhs_c = rotor.matrix(g_majorana._generators) @ psi.components
    if np.abs(lhs_c.imag).max(initial=0.0) > TOL_REAL:
        raise ValueError("generator triple is not real; use a real basis")
    lhs = lhs_c.real
    rhs = (q * rotor.as_quaternion().conj()).as_array()
    dev = float(np.abs(lhs - rhs).max())
    return CorrespondenceReport(lhs, rhs, dev, dev <= TOL_IDENTITY)

