"""Error correction over real, complex, and quaternionic qubit spaces.

The package provides exact quaternion algebra with the qubit embedding,
dense tensor-product states over three scalar fields, repetition-style
codes with a Knill-Laflamme checker and correction-operator synthesis, the
gamma-matrix algebra with a real basis change and its quaternionic error
correspondence, and a CLI that runs the whole battery of checks.
"""

from .linalg import (
    FieldMismatchError,
    IsometryResult,
    LinearMap,
    OrthonormalBasis,
    RankDeficiencyError,
    ScalarField,
    SiteOperator,
    StateVector,
    apply_site,
    basis_state,
    complete_orthonormal,
    is_isometry,
    tensor_state,
)
from .quaternion import (
    ComplexPair,
    ImaginaryVector,
    Quaternion,
    embed_qubit,
    extract_qubit,
    hopf_project,
    pauli_action,
)
from .codes import (
    Code,
    CombinedError,
    CorrectionMap,
    ErrorFamily,
    ErrorSet,
    ErrorTerm,
    KLReport,
    SynthesisError,
    build_b3_code,
    build_complex3_code,
    build_h3_code,
    build_r3_code,
    build_shor9_code,
    count_effective_errors,
    effective_error_basis,
    encode,
    kl_check,
    phase_failure_demo,
    roundtrip,
    synthesize_correction,
)

__version__ = "0.1.0"

# ``hqec.dirac`` loads on first use of one of these, not with the package
_DIRAC_EXPORTS = ("ErrorRotor", "GammaSet", "MajoranaSpinor", "build_gammas_standard",
                  "build_majorana_transform", "clifford_check", "error_generators",
                  "quaternion_correspondence", "transform_basis")


def __getattr__(name: str):
    if name in _DIRAC_EXPORTS:
        from . import dirac
        return getattr(dirac, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_DIRAC_EXPORTS])
