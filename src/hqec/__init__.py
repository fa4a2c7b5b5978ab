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
    RankDeficiencyError,
    ScalarField,
    SiteOperator,
    StateVector,
    apply_site,
    basis_state,
    complete_orthonormal,
    inner,
    is_isometry,
    tensor_state,
)
from .quaternion import (
    ComplexPair,
    ImaginaryVector,
    Quaternion,
    decompose_matrix,
    compose_matrix,
    embed_qubit,
    extract_qubit,
    hopf_project,
    pauli_action,
    rotate_vector,
    su2_right_action,
)
from .codes import (
    Code,
    CombinedError,
    CorrectionMap,
    ErrorFamily,
    ErrorSet,
    ErrorTerm,
    FactorizationError,
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
from .dirac import (
    DiracSpinor,
    ErrorRotor,
    GammaSet,
    MajoranaSpinor,
    build_gammas_standard,
    build_majorana_transform,
    chi_preservation,
    clifford_check,
    error_generators,
    quaternion_correspondence,
    real_invariance,
    transform_basis,
)

__version__ = "0.1.0"
