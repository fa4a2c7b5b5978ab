import math

import pytest

from hqec import codes
from hqec import quaternion as quat


@pytest.fixture(scope="session")
def r3_correction():
    return codes.build_r3_correction()


@pytest.fixture(scope="session")
def h3_correction():
    return codes.build_h3_correction()


@pytest.fixture(scope="session")
def shor9_correction():
    return codes.build_shor9_correction()


def _close(a, b, tol: float = 1e-12) -> bool:
    """|a - b| <= tol (1 + |a| + |b|) for two quaternions, imaginary vectors
    or amplitude pairs, each read as the quaternion of its real components.

    Raises ValueError when a length or the difference overflows, which would
    make the bound pass any difference."""
    qa, qb = (quat.embed_qubit(v) if isinstance(v, quat.ComplexPair)
              else v.to_quaternion() if isinstance(v, quat.ImaginaryVector)
              else v for v in (a, b))
    diff, bound = (qa - qb).norm(), 1.0 + qa.norm() + qb.norm()
    if diff == math.inf or bound == math.inf:
        raise ValueError(f"cannot compare {a!r} with {b!r}: a norm or "
                         "their difference overflows")
    return diff <= tol * bound
