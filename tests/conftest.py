import math

import numpy as np
import pytest

from hqec import codes
from hqec import quaternion as quat
from hqec.linalg import StateVector


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


class TinyDraws:
    """A numpy Generator stand-in whose standard normal stream holds 1e-9 at
    chosen positions, so that a check's redraw and skip rules fire.

    Position k is the k-th standard normal drawn since creation, however the
    draws are split into calls, so a block draw and the same draws made one
    at a time still see equal values, as with a real Generator.  Uniform and
    integer draws pass through.  ``bit_generator.state`` saves and restores
    the whole stream, and ``rewinds`` counts the restores."""

    def __init__(self, rng, tiny):
        self._rng, self._tiny = rng, frozenset(tiny)
        self.drawn = self.rewinds = 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self._rng.bit_generator.state, self.drawn

    @state.setter
    def state(self, value):
        self.rewinds += 1
        self._rng.bit_generator.state, self.drawn = value

    def standard_normal(self, size):
        x = np.array(self._rng.standard_normal(size), dtype=float)
        flat = x.reshape(-1)
        for k in range(flat.size):
            if self.drawn + k in self._tiny:
                flat[k] = 1e-9
        self.drawn += flat.size
        return x

    def uniform(self, low, high):
        return self._rng.uniform(low, high)

    def integers(self, high):
        return self._rng.integers(high)


def one_ulp_up(x):
    """x with every real component one ulp larger: an array, a state's
    amplitudes, or a float or complex number."""
    if isinstance(x, StateVector):
        return x.with_amplitudes(one_ulp_up(x.amplitudes))
    arr = np.array(x, ndmin=1)
    up = np.nextafter(arr.view(float), np.inf).view(arr.dtype)
    return up if isinstance(x, np.ndarray) else type(x)(up[0])
