import math

import numpy as np
import pytest

from hqec import codes, sampling
from hqec import quaternion as quat
from hqec.linalg import ScalarField, StateVector


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


class FixedDraws:
    """A numpy Generator stand-in that hands out the values of one fixed
    array in order, whatever the method or shape asked for, as one stream of
    a real Generator does when it draws one kind of value only.  ``drawn``
    counts the values handed out; reading ``bit_generator`` fails the test."""

    def __init__(self, values):
        self.values, self.drawn = np.ravel(values), 0

    def _next(self, size):
        count = 1 if size is None else int(np.prod(size))
        out = self.values[self.drawn:self.drawn + count]
        assert len(out) == count, "the fixed values ran out"
        self.drawn += count
        return out[0].item() if size is None else out.reshape(size).copy()

    def standard_normal(self, size=None):
        return self._next(size)

    def uniform(self, low, high, size=None):
        return self._next(size)

    @property
    def bit_generator(self):
        raise AssertionError("a draw read the generator state")


def tiny_streams(tiny, made):
    """A ``sampling.rng_for`` stand-in that makes each stream a FixedDraws
    over the real stream's first values, standard normals (uniforms on
    [0, 2 pi) for a sub-stream 1), with 1e-9 at the positions that ``tiny``
    lists for the stream, so that a check's redraw rules fire.  The last
    stub made for each stream is kept in ``made``."""
    def rng_for(seed, *stream):
        real = sampling.rng_for(seed, *stream)
        values = (real.uniform(0.0, 2.0 * np.pi, 10_000) if stream[1:] == (1,)
                  else real.standard_normal(100_000))
        values[list(tiny.get(stream, ()))] = 1e-9
        made[stream] = FixedDraws(values)
        return made[stream]
    return rng_for


def drawn_row(rng, redraw, width, accept):
    """One trial's row of ``width`` standard normals from ``rng``, drawn again
    from ``redraw`` until ``accept(row)`` holds: the draw rule of the verify
    suites, one trial at a time."""
    row = rng.standard_normal(width)
    while not accept(row):
        row = redraw.standard_normal(width)
    return row


def unit_draw(row) -> bool:
    """Whether four normals make a unit quaternion draw: a norm above
    ``sampling.UNIT_FLOOR``."""
    return quat.Quaternion.from_array(row).norm() > 1e-6


def left_mult(q: quat.Quaternion) -> np.ndarray:
    """The 4x4 real matrix of p -> q * p on (w, x, y, z) coordinates, from
    the scalar product column by column: column c is q times the c-th unit."""
    return np.column_stack([(q * u).as_array() for u in quat.UNITS.values()])


def h3x4_code() -> codes.Code:
    """The four-codeword h3 code 1x1x1, ixixi, jxjxj, kxkxk: a whole
    quaternion copied three times, with no constructor in ``hqec``."""
    field = ScalarField.QUATERNION_R4
    return codes.Code("h3x4", field, 3, codes._repetition_codewords(field, 3, (0, 1, 2, 3)))


def inner(u: StateVector, v: StateVector) -> complex | float:
    """<u|v> of two states of one field and dimension: Hermitian
    (conjugate-linear in u) over C, Euclidean otherwise."""
    if u.field.is_complex:
        return complex(np.vdot(u.amplitudes, v.amplitudes))
    return float(np.dot(u.amplitudes, v.amplitudes))


def _dense_assembly(basis):
    """The square matrix complete_orthonormal returned before it held its
    three parts, assembled as it did: zeros, the lead columns, a 1 in each
    outside coordinate's row of the next columns, then the fill columns."""
    lead, outside = basis.lead, basis.outside
    dim, k = lead.shape
    out = np.zeros((dim, dim), dtype=lead.dtype)
    out[:, :k] = lead
    out[outside, k + np.arange(len(outside))] = 1.0
    out[:, k + len(outside):] = basis.fill
    return out
