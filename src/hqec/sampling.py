"""Seeded random generators for states, quaternions, and unitaries.

Every randomized check owns a generator derived from (seed, stream ids), so
batches can run in any order or concurrently and still reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from .linalg import ScalarField, StateVector, _norm
from .quaternion import Quaternion

UNIT_FLOOR = 1e-6   # random_unit_quaternion redraws a draw of norm at most this


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2**64 - 1), *stream])


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion.from_array(rng.standard_normal(4))


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    """Uniform on the 3-sphere: four standard Gaussians, normalized."""
    while True:
        q = Quaternion.from_array(rng.standard_normal(4))
        if q.norm() > UNIT_FLOOR:
            return q.normalized()


def random_state(field: ScalarField, n_sites: int,
                 rng: np.random.Generator) -> StateVector:
    return StateVector(field, n_sites, random_coefficients(
        field, field.site_dim ** n_sites, rng))


def random_coefficients(field: ScalarField, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    return _unit_rows(field, rng.standard_normal((1, _width(field, count))))[0]


def _amplitudes(field: ScalarField, normals: np.ndarray) -> np.ndarray:
    """Amplitudes from the last axis of a block of normals, as
    :func:`random_coefficients` draws them: over C real parts, then imaginary."""
    if not field.is_complex:
        return normals
    half = normals.shape[-1] // 2
    return normals[..., :half] + 1j * normals[..., half:]


def _width(field: ScalarField, count: int) -> int:
    """The normals :func:`random_coefficients` draws for ``count`` amplitudes."""
    return 2 * count if field.is_complex else count


def _unit_rows(field: ScalarField, normals: np.ndarray) -> np.ndarray:
    """Row-wise :func:`random_coefficients` from its draws, bit for bit."""
    rows = _amplitudes(field, normals)
    norms = np.array([_norm(row) for row in rows])
    if not norms.all():
        raise ValueError("cannot normalize a draw of zero norm")
    return rows / norms[:, None]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from Gram-Schmidt (QR) of a random complex matrix."""
    return _unitary_rows(rng.standard_normal((1, 2, dim, dim)))[0]


def _unitary_rows(normals: np.ndarray) -> np.ndarray:
    """One unitary per row of a block of normals of shape (n, 2, d, d), real
    parts then imaginary: :func:`random_unitary` is the one-row case."""
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    # Fix the column phases so the result is independent of QR sign choices.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diagonal(r))
