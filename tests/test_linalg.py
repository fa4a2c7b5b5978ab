import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqec import quaternion as quat
from hqec.codes import phase_error_pi
from hqec.linalg import (
    FieldMismatchError,
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
    site_operator_matrix,
    tensor_state,
)

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION_R4


def test_field_properties():
    assert R.site_dim == 2 and C.site_dim == 2 and H.site_dim == 4
    assert C.is_complex and not R.is_complex and not H.is_complex


def test_state_validation():
    with pytest.raises(ValueError):
        StateVector(R, 2, np.zeros(3))
    with pytest.raises(FieldMismatchError):
        StateVector(R, 1, np.array([1j, 0]))
    with pytest.raises(ValueError):
        StateVector(R, 1, np.array([np.nan, 0.0]))
    # a real-valued complex array is fine over a real field
    s = StateVector(R, 1, np.array([1.0 + 0j, 0.0]))
    assert s.amplitudes.dtype == np.dtype(float)


def test_tensor_basis_states():
    zero3 = tensor_state([basis_state(R, 1, 0)] * 3)
    assert zero3.dim == 8 and zero3.amplitudes[0] == 1.0
    assert np.count_nonzero(zero3.amplitudes) == 1
    ones3 = tensor_state([basis_state(H, 1, 0)] * 3)
    assert ones3.dim == 64 and ones3.amplitudes[0] == 1.0


def test_tensor_order_big_endian():
    a, b = 0.6, 0.8
    left = StateVector(R, 1, [a, b])
    one = basis_state(R, 1, 1)
    prod = tensor_state([left, one])
    assert np.allclose(prod.amplitudes, [0, a, 0, b])


def test_tensor_rejects_mixed_fields():
    with pytest.raises(FieldMismatchError):
        tensor_state([basis_state(R, 1, 0), basis_state(C, 1, 0)])


def test_inner_examples():
    w0 = tensor_state([basis_state(R, 1, 0)] * 3)
    w1 = tensor_state([basis_state(R, 1, 1)] * 3)
    assert inner(w0, w0) == 1.0
    assert inner(w0, w1) == 0.0
    zero = basis_state(C, 1, 0)
    assert inner(zero, apply_site(phase_error_pi(0), zero)) == 1j


def test_inner_is_conjugate_linear_in_first_argument():
    u = StateVector(C, 1, [1j, 0])
    v = StateVector(C, 1, [1.0, 0])
    assert inner(u, v) == -1j


def test_inner_rejects_mismatch():
    with pytest.raises(ValueError):
        inner(basis_state(R, 1, 0), basis_state(R, 2, 0))
    with pytest.raises(FieldMismatchError):
        inner(basis_state(R, 1, 0), basis_state(C, 1, 0))


def test_apply_site_rotation_on_repetition_state():
    a, b = 0.28, -1.4
    theta = 0.77
    alpha, beta = np.cos(theta), np.sin(theta)
    w0 = tensor_state([basis_state(R, 1, 0)] * 3)
    w1 = tensor_state([basis_state(R, 1, 1)] * 3)
    state = w0.with_amplitudes(a * w0.amplitudes + b * w1.amplitudes)
    rot = SiteOperator(R, 0, np.array([[alpha, -beta], [beta, alpha]]))
    out = apply_site(rot, state)
    expected = np.zeros(8)
    expected[0b000] = a * alpha
    expected[0b100] = a * beta
    expected[0b011] = -b * beta
    expected[0b111] = b * alpha
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_apply_site_identity():
    rng = np.random.default_rng(3)
    state = StateVector(C, 2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    op = SiteOperator(C, 1, np.eye(2))
    assert np.array_equal(apply_site(op, state).amplitudes, state.amplitudes)


def test_apply_site_right_multiplication():
    # multiply site 0 of the two-site state 1 x 1 by the unit i on the right
    state = tensor_state([basis_state(H, 1, 0)] * 2)
    op = SiteOperator(H, 0, quat.right_mult_matrix(quat.I))
    out = apply_site(op, state)
    expected = np.zeros(16)
    expected[1 * 4 + 0] = 1.0     # i x 1
    assert np.allclose(out.amplitudes, expected)


def test_apply_site_range_and_field_checks():
    state = tensor_state([basis_state(R, 1, 0)] * 2)
    with pytest.raises(ValueError):
        apply_site(SiteOperator(R, 2, np.eye(2)), state)
    with pytest.raises(FieldMismatchError):
        apply_site(SiteOperator(C, 0, np.eye(2)), state)


@pytest.mark.parametrize("field,n_sites", [(R, 3), (C, 3), (H, 3)])
def test_apply_site_matches_full_kron(field, n_sites):
    rng = np.random.default_rng(11)
    for _ in range(25):
        site = int(rng.integers(n_sites))
        d = field.site_dim
        block = rng.standard_normal((d, d))
        if field.is_complex:
            block = block + 1j * rng.standard_normal((d, d))
        op = SiteOperator(field, site, block)
        amps = rng.standard_normal(d ** n_sites)
        if field.is_complex:
            amps = amps + 1j * rng.standard_normal(d ** n_sites)
        state = StateVector(field, n_sites, amps)
        fast = apply_site(op, state).amplitudes
        full = site_operator_matrix(op, n_sites) @ amps
        assert np.abs(fast - full).max() <= 1e-12


def test_complete_orthonormal_examples():
    e0 = basis_state(R, 1, 0)
    full = complete_orthonormal([e0])
    assert len(full) == 2
    assert abs(abs(full[1].amplitudes[1]) - 1.0) <= 1e-12

    diag = StateVector(R, 1, np.array([1.0, 1.0]) / np.sqrt(2))
    full = complete_orthonormal([diag])
    second = full[1].amplitudes
    assert abs(abs(second @ np.array([1, -1]) / np.sqrt(2)) - 1.0) <= 1e-10


def test_complete_orthonormal_rejects_dependent_input():
    e0 = basis_state(R, 1, 0)
    nearly = e0.with_amplitudes(e0.amplitudes
                                + 1e-15 * basis_state(R, 1, 1).amplitudes)
    with pytest.raises(RankDeficiencyError) as err:
        complete_orthonormal([e0, nearly])
    assert err.value.index == 1


@pytest.mark.parametrize("field", [R, C, H])
def test_complete_orthonormal_random_spans(field):
    rng = np.random.default_rng(5)
    dim = field.site_dim ** 2
    for _ in range(5):
        k = int(rng.integers(1, 4))
        vecs = []
        for _ in range(k):
            amps = rng.standard_normal(dim)
            if field.is_complex:
                amps = amps + 1j * rng.standard_normal(dim)
            vecs.append(StateVector(field, 2, amps))
        full = complete_orthonormal(vecs)
        mat = np.column_stack([v.amplitudes for v in full])
        assert np.abs(mat.conj().T @ mat - np.eye(dim)).max() <= 1e-10
        lead = mat[:, :k]
        for v in vecs:
            resid = v.amplitudes - lead @ (lead.conj().T @ v.amplitudes)
            assert np.linalg.norm(resid) <= 1e-10 * max(1.0, v.norm())


def test_is_isometry():
    assert is_isometry(np.eye(4)).passed
    assert is_isometry(np.eye(4)).max_deviation == 0.0
    bad = is_isometry(np.diag([1.0, 2.0]))
    assert not bad.passed
    with pytest.raises(ValueError):
        is_isometry(np.ones((2, 3)))


def test_isometries_preserve_inner_products():
    rng = np.random.default_rng(8)
    mat, _ = np.linalg.qr(rng.standard_normal((6, 6))
                          + 1j * rng.standard_normal((6, 6)))
    lm = LinearMap(C, mat)
    assert is_isometry(lm).passed
    for _ in range(20):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert abs(np.vdot(mat @ a, mat @ b) - np.vdot(a, b)) <= 1e-10


def test_linear_map_apply_checks():
    lm = LinearMap(R, np.eye(2))
    with pytest.raises(FieldMismatchError):
        lm.apply(basis_state(C, 1, 0))
    with pytest.raises(ValueError):
        lm.apply(basis_state(R, 2, 0))


# --- completion oracle ------------------------------------------------------

def _reference_completion(partial, tol_rank=1e-10):
    """The sequential completion: Gram-Schmidt over the input, then a sweep
    over every canonical vector in index order (threshold 0.5, then
    10 * tol_rank), each projected twice against all accepted columns.
    Returns the basis as the columns of a matrix."""
    dim = partial[0].dim
    field = partial[0].field
    basis = np.zeros((dim, dim), dtype=field.dtype)
    count = 0

    def orthogonalized(vec):
        head = basis[:, :count]
        for _ in range(2):
            if count:
                vec = vec - head @ (head.conj().T @ vec if field.is_complex
                                    else head.T @ vec)
        return vec

    for v in partial:
        u = orthogonalized(v.amplitudes.copy())
        basis[:, count] = u / np.linalg.norm(u)
        count += 1
    for threshold in (0.5, 10 * tol_rank):
        for i in range(dim):
            if count == dim:
                break
            e = np.zeros(dim, dtype=field.dtype)
            e[i] = 1.0
            u = orthogonalized(e)
            n = np.linalg.norm(u)
            if n > threshold:
                basis[:, count] = u / n
                count += 1
    return basis


def _stacked(states):
    return np.column_stack([s.amplitudes for s in states])


_fields_and_sites = st.tuples(st.sampled_from([R, C, H]), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=_fields_and_sites)
def test_completion_of_signed_canonical_vectors_matches_reference(data, shape):
    field, n_sites = shape
    dim = field.site_dim ** n_sites
    indices = data.draw(st.lists(st.integers(0, dim - 1), min_size=1,
                                 max_size=dim, unique=True))
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                               min_size=len(indices), max_size=len(indices)))
    partial = [StateVector(field, n_sites,
                           s * basis_state(field, n_sites, i).amplitudes)
               for i, s in zip(indices, signs)]
    full = complete_orthonormal(partial)
    assert len(full) == dim
    assert np.array_equal(_stacked(full), _reference_completion(partial))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=_fields_and_sites, seed=st.integers(0, 2 ** 32 - 1))
def test_completion_of_mixed_vectors_is_orthonormal(data, shape, seed):
    field, n_sites = shape
    dim = field.site_dim ** n_sites
    rng = np.random.default_rng(seed)
    block = data.draw(st.lists(st.integers(0, dim - 1), min_size=1,
                               max_size=dim, unique=True))
    n_dense = data.draw(st.integers(1, len(block)))
    outside = [i for i in range(dim) if i not in block]
    singles = data.draw(st.lists(st.sampled_from(outside), unique=True)
                        if outside else st.just([]))
    partial = []
    for _ in range(n_dense):
        amps = np.zeros(dim, dtype=field.dtype)
        amps[block] = rng.standard_normal(len(block))
        if field.is_complex:
            amps[block] += 1j * rng.standard_normal(len(block))
        partial.append(StateVector(field, n_sites, amps))
    for i in singles:
        sign = rng.choice([1.0, -1.0])
        partial.append(StateVector(field, n_sites,
                                   sign * basis_state(field, n_sites, i).amplitudes))
    order = rng.permutation(len(partial))
    partial = [partial[k] for k in order]

    mat = _stacked(complete_orthonormal(partial))
    assert mat.shape == (dim, dim)
    assert np.abs(mat.conj().T @ mat - np.eye(dim)).max() <= 1e-10
    lead = mat[:, :len(partial)]
    for v in partial:
        resid = v.amplitudes - lead @ (lead.conj().T @ v.amplitudes)
        assert np.linalg.norm(resid) <= 1e-10 * max(1.0, v.norm())
