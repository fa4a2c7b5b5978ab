import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hqec import linalg, sampling, verify
from hqec import quaternion as quat
from hqec.codes import phase_error_pi
from hqec.linalg import (
    TOL_ISO,
    FieldMismatchError,
    LinearMap,
    RankDeficiencyError,
    ScalarField,
    SiteOperator,
    StateVector,
    _norm,
    apply_site,
    basis_state,
    complete_orthonormal,
    is_isometry,
    OrthonormalBasis,
    tensor_state,
)
from hqec.report import CheckRecord
from hqec.sampling import random_orthogonal, random_state, random_unitary, rng_for

from conftest import _dense_assembly, inner

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION_R4


def test_field_properties():
    assert R.site_dim == 2 and C.site_dim == 2 and H.site_dim == 4
    assert C.is_complex and not R.is_complex and not H.is_complex


@pytest.mark.parametrize("field", list(ScalarField))
def test_field_attributes_are_set_once_per_member(field):
    # plain member attributes, not properties: one dtype object per member
    assert field.dtype is field.dtype
    assert field.dtype == (np.dtype(complex) if field is C else np.dtype(float))
    for name in ("site_dim", "dtype", "is_complex"):
        assert name in vars(field) and name not in vars(ScalarField)
    assert ScalarField(field.value) is field
    assert [f.value for f in ScalarField] == ["real", "complex", "quaternion_r4"]


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


@pytest.mark.parametrize("field", [R, C, H])
def test_norm_of_a_finite_overflowing_state_raises(field):
    # the amplitudes are finite, but the sum of their squares overflows; this
    # used to warn and return inf
    big = StateVector(field, 1, np.full(field.site_dim, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a norm overflows"):
            big.norm()
        assert StateVector(field, 1, np.full(field.site_dim, 1e150)).norm() > 1e150


@pytest.mark.parametrize("n_sites,error", [
    (1.5, TypeError), (2.0, TypeError), (np.float64(1.0), TypeError),
    (True, TypeError), (np.True_, TypeError), ("1", TypeError), (-1, ValueError),
], ids=["half", "float", "numpy-float", "bool", "numpy-bool", "str", "negative"])
def test_state_rejects_a_site_count_that_is_not_an_index(n_sites, error):
    # a float count used to be read as a fractional number of amplitudes,
    # a bool as one site
    with pytest.raises(error, match="n_sites"):
        StateVector(R, n_sites, np.zeros(2))


def test_state_accepts_a_numpy_integer_site_count():
    assert StateVector(R, np.int64(1), np.zeros(2)).dim == 2
    assert StateVector(R, 0, np.ones(1)).dim == 1


@pytest.mark.parametrize("site,error", [
    (1.0, TypeError), (np.float64(0.0), TypeError), (True, TypeError),
    (np.True_, TypeError), (None, TypeError), (-1, ValueError),
], ids=["float", "numpy-float", "bool", "numpy-bool", "none", "negative"])
def test_site_operator_rejects_a_site_that_is_not_an_index(site, error):
    # a float site used to fail only in apply_site, and True acted on site 1
    with pytest.raises(error, match="site index"):
        SiteOperator(R, site, np.eye(2))


def test_site_operator_accepts_a_numpy_integer_site():
    state = tensor_state([basis_state(R, 1, 0)] * 2)
    op = SiteOperator(R, np.int64(1), [[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(apply_site(op, state).amplitudes, [0.0, 1.0, 0.0, 0.0])


def _same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# zeros, subnormals and values near 1e300, whose squares overflow to inf
_NORM_ELEMENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-310, 1e300, -3e300, 1.7e308]))


@st.composite
def _norm_inputs(draw):
    """A real or complex array, 1-D or 2-D, and a view of it as roundtrip
    may pass one: the whole array, a strided or reversed slice, or a
    transpose; or every other entry of 1,000 normals scaled by 10^U(-3, 3),
    long enough that a dot product of the strided view itself rounds
    differently from numpy's norm, which copies it first."""
    view = draw(st.sampled_from(["whole", "strided", "reversed", "transposed",
                                 "long strided"]))
    if view == "long strided":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.standard_normal(1000)
        if draw(st.booleans()):
            x = x + 1j * rng.standard_normal(1000)
        return (x * 10.0 ** rng.uniform(-3.0, 3.0))[::2]
    shape = draw(array_shapes(min_dims=1, max_dims=2, max_side=6))
    x = draw(arrays(np.float64, shape, elements=_NORM_ELEMENTS))
    if draw(st.booleans()):
        x = x + 1j * draw(arrays(np.float64, shape, elements=_NORM_ELEMENTS))
    return {"whole": x, "strided": x[::2], "reversed": x[::-1], "transposed": x.T}[view]


@settings(max_examples=300, deadline=None)
@given(x=_norm_inputs())
def test_norm_is_numpys_norm_bit_for_bit(x):
    with np.errstate(over="ignore"):
        expected = np.linalg.norm(x)
        got = _norm(x)
    assert type(got) is float
    assert _same_float(got, expected)


@settings(max_examples=100, deadline=None)
@given(block=arrays(np.complex128, (8, 32),
                    elements=st.complex_numbers(max_magnitude=1e3)),
       ref=arrays(np.complex128, 8, elements=st.complex_numbers(max_magnitude=1.0)))
def test_norm_of_a_residual_written_in_place_is_numpys_norm(block, ref):
    # roundtrip takes the residual norm of np.subtract(block, diff, out=diff)
    anc = ref.conj() @ block
    diff = ref[:, None] * anc
    residual = np.subtract(block, diff, out=diff)
    assert _same_float(_norm(residual), np.linalg.norm(residual))
    for view in (block, block[:, ::4], block.real, block.imag):
        assert _same_float(_norm(view), np.linalg.norm(view))


def test_norm_of_a_completed_map_block_is_numpys_norm(r3_correction, h3_correction):
    rng = np.random.default_rng(3)
    for cmap in (r3_correction, h3_correction):
        corrupted = rng.standard_normal(cmap.code.dim)
        rows, block = cmap._correct(corrupted)
        assert rows == slice(None)
        for x in (block, block.T, block[::3, 1:], corrupted[::2]):
            assert _same_float(_norm(x), np.linalg.norm(x))


def test_tensor_basis_states():
    zero3 = tensor_state([basis_state(R, 1, 0)] * 3)
    assert zero3.dim == 8 and zero3.amplitudes[0] == 1.0
    assert np.count_nonzero(zero3.amplitudes) == 1
    ones3 = tensor_state([basis_state(H, 1, 0)] * 3)
    assert ones3.dim == 64 and ones3.amplitudes[0] == 1.0


def test_basis_state_rejects_out_of_range_index():
    for index in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(R, 1, index)
    assert basis_state(H, 1, 3).amplitudes[3] == 1.0


def test_basis_state_rejects_non_integer_index():
    # numpy reads a boolean scalar index as a mask: True set every amplitude
    for index in (True, False, np.True_, 1.5, 1.0):
        with pytest.raises(TypeError, match="integer"):
            basis_state(R, 2, index)
    assert basis_state(R, 2, np.int64(3)).amplitudes[3] == 1.0


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
    # the row-wise product of the isometry check, and the scalar reference
    u = StateVector(C, 1, [1j, 0])
    v = StateVector(C, 1, [1.0, 0])
    assert inner(u, v) == -1j
    rows = verify._inner(np.array([u.amplitudes, v.amplitudes]),
                         np.array([v.amplitudes, u.amplitudes]))
    assert rows.tolist() == [-1j, 1j]


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


@pytest.mark.parametrize("matrix", [[[math.inf, 0.0], [0.0, 1.0]],
                                    [[1e308, 0.0], [0.0, 1e308]]], ids=["inf", "huge"])
def test_apply_site_reports_a_non_finite_product_without_a_warning(matrix):
    # inf x 0 and an overflow are the state check's to report: apply_site
    # holds the errstate that _site_amplitudes leaves to its caller
    state = StateVector(R, 1, [0.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            apply_site(SiteOperator(R, 0, matrix), state)


def _site_operator_matrix(op: SiteOperator, n_sites: int) -> np.ndarray:
    """The full-space matrix identity x ... x op x ... x identity."""
    d = op.field.site_dim
    eye = np.eye(d, dtype=op.field.dtype)
    mat = np.ones((1, 1), dtype=op.field.dtype)
    for k in range(n_sites):
        mat = np.kron(mat, op.matrix if k == op.site else eye)
    return mat


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
        full = _site_operator_matrix(op, n_sites) @ amps
        assert np.abs(fast - full).max() <= 1e-12


def test_complete_orthonormal_examples():
    e0 = basis_state(R, 1, 0)
    full = _dense_assembly(complete_orthonormal([e0]))
    assert full.shape == (2, 2) and full.flags.c_contiguous
    assert abs(abs(full[1, 1]) - 1.0) <= 1e-12

    diag = StateVector(R, 1, np.array([1.0, 1.0]) / np.sqrt(2))
    full = _dense_assembly(complete_orthonormal([diag]))
    second = full[:, 1]
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
        mat = _dense_assembly(complete_orthonormal(vecs))
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
    empty = is_isometry(np.zeros((0, 0)))
    assert empty.passed and empty.max_deviation == 0.0


@pytest.mark.parametrize("mat, message", [
    (np.ones(2), "square matrix"),
    (np.ones((2, 2, 2)), "square matrix"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "finite entries"),
    (np.array([[1.0, 0.0], [0.0, -np.inf]]), "finite entries"),
    (np.array([[1.0, 0.0], [0.0, complex(0.0, np.inf)]]), "finite entries"),
], ids=["1-d", "stack", "nan", "inf", "complex-inf"])
def test_is_isometry_checks_its_input(mat, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            is_isometry(mat)


def test_is_isometry_works_in_the_gram_matrix():
    # the 1024 x 1024 Gram matrix is 8 MiB; subtracting the identity and
    # taking the modulus out of place used two more
    rng = np.random.default_rng(12)
    n = 1024
    mat = np.zeros((n, n))
    mat[rng.permutation(n), np.arange(n)] = rng.choice([-1.0, 1.0], n)
    tracemalloc.start()
    try:
        result = is_isometry(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.max_deviation == 0.0
    assert peak <= 9 * 2 ** 20


@pytest.mark.parametrize("field", [R, C], ids=["real", "complex"])
def test_is_isometry_deviation_is_that_of_the_gram_matrix(field):
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((7, 7))
    if field is C:
        mat = mat + 1j * rng.standard_normal((7, 7))
    expected = float(np.abs(mat.conj().T @ mat - np.eye(7)).max())
    assert is_isometry(mat).max_deviation == expected


def test_is_isometry_promotes_an_integer_matrix():
    assert is_isometry(np.eye(3, dtype=int)).passed
    assert is_isometry(np.array([[0, 2], [1, 0]])).max_deviation == 3.0


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
    basis = complete_orthonormal(partial)
    full = _dense_assembly(basis)
    assert len(basis) == dim and full.shape == (dim, dim)
    assert np.array_equal(full, _reference_completion(partial))


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

    basis = complete_orthonormal(partial)
    mat = _dense_assembly(basis)
    assert len(basis) == dim and mat.shape == (dim, dim)
    assert np.abs(mat.conj().T @ mat - np.eye(dim)).max() <= 1e-10
    lead = mat[:, :len(partial)]
    for v in partial:
        resid = v.amplitudes - lead @ (lead.conj().T @ v.amplitudes)
        assert np.linalg.norm(resid) <= 1e-10 * max(1.0, v.norm())


# --- the held basis -----------------------------------------------------------

def _completion_input(kind, field, rng):
    """Three-site input vectors, with the sizes (outside, fill) of their
    completion: signed canonical vectors on half the coordinates; two dense
    vectors on three coordinates beside two signed canonical ones; or three
    vectors dense on every coordinate."""
    dim = field.site_dim ** 3
    coords = rng.permutation(dim)

    def dense(on):
        amps = np.zeros(dim, dtype=field.dtype)
        amps[on] = rng.standard_normal(len(on))
        if field.is_complex:
            amps[on] += 1j * rng.standard_normal(len(on))
        return StateVector(field, 3, amps)

    def signed(i):
        return StateVector(field, 3, rng.choice([1.0, -1.0])
                           * basis_state(field, 3, i).amplitudes)

    if kind == "signed":
        return [signed(i) for i in coords[:dim // 2]], (dim - dim // 2, 0)
    if kind == "mixed":
        return [dense(coords[:3]), signed(coords[3]), dense(coords[:3]),
                signed(coords[4])], (dim - 5, 1)
    return [dense(coords) for _ in range(3)], (0, dim - 3)


@pytest.mark.parametrize("kind", ["signed", "mixed", "dense"])
@pytest.mark.parametrize("field", [R, C, H])
def test_held_basis_matrix_is_the_dense_assembly(field, kind):
    # the basis is held as computed, and the dense assembly of its parts is
    # an orthonormal matrix of the field's dtype
    partial, (n_outside, n_fill) = _completion_input(
        kind, field, np.random.default_rng(21))
    dim = partial[0].dim
    basis = complete_orthonormal(partial)
    assert len(basis) == dim
    assert basis.lead.shape == (dim, len(partial))
    assert basis.outside.shape == (n_outside,) and basis.fill.shape == (dim, n_fill)
    for held in (basis.lead, basis.outside, basis.fill):
        assert not held.flags.writeable
    matrix = _dense_assembly(basis)
    assert matrix.dtype == field.dtype and matrix.flags.c_contiguous
    assert is_isometry(matrix).max_deviation <= 1e-10
    with pytest.raises(RankDeficiencyError) as err:
        complete_orthonormal([*partial, partial[1]])
    assert err.value.index == len(partial)


# --- the suite against its loop form ----------------------------------------

def _unnormalized_state(field: ScalarField, n_sites: int, rng) -> StateVector:
    """A state of standard-normal amplitudes, drawn as random_state draws
    them before it normalizes: over C the real parts, then the imaginary."""
    dim = field.site_dim ** n_sites
    if not field.is_complex:
        return StateVector(field, n_sites, rng.standard_normal(dim))
    normals = rng.standard_normal(2 * dim)
    return StateVector(field, n_sites, normals[:dim] + 1j * normals[dim:])


def _reference_linalg_suite(seed: int, trials: int) -> list[CheckRecord]:
    """The scalar loop form of verify.linalg_suite: one trial at a time
    through the public functions, draws in the same order; the sites come
    from a sub-stream of their own."""
    records = []
    pair_count = min(trials, 200)

    rng = rng_for(seed, 201)
    dev = 0.0
    negative_ok = True
    for field in ScalarField:
        n_sites = 2
        dim = field.site_dim ** n_sites
        mat = (random_unitary(dim, rng) if field.is_complex
               else random_orthogonal(dim, rng))
        lm = LinearMap(field, mat)
        check = is_isometry(lm)
        dev = max(dev, check.max_deviation)
        negative_ok = negative_ok and check.passed
        for _ in range(pair_count):
            u = _unnormalized_state(field, n_sites, rng)
            v = _unnormalized_state(field, n_sites, rng)
            dev = max(dev, abs(inner(lm.apply(u), lm.apply(v)) - inner(u, v)))
    stretched = is_isometry(LinearMap(ScalarField.REAL, np.diag([1.0, 2.0])))
    records.append(CheckRecord(
        "isometry_preserves_inner",
        "maps passing the isometry check preserve inner products",
        negative_ok and not stretched.passed and dev <= TOL_ISO, dev,
        "diag(1, 2) correctly rejected" if not stretched.passed else
        "diag(1, 2) wrongly accepted"))

    rng, sites = rng_for(seed, 202), rng_for(seed, 202, 1)
    dev = 0.0
    for field in ScalarField:
        n_sites = 3
        for _ in range(min(trials, 60)):
            site = int(sites.integers(n_sites))
            d = field.site_dim
            block = rng.standard_normal((d, d))
            if field.is_complex:
                block = block + 1j * rng.standard_normal((d, d))
            op = SiteOperator(field, site, block)
            state = _unnormalized_state(field, n_sites, rng)
            fast = apply_site(op, state).amplitudes
            full = _site_operator_matrix(op, n_sites) @ state.amplitudes
            dev = max(dev, float(np.abs(fast - full).max()))
    records.append(CheckRecord(
        "site_application_matches_kron",
        "site-local application equals the full Kronecker operator",
        dev <= verify.TOL_KERNEL, dev))

    rng = rng_for(seed, 203)
    dev = 0.0
    for field in ScalarField:
        for _ in range(min(trials, 60)):
            u = _unnormalized_state(field, 1, rng)
            u2 = _unnormalized_state(field, 1, rng)
            v = _unnormalized_state(field, 1, rng)
            alpha, beta = rng.standard_normal(2)
            a, a2, b = u.amplitudes, u2.amplitudes, v.amplitudes
            mixed = alpha * a + beta * a2
            right = alpha * np.kron(a, b) + beta * np.kron(a2, b)
            dev = max(dev, float(np.abs(np.kron(mixed, b) - right).max()))
            right = alpha * np.kron(b, a) + beta * np.kron(b, a2)
            dev = max(dev, float(np.abs(np.kron(b, mixed) - right).max()))
    records.append(CheckRecord(
        "tensor_bilinearity", "the tensor product is linear in each factor",
        dev <= verify.TOL_KERNEL, dev))

    rng = rng_for(seed, 204)
    dev = 0.0
    negative_ok = False
    for field in ScalarField:
        n_sites = 2
        dim = field.site_dim ** n_sites
        partial = [random_state(field, n_sites, rng) for _ in range(3)]
        mat = _dense_assembly(complete_orthonormal(partial))
        gram = mat.conj().T @ mat
        dev = max(dev, float(np.abs(gram - np.eye(dim)).max()))
        lead = mat[:, :len(partial)]
        for v in partial:
            resid = v.amplitudes - lead @ (lead.conj().T @ v.amplitudes)
            dev = max(dev, float(np.linalg.norm(resid)))
    try:
        e0 = basis_state(ScalarField.REAL, 1, 0)
        e1 = basis_state(ScalarField.REAL, 1, 1)
        nearly = e0.with_amplitudes(e0.amplitudes + 1e-15 * e1.amplitudes)
        complete_orthonormal([e0, nearly])
        witness = "dependent input was not rejected"
    except RankDeficiencyError as exc:
        negative_ok = exc.index == 1
        witness = f"dependent input rejected at index {exc.index}"
    records.append(CheckRecord(
        "orthonormal_completion",
        "completion returns an orthonormal basis extending the input span",
        negative_ok and dev <= TOL_ISO, dev, witness))
    return records


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [0, 1, 5, 60, 200, 1000])
def test_linalg_suite_matches_the_loop_reference(seed, trials):
    # every verdict, witness and deviation is exactly that of the loop; the
    # trial caps of 60 and 200 fall inside the list
    if trials == 0:     # rejected before any draw; the loop has no such run
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify.linalg_suite(seed, trials)
        return
    assert verify.linalg_suite(seed, trials) == _reference_linalg_suite(seed, trials)



def test_linalg_suite_fails_a_completion_that_accepts_dependent_input(monkeypatch):
    def accepting(vectors):
        try:
            return complete_orthonormal(vectors)
        except RankDeficiencyError:
            return None
    monkeypatch.setattr(verify, "complete_orthonormal", accepting)
    record = next(r for r in verify.linalg_suite(0, 5)
                  if r.check_id == "orthonormal_completion")
    assert not record.passed
    assert record.witness == "dependent input was not rejected"


def test_blocked_linalg_suite_matches_the_loop_reference(monkeypatch):
    # many blocks per field: each draws its trials in order, and the records
    # are those of the default block at every block size
    default = verify.linalg_suite(7, 100)
    assert default == _reference_linalg_suite(7, 100)
    for size in (3, 7):
        monkeypatch.setattr(verify, "_BLOCK", size)
        assert verify.linalg_suite(7, 100) == default


# --- the suite checks the library's own kernel and held completion -----------

def _completion_record(seed=0):
    return next(r for r in verify.linalg_suite(seed, 5)
                if r.check_id == "orthonormal_completion")


def test_linalg_suite_fails_a_planted_site_kernel(monkeypatch):
    # the record reads the library's site kernel, not a copy: one output
    # entry off by 1e-6 fails it
    kernel = linalg._site_rows

    def planted(mats, site, amps):
        out = kernel(mats, site, amps)
        out.reshape(-1)[:1] += 1e-6
        return out

    monkeypatch.setattr(linalg, "_site_rows", planted)
    record = next(r for r in verify.linalg_suite(0, 5)
                  if r.check_id == "site_application_matches_kron")
    assert not record.passed
    assert abs(record.max_deviation - 1e-6) <= 1e-12


def _canonical_states(monkeypatch):
    """Make the suite's completion input e0, e1, e2 in every field, whose
    completion holds the rest as canonical vectors: 1 outside over R and C,
    13 over H."""
    count = itertools.count()
    monkeypatch.setattr(verify, "random_state", lambda field, n_sites, rng: basis_state(
        field, n_sites, next(count) % 3))


def _repeat_outside(basis):
    # two canonical vectors on one row, none on another: counts still sum to dim
    outside = basis.outside.copy()
    if len(outside) > 1:
        outside[1] = outside[0]
    return OrthonormalBasis(basis.lead, outside, basis.fill)


def _outside_row_taken(basis):
    # a fill column on a row the outside vectors also claim
    outside, fill = basis.outside, basis.fill
    if len(outside) > 1:
        column = np.zeros((len(basis), 1))
        column[outside[1]] = 1.0
        outside, fill = outside[1:], np.hstack((fill, column))
    return OrthonormalBasis(basis.lead, outside, fill)


def _tilt_fill(basis):
    fill = basis.fill.copy()
    fill[0, 0] += 1e-6
    return OrthonormalBasis(basis.lead, basis.outside, fill)


def _drop_fill(basis):
    return OrthonormalBasis(basis.lead, basis.outside, basis.fill[:, 1:])


@pytest.mark.parametrize("plant,canonical,deviation", [
    (_repeat_outside, True, (0.0, 1e-15)), (_outside_row_taken, True, (1.0, 1.0)),
    (_tilt_fill, False, (1e-7, 1e-5)), (_drop_fill, False, (0.0, 1e-15))],
    ids=["repeated-outside", "outside-row-taken", "tilted-fill", "dropped-fill"])
def test_linalg_suite_fails_a_planted_completion(plant, canonical, deviation, monkeypatch):
    # each planted fault passes the record's other tests (the repeat and the
    # dropped column the Gram, the taken row the count), and the unplanted
    # completion of the same input passes
    if canonical:
        _canonical_states(monkeypatch)
    clean = _completion_record()
    assert clean.passed and clean.max_deviation <= 1e-15
    monkeypatch.setattr(verify, "complete_orthonormal",
                        lambda partial: plant(complete_orthonormal(partial)))
    record = _completion_record()
    low, high = deviation
    assert not record.passed and low <= record.max_deviation <= high


# --- one-row cases of the row kernels -----------------------------------------

def _site_formula(matrix, site, amps):
    """The site kernel as one matrix and one state computed it before the
    kernel took stacks."""
    d = matrix.shape[-1]
    return (matrix @ amps.reshape(d ** site, d, -1)).reshape(-1)


@pytest.mark.parametrize("field", [R, C, H])
def test_site_kernel_on_one_row_is_the_single_formula(field):
    rng = np.random.default_rng(17)
    d = field.site_dim
    for n_sites in (1, 2, 3):
        for site in range(n_sites):
            block = rng.standard_normal((d, d))
            if field.is_complex:
                block = block + 1j * rng.standard_normal((d, d))
            op = SiteOperator(field, site, block)
            state = _unnormalized_state(field, n_sites, rng)
            got = linalg._site_rows(op.matrix, site, state.amplitudes)
            assert got.shape == state.amplitudes.shape and got.dtype == field.dtype
            assert got.tobytes() == _site_formula(op.matrix, site, state.amplitudes).tobytes()
            assert apply_site(op, state).amplitudes.tobytes() == got.tobytes()
            # and a stack of one row is that row
            row = linalg._site_rows(op.matrix[None], site, state.amplitudes[None])
            assert row.shape == (1, d ** n_sites) and row[0].tobytes() == got.tobytes()


@pytest.mark.parametrize("field", [R, C, H])
def test_site_kernel_on_an_empty_stack_is_empty(field):
    # a site that drew no trials of a block: a -1 reshape cannot size it
    d = field.site_dim
    for site in range(3):
        out = linalg._site_rows(np.zeros((0, d, d), field.dtype), site,
                                np.zeros((0, d ** 3), field.dtype))
        assert out.shape == (0, d ** 3) and out.dtype == field.dtype


@pytest.mark.parametrize("field", [R, C, H])
@pytest.mark.parametrize("count", [1, 2, 16])
def test_random_coefficients_is_the_one_row_case(field, count):
    ref_rng, rng = rng_for(3, count), rng_for(3, count)
    normals = ref_rng.standard_normal(2 * count if field.is_complex else count)
    expected = (normals[:count] + 1j * normals[count:]) if field.is_complex else normals
    expected = expected / _norm(expected)
    got = sampling.random_coefficients(field, count, rng)
    assert got.shape == (count,) and got.dtype == field.dtype
    assert got.tobytes() == expected.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()    # the same stream


@pytest.mark.parametrize("dim", [1, 2, 4, 16])
def test_random_unitary_is_the_one_row_case(dim):
    ref_rng, rng = rng_for(5, dim), rng_for(5, dim)
    m = ref_rng.standard_normal((dim, dim)) + 1j * ref_rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    expected = q * (d / np.abs(d))
    got = random_unitary(dim, rng)
    assert got.shape == (dim, dim) and got.tobytes() == expected.tobytes()
    assert rng.standard_normal() == ref_rng.standard_normal()    # the same stream
