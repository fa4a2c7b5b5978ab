import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hqec import quaternion as quat
from hqec import verify
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
    inner,
    is_isometry,
    tensor_state,
)
from hqec.report import CheckRecord
from hqec.sampling import random_orthogonal, random_state, random_unitary, rng_for

from conftest import one_ulp_up

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
    transpose."""
    shape = draw(array_shapes(min_dims=1, max_dims=2, max_side=6))
    x = draw(arrays(np.float64, shape, elements=_NORM_ELEMENTS))
    if draw(st.booleans()):
        x = x + 1j * draw(arrays(np.float64, shape, elements=_NORM_ELEMENTS))
    view = draw(st.sampled_from(["whole", "strided", "reversed", "transposed"]))
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
    full = complete_orthonormal([e0])
    assert full.shape == (2, 2) and full.flags.c_contiguous
    assert abs(abs(full[1, 1]) - 1.0) <= 1e-12

    diag = StateVector(R, 1, np.array([1.0, 1.0]) / np.sqrt(2))
    full = complete_orthonormal([diag])
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
        mat = complete_orthonormal(vecs)
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
    full = complete_orthonormal(partial)
    assert full.shape == (dim, dim)
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

    mat = complete_orthonormal(partial)
    assert mat.shape == (dim, dim)
    assert np.abs(mat.conj().T @ mat - np.eye(dim)).max() <= 1e-10
    lead = mat[:, :len(partial)]
    for v in partial:
        resid = v.amplitudes - lead @ (lead.conj().T @ v.amplitudes)
        assert np.linalg.norm(resid) <= 1e-10 * max(1.0, v.norm())


# --- the suite against its loop form ----------------------------------------

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
            u = random_state(field, n_sites, rng, normalize=False)
            v = random_state(field, n_sites, rng, normalize=False)
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
            state = random_state(field, n_sites, rng, normalize=False)
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
            u = random_state(field, 1, rng, normalize=False)
            u2 = random_state(field, 1, rng, normalize=False)
            v = random_state(field, 1, rng, normalize=False)
            alpha, beta = rng.standard_normal(2)
            left = tensor_state([u.with_amplitudes(alpha * u.amplitudes
                                                   + beta * u2.amplitudes), v])
            right = (alpha * tensor_state([u, v]).amplitudes
                     + beta * tensor_state([u2, v]).amplitudes)
            dev = max(dev, float(np.abs(left.amplitudes - right).max()))
            left = tensor_state([v, u.with_amplitudes(alpha * u.amplitudes
                                                      + beta * u2.amplitudes)])
            right = (alpha * tensor_state([v, u]).amplitudes
                     + beta * tensor_state([v, u2]).amplitudes)
            dev = max(dev, float(np.abs(left.amplitudes - right).max()))
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
        mat = complete_orthonormal(partial)
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
    assert verify.linalg_suite(seed, trials) == _reference_linalg_suite(seed, trials)


def test_blocked_linalg_suite_matches_the_loop_reference(monkeypatch):
    # many blocks per field: each draws its trials in order, the spot rows
    # follow the trial index across block boundaries, and the records are
    # those of the default block at every block size
    default = verify.linalg_suite(7, 100)
    assert default == _reference_linalg_suite(7, 100)
    for size in (3, 7):
        monkeypatch.setattr(verify, "_BLOCK", size)
        assert verify.linalg_suite(7, 100) == default


LINALG_DRIFT = [
    ("isometry_preserves_inner", "inner"),
    ("isometry_preserves_inner", "LinearMap.apply"),
    ("site_application_matches_kron", "apply_site"),
    ("tensor_bilinearity", "tensor_state"),
]


@pytest.mark.parametrize(("check_id", "name"), LINALG_DRIFT)
def test_a_public_function_one_ulp_off_fails_its_check(check_id, name, monkeypatch):
    # the spot rows run through the public function, bit for bit, so one ulp
    # of drift fails the check although it is far inside the tolerance
    owner, attr = ((LinearMap, "apply") if name == "LinearMap.apply"
                   else (verify, name))
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args: one_ulp_up(original(*args)))
    records = {r.check_id: r for r in verify.linalg_suite(0, 20)}
    assert [k for k, r in records.items() if not r.passed] == [check_id]
    assert records[check_id].max_deviation < 1e-13
