"""Closed-form 3x3 Hermitian kernels against numpy.linalg oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsardr import distances
from polsardr import hermitian as hm
from polsardr.errors import NotPositiveDefinite, SingularMatrix

import oracle
from conftest import make_hermitian, make_hpd, packed_hpd

ID = np.eye(3, dtype=complex)
PID = oracle.pack(ID)
PAIRWISE = (lambda a, b: distances.kl_distance(a, b, 4.0),
            lambda a, b: distances.hellinger_distance(a, b, 4.0),
            lambda a, b: distances.bhattacharyya_distance(a, b, 4.0),
            distances.euclidean_distance)


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=complex))


def inverse(m):
    """The packed inverse of a complex matrix, as a complex matrix."""
    return oracle.unpack(hm._inverse(oracle.pack(m))[0])


def det(m):
    """det_packed of a complex matrix."""
    return hm.det_packed(oracle.pack(m))


def test_det_identity():
    assert det(ID) == 1.0


def test_det_diagonal():
    # product of eigenvalues of a diagonal matrix
    assert det(diag(1, 2, 3)) == pytest.approx(6.0, abs=1e-14)


def test_det_singular_equal_rows():
    assert det(np.ones((3, 3), dtype=complex)) == pytest.approx(0.0, abs=1e-14)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_det_matches_numpy(seed):
    m = make_hermitian(np.random.default_rng(seed), scale=2.0)
    assert det(m) == pytest.approx(np.linalg.det(m).real, rel=1e-10, abs=1e-12)


def test_inverse_identity():
    np.testing.assert_allclose(inverse(ID), ID, atol=1e-15)


def test_inverse_diagonal():
    np.testing.assert_allclose(inverse(diag(2, 4, 5)), diag(0.5, 0.25, 0.2), atol=1e-15)


def test_inverse_involution(rng):
    for _ in range(20):
        m = make_hpd(rng)
        np.testing.assert_allclose(inverse(inverse(m)), m, rtol=1e-11, atol=1e-13)


def test_inverse_matches_numpy_and_is_hermitian_pd(rng):
    for _ in range(20):
        m = make_hpd(rng, scale=3.0)
        inv = inverse(m)
        np.testing.assert_allclose(inv, oracle.inv(m), rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(inv, inv.conj().T)
        assert hm.is_positive_definite(oracle.pack(inv))
        assert oracle.is_positive_definite(inv)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        hm._inverse(oracle.pack(np.ones((3, 3), dtype=complex)))


def test_det_of_inverse_reciprocal(rng):
    for _ in range(50):
        m = make_hpd(rng, scale=1.7)
        inv, det = hm._inverse(oracle.pack(m))[:2]
        assert hm.det_packed(inv) == pytest.approx(1.0 / det, rel=1e-10)
        assert det == pytest.approx(np.exp(oracle.logdet(m)), rel=1e-10)


def test_trace_product_identity_case():
    # trace of product with the identity is just the trace
    assert hm.trace_product_packed(oracle.pack(ID), oracle.pack(diag(1, 2, 3))) == 6.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_trace_product_symmetric_and_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a, b = make_hermitian(rng), make_hermitian(rng)
    tp = hm.trace_product_packed(oracle.pack(a), oracle.pack(b))
    assert tp == pytest.approx(hm.trace_product_packed(oracle.pack(b), oracle.pack(a)),
                               rel=1e-12, abs=1e-12)
    assert tp == pytest.approx(oracle.trace_product(a, b), rel=1e-10, abs=1e-12)


def test_trace_product_broadcasts_over_either_argument(rng):
    a = oracle.pack(np.stack([make_hermitian(rng) for _ in range(6)]).reshape(2, 3, 3, 3))
    b = oracle.pack(make_hermitian(rng))
    for x, y in ((a, b), (b, a), (a, a[:, :1])):
        t = hm.trace_product_packed(x, y)
        assert t.shape == (2, 3)
        np.testing.assert_allclose(t, oracle.trace_product(oracle.unpack(x), oracle.unpack(y)),
                                   rtol=1e-10, atol=1e-12)


def cholesky(m):
    """cholesky3 of a complex matrix."""
    return hm.cholesky3(oracle.pack(m))


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky(ID), ID)


def test_cholesky_diagonal():
    np.testing.assert_allclose(cholesky(diag(4, 9, 16)), diag(2, 3, 4), atol=1e-15)


def test_cholesky_roundtrip(rng):
    for _ in range(50):
        m = make_hpd(rng, scale=2.5)
        a = cholesky(m)
        err = np.linalg.norm(a @ a.conj().T - m) / np.linalg.norm(m)
        assert err < 1e-12
        np.testing.assert_allclose(a, np.linalg.cholesky(m), rtol=1e-10, atol=1e-12)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(diag(1, -1, 1))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.ones((3, 3), dtype=complex))


def test_frobenius_matches_numpy(rng):
    # any Hermitian pair, definite or not: ED needs no inverse
    a, b = make_hermitian(rng), make_hermitian(rng)
    assert distances.euclidean_distance(oracle.pack(a), oracle.pack(b)) == pytest.approx(
        np.linalg.norm(a - b), rel=1e-12)


def test_is_positive_definite_against_eigvalsh():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = make_hermitian(rng, scale=1.5) + rng.uniform(-0.5, 1.5) * np.eye(3)
        assert hm.is_positive_definite(oracle.pack(m)) == oracle.is_positive_definite(m)


@given(seed=st.integers(0, 2**32 - 1), log_smallest=st.floats(-8.0, 0.0),
       negative=st.tuples(st.booleans(), st.booleans(), st.booleans()))
@settings(max_examples=200, deadline=None)
def test_packed_pd_test_matches_eigvalsh(seed, log_smallest, negative):
    # Q diag(lam) Q^H with a random unitary Q and eigenvalues of either sign,
    # the smallest in magnitude down to 1e-8: near-singular, either side of 0
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lam = rng.uniform(0.1, 10.0, 3)
    lam[0] = 10.0 ** log_smallest
    lam[np.array(negative)] *= -1.0
    m = (q * lam) @ q.conj().T
    m = 0.5 * (m + m.conj().T)
    assert bool(hm.is_positive_definite(oracle.pack(m))) == oracle.is_positive_definite(m)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(seed=st.integers(0, 2**32 - 1), entry=st.integers(0, 8),
       value=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=100, deadline=None)
def test_packed_pd_test_rejects_non_finite_entries(seed, entry, value):
    p = np.stack([packed_hpd(np.random.default_rng(seed)) for _ in range(2)])
    p[1, entry] = value
    np.testing.assert_array_equal(hm.is_positive_definite(p), [True, False])


def _matrix(rng, case):
    """A complex 3x3 Hermitian matrix of the case."""
    m = make_hpd(rng, scale=10.0 ** rng.uniform(-3, 3))
    if case == "indefinite":  # eigenvalues of either sign, none within 0.1 of 0
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        lam = rng.uniform(0.1, 10.0, 3) * rng.choice([-1.0, 1.0], 3)
        lam[0] = -abs(lam[0])
        m = oracle.hermitian_part((q * lam) @ q.conj().T)
    elif case == "zero pivot":  # indefinite: the zero diagonal entry keeps its row
        k = rng.integers(3)
        m[k, k] = 0.0
    elif case == "zero first minor or det":  # a zero first or last row and column
        k = rng.choice([0, 2])
        m[k, :] = m[:, k] = 0.0
    elif case == "zero 2x2 minor":  # a zero middle row and column
        m[1, :] = m[:, 1] = 0.0
    elif case == "1e308 I":  # det overflows to inf; positive definite all the same
        m = 1e308 * ID
    elif case == "non-finite":
        i, j = rng.integers(3, size=2)
        m[i, j] = m[j, i] = rng.choice([np.nan, np.inf, -np.inf])
    return m


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@given(seed=st.integers(0, 2**32 - 1),
       cases=st.lists(st.sampled_from(["positive definite", "indefinite", "zero pivot",
                                       "zero first minor or det", "zero 2x2 minor", "1e308 I",
                                       "non-finite"]), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_pd_kernel_verdict_matches_the_oracle(seed, cases):
    # the one kernel behind the PD test of a field, a sample, a prototype set and
    # the scores: its determinant is det_packed's, bit for bit, and its verdict
    # the oracle's, on its own and where the inverse reads the 2x2 minor
    rng = np.random.default_rng(seed)
    m = np.stack([_matrix(rng, case) for case in cases])
    p, want = oracle.pack(m), oracle.is_positive_definite(m)
    det, pd = hm._det_pd(p)
    np.testing.assert_array_equal(det.view(np.uint64), hm.det_packed(p).view(np.uint64))
    np.testing.assert_array_equal(pd, want)
    np.testing.assert_array_equal(hm.is_positive_definite(p), want)
    for k in range(len(cases)):
        if np.isfinite(p[k]).all() and abs(det[k]) >= hm.DET_TOL:
            assert hm._inverse(p[k])[2] == want[k] == hm._inverse(p[k], det[k])[2], cases[k]
        else:
            with pytest.raises(SingularMatrix):
                hm._inverse(p[k])


def test_component_major_copies_only_other_layouts(rng):
    p = np.stack([packed_hpd(rng) for _ in range(6)]).reshape(2, 3, 9)
    x = hm.component_major(p)
    assert x.shape == (6, 9) and x.strides[0] == x.itemsize
    assert not np.shares_memory(x, p)
    np.testing.assert_array_equal(x, p.reshape(6, 9))
    assert np.shares_memory(hm.component_major(x), x)  # no second copy
    band = np.moveaxis(np.ones((9, 4, 5)), 0, -1)[1:3]  # rows of (9, H, W) planes, as evolve's
    assert np.shares_memory(hm.component_major(band), band)
    np.testing.assert_array_equal(hm.is_positive_definite(p), np.ones((2, 3), dtype=bool))
    # the trailing axis is checked before any reshape, which would take both
    for bad in (np.ones((2, 3, 3)), np.ones((4, 3, 3))):
        with pytest.raises(ValueError, match="trailing axis"):
            hm.component_major(bad)
        with pytest.raises(ValueError, match="trailing axis"):
            hm.is_positive_definite(bad)


_CHUNK = hm._TRANSPOSE_PIXELS


@given(n=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK - 5])
       | st.integers(0, 3 * _CHUNK),
       layout=st.sampled_from(["rows", "image", "gathered", "strided rows", "strided entries"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_component_major_is_the_transposed_copy_bit_for_bit(n, layout, seed):
    # chunked transposes give the bits and the layout of one whole transpose,
    # for no pixel, part of a chunk, several chunks and a part, and gathered input
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((2 * n, 18))
    wide[rng.random(wide.shape) < 0.05] = -0.0
    p = {"rows": wide[:n, :9],
         "image": np.ascontiguousarray(wide[:n, :9]).reshape(1, n, 9),
         "gathered": wide[rng.permutation(2 * n)[:n], 9:],
         "strided rows": wide[::2, :9],
         "strided entries": wide[:n, ::2]}[layout]
    want = np.ascontiguousarray(p.reshape(-1, 9).T).T
    got = hm.component_major(p)
    assert got.shape == want.shape == (n, 9)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    if n > 1:  # the strides of fewer pixels say nothing
        assert got.strides == want.strides
        assert np.shares_memory(hm.component_major(got), got)  # not copied again


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_IMAG = _FINITE | st.sampled_from([-0.0, np.inf, -np.inf])


@given(p=st.tuples(_FINITE, _FINITE, _FINITE, _FINITE, _IMAG, _FINITE, _IMAG, _FINITE, _IMAG))
@settings(max_examples=200, deadline=None)
def test_oracle_unpack_round_trips_bit_for_bit(p):
    # the tests' own layout conversion: every packed value comes back with its
    # bits, -0.0 and an infinite imaginary part included, from exactly
    # Hermitian matrices
    p = np.array(p)
    batch = np.stack([p, p[[2, 1, 0, 7, 8, 5, 6, 3, 4]]]).reshape(2, 1, 9)
    for x in (p, batch):
        m = oracle.unpack(x)
        assert m.shape == x.shape[:-1] + (3, 3)
        assert oracle.pack(m).tobytes() == x.tobytes()
        assert np.array_equal(m, np.conj(np.swapaxes(m, -1, -2)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_packed_roundtrip(seed):
    m = make_hpd(np.random.default_rng(seed))
    np.testing.assert_array_equal(oracle.unpack(oracle.pack(m)), m)


def test_packed_layout():
    m = oracle.unpack([1, 2, 3, 4, 5, 6, 7, 8, 9])
    np.testing.assert_array_equal(m, [[1, 4 + 5j, 6 + 7j], [4 - 5j, 2, 8 + 9j],
                                      [6 - 7j, 8 - 9j, 3]])
    np.testing.assert_array_equal(oracle.pack(m), [1, 2, 3, 4, 5, 6, 7, 8, 9])


def test_batched_operations_match_scalar(rng):
    batch = np.stack([make_hpd(rng) for _ in range(8)]).reshape(2, 4, 3, 3)
    dets = det(batch)
    invs = oracle.unpack(hm._inverse(oracle.pack(batch))[0])
    chols = cholesky(batch)
    for i in range(2):
        for j in range(4):
            assert dets[i, j] == pytest.approx(det(batch[i, j]), rel=1e-14)
            np.testing.assert_allclose(invs[i, j], oracle.inv(batch[i, j]), rtol=1e-10,
                                       atol=1e-14)
            np.testing.assert_allclose(chols[i, j], cholesky(batch[i, j]), atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_packed_kernels_match_numpy_linalg(seed, scale):
    rng = np.random.default_rng(seed)
    batch = np.stack([make_hpd(rng, scale=scale) for _ in range(4)])
    other = make_hermitian(rng, scale=scale)
    p = oracle.pack(batch)
    inv, d = hm._inverse(p)[:2]
    np.testing.assert_allclose(d, np.exp(oracle.logdet(batch)), rtol=1e-12)
    np.testing.assert_allclose(hm.det_packed(p), d, rtol=0)
    np.testing.assert_allclose(oracle.unpack(inv), oracle.inv(batch), rtol=1e-10,
                               atol=1e-12 / scale)
    np.testing.assert_allclose(hm.trace_product_packed(p, oracle.pack(other)),
                               oracle.trace_product(batch, other), rtol=1e-10,
                               atol=1e-12 * scale**2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_inverses_reject_non_finite_entries(value):
    for k in range(9):
        p = PID.copy()
        p[k] = value
        with pytest.raises(SingularMatrix):
            hm._inverse(p)
        for distance in PAIRWISE:  # the public entry points, either argument
            with pytest.raises(SingularMatrix):
                distance(p, PID)
            with pytest.raises(SingularMatrix):
                distance(PID, p)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_inverses_reject_infinite_off_diagonal_entries(rng, value):
    # an infinite off-diagonal entry leaves the determinant finite or infinite
    # for many pixels, so the entries are tested, not the determinant
    for _ in range(50):
        m = packed_hpd(rng)
        for k in range(3, 9):
            p = m.copy()
            p[k] = value
            with pytest.raises(SingularMatrix, match="non-finite"):
                hm._inverse(p)
            for distance in PAIRWISE:
                with pytest.raises(SingularMatrix, match="non-finite"):
                    distance(p, m)


def test_packed_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        hm._inverse(oracle.pack(np.ones((3, 3), dtype=complex)))
    # |det| < DET_TOL is singular, so a tiny but regular matrix passes
    inv, det = hm._inverse(oracle.pack(1e-90 * ID))[:2]
    assert det == pytest.approx(1e-270)
    np.testing.assert_allclose(oracle.unpack(inv), 1e90 * ID)
