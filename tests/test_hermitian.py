"""Closed-form 3x3 Hermitian kernels against numpy.linalg oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsardr import hermitian as hm
from polsardr.errors import NotPositiveDefinite, SingularMatrix

from conftest import make_hermitian, make_hpd

ID = np.eye(3, dtype=complex)


def diag(*vals):
    return np.diag(np.asarray(vals, dtype=complex))


def test_det_identity():
    assert hm.det3(ID) == 1.0


def test_det_diagonal():
    # product of eigenvalues of a diagonal matrix
    assert hm.det3(diag(1, 2, 3)) == pytest.approx(6.0, abs=1e-14)


def test_det_singular_equal_rows():
    assert hm.det3(np.ones((3, 3), dtype=complex)) == pytest.approx(0.0, abs=1e-14)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_det_matches_numpy(seed):
    m = make_hermitian(np.random.default_rng(seed), scale=2.0)
    assert hm.det3(m) == pytest.approx(np.linalg.det(m).real, rel=1e-10, abs=1e-12)


def test_inverse_identity():
    np.testing.assert_allclose(hm.inv3(ID), ID, atol=1e-15)


def test_inverse_diagonal():
    np.testing.assert_allclose(hm.inv3(diag(2, 4, 5)), diag(0.5, 0.25, 0.2), atol=1e-15)


def test_inverse_involution(rng):
    for _ in range(20):
        m = make_hpd(rng)
        np.testing.assert_allclose(hm.inv3(hm.inv3(m)), m, rtol=1e-11, atol=1e-13)


def test_inverse_matches_numpy_and_is_hermitian_pd(rng):
    for _ in range(20):
        m = make_hpd(rng, scale=3.0)
        inv = hm.inv3(m)
        np.testing.assert_allclose(inv, np.linalg.inv(m), rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(inv, inv.conj().T)
        assert hm.is_positive_definite(hm.to_packed(inv))


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        hm.inv3(np.ones((3, 3), dtype=complex))


def test_det_of_inverse_reciprocal(rng):
    for _ in range(50):
        m = make_hpd(rng, scale=1.7)
        assert hm.det3(hm.inv3(m)) == pytest.approx(1.0 / hm.det3(m), rel=1e-10)


def test_trace_product_identity_case():
    # trace of product with the identity is just the trace
    assert hm.trace_product(ID, diag(1, 2, 3)) == pytest.approx(6.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_trace_product_symmetric_and_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a, b = make_hermitian(rng), make_hermitian(rng)
    tp = hm.trace_product(a, b)
    assert tp == pytest.approx(hm.trace_product(b, a), rel=1e-12, abs=1e-12)
    assert tp == pytest.approx(np.trace(a @ b).real, rel=1e-10, abs=1e-12)


def test_cholesky_identity():
    np.testing.assert_array_equal(hm.cholesky3(ID), ID)


def test_cholesky_diagonal():
    np.testing.assert_allclose(hm.cholesky3(diag(4, 9, 16)), diag(2, 3, 4), atol=1e-15)


def test_cholesky_roundtrip(rng):
    for _ in range(50):
        m = make_hpd(rng, scale=2.5)
        a = hm.cholesky3(m)
        err = np.linalg.norm(a @ a.conj().T - m) / np.linalg.norm(m)
        assert err < 1e-12
        np.testing.assert_allclose(a, np.linalg.cholesky(m), rtol=1e-10, atol=1e-12)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        hm.cholesky3(diag(1, -1, 1))
    with pytest.raises(NotPositiveDefinite):
        hm.cholesky3(np.ones((3, 3), dtype=complex))


def test_frobenius_distance():
    assert hm.frobenius_distance(ID, ID) == 0.0
    assert hm.frobenius_distance(ID, 2 * ID) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_frobenius_matches_numpy(rng):
    a, b = make_hermitian(rng), make_hermitian(rng)
    assert hm.frobenius_distance(a, b) == pytest.approx(np.linalg.norm(a - b), rel=1e-12)


def test_is_positive_definite_against_eigvalsh():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = make_hermitian(rng, scale=1.5) + rng.uniform(-0.5, 1.5) * np.eye(3)
        expected = bool(np.all(np.linalg.eigvalsh(m) > 0))
        assert hm.is_positive_definite(hm.to_packed(m)) == expected


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
    expected = bool(np.all(np.linalg.eigvalsh(m) > 0))
    assert bool(hm.is_positive_definite(hm.to_packed(m))) == expected


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(seed=st.integers(0, 2**32 - 1), entry=st.integers(0, 8),
       value=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=100, deadline=None)
def test_packed_pd_test_rejects_non_finite_entries(seed, entry, value):
    p = np.stack([hm.to_packed(make_hpd(np.random.default_rng(seed))) for _ in range(2)])
    p[1, entry] = value
    np.testing.assert_array_equal(hm.is_positive_definite(p), [True, False])


def test_assemble_is_hermitian_by_construction(rng):
    m = hm.assemble(1.0, 2.0, 3.0, 0.1 + 0.2j, -0.3j, 0.4 - 0.1j)
    np.testing.assert_array_equal(m, m.conj().T)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_packed_roundtrip(seed):
    m = make_hpd(np.random.default_rng(seed))
    np.testing.assert_array_equal(hm.from_packed(hm.to_packed(m)), m)


def test_packed_layout():
    m = hm.assemble(1.0, 2.0, 3.0, 4 + 5j, 6 + 7j, 8 + 9j)
    np.testing.assert_array_equal(hm.to_packed(m), [1, 2, 3, 4, 5, 6, 7, 8, 9])


def test_batched_operations_match_scalar(rng):
    batch = np.stack([make_hpd(rng) for _ in range(8)]).reshape(2, 4, 3, 3)
    dets = hm.det3(batch)
    invs = hm.inv3(batch)
    chols = hm.cholesky3(batch)
    for i in range(2):
        for j in range(4):
            assert dets[i, j] == pytest.approx(hm.det3(batch[i, j]), rel=1e-14)
            np.testing.assert_allclose(invs[i, j], hm.inv3(batch[i, j]), atol=1e-14)
            np.testing.assert_allclose(chols[i, j], hm.cholesky3(batch[i, j]), atol=1e-14)


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_packed_kernels_match_complex_kernels(seed, scale):
    rng = np.random.default_rng(seed)
    batch = np.stack([make_hpd(rng, scale=scale) for _ in range(4)])
    other = make_hermitian(rng, scale=scale)
    p = hm.to_packed(batch)
    inv, det = hm.inv_packed(p)
    np.testing.assert_allclose(det, hm.det3(batch), rtol=1e-12)
    np.testing.assert_allclose(hm.det_packed(p), det, rtol=0)
    np.testing.assert_allclose(hm.from_packed(inv), hm.inv3(batch), rtol=1e-10,
                               atol=1e-12 / scale)
    np.testing.assert_allclose(hm.trace_product_packed(p, hm.to_packed(other)),
                               hm.trace_product(batch, other), rtol=1e-10,
                               atol=1e-12 * scale**2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_inverses_reject_non_finite_entries(value):
    for k in range(9):
        p = hm.to_packed(ID)
        p[k] = value
        with pytest.raises(SingularMatrix):
            hm.inv_packed(p)
        with pytest.raises(SingularMatrix):
            hm.inv3(hm.from_packed(p))


def test_packed_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        hm.inv_packed(hm.to_packed(np.ones((3, 3), dtype=complex)))
    # the same |det| < DET_TOL test as inv3: a tiny but regular matrix passes
    inv, det = hm.inv_packed(hm.to_packed(1e-90 * ID))
    assert det == pytest.approx(1e-270)
    np.testing.assert_allclose(hm.from_packed(inv), 1e90 * ID)
