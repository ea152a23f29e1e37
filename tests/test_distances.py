"""Stochastic distances between Wishart laws.

Note on the Hellinger spot value: the hand derivation for (identity,
2*identity, 1 look) is 1 - (64/27)/sqrt(8) = 0.16194752; the test freezes
that self-computed value (see DECISIONS.md for the tolerance note).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsardr.distances import (bhattacharyya_distance, euclidean_distance,
                                hellinger_distance, kl_distance)
from polsardr.errors import InvalidLooks, InvalidObservation, SingularMatrix
from polsardr.estimation import SampleStats
from polsardr.wishart import WishartModel, sample
from polsardr import hermitian as hm

import oracle
from conftest import make_hpd

ID = np.eye(3, dtype=complex)
ALL = (kl_distance, hellinger_distance, bhattacharyya_distance)
ORACLE = {kl_distance: oracle.kl, hellinger_distance: oracle.hd, bhattacharyya_distance: oracle.bd}


def test_kl_simple_cases(rng):
    m = make_hpd(rng)
    assert kl_distance(m, m, 4.0) == pytest.approx(0.0, abs=1e-12)
    # diagonal hand evaluation: 4 * [(6 + 1.5)/2 - 3]
    assert kl_distance(ID, 2 * ID, 4.0) == 3.0


def test_kl_scale_invariance(rng):
    a, b = make_hpd(rng), make_hpd(rng)
    for c in (0.2, 3.7):
        assert kl_distance(c * a, c * b, 4.0) == pytest.approx(
            kl_distance(a, b, 4.0), rel=1e-12)


def test_hellinger_simple_cases(rng):
    m = make_hpd(rng)
    assert hellinger_distance(m, m, 4.0) <= 1e-12
    expected = 1.0 - (64.0 / 27.0) / np.sqrt(8.0)  # |(0.75 I)^-1| = (4/3)^3
    assert hellinger_distance(ID, 2 * ID, 1.0) == pytest.approx(expected, abs=1e-12)


def test_hellinger_monotone_in_looks():
    vals = [hellinger_distance(ID, 2 * ID, looks) for looks in (1, 2, 4, 8, 16, 64)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0 <= v < 1 for v in vals)


def test_bhattacharyya_cases(rng):
    m = make_hpd(rng)
    assert bhattacharyya_distance(m, m, 4.0) <= 1e-12
    expected = -np.log((64.0 / 27.0) / np.sqrt(8.0))
    assert bhattacharyya_distance(ID, 2 * ID, 1.0) == pytest.approx(expected, abs=1e-12)


def test_bhattacharyya_dominates_hellinger(rng):
    for _ in range(25):
        a, b = make_hpd(rng), make_hpd(rng)
        assert bhattacharyya_distance(a, b, 4.0) >= hellinger_distance(a, b, 4.0)


def test_bhattacharyya_is_log_transform_of_hellinger(rng):
    a, b = make_hpd(rng), make_hpd(rng)
    dh = hellinger_distance(a, b, 4.0)
    assert bhattacharyya_distance(a, b, 4.0) == pytest.approx(-np.log1p(-dh), rel=1e-12)


def test_euclidean_simple_cases():
    assert euclidean_distance(ID, ID) == 0.0
    assert euclidean_distance(ID, 2 * ID) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_euclidean_delegates_to_frobenius(rng):
    # ED is the Frobenius norm of the difference (indefinite pairs: test_hermitian)
    a, b = make_hpd(rng), make_hpd(rng)
    assert euclidean_distance(a, b) == pytest.approx(oracle.ed(a, b), rel=1e-12)


@given(seed=st.integers(0, 2**32 - 1), looks=st.sampled_from([1.0, 2.5, 4.0, 13.0]),
       log_scale=st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_pairwise_distances_match_oracle(seed, looks, log_scale):
    # any looks > 0 (criterion 1 evaluates Hellinger at one look)
    rng = np.random.default_rng(seed)
    a = make_hpd(rng, scale=10.0 ** log_scale)
    b = make_hpd(rng, scale=10.0 ** (log_scale + rng.uniform(-1.0, 1.0)))
    for d in ALL:
        assert d(a, b, looks) == pytest.approx(ORACLE[d](a, b, looks), rel=1e-10)


@pytest.mark.parametrize("looks", [-4.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_pairwise_rejects_invalid_looks(looks):
    for d in ALL:
        with pytest.raises(InvalidLooks):
            d(ID, 2 * ID, looks)
    assert hellinger_distance(ID, 2 * ID, 1.0) > 0  # one look is valid


@pytest.mark.parametrize("bad", [(1, -1, 1), (-1, -1, 1), (1, -1, -1), (-1, -1, -1), (1, 1, -2)])
def test_pairwise_rejects_non_positive_definite_arguments(bad):
    m = np.diag(np.asarray(bad, dtype=complex))
    for d in ALL:
        for args in ((m, ID), (ID, m), (m, m)):
            with pytest.raises(InvalidObservation, match="positive definite"):
                d(*args, 4.0)
    assert euclidean_distance(m, ID) == pytest.approx(oracle.ed(m, ID), rel=1e-15)


def test_pairwise_rejects_an_indefinite_matrix_in_a_stack(rng):
    stack = np.stack([make_hpd(rng) for _ in range(5)])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    stack[3] = (q * np.array([2.0, -1e-3, 1.0])) @ q.conj().T  # det < 0, diagonal may be > 0
    assert not oracle.is_positive_definite(stack[3])
    for d in ALL:
        with pytest.raises(InvalidObservation):
            d(stack, ID, 4.0)
    np.testing.assert_allclose(euclidean_distance(stack, ID), oracle.ed(stack, ID), rtol=1e-12)


def test_pairwise_rejects_non_finite_arguments():
    m = ID.copy()
    m[0, 0] = np.nan
    for d in ALL:
        with pytest.raises(SingularMatrix, match="non-finite"):
            d(m, ID, 4.0)
    with pytest.raises(SingularMatrix, match="non-finite"):
        euclidean_distance(ID, m)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_distance_axioms(seed):
    rng = np.random.default_rng(seed)
    a, b = make_hpd(rng), make_hpd(rng)
    for d in ALL:
        assert d(a, b, 4.0) == pytest.approx(d(b, a, 4.0), rel=1e-9, abs=1e-12)
        assert d(a, b, 4.0) > 0
        assert d(a, a, 4.0) <= 1e-10
    assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))
    assert euclidean_distance(a, a) == 0.0


def test_identity_of_indiscernibles_at_zero():
    # exact zero is unreachable in floating point for the inverse-based
    # distances; 1e-10 is the documented band (ED subtracts exactly)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        m = make_hpd(rng)
        assert kl_distance(m, m, 4.0) <= 1e-10
        assert hellinger_distance(m, m, 4.0) <= 1e-10
        assert bhattacharyya_distance(m, m, 4.0) <= 1e-10
        assert euclidean_distance(m, m) == 0.0


def test_argmin_ordering_matches_monte_carlo_oracle():
    # prototypes at moderate separation; the sample-mean estimate of a small
    # sample should sit closer (in either distance) to its own prototype
    rng = np.random.default_rng(17)
    sig_a = make_hpd(rng)
    w = hm.cholesky3(sig_a)
    sig_b = hm.hermitian_part(w @ np.diag([2.4, 1.6, 0.6]) @ w.conj().T)
    assert 2.0 < kl_distance(sig_a, sig_b, 4.0) < 12.0  # moderate separation
    model = WishartModel(sig_a, 4)
    hits_kl = hits_hd = 0
    trials = 200
    for t in range(trials):
        z_hat = SampleStats.from_sample(
            sample(model, np.random.default_rng([91, t]), size=5)).mean
        hits_kl += kl_distance(z_hat, sig_a, 4.0) < kl_distance(z_hat, sig_b, 4.0)
        hits_hd += hellinger_distance(z_hat, sig_a, 4.0) < hellinger_distance(z_hat, sig_b, 4.0)
    assert hits_kl >= 0.95 * trials
    assert hits_hd >= 0.95 * trials


def test_broadcasting(rng):
    field = np.stack([make_hpd(rng) for _ in range(6)]).reshape(2, 3, 3, 3)
    ref = make_hpd(rng)
    for d in ALL + (lambda a, b, _: euclidean_distance(a, b),):
        stack = d(field, ref, 4.0)
        assert stack.shape == (2, 3)
        assert stack[1, 2] == pytest.approx(d(field[1, 2], ref, 4.0), rel=1e-12)
        assert d(ref, field, 4.0).shape == (2, 3)
