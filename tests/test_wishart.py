"""Scaled complex Wishart density and sampler."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polsardr import hermitian as hm
from polsardr.errors import InvalidLooks, InvalidObservation
from polsardr.distances import log_gamma3
from polsardr.wishart import WishartModel, log_density, sample

import oracle
from conftest import make_hermitian, make_hpd, packed_hpd

ID = np.eye(3, dtype=complex)
P = oracle.pack
PID = P(ID)


def test_model_validation():
    with pytest.raises(InvalidObservation):
        WishartModel(P(np.diag([1.0, -1.0, 1.0])), 4)
    for bad in (ID, PID[:8], PID.astype(complex)):  # the sigma is packed (9,) floats
        with pytest.raises(ValueError, match="packed"):
            WishartModel(bad, 4)
    with pytest.raises(InvalidLooks):
        WishartModel(PID, 2.5)
    model = WishartModel(PID, 3.7)  # real looks >= 3 fine for the density
    assert model.looks == 3.7
    assert model.sigma.dtype == np.float64 and model.sigma.shape == (9,)


def test_log_gamma3_against_stdlib():
    # independent oracle: math.lgamma
    for looks in (3.0, 3.5, 4.0, 7.25, 40.0):
        expected = 3 * math.log(math.pi) + sum(math.lgamma(looks - i) for i in range(3))
        assert log_gamma3(looks) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(InvalidLooks):
        log_gamma3(2.9)
    with pytest.raises(InvalidLooks):
        log_gamma3(math.nan)


@given(looks=st.floats(3.0, 1e8))
@example(looks=3.0)  # Gamma(1) = Gamma(2) = 1
@settings(max_examples=300, deadline=None)
def test_log_gamma3_matches_scipy(looks):
    from scipy.special import gammaln

    want = float(3.0 * np.log(np.pi) + sum(gammaln(looks - i) for i in range(3)))
    assert abs(log_gamma3(looks) - want) <= 1e-13 * max(1.0, abs(want))


def test_log_density_identity_three_looks():
    # direct evaluation of the density terms at sigma = I, looks = 3, z = I
    expected = (9 * math.log(3.0) - 3 * math.log(math.pi)
                - math.log(math.gamma(3) * math.gamma(2) * math.gamma(1)) - 9.0)
    assert log_density(WishartModel(PID, 3), PID) == pytest.approx(expected, rel=1e-14)


def test_log_density_scaling_identity(rng):
    # log f(c z; c sigma, looks) = log f(z; sigma, looks) - 9 log c
    sigma = packed_hpd(rng)
    z = packed_hpd(rng)
    for c in (0.3, 2.0, 17.5):
        lhs = log_density(WishartModel(c * sigma, 5), c * z)
        rhs = log_density(WishartModel(sigma, 5), z) - 9 * math.log(c)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_log_density_mode(rng):
    # the maximizer over z is ((looks-3)/looks) * sigma; perturbations lose
    looks = 6.0
    sigma = packed_hpd(rng)
    z_star = (looks - 3.0) / looks * sigma
    peak = log_density(WishartModel(sigma, looks), z_star)
    for _ in range(25):
        z = z_star + 1e-3 * P(make_hermitian(rng))
        assert log_density(WishartModel(sigma, looks), z) < peak


def test_log_density_matches_oracle(rng):
    for looks in (3.0, 4.0, 7.5, 40.0):
        sigma = make_hpd(rng, scale=rng.uniform(0.1, 10.0))
        z = sample(WishartModel(P(sigma), 4), rng, size=(2, 5))
        want = oracle.log_density(oracle.unpack(z), sigma, looks)
        np.testing.assert_allclose(log_density(WishartModel(P(sigma), looks), z), want,
                                   rtol=1e-10)
        assert log_density(WishartModel(P(sigma), looks), z[0, 0]) == pytest.approx(
            want[0, 0], rel=1e-10)


def test_log_density_rejects_non_pd():
    with pytest.raises(InvalidObservation):
        log_density(WishartModel(PID, 4), P(np.diag([1.0, 1.0, -1.0])))


def test_sample_requires_integer_looks(rng):
    with pytest.raises(InvalidLooks):
        sample(WishartModel(PID, 3.5), rng)


@pytest.mark.parametrize("looks", [3, 4, 7])
@pytest.mark.parametrize("size", [None, 5, (2, 3), 2000])
def test_sample_is_the_complex_formula_bit_for_bit(rng, looks, size):
    # the packed outer product reproduces einsum's complex one, so the phantom's
    # image.dat keeps its bytes
    model = WishartModel(packed_hpd(rng, scale=rng.uniform(0.1, 10.0)), looks)
    got = sample(model, np.random.default_rng(11), size=size)
    shape = () if size is None else tuple(np.atleast_1d(size))
    draw = np.random.default_rng(11)
    u = np.sqrt(0.5) * (draw.standard_normal(shape + (looks, 3))
                        + 1j * draw.standard_normal(shape + (looks, 3)))
    want = oracle.wishart_deviates(u, hm.cholesky3(model.sigma))
    assert got.shape == want.shape == shape + (9,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sample_deterministic_given_seed(rng):
    model = WishartModel(packed_hpd(rng), 4)
    a = sample(model, np.random.default_rng(99), size=5)
    b = sample(model, np.random.default_rng(99), size=5)
    c = sample(model, np.random.default_rng(100), size=5)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


def test_sample_mean_matches_sigma(rng):
    # E(Z) = sigma; entrywise five-standard-error band from the MC sample itself
    sigma = packed_hpd(rng, scale=2.0)
    z = sample(WishartModel(sigma, 4), np.random.default_rng(2024), size=10000)
    mean = z.mean(axis=0)
    se = z.std(axis=0) / np.sqrt(z.shape[0])
    assert np.all(np.abs(mean - sigma) <= 5 * se + 1e-12)


def test_sample_variance_of_first_diagonal():
    # Z11 of W(I, 4) is a mean of 4 unit exponentials: variance 1/4
    z = sample(WishartModel(PID, 4), np.random.default_rng(5), size=10000)
    v = z[:, 0].var()
    assert v == pytest.approx(0.25, abs=5 * 0.25 * np.sqrt(2.0 / 10000) + 0.002)


def test_sample_whitened_trace():
    # E tr(sigma^-1 Z) = 3
    rng = np.random.default_rng(7)
    sigma = make_hpd(rng)
    z = oracle.unpack(sample(WishartModel(P(sigma), 4), rng, size=8000))
    t = oracle.trace_product(oracle.inv(sigma), z)
    assert t.mean() == pytest.approx(3.0, abs=5 * t.std() / np.sqrt(t.size))


def test_samples_positive_definite(rng):
    model = WishartModel(packed_hpd(rng), 3)
    z = sample(model, rng, size=2000)
    assert z.shape == (2000, 9)  # packed, so Hermitian by construction
    assert np.all(hm.is_positive_definite(z))
