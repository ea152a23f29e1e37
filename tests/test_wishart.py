"""Scaled complex Wishart density and sampler."""

import math

import numpy as np
import pytest

from polsardr import hermitian as hm
from polsardr.errors import InvalidLooks, InvalidObservation
from polsardr.wishart import WishartModel, log_density, log_gamma3, sample

import oracle
from conftest import make_hermitian, make_hpd

ID = np.eye(3, dtype=complex)


def test_model_validation():
    with pytest.raises(InvalidObservation):
        WishartModel(np.diag([1.0, -1.0, 1.0]).astype(complex), 4)
    with pytest.raises(InvalidLooks):
        WishartModel(ID, 2.5)
    model = WishartModel(ID, 3.7)  # real looks >= 3 fine for the density
    assert model.looks == 3.7


def test_log_gamma3_against_stdlib():
    # independent oracle: math.lgamma
    for looks in (3.0, 3.5, 4.0, 7.25, 40.0):
        expected = 3 * math.log(math.pi) + sum(math.lgamma(looks - i) for i in range(3))
        assert log_gamma3(looks) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(InvalidLooks):
        log_gamma3(2.9)


def test_log_density_identity_three_looks():
    # direct evaluation of the density terms at sigma = I, looks = 3, z = I
    expected = (9 * math.log(3.0) - 3 * math.log(math.pi)
                - math.log(math.gamma(3) * math.gamma(2) * math.gamma(1)) - 9.0)
    assert log_density(WishartModel(ID, 3), ID) == pytest.approx(expected, rel=1e-14)


def test_log_density_scaling_identity(rng):
    # log f(c z; c sigma, looks) = log f(z; sigma, looks) - 9 log c
    sigma = make_hpd(rng)
    z = make_hpd(rng)
    for c in (0.3, 2.0, 17.5):
        lhs = log_density(WishartModel(c * sigma, 5), c * z)
        rhs = log_density(WishartModel(sigma, 5), z) - 9 * math.log(c)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_log_density_mode(rng):
    # the maximizer over z is ((looks-3)/looks) * sigma; perturbations lose
    looks = 6.0
    sigma = make_hpd(rng)
    z_star = (looks - 3.0) / looks * sigma
    peak = log_density(WishartModel(sigma, looks), z_star)
    for _ in range(25):
        z = z_star + 1e-3 * make_hermitian(rng)
        assert log_density(WishartModel(sigma, looks), z) < peak


def test_log_density_matches_oracle(rng):
    for looks in (3.0, 4.0, 7.5, 40.0):
        sigma = make_hpd(rng, scale=rng.uniform(0.1, 10.0))
        z = sample(WishartModel(sigma, 4), rng, size=(2, 5))
        np.testing.assert_allclose(log_density(WishartModel(sigma, looks), z),
                                   oracle.log_density(z, sigma, looks), rtol=1e-10)
        assert log_density(WishartModel(sigma, looks), z[0, 0]) == pytest.approx(
            oracle.log_density(z[0, 0], sigma, looks), rel=1e-10)


def test_log_density_rejects_non_pd():
    with pytest.raises(InvalidObservation):
        log_density(WishartModel(ID, 4), np.diag([1.0, 1.0, -1.0]).astype(complex))


def test_sample_requires_integer_looks(rng):
    with pytest.raises(InvalidLooks):
        sample(WishartModel(ID, 3.5), rng)


def test_sample_deterministic_given_seed(rng):
    model = WishartModel(make_hpd(rng), 4)
    a = sample(model, np.random.default_rng(99), size=5)
    b = sample(model, np.random.default_rng(99), size=5)
    c = sample(model, np.random.default_rng(100), size=5)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


def test_sample_mean_matches_sigma(rng):
    # E(Z) = sigma; entrywise five-standard-error band from the MC sample itself
    sigma = make_hpd(rng, scale=2.0)
    z = sample(WishartModel(sigma, 4), np.random.default_rng(2024), size=10000)
    mean = z.mean(axis=0)
    se = z.std(axis=0) / np.sqrt(z.shape[0])
    assert np.all(np.abs(mean - sigma) <= 5 * se + 1e-12)


def test_sample_variance_of_first_diagonal():
    # Z11 of W(I, 4) is a mean of 4 unit exponentials: variance 1/4
    z = sample(WishartModel(ID, 4), np.random.default_rng(5), size=10000)
    v = z[:, 0, 0].real.var()
    assert v == pytest.approx(0.25, abs=5 * 0.25 * np.sqrt(2.0 / 10000) + 0.002)


def test_sample_whitened_trace():
    # E tr(sigma^-1 Z) = 3
    rng = np.random.default_rng(7)
    sigma = make_hpd(rng)
    z = sample(WishartModel(sigma, 4), rng, size=8000)
    t = oracle.trace_product(oracle.inv(sigma), z)
    assert t.mean() == pytest.approx(3.0, abs=5 * t.std() / np.sqrt(t.size))


def test_samples_positive_definite(rng):
    model = WishartModel(make_hpd(rng), 3)
    z = sample(model, rng, size=2000)
    assert np.all(hm.is_positive_definite(hm.to_packed(z)))
    assert np.all(np.abs(z - np.conj(np.swapaxes(z, -1, -2))) == 0)
