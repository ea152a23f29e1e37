"""ML estimation of (sigma, looks) and the Box-Snell correction.

The polygamma oracles below are built from scratch (Euler-Mascheroni plus
harmonic recurrences, pi^2/6, and a partial-sum Apery constant) so they are
independent of the series in ``polygamma3``; ``scipy.special`` and
``scipy.optimize.brentq`` are the oracles on random arguments.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polsardr import hermitian as hm
from polsardr.errors import DomainError, EmptySample, InvalidObservation, NoRoot
from polsardr.estimation import (LOOKS_BRACKET, SampleStats, box_snell_bias,
                                 estimate_looks_corrected, estimate_looks_ml, looks_score,
                                 polygamma3)
from polsardr.distances import log_gamma3
from polsardr.wishart import WishartModel, log_density, sample

import oracle
from conftest import packed_hpd

EULER = 0.5772156649015329
ZETA3 = sum(1.0 / k**3 for k in range(200000, 0, -1))  # Apery constant, ~1e-11 accurate

ID = oracle.pack(np.eye(3))


def digamma_int(n):
    return sum(1.0 / k for k in range(1, n)) - EULER


def trigamma_int(n):
    return math.pi**2 / 6 - sum(1.0 / k**2 for k in range(1, n))


def tetragamma_int(n):
    return -2.0 * (ZETA3 - sum(1.0 / k**3 for k in range(1, n)))


def _sigma_hat(sample):
    """The ML covariance estimate: the sample mean of the sufficient statistics."""
    return SampleStats.from_sample(sample).mean


def test_estimate_sigma_basics(rng):
    m = packed_hpd(rng)
    np.testing.assert_array_equal(_sigma_hat(m), m)
    np.testing.assert_allclose(_sigma_hat(np.stack([ID, 3 * ID])), 2 * ID)
    with pytest.raises(EmptySample):
        _sigma_hat(np.empty((0, 9)))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000),
       log_scale=st.floats(-100.0, 100.0))
@settings(max_examples=100, deadline=None)
def test_packed_mean_has_the_bits_of_the_complex_mean(seed, n, log_scale):
    # the packed sum times 1/n is numpy's mean of the complex matrices to the
    # bit, so trained prototypes do not move with the representation
    rng = np.random.default_rng(seed)
    x = sample(WishartModel(packed_hpd(rng, scale=10.0 ** log_scale), 4), rng, size=n)
    stats = SampleStats.from_sample(x)
    m = oracle.unpack(x)
    want = oracle.pack(m.mean(axis=0))
    assert stats.mean.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # abs: a log-det near 0 has no relative accuracy; 1e-12 in log is 1e-12 in det
    assert stats.mean_log_det == pytest.approx(np.mean(oracle.logdet(m)), rel=1e-12, abs=1e-12)
    assert stats.log_det_of_mean == pytest.approx(oracle.logdet(m.mean(axis=0)),
                                                  rel=1e-12, abs=1e-12)


def test_estimate_sigma_affine_and_permutation_invariant(rng):
    zs = np.stack([packed_hpd(rng) for _ in range(7)])
    np.testing.assert_allclose(_sigma_hat(3.5 * zs), 3.5 * _sigma_hat(zs), rtol=1e-14)
    perm = np.random.default_rng(0).permutation(7)
    np.testing.assert_allclose(_sigma_hat(zs[perm]), _sigma_hat(zs), rtol=1e-12)


def test_estimate_sigma_consistency():
    rng = np.random.default_rng(42)
    sigma = packed_hpd(rng, scale=1.4)
    z = sample(WishartModel(sigma, 4), rng, size=10000)
    se = z.std(axis=0) / np.sqrt(z.shape[0])
    assert np.all(np.abs(_sigma_hat(z) - sigma) <= 5 * se + 1e-12)


@pytest.mark.parametrize("looks, expected", [
    (3, 2.5 - 3 * EULER),          # digamma(3) + digamma(2) + digamma(1)
    (4, 13.0 / 3.0 - 3 * EULER),
])
def test_polygamma3_digamma_values(looks, expected):
    assert polygamma3(0, looks) == pytest.approx(expected, abs=1e-12)


def test_polygamma3_trigamma_value():
    expected = trigamma_int(2) + trigamma_int(3) + trigamma_int(4)
    assert polygamma3(1, 4) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.323691, abs=1e-6)


def test_polygamma3_domain():
    with pytest.raises(DomainError):
        polygamma3(0, 2.0)
    with pytest.raises(DomainError):
        polygamma3(0, math.nan)
    with pytest.raises(DomainError):
        polygamma3(-1, 4.0)


@given(order=st.integers(0, 2), looks=st.floats(2.0, 1e6, exclude_min=True))
@example(order=0, looks=2.0 + 1e-15)  # just above 2: psi(looks - 2) ~ -1/(looks - 2)
@example(order=2, looks=np.nextafter(2.0, 3.0))  # the smallest looks allowed
@example(order=0, looks=3.4616321449683623)  # psi(looks - 2) = 0
@example(order=1, looks=12.0)  # no recurrence step for any shift
@settings(max_examples=300, deadline=None)
def test_polygamma3_matches_scipy(order, looks):
    from scipy.special import polygamma

    want = float(sum(polygamma(order, looks - i) for i in range(3)))
    assert abs(polygamma3(order, looks) - want) <= 1e-13 * max(1.0, abs(want))


def test_polygamma3_is_derivative_of_log_gamma3():
    h = 1e-4
    for looks in np.linspace(3.5, 20.0, 12):
        numeric = (log_gamma3(looks + h) - log_gamma3(looks - h)) / (2 * h)
        assert abs(polygamma3(0, looks) - numeric) < 1e-6


def _stats_for_root(target, n=100, mean=None):
    # score(target) = 0 <=> mean_log_det = log|mean| + polygamma3(0, t) - 3 log t
    mean = ID if mean is None else mean
    mld = float(oracle.logdet(oracle.unpack(mean)) + polygamma3(0, target)
                - 3 * np.log(target))
    return SampleStats(n=n, mean=mean, mean_log_det=mld)


def test_estimate_looks_ml_recovers_target():
    for target in (3.2, 4.0219, 8.0, 150.0):
        stats = _stats_for_root(target)
        root = estimate_looks_ml(stats)
        assert root == pytest.approx(target, abs=1e-8)
        assert abs(looks_score(root, stats)) < 1e-9


def test_estimate_looks_ml_consistency():
    rng = np.random.default_rng(3)
    z = sample(WishartModel(packed_hpd(rng), 4), rng, size=5000)
    est = estimate_looks_ml(SampleStats.from_sample(z))
    assert abs(est - 4.0) < 0.2


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 500), looks=st.integers(3, 40))
@settings(max_examples=60, deadline=None)
def test_looks_root_matches_scipy_brentq(seed, n, looks):
    # bisection to xtol = 1e-10 and one Newton step land where brentq and the same step do
    from scipy.optimize import brentq

    rng = np.random.default_rng(seed)
    model = WishartModel(packed_hpd(rng, scale=rng.uniform(0.1, 10.0)), looks)
    stats = SampleStats.from_sample(sample(model, rng, size=n))
    lo, hi = LOOKS_BRACKET
    assume(looks_score(lo, stats) > 0 >= looks_score(hi, stats))  # otherwise NoRoot
    want = brentq(looks_score, lo, hi, args=(stats,), xtol=1e-10, rtol=8.9e-16)
    want -= looks_score(want, stats) / (3.0 / want - polygamma3(1, want))
    assert estimate_looks_ml(stats) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_looks_score_reads_the_log_det_of_the_mean_once(rng, monkeypatch):
    # log|mean| is a constant of the score: computed when the statistics are
    # built, by the expression the score used to evaluate on every call
    stats = SampleStats.from_sample(np.stack([packed_hpd(rng) for _ in range(5)]))
    want = (3.0 * np.log(5.5) + stats.mean_log_det - np.log(hm.det_packed(stats.mean))
            - polygamma3(0, 5.5))
    monkeypatch.setattr(hm, "det_packed", None)
    assert looks_score(5.5, stats) == want


def test_no_root_for_dispersion_free_sample(rng):
    m = packed_hpd(rng)
    stats = SampleStats.from_sample(np.stack([m] * 10))
    with pytest.raises(NoRoot) as exc:
        estimate_looks_ml(stats)
    assert exc.value.side == "high"


def test_from_sample_refuses_non_pd_matrices_with_a_positive_determinant(rng, monkeypatch):
    # det(diag(-1, -1, 1)) = 1 > 0, so a determinant test lets it through
    m = packed_hpd(rng)
    bad = [oracle.pack(np.diag([-1.0, -1.0, 1.0])), oracle.pack(np.diag([1.0, -2.0, -3.0]))]
    with pytest.raises(InvalidObservation, match="^2 sample matrices are not positive definite"):
        SampleStats.from_sample(np.stack([m, bad[0], m, bad[1]]))
    with pytest.raises(InvalidObservation, match="^1 sample matrices"):
        SampleStats.from_sample(bad[0])
    dets, det_packed = [], hm.det_packed
    monkeypatch.setattr(hm, "det_packed", lambda p: dets.append(np.shape(p)) or det_packed(p))
    stats = SampleStats.from_sample(np.stack([m, 2 * m]))  # PD samples keep their log-dets
    assert dets == [(2, 9), (9,)]  # one for the PD test and the log-dets, one for the mean
    log_dets = oracle.logdet(oracle.unpack(np.stack([m, 2 * m])))
    assert stats.mean_log_det == pytest.approx(np.mean(log_dets), rel=1e-12)


def test_no_root_for_overdispersed_sample():
    # mean_log_det far below log|mean|: root would fall below 3
    stats = SampleStats(n=10, mean=ID, mean_log_det=-5.0)
    with pytest.raises(NoRoot) as exc:
        estimate_looks_ml(stats)
    assert exc.value.side == "low"


def test_looks_estimate_decreases_with_dispersion():
    # lower mean_log_det at fixed mean means more dispersion, hence lower looks
    base = _stats_for_root(6.0)
    estimates = [estimate_looks_ml(SampleStats(n=100, mean=ID,
                                               mean_log_det=base.mean_log_det - d))
                 for d in (0.0, 0.05, 0.1, 0.2)]
    assert all(a > b for a, b in zip(estimates, estimates[1:]))


def test_box_snell_value():
    # Eq. evaluated with recurrence-built trigamma/tetragamma values
    t1 = trigamma_int(2) + trigamma_int(3) + trigamma_int(4)
    t2 = tetragamma_int(2) + tetragamma_int(3) + tetragamma_int(4)
    denom = t1 - 0.75
    expected = 9.0 / (2 * 100 * 4 * denom) - (3.0 / 8.0 + t2) / (2 * 100 * denom)
    got = box_snell_bias(4.0, 100)
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(0.021905, abs=1e-5)


def test_box_snell_scales_inversely_with_n():
    assert box_snell_bias(4.0, 200) == box_snell_bias(4.0, 100) / 2
    assert box_snell_bias(4.0, 10**12) == pytest.approx(0.0, abs=1e-9)


def test_box_snell_domain():
    with pytest.raises(DomainError):
        box_snell_bias(2.0, 100)
    with pytest.raises(DomainError):
        box_snell_bias(math.nan, 10)
    with pytest.raises(DomainError):
        box_snell_bias(4.0, 0)


def test_corrected_estimate_subtracts_bias():
    stats = _stats_for_root(4.0219, n=100)
    corrected = estimate_looks_corrected(stats)
    assert corrected == pytest.approx(4.0, abs=5e-4)
    # huge-sample limit: correction vanishes
    stats_big = _stats_for_root(4.0219, n=10**9)
    assert estimate_looks_corrected(stats_big) == pytest.approx(
        estimate_looks_ml(stats_big), abs=1e-6)


def test_corrected_estimate_clamped_at_three(caplog):
    stats = _stats_for_root(3.05, n=1)
    assert estimate_looks_corrected(stats) == 3.0


def test_corrected_estimate_clamps_when_the_score_has_no_root(rng, caplog):
    # no root on the bracket: the bracket top for a dispersion-free sample,
    # 3 for an over-dispersed one, each with a warning
    free = SampleStats.from_sample(np.stack([packed_hpd(rng)] * 10))
    dispersed = SampleStats(n=10, mean=ID, mean_log_det=-5.0)
    with caplog.at_level("WARNING", logger="polsardr.estimation"):
        assert estimate_looks_corrected(free) == LOOKS_BRACKET[1]
        assert estimate_looks_corrected(dispersed) == 3.0
    assert [r.levelname for r in caplog.records] == ["WARNING", "WARNING"]
    assert "near-dispersion-free" in caplog.records[0].getMessage()
    assert "more dispersed" in caplog.records[1].getMessage()


def test_bias_correction_reduces_bias_monte_carlo():
    # 200 replications at n = 50: the corrected estimator's mean error is smaller
    model = WishartModel(packed_hpd(np.random.default_rng(8)), 4)
    ml = []
    corrected = []
    for rep in range(200):
        z = sample(model, np.random.default_rng([77, rep]), size=50)
        stats = SampleStats.from_sample(z)
        est = estimate_looks_ml(stats)
        ml.append(est - 4.0)
        corrected.append(est - box_snell_bias(est, 50) - 4.0)
    assert abs(np.mean(corrected)) < abs(np.mean(ml))


def test_log_likelihood_peaks_at_the_estimates(rng):
    z = sample(WishartModel(packed_hpd(rng), 4), rng, size=400)
    stats = SampleStats.from_sample(z)
    s_hat = _sigma_hat(z)
    l_hat = estimate_looks_ml(stats)
    def log_likelihood(s, looks):
        return log_density(WishartModel(s, looks), z).sum()

    peak = log_likelihood(s_hat, l_hat)
    assert log_likelihood(s_hat, l_hat + 0.05) < peak
    assert log_likelihood(s_hat, l_hat - 0.05) < peak
    assert log_likelihood(s_hat + 0.02 * ID, l_hat) < peak
    assert log_likelihood(0.98 * s_hat, l_hat) < peak
