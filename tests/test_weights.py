"""Simplex-constrained weight optimization for class discrimination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from polsardr.classify import SIMPLEX_TOL, PrototypeSet
from polsardr.errors import InvalidObservation, NonFiniteEnergy
from polsardr.weights import (TrainingSet, distance_tables, energy, optimize_weights,
                              project_to_simplex, saturate)
from polsardr.wishart import WishartModel, sample
from polsardr.distances import kl_distance

import oracle
from conftest import packed_hpd

ID = oracle.pack(np.eye(3))


@pytest.mark.parametrize("s, lam, expected", [
    (0.0, 1.0, 0.0),
    (1.0, 1.0, 0.5),
    (-2.0, 1.0, -2.0 / 3.0),
])
def test_saturate_values(s, lam, expected):
    assert saturate(s, lam) == pytest.approx(expected, rel=1e-15)


@given(s=st.floats(-1e6, 1e6), lam=st.floats(0.01, 100))
@settings(max_examples=200)
def test_saturate_odd_and_bounded(s, lam):
    v = saturate(s, lam)
    assert v == pytest.approx(-saturate(-s, lam), rel=1e-12, abs=1e-300)
    assert abs(v) < 1.0 / lam


@given(a=st.floats(-100, 100), b=st.floats(-100, 100))
@settings(max_examples=200)
def test_saturate_monotone(a, b):
    lo, hi = sorted((a, b))
    assert saturate(lo, 1.0) <= saturate(hi, 1.0)


def test_saturate_rejects_bad_lambda():
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            saturate(1.0, lam)


@pytest.mark.parametrize("value", [np.array([1 + 1j]), 1 + 1j, np.array([0.5 + 0j, 0.5])])
def test_vector_paths_refuse_complex_values(value):
    # the float64 cast dropped the imaginary parts: saturate([1+1j], 1.0) was
    # [0.5], with only a ComplexWarning
    for call in (lambda v: saturate(v, 1.0), project_to_simplex):
        with pytest.raises(ValueError, match="complex"):
            call(value)


def _simplex_projection_oracle(v):
    # independent formulation: w = max(v - tau, 0) with tau solving sum w = 1
    v = np.asarray(v, dtype=float)
    f = lambda tau: np.maximum(v - tau, 0.0).sum() - 1.0
    tau = brentq(f, v.min() - 1.0, v.max())
    return np.maximum(v - tau, 0.0)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_project_to_simplex(seed, n):
    v = np.random.default_rng(seed).normal(scale=3.0, size=n)
    w = project_to_simplex(v)
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(w, _simplex_projection_oracle(v), atol=1e-9)
    np.testing.assert_allclose(project_to_simplex(w), w, atol=1e-12)


def _training_set(sigmas, samples, looks=4.0):
    """TrainingSet of packed prototypes and packed (n, 9) sample blocks."""
    return TrainingSet(PrototypeSet(sigmas=np.stack(sigmas), shared_looks=looks), samples)


def _wishart_training_set(rng, sigmas, gen_looks, n_per_class, dist_looks=4.0):
    samples = [sample(WishartModel(s, g), rng, size=n)
               for s, g, n in zip(sigmas, gen_looks, n_per_class)]
    return _training_set(sigmas, samples, dist_looks)


def test_training_set_validation(rng):
    a, b = packed_hpd(rng), packed_hpd(rng)
    with pytest.raises(ValueError):
        _training_set([a], [a[None]])  # M = 1
    with pytest.raises(ValueError):
        _training_set([a, b], [a[None]])
    with pytest.raises(ValueError):
        _training_set([a, b], [a[None], np.empty((0, 9))])
    with pytest.raises(InvalidObservation):
        _training_set([a, b], [a[None], -b[None]])
    with pytest.raises(ValueError, match="complex"):  # refused, not cast
        _training_set([a, b], [a[None], oracle.unpack(b)[None]])
    for kind in ("ML", "XX"):  # ML scores are log-densities, not distances
        with pytest.raises(ValueError, match=f"unknown distance kind '{kind}'"):
            distance_tables(_training_set([a, b], [a[None], b[None]]), kind)


def test_energy_of_prototype_only_training_set(rng):
    # samples equal to their prototypes: every margin is -w' * d(proto, proto'),
    # so the energy has the closed form below and rises as any rival weight drops
    sigmas = [packed_hpd(rng) for _ in range(3)]
    train = _training_set(sigmas, [s[None] for s in sigmas])
    w = np.array([0.2, 0.5, 0.3])
    expected = sum(
        saturate(-w[mp] * kl_distance(sigmas[m], sigmas[mp], 4.0), 1.0)
        for m in range(3) for mp in range(3) if mp != m)
    assert energy(w, train, "KL", 1.0) == pytest.approx(expected, rel=1e-12)
    assert energy(w, train, "KL", 1.0) < 0
    for k in range(3):
        lower = w.copy()
        lower[k] *= 0.5
        assert energy(lower, train, "KL", 1.0) > energy(w, train, "KL", 1.0)


def test_energy_gradient_matches_finite_differences(rng):
    from polsardr.weights import _energy, _fd_gradient
    sigmas = [packed_hpd(rng) for _ in range(3)]
    train = _wishart_training_set(rng, sigmas, [4, 4, 4], [40, 30, 20])
    tables = distance_tables(train, "KL")
    w = np.array([0.3, 0.45, 0.25])
    g = _fd_gradient(w, tables, 1.0)
    # independent central differences at a different step, same tangent projection
    h = 2.5e-7
    ref = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        ref[i] = (_energy(w + e, tables, 1.0) - _energy(w - e, tables, 1.0)) / (2 * h)
    ref -= ref.mean()
    np.testing.assert_allclose(g, ref, rtol=1e-5, atol=1e-8)


def test_two_identical_classes_keep_uniform_weights(rng):
    sigma = packed_hpd(rng)
    z = sample(WishartModel(sigma, 4), rng, size=30)
    train = _training_set([sigma, sigma], [z, z.copy()])
    result = optimize_weights(train, "KL", 1.0)
    np.testing.assert_allclose(result.weights, [0.5, 0.5], atol=1e-9)


def test_optimizer_invariants(rng):
    sigmas = [packed_hpd(rng, scale=s) for s in (0.5, 1.5, 3.0)]
    train = _wishart_training_set(rng, sigmas, [4, 4, 4], [60, 50, 40])
    result = optimize_weights(train, "KL", 1.0)
    energies = [e for _, e, _ in result.trace]
    assert all(a > b for a, b in zip(energies, energies[1:]))  # strict descent
    for _, _, w in result.trace:
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-9
    assert result.energy <= energy(np.full(3, 1 / 3), train, "KL", 1.0)


@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 4),
       log_scale=st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_optimizer_descends_on_the_simplex(seed, n_classes, log_scale):
    # random training sets: prototypes within a decade of 10**log_scale, and
    # 5 to 40 samples per class drawn from their Wishart laws at 3 to 16 looks
    rng = np.random.default_rng(seed)
    sigmas = [packed_hpd(rng, scale=10.0 ** (log_scale + rng.uniform(-1.0, 1.0)))
              for _ in range(n_classes)]
    train = _wishart_training_set(rng, sigmas, rng.integers(3, 17, n_classes),
                                  rng.integers(5, 41, n_classes))
    result = optimize_weights(train, "KL", 1.0)
    energies = [e for _, e, _ in result.trace]
    assert all(a > b for a, b in zip(energies, energies[1:]))  # strict descent
    for _, _, w in result.trace:
        assert np.all(w >= 0) and abs(w.sum() - 1.0) <= SIMPLEX_TOL
    assert result.energy == energies[-1]
    assert result.energy <= energy(np.full(n_classes, 1 / n_classes), train, "KL", 1.0)


def test_high_variability_class_gets_smallest_weight():
    # class 3 is generated with far fewer looks, so its samples sit much
    # farther from their own prototype in KL distance
    rng = np.random.default_rng(100)
    sigmas = [packed_hpd(rng, scale=s) for s in (0.6, 1.0, 2.0)]
    train = _wishart_training_set(rng, sigmas, gen_looks=[16, 16, 4],
                                  n_per_class=[80, 80, 80])
    own = [np.mean(kl_distance(train.samples[m], sigmas[m], 4.0)) for m in range(3)]
    assert own[2] > 3.5 * max(own[0], own[1])  # ~4x intra-class spread
    result = optimize_weights(train, "KL", 1.0)
    assert np.argmin(result.weights) == 2


def test_optimizer_equivariant_under_class_permutation(rng):
    sigmas = [packed_hpd(rng, scale=s) for s in (0.7, 1.3, 2.4)]
    train = _wishart_training_set(rng, sigmas, [4, 4, 4], [50, 40, 30])
    perm = [2, 0, 1]
    permuted = TrainingSet(PrototypeSet(sigmas=train.protos.sigmas[perm], shared_looks=4.0),
                           [train.samples[i] for i in perm])
    res = optimize_weights(train, "KL", 1.0, max_iters=120)
    res_p = optimize_weights(permuted, "KL", 1.0, max_iters=120)
    np.testing.assert_allclose(res_p.weights, res.weights[perm], atol=2e-3)
    # single-step check is tight: one gradient from the uniform start
    from polsardr.weights import _fd_gradient
    g = _fd_gradient(np.full(3, 1 / 3), distance_tables(train, "KL"), 1.0)
    g_p = _fd_gradient(np.full(3, 1 / 3), distance_tables(permuted, "KL"), 1.0)
    np.testing.assert_allclose(g_p, g[perm], rtol=1e-9, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_energy_aborts():
    huge = 1e308 * ID
    train = _training_set([ID, 2 * ID], [huge[None], (2 * ID)[None]])
    with pytest.raises(NonFiniteEnergy):
        optimize_weights(train, "KL", 1.0)


def test_trace_csv(tmp_path, rng):
    sigmas = [packed_hpd(rng), packed_hpd(rng)]
    train = _wishart_training_set(rng, sigmas, [4, 4], [20, 20])
    result = optimize_weights(train, "KL", 1.0, max_iters=40)
    path = tmp_path / "trace.csv"
    result.write_trace_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,w1,w2"
    assert len(lines) == len(result.trace) + 1
