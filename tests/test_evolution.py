"""Two-step diffusion-reaction evolution of covariance fields."""

import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polsardr import evolution, fields
from polsardr.classify import PrototypeSet, distance_stack
from polsardr.errors import InvalidObservation, SingularMatrix, StabilityViolation
from polsardr.evolution import EvolutionParams, evolve
from polsardr.fields import CovarianceField
from polsardr.phantom import PhantomSpec, generate_phantom
from polsardr.wishart import WishartModel, sample
from polsardr import hermitian as hm

import oracle
from conftest import all_rows, diffusion_step, packed_hpd, reaction_step, traced_peak

ID = np.eye(3, dtype=complex)


def _random_field(rng, h, w, jitter=0.2):
    a = rng.standard_normal((h, w, 3, 3)) + 1j * rng.standard_normal((h, w, 3, 3))
    data = a @ a.conj().transpose(0, 1, 3, 2) / 3 + jitter * np.eye(3)
    return CovarianceField(oracle.pack(oracle.hermitian_part(data)))


def _protos(rng, m=3):
    sigmas = np.stack([packed_hpd(rng, scale=s) for s in np.linspace(0.5, 3.0, m)])
    return PrototypeSet(sigmas=sigmas, shared_looks=4.0)


def scalar_five_point(field, coeff):
    """Independent per-entry stencil with explicit loops and clamped indices."""
    h, w = field.shape[:2]
    out = np.empty_like(field)
    for y in range(h):
        for x in range(w):
            up = field[max(y - 1, 0), x]
            down = field[min(y + 1, h - 1), x]
            left = field[y, max(x - 1, 0)]
            right = field[y, min(x + 1, w - 1)]
            out[y, x] = field[y, x] + coeff * (up + down + left + right - 4 * field[y, x])
    return out


def test_params_validation():
    EvolutionParams()  # defaults satisfy the condition
    with pytest.raises(StabilityViolation):
        EvolutionParams(alpha=0.5, dt=1.0)
    with pytest.raises(ValueError):
        EvolutionParams(alpha=-0.1)
    with pytest.raises(ValueError):
        EvolutionParams(dt=0.0)
    EvolutionParams(alpha=25.0, dt=0.01)  # exactly 1 - 4*0.25 = 0 is allowed


@pytest.mark.parametrize("alpha, dt", [(np.nan, 0.01), (0.5, np.nan), (np.inf, 0.01),
                                       (0.0, np.inf), (0.5, -np.inf), (-np.inf, 0.01)])
def test_params_refuse_non_finite_values(alpha, dt):
    # NaN fails every comparison and 0 * inf is NaN, so each passed the old
    # tests and the run failed only at its evolve stage
    with pytest.raises(ValueError, match="finite"):
        EvolutionParams(alpha=alpha, dt=dt)


def test_diffusion_step_guards_stability():
    # the checked parameters are frozen, so an unstable object cannot reach a step
    params = EvolutionParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.alpha = 40.0
    assert params.alpha == 0.5


def test_diffusion_constant_field_is_fixed(rng):
    field = CovarianceField(np.broadcast_to(packed_hpd(rng), (5, 6, 9)))
    out = diffusion_step(field, EvolutionParams())
    np.testing.assert_array_equal(all_rows(out), all_rows(field))


def test_diffusion_zero_alpha_is_identity(rng):
    field = _random_field(rng, 6, 5)
    out = diffusion_step(field, EvolutionParams(alpha=0.0))
    np.testing.assert_array_equal(all_rows(out), all_rows(field))


def test_diffusion_checkerboard_interior_value():
    # alpha*dt = 0.125 on an identity / 3*identity checkerboard: an interior
    # identity pixel gains 0.125 * 4 * (3I - I) = I, i.e. becomes 2I
    h = w = 7
    data = np.empty((h, w, 3, 3), dtype=complex)
    for y in range(h):
        for x in range(w):
            data[y, x] = ID if (x + y) % 2 == 0 else 3 * ID
    out = diffusion_step(CovarianceField(oracle.pack(data)),
                         EvolutionParams(alpha=12.5, dt=0.01))
    out = oracle.unpack(all_rows(out))
    np.testing.assert_allclose(out[3, 3], 2 * ID, atol=1e-14)
    np.testing.assert_allclose(out[3, 4], 3 * ID - ID, atol=1e-14)  # 3I shrinks to 2I


def test_diffusion_matches_scalar_stencil_oracle(rng):
    params = EvolutionParams(alpha=0.5, dt=0.01)
    field = _random_field(rng, 12, 10)
    out = diffusion_step(field, params)
    expected = scalar_five_point(oracle.unpack(all_rows(field)), params.alpha * params.dt)
    assert np.abs(oracle.unpack(all_rows(out)) - expected).max() < 1e-12


def test_reaction_fixed_points(rng):
    protos = _protos(rng)
    # a pixel equal to its nearest prototype does not move
    data = np.broadcast_to(protos.sigmas[1], (3, 4, 9))
    out = reaction_step(CovarianceField(data), protos, 0.01, "KL")
    np.testing.assert_array_equal(all_rows(out), data)


def test_reaction_exact_tie_is_fixed_point():
    # x is equidistant from both prototypes by symmetry: exponent 0, factor 1
    s1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    s2 = np.diag([2.0, 1.0, 1.0]).astype(complex)
    protos = PrototypeSet(sigmas=oracle.pack(np.stack([s1, s2])), shared_looks=4.0)
    x = np.diag([1.5, 1.0, 1.5]).astype(complex)
    stack = distance_stack(oracle.pack(x), protos, "KL", weighted=True)
    assert stack[0] == pytest.approx(stack[1], rel=1e-14)
    out = reaction_step(CovarianceField(oracle.pack(x)[None, None]), protos, 0.01, "KL")
    np.testing.assert_allclose(oracle.unpack(all_rows(out)[0, 0]), x, atol=1e-12)


def test_reaction_contraction_factor(rng):
    # factor must equal exp(dt * (nearest - runner_up)) with the weighted
    # distances computed independently, pixel by pixel
    protos = _protos(rng)
    field = _random_field(rng, 4, 5, jitter=0.4)
    dt = 0.01
    out = oracle.unpack(all_rows(reaction_step(field, protos, dt, "KL")))
    data = oracle.unpack(all_rows(field))
    sigmas = oracle.unpack(protos.sigmas)
    for y in range(4):
        for x in range(5):
            d = np.array([protos.weights[m] * oracle.kl(data[y, x], sigmas[m], 4.0)
                          for m in range(3)])
            order = np.sort(d)
            factor = np.exp(dt * (order[0] - order[1]))
            anchor = sigmas[int(np.argmin(d))]
            expected = anchor + factor * (data[y, x] - anchor)
            np.testing.assert_allclose(out[y, x], expected, rtol=1e-10, atol=1e-12)
    assert np.exp(0.01 * (2.0 - 5.0)) == pytest.approx(0.97045, abs=5e-6)


def test_reaction_single_pixel_monotone_approach(rng):
    # alpha = 0: repeated reactions move the pixel toward its anchor in
    # Frobenius distance while the assignment stays put
    protos = _protos(rng)
    x = sample(WishartModel(protos.sigmas[2], 4), rng)
    field = CovarianceField(x[None, None])
    label = int(np.argmin(distance_stack(x, protos, "KL", weighted=True)))
    dists = []
    for _ in range(60):
        field = reaction_step(field, protos, 0.01, "KL")
        cur = int(np.argmin(distance_stack(all_rows(field), protos, "KL", weighted=True)[0, 0]))
        assert cur == label
        dists.append(float(oracle.ed(oracle.unpack(all_rows(field)[0, 0]),
                                     oracle.unpack(protos.sigmas[label]))))
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_steps_and_evolve_leave_their_input_unchanged(rng):
    # a step returns a view of its (9, H, W) planes; the next step or evolve
    # must copy it before writing, so the field it was given stays as it was
    protos = _protos(rng)
    params = EvolutionParams(iterations=2)
    field = diffusion_step(_random_field(rng, 5, 4), params)
    before = all_rows(field).copy()
    reaction_step(field, protos, params.dt, "KL")
    diffusion_step(field, params)
    evolve(field, protos, params, "KL")
    np.testing.assert_array_equal(all_rows(field), before)


def test_evolve_fixed_point_field(rng):
    protos = _protos(rng)
    data = np.broadcast_to(protos.sigmas[0], (4, 4, 9))
    out, metrics = evolve(CovarianceField(data), protos, EvolutionParams(iterations=5), "KL")
    np.testing.assert_array_equal(all_rows(out), data)
    assert np.all(metrics.changed_fraction == 0.0)
    np.testing.assert_allclose(metrics.mean_weighted_distance, 0.0, atol=1e-12)


def test_evolve_requires_pd_field(rng):
    protos = _protos(rng)
    data = np.broadcast_to(oracle.pack(ID), (3, 3, 9)).copy()
    data[1, 1] = oracle.pack(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidObservation):
        evolve(CovarianceField(data), protos, EvolutionParams(iterations=1), "KL")


def test_evolve_preserves_cone_and_tracks_metrics(rng):
    protos = _protos(rng)
    field = _random_field(rng, 20, 16)
    params = EvolutionParams(alpha=0.5, dt=0.01, iterations=30)
    out, metrics = evolve(field, protos, params, "KL")
    assert np.all(hm.is_positive_definite(all_rows(out)))
    assert metrics.iteration.tolist() == list(range(31))
    assert metrics.changed_fraction[0] == 0.0
    assert np.all((metrics.changed_fraction >= 0) & (metrics.changed_fraction <= 1))
    assert np.all(np.isfinite(metrics.mean_weighted_distance))
    # the reaction term contracts toward prototypes, so the mean weighted
    # distance must shrink substantially over 30 iterations
    assert metrics.mean_weighted_distance[-1] < 0.5 * metrics.mean_weighted_distance[0]


def test_evolve_rejects_the_ml_rule(rng):
    # ML scores are negative log-densities, not distances: no reaction term.
    # The kind is refused once, before any row is read.
    def unread(r0, r1):
        raise AssertionError(f"rows {r0}..{r1 - 1} were read")

    for field in (_random_field(rng, 4, 4), CovarianceField.from_rows(unread, 4, 4)):
        with pytest.raises(ValueError, match=r"unknown distance kind 'ML' \(expected one of"):
            evolve(field, _protos(rng), EvolutionParams(iterations=1), "ML")


def test_metrics_csv(tmp_path, rng):
    protos = _protos(rng)
    field = _random_field(rng, 6, 6)
    _, metrics = evolve(field, protos, EvolutionParams(iterations=3), "KL")
    path = tmp_path / "metrics.csv"
    metrics.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,mean_weighted_distance,changed_fraction"
    assert len(lines) == 5
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("kind", ["KL", "HD"])
def test_evolve_matches_public_steps_exactly(rng, kind):
    # evolve runs the packed helpers that the reference steps wrap, so
    # repeating the steps must reproduce its field bit for bit
    protos = _protos(rng)
    field = _random_field(rng, 9, 7)
    params = EvolutionParams(alpha=0.5, dt=0.01, iterations=6)
    out, _ = evolve(field, protos, params, kind=kind)
    cur = field
    for _ in range(params.iterations):
        cur = reaction_step(diffusion_step(cur, params), protos, params.dt, kind)
    np.testing.assert_array_equal(all_rows(out), all_rows(cur))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 6), w=st.integers(1, 6),
       dt=st.floats(1e-3, 2.0), kind=st.sampled_from(["KL", "HD", "BD", "ED"]))
def test_a_reaction_only_evolve_is_the_reaction_step(seed, h, w, dt, kind):
    # alpha = 0 and one iteration is how a library user runs the reaction
    # alone: the stencil term becomes (...) * 0 + p, which keeps p's value but
    # not always the sign of a zero, so the fields are compared by value.  Some
    # pixels have exact-zero off-diagonal entries, of either sign, and every
    # prototype has them
    rng = np.random.default_rng(seed)
    data = all_rows(_random_field(rng, h, w)).copy()
    zeroed = rng.random((h, w)) < 0.3
    data[zeroed, 3:] = rng.choice([0.0, -0.0], size=(int(zeroed.sum()), 6))
    sigmas = np.zeros((3, 9))
    sigmas[:, :3] = rng.uniform(0.5, 3.0, (3, 3))
    protos = PrototypeSet(sigmas, shared_looks=4.0, weights=rng.dirichlet(np.ones(3)))
    field = CovarianceField(data)
    out, _ = evolve(field, protos, EvolutionParams(alpha=0.0, dt=dt, iterations=1), kind)
    assert np.array_equal(all_rows(out), all_rows(reaction_step(field, protos, dt, kind)))


def test_evolve_inverts_the_field_once_per_state(rng, monkeypatch):
    # one inversion of every pixel for the initial field, then two per
    # iteration (after the diffusion for the reaction, after the reaction for
    # the metrics), whatever the number of bands; every distance_stack call
    # also inverts the (M, 9) prototypes, which no band matches in size here
    protos = _protos(rng)
    field = _random_field(rng, 6, 5)
    inverted = []
    inverse = hm._inverse

    def counting(p, det=None):
        if np.shape(p)[0] != protos.n_classes:
            inverted.append(np.shape(p)[0])
        return inverse(p, det)

    monkeypatch.setattr(hm, "_inverse", counting)
    iterations = 4
    for cpus in (1, 2, 3):
        monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
        inverted.clear()
        evolve(field, protos, EvolutionParams(iterations=iterations), "KL")
        assert len(inverted) == (2 * iterations + 1) * cpus
        assert sum(inverted) == (2 * iterations + 1) * field.height * field.width


def test_evolve_holds_one_plane_and_a_band_scratch_per_worker(monkeypatch):
    # a held 300x300 field on 2 workers, one 45,000-pixel band each: evolve's
    # traced peak is one (9, H, W) plane, the labels and nearest distances
    # (10 B/px), and per worker an entry plane's band with its two halo rows
    # plus the temporaries of a band's assignment, which trace at 1.8 of the
    # band's nine entries (inverse, features and scores).  A second plane, as
    # the ping-pong between two planes held, put the peak at 4.0 planes.
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    spec = PhantomSpec(width=300, height=300, seed=11)
    field, _ = generate_phantom(spec)
    protos = PrototypeSet(spec.sigmas, shared_looks=4.0, weights=[0.5, 0.3, 0.2])
    params = EvolutionParams(iterations=2)
    evolve(field, protos, params, "KL")  # the traced call pays no first-call allocation
    _, peak = traced_peak(evolve, field, protos, params, "KL")
    plane = 300 * 300 * 9 * 8
    band = plane / 2
    scratch = (150 + 2) * 300 * 8
    bound = plane + 300 * 300 * 10 + 2 * (scratch + 2 * band)
    assert peak < bound, (peak, bound)


def _chained_reference(field, protos, params, kind):
    """The field and both metric columns of evolve, from the reference steps."""
    def assign(f):
        stack = distance_stack(all_rows(f), protos, kind, weighted=True)
        return np.argmin(stack, axis=-1), stack.min(axis=-1)

    labels, nearest = assign(field)
    mean_dist, changed = [float(nearest.mean())], [0.0]
    cur = field
    for _ in range(params.iterations):
        cur = reaction_step(diffusion_step(cur, params), protos, params.dt, kind)
        new_labels, nearest = assign(cur)
        mean_dist.append(float(nearest.mean()))
        changed.append(float(np.mean(new_labels != labels)))
        labels = new_labels
    return all_rows(cur), np.array(mean_dist), np.array(changed)


@pytest.mark.parametrize("kind", ["KL", "HD"])
def test_evolve_bands_are_independent_under_thread_switching(rng, monkeypatch, kind):
    # more bands than rows or cores, and a thread switch every microsecond:
    # the field and both metric columns must not depend on the band count
    protos = _protos(rng)
    params = EvolutionParams(alpha=0.5, dt=0.01, iterations=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for h, w in [(1, 7), (2, 5), (9, 7)]:
            field = _random_field(rng, h, w)
            expected = _chained_reference(field, protos, params, kind)
            for cpus in (1, 2, 3, 8):
                monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
                out, metrics = evolve(field, protos, params, kind=kind)
                np.testing.assert_array_equal(all_rows(out), expected[0])
                np.testing.assert_array_equal(metrics.mean_weighted_distance, expected[1])
                np.testing.assert_array_equal(metrics.changed_fraction, expected[2])
    finally:
        sys.setswitchinterval(interval)


def test_evolve_raises_a_worker_band_error_and_joins_the_pool(rng, monkeypatch):
    # the second band runs on a pool thread; its exception keeps its type and
    # no pool thread outlives the call
    protos = _protos(rng)
    field = _random_field(rng, 6, 5)
    kernel = evolution._stack  # the class-major stack that the bands score with

    def failing_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise SingularMatrix("injected in a worker band")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(evolution, "_stack", failing_off_the_main_thread)
    before = threading.active_count()
    with pytest.raises(SingularMatrix, match="worker band"):
        evolve(field, protos, EvolutionParams(iterations=3), "KL")
    assert threading.active_count() == before


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 6), w=st.integers(1, 6),
       cpus=st.sampled_from([1, 2, 3]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       kind=st.sampled_from(["KL", "HD"]))
def test_evolve_preserves_cone_at_the_stability_boundary(seed, h, w, cpus, scale, kind):
    # 1 - 4*alpha*dt = 0: the diffusion replaces every pixel by the mean
    # of its four neighbours, still a convex combination of PD matrices
    params = EvolutionParams(alpha=0.25, dt=1.0, iterations=5)
    rng = np.random.default_rng(seed)
    field = _random_field(rng, h, w)
    field = CovarianceField(scale * all_rows(field))
    protos = PrototypeSet(sigmas=scale * _protos(rng).sigmas, shared_looks=4.0)
    with mock.patch.object(fields, "_usable_cpus", lambda: cpus):
        out, metrics = evolve(field, protos, params, kind=kind)
    assert np.all(hm.is_positive_definite(all_rows(out)))
    assert np.all(np.isfinite(metrics.mean_weighted_distance))
