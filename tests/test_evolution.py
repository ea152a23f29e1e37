"""Two-step diffusion-reaction evolution of covariance fields."""

import dataclasses

import numpy as np
import pytest

from polsardr.classify import PrototypeSet, distance_stack
from polsardr.errors import InvalidObservation, StabilityViolation
from polsardr.evolution import (EvolutionParams, diffusion_step, evolve,
                                reaction_step)
from polsardr.fields import CovarianceField
from polsardr.wishart import WishartModel, sample
from polsardr import hermitian as hm

from conftest import make_hpd

ID = np.eye(3, dtype=complex)


def _random_field(rng, h, w, jitter=0.2):
    a = rng.standard_normal((h, w, 3, 3)) + 1j * rng.standard_normal((h, w, 3, 3))
    data = a @ a.conj().transpose(0, 1, 3, 2) / 3 + jitter * np.eye(3)
    return CovarianceField(hm.hermitian_part(data))


def _protos(rng, m=3):
    sigmas = np.stack([make_hpd(rng, scale=s) for s in np.linspace(0.5, 3.0, m)])
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


def test_diffusion_step_guards_stability():
    # the checked parameters are frozen, so an unstable object cannot reach a step
    params = EvolutionParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.alpha = 40.0
    assert params.alpha == 0.5


def test_diffusion_constant_field_is_fixed(rng):
    m = make_hpd(rng)
    field = CovarianceField(np.broadcast_to(m, (5, 6, 3, 3)).copy())
    out = diffusion_step(field, EvolutionParams())
    np.testing.assert_array_equal(out.data, field.data)


def test_diffusion_zero_alpha_is_identity(rng):
    field = _random_field(rng, 6, 5)
    out = diffusion_step(field, EvolutionParams(alpha=0.0))
    np.testing.assert_array_equal(out.data, field.data)


def test_diffusion_checkerboard_interior_value():
    # alpha*dt = 0.125 on an identity / 3*identity checkerboard: an interior
    # identity pixel gains 0.125 * 4 * (3I - I) = I, i.e. becomes 2I
    h = w = 7
    data = np.empty((h, w, 3, 3), dtype=complex)
    for y in range(h):
        for x in range(w):
            data[y, x] = ID if (x + y) % 2 == 0 else 3 * ID
    out = diffusion_step(CovarianceField(data), EvolutionParams(alpha=12.5, dt=0.01))
    np.testing.assert_allclose(out.data[3, 3], 2 * ID, atol=1e-14)
    np.testing.assert_allclose(out.data[3, 4], 3 * ID - ID, atol=1e-14)  # 3I shrinks to 2I


def test_diffusion_matches_scalar_stencil_oracle(rng):
    params = EvolutionParams(alpha=0.5, dt=0.01)
    field = _random_field(rng, 12, 10)
    out = diffusion_step(field, params)
    expected = scalar_five_point(field.data, params.alpha * params.dt / params.h**2)
    assert np.abs(out.data - expected).max() < 1e-12


def test_reaction_fixed_points(rng):
    protos = _protos(rng)
    # a pixel equal to its nearest prototype does not move
    data = np.broadcast_to(protos.sigmas[1], (3, 4, 3, 3)).copy()
    out = reaction_step(CovarianceField(data), protos, dt=0.01)
    np.testing.assert_array_equal(out.data, data)


def test_reaction_exact_tie_is_fixed_point():
    # x is equidistant from both prototypes by symmetry: exponent 0, factor 1
    s1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    s2 = np.diag([2.0, 1.0, 1.0]).astype(complex)
    protos = PrototypeSet(sigmas=np.stack([s1, s2]), shared_looks=4.0)
    x = np.diag([1.5, 1.0, 1.5]).astype(complex)
    stack = distance_stack(hm.to_packed(x), protos, "KL", weighted=True)
    assert stack[0] == pytest.approx(stack[1], rel=1e-14)
    out = reaction_step(CovarianceField(x[None, None]), protos, dt=0.01)
    np.testing.assert_allclose(out.data[0, 0], x, atol=1e-12)


def test_reaction_contraction_factor(rng):
    # factor must equal exp(dt * (nearest - runner_up)) with the weighted
    # distances computed independently, pixel by pixel
    protos = _protos(rng)
    field = _random_field(rng, 4, 5, jitter=0.4)
    dt = 0.01
    out = reaction_step(CovarianceField(field.data.copy()), protos, dt)
    from polsardr.distances import kl_distance
    for y in range(4):
        for x in range(5):
            d = np.array([protos.weights[m] * kl_distance(field.data[y, x],
                                                          protos.sigmas[m], 4.0)
                          for m in range(3)])
            order = np.sort(d)
            factor = np.exp(dt * (order[0] - order[1]))
            anchor = protos.sigmas[int(np.argmin(d))]
            expected = anchor + factor * (field.data[y, x] - anchor)
            np.testing.assert_allclose(out.data[y, x], expected, rtol=1e-10, atol=1e-12)
    assert np.exp(0.01 * (2.0 - 5.0)) == pytest.approx(0.97045, abs=5e-6)


def test_reaction_single_pixel_monotone_approach(rng):
    # alpha = 0: repeated reactions move the pixel toward its anchor in
    # Frobenius distance while the assignment stays put
    protos = _protos(rng)
    x = sample(WishartModel(protos.sigmas[2], 4), rng)
    field = CovarianceField(x[None, None])
    label = int(np.argmin(distance_stack(hm.to_packed(x), protos, "KL", weighted=True)))
    dists = []
    for _ in range(60):
        field = reaction_step(field, protos, dt=0.01)
        cur = int(np.argmin(distance_stack(hm.to_packed(field.data), protos, "KL",
                                           weighted=True)[0, 0]))
        assert cur == label
        dists.append(float(hm.frobenius_distance(field.data[0, 0],
                                                 protos.sigmas[label])))
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_evolve_fixed_point_field(rng):
    protos = _protos(rng)
    data = np.broadcast_to(protos.sigmas[0], (4, 4, 3, 3)).copy()
    out, metrics = evolve(CovarianceField(data), protos,
                          EvolutionParams(iterations=5))
    np.testing.assert_array_equal(out.data, data)
    assert np.all(metrics.changed_fraction == 0.0)
    np.testing.assert_allclose(metrics.mean_weighted_distance, 0.0, atol=1e-12)


def test_evolve_requires_pd_field(rng):
    protos = _protos(rng)
    data = np.broadcast_to(ID, (3, 3, 3, 3)).copy()
    data[1, 1] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(InvalidObservation):
        evolve(CovarianceField(data), protos, EvolutionParams(iterations=1))


def test_evolve_preserves_cone_and_tracks_metrics(rng):
    protos = _protos(rng)
    field = _random_field(rng, 20, 16)
    params = EvolutionParams(alpha=0.5, dt=0.01, iterations=30)
    out, metrics = evolve(field, protos, params)
    assert np.all(hm.is_positive_definite(out.data))
    assert metrics.iteration.tolist() == list(range(31))
    assert metrics.changed_fraction[0] == 0.0
    assert np.all((metrics.changed_fraction >= 0) & (metrics.changed_fraction <= 1))
    assert np.all(np.isfinite(metrics.mean_weighted_distance))
    # the reaction term contracts toward prototypes, so the mean weighted
    # distance must shrink substantially over 30 iterations
    assert metrics.mean_weighted_distance[-1] < 0.5 * metrics.mean_weighted_distance[0]


def test_evolve_rejects_the_ml_rule(rng):
    # ML scores are negative log-densities, not distances: no reaction term
    with pytest.raises(ValueError, match="ML"):
        evolve(_random_field(rng, 4, 4), _protos(rng), EvolutionParams(iterations=1),
               kind="ML")


def test_metrics_csv(tmp_path, rng):
    protos = _protos(rng)
    field = _random_field(rng, 6, 6)
    _, metrics = evolve(field, protos, EvolutionParams(iterations=3))
    path = tmp_path / "metrics.csv"
    metrics.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,mean_weighted_distance,changed_fraction"
    assert len(lines) == 5
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("kind", ["KL", "HD"])
def test_evolve_matches_public_steps_exactly(rng, kind):
    # evolve runs the packed helpers that the public steps wrap, so repeating
    # the steps must reproduce its field bit for bit
    protos = _protos(rng)
    field = _random_field(rng, 9, 7)
    params = EvolutionParams(alpha=0.5, dt=0.01, iterations=6)
    out, _ = evolve(field, protos, params, kind=kind)
    cur = field
    for _ in range(params.iterations):
        cur = reaction_step(diffusion_step(cur, params), protos, params.dt, kind)
    np.testing.assert_array_equal(out.data, cur.data)


def test_evolve_inverts_the_field_once_per_state(rng, monkeypatch):
    # one inversion for the initial field, then two per iteration (after the
    # diffusion for the reaction, after the reaction for the metrics)
    protos = _protos(rng)
    field = _random_field(rng, 6, 5)
    inverted = []
    inv_packed = hm.inv_packed

    def counting(p):
        inverted.append(np.shape(p)[0])
        return inv_packed(p)

    monkeypatch.setattr(hm, "inv_packed", counting)
    evolve(field, protos, EvolutionParams(iterations=4))
    assert inverted.count(field.height * field.width) == 2 * 4 + 1
