"""Pointwise classification rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsardr import hermitian as hm
from polsardr.classify import (KINDS, RULES, STACK_KINDS, PrototypeSet, classify_image,
                               classify_pixel, distance_stack)
from polsardr.distances import (bhattacharyya_distance, euclidean_distance,
                                hellinger_distance, kl_distance)
from polsardr.errors import InvalidObservation, SingularMatrix
from polsardr.fields import CovarianceField
from polsardr.wishart import WishartModel, log_density, sample

from conftest import make_hpd

ID = np.eye(3, dtype=complex)


def _protos(rng, m=3, weights=None, shared_looks=4.0):
    sigmas = np.stack([make_hpd(rng, scale=s) for s in np.linspace(0.5, 3.0, m)])
    return PrototypeSet(sigmas=sigmas, shared_looks=shared_looks, weights=weights)


def test_prototype_set_validation(rng):
    with pytest.raises(ValueError):
        PrototypeSet(sigmas=make_hpd(rng)[None], shared_looks=4.0)  # M = 1
    with pytest.raises(ValueError):
        _protos(rng, weights=np.array([0.9, 0.9, 0.2]))
    with pytest.raises(InvalidObservation):
        PrototypeSet(sigmas=np.stack([ID, np.diag([1., -1, 1]).astype(complex)]),
                     shared_looks=4.0)
    protos = _protos(rng)
    np.testing.assert_allclose(protos.weights, 1 / 3)


def test_prototype_set_rejects_more_classes_than_labels(rng):
    # labels are uint8 with 0 reserved for no-data, so 255 classes is the limit
    sigmas = np.stack([make_hpd(rng) for _ in range(256)])
    with pytest.raises(ValueError, match="255"):
        PrototypeSet(sigmas=sigmas, shared_looks=4.0)
    assert PrototypeSet(sigmas=sigmas[:255], shared_looks=4.0).n_classes == 255


def test_pixel_at_prototype_is_classified_to_it(rng):
    protos = _protos(rng)
    for rule in ("ED", "HD", "KL"):
        for m in range(3):
            assert classify_pixel(protos.sigmas[m], protos, rule) == m + 1


def test_weighted_argmin_hand_example(rng):
    # raw KL distances (10, 4, 8) with weights prop. to (0.23, 0.50, 0.28):
    # weighted scores prop. to (2.30, 2.00, 2.24), so class 2 wins even though
    # its raw distance is not uniquely informative of the weights' effect
    w = np.array([0.23, 0.50, 0.28])
    d = np.array([10.0, 4.0, 8.0])
    assert int(np.argmin(w * d)) + 1 == 2
    # same decision through the full rule with simplex-normalized weights
    # (argmin is invariant under the common positive rescaling)
    rng2 = np.random.default_rng(77)
    x = make_hpd(rng2)
    sigmas = []
    for target in d:
        # KL(x, c x) = 6 * (c + 1/c - 2) at 4 looks; pick the c > 1 root
        c = np.roots([1.0, -(2 + target / 6.0), 1.0]).max().real
        sigmas.append(c * x)
    protos = PrototypeSet(sigmas=np.stack(sigmas), shared_looks=4.0, weights=w / w.sum())
    for m, target in enumerate(d):
        assert kl_distance(x, protos.sigmas[m], 4.0) == pytest.approx(target, rel=1e-10)
    assert classify_pixel(x, protos, "KL+OW") == 2


def test_uniform_weights_make_weighted_rule_match_plain_kl(rng):
    protos = _protos(rng)
    field = CovarianceField(hm.to_packed(sample(WishartModel(protos.sigmas[1], 4),
                                                rng, size=(12, 9))))
    plain = classify_image(field, protos, "KL")
    weighted = classify_image(field, protos, "KL+OW")
    np.testing.assert_array_equal(plain.labels, weighted.labels)


def test_argmin_invariance_under_common_scaling(rng):
    protos = _protos(rng)
    pts = sample(WishartModel(protos.sigmas[0], 4), rng, size=40)
    scores = distance_stack(hm.to_packed(pts), protos, "KL", weighted=True)
    assert np.array_equal(np.argmin(scores, -1), np.argmin(7.3 * scores, -1))


def test_tie_breaks_to_lowest_class_index(rng):
    sigma = make_hpd(rng)
    protos = PrototypeSet(sigmas=np.stack([sigma, sigma]), shared_looks=4.0)
    x = make_hpd(rng)
    for rule in RULES:
        assert classify_pixel(x, protos, rule) == 1


def test_classify_image_uniform_field(rng):
    protos = _protos(rng)
    field = CovarianceField(np.broadcast_to(hm.to_packed(protos.sigmas[1]), (6, 8, 9)))
    cmap = classify_image(field, protos, "ED")
    assert cmap.labels.shape == (6, 8)
    assert np.all(cmap.labels == 2)


def test_classify_image_deterministic_and_marks_bad_pixels(rng):
    protos = _protos(rng)
    data = sample(WishartModel(protos.sigmas[0], 4), rng, size=(5, 7))
    data[2, 3] = np.diag([1.0, -1.0, 1.0])  # not positive definite
    field = CovarianceField(hm.to_packed(data))
    a = classify_image(field, protos, "KL")
    b = classify_image(field, protos, "KL")
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.labels[2, 3] == 0
    assert np.all(a.labels[:2] > 0)


def test_classify_pixel_rejects_non_pd(rng):
    protos = _protos(rng)
    with pytest.raises(InvalidObservation):
        classify_pixel(np.diag([1.0, -1.0, 1.0]).astype(complex), protos, "KL")


def test_ml_rule_matches_density_argmax(rng):
    protos = _protos(rng)
    pts = sample(WishartModel(protos.sigmas[2], 4), rng, size=30)
    dens = np.stack([log_density(WishartModel(protos.sigmas[m], 4.0), pts,
                                 validate=False) for m in range(3)], axis=-1)
    got = classify_image(CovarianceField(hm.to_packed(pts)[None]), protos, "ML").labels[0] - 1
    np.testing.assert_array_equal(got, np.argmax(dens, axis=-1))


def test_per_class_looks_selectable(rng):
    sigmas = np.stack([make_hpd(rng), make_hpd(rng, scale=2.0)])
    protos = PrototypeSet(sigmas=sigmas, shared_looks=4.0,
                          class_looks=np.array([3.2, 9.0]))
    pts = sample(WishartModel(sigmas[0], 4), rng, size=10)
    shared = distance_stack(hm.to_packed(pts), protos, "KL")
    per_class = distance_stack(hm.to_packed(pts), protos, "KL", use_class_looks=True)
    np.testing.assert_allclose(per_class[:, 0], shared[:, 0] * 3.2 / 4.0, rtol=1e-12)
    np.testing.assert_allclose(per_class[:, 1], shared[:, 1] * 9.0 / 4.0, rtol=1e-12)


def test_unknown_rule_rejected(rng):
    with pytest.raises(ValueError):
        classify_pixel(make_hpd(rng), _protos(rng), "NN")
    with pytest.raises(ValueError, match="unknown distance kind 'XX'"):
        distance_stack(hm.to_packed(make_hpd(rng)), _protos(rng), "XX")


def _pairwise(kind, data, sigma, looks):
    """The public pairwise reference of one distance_stack column."""
    if kind == "ML":
        return -log_density(WishartModel(sigma, looks), data, validate=False)
    if kind == "ED":
        return euclidean_distance(data, sigma)
    pairwise = {"KL": kl_distance, "HD": hellinger_distance, "BD": bhattacharyya_distance}
    return pairwise[kind](data, sigma, looks)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
       use_class_looks=st.booleans())
@settings(max_examples=30, deadline=None)
def test_distance_stack_matches_pairwise_distances(seed, log_scale, use_class_looks):
    # the shared-feature kernel on packed pixels against the pairwise closed
    # forms and the Wishart log-density, column by column, with pixels spread
    # over [1e-3, 1e3] around the prototypes' scale
    rng = np.random.default_rng(seed)
    m = 4
    sigmas = np.stack([make_hpd(rng, scale=10.0 ** log_scale) for _ in range(m)])
    protos = PrototypeSet(sigmas=sigmas, shared_looks=4.0,
                          class_looks=rng.uniform(3.0, 20.0, m))
    scales = 10.0 ** (log_scale + rng.uniform(-1.0, 1.0, 12))
    data = np.stack([make_hpd(rng, scale=c) for c in scales]).reshape(3, 4, 3, 3)
    x = hm.to_packed(data)
    for kind in STACK_KINDS:
        stack = distance_stack(x, protos, kind, use_class_looks)
        assert stack.shape == (3, 4, m)
        pairwise = np.stack([_pairwise(kind, data, sigmas[k],
                                       protos.looks_for(k, use_class_looks))
                             for k in range(m)], axis=-1)
        if kind == "ML":
            # log-density terms of either sign cancel, so compare at the
            # scale of the largest score
            np.testing.assert_allclose(stack, pairwise, rtol=0,
                                       atol=1e-9 * np.abs(pairwise).max())
        else:
            np.testing.assert_allclose(stack, pairwise, rtol=1e-10)
        np.testing.assert_array_equal(np.argmin(stack, -1), np.argmin(pairwise, -1))
        # a pixel's scores do not depend on the shape it arrives in
        flat = distance_stack(x.reshape(-1, 9), protos, kind, use_class_looks)
        np.testing.assert_array_equal(flat, stack.reshape(-1, m))


@pytest.mark.parametrize("kind", ["KL", "HD", "BD"])
def test_distance_stack_rejects_singular_pixel(rng, kind):
    data = np.stack([make_hpd(rng), np.ones((3, 3), dtype=complex)])
    with pytest.raises(SingularMatrix):
        distance_stack(hm.to_packed(data), _protos(rng), kind)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", ["KL", "HD", "BD"])
@pytest.mark.parametrize("entry, value", [(0, np.nan), (4, np.nan), (0, np.inf), (1, np.inf),
                                          (2, -np.inf)])
def test_distance_stack_rejects_non_finite_pixel(rng, kind, entry, value):
    # a NaN entry, or an infinite one on the diagonal, makes the determinant
    # NaN; the singularity test must raise instead of returning NaN scores
    x = hm.to_packed(np.stack([make_hpd(rng), make_hpd(rng)]))
    x[1, entry] = value
    with pytest.raises(SingularMatrix):
        distance_stack(x, _protos(rng), kind)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
       log_ratio=st.floats(-1.0, 1.0), looks=st.floats(3.0, 20.0))
@settings(max_examples=50, deadline=None)
def test_distance_stack_self_distance_and_symmetry(seed, log_scale, log_ratio, looks):
    # two prototypes x, y scored as pixels: the diagonal of the stack holds
    # d(x, x) and d(y, y), the off-diagonal d(x, y) and d(y, x)
    rng = np.random.default_rng(seed)
    sigmas = np.stack([make_hpd(rng, scale=10.0 ** log_scale),
                       make_hpd(rng, scale=10.0 ** (log_scale + log_ratio))])
    protos = PrototypeSet(sigmas=sigmas, shared_looks=looks)
    for kind in KINDS:
        stack = distance_stack(hm.to_packed(protos.sigmas), protos, kind)
        if kind == "ED":
            assert np.all(np.diag(stack) == 0.0)
        else:
            assert np.all((np.diag(stack) >= 0.0) & (np.diag(stack) <= 1e-10)), kind
        assert stack[0, 1] == pytest.approx(stack[1, 0], rel=1e-9), kind
