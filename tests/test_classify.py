"""Pointwise classification rules."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polsardr import fields
from polsardr import hermitian as hm
from polsardr.classify import (KINDS, RULES, STACK_KINDS, PrototypeSet, _nearest,
                               classify_image, distance_stack)
from polsardr.dataio import render_rgb
from polsardr.distances import (bhattacharyya_distance, euclidean_distance,
                                hellinger_distance, kl_distance)
from polsardr.evolution import EvolutionParams, evolve
from polsardr.errors import (InvalidLooks, InvalidObservation, NonPositiveDefinitePixelWarning,
                             SingularMatrix)
from polsardr.fields import CovarianceField
from polsardr.phantom import PhantomSpec
from polsardr.wishart import WishartModel, log_density, sample

import oracle
from conftest import all_rows, make_hpd, packed_hpd

ID = np.eye(3, dtype=complex)


def _protos(rng, m=3, weights=None, shared_looks=4.0):
    sigmas = np.stack([packed_hpd(rng, scale=s) for s in np.linspace(0.5, 3.0, m)])
    return PrototypeSet(sigmas=sigmas, shared_looks=shared_looks, weights=weights)


def _label(x, protos, rule):
    """Class of one packed pixel, classified as a one-pixel field."""
    field = CovarianceField(x[None, None])
    return int(classify_image(field, protos, rule).labels[0, 0])


def test_prototype_set_validation(rng):
    with pytest.raises(ValueError):
        PrototypeSet(sigmas=packed_hpd(rng)[None], shared_looks=4.0)  # M = 1
    with pytest.raises(ValueError):
        _protos(rng, weights=np.array([0.9, 0.9, 0.2]))
    with pytest.raises(InvalidObservation):
        PrototypeSet(sigmas=oracle.pack(np.stack([ID, np.diag([1., -1, 1]).astype(complex)])),
                     shared_looks=4.0)
    protos = _protos(rng)
    np.testing.assert_allclose(protos.weights, 1 / 3)


@pytest.mark.parametrize("looks", [
    {"shared_looks": np.nan}, {"shared_looks": np.inf}, {"shared_looks": 2.9},
    {"shared_looks": -4.0}, {"class_looks": [np.nan, 4.0, 4.0]},
    {"class_looks": [4.0, -1.0, 4.0]}, {"class_looks": [4.0, 4.0, 0.5]},
    {"class_looks": [4.0, np.inf, 4.0]}, {"class_looks": [np.nan, -1.0, 0.5]}])
def test_prototype_set_rejects_invalid_looks(rng, looks):
    # a NaN look used to label every pixel class 1 (argmin of a NaN row)
    kwargs = {"shared_looks": 4.0, **looks}
    with pytest.raises(InvalidLooks):
        PrototypeSet(sigmas=_protos(rng).sigmas, **kwargs)


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5],
                                     [-0.1, 0.6, 0.5], [0.2, 0.2, 0.2]])
def test_prototype_set_rejects_weights_off_the_simplex(rng, weights):
    # NaN weights used to pass both tests and label every pixel class 1 under +OW
    with pytest.raises(ValueError, match="sum to 1"):
        _protos(rng, weights=np.array(weights))


def test_prototype_set_refuses_complex_weights(rng):
    # the float64 cast kept [0.5, 0.25, 0.25] of these, with only a ComplexWarning
    weights = np.array([0.5 + 2j, 0.25, 0.25])
    with pytest.raises(ValueError, match=r"complex array of shape \(3,\)"):
        PrototypeSet(PhantomSpec().sigmas, 4.0, weights=weights)
    protos = _protos(rng)
    for value in (weights, weights.real + 0j):
        with pytest.raises(ValueError, match="complex"):
            protos.weights = value
    np.testing.assert_array_equal(protos.weights, 1 / 3)


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5],
                                     [-0.1, 0.6, 0.5], [0.2, 0.2, 0.2],
                                     [0.5, 0.5], [[0.2, 0.3, 0.5]], None])
def test_assigned_weights_are_checked_like_constructed_ones(rng, weights):
    # an assignment used to skip the checks: NaN weights labelled every pixel
    # class 1 under +OW
    protos = _protos(rng)
    field = CovarianceField(np.stack([packed_hpd(rng) for _ in range(12)])[None])
    before = classify_image(field, protos, "KL+OW").labels
    with pytest.raises(ValueError):
        protos.weights = weights
    np.testing.assert_array_equal(protos.weights, 1 / 3)  # the old weights stay
    np.testing.assert_array_equal(classify_image(field, protos, "KL+OW").labels, before)


def test_optimized_weights_are_stored(rng):
    # the optimizer's weights pass the simplex check that an assignment runs
    from polsardr.weights import TrainingSet, optimize_weights
    protos = _protos(rng)
    samples = [sample(WishartModel(s, 4), rng, size=30) for s in protos.sigmas]
    result = optimize_weights(TrainingSet(protos, samples), "KL", 1.0)
    protos.weights = result.weights
    np.testing.assert_array_equal(protos.weights, result.weights)
    with pytest.raises(ValueError):
        protos.weights[0] = np.nan  # stored read-only: no check can be bypassed


def test_prototype_set_is_packed_checked_and_inverted_once(rng, monkeypatch):
    sigmas = np.stack([packed_hpd(rng), packed_hpd(rng, scale=2.0)])
    with pytest.raises(ValueError, match="packed"):
        PrototypeSet(sigmas=oracle.unpack(sigmas), shared_looks=4.0)
    # |det| < DET_TOL fails when the set is built, not at its first scoring
    with pytest.raises(SingularMatrix):
        PrototypeSet(sigmas=np.stack([sigmas[0], oracle.pack(1e-101 * ID)]), shared_looks=4.0)
    calls, dets = [], []
    inverse, det_packed = hm._inverse, hm.det_packed
    monkeypatch.setattr(hm, "_inverse", lambda p, det=None: calls.append(np.shape(p))
                        or inverse(p, det))
    monkeypatch.setattr(hm, "det_packed", lambda p: dets.append(np.shape(p)) or det_packed(p))
    protos = PrototypeSet(sigmas=sigmas, shared_looks=4.0)
    assert calls == dets == [(2, 9)]  # one determinant serves the PD test and the inverse
    # a read-only copy: the cached inverse cannot go stale
    sigmas[0, 0] *= 2.0
    assert protos.sigmas[0, 0] != sigmas[0, 0]
    with pytest.raises(ValueError):
        protos.sigmas[0, 0] = 1.0
    with pytest.raises(AttributeError):
        protos.sigmas = 2.0 * sigmas
    # scoring inverts only the pixels: one call per KL, HD or BD stack
    x = sample(WishartModel(sigmas[1], 4), rng, size=(4, 5))
    for kind in STACK_KINDS:
        distance_stack(x, protos, kind)
    classify_image(CovarianceField(x), protos, "HD+OW")  # in row blocks
    assert calls[0] == (2, 9) and (2, 9) not in calls[1:]
    assert sum(rows for rows, _ in calls[1:]) == 4 * 20


def test_prototype_set_rejects_more_classes_than_labels(rng):
    # labels are uint8 with 0 reserved for no-data, so 255 classes is the limit
    sigmas = np.stack([packed_hpd(rng) for _ in range(256)])
    with pytest.raises(ValueError, match="255"):
        PrototypeSet(sigmas=sigmas, shared_looks=4.0)
    assert PrototypeSet(sigmas=sigmas[:255], shared_looks=4.0).n_classes == 255


def test_pixel_at_prototype_is_classified_to_it(rng):
    protos = _protos(rng)
    for rule in ("ED", "HD", "KL"):
        for m in range(3):
            assert _label(protos.sigmas[m], protos, rule) == m + 1


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
    x = packed_hpd(rng2)
    sigmas = []
    for target in d:
        # KL(x, c x) = 6 * (c + 1/c - 2) at 4 looks; pick the c > 1 root
        c = np.roots([1.0, -(2 + target / 6.0), 1.0]).max().real
        sigmas.append(c * x)
    protos = PrototypeSet(sigmas=np.stack(sigmas), shared_looks=4.0, weights=w / w.sum())
    for m, target in enumerate(d):
        assert kl_distance(x, sigmas[m], 4.0) == pytest.approx(target, rel=1e-10)
    assert _label(x, protos, "KL+OW") == 2


def test_uniform_weights_make_weighted_rule_match_plain_kl(rng):
    # with uniform weights "<kind>+OW" gives <kind>'s map, for every distance
    protos = _protos(rng)
    field = CovarianceField(sample(WishartModel(protos.sigmas[1], 4),
                                   rng, size=(12, 9)))
    for kind in KINDS:
        plain = classify_image(field, protos, kind)
        weighted = classify_image(field, protos, f"{kind}+OW")
        np.testing.assert_array_equal(plain.labels, weighted.labels, err_msg=kind)


def test_argmin_invariance_under_common_scaling(rng):
    protos = _protos(rng)
    pts = sample(WishartModel(protos.sigmas[0], 4), rng, size=40)
    scores = distance_stack(pts, protos, "KL", weighted=True)
    assert np.array_equal(np.argmin(scores, -1), np.argmin(7.3 * scores, -1))


def test_tie_breaks_to_lowest_class_index(rng):
    sigma = packed_hpd(rng)
    protos = PrototypeSet(sigmas=np.stack([sigma, sigma]), shared_looks=4.0)
    x = packed_hpd(rng)
    for rule in RULES:
        assert _label(x, protos, rule) == 1


def test_classify_image_uniform_field(rng):
    protos = _protos(rng)
    field = CovarianceField(np.broadcast_to(protos.sigmas[1], (6, 8, 9)))
    cmap = classify_image(field, protos, "ED")
    assert cmap.labels.shape == (6, 8)
    assert np.all(cmap.labels == 2)


def test_classify_image_deterministic_and_marks_bad_pixels(rng):
    protos = _protos(rng)
    data = sample(WishartModel(protos.sigmas[0], 4), rng, size=(5, 7))
    data[2, 3] = oracle.pack(np.diag([1.0, -1.0, 1.0]))  # not positive definite
    field = CovarianceField(data)
    with pytest.warns(NonPositiveDefinitePixelWarning, match=r"1 of 35 pixels.*\[\(2, 3\)\]"):
        a = classify_image(field, protos, "KL")
    with pytest.warns(NonPositiveDefinitePixelWarning):
        b = classify_image(field, protos, "KL")
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.labels[2, 3] == 0
    assert np.all(a.labels[:2] > 0)


def test_ml_rule_matches_density_argmax(rng):
    protos = _protos(rng)
    pts = oracle.unpack(sample(WishartModel(protos.sigmas[2], 4), rng, size=30))
    dens = np.stack([oracle.log_density(pts, oracle.unpack(protos.sigmas[m]), 4.0)
                     for m in range(3)], axis=-1)
    got = classify_image(CovarianceField(oracle.pack(pts)[None]), protos, "ML").labels[0] - 1
    np.testing.assert_array_equal(got, np.argmax(dens, axis=-1))


def test_per_class_looks_selectable(rng):
    sigmas = np.stack([make_hpd(rng), make_hpd(rng, scale=2.0)])
    protos = PrototypeSet(sigmas=oracle.pack(sigmas), shared_looks=4.0,
                          class_looks=np.array([3.2, 9.0]))
    pts = sample(WishartModel(oracle.pack(sigmas[0]), 4), rng, size=10)
    shared = distance_stack(pts, protos, "KL")
    per_class = distance_stack(pts, protos, "KL", use_class_looks=True)
    np.testing.assert_allclose(per_class[:, 0], shared[:, 0] * 3.2 / 4.0, rtol=1e-12)
    np.testing.assert_allclose(per_class[:, 1], shared[:, 1] * 9.0 / 4.0, rtol=1e-12)


def test_unknown_rule_rejected(rng):
    for rule in ("NN", "ML+OW", "KL+", "+OW", "kl", "KL+OW+OW"):
        with pytest.raises(ValueError, match="unknown rule"):
            _label(packed_hpd(rng), _protos(rng), rule)
    with pytest.raises(ValueError, match="unknown distance kind 'XX'"):
        distance_stack(packed_hpd(rng), _protos(rng), "XX")


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
       use_class_looks=st.booleans())
@settings(max_examples=30, deadline=None)
def test_distance_stack_matches_pairwise_distances(seed, log_scale, use_class_looks):
    # the shared-feature kernel on packed pixels against the numpy.linalg
    # oracle of each distance and of the Wishart log-density, column by
    # column, with pixels spread over [1e-3, 1e3] around the prototypes' scale
    rng = np.random.default_rng(seed)
    m = 4
    sigmas = np.stack([make_hpd(rng, scale=10.0 ** log_scale) for _ in range(m)])
    protos = PrototypeSet(sigmas=oracle.pack(sigmas), shared_looks=4.0,
                          class_looks=rng.uniform(3.0, 20.0, m))
    scales = 10.0 ** (log_scale + rng.uniform(-1.0, 1.0, 12))
    data = np.stack([make_hpd(rng, scale=c) for c in scales]).reshape(3, 4, 3, 3)
    x = oracle.pack(data)
    for kind in STACK_KINDS:
        stack = distance_stack(x, protos, kind, use_class_looks)
        assert stack.shape == (3, 4, m)
        pairwise = np.stack([oracle.score(kind, data, sigmas[k],
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


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
@settings(max_examples=20, deadline=None)
def test_pairwise_functions_equal_distance_stack_columns(seed, log_scale):
    # the pairwise functions, log_density and distance_stack share each kind's
    # formula, so at shared looks a column is the pairwise value bit for bit
    rng = np.random.default_rng(seed)
    protos = _protos(rng, m=3, shared_looks=rng.uniform(3.0, 20.0))
    x = np.stack([packed_hpd(rng, scale=10.0 ** (log_scale + rng.uniform(-1.0, 1.0)))
                  for _ in range(12)]).reshape(3, 4, 9)
    looks = protos.shared_looks
    pairwise = {"KL": lambda s: kl_distance(x, s, looks),
                "HD": lambda s: hellinger_distance(x, s, looks),
                "BD": lambda s: bhattacharyya_distance(x, s, looks),
                "ED": lambda s: euclidean_distance(x, s),
                "ML": lambda s: -log_density(WishartModel(s, looks), x)}
    for kind in STACK_KINDS:
        stack = distance_stack(x, protos, kind)
        for m in range(protos.n_classes):
            np.testing.assert_array_equal(pairwise[kind](protos.sigmas[m]).view(np.uint64),
                                          stack[..., m].view(np.uint64), err_msg=kind)


@pytest.mark.parametrize("kind", ["KL", "HD", "BD"])
def test_distance_stack_rejects_singular_pixel(rng, kind):
    data = np.stack([make_hpd(rng), np.ones((3, 3), dtype=complex)])
    with pytest.raises(SingularMatrix):
        distance_stack(oracle.pack(data), _protos(rng), kind)


@pytest.mark.parametrize("kind", STACK_KINDS)
@pytest.mark.parametrize("entry, value", [(0, np.nan), (4, np.nan), (0, np.inf), (1, np.inf),
                                          (2, -np.inf), (3, np.inf), (3, -np.inf),
                                          (6, np.inf), (6, -np.inf), (8, np.inf),
                                          (8, -np.inf)])
def test_distance_stack_rejects_non_finite_pixel(rng, kind, entry, value):
    # a non-finite entry must raise instead of returning NaN scores, for every
    # kind and without a RuntimeWarning first, also an infinite off-diagonal
    # entry, whose determinant is NaN for some pixels only: each case is tried
    # on ten random pixels
    protos = _protos(rng)
    for _ in range(10):
        x = np.stack([packed_hpd(rng), packed_hpd(rng)])
        x[1, entry] = value
        with pytest.raises(SingularMatrix):
            distance_stack(x, protos, kind)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry, value", [(0, np.inf), (2, -np.inf), (3, np.inf), (8, -np.inf),
                                          (4, np.nan)])
def test_a_non_finite_pixel_meets_the_package_warning_or_error_first(tmp_path, entry, value):
    # inf * 0 in its determinant made numpy warn before the package did; the
    # passes label such a pixel 0 with the package's warning, render_rgb
    # paints it black with the same warning and evolve refuses it
    protos = PrototypeSet(np.stack([oracle.pack(ID), oracle.pack(2 * ID)]), shared_looks=4.0)
    data = np.tile(oracle.pack(ID), (4, 3, 1))
    identity = render_rgb(CovarianceField(data), protos, tmp_path / "i.ppm")
    data[1, 2, entry] = value
    field = CovarianceField(data)
    for rule in ("KL", "ED"):
        with pytest.warns(NonPositiveDefinitePixelWarning) as record:
            labels = classify_image(field, protos, rule).labels
        assert [type(w.message) for w in record] == [NonPositiveDefinitePixelWarning]
        assert labels[1, 2] == 0 and np.count_nonzero(labels) == 11
    with pytest.warns(NonPositiveDefinitePixelWarning) as record:
        rgb = render_rgb(field, protos, tmp_path / "x.ppm")
    assert [type(w.message) for w in record] == [NonPositiveDefinitePixelWarning]
    assert rgb[1, 2].tolist() == [0, 0, 0]
    others = np.arange(12).reshape(4, 3) != 5  # every pixel but [1, 2]
    np.testing.assert_array_equal(rgb[others], identity[others])
    with pytest.raises(InvalidObservation, match="non-positive-definite"):
        evolve(field, protos, EvolutionParams(iterations=1), "KL")


def _indefinite_with_positive_diagonal():
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3, 2)) @ [1, 1j])
    m = (q * np.array([2.0, -1e-3, 1.0])) @ q.conj().T  # det < 0
    assert np.all(np.diag(m).real > 0) and not oracle.is_positive_definite(m)
    return m


NOT_PD = [np.diag(np.asarray(d, dtype=complex))
          for d in [(1, -1, 1), (-1, -1, 1), (1, -1, -1), (-1, -1, -1), (1, 1, -2), (-1, 1, 1)]]
NOT_PD.append(_indefinite_with_positive_diagonal())


@pytest.mark.parametrize("kind", STACK_KINDS)
@pytest.mark.parametrize("bad", range(len(NOT_PD)))
def test_distance_stack_rejects_non_positive_definite_pixel(rng, kind, bad):
    # KL gave (0, 0, 21.1) for diag(1, -1, 1), HD, BD and ML NaN after a
    # RuntimeWarning; now every kind but ED raises, without a warning first
    protos = PrototypeSet(sigmas=PhantomSpec().sigmas, shared_looks=4.0)
    x = oracle.pack(np.stack([make_hpd(rng), NOT_PD[bad], make_hpd(rng)]))
    if kind == "ED":  # render_rgb colours no-data pixels
        np.testing.assert_allclose(distance_stack(x, protos, kind)[1],
                                   [oracle.ed(NOT_PD[bad], oracle.unpack(s))
                                    for s in protos.sigmas], rtol=1e-12)
    else:
        with pytest.raises(InvalidObservation, match="positive definite"):
            distance_stack(x, protos, kind)


@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0),
       log_ratio=st.floats(-1.0, 1.0), looks=st.floats(3.0, 20.0))
@settings(max_examples=50, deadline=None)
def test_distance_stack_self_distance_and_symmetry(seed, log_scale, log_ratio, looks):
    # two prototypes x, y scored as pixels: the diagonal of the stack holds
    # d(x, x) and d(y, y), the off-diagonal d(x, y) and d(y, x)
    rng = np.random.default_rng(seed)
    sigmas = np.stack([make_hpd(rng, scale=10.0 ** log_scale),
                       make_hpd(rng, scale=10.0 ** (log_scale + log_ratio))])
    protos = PrototypeSet(sigmas=oracle.pack(sigmas), shared_looks=looks)
    for kind in KINDS:
        stack = distance_stack(protos.sigmas, protos, kind)
        if kind == "ED":
            assert np.all(np.diag(stack) == 0.0)
        else:
            assert np.all((np.diag(stack) >= 0.0) & (np.diag(stack) <= 1e-10)), kind
        assert stack[0, 1] == pytest.approx(stack[1, 0], rel=1e-9), kind


def _split_results(field, protos, tmp_path):
    """Everything that runs in pixel or row blocks, on a fresh copy of field."""
    field = CovarianceField(all_rows(field))
    pd = hm.is_positive_definite(all_rows(field))
    x = all_rows(field)[pd]
    with pytest.warns(NonPositiveDefinitePixelWarning) as caught:  # one per classify and render
        maps = {rule: classify_image(field, protos, rule).labels for rule in RULES}
        rgb = render_rgb(field, protos, tmp_path / "img.ppm")
    want = [(45, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)])] * (len(RULES) + 1)
    assert [(w.message.count, w.message.first) for w in caught
            if w.category is NonPositiveDefinitePixelWarning] == want
    return {"pd_mask": pd, **maps, "rgb": rgb,
            **{f"{kind} stack": distance_stack(x, protos, kind) for kind in STACK_KINDS},
            "KL+OW component-major stack": distance_stack(np.asfortranarray(x), protos,
                                                          "KL", weighted=True)}


# few distinct values, so that ties are common; NaN and the infinities anywhere
_SCORES = st.sampled_from([0.0, 1.0, 2.0, -3.5, np.inf, -np.inf, np.nan]) | st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(2, 12), n=st.integers(1, 30), class_major=st.booleans())
def test_nearest_class_is_argmin_and_the_two_smallest(data, m, n, class_major):
    # the chain over the class rows gives np.argmin's labels, NaN rows
    # included, from C- or F-ordered class-major scores; without a NaN, the
    # nearest and the runner-up are the two smallest scores
    table = data.draw(hnp.arrays(np.float64, (n, m), elements=_SCORES))
    scores = np.ascontiguousarray(table.T) if class_major else table.T
    labels, nearest, runner_up = _nearest(scores)
    np.testing.assert_array_equal(labels, np.argmin(table, axis=-1))
    clean = ~np.isnan(table).any(axis=-1)
    assert np.isnan(nearest[~clean]).all()
    two_smallest = np.sort(table[clean], axis=-1)[:, :2]
    np.testing.assert_array_equal(nearest[clean], two_smallest[:, 0])
    np.testing.assert_array_equal(runner_up[clean], two_smallest[:, 1])


# the 1e308 I pixel overflows its determinant and scores NaN (its render colour too)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("cpus", [1, 3])
def test_results_do_not_depend_on_blocks_or_workers(rng, monkeypatch, tmp_path, block, cpus):
    # every test image is smaller than one block of BLOCK_PIXELS pixels, so tiny
    # blocks and more workers than cores force the many-block and many-thread
    # paths; they must give the bits of one unblocked single-thread pass.  Rows
    # 0 to 3, a whole block at every size, are not positive definite, so their
    # blocks gather no pixel; the others gather the rest with their determinants.
    protos = _protos(rng, weights=np.array([0.5, 0.3, 0.2]))
    data = sample(WishartModel(protos.sigmas[1], 4), rng, size=(13, 11))
    data[:4] *= -1.0
    data[7, 5] = oracle.pack(np.diag([1.0, -1.0, 1.0]))  # not positive definite
    data[10, 3] = oracle.pack(1e308 * ID)  # positive definite, det = inf, inverse NaN
    field = CovarianceField(data)
    monkeypatch.setattr(fields, "BLOCK_PIXELS", 10**9)
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)
    expected = _split_results(field, protos, tmp_path)
    monkeypatch.setattr(fields, "BLOCK_PIXELS", block)
    monkeypatch.setattr(fields, "_usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a thread switch every microsecond
    try:
        got = _split_results(field, protos, tmp_path)
    finally:
        sys.setswitchinterval(interval)
    assert not got["pd_mask"][7, 5] and not got["pd_mask"][:4].any()
    huge = np.count_nonzero(got["pd_mask"].ravel()[:10 * 11 + 3])  # its row of the stacks
    assert got["pd_mask"][10, 3] and np.isnan(got["KL stack"][huge]).all()
    for rule in RULES:
        assert got[rule][7, 5] == 0 and not got[rule][:4].any(), rule
        assert np.all(np.delete(got[rule][4:].ravel(), 3 * 11 + 5) > 0), rule
    for name, value in expected.items():
        assert np.array_equal(got[name], value, equal_nan=name.endswith("stack")), name


def test_classify_image_raises_a_later_row_block_error(rng, monkeypatch):
    # a PD pixel with |det| < DET_TOL in the last row, which a pool thread
    # scores: its exception keeps its type, and no pool thread outlives the call
    protos = _protos(rng)
    data = sample(WishartModel(protos.sigmas[0], 4), rng, size=(6, 5))
    data[5, 4] = oracle.pack(1e-101 * ID)
    field = CovarianceField(data)
    assert hm.is_positive_definite(all_rows(field))[5, 4]
    monkeypatch.setattr(fields, "BLOCK_PIXELS", 5)  # one row per block
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
    failed_in = []
    inverse = hm._inverse

    def recording(p, det=None):
        try:
            return inverse(p, det)
        except SingularMatrix:
            failed_in.append(threading.current_thread())
            raise

    monkeypatch.setattr(hm, "_inverse", recording)
    before = threading.active_count()
    with pytest.raises(SingularMatrix, match="det"):
        classify_image(field, protos, "KL")
    assert threading.active_count() == before
    assert len(failed_in) == 1 and failed_in[0] is not threading.main_thread()
