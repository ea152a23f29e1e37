"""Phantom generation: geometry, determinism, statistics."""

import re

import numpy as np
import pytest

from polsardr.distances import kl_distance
from polsardr.errors import InvalidSpec
from polsardr.phantom import (DEFAULT_SIGMAS, PhantomSpec, generate_phantom,
                              inscribed_rois, read_phantom_config, region_map)
from polsardr import hermitian as hm


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        PhantomSpec(looks=2)
    with pytest.raises(InvalidSpec):
        PhantomSpec(looks=4.5)
    with pytest.raises(InvalidSpec):
        PhantomSpec(width=0)
    with pytest.raises(InvalidSpec):
        PhantomSpec(seed=-1)
    with pytest.raises(InvalidSpec):
        PhantomSpec(regions=("background", "band 0.5 0.1 0.1"))  # 2 regions, 3 classes
    with pytest.raises(InvalidSpec):
        PhantomSpec(regions=("background", "blob 0.1", "disk 0.7 0.7 0.1"))
    with pytest.raises(InvalidSpec):
        # no background: coverage fails
        spec = PhantomSpec(regions=("disk 0.2 0.2 0.1", "band 0.5 0.1 0.1",
                                    "disk 0.7 0.7 0.1"))
        region_map(spec)


def test_default_separations():
    # configuration regression: weak pair ~3, class 1 very strongly separated
    s = hm.from_packed(DEFAULT_SIGMAS)
    assert kl_distance(s[1], s[2], 4.0) == pytest.approx(3.0, abs=0.1)
    assert kl_distance(s[0], s[1], 4.0) > 30
    assert kl_distance(s[0], s[2], 4.0) > 30
    assert np.all(hm.is_positive_definite(DEFAULT_SIGMAS))


def test_region_map_partitions():
    spec = PhantomSpec(width=80, height=60)
    labels = region_map(spec)
    assert labels.shape == (60, 80)
    assert set(np.unique(labels)) == {1, 2, 3}


def test_generate_deterministic():
    spec = PhantomSpec(width=24, height=16, seed=5)
    f1, t1 = generate_phantom(spec)
    f2, t2 = generate_phantom(PhantomSpec(width=24, height=16, seed=5))
    np.testing.assert_array_equal(f1.data, f2.data)
    np.testing.assert_array_equal(t1.labels, t2.labels)


def test_seed_changes_field_not_truth():
    a, ta = generate_phantom(PhantomSpec(width=24, height=16, seed=1))
    b, tb = generate_phantom(PhantomSpec(width=24, height=16, seed=2))
    np.testing.assert_array_equal(ta.labels, tb.labels)
    assert np.abs(hm.from_packed(a.data) - hm.from_packed(b.data)).max() > 1e-3


def test_single_class_spec():
    sigma = DEFAULT_SIGMAS[:1]
    spec = PhantomSpec(width=100, height=100, seed=3, sigmas=sigma,
                       regions=("background",))
    field, truth = generate_phantom(spec)
    assert np.all(truth.labels == 1)
    data = hm.from_packed(field.data).reshape(-1, 3, 3)
    mean = data.mean(axis=0)
    se = data.std(axis=0) / 100.0
    assert np.all(np.abs(mean - hm.from_packed(sigma[0])) <= 5 * se + 1e-12)


def test_every_pixel_positive_definite():
    field, _ = generate_phantom(PhantomSpec(width=40, height=40, seed=9))
    assert np.all(hm.is_positive_definite(field.data))


def test_per_region_means_converge():
    spec = PhantomSpec(width=150, height=150, seed=11)
    field, truth = generate_phantom(spec)
    for cls in (1, 2):  # background and band both exceed 4000 pixels
        pts = hm.from_packed(field.data[truth.labels == cls])
        mean = pts.mean(axis=0)
        se = pts.std(axis=0) / np.sqrt(pts.shape[0])
        assert np.all(np.abs(mean - hm.from_packed(spec.sigmas[cls - 1])) <= 5 * se + 1e-12)


def test_inscribed_rois_sit_inside_regions():
    spec = PhantomSpec(width=150, height=150, seed=7)
    _, truth = generate_phantom(spec)
    margin = 3
    rois = inscribed_rois(truth, margin=margin)
    assert set(rois.classes) == {1, 2, 3}
    for cls in rois.classes:
        (x0, y0, x1, y1), = rois.rects[cls]
        assert 0 <= x0 - margin and x1 + margin < 150
        assert 0 <= y0 - margin and y1 + margin < 150
        patch = truth.labels[y0 - margin:y1 + 1 + margin, x0 - margin:x1 + 1 + margin]
        assert np.all(patch == cls)


def test_inscribed_rois_reject_thin_regions():
    labels = np.ones((40, 40), dtype=np.uint8)
    labels[:, 20] = 2  # one-pixel-wide stripe
    from polsardr.fields import ClassMap
    with pytest.raises(InvalidSpec):
        inscribed_rois(ClassMap(labels))


def test_phantom_config_roundtrip(tmp_path):
    cfg = tmp_path / "phantom.cfg"
    lines = ["width: 64", "height: 48", "looks: 5", "seed: 99"]
    for m in range(3):
        lines.append(f"class{m + 1}.cov: " + " ".join(repr(float(v)) for v in DEFAULT_SIGMAS[m]))
    lines += ["class1.region: background",
              "class2.region: band 0.4 0.1 0.12",
              "class3.region: disk 0.7 0.7 0.12",
              "# trailing comment"]
    cfg.write_text("\n".join(lines) + "\n")
    spec = read_phantom_config(cfg)
    assert (spec.width, spec.height, spec.looks, spec.seed) == (64, 48, 5, 99)
    np.testing.assert_allclose(spec.sigmas, DEFAULT_SIGMAS, atol=1e-15)
    assert spec.regions[1] == "band 0.4 0.1 0.12"


def test_phantom_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("width: 10\nbogus: 3\n")
    with pytest.raises(InvalidSpec):
        read_phantom_config(cfg)


@pytest.mark.parametrize("line", ["width: abc", "class1.cov: 1 1 1 0 0 0 0 0 x",
                                  "classX.cov: 1 1 1 0 0 0 0 0 0", "classX.region: background"])
def test_phantom_config_names_the_line_of_an_unparsable_value(tmp_path, line):
    # every conversion error is an InvalidSpec that names path:lineno, as
    # ExperimentConfig.from_file does
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"height: 10\n{line}\n")
    with pytest.raises(InvalidSpec, match=re.escape(f"{cfg}:2: ")):
        read_phantom_config(cfg)


def test_phantom_spec_takes_packed_sigmas():
    # the complex (M, 3, 3) layout is refused; the sampler gets each packed
    # class covariance back as the complex matrix it was packed from
    with pytest.raises(InvalidSpec, match="packed"):
        PhantomSpec(sigmas=hm.from_packed(DEFAULT_SIGMAS))
    for model, s in zip(PhantomSpec().models(), DEFAULT_SIGMAS):
        np.testing.assert_array_equal(hm.to_packed(model.sigma), s)


def test_phantom_config_requires_complete_classes(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("class1.region: background\n")
    with pytest.raises(InvalidSpec):
        read_phantom_config(cfg)


def test_default_phantom_classification_patterns():
    # desk-scale integration: the maximum-likelihood row shows class 1 perfect
    # and class 3 worst, and the evolved weighted-KL map beats plain KL
    from polsardr.cli import (accuracy_report, fit_weights,
                              train_prototypes)
    from polsardr.classify import classify_image
    from polsardr.dataio import split_roi
    from polsardr.evolution import EvolutionParams, evolve

    spec = PhantomSpec(width=150, height=150, looks=4, seed=1)
    field, truth = generate_phantom(spec)
    split = split_roi(inscribed_rois(truth), 42)
    protos = train_prototypes(field, split, looks=4.0)
    ml = accuracy_report("ML", classify_image(field, protos, "ML"), split)
    assert ml.per_class[1] == 100.0
    assert ml.per_class[3] <= min(ml.per_class[1], ml.per_class[2])
    fit_weights(field, split, protos)
    kl = accuracy_report("KL", classify_image(field, protos, "KL"), split)
    evolved, _ = evolve(field, protos, EvolutionParams(iterations=25))
    dr = accuracy_report("DR", classify_image(evolved, protos, "KL+OW"), split)
    assert kl.overall < dr.overall
