"""Phantom generation: geometry, determinism, statistics."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from polsardr.distances import kl_distance
from polsardr.errors import InvalidSpec
from polsardr.fields import ClassMap
from polsardr.phantom import (DEFAULT_SIGMAS, PhantomSpec, generate_phantom,
                              inscribed_rois, read_phantom_config, region_map)
from polsardr import hermitian as hm
from polsardr import phantom, wishart

import oracle
from conftest import all_rows


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
    s = DEFAULT_SIGMAS
    assert kl_distance(s[1], s[2], 4.0) == pytest.approx(3.0, abs=0.1)
    assert kl_distance(s[0], s[1], 4.0) > 30
    assert kl_distance(s[0], s[2], 4.0) > 30
    assert np.all(hm.is_positive_definite(DEFAULT_SIGMAS))


def test_default_sigmas_equal_their_derivation_bit_for_bit():
    # the literal against the derivation written above it in phantom.py: the
    # Cholesky factor of class 1 scaled along its columns, made exactly Hermitian
    base = np.array([0.42, 0.018, 0.24, 0.03, 0.012, 0.28, 0.06, 0.01, 0.005])
    w = hm.cholesky3(base)
    scale_2 = np.array([14.0, 11.0, 8.0])
    scale_3 = scale_2 * 0.9265972909343432 * np.array([3.0, 0.6, 1.0])
    derived = np.stack([base] + [oracle.pack(oracle.hermitian_part(w @ np.diag(s) @ w.conj().T))
                                 for s in (scale_2, scale_3)])
    np.testing.assert_array_equal(DEFAULT_SIGMAS.view(np.uint64), derived.view(np.uint64))


def test_region_map_partitions():
    spec = PhantomSpec(width=80, height=60)
    labels = region_map(spec)
    assert labels.shape == (60, 80)
    assert set(np.unique(labels)) == {1, 2, 3}


def _mgrid_region_map(width, height, regions):
    """Labels of background, band and disk regions, each mask computed on the
    full (H, W) coordinate grids of np.mgrid."""
    ny, nx = np.mgrid[0:height, 0:width]
    nx = (nx + 0.5) / width
    ny = (ny + 0.5) / height
    labels = np.zeros((height, width), dtype=np.uint8)
    for idx, region in enumerate(regions):
        kind, *params = region.split()
        a, b, c = map(float, params or (0, 0, 0))
        mask = {"background": np.ones((height, width), dtype=bool),
                "band": np.abs(ny - (a * nx + b)) <= c,
                "disk": (nx - a) ** 2 + (ny - b) ** 2 <= c**2}[kind]
        labels[mask] = idx + 1
    return labels


def _tenths(lo, hi):
    return st.integers(lo, hi).map(lambda k: k / 10)


# tenths put many pixel centers (j + 0.5) / n on a boundary in exact arithmetic,
# where the rounding of each operation decides the label
_region = st.one_of(
    st.builds(lambda s, i, h: f"band {s!r} {i!r} {h!r}",
              _tenths(-10, 10), _tenths(-5, 10), _tenths(0, 5)),
    st.builds(lambda x, y, r: f"disk {x!r} {y!r} {r!r}",
              _tenths(-5, 15), _tenths(-5, 15), _tenths(0, 10)))


@given(width=st.sampled_from([1, 5, 10, 20, 40]), height=st.sampled_from([1, 5, 10, 20, 40]),
       regions=st.lists(_region, max_size=4))
@settings(max_examples=200, deadline=None)
def test_region_map_is_the_full_grid_map(width, height, regions):
    # the open grids broadcast each mask to (H, W) with the same scalar
    # operations per pixel, so every label is the full grids' label
    regions = ("background", *regions)
    spec = PhantomSpec(width=width, height=height, regions=regions,
                       sigmas=np.repeat(DEFAULT_SIGMAS[:1], len(regions), axis=0))
    labels = region_map(spec)
    assert labels.dtype == np.uint8
    np.testing.assert_array_equal(labels, _mgrid_region_map(width, height, regions))


def test_generate_deterministic():
    spec = PhantomSpec(width=24, height=16, seed=5)
    f1, t1 = generate_phantom(spec)
    f2, t2 = generate_phantom(PhantomSpec(width=24, height=16, seed=5))
    np.testing.assert_array_equal(all_rows(f1), all_rows(f2))
    np.testing.assert_array_equal(t1.labels, t2.labels)


# Six classes on an odd width: batches of 4,096 px are 53 rows of 77, so the
# batch edge at row 53 cuts through the runs of classes 1 and 4.
SIX_CLASSES = dict(width=77, height=61, looks=5, seed=314,
                   sigmas=np.vstack([DEFAULT_SIGMAS, 0.5 * DEFAULT_SIGMAS[::-1]]),
                   regions=("background", "band 0.50 0.02 0.13", "disk 0.70 0.72 0.15",
                            "band -0.80 0.90 0.08", "disk 0.25 0.30 0.12",
                            "disk 0.50 0.50 0.05"))
# SHA-256 of the field bytes as the per-row complex sampler wrote them.
PHANTOM_DIGESTS = [
    (dict(width=96, height=96),
     "eb125b6a3fd65228948a5aec79042d798ae3b30983f9383bd0080d58fc78d4a7"),
    (SIX_CLASSES, "b1523639ffd5483e541a7d4962570976d98d53bd800288e7da46bfd285796d3b"),
]


@pytest.mark.parametrize("kwargs, digest", PHANTOM_DIGESTS, ids=["default", "six-classes"])
def test_phantom_bytes_are_pinned(kwargs, digest):
    field, _ = generate_phantom(PhantomSpec(**kwargs))
    assert hashlib.sha256(all_rows(field).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("kwargs, digest", PHANTOM_DIGESTS, ids=["default", "six-classes"])
def test_phantom_bytes_do_not_depend_on_the_batch(monkeypatch, kwargs, digest):
    spec = PhantomSpec(**kwargs)
    for batch in (spec.width, spec.width * spec.height):  # one row; the whole image
        monkeypatch.setattr(phantom, "BATCH_PIXELS", batch)
        field, _ = generate_phantom(spec)
        assert hashlib.sha256(all_rows(field).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("kwargs, digest", PHANTOM_DIGESTS, ids=["default", "six-classes"])
def test_phantom_bytes_do_not_depend_on_the_gemm_split(monkeypatch, kwargs, digest):
    # 10**9 rows: one GEMM per class and batch, which OpenBLAS runs on its threads
    for rows in (1, 7, 10**9):
        monkeypatch.setattr(wishart, "GEMM_ROWS", rows)
        field, _ = generate_phantom(PhantomSpec(**kwargs))
        assert hashlib.sha256(all_rows(field).tobytes()).hexdigest() == digest


def test_seed_changes_field_not_truth():
    a, ta = generate_phantom(PhantomSpec(width=24, height=16, seed=1))
    b, tb = generate_phantom(PhantomSpec(width=24, height=16, seed=2))
    np.testing.assert_array_equal(ta.labels, tb.labels)
    assert np.abs(oracle.unpack(all_rows(a)) - oracle.unpack(all_rows(b))).max() > 1e-3


def test_single_class_spec():
    sigma = DEFAULT_SIGMAS[:1]
    spec = PhantomSpec(width=100, height=100, seed=3, sigmas=sigma,
                       regions=("background",))
    field, truth = generate_phantom(spec)
    assert np.all(truth.labels == 1)
    data = oracle.unpack(all_rows(field)).reshape(-1, 3, 3)
    mean = data.mean(axis=0)
    se = data.std(axis=0) / 100.0
    assert np.all(np.abs(mean - oracle.unpack(sigma[0])) <= 5 * se + 1e-12)


def test_every_pixel_positive_definite():
    field, _ = generate_phantom(PhantomSpec(width=40, height=40, seed=9))
    assert np.all(hm.is_positive_definite(all_rows(field)))


def test_per_region_means_converge():
    spec = PhantomSpec(width=150, height=150, seed=11)
    field, truth = generate_phantom(spec)
    for cls in (1, 2):  # background and band both exceed 4000 pixels
        pts = oracle.unpack(all_rows(field)[truth.labels == cls])
        mean = pts.mean(axis=0)
        se = pts.std(axis=0) / np.sqrt(pts.shape[0])
        assert np.all(np.abs(mean - oracle.unpack(spec.sigmas[cls - 1])) <= 5 * se + 1e-12)


def test_inscribed_rois_sit_inside_regions():
    spec = PhantomSpec(width=150, height=150, seed=7)
    _, truth = generate_phantom(spec)
    margin = phantom.ROI_MARGIN
    rois = inscribed_rois(truth)
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


def _deepest(mask):
    """(depth, y, x) of scipy's chessboard distance transform, the border counting as
    boundary: the largest distance and its first pixel in row-major order."""
    dist = ndimage.distance_transform_cdt(np.pad(mask, 1), metric="chessboard")[1:-1, 1:-1]
    y, x = np.unravel_index(int(np.argmax(dist)), dist.shape)
    return int(dist.max()), int(y), int(x)


def _assert_rois_sit_at_scipys_deepest_pixel(labels, monkeypatch):
    # no margin, cap or minimum side: each square then shows the depth and the center
    monkeypatch.setattr(phantom, "ROI_MARGIN", 0)
    monkeypatch.setattr(phantom, "ROI_MAX_SIDE", 2 * max(labels.shape) + 1)
    monkeypatch.setattr(phantom, "ROI_MIN_SIDE", 1)
    rois = inscribed_rois(ClassMap(labels))
    for cls in range(1, int(labels.max()) + 1):
        depth, y, x = _deepest(labels == cls)
        half = depth - 1
        assert rois.rects[cls] == [(x - half, y - half, x + half, y + half)], cls


@given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 40), width=st.integers(1, 40),
       share=st.floats(0.3, 1.0))
@settings(max_examples=100, deadline=None)
def test_inscribed_rois_center_is_scipys_deepest_pixel(seed, height, width, share):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random((height, width)) < share, 1, 2).astype(np.uint8)
    labels.flat[0] = 1  # class 1 is never empty; class 2 may be
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_rois_sit_at_scipys_deepest_pixel(labels, monkeypatch)


@pytest.mark.parametrize("side", [61, 150, 301])
@pytest.mark.parametrize("classes", [{}, SIX_CLASSES], ids=["default", "six-classes"])
def test_inscribed_rois_center_is_scipys_deepest_pixel_on_phantoms(side, classes,
                                                                   monkeypatch):
    spec = PhantomSpec(**{**classes, "width": side, "height": side})
    _assert_rois_sit_at_scipys_deepest_pixel(region_map(spec), monkeypatch)


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
    # the complex (M, 3, 3) layout is refused; the sampler factors each packed
    # class covariance as it stands
    with pytest.raises(InvalidSpec, match="packed"):
        PhantomSpec(sigmas=oracle.unpack(DEFAULT_SIGMAS))
    for s in PhantomSpec().sigmas:
        w = hm.cholesky3(s)
        np.testing.assert_allclose(w @ w.conj().T, oracle.unpack(s), rtol=1e-13, atol=1e-16)


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
    fit_weights(field, split, protos, "KL", 1.0)
    kl = accuracy_report("KL", classify_image(field, protos, "KL"), split)
    evolved, _ = evolve(field, protos, EvolutionParams(iterations=25), "KL")
    dr = accuracy_report("DR", classify_image(evolved, protos, "KL+OW"), split)
    assert kl.overall < dr.overall
