"""File formats: covariance images, class maps, ROIs, models, PPM renders."""

import numpy as np
import pytest

from polsardr import dataio
from polsardr import hermitian as hm
from polsardr.classify import PrototypeSet
from polsardr.errors import (MalformedHeader, MalformedRoi,
                             NonPositiveDefinitePixelWarning, OutOfBounds,
                             SizeMismatch)
from polsardr.fields import ClassMap, CovarianceField, RoiSet
from polsardr.wishart import WishartModel, sample

from conftest import make_hpd


def _random_field(rng, h=6, w=5, looks=4.0):
    data = sample(WishartModel(make_hpd(rng), 4), rng, size=(h, w))
    return CovarianceField(hm.to_packed(data), looks=looks)


def test_covariance_roundtrip_f64(tmp_path, rng):
    field = _random_field(rng)
    dataio.write_covariance_image(field, tmp_path / "a")
    back = dataio.read_covariance_image(tmp_path / "a")
    np.testing.assert_array_equal(back.data, field.data)
    assert back.looks == 4.0


def test_covariance_roundtrip_f32(tmp_path, rng):
    field = _random_field(rng)
    dataio.write_covariance_image(field, tmp_path / "a", dtype="f32")
    back = dataio.read_covariance_image(tmp_path / "a")
    np.testing.assert_allclose(back.data, field.data, rtol=1e-6, atol=1e-6)


def test_single_pixel_layout(tmp_path):
    field = CovarianceField(hm.to_packed(np.eye(3, dtype=complex))[None, None])
    dataio.write_covariance_image(field, tmp_path / "i")
    raw = np.fromfile(tmp_path / "i.dat", dtype="<f8")
    np.testing.assert_array_equal(raw, [1, 1, 1, 0, 0, 0, 0, 0, 0])
    header = (tmp_path / "i.hdr").read_text()
    assert "width: 1" in header and "dtype: f64" in header and "byte_order: little" in header


def test_truncated_data_raises(tmp_path, rng):
    field = _random_field(rng)
    dataio.write_covariance_image(field, tmp_path / "a")
    raw = (tmp_path / "a.dat").read_bytes()
    (tmp_path / "a.dat").write_bytes(raw[:-16])
    with pytest.raises(SizeMismatch):
        dataio.read_covariance_image(tmp_path / "a")


@pytest.mark.parametrize("header", [
    "height: 4\ndtype: f64\nbyte_order: little\n",          # missing width
    "width: 4\nheight: 4\ndtype: f16\nbyte_order: little\n",  # unknown dtype
    "width: 4\nheight: 4\ndtype: f64\nbyte_order: big\n",     # wrong endianness
    "width: x\nheight: 4\ndtype: f64\n",                      # unparsable int
])
def test_malformed_headers(tmp_path, header):
    (tmp_path / "bad.hdr").write_text(header)
    (tmp_path / "bad.dat").write_bytes(b"")
    with pytest.raises(MalformedHeader):
        dataio.read_covariance_image(tmp_path / "bad")


def test_non_pd_pixels_warn_with_coordinates(tmp_path, rng):
    field = _random_field(rng, 3, 3)
    field.data[1, 2] = hm.to_packed(np.diag([1.0, -2.0, 1.0]))
    dataio.write_covariance_image(field, tmp_path / "a")
    with pytest.warns(NonPositiveDefinitePixelWarning) as rec:
        back = dataio.read_covariance_image(tmp_path / "a")
    assert rec[0].message.count == 1
    assert rec[0].message.first == [(1, 2)]
    assert back.data.shape == (3, 3, 9)


def test_non_pd_warning_counts_every_pixel_and_lists_the_first_five(tmp_path, rng):
    field = _random_field(rng, 4, 6)
    bad = [(0, 5), (1, 0), (1, 3), (2, 2), (3, 0), (3, 1), (3, 5)]
    for y, x in bad:
        field.data[y, x] = hm.to_packed(np.diag([-1.0, 1.0, 1.0]))
    dataio.write_covariance_image(field, tmp_path / "a")
    with pytest.warns(NonPositiveDefinitePixelWarning, match="7 of 24 pixels") as rec:
        back = dataio.read_covariance_image(tmp_path / "a")
    assert rec[0].message.count == 7
    assert rec[0].message.first == bad[:5]
    assert int((~back.pd_mask).sum()) == 7


def test_classmap_roundtrip(tmp_path, rng):
    labels = rng.integers(0, 4, size=(7, 9)).astype(np.uint8)
    labels[0, 0] = 0  # the unclassified sentinel survives
    cmap = ClassMap(labels)
    dataio.write_classmap(cmap, tmp_path / "m")
    back = dataio.read_classmap(tmp_path / "m")
    np.testing.assert_array_equal(back.labels, labels)


def test_classmap_size_mismatch(tmp_path, rng):
    cmap = ClassMap(rng.integers(0, 3, size=(4, 4)).astype(np.uint8))
    dataio.write_classmap(cmap, tmp_path / "m")
    (tmp_path / "m.hdr").write_text("width: 5\nheight: 4\ndtype: u8\nbyte_order: little\n")
    with pytest.raises(SizeMismatch):
        dataio.read_classmap(tmp_path / "m")


def test_roi_parse_and_bounds(tmp_path):
    path = tmp_path / "roi.txt"
    path.write_text("# comment\n1 0 0 9 9\n1 20 20 29 29\n2 5 5 14 6\n")
    rois = dataio.read_roi(path, width=30, height=30)
    assert rois.classes == [1, 2]
    assert len(rois.rects[1]) == 2
    with pytest.raises(OutOfBounds):
        dataio.read_roi(path, width=25, height=30)
    (tmp_path / "bad.txt").write_text("1 0 0 9\n")
    with pytest.raises(MalformedRoi):
        dataio.read_roi(tmp_path / "bad.txt")
    (tmp_path / "bad2.txt").write_text("1 9 0 0 9\n")
    with pytest.raises(MalformedRoi):
        dataio.read_roi(tmp_path / "bad2.txt")


def test_roi_write_read_roundtrip(tmp_path):
    rois = RoiSet({1: [(0, 0, 3, 3)], 2: [(5, 5, 9, 6), (0, 8, 2, 9)]})
    dataio.write_roi(rois, tmp_path / "r.txt")
    back = dataio.read_roi(tmp_path / "r.txt")
    assert back.rects == rois.rects


def test_split_sizes_and_disjointness():
    rois = RoiSet({1: [(0, 0, 9, 9)], 2: [(0, 0, 100, 0)]})  # 100 and 101 pixels
    split = dataio.split_roi(rois, seed=3)
    assert len(split.train[1]) == 50 and len(split.test[1]) == 50
    assert len(split.train[2]) == 51 and len(split.test[2]) == 50  # odd: train +1
    all_train = {tuple(p) for p in split.train[1]}
    all_test = {tuple(p) for p in split.test[1]}
    assert not (all_train & all_test)
    assert all_train | all_test == {(y, x) for y in range(10) for x in range(10)}


def test_split_deterministic_and_seed_sensitive():
    rois = RoiSet({1: [(0, 0, 9, 9)]})
    a = dataio.split_roi(rois, seed=7)
    b = dataio.split_roi(rois, seed=7)
    c = dataio.split_roi(rois, seed=8)
    np.testing.assert_array_equal(a.train[1], b.train[1])
    assert {tuple(p) for p in a.train[1]} != {tuple(p) for p in c.train[1]}
    assert len(c.train[1]) == len(a.train[1])


def test_split_invariant_under_rectangle_decomposition():
    # same pixel set, different (even overlapping) rectangle covers
    whole = RoiSet({1: [(0, 0, 9, 9)]})
    pieces = RoiSet({1: [(0, 0, 9, 4), (0, 5, 9, 9), (2, 2, 7, 7)]})
    a = dataio.split_roi(whole, seed=5)
    b = dataio.split_roi(pieces, seed=5)
    np.testing.assert_array_equal(a.train[1], b.train[1])
    np.testing.assert_array_equal(a.test[1], b.test[1])


def test_model_file_roundtrip(tmp_path, rng):
    protos = PrototypeSet(
        sigmas=hm.to_packed(np.stack([make_hpd(rng), make_hpd(rng), make_hpd(rng)])),
        shared_looks=4.0,
        weights=np.array([0.2, 0.5, 0.3]),
        class_looks=np.array([3.9, 4.1, 4.25]),
    )
    dataio.write_model(protos, tmp_path / "model.txt")
    back = dataio.read_model(tmp_path / "model.txt")
    np.testing.assert_array_equal(back.sigmas, protos.sigmas)
    np.testing.assert_array_equal(back.weights, protos.weights)
    np.testing.assert_array_equal(back.class_looks, protos.class_looks)
    assert back.shared_looks == 4.0


def test_model_file_incomplete(tmp_path):
    (tmp_path / "m.txt").write_text("classes: 2\nshared_looks: 4.0\n")
    with pytest.raises(MalformedHeader):
        dataio.read_model(tmp_path / "m.txt")


def test_ppm_roundtrip(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
    dataio.write_ppm(tmp_path / "x.ppm", rgb)
    np.testing.assert_array_equal(dataio.read_ppm(tmp_path / "x.ppm"), rgb)
    header = (tmp_path / "x.ppm").read_bytes()[:11]
    assert header == b"P6\n4 5\n255\n"


def test_render_pixel_at_prototype_gets_its_color(tmp_path, rng):
    protos = PrototypeSet(sigmas=hm.to_packed(np.stack([make_hpd(rng), make_hpd(rng, scale=3)])),
                          shared_looks=4.0)
    data = protos.sigmas[None]
    palette = dataio.default_palette(2)
    rgb = dataio.render_rgb(CovarianceField(data), protos, tmp_path / "r.ppm")
    np.testing.assert_array_equal(rgb[0, 0], palette[0])
    np.testing.assert_array_equal(rgb[0, 1], palette[1])


def test_render_equidistant_pixel_gets_mean_color(tmp_path):
    s1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    s2 = np.diag([2.0, 1.0, 1.0]).astype(complex)
    protos = PrototypeSet(sigmas=hm.to_packed(np.stack([s1, s2])), shared_looks=4.0)
    x = np.diag([1.5, 1.0, 1.5]).astype(complex)  # equidistant by symmetry
    palette = dataio.default_palette(2)
    rgb = dataio.render_rgb(CovarianceField(hm.to_packed(x)[None, None]), protos,
                            tmp_path / "e.ppm")
    np.testing.assert_array_equal(rgb[0, 0], np.rint(palette.mean(axis=0)))


def test_render_classmap_flat_colors(tmp_path):
    cmap = ClassMap(np.array([[0, 1], [2, 1]], dtype=np.uint8))
    palette = dataio.default_palette(2)
    rgb = dataio.render_classmap(cmap, tmp_path / "c.ppm", n_classes=2)
    np.testing.assert_array_equal(rgb[0, 0], [0, 0, 0])  # sentinel is black
    np.testing.assert_array_equal(rgb[0, 1], palette[0])
    np.testing.assert_array_equal(rgb[1, 0], palette[1])
