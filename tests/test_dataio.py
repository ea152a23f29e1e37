"""File formats: covariance images, class maps, ROIs, models, PPM renders."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsardr import dataio, fields
from polsardr import hermitian as hm
from polsardr.classify import RULES, PrototypeSet, classify_image
from polsardr.evolution import EvolutionParams, evolve
from polsardr.errors import (MalformedHeader, MalformedRoi,
                             NonPositiveDefinitePixelWarning, OutOfBounds,
                             SizeMismatch)
from polsardr.fields import ClassMap, CovarianceField, RoiSet
from polsardr.phantom import PhantomSpec, generate_phantom
from polsardr.wishart import WishartModel, sample

import oracle
from conftest import all_rows, packed_hpd, read_ppm, traced_peak


def _random_field(rng, h=6, w=5, looks=4.0):
    model = WishartModel(packed_hpd(rng), 4)
    return CovarianceField(sample(model, rng, size=(h, w)), looks=looks)


def test_covariance_roundtrip_f64(tmp_path, rng):
    field = _random_field(rng)
    dataio.write_covariance_image(field, tmp_path / "a")
    back = dataio.read_covariance_image(tmp_path / "a")
    np.testing.assert_array_equal(all_rows(back), all_rows(field))
    assert back.looks == 4.0


def test_covariance_roundtrip_f32(tmp_path, rng):
    # the program writes f64 only; an f32 image made elsewhere reads as float64
    field = _random_field(rng)
    dataio.write_covariance_image(field, tmp_path / "a")
    header = tmp_path / "a.hdr"
    header.write_text(header.read_text().replace("dtype: f64", "dtype: f32"))
    all_rows(field).astype("<f4").tofile(tmp_path / "a.dat")
    back = dataio.read_covariance_image(tmp_path / "a")
    np.testing.assert_allclose(all_rows(back), all_rows(field), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("block", [10, 35, 10**6])  # 2-row chunks, 7, and one chunk
def test_write_is_chunked_and_writes_the_bytes_of_one_contiguous_copy(tmp_path, rng,
                                                                       monkeypatch, block):
    # a strided field (the planes view that evolve returns) and a read f32
    # field write the bytes of one contiguous f64 copy; the read field's
    # pixels are read in chunks through rows and never loaded whole
    monkeypatch.setattr(fields, "BLOCK_PIXELS", block)
    data = all_rows(_random_field(rng, 7, 5))
    planes = np.moveaxis(data, -1, 0).copy()
    strided = CovarianceField(np.moveaxis(planes, 0, -1), looks=4.0)
    assert not all_rows(strided).flags.c_contiguous
    dataio.write_covariance_image(strided, tmp_path / "s")
    np.ascontiguousarray(all_rows(strided), "<f8").tofile(tmp_path / "want_s.dat")
    assert (tmp_path / "s.dat").read_bytes() == (tmp_path / "want_s.dat").read_bytes()

    dataio.write_covariance_image(strided, tmp_path / "f")
    header = tmp_path / "f.hdr"
    header.write_text(header.read_text().replace("dtype: f64", "dtype: f32"))
    data.astype("<f4").tofile(tmp_path / "f.dat")
    read = dataio.read_covariance_image(tmp_path / "f")
    dataio.write_covariance_image(read, tmp_path / "r")
    want = all_rows(read)
    np.ascontiguousarray(want, "<f8").tofile(tmp_path / "want_r.dat")
    assert (tmp_path / "r.dat").read_bytes() == (tmp_path / "want_r.dat").read_bytes()
    assert (tmp_path / "r.hdr").read_text() == (tmp_path / "s.hdr").read_text()


def test_single_pixel_layout(tmp_path):
    field = CovarianceField(oracle.pack(np.eye(3, dtype=complex))[None, None])
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


def test_a_partial_value_or_a_file_cut_after_reading_raises(tmp_path, rng):
    field = _random_field(rng)
    dataio.write_covariance_image(field, tmp_path / "a")
    raw = (tmp_path / "a.dat").read_bytes()
    (tmp_path / "a.dat").write_bytes(raw + b"\0")  # not a whole number of values
    with pytest.raises(SizeMismatch, match="expected 270 f64 values, found 2161 bytes"):
        dataio.read_covariance_image(tmp_path / "a")
    (tmp_path / "a.dat").write_bytes(raw)
    back = dataio.read_covariance_image(tmp_path / "a")  # keeps no pixels
    (tmp_path / "a.dat").write_bytes(raw[:-72])  # the last pixel goes
    protos = PrototypeSet(oracle.pack(np.stack([np.eye(3), 2 * np.eye(3)])), shared_looks=4.0)
    with pytest.raises(SizeMismatch, match="are cut short"):
        classify_image(back, protos, "KL")


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


@pytest.mark.parametrize("read", [dataio.read_covariance_image, dataio.read_classmap])
def test_an_unparsable_looks_names_the_header(tmp_path, read):
    # `looks: abc` was parsed outside the header's error handling, so it
    # escaped as a bare ValueError that did not name the file
    (tmp_path / "bad.hdr").write_text("width: 4\nheight: 4\ndtype: f64\nlooks: abc\n")
    (tmp_path / "bad.dat").write_bytes(b"")
    with pytest.raises(MalformedHeader, match=re.escape(f"{tmp_path / 'bad.hdr'}: ")):
        read(tmp_path / "bad")


def _two_protos(rng):
    return PrototypeSet(np.stack([packed_hpd(rng), packed_hpd(rng)]), shared_looks=4.0)


def test_non_pd_pixels_warn_with_coordinates(tmp_path, rng):
    # opening tests no pixel: the classifier's pass finds the non-PD one
    field = _random_field(rng, 3, 3)
    all_rows(field)[1, 2] = oracle.pack(np.diag([1.0, -2.0, 1.0]))
    dataio.write_covariance_image(field, tmp_path / "a")
    back = dataio.read_covariance_image(tmp_path / "a")
    with pytest.warns(NonPositiveDefinitePixelWarning) as rec:
        labels = classify_image(back, _two_protos(rng), "KL").labels
    assert len(rec) == 1
    assert rec[0].message.count == 1
    assert rec[0].message.first == [(1, 2)]
    assert labels[1, 2] == 0 and np.count_nonzero(labels) == 8
    assert all_rows(back).shape == (3, 3, 9)


def _seven_bad_pixels(rng):
    field = _random_field(rng, 4, 6)
    bad = [(0, 5), (1, 0), (1, 3), (2, 2), (3, 0), (3, 1), (3, 5)]
    for y, x in bad:
        all_rows(field)[y, x] = oracle.pack(np.diag([-1.0, 1.0, 1.0]))
    return field, bad


def test_non_pd_warning_counts_every_pixel_and_lists_the_first_five(tmp_path, rng):
    field, bad = _seven_bad_pixels(rng)
    dataio.write_covariance_image(field, tmp_path / "a")
    back = dataio.read_covariance_image(tmp_path / "a")
    with pytest.warns(NonPositiveDefinitePixelWarning, match="7 of 24 pixels") as rec:
        dataio.render_rgb(back, _two_protos(rng), tmp_path / "a.ppm")
    assert len(rec) == 1
    assert rec[0].message.count == 7
    assert rec[0].message.first == bad[:5]
    assert int((~hm.is_positive_definite(all_rows(back))).sum()) == 7


def test_an_in_memory_field_warns_as_a_read_one(tmp_path, rng):
    field, bad = _seven_bad_pixels(rng)
    protos = _two_protos(rng)
    dataio.write_covariance_image(field, tmp_path / "a")
    back = dataio.read_covariance_image(tmp_path / "a")
    for image in (field, back):
        with pytest.warns(NonPositiveDefinitePixelWarning, match="7 of 24 pixels") as rec:
            classify_image(image, protos, "HD")
            dataio.render_rgb(image, protos, tmp_path / "a.ppm")
        assert [(w.message.count, w.message.first) for w in rec] == [(7, bad[:5])] * 2
        assert {w.filename for w in rec} == {__file__}  # it points at the call


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_a_read_image_is_classified_and_rendered_in_bounded_memory(tmp_path, monkeypatch,
                                                                    dtype):
    # a read field holds no pixels: each row block is read when it is scored,
    # so the traced peak stays far below the image, and every map is the one
    # an in-memory field of the same pixels gives
    monkeypatch.setattr(fields, "BLOCK_PIXELS", 1200)  # 4 rows of 300 pixels
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)  # blocks held at once
    spec = PhantomSpec(width=300, height=300, seed=11)
    field, _ = generate_phantom(spec)
    all_rows(field)[150, 7] = oracle.pack(np.diag([1.0, -2.0, 1.0]))  # one block gathers
    base = tmp_path / "img"
    dataio.write_covariance_image(field, base)
    if dtype == "f32":
        (tmp_path / "img.hdr").write_text((tmp_path / "img.hdr").read_text()
                                          .replace("dtype: f64", "dtype: f32"))
        all_rows(field).astype("<f4").tofile(tmp_path / "img.dat")
        field = CovarianceField(all_rows(field).astype("<f4"), looks=field.looks)
    protos = PrototypeSet(spec.sigmas, shared_looks=4.0, weights=[0.5, 0.3, 0.2])
    with pytest.warns(NonPositiveDefinitePixelWarning, match="1 of 90000 pixels"):
        want = {rule: classify_image(field, protos, rule).labels for rule in RULES}
        want["render"] = dataio.render_rgb(field, protos, tmp_path / "want.ppm")

    assert not hasattr(CovarianceField, "data")  # a field has no whole-image reader

    def passes():  # each map is compared and dropped, so that only the work counts
        back = dataio.read_covariance_image(base)
        with pytest.warns(NonPositiveDefinitePixelWarning,
                          match="1 of 90000 pixels") as rec:
            for rule in RULES:
                assert np.array_equal(classify_image(back, protos, rule).labels,
                                      want[rule]), rule
            assert np.array_equal(dataio.render_rgb(back, protos, tmp_path / "got.ppm"),
                                  want["render"])
        return rec

    rec, peak = traced_peak(passes)
    assert len(rec) == len(RULES) + 1  # one per pass
    assert peak < all_rows(field).nbytes / 4, peak
    assert (tmp_path / "got.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()


def test_hd_holds_about_as_much_as_kl_on_a_read_image(tmp_path, monkeypatch):
    # HD and BD read only the inverse and the log-det of a pixel, so a block
    # frees its component-major copy before the scores: the traced peak of an
    # HD pass stays within half a block's packed pixels of a KL pass, which
    # keeps the copy and the inverse.  Kept, the copy put HD 1.35 blocks above.
    monkeypatch.setattr(fields, "BLOCK_PIXELS", 9000)  # 30 rows of 300 pixels
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)  # one block at a time
    spec = PhantomSpec(width=300, height=300, seed=11)
    field, _ = generate_phantom(spec)
    dataio.write_covariance_image(field, tmp_path / "img")
    protos = PrototypeSet(spec.sigmas, shared_looks=4.0)
    back = dataio.read_covariance_image(tmp_path / "img")
    peaks = {}
    for rule in ("KL", "HD", "KL", "HD"):  # the second pass of each counts
        _, peaks[rule] = traced_peak(classify_image, back, protos, rule)
    block_bytes = 9000 * 9 * 8
    assert peaks["HD"] < peaks["KL"] + block_bytes / 2, (peaks, block_bytes)


def test_ml_holds_about_as_much_as_ed(monkeypatch):
    # a block frees its features once the scores are stacked: ML keeps the
    # pixels and their log-det, ED the pixels only, and the traced peak of an
    # ML pass stays within half a float64 row of a block of an ED pass.  Kept
    # until the labels, the features put ML a whole row above.
    monkeypatch.setattr(fields, "BLOCK_PIXELS", 45_000)  # 150 rows of 300 pixels
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)  # one block at a time
    spec = PhantomSpec(width=300, height=300, seed=11)
    field, _ = generate_phantom(spec)
    protos = PrototypeSet(spec.sigmas, shared_looks=4.0)
    peaks = {}
    for rule in ("ED", "ML", "ED", "ML"):  # the second pass of each counts
        _, peaks[rule] = traced_peak(classify_image, field, protos, rule)
    row_bytes = 45_000 * 8
    assert peaks["ML"] < peaks["ED"] + row_bytes / 2, (peaks, row_bytes)


def test_a_read_image_evolves_in_bounded_memory(tmp_path, monkeypatch):
    # evolve fills its one (9, H, W) plane from the field's rows one band at
    # a time and keeps uint8 labels: the traced peak stays below two planes
    # and half the image, and the result is the in-memory field's.
    # Loading the whole image as well put the peak at 3.5 images.
    monkeypatch.setattr(fields, "BLOCK_PIXELS", 9000)  # 30 rows of 300 pixels
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)  # one band at a time
    spec = PhantomSpec(width=300, height=300, seed=11)
    field, _ = generate_phantom(spec)
    dataio.write_covariance_image(field, tmp_path / "img")
    protos = PrototypeSet(spec.sigmas, shared_looks=4.0, weights=[0.5, 0.3, 0.2])
    params = EvolutionParams(iterations=1)
    want, want_metrics = evolve(field, protos, params, "KL")
    want = all_rows(want).copy()
    back = dataio.read_covariance_image(tmp_path / "img")
    (got, metrics), peak = traced_peak(evolve, back, protos, params, "KL")
    image_bytes = 300 * 300 * 9 * 8
    assert peak < 2 * image_bytes + image_bytes / 2, (peak, image_bytes)
    assert np.array_equal(got.rows(0, 300), want)
    assert np.array_equal(metrics.mean_weighted_distance, want_metrics.mean_weighted_distance)
    assert np.array_equal(metrics.changed_fraction, want_metrics.changed_fraction)


def test_classmap_roundtrip(tmp_path, rng):
    labels = rng.integers(0, 4, size=(7, 9)).astype(np.uint8)
    labels[0, 0] = 0  # the unclassified sentinel survives
    cmap = ClassMap(labels)
    dataio.write_classmap(cmap, tmp_path / "m")
    back = dataio.read_classmap(tmp_path / "m")
    np.testing.assert_array_equal(back.labels, labels)


@pytest.mark.parametrize("labels", [[[256, -1, 3]], [[1.7, 2.2]], [[np.nan, 1.0]],
                                    [[np.inf, 1.0]], [[1 + 0j, 2]], [["1", "2"]]])
def test_classmap_refuses_labels_a_uint8_cast_would_change(labels):
    # the cast made 256 the no-data 0, -1 the label 255 and 1.7 the label 1
    with pytest.raises(ValueError, match="integers in 0..255"):
        ClassMap(np.array(labels))


def test_classmap_takes_integer_labels_of_any_type():
    for labels in ([[0, 255]], np.array([[0, 255]], dtype=np.int64), [[0.0, 255.0]],
                   [[False, True]]):
        got = ClassMap(labels).labels
        assert got.dtype == np.uint8 and got.tolist() == np.array(labels, dtype=int).tolist()
    held = np.array([[0, 3]], dtype=np.uint8)
    assert ClassMap(held).labels is held  # the maps the package makes are not copied


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


def _set_pixels(rects):
    """The reference: every rectangle's (y, x) pixels in a set, sorted."""
    coords = set()
    for x0, y0, x1, y1 in rects:
        for y in range(y0, y1 + 1):
            for x in range(x0, x1 + 1):
                coords.add((y, x))
    return np.array(sorted(coords), dtype=np.int64).reshape(-1, 2)


_RECT = st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 6),
                  st.integers(0, 6)).map(lambda r: (r[0], r[1], r[0] + r[2], r[1] + r[3]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_RECT, max_size=6))
def test_roi_pixels_are_the_sorted_deduplicated_rectangle_pixels(rects):
    # overlapping rectangles share pixels, which appear once, in row-major order;
    # a class with no rectangle has no pixels
    got = RoiSet({1: rects}).pixels(1)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _set_pixels(rects))


def test_only_dataio_imports_csv():
    # the CSV dialect has one home: every CSV file is written by dataio._write_csv
    importers = set()
    for path in sorted(Path(dataio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "csv" for name in names):
                importers.add(path.stem)
    assert importers == {"dataio"}


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


def test_split_refuses_a_class_with_fewer_than_two_pixels():
    # one pixel leaves the class an empty test half; every class that short is named
    rois = RoiSet({1: [(0, 0, 3, 3)], 2: [(5, 5, 5, 5)], 3: [(7, 1, 7, 1), (7, 1, 7, 1)]})
    with pytest.raises(MalformedRoi, match=r"classes \[2, 3\] have fewer than 2 ROI pixels"):
        dataio.split_roi(rois, seed=1)
    split = dataio.split_roi(RoiSet({1: [(0, 0, 1, 0)]}), seed=1)  # two pixels split 1 + 1
    assert len(split.train[1]) == 1 and len(split.test[1]) == 1


def test_model_file_roundtrip(tmp_path, rng):
    protos = PrototypeSet(
        sigmas=np.stack([packed_hpd(rng), packed_hpd(rng), packed_hpd(rng)]),
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
    np.testing.assert_array_equal(read_ppm(tmp_path / "x.ppm"), rgb)
    header = (tmp_path / "x.ppm").read_bytes()[:11]
    assert header == b"P6\n4 5\n255\n"


def test_render_pixel_at_prototype_gets_its_color(tmp_path, rng):
    protos = PrototypeSet(sigmas=np.stack([packed_hpd(rng), packed_hpd(rng, scale=3)]),
                          shared_looks=4.0)
    data = protos.sigmas[None]
    palette = dataio.default_palette(2)
    rgb = dataio.render_rgb(CovarianceField(data), protos, tmp_path / "r.ppm")
    np.testing.assert_array_equal(rgb[0, 0], palette[0])
    np.testing.assert_array_equal(rgb[0, 1], palette[1])


def test_render_equidistant_pixel_gets_mean_color(tmp_path):
    s1 = np.diag([1.0, 1.0, 2.0]).astype(complex)
    s2 = np.diag([2.0, 1.0, 1.0]).astype(complex)
    protos = PrototypeSet(sigmas=oracle.pack(np.stack([s1, s2])), shared_looks=4.0)
    x = np.diag([1.5, 1.0, 1.5]).astype(complex)  # equidistant by symmetry
    palette = dataio.default_palette(2)
    rgb = dataio.render_rgb(CovarianceField(oracle.pack(x)[None, None]), protos,
                            tmp_path / "e.ppm")
    np.testing.assert_array_equal(rgb[0, 0], np.rint(palette.mean(axis=0)))


def test_render_classmap_flat_colors(tmp_path):
    cmap = ClassMap(np.array([[0, 1], [2, 1]], dtype=np.uint8))
    palette = dataio.default_palette(2)
    rgb = dataio.render_classmap(cmap, tmp_path / "c.ppm", n_classes=2)
    np.testing.assert_array_equal(rgb[0, 0], [0, 0, 0])  # sentinel is black
    np.testing.assert_array_equal(rgb[0, 1], palette[0])
    np.testing.assert_array_equal(rgb[1, 0], palette[1])


@pytest.mark.parametrize("n_classes", [0, 1])
def test_render_classmap_refuses_fewer_colors_than_labels(tmp_path, n_classes):
    cmap = ClassMap(np.array([[0, 1], [2, 1]], dtype=np.uint8))
    with pytest.raises(ValueError, match=f"n_classes = {n_classes} .*largest label 2"):
        dataio.render_classmap(cmap, tmp_path / "c.ppm", n_classes=n_classes)
    assert not (tmp_path / "c.ppm").exists()
