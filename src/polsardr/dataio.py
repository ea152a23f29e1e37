"""Bit-exact file formats: covariance images, class maps, ROIs, models, PPM renders.

Covariance image = a plain-text header plus a raw little-endian binary file,
row-major, nine values per pixel in the order
[C11, C22, C33, Re C12, Im C12, Re C13, Im C13, Re C23, Im C23].
Class maps reuse the header convention with single-byte labels.  Both are
read and written from a base path, as ``<base>.hdr`` and ``<base>.dat``.
"""

from __future__ import annotations

import colorsys
import csv
import os
from functools import partial

import numpy as np

from . import fields, hermitian as hm
from .classify import PrototypeSet, distance_stack
from .errors import MalformedHeader, MalformedRoi, OutOfBounds, SizeMismatch
from .fields import ClassMap, CovarianceField, RoiSet, Split, row_blocks, warn_non_pd

_DTYPES = {"f32": "<f4", "f64": "<f8", "u8": "|u1"}
RENDER_EPS = 1e-12


def _write_lines(path, lines) -> None:
    """Write a text file of the given lines, each ended by a newline."""
    with open(path, "w") as f:
        f.writelines(f"{line}\n" for line in lines)


def _write_csv(path, header, rows) -> None:
    """Write a CSV file of the header row, then the rows: the package's one CSV dialect."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_header(path, width, height, dtype, looks=None):
    lines = [f"width: {width}", f"height: {height}", f"dtype: {dtype}", "byte_order: little"]
    if looks is not None:
        lines.append(f"looks: {float(looks)!r}")
    _write_lines(path, lines)


def _content_lines(path):
    """Yield (lineno, line) for each line of a text file, '#' comment stripped, not blank."""
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def key_value_lines(path, error=MalformedHeader):
    """Yield (lineno, key, value) for each `key: value` line of a text file.

    '#' starts a comment and blank lines are skipped; the line splits on its
    first ':', and a line without one raises ``error`` naming path:lineno.
    """
    for lineno, line in _content_lines(path):
        if ":" not in line:
            raise error(f"{path}:{lineno}: expected 'key: value'")
        key, value = (s.strip() for s in line.split(":", 1))
        yield lineno, key, value


def _read_header(path):
    try:
        entries = {key: value for _, key, value in key_value_lines(path)}
        width = int(entries["width"])
        height = int(entries["height"])
        dtype = entries["dtype"]
        looks = float(entries["looks"]) if "looks" in entries else None
    except (KeyError, ValueError) as exc:
        raise MalformedHeader(f"{path}: {exc!r}") from exc
    if width < 1 or height < 1:
        raise MalformedHeader(f"{path}: bad dimensions {width}x{height}")
    if dtype not in _DTYPES:
        raise MalformedHeader(f"{path}: unknown dtype {dtype!r}")
    if entries.get("byte_order", "little") != "little":
        raise MalformedHeader(f"{path}: only little-endian data is supported")
    return width, height, dtype, looks


def write_covariance_image(field: CovarianceField, base) -> None:
    """Write f64 pixels (``read_covariance_image`` reads f32 too) in contiguous
    chunks of about ``fields.BLOCK_PIXELS`` pixels from ``field.rows``, so a
    strided field (``evolve``'s) writes fast and a read field is not loaded."""
    _write_header(f"{base}.hdr", field.width, field.height, "f64", looks=field.looks)
    step = max(fields.BLOCK_PIXELS // field.width, 1)
    with open(f"{base}.dat", "wb") as f:
        for r0 in range(0, field.height, step):
            rows = field.rows(r0, min(r0 + step, field.height))
            np.ascontiguousarray(rows, dtype=_DTYPES["f64"]).tofile(f)


def _read_rows(path, dtype: str, width: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0..r1-1 of a covariance image's .dat file as float64 (r1 - r0, width, 9):
    one positional read of just those rows; f32 values are converted after it."""
    count = (r1 - r0) * width * 9
    raw = np.fromfile(path, dtype=_DTYPES[dtype], count=count,
                      offset=r0 * width * 9 * np.dtype(_DTYPES[dtype]).itemsize)
    if raw.size != count:  # the file shrank after its size was checked
        raise SizeMismatch(f"{path}: rows {r0}..{r1 - 1} are cut short")
    return raw.astype(np.float64, copy=False).reshape(r1 - r0, width, 9)


def read_covariance_image(base) -> CovarianceField:
    """Open an image whose rows are read from ``<base>.dat`` on demand
    (``CovarianceField.from_rows``).  Only the header and the file size are
    checked here; no pixel is read until the field's rows are."""
    header_path, data_path = f"{base}.hdr", f"{base}.dat"
    width, height, dtype, looks = _read_header(header_path)
    if dtype == "u8":
        raise MalformedHeader(f"{header_path}: covariance images need f32 or f64 data")
    expected, itemsize = width * height * 9, np.dtype(_DTYPES[dtype]).itemsize
    size = os.path.getsize(data_path)
    if size != expected * itemsize:
        raise SizeMismatch(f"{data_path}: expected {expected} {dtype} values, "
                           f"found {size} bytes")
    return CovarianceField.from_rows(partial(_read_rows, data_path, dtype, width),
                                     height, width, looks=looks)


def write_classmap(cmap: ClassMap, base) -> None:
    _write_header(f"{base}.hdr", cmap.width, cmap.height, "u8")
    cmap.labels.astype("|u1").tofile(f"{base}.dat")


def read_classmap(base) -> ClassMap:
    header_path, data_path = f"{base}.hdr", f"{base}.dat"
    width, height, dtype, _ = _read_header(header_path)
    if dtype != "u8":
        raise MalformedHeader(f"{header_path}: class maps need u8 data, got {dtype}")
    raw = np.fromfile(data_path, dtype="|u1")
    if raw.size != width * height:
        raise SizeMismatch(f"{data_path}: expected {width * height} labels, found {raw.size}")
    return ClassMap(raw.reshape(height, width))


def read_roi(path, width: int | None = None, height: int | None = None) -> RoiSet:
    """Parse `class x0 y0 x1 y1` lines; bounds are checked when dims are given."""
    rois = RoiSet()
    for lineno, line in _content_lines(path):
        parts = line.split()
        if len(parts) != 5:
            raise MalformedRoi(f"{path}:{lineno}: expected 'class x0 y0 x1 y1'")
        try:
            cls, x0, y0, x1, y1 = (int(p) for p in parts)
        except ValueError as exc:
            raise MalformedRoi(f"{path}:{lineno}: {exc}") from exc
        if cls < 1 or x1 < x0 or y1 < y0 or x0 < 0 or y0 < 0:
            raise MalformedRoi(f"{path}:{lineno}: inconsistent rectangle")
        if width is not None and x1 >= width or height is not None and y1 >= height:
            raise OutOfBounds(f"{path}:{lineno}: rectangle exceeds {width}x{height}")
        rois.rects.setdefault(cls, []).append((x0, y0, x1, y1))
    if not rois.rects:
        raise MalformedRoi(f"{path}: no rectangles found")
    return rois


def write_roi(rois: RoiSet, path) -> None:
    rects = [f"{cls} {x0} {y0} {x1} {y1}" for cls in rois.classes
             for x0, y0, x1, y1 in rois.rects[cls]]
    _write_lines(path, ["# class x0 y0 x1 y1"] + rects)


def split_roi(rois: RoiSet, seed: int) -> Split:
    """Halve each class's ROI pixels at random (odd counts: train gets the extra).

    Deterministic in (pixel set, seed): pixels are canonicalized to row-major
    order before the seeded shuffle, so the rectangle decomposition of the
    same pixel set cannot change the split.  A class needs at least 2 pixels,
    so that neither half is empty.
    """
    pixels = {cls: rois.pixels(cls) for cls in rois.classes}
    short = [cls for cls, p in pixels.items() if p.shape[0] < 2]
    if short:
        raise MalformedRoi(f"classes {short} have fewer than 2 ROI pixels "
                           "(each needs a train and a test pixel)")
    train: dict[int, np.ndarray] = {}
    test: dict[int, np.ndarray] = {}
    for cls, p in pixels.items():
        perm = np.random.default_rng([seed, cls]).permutation(p.shape[0])
        n_train = (p.shape[0] + 1) // 2
        train[cls], test[cls] = p[perm[:n_train]], p[perm[n_train:]]
    return Split(train=train, test=test)


# --- model files -----------------------------------------------------------

def write_model(protos: PrototypeSet, path) -> None:
    """Plain-text model file: shared looks, optional weights, per-class blocks."""
    lines = [f"classes: {protos.n_classes}", f"shared_looks: {float(protos.shared_looks)!r}"]
    lines.append("weights: " + " ".join(repr(float(w)) for w in protos.weights))
    for m in range(protos.n_classes):
        lines.append(f"class: {m + 1}")
        lines.append(f"looks: {protos.looks_for(m, use_class_looks=True)!r}")
        lines.append("cov: " + " ".join(repr(float(v)) for v in protos.sigmas[m]))
    _write_lines(path, lines)


def read_model(path) -> PrototypeSet:
    n_classes = None
    shared = None
    weights = None
    covs: dict[int, np.ndarray] = {}
    looks: dict[int, float] = {}
    current = None
    for lineno, key, value in key_value_lines(path):
        try:
            if key == "classes":
                n_classes = int(value)
            elif key == "shared_looks":
                shared = float(value)
            elif key == "weights":
                weights = np.array([float(v) for v in value.split()])
            elif key == "class":
                current = int(value)
            elif key == "looks":
                looks[current] = float(value)
            elif key == "cov":
                covs[current] = np.array([float(v) for v in value.split()])
            else:
                raise MalformedHeader(f"{path}:{lineno}: unknown key {key!r}")
        except (TypeError, ValueError) as exc:
            raise MalformedHeader(f"{path}:{lineno}: {exc}") from exc
    if n_classes is None or shared is None or set(covs) != set(range(1, n_classes + 1)):
        raise MalformedHeader(f"{path}: incomplete model file")
    class_looks = np.array([looks.get(m, shared) for m in range(1, n_classes + 1)])
    return PrototypeSet(sigmas=np.stack([covs[m] for m in range(1, n_classes + 1)]),
                        shared_looks=shared, weights=weights,
                        class_looks=class_looks)


# --- rendering ---------------------------------------------------------------

def default_palette(n: int) -> np.ndarray:
    """n maximally separated hues as (n, 3) uint8 RGB."""
    cols = [colorsys.hsv_to_rgb(i / n, 0.85, 0.95) for i in range(n)]
    return np.array([[round(255 * c) for c in rgb] for rgb in cols], dtype=np.uint8)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary PPM (P6, 8-bit): the header, then the C-order RGB buffer as it is."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"rgb must be (H, W, 3), got {rgb.shape}")
    with open(path, "wb") as f:
        f.write(f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode())
        f.write(rgb)


def render_rgb(field: CovarianceField, protos: PrototypeSet, path) -> np.ndarray:
    """Color a covariance image by inverse Euclidean distance to the prototypes.

    Pixel color = sum_m c_m * color_m with c_m proportional to
    1 / (d_E(pixel, prototype_m) + eps), normalized to sum 1, so a pixel at a
    prototype gets that class color and an equidistant pixel the palette mean.
    The rows are colored in blocks on every usable CPU (``fields.row_blocks``), each read
    once; non-PD pixels are colored too (black if an entry is not finite), and warned of
    after the pass (``fields.warn_non_pd``).
    """
    colors = default_palette(protos.n_classes).astype(np.float64)
    rgb = np.empty((field.height, field.width, 3), dtype=np.uint8)
    valid = np.empty((field.height, field.width), dtype=bool)

    def color_rows(r0, r1):
        x = hm.component_major(field.rows(r0, r1)).reshape(r1 - r0, field.width, 9)  # a view
        valid[r0:r1] = hm.is_positive_definite(x)
        scored = ...  # a block of PD pixels is scored whole
        if not valid[r0:r1].all():  # a non-finite pixel has no distance
            scored = np.isfinite(x).all(axis=-1)
            rgb[r0:r1][~scored] = 0
        inv = 1.0 / (distance_stack(x[scored], protos, "ED") + RENDER_EPS)
        weights = inv / inv.sum(axis=-1, keepdims=True)
        rgb[r0:r1][scored] = np.clip(np.rint(weights @ colors), 0, 255)

    with row_blocks("render_rgb", field.height, field.width) as each_block:
        each_block(color_rows)
    warn_non_pd(valid)
    write_ppm(path, rgb)
    return rgb


def render_classmap(cmap: ClassMap, path, n_classes: int | None = None) -> np.ndarray:
    """Flat class colors from a palette of ``n_classes`` (default: the largest
    label) colors; label 0 (unclassified) renders black."""
    largest = int(cmap.labels.max())
    n = max(largest, 1) if n_classes is None else n_classes
    if n < max(largest, 1):
        raise ValueError(f"n_classes = {n} must be >= 1 and >= the largest label {largest}")
    table = np.vstack([np.zeros(3, dtype=np.uint8), default_palette(n)])
    rgb = np.take(table, cmap.labels, axis=0)
    write_ppm(path, rgb)
    return rgb
