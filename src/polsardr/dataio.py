"""Bit-exact file formats: covariance images, class maps, ROIs, models, PPM renders.

Covariance image = a plain-text header plus a raw little-endian binary file,
row-major, nine values per pixel in the order
[C11, C22, C33, Re C12, Im C12, Re C13, Im C13, Re C23, Im C23].
Class maps reuse the header convention with single-byte labels.  Both are
read and written from a base path, as ``<base>.hdr`` and ``<base>.dat``.
"""

from __future__ import annotations

import colorsys
import warnings

import numpy as np

from .classify import PrototypeSet, distance_stack
from .errors import (MalformedHeader, MalformedRoi, NonPositiveDefinitePixelWarning,
                     OutOfBounds, SizeMismatch)
from .fields import ClassMap, CovarianceField, RoiSet, Split, row_blocks

_DTYPES = {"f32": "<f4", "f64": "<f8", "u8": "|u1"}
RENDER_EPS = 1e-12


def _write_header(path, width, height, dtype, looks=None):
    lines = [f"width: {width}", f"height: {height}", f"dtype: {dtype}", "byte_order: little"]
    if looks is not None:
        lines.append(f"looks: {float(looks)!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
        fields = {key: value for _, key, value in key_value_lines(path)}
        width = int(fields["width"])
        height = int(fields["height"])
        dtype = fields["dtype"]
    except (KeyError, ValueError) as exc:
        raise MalformedHeader(f"{path}: {exc!r}") from exc
    if width < 1 or height < 1:
        raise MalformedHeader(f"{path}: bad dimensions {width}x{height}")
    if dtype not in _DTYPES:
        raise MalformedHeader(f"{path}: unknown dtype {dtype!r}")
    if fields.get("byte_order", "little") != "little":
        raise MalformedHeader(f"{path}: only little-endian data is supported")
    looks = float(fields["looks"]) if "looks" in fields else None
    return width, height, dtype, looks


def write_covariance_image(field: CovarianceField, base, dtype: str = "f64") -> None:
    if dtype not in ("f32", "f64"):
        raise ValueError(f"dtype must be f32 or f64, got {dtype!r}")
    _write_header(f"{base}.hdr", field.width, field.height, dtype, looks=field.looks)
    field.data.astype(_DTYPES[dtype], copy=False).tofile(f"{base}.dat")


def read_covariance_image(base) -> CovarianceField:
    """Load an image; non-PD pixels trigger a warning with their count."""
    header_path, data_path = f"{base}.hdr", f"{base}.dat"
    width, height, dtype, looks = _read_header(header_path)
    if dtype == "u8":
        raise MalformedHeader(f"{header_path}: covariance images need f32 or f64 data")
    raw = np.fromfile(data_path, dtype=_DTYPES[dtype])
    expected = width * height * 9
    if raw.size != expected:
        raise SizeMismatch(f"{data_path}: expected {expected} values, found {raw.size}")
    field = CovarianceField(raw.astype(np.float64, copy=False).reshape(height, width, 9),
                            looks=looks)
    bad = np.argwhere(~field.pd_mask)
    if bad.size:
        warnings.warn(NonPositiveDefinitePixelWarning(bad.shape[0], bad[:5], (height, width)))
    return field


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
    with open(path, "w") as f:
        f.write("# class x0 y0 x1 y1\n")
        for cls in rois.classes:
            for x0, y0, x1, y1 in rois.rects[cls]:
                f.write(f"{cls} {x0} {y0} {x1} {y1}\n")


def split_roi(rois: RoiSet, seed: int) -> Split:
    """Halve each class's ROI pixels at random (odd counts: train gets the extra).

    Deterministic in (pixel set, seed): pixels are canonicalized to row-major
    order before the seeded shuffle, so the rectangle decomposition of the
    same pixel set cannot change the split.
    """
    train: dict[int, np.ndarray] = {}
    test: dict[int, np.ndarray] = {}
    for cls in rois.classes:
        pixels = rois.pixels(cls)
        rng = np.random.default_rng([seed, cls])
        perm = rng.permutation(pixels.shape[0])
        n_train = (pixels.shape[0] + 1) // 2
        train[cls] = pixels[perm[:n_train]]
        test[cls] = pixels[perm[n_train:]]
    return Split(train=train, test=test)


# --- model files -----------------------------------------------------------

def write_model(protos: PrototypeSet, path) -> None:
    """Plain-text model file: shared looks, optional weights, per-class blocks."""
    lines = [f"classes: {protos.n_classes}", f"shared_looks: {float(protos.shared_looks)!r}"]
    lines.append("weights: " + " ".join(repr(float(w)) for w in protos.weights))
    for m in range(protos.n_classes):
        lines.append(f"class: {m + 1}")
        looks_m = protos.class_looks[m] if protos.class_looks is not None else protos.shared_looks
        lines.append(f"looks: {float(looks_m)!r}")
        lines.append("cov: " + " ".join(repr(float(v)) for v in protos.sigmas[m]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


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
    """Binary PPM (P6, 8-bit)."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"rgb must be (H, W, 3), got {rgb.shape}")
    with open(path, "wb") as f:
        f.write(f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode())
        f.write(rgb.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P6":
            raise MalformedHeader(f"{path}: not a binary PPM")
        dims = f.readline().split()
        maxval = f.readline().strip()
        if len(dims) != 2 or maxval != b"255":
            raise MalformedHeader(f"{path}: unsupported PPM header")
        w, h = int(dims[0]), int(dims[1])
        raw = np.frombuffer(f.read(), dtype=np.uint8)
    if raw.size != w * h * 3:
        raise SizeMismatch(f"{path}: expected {w * h * 3} bytes, found {raw.size}")
    return raw.reshape(h, w, 3)


def render_rgb(field: CovarianceField, protos: PrototypeSet, path,
               palette: np.ndarray | None = None) -> np.ndarray:
    """Color a covariance image by inverse Euclidean distance to the prototypes.

    Pixel color = sum_m c_m * color_m with c_m proportional to
    1 / (d_E(pixel, prototype_m) + eps), normalized to sum 1, so a pixel at a
    prototype gets that class color and an equidistant pixel the palette mean.
    The rows are colored in blocks on every usable CPU (``fields.row_blocks``).
    """
    if palette is None:
        palette = default_palette(protos.n_classes)
    colors = palette.astype(np.float64)
    rgb = np.empty((field.height, field.width, 3), dtype=np.uint8)

    def color_rows(r0, r1):
        inv = 1.0 / (distance_stack(field.data[r0:r1], protos, "ED") + RENDER_EPS)
        weights = inv / inv.sum(axis=-1, keepdims=True)
        rgb[r0:r1] = np.clip(np.rint(weights @ colors), 0, 255)

    with row_blocks("render_rgb", field.height, field.width) as each_block:
        each_block(color_rows)
    write_ppm(path, rgb)
    return rgb


def render_classmap(cmap: ClassMap, path, n_classes: int | None = None,
                    palette: np.ndarray | None = None) -> np.ndarray:
    """Flat class colors; label 0 (unclassified) renders black."""
    n = n_classes if n_classes is not None else max(int(cmap.labels.max()), 1)
    if palette is None:
        palette = default_palette(n)
    table = np.vstack([np.zeros(3, dtype=np.uint8), palette])
    rgb = table[cmap.labels]
    write_ppm(path, rgb)
    return rgb
