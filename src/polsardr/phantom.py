"""Simulated multi-class Wishart phantom images with known ground truth.

The default layout has three regions exercising straight and curved class
boundaries: a background, a diagonal band, and a disk.  The built-in
prototype triplet is tuned so the pairwise KL distances at 4 looks are
moderate, strong, and very strong (roughly 3, 10 and 15): class 1 is well
separated from both others, classes 2 and 3 form the confusable pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hermitian as hm
from .dataio import key_value_lines
from .errors import InvalidSpec
from .fields import ClassMap, CovarianceField, RoiSet
from .wishart import _normals, _packed_deviates

# Built-in class triplet, packed.  Classes 2 and 3 are H(W diag(s_m) W^H) for
# the Cholesky factor W = hermitian.cholesky3(sigma_1) of class 1, H(M) =
# 0.5 (M + M^H), s_2 = (14, 11, 8) and s_3 = s_2 * 0.9265972909343432 * (3, 0.6,
# 1); each value is the repr of that float64 result.  The ratios s_3 / s_2 solve
# sum_i (r_i + 1/r_i - 2)/2 = 0.75, i.e. KL(2,3) = 3 at 4 looks, the strong
# expansion on the high-power first direction placing class 3 far from class 1
# in Frobenius distance as well.  Class 1 is separated very strongly from both
# others (KL 54.6 and 72.5, enough that every pointwise rule classifies it
# perfectly on thousands of test pixels), while classes 2/3 form the confusable
# pair (KL 3.04) that the evolution step has to resolve.  Configuration values,
# replaceable through PhantomSpec / config files.
DEFAULT_SIGMAS = np.array([
    [0.42, 0.018, 0.24, 0.03, 0.012, 0.28, 0.06, 0.01, 0.005],
    [5.879999999999999, 0.20545714285714284, 3.1326479873717443, 0.41999999999999993,
     0.16799999999999998, 3.92, 0.8399999999999999, 0.17514285714285716,
     0.04385714285714284],
    [16.34517621208181, 0.19161502492355967, 7.91208409024196, 1.1675125865772724,
     0.4670050346309089, 10.896784141387876, 2.335025173154545, 0.7734175216387401,
     -0.09125659605287666],
])

DEFAULT_REGIONS = ("background", "band 0.50 0.02 0.13", "disk 0.70 0.72 0.15")
# inscribed_rois: pixels kept between a ROI and its region's boundary, and the
# largest and smallest side it places.
ROI_MARGIN = 3
ROI_MAX_SIDE = 49
ROI_MIN_SIDE = 8
# generate_phantom turns the normals of about this many pixels into deviates at
# once: 4,096 and 8,192 ran equally fast, and larger batches only cost memory.
BATCH_PIXELS = 4096


@dataclass(eq=False)
class PhantomSpec:
    """Geometry, packed (M, 9) class covariances, looks and seed of a simulated image."""

    width: int = 300
    height: int = 300
    looks: int = 4
    seed: int = 20240801
    sigmas: np.ndarray = field(default_factory=lambda: DEFAULT_SIGMAS.copy())
    regions: tuple[str, ...] = DEFAULT_REGIONS

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidSpec(f"bad image size {self.width}x{self.height}")
        if self.looks != int(self.looks) or self.looks < 3:
            raise InvalidSpec(f"looks must be an integer >= 3, got {self.looks}")
        self.looks = int(self.looks)
        if self.seed < 0:
            raise InvalidSpec("seed must be a nonnegative integer")
        self.sigmas = np.asarray(self.sigmas)
        if np.iscomplexobj(self.sigmas) or self.sigmas.ndim != 2 or self.sigmas.shape[1] != 9:
            raise InvalidSpec(f"sigmas must be packed (M, 9), got {self.sigmas.shape}")
        self.sigmas = self.sigmas.astype(np.float64, copy=False)
        if not np.all(hm.is_positive_definite(self.sigmas)):
            raise InvalidSpec("every class covariance must be positive definite")
        if len(self.regions) != self.sigmas.shape[0]:
            raise InvalidSpec("one region per class required")
        probe = np.zeros((1, 1))
        for region in self.regions:
            _region_mask(region, probe, probe)  # syntax check up front

    @property
    def n_classes(self) -> int:
        return self.sigmas.shape[0]


def _region_mask(region: str, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    parts = region.split()
    kind = parts[0]
    try:
        if kind == "background":
            return np.ones(np.broadcast_shapes(nx.shape, ny.shape), dtype=bool)
        if kind == "band":
            slope, intercept, halfwidth = map(float, parts[1:4])
            return np.abs(ny - (slope * nx + intercept)) <= halfwidth
        if kind == "disk":
            cx, cy, radius = map(float, parts[1:4])
            return (nx - cx) ** 2 + (ny - cy) ** 2 <= radius**2
    except (ValueError, IndexError) as exc:
        raise InvalidSpec(f"bad region spec {region!r}") from exc
    raise InvalidSpec(f"unknown region kind {kind!r}")


def region_map(spec: PhantomSpec) -> np.ndarray:
    """Class labels implied by the region list; later regions override earlier."""
    ny, nx = np.ogrid[0:spec.height, 0:spec.width]  # (H, 1) and (1, W): masks broadcast
    nx = (nx + 0.5) / spec.width
    ny = (ny + 0.5) / spec.height
    labels = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for idx, region in enumerate(spec.regions):
        labels[_region_mask(region, nx, ny)] = idx + 1
    if np.any(labels == 0):
        raise InvalidSpec("regions do not cover the image (no background region?)")
    return labels


def generate_phantom(spec: PhantomSpec) -> tuple[CovarianceField, ClassMap]:
    """Draw every pixel independently from its region's Wishart model.

    Rows use independent streams seeded by (seed, row); the noise driving a
    row does not depend on the class layout, so two specs differing only in
    seed produce different fields over the identical ground truth.  Each
    row's normals are drawn class by class; those of the rows of a batch of
    about BATCH_PIXELS pixels then become deviates in one pass per class.
    """
    labels = region_map(spec)
    factors = [hm.cholesky3(s) for s in spec.sigmas]  # one by one: a batch has other last bits
    data = np.empty((spec.height, spec.width, 9))
    rows = max(1, BATCH_PIXELS // spec.width)
    for y0 in range(0, spec.height, rows):
        batch = labels[y0:y0 + rows]
        normals: list[list[np.ndarray]] = [[] for _ in factors]
        for y, row_labels in enumerate(batch, y0):
            rng = np.random.default_rng([spec.seed, y])
            for m, drawn in enumerate(normals):
                n = int(np.count_nonzero(row_labels == m + 1))
                if n:
                    drawn.append(_normals(rng, (n,), spec.looks))
        for m, drawn in enumerate(normals):
            if drawn:
                data[y0:y0 + rows][batch == m + 1] = _packed_deviates(np.concatenate(drawn),
                                                                      factors[m])
    return CovarianceField(data, looks=float(spec.looks)), ClassMap(labels)


def inscribed_rois(truth: ClassMap) -> RoiSet:
    """One square ROI per class, centered where the class region is deepest.

    The region is eroded by 3x3 squares, the image border counting as
    boundary, until nothing is left: the depth is the number of erosions (the
    largest chessboard distance to the boundary) and the center the first
    pixel, in row-major order, of the last core left.  The square inscribed
    there is shrunk by ROI_MARGIN and capped at ROI_MAX_SIDE, and must keep
    ROI_MIN_SIDE pixels a side.
    """
    rois = RoiSet()
    labels = truth.labels
    for cls in range(1, int(labels.max()) + 1):
        core = labels == cls
        if not core.any():
            raise InvalidSpec(f"class {cls} has no pixels")
        depth, y0, x0 = 0, 0, 0
        while core.any():  # erode the core's bounding box: its edges erode like the image's
            ys, xs = np.flatnonzero(core.any(axis=1)), np.flatnonzero(core.any(axis=0))
            last = core[ys[0]:ys[-1] + 1, xs[0]:xs[-1] + 1]
            y0, x0, depth = y0 + ys[0], x0 + xs[0], depth + 1
            rows = np.zeros_like(last)  # the erosion, rows then columns
            rows[1:-1] = last[:-2] & last[1:-1] & last[2:]
            core = np.zeros_like(last)
            core[:, 1:-1] = rows[:, :-2] & rows[:, 1:-1] & rows[:, 2:]
        y, x = np.add(np.unravel_index(int(np.argmax(last)), last.shape), (y0, x0))
        half = min(depth - 1 - ROI_MARGIN, (ROI_MAX_SIDE - 1) // 2)
        if 2 * half + 1 < ROI_MIN_SIDE:
            raise InvalidSpec(
                f"class {cls} region too thin for a {ROI_MIN_SIDE}px ROI at margin {ROI_MARGIN}: "
                f"it is {depth} px deep, and the ROI needs {ROI_MARGIN + 1 + ROI_MIN_SIDE // 2}"
            )
        rois.rects[cls] = [(int(x - half), int(y - half), int(x + half), int(y + half))]
    return rois


_SPEC_KEYS = ("width", "height", "looks", "seed")


def read_phantom_config(path) -> PhantomSpec:
    """Build a PhantomSpec from a plain-text `key: value` file.

    Recognized keys: width, height, looks, seed, and per class
    ``class<m>.cov`` (9 packed values) and ``class<m>.region``.  Classes
    default to the built-in triplet and layout; '#' starts a comment.
    """
    scalars: dict[str, int] = {}
    covs: dict[int, np.ndarray] = {}
    regions: dict[int, str] = {}
    for lineno, key, value in key_value_lines(path, InvalidSpec):
        try:
            if key in _SPEC_KEYS:
                scalars[key] = int(value)
            elif key.startswith("class") and key.endswith(".cov"):
                vals = np.array([float(v) for v in value.split()])
                if vals.size != 9:
                    raise InvalidSpec(f"{path}:{lineno}: class cov needs 9 values")
                covs[int(key[len("class"):-len(".cov")])] = vals
            elif key.startswith("class") and key.endswith(".region"):
                regions[int(key[len("class"):-len(".region")])] = value
            else:
                raise InvalidSpec(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise InvalidSpec(f"{path}:{lineno}: {key}: {exc}") from None
    kwargs: dict = dict(scalars)
    if covs or regions:
        n = max(list(covs) + list(regions))
        if set(covs) != set(range(1, n + 1)) or set(regions) != set(range(1, n + 1)):
            raise InvalidSpec("class blocks must define cov and region for classes 1..M")
        kwargs["sigmas"] = np.stack([covs[m] for m in range(1, n + 1)])
        kwargs["regions"] = tuple(regions[m] for m in range(1, n + 1))
    return PhantomSpec(**kwargs)
