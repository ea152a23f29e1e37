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
from scipy import ndimage

from . import hermitian as hm
from .dataio import key_value_lines
from .errors import InvalidSpec
from .fields import ClassMap, CovarianceField, RoiSet
from .wishart import WishartModel, sample

# Built-in class triplet: classes 2 and 3 share the square root of class 1,
# scaled along its eigen-directions, so the pairwise KL distances at 4 looks
# are exactly controllable.  Class 1 is separated very strongly from both
# others (KL 54.6 and 72.5, enough that every pointwise rule classifies it
# perfectly on thousands of test pixels), while classes 2/3 form the
# confusable pair (KL 3.04) that the evolution step has to resolve.
# Configuration values, replaceable through PhantomSpec / config files.
def _default_sigmas() -> np.ndarray:
    # packed: [C11, C22, C33, Re C12, Im C12, Re C13, Im C13, Re C23, Im C23]
    base = hm.from_packed(np.array([0.42, 0.018, 0.24, 0.03, 0.012, 0.28, 0.06, 0.01, 0.005]))
    w = hm.cholesky3(base)
    scale_2 = np.array([14.0, 11.0, 8.0])
    # ratio multiset solves sum_i (r_i + 1/r_i - 2)/2 = 0.75, i.e. KL(2,3) = 3 at
    # 4 looks, with the strong expansion on the high-power first direction so
    # class 3 sits far from class 1 in Frobenius distance as well.
    scale_3 = scale_2 * 0.9265972909343432 * np.array([3.0, 0.6, 1.0])
    return hm.to_packed(np.stack([
        base,
        hm.hermitian_part(w @ np.diag(scale_2) @ w.conj().T),
        hm.hermitian_part(w @ np.diag(scale_3) @ w.conj().T),
    ]))


DEFAULT_SIGMAS = _default_sigmas()

DEFAULT_REGIONS = ("background", "band 0.50 0.02 0.13", "disk 0.70 0.72 0.15")


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

    def models(self) -> list[WishartModel]:
        return [WishartModel(hm.from_packed(s), float(self.looks)) for s in self.sigmas]


def _region_mask(region: str, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    parts = region.split()
    kind = parts[0]
    try:
        if kind == "background":
            return np.ones_like(nx, dtype=bool)
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
    ny, nx = np.mgrid[0:spec.height, 0:spec.width]
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
    seed produce different fields over the identical ground truth.
    """
    labels = region_map(spec)
    models = spec.models()
    data = np.empty((spec.height, spec.width, 9))
    for y in range(spec.height):
        rng = np.random.default_rng([spec.seed, y])
        row_labels = labels[y]
        for m, model in enumerate(models):
            mask = row_labels == m + 1
            if mask.any():
                data[y, mask] = hm.to_packed(sample(model, rng, size=int(mask.sum())))
    return CovarianceField(data, looks=float(spec.looks)), ClassMap(labels)


def inscribed_rois(truth: ClassMap, margin: int = 3, max_side: int = 49,
                   min_side: int = 8) -> RoiSet:
    """One square ROI per class, centered where the class region is deepest.

    The chessboard distance transform picks the pixel farthest from the
    region boundary; the square inscribed there is shrunk by ``margin`` and
    capped at ``max_side``.
    """
    rois = RoiSet()
    labels = truth.labels
    for cls in range(1, int(labels.max()) + 1):
        mask = labels == cls
        if not mask.any():
            raise InvalidSpec(f"class {cls} has no pixels")
        # Zero-pad so the image border counts as region boundary; otherwise the
        # inscribed square can stick out of the image.
        padded = np.pad(mask, 1, constant_values=False)
        dist = ndimage.distance_transform_cdt(padded, metric="chessboard")[1:-1, 1:-1]
        depth = int(dist.max())
        y, x = np.unravel_index(int(np.argmax(dist)), dist.shape)
        half = min(depth - 1 - margin, (max_side - 1) // 2)
        if 2 * half + 1 < min_side:
            raise InvalidSpec(
                f"class {cls} region too thin for a {min_side}px ROI at margin {margin}"
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
