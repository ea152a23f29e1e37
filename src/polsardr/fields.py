"""Grid-shaped containers: covariance images, label maps, ROIs and splits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class CovarianceField:
    """A width x height image whose pixels are 3x3 Hermitian covariance matrices.

    ``data`` is the packed on-disk layout, shape (height, width, 9), float64,
    each pixel [C11, C22, C33, Re C12, Im C12, Re C13, Im C13, Re C23, Im C23]
    (``hermitian.to_packed`` packs complex matrices).  ``looks`` carries the
    equivalent number of looks when known (e.g. from an image header).
    """

    data: np.ndarray
    looks: float | None = None

    def __post_init__(self):
        data = np.asarray(self.data)
        if np.iscomplexobj(data) or data.ndim != 3 or data.shape[2] != 9:
            raise ValueError(f"expected packed (H, W, 9) data, got {data.dtype} {data.shape}")
        self.data = data.astype(np.float64, copy=False)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(eq=False)
class ClassMap:
    """Per-pixel class labels in {1, ..., M}; 0 marks an unclassified pixel."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 2:
            raise ValueError(f"expected (H, W) labels, got {self.labels.shape}")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max())


@dataclass(eq=False)
class RoiSet:
    """Per class, a list of inclusive axis-aligned rectangles (x0, y0, x1, y1)."""

    rects: dict[int, list[tuple[int, int, int, int]]] = field(default_factory=dict)

    @property
    def classes(self) -> list[int]:
        return sorted(self.rects)

    def pixels(self, cls: int) -> np.ndarray:
        """Deduplicated (y, x) coordinates of class `cls`, row-major order."""
        coords = set()
        for x0, y0, x1, y1 in self.rects[cls]:
            for y in range(y0, y1 + 1):
                for x in range(x0, x1 + 1):
                    coords.add((y, x))
        return np.array(sorted(coords), dtype=np.int64).reshape(-1, 2)


@dataclass(eq=False)
class Split:
    """Disjoint train/test pixel lists per class, each an (n, 2) array of (y, x)."""

    train: dict[int, np.ndarray]
    test: dict[int, np.ndarray]

    @property
    def classes(self) -> list[int]:
        return sorted(self.train)
