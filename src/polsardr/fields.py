"""Grid-shaped containers: covariance images, label maps, ROIs and splits.

``row_blocks`` runs a whole-field step over row blocks on every usable CPU.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import hermitian as hm

logger = logging.getLogger(__name__)

# Pixels per row block of whole-field work: a block's temporaries (0.36 MB per
# float64 entry array) stay in cache, and per-call overhead stays small.
BLOCK_PIXELS = 45_000


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _each_block(pool, blocks, n_workers, step) -> None:
    """Run step(r0, r1) on every block; return once all of them have finished.

    Worker k runs blocks k, k + n_workers, ...; the calling thread is worker 0
    and the pool runs the others.  The outcome of every worker is read, so an
    exception in any block reaches the caller, and only after no block is
    still being written.
    """
    def run(k):
        for r0, r1 in blocks[k::n_workers]:
            step(r0, r1)

    futures = [pool.submit(run, k) for k in range(1, n_workers)]
    try:
        run(0)
    finally:
        errors = [f.exception() for f in futures]
    for exc in errors:
        if exc is not None:
            raise exc


@contextmanager
def row_blocks(name: str, height: int, width: int):
    """Yield each_block(step), which runs step(r0, r1) over the rows in blocks.

    The one place where a field is split: contiguous blocks of about
    BLOCK_PIXELS pixels, at least one per usable CPU and at most one per row
    (a wider row is one block).  They run on a pool of one worker per usable
    CPU, kept until the context exits.  ``name`` labels the DEBUG record.
    """
    cpus = _usable_cpus()
    n_blocks = min(height, max(cpus, -(-height * width // BLOCK_PIXELS)))
    blocks = [(height * i // n_blocks, height * (i + 1) // n_blocks) for i in range(n_blocks)]
    n_workers = max(min(cpus, n_blocks), 1)
    logger.debug("%s: %dx%d pixels in %d row blocks on %d workers",
                 name, height, width, n_blocks, n_workers)
    with (ThreadPoolExecutor(n_workers - 1) if n_workers > 1 else nullcontext()) as pool:
        yield partial(_each_block, pool, blocks, n_workers)


@dataclass(eq=False)
class CovarianceField:
    """A width x height image whose pixels are 3x3 Hermitian covariance matrices.

    ``data`` is the packed on-disk layout, shape (height, width, 9), float64,
    each pixel [C11, C22, C33, Re C12, Im C12, Re C13, Im C13, Re C23, Im C23]
    (``hermitian.to_packed`` packs complex matrices).  ``looks`` carries the
    equivalent number of looks when known (e.g. from an image header).
    ``data`` is not modified after construction: ``pd_mask`` is computed once.
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

    @cached_property
    def pd_mask(self) -> np.ndarray:
        """(H, W) bool, True where the pixel is positive definite; tested in row blocks."""
        mask = np.empty((self.height, self.width), dtype=bool)

        def test_rows(r0, r1):
            mask[r0:r1] = hm.is_positive_definite(self.data[r0:r1])

        with row_blocks("pd_mask", self.height, self.width) as each_block:
            each_block(test_rows)
        return mask


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
