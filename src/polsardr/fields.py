"""Grid-shaped containers: covariance images, label maps, ROIs and splits.

``row_blocks`` runs a whole-field step over row blocks on every usable CPU.
"""

from __future__ import annotations

import logging
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NonPositiveDefinitePixelWarning

logger = logging.getLogger(__name__)

# Pixels per row block of whole-field work: one float64 entry or class row of a
# block (0.36 MB) stays in a 2 MB L2 cache between the passes that run over it
# one entry or class at a time (all nine entries, 3.2 MB, do not), and
# per-call overhead stays small.
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


def warn_non_pd(valid: np.ndarray) -> None:
    """Warn NonPositiveDefinitePixelWarning, as the caller's caller, of valid's False pixels."""
    n_bad = valid.size - int(np.count_nonzero(valid))
    if n_bad:  # the first five lie in the first five rows that hold any
        bad = ~valid
        last = np.flatnonzero(bad.any(axis=1))[:5][-1]
        first = np.argwhere(bad[:last + 1])[:5]
        warnings.warn(NonPositiveDefinitePixelWarning(n_bad, first, valid.shape), stacklevel=3)


class CovarianceField:
    """A width x height image whose pixels are 3x3 Hermitian covariance matrices.

    Pixels are packed as on disk, float64, each [C11, C22, C33, Re C12, Im C12,
    Re C13, Im C13, Re C23, Im C23]; a complex array is refused.
    ``rows(r0, r1)``, the field's one reader, gives rows r0..r1-1 and is safe
    to call from several threads at once: a field built from an array slices
    it, and one built by ``from_rows`` (``dataio.read_covariance_image``)
    reads the rows on each call, so row-block work holds a block per worker,
    not the image.  ``looks`` carries the equivalent number of looks when
    known (e.g. from an image header).
    """

    def __init__(self, data, looks: float | None = None):
        data = np.asarray(data)
        if np.iscomplexobj(data) or data.ndim != 3 or data.shape[2] != 9:
            raise ValueError(f"expected packed (H, W, 9) data, got {data.dtype} {data.shape}")
        data = data.astype(np.float64, copy=False)
        self.rows = lambda r0, r1: data[r0:r1]
        self.height, self.width = data.shape[:2]
        self.looks = looks

    @classmethod
    def from_rows(cls, read_rows, height: int, width: int,
                  looks: float | None = None) -> CovarianceField:
        """A field whose rows r0..r1-1 are read_rows(r0, r1), a new float64
        (r1 - r0, width, 9) array each call."""
        field = cls.__new__(cls)
        field.rows, field.height, field.width, field.looks = read_rows, height, width, looks
        return field


@dataclass(eq=False)
class ClassMap:
    """Per-pixel class labels in {1, ..., M}; 0 marks an unclassified pixel."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.dtype != np.uint8:  # a cast would wrap 256 to the no-data 0 and cut 1.7 to 1
            if labels.dtype.kind not in "buif" or not np.isin(labels, np.arange(256)).all():
                raise ValueError("labels must be integers in 0..255")
        self.labels = labels.astype(np.uint8, copy=False)
        if self.labels.ndim != 2:
            raise ValueError(f"expected (H, W) labels, got {self.labels.shape}")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(eq=False)
class RoiSet:
    """Per class, a list of inclusive axis-aligned rectangles (x0, y0, x1, y1)."""

    rects: dict[int, list[tuple[int, int, int, int]]] = field(default_factory=dict)

    @property
    def classes(self) -> list[int]:
        return sorted(self.rects)

    def pixels(self, cls: int) -> np.ndarray:
        """Deduplicated (y, x) coordinates of class `cls`, row-major order."""
        grids = [np.mgrid[y0:y1 + 1, x0:x1 + 1].reshape(2, -1).T
                 for x0, y0, x1, y1 in self.rects[cls]]
        return np.unique(np.concatenate([np.empty((0, 2), dtype=np.int64)] + grids), axis=0)


@dataclass(eq=False)
class Split:
    """Disjoint train/test pixel lists per class, each an (n, 2) array of (y, x)."""

    train: dict[int, np.ndarray]
    test: dict[int, np.ndarray]

    @property
    def classes(self) -> list[int]:
        return sorted(self.train)
