"""Explicit two-step evolution of a covariance field under diffusion-reaction.

Each iteration first applies a five-point-stencil diffusion step with
replicated-edge (zero-flux) boundaries, then a reaction step that pulls every
pixel toward the prototype minimizing its weighted stochastic distance:

    step 1:  S' = S + alpha*dt * (up + down + left + right - 4 S)
    step 2:  S_new = P_min + exp(dt * (d_min - d_runner_up)) * (S' - P_min)

The grid step h is one pixel, so the paper's alpha*dt/h^2 is alpha*dt.
Under 1 - 4*alpha*dt >= 0 both steps are convex combinations of positive
definite matrices, so the field never leaves the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dataio, hermitian as hm
from .classify import KINDS, PrototypeSet, _nearest, _stack
from .distances import _features
from .errors import InvalidObservation, StabilityViolation
from .fields import CovarianceField, row_blocks


@dataclass(frozen=True, eq=False)
class EvolutionParams:
    """Scheme parameters on a grid of one-pixel steps; construction enforces the
    cone-membership condition.

    The parameters are frozen, so a checked object cannot become unstable.
    """

    alpha: float = 0.5
    dt: float = 0.01
    iterations: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        margin = 1.0 - 4.0 * self.alpha * self.dt
        if margin < 0:
            raise StabilityViolation(f"1 - 4*alpha*dt = {margin:.4g} < 0 "
                                     f"(alpha={self.alpha}, dt={self.dt})")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


@dataclass(eq=False)
class EvolutionMetrics:
    """Per-iteration statistics; row 0 describes the initial field."""

    iteration: np.ndarray
    mean_weighted_distance: np.ndarray
    changed_fraction: np.ndarray

    def write_csv(self, path) -> None:
        columns = zip(self.iteration, self.mean_weighted_distance, self.changed_fraction)
        dataio._write_csv(path, ["iteration", "mean_weighted_distance", "changed_fraction"],
                          ([int(i), repr(float(d)), repr(float(c))] for i, d, c in columns))


def _pixels(planes: np.ndarray) -> np.ndarray:
    """(N, 9) view of the pixels of (9, rows, W) planes; writes go through."""
    return planes.reshape(9, -1).T


def _diffuse(s: np.ndarray, params: EvolutionParams, out: np.ndarray) -> None:
    """Write into out the five-point update of the inner rows of plane s, whose
    first and last rows are the rows above and below them; replicated left and
    right edges.

    The neighbours are summed up, down, left, right for every pixel, so a band
    gets the same bits as the whole field when its outer rows are its
    neighbours' rows, or its own edge row at the image edge.
    """
    pb = s[1:-1]
    np.add(s[:-2], s[2:], out=out)
    out[:, 1:] += pb[:, :-1]
    out[:, 0] += pb[:, 0]
    out[:, :-1] += pb[:, 1:]
    out[:, -1] += pb[:, -1]
    out -= 4.0 * pb
    out *= params.alpha * params.dt
    out += pb


def _assignments(x: np.ndarray, protos: PrototypeSet, kind: str, det=None):
    """Labels (0-based), nearest and runner-up weighted distances of component-major
    (N, 9) pixels (``classify._nearest``), whose determinants, when given, are det."""
    return _nearest(_stack(_features(x, kind, det), protos, kind, weighted=True))


def _react(pixels: np.ndarray, protos: PrototypeSet, dt: float, assignments) -> None:
    """Contract packed (N, 9) pixels in place toward the prototypes their assignment names."""
    labels, d1, d2 = assignments
    factor = np.exp(dt * (d1 - d2))
    columns = np.ascontiguousarray(protos.sigmas.T)  # each entry's M values, for take
    for k in range(9):
        anchor = columns[k].take(labels)
        entry = pixels[:, k]
        entry -= anchor
        entry *= factor
        entry += anchor


def _assign_band(protos, kind, x, labels, nearest, r0, r1, det=None) -> None:
    """Write the labels and nearest distances of rows r0:r1 of planes x, whose
    determinants, when given, are det."""
    band_labels, band_nearest, _ = _assignments(_pixels(x[:, r0:r1]), protos, kind, det)
    labels[r0:r1] = band_labels.reshape(r1 - r0, -1)
    nearest[r0:r1] = band_nearest.reshape(r1 - r0, -1)


def _save_edges(x, edges, r0, r1) -> None:
    """Copy the first and last rows of rows r0:r1 of planes x into edges, by row."""
    edges[r0], edges[r1 - 1] = x[:, r0].copy(), x[:, r1 - 1].copy()


def _enter_band(field, protos, kind, x, labels, nearest, edges, r0, r1) -> None:
    """Fill rows r0:r1 of planes x from field.rows, PD-test them, assign them and
    save their edge rows."""
    xb = x[:, r0:r1]
    xb[...] = np.moveaxis(field.rows(r0, r1), -1, 0)
    det, pd = hm._det_pd(_pixels(xb))  # no copy: each entry is contiguous
    if not np.all(pd):
        raise InvalidObservation("initial field has non-positive-definite pixels")
    _assign_band(protos, kind, x, labels, nearest, r0, r1, det)
    _save_edges(x, edges, r0, r1)


def _evolve_band(protos, params, kind, x, labels, nearest, halo, edges, r0, r1) -> None:
    """One iteration on rows r0:r1 of planes x, in place: diffuse, react, assign the
    result and save its edge rows in edges.

    Each entry plane diffuses from a copy of its rows between the rows above
    and below them, which halo holds as the neighbouring bands saved them
    after the previous iteration (this band's own edge row at the image edge).
    """
    s = np.empty((r1 - r0 + 2, x.shape[2]))
    for k, p in enumerate(x):
        s[1:-1] = p[r0:r1]
        s[0] = halo[r0 - 1][k] if r0 > 0 else s[1]
        s[-1] = halo[r1][k] if r1 < x.shape[1] else s[-2]
        _diffuse(s, params, p[r0:r1])
    pixels = _pixels(x[:, r0:r1])
    _react(pixels, protos, params.dt, _assignments(pixels, protos, kind))
    _assign_band(protos, kind, x, labels, nearest, r0, r1)
    _save_edges(x, edges, r0, r1)


def evolve(field: CovarianceField, protos: PrototypeSet, params: EvolutionParams,
           kind: str) -> tuple[CovarianceField, EvolutionMetrics]:
    """Run `params.iterations` diffusion+reaction iterations and track metrics.

    Metrics row n holds the mean weighted distance to the nearest prototype
    and the fraction of pixels whose nearest class changed, both measured on
    the field at the end of iteration n (row 0: initial field, fraction 0).

    The field evolves in place as one packed (9, H, W) array of entry planes,
    in contiguous row bands of about ``fields.BLOCK_PIXELS`` pixels, at least
    one per usable CPU (``fields.row_blocks``).  Each iteration diffuses,
    reacts and assigns every band and waits for all bands before the next.  A
    band diffuses each entry plane from a copy of its rows and of the rows
    above and below it, which its neighbours saved at the end of the previous
    iteration (two sets of saved rows alternate).  No pixel's update or scores
    depend on its band, and every pixel is inverted once per state, so the
    result does not depend on the number of bands.  The first pass reads each band through
    ``field.rows`` and PD-tests it, and the test's determinants serve its
    first assignment.  With alpha = 0 and one iteration, the result is one
    reaction step.  The reaction needs a distance, so "ML" is refused before
    any row is read.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r} (expected one of {KINDS})")
    h, w = field.height, field.width
    x = np.empty((9, h, w))
    labels, prev = np.empty((2, h, w), dtype=np.uint8)  # MAX_CLASSES labels fit
    nearest = np.empty((h, w))
    halo, edges = {}, {}  # band edge rows by row number: of the state read, of the one made
    iters, changed = [0], [0.0]
    with row_blocks("evolve", h, w) as each_band:
        each_band(partial(_enter_band, field, protos, kind, x, labels, nearest, edges))
        mean_dist = [float(nearest.mean())]
        for n in range(1, params.iterations + 1):
            labels, prev = prev, labels
            halo, edges = edges, halo
            each_band(partial(_evolve_band, protos, params, kind, x, labels, nearest,
                              halo, edges))
            iters.append(n)
            mean_dist.append(float(nearest.mean()))
            changed.append(float(np.mean(labels != prev)))
    metrics = EvolutionMetrics(
        iteration=np.array(iters),
        mean_weighted_distance=np.array(mean_dist),
        changed_fraction=np.array(changed),
    )
    return CovarianceField(np.moveaxis(x, 0, -1), field.looks), metrics
