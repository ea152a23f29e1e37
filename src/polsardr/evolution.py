"""Explicit two-step evolution of a covariance field under diffusion-reaction.

Each iteration first applies a five-point-stencil diffusion step with
replicated-edge (zero-flux) boundaries, then a reaction step that pulls every
pixel toward the prototype minimizing its weighted stochastic distance:

    step 1:  S' = S + alpha*dt/h^2 * (up + down + left + right - 4 S)
    step 2:  S_new = P_min + exp(dt * (d_min - d_runner_up)) * (S' - P_min)

Under 1 - 4*alpha*dt/h^2 >= 0 both steps are convex combinations of
positive definite matrices, so the field never leaves the cone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classify import KINDS, PrototypeSet, distance_stack
from .errors import InvalidObservation, StabilityViolation
from .fields import CovarianceField, row_blocks


@dataclass(frozen=True, eq=False)
class EvolutionParams:
    """Scheme parameters; construction enforces the cone-membership condition.

    The parameters are frozen, so a checked object cannot become unstable.
    """

    alpha: float = 0.5
    dt: float = 0.01
    h: float = 1.0
    iterations: int = 50

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.dt <= 0 or self.h <= 0:
            raise ValueError(f"dt and h must be > 0, got dt={self.dt}, h={self.h}")
        margin = 1.0 - 4.0 * self.alpha * self.dt / self.h**2
        if margin < 0:
            raise StabilityViolation(f"1 - 4*alpha*dt/h^2 = {margin:.4g} < 0 "
                                     f"(alpha={self.alpha}, dt={self.dt}, h={self.h})")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


@dataclass(eq=False)
class EvolutionMetrics:
    """Per-iteration statistics; row 0 describes the initial field."""

    iteration: np.ndarray
    mean_weighted_distance: np.ndarray
    changed_fraction: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["iteration", "mean_weighted_distance", "changed_fraction"])
            for i, d, c in zip(self.iteration, self.mean_weighted_distance,
                               self.changed_fraction):
                writer.writerow([int(i), repr(float(d)), repr(float(c))])


def _planes(data) -> np.ndarray:
    """Contiguous (9, H, W) copy of packed (H, W, 9) pixels, for the steps to write into."""
    return np.moveaxis(data, -1, 0).copy()


def _pixels(planes: np.ndarray) -> np.ndarray:
    """(N, 9) view of the pixels of (9, rows, W) planes; writes go through."""
    return planes.reshape(9, -1).T


def _diffuse(x: np.ndarray, r0: int, r1: int, params: EvolutionParams,
             out: np.ndarray) -> None:
    """Write rows r0:r1 of the five-point update of planes x into out, replicated edges.

    Reads one row of x above and one below the band.  The neighbours are
    summed up, down, left, right for every pixel, so a band gets the same
    bits as the whole field.
    """
    h = x.shape[1]
    xb = x[:, r0:r1]
    if r0 > 0:
        out[...] = x[:, r0 - 1:r1 - 1]
    else:
        out[:, 0] = x[:, 0]
        out[:, 1:] = x[:, :r1 - 1]
    if r1 < h:
        out += x[:, r0 + 1:r1 + 1]
    else:
        out[:, :-1] += x[:, r0 + 1:]
        out[:, -1] += x[:, -1]
    out[:, :, 1:] += xb[:, :, :-1]
    out[:, :, 0] += xb[:, :, 0]
    out[:, :, :-1] += xb[:, :, 1:]
    out[:, :, -1] += xb[:, :, -1]
    out -= 4.0 * xb
    out *= params.alpha * params.dt / params.h**2
    out += xb


def _assignments(x: np.ndarray, protos: PrototypeSet, kind: str):
    """Labels (0-based), nearest and runner-up weighted distances of packed pixels.

    One elementwise pass over the class columns; the lowest index wins ties,
    as with np.argmin.  The reaction needs a distance, so "ML" is refused.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r} (expected one of {KINDS})")
    stack = distance_stack(x, protos, kind, weighted=True)
    d0, d1 = stack[..., 0], stack[..., 1]
    labels = (d1 < d0).astype(np.intp)
    nearest, runner_up = np.minimum(d0, d1), np.maximum(d0, d1)
    for m in range(2, protos.n_classes):
        d = stack[..., m]
        runner_up = np.minimum(runner_up, np.maximum(nearest, d))
        labels[d < nearest] = m
        nearest = np.minimum(nearest, d)
    return labels, nearest, runner_up


def _react(pixels: np.ndarray, protos: PrototypeSet, dt: float, assignments) -> None:
    """Contract packed (N, 9) pixels in place toward the prototypes their assignment names."""
    labels, d1, d2 = assignments
    factor = np.exp(dt * (d1 - d2))
    for k in range(9):
        anchor = protos.sigmas[labels, k]
        entry = pixels[:, k]
        entry -= anchor
        entry *= factor
        entry += anchor


def _assign_band(protos, kind, x, labels, nearest, r0, r1) -> None:
    """Write the labels and nearest distances of rows r0:r1 of planes x."""
    band_labels, band_nearest, _ = _assignments(_pixels(x[:, r0:r1]), protos, kind)
    labels[r0:r1] = band_labels.reshape(r1 - r0, -1)
    nearest[r0:r1] = band_nearest.reshape(r1 - r0, -1)


def _evolve_band(protos, params, kind, x, y, labels, nearest, r0, r1) -> None:
    """One iteration on rows r0:r1: diffuse x into y, react in place, assign the result."""
    yb = y[:, r0:r1]
    _diffuse(x, r0, r1, params, yb)
    pixels = _pixels(yb)
    _react(pixels, protos, params.dt, _assignments(pixels, protos, kind))
    _assign_band(protos, kind, y, labels, nearest, r0, r1)


def diffusion_step(field: CovarianceField, params: EvolutionParams) -> CovarianceField:
    """Five-point Laplacian update with replicated edges (discrete zero flux)."""
    x = _planes(field.data)
    out = np.empty_like(x)
    _diffuse(x, 0, x.shape[1], params, out)
    return CovarianceField(np.moveaxis(out, 0, -1), field.looks)


def reaction_step(field: CovarianceField, protos: PrototypeSet, dt: float,
                  kind: str = "KL") -> CovarianceField:
    """Contract each pixel toward its nearest prototype.

    The exponent dt * (nearest - runner_up) is <= 0, so the contraction
    factor lies in (0, 1] and the update is a convex combination; a pixel
    tied between two classes is a fixed point.
    """
    x = _planes(field.data)
    pixels = _pixels(x)
    _react(pixels, protos, dt, _assignments(pixels, protos, kind))
    return CovarianceField(np.moveaxis(x, 0, -1), field.looks)


def evolve(field: CovarianceField, protos: PrototypeSet, params: EvolutionParams,
           kind: str = "KL") -> tuple[CovarianceField, EvolutionMetrics]:
    """Run `params.iterations` diffusion+reaction iterations and track metrics.

    Metrics row n holds the mean weighted distance to the nearest prototype
    and the fraction of pixels whose nearest class changed, both measured on
    the field at the end of iteration n (row 0: initial field, fraction 0).

    The field evolves as packed (9, H, W) planes in contiguous row bands of
    about ``fields.BLOCK_PIXELS`` pixels, at least one per usable CPU
    (``fields.row_blocks``).  Each iteration diffuses, reacts and assigns
    every band, a band reading one row of the previous state above and below
    it, and waits for all bands before the next.  The bands run the helpers of
    diffusion_step and reaction_step and every pixel is inverted once per
    state, so the result does not depend on the number of bands.
    """
    if not np.all(field.pd_mask):
        raise InvalidObservation("initial field has non-positive-definite pixels")
    x = _planes(field.data)
    y = np.empty_like(x)
    h, w = x.shape[1:]
    labels, prev = np.empty((2, h, w), dtype=np.intp)
    nearest = np.empty((h, w))
    iters, changed = [0], [0.0]
    with row_blocks("evolve", h, w) as each_band:
        each_band(partial(_assign_band, protos, kind, x, labels, nearest))
        mean_dist = [float(nearest.mean())]
        for n in range(1, params.iterations + 1):
            labels, prev = prev, labels
            each_band(partial(_evolve_band, protos, params, kind, x, y, labels, nearest))
            x, y = y, x
            iters.append(n)
            mean_dist.append(float(nearest.mean()))
            changed.append(float(np.mean(labels != prev)))
    metrics = EvolutionMetrics(
        iteration=np.array(iters),
        mean_weighted_distance=np.array(mean_dist),
        changed_fraction=np.array(changed),
    )
    return CovarianceField(np.moveaxis(x, 0, -1), field.looks), metrics
