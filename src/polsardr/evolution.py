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

import numpy as np

from . import hermitian as hm
from .classify import PrototypeSet, distance_stack
from .distances import KINDS
from .errors import InvalidObservation, StabilityViolation
from .fields import CovarianceField


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


def _diffuse(x: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """Five-point Laplacian update of a packed (H, W, 9) field, replicated edges."""
    p = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
    lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * x
    return x + (params.alpha * params.dt / params.h**2) * lap


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


def _react(x: np.ndarray, protos: PrototypeSet, dt: float, assignments) -> np.ndarray:
    """Contract each packed pixel toward the prototype its assignment names."""
    labels, d1, d2 = assignments
    factor = np.exp(dt * (d1 - d2))[..., None]
    anchor = hm.to_packed(protos.sigmas)[labels]
    out = x - anchor
    out *= factor
    out += anchor
    return out


def diffusion_step(field: CovarianceField, params: EvolutionParams) -> CovarianceField:
    """Five-point Laplacian update with replicated edges (discrete zero flux)."""
    out = _diffuse(hm.to_packed(field.data), params)
    return CovarianceField(hm.from_packed(out), looks=field.looks)


def reaction_step(field: CovarianceField, protos: PrototypeSet, dt: float,
                  kind: str = "KL") -> CovarianceField:
    """Contract each pixel toward its nearest prototype.

    The exponent dt * (nearest - runner_up) is <= 0, so the contraction
    factor lies in (0, 1] and the update is a convex combination; a pixel
    tied between two classes is a fixed point.
    """
    x = hm.to_packed(field.data)
    out = _react(x, protos, dt, _assignments(x, protos, kind))
    return CovarianceField(hm.from_packed(out), looks=field.looks)


def evolve(field: CovarianceField, protos: PrototypeSet, params: EvolutionParams,
           kind: str = "KL") -> tuple[CovarianceField, EvolutionMetrics]:
    """Run `params.iterations` diffusion+reaction iterations and track metrics.

    Metrics row n holds the mean weighted distance to the nearest prototype
    and the fraction of pixels whose nearest class changed, both measured on
    the field at the end of iteration n (row 0: initial field, fraction 0).
    The field evolves in the packed (H, W, 9) layout through the same helpers
    as diffusion_step and reaction_step, and is inverted once per state.
    """
    if not np.all(hm.is_positive_definite(field.data)):
        raise InvalidObservation("initial field has non-positive-definite pixels")
    x = hm.to_packed(field.data)
    assigned = _assignments(x, protos, kind)
    labels = assigned[0]
    iters = [0]
    mean_dist = [float(assigned[1].mean())]
    changed = [0.0]
    for n in range(1, params.iterations + 1):
        x = _diffuse(x, params)
        x = _react(x, protos, params.dt, _assignments(x, protos, kind))
        assigned = _assignments(x, protos, kind)
        iters.append(n)
        mean_dist.append(float(assigned[1].mean()))
        changed.append(float(np.mean(assigned[0] != labels)))
        labels = assigned[0]
    metrics = EvolutionMetrics(
        iteration=np.array(iters),
        mean_weighted_distance=np.array(mean_dist),
        changed_fraction=np.array(changed),
    )
    return CovarianceField(hm.from_packed(x), looks=field.looks), metrics
