"""Class-weight estimation on the unit simplex by energy descent.

The discrimination energy sums, over every training pixel, the saturated
margins between the weighted distance to the pixel's own prototype and the
weighted distances to all rival prototypes:

    sum_m (1/M_m) sum_k sum_{m' != m}
        saturate(w_m d(Z_m^k, Z_m) - w_m' d(Z_m^k, Z_m'), lam)

Lower energy means training pixels sit closer (in weighted distance) to
their own class than to rivals.  The minimizer runs projected gradient
descent: central-difference gradient, projection onto the zero-sum tangent,
backtracking line search, then Euclidean projection back onto the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataio, hermitian as hm
from .classify import KINDS, PrototypeSet, _stack
from .distances import _features
from .errors import InvalidObservation, NonFiniteEnergy

FD_STEP = 1e-6
INITIAL_STEP = 0.1  # where every line search starts
ENERGY_TOL = 1e-8  # the descent stops once an iteration gains less energy than this


def saturate(s, lam: float) -> np.ndarray | float:
    """Odd, bounded, increasing transfer s / (1 + lam * |s|); range (-1/lam, 1/lam)."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    s = hm._real(s)
    out = s / (1.0 + lam * np.abs(s))
    return out if out.ndim else float(out)


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sort-based)."""
    v = hm._real(v)
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - cumsum) / np.arange(1, v.size + 1) > 0)[0][-1]
    shift = (1.0 - cumsum[rho]) / (rho + 1.0)
    w = np.maximum(v + shift, 0.0)
    return w / w.sum()


@dataclass(eq=False)
class TrainingSet:
    """Class prototypes and per-class training samples.

    ``samples[m]`` holds the packed (n_m, 9) covariance observations of class
    m, component-major, and their PD test's determinants serve the distances,
    which are evaluated unweighted at ``protos.shared_looks``.
    """

    protos: PrototypeSet
    samples: list[np.ndarray]

    def __post_init__(self):
        self.samples = [hm.component_major(s) for s in self.samples]
        if len(self.samples) != self.protos.n_classes:
            raise ValueError("one sample block per class required")
        if any(s.shape[0] < 1 for s in self.samples):
            raise ValueError("every class needs at least one training sample")
        self._dets, pd = zip(*(hm._det_pd(s) for s in self.samples))
        if not all(np.all(ok) for ok in pd):
            raise InvalidObservation("training samples must be positive definite")


def distance_tables(train: TrainingSet, kind: str) -> list[np.ndarray]:
    """tables[m][k, m'] = d(sample k of class m, prototype m'), C order; weight-independent."""
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r} (expected one of {KINDS})")
    return [np.ascontiguousarray(_stack(_features(s, kind, det), train.protos, kind).T)
            for s, det in zip(train.samples, train._dets)]


def _energy(weights: np.ndarray, tables: list[np.ndarray], lam: float) -> float:
    total = 0.0
    for m, table in enumerate(tables):
        margins = (weights[m] * table[:, m])[:, None] - weights[None, :] * table
        p = saturate(margins, lam)
        p[:, m] = 0.0
        total += p.sum() / table.shape[0]
    return float(total)


def energy(weights, train: TrainingSet, kind: str, lam: float) -> float:
    """Discrimination energy of a weight vector on a training set."""
    return _energy(np.asarray(weights, dtype=np.float64), distance_tables(train, kind), lam)


def _fd_gradient(weights, tables, lam):
    g = np.empty(weights.size)
    for i in range(weights.size):
        e = np.zeros(weights.size)
        e[i] = FD_STEP
        g[i] = (_energy(weights + e, tables, lam) - _energy(weights - e, tables, lam)) / (2 * FD_STEP)
    return g - g.mean()  # tangent of the sum-to-one constraint


@dataclass(eq=False)
class WeightResult:
    weights: np.ndarray
    energy: float
    n_iter: int
    converged: bool
    trace: list[tuple[int, float, np.ndarray]]

    def write_trace_csv(self, path):
        header = ["iteration", "energy"] + [f"w{i + 1}" for i in range(self.weights.size)]
        dataio._write_csv(path, header, ([it, repr(float(en))] + [repr(float(x)) for x in w]
                                         for it, en, w in self.trace))


def optimize_weights(train: TrainingSet, kind: str, lam: float,
                     max_iters: int = 500) -> WeightResult:
    """Projected gradient descent from the uniform weight vector.

    Accepted steps never increase the energy (backtracking enforces it) and
    every iterate is simplex-feasible.
    """
    m = train.protos.n_classes
    tables = distance_tables(train, kind)
    w = np.full(m, 1.0 / m)
    cur = _energy(w, tables, lam)
    if not np.isfinite(cur):
        raise NonFiniteEnergy("energy is not finite at the uniform weights")
    trace = [(0, cur, w.copy())]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        g = _fd_gradient(w, tables, lam)
        if not np.all(np.isfinite(g)):
            raise NonFiniteEnergy(f"non-finite gradient at iteration {it}: {g}")
        step = INITIAL_STEP
        w_new, e_new = w, cur
        while step > 1e-14:
            cand = project_to_simplex(w - step * g)
            e_cand = _energy(cand, tables, lam)
            if not np.isfinite(e_cand):
                raise NonFiniteEnergy(f"non-finite energy at iteration {it}")
            if e_cand < cur:
                w_new, e_new = cand, e_cand
                break
            step *= 0.5
        if e_new >= cur - ENERGY_TOL:
            # No step improved, or the improvement is below tolerance.
            if e_new < cur:
                w, cur = w_new, e_new
                trace.append((it, cur, w.copy()))
            converged = True
            break
        w, cur = w_new, e_new
        trace.append((it, cur, w.copy()))
    return WeightResult(weights=w, energy=cur, n_iter=it, converged=converged, trace=trace)
