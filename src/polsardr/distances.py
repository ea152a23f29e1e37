"""Closed-form stochastic distances between Wishart laws sharing a looks value.

The pairwise references of ``classify.distance_stack``, which does all the
scoring.  They broadcast over leading axes of either argument and are
symmetric, nonnegative, and zero iff the covariances coincide (they are not
metrics: no triangle inequality is claimed).
"""

from __future__ import annotations

import numpy as np

from . import hermitian as hm


def kl_distance(s1, s2, looks: float) -> np.ndarray | float:
    """Symmetrized Kullback-Leibler distance.

    looks * [ (tr(s1^-1 s2) + tr(s2^-1 s1)) / 2 - 3 ], clamped at 0 to kill
    round-off on coincident arguments.
    """
    t = 0.5 * (hm.trace_product(hm.inv3(s1), s2) + hm.trace_product(hm.inv3(s2), s1)) - 3.0
    out = np.maximum(looks * np.asarray(t), 0.0)
    return out if out.ndim else float(out)


def _log_mean_ratio(s1, s2) -> np.ndarray:
    """log of |harmonic mean of (s1, s2)| / sqrt(|s1| |s2|), clipped at 0.

    The determinant of the harmonic mean never exceeds the geometric mean of
    the determinants, so the true value is <= 0; the clip removes round-off.
    """
    inv_mean = 0.5 * (hm.inv3(s1) + hm.inv3(s2))
    r = (-np.log(np.asarray(hm.det3(inv_mean)))
         - 0.5 * (np.log(np.asarray(hm.det3(s1))) + np.log(np.asarray(hm.det3(s2)))))
    return np.minimum(r, 0.0)


def hellinger_distance(s1, s2, looks: float) -> np.ndarray | float:
    """Hellinger distance in [0, 1).

    1 - [ |((s1^-1 + s2^-1)/2)^-1| / sqrt(|s1| |s2|) ]^looks.
    """
    out = -np.expm1(looks * _log_mean_ratio(s1, s2))
    return out if np.ndim(out) else float(out)


def bhattacharyya_distance(s1, s2, looks: float) -> np.ndarray | float:
    """-log(1 - hellinger); computed from log-determinants so large looks are safe."""
    out = -looks * _log_mean_ratio(s1, s2)
    return out if out.ndim else float(out)


def euclidean_distance(s1, s2) -> np.ndarray | float:
    """Frobenius norm of the difference (the non-stochastic baseline)."""
    return hm.frobenius_distance(s1, s2)

