"""Closed-form stochastic distances between scaled complex Wishart laws.

``_score`` holds each kind's formula once, on packed ``(..., 9)`` arrays:
``classify.distance_stack`` calls it per class column, ``wishart.log_density``
negates its ML score, and the pairwise functions wrap it.  The distances are
symmetric, nonnegative, and zero iff the covariances coincide (they are not
metrics: no triangle inequality is claimed).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from . import hermitian as hm
from .errors import InvalidLooks, InvalidObservation, SingularMatrix


def log_gamma3(looks) -> np.ndarray | float:
    """log Gamma_3(looks) = 3 log pi + sum_{i=0}^{2} log Gamma(looks - i)."""
    looks = np.asarray(looks, dtype=np.float64)
    if np.any(looks < 3):
        raise InvalidLooks("log_gamma3 requires looks >= 3")
    out = 3.0 * np.log(np.pi) + gammaln(looks) + gammaln(looks - 1.0) + gammaln(looks - 2.0)
    return out if out.ndim else float(out)


def _features(x, kind: str) -> tuple:
    """(x, inverse, log|x|) of packed pixels x, each part None unless kind's
    score reads it.  Raises SingularMatrix for a non-finite entry (or a
    singular x, where the inverse is read), and InvalidObservation for a KL,
    HD, BD or ML argument that ``hermitian.is_positive_definite`` rejects; ED
    scores any finite x."""
    inv = log_det = None
    if kind in ("KL", "HD", "BD"):
        inv, det = hm.inv_packed(x)  # tests the entries itself
    elif not np.all(np.isfinite(x)):
        raise SingularMatrix("non-finite matrix entry")
    elif kind == "ML":
        det = hm.det_packed(x)
    if kind != "ED":  # inv33 is the 2x2 leading minor over det, NaN after an overflow
        fast = inv is not None and np.all((x[..., 0] > 0) & (det > 0) & (inv[..., 2] > 0))
        if not (fast or np.all(hm.is_positive_definite(x))):  # the PD test decides
            raise InvalidObservation("matrix is not positive definite")
        if kind != "KL":
            log_det = np.log(det)
    return x, inv, log_det


def _score(kind: str, x: tuple, p: tuple, looks: float) -> np.ndarray:
    """Lower-is-better score of pixels x against prototype p, each given as
    (packed, inverse, log-det) features; the two broadcast.  With L looks:

    KL: L [(tr(X^-1 P) + tr(P^-1 X)) / 2 - 3], clamped at 0 against round-off.
    HD: 1 - r^L and BD: -L log r, r = |((X^-1 + P^-1)/2)^-1| / sqrt(|X| |P|)
    <= 1, with log r clipped at 0.  ED: the Frobenius norm of X - P.  ML: the
    negative Wishart log-density of X under P,
    -[3 L log L + (L - 3) log|X| - L log|P| - log Gamma_3(L) - L tr(P^-1 X)].
    """
    x, x_inv, x_log_det = x
    p, p_inv, p_log_det = p
    if kind == "KL":
        t = 0.5 * (hm.trace_product_packed(x_inv, p) + hm.trace_product_packed(x, p_inv)) - 3.0
        return np.maximum(looks * t, 0.0)
    if kind == "ED":
        diff = x[..., 0] - p[..., 0]
        sq = diff * diff
        for k in range(1, 9):
            diff = x[..., k] - p[..., k]
            sq += hm.TRACE_WEIGHTS[k] * diff * diff
        return np.sqrt(sq)
    if kind == "ML":
        log_norm = 3.0 * looks * np.log(looks) - looks * p_log_det - log_gamma3(looks)
        return looks * hm.trace_product_packed(x, p_inv) - (looks - 3.0) * x_log_det - log_norm
    r = np.minimum(-np.log(hm.det_packed(0.5 * (x_inv + p_inv)))
                   - 0.5 * (x_log_det + p_log_det), 0.0)
    return -np.expm1(looks * r) if kind == "HD" else -looks * r


def _pairwise(kind: str, s1, s2, looks: float) -> np.ndarray | float:
    """kind's distance between complex (..., 3, 3) matrices that broadcast."""
    if not (looks > 0 and np.isfinite(looks)):  # NaN fails the first test
        raise InvalidLooks(f"looks must be finite and > 0, got {looks}")
    # both arguments in one array, so their features take one kernel call
    both = _features(hm.to_packed(np.stack(np.broadcast_arrays(s1, s2))), kind)
    x, p = ([None if f is None else f[i] for f in both] for i in (0, 1))
    out = _score(kind, x, p, looks)
    return out if np.ndim(out) else float(out)


def kl_distance(s1, s2, looks: float) -> np.ndarray | float:
    """Symmetrized Kullback-Leibler distance."""
    return _pairwise("KL", s1, s2, looks)


def hellinger_distance(s1, s2, looks: float) -> np.ndarray | float:
    """Hellinger distance in [0, 1)."""
    return _pairwise("HD", s1, s2, looks)


def bhattacharyya_distance(s1, s2, looks: float) -> np.ndarray | float:
    """-log(1 - hellinger); computed from log-determinants so large looks are safe."""
    return _pairwise("BD", s1, s2, looks)


def euclidean_distance(s1, s2) -> np.ndarray | float:
    """Frobenius norm of the difference (the non-stochastic baseline)."""
    return _pairwise("ED", s1, s2, 1.0)
