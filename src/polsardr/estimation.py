"""Maximum-likelihood estimation of (sigma, looks) with Box-Snell bias correction.

The covariance estimate is the sample mean.  The looks estimate solves the
score equation

    3 log(l) + mean_k log|Z_k| - log|mean Z| - polygamma3(0, l) = 0,

which is strictly decreasing in l, so a sign change on the bracket pins a
unique root.  The first-order Box-Snell bias estimate is then subtracted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import polygamma

from . import hermitian as hm
from .errors import DomainError, EmptySample, InvalidObservation, NoRoot

logger = logging.getLogger(__name__)

LOOKS_BRACKET = (3.0 + 1e-6, 1e4)


@dataclass(frozen=True, eq=False)
class SampleStats:
    """Sufficient statistics of a covariance sample for looks estimation."""

    n: int
    mean: np.ndarray
    mean_log_det: float

    @classmethod
    def from_sample(cls, sample) -> "SampleStats":
        sample = np.asarray(sample, dtype=np.complex128)
        if sample.ndim == 2:
            sample = sample[None]
        if sample.shape[0] == 0:
            raise EmptySample("cannot build statistics from an empty sample")
        dets = np.asarray(hm.det3(sample))
        if np.any(dets <= 0):
            raise InvalidObservation(
                f"{int(np.sum(dets <= 0))} sample matrices are not positive definite"
            )
        return cls(
            n=sample.shape[0],
            mean=sample.mean(axis=0),
            mean_log_det=float(np.mean(np.log(dets))),
        )


def polygamma3(order: int, looks) -> np.ndarray | float:
    """Trivariate polygamma: sum_{i=0}^{2} polygamma(order, looks - i).

    Requires looks > 2 so that every shifted argument is positive.
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    looks = np.asarray(looks, dtype=np.float64)
    if np.any(looks <= 2):
        raise DomainError(f"polygamma3 requires looks > 2, got {looks}")
    out = (polygamma(order, looks) + polygamma(order, looks - 1.0)
           + polygamma(order, looks - 2.0))
    return out if out.ndim else float(out)


def looks_score(looks: float, stats: SampleStats) -> float:
    """Score whose unique root is the ML looks estimate."""
    return (3.0 * np.log(looks) + stats.mean_log_det
            - np.log(hm.det3(stats.mean)) - polygamma3(0, looks))


def estimate_looks_ml(stats: SampleStats, tol: float = 1e-10) -> float:
    lo, hi = LOOKS_BRACKET
    f_lo = looks_score(lo, stats)
    f_hi = looks_score(hi, stats)
    if f_hi > 0:
        raise NoRoot("looks score positive on the whole bracket "
                     "(near-dispersion-free sample)", side="high")
    if f_lo <= 0:
        raise NoRoot("looks score negative at the bracket bottom "
                     "(sample more dispersed than looks = 3 allows)", side="low")
    root = brentq(looks_score, lo, hi, args=(stats,), xtol=tol, rtol=8.9e-16)
    # One Newton step for the last digits; the slope 3/l - polygamma3(1, l)
    # is strictly negative so the step is well defined.
    slope = 3.0 / root - polygamma3(1, root)
    root -= looks_score(root, stats) / slope
    return float(root)


def box_snell_bias(looks: float, n: int) -> float:
    """First-order bias of the ML looks estimate for a sample of size n."""
    if looks <= 2:
        raise DomainError(f"bias formula needs looks > 2, got {looks}")
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    denom = polygamma3(1, looks) - 3.0 / looks
    if denom <= 0:
        raise DomainError("outside the bias estimator's validity region")
    return (9.0 / (2.0 * n * looks * denom)
            - (3.0 / (2.0 * looks) + polygamma3(2, looks)) / (2.0 * n * denom))


def estimate_looks_corrected(stats: SampleStats) -> float:
    """Bias-corrected looks estimate, clamped below at 3, with a warning.  Without a
    root on LOOKS_BRACKET it is clamped to the bracket top (NoRoot side "high") or to 3."""
    try:
        ml = estimate_looks_ml(stats)
    except NoRoot as exc:
        clamp = LOOKS_BRACKET[1] if exc.side == "high" else 3.0
        logger.warning("looks estimation: %s; using %.1f", exc, clamp)
        return clamp
    corrected = ml - box_snell_bias(ml, stats.n)
    if corrected < 3.0:
        logger.warning("corrected looks %.4f fell below 3; clamped", corrected)
        return 3.0
    return float(corrected)

