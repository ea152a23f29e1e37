"""Maximum-likelihood estimation of (sigma, looks) with Box-Snell bias correction.

The covariance estimate is the sample mean.  The looks estimate solves the
score equation

    3 log(l) + mean_k log|Z_k| - log|mean Z| - polygamma3(0, l) = 0,

which is strictly decreasing in l, so a sign change on the bracket pins a
unique root.  The first-order Box-Snell bias estimate is then subtracted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import hermitian as hm
from .errors import DomainError, EmptySample, InvalidObservation, NoRoot

logger = logging.getLogger(__name__)

LOOKS_BRACKET = (3.0 + 1e-6, 1e4)


@dataclass(frozen=True, eq=False)
class SampleStats:
    """Sufficient statistics of a covariance sample for looks estimation; the
    mean is packed (9,) like the sample."""

    n: int
    mean: np.ndarray
    mean_log_det: float
    log_det_of_mean: float = field(init=False)  # a constant of the looks score

    def __post_init__(self):
        object.__setattr__(self, "log_det_of_mean", np.log(hm.det_packed(self.mean)))

    @classmethod
    def from_sample(cls, sample) -> "SampleStats":
        """Statistics of packed (n, 9) pixels (or one (9,) pixel).

        The pixels are summed one row after another and the sum is multiplied
        by 1/n, as numpy's mean of complex matrices divides, so the mean has
        the bits of the mean of the unpacked matrices.
        """
        sample = np.ascontiguousarray(hm._packed(sample).reshape(-1, 9))
        n = sample.shape[0]
        if n == 0:
            raise EmptySample("cannot build statistics from an empty sample")
        det, pd = hm._det_pd(sample)
        if not pd.all():
            raise InvalidObservation(f"{(~pd).sum()} sample matrices are not positive definite")
        return cls(n=n, mean=sample.sum(axis=0) * (1.0 / n),
                   mean_log_det=float(np.mean(np.log(det))))


def polygamma3(order: int, looks) -> np.ndarray | float:
    """Trivariate polygamma: sum_{i=0}^{2} polygamma(order, looks - i).

    Requires looks > 2 so that every shifted argument is positive.
    """
    from scipy.special import polygamma  # deferred: `import polsardr` loads numpy only

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
            - stats.log_det_of_mean - polygamma3(0, looks))


def _brent_root(f, xpre, xcur, fpre, fcur, xtol, rtol):
    """Root of f between xpre and xcur, given fpre = f(xpre) > 0 >= fcur = f(xcur).

    scipy's brentq.c step for step, so the root has the bits that
    ``scipy.optimize.brentq`` returns: inverse quadratic or secant steps while
    they shrink fast enough, bisection otherwise, until the bracket is within
    2*delta = xtol + rtol*|x|, in at most brentq's default 100 iterations.  The
    arithmetic runs on numpy floats, so a flat step divides by zero as C does
    and falls back to bisection.
    """
    xpre, xcur, fpre, fcur = map(np.float64, (xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.float64(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (xtol + rtol * abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            if fcur == 0 or abs(sbis) < delta:
                return xcur
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                    spre, scur = scur, stry
                else:
                    spre = scur = sbis
            else:
                spre = scur = sbis
            xpre, fpre = xcur, fcur
            xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
            fcur = np.float64(f(xcur))
    raise RuntimeError("Failed to converge after 100 iterations.")


def estimate_looks_ml(stats: SampleStats) -> float:
    lo, hi = LOOKS_BRACKET
    f_lo = looks_score(lo, stats)
    f_hi = looks_score(hi, stats)
    if f_hi > 0:
        raise NoRoot("looks score positive on the whole bracket "
                     "(near-dispersion-free sample)", side="high")
    if f_lo <= 0:
        raise NoRoot("looks score negative at the bracket bottom "
                     "(sample more dispersed than looks = 3 allows)", side="low")
    root = _brent_root(lambda x: looks_score(x, stats), lo, hi, f_lo, f_hi,
                       xtol=1e-10, rtol=8.9e-16)
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

