"""Maximum-likelihood estimation of (sigma, looks) with Box-Snell bias correction.

The covariance estimate is the sample mean.  The looks estimate solves the
score equation

    3 log(l) + mean_k log|Z_k| - log|mean Z| - polygamma3(0, l) = 0,

which is strictly decreasing in l, so a sign change on the bracket pins a
unique root.  The first-order Box-Snell bias estimate is then subtracted.
"""

from __future__ import annotations

import logging
import math
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


# B_2, B_4, ..., B_14: the asymptotic series below is within 1.2e-14 relative at x >= 10
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _polygamma(order: int, x: float) -> float:
    """psi^(order)(x) for x > 0: psi^(n)(x) = psi^(n)(x+1) + (-1)^(n+1) n!/x^(n+1)
    until x >= 10, then the asymptotic series in 1/x."""
    sign = -1.0 if order % 2 == 0 else 1.0  # (-1)^(n+1)
    fact = math.factorial(order)
    head = 0.0
    while x < 10.0:
        head += sign * fact / x ** (order + 1)
        x += 1.0
    # (-1)^(n+1) [(n-1)!/x^n + n!/(2 x^(n+1)) + sum_k B_2k (2k+n-1)!/((2k)! x^(2k+n))],
    # with log x in place of the first term for n = 0
    tail = sum(b * math.factorial(2 * k + order - 1) / (math.factorial(2 * k) * x ** (2 * k + order))
               for k, b in enumerate(_BERNOULLI, start=1))
    lead = math.log(x) if order == 0 else sign * math.factorial(order - 1) / x ** order
    return head + lead + sign * (fact / (2.0 * x ** (order + 1)) + tail)


def polygamma3(order: int, looks: float) -> float:
    """Trivariate polygamma: sum_{i=0}^{2} polygamma(order, looks - i), order 0, 1 or 2.

    Requires looks > 2 so that every shifted argument is positive.
    """
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1 or 2, got {order}")
    if not looks > 2:  # NaN fails the test too
        raise DomainError(f"polygamma3 requires looks > 2, got {looks}")
    looks = float(looks)
    return _polygamma(order, looks) + _polygamma(order, looks - 1.0) + _polygamma(order, looks - 2.0)


def looks_score(looks: float, stats: SampleStats) -> float:
    """Score whose unique root is the ML looks estimate."""
    return (3.0 * np.log(looks) + stats.mean_log_det
            - stats.log_det_of_mean - polygamma3(0, looks))


def estimate_looks_ml(stats: SampleStats) -> float:
    lo, hi = LOOKS_BRACKET
    if looks_score(hi, stats) > 0:
        raise NoRoot("looks score positive on the whole bracket "
                     "(near-dispersion-free sample)", side="high")
    if looks_score(lo, stats) <= 0:
        raise NoRoot("looks score negative at the bracket bottom "
                     "(sample more dispersed than looks = 3 allows)", side="low")
    # bisection keeps score(lo) > 0 >= score(hi); at most 47 halvings reach 1e-10
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if looks_score(mid, stats) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    # One Newton step for the last digits; the slope 3/l - polygamma3(1, l)
    # is strictly negative so the step is well defined.
    slope = 3.0 / root - polygamma3(1, root)
    root -= looks_score(root, stats) / slope
    return float(root)


def box_snell_bias(looks: float, n: int) -> float:
    """First-order bias of the ML looks estimate for a sample of size n."""
    if not looks > 2:  # NaN fails the test too
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

