"""Exception types shared across the package."""


class PolsarError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(PolsarError):
    """Determinant magnitude below the singularity tolerance."""


class NotPositiveDefinite(PolsarError):
    """A Cholesky pivot fell below tolerance: matrix is not positive definite."""


class InvalidObservation(PolsarError):
    """An observation matrix violates a precondition (typically positive definiteness)."""


class InvalidLooks(PolsarError):
    """Number of looks outside its domain: > 0 (distances), >= 3 (models), integer (sampling)."""


class EmptySample(PolsarError):
    """Estimation was asked to run on an empty sample."""


class DomainError(PolsarError):
    """Argument outside the validity region of a special function or formula."""


class NoRoot(PolsarError):
    """The looks score has no sign change on the search bracket.

    ``side`` is "high" when the score stays positive (near-dispersion-free
    sample, root above the bracket) and "low" when it stays negative
    (over-dispersed sample, root below the bracket).
    """

    def __init__(self, message: str, side: str):
        super().__init__(message)
        self.side = side


class NonFiniteEnergy(PolsarError):
    """The discrimination energy evaluated to NaN or infinity."""


class StabilityViolation(PolsarError):
    """Explicit-scheme stability condition 1 - 4*alpha*dt >= 0 violated (grid step h = 1 pixel)."""


class InvalidSpec(PolsarError):
    """Phantom or experiment specification is inconsistent."""


class MalformedHeader(PolsarError):
    """Image header file is missing fields or holds unparsable values."""


class SizeMismatch(PolsarError):
    """Sizes disagree: a binary payload and its header, or class maps scored together."""


class MalformedRoi(PolsarError):
    """ROI file line could not be parsed."""


class OutOfBounds(PolsarError):
    """ROI rectangle extends beyond the image bounds."""


class NonPositiveDefinitePixelWarning(UserWarning):
    """Some pixels of a classified or rendered covariance image are not positive definite.

    Carries their ``count`` and the (y, x) coordinates of the first five in
    row-major order.  ``classify_image`` (which labels them 0) and ``render_rgb``
    warn after the pass that tests each pixel as it scores it; opening tests none.
    """

    def __init__(self, count, first, shape):
        self.count = count
        self.first = [(int(y), int(x)) for y, x in first]
        self.shape = shape
        super().__init__(f"{count} of {shape[0] * shape[1]} pixels are not positive definite "
                         f"(first offenders: {self.first})")
