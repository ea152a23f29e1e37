"""Scaled complex Wishart distribution: log-density and deviate generation.

A multilook covariance matrix Z built from `looks` independent circular
complex Gaussian scattering vectors with covariance `sigma` follows the
scaled complex Wishart law with density

    f(z) = looks^(3*looks) |z|^(looks-3) / (|sigma|^looks Gamma_3(looks))
           * exp(-looks * tr(sigma^-1 z)),

where Gamma_3(x) = pi^3 * Gamma(x) Gamma(x-1) Gamma(x-2) requires x >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hermitian as hm
from .distances import _features, _score, log_gamma3  # noqa: F401 (log_gamma3 is public here too)
from .errors import InvalidLooks, InvalidObservation


@dataclass(frozen=True, eq=False)
class WishartModel:
    """Covariance prototype plus equivalent number of looks."""

    sigma: np.ndarray
    looks: float

    def __post_init__(self):
        sigma = hm.hermitian_part(np.asarray(self.sigma, dtype=np.complex128))
        if sigma.shape != (3, 3):
            raise ValueError(f"sigma must be 3x3, got {sigma.shape}")
        if not hm.is_positive_definite(hm.to_packed(sigma)):
            raise InvalidObservation("model covariance is not positive definite")
        if not np.isfinite(self.looks) or self.looks < 3:
            raise InvalidLooks(f"looks must be >= 3, got {self.looks}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "looks", float(self.looks))


def log_density(model: WishartModel, z) -> np.ndarray | float:
    """Log density of the scaled complex Wishart law at z (broadcasts over z):
    the negated ML score of ``distances``, which rejects a z that is not PD."""
    x = hm.to_packed(z)
    p_inv, p_det = hm.inv_packed(hm.to_packed(model.sigma))  # ML reads no packed P
    out = -_score("ML", _features(x, "ML"), (None, p_inv, np.log(p_det)), model.looks)
    return out if np.ndim(out) else float(out)


def sample(model: WishartModel, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw multilook covariance deviates.

    Each deviate is the average of `looks` outer products s s^H of scattering
    vectors s = A u, where A is the Cholesky factor of the model covariance
    and u has independent circular complex Gaussian entries (real and
    imaginary parts each Normal(0, 1/2)), so E[s s^H] equals the covariance
    exactly.  Requires an integer number of looks >= 3.

    Returns shape (3, 3) when size is None, else (*size, 3, 3).
    """
    looks = model.looks
    if looks != int(looks):
        raise InvalidLooks(f"sampling requires an integer number of looks, got {looks}")
    n_looks = int(looks)

    if size is None:
        shape: tuple[int, ...] = ()
    elif np.isscalar(size):
        shape = (int(size),)
    else:
        shape = tuple(int(s) for s in size)

    u = np.sqrt(0.5) * (rng.standard_normal(shape + (n_looks, 3))
                        + 1j * rng.standard_normal(shape + (n_looks, 3)))
    s = u @ hm.cholesky3(model.sigma).T
    z = np.einsum("...li,...lj->...ij", s, np.conj(s)) / n_looks
    return hm.hermitian_part(z)
