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
from .distances import _features, _score
from .errors import InvalidLooks, InvalidObservation


# Rows, at most, of each (rows, 3) @ (3, 3) complex GEMM of the sampler: OpenBLAS
# 0.3.31 ran GEMMs of 8,000 rows and more on two threads, and its idle one then spun.
# Each output entry's bits are the same in any GEMM, but numpy computes a 1-row
# product another way, with other bits, so each GEMM holds whole pixels.
GEMM_ROWS = 4096


@dataclass(frozen=True, eq=False)
class WishartModel:
    """Packed (9,) covariance prototype plus equivalent number of looks."""

    sigma: np.ndarray
    looks: float

    def __post_init__(self):
        sigma = np.asarray(self.sigma)
        if np.iscomplexobj(sigma) or sigma.shape != (9,):
            raise ValueError(f"sigma must be packed (9,), got {sigma.dtype} {sigma.shape}")
        sigma = sigma.astype(np.float64)
        if not hm.is_positive_definite(sigma):
            raise InvalidObservation("model covariance is not positive definite")
        if not np.isfinite(self.looks) or self.looks < 3:
            raise InvalidLooks(f"looks must be >= 3, got {self.looks}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "looks", float(self.looks))


def log_density(model: WishartModel, z) -> np.ndarray | float:
    """Log density of the scaled complex Wishart law at packed z (..., 9): the
    negated ML score of ``distances``, which rejects a z that is not PD."""
    x = hm._packed(z)
    p_inv, p_det = hm._inverse(model.sigma)[:2]  # ML reads no packed P
    out = -_score("ML", _features(x, "ML"), (None, p_inv, np.log(p_det)), model.looks)
    return out if np.ndim(out) else float(out)


def _normals(rng: np.random.Generator, shape: tuple[int, ...], n_looks: int) -> np.ndarray:
    """Circular complex Gaussian vectors u of shape (*shape, n_looks, 3): real and
    imaginary parts each Normal(0, 1/2), all real parts drawn before the imaginary."""
    return np.sqrt(0.5) * (rng.standard_normal(shape + (n_looks, 3))
                           + 1j * rng.standard_normal(shape + (n_looks, 3)))


def _packed_deviates(u: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Packed (..., 9) deviates (1/L) sum_l s_l s_l^H of s = u @ factor.T, for u of
    shape (..., L, 3) and a Cholesky factor.

    Bit for bit the packed Hermitian part of einsum("...li,...lj->...ij", s,
    conj(s)) / L: each entry is summed over the looks in order from zero, the
    terms written as einsum's complex products leave them, and the division is
    numpy's complex one, a product with 1/L.
    """
    n_looks = u.shape[-2]
    flat = u.reshape(-1, 3)
    s = np.empty_like(flat)
    step = max(1, GEMM_ROWS // n_looks) * n_looks  # whole pixels, so never a 1-row matmul
    for i in range(0, flat.shape[0], step):
        np.matmul(flat[i:i + step], factor.T, out=s[i:i + step])
    s = s.reshape(u.shape)
    # (L, 2, 3, ...): per look, the contiguous real and imaginary planes of s
    planes = np.ascontiguousarray(np.moveaxis(s.view(np.float64).reshape(s.shape + (2,)),
                                              (-3, -1, -2), (0, 1, 2)))
    out = np.zeros((9,) + s.shape[:-2])
    for (r0, r1, r2), (i0, i1, i2) in planes:
        out[0] += r0 * r0 + i0 * i0
        out[1] += r1 * r1 + i1 * i1
        out[2] += r2 * r2 + i2 * i2
        out[3] += r0 * r1 + i0 * i1
        out[4] += i0 * r1 - r0 * i1
        out[5] += r0 * r2 + i0 * i2
        out[6] += i0 * r2 - r0 * i2
        out[7] += r1 * r2 + i1 * i2
        out[8] += i1 * r2 - r1 * i2
    out *= 1.0 / n_looks
    return np.moveaxis(out, 0, -1)


def sample(model: WishartModel, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw packed multilook covariance deviates.

    Each deviate is the average of `looks` outer products s s^H of scattering
    vectors s = A u, where A is the Cholesky factor of the model covariance
    and u has independent circular complex Gaussian entries (real and
    imaginary parts each Normal(0, 1/2)), so E[s s^H] equals the covariance
    exactly.  Requires an integer number of looks >= 3.

    Returns packed pixels (see ``hermitian.TRACE_WEIGHTS``): shape (9,) when
    size is None, else (*size, 9).
    """
    looks = model.looks
    if looks != int(looks):
        raise InvalidLooks(f"sampling requires an integer number of looks, got {looks}")

    if size is None:
        shape: tuple[int, ...] = ()
    elif np.isscalar(size):
        shape = (int(size),)
    else:
        shape = tuple(int(s) for s in size)
    return _packed_deviates(_normals(rng, shape, int(looks)), hm.cholesky3(model.sigma))
