"""Closed-form linear algebra for 3x3 Hermitian matrices.

Every matrix the package takes or returns is a packed ``(..., 9)`` float64
pixel (see TRACE_WEIGHTS); the ``*_packed`` kernels and
``is_positive_definite`` work on them, and the formulas of ``distances`` are
written on those kernels.  A complex array is refused, not cast.  The one
complex result is the Wishart sampler's factor (``cholesky3``, which reads
packed entries).  All functions broadcast and are pure; the packed kernels
score exactly the pixels they are given.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, SingularMatrix

# A matrix counts as singular unless |det| >= DET_TOL (a NaN det fails); a Cholesky pivot fails
# when it drops below PIVOT_RTOL times the largest diagonal entry.
DET_TOL = 1e-300
PIVOT_RTOL = 1e-12


def cholesky3(p) -> np.ndarray:
    """Complex lower-triangular factor A with A @ A^H = m, of packed m.

    The off-diagonal entries are read as complex numbers with the packed
    bits, so A is bit for bit the factor of the unpacked matrix.  Raises
    NotPositiveDefinite when a pivot is <= PIVOT_RTOL times the largest
    diagonal entry of the corresponding matrix.
    """
    p = _packed(p)
    a, d, f = p[..., 0], p[..., 1], p[..., 2]
    b, c, e = np.moveaxis(np.ascontiguousarray(p[..., 3:]).view(np.complex128), -1, 0)
    tol = PIVOT_RTOL * np.maximum(np.maximum(a, d), f)

    if np.any(a <= tol):
        raise NotPositiveDefinite("first Cholesky pivot below tolerance")
    l11 = np.sqrt(a)
    l21 = np.conj(b) / l11
    l31 = np.conj(c) / l11
    p2 = d - np.abs(l21) ** 2
    if np.any(p2 <= tol):
        raise NotPositiveDefinite("second Cholesky pivot below tolerance")
    l22 = np.sqrt(p2)
    l32 = (np.conj(e) - l31 * np.conj(l21)) / l22
    p3 = f - np.abs(l31) ** 2 - np.abs(l32) ** 2
    if np.any(p3 <= tol):
        raise NotPositiveDefinite("third Cholesky pivot below tolerance")
    l33 = np.sqrt(p3)

    out = np.zeros(a.shape + (3, 3), dtype=np.complex128)
    out[..., 0, 0] = l11
    out[..., 1, 0] = l21
    out[..., 1, 1] = l22
    out[..., 2, 0] = l31
    out[..., 2, 1] = l32
    out[..., 2, 2] = l33
    return out


# Packed layout shared with the binary image format:
# [C11, C22, C33, Re C12, Im C12, Re C13, Im C13, Re C23, Im C23]
# tr(a @ b) of Hermitian a, b is the dot product of their packed forms under
# these weights: each off-diagonal pair contributes twice its real part.
TRACE_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
_TRANSPOSE_PIXELS = 4096  # pixels per chunk of component_major's copy (DECISIONS.md)


def _real(a) -> np.ndarray:
    """a as float64; a complex array is refused before the cast would drop its imaginary parts."""
    if np.iscomplexobj(a):
        raise ValueError(f"expected real values, got a complex array of shape {np.shape(a)}")
    return np.asarray(a, dtype=np.float64)


def _packed(p) -> np.ndarray:
    """p as a float64 array, checked to be real with a trailing axis of size 9."""
    p = _real(p)
    if p.shape[-1] != 9:
        raise ValueError(f"packed arrays need a trailing axis of size 9, got {p.shape}")
    return p


def component_major(p) -> np.ndarray:
    """Packed (..., 9) pixels as (N, 9) with each entry contiguous, the layout the
    packed kernels read fastest; copied only when not already in that layout."""
    x = _packed(p).reshape(-1, 9)  # checked first: the reshape would take a (..., 3, 3) array
    if x.strides[0] == x.itemsize:
        return x
    out = np.empty((9, x.shape[0]))
    for i in range(0, x.shape[0], _TRANSPOSE_PIXELS):  # chunks that stay in cache
        out[:, i:i + _TRANSPOSE_PIXELS] = x[i:i + _TRANSPOSE_PIXELS].T
    return out.T


def _components(p):
    p = _packed(p)
    return tuple(p[..., k] for k in range(9))


def is_positive_definite(p) -> np.ndarray:
    """True where the three leading minors of packed p are > 0 (so NaN counts as False)."""
    return _det_pd(component_major(p))[1].reshape(np.shape(p)[:-1])


def _det_pd(p, det=None, minor=None) -> tuple[np.ndarray, np.ndarray]:
    """det_packed(p) or the det given, and the PD verdict x11, 2x2 minor (or one given), det > 0.

    A non-finite entry gives a False verdict, and the inf * 0 behind it no numpy
    warning: the caller warns of or refuses the pixel itself.
    """
    a, d, _, br, bi = _components(p)[:5]
    with np.errstate(invalid="ignore"):
        det = det_packed(p) if det is None else det
        minor = a * d - (br * br + bi * bi) if minor is None else minor
    return det, (a > 0) & (minor > 0) & (det > 0)


def det_packed(p) -> np.ndarray:
    """Determinant of packed Hermitian matrices (real by hermitivity)."""
    a, d, f, br, bi, cr, ci, er, ei = _components(p)
    return (a * d * f
            - a * (er * er + ei * ei)
            - f * (br * br + bi * bi)
            - d * (cr * cr + ci * ci)
            + 2.0 * ((br * er - bi * ei) * cr + (br * ei + bi * er) * ci))


def _inverse(p, det=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed cofactor inverse, determinant (given or evaluated) and verdict (_det_pd) of p.

    Raises SingularMatrix for a non-finite entry (tested first: an infinite
    off-diagonal entry can leave det finite and the inverse NaN) and unless
    every |det| >= DET_TOL.  The inverse is returned component-major (each
    entry contiguous), the layout the packed kernels read fastest.
    """
    a, d, f, br, bi, cr, ci, er, ei = _components(p)
    if not np.isfinite(p).all():
        raise SingularMatrix("non-finite matrix entry")
    inv = np.empty((9,) + a.shape)
    inv[0] = d * f - (er * er + ei * ei)
    inv[1] = a * f - (cr * cr + ci * ci)
    inv[2] = a * d - (br * br + bi * bi)
    inv[3] = cr * er + ci * ei - br * f
    inv[4] = ci * er - cr * ei - bi * f
    inv[5] = br * er - bi * ei - cr * d
    inv[6] = br * ei + bi * er - ci * d
    inv[7] = cr * br + ci * bi - a * er
    inv[8] = ci * br - cr * bi - a * ei
    det, pd = _det_pd(p, det, inv[2])  # before the division, inv[2] is the 2x2 minor
    if not (np.abs(det) >= DET_TOL).all():  # also False for a NaN det
        raise SingularMatrix(f"|det| < {DET_TOL} or NaN (min |det| = {np.abs(det).min():.3e})")
    inv /= det
    return inv.transpose(*range(1, inv.ndim), 0), det, pd


def trace_product_packed(a, b) -> np.ndarray:
    """tr(a @ b) for packed Hermitian a and b (..., 9), which broadcast.

    The terms are summed one entry at a time, so a pixel's value does not
    depend on the shape of the array it arrives in.
    """
    a = _packed(a)
    wb = TRACE_WEIGHTS * _packed(b)
    t = a[..., 0] * wb[..., 0]
    for k in range(1, 9):
        t += a[..., k] * wb[..., k]
    return t
