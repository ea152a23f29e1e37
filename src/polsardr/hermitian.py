"""Closed-form linear algebra for 3x3 Hermitian matrices.

Covariance images and class prototypes are packed ``(..., 9)`` float64 arrays
(see TRACE_WEIGHTS); the ``*_packed`` kernels and ``is_positive_definite``
work on them, and the formulas of ``distances`` are written on those kernels.
The complex ``(..., 3, 3)`` helpers serve the prototype estimate's sample
statistics (``det3``), the Wishart sampler (``cholesky3``) and packing.  All
functions broadcast and are pure; the packed kernels score exactly the pixels
they are given.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, SingularMatrix

# A matrix counts as singular unless |det| >= DET_TOL (a NaN det fails); a Cholesky pivot fails
# when it drops below PIVOT_RTOL times the largest diagonal entry.
DET_TOL = 1e-300
PIVOT_RTOL = 1e-12


def assemble(d1, d2, d3, o12, o13, o23) -> np.ndarray:
    """Build Hermitian arrays from the six independent entries.

    ``d1, d2, d3`` are the (real) diagonal, ``o12, o13, o23`` the upper
    off-diagonal entries; the lower triangle is filled by conjugation, so the
    result is Hermitian by construction.
    """
    d1, d2, d3, o12, o13, o23 = np.broadcast_arrays(
        d1, d2, d3, np.asarray(o12, dtype=np.complex128),
        np.asarray(o13, dtype=np.complex128), np.asarray(o23, dtype=np.complex128)
    )
    out = np.empty(np.shape(d1) + (3, 3), dtype=np.complex128)
    out[..., 0, 0] = d1
    out[..., 1, 1] = d2
    out[..., 2, 2] = d3
    out[..., 0, 1] = o12
    out[..., 1, 0] = np.conj(o12)
    out[..., 0, 2] = o13
    out[..., 2, 0] = np.conj(o13)
    out[..., 1, 2] = o23
    out[..., 2, 1] = np.conj(o23)
    return out


def hermitian_part(m) -> np.ndarray:
    """Exactly symmetrize: 0.5 * (m + m^H)."""
    m = np.asarray(m, dtype=np.complex128)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def _entries(m):
    m = np.asarray(m, dtype=np.complex128)
    return (m[..., 0, 0].real, m[..., 1, 1].real, m[..., 2, 2].real,
            m[..., 0, 1], m[..., 0, 2], m[..., 1, 2])


def det3(m) -> np.ndarray | float:
    """Determinant of a Hermitian 3x3 matrix (real by hermitivity)."""
    a, d, f, b, c, e = _entries(m)
    det = (a * d * f
           - a * np.abs(e) ** 2
           - f * np.abs(b) ** 2
           - d * np.abs(c) ** 2
           + 2.0 * (b * e * np.conj(c)).real)
    return det if det.ndim else float(det)


def cholesky3(m) -> np.ndarray:
    """Lower-triangular factor A with A @ A^H = m.

    Raises NotPositiveDefinite when a pivot is <= PIVOT_RTOL times the
    largest diagonal entry of the corresponding matrix.
    """
    a, d, f, b, c, e = _entries(m)
    tol = PIVOT_RTOL * np.maximum(np.maximum(a, d), f)

    p1 = a
    if np.any(p1 <= tol):
        raise NotPositiveDefinite("first Cholesky pivot below tolerance")
    l11 = np.sqrt(p1)
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

    out = np.zeros(np.shape(np.asarray(p1)) + (3, 3), dtype=np.complex128)
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


def to_packed(m) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    floats = m.view(np.float64).reshape(m.shape[:-2] + (18,))  # the 18 floats of each matrix
    return np.take(floats, [0, 8, 16, 2, 3, 4, 5, 10, 11], axis=-1)


def from_packed(p) -> np.ndarray:
    a, d, f, br, bi, cr, ci, er, ei = _packed_entries(p)
    return assemble(a, d, f, br + 1j * bi, cr + 1j * ci, er + 1j * ei)


def component_major(p) -> np.ndarray:
    """Packed (..., 9) pixels as (N, 9) with each entry contiguous, the layout the
    packed kernels read fastest; copied only when not already in that layout."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != 9:  # before the reshape, which would take a (..., 3, 3) array
        raise ValueError(f"packed arrays need a trailing axis of size 9, got {p.shape}")
    x = p.reshape(-1, 9)
    return x if x.strides[0] == x.itemsize else np.ascontiguousarray(x.T).T


def _packed_entries(p):
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != 9:
        raise ValueError(f"packed arrays need a trailing axis of size 9, got {p.shape}")
    return tuple(p[..., k] for k in range(9))


def is_positive_definite(p) -> np.ndarray:
    """True where the three leading minors of packed p are > 0 (so NaN counts as False)."""
    x = component_major(p)
    a, d, _, br, bi = _packed_entries(x)[:5]
    pd = (a > 0) & (a * d - (br * br + bi * bi) > 0) & (det_packed(x) > 0)
    return pd.reshape(np.shape(p)[:-1])


def det_packed(p) -> np.ndarray:
    """det3 of packed Hermitian matrices, without forming complex arrays."""
    a, d, f, br, bi, cr, ci, er, ei = _packed_entries(p)
    return (a * d * f
            - a * (er * er + ei * ei)
            - f * (br * br + bi * bi)
            - d * (cr * cr + ci * ci)
            + 2.0 * ((br * er - bi * ei) * cr + (br * ei + bi * er) * ci))


def inv_packed(p) -> tuple[np.ndarray, np.ndarray]:
    """Packed cofactor inverse and determinant of packed Hermitian matrices.

    Raises SingularMatrix for a non-finite entry (tested first: an infinite
    off-diagonal entry can leave det finite and the inverse NaN) and unless
    every |det| >= DET_TOL.  The inverse is returned component-major (each
    entry contiguous), the layout the packed kernels read fastest.
    """
    a, d, f, br, bi, cr, ci, er, ei = _packed_entries(p)
    if not np.isfinite(p).all():
        raise SingularMatrix("non-finite matrix entry")
    det = np.asarray(det_packed(p))
    if not (np.abs(det) >= DET_TOL).all():  # also False for a NaN det
        raise SingularMatrix(f"|det| < {DET_TOL} or NaN (min |det| = {np.abs(det).min():.3e})")
    inv = np.empty((9,) + det.shape)
    inv[0] = d * f - (er * er + ei * ei)
    inv[1] = a * f - (cr * cr + ci * ci)
    inv[2] = a * d - (br * br + bi * bi)
    inv[3] = cr * er + ci * ei - br * f
    inv[4] = ci * er - cr * ei - bi * f
    inv[5] = br * er - bi * ei - cr * d
    inv[6] = br * ei + bi * er - ci * d
    inv[7] = cr * br + ci * bi - a * er
    inv[8] = ci * br - cr * bi - a * ei
    inv /= det
    return inv.transpose(*range(1, inv.ndim), 0), det


def trace_product_packed(a, b) -> np.ndarray:
    """tr(a @ b) for packed Hermitian a and b (..., 9), which broadcast.

    The terms are summed one entry at a time, so a pixel's value does not
    depend on the shape of the array it arrives in.
    """
    a = np.asarray(a, dtype=np.float64)
    wb = TRACE_WEIGHTS * np.asarray(b, dtype=np.float64)
    t = a[..., 0] * wb[..., 0]
    for k in range(1, 9):
        t += a[..., k] * wb[..., k]
    return t
