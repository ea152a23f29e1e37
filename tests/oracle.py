"""Independent references for the package's kernels and distances.

Built from numpy.linalg (inv, slogdet, norm), einsum and, for the PD test,
exact ``fractions`` arithmetic on complex (..., 3, 3) matrices, sharing no
code with ``polsardr``: the package writes
every formula on packed arrays with closed-form cofactors, so a slip there
cannot cancel against a slip here.  ``pack`` and ``unpack`` convert between
the two layouts, from the layout table alone.  Every function broadcasts over
leading axes.
"""

import math
from fractions import Fraction

import numpy as np

# The packed layout of a pixel, as the package and its image files store it:
# [C11, C22, C33, Re C12, Im C12, Re C13, Im C13, Re C23, Im C23].
_UPPER = ((0, 1), (0, 2), (1, 2))


def pack(m):
    """Packed (..., 9) float64 pixels of (..., 3, 3) matrices, read from the
    diagonal's real parts and the upper triangle, each value with its bits."""
    m = np.asarray(m, dtype=np.complex128)
    entries = [m[..., i, i].real for i in range(3)]
    for i, j in _UPPER:
        entries += [m[..., i, j].real, m[..., i, j].imag]
    return np.stack(entries, axis=-1)


def unpack(p):
    """Complex Hermitian (..., 3, 3) matrices of packed p: each value copied into
    place with its bits, the lower triangle conjugated, so pack(unpack(p)) is p."""
    p = np.asarray(p, dtype=np.float64)
    m = np.zeros(p.shape[:-1] + (3, 3), dtype=np.complex128)
    for i in range(3):
        m.real[..., i, i] = p[..., i]
    for k, (i, j) in enumerate(_UPPER):
        re, im = p[..., 3 + 2 * k], p[..., 4 + 2 * k]
        m.real[..., i, j] = m.real[..., j, i] = re
        m.imag[..., i, j], m.imag[..., j, i] = im, -im
    return m


def hermitian_part(m):
    """0.5 * (m + m^H)."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def inv(m):
    return np.linalg.inv(m)


def logdet(m):
    sign, value = np.linalg.slogdet(m)
    assert np.all(sign.real > 0), "oracle log-det of a matrix with det <= 0"
    return value


def trace_product(a, b):
    """tr(a @ b)."""
    return np.einsum("...ij,...ji->...", a, b).real


def _exactly_positive_definite(m):
    """Every pivot of the LDL^T factorisation of the real symmetric 6x6 embedding
    [[Re m, -Im m], [Im m, Re m]] > 0, in exact rational arithmetic: each float
    entry becomes the Fraction of its bits, so no pivot is rounded."""
    h = np.tril(m) + np.conj(np.tril(m, -1)).T  # the lower triangle, as eigvalsh reads it
    re, im = h.real.copy(), h.imag.copy()
    np.fill_diagonal(im, 0.0)
    s = [[Fraction(float(v)) for v in row] for row in np.block([[re, -im], [im, re]])]
    for k in range(6):
        if s[k][k] <= 0:
            return False
        for i in range(k + 1, 6):
            ratio = s[i][k] / s[k][k]
            for j in range(k + 1, 6):
                s[i][j] -= ratio * s[k][j]
    return True


def is_positive_definite(m):
    """Exactly positive definite, as the Hermitian matrix of the diagonal's real
    parts and the lower triangle; a matrix with a non-finite entry is not."""
    m = np.asarray(m, dtype=np.complex128)
    out = np.empty(m.shape[:-2], dtype=bool)
    for idx in np.ndindex(out.shape):
        out[idx] = np.isfinite(m[idx]).all() and _exactly_positive_definite(m[idx])
    return out[()]


def kl(s1, s2, looks):
    t = 0.5 * (trace_product(inv(s1), s2) + trace_product(inv(s2), s1)) - 3.0
    return np.maximum(looks * t, 0.0)


def _log_ratio(s1, s2):
    """log |((s1^-1 + s2^-1) / 2)^-1| / sqrt(|s1| |s2|), which is <= 0."""
    r = -logdet(0.5 * (inv(s1) + inv(s2))) - 0.5 * (logdet(s1) + logdet(s2))
    return np.minimum(r, 0.0)


def hd(s1, s2, looks):
    return -np.expm1(looks * _log_ratio(s1, s2))


def bd(s1, s2, looks):
    return -looks * _log_ratio(s1, s2)


def ed(s1, s2):
    return np.linalg.norm(np.asarray(s1) - np.asarray(s2), axis=(-2, -1))


def log_density(z, sigma, looks):
    """Scaled complex Wishart log-density of z under (sigma, looks)."""
    log_gamma3 = 3.0 * math.log(math.pi) + sum(math.lgamma(looks - i) for i in range(3))
    return (3.0 * looks * math.log(looks) + (looks - 3.0) * logdet(z)
            - looks * logdet(sigma) - log_gamma3 - looks * trace_product(inv(sigma), z))


def wishart_deviates(u, factor):
    """Packed Wishart deviates of circular normals u (..., L, 3) under a Cholesky
    factor: the mean of s s^H over the L looks of s = u @ factor.T, made exactly
    Hermitian, then packed."""
    s = u @ factor.T
    return pack(hermitian_part(np.einsum("...li,...lj->...ij", s, np.conj(s)) / u.shape[-2]))


def score(kind, z, sigma, looks):
    """The lower-is-better score of one ``distance_stack`` column."""
    if kind == "ML":
        return -log_density(z, sigma, looks)
    if kind == "ED":
        return ed(z, sigma)
    return {"KL": kl, "HD": hd, "BD": bd}[kind](z, sigma, looks)
