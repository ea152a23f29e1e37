"""Independent references for the package's kernels and distances.

Built from numpy.linalg (inv, slogdet, norm, eigvalsh) and einsum on complex
(..., 3, 3) matrices, sharing no code with ``polsardr``: the package writes
every formula on packed arrays with closed-form cofactors, so a slip there
cannot cancel against a slip here.  Every function broadcasts over leading
axes.
"""

import math

import numpy as np


def inv(m):
    return np.linalg.inv(m)


def logdet(m):
    sign, value = np.linalg.slogdet(m)
    assert np.all(sign.real > 0), "oracle log-det of a matrix with det <= 0"
    return value


def trace_product(a, b):
    """tr(a @ b)."""
    return np.einsum("...ij,...ji->...", a, b).real


def is_positive_definite(m):
    return np.all(np.linalg.eigvalsh(m) > 0, axis=-1)


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


def score(kind, z, sigma, looks):
    """The lower-is-better score of one ``distance_stack`` column."""
    if kind == "ML":
        return -log_density(z, sigma, looks)
    if kind == "ED":
        return ed(z, sigma)
    return {"KL": kl, "HD": hd, "BD": bd}[kind](z, sigma, looks)
