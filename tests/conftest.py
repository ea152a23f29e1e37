import tracemalloc

import numpy as np
import pytest

from polsardr.evolution import _assignments, _diffuse, _pixels, _react
from polsardr.fields import CovarianceField

import oracle


def make_hpd(rng, scale=1.0, jitter=0.25):
    """Random well-conditioned Hermitian positive definite 3x3 matrix.

    Built independently of the package (plain numpy): A A^H is PSD, the
    jitter bounds the condition number away from infinity.
    """
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = a @ a.conj().T / 3.0 + jitter * np.eye(3)
    return scale * 0.5 * (m + m.conj().T)


def packed_hpd(rng, scale=1.0, jitter=0.25):
    """make_hpd's matrix as a packed (9,) pixel."""
    return oracle.pack(make_hpd(rng, scale=scale, jitter=jitter))


def make_hermitian(rng, scale=1.0):
    """Random Hermitian (not necessarily definite) 3x3 matrix."""
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return scale * 0.5 * (a + a.conj().T)


def all_rows(field):
    """The whole (H, W, 9) array of a field's pixels, ``rows(0, height)``."""
    return field.rows(0, field.height)


def _planes(data) -> np.ndarray:
    """Contiguous (9, H, W) copy of packed (H, W, 9) pixels, for the steps to write into."""
    return np.moveaxis(data, -1, 0).copy()


def diffusion_step(field, params):
    """Reference five-point Laplacian update with replicated edges (discrete zero
    flux), on the stencil helper that ``evolve`` runs."""
    x = _planes(all_rows(field))
    out = np.empty_like(x)
    for s, o in zip(np.pad(x, ((0, 0), (1, 1), (0, 0)), mode="edge"), out):
        _diffuse(s, params, o)
    return CovarianceField(np.moveaxis(out, 0, -1), field.looks)


def reaction_step(field, protos, dt, kind):
    """Reference reaction on the helpers that ``evolve`` runs: contract each pixel
    toward its nearest prototype.

    The exponent dt * (nearest - runner_up) is <= 0, so the contraction
    factor lies in (0, 1] and the update is a convex combination; a pixel
    tied between two classes is a fixed point.
    """
    x = _planes(all_rows(field))
    pixels = _pixels(x)
    _react(pixels, protos, dt, _assignments(pixels, protos, kind))
    return CovarianceField(np.moveaxis(x, 0, -1), field.looks)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced, as (result, peak bytes):
    tracemalloc runs for that call only, so what was held before it is not counted."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_ppm(path):
    """Pixels of a binary PPM (P6, 8-bit) as an (H, W, 3) uint8 array."""
    with open(path, "rb") as f:
        assert f.readline() == b"P6\n"
        width, height = (int(v) for v in f.readline().split())
        assert f.readline() == b"255\n"
        return np.frombuffer(f.read(), dtype=np.uint8).reshape(height, width, 3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def hpd(rng):
    def factory(scale=1.0, jitter=0.25):
        return make_hpd(rng, scale=scale, jitter=jitter)
    return factory
