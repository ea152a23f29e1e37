import numpy as np
import pytest

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


def refuse_whole_image(field):
    """A ``CovarianceField.data`` for tests to patch in: a whole-image load fails."""
    raise AssertionError("the whole image was loaded")


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
