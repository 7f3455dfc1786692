import numpy as np
import pytest

from llblab.field import VectorField, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240808)


def random_field(grid, rng, scale=1.0):
    return VectorField(grid, scale * rng.normal(size=(grid.n_interior, 3)))


@pytest.fixture
def grid63():
    return make_grid(63)


class ScaledRng:
    """Generator whose normal draws are scaled by ``gain``: a large gain makes
    a stream blow up, a zero gain gives a noiseless path."""

    def __init__(self, rng, gain):
        self._rng = rng
        self._gain = gain

    def normal(self, *args, **kwargs):
        return self._gain * self._rng.normal(*args, **kwargs)
