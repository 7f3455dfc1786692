import math

import numpy as np
import pytest
from hypothesis import strategies as st

from llblab.field import VectorField, make_grid

# floats whose repr is easy to get wrong: signed zeros, subnormals, huge, inf and nan
EDGE_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
         math.inf, -math.inf, math.nan, 1e16, 1e-5]
    ),
    st.floats(),
)


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
