import math

import numpy as np
import pytest
from hypothesis import strategies as st

from llblab.dynamics import integrate_batch
from llblab.field import make_grid

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
    return scale * rng.normal(size=(grid.n_interior, 3))


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


def record_batch(kinds, initial, params, tgrid, keys=None, **inputs):
    """``integrate_batch`` with an observer that stores every step of every column.

    Returns ``(columns, failures)``: ``columns[j]`` holds sample column j's
    states as one (steps + 1, n, 3) array per kind, cut off at the step where
    it failed; a noiseless kind's shared column, given as an (n, 3) field, is
    every column's. A batch of noiseless kinds alone has no sample column, and
    its one entry of ``columns`` holds the shared columns. Failures are
    matched to columns by their keys, the column indices unless ``keys`` is
    given.
    """
    width = next((np.shape(u)[2] for u in initial if np.ndim(u) == 3), 0)
    keys = list(range(width)) if keys is None else list(keys)
    steps = [[] for _ in kinds]
    # the stacked state holds the M columns of each noisy system, then one per noiseless system
    bounds = np.cumsum([0] + [width if np.ndim(u) == 3 else 1 for u in initial])

    def observe(n, u):
        for stored, first, last in zip(steps, bounds, bounds[1:]):
            stored.append(u[:, :, first:last].copy())

    failures, _ = integrate_batch(kinds, initial, params, tgrid, observe, keys=keys, **inputs)
    stored = [np.array(s) for s in steps]
    ends = {keys.index(exc.key): exc.step for exc in failures}
    columns = [
        [s[:ends.get(j), ..., j] if np.ndim(u) == 3 else s[..., 0] for s, u in zip(stored, initial)]
        for j in range(max(width, 1))
    ]
    return columns, failures
