"""Numerical laboratory for the 1-D stochastic Landau-Lifshitz-Bloch equation.

The package is organized by concern: ``field`` (grid, operators, norms and
implicit solve on fields, plain (n, 3) arrays), ``noise`` (truncated Q-Wiener
process and control paths), ``dynamics`` (semi-implicit integrator for the
five systems), ``clt`` and ``ldp`` (the asymptotics experiments),
``analysis`` (identity checkers and rate fitting), and ``cli`` (the
declarative experiment runner).
"""

__version__ = "0.1.0"

from .field import Grid1D, make_grid  # noqa: F401
from .dynamics import (  # noqa: F401
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    TrajectoryRecord,
    initial_profile,
    integrate,
)
from .noise import ControlPath, CovarianceSpec, make_covariance, stream_rng  # noqa: F401
