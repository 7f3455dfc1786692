"""Truncated Q-Wiener process on a sine eigenbasis and control paths.

The covariance is diagonal on the modes e_k(x) = sqrt(2) sin(k pi x) with
Cartesian directions e_j, eigenvalues lambda_k = k**(-alpha). With alpha > 3
the H1-weighted trace sum_k lambda_k * (1 + (k pi)^2) converges, so the noise
stays H1-regular. Control paths live in the same coordinates: the coefficient
c_{k,j}(t) is the component of h(t) along the unit vector sqrt(lambda_k) e_k e_j
of the Cameron-Martin space, which makes the H0 cost a plain sum of squares.
A control path is a (step, k, j, coefficient) CSV table, read by ``field.read_csv_table``.
A run's noise is the raw mode increments of one generator per sample column:
``increments`` yields them step by step, drawn a block of steps at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import Grid1D, csv_rows, read_csv_table

# Steps of increments drawn at a time per stream by ``increments``.
INCREMENT_BLOCK = 256

__all__ = [
    "CovarianceSpec",
    "ControlPath",
    "make_covariance",
    "mode_matrix",
    "increment_path",
    "increments",
    "zero_control",
    "single_mode_control",
    "write_control_csv",
    "read_control_coefficients",
    "stream_rng",
]


@dataclass(frozen=True)
class CovarianceSpec:
    """Per-mode noise amplitudes sqrt(lambda_k), lambda_k = k**(-decay_exponent).

    The noise strength is not part of the covariance: a run scales its
    increments by sqrt(eps), so eps = 0 switches the noise off.
    """

    mode_count: int
    decay_exponent: float

    @property
    def amplitudes(self) -> np.ndarray:
        k = np.arange(1, self.mode_count + 1, dtype=float)
        return k ** (-0.5 * self.decay_exponent)


def make_covariance(mode_count: int, decay_exponent: float = 4.0) -> CovarianceSpec:
    if mode_count < 1:
        raise ValueError(f"mode_count must be >= 1, got {mode_count}")
    if decay_exponent <= 3.0:
        raise ValueError(
            "decay_exponent must exceed 3 so the H1 trace of the covariance "
            f"stays finite as modes are added, got {decay_exponent}"
        )
    return CovarianceSpec(int(mode_count), float(decay_exponent))


@dataclass(frozen=True, eq=False)
class ControlPath:
    """Piecewise-constant control in Cameron-Martin coordinates, shape (N, K, 3)."""

    coefficients: np.ndarray
    dt: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[2] != 3:
            raise ValueError(f"coefficients must have shape (N, K, 3), got {coeffs.shape}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def steps(self) -> int:
        return self.coefficients.shape[0]

    @property
    def mode_count(self) -> int:
        return self.coefficients.shape[1]

    def h0_cost(self) -> float:
        """Half the squared H0 path norm: 0.5 * sum_n dt * sum_{k,j} c^2."""
        return 0.5 * self.dt * float(np.vdot(self.coefficients, self.coefficients))


def zero_control(steps: int, mode_count: int, dt: float) -> ControlPath:
    return ControlPath(np.zeros((steps, mode_count, 3)), dt)


def single_mode_control(
    steps: int,
    mode_count: int,
    dt: float,
    mode: int,
    component: int,
    coefficient: float,
) -> ControlPath:
    """Constant-in-time control in one (mode, component) slot; 1-based indices."""
    if not 1 <= mode <= mode_count:
        raise ValueError(f"mode must be in 1..{mode_count}, got {mode}")
    if component not in (1, 2, 3):
        raise ValueError(f"component must be 1, 2 or 3, got {component}")
    coeffs = np.zeros((steps, mode_count, 3))
    coeffs[:, mode - 1, component - 1] = coefficient
    return ControlPath(coeffs, dt)


@lru_cache(maxsize=None)
def mode_matrix(spec: CovarianceSpec, grid: Grid1D) -> np.ndarray:
    """(n, K) synthesis matrix sqrt(lambda_k) * sqrt(2) sin(k pi x_i); cached,
    treat as read-only."""
    k = np.arange(1, spec.mode_count + 1)
    mat = math.sqrt(2.0) * np.sin(math.pi * np.outer(grid.nodes, k)) * spec.amplitudes
    mat.setflags(write=False)
    return mat


def increment_path(rng: np.random.Generator, steps: int, mode_count: int, dt: float) -> np.ndarray:
    """Raw Gaussian mode coefficients of a whole path, shape (steps, K, 3), each ~ N(0, dt).

    ``mode_matrix(spec, grid) @ path[n]`` is the increment field of step n.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return rng.normal(0.0, math.sqrt(dt), size=(steps, mode_count, 3))


def increments(rngs, steps: int, mode_count: int, dt: float):
    """Yield the (M, K, 3) raw increments of steps 0, 1, ..., steps - 1 of M
    streams, one row per generator of ``rngs``.

    Each stream is drawn ``INCREMENT_BLOCK`` steps at a time; drawing block by
    block continues its generator, so the rows are the values of one
    ``increment_path`` draw of all steps, while memory grows with the number
    of streams times the block length, never with the number of steps.
    """
    rngs = list(rngs)
    for first in range(0, steps, INCREMENT_BLOCK):
        count = min(INCREMENT_BLOCK, steps - first)
        block = np.stack([increment_path(rng, count, mode_count, dt) for rng in rngs], axis=1)
        for k in range(count):
            yield block[k]


def write_control_csv(ctrl: ControlPath, path) -> None:
    """Persist as CSV with columns (step, k, j, coefficient); k, j are 1-based.
    Floats are spelled as ``repr`` spells them and rows end in CRLF (``field.csv_rows``)."""
    steps, modes, _ = ctrl.coefficients.shape
    index = np.indices((steps, modes, 3)).reshape(3, -1).T + (0, 1, 1)
    with open(path, "wb") as fh:
        fh.write(b"step,k,j,coefficient\r\n")
        fh.write(csv_rows(index, ctrl.coefficients.reshape(-1, 1)))


def read_control_coefficients(path, steps: int, mode_count: int) -> np.ndarray:
    """Read (step, k, j, coefficient) rows into the (steps, mode_count, 3)
    coefficients of a run (``field.read_csv_table``).

    Missing (step, k, j) combinations are zero, but the last step must have a
    row, so a file written for a shorter run is not silently padded. The time
    step is not stored in the file; pair the coefficients with a dt from the
    run configuration. Malformed content, an index outside the run or a
    (step, k, j) row listed twice raises ValueError naming the file and line.
    """
    header = ("step", "k", "j", "coefficient")
    coeffs, seen = read_csv_table(path, header, (steps, mode_count, 3), (0, 1, 1))
    given = np.flatnonzero(seen.any(axis=(1, 2)))
    if not len(given):
        raise ValueError(f"{path}: no coefficient rows")
    if given[-1] != steps - 1:
        raise ValueError(f"{path}: control has {given[-1] + 1} steps, time grid has {steps}")
    return coeffs[..., 0]


def stream_rng(base_seed: int, *key: int) -> np.random.Generator:
    """Counter-based stream: same (base_seed, key) always yields the same stream."""
    seq = np.random.SeedSequence(int(base_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)
