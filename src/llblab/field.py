"""Grid, field algebra and discrete operators on (0,1) with zero Dirichlet boundary.

Fields are R^3-valued samples on the interior nodes of a uniform grid. The
3-point Laplacian and the edge-based forward-difference gradient are exact
discrete adjoints of each other, so summation-by-parts identities hold to
rounding rather than only asymptotically. The implicit Helmholtz step
(I - c*Lap) is solved with a banded Cholesky factorization; the matrix is
strictly diagonally dominant and positive definite for c >= 0, so no
pivoting is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

__all__ = [
    "Grid1D",
    "VectorField",
    "EnergyReport",
    "make_grid",
    "zero_field",
    "laplacian",
    "gradient",
    "cross",
    "inner_l2",
    "edge_inner",
    "norms",
    "h1_norm",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on (0,1): interior nodes x_i = i*h for i = 1..n_interior."""

    n_interior: int

    def __post_init__(self):
        if self.n_interior < 3:
            raise ValueError(f"need at least 3 interior nodes, got {self.n_interior}")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_interior + 1)


def make_grid(n_interior: int) -> Grid1D:
    return Grid1D(int(n_interior))


@dataclass(frozen=True, eq=False)
class VectorField:
    """R^3-valued field on the interior nodes; boundary values are identically zero.

    ``values`` has shape (n_interior, 3). The array is not defensively copied;
    treat it as read-only once wrapped.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_interior, 3):
            raise ValueError(
                f"values must have shape {(self.grid.n_interior, 3)}, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.values.copy())


@dataclass(frozen=True)
class EnergyReport:
    """Discrete norms of a field at one instant.

    l2       L2 norm
    h1_semi  L2 norm of the edge gradient
    h2_semi  L2 norm of the node Laplacian
    linf     max node Euclidean norm
    """

    l2: float
    h1_semi: float
    h2_semi: float
    linf: float
    time: float = 0.0


def zero_field(grid: Grid1D) -> VectorField:
    return VectorField(grid, np.zeros((grid.n_interior, 3)))


def _same_grid(f: VectorField, g: VectorField) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


# ---------------------------------------------------------------------------
# array kernels (shared with the time steppers; inputs are (n, 3) arrays, and
# lap_values/grad_values also take node-major stacks (n, ...) of many fields)

def lap_values(v: np.ndarray, h: float) -> np.ndarray:
    """3-point Laplacian with zero ghost nodes at both boundaries."""
    inv_h2 = 1.0 / (h * h)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) * inv_h2
    out[0] = (v[1] - 2.0 * v[0]) * inv_h2
    out[-1] = (v[-2] - 2.0 * v[-1]) * inv_h2
    return out


def grad_values(v: np.ndarray, h: float) -> np.ndarray:
    """Forward differences on the n_interior+1 edges, zero ghost nodes.

    An input of three or more dimensions, such as a node-major view of a
    snapshot stack, gives an output with its memory layout, so each snapshot's
    edge values stay contiguous.
    """
    n = v.shape[0]
    if v.ndim == 2:
        # the per-step case: empty_like's layout matching would add ~0.8 us a step
        out = np.empty((n + 1, v.shape[1]))
    else:
        out = np.empty_like(v, shape=(n + 1,) + v.shape[1:])
    out[0] = v[0] / h
    out[1:-1] = (v[1:] - v[:-1]) / h
    out[-1] = -v[-1] / h
    return out


def cross_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise cross product of two (n, 3) arrays."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def sq_norm_values(v: np.ndarray) -> np.ndarray:
    """Pointwise squared Euclidean norm, shape (n,)."""
    return np.einsum("ij,ij->i", v, v)


@lru_cache(maxsize=None)
def _helmholtz_factor(n: int, h: float, c: float):
    # upper banded storage of the SPD tridiagonal matrix I - c*Lap
    inv_h2 = 1.0 / (h * h)
    ab = np.zeros((2, n))
    ab[0, 1:] = -c * inv_h2
    ab[1, :] = 1.0 + 2.0 * c * inv_h2
    return cholesky_banded(ab)


def helm_values(v: np.ndarray, h: float, c: float) -> np.ndarray:
    """Solve (I - c*Lap) w = v componentwise; exact identity for c = 0."""
    if c == 0.0:
        return v.copy()
    factor = _helmholtz_factor(v.shape[0], h, c)
    return cho_solve_banded((factor, False), v, check_finite=False)


# ---------------------------------------------------------------------------
# public field operations

def laplacian(f: VectorField) -> VectorField:
    return VectorField(f.grid, lap_values(f.values, f.grid.spacing))


def gradient(f: VectorField) -> np.ndarray:
    """Edge-valued gradient, shape (n_interior + 1, 3)."""
    return grad_values(f.values, f.grid.spacing)


def cross(f: VectorField, g: VectorField) -> VectorField:
    _same_grid(f, g)
    return VectorField(f.grid, cross_values(f.values, g.values))


def inner_l2(f: VectorField, g: VectorField) -> float:
    """Rectangle-rule L2 inner product h * sum_i f_i . g_i."""
    _same_grid(f, g)
    return f.grid.spacing * float(np.vdot(f.values, g.values))


def edge_inner(grid: Grid1D, ea: np.ndarray, eb: np.ndarray) -> float:
    """L2 inner product of two edge-valued fields (gradient outputs)."""
    if ea.shape != (grid.n_interior + 1, 3) or eb.shape != ea.shape:
        raise ValueError("edge fields must have shape (n_interior + 1, 3)")
    return grid.spacing * float(np.vdot(ea, eb))


def report_values(v: np.ndarray, lap_v: np.ndarray, h: float, time: float) -> EnergyReport:
    """Norms of the (n, 3) array ``v`` whose Laplacian ``lap_v`` is already at hand."""
    l2 = math.sqrt(h * float(np.vdot(v, v)))
    grad = grad_values(v, h)
    h1_semi = math.sqrt(h * float(np.vdot(grad, grad)))
    h2_semi = math.sqrt(h * float(np.vdot(lap_v, lap_v)))
    linf = math.sqrt(float(np.max(sq_norm_values(v))))
    return EnergyReport(l2=l2, h1_semi=h1_semi, h2_semi=h2_semi, linf=linf, time=time)


def norms(f: VectorField, time: float = 0.0) -> EnergyReport:
    h = f.grid.spacing
    return report_values(f.values, lap_values(f.values, h), h, time)


def h1_norm(f: VectorField) -> float:
    """Full H1 norm sqrt(l2^2 + h1_semi^2)."""
    rep = norms(f)
    return math.hypot(rep.l2, rep.h1_semi)

