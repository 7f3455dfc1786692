"""Grid, field algebra and discrete operators on (0,1) with zero Dirichlet boundary.

Fields are R^3-valued samples on the interior nodes of a uniform grid. The
3-point Laplacian and the edge-based forward-difference gradient are exact
discrete adjoints of each other, so summation-by-parts identities hold to
rounding rather than only asymptotically. The implicit Helmholtz step
(I - c*Lap) is solved with a banded Cholesky factorization; the matrix is
strictly diagonally dominant and positive definite for c >= 0, so no
pivoting is needed.

The array kernels take one (n, 3) field or a node-major batch (n, 3, M) of M
fields, and treat every column of a batch exactly as they treat that column
alone: pointwise kernels use the same floating-point operations in the same
order whatever the layout, and the banded solve runs LAPACK on each
right-hand side separately. A batch therefore reproduces its single-field
runs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs

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
    "stack_norms",
    "norms",
    "h1_norm",
]

# Snapshots a stack operation handles at a time: bounds its temporaries to a
# few MB however long the trajectory.
STACK_CHUNK = 256


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


def zero_field(grid: Grid1D) -> VectorField:
    return VectorField(grid, np.zeros((grid.n_interior, 3)))


def _same_grid(f: VectorField, g: VectorField) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


# ---------------------------------------------------------------------------
# array kernels (shared with the time steppers; inputs are (n, 3) fields or
# node-major batches (n, 3, ...), and lap_values/grad_values/helm_values take
# any node-major stack (n, ...))

_pbtrs = get_lapack_funcs("pbtrs", dtype=np.float64)


def lap_values(v: np.ndarray, h: float) -> np.ndarray:
    """3-point Laplacian with zero ghost nodes at both boundaries.

    Node i gets ((v[i+1] - 2 v[i]) + v[i-1]) / h^2, with the missing neighbour
    of a boundary node left out rather than added as a zero, which would turn
    a -0.0 into 0.0.
    """
    twice = 2.0 * v
    out = np.empty_like(v)
    np.subtract(v[1:], twice[:-1], out=out[:-1])
    out[1:-1] += v[:-2]
    np.subtract(v[-2], twice[-1], out=out[-1])
    out *= 1.0 / (h * h)
    return out


def grad_values(v: np.ndarray, h: float) -> np.ndarray:
    """Forward differences on the n_interior+1 edges, zero ghost nodes.

    The output keeps the memory layout of the input, so the edge values of
    each snapshot of a node-major view of a snapshot stack stay contiguous.
    """
    out = np.empty_like(v, shape=(v.shape[0] + 1,) + v.shape[1:])
    out[0] = v[0] / h
    out[1:-1] = (v[1:] - v[:-1]) / h
    out[-1] = -v[-1] / h
    return out


# The components of a width-1 batch (n, 3, 1) are 2-D (n, 1) arrays, which numpy
# runs off its fast path; the component kernels take the 1-D components of its
# (n, 3) view instead, with the same bits, about a microsecond sooner each.

def cross_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise cross product over axis 1; (n, 3, ...) shapes broadcast, so an
    (n, 3, 1) field crosses every column of an (n, 3, M) batch."""
    if a.shape == b.shape:
        out = np.empty_like(a)
    else:
        shape = np.broadcast_shapes(a.shape, b.shape)
        # keep the memory layout of the full-shape operand
        out = np.empty_like(a if a.shape == shape else b, shape=shape)
    o = out
    if out.shape[2:] == (1,):
        a, b, o = a[..., 0], b[..., 0], out[..., 0]
    o[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    o[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    o[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def dot_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise dot product over axis 1: shape (n,) for (n, 3) inputs, (n, M) for batches.

    The three products are summed in a fixed order; an einsum would pick its
    order from the memory layout, which differs between a field and a batch.
    """
    p = a * b
    if p.shape[2:] == (1,):
        return (p[:, 0, 0] + p[:, 1, 0] + p[:, 2, 0])[:, None]
    return p[:, 0] + p[:, 1] + p[:, 2]


def sq_norm_values(v: np.ndarray) -> np.ndarray:
    """Pointwise squared Euclidean norm, shape (n,) for a field, (n, M) for a batch."""
    return dot_values(v, v)


def column_sq_sums(v: np.ndarray) -> np.ndarray:
    """Sum of squares of each column of an (m, 3, M) batch, shape (M,).

    Each column is summed from its own contiguous row, so the bits do not
    depend on the batch width or layout (an einsum picks its order from both).
    """
    return np.ascontiguousarray(dot_values(v, v).T).sum(axis=1)


@lru_cache(maxsize=None)
def _helmholtz_factor(n: int, h: float, c: float):
    # upper banded storage of the SPD tridiagonal matrix I - c*Lap
    inv_h2 = 1.0 / (h * h)
    ab = np.zeros((2, n))
    ab[0, 1:] = -c * inv_h2
    ab[1, :] = 1.0 + 2.0 * c * inv_h2
    return cholesky_banded(ab)


def helm_values(v: np.ndarray, h: float, c: float) -> np.ndarray:
    """Solve (I - c*Lap) w = v for every column of a node-major stack (n, ...);
    exact identity for c = 0.

    One LAPACK pbtrs call takes all right-hand sides and solves each on its
    own, so a batch gives each column the bits of solving it alone.
    """
    if c == 0.0:
        return v.copy()
    factor = _helmholtz_factor(v.shape[0], h, c)
    x, info = _pbtrs(factor, v.reshape(v.shape[0], -1))
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrs")
    return x.reshape(v.shape)


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


def map_stack(fn, stack: np.ndarray) -> np.ndarray:
    """``fn`` of the node-major view (n, 3, S') of each chunk of at most
    ``STACK_CHUNK`` snapshots of the stack (S, n, 3), joined along the last axis."""
    chunks = [stack[first:first + STACK_CHUNK] for first in range(0, len(stack), STACK_CHUNK)]
    return np.concatenate([fn(np.moveaxis(chunk, 0, -1)) for chunk in chunks], axis=-1)


def stack_norms(stack: np.ndarray, h: float) -> np.ndarray:
    """Rows (l2, h1_semi, h2_semi, linf) of every field of the stack (S, n, 3), shape (S, 4).

    A row's bits do not depend on the other fields of the stack.
    """

    def squares(v):
        sums = [h * column_sq_sums(w) for w in (v, grad_values(v, h), lap_values(v, h))]
        return np.stack(sums + [sq_norm_values(v).max(axis=0)])

    return np.sqrt(map_stack(squares, stack)).T


def norms(f: VectorField) -> EnergyReport:
    return EnergyReport(*stack_norms(f.values[None], f.grid.spacing)[0].tolist())


def h1_norm(f: VectorField) -> float:
    """Full H1 norm sqrt(l2^2 + h1_semi^2)."""
    rep = norms(f)
    return math.hypot(rep.l2, rep.h1_semi)

