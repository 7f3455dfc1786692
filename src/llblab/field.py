"""Grid, field algebra and discrete operators on (0,1) with zero Dirichlet boundary.

Fields are R^3-valued samples on the interior nodes of a uniform grid. The
3-point Laplacian and the edge-based forward-difference gradient are exact
discrete adjoints of each other, so summation-by-parts identities hold to
rounding rather than only asymptotically. The implicit Helmholtz step
(I - c*Lap) is solved with the LDL^T factorization of a symmetric positive
definite tridiagonal matrix (LAPACK pttrf/pttrs); the matrix is strictly
diagonally dominant and positive definite for c >= 0, so no pivoting is
needed. The two routines come from scipy's compiled LAPACK wrappers, the
``scipy/linalg/_flapack`` extension, loaded from its file: importing the
``scipy.linalg`` package would cost every process about 0.4 s and 20 MB.

A field is a float (n, 3) array of its node values, and ``Grid1D`` maps the
node count n to the spacing h = 1/(n + 1) and the nodes. Every operator is an
array kernel. The kernels take one field or a node-major batch (n, 3, M) of
M fields, and treat every column of a batch exactly as they treat that
column alone: pointwise kernels use the same floating-point operations in the
same order whatever the layout, the tridiagonal solve runs LAPACK on each
right-hand side separately, and ``column_sq_sums``, the column reduction of
the norms and inner products, sums each column from a contiguous row of its
own. A batch therefore reproduces its single-field results bit for bit.

The stencils and pointwise products (``lap_values``, ``grad_values``,
``cross_values``, ``dot_values``) write into a caller's ``out=`` array when
given one, with the bits of the allocating call; ``out`` must not overlap
the inputs. Only a NaN result may differ in its sign bit between the two:
IEEE 754 leaves the sign of a NaN open, and numpy picks the operand order of
its loops from the layout; the NaNs stand at the same places, and every other
value has the same bits. The solver's memory order (``solver_empty``) keeps
every component and column as one contiguous n-vector, so the (n, -1) view
of a batch is the Fortran-ordered matrix LAPACK works on:
``helm_values(b, h, c, out=b)`` solves such a batch in place without a copy,
while a call without ``out`` never writes into its input.

``csv_rows`` spells the float columns of every bulk CSV output: ``repr``'s
shortest round-trip spelling, produced from the digits of orjson's Ryu
formatter; only inf and nan are spelled by ``repr`` itself. The rows of one
call are held as Python objects while they are formatted, so a writer of a
long trajectory passes a few snapshots per call.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import orjson
from numpy.linalg import LinAlgError

__all__ = [
    "Grid1D",
    "make_grid",
    "stack_norms",
    "h1_norm",
    "csv_rows",
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


def as_field(u) -> np.ndarray:
    """``u`` as a float array of shape (n, 3), the node values of one field;
    raises ValueError for any other shape."""
    values = np.asarray(u, dtype=float)
    if values.ndim != 2 or values.shape[1] != 3:
        raise ValueError(f"a field has shape (n_interior, 3), got {values.shape}")
    return values


# ---------------------------------------------------------------------------
# array kernels (shared with the time steppers; inputs are (n, 3) fields or
# node-major batches (n, 3, ...), and lap_values/grad_values/helm_values take
# any node-major stack (n, ...))

def _load_flapack(scipy_dir: str):
    """The ``linalg/_flapack`` extension module of the scipy package in ``scipy_dir``.

    The module registers itself in ``sys.modules`` under its own name, so a
    later ``import scipy.linalg`` takes this module rather than loading it again.
    """
    linalg_dir = os.path.join(scipy_dir, "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"llblab requires scipy's _flapack extension; none found in {linalg_dir}")


_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ModuleNotFoundError("llblab requires scipy, which is not installed", name="scipy")
_flapack = _load_flapack(os.path.dirname(_scipy.origin))
_pttrf, _pttrs = _flapack.dpttrf, _flapack.dpttrs


def solver_empty(shape) -> np.ndarray:
    """Uninitialized node-major array of ``shape`` (n, ...) in the solver's memory
    order (axis 1, then the later axes from the last back, then the nodes): a
    batch (n, 3, M) has a Fortran-contiguous (n, -1) view, and a block
    (n, 3, M, K) of K steps reaches ``column_sq_sums`` without a copy."""
    memory = np.empty((shape[1], *shape[:1:-1], shape[0]))
    return memory.transpose(len(shape) - 1, 0, *range(len(shape) - 2, 0, -1))


def scratch(store: dict, name: str, shape, like: np.ndarray | None = None) -> np.ndarray:
    """The buffer ``store[name]``, made anew when it is missing or has another shape,
    by ``solver_empty(shape)`` or, given an array ``like`` of as many axes, in its
    memory order: the workspace a loop reuses from step to step."""
    buf = store.get(name)
    if buf is None or buf.shape != tuple(shape):
        buf = store[name] = solver_empty(shape) if like is None else np.empty_like(like, shape=shape)
    return buf


def lap_values(v: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """3-point Laplacian with zero ghost nodes at both boundaries.

    Node i gets ((v[i+1] - 2 v[i]) + v[i-1]) / h^2, with the missing neighbour
    of a boundary node left out rather than added as a zero, which would turn
    a -0.0 into 0.0. ``out`` first holds 2 v, so no temporary is made.
    """
    if out is None:
        out = np.empty_like(v)
    np.multiply(2.0, v, out=out)
    np.subtract(v[1:], out[:-1], out=out[:-1])
    out[1:-1] += v[:-2]
    np.subtract(v[-2], out[-1], out=out[-1])
    out *= 1.0 / (h * h)
    return out


def grad_values(v: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Forward differences on the n_interior+1 edges, zero ghost nodes.

    The output keeps the memory layout of the input, so the edge values of
    each snapshot of a node-major view of a snapshot stack stay contiguous.
    """
    if out is None:
        out = np.empty_like(v, shape=(v.shape[0] + 1,) + v.shape[1:])
    # the differences first, then one division of the whole array: a single
    # pass over contiguous memory instead of one per strided slice
    np.copyto(out[0], v[0])
    np.subtract(v[1:], v[:-1], out=out[1:-1])
    # not np.negative, which (numpy 2.4) reads the wrong elements of an 8-node
    # input in the Fortran or solver layout; a product by -1.0 negates exactly
    np.multiply(-1.0, v[-1], out=out[-1])
    out /= h
    return out


# The components of a width-1 batch (n, 3, 1) are 2-D (n, 1) arrays, which numpy
# runs off its fast path; the component kernels take the 1-D components of its
# (n, 3) view instead, with the same bits, about a microsecond sooner each.

def cross_values(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise cross product over axis 1; (n, 3, ...) shapes broadcast, so an
    (n, 3, 1) field crosses every column of an (n, 3, M) batch.

    Each component is a product minus a product; the second product of the
    first two components goes through the slot of the next one, so only the
    last makes a temporary.
    """
    if out is None:
        # keep the memory layout of the full-shape operand
        out = np.empty_like(b if b.size > a.size else a)
    o = out
    if out.shape[2:] == (1,):
        a, b, o = a[..., 0], b[..., 0], out[..., 0]
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    o0, o1, o2 = o[:, 0], o[:, 1], o[:, 2]
    np.multiply(a1, b2, out=o0)
    o0 -= np.multiply(a2, b1, out=o1)
    np.multiply(a2, b0, out=o1)
    o1 -= np.multiply(a0, b2, out=o2)
    np.multiply(a0, b1, out=o2)
    o2 -= a1 * b0
    return out


def dot_values(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Pointwise dot product over axis 1: shape (n,) for (n, 3) inputs, (n, M) for batches.

    The three products are summed in a fixed order; an einsum would pick its
    order from the memory layout, which differs between a field and a batch.
    ``work``, when given, takes the products instead of a temporary.
    """
    p = np.multiply(a, b, out=work)
    if out is None:
        out = np.empty_like(p[:, 0])
    o = out
    if p.shape[2:] == (1,):
        p, o = p[..., 0], out[..., 0]
    np.add(p[:, 0], p[:, 1], out=o)
    o += p[:, 2]
    return out


def sq_norm_values(
    v: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Pointwise squared Euclidean norm, shape (n,) for a field, (n, M) for a batch."""
    return dot_values(v, v, out, work)


def column_sq_sums(
    a: np.ndarray, b: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Sum over the nodes of a.b (of a.a without ``b``): a number for (m, 3) fields,
    one per column of (m, 3, M) batches, shape (M,), or one per (column, step) of
    (m, 3, M, K) stacks of K steps, shape (K, M); the L2 inner products without the h.

    Each column is summed from its own contiguous row, so the bits do not
    depend on the batch width, the number of steps or the layout (an einsum
    picks its order from all three). ``work`` takes the products instead of a
    temporary; it may be ``a`` itself when ``a`` is not needed afterwards.
    """
    return np.ascontiguousarray(dot_values(a, a if b is None else b, work=work).T).sum(axis=-1)


@lru_cache(maxsize=None)
def _helmholtz_factor(n: int, h: float, c: float):
    # LDL^T of the tridiagonal matrix I - c*Lap from its diagonal and off-diagonal
    inv_h2 = 1.0 / (h * h)
    d, e, info = _pttrf(np.full(n, 1.0 + 2.0 * c * inv_h2), np.full(n - 1, -c * inv_h2))
    if info != 0:
        raise LinAlgError(f"I - c*Lap is not positive definite for c = {c} (pttrf info {info})")
    return d, e


def helm_values(v: np.ndarray, h: float, c: float, out: np.ndarray | None = None) -> np.ndarray:
    """Solve (I - c*Lap) w = v for every column of a node-major stack (n, ...).

    Every c >= 0 takes the LAPACK solve; at c = 0 it returns the values of v,
    though the sign of a zero may differ. One pttrs call takes all right-hand
    sides and solves each on its own, so a batch gives each column the bits of
    solving it alone. ``w`` goes into ``out`` when given, else into a new array
    in the solver's memory order; ``v`` is written only when it is ``out``. An
    ``out`` in the solver's memory order is solved in place, with no copy.
    Raises LinAlgError when the matrix is not positive definite (c < 0).
    """
    if out is not None and out is not v:
        np.copyto(out, v)
    d, e = _helmholtz_factor(v.shape[0], h, c)
    # without ``out`` LAPACK solves a copy of its own; with one, it overwrites
    # ``out`` through its (n, -1) view, a copy unless ``out`` is in the solver's order
    b = v if out is None else out
    x, info = _pttrs(d, e, b.reshape(b.shape[0], -1), overwrite_b=out is not None)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK pttrs")
    if out is None:
        return x.reshape(v.shape)
    if not np.may_share_memory(x, out):
        out[...] = x.reshape(out.shape)
    return out


# ---------------------------------------------------------------------------
# stacks of fields and their norms

def map_stack(fn, stack: np.ndarray) -> np.ndarray:
    """``fn`` of the node-major view (n, 3, S') of each chunk of at most
    ``STACK_CHUNK`` snapshots of the stack (S, n, 3), joined along the last axis."""
    chunks = [stack[first:first + STACK_CHUNK] for first in range(0, len(stack), STACK_CHUNK)]
    return np.concatenate([fn(np.moveaxis(chunk, 0, -1)) for chunk in chunks], axis=-1)


def stack_norms(stack: np.ndarray, h: float, work: dict | None = None) -> np.ndarray:
    """Rows (l2, h1_semi, h2_semi, linf) of every field of the stack (S, n, 3), shape (S, 4).

    A row's bits do not depend on the other fields of the stack. A chunk's
    temporaries of its own size are ``scratch`` buffers of ``work``, in the
    chunk's memory order: a caller that passes the same dict call after call,
    such as a run that takes the norms of each block of steps as it marches,
    makes them once.
    """
    work = {} if work is None else work

    def squares(v):
        nodes, _, count = v.shape
        buf = scratch(work, "nodes", v.shape, like=v)
        edges = scratch(work, "edges", (nodes + 1, 3, count), like=v)
        l2 = h * column_sq_sums(v, work=buf)
        sq = scratch(work, "sq", (nodes, count), like=v[:, 0])
        linf = sq_norm_values(v, out=sq, work=buf).max(axis=0)
        h1 = h * column_sq_sums(grad_values(v, h, out=edges), work=edges)
        h2 = h * column_sq_sums(lap_values(v, h, out=buf), work=buf)
        return np.stack([l2, h1, h2, linf])

    return np.sqrt(map_stack(squares, stack)).T


def h1_norm(u: np.ndarray) -> float:
    """Full H1 norm sqrt(l2^2 + h1_semi^2) of the field ``u`` (n, 3)."""
    l2, h1_semi = stack_norms(u[None], make_grid(len(u)).spacing)[0, :2].tolist()
    return math.hypot(l2, h1_semi)


# ---------------------------------------------------------------------------
# CSV output

def _signed_exponent(text: bytes) -> list:
    # 1.5e16 -> 1.5e+16; 1e-100 keeps its sign
    return text.replace(b"e", b"e+").replace(b"e+-", b"e-").decode().split(",")


def _two_digit_exponent(text: bytes) -> list:
    # 1.5e-7 -> 1.5e-07
    return text.replace(b"e-", b"e-0").decode().split(",")


def _positional_to_exponent(text: bytes) -> list:
    # -0.0000123 -> -1.23e-05, 0.00002 -> 2e-05
    spelled = []
    for digits in text.replace(b"0.0000", b"").decode().split(","):
        first = 2 if digits[0] == "-" else 1
        if len(digits) > first:
            spelled.append(f"{digits[:first]}.{digits[first:]}e-05")
        else:
            spelled.append(digits + "e-05")
    return spelled


def csv_rows(lead: np.ndarray, values: np.ndarray) -> bytes:
    """CSV rows of the int columns ``lead`` (R, L) followed by the float columns
    ``values`` (R, F), each row ending in CRLF, every float spelled as ``repr`` spells it.

    One ``orjson.dumps`` of the row lists writes them. Its Ryu formatter finds
    the shortest round-trip digits, as ``repr`` does, and spells 0 and every
    finite 1e-4 <= |x| < 1e16 exactly as ``repr`` does. It spells the other
    finite floats in another form, so each of their ranges is dumped on its
    own, its text fixed up to ``repr``'s form and split into strings: a + on
    exponents of |x| < 1e-9 and |x| >= 1e16 (1.5e16 -> 1.5e+16), two exponent
    digits for 1e-9 <= |x| < 1e-5 (1.5e-7 -> 1.5e-07) and exponent form for
    1e-5 <= |x| < 1e-4 (-0.0000123 -> -1.23e-05). Only inf and nan, which
    orjson writes as null, go through ``repr``. The strings are put into the
    rows and their quotes removed from the text.
    """
    if not len(values):
        return b""
    width = lead.shape[1]
    rows = np.empty((len(values), width + values.shape[1]), dtype=object)
    rows[:, :width] = lead
    floats = rows[:, width:]
    floats[...] = values
    size = np.abs(values)
    ranges = (
        (((size > 0.0) & (size < 1e-9)) | ((size >= 1e16) & (size < math.inf)), _signed_exponent),
        ((size >= 1e-9) & (size < 1e-5), _two_digit_exponent),
        ((size >= 1e-5) & (size < 1e-4), _positional_to_exponent),
    )
    for where, fix in ranges:
        if where.any():
            floats[where] = fix(orjson.dumps(values[where].tolist())[1:-1])
    nonfinite = ~(size < math.inf)
    if nonfinite.any():
        floats[nonfinite] = list(map(repr, values[nonfinite].tolist()))
    text = orjson.dumps(rows.tolist())
    return text[2:-2].replace(b"],[", b"\r\n").replace(b'"', b"") + b"\r\n"
