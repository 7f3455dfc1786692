"""Identity checks, inequality monitors, the proof metric and convergence-rate fitting.

Summation by parts, the cross-product orthogonalities and the vector form of
the cubic damping identity are exact for the discrete operators, so their
residuals are pure rounding noise for any node values and are checked at
1e-12 after scale normalization. The checks take node-major batches
(n, 3, M) through the array kernels of ``field``, every per-column sum
through ``column_sq_sums``, so a pair's residuals have the same bits alone
(``check_identities``, ``check_cubic_identity``) or in any chunk of
``identity_suite``. The energy monitor carries an O(dt) defect and is
checked by refinement ratios instead of absolute thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import (
    STACK_CHUNK,
    as_field,
    column_sq_sums,
    cross_values,
    dot_values,
    grad_values,
    helm_values,
    lap_values,
    make_grid,
    scratch,
    sq_norm_values,
    stack_norms,
)
from .dynamics import TrajectoryRecord

__all__ = [
    "IdentityReport",
    "SlopeFit",
    "SampleStats",
    "sample_stats",
    "check_identities",
    "check_cubic_identity",
    "cubic_identity_residuals",
    "fit_slope",
    "energy_drift",
    "StreamedEnergyDrift",
    "path_gap",
    "StreamedPathGap",
    "identity_suite",
]

EXACT_IDENTITY_TOL = 1.0e-12


@dataclass(frozen=True)
class IdentityReport:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.tolerance


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log eps, log metric) pairs."""

    slope: float
    intercept: float
    residual: float


class SampleStats(NamedTuple):
    """Mean and standard error over the samples that ran, and the two counts."""

    mean: float
    std_error: float
    n_ok: int
    n_failed: int


def sample_stats(values) -> SampleStats:
    """Aggregate per-sample values, ``None`` marking a sample that blew up.

    Failed samples are counted, never averaged; with no sample left the mean
    and standard error are NaN, with one the standard error is 0.
    """
    ok = np.array([v for v in values if v is not None])
    n_failed = len(values) - len(ok)
    if len(ok) == 0:
        return SampleStats(math.nan, math.nan, 0, n_failed)
    se = float(np.std(ok, ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else 0.0
    return SampleStats(float(np.mean(ok)), se, len(ok), n_failed)


def _norm_rows(v: np.ndarray, h: float) -> np.ndarray:
    """Rows (l2, h1_semi, h2_semi, linf) of every column of the node-major batch v (n, 3, M)."""
    return stack_norms(np.moveaxis(v, -1, 0), h).T


def _cross_residuals(u: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Rows (cross-orthogonality, precession-orthogonality, precession-bound) of
    every column pair of the node-major batches u, v (n, 3, M); see ``check_identities``."""
    l2_u, h1_u, h2_u, linf_u = _norm_rows(u, h)
    l2_v, _, h2_v, _ = _norm_rows(v, h)
    u_lap_v = cross_values(u, lap_values(v, h))
    r1 = np.abs(h * column_sq_sums(cross_values(u, v), v)) / (1.0 + linf_u * l2_v**2)
    r2 = np.abs(h * column_sq_sums(u_lap_v, u)) / (1.0 + linf_u**2 * h2_v)
    lhs = np.abs(h * column_sq_sums(u_lap_v, lap_values(u, h)))
    rhs = h2_u**2 + 2.0 * (1.0 + 10.0 * h) * h2_v**2 * (l2_u**2 + h1_u**2)
    return np.stack([r1, r2, np.maximum(0.0, lhs - rhs)])


def check_identities(u: np.ndarray, v: np.ndarray) -> list[IdentityReport]:
    """Residuals of the exact cross-product identities and the mixed bound.

    The first two residuals are scale-normalized so the 1e-12 tolerance is
    magnitude-independent. The third entry checks the inequality
    |(u x Lap v, Lap u)| <= ||Lap u||^2 + c_d ||Lap v||^2 ||u||_H1^2 with the
    discrete interpolation constant c_d = 2 (1 + 10 h); its residual is the
    violation amount, zero when the bound holds.
    """
    u, v = as_field(u), as_field(v)
    if u.shape != v.shape:
        raise ValueError("fields must share a grid")
    r1, r2, violation = _cross_residuals(u[..., None], v[..., None], make_grid(len(u)).spacing)
    return [
        IdentityReport("cross-orthogonality", float(r1[0]), EXACT_IDENTITY_TOL),
        IdentityReport("precession-orthogonality", float(r2[0]), EXACT_IDENTITY_TOL),
        IdentityReport("precession-bound", float(violation[0]), 0.0),
    ]


def _edge_average(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Midpoint averages on the n_interior+1 edges, zero ghost nodes, laid out like ``v``
    or written into ``out``."""
    if out is None:
        out = np.empty_like(v, shape=(v.shape[0] + 1,) + v.shape[1:])
    out[0] = 0.5 * v[0]
    np.add(v[1:], v[:-1], out=out[1:-1])
    out[1:-1] *= 0.5
    out[-1] = 0.5 * v[-1]
    return out


def _cubic_sum(u: np.ndarray, grad: np.ndarray, work: dict | None = None) -> np.ndarray:
    """sum_e (|u|^2 |du|^2 + 2 (u.du)^2), edge-averaged |u|^2 and u, per column of the
    node-major batch u (n, 3, M) with edge differences ``grad``: the inner product of
    du with |u|^2 du + 2 (u.du) u, one column reduction. Its arrays are ``scratch``
    buffers of ``work`` in the memory order of ``grad``, taken anew when it is None;
    ``vector`` takes every product in turn, so no more than three arrays of the
    batch's size are alive."""
    work = {} if work is None else work
    u_edge = _edge_average(u, out=scratch(work, "u_edge", grad.shape, like=grad))
    vector = scratch(work, "edges", grad.shape, like=grad)
    edge = scratch(work, "edge", grad[:, 0].shape, like=grad[:, 0])
    edge = dot_values(u_edge, grad, out=edge, work=vector)
    np.multiply(np.multiply(2.0, edge, out=edge)[:, None], u_edge, out=u_edge)
    sq = scratch(work, "sq", u[:, 0].shape, like=grad[:-1, 0])
    sq = sq_norm_values(u, out=sq, work=vector[:-1])
    np.multiply(_edge_average(sq, out=edge)[:, None], grad, out=vector)
    vector += u_edge
    return column_sq_sums(vector, grad, work=vector)


def _cubic_residuals(u: np.ndarray, h: float, mu: float) -> np.ndarray:
    """Rows (vector form, colinear form, vector form / its scale) of the cubic
    damping identity of every column of the node-major batch u (n, 3, M)."""
    r = sq_norm_values(u)
    lhs = h * column_sq_sums((1.0 + mu * r)[:, None] * u, lap_values(u, h))
    grad = grad_values(u, h)
    h1_sq = h * column_sq_sums(grad)
    vector = lhs + h1_sq + mu * h * _cubic_sum(u, grad)
    colinear = lhs + h1_sq + mu * 3.0 * h * column_sq_sums(_edge_average(r)[:, None] * grad, grad)
    _, h1_semi, _, linf = _norm_rows(u, h)
    return np.stack([vector, colinear, vector / (1.0 + h1_semi**2 * (1.0 + mu * linf**2))])


def cubic_identity_residuals(u: np.ndarray, mu: float = 1.0) -> tuple[float, float]:
    """Residuals of the cubic damping identity, vector form and colinear form.

    Vector form:   ((1+mu|u|^2) u, Lap u) = -||grad u||^2
                                            - mu sum_e h (|u|^2 |du|^2 + 2 (u.du)^2)
    with midpoint edge averages of |u|^2 and u. The midpoint convention makes
    the discrete product rule exact, so the vector-form residual is pure
    rounding noise for arbitrary node values, not merely O(h). The colinear
    form replaces the edge sum by 3 mu (|u|^2, |grad u|^2); the two coincide
    exactly when u is pointwise parallel to its derivative and differ at O(1)
    otherwise.
    """
    vector, colinear, _ = _cubic_residuals(u[..., None], make_grid(len(u)).spacing, mu)[:, 0]
    return float(vector), float(colinear)


def check_cubic_identity(u: np.ndarray, mu: float = 1.0) -> IdentityReport:
    """Scale-normalized residual of the exact vector identity; the colinear form
    is not checked, because the two forms agree only for pointwise-parallel fields."""
    residual = _cubic_residuals(u[..., None], make_grid(len(u)).spacing, mu)[2, 0]
    return IdentityReport("cubic-damping-identity", float(residual), EXACT_IDENTITY_TOL)


def fit_slope(points) -> SlopeFit:
    """Least-squares slope of log(metric) against log(eps).

    ``points`` is a sequence of (eps, metric) pairs with positive entries;
    at least three are required.
    """
    pts = [(float(e), float(m)) for e, m in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    for e, m in pts:
        if e <= 0.0 or m <= 0.0 or not (math.isfinite(e) and math.isfinite(m)):
            raise ValueError(f"points must be positive and finite, got ({e}, {m})")
    xs = np.array([math.log(e) for e, _ in pts])
    ys = np.array([math.log(m) for _, m in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    rms = math.sqrt(float(np.mean(resid**2)))
    return SlopeFit(slope=float(slope), intercept=float(intercept), residual=rms)


class StreamedEnergyDrift:
    """The drift of ``energy_drift`` along a deterministic run, fed a block of steps at a time.

    ``add(n, snapshots)`` takes the states (K, n, 3) of steps n to n + K - 1,
    in step order, and returns their ``field.stack_norms`` rows, of which the
    balance is made, so a caller that writes them takes them once; ``value``
    is the drift over the steps given so far. Only the running dissipation
    sum and the worst deviation are kept, never the trajectory. The norm pass
    and the cubic sums share one dict of ``scratch`` buffers, made for the
    first block in its memory order and reused, so a run allocates no block's
    arrays twice. The sum is carried from block to block in step order, so
    the drift has the same bits whatever the blocks.
    """

    def __init__(self, params, spacing: float, dt: float, steps: int):
        self.params = params
        self.spacing = spacing
        self.dt = dt
        self.steps = steps
        self._h1_sq_0 = 0.0
        self._acc = 0.0
        self._worst = 0.0
        self._work = {}

    def add(self, n: int, snapshots: np.ndarray) -> np.ndarray:
        params, h, dt, work = self.params, self.spacing, self.dt, self._work
        rows = stack_norms(snapshots, h, work)
        h1_sq = rows[:, 1] ** 2
        if n == 0:
            self._h1_sq_0 = h1_sq[0]
        # the quadrature stops before the last step
        u = np.moveaxis(snapshots[:max(self.steps - n, 0)], 0, -1)
        nodes, _, count = u.shape
        grad = grad_values(u, h, out=scratch(work, "grad", (nodes + 1, 3, count), like=u))
        cubic = h * _cubic_sum(u, grad, work)
        with np.errstate(over="ignore", invalid="ignore"):
            diss = (2.0 * dt * params.nu1) * rows[:count, 2] ** 2
            diss += (2.0 * dt * params.nu2) * (h1_sq[:count] + params.mu * cubic)
            # the sums before each step of the block, and after it
            acc = np.cumsum(np.concatenate([[self._acc], diss]))
            balance = np.abs(h1_sq + acc[:len(h1_sq)] - self._h1_sq_0)
            self._worst = np.maximum(self._worst, np.max(balance))
        self._acc = acc[-1]
        return rows

    @property
    def value(self) -> float:
        return float(self._worst)


def energy_drift(traj: TrajectoryRecord) -> float:
    """Deviation of the dissipation balance along a deterministic trajectory.

    Monitors  ||grad u(t)||^2 + 2 nu1 int ||Lap u||^2 + 2 nu2 int (||grad u||^2
    + mu * cubic) - ||grad u(0)||^2  with left-endpoint quadrature and the run's own
    ``traj.params``; the result shrinks at first order in dt. Its cubic sums are column
    reductions, whatever the chunk; dt weights each coefficient first, so a huge nu1
    over a tiny dt stays finite. The record is fed to ``StreamedEnergyDrift`` a
    chunk of ``STACK_CHUNK`` snapshots at a time.
    """
    if traj.kind != "deterministic":
        raise ValueError(f"energy drift is defined for deterministic runs, got {traj.kind}")
    if not traj.dense:
        raise ValueError("energy drift needs snapshots at every step")
    drift = StreamedEnergyDrift(
        traj.params, traj.grid.spacing, float(traj.times[1] - traj.times[0]), traj.steps
    )
    for first in range(0, len(traj.snapshots), STACK_CHUNK):
        drift.add(first, traj.snapshots[first:first + STACK_CHUNK])
    return drift.value


def path_gap(
    snaps_a: np.ndarray,
    snaps_b: np.ndarray,
    spacing: float,
    dt: float,
    nu1: float,
) -> float:
    """Proof metric between two dense trajectories on the same grid:

        sup_n ||grad (a_n - b_n)||^2 + nu1 * sum_{n<N} dt ||Lap (a_n - b_n)||^2
    """
    if snaps_a.shape != snaps_b.shape:
        raise ValueError(f"trajectory shapes differ: {snaps_a.shape} vs {snaps_b.shape}")
    # node-major view (n, steps, 3); the kernels keep the snapshot-major memory
    d = (snaps_a - snaps_b).transpose(1, 0, 2)
    grad = grad_values(d, spacing)
    grad_sq = spacing * np.einsum("isj,isj->s", grad, grad)
    lap = lap_values(d, spacing)
    lap_sq = spacing * np.einsum("isj,isj->s", lap, lap)

    return float(np.max(grad_sq)) + nu1 * dt * float(np.sum(lap_sq[:-1]))


class StreamedPathGap:
    """The proof metric of ``path_gap`` for a batch of M columns, fed a block of steps at a time.

    ``add(n, d)`` takes the (n, 3, M) differences of step n, or the
    (n, 3, M, K) differences of steps n to n + K - 1; ``values`` is the metric
    of every column over the steps it was given. Only two numbers per column
    are kept, never the trajectories. A block costs one gradient and one
    Laplacian whatever K is; each step's Laplacian term is added to the
    running sum on its own, in step order, so a column's value has the same
    bits whatever the blocks and the batch it runs in. It equals ``path_gap``
    of the stored differences to rounding, not bitwise. With ``nu1 = 0`` it
    is sup_n ||grad d_n||^2 alone, and no Laplacian is taken.
    """

    def __init__(self, width: int, spacing: float, dt: float, nu1: float, steps: int):
        self.spacing = spacing
        self.dt = dt
        self.nu1 = nu1
        self.steps = steps
        self._sup_grad_sq = np.zeros(width)
        self._lap_sq_sum = np.zeros(width)
        self._work = {}

    def add(self, n: int, d: np.ndarray) -> None:
        if d.ndim == 3:
            d = d[..., None]
        h = self.spacing
        grad = grad_values(d, h, out=scratch(self._work, "grad", (d.shape[0] + 1,) + d.shape[1:]))
        grad_sq = h * column_sq_sums(grad, work=grad)
        np.maximum(self._sup_grad_sq, grad_sq.max(axis=0), out=self._sup_grad_sq)
        # the Laplacian term stops before the last step, as path_gap's sum does
        integrated = d[..., :max(self.steps - n, 0)]
        if integrated.size and self.nu1 != 0.0:
            lap = lap_values(integrated, h, out=scratch(self._work, "lap", integrated.shape))
            for lap_sq in h * column_sq_sums(lap, work=lap):
                self._lap_sq_sum += lap_sq

    @property
    def values(self) -> np.ndarray:
        return self._sup_grad_sq + self.nu1 * self.dt * self._lap_sq_sum


def _pair_residuals(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """The nine random-pair residuals of ``identity_suite`` in the order of its rows,
    for every column pair of the node-major batches a, b (n, 3, M), shape (9, M);
    a column's bits do not depend on the others."""
    grad_ab = h * column_sq_sums(grad_values(a, h), grad_values(b, h))
    sbp = np.abs(h * column_sq_sums(lap_values(a, h), b) + grad_ab) / (1.0 + np.abs(grad_ab))
    ab = cross_values(a, b)
    asym = np.abs(ab + cross_values(b, a)).max(axis=(0, 1))
    ortho = np.maximum(np.abs(dot_values(ab, a)), np.abs(dot_values(ab, b))).max(axis=0)
    l2, h1_semi, _, linf = _norm_rows(a, h)
    interp = np.maximum(0.0, linf**2 - 2.0 * l2 * np.hypot(l2, h1_semi) * (1.0 + 10.0 * h))
    c = 0.1
    sol = helm_values(a, h, c)
    resid = sol - c * lap_values(sol, h) - a
    helm = np.sqrt(column_sq_sums(resid) / column_sq_sums(a))
    cubic = np.abs(_cubic_residuals(a, h, 1.0)[2])
    return np.stack([sbp, asym, ortho, *_cross_residuals(a, b, h), interp, cubic, helm])


def identity_suite(
    grid_sizes=(31, 127, 255),
    samples: int = 1000,
    base_seed: int = 0,
) -> list[IdentityReport]:
    """Worst-case identity residuals over random field sweeps, one row per check.

    Each grid draws its sample pairs in chunks of at most ``STACK_CHUNK`` and
    checks a chunk as one node-major batch, so memory stays at one chunk's
    whatever the number of samples.
    """
    checks = (
        ("summation-by-parts", EXACT_IDENTITY_TOL),
        ("cross-antisymmetry", 0.0),
        ("pointwise-orthogonality", 1.0e-14),
        ("cross-orthogonality", EXACT_IDENTITY_TOL),
        ("precession-orthogonality", EXACT_IDENTITY_TOL),
        ("precession-bound", 0.0),
        ("interpolation-inequality", 0.0),
        ("cubic-damping-identity", EXACT_IDENTITY_TOL),
        ("helmholtz-roundtrip", 1.0e-10),
    )
    out = []
    for n in grid_sizes:
        h = make_grid(n).spacing
        rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(n,)))
        worst = np.zeros(len(checks))
        for first in range(0, samples, STACK_CHUNK):
            # O(1) amplitudes so the absolute pointwise checks are meaningful;
            # the scale-normalized residuals are magnitude-independent anyway.
            # Pair s of the chunk is (pairs[s, 0], pairs[s, 1]).
            pairs = rng.uniform(-1.0, 1.0, size=(min(STACK_CHUNK, samples - first), 2, n, 3))
            a, b = np.moveaxis(pairs, 0, -1)
            np.maximum(worst, _pair_residuals(a, b, h).max(axis=1), out=worst)
        zero = np.zeros((n, 3, 1))
        w_zero = float(_cross_residuals(zero, zero, h).max())
        out.append(IdentityReport(f"zero-field/n={n}", w_zero, 0.0))
        out.extend(
            IdentityReport(f"{name}/n={n}", float(w), tol) for (name, tol), w in zip(checks, worst)
        )
    return out
