"""Identity checkers, inequality monitors, and convergence-rate fitting.

The two cross-product identities are algebraically exact for the discrete
operators, so their residuals are pure rounding noise and are checked at
1e-12 after scale normalization. Quadrature-limited identities (the cubic
damping identity, the energy monitor) carry O(h) or O(dt) defects and are
checked by refinement ratios instead of absolute thresholds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import (
    VectorField,
    column_sq_sums,
    cross,
    cross_values,
    dot_values,
    grad_values,
    inner_l2,
    lap_values,
    laplacian,
    map_stack,
    norms,
    scratch,
    sq_norm_values,
)
from .dynamics import ModelParams, TrajectoryRecord

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
    "path_gap",
    "StreamedPathGap",
    "identity_suite",
]

logger = logging.getLogger(__name__)

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

    points: tuple
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


def check_identities(u: VectorField, v: VectorField) -> list[IdentityReport]:
    """Residuals of the exact cross-product identities and the mixed bound.

    The first two residuals are scale-normalized so the 1e-12 tolerance is
    magnitude-independent. The third entry checks the inequality
    |(u x Lap v, Lap u)| <= ||Lap u||^2 + c_d ||Lap v||^2 ||u||_H1^2 with the
    discrete interpolation constant c_d = 2 (1 + 10 h); its residual is the
    violation amount, zero when the bound holds.
    """
    if u.grid != v.grid:
        raise ValueError("fields must share a grid")
    nu = norms(u)
    nv = norms(v)
    lap_v = laplacian(v)

    r1 = abs(inner_l2(cross(u, v), v))
    s1 = 1.0 + nu.linf * nv.l2**2
    r2 = abs(inner_l2(cross(u, lap_v), u))
    s2 = 1.0 + nu.linf**2 * nv.h2_semi

    h = u.grid.spacing
    lhs = abs(inner_l2(cross(u, lap_v), laplacian(u)))
    c_d = 2.0 * (1.0 + 10.0 * h)
    u_h1_sq = nu.l2**2 + nu.h1_semi**2
    rhs = nu.h2_semi**2 + c_d * nv.h2_semi**2 * u_h1_sq
    violation = max(0.0, lhs - rhs)

    return [
        IdentityReport("cross-orthogonality", r1 / s1, EXACT_IDENTITY_TOL),
        IdentityReport("precession-orthogonality", r2 / s2, EXACT_IDENTITY_TOL),
        IdentityReport("precession-bound", violation, 0.0),
    ]


def _edge_average(v: np.ndarray) -> np.ndarray:
    """Midpoint averages of node values on the n_interior+1 edges, zero ghost nodes."""
    out = np.empty((v.shape[0] + 1,) + v.shape[1:])
    out[0] = 0.5 * v[0]
    out[1:-1] = 0.5 * (v[1:] + v[:-1])
    out[-1] = 0.5 * v[-1]
    return out


def _cubic_term(v: np.ndarray, h: float) -> np.ndarray:
    """Edge quadrature of |u|^2 |du|^2 + 2 (u.du)^2 with edge-averaged |u|^2 and u,
    for one (n, 3) field or each column of a node-major batch (n, 3, M)."""
    grad = grad_values(v, h)
    dot = dot_values(_edge_average(v), grad)
    density = _edge_average(sq_norm_values(v)) * sq_norm_values(grad) + 2.0 * dot**2
    return h * np.sum(density, axis=0)


def cubic_identity_residuals(u: VectorField, mu: float = 1.0) -> tuple[float, float]:
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
    grid = u.grid
    h = grid.spacing
    v = u.values
    lap = lap_values(v, h)

    r = sq_norm_values(v)
    lhs = h * float(np.vdot((1.0 + mu * r)[:, None] * v, lap))

    grad = grad_values(v, h)
    grad_sq = np.einsum("ij,ij->i", grad, grad)
    h1_sq = h * float(np.sum(grad_sq))

    cubic_vec = float(_cubic_term(v, h))
    cubic_colinear = 3.0 * h * float(np.sum(_edge_average(r) * grad_sq))

    vector_residual = lhs + h1_sq + mu * cubic_vec
    colinear_residual = lhs + h1_sq + mu * cubic_colinear
    return vector_residual, colinear_residual


def check_cubic_identity(
    u: VectorField, mu: float = 1.0, tolerance: float = EXACT_IDENTITY_TOL
) -> IdentityReport:
    """Scale-normalized residual of the exact vector identity.

    The colinear variant is logged at debug level for comparison; it is not
    asserted because the two forms agree only for pointwise-parallel fields.
    """
    vector_residual, colinear_residual = cubic_identity_residuals(u, mu)
    logger.debug(
        "cubic identity residuals: vector %.3e, colinear %.3e",
        vector_residual,
        colinear_residual,
    )
    rep = norms(u)
    scale = 1.0 + rep.h1_semi**2 * (1.0 + mu * rep.linf**2)
    return IdentityReport("cubic-damping-identity", vector_residual / scale, tolerance)


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
    log_pts = tuple((math.log(e), math.log(m)) for e, m in pts)
    xs = np.array([p[0] for p in log_pts])
    ys = np.array([p[1] for p in log_pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    rms = math.sqrt(float(np.mean(resid**2)))
    return SlopeFit(points=log_pts, slope=float(slope), intercept=float(intercept), residual=rms)


def energy_drift(traj: TrajectoryRecord, params: ModelParams) -> float:
    """Deviation of the dissipation balance along a deterministic trajectory.

    Monitors  ||grad u(t)||^2 + 2 nu1 int ||Lap u||^2 + 2 nu2 int (||grad u||^2
    + mu * cubic) - ||grad u(0)||^2  with left-endpoint quadrature; the result
    shrinks at first order in dt.
    """
    if traj.kind != "deterministic":
        raise ValueError(f"energy drift is defined for deterministic runs, got {traj.kind}")
    if not traj.dense:
        raise ValueError("energy drift needs snapshots at every step")
    h = traj.grid.spacing
    dt = float(traj.times[1] - traj.times[0])
    rows = traj.norm_rows
    h1_sq = rows[:, 1] ** 2
    cubic = map_stack(lambda v: _cubic_term(v, h), traj.snapshots[:-1])
    diss = 2.0 * params.nu1 * rows[:-1, 2] ** 2
    diss += 2.0 * params.nu2 * (h1_sq[:-1] + params.mu * cubic)
    acc = np.concatenate([[0.0], np.cumsum(dt * diss)])
    return float(np.max(np.abs(h1_sq + acc - h1_sq[0])))


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


def identity_suite(
    grid_sizes=(31, 127, 255),
    samples: int = 1000,
    base_seed: int = 0,
) -> list[IdentityReport]:
    """Worst-case identity residuals over random field sweeps, one row per check."""
    from .field import make_grid, zero_field, gradient, edge_inner, helm_values

    out = []
    for n in grid_sizes:
        grid = make_grid(n)
        h = grid.spacing
        rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(n,)))
        w_sbp = w_asym = w_ortho = w_r1 = w_r2 = w_bound = w_interp = w_helm = 0.0
        w_cubic = 0.0
        for _ in range(samples):
            # O(1) amplitudes so the absolute pointwise checks are meaningful;
            # the scale-normalized residuals are magnitude-independent anyway
            a = VectorField(grid, rng.uniform(-1.0, 1.0, size=(n, 3)))
            b = VectorField(grid, rng.uniform(-1.0, 1.0, size=(n, 3)))

            lhs = inner_l2(laplacian(a), b)
            rhs = edge_inner(grid, gradient(a), gradient(b))
            w_sbp = max(w_sbp, abs(lhs + rhs) / (1.0 + abs(rhs)))

            ab = cross_values(a.values, b.values)
            ba = cross_values(b.values, a.values)
            w_asym = max(w_asym, float(np.max(np.abs(ab + ba))))
            w_ortho = max(
                w_ortho,
                float(np.max(np.abs(np.einsum("ij,ij->i", ab, a.values)))),
                float(np.max(np.abs(np.einsum("ij,ij->i", ab, b.values)))),
            )

            reps = check_identities(a, b)
            w_r1 = max(w_r1, abs(reps[0].residual))
            w_r2 = max(w_r2, abs(reps[1].residual))
            w_bound = max(w_bound, reps[2].residual)

            na = norms(a)
            interp_rhs = 2.0 * na.l2 * math.hypot(na.l2, na.h1_semi) * (1.0 + 10.0 * h)
            w_interp = max(w_interp, max(0.0, na.linf**2 - interp_rhs))

            w_cubic = max(w_cubic, abs(check_cubic_identity(a).residual))

            c = 0.1
            sol = helm_values(a.values, h, c)
            resid = sol - c * lap_values(sol, h) - a.values
            w_helm = max(
                w_helm,
                math.sqrt(float(np.vdot(resid, resid)) / float(np.vdot(a.values, a.values))),
            )
        zero_reps = check_identities(zero_field(grid), zero_field(grid))
        w_zero = max(abs(r.residual) for r in zero_reps)
        out.append(IdentityReport(f"zero-field/n={n}", w_zero, 0.0))
        out.extend(
            [
                IdentityReport(f"summation-by-parts/n={n}", w_sbp, EXACT_IDENTITY_TOL),
                IdentityReport(f"cross-antisymmetry/n={n}", w_asym, 0.0),
                IdentityReport(f"pointwise-orthogonality/n={n}", w_ortho, 1.0e-14),
                IdentityReport(f"cross-orthogonality/n={n}", w_r1, EXACT_IDENTITY_TOL),
                IdentityReport(f"precession-orthogonality/n={n}", w_r2, EXACT_IDENTITY_TOL),
                IdentityReport(f"precession-bound/n={n}", w_bound, 0.0),
                IdentityReport(f"interpolation-inequality/n={n}", w_interp, 0.0),
                IdentityReport(f"cubic-damping-identity/n={n}", w_cubic, EXACT_IDENTITY_TOL),
                IdentityReport(f"helmholtz-roundtrip/n={n}", w_helm, 1.0e-10),
            ]
        )
    return out
