"""Semi-implicit time stepping for the Landau-Lifshitz-Bloch systems.

One Euler-Maruyama step treats the stiff diffusion implicitly (a single
banded solve per step) and everything else explicitly:

    u+ = (I - dt*nu1*Lap)^{-1} [ u + dt*(gamma u x Lap u - nu2 (1+mu|u|^2) u)
                                   + u x (sqrt(eps) dB + dt h) ]

The same machinery drives the deterministic flow, the small-noise and
controlled stochastic flows, the deterministic skeleton, and the linear
deviation system obtained by differentiating the step map at eps = 0. The
linear system is exactly that derivative, so coupled runs on a shared noise
path converge to each other at first order in eps by construction. Its
transpose, swept backward over a dense skeleton record, is the discrete
adjoint that gives exact control gradients of terminal functionals.

Explicit treatment of the precession term imposes dt <~ h^2/(gamma |u|_inf)
in the worst case; the integrator tracks the observed ratio and reports it on
the trajectory record rather than failing eagerly (diffusion stabilizes the
default parameter regime well past the naive bound).
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .field import (
    Grid1D,
    VectorField,
    cross_values,
    helm_values,
    lap_values,
    report_values,
    sq_norm_values,
)
from .noise import ControlPath, CovarianceSpec, increment_path, mode_matrix

__all__ = [
    "ModelParams",
    "TimeGrid",
    "SystemKind",
    "TrajectoryRecord",
    "BlowUpError",
    "initial_profile",
    "integrate",
    "skeleton_adjoint",
    "write_report_csv",
    "write_fields_csv",
]

DEFAULT_LINF_CEILING = 1.0e3
MAX_DENSE_SNAPSHOTS = 10_000


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the model; epsilon = 0 gives the deterministic flow."""

    nu1: float = 1.0
    nu2: float = 1.0
    gamma: float = 1.0
    mu: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.nu1 <= 0.0:
            raise ValueError(f"nu1 must be positive, got {self.nu1}")
        if self.nu2 < 0.0:
            raise ValueError(f"nu2 must be nonnegative, got {self.nu2}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")

    def with_epsilon(self, epsilon: float) -> "ModelParams":
        return ModelParams(self.nu1, self.nu2, self.gamma, self.mu, float(epsilon))


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


class SystemKind(Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"
    CONTROLLED_STOCHASTIC = "controlled-stochastic"
    SKELETON = "skeleton"
    LINEARIZED_CLT = "linearized-clt"


_NOISY_KINDS = (
    SystemKind.STOCHASTIC,
    SystemKind.CONTROLLED_STOCHASTIC,
    SystemKind.LINEARIZED_CLT,
)
_CONTROLLED_KINDS = (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON)


class BlowUpError(RuntimeError):
    """Raised when the state leaves the finite / bounded regime."""

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        self.step = step
        self.time = time
        where = f" at step {step}" if step is not None else ""
        when = f", t = {time:.6g}" if time is not None else ""
        super().__init__(f"{message}{where}{when}")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Immutable result of one integration.

    ``reports`` holds an EnergyReport for every step (length steps + 1);
    ``snapshots`` holds the state at the steps listed in ``snapshot_steps``
    (every step by default at desk scale, strided for very long runs).
    """

    kind: str
    params: ModelParams
    grid: Grid1D
    times: np.ndarray
    reports: tuple
    snapshots: np.ndarray
    snapshot_steps: np.ndarray
    seed_info: tuple | None = None
    noise_digest: str | None = None
    explicit_cfl: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def dense(self) -> bool:
        return len(self.snapshot_steps) == len(self.times)

    def values_at(self, step: int) -> np.ndarray:
        idx = np.searchsorted(self.snapshot_steps, step)
        if idx >= len(self.snapshot_steps) or self.snapshot_steps[idx] != step:
            raise KeyError(f"no snapshot stored for step {step}")
        return self.snapshots[idx]

    def final_values(self) -> np.ndarray:
        return self.snapshots[-1]

    def final_field(self) -> VectorField:
        return VectorField(self.grid, self.final_values().copy())


def initial_profile(grid: Grid1D, a: float = 1.0, b: float = 0.5) -> VectorField:
    """Default initial state a sin(pi x) e1 + b sin(2 pi x) e2."""
    x = grid.nodes
    vals = np.zeros((grid.n_interior, 3))
    vals[:, 0] = a * np.sin(math.pi * x)
    vals[:, 1] = b * np.sin(2.0 * math.pi * x)
    return VectorField(grid, vals)


def _drift_values(v: np.ndarray, lap_v: np.ndarray, params: ModelParams) -> np.ndarray | None:
    """Explicit drift gamma u x Lap u - nu2 (1+mu|u|^2) u; None when identically zero."""
    rhs = None
    if params.gamma != 0.0:
        rhs = params.gamma * cross_values(v, lap_v)
    if params.nu2 != 0.0:
        damp = (params.nu2 * (1.0 + params.mu * sq_norm_values(v)))[:, None] * v
        rhs = -damp if rhs is None else rhs - damp
    return rhs


def _step_values(
    v: np.ndarray,
    lap_v: np.ndarray,
    params: ModelParams,
    dt: float,
    c: float,
    g: np.ndarray | None,
    h: float,
) -> np.ndarray:
    """One semi-implicit step of the nonlinear systems (module docstring), with the
    forcing field ``g`` = sqrt(eps) dB + dt h and ``c`` = dt * nu1 (0 skips the solve)."""
    rhs = _drift_values(v, lap_v, params)
    out = v + dt * rhs if rhs is not None else v
    if g is not None and g.any():
        out = out + cross_values(v, g)
    return helm_values(out, h, c)


def _step_transpose_values(
    lam: np.ndarray,
    v: np.ndarray,
    lap_v: np.ndarray,
    params: ModelParams,
    dt: float,
    c: float,
    g: np.ndarray | None,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Transpose of the tangent of ``_step_values`` at ``v``, applied to ``lam``.

    Returns ``(lam_prev, mu)`` with ``mu = (I - c*Lap)^{-1} lam``; the Helmholtz
    matrix is symmetric, so the same banded solve is its own transpose.
    """
    mu = helm_values(lam, h, c)
    out = mu
    if params.gamma != 0.0:
        precession = cross_values(lap_v, mu) + lap_values(cross_values(mu, v), h)
        out = out + (dt * params.gamma) * precession
    if params.nu2 != 0.0:
        out = out - (dt * params.nu2 * (1.0 + params.mu * sq_norm_values(v)))[:, None] * mu
        if params.mu != 0.0:
            dot = np.einsum("ij,ij->i", v, mu)
            out = out - (2.0 * dt * params.nu2 * params.mu) * dot[:, None] * v
    if g is not None and g.any():
        out = out + cross_values(g, mu)
    return out, mu


def _default_stride(steps: int) -> int:
    if steps <= MAX_DENSE_SNAPSHOTS:
        return 1
    return math.ceil(steps / MAX_DENSE_SNAPSHOTS)


def _prepare_path(
    shared_path,
    rng: np.random.Generator | None,
    steps: int,
    spec: CovarianceSpec,
    dt: float,
) -> np.ndarray:
    if shared_path is not None:
        path = np.asarray(shared_path, dtype=float)
        if path.shape != (steps, spec.mode_count, 3):
            raise ValueError(
                f"shared path must have shape {(steps, spec.mode_count, 3)}, got {path.shape}"
            )
        return path
    if rng is None:
        raise ValueError("stochastic integration needs either rng or shared_path")
    return increment_path(rng, steps, spec.mode_count, dt)


def integrate(
    kind: SystemKind,
    u0_field: VectorField,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec | None = None,
    ctrl: ControlPath | None = None,
    shared_path=None,
    base: TrajectoryRecord | None = None,
    rng: np.random.Generator | None = None,
    seed_info: tuple | None = None,
    stride: int | None = None,
    linf_ceiling: float = DEFAULT_LINF_CEILING,
    diffusion_off: bool = False,
) -> TrajectoryRecord:
    """Integrate one of the five systems and record the trajectory.

    Deterministic and skeleton runs consume no randomness. Stochastic kinds
    draw the full increment path up front (or replay ``shared_path``) and
    record a digest of every consumed increment so coupled runs can assert
    they saw identical noise. Raises BlowUpError with the offending step when
    the state leaves the finite/bounded regime. ``diffusion_off`` is a test
    hook that skips the implicit solve, so the remaining terms can be checked
    against pointwise ODE/precession oracles.
    """
    grid = u0_field.grid
    n_steps = tgrid.steps
    dt = tgrid.dt
    h = grid.spacing
    c = 0.0 if diffusion_off else dt * params.nu1

    noisy = kind in _NOISY_KINDS
    if noisy and spec is None:
        raise ValueError(f"{kind.value} integration requires a covariance spec")
    if kind in _CONTROLLED_KINDS:
        if ctrl is None:
            raise ValueError(f"{kind.value} integration requires a control path")
        if spec is None:
            raise ValueError(f"{kind.value} integration requires a covariance spec")
        if ctrl.steps != n_steps:
            raise ValueError(f"control has {ctrl.steps} steps, time grid has {n_steps}")
        if ctrl.mode_count != spec.mode_count:
            raise ValueError(
                f"control has {ctrl.mode_count} modes, covariance has {spec.mode_count}"
            )
        if not math.isclose(ctrl.dt, dt, rel_tol=1e-12):
            raise ValueError(f"control dt {ctrl.dt} does not match time grid dt {dt}")
    if kind is SystemKind.LINEARIZED_CLT:
        if base is None:
            raise ValueError("linearized deviation system requires a base trajectory")
        if base.grid != grid:
            raise ValueError("base trajectory grid does not match")
        if base.steps != n_steps or not base.dense or not np.array_equal(base.times, tgrid.times):
            raise ValueError(
                "base trajectory must store every step of the same time grid"
            )
        if np.any(u0_field.values):
            raise ValueError("linearized deviation system starts from zero initial data")

    path = _prepare_path(shared_path, rng, n_steps, spec, dt) if noisy else None
    mode_mat = mode_matrix(spec, grid) if (noisy or ctrl is not None) else None
    ctrl_coeffs = ctrl.coefficients if ctrl is not None else None
    sqrt_eps = math.sqrt(params.epsilon)
    digest = hashlib.sha256() if noisy else None

    base_snaps = base.snapshots if kind is SystemKind.LINEARIZED_CLT else None

    stride = _default_stride(n_steps) if stride is None else int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    u = np.array(u0_field.values, dtype=float)
    reports = []
    snaps = []
    snap_steps = []
    cfl = 0.0
    cfl_scale = dt * abs(params.gamma) / (h * h)

    for n in range(n_steps + 1):
        lap_u = lap_values(u, h)
        rep = report_values(u, lap_u, h, n * dt)
        if not math.isfinite(rep.linf) or rep.linf > linf_ceiling:
            raise BlowUpError(
                f"|u|_inf = {rep.linf:.3g} exceeded ceiling {linf_ceiling:.3g} "
                f"(explicit-term ratio {cfl:.3g})",
                step=n,
                time=n * dt,
            )
        reports.append(rep)
        cfl = max(cfl, cfl_scale * rep.linf)
        if n % stride == 0 or n == n_steps:
            snaps.append(u.copy())
            snap_steps.append(n)
        if n == n_steps:
            break

        g = None
        if noisy:
            incr = path[n]
            digest.update(incr.tobytes())
        if kind is SystemKind.LINEARIZED_CLT:
            u0n = base_snaps[n]
            lap_u0 = lap_values(u0n, h)
            rhs = params.gamma * (cross_values(u, lap_u0) + cross_values(u0n, lap_u))
            if params.nu2 != 0.0:
                rhs -= params.nu2 * u
                if params.mu != 0.0:
                    dot = np.einsum("ij,ij->i", u0n, u)
                    rhs -= (params.nu2 * params.mu) * (
                        2.0 * dot[:, None] * u0n + sq_norm_values(u0n)[:, None] * u
                    )
            out = u + dt * rhs
            forcing = mode_mat @ incr
            if forcing.any():
                out = out + cross_values(u0n, forcing)
            u = helm_values(out, h, c)
        else:
            if noisy and sqrt_eps != 0.0:
                g = sqrt_eps * (mode_mat @ incr)
            if ctrl_coeffs is not None:
                cf = dt * (mode_mat @ ctrl_coeffs[n])
                g = cf if g is None else g + cf
            u = _step_values(u, lap_u, params, dt, c, g, h)
        if not np.isfinite(u).all():
            raise BlowUpError(
                f"non-finite state (explicit-term ratio {cfl:.3g})",
                step=n + 1,
                time=(n + 1) * dt,
            )

    return TrajectoryRecord(
        kind=kind.value,
        params=params,
        grid=grid,
        times=tgrid.times,
        reports=tuple(reports),
        snapshots=np.array(snaps),
        snapshot_steps=np.array(snap_steps),
        seed_info=seed_info,
        noise_digest=digest.hexdigest() if digest is not None else None,
        explicit_cfl=cfl,
    )


def skeleton_adjoint(
    record: TrajectoryRecord,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    ctrl: ControlPath,
    terminal: np.ndarray,
) -> np.ndarray:
    """Exact control sensitivities of a terminal functional of the skeleton.

    ``record`` is the dense skeleton run under ``ctrl`` and ``terminal`` the
    derivative of a functional Phi(u_N) with respect to the final state. One
    backward sweep of the transposed step map (the discrete adjoint) returns
    the (steps, K, 3) array of dPhi/dc_n, the derivative with respect to the
    control coefficients of every step, exact to rounding for the discrete
    scheme.
    """
    if record.kind != SystemKind.SKELETON.value:
        raise ValueError(f"adjoint sweep needs a skeleton record, got {record.kind}")
    if record.steps != tgrid.steps or not record.dense:
        raise ValueError("adjoint sweep needs a record storing every step of the time grid")
    if ctrl.coefficients.shape != (tgrid.steps, spec.mode_count, 3):
        raise ValueError(f"control shape {ctrl.coefficients.shape} does not match the run")
    params = record.params
    h = record.grid.spacing
    dt = tgrid.dt
    c = dt * params.nu1
    mode_mat = mode_matrix(spec, record.grid)
    sens = np.empty_like(ctrl.coefficients)
    lam = np.asarray(terminal, dtype=float)
    for n in range(tgrid.steps - 1, -1, -1):
        u = record.snapshots[n]
        g = dt * (mode_mat @ ctrl.coefficients[n])
        lam, mu = _step_transpose_values(lam, u, lap_values(u, h), params, dt, c, g, h)
        sens[n] = dt * (mode_mat.T @ cross_values(mu, u))
    return sens


def write_report_csv(record: TrajectoryRecord, path) -> None:
    """Per-step energy reports as CSV (step, time, l2, h1_semi, h2_semi, linf)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "l2", "h1_semi", "h2_semi", "linf"])
        for n, rep in enumerate(record.reports):
            writer.writerow(
                [n, repr(rep.time), repr(rep.l2), repr(rep.h1_semi), repr(rep.h2_semi), repr(rep.linf)]
            )


def write_fields_csv(record: TrajectoryRecord, path) -> None:
    """Stored snapshots as CSV (step, node_index, ux, uy, uz)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "node_index", "ux", "uy", "uz"])
        for i, step_idx in enumerate(record.snapshot_steps):
            for node in range(record.grid.n_interior):
                v = record.snapshots[i, node]
                writer.writerow(
                    [int(step_idx), node, repr(float(v[0])), repr(float(v[1])), repr(float(v[2]))]
                )
