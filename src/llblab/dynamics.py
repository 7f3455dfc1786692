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

Every run goes through one step loop (``_march``), and every run is a batch:
``integrate_batch`` marches a node-major batch (n, 3, M) of M sample columns,
of one system or of several systems in lockstep, and hands each step to an
observer instead of storing it; ``integrate`` is its width-1 case and stores
the snapshots it is asked for. The step kernels treat every column of a batch
as they treat that column alone, so a column's states have the same bits at
any batch width, and a column that blows up is retired at the step where it
would blow up alone while the others go on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .field import (
    Grid1D,
    VectorField,
    cross_values,
    dot_values,
    helm_values,
    lap_values,
    sq_norm_values,
    stack_norms,
)
from .noise import ControlPath, CovarianceSpec, IncrementStreams, mode_matrix

__all__ = [
    "ModelParams",
    "TimeGrid",
    "SystemKind",
    "TrajectoryRecord",
    "BlowUpError",
    "initial_profile",
    "integrate",
    "integrate_batch",
    "skeleton_adjoint",
    "write_report_csv",
    "write_fields_csv",
]

DEFAULT_LINF_CEILING = 1.0e3
MAX_DENSE_SNAPSHOTS = 10_000
# Sample columns the ensemble experiments march at a time: wider batches stop
# paying once a step's arrays outgrow the cache, and the cap bounds memory
# whatever the sample count.
BATCH_COLUMNS = 64


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
    """Raised when the state leaves the finite / bounded regime.

    ``key`` is the counter-based stream key (seed, epsilon index, sample) of a
    noisy sample, so the failure can be replayed on its own; None for a run
    without one.
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        time: float | None = None,
        key: tuple | None = None,
    ):
        self.step = step
        self.time = time
        self.key = key
        where = f" at step {step}" if step is not None else ""
        when = f", t = {time:.6g}" if time is not None else ""
        super().__init__(f"{message}{where}{when}")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Immutable result of one integration.

    ``snapshots`` holds the state at the steps listed in ``snapshot_steps``
    (every step by default at desk scale, strided for very long runs);
    ``field.stack_norms`` gives their norms.
    """

    kind: str
    params: ModelParams
    grid: Grid1D
    times: np.ndarray
    snapshots: np.ndarray
    snapshot_steps: np.ndarray
    seed_info: tuple | None = None
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


def _drift_values(
    v: np.ndarray, lap_v: np.ndarray, sq_v: np.ndarray, params: ModelParams
) -> np.ndarray | None:
    """Explicit drift gamma u x Lap u - nu2 (1+mu|u|^2) u, given the pointwise
    squared norms ``sq_v`` of ``v``; None when identically zero."""
    rhs = None
    if params.gamma != 0.0:
        rhs = params.gamma * cross_values(v, lap_v)
    if params.nu2 != 0.0:
        damp = (params.nu2 * (1.0 + params.mu * sq_v))[:, None] * v
        rhs = -damp if rhs is None else rhs - damp
    return rhs


def _step_values(
    v: np.ndarray,
    lap_v: np.ndarray,
    sq_v: np.ndarray,
    params: ModelParams,
    dt: float,
    c: float,
    g: np.ndarray | None,
    h: float,
) -> np.ndarray:
    """One semi-implicit step of the nonlinear systems (module docstring), with the
    forcing field ``g`` = sqrt(eps) dB + dt h and ``c`` = dt * nu1 (0 skips the solve)."""
    rhs = _drift_values(v, lap_v, sq_v, params)
    out = v + dt * rhs if rhs is not None else v
    if g is not None and g.any():
        out = out + cross_values(v, g)
    return helm_values(out, h, c)


def _linear_step_values(
    v: np.ndarray,
    lap_v: np.ndarray,
    base: np.ndarray,
    lap_base: np.ndarray,
    params: ModelParams,
    dt: float,
    c: float,
    forcing: np.ndarray | None,
    h: float,
) -> np.ndarray:
    """One step of the linear deviation system: the derivative of ``_step_values``
    at eps = 0 along the base state ``base`` (n, 3, 1), driven by the noise field
    ``forcing``."""
    rhs = params.gamma * (cross_values(v, lap_base) + cross_values(base, lap_v))
    if params.nu2 != 0.0:
        rhs -= params.nu2 * v
        if params.mu != 0.0:
            dot = dot_values(base, v)
            rhs -= (params.nu2 * params.mu) * (
                2.0 * dot[:, None] * base + sq_norm_values(base)[:, None] * v
            )
    out = v + dt * rhs
    if forcing is not None and forcing.any():
        out = out + cross_values(base, forcing)
    return helm_values(out, h, c)


def _stepper(kind, params, dt, c, h, mode_mat, ctrl_coeffs, base_snaps):
    """The step map of ``kind`` as ``step(n, u, lap_u, sq_u, forcing, sqrt_eps)``.

    ``u`` is an (n, 3, M) batch, ``lap_u`` its Laplacian and ``sq_u`` its
    pointwise squared norms, ``forcing`` the noise field of step n in the
    same layout (None for the noiseless kinds) and ``sqrt_eps`` the (M,)
    noise strengths of the columns, or None when they are all zero.
    """

    def step(n, u, lap_u, sq_u, forcing, sqrt_eps):
        if kind is SystemKind.LINEARIZED_CLT:
            base = base_snaps[n][..., None]
            return _linear_step_values(
                u, lap_u, base, lap_values(base, h), params, dt, c, forcing, h
            )
        g = None
        if forcing is not None and sqrt_eps is not None:
            g = sqrt_eps * forcing
        if ctrl_coeffs is not None:
            cf = dt * (mode_mat @ ctrl_coeffs[n])[..., None]
            g = cf if g is None else g + cf
        return _step_values(u, lap_u, sq_u, params, dt, c, g, h)

    return step


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


def _check_inputs(
    kinds,
    grid: Grid1D,
    tgrid: TimeGrid,
    spec: CovarianceSpec | None,
    ctrl: ControlPath | None,
    base: TrajectoryRecord | None,
) -> None:
    """Raise ValueError when one of ``kinds`` lacks an input it needs, an input
    does not fit the run, or no kind uses it: a control drives only the
    controlled kinds and a base only the linearized one."""
    n_steps = tgrid.steps
    names = ", ".join(kind.value for kind in kinds)
    if ctrl is not None and not any(kind in _CONTROLLED_KINDS for kind in kinds):
        raise ValueError(f"{names} integration takes no control path")
    if base is not None and SystemKind.LINEARIZED_CLT not in kinds:
        raise ValueError(f"{names} integration takes no base trajectory")
    for kind in kinds:
        if kind in _NOISY_KINDS + _CONTROLLED_KINDS and spec is None:
            raise ValueError(f"{kind.value} integration requires a covariance spec")
        if kind in _CONTROLLED_KINDS and ctrl is None:
            raise ValueError(f"{kind.value} integration requires a control path")
        if kind is SystemKind.LINEARIZED_CLT and base is None:
            raise ValueError("linearized deviation system requires a base trajectory")
    if ctrl is not None:
        if ctrl.steps != n_steps:
            raise ValueError(f"control has {ctrl.steps} steps, time grid has {n_steps}")
        if ctrl.mode_count != spec.mode_count:
            raise ValueError(
                f"control has {ctrl.mode_count} modes, covariance has {spec.mode_count}"
            )
        if not math.isclose(ctrl.dt, tgrid.dt, rel_tol=1e-12):
            raise ValueError(f"control dt {ctrl.dt} does not match time grid dt {tgrid.dt}")
    if base is not None:
        if base.grid != grid:
            raise ValueError("base trajectory grid does not match")
        if base.steps != n_steps or not base.dense or not np.array_equal(base.times, tgrid.times):
            raise ValueError("base trajectory must store every step of the same time grid")


def _march(states, advance, observe, retire, n_steps, cfl_scale, h, linf_ceiling):
    """The step loop of every run.

    ``states`` holds one (n, 3, M) batch per system marching in lockstep;
    column j is sample j in every system. At each step n = 0..n_steps every
    column is checked first: a column whose |u|_inf in any system is not
    finite or exceeds ``linf_ceiling`` fails at n and is dropped from all
    systems, and ``retire(keep)`` learns which columns stay. Then
    ``observe(n, states, live)`` sees the step, ``live`` holding the indices in
    the initial batch of the columns still running, and unless it was the
    last, ``advance(n, states, laps, sqs)`` returns the states of step n + 1
    from those of step n, their Laplacians and pointwise squared norms.

    Returns ``(failures, cfl)``: ``(column, step, message)`` for every failed
    column by its index in the initial batch, and the largest explicit-term
    ratio of each column that ran to the end.
    """
    peak = np.zeros(states[0].shape[2])
    live = np.arange(peak.size)
    failures = []
    for n in range(n_steps + 1):
        laps = [lap_values(u, h) for u in states]
        sqs = [sq_norm_values(u) for u in states]
        sq = sqs[0].max(axis=0)
        for node_sq in sqs[1:]:
            sq = np.maximum(sq, node_sq.max(axis=0))
        linf = np.sqrt(sq)
        ok = linf <= linf_ceiling
        if not ok.all():
            for j in np.flatnonzero(~ok):
                if all(np.isfinite(u[..., j]).all() for u in states):
                    what = f"|u|_inf = {linf[j]:.3g} exceeded ceiling {linf_ceiling:.3g}"
                else:
                    what = "non-finite state"
                ratio = cfl_scale * peak[j]
                failures.append((int(live[j]), n, f"{what} (explicit-term ratio {ratio:.3g})"))
            states = [u[..., ok] for u in states]
            laps = [lap[..., ok] for lap in laps]
            sqs = [node_sq[:, ok] for node_sq in sqs]
            linf, peak, live = linf[ok], peak[ok], live[ok]
            if not ok.any():
                break
            retire(ok)
        # the ratio grows with |u|_inf, so its maximum is that of the largest |u|_inf
        peak = np.maximum(peak, linf)
        observe(n, states, live)
        if n == n_steps:
            break
        states = advance(n, states, laps, sqs)
    return failures, cfl_scale * peak


def integrate(
    kind: SystemKind,
    u0_field: VectorField,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec | None = None,
    ctrl: ControlPath | None = None,
    base: TrajectoryRecord | None = None,
    rng: np.random.Generator | None = None,
    seed_info: tuple | None = None,
    stride: int | None = None,
    linf_ceiling: float = DEFAULT_LINF_CEILING,
    diffusion_off: bool = False,
) -> TrajectoryRecord:
    """Integrate one of the five systems and record its snapshots.

    The width-1 case of ``integrate_batch``: a noisy kind draws its increments
    from ``rng`` and runs at ``params.epsilon``; deterministic and skeleton
    runs consume no randomness. The state is stored every ``stride`` steps
    and at the last step. Raises BlowUpError with the offending step (and
    ``seed_info`` as its stream key) when the state leaves the finite/bounded
    regime. ``diffusion_off`` is a test hook that skips the implicit solve, so
    the remaining terms can be checked against pointwise ODE/precession
    oracles.
    """
    n_steps = tgrid.steps
    stride = _default_stride(n_steps) if stride is None else int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if kind in _NOISY_KINDS and rng is None:
        raise ValueError(f"{kind.value} integration needs an rng")
    noise = None
    if kind in _NOISY_KINDS and spec is not None:
        noise = IncrementStreams([rng], n_steps, spec.mode_count, tgrid.dt)
    snap_steps = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
    snaps = np.empty((len(snap_steps),) + u0_field.values.shape)

    def observe(n, states, live):
        if n % stride == 0 or n == n_steps:
            snaps[-(-n // stride)] = states[0][..., 0]

    failures, cfl = integrate_batch(
        (kind,), u0_field.grid, (u0_field.values[..., None],), params, tgrid, observe,
        spec=spec, ctrl=ctrl, base=base, noise=noise, epsilons=(params.epsilon,),
        keys=(seed_info,), linf_ceiling=linf_ceiling, diffusion_off=diffusion_off,
    )
    if failures:
        raise failures[0]
    return TrajectoryRecord(
        kind=kind.value,
        params=params,
        grid=u0_field.grid,
        times=tgrid.times,
        snapshots=snaps,
        snapshot_steps=snap_steps,
        seed_info=seed_info,
        explicit_cfl=cfl,
    )


def integrate_batch(
    kinds,
    grid: Grid1D,
    initial,
    params: ModelParams,
    tgrid: TimeGrid,
    observe,
    spec: CovarianceSpec | None = None,
    ctrl: ControlPath | None = None,
    base: TrajectoryRecord | None = None,
    noise: IncrementStreams | None = None,
    epsilons=None,
    keys=None,
    linf_ceiling: float = DEFAULT_LINF_CEILING,
    diffusion_off: bool = False,
) -> tuple[list[BlowUpError], float]:
    """March M sample columns of one or more systems in lockstep, storing nothing.

    ``kinds`` names the systems and ``initial`` gives each its (n, 3, M)
    initial batch, in the same order; column j of every system is sample j.
    The systems share ``params`` except the noise strength: column j of a
    noisy nonlinear kind runs at ``epsilons[j]`` (``params.epsilon`` is not
    used). Noisy kinds read step n's increments from ``noise``, one stream per
    column, and every system of a step sees the same ones, so coupled systems
    share their noise by construction. ``ctrl`` drives only the controlled
    kinds and ``base`` only the linearized one. ``observe(n, states, live)``
    sees every step n = 0..steps: one (n, 3, M') array per kind, holding the
    columns ``live`` (indices into the initial batch) that are still running.
    Memory grows with the batch width, not with the number of steps.

    Every column's states have the bits of its own width-1 run. A column that
    blows up in any system (a state that is not finite or whose |u|_inf
    exceeds ``linf_ceiling``) is retired at that step and the others go on.
    Returns ``(failures, explicit_cfl)``: one BlowUpError per retired column,
    with its step and ``keys[j]``, in the order of retirement, and the largest
    explicit-term ratio dt |gamma| |u|_inf / h^2 seen by a column that ran to
    the end (0.0 when none did). ``diffusion_off`` skips the implicit solve.
    """
    kinds = tuple(kinds)
    states = tuple(np.asarray(u, dtype=float) for u in initial)
    width = states[0].shape[2] if states[0].ndim == 3 else 0
    shapes = [u.shape for u in states]
    if width < 1 or len(states) != len(kinds) or any(
        shape != (grid.n_interior, 3, width) for shape in shapes
    ):
        raise ValueError(
            f"need one initial batch of shape (n_interior, 3, M), M >= 1, per kind, "
            f"got {shapes} for {len(kinds)} kinds"
        )
    n_steps = tgrid.steps
    dt = tgrid.dt
    h = grid.spacing
    c = 0.0 if diffusion_off else dt * params.nu1
    _check_inputs(kinds, grid, tgrid, spec, ctrl, base)
    for kind, u in zip(kinds, states):
        if kind is SystemKind.LINEARIZED_CLT and np.any(u):
            raise ValueError("linearized deviation system starts from zero initial data")
    noisy = [kind in _NOISY_KINDS for kind in kinds]
    if any(noisy) and (
        noise is None
        or (noise.width, noise.steps, noise.mode_count) != (width, n_steps, spec.mode_count)
    ):
        raise ValueError(
            f"noisy kinds need increment streams of {n_steps} steps and {spec.mode_count} "
            f"modes for all {width} columns"
        )
    eps = np.zeros(width) if epsilons is None else np.asarray(epsilons, dtype=float)
    if eps.shape != (width,) or not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError(f"need {width} epsilons in [0, 1], got {epsilons}")
    sqrt_eps = np.sqrt(eps)
    strength = sqrt_eps if sqrt_eps.any() else None
    keys = list(keys) if keys is not None else [None] * width
    mode_mat = mode_matrix(spec, grid) if spec is not None else None
    steps = [
        _stepper(
            kind, params, dt, c, h, mode_mat,
            ctrl.coefficients if kind in _CONTROLLED_KINDS else None,
            base.snapshots if kind is SystemKind.LINEARIZED_CLT else None,
        )
        for kind in kinds
    ]

    def advance(n, states, laps, sqs):
        forcing = None
        if any(noisy):
            forcing = np.matmul(mode_mat, noise.at(n)).transpose(1, 2, 0)
        return [
            step(n, u, lap, sq, forcing if is_noisy else None, strength)
            for step, u, lap, sq, is_noisy in zip(steps, states, laps, sqs, noisy)
        ]

    def retire(keep):
        nonlocal sqrt_eps, strength
        sqrt_eps = sqrt_eps[keep]
        strength = sqrt_eps if sqrt_eps.any() else None
        if noise is not None:
            noise.keep(keep)

    failures, cfl = _march(
        states, advance, observe, retire, n_steps, dt * abs(params.gamma) / (h * h), h,
        linf_ceiling,
    )
    failures = [
        BlowUpError(message, step=at, time=at * dt, key=keys[column])
        for column, at, message in failures
    ]
    return failures, float(np.max(cfl, initial=0.0))


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
    """Norms of the stored snapshots as CSV (step, time, l2, h1_semi, h2_semi, linf)."""
    rows = stack_norms(record.snapshots, record.grid.spacing).tolist()
    times = record.times.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "l2", "h1_semi", "h2_semi", "linf"])
        for n, row in zip(record.snapshot_steps.tolist(), rows):
            writer.writerow([n, repr(times[n]), *map(repr, row)])


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
