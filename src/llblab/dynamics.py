"""Semi-implicit time stepping for the Landau-Lifshitz-Bloch systems.

One Euler-Maruyama step treats the stiff diffusion implicitly (a single
tridiagonal LDL^T solve per step) and everything else explicitly:

    u+ = (I - dt*nu1*Lap)^{-1} [ u - dt nu2 (1+mu|u|^2) u
                                   + u x (dt gamma Lap u + sqrt(eps) dB + dt h) ]

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

Every run goes through one step loop, that of ``integrate_batch``, and every
run is a batch: it marches a node-major batch (n, 3, M) of M sample columns,
of one system or of several systems in lockstep, and hands each step to an
observer instead of storing it; ``integrate`` is its width-1 case and stores
the snapshots it is asked for. The step kernels treat every column of a batch
as they treat that column alone, so a column's states have the same bits at
any batch width, and a column that blows up is retired at the step where it
would blow up alone while the others go on.

The loop holds one workspace per batch in the memory order of the
tridiagonal solve, (3, S*M, n) for S systems of M columns: every component of
every column is one contiguous n-vector, while the arrays keep their logical
node-major (n, 3, M) indexing. The systems share one stacked state, so a step
takes one Laplacian, one set of squared norms, one ceiling check and one solve
for all of them; each system writes the right-hand side of its step into its
slice of a second state buffer, which LAPACK solves in place before the two
swap. Every array of the batch's shape that a step writes is a workspace
buffer, allocated once per batch: a batch keeps its width to the end, and a
retired column stays in it, zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .field import (
    STACK_CHUNK,
    Grid1D,
    VectorField,
    cross_values,
    csv_rows,
    dot_values,
    helm_values,
    lap_values,
    solver_empty,
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

LINF_CEILING = 1.0e3
# Sample columns the ensemble experiments march at a time: wider batches stop
# paying once a step's arrays outgrow the cache, and the cap bounds memory
# whatever the sample count.
BATCH_COLUMNS = 64


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the model, shared by every system. The noise strength
    is not one of them: it is the ``epsilon`` of ``integrate``, or one per
    column of ``integrate_batch``, so one set of coefficients serves the whole
    family u_eps."""

    nu1: float = 1.0
    nu2: float = 1.0
    gamma: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if self.nu1 <= 0.0:
            raise ValueError(f"nu1 must be positive, got {self.nu1}")
        if self.nu2 < 0.0:
            raise ValueError(f"nu2 must be nonnegative, got {self.nu2}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")


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
    without one. ``linf`` is the |u|_inf of the failing step (inf or nan only
    once the state itself overflows) and ``ratio`` the largest
    explicit-term ratio dt |gamma| |u|_inf / h^2 of the steps before it.
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        time: float | None = None,
        key: tuple | None = None,
        linf: float | None = None,
        ratio: float | None = None,
    ):
        self.step = step
        self.time = time
        self.key = key
        self.linf = linf
        self.ratio = ratio
        where = f" at step {step}" if step is not None else ""
        when = f", t = {time:.6g}" if time is not None else ""
        super().__init__(f"{message}{where}{when}")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Immutable result of one integration.

    ``snapshots`` holds the state at the steps listed in ``snapshot_steps``
    (every step by default); ``norm_rows`` gives their norms.
    """

    kind: str
    params: ModelParams
    grid: Grid1D
    times: np.ndarray
    snapshots: np.ndarray
    snapshot_steps: np.ndarray
    explicit_cfl: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def dense(self) -> bool:
        return len(self.snapshot_steps) == len(self.times)

    @cached_property
    def norm_rows(self) -> np.ndarray:
        """``field.stack_norms`` of the snapshots, (l2, h1_semi, h2_semi, linf)
        per row; computed once, on first use."""
        return stack_norms(self.snapshots, self.grid.spacing)

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


def _drive(lap_v: np.ndarray, params: ModelParams, dt: float, g: np.ndarray | None):
    """dt gamma Lap u + g, the field the state is crossed with, written over the
    Laplacian ``lap_v``; None when it is identically zero. A zero ``g`` is
    skipped, so a run without noise or control takes the noiseless path bit for
    bit."""
    if g is not None and not g.any():
        g = None
    if params.gamma != 0.0:
        lap_v *= dt * params.gamma
        if g is not None:
            lap_v += g
    elif g is None:
        return None
    else:
        np.copyto(lap_v, g)
    return lap_v


def _rhs_values(
    v: np.ndarray,
    lap_v: np.ndarray,
    sq_v: np.ndarray,
    params: ModelParams,
    dt: float,
    g: np.ndarray | None,
    out: np.ndarray,
) -> np.ndarray:
    """Right-hand side of one semi-implicit step of the nonlinear systems (module
    docstring), v + v x (dt gamma Lap v + g) - dt nu2 (1 + mu |v|^2) v, written
    into ``out`` and returned; the step is its solve.

    ``g`` = sqrt(eps) dB + dt h is the forcing, None when absent; it may be
    ``out`` itself. The Laplacian ``lap_v`` and the pointwise squared norms
    ``sq_v`` of ``v`` are overwritten, and take the step's intermediate terms.
    """
    drive = _drive(lap_v, params, dt, g)
    if drive is None:
        np.copyto(out, v)
    else:
        np.add(v, cross_values(v, drive, out=out), out=out)
    if params.nu2 != 0.0:
        coef = np.multiply(params.mu, sq_v, out=sq_v)
        coef += 1.0
        coef *= dt * params.nu2
        out -= np.multiply(coef[:, None], v, out=lap_v)
    return out


def _linear_rhs_values(
    v: np.ndarray,
    lap_v: np.ndarray,
    sq_v: np.ndarray,
    base: tuple,
    params: ModelParams,
    dt: float,
    forcing: np.ndarray | None,
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Right-hand side of one step of the linear deviation system, written into
    ``out``: the derivative of the nonlinear step at eps = 0 along the base state
    b, driven by the noise field ``forcing``,

        v + v x (dt gamma Lap b) + b x (dt gamma Lap v + forcing)
          - dt nu2 (1 + mu |b|^2) v - 2 dt nu2 mu (b.v) b.

    ``base`` is (b, dt gamma Lap b, dt nu2 (1 + mu |b|^2)), the first two of
    the shape of ``v`` or broadcasting to it, the last (n, 1). ``lap_v``,
    ``sq_v`` and ``work`` (the shape of ``v``) are overwritten.
    """
    b, base_drive, base_coef = base
    np.add(v, cross_values(v, base_drive, out=out), out=out)
    drive = _drive(lap_v, params, dt, forcing)
    if drive is not None:
        out += cross_values(b, drive, out=work)
    if params.nu2 != 0.0:
        out -= np.multiply(base_coef[:, None], v, out=work)
        if params.mu != 0.0:
            dot = dot_values(b, v, out=sq_v, work=work)
            dot *= 2.0 * dt * params.nu2 * params.mu
            out -= np.multiply(dot[:, None], b, out=work)
    return out


def _base_terms(snaps: np.ndarray, params: ModelParams, dt: float, h: float, width: int):
    """``base_terms(n)``: the (b, dt gamma Lap b, dt nu2 (1 + mu |b|^2)) of base
    snapshot n for ``_linear_rhs_values``, the first two repeated over ``width``
    columns. The Laplacians and norms are taken for ``STACK_CHUNK`` snapshots at
    a time, as node-major stack operations with the bits of the per-snapshot
    ones, so memory holds one chunk."""
    chunk = {}
    # one pair of chunk buffers for the run; the last chunk may use part of them
    size = min(STACK_CHUNK, len(snaps))
    nodes = snaps.shape[1]
    chunk_drive, chunk_coef = solver_empty((nodes, 3, size)), solver_empty((nodes, size))
    # b and its drive copied across the batch: products of full arrays are
    # cheaper than products that broadcast a column over it
    b, b_drive = solver_empty((nodes, 3, width)), solver_empty((nodes, 3, width))

    def base_terms(n):
        first = n - n % STACK_CHUNK
        if chunk.get("first") != first:
            # in place, with the operations of dt*gamma * Lap b and dt*nu2 * (1 + mu |b|^2)
            stack = np.moveaxis(snaps[first:first + STACK_CHUNK], 0, -1)
            count = stack.shape[2]
            drive = chunk_drive[..., :count]
            coef = chunk_coef[:, :count]
            sq_norm_values(stack, out=coef, work=drive)
            coef *= params.mu
            coef += 1.0
            coef *= dt * params.nu2
            lap_values(stack, h, out=drive)
            drive *= dt * params.gamma
            chunk.update(first=first, drive=drive, coef=coef)
        k = n - first
        np.copyto(b, snaps[n][..., None])
        np.copyto(b_drive, chunk["drive"][..., k:k + 1])
        return b, b_drive, chunk["coef"][:, k:k + 1]

    return base_terms


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
    """Transpose of the tangent of the nonlinear step (``_rhs_values`` and its
    solve) at ``v``, applied to ``lam``.

    Returns ``(lam_prev, mu)`` with ``mu = (I - c*Lap)^{-1} lam``; the Helmholtz
    matrix is symmetric, so the same solve is its own transpose. The precession
    and forcing terms are (dt gamma Lap v + g) x mu + dt gamma Lap(mu x v).
    """
    mu = helm_values(lam, h, c)
    out = mu
    drive = _drive(lap_v, params, dt, g)
    if drive is not None:
        out = out + cross_values(drive, mu)
    if params.gamma != 0.0:
        out = out + (dt * params.gamma) * lap_values(cross_values(mu, v), h)
    if params.nu2 != 0.0:
        out = out - (dt * params.nu2 * (1.0 + params.mu * sq_norm_values(v)))[:, None] * mu
        if params.mu != 0.0:
            dot = np.einsum("ij,ij->i", v, mu)
            out = out - (2.0 * dt * params.nu2 * params.mu) * dot[:, None] * v
    return out, mu


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


def integrate(
    kind: SystemKind,
    u0_field: VectorField,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec | None = None,
    ctrl: ControlPath | None = None,
    base: TrajectoryRecord | None = None,
    rng: np.random.Generator | None = None,
    epsilon: float = 0.0,
    seed_info: tuple | None = None,
    stride: int = 1,
    diffusion_off: bool = False,
) -> TrajectoryRecord:
    """Integrate one of the five systems and record its snapshots.

    The width-1 case of ``integrate_batch``: a noisy kind draws its increments
    from ``rng`` and runs at noise strength ``epsilon`` in [0, 1] (the
    linearized system takes its noise at unit strength); deterministic and
    skeleton runs consume no randomness. The state is stored every ``stride``
    steps and at the last step. Raises BlowUpError with the offending step
    (and ``seed_info`` as its stream key) when the state leaves the
    finite/bounded regime. ``diffusion_off`` is a test hook that skips the
    implicit solve, so the remaining terms can be checked against pointwise
    ODE/precession oracles.
    """
    n_steps = tgrid.steps
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if kind in _NOISY_KINDS and rng is None:
        raise ValueError(f"{kind.value} integration needs an rng")
    noise = None
    if kind in _NOISY_KINDS and spec is not None:
        noise = IncrementStreams([rng], n_steps, spec.mode_count, tgrid.dt)
    snap_steps = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
    snaps = np.empty((len(snap_steps),) + u0_field.values.shape)

    def observe(n, states):
        if n % stride == 0 or n == n_steps:
            snaps[-(-n // stride)] = states[0][..., 0]

    failures, cfl = integrate_batch(
        (kind,), u0_field.grid, (u0_field.values[..., None],), params, tgrid, observe,
        spec=spec, ctrl=ctrl, base=base, noise=noise, epsilons=(epsilon,),
        keys=(seed_info,), diffusion_off=diffusion_off,
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
    diffusion_off: bool = False,
) -> tuple[list[BlowUpError], float]:
    """March M sample columns of one or more systems in lockstep, storing nothing.

    ``kinds`` names the systems and ``initial`` gives each its (n, 3, M)
    initial batch, in the same order; column j of every system is sample j.
    The systems share ``params``; column j of a noisy nonlinear kind runs at
    noise strength ``epsilons[j]``. Noisy kinds read step n's increments from
    ``noise``, one stream per column, and every system of a step sees the same
    ones, so coupled systems share their noise by construction. ``ctrl``
    drives only the controlled kinds and ``base`` only the linearized one.
    ``observe(n, states)`` sees every step n = 0..steps: one (n, 3, M) array
    per kind. Memory grows with the batch width, not with the number of steps.

    The S systems share one state of S*M columns in the solver's memory order,
    system s in columns s*M to (s+1)*M - 1, and a second such buffer that the
    next state is written into before the two swap. At each step n every
    running column is checked first: a column whose |u|_inf in any system is
    not finite or exceeds ``LINF_CEILING`` fails at n and is retired: it keeps
    its column, zeroed in every system and with noise strength 0, and is
    stepped on with the others. u = 0 is a fixed point of every nonlinear kind
    and the linear system stays finite, so no NaN reaches an observer, which
    drops the column's values through the failure list. Then ``observe`` sees
    the step. Its arrays are views into the workspace, valid only during the
    call: the loop writes the next states into the same memory, so an
    observer copies what it keeps. Unless it was the last step, one Laplacian
    of all systems, one matmul of the step's increments and one control term
    feed each system's right-hand side, and one in-place solve of
    (I - dt nu1 Lap) for all systems gives the states of step n + 1. The
    march stops early only when every column has retired.

    Every running column's states have the bits of its own width-1 run.
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
    base_terms = _base_terms(base.snapshots, params, dt, h, width) if base is not None else None
    cfl_scale = dt * abs(params.gamma) / (h * h)
    systems = len(kinds)
    shape = (grid.n_interior, 3, systems * width)
    state, nxt, lap = solver_empty(shape), solver_empty(shape), solver_empty(shape)
    sq = solver_empty((shape[0], shape[2]))
    for s, u in enumerate(states):
        state[..., s * width:(s + 1) * width] = u
    # the control term dt * (mode_mat @ c_n) of a step, in the solver's order
    cf = None if ctrl is None else solver_empty((shape[0], 3, 1))
    # a noisy step's matmul of all columns' increments (M, n, 3), copied into the solver's order
    product = np.empty((width, shape[0], 3))
    forcing = solver_empty((shape[0], 3, width)) if any(noisy) else None
    tmp = solver_empty((shape[0], 3, width))
    peak = np.zeros(width)
    running = np.ones(width, dtype=bool)
    failures = []

    def split(a):
        return a, [a[..., s * width:(s + 1) * width] for s in range(systems)]

    # every buffer with its per-system views
    state, nxt, lap, sq = map(split, (state, nxt, lap, sq))
    with np.errstate(over="ignore", invalid="ignore"):
        # a blow-up is found and reported by the ceiling check, not by numpy warnings
        for n in range(n_steps + 1):
            sq_norm_values(state[0], out=sq[0], work=lap[0])
            top = sq[0].max(axis=0)
            if systems > 1:
                top = top.reshape(systems, width).max(axis=0)
            linf = np.sqrt(top)
            failed = running & ~(linf <= LINF_CEILING)
            if failed.any():
                for j in np.flatnonzero(failed):
                    column = state[0][..., j::width]
                    if np.isfinite(column).all():
                        # squares of components above about 1.3e154 overflow:
                        # take them relative to the largest magnitude
                        big = np.abs(column).max()
                        linf[j] = big * np.sqrt(sq_norm_values(column / big).max())
                        what = f"|u|_inf = {linf[j]:.3g} exceeded ceiling {LINF_CEILING:.3g}"
                    else:
                        what = "non-finite state"
                    ratio = float(cfl_scale * peak[j])
                    failures.append(BlowUpError(
                        f"{what} (explicit-term ratio {ratio:.3g})",
                        step=n, time=n * dt, key=keys[j], linf=float(linf[j]), ratio=ratio,
                    ))
                    column[...] = 0.0
                running &= ~failed
                if not running.any():
                    break
                sqrt_eps[failed] = 0.0
                strength = sqrt_eps if sqrt_eps.any() else None
            # the ratio grows with |u|_inf, so its maximum is that of the largest |u|_inf
            peak = np.maximum(peak, linf)
            observe(n, state[1])
            if n == n_steps:
                break
            lap_values(state[0], h, out=lap[0])
            if forcing is not None:
                np.matmul(mode_mat, noise.at(n), out=product)
                np.copyto(forcing, product.transpose(1, 2, 0))
            if cf is not None:
                np.multiply(dt, (mode_mat @ ctrl.coefficients[n])[..., None], out=cf)
            for kind, is_noisy, u, lap_u, sq_u, out in zip(
                kinds, noisy, state[1], lap[1], sq[1], nxt[1]
            ):
                if kind is SystemKind.LINEARIZED_CLT:
                    _linear_rhs_values(
                        u, lap_u, sq_u, base_terms(n), params, dt, forcing, out, tmp
                    )
                    continue
                g = None
                if is_noisy and strength is not None:
                    g = np.multiply(strength, forcing, out=out)
                if kind in _CONTROLLED_KINDS:
                    g = cf if g is None else np.add(g, cf, out=g)
                _rhs_values(u, lap_u, sq_u, params, dt, g, out)
            helm_values(nxt[0], h, c, out=nxt[0])
            state, nxt = nxt, state
    return failures, float(np.max(cfl_scale * peak[running], initial=0.0))


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
    """Norms of the stored snapshots as CSV (step, time, l2, h1_semi, h2_semi, linf).

    Floats are spelled as ``repr`` spells them and rows end in CRLF
    (``field.csv_rows``).
    """
    steps = record.snapshot_steps
    values = np.column_stack([record.times[steps], record.norm_rows])
    with open(path, "wb") as fh:
        fh.write(b"step,time,l2,h1_semi,h2_semi,linf\r\n")
        fh.write(csv_rows(steps[:, None], values))


def write_fields_csv(record: TrajectoryRecord, path) -> None:
    """Stored snapshots as CSV (step, node_index, ux, uy, uz).

    Floats are spelled as ``repr`` spells them and rows end in CRLF
    (``field.csv_rows``). The rows are formatted 8 snapshots at a time, so no
    more than 8 snapshots are ever held as Python objects.
    """
    # more per call make more row lists at once and wake the garbage collector
    per_call = 8
    n = record.grid.n_interior
    steps = record.snapshot_steps
    lead = np.empty((per_call * n, 2), dtype=np.int64)
    lead[:, 1] = np.tile(np.arange(n), per_call)
    with open(path, "wb") as fh:
        fh.write(b"step,node_index,ux,uy,uz\r\n")
        for first in range(0, len(steps), per_call):
            chunk = record.snapshots[first:first + per_call]
            rows = len(chunk) * n
            lead[:rows, 0] = np.repeat(steps[first:first + per_call], n)
            fh.write(csv_rows(lead[:rows], chunk.reshape(rows, 3)))
