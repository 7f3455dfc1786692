"""Semi-implicit time stepping for the Landau-Lifshitz-Bloch systems.

One Euler-Maruyama step treats the stiff diffusion implicitly (a single
tridiagonal LDL^T solve per step) and everything else explicitly:

    u+ = (I - dt*nu1*Lap)^{-1} [ u - dt nu2 (1+mu|u|^2) u
                                   + u x (dt gamma Lap u + sqrt(eps) dB + dt h) ]

The same machinery drives the deterministic flow, the small-noise and
controlled stochastic flows, the deterministic skeleton, and the linear
deviation system obtained by differentiating the step map at eps = 0 along a
deterministic run of the same batch, whose step terms it reads as they are
made. The linear system is exactly that derivative, so coupled runs on a
shared noise path converge to each other at first order in eps by
construction. Its transpose, swept backward over a dense skeleton record, is
the discrete adjoint that gives exact control gradients of terminal
functionals; the sweep takes the base-state terms, those that do not depend
on the adjoint, one chunk of snapshots at a time.

Explicit treatment of the precession term imposes dt <~ h^2/(gamma |u|_inf)
in the worst case; the integrator tracks the observed ratio and reports it on
the trajectory record rather than failing eagerly (diffusion stabilizes the
default parameter regime well past the naive bound).

Every run goes through one step loop, that of ``integrate_batch``, and every
run is a batch: it marches a node-major batch (n, 3, M) of M sample columns,
of one system or of several systems in lockstep, each under its own control,
beside any shared columns, noiseless runs made once for the whole batch such
as an ensemble's reference, and hands each step to an observer instead of
storing it, so runs are compared while they march;
``integrate`` is its width-1 case for the noiseless kinds, deterministic and
skeleton, and stores the snapshots it is asked for. The CLI's deterministic
run marches the same width-1 batch and writes each block of snapshots as it
comes (``write_report_rows``, ``write_field_rows``), storing no record; the
record writers apply those block writers to a whole record. The step kernels
treat every column of a batch as they treat that column alone, so a column's
states have the same bits at any batch width, and a column that blows up is
retired at the step where it would blow up alone while the others go on.

The loop holds one workspace per batch in the memory order of the
tridiagonal solve, (3, S*M + R, n) for S systems of M columns and R shared
columns: every component of every column is one contiguous n-vector, while
the arrays keep their logical node-major (n, 3, M) indexing. The systems
share one stacked state, so a step takes one Laplacian, one set of squared
norms, one ceiling check and one solve for all of them; each system writes
the right-hand side of its step into its slice of a second state buffer,
which LAPACK solves in place before the two swap. Every array of the batch's
shape that a step writes is a workspace buffer, allocated once per batch: a
batch keeps its width to the end, and a retired column stays in it, zeroed.
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
    as_field,
    cross_values,
    csv_rows,
    dot_values,
    helm_values,
    lap_values,
    make_grid,
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
    "write_report_rows",
    "write_field_rows",
]

LINF_CEILING = 1.0e3
# Sample columns the ensemble experiments march at a time: wider batches stop
# paying once a step's arrays outgrow the cache, and the cap bounds memory
# whatever the sample count.
BATCH_COLUMNS = 64


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the model, shared by every system. The noise strength
    is not one of them: ``integrate_batch`` takes one per column, so one set of
    coefficients serves the whole family u_eps."""

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


def initial_profile(grid: Grid1D, a: float = 1.0, b: float = 0.5) -> np.ndarray:
    """Default initial state a sin(pi x) e1 + b sin(2 pi x) e2, an (n, 3) field."""
    x = grid.nodes
    vals = np.zeros((grid.n_interior, 3))
    vals[:, 0] = a * np.sin(math.pi * x)
    vals[:, 1] = b * np.sin(2.0 * math.pi * x)
    return vals


def _drive(lap_v: np.ndarray, params: ModelParams, dt: float, g: np.ndarray | None):
    """dt gamma Lap u + g, the field the state is crossed with, written over the
    Laplacian ``lap_v``; None when it is identically zero, and ``lap_v`` then
    holds dt gamma Lap u. A zero ``g`` is skipped, so a run without noise or
    control takes the noiseless path bit for bit."""
    if g is not None and not g.any():
        g = None
    lap_v *= dt * params.gamma
    if g is None:
        return lap_v if params.gamma != 0.0 else None
    if params.gamma != 0.0:
        lap_v += g
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
    work: np.ndarray,
) -> np.ndarray:
    """Right-hand side of one semi-implicit step of the nonlinear systems (module
    docstring), v + v x (dt gamma Lap v + g) - dt nu2 (1 + mu |v|^2) v, written
    into ``out`` and returned; the step is its solve.

    ``g`` = sqrt(eps) dB + dt h is the forcing, None when absent; it may be
    ``out`` itself. ``lap_v`` is left holding the drive and, if nu2 != 0, ``sq_v``
    dt nu2 (1 + mu |v|^2): the terms a linearized system reads of its reference.
    ``work``, the shape of ``v``, is overwritten.
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
        out -= np.multiply(coef[:, None], v, out=work)
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
    the shape of ``v`` or broadcasting to it, the last (n, M) or (n, 1).
    ``lap_v``, ``sq_v`` and ``work`` (the shape of ``v``) are overwritten.
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


def _stack_terms(
    stack: np.ndarray, params: ModelParams, dt: float, h: float, drive: np.ndarray, coef: np.ndarray
) -> None:
    """dt gamma Lap b and dt nu2 (1 + mu |b|^2) of every snapshot b of the
    node-major stack (n, 3, S), written into ``drive`` (n, 3, S) and ``coef``
    (n, S) with the operations, and so the bits, of the per-snapshot terms."""
    sq_norm_values(stack, out=coef, work=drive)
    coef *= params.mu
    coef += 1.0
    coef *= dt * params.nu2
    lap_values(stack, h, out=drive)
    drive *= dt * params.gamma


def _check_inputs(kinds, tgrid: TimeGrid, spec: CovarianceSpec | None, ctrls) -> None:
    """Raise ValueError when one of ``kinds`` lacks an input it needs, an input
    does not fit the run, or the kind does not use it. ``ctrls`` holds one entry
    per kind: a control path for a controlled kind, None for any other; a
    linearized kind needs a deterministic system to follow."""
    for kind, ctrl in zip(kinds, ctrls, strict=True):
        if kind in _NOISY_KINDS + _CONTROLLED_KINDS and spec is None:
            raise ValueError(f"{kind.value} integration requires a covariance spec")
        controlled = kind in _CONTROLLED_KINDS
        if controlled != (ctrl is not None):
            need = "requires a" if controlled else "takes no"
            raise ValueError(f"{kind.value} integration {need} control path")
        if kind is SystemKind.LINEARIZED_CLT and SystemKind.DETERMINISTIC not in kinds:
            raise ValueError("linearized system needs a deterministic reference in its batch")
        if ctrl is None:
            continue
        if ctrl.steps != tgrid.steps:
            raise ValueError(f"control has {ctrl.steps} steps, time grid has {tgrid.steps}")
        if ctrl.mode_count != spec.mode_count:
            raise ValueError(
                f"control has {ctrl.mode_count} modes, covariance has {spec.mode_count}"
            )
        if not math.isclose(ctrl.dt, tgrid.dt, rel_tol=1e-12):
            raise ValueError(f"control dt {ctrl.dt} does not match time grid dt {tgrid.dt}")


def integrate(
    kind: SystemKind,
    u0: np.ndarray,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec | None = None,
    ctrl: ControlPath | None = None,
    stride: int = 1,
) -> TrajectoryRecord:
    """Integrate one of the noiseless systems, deterministic or skeleton, from
    the (n, 3) field ``u0`` and record its snapshots.

    The width-1 case of ``integrate_batch``; the noisy kinds draw increments and
    run as batch columns there. The state is stored every ``stride`` steps and
    at the last step. Raises ValueError for a ``u0`` of another shape, and
    BlowUpError with the offending step when the state leaves the
    finite/bounded regime.
    """
    if kind in _NOISY_KINDS:
        raise ValueError(f"{kind.value} integration draws noise: run it with integrate_batch")
    u0 = as_field(u0)
    n_steps = tgrid.steps
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    snap_steps = np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps))
    snaps = np.empty((len(snap_steps),) + u0.shape)

    def observe(n, states):
        if n % stride == 0 or n == n_steps:
            snaps[-(-n // stride)] = states[0][..., 0]

    failures, cfl = integrate_batch(
        (kind,), (u0[..., None],), params, tgrid, observe, spec=spec, ctrl=(ctrl,)
    )
    if failures:
        raise failures[0]
    return TrajectoryRecord(
        kind=kind.value,
        params=params,
        grid=make_grid(len(u0)),
        times=tgrid.times,
        snapshots=snaps,
        snapshot_steps=snap_steps,
        explicit_cfl=cfl,
    )


def integrate_batch(
    kinds,
    initial,
    params: ModelParams,
    tgrid: TimeGrid,
    observe,
    spec: CovarianceSpec | None = None,
    ctrl=None,
    noise: IncrementStreams | None = None,
    epsilons=None,
    keys=None,
) -> tuple[list[BlowUpError], float]:
    """March M sample columns of one or more systems in lockstep, storing nothing.

    ``kinds`` names the systems and ``initial`` gives each, in the same order,
    its (n, 3, M) initial batch; column j of every such system is sample j, and
    n fixes the grid (``field.make_grid``). Shared columns come last, each
    given as an (n, 3) field: a noiseless system that runs once for the whole
    batch, such as an ensemble's reference. The systems share ``params``;
    column j of a noisy nonlinear kind runs at noise strength ``epsilons[j]``.
    Noisy kinds read step n's increments from ``noise``, one stream per column,
    and every system of a step sees the same ones, so coupled systems share
    their noise by construction. ``ctrl`` is None or gives each kind its own
    entry: a ControlPath for a controlled kind, None for any other. A
    linearized system is linearized about the first deterministic system, whose
    step terms it reads in the same step. ``observe(n, states)`` sees every
    step n = 0..steps: one (n, 3, M) array per kind, (n, 3, 1) for a shared
    one. Memory grows with the batch width, not with the number of steps.

    The systems share one state in the solver's memory order, system by
    system, and a second such buffer that the next state is written into
    before the two swap. At each step n every running column is checked
    first: a sample column whose |u|_inf in any system is not finite or
    exceeds ``LINF_CEILING`` fails at n and is retired: it keeps its column,
    zeroed in every system and with noise strength 0, and is stepped on with
    the others. u = 0 is a fixed point of every nonlinear kind and the linear
    system stays finite, so no NaN reaches an observer, which drops the
    column's values through the failure list. A shared column that fails
    ends the march with its BlowUpError, key None, raised: every sample
    depends on it. Then ``observe`` sees the step. Its arrays are views into
    the workspace, valid only during the call: the loop writes the next
    states into the same memory, so an observer copies what it keeps. Unless
    it was the last step, one Laplacian of all systems, one matmul of the
    step's increments and a controlled system's own control term feed each
    system's right-hand side, and one in-place solve of (I - dt nu1 Lap) for
    all systems gives the states of step n + 1. The march stops early only
    when every sample column has retired and no shared column runs.

    Every running column's states have the bits of its own width-1 run, a
    shared column's those of ``integrate``. Returns
    ``(failures, explicit_cfl)``: one BlowUpError per retired sample column,
    with its step and ``keys[j]``, in the order of retirement, and the largest
    explicit-term ratio dt |gamma| |u|_inf / h^2 seen by a column that ran to
    the end (0.0 when none did).
    """
    kinds = tuple(kinds)
    states = tuple(np.asarray(u, dtype=float) for u in initial)
    shared = [u.ndim == 2 for u in states]
    nodes, _, width = next((u.shape for u in states if u.ndim == 3), (0, 0, 0))
    shapes = [u.shape for u in states]
    if width < 1 or len(states) != len(kinds) or shared != sorted(shared) or any(
        shape != ((nodes, 3) if one else (nodes, 3, width)) for shape, one in zip(shapes, shared)
    ):
        raise ValueError(
            f"need one initial batch of shape (n_interior, 3, M), M >= 1, per kind, then the "
            f"shared (n_interior, 3) fields, got {shapes} for {len(kinds)} kinds"
        )
    if any(one and kind in _NOISY_KINDS for one, kind in zip(shared, kinds)):
        raise ValueError("a shared column runs a noiseless kind, deterministic or skeleton")
    grid = make_grid(nodes)
    n_steps = tgrid.steps
    dt = tgrid.dt
    h = grid.spacing
    c = dt * params.nu1
    ctrls = (None,) * len(kinds) if ctrl is None else tuple(ctrl)
    _check_inputs(kinds, tgrid, spec, ctrls)
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
    mode_mat = mode_matrix(spec, grid) if spec is not None else None
    cfl_scale = dt * abs(params.gamma) / (h * h)
    # the columns of every batch system in turn, then one per shared system; the
    # ceiling check retires sample column j in every batch system, or a shared column
    bounds = np.cumsum([0] + [1 if one else width for one in shared])
    cols = [slice(first, last) for first, last in zip(bounds, bounds[1:])]
    sample_end = shared.count(False) * width
    columns = [slice(j, sample_end, width) for j in range(width)] + cols[shared.count(False):]
    keys = (list(keys) if keys is not None else [None] * width) + [None] * shared.count(True)
    shape = (nodes, 3, int(bounds[-1]))
    state, nxt, lap, tmp = (solver_empty(shape) for _ in range(4))
    sq = solver_empty((nodes, shape[2]))
    for col, u in zip(cols, states):
        state[..., col] = u.reshape(nodes, 3, -1)
    # a system's control term dt * (mode_mat @ c_n) of a step, in the solver's order
    cf = solver_empty((nodes, 3, 1))
    # a noisy step's matmul of all columns' increments (M, n, 3), copied into the solver's order
    product = np.empty((width, nodes, 3))
    forcing = solver_empty((nodes, 3, width)) if any(noisy) else None
    # a linearized system reads the step terms that its reference's step leaves behind
    ref = kinds.index(SystemKind.DETERMINISTIC) if SystemKind.DETERMINISTIC in kinds else None
    # a shared reference and its drive copied across the batch: products of full
    # arrays are cheaper than products that broadcast a column over it
    spread = None
    if SystemKind.LINEARIZED_CLT in kinds and shared[ref] and width > 1:
        spread = (solver_empty((nodes, 3, width)), solver_empty((nodes, 3, width)))
    order = sorted(range(len(kinds)), key=lambda s: kinds[s] is SystemKind.LINEARIZED_CLT)
    peak = np.zeros(len(columns))
    running = np.ones(len(columns), dtype=bool)
    failures = []

    # every buffer with its per-system views
    state, nxt, lap, sq, tmp = (
        (a, [a[..., col] for col in cols]) for a in (state, nxt, lap, sq, tmp)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        # a blow-up is found and reported by the ceiling check, not by numpy warnings
        for n in range(n_steps + 1):
            sq_norm_values(state[0], out=sq[0], work=lap[0])
            top = sq[0].max(axis=0)
            if sample_end > width:
                top = np.concatenate(
                    (top[:sample_end].reshape(-1, width).max(axis=0), top[sample_end:])
                )
            linf = np.sqrt(top)
            failed = running & ~(linf <= LINF_CEILING)
            if failed.any():
                for j in np.flatnonzero(failed):
                    column = state[0][..., columns[j]]
                    if np.isfinite(column).all():
                        # squares of components above about 1.3e154 overflow:
                        # take them relative to the largest magnitude
                        big = np.abs(column).max()
                        linf[j] = big * np.sqrt(sq_norm_values(column / big).max())
                        what = f"|u|_inf = {linf[j]:.3g} exceeded ceiling {LINF_CEILING:.3g}"
                    else:
                        what = "non-finite state"
                    ratio = float(cfl_scale * peak[j])
                    failure = BlowUpError(
                        f"{what} (explicit-term ratio {ratio:.3g})",
                        step=n, time=n * dt, key=keys[j], linf=float(linf[j]), ratio=ratio,
                    )
                    if j >= width:
                        raise failure
                    failures.append(failure)
                    column[...] = 0.0
                running &= ~failed
                if not running.any():
                    break
                sqrt_eps[failed[:width]] = 0.0
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
            for s in order:
                kind, u, lap_u, sq_u, out = kinds[s], state[1][s], lap[1][s], sq[1][s], nxt[1][s]
                if kind is SystemKind.LINEARIZED_CLT:
                    base = (state[1][ref], lap[1][ref], sq[1][ref])
                    if spread is not None:
                        np.copyto(spread[0], base[0])
                        np.copyto(spread[1], base[1])
                        base = (*spread, base[2])
                    _linear_rhs_values(u, lap_u, sq_u, base, params, dt, forcing, out, tmp[1][s])
                    continue
                g = None
                if noisy[s] and strength is not None:
                    g = np.multiply(strength, forcing, out=out)
                if ctrls[s] is not None:
                    np.multiply(dt, (mode_mat @ ctrls[s].coefficients[n])[..., None], out=cf)
                    g = cf if g is None else np.add(g, cf, out=g)
                _rhs_values(u, lap_u, sq_u, params, dt, g, out, tmp[1][s])
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

    Step n transposes the tangent of the nonlinear step (``_rhs_values`` and
    its solve) at u_n. With w = (I - c Lap)^{-1} lam (the Helmholtz matrix is
    symmetric, so the solve is its own transpose) it maps lam to

        w + (dt gamma Lap u_n + g_n) x w + dt gamma Lap(w x u_n)
          - dt nu2 (1 + mu |u_n|^2) w - 2 dt nu2 mu (u_n . w) u_n,

    and dPhi/dc_n = dt mode_mat^T (w x u_n). The sweep takes the base-state
    terms a chunk of at most ``STACK_CHUNK`` steps at a time, as stack
    operations with the bits of the per-step ones: dt gamma Lap u_n and
    dt nu2 (1 + mu |u_n|^2) (``_stack_terms``), and the control fields
    g_n = dt mode_mat c_n from one matmul, with a flag per step for a nonzero
    field: a zero one is skipped, as the forward step skips it (``_drive``).
    A step then does only the work that depends on lam, and keeps w x u_n for
    the one matmul that gives the chunk's sensitivities.

    Raises ValueError, before any work, unless ``record`` stores every step
    of ``tgrid`` of a skeleton run, ``ctrl`` fits ``tgrid`` and ``spec``, and
    ``terminal`` is one (n_interior, 3) field.
    """
    if record.kind != SystemKind.SKELETON.value:
        raise ValueError(f"adjoint sweep needs a skeleton record, got {record.kind}")
    if not record.dense or not np.array_equal(record.times, tgrid.times):
        raise ValueError("adjoint sweep needs a record storing every step of the time grid")
    _check_inputs((SystemKind.SKELETON,), tgrid, spec, (ctrl,))
    nodes = record.grid.n_interior
    lam = np.asarray(terminal, dtype=float)
    if lam.shape != (nodes, 3):
        raise ValueError(f"terminal has shape {lam.shape}, the grid's fields {(nodes, 3)}")
    params = record.params
    h = record.grid.spacing
    dt = tgrid.dt
    c = dt * params.nu1
    damping = 2.0 * dt * params.nu2 * params.mu
    mode_mat = mode_matrix(spec, record.grid)
    sens = np.empty_like(ctrl.coefficients)
    # chunk buffers for the sweep, one step per row, so a step reads and
    # writes contiguous (n, 3) fields
    size = min(STACK_CHUNK, tgrid.steps)
    fields, drives, w_cross_u = (np.empty((size, nodes, 3)) for _ in range(3))
    coefs = np.empty((size, nodes))
    for first in reversed(range(0, tgrid.steps, STACK_CHUNK)):
        last = min(first + STACK_CHUNK, tgrid.steps)
        count = last - first
        snaps = record.snapshots[first:last]
        drive, coef = drives[:count], coefs[:count]
        _stack_terms(
            np.moveaxis(snaps, 0, -1), params, dt, h,
            np.moveaxis(drive, 0, -1), np.moveaxis(coef, 0, -1),
        )
        g = np.matmul(mode_mat, ctrl.coefficients[first:last], out=fields[:count])
        g *= dt
        live = g.reshape(count, -1).any(axis=1)
        if params.gamma != 0.0:
            np.add(drive, g, out=drive, where=live[:, None, None])
            live[:] = True
        else:
            drive = g
        for k in range(count - 1, -1, -1):
            u = snaps[k]
            w = helm_values(lam, h, c)
            lam = w
            if live[k]:
                lam = lam + cross_values(drive[k], w)
            w_u = cross_values(w, u, out=w_cross_u[k])
            if params.gamma != 0.0:
                lam = lam + (dt * params.gamma) * lap_values(w_u, h)
            if params.nu2 != 0.0:
                lam = lam - coef[k][:, None] * w
                if params.mu != 0.0:
                    # einsum picks its sum order from the layout; with w in the
                    # solver's order it has the bits of the slower dot_values
                    lam = lam - damping * np.einsum("ij,ij->i", u, w)[:, None] * u
        chunk_sens = np.matmul(mode_mat.T, w_cross_u[:count], out=sens[first:last])
        chunk_sens *= dt
    return sens


REPORT_HEADER = b"step,time,l2,h1_semi,h2_semi,linf\r\n"
FIELDS_HEADER = b"step,node_index,ux,uy,uz\r\n"


def write_report_rows(fh, steps: np.ndarray, times: np.ndarray, norm_rows: np.ndarray) -> None:
    """Rows (step, time, l2, h1_semi, h2_semi, linf) of a block of snapshots into the
    binary file ``fh``: their ``steps``, ``times`` and ``field.stack_norms`` rows."""
    fh.write(csv_rows(steps[:, None], np.column_stack([times, norm_rows])))


def write_field_rows(fh, steps: np.ndarray, snapshots: np.ndarray) -> None:
    """Rows (step, node_index, ux, uy, uz) of the block ``snapshots`` (S, n, 3) at
    ``steps`` into the binary file ``fh``, formatted 8 snapshots at a time, so no
    more than 8 snapshots are ever held as Python objects."""
    # more per call make more row lists at once and wake the garbage collector
    per_call = 8
    n = snapshots.shape[1]
    lead = np.empty((per_call * n, 2), dtype=np.int64)
    lead[:, 1] = np.tile(np.arange(n), per_call)
    for first in range(0, len(steps), per_call):
        chunk = snapshots[first:first + per_call]
        rows = len(chunk) * n
        lead[:rows, 0] = np.repeat(steps[first:first + per_call], n)
        fh.write(csv_rows(lead[:rows], chunk.reshape(rows, 3)))


def write_report_csv(record: TrajectoryRecord, path) -> None:
    """Norms of the stored snapshots as CSV (step, time, l2, h1_semi, h2_semi, linf).

    Floats are spelled as ``repr`` spells them and rows end in CRLF
    (``field.csv_rows``). The record is one block of ``write_report_rows``.
    """
    steps = record.snapshot_steps
    with open(path, "wb") as fh:
        fh.write(REPORT_HEADER)
        write_report_rows(fh, steps, record.times[steps], record.norm_rows)


def write_fields_csv(record: TrajectoryRecord, path) -> None:
    """Stored snapshots as CSV (step, node_index, ux, uy, uz).

    Floats are spelled as ``repr`` spells them and rows end in CRLF
    (``field.csv_rows``). The record is one block of ``write_field_rows``.
    """
    with open(path, "wb") as fh:
        fh.write(FIELDS_HEADER)
        write_field_rows(fh, record.snapshot_steps, record.snapshots)
