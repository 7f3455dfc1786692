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
on the adjoint, one chunk of snapshots at a time. The march, the tangent and
the adjoint take the step's coefficients from one place: ``_step_terms``
forms dt gamma Lap u and dt nu2 (1 + mu |u|^2), and ``_tangent_weight`` the
tangent's 2 dt nu2 mu (b . v). A record describes its run
once: it holds the parameters, time grid, covariance and control it was made
with, which the sweep reads, and its grid is that of its node count.

Explicit treatment of the precession term imposes dt <~ h^2/(gamma |u|_inf)
in the worst case; the integrator tracks the observed ratio and returns it,
and a BlowUpError carries it, rather than failing eagerly (diffusion
stabilizes the default parameter regime well past the naive bound).

Every run goes through one step loop, that of ``integrate_batch``, and the
kinds settle its layout. A noisy kind (stochastic, controlled-stochastic,
linearized) is a batch (n, 3, M) of M sample columns, each drawing its
increments from its own generator on the batch's time grid; a noiseless kind
(deterministic, skeleton) depends on its inputs alone, so it is one shared
column of the batch, made once for every sample, such as an ensemble's
reference or a compactness probe's skeletons. A batch holds its noisy
systems, in lockstep, then its noiseless ones, each system under its own
control, and hands the stacked state of each step to an observer instead of
storing it, so runs are compared while they march. ``integrate`` is the case
of one noiseless system and no sample column, and stores the snapshots it is
asked for. The CLI's deterministic run marches the same one-column batch and
writes each block of snapshots as it comes (``write_report_rows``,
``write_field_rows``), storing no record; the record writers apply those
block writers to a whole record. The step kernels treat every column of a
batch as they treat that column alone, and no step branches on the data of
its columns: every system adds every forcing it has, a zero one too. So a
column's states have the same bits at any batch width, a column at eps = 0
or under a zero control has the bits of the noiseless run, and a sample
column that blows up is retired at the step where it would blow up alone
while the others go on. A shared column that blows up raises its own
BlowUpError at that step, as ``integrate`` of its run raises it: every
sample depends on it, so there is one error path for every noiseless run.

The loop holds one workspace per batch in the memory order of the
tridiagonal solve, (3, S*M + R, n) for S noisy systems of M columns and R
noiseless ones: every component of every column is one contiguous n-vector,
while the arrays keep their logical node-major (n, 3, M) indexing. The
systems share one stacked state, so a step takes one Laplacian, one set of squared
norms, one ceiling check, one right-hand side and one solve for all of them,
and the observer sees that state and slices what it needs.
Every system's right-hand side is one template, u + u x Y - C u, with its
own drive Y and damping C: the template runs once over the whole stack into
a second state buffer, a linearized system takes the drive and damping of
its reference and adds only its own two terms, and LAPACK solves the buffer
in place before the two swap. Every array of the batch's shape that a step
writes is a workspace buffer, allocated once per batch: a batch keeps its
width to the end, and a retired column stays in it, zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
from .noise import ControlPath, CovarianceSpec, increments, mode_matrix

__all__ = [
    "ModelParams",
    "TimeGrid",
    "SystemKind",
    "TrajectoryRecord",
    "BlowUpError",
    "initial_profile",
    "integrate",
    "integrate_batch",
    "overflowing_step_scalars",
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
    noisy sample, so the failure can be replayed on its own; None for a
    noiseless run, which marches as a shared column and raises its own error,
    the one ``integrate`` of that run raises. ``linf`` is the |u|_inf of the failing step (inf or nan only
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
    """Immutable result of one integration: the run's inputs and its snapshots.

    ``snapshots`` holds the state at the steps listed in ``snapshot_steps``
    (every step by default). ``spec`` and ``ctrl`` are those the run was
    given, None if none; the grid is that of the node count, the steps those
    of ``tgrid``.
    """

    kind: str
    params: ModelParams
    tgrid: TimeGrid
    spec: CovarianceSpec | None
    ctrl: ControlPath | None
    snapshots: np.ndarray
    snapshot_steps: np.ndarray

    @property
    def grid(self) -> Grid1D:
        return make_grid(self.snapshots.shape[1])

    @property
    def steps(self) -> int:
        return self.tgrid.steps

    @property
    def dense(self) -> bool:
        return len(self.snapshot_steps) == self.steps + 1

    def final_values(self) -> np.ndarray:
        return self.snapshots[-1]


def initial_profile(grid: Grid1D, a: float = 1.0, b: float = 0.5) -> np.ndarray:
    """Default initial state a sin(pi x) e1 + b sin(2 pi x) e2, an (n, 3) field."""
    x = grid.nodes
    vals = np.zeros((grid.n_interior, 3))
    vals[:, 0] = a * np.sin(math.pi * x)
    vals[:, 1] = b * np.sin(2.0 * math.pi * x)
    return vals


def _step_terms(lap: np.ndarray, sq: np.ndarray, params: ModelParams, dt: float) -> None:
    """Turn the Laplacian ``lap`` and the squared norms ``sq`` of a stack of
    states, in place, into the step's drive dt gamma Lap u and damping
    dt nu2 (1 + mu |u|^2). Without damping (nu2 = 0) ``sq`` is left as it is:
    the step takes no damping term. The march, its tangent and its adjoint all
    take their coefficients from here."""
    lap *= dt * params.gamma
    if params.nu2 != 0.0:
        np.multiply(params.mu, sq, out=sq)
        sq += 1.0
        sq *= dt * params.nu2


def _tangent_weight(dot: np.ndarray, params: ModelParams, dt: float) -> np.ndarray:
    """The tangent's damping term, b.v times 2 dt nu2 mu, in place in ``dot``.

    The weight is one scalar wherever it is finite; where it overflows it is
    taken in two factors, so b.v = 0 stays 0 instead of inf * 0 (2 dt nu2 is
    finite in every run ``integrate_batch`` accepts)."""
    weight = 2.0 * dt * params.nu2 * params.mu
    if math.isfinite(weight):
        dot *= weight
    else:
        dot *= 2.0 * dt * params.nu2
        dot *= params.mu
    return dot


def _batch_rhs(state, lap, sq, out, work, systems, linear, forcing, strength, params, dt) -> None:
    """Right-hand side of one semi-implicit step (module docstring) of every system
    of a stacked batch, written into ``out``; the step is its solve.

    ``state``, ``lap``, ``sq``, ``out`` and ``work`` are (array, per-system views)
    pairs: the stacked state (n, 3, C), its Laplacian, its squared norms (n, C),
    and two buffers the shape of the state. ``systems`` gives each system
    (noisy, field): whether it is a nonlinear kind driven by the noise, and its
    control field dt mode_mat c_n of the step, None without a control.
    ``forcing`` is the step's noise field dB (n, 3, M), None without noise,
    and ``strength`` sqrt(eps) of each sample column, zero for a retired one.
    ``linear`` is (ref, lins, base): the deterministic system, a shared
    column, the linearized ones and None or a buffer (n, 3, M) that takes the
    reference state across the batch, as products of full arrays are cheaper
    than products that broadcast a column over them.

    Every column takes the template u + u x Y - C u, computed once over the
    whole stack, with Y = dt gamma Lap u + g and C = dt nu2 (1 + mu |u|^2) of
    its own system (``_step_terms``), g = sqrt(eps) dB + dt h its forcing.
    Every system adds every forcing it has, a zero one too: adding zero leaves
    every nonzero value as it is, so a column at eps = 0 or under a zero
    control has the values of the noiseless run, and no step branches on the
    data of other columns. A linearized system, the derivative of the step at
    eps = 0 along the reference state b, takes Y and C of b, so its template is
    v + v x (dt gamma Lap b) - C v, and adds its own terms in their order, at
    every step: + b x (dt gamma Lap v + dB) after the cross and
    - 2 dt nu2 mu (b.v) b (``_tangent_weight``) after the damping. Every
    element sees the operations of its system's own step. ``lap``, ``sq`` and
    ``work`` are overwritten.
    """
    (u, us), (lap, laps), (sq, sqs), (out, outs), (work, works) = state, lap, sq, out, work
    _step_terms(lap, sq, params, dt)
    ref, lins, base = linear
    for s, (noisy, field) in enumerate(systems):
        g = forcing if s in lins else None
        if noisy:
            g = np.multiply(strength, forcing, out=outs[s])
        if field is not None:
            g = field if g is None else np.add(g, field, out=g)
        if g is not None:
            laps[s] += g
    b = us[ref] if lins else None
    if base is not None:
        b = base
        np.copyto(b, us[ref])
    for s in lins:
        cross_values(b, laps[s], out=works[s])
        np.copyto(laps[s], laps[ref])
        np.copyto(sqs[s], sqs[ref])
    np.add(u, cross_values(u, lap, out=out), out=out)
    for s in lins:
        outs[s] += works[s]
    if params.nu2 == 0.0:
        return
    out -= np.multiply(sq[:, None], u, out=work)
    if params.mu == 0.0:
        return
    for s in lins:
        dot = _tangent_weight(dot_values(b, us[s], out=sqs[s], work=works[s]), params, dt)
        outs[s] -= np.multiply(dot[:, None], b, out=works[s])


def overflowing_step_scalars(params: ModelParams, tgrid: TimeGrid, nodes: int) -> list[str]:
    """The scalars of a step on ``nodes`` interior nodes that leave the double
    range, of dt nu1, the Helmholtz diagonal's 2 dt nu1 / h^2, dt gamma, dt nu2,
    2 dt nu2 and the explicit-term scale dt |gamma| / h^2. With any of them inf,
    a state at zero meets inf * 0 = nan, so ``integrate_batch`` refuses such a
    run."""
    dt, h = tgrid.dt, make_grid(nodes).spacing
    scalars = {
        "dt nu1": dt * params.nu1,
        "2 dt nu1 / h^2": 2.0 * (dt * params.nu1) * (1.0 / (h * h)),
        "dt gamma": dt * params.gamma,
        "dt nu2": dt * params.nu2,
        "2 dt nu2": 2.0 * dt * params.nu2,
        "dt |gamma| / h^2": dt * abs(params.gamma) / (h * h),
    }
    return [name for name, value in scalars.items() if not math.isfinite(value)]


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

    The ``integrate_batch`` of this one shared column and no sample column; the
    noisy kinds draw increments and run as batch columns there. The state is
    stored every ``stride`` steps and at the last step. Raises ValueError for a
    ``u0`` of another shape, and the batch's BlowUpError, key None, with the
    offending step when the state leaves the finite/bounded regime.
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

    def observe(n, u):
        if n % stride == 0 or n == n_steps:
            snaps[-(-n // stride)] = u[..., 0]

    integrate_batch((kind,), (u0,), params, tgrid, observe, spec=spec, ctrl=(ctrl,))
    return TrajectoryRecord(kind.value, params, tgrid, spec, ctrl, snaps, snap_steps)


def integrate_batch(
    kinds,
    initial,
    params: ModelParams,
    tgrid: TimeGrid,
    observe,
    spec: CovarianceSpec | None = None,
    ctrl=None,
    rngs=None,
    epsilons=None,
    keys=None,
) -> tuple[list[BlowUpError], float]:
    """March the sample columns of the noisy systems and the shared columns of
    the noiseless ones in lockstep, storing nothing.

    ``kinds`` names the systems and settles the layout: the noisy kinds
    (stochastic, controlled-stochastic, linearized) come first, and
    ``initial`` gives each, in the same order, its (n, 3, M) initial batch,
    column j of every such system being sample j; then each noiseless kind
    (deterministic, skeleton) is one shared column, given as an (n, 3) field,
    a run made once for the whole batch, such as an ensemble's reference. A
    call of noiseless kinds alone has M = 0. n fixes the grid
    (``field.make_grid``). The systems share ``params``; column j of a noisy
    nonlinear kind runs at noise strength ``epsilons[j]``. Noisy kinds draw
    the increments of column j on the run's time grid from ``rngs[j]``
    (``noise.increments``), and every system of a step sees the same ones, so
    coupled systems share their noise by construction. ``ctrl`` is None or
    gives each kind its own entry: a ControlPath for a controlled kind, None
    for any other. A linearized system is linearized about the first
    deterministic system, whose step terms it reads in the same step.
    ``observe(n, u)`` sees every step n = 0..steps in the stacked state u, of
    shape (n, 3, S*M + R) for S noisy systems and R noiseless ones: the M
    columns of each noisy system in the order of ``kinds``, then one column
    per noiseless system. Memory grows with the batch width, not with the
    number of steps.

    The systems share one state in the solver's memory order, system by
    system, and a second such buffer that the next state is written into
    before the two swap. At each step n every running column is checked
    first: a column whose |u|_inf is not finite or exceeds ``LINF_CEILING``
    fails at n. A sample column fails when it does so in any noisy system,
    and is retired: it keeps its column, zeroed in every system and with
    noise strength 0, and is stepped on with the others. A shared column
    that fails raises its own BlowUpError, key None, with its own |u|_inf
    and ratio, the first failing one in the order of ``kinds``: every sample
    depends on it, and ``integrate`` of its run raises the same error. The
    check takes one maximum of the step's squared node norms over the whole
    workspace and one running elementwise maximum of them: only a step whose
    maximum passes LINF_CEILING^2 (or is NaN) takes the column maxima that
    find the failing columns and the peaks behind their explicit-term
    ratios, and the peaks of the others are taken at the end. u = 0 is a
    fixed point of every nonlinear kind and the linear system stays finite,
    so no NaN reaches an observer, which drops the column's values through
    the failure list. Then ``observe`` sees the step. Its array is the
    workspace itself, valid only during the call: the loop writes the next
    states into the same memory, so an observer copies what it keeps. Unless
    it was the last step, one Laplacian of all systems, one matmul of the
    step's increments and one control term per distinct ControlPath feed one
    right-hand side of all systems (``_batch_rhs``), and one in-place solve of
    (I - dt nu1 Lap) for all systems gives the states of step n + 1. The
    march stops early only when every sample column has retired and no
    shared column runs.

    Every running sample column's states have the bits of its own width-1
    run, a shared column's those of ``integrate``. Returns
    ``(failures, explicit_cfl)``: one BlowUpError per retired sample column,
    with its step and ``keys[j]``, in the order of retirement, and the largest
    explicit-term ratio dt |gamma| |u|_inf / h^2 seen by a column that ran to
    the end (0.0 when none did). A ValueError is raised, before step 0, for a
    layout the kinds do not settle, unless ``keys``, ``epsilons`` and, for
    noisy kinds, ``rngs`` hold one entry per sample column, and when a scalar
    of the step leaves the double range (``overflowing_step_scalars``).
    """
    kinds = tuple(kinds)
    states = tuple(np.asarray(u, dtype=float) for u in initial)
    noisy = [kind in _NOISY_KINDS for kind in kinds]
    shapes = [u.shape for u in states]
    lead = shapes[0] if shapes else ()
    nodes = lead[0] if lead else 0
    width = lead[2] if any(noisy) and len(lead) == 3 else 0
    if not kinds or len(states) != len(kinds) or noisy != sorted(noisy, reverse=True) or any(
        shape != ((nodes, 3, width) if one else (nodes, 3)) for shape, one in zip(shapes, noisy)
    ) or (any(noisy) and width < 1):
        raise ValueError(
            f"need one initial batch of shape (n_interior, 3, M), M >= 1, per noisy kind, then "
            f"one (n_interior, 3) field per noiseless kind, got {shapes} for {len(kinds)} kinds"
        )
    grid = make_grid(nodes)
    n_steps = tgrid.steps
    dt = tgrid.dt
    h = grid.spacing
    c = dt * params.nu1
    if overflowing := overflowing_step_scalars(params, tgrid, nodes):
        raise ValueError(f"the step's {', '.join(overflowing)} leave the double range")
    ctrls = (None,) * len(kinds) if ctrl is None else tuple(ctrl)
    _check_inputs(kinds, tgrid, spec, ctrls)
    for kind, u in zip(kinds, states):
        if kind is SystemKind.LINEARIZED_CLT and np.any(u):
            raise ValueError("linearized deviation system starts from zero initial data")
    if any(noisy):
        rngs = list(rngs or ())
        if len(rngs) != width:
            raise ValueError(f"noisy kinds need one generator per column: {width}, got {len(rngs)}")
        noise = increments(rngs, n_steps, spec.mode_count, dt)
    eps = np.zeros(width) if epsilons is None else np.asarray(epsilons, dtype=float)
    if eps.shape != (width,) or not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError(f"need {width} epsilons in [0, 1], got {epsilons}")
    keys = [None] * width if keys is None else list(keys)
    if len(keys) != width:
        raise ValueError(f"need {width} keys, one per sample column, got {len(keys)}")
    sqrt_eps = np.sqrt(eps)
    mode_mat = mode_matrix(spec, grid) if spec is not None else None
    cfl_scale = dt * abs(params.gamma) / (h * h)
    # the columns of every noisy system in turn, then one per noiseless system; the
    # ceiling check retires sample column j in every noisy system, or a shared column
    bounds = np.cumsum([0] + [width if one else 1 for one in noisy])
    cols = [slice(first, last) for first, last in zip(bounds, bounds[1:])]
    sample_end = noisy.count(True) * width
    columns = [slice(j, sample_end, width) for j in range(width)] + cols[noisy.count(True):]
    keys += [None] * noisy.count(False)
    shape = (nodes, 3, int(bounds[-1]))
    state, nxt, lap, tmp = (solver_empty(shape) for _ in range(4))
    sq = solver_empty((nodes, shape[2]))
    for col, u in zip(cols, states):
        state[..., col] = u.reshape(nodes, 3, -1)
    # the control term dt * (mode_mat @ c_n) of a step, one per distinct control, in
    # the solver's order: systems under one control share it
    fields = {path: solver_empty((nodes, 3, 1)) for path in ctrls if path is not None}
    systems = [
        (noisy[s] and kind is not SystemKind.LINEARIZED_CLT,
         None if ctrls[s] is None else fields[ctrls[s]])
        for s, kind in enumerate(kinds)
    ]
    # a noisy step's matmul of all columns' increments (M, n, 3), copied into the solver's order
    product = np.empty((width, nodes, 3))
    forcing = solver_empty((nodes, 3, width)) if any(noisy) else None
    # linearized systems read the step terms of the first deterministic one
    ref = kinds.index(SystemKind.DETERMINISTIC) if SystemKind.DETERMINISTIC in kinds else None
    lins = tuple(s for s, kind in enumerate(kinds) if kind is SystemKind.LINEARIZED_CLT)
    base = solver_empty((nodes, 3, width)) if lins and width > 1 else None
    linear = (ref, lins, base)
    ceiling = LINF_CEILING**2
    # the largest squared node norm seen at each node of each column; its column
    # maxima give a column's largest explicit-term ratio
    high = np.zeros_like(sq)
    running = np.ones(len(columns), dtype=bool)
    failures = []

    def column_max(a):
        # the largest entry of each column of an (n, S*M + R) array, one per sample
        # column over every noisy system, then one per shared column
        top = a.max(axis=0)
        if sample_end > width:
            top = np.concatenate(
                (top[:sample_end].reshape(-1, width).max(axis=0), top[sample_end:])
            )
        return top

    # every buffer with its per-system views
    state, nxt, lap, sq, tmp = (
        (a, [a[..., col] for col in cols]) for a in (state, nxt, lap, sq, tmp)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        # a blow-up is found and reported by the ceiling check, not by numpy warnings
        for n in range(n_steps + 1):
            sq_norm_values(state[0], out=sq[0], work=lap[0])
            # sqrt is monotone and correctly rounded, so |u|_inf <= LINF_CEILING
            # exactly when its square is at most LINF_CEILING^2; the largest
            # square of all settles a step where no column fails (a NaN fails it)
            if not sq[0].max() <= ceiling:
                top, peak = column_max(sq[0]), column_max(high)
                failed = running & ~(top <= ceiling)
                for j in np.flatnonzero(failed):
                    column = state[0][..., columns[j]]
                    # hypot takes each node's |u| without squares, which overflow
                    # for components above about 1.3e154
                    linf = float(np.hypot.reduce(column, axis=1).max())
                    if np.isfinite(column).all():
                        what = f"|u|_inf = {linf:.3g} exceeded ceiling {LINF_CEILING:.3g}"
                    else:
                        what = "non-finite state"
                    ratio = float(cfl_scale * np.sqrt(peak[j]))
                    failure = BlowUpError(
                        f"{what} (explicit-term ratio {ratio:.3g})",
                        step=n, time=n * dt, key=keys[j], linf=linf, ratio=ratio,
                    )
                    if j >= width:
                        raise failure
                    failures.append(failure)
                    column[...] = 0.0
                running &= ~failed
                if not running.any():
                    break
                sqrt_eps[failed[:width]] = 0.0
            np.maximum(high, sq[0], out=high)
            observe(n, state[0])
            if n == n_steps:
                break
            lap_values(state[0], h, out=lap[0])
            if forcing is not None:
                np.matmul(mode_mat, next(noise), out=product)
                np.copyto(forcing, product.transpose(1, 2, 0))
            for path, field in fields.items():
                np.multiply(dt, (mode_mat @ path.coefficients[n])[..., None], out=field)
            _batch_rhs(state, lap, sq, nxt, tmp, systems, linear, forcing, sqrt_eps, params, dt)
            helm_values(nxt[0], h, c, out=nxt[0])
            state, nxt = nxt, state
    peak = column_max(high)
    return failures, float(np.max(cfl_scale * np.sqrt(peak[running]), initial=0.0))


@np.errstate(over="ignore", invalid="ignore")
def skeleton_adjoint(record: TrajectoryRecord, terminal: np.ndarray) -> np.ndarray:
    """Exact control sensitivities of a terminal functional of the skeleton.

    ``record`` is a dense skeleton run, whose inputs the sweep reads, and
    ``terminal`` the derivative of a functional Phi(u_N) with respect to the
    final state. One backward sweep of the transposed step map (the discrete
    adjoint) returns the (steps, K, 3) array of dPhi/dc_n, the derivative
    with respect to the control coefficients of every step, exact to
    rounding for the discrete scheme.

    Step n transposes the tangent of the nonlinear step (``_batch_rhs`` and
    its solve) at u_n. With w = (I - c Lap)^{-1} lam (the Helmholtz matrix is
    symmetric, so the solve is its own transpose) it maps lam to

        w + (dt gamma Lap u_n + g_n) x w + dt gamma Lap(w x u_n)
          - dt nu2 (1 + mu |u_n|^2) w - 2 dt nu2 mu (u_n . w) u_n,

    and dPhi/dc_n = dt mode_mat^T (w x u_n). The coefficients are the
    forward step's, from the same two helpers: dt gamma Lap u_n and
    dt nu2 (1 + mu |u_n|^2) from ``_step_terms``, taken over a chunk of at
    most ``STACK_CHUNK`` snapshots at a time with the bits of the per-step
    ones, and the weighted (u_n . w) from ``_tangent_weight``, so over a
    skeleton at zero it stays 0 where 2 dt nu2 mu overflows. The control
    fields g_n = dt mode_mat c_n come from one matmul per chunk and are added
    to the drive of every step, a zero one too, as the forward step adds them
    (``_batch_rhs``). A step then does only the work that depends on lam, and
    keeps w x u_n for the one matmul that gives the chunk's sensitivities.

    Raises ValueError, before any work, unless ``record`` stores every step
    of a skeleton run and ``terminal`` is one (n_interior, 3) field; its
    control was checked when the record was made. Raises BlowUpError, step
    None, when a sensitivity is not finite, as a huge damping
    dt nu2 (1 + mu |u|^2) can make it by scaling lam past the double range,
    even where the skeleton stays at zero; a zero terminal gives zeros.
    """
    if record.kind != SystemKind.SKELETON.value:
        raise ValueError(f"adjoint sweep needs a skeleton record, got {record.kind}")
    if not record.dense:
        raise ValueError("adjoint sweep needs a record storing every step of the time grid")
    grid = record.grid
    nodes = grid.n_interior
    lam = np.asarray(terminal, dtype=float)
    if lam.shape != (nodes, 3):
        raise ValueError(f"terminal has shape {lam.shape}, the grid's fields {(nodes, 3)}")
    params, tgrid, ctrl = record.params, record.tgrid, record.ctrl
    h = grid.spacing
    dt = tgrid.dt
    c = dt * params.nu1
    mode_mat = mode_matrix(record.spec, grid)
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
        stack, lap, sq = (np.moveaxis(a, 0, -1) for a in (snaps, drive, coef))
        sq_norm_values(stack, out=sq, work=lap)
        _step_terms(lap_values(stack, h, out=lap), sq, params, dt)
        g = np.matmul(mode_mat, ctrl.coefficients[first:last], out=fields[:count])
        g *= dt
        drive += g
        for k in range(count - 1, -1, -1):
            u = snaps[k]
            w = helm_values(lam, h, c)
            lam = w + cross_values(drive[k], w)
            w_u = cross_values(w, u, out=w_cross_u[k])
            if params.gamma != 0.0:
                lam = lam + (dt * params.gamma) * lap_values(w_u, h)
            if params.nu2 != 0.0:
                lam = lam - coef[k][:, None] * w
                if params.mu != 0.0:
                    # einsum picks its sum order from the layout; with w in the
                    # solver's order it has the bits of the slower dot_values
                    dot = _tangent_weight(np.einsum("ij,ij->i", u, w), params, dt)
                    lam = lam - dot[:, None] * u
        chunk_sens = np.matmul(mode_mat.T, w_cross_u[:count], out=sens[first:last])
        chunk_sens *= dt
    if not np.isfinite(sens).all():
        raise BlowUpError("adjoint sweep left the double range: a sensitivity is not finite")
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
    (``field.csv_rows``). The record is one block of ``write_report_rows``, its
    rows one ``field.stack_norms`` pass of the snapshots, its times those of
    ``tgrid``.
    """
    steps = record.snapshot_steps
    rows = stack_norms(record.snapshots, record.grid.spacing)
    with open(path, "wb") as fh:
        fh.write(REPORT_HEADER)
        write_report_rows(fh, steps, record.tgrid.times[steps], rows)


def write_fields_csv(record: TrajectoryRecord, path) -> None:
    """Stored snapshots as CSV (step, node_index, ux, uy, uz).

    Floats are spelled as ``repr`` spells them and rows end in CRLF
    (``field.csv_rows``). The record is one block of ``write_field_rows``.
    """
    with open(path, "wb") as fh:
        fh.write(FIELDS_HEADER)
        write_field_rows(fh, record.snapshot_steps, record.snapshots)
