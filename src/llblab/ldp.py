"""Large-deviation experiments: the endpoint rate-function variational problem,
the skeleton-convergence experiment, and the compactness probe.

The rate problem is solved as a penalized minimization

    min_h  0.5 * int ||h||_H0^2 dt  +  rho * ||u_h(T) - target||_H1^2

over a deliberately coarse control parameterization (a few modes, a few time
slabs). Its gradient is the exact gradient of this discrete objective
(discretize-then-optimize): one dense skeleton solve forward and one sweep of
the transposed step map backward (``dynamics.skeleton_adjoint``), whatever the
number of unknowns. The sweep takes the base-state terms one chunk of steps at
a time, so each of its steps does only the work that depends on the adjoint.
The optimizer is steepest descent with Barzilai-Borwein steps and Armijo
backtracking, which keeps the penalized objective nonincreasing across
accepted iterations. A rejected trial is followed by the minimizer of the
quadratic through the objective's value and slope at the current point and
its value at the trial, kept within a tenth and a half of the rejected step
(safeguarded quadratic interpolation); a trial that blows up halves the step.
The dense record of each accepted point is kept, so its one gradient costs
only the backward sweep, and each run counts its skeleton solves and adjoint
sweeps. Only the terminal state is matched (a quasipotential-style endpoint
rate); matching a whole path is overdetermined at desk scale.

The weak-convergence experiment marches its samples as batch columns beside
the skeleton, a shared column of every batch (``clt.run_columns``), and the
compactness probe its perturbed skeletons beside the base skeleton, each a
shared column of one batch under its own control; both take their metric as
the runs march, so neither stores a trajectory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# path_gap and stream_rng stay bound here, unused: perfbench/tracer.py patches
# ldp.path_gap and ldp.stream_rng by name
from .analysis import StreamedPathGap, path_gap, sample_stats
from .clt import minus_reference, run_columns
from .dynamics import (
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    TrajectoryRecord,
    integrate,
    integrate_batch,
    skeleton_adjoint,
)
from .field import as_field, h1_norm, lap_values
from .noise import ControlPath, CovarianceSpec, stream_rng

__all__ = [
    "RateProblem",
    "RateEstimate",
    "RateObjective",
    "RatePoint",
    "WeakRow",
    "estimate_rate",
    "final_penalty",
    "weak_convergence_experiment",
    "compactness_probe",
]

logger = logging.getLogger(__name__)

MIN_LINE_SEARCH_STEP = 1.0e-12
ARMIJO_SLOPE = 1.0e-4


@dataclass(frozen=True, eq=False)
class RateProblem:
    """Terminal-state rate problem with optimizer knobs.

    ``control_modes`` and ``control_steps`` define the coarse search space
    (modes 1..K' constant on N' equal time slabs); ``penalty`` is the misfit
    weight rho, multiplied by 10 at each continuation round. ``target`` is
    the (n, 3) field the skeleton's terminal state should reach.
    """

    target: np.ndarray
    penalty: float = 1.0e3
    control_modes: int = 1
    control_steps: int = 5
    max_iters: int = 60
    tolerance: float = 1.0e-4
    continuation_rounds: int = 1

    def __post_init__(self):
        object.__setattr__(self, "target", as_field(self.target))
        if self.penalty <= 0.0:
            raise ValueError(f"penalty must be positive, got {self.penalty}")
        if self.control_modes < 1 or self.control_steps < 1:
            raise ValueError("control_modes and control_steps must be >= 1")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.continuation_rounds < 0:
            raise ValueError(f"continuation_rounds must be >= 0, got {self.continuation_rounds}")
        if not math.isfinite(2.0 * final_penalty(self.penalty, self.continuation_rounds)):
            raise ValueError(
                f"penalty {self.penalty} overflows after {self.continuation_rounds} continuation "
                "rounds: the terminal adjoint needs a finite 2 * penalty in the last round"
            )


def final_penalty(penalty: float, continuation_rounds: int) -> float:
    """The misfit weight of the last continuation round: ``penalty`` multiplied by 10
    once per round, as ``estimate_rate`` multiplies it, and inf once that overflows
    (where 10.0 ** continuation_rounds would raise OverflowError)."""
    rho = penalty
    for _ in range(continuation_rounds):
        rho *= 10.0
        if rho == math.inf:
            break
    return rho


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """Optimizer output; ``objective_history`` holds one tuple of accepted
    objective values per continuation round (each nonincreasing), and
    ``gradient_norm`` is the exact gradient norm at the returned control under
    the final penalty, so an unconverged run shows how far it stopped short.
    ``skeleton_solves`` counts the run's ``RateObjective.evaluate`` calls,
    blown-up trials included, and ``adjoint_sweeps`` its ``gradient`` calls."""

    cost: float
    misfit: float
    control: ControlPath
    iterations: int
    converged: bool
    objective_history: tuple
    gradient_norm: float
    skeleton_solves: int
    adjoint_sweeps: int


class WeakRow(NamedTuple):
    epsilon: float
    mean_metric: float
    std_error: float
    n_ok: int
    n_failed: int


@dataclass(frozen=True, eq=False)
class RatePoint:
    """One evaluated coarse control ``x``: its cost, its H1 misfit and the dense
    skeleton record behind them, which holds the control of ``x``."""

    x: np.ndarray
    cost: float
    misfit: float
    record: TrajectoryRecord

    def objective(self, rho: float) -> float:
        return self.cost + rho * self.misfit**2


class RateObjective:
    """The penalized rate objective over the coarse control ``x`` of a problem.

    ``evaluate`` makes one dense skeleton solve; ``gradient`` makes none: it
    sweeps the transposed step map back over the point's stored record.
    """

    def __init__(
        self,
        problem: RateProblem,
        params: ModelParams,
        tgrid: TimeGrid,
        spec: CovarianceSpec,
        u0: np.ndarray,
    ):
        u0 = as_field(u0)
        if problem.target.shape != u0.shape:
            raise ValueError("target and initial state live on different grids")
        if tgrid.steps % problem.control_steps != 0:
            raise ValueError(
                f"control_steps {problem.control_steps} must divide time steps {tgrid.steps}"
            )
        if problem.control_modes > spec.mode_count:
            raise ValueError(
                f"control_modes {problem.control_modes} exceeds covariance modes {spec.mode_count}"
            )
        self.problem = problem
        self.params = params
        self.tgrid = tgrid
        self.spec = spec
        self.u0 = u0
        self.dim = problem.control_steps * problem.control_modes * 3

    def _coarse_shape(self) -> tuple[int, int, int]:
        """(slabs, steps per slab, controlled modes)."""
        slabs = self.problem.control_steps
        return slabs, self.tgrid.steps // slabs, self.problem.control_modes

    def control(self, x: np.ndarray) -> ControlPath:
        """The full (steps, K, 3) control path that the coarse ``x`` stands for."""
        slabs, per_slab, modes = self._coarse_shape()
        full = np.zeros((self.tgrid.steps, self.spec.mode_count, 3))
        full[:, :modes, :] = np.repeat(x.reshape(slabs, modes, 3), per_slab, axis=0)
        return ControlPath(full, self.tgrid.dt)

    def evaluate(self, x: np.ndarray) -> RatePoint:
        """One dense skeleton solve under the control of ``x``; raises BlowUpError."""
        ctrl = self.control(x)
        rec = integrate(
            SystemKind.SKELETON, self.u0, self.params, self.tgrid, spec=self.spec, ctrl=ctrl
        )
        misfit = h1_norm(rec.final_values() - self.problem.target)
        return RatePoint(x, ctrl.h0_cost(), misfit, rec)

    def gradient(self, point: RatePoint, rho: float) -> np.ndarray:
        """Exact gradient of ``point.objective(rho)`` with respect to ``x``.

        The misfit is h (d.d - d.Lap d) for d = u_N - target (summation by
        parts), so the terminal adjoint is 2 rho h (d - Lap d); the H0 cost
        adds dt * c_n at every step. Each slab sums the steps it covers.
        """
        h = point.record.grid.spacing
        d = point.record.final_values() - self.problem.target
        terminal = (2.0 * rho * h) * (d - lap_values(d, h))
        sens = skeleton_adjoint(point.record, terminal)
        full = self.tgrid.dt * point.record.ctrl.coefficients + sens
        slabs, per_slab, modes = self._coarse_shape()
        return full[:, :modes, :].reshape(slabs, per_slab, modes, 3).sum(axis=1).ravel()


def _norm(x: np.ndarray) -> float:
    """The 2-norm of ``x``, taken relative to its largest magnitude where the
    squares of finite entries overflow; elsewhere ``np.linalg.norm`` bit for bit."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if norm == math.inf and np.isfinite(x).all():
        big = float(np.abs(x).max())
        norm = big * float(np.linalg.norm(x / big))
    return norm


def _next_step(step: float, current: float, j_try: float, gnorm_sq: float) -> float:
    """The step to try after the trial at ``step`` was rejected with objective
    ``j_try``: the minimizer step^2 |g|^2 / (2 (j_try - current + |g|^2 step)) of
    the quadratic through J(0) = ``current``, J'(0) = -``gnorm_sq`` and J(step),
    kept within [0.1 step, 0.5 step]. A trial that blows up (j_try not finite),
    a quadratic that is not convex or a minimizer that is not finite halves."""
    curvature = j_try - current + gnorm_sq * step
    if not (math.isfinite(j_try) and curvature > 0.0):
        return 0.5 * step
    minimizer = gnorm_sq * step * step / (2.0 * curvature)
    if not math.isfinite(minimizer):
        return 0.5 * step
    return min(max(minimizer, 0.1 * step), 0.5 * step)


def estimate_rate(
    problem: RateProblem,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    u0: np.ndarray,
) -> RateEstimate:
    """Penalized gradient descent from the zero control, the skeleton starting
    at the (n, 3) field ``u0``; fully deterministic.

    Each iteration tries the Barzilai-Borwein step s.s / s.y of the last
    accepted move s and its gradient change y (1.0 at a round's start or when
    s.y <= 0); while the Armijo test fails, the next trial is the step that
    ``_next_step`` interpolates from the rejected one. ``iterations`` counts the
    accepted steps. ``converged`` means the exact gradient norm at the returned
    control under the final penalty is within the tolerance; False, after the
    iteration cap or a stalled line search, signals that the infimum may be
    infinite for unreachable targets. A blow-up of the skeleton under the zero
    control raises BlowUpError; a trial that blows up is rejected, and the
    next trial halves its step.
    """
    objective = RateObjective(problem, params, tgrid, spec, u0)
    point = objective.evaluate(np.zeros(objective.dim))
    history: list[tuple] = []
    total_iters = 0
    solves, sweeps = 1, 0
    rho = problem.penalty
    for round_idx in range(problem.continuation_rounds + 1):
        step = 1.0
        current = point.objective(rho)
        grad = objective.gradient(point, rho)
        sweeps += 1
        round_history = [current]
        for _ in range(problem.max_iters):
            gnorm = _norm(grad)
            if gnorm <= problem.tolerance or not math.isfinite(gnorm):
                break
            try:
                gnorm_sq = gnorm**2
            except OverflowError:
                # no trial can meet the Armijo test: the round stops, as a stalled search does
                break
            while step >= MIN_LINE_SEARCH_STEP:
                solves += 1
                try:
                    trial = objective.evaluate(point.x - step * grad)
                except BlowUpError:
                    trial = None
                j_try = trial.objective(rho) if trial is not None else math.inf
                if j_try <= current - ARMIJO_SLOPE * step * gnorm_sq:
                    break
                step = _next_step(step, current, j_try, gnorm_sq)
            else:
                logger.debug("line search stalled in round %d", round_idx)
                break
            trial_grad = objective.gradient(trial, rho)
            sweeps += 1
            s, y = trial.x - point.x, trial_grad - grad
            sy = float(s @ y)
            step = float(s @ s) / sy if sy > 0.0 else 1.0
            point, grad, current = trial, trial_grad, j_try
            round_history.append(current)
            total_iters += 1
        history.append(tuple(round_history))
        rho *= 10.0

    gnorm = _norm(grad)
    converged = gnorm <= problem.tolerance
    if not converged and point.misfit > 0.0:
        logger.warning(
            "rate optimizer did not converge (misfit %.3g, gradient norm %.3g); "
            "the infimum may be infinite",
            point.misfit,
            gnorm,
        )
    return RateEstimate(
        cost=point.cost,
        misfit=point.misfit,
        control=point.record.ctrl,
        iterations=total_iters,
        converged=converged,
        objective_history=tuple(history),
        gradient_norm=gnorm,
        skeleton_solves=solves,
        adjoint_sweeps=sweeps,
    )


def weak_convergence_experiment(
    ctrl: ControlPath,
    epsilons,
    samples: int,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    u0: np.ndarray,
    base_seed: int,
) -> tuple[list[WeakRow], tuple]:
    """Distance between the controlled stochastic flow and the skeleton.

    For each epsilon, ``samples`` paths of the controlled system (same fixed
    deterministic control) from the (n, 3) field ``u0`` are compared against
    the skeleton solution in the proof metric
    sup ||grad diff||^2 + nu1 int ||Lap diff||^2, with ``params.nu1``. Every
    (epsilon index, sample) pair is one column of a batch marched beside the
    skeleton on its own counter-based stream (``clt.run_columns``), with
    the metric accumulated a block of steps at a time; blown-up samples are
    retired, counted and never averaged. Returns ``(rows, failures)``: one
    WeakRow per epsilon and the ``clt.SampleFailure`` of every retired sample,
    sorted. Raises ValueError, before any integration, when there is no
    epsilon or no sample.
    """
    eps_values = [float(e) for e in epsilons]
    work = {}
    metrics, failures, _ = run_columns(
        (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON), u0, eps_values, samples,
        base_seed, lambda n, u, eps: minus_reference(work, u[:, :, :len(eps)], u[:, :, len(eps):]),
        params, tgrid, spec, ctrl=ctrl,
    )
    rows = [WeakRow(eps, *sample_stats(m)) for eps, m in zip(eps_values, metrics)]
    return rows, failures


def compactness_probe(
    ctrl: ControlPath,
    oscillation_modes,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    u0: np.ndarray,
    component: int = 3,
) -> list[tuple[int, float]]:
    """Skeleton response, from the (n, 3) field ``u0``, to weakly-null control
    perturbations.

    Each probe adds a constant-in-time oscillation in one sine mode, of unit
    H0 path integral: its coefficient c = 1/sqrt(T) makes the sum over steps
    of dt c^2 equal 1. The synthesized field shrinks like k**(-decay/2), so
    the response metric sup ||grad(u_k - u_h)||^2 decays as the mode index
    grows. The base skeleton under ``ctrl`` and one skeleton per probe march
    as the shared columns of one batch with no sample column, each under its
    own control, and the response is the proof metric with nu1 = 0 of their
    difference, taken step by step, so no trajectory is stored:
    ``StreamedPathGap`` takes its sup ||grad d||^2 from the one Laplacian of
    each step by summation by parts, and its integral term, weighted by 0,
    adds +0.0. At the first step where any skeleton crosses the ceiling, the
    first such skeleton in the order base, probes raises its own BlowUpError,
    key None, the one ``integrate`` of that skeleton raises. Returns one
    (mode, response) pair per oscillation mode.
    """
    if component not in (1, 2, 3):
        raise ValueError(f"component must be 1, 2 or 3, got {component}")
    modes = [int(mode) for mode in oscillation_modes]
    ctrls = [ctrl]
    for mode in modes:
        if not 1 <= mode <= spec.mode_count:
            raise ValueError(f"oscillation mode {mode} outside 1..{spec.mode_count}")
        coeffs = ctrl.coefficients.copy()
        coeffs[:, mode - 1, component - 1] += math.sqrt(1.0 / tgrid.horizon)
        ctrls.append(ControlPath(coeffs, ctrl.dt))
    gap = StreamedPathGap(len(modes), tgrid, 0.0)

    def observe(n, u):
        gap.add(n, (u[..., 1:] - u[..., :1])[..., None])

    integrate_batch(
        (SystemKind.SKELETON,) * len(ctrls), [u0] * len(ctrls), params, tgrid, observe,
        spec=spec, ctrl=ctrls,
    )
    return list(zip(modes, gap.values.tolist()))
