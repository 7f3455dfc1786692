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
accepted iterations; the dense record of each accepted point is kept, so its
one gradient costs only the backward sweep. Only the terminal state is matched
(a quasipotential-style endpoint rate); matching a whole path is
overdetermined at desk scale.

The weak-convergence experiment marches its samples as batch columns beside
the skeleton, a shared column of every batch (``clt.run_columns``), and
accumulates the proof metric a block of steps at a time, so it stores no
trajectory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# path_gap and stream_rng stay bound here, unused: perfbench/tracer.py patches
# ldp.path_gap and ldp.stream_rng by name
from .analysis import path_gap, sample_stats
from .clt import minus_reference, record_sup_grad, run_columns
from .dynamics import (
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    TrajectoryRecord,
    integrate,
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
    the final penalty, so an unconverged run shows how far it stopped short."""

    cost: float
    misfit: float
    control: ControlPath
    iterations: int
    converged: bool
    objective_history: tuple
    gradient_norm: float


class WeakRow(NamedTuple):
    epsilon: float
    mean_metric: float
    std_error: float
    n_ok: int
    n_failed: int


@dataclass(frozen=True, eq=False)
class RatePoint:
    """One evaluated coarse control ``x``: its cost, its H1 misfit and the dense
    skeleton record behind them."""

    x: np.ndarray
    control: ControlPath
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
            SystemKind.SKELETON,
            self.u0,
            self.params,
            self.tgrid,
            spec=self.spec,
            ctrl=ctrl,
        )
        misfit = h1_norm(rec.final_values() - self.problem.target)
        return RatePoint(x, ctrl, ctrl.h0_cost(), misfit, rec)

    def gradient(self, point: RatePoint, rho: float) -> np.ndarray:
        """Exact gradient of ``point.objective(rho)`` with respect to ``x``.

        The misfit is h (d.d - d.Lap d) for d = u_N - target (summation by
        parts), so the terminal adjoint is 2 rho h (d - Lap d); the H0 cost
        adds dt * c_n at every step. Each slab sums the steps it covers.
        """
        h = point.record.grid.spacing
        d = point.record.final_values() - self.problem.target
        terminal = (2.0 * rho * h) * (d - lap_values(d, h))
        sens = skeleton_adjoint(point.record, self.tgrid, self.spec, point.control, terminal)
        full = self.tgrid.dt * point.control.coefficients + sens
        slabs, per_slab, modes = self._coarse_shape()
        return full[:, :modes, :].reshape(slabs, per_slab, modes, 3).sum(axis=1).ravel()


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
    s.y <= 0), halved until the Armijo test holds; ``iterations`` counts the
    accepted steps. ``converged`` means the exact gradient norm at the returned
    control under the final penalty is within the tolerance; False, after the
    iteration cap or a stalled line search, signals that the infimum may be
    infinite for unreachable targets. A blow-up of the skeleton under the zero
    control raises BlowUpError; a trial that blows up is rejected like any
    trial that does not descend.
    """
    objective = RateObjective(problem, params, tgrid, spec, u0)
    point = objective.evaluate(np.zeros(objective.dim))
    history: list[tuple] = []
    total_iters = 0
    rho = problem.penalty
    for round_idx in range(problem.continuation_rounds + 1):
        step = 1.0
        current = point.objective(rho)
        grad = objective.gradient(point, rho)
        round_history = [current]
        for _ in range(problem.max_iters):
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= problem.tolerance or not math.isfinite(gnorm):
                break
            while step >= MIN_LINE_SEARCH_STEP:
                try:
                    trial = objective.evaluate(point.x - step * grad)
                except BlowUpError:
                    trial = None
                j_try = trial.objective(rho) if trial is not None else math.inf
                if j_try <= current - ARMIJO_SLOPE * step * gnorm**2:
                    break
                step *= 0.5
            else:
                logger.debug("line search stalled in round %d", round_idx)
                break
            trial_grad = objective.gradient(trial, rho)
            s, y = trial.x - point.x, trial_grad - grad
            sy = float(s @ y)
            step = float(s @ s) / sy if sy > 0.0 else 1.0
            point, grad, current = trial, trial_grad, j_try
            round_history.append(current)
            total_iters += 1
        history.append(tuple(round_history))
        rho *= 10.0

    gnorm = float(np.linalg.norm(grad))
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
        control=point.control,
        iterations=total_iters,
        converged=converged,
        objective_history=tuple(history),
        gradient_norm=gnorm,
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
    sup ||grad diff||^2 + nu1 int ||Lap diff||^2. Every
    (epsilon index, sample) pair is one column of a batch marched beside the
    skeleton on its own counter-based stream (``clt.run_columns``), with
    the metric accumulated a block of steps at a time; blown-up samples are
    retired, counted and never averaged. Returns ``(rows, failures)``: one
    WeakRow per epsilon and the ``clt.SampleFailure`` of every retired sample,
    sorted.
    """
    eps_values = [float(e) for e in epsilons]
    work = {}
    metrics, failures = run_columns(
        (SystemKind.CONTROLLED_STOCHASTIC,), (u0,), (SystemKind.SKELETON, u0),
        eps_values, samples, base_seed, lambda n, states, eps: minus_reference(work, *states),
        params.nu1, params, tgrid, spec, ctrl=ctrl,
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
    grows. The response is the proof metric with nu1 = 0 of the stored
    difference of the two skeleton records (``clt.record_sup_grad``). Returns
    one (mode, response) pair per oscillation mode.
    """
    if component not in (1, 2, 3):
        raise ValueError(f"component must be 1, 2 or 3, got {component}")
    base = integrate(SystemKind.SKELETON, u0, params, tgrid, spec=spec, ctrl=ctrl)
    coeff = math.sqrt(1.0 / tgrid.horizon)
    out = []
    for mode in oscillation_modes:
        mode = int(mode)
        if not 1 <= mode <= spec.mode_count:
            raise ValueError(f"oscillation mode {mode} outside 1..{spec.mode_count}")
        coeffs = ctrl.coefficients.copy()
        coeffs[:, mode - 1, component - 1] += coeff
        perturbed = integrate(
            SystemKind.SKELETON, u0, params, tgrid, spec=spec,
            ctrl=ControlPath(coeffs, ctrl.dt),
        )
        d = perturbed.snapshots - base.snapshots
        out.append((mode, record_sup_grad(d, base.grid.spacing)))
    return out
