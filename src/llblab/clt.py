"""Stochastic ensembles on counter-based streams, and the central limit
experiment built on them.

An ensemble runs ``samples`` paths at each noise strength epsilon. Every
(epsilon index, sample) pair is one column of a batch, driven by its own
counter-based stream ``stream_rng(seed, epsilon index, sample)``; at most
``BATCH_COLUMNS`` columns march together, so memory grows with the batch
width, never with the number of samples. Each column's proof metric
sup_t ||grad d||^2 + nu1 * int ||Lap d||^2 of a field d derived from its
states is accumulated step by step instead of from stored trajectories. A
sample whose run blows up is retired at that step, counted and listed with
its stream key and step, never averaged; the other columns go on. The
results depend on nothing but the config.

The central limit experiment couples the noisy flow u_eps, its deterministic
limit u0 and the linear deviation system V0: the runs u_eps and V0 of a
column march in lockstep over the dense base u0 and read the same
increments, and the per-sample error is the proof metric of
V_eps - V0 with V_eps = (u_eps - u0)/sqrt(eps). ``sup_grad_ensemble`` gives
sup_t ||grad u_eps||^2 of the noisy flow alone, the a priori bound.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# path_gap stays bound here, unused: perfbench/tracer.py patches clt.path_gap by name
from .analysis import SlopeFit, StreamedPathGap, fit_slope, path_gap, sample_stats
from .dynamics import (
    BATCH_COLUMNS,
    ModelParams,
    SystemKind,
    TimeGrid,
    integrate,
    integrate_batch,
)
from .field import VectorField, column_sq_sums, grad_values, map_stack, zero_field
from .noise import CovarianceSpec, IncrementStreams, stream_rng

__all__ = [
    "CltConfig",
    "CltRow",
    "SampleFailure",
    "CltReport",
    "SupGradEnsemble",
    "run_columns",
    "run_clt",
    "sup_grad_ensemble",
    "write_clt_csv",
    "write_clt_summary",
]


@dataclass(frozen=True, eq=False)
class CltConfig:
    epsilons: tuple
    samples: int
    params: ModelParams
    tgrid: TimeGrid
    spec: CovarianceSpec
    initial: VectorField
    base_seed: int

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValueError("need at least one epsilon")
        if any(not 0.0 < e <= 1.0 for e in eps):
            raise ValueError(f"epsilons must lie in (0, 1], got {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"epsilons must be strictly decreasing, got {eps}")
        if self.samples < 2:
            raise ValueError(f"need at least 2 samples per epsilon, got {self.samples}")
        object.__setattr__(self, "epsilons", eps)


@dataclass(frozen=True)
class CltRow:
    epsilon: float
    mean_error: float
    std_error: float
    n_ok: int
    n_failed: int


class SampleFailure(NamedTuple):
    """A retired sample: replay it with ``stream_rng(base_seed, eps_index, sample)``."""

    eps_index: int
    sample: int
    step: int


@dataclass(frozen=True, eq=False)
class CltReport:
    rows: tuple
    fit: SlopeFit | None
    failures: tuple


class SupGradEnsemble(NamedTuple):
    """sup_n ||grad u_n||^2 of the noiseless run and of every sample.

    ``sups[i][m]`` belongs to epsilon index i and sample m, None where the
    sample blew up; ``failures`` lists those samples.
    """

    deterministic: float
    sups: list
    failures: tuple


def run_columns(
    kinds,
    initial,
    epsilons,
    samples: int,
    base_seed: int,
    difference,
    nu1: float,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    ctrl=None,
    base=None,
) -> tuple[list, tuple]:
    """The proof metric of every (epsilon index, sample) column of an ensemble.

    Column (i, m) starts every system of ``kinds`` from its field in
    ``initial`` and runs at ``epsilons[i]`` on ``stream_rng(base_seed, i, m)``
    (``dynamics.integrate_batch`` with ``ctrl`` and ``base``).
    ``difference(n, states, eps)`` maps step n's states of the live columns
    (one (n, 3, M') array per kind) and their (M',) epsilons to the field d
    whose metric sup ||grad d||^2 + nu1 sum dt ||Lap d||^2 is accumulated.
    Returns ``(values, failures)``: ``values[i][m]`` is the metric of column
    (i, m), None where it blew up, and ``failures`` its SampleFailures, sorted.
    """
    grid = initial[0].grid
    columns = [(i, m) for i in range(len(epsilons)) for m in range(samples)]
    values = []
    failures = []
    for first in range(0, len(columns), BATCH_COLUMNS):
        batch = columns[first:first + BATCH_COLUMNS]
        eps = np.array([epsilons[i] for i, _ in batch], dtype=float)
        gap = StreamedPathGap(len(batch), grid.spacing, tgrid.dt, nu1, tgrid.steps)
        noise = IncrementStreams(
            [stream_rng(base_seed, i, m) for i, m in batch], tgrid.steps, spec.mode_count, tgrid.dt
        )
        failed, _ = integrate_batch(
            kinds, grid, [np.repeat(f.values[..., None], len(batch), axis=2) for f in initial],
            params, tgrid,
            lambda n, states, live: gap.add(n, difference(n, states, eps[live]), live),
            spec=spec, ctrl=ctrl, base=base, noise=noise, epsilons=eps,
            keys=[(base_seed, i, m) for i, m in batch],
        )
        batch_values = [float(v) for v in gap.values]
        for exc in failed:
            _, i, m = exc.key
            batch_values[batch.index((i, m))] = None
            failures.append(SampleFailure(i, m, exc.step))
        values.extend(batch_values)
    per_epsilon = [values[i * samples:(i + 1) * samples] for i in range(len(epsilons))]
    return per_epsilon, tuple(sorted(failures))


def run_clt(config: CltConfig) -> CltReport:
    """Run the full experiment; deterministic for fixed (config, base_seed)."""
    u0_rec = integrate(
        SystemKind.DETERMINISTIC,
        config.initial,
        config.params.with_epsilon(0.0),
        config.tgrid,
        stride=1,
    )
    base = u0_rec.snapshots

    def deviation_gap(n, states, eps):
        u_eps, v0 = states
        return (u_eps - base[n][..., None]) / np.sqrt(eps) - v0

    errors, failures = run_columns(
        (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT),
        (config.initial, zero_field(config.initial.grid)),
        config.epsilons, config.samples, config.base_seed, deviation_gap, config.params.nu1,
        config.params, config.tgrid, config.spec, base=u0_rec,
    )
    rows = [CltRow(eps, *sample_stats(e)) for eps, e in zip(config.epsilons, errors)]
    fit = None
    pts = [(r.epsilon, r.mean_error) for r in rows if r.n_ok > 0 and r.mean_error > 0.0]
    if len(pts) >= 3:
        fit = fit_slope(pts)
    return CltReport(rows=tuple(rows), fit=fit, failures=failures)


def sup_grad_ensemble(
    epsilons,
    samples: int,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    initial: VectorField,
    base_seed: int,
) -> SupGradEnsemble:
    """sup_n ||grad u_n||^2 of the deterministic run from ``initial`` and of
    ``samples`` stochastic runs per epsilon, sample m of epsilon index i on
    ``stream_rng(base_seed, i, m)``. Both use the same sums, so a sample at
    epsilon 0 gives the deterministic value bitwise. Raises BlowUpError when
    the deterministic run blows up."""
    det = integrate(SystemKind.DETERMINISTIC, initial, params.with_epsilon(0.0), tgrid, stride=1)
    h = initial.grid.spacing
    det_grad_sq = map_stack(lambda v: h * column_sq_sums(grad_values(v, h)), det.snapshots)
    sups, failures = run_columns(
        (SystemKind.STOCHASTIC,), (initial,), epsilons, samples, base_seed,
        lambda n, states, eps: states[0], 0.0, params, tgrid, spec,
    )
    return SupGradEnsemble(float(np.max(det_grad_sq)), sups, failures)


def write_clt_csv(report: CltReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "mean_error", "std_error", "n_ok", "n_failed"])
        for r in report.rows:
            writer.writerow([repr(r.epsilon), repr(r.mean_error), repr(r.std_error), r.n_ok, r.n_failed])


def write_clt_summary(report: CltReport, path) -> None:
    payload = {
        "rows": [
            {
                "epsilon": r.epsilon,
                "mean_error": r.mean_error,
                "std_error": r.std_error,
                "n_ok": r.n_ok,
                "n_failed": r.n_failed,
            }
            for r in report.rows
        ],
        "slope": report.fit.slope if report.fit is not None else None,
        "intercept": report.fit.intercept if report.fit is not None else None,
        "fit_residual": report.fit.residual if report.fit is not None else None,
        "n_failures": len(report.failures),
        "failures": [f._asdict() for f in report.failures],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
