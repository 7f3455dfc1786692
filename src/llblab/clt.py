"""Central limit experiment: couple the noisy flow, its deterministic limit,
and the linear deviation system on shared noise paths, then measure how the
rescaled deviation error decays in the noise strength.

Every (epsilon index, sample) pair is one column of a batch. The stochastic
runs u_eps and the linear deviation runs V0 of all columns march together in
lockstep over the dense deterministic base u0, each column driven by its own
counter-based stream ``stream_rng(seed, epsilon index, sample)``, and both
systems of a step read the same increments. The per-sample error is the proof
metric sup_t ||grad(V_eps - V0)||^2 + nu1 * int ||Lap(V_eps - V0)||^2 with
V_eps = (u_eps - u0)/sqrt(eps), accumulated step by step instead of from
stored trajectories, so memory grows with the batch width (at most
``BATCH_COLUMNS`` columns at a time), never with the number of samples. A
sample whose run blows up is retired at that step, counted and listed with
its stream key and step, never averaged; the other columns go on. The
results depend on nothing but the config.
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
from .field import VectorField
from .noise import CovarianceSpec, IncrementStreams, stream_rng

__all__ = [
    "CltConfig",
    "CltRow",
    "CltFailure",
    "CltReport",
    "run_clt",
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


class CltFailure(NamedTuple):
    """A retired sample: replay it with ``stream_rng(base_seed, eps_index, sample)``."""

    eps_index: int
    sample: int
    step: int


@dataclass(frozen=True, eq=False)
class CltReport:
    rows: tuple
    fit: SlopeFit | None
    failures: tuple


def _batch_errors(config: CltConfig, u0_rec, columns) -> tuple[list, list]:
    """March the (epsilon index, sample) ``columns`` as one batch; returns each
    column's error (None when it blew up) and its CltFailures."""
    grid = config.initial.grid
    tgrid = config.tgrid
    width = len(columns)
    epsilons = np.array([config.epsilons[i] for i, _ in columns])
    sqrt_eps = np.sqrt(epsilons)
    base = u0_rec.snapshots
    gap = StreamedPathGap(width, grid.spacing, tgrid.dt, config.params.nu1, tgrid.steps)

    def observe(n, states, live):
        u_eps, v0 = states
        gap.add(n, (u_eps - base[n][..., None]) / sqrt_eps[live] - v0, live)

    noise = IncrementStreams(
        [stream_rng(config.base_seed, i, m) for i, m in columns],
        tgrid.steps, config.spec.mode_count, tgrid.dt,
    )
    start = np.repeat(config.initial.values[..., None], width, axis=2)
    failed = integrate_batch(
        (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT),
        grid,
        (start, np.zeros_like(start)),
        config.params,
        tgrid,
        observe,
        spec=config.spec,
        base=u0_rec,
        noise=noise,
        epsilons=epsilons,
        keys=[(config.base_seed, i, m) for i, m in columns],
    )
    errors = [float(e) for e in gap.values]
    failures = []
    for exc in failed:
        _, i, m = exc.key
        errors[columns.index((i, m))] = None
        failures.append(CltFailure(i, m, exc.step))
    return errors, failures


def run_clt(config: CltConfig) -> CltReport:
    """Run the full experiment; deterministic for fixed (config, base_seed)."""
    u0_rec = integrate(
        SystemKind.DETERMINISTIC,
        config.initial,
        config.params.with_epsilon(0.0),
        config.tgrid,
        stride=1,
    )
    columns = [(i, m) for i in range(len(config.epsilons)) for m in range(config.samples)]
    errors = []
    failures = []
    for first in range(0, len(columns), BATCH_COLUMNS):
        batch_errors, batch_failures = _batch_errors(
            config, u0_rec, columns[first:first + BATCH_COLUMNS]
        )
        errors.extend(batch_errors)
        failures.extend(batch_failures)

    rows = [
        CltRow(eps, *sample_stats(errors[i * config.samples:(i + 1) * config.samples]))
        for i, eps in enumerate(config.epsilons)
    ]
    fit = None
    pts = [(r.epsilon, r.mean_error) for r in rows if r.n_ok > 0 and r.mean_error > 0.0]
    if len(pts) >= 3:
        fit = fit_slope(pts)
    return CltReport(rows=tuple(rows), fit=fit, failures=tuple(sorted(failures)))


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
