"""Central limit experiment: couple the noisy flow, its deterministic limit,
and the linear deviation system on shared noise paths, then measure how the
rescaled deviation error decays in the noise strength.

For each epsilon and sample, one Gaussian increment path drives both the
stochastic run u_eps and the linear deviation run V0; the runs assert they
consumed bitwise identical increments. The per-sample error is the proof
metric sup_t ||grad(V_eps - V0)||^2 + nu1 * int ||Lap(V_eps - V0)||^2 with
V_eps = (u_eps - u0)/sqrt(eps). Samples run one after another in
(epsilon index, sample) order, each on its own counter-based stream, so the
results do not depend on anything but the config. Failed (blown-up) samples
are excluded from the means and counted, never averaged.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from .analysis import SlopeFit, fit_slope, path_gap, sample_stats
from .dynamics import (
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    TrajectoryRecord,
    integrate,
)
from .field import VectorField, zero_field
from .noise import CovarianceSpec, increment_path, stream_rng

__all__ = [
    "CltConfig",
    "CltRow",
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


@dataclass(frozen=True, eq=False)
class CltReport:
    rows: tuple
    fit: SlopeFit | None
    failures: tuple


def _sample_error(
    config: CltConfig,
    u0_rec: TrajectoryRecord,
    eps_index: int,
    sample: int,
) -> float:
    tgrid = config.tgrid
    eps = config.epsilons[eps_index]
    rng = stream_rng(config.base_seed, eps_index, sample)
    path = increment_path(rng, tgrid.steps, config.spec.mode_count, tgrid.dt)
    seed_info = (config.base_seed, eps_index, sample)
    u_eps = integrate(
        SystemKind.STOCHASTIC,
        config.initial,
        config.params.with_epsilon(eps),
        tgrid,
        spec=config.spec,
        shared_path=path,
        seed_info=seed_info,
        stride=1,
    )
    v0 = integrate(
        SystemKind.LINEARIZED_CLT,
        zero_field(config.initial.grid),
        config.params.with_epsilon(0.0),
        tgrid,
        spec=config.spec,
        shared_path=path,
        base=u0_rec,
        seed_info=seed_info,
        stride=1,
    )
    if u_eps.noise_digest != v0.noise_digest:
        raise RuntimeError(
            f"coupled runs consumed different noise: {u_eps.noise_digest} vs {v0.noise_digest}"
        )
    v_eps = (u_eps.snapshots - u0_rec.snapshots) / math.sqrt(eps)
    return path_gap(
        v_eps, v0.snapshots, config.initial.grid.spacing, tgrid.dt, config.params.nu1
    )


def run_clt(config: CltConfig) -> CltReport:
    """Run the full experiment; deterministic for fixed (config, base_seed)."""
    u0_rec = integrate(
        SystemKind.DETERMINISTIC,
        config.initial,
        config.params.with_epsilon(0.0),
        config.tgrid,
        stride=1,
    )

    rows = []
    failures = []
    for i, eps in enumerate(config.epsilons):
        errors = []
        for m in range(config.samples):
            try:
                errors.append(_sample_error(config, u0_rec, i, m))
            except BlowUpError as exc:
                errors.append(None)
                failures.append((eps, m, str(exc)))
        rows.append(CltRow(eps, *sample_stats(errors)))

    fit = None
    pts = [(r.epsilon, r.mean_error) for r in rows if r.n_ok > 0 and r.mean_error > 0.0]
    if len(pts) >= 3:
        fit = fit_slope(pts)
    return CltReport(rows=tuple(rows), fit=fit, failures=tuple(failures))


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
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
