"""Stochastic ensembles on counter-based streams, and the central limit
experiment built on them.

An ensemble runs ``samples`` paths at each noise strength epsilon. Every
(epsilon index, sample) pair is one column of a batch, driven by its own
counter-based stream ``stream_rng(seed, epsilon index, sample)``; at most
``BATCH_COLUMNS`` columns march together, so memory grows with the batch
width, never with the number of samples. Each column's proof metric
sup_t ||grad d||^2 + nu1 * int ||Lap d||^2 of a field d derived from its
states is accumulated a block of steps at a time instead of from stored
trajectories: a narrow batch buffers the states of several steps, so the
metric's kernels run once per block, on as many columns as a full batch. A
sample whose run blows up is retired at that step, counted and listed with
its stream key and step, never averaged; the other columns go on. The
results depend on nothing but the config.

Every batch marches the ensemble's noiseless reference as one shared
column, and the observer compares each sample with the reference's state of
the same step: no record of it is stored. The central limit experiment
couples the noisy flow u_eps, the reference u0 and the linear deviation
system V0 about it, which reads the increments of u_eps; the per-sample
error is the proof metric of V_eps - V0, V_eps = (u_eps - u0)/sqrt(eps).
``sup_grad_ensemble`` gives sup_t ||grad u||^2 of u0 and of every sample of
the noisy flow, the a priori bound.

``write_json`` writes every JSON output of the package, this experiment's
summary and the CLI's, as strict JSON: an epsilon whose samples all blew up
has no mean, and its NaN is written as null.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# path_gap and integrate stay bound here, unused: perfbench/tracer.py patches them by name
from .analysis import SlopeFit, StreamedPathGap, fit_slope, path_gap, sample_stats
from .dynamics import (
    BATCH_COLUMNS,
    ModelParams,
    SystemKind,
    TimeGrid,
    integrate,
    integrate_batch,
)
from .field import STACK_CHUNK, make_grid, scratch, solver_empty
from .noise import CovarianceSpec, IncrementStreams, stream_rng

__all__ = [
    "CltRow",
    "SampleFailure",
    "CltReport",
    "SupGradEnsemble",
    "minus_reference",
    "record_sup_grad",
    "run_columns",
    "run_clt",
    "sup_grad_ensemble",
    "write_clt_csv",
    "write_clt_summary",
    "write_json",
]


class CltRow(NamedTuple):
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


def minus_reference(work: dict, u: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``u - ref`` of a block (n, 3, M, K) and the reference's (n, 3, 1, K), in ``work``'s
    buffer, filled with ``ref`` first: a difference of full arrays beats a broadcast."""
    d = scratch(work, "d", u.shape)
    np.copyto(d, ref)
    return np.subtract(u, d, out=d)


def run_columns(
    kinds,
    initial,
    reference,
    epsilons,
    samples: int,
    base_seed: int,
    difference,
    nu1: float,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    ctrl=None,
) -> tuple[list, tuple]:
    """The proof metric of every (epsilon index, sample) column of an ensemble.

    Column (i, m) starts every system of ``kinds`` from its (n, 3) field in
    ``initial`` and runs at ``epsilons[i]`` on ``stream_rng(base_seed, i, m)``
    (``dynamics.integrate_batch`` with ``ctrl``). ``reference`` is a
    (kind, field) pair: the noiseless run the samples are compared with,
    marched as one shared column of every batch; a linearized system is
    linearized about it, and its blow-up is raised as ``integrate`` raises it.
    ``difference(n, states, eps)`` maps the states of steps n to n + K - 1 of
    a batch (one (n, 3, M, K) block per kind, then the reference's
    (n, 3, 1, K) block) and its (M,) epsilons to the field d whose metric
    sup ||grad d||^2 + nu1 sum dt ||Lap d||^2 is accumulated. K is the number
    of steps whose states, stacked, fill about ``BATCH_COLUMNS`` columns, so a
    narrow batch pays the per-call cost of the metric's kernels once per
    block; the last block of a run may be shorter. A column that blew up stays
    in its batch, zeroed, to the end, and its metric is dropped. Returns
    ``(values, failures)``: ``values[i][m]`` is the metric of column (i, m),
    None where it blew up, and ``failures`` its SampleFailures, sorted.
    """
    nodes = len(initial[0])
    steps = tgrid.steps
    kinds = (*kinds, reference[0])
    columns = [(i, m) for i in range(len(epsilons)) for m in range(samples)]
    values = []
    failures = []
    for first in range(0, len(columns), BATCH_COLUMNS):
        batch = columns[first:first + BATCH_COLUMNS]
        width = len(batch)
        eps = np.array([epsilons[i] for i, _ in batch], dtype=float)
        gap = StreamedPathGap(width, make_grid(nodes).spacing, tgrid.dt, nu1, steps)
        noise = IncrementStreams(
            [stream_rng(base_seed, i, m) for i, m in batch], steps, spec.mode_count, tgrid.dt
        )
        block = min(steps + 1, max(1, BATCH_COLUMNS // width))
        start = [np.repeat(f[..., None], width, axis=2) for f in initial]
        start.append(reference[1])
        shape = (nodes, 3, width, block)
        buffers = [solver_empty(shape) for _ in initial] + [solver_empty(shape[:2] + (1, block))]

        def observe(n, states):
            if block == 1:
                # the step's own arrays: copying them into a one-step block costs more
                gap.add(n, difference(n, [u[..., None] for u in states], eps))
                return
            k = n % block
            for buf, u in zip(buffers, states):
                np.copyto(buf[..., k], u)
            if k == block - 1 or n == steps:
                gap.add(n - k, difference(n - k, [buf[..., :k + 1] for buf in buffers], eps))

        failed, _ = integrate_batch(
            kinds, start, params, tgrid, observe,
            spec=spec, ctrl=ctrl, noise=noise, epsilons=eps,
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


def record_sup_grad(snapshots: np.ndarray, h: float) -> float:
    """sup_n ||grad d_n||^2 of a stored record d (steps + 1, n, 3): the proof
    metric with nu1 = 0, from ``StreamedPathGap`` fed at most ``STACK_CHUNK``
    snapshots per block, so it takes the sums that a sample column takes."""
    gap = StreamedPathGap(1, h, 0.0, 0.0, len(snapshots) - 1)
    for first in range(0, len(snapshots), STACK_CHUNK):
        gap.add(first, np.moveaxis(snapshots[first:first + STACK_CHUNK], 0, -1)[:, :, None])
    return float(gap.values[0])


def run_clt(
    epsilons,
    samples: int,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    initial: np.ndarray,
    base_seed: int,
) -> CltReport:
    """The central limit experiment: ``samples`` coupled (u_eps, V0) columns
    per epsilon from the (n, 3) field ``initial``, sample m of epsilon index i
    on ``stream_rng(base_seed, i, m)``, and the slope of the mean error against
    epsilon when at least three means are positive. The result depends on
    nothing but the arguments. Raises ValueError, before any integration,
    unless the epsilons are strictly decreasing in (0, 1] and there are at
    least 2 samples."""
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons:
        raise ValueError("need at least one epsilon")
    if any(not 0.0 < e <= 1.0 for e in epsilons):
        raise ValueError(f"epsilons must lie in (0, 1], got {epsilons}")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError(f"epsilons must be strictly decreasing, got {epsilons}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples per epsilon, got {samples}")
    work = {}

    def deviation_gap(n, states, eps):
        # (u_eps - u0) / sqrt(eps) - V0, in place in the buffer of u_eps - u0
        u_eps, v0, u0 = states
        d = minus_reference(work, u_eps, u0)
        if work.get("eps") is not eps:
            # a new batch: sqrt(eps) across a whole block, which divides faster
            # than an (M,) array broadcast over the solver's layout
            work["eps"], work["sqrt_eps"] = eps, solver_empty(d.shape)
            np.copyto(work["sqrt_eps"], np.sqrt(eps)[:, None])
        d /= work["sqrt_eps"][..., :d.shape[3]]
        d -= v0
        return d

    errors, failures = run_columns(
        (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT), (initial, np.zeros_like(initial)),
        (SystemKind.DETERMINISTIC, initial), epsilons, samples, base_seed, deviation_gap,
        params.nu1, params, tgrid, spec,
    )
    rows = [CltRow(eps, *sample_stats(e)) for eps, e in zip(epsilons, errors)]
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
    initial: np.ndarray,
    base_seed: int,
) -> SupGradEnsemble:
    """sup_n ||grad u_n||^2 of the deterministic run from the (n, 3) field
    ``initial`` and of ``samples`` stochastic runs per epsilon, sample m of
    epsilon index i on ``stream_rng(base_seed, i, m)``. Both use the same sums,
    so a sample at epsilon 0 gives the deterministic value bitwise. Raises
    BlowUpError when the deterministic run blows up."""
    det = StreamedPathGap(1, make_grid(len(initial)).spacing, tgrid.dt, 0.0, tgrid.steps)
    first = {}

    def sup_grad(n, states, eps):
        # every batch marches the same reference: the first batch takes its sup
        if first.setdefault("eps", eps) is eps:
            det.add(n, states[1])
        return states[0]

    sups, failures = run_columns(
        (SystemKind.STOCHASTIC,), (initial,), (SystemKind.DETERMINISTIC, initial), epsilons,
        samples, base_seed, sup_grad, 0.0, params, tgrid, spec,
    )
    return SupGradEnsemble(float(det.values[0]), sups, failures)


def write_clt_csv(report: CltReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CltRow._fields)
        # Python floats and ints: the csv module spells the floats as repr does
        writer.writerows(report.rows)


def write_clt_summary(report: CltReport, path) -> None:
    payload = {
        "rows": [r._asdict() for r in report.rows],
        "slope": report.fit.slope if report.fit is not None else None,
        "intercept": report.fit.intercept if report.fit is not None else None,
        "fit_residual": report.fit.residual if report.fit is not None else None,
        "n_failures": len(report.failures),
        "failures": [f._asdict() for f in report.failures],
    }
    write_json(path, payload)


def _finite_or_null(value):
    """``value`` with every non-finite float in its dicts, lists and tuples replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys, the one JSON writer of
    every output. JSON has no inf or nan (RFC 8259): a non-finite float is written
    as null, such as the mean of an epsilon whose samples all blew up."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
