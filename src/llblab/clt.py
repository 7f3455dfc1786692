"""Stochastic ensembles on counter-based streams, and the central limit
experiment built on them.

An ensemble runs ``samples`` paths at each noise strength epsilon. Each
column of a batch draws its increments on the run's time grid from its own
counter-based stream ``stream_rng(*key)``, and every system of the column
reads them. The central limit experiment gives each sample one stream,
``stream_rng(seed, sample)``, and one stochastic system per epsilon, so
every epsilon runs on the same path, as the theorem's u_eps and its limit V
do on one probability space (common random numbers); the ensembles that have
no limit to share, ``a_priori_ensemble`` and the weak convergence
experiment, give every (epsilon index, sample) pair a column of its own, on
``stream_rng(seed, epsilon index, sample)``. At most ``BATCH_COLUMNS``
columns march together, so memory grows with the batch width, never with
the number of samples. Each pair's proof metric
sup_t ||grad d||^2 + nu1 * int ||Lap d||^2, with the model's nu1, of a field
d derived from its states is accumulated a block of steps at a time instead
of from stored trajectories: a narrow batch buffers the states of several
steps, so the metric's one Laplacian runs once per block, on about as many
columns as a full batch. A pair whose run blows up is retired at that step,
counted and listed with its stream key and step, never averaged; the other
pairs, those of the same sample at other epsilons too, go on. The results
depend on nothing but the config.

Every batch marches the ensemble's noiseless reference, which depends on its
inputs alone, as one shared column, and the observer compares each sample
with the reference's state of the same step: no record of it is stored. A
reference that blows up ends the run with its own error, as ``integrate``
raises it. The observer buffers the batch's whole stacked state, the
reference's column included, with one copy a step, and a difference that
keeps columns past the samples gets their metric too. The central limit
experiment couples the noisy flows u_eps of every epsilon, the reference u0
and the linear deviation system V0 about it, which reads the same
increments, so each sample marches V0 once for all its epsilons; the error
of a sample at each epsilon is the proof metric of V_eps - V0,
V_eps = (u_eps - u0)/sqrt(eps).
``a_priori_ensemble`` gives the proof metric of u itself,
sup_t ||grad u||^2 + nu1 * int ||Lap u||^2, the quantity of the a priori
estimate, for u0 and for every sample of the noisy flow, from one metric of
both.

``write_json`` writes every JSON output of the package, this experiment's
summary and the CLI's, as strict JSON: an epsilon whose samples all blew up
has no mean, and its NaN is written as null. ``write_csv`` writes every small
CSV table, this experiment's report and the CLI's, through the csv module.
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
from .field import scratch, solver_empty
from .noise import CovarianceSpec, stream_rng

__all__ = [
    "CltRow",
    "SampleFailure",
    "CltReport",
    "APrioriEnsemble",
    "minus_reference",
    "run_columns",
    "run_clt",
    "a_priori_ensemble",
    "write_clt_csv",
    "write_clt_summary",
    "write_csv",
    "write_json",
]


class CltRow(NamedTuple):
    epsilon: float
    mean_error: float
    std_error: float
    n_ok: int
    n_failed: int


class SampleFailure(NamedTuple):
    """A retired (epsilon index, sample) pair and its step: replay it on
    ``stream_rng(*key)`` at ``epsilons[eps_index]``."""

    eps_index: int
    sample: int
    step: int
    key: tuple


@dataclass(frozen=True, eq=False)
class CltReport:
    rows: tuple
    fit: SlopeFit | None
    failures: tuple


class APrioriEnsemble(NamedTuple):
    """The proof metric of u, sup_n ||grad u_n||^2 + nu1 sum dt ||Lap u_n||^2,
    of the noiseless run and of every sample.

    ``values[i][m]`` belongs to epsilon index i and sample m, None where the
    sample blew up; ``failures`` lists those samples.
    """

    deterministic: float
    values: list
    failures: tuple


def minus_reference(work: dict, u: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``u - ref`` of a block (n, 3, M, K) and the reference's (n, 3, 1, K), in ``work``'s
    buffer, filled with ``ref`` first: a difference of full arrays beats a broadcast."""
    d = scratch(work, "d", u.shape)
    np.copyto(d, ref)
    return np.subtract(u, d, out=d)


def run_columns(
    kinds,
    u0: np.ndarray,
    epsilons,
    keys,
    difference,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    ctrl=None,
) -> tuple[list, tuple, list]:
    """The proof metric of every (epsilon index, sample) pair of an ensemble.

    ``kinds`` names the noisy systems of each column, then the reference's
    kind: the noiseless run the samples are compared with, marched from
    ``u0`` as one shared column of every batch. Column c starts every noisy
    system from the (n, 3) field ``u0``, a linearized one from zero, and draws
    its increments from ``stream_rng(*keys[c])``, which every system of the
    column reads (``dynamics.integrate_batch``, with ``ctrl`` the control of
    every system, the reference's too). The layout follows from the kinds
    and the keys: the P stochastic systems of the C columns make P * C pairs,
    ``samples`` = P * C / E to each of the E epsilons, and pair (i, m), number
    i * samples + m, is system p of column c, number p * C + c, run at
    ``epsilons[i]``. So one stochastic system and a key per pair gives every
    pair its own path, and one stochastic system per epsilon and a key per
    sample gives a sample one path at every epsilon. A linearized system is
    linearized about the reference. The reference raises its own blow-up,
    key None, at its step, the one ``integrate`` of it raises, whichever
    samples have retired. ``difference(n, block, eps)`` maps the stacked
    states of steps n to n + K - 1 of a batch of B columns, a block
    (n, 3, S*B + 1, K) holding the B columns of each of the S noisy systems
    in turn and then the reference's, and the batch's (P, B) epsilons to the
    field d whose metric sup ||grad d||^2 + nu1 sum dt ||Lap d||^2, with
    ``params.nu1``, is accumulated; its first P*B columns are the batch's
    pairs, system by system, any further ones the reference's. K is the
    number of steps whose P*B pairs, stacked, fill about ``BATCH_COLUMNS``
    columns, so a narrow batch pays the per-call cost of the metric's one
    Laplacian once per block; the last block of a run may be shorter. A
    column that blows up stays in its batch, zeroed, to the end, and the
    metric of its pair is dropped, of every pair of its column when it is a
    linearized system's. Returns ``(values, failures, reference)``:
    ``values[i][m]`` is the metric of pair (i, m), None where it was dropped,
    ``failures`` the SampleFailure of each dropped pair, with the step of its
    first failure and its column's key, sorted, and ``reference`` the metric
    of each column of d past the pairs. A column's sums do not depend on its
    batch, so every batch gives the reference's the same bits. Raises
    ValueError, before any integration, when there is no epsilon or no
    sample, or the pairs do not split evenly among the epsilons.
    """
    nodes = len(u0)
    steps = tgrid.steps
    keys = list(keys)
    driven = [s for s, kind in enumerate(kinds[:-1]) if kind is not SystemKind.LINEARIZED_CLT]
    pairs = len(driven) * len(keys)
    if not epsilons or not pairs:
        raise ValueError(
            f"need at least one epsilon and one sample, got {len(epsilons)} epsilons and "
            f"{len(keys)} stream keys"
        )
    samples, rest = divmod(pairs, len(epsilons))
    if rest:
        raise ValueError(
            f"{pairs} (system, column) pairs do not split among {len(epsilons)} epsilons"
        )
    strengths = np.asarray(epsilons, dtype=float)[
        np.arange(pairs).reshape(len(driven), len(keys)) // samples
    ]
    values = [None] * pairs
    failures = []
    for first in range(0, len(keys), BATCH_COLUMNS):
        batch = keys[first:first + BATCH_COLUMNS]
        width = len(batch)
        eps = strengths[:, first:first + width]
        block = min(steps + 1, max(1, BATCH_COLUMNS // eps.size))
        start = [
            np.zeros((nodes, 3, width)) if kind is SystemKind.LINEARIZED_CLT
            else np.repeat(u0[..., None], width, axis=2)
            for kind in kinds[:-1]
        ]
        buf = solver_empty((nodes, 3, len(start) * width + 1, block))
        gap = None

        def observe(n, u):
            nonlocal gap
            k = n % block
            if block == 1:
                # the step's own array: copying it into a one-step block costs more
                u = u[..., None]
            else:
                np.copyto(buf[..., k], u)
                if k < block - 1 and n < steps:
                    return
                u = buf[..., :k + 1]
            d = difference(n - k, u, eps)
            if gap is None:
                gap = StreamedPathGap(d.shape[2], tgrid, params.nu1)
            gap.add(n - k, d)

        failed, _ = integrate_batch(
            kinds, [*start, u0], params, tgrid, observe,
            spec=spec, ctrl=None if ctrl is None else (ctrl,) * len(kinds),
            rngs=[stream_rng(*key) for key in batch], epsilons=eps, keys=batch,
        )
        metrics = [float(v) for v in gap.values]
        for p in range(len(driven)):
            at = p * len(keys) + first
            values[at:at + width] = metrics[p * width:(p + 1) * width]
        reference = metrics[eps.size:]
        for exc in failed:
            column = first + batch.index(exc.key)
            rows = [driven.index(exc.system)] if exc.system in driven else range(len(driven))
            for p in rows:
                pair = p * len(keys) + column
                if values[pair] is not None:
                    values[pair] = None
                    failures.append(SampleFailure(*divmod(pair, samples), exc.step, exc.key))
    per_epsilon = [values[i * samples:(i + 1) * samples] for i in range(len(epsilons))]
    return per_epsilon, tuple(sorted(failures)), reference


def run_clt(
    epsilons,
    samples: int,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    initial: np.ndarray,
    base_seed: int,
) -> CltReport:
    """The central limit experiment: ``samples`` coupled columns from the
    (n, 3) field ``initial``, sample m on ``stream_rng(base_seed, m)``, each
    marching u_eps of every epsilon and one V0 on that one path, and the
    slope of the mean error against epsilon when at least three means are
    positive. A row depends on its own epsilon alone: run with that epsilon
    only, it has the same bits. The result depends on nothing but the
    arguments. Raises ValueError, before any integration, unless the
    epsilons are strictly decreasing in (0, 1] and there are at least 2
    samples."""
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

    def deviation_gap(n, u, eps):
        # (u_eps - u0) / sqrt(eps) - V0 of every epsilon, in place in the buffer of u_eps - u0
        m, pairs = eps.shape[1], eps.size
        d = minus_reference(work, u[:, :, :pairs], u[:, :, pairs + m:])
        if n == 0:
            # a new batch: sqrt(eps) across a whole block, which divides faster
            # than a (P*B,) array broadcast over the solver's layout
            np.copyto(scratch(work, "sqrt_eps", d.shape), np.sqrt(eps).reshape(-1, 1))
        d /= work["sqrt_eps"][..., :d.shape[3]]
        v0 = u[:, :, pairs:pairs + m]
        for first in range(0, pairs, m):
            d[:, :, first:first + m] -= v0
        return d

    kinds = (SystemKind.STOCHASTIC,) * len(epsilons) + (
        SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC
    )
    errors, failures, _ = run_columns(
        kinds, initial, epsilons, [(base_seed, m) for m in range(samples)], deviation_gap,
        params, tgrid, spec,
    )
    rows = [CltRow(eps, *sample_stats(e)) for eps, e in zip(epsilons, errors)]
    fit = None
    pts = [(r.epsilon, r.mean_error) for r in rows if r.n_ok > 0 and r.mean_error > 0.0]
    if len(pts) >= 3:
        fit = fit_slope(pts)
    return CltReport(rows=tuple(rows), fit=fit, failures=failures)


def a_priori_ensemble(
    epsilons,
    samples: int,
    params: ModelParams,
    tgrid: TimeGrid,
    spec: CovarianceSpec,
    initial: np.ndarray,
    base_seed: int,
) -> APrioriEnsemble:
    """The proof metric of u with ``params.nu1``,
    sup_n ||grad u_n||^2 + nu1 sum dt ||Lap u_n||^2, of the deterministic run
    from the (n, 3) field ``initial`` and of ``samples`` stochastic runs per
    epsilon, sample m of epsilon index i on ``stream_rng(base_seed, i, m)``:
    the quantity the a priori estimate bounds. The deterministic
    value is that of the reference column in the samples' own metric, so a
    sample at epsilon 0 gives it bitwise. Raises BlowUpError when the
    deterministic run blows up, and ValueError, before any integration, when
    there is no epsilon or no sample."""
    keys = [(base_seed, i, m) for i in range(len(epsilons)) for m in range(samples)]
    values, failures, (det,) = run_columns(
        (SystemKind.STOCHASTIC, SystemKind.DETERMINISTIC), initial, epsilons, keys,
        lambda n, u, eps: u, params, tgrid, spec,
    )
    return APrioriEnsemble(det, values, failures)


def write_clt_csv(report: CltReport, path) -> None:
    write_csv(path, CltRow._fields, report.rows)


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


def write_csv(path, header, rows) -> None:
    """Write the row ``header`` and ``rows`` through the csv module, the one writer
    of the small CSV tables; every float, numpy's too, is spelled as ``repr`` spells it."""
    rows = [[repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys, the one JSON writer of
    every output. JSON has no inf or nan (RFC 8259): a non-finite float is written
    as null, such as the mean of an epsilon whose samples all blew up."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
