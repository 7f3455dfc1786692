"""Output checks for the benchmark workloads.

Every check reads the files an experiment wrote and recomputes what it can
with plain numpy, without importing llblab, so a fault in the program cannot
hide itself. Each function returns a list of problems; an empty list means
the outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

CLT_MIN_SLOPE = 0.7
RATE_COST_FACTOR = 1.05
RATE_MISFIT_FACTOR = 1.0e-2
NORM_RTOL = 1.0e-12


def _read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def field_norms(values: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """L2 and H1-seminorm of fields shaped (..., n_nodes, 3) with zero boundary."""
    h = 1.0 / (n_nodes + 1)
    pad = [(0, 0)] * (values.ndim - 2) + [(1, 1), (0, 0)]
    padded = np.pad(values, pad)
    grad = np.diff(padded, axis=-2) / h
    l2 = np.sqrt(h * np.sum(values * values, axis=(-2, -1)))
    h1 = np.sqrt(h * np.sum(grad * grad, axis=(-2, -1)))
    return l2, h1


def fit_slope(epsilons, errors) -> float:
    """Least-squares slope of log(error) against log(epsilon)."""
    return float(np.polyfit(np.log(epsilons), np.log(errors), 1)[0])


def _clt_means(outdir, epsilons, samples, problems) -> list[float]:
    header, rows = _read_rows(os.path.join(outdir, "clt_report.csv"))
    if header != ["epsilon", "mean_error", "std_error", "n_ok", "n_failed"]:
        problems.append(f"{outdir}: unexpected clt_report.csv header {header}")
        return []
    eps = [float(r[0]) for r in rows]
    means = [float(r[1]) for r in rows]
    if eps != [float(e) for e in epsilons]:
        problems.append(f"{outdir}: epsilons {eps}, expected {list(epsilons)}")
    for r in rows:
        if int(r[3]) != samples or int(r[4]) != 0:
            problems.append(
                f"{outdir}: epsilon {r[0]} has n_ok {r[3]}, n_failed {r[4]}; expected {samples}, 0"
            )
    if all(math.isfinite(m) and m > 0.0 for m in means):
        with open(os.path.join(outdir, "summary.json")) as fh:
            reported = json.load(fh)["slope"]
        slope = fit_slope(eps, means)
        if reported is None or abs(reported - slope) > 1.0e-9:
            problems.append(f"{outdir}: summary slope {reported} differs from refit {slope}")
    return means


def check_clt(outdirs, epsilons, samples) -> list[str]:
    """No failed samples; over the pooled runs, mean error strictly decreasing
    in epsilon and a fitted slope of at least 0.7."""
    problems = []
    per_run = [_clt_means(d, epsilons, samples, problems) for d in outdirs]
    if problems:
        return problems
    means = np.mean(per_run, axis=0).tolist()
    if not all(math.isfinite(m) and m > 0.0 for m in means):
        return [f"clt pooled mean errors not positive and finite: {means}"]
    if not all(b < a for a, b in zip(means, means[1:])):
        problems.append(f"clt pooled mean error not strictly decreasing in epsilon: {means}")
    slope = fit_slope(epsilons, means)
    if not slope >= CLT_MIN_SLOPE:
        problems.append(f"clt pooled slope {slope:.4f} below {CLT_MIN_SLOPE}")
    return problems


def _read_target(path) -> np.ndarray:
    header, rows = _read_rows(path)
    order = np.argsort([int(r[0]) for r in rows])
    return np.array([[float(v) for v in r[1:4]] for r in rows])[order]


def check_rate(outdirs, target_csv, h_star_cost, horizon, steps) -> list[str]:
    """Cost within 5 % of the known control's, misfit small, cost matches control.csv."""
    target = _read_target(target_csv)
    l2, h1 = field_norms(target, target.shape[0])
    target_h1 = math.hypot(float(l2), float(h1))
    problems = []
    for outdir in outdirs:
        problems += _rate_problems(outdir, target_h1, h_star_cost, horizon, steps)
    return problems


def _rate_problems(outdir, target_h1, h_star_cost, horizon, steps) -> list[str]:
    with open(os.path.join(outdir, "rate_estimate.json")) as fh:
        est = json.load(fh)
    problems = []
    if not est["cost"] <= RATE_COST_FACTOR * h_star_cost:
        problems.append(f"rate cost {est['cost']} above {RATE_COST_FACTOR} x {h_star_cost}")
    if not est["misfit"] <= RATE_MISFIT_FACTOR * target_h1:
        problems.append(f"rate misfit {est['misfit']} above {RATE_MISFIT_FACTOR} x {target_h1}")
    if not math.isclose(est["target_h1"], target_h1, rel_tol=NORM_RTOL):
        problems.append(f"rate target_h1 {est['target_h1']} differs from recomputed {target_h1}")
    header, rows = _read_rows(os.path.join(outdir, "control.csv"))
    coeffs = np.array([float(r[3]) for r in rows])
    if len({int(r[0]) for r in rows}) != steps:
        problems.append(f"control.csv does not cover {steps} steps")
    cost = 0.5 * (horizon / steps) * float(np.dot(coeffs, coeffs))
    if not math.isclose(cost, est["cost"], rel_tol=NORM_RTOL):
        problems.append(f"rate cost {est['cost']} differs from control.csv cost {cost}")
    return problems


def check_deterministic(outdirs, n_nodes, steps) -> list[str]:
    """L2 and H1 nonincreasing; both recomputed from fields.csv match the report."""
    problems = []
    for outdir in outdirs:
        problems += _deterministic_problems(outdir, n_nodes, steps)
    return problems


def _deterministic_problems(outdir, n_nodes, steps) -> list[str]:
    report = np.loadtxt(os.path.join(outdir, "trajectory_report.csv"), delimiter=",", skiprows=1, ndmin=2)
    fields = np.loadtxt(os.path.join(outdir, "fields.csv"), delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if report.shape[0] != steps + 1:
        return [f"trajectory_report.csv has {report.shape[0]} rows, expected {steps + 1}"]
    if fields.shape != ((steps + 1) * n_nodes, 5):
        return [f"fields.csv has shape {fields.shape}, expected {((steps + 1) * n_nodes, 5)}"]
    expected_index = np.stack(np.meshgrid(np.arange(steps + 1), np.arange(n_nodes), indexing="ij"), -1)
    if not np.array_equal(fields[:, :2], expected_index.reshape(-1, 2)):
        problems.append("fields.csv rows are not (step, node) in order")
    l2, h1 = report[:, 2], report[:, 3]
    for name, col in (("l2", l2), ("h1_semi", h1)):
        rises = np.flatnonzero(col[1:] > col[:-1])
        if rises.size:
            problems.append(f"{name} increases at step {int(rises[0]) + 1}")
    l2_re, h1_re = field_norms(fields[:, 2:].reshape(steps + 1, n_nodes, 3), n_nodes)
    for name, col, re in (("l2", l2, l2_re), ("h1_semi", h1, h1_re)):
        err = np.abs(col - re) / np.maximum(np.abs(re), np.finfo(float).tiny)
        if not err.max() <= NORM_RTOL:
            problems.append(
                f"{name} from fields.csv differs from the report by {err.max():.3g} "
                f"at step {int(err.argmax())}"
            )
    return problems


def check_digests(outdirs, repeats) -> list[str]:
    """Per config, CSV digests identical across repeats and the manifest matches the files."""
    problems = []
    for k, outdir in enumerate(outdirs):
        digests = [r["outputs"] for r in repeats if r["config"] == k]
        csv_digests = [{n: d for n, d in out.items() if n.endswith(".csv")} for out in digests]
        if len(csv_digests) < 2 or not csv_digests[0]:
            problems.append(f"{outdir}: fewer than two repeats with CSV outputs")
            continue
        if any(d != csv_digests[0] for d in csv_digests[1:]):
            problems.append(f"{outdir}: CSV digests differ between repeats")
        for name, digest in digests[-1].items():
            if sha256_file(os.path.join(outdir, name)) != digest:
                problems.append(f"{outdir}: {name} does not match its manifest digest")
    return problems
