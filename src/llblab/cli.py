"""Declarative experiment runner.

Experiments are described by a flat key = value config file (grammar below)
and produce plain CSV/JSON outputs plus a run manifest with a digest of every
emitted file. Every sample runs on its own counter-based stream, so reruns
with the same config and seed are byte-identical in the CSV outputs;
the manifest additionally carries the wall clock and so differs between runs
by design.

Config grammar: UTF-8 text, one ``key = value`` pair per line, ``#`` starts
a comment, blank lines are ignored. Keys are dot-namespaced and validated
against the table below; unknown keys and keys belonging to a different
experiment kind are errors, and all validation errors are reported together.
Lists are comma-separated. Paths are resolved relative to the working
directory and must exist at parse time.

Exit codes: 0 success, 1 validation suite failed, 2 config or command-line
usage error, 3 numerical blow-up, 4 I/O error. Every nonzero code but 1 comes
with one JSON error object on stdout.

The deterministic run stores no trajectory: it writes its report, its fields
dump and its energy balance a block of ``STACK_CHUNK`` steps at a time as it
marches, so its memory does not grow with the number of steps, and a run
that fails part way removes the files it had begun.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
# energy_drift, write_report_csv and write_fields_csv stay bound here, unused, and so does
# integrate, which only the rate run uses: perfbench/tracer.py patches all four in cli by name
from .analysis import StreamedEnergyDrift, energy_drift, identity_suite, sample_stats
from .clt import _finite_or_null, a_priori_ensemble, run_clt, write_clt_csv, write_clt_summary
# imported as _write_csv and _write_json: perfbench/tracer.py wraps both in cli by name
from .clt import write_csv as _write_csv, write_json as _write_json
from .dynamics import (
    FIELDS_HEADER,
    LINF_CEILING,
    REPORT_HEADER,
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    initial_profile,
    integrate,
    integrate_batch,
    overflowing_step_scalars,
    write_field_rows,
    write_fields_csv,
    write_report_csv,
    write_report_rows,
)
from .field import STACK_CHUNK, h1_norm, make_grid, read_csv_table, solver_empty
from .ldp import (
    RateProblem,
    WeakRow,
    compactness_probe,
    estimate_rate,
    final_penalty,
    weak_convergence_experiment,
)
# stream_rng stays bound here, unused: perfbench/tracer.py patches cli.stream_rng by name
from .noise import (
    ControlPath,
    make_covariance,
    read_control_coefficients,
    single_mode_control,
    stream_rng,
    write_control_csv,
    zero_control,
)

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Carries every validation error found in a config document."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_floats(text):
    return tuple(float(part) for part in text.split(","))


def _parse_ints(text):
    return tuple(int(part) for part in text.split(","))


def _parse_path(text):
    path = text.strip()
    if not os.path.exists(path):
        raise ValueError(f"file does not exist: {path}")
    return path


def _finite_positive(value):
    return math.isfinite(value) and value > 0


def _finite_nonnegative(value):
    return math.isfinite(value) and value >= 0


KINDS = (
    "validate",
    "deterministic",
    "stochastic-ensemble",
    "clt",
    "weak-convergence",
    "rate",
    "compactness",
)

# key -> (parser, default, kind restriction or None, constraint text, check)
KEY_TABLE = {
    "kind": (str, None, None, f"one of {', '.join(KINDS)}", lambda v: v in KINDS),
    "output.dir": (str, "out", None, "non-empty", lambda v: bool(v)),
    "seed": (int, 20240808, None, "integer >= 0", lambda v: v >= 0),
    "grid.n": (int, 127, None, "integer >= 3", lambda v: v >= 3),
    "time.horizon": (float, 0.25, None, "finite, > 0", _finite_positive),
    "time.steps": (int, 2500, None, "integer >= 1", lambda v: v >= 1),
    "model.nu1": (float, 1.0, None, "finite, > 0", _finite_positive),
    "model.nu2": (float, 1.0, None, "finite, >= 0", _finite_nonnegative),
    "model.gamma": (float, 1.0, None, "finite", math.isfinite),
    "model.mu": (float, 1.0, None, "finite, >= 0", _finite_nonnegative),
    "init.a": (float, 1.0, None, "finite", math.isfinite),
    "init.b": (float, 0.5, None, "finite", math.isfinite),
    "noise.modes": (int, 8, None, "integer >= 1", lambda v: v >= 1),
    "noise.alpha": (float, 4.0, None, "finite, > 3", lambda v: math.isfinite(v) and v > 3),
    "validate.samples": (int, 1000, "validate", "integer >= 1", lambda v: v >= 1),
    "validate.grids": (
        _parse_ints, (31, 127, 255), "validate", "grid sizes >= 3",
        lambda v: len(v) > 0 and all(n >= 3 for n in v),
    ),
    "deterministic.dump_fields": (_parse_bool, False, "deterministic", "boolean", lambda v: True),
    "ensemble.epsilons": (
        _parse_floats, (0.1, 0.01), "stochastic-ensemble", "values in [0, 1]",
        lambda v: len(v) > 0 and all(0 <= e <= 1 for e in v),
    ),
    "ensemble.samples": (int, 64, "stochastic-ensemble", "integer >= 1", lambda v: v >= 1),
    "clt.epsilons": (
        _parse_floats, (0.1, 0.01, 0.001), "clt", "strictly decreasing, in (0, 1]",
        lambda v: len(v) > 0
        and all(0 < e <= 1 for e in v)
        and all(b < a for a, b in zip(v, v[1:])),
    ),
    "clt.samples": (int, 64, "clt", "integer >= 2", lambda v: v >= 2),
    "weak.epsilons": (
        _parse_floats, (0.1, 0.01, 0.001), "weak-convergence", "values in [0, 1]",
        lambda v: len(v) > 0 and all(0 <= e <= 1 for e in v),
    ),
    "weak.samples": (int, 32, "weak-convergence", "integer >= 1", lambda v: v >= 1),
    "weak.control": (_parse_path, None, "weak-convergence", "existing file", lambda v: True),
    "weak.mode": (int, 1, "weak-convergence", "integer >= 1", lambda v: v >= 1),
    "weak.component": (int, 3, "weak-convergence", "1, 2 or 3", lambda v: v in (1, 2, 3)),
    "weak.coefficient": (float, 0.5, "weak-convergence", "finite", math.isfinite),
    "rate.target": (_parse_path, None, "rate", "existing file", lambda v: True),
    "rate.penalty": (float, 1.0e3, "rate", "finite, > 0", _finite_positive),
    "rate.modes": (int, 1, "rate", "integer >= 1", lambda v: v >= 1),
    "rate.slabs": (int, 5, "rate", "integer >= 1", lambda v: v >= 1),
    "rate.max_iters": (int, 60, "rate", "integer >= 1", lambda v: v >= 1),
    "rate.tolerance": (float, 1.0e-4, "rate", "finite, > 0", _finite_positive),
    "rate.continuation": (int, 1, "rate", "integer >= 0", lambda v: v >= 0),
    "compact.modes": (
        _parse_ints, (2, 4, 8), "compactness", "mode indices >= 1",
        lambda v: len(v) > 0 and all(m >= 1 for m in v),
    ),
    "compact.component": (int, 3, "compactness", "1, 2 or 3", lambda v: v in (1, 2, 3)),
    "compact.control": (_parse_path, None, "compactness", "existing file", lambda v: True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``raw`` echoes the parsed document."""

    kind: str
    settings: dict
    raw: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.settings[key]

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.settings["time.horizon"], self.settings["time.steps"])

    def model_params(self) -> ModelParams:
        return ModelParams(
            nu1=self.settings["model.nu1"],
            nu2=self.settings["model.nu2"],
            gamma=self.settings["model.gamma"],
            mu=self.settings["model.mu"],
        )

    def covariance(self):
        return make_covariance(self.settings["noise.modes"], self.settings["noise.alpha"])

    def initial(self) -> np.ndarray:
        grid = make_grid(self.settings["grid.n"])
        return initial_profile(grid, self.settings["init.a"], self.settings["init.b"])


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError with every problem."""
    errors = []
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value

    # an unknown kind is reported by the key loop, through KEY_TABLE's rule
    kind = raw["kind"] if raw.get("kind") in KINDS else None
    if "kind" not in raw:
        errors.append("missing required key 'kind'")

    settings: dict = {}
    for key, value in raw.items():
        if key not in KEY_TABLE:
            errors.append(f"unknown key {key!r}")
            continue
        parser, _, key_kind, constraint, check = KEY_TABLE[key]
        if key_kind is not None and kind is not None and key_kind != kind:
            errors.append(f"{key}: only valid for kind={key_kind}, config has kind={kind}")
            continue
        try:
            parsed = parser(value)
        except ValueError as exc:
            errors.append(f"{key}: {exc}")
            continue
        if not check(parsed):
            errors.append(f"{key}: must be {constraint}, got {value!r}")
            continue
        settings[key] = parsed

    if errors:
        raise ConfigError(errors)

    for key, (_, default, key_kind, _, _) in KEY_TABLE.items():
        if key in settings:
            continue
        if key_kind is None or key_kind == kind:
            settings[key] = default

    # cross-field constraints
    config = ExperimentConfig(kind=kind, settings=settings, raw=dict(raw))
    cross_errors = []
    if kind != "validate" and (overflowing := overflowing_step_scalars(
        config.model_params(), config.time_grid(), settings["grid.n"]
    )):
        names = ", ".join(overflowing)
        keys = [f"model.{p}" for p in ("nu1", "nu2", "gamma") if p in names]
        keys += ["grid.n"] * ("h^2" in names) + ["time.horizon", "time.steps"]
        cross_errors.append(f"{', '.join(keys)}: the step's {names} leave the double range")
    if kind == "rate" and settings["time.steps"] % settings["rate.slabs"] != 0:
        cross_errors.append(
            f"rate.slabs: must divide time.steps "
            f"({settings['rate.slabs']} does not divide {settings['time.steps']})"
        )
    if kind == "rate" and settings["rate.modes"] > settings["noise.modes"]:
        cross_errors.append("rate.modes: must not exceed noise.modes")
    if kind == "rate" and not math.isfinite(
        2.0 * final_penalty(settings["rate.penalty"], settings["rate.continuation"])
    ):
        cross_errors.append(
            "rate.penalty, rate.continuation: twice the last round's penalty, rate.penalty "
            f"times 10 ** rate.continuation, overflows ({settings['rate.penalty']!r} after "
            f"{settings['rate.continuation']} rounds)"
        )
    if kind == "compactness" and max(settings["compact.modes"]) > settings["noise.modes"]:
        cross_errors.append("compact.modes: entries must not exceed noise.modes")
    if kind == "weak-convergence" and settings["weak.mode"] > settings["noise.modes"]:
        cross_errors.append("weak.mode: must not exceed noise.modes")
    if cross_errors:
        raise ConfigError(cross_errors)

    return config


# ---------------------------------------------------------------------------
# output helpers

def _error(code: int, kind: str, **detail) -> int:
    """Print the JSON error object of a failed run on stdout; returns ``code``.
    JSON has no inf or nan (RFC 8259): a non-finite detail is printed as null,
    by the rule of ``clt.write_json``."""
    error = _finite_or_null({"error": {"code": code, "kind": kind, **detail}})
    print(json.dumps(error, allow_nan=False))
    return code


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_target_field(path, nodes: int) -> np.ndarray:
    """Read a target CSV (node_index,ux,uy,uz) into a (nodes, 3) field; malformed
    content, such as a node index listed twice, or a node without a row, raises ValueError."""
    values, seen = read_csv_table(path, ("node_index", "ux", "uy", "uz"), (nodes,), (0,))
    if not seen.all():
        raise ValueError(f"{path}: {int((~seen).sum())} node values missing")
    return values


def _read_table(config: ExperimentConfig, key: str, read, *args):
    """``read(path, *args)`` of the input table that ``key`` names; malformed
    content is a ConfigError naming the key and the file."""
    path = config[key]
    try:
        return read(path, *args)
    except ValueError as exc:
        raise ConfigError([f"{key}: {exc}"]) from None


def _load_control(config: ExperimentConfig, key: str, tgrid: TimeGrid, modes: int) -> ControlPath:
    coeffs = _read_table(config, key, read_control_coefficients, tgrid.steps, modes)
    return ControlPath(coeffs, tgrid.dt)


# ---------------------------------------------------------------------------
# experiment drivers

def _run_validate(config: ExperimentConfig, output) -> int:
    reports = identity_suite(
        grid_sizes=config["validate.grids"],
        samples=config["validate.samples"],
        base_seed=config["seed"],
    )
    _write_csv(
        output("identity_report.csv"),
        ["name", "residual", "tolerance", "passed"],
        [(r.name, r.residual, r.tolerance, r.passed) for r in reports],
    )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILED


@contextmanager
def _outputs(paths):
    """The files ``paths`` opened for binary writing; when the block raises, every
    file it opened is removed, so a failed run leaves no partial output."""
    handles = []
    try:
        for path in paths:
            handles.append(open(path, "wb"))
        yield handles
    except BaseException:
        for fh in handles:
            fh.close()
            os.remove(fh.name)
        raise
    finally:
        for fh in handles:
            fh.close()


def _run_deterministic(config: ExperimentConfig, output) -> int:
    """March u_0 as the one shared column of a batch and write every output as
    it marches; its blow-up is raised as ``integrate`` raises it.

    The observer copies each step into a buffer of at most ``STACK_CHUNK``
    snapshots. Each full block, and the last one, takes one norm pass whose
    rows feed the report, the energy balance and, for the last block, the
    final norms; its states feed the fields dump. Memory does not grow with
    the number of steps.
    """
    tgrid = config.time_grid()
    params = config.model_params()
    u0 = config.initial()
    # the times column: a grid too long to hold fails to allocate before step 0
    times = tgrid.times
    drift = StreamedEnergyDrift(params, tgrid)
    # (S, n, 3) snapshots in the solver's memory order: every component of a
    # snapshot is one contiguous n-vector, for the pointwise kernels of the drift
    snaps = np.moveaxis(solver_empty(u0.shape + (min(STACK_CHUNK, tgrid.steps + 1),)), -1, 0)
    final = None
    names = ["trajectory_report.csv"]
    if config["deterministic.dump_fields"]:
        names.append("fields.csv")
    with _outputs(map(output, names)) as (report, *fields):
        report.write(REPORT_HEADER)
        for fh in fields:
            fh.write(FIELDS_HEADER)

        def observe(n, u):
            nonlocal final
            k = n % len(snaps)
            snaps[k] = u[..., 0]
            if k + 1 < len(snaps) and n < tgrid.steps:
                return
            first = n - k
            block = snaps[:k + 1]
            steps = np.arange(first, n + 1)
            rows = drift.add(first, block)
            write_report_rows(report, steps, times[first:n + 1], rows)
            for fh in fields:
                write_field_rows(fh, steps, block)
            final = rows[-1]

        _, cfl = integrate_batch((SystemKind.DETERMINISTIC,), (u0,), params, tgrid, observe)
        # written before the streamed files close: on ext4, truncating a file just
        # after closing a large rewritten one waits for the flush that the close starts
        final_l2, final_h1_semi = final[:2].tolist()
        _write_json(
            output("summary.json"),
            {
                "final_l2": final_l2,
                "final_h1_semi": final_h1_semi,
                "energy_drift": drift.value,
                "explicit_cfl": cfl,
            },
        )
    return EXIT_OK


def _run_ensemble(config: ExperimentConfig, output) -> int:
    epsilons = config["ensemble.epsilons"]
    det, per_epsilon, failures = a_priori_ensemble(
        epsilons, config["ensemble.samples"], config.model_params(), config.time_grid(),
        config.covariance(), config.initial(), config["seed"],
    )
    rows = []
    summary_rows = []
    for eps, values in zip(epsilons, per_epsilon):
        for m, value in enumerate(values):
            rows.append((eps, m, math.nan, "blow-up") if value is None else (eps, m, value, "ok"))
        stats = sample_stats(values)
        summary_rows.append(
            {
                "epsilon": eps,
                "mean_metric": stats.mean,
                # a zero initial state leaves the deterministic run at zero: no ratio
                "ratio_vs_deterministic": stats.mean / det if det > 0.0 else None,
                "n_ok": stats.n_ok,
                "n_failed": stats.n_failed,
            }
        )
    _write_csv(output("ensemble_report.csv"), ["epsilon", "sample", "metric", "status"], rows)
    _write_json(
        output("summary.json"),
        {
            "deterministic_metric": det,
            "rows": summary_rows,
            "failures": [f._asdict() for f in failures],
        },
    )
    return EXIT_OK


def _run_clt(config: ExperimentConfig, output) -> int:
    report = run_clt(
        config["clt.epsilons"], config["clt.samples"], config.model_params(), config.time_grid(),
        config.covariance(), config.initial(), config["seed"],
    )
    write_clt_csv(report, output("clt_report.csv"))
    write_clt_summary(report, output("summary.json"))
    return EXIT_OK


def _run_weak(config: ExperimentConfig, output) -> int:
    tgrid = config.time_grid()
    spec = config.covariance()
    if config["weak.control"] is not None:
        ctrl = _load_control(config, "weak.control", tgrid, spec.mode_count)
    else:
        ctrl = single_mode_control(
            tgrid.steps,
            spec.mode_count,
            tgrid.dt,
            mode=config["weak.mode"],
            component=config["weak.component"],
            coefficient=config["weak.coefficient"],
        )
    cost = ctrl.h0_cost()
    if not math.isfinite(cost):
        key = "weak.control" if config["weak.control"] is not None else "weak.coefficient"
        raise ConfigError([f"{key}: the control's H0 cost 0.5 * sum_n dt |c_n|^2 overflows"])
    rows, failures = weak_convergence_experiment(
        ctrl,
        config["weak.epsilons"],
        config["weak.samples"],
        config.model_params(),
        tgrid,
        spec,
        config.initial(),
        config["seed"],
    )
    _write_csv(output("weak_report.csv"), WeakRow._fields, rows)
    _write_json(
        output("summary.json"),
        {
            "rows": [r._asdict() for r in rows],
            "control_cost": cost,
            "failures": [f._asdict() for f in failures],
        },
    )
    return EXIT_OK


def _run_rate(config: ExperimentConfig, output) -> int:
    tgrid = config.time_grid()
    spec = config.covariance()
    params = config.model_params()
    init = config.initial()
    if config["rate.target"] is not None:
        target = _read_table(config, "rate.target", _read_target_field, config["grid.n"])
        # a skeleton state above the ceiling is a blow-up, so no control reaches
        # it; hypot takes each node's |u| without squares that could overflow
        if np.hypot.reduce(target, axis=1).max() > LINF_CEILING:
            raise ConfigError([
                f"rate.target: {config['rate.target']}: a node's |u| exceeds the blow-up "
                f"ceiling {LINF_CEILING:g}, which no skeleton state reaches"
            ])
    else:
        det = integrate(SystemKind.DETERMINISTIC, init, params, tgrid, stride=tgrid.steps)
        target = det.final_values()
    problem = RateProblem(
        target=target,
        penalty=config["rate.penalty"],
        control_modes=config["rate.modes"],
        control_steps=config["rate.slabs"],
        max_iters=config["rate.max_iters"],
        tolerance=config["rate.tolerance"],
        continuation_rounds=config["rate.continuation"],
    )
    estimate = estimate_rate(problem, params, tgrid, spec, init)
    _write_json(
        output("rate_estimate.json"),
        {
            "cost": estimate.cost,
            "misfit": estimate.misfit,
            "target_h1": h1_norm(target),
            "iterations": estimate.iterations,
            "converged": estimate.converged,
            "gradient_norm": estimate.gradient_norm,
            "skeleton_solves": estimate.skeleton_solves,
            "adjoint_sweeps": estimate.adjoint_sweeps,
        },
    )
    write_control_csv(estimate.control, output("control.csv"))
    return EXIT_OK


def _run_compactness(config: ExperimentConfig, output) -> int:
    tgrid = config.time_grid()
    spec = config.covariance()
    if config["compact.control"] is not None:
        ctrl = _load_control(config, "compact.control", tgrid, spec.mode_count)
    else:
        ctrl = zero_control(tgrid.steps, spec.mode_count, tgrid.dt)
    table = compactness_probe(
        ctrl,
        config["compact.modes"],
        config.model_params(),
        tgrid,
        spec,
        config.initial(),
        component=config["compact.component"],
    )
    _write_csv(output("compactness_report.csv"), ["mode", "metric"], table)
    _write_json(
        output("summary.json"),
        {
            "rows": [{"mode": mode, "metric": metric} for mode, metric in table],
            "monotone_decreasing": all(
                b[1] < a[1] for a, b in zip(table, table[1:])
            ),
        },
    )
    return EXIT_OK


DRIVERS = {
    "validate": _run_validate,
    "deterministic": _run_deterministic,
    "stochastic-ensemble": _run_ensemble,
    "clt": _run_clt,
    "weak-convergence": _run_weak,
    "rate": _run_rate,
    "compactness": _run_compactness,
}


def run(config: ExperimentConfig, out_dir: str | None = None) -> int:
    """Dispatch the experiment, persist outputs and the manifest, return exit code.

    A driver takes the config and ``output(name)``, which returns the path of
    the file ``name`` in the run's directory and lists it for the manifest,
    and returns its exit code.
    """
    outdir = out_dir if out_dir is not None else config["output.dir"]
    started = time.perf_counter()
    names = []

    def output(name):
        names.append(name)
        return os.path.join(outdir, name)

    try:
        os.makedirs(outdir, exist_ok=True)
        code = DRIVERS[config.kind](config, output)
        manifest = {
            "version": __version__,
            "kind": config.kind,
            "config": config.raw,
            "wall_clock_seconds": time.perf_counter() - started,
            "outputs": {name: _sha256(os.path.join(outdir, name)) for name in names},
        }
        _write_json(os.path.join(outdir, "manifest.json"), manifest)
    except ConfigError as exc:
        return _error(EXIT_CONFIG, "config", messages=exc.errors)
    except BlowUpError as exc:
        return _error(
            EXIT_BLOWUP, "blow-up", message=str(exc), step=exc.step, key=exc.key, linf=exc.linf,
            ratio=exc.ratio,
        )
    except OSError as exc:
        return _error(EXIT_IO, "io", message=str(exc))
    except MemoryError as exc:
        # numpy names the allocation it could not make, e.g. a time grid of 1e12 steps
        return _error(EXIT_CONFIG, "config", messages=[f"the run needs more memory: {exc}"])
    return code


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as the JSON error object of exit code 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.exit(_error(EXIT_CONFIG, "usage", message=message))


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="llblab",
        description="Run one experiment described by a config file.",
    )
    parser.add_argument("--config", required=True, help="path to the config document")
    parser.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _error(EXIT_IO, "io", message=str(exc))
    except UnicodeDecodeError as exc:
        message = f"{args.config}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        return _error(EXIT_CONFIG, "config", messages=[message])

    try:
        config = parse_config(text)
    except ConfigError as exc:
        return _error(EXIT_CONFIG, "config", messages=exc.errors)

    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
