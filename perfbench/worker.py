"""Measured process of one benchmark run; started by run.py with BLAS pinned to 1 thread.

Builds the workload's inputs from the seed, warms up on a small config of the
same kind, then times ``llblab.cli.run`` in whole rounds: one round runs each
of the workload's configs once, each into its own output directory, and
after each CLI run times the start-up of a fresh CLI process. A calibration
loop timed between these items gives each its host slowdown. Rounds repeat
until the requested seconds have passed and every config has run at least
twice. Prints one JSON line with the timings and slowdowns, the start-up
phases, the process's peak RSS, the manifest digests of every repeat and,
when traced, the per-layer metrics of the traced repeat with the median
corrected time, its times divided by its slowdown.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import llblab
from llblab.cli import parse_config, run

MIN_ROUNDS = 2
SETUP_TIMEOUT_S = 30
# Start-up of a CLI process: imports, then config parsing. CLOCK_MONOTONIC is
# system-wide on Linux, so the stamps compare with the launching process's.
SETUP_PROBE = """\
import sys, time
clock = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
t0 = clock()
import numpy
t1 = clock()
import scipy.linalg
t2 = clock()
import llblab.cli
t3 = clock()
with open(sys.argv[1]) as fh:
    llblab.cli.parse_config(fh.read())
print(t0, t1, t2, t3, clock())
"""
# The rate round trip recovers this known control h*.
H_STAR = {"mode": 1, "component": 3, "coefficient": 0.5}

ACCEPTANCE_GRID = {"grid.n": 127, "time.horizon": 0.25, "time.steps": 2500, "noise.modes": 8}
RATE_GRID = {"grid.n": 31, "time.horizon": 0.25, "time.steps": 250, "noise.modes": 8}
WARMUP_GRID = {"grid.n": 15, "time.horizon": 0.25, "time.steps": 50, "noise.modes": 8}
CLT_EPSILONS = (0.1, 0.01, 0.001)
# Four short CLI runs of 2 samples per epsilon instead of one long run: the
# median of many short repeats averages the host's slow phases over the whole
# run, and the checks pool the four runs into 8 samples per epsilon.
CLT_CONFIGS = 4
CLT_SAMPLES = 2
RATE_MAX_ITERS = 4


def _lines(settings: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def clt_configs(seed: int, outdir: str) -> tuple[list, str, dict]:
    body = "kind = clt\nclt.epsilons = " + ", ".join(map(repr, CLT_EPSILONS)) + "\n"
    body += f"clt.samples = {CLT_SAMPLES}\n"
    texts = [
        f"seed = {CLT_CONFIGS * seed + k}\n" + body + _lines(ACCEPTANCE_GRID)
        for k in range(CLT_CONFIGS)
    ]
    warm = f"seed = {seed}\n" + body + _lines(WARMUP_GRID)
    return texts, warm, {"epsilons": CLT_EPSILONS, "samples": CLT_SAMPLES}


def write_rate_target(path: str) -> None:
    """Skeleton endpoint under h*, written as a target CSV."""
    from llblab.dynamics import ModelParams, SystemKind, TimeGrid, initial_profile, integrate
    from llblab.field import make_grid
    from llblab.noise import make_covariance, single_mode_control

    grid = make_grid(RATE_GRID["grid.n"])
    tgrid = TimeGrid(RATE_GRID["time.horizon"], RATE_GRID["time.steps"])
    spec = make_covariance(RATE_GRID["noise.modes"])
    ctrl = single_mode_control(tgrid.steps, spec.mode_count, tgrid.dt, **H_STAR)
    rec = integrate(
        SystemKind.SKELETON, initial_profile(grid), ModelParams(), tgrid,
        spec=spec, ctrl=ctrl, stride=tgrid.steps,
    )
    with open(path, "w") as fh:
        fh.write("node_index,ux,uy,uz\n")
        for i, (x, y, z) in enumerate(rec.final_values().tolist()):
            fh.write(f"{i},{x!r},{y!r},{z!r}\n")


def rate_configs(seed: int, outdir: str) -> tuple[list, str, dict]:
    target = os.path.join(outdir, "target.csv")
    write_rate_target(target)
    body = (
        f"kind = rate\nseed = {seed}\nrate.target = {target}\nrate.penalty = 1e4\n"
        "rate.modes = 1\nrate.slabs = 5\nrate.continuation = 0\n"
    )
    horizon, steps = RATE_GRID["time.horizon"], RATE_GRID["time.steps"]
    # h* is constant over the horizon, so its H0 cost is 0.5 * T * c^2.
    h_star_cost = 0.5 * horizon * H_STAR["coefficient"] ** 2
    return (
        [body + _lines(RATE_GRID) + f"rate.max_iters = {RATE_MAX_ITERS}\n"],
        body + _lines(dict(RATE_GRID, **{"time.steps": 50})) + "rate.max_iters = 1\n",
        {"target_csv": target, "h_star_cost": h_star_cost, "horizon": horizon, "steps": steps},
    )


def det_configs(seed: int, outdir: str) -> tuple[list, str, dict]:
    rng = random.Random(seed)
    body = (
        f"kind = deterministic\nseed = {seed}\ninit.a = {rng.uniform(0.9, 1.1)!r}\n"
        f"init.b = {rng.uniform(0.4, 0.6)!r}\ndeterministic.dump_fields = true\n"
    )
    return (
        [body + _lines(ACCEPTANCE_GRID)],
        body + _lines(WARMUP_GRID),
        {"n_nodes": ACCEPTANCE_GRID["grid.n"], "steps": ACCEPTANCE_GRID["time.steps"]},
    )


WORKLOADS = {"clt": clt_configs, "rate-roundtrip": rate_configs, "det-dump": det_configs}


def _timed_run(text: str, outdir: str, tracer=None) -> dict:
    """Parse the config, then time one ``run`` to outputs and manifest written."""
    t0 = time.perf_counter()
    config = parse_config(text)
    t1 = time.perf_counter()
    c1 = time.process_time()
    code = (run if tracer is None else tracer.span("cli.run", run))(config, out_dir=outdir)
    t2 = time.perf_counter()
    c2 = time.process_time()
    rep = {"code": code, "parse_s": t1 - t0, "wall_s": t2 - t1, "cpu_s": c2 - c1, "outputs": {}}
    if code == 0:
        with open(os.path.join(outdir, "manifest.json")) as fh:
            rep["outputs"] = json.load(fh)["outputs"]
        rep["output_bytes"] = sum(
            os.path.getsize(os.path.join(outdir, name)) for name in [*rep["outputs"], "manifest.json"]
        )
    return rep


# Host-speed calibration: a fixed computation that does not touch llblab,
# small-array numpy calls and float formatting like the CLI's hot paths. It
# takes about CAL_REFERENCE_S on the reference machine (README) with no other
# load; its time just before and after a timed item, over CAL_REFERENCE_S,
# is the item's host slowdown.
CAL_A = np.linspace(0.0, 1.0, 381).reshape(127, 3)
CAL_B = CAL_A[::-1].copy()
CAL_ITERS = 4000
CAL_REFERENCE_S = 0.1


def _calibration_s() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        c = np.cross(CAL_A, CAL_B)
        acc += float(np.dot(c[:, 0], c[:, 1])) + 1.0e-3 * float(np.diff(CAL_A, axis=0).sum())
        if i % 8 == 0:
            acc += len(repr(acc * 1.000001))
    return time.perf_counter() - t0


def _timed_setup(config_path: str) -> dict:
    """One fresh interpreter, from just before its launch to the config parsed."""
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, config_path],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    t0, t1, t2, t3, t4 = map(float, proc.stdout.split())
    return {
        "setup_s": t4 - launched,
        "setup.import_numpy_s": t1 - t0,
        "setup.import_scipy_s": t2 - t1,
        "setup.import_llblab_s": t3 - t2,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.realpath(llblab.__file__)) != os.path.realpath(os.path.join(args.src, "llblab")):
        print(f"llblab imported from {llblab.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    shutil.rmtree(args.outdir, ignore_errors=True)
    os.makedirs(args.outdir)
    texts, warm_text, check = WORKLOADS[args.workload](args.seed, args.outdir)
    rundirs = [os.path.join(args.outdir, f"run{k}") for k in range(len(texts))]
    config_path = os.path.join(args.outdir, "config.cfg")
    with open(config_path, "w") as fh:
        fh.write(texts[0])
    _timed_run(warm_text, os.path.join(args.outdir, "warmup"))

    tracer_cls = None
    if args.trace:
        from tracer import Tracer as tracer_cls
    reps, setups, traced = [], [], []
    started = time.perf_counter()
    # A traced round already runs every config twice, untraced and traced.
    min_rounds = 1 if args.trace else MIN_ROUNDS
    rounds = 0
    cal = _calibration_s()
    while time.perf_counter() - started < args.seconds or rounds < min_rounds:
        for k, (text, rundir) in enumerate(zip(texts, rundirs)):
            rep = dict(_timed_run(text, rundir), config=k)
            cal_after = _calibration_s()
            reps.append(dict(rep, slowdown=(cal + cal_after) / (2.0 * CAL_REFERENCE_S)))
            setup = _timed_setup(config_path)
            cal = _calibration_s()
            setups.append(dict(setup, slowdown=(cal_after + cal) / (2.0 * CAL_REFERENCE_S)))
            if tracer_cls is None:
                continue
            tracer = tracer_cls()
            tracer.install()
            try:
                rep = dict(_timed_run(text, rundir, tracer), config=k)
            finally:
                tracer.uninstall()
            cal_after = _calibration_s()
            traced.append((dict(rep, slowdown=(cal + cal_after) / (2.0 * CAL_REFERENCE_S)), tracer))
            cal = cal_after
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "check": check, "rundirs": rundirs, "repeats": reps, "setups": setups,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        by_time = sorted(traced, key=lambda pair: pair[0]["wall_s"] / pair[0]["slowdown"])
        rep, tracer = by_time[(len(by_time) - 1) // 2]
        layers = tracer.layer_metrics()
        layers["cli.parse_config_s"] = rep["parse_s"]
        for name in layers:
            if name.endswith("_s") or name in ("clt.s_per_sample", "dynamics.us_per_step"):
                layers[name] /= rep["slowdown"]
        layers["cli.output_mb"] = rep.get("output_bytes", 0) / 1.0e6
        result.update(traced_repeats=[r for r, _ in traced], layers=layers)
        tracer.save(os.path.join(args.outdir, "trace.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
