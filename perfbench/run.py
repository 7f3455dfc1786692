"""End-to-end benchmark of the llblab CLI.

Run from the repository root:

    python3 perfbench/run.py --workload clt --seed 1 --seconds 20 --trace 0

Starts one worker process (perfbench/worker.py, BLAS pinned to one thread)
that times ``llblab.cli.run`` on the workload's config for ``--seconds`` and,
after each CLI run, interpreter start-up through config parsing in a fresh
process, each time with the host's slowdown measured around it. Checks every
output with perfbench/checks.py and prints one JSON line: the end-to-end
metrics (medians of the times corrected for host speed) with ``--trace 0``,
the per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

CHECKS = {
    "clt": checks.check_clt,
    "rate-roundtrip": checks.check_rate,
    "det-dump": checks.check_deterministic,
}
WORKER_TIMEOUT_S = 150

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, outdir: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--outdir", outdir, "--src", SRC,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not os.path.isfile(os.path.join(SRC, "llblab", "cli.py")):
        print(f"llblab sources not found under {SRC}", file=sys.stderr)
        return 2
    outdir = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    try:
        result = run_worker(args, outdir)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    repeats = result["repeats"] + result.get("traced_repeats", [])
    ok = [r for r in repeats if r["code"] == 0]
    if ok:
        problems = checks.check_digests(result["rundirs"], ok)
        problems += CHECKS[args.workload](result["rundirs"], **result["check"])
    else:
        problems = ["no run succeeded"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced = [r for r in result["repeats"] if r["code"] == 0] or result["repeats"]
    setups = result["setups"]
    if args.trace:
        # Each traced run follows an untraced run of the same config.
        ratios = [
            (t["wall_s"] / t["slowdown"]) / (u["wall_s"] / u["slowdown"])
            for u, t in zip(result["repeats"], result["traced_repeats"])
        ]
        values = dict(result["layers"])
        for key in ("setup.import_numpy_s", "setup.import_scipy_s", "setup.import_llblab_s"):
            values[key] = statistics.median(s[key] / s["slowdown"] for s in setups)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    else:
        # Times at the host's unloaded speed: each raw time over its slowdown.
        values = {
            "wall_s": statistics.median(r["wall_s"] / r["slowdown"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] / r["slowdown"] for r in untraced),
            "setup_s": statistics.median(s["setup_s"] / s["slowdown"] for s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    raw = {
        "raw_wall_s": statistics.median(r["wall_s"] for r in untraced),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "slowdown": statistics.median(r["slowdown"] for r in untraced),
    }
    print("uncorrected medians and host slowdown:", json.dumps(raw))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(repeats),
        "failed": len(repeats) - len(ok),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
