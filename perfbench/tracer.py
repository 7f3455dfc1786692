"""Spans and counts recorded around llblab's public functions, from outside.

The llblab modules bind their collaborators with ``from .field import ...``,
so a wrapper takes effect only where the caller looks the name up: each
wrapper is installed as an attribute of the calling module and removed again
by ``uninstall``. Spans (name, parent, start, end) are kept in flat arrays in
memory; ``layer_metrics`` aggregates them and ``save`` writes them out.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import llblab.cli
import llblab.clt
import llblab.dynamics
import llblab.field
import llblab.ldp
import llblab.noise
import llblab.analysis

KERNELS = ("lap_values", "cross_values", "helm_values", "grad_values", "sq_norm_values")
INTEGRATE_KINDS = ("deterministic", "stochastic", "linearized-clt", "skeleton")
CLI_WRITERS = (
    "write_report_csv",
    "write_fields_csv",
    "write_clt_csv",
    "write_clt_summary",
    "write_control_csv",
    "_write_json",
    "_write_csv",
    "_sha256",
)


class _TracedRng:
    """Generator proxy whose ``normal`` draws are recorded as noise spans."""

    def __init__(self, rng, normal):
        self._rng = rng
        self.normal = normal

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span; ``name`` may be a function of the args."""
        fixed = None if callable(name) else self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        cli, clt, dyn, field, ldp, analysis = (
            llblab.cli, llblab.clt, llblab.dynamics, llblab.field, llblab.ldp, llblab.analysis
        )
        for kernel in KERNELS:
            wrapped = self.span(f"field.{kernel}", getattr(field, kernel))
            for module in (field, dyn, analysis):
                if hasattr(module, kernel):
                    self._patch(module, kernel, wrapped)

        def integrated(args, kwargs, rec):
            self.add("dynamics.integrate.steps", rec.steps)
            self.add("dynamics.snapshots_bytes", rec.snapshots.nbytes)

        integrate = self.span(
            lambda args, kwargs: f"dynamics.integrate.{args[0].value}",
            dyn.integrate,
            integrated,
        )
        for module in (cli, clt, ldp):
            self._patch(module, "integrate", integrate)

        def drawn(args, kwargs, path):
            self.add("noise.draw_bytes", path.nbytes)

        def traced_rng(*args, **kwargs):
            rng = llblab.noise.stream_rng(*args, **kwargs)
            return _TracedRng(rng, self.span("noise.draw", rng.normal, drawn))

        for module in (cli, clt, ldp):
            self._patch(module, "stream_rng", traced_rng)

        path_gap = self.span("analysis.path_gap", analysis.path_gap)
        self._patch(clt, "path_gap", path_gap)
        self._patch(ldp, "path_gap", path_gap)
        self._patch(cli, "energy_drift", self.span("analysis.energy_drift", analysis.energy_drift))

        def clt_done(args, kwargs, report):
            self.add("clt.samples", sum(r.n_ok + r.n_failed for r in report.rows))

        def rate_done(args, kwargs, estimate):
            self.add("ldp.iterations", estimate.iterations)

        self._patch(cli, "run_clt", self.span("clt.run_clt", cli.run_clt, clt_done))
        self._patch(cli, "estimate_rate", self.span("ldp.estimate_rate", cli.estimate_rate, rate_done))
        for writer in CLI_WRITERS:
            self._patch(cli, writer, self.span("cli.write", getattr(cli, writer)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _totals(self):
        """Per-name call counts, total and self seconds, and calls per (parent, child) name."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        totals = {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }
        pairs = np.bincount(nid[parent[has_parent]] * k + nid[has_parent], minlength=k * k)
        edges = {
            (self.names[i // k], self.names[i % k]): int(pairs[i]) for i in np.flatnonzero(pairs)
        }
        return totals, edges

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since this tracer was made."""
        totals, edges = self._totals()

        def get(name):
            return totals.get(name, (0, 0.0, 0.0))

        def count(key):
            return self.counts.get(key, 0)

        out = {
            "cli.run_s": get("cli.run")[1],
            "cli.write_s": get("cli.write")[1],
        }
        kinds = [get(f"dynamics.integrate.{kind}") for kind in INTEGRATE_KINDS]
        calls = sum(k[0] for k in kinds)
        integ_s = sum(k[1] for k in kinds)
        steps = count("dynamics.integrate.steps")
        out.update({
            "dynamics.integrate.calls": calls,
            "dynamics.integrate.steps": steps,
            "dynamics.integrate_s": integ_s,
            "dynamics.integrate_self_s": sum(k[2] for k in kinds),
            "dynamics.us_per_step": 1.0e6 * integ_s / steps if steps else 0.0,
            "dynamics.snapshots_mb": count("dynamics.snapshots_bytes") / 1.0e6,
        })
        for kind, (n, s, _) in zip(INTEGRATE_KINDS, kinds):
            out[f"dynamics.integrate.{kind}.calls"] = n
            out[f"dynamics.integrate.{kind}_s"] = s
        for kernel in KERNELS:
            n, s, _ = get(f"field.{kernel}")
            out[f"field.{kernel}.calls"] = n
            out[f"field.{kernel}_s"] = s
        draws = get("noise.draw")
        out.update({
            "noise.paths": draws[0],
            "noise.draw_s": draws[1],
            "noise.draw_mb": count("noise.draw_bytes") / 1.0e6,
        })
        samples = count("clt.samples")
        run_clt_s = get("clt.run_clt")[1]
        out.update({
            "clt.run_clt_s": run_clt_s,
            "clt.samples": samples,
            "clt.s_per_sample": run_clt_s / samples if samples else 0.0,
        })
        iterations = count("ldp.iterations")
        solves = edges.get(("ldp.estimate_rate", "dynamics.integrate.skeleton"), 0)
        out.update({
            "ldp.estimate_rate_s": get("ldp.estimate_rate")[1],
            "ldp.skeleton_solves": solves,
            "ldp.iterations": iterations,
            "ldp.solves_per_iteration": solves / iterations if iterations else 0.0,
        })
        gap = get("analysis.path_gap")
        out.update({
            "analysis.path_gap.calls": gap[0],
            "analysis.path_gap_s": gap[1],
            "analysis.energy_drift_s": get("analysis.energy_drift")[1],
        })
        return out

    def save(self, path) -> None:
        """Write every span as arrays (names, name_id, parent, start, end) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
