"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
The heavy criteria run the full desk-scale configurations and together take
a few minutes on a laptop-class machine.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import solve_ivp

import llblab.dynamics as dynamics
from llblab.analysis import fit_slope, identity_suite
from llblab.clt import a_priori_ensemble, run_clt
from llblab.cli import EXIT_OK, parse_config, run
from llblab.dynamics import (
    ModelParams,
    SystemKind,
    TimeGrid,
    initial_profile,
    integrate,
)
from llblab.field import h1_norm, make_grid
from llblab.ldp import (
    RateProblem,
    compactness_probe,
    estimate_rate,
    weak_convergence_experiment,
)
from llblab.noise import (
    make_covariance,
    single_mode_control,
    stream_rng,
    zero_control,
)
from conftest import record_batch

DEFAULT_PARAMS = ModelParams(nu1=1.0, nu2=1.0, gamma=1.0, mu=1.0)


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}", flush=True)
    return ok


def test_criterion_01_exact_identity_suite():
    started = time.perf_counter()
    reports = identity_suite(grid_sizes=(31, 127, 255), samples=1000, base_seed=20240808)
    elapsed = time.perf_counter() - started
    worst = max(abs(r.residual) for r in reports if r.name.split("/")[0] in (
        "summation-by-parts", "cross-orthogonality", "precession-orthogonality"))
    asym = max(abs(r.residual) for r in reports if r.name.startswith("cross-antisymmetry"))
    ok = all(r.passed for r in reports) and worst <= 1e-12 and asym == 0.0 and elapsed < 10.0
    assert _verdict(
        1, "exact identity suite",
        ok, f"worst exact residual {worst:.3e}, antisymmetry {asym:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_heat_oracle():
    started = time.perf_counter()
    errors = {}
    for n, steps in ((255, 1000), (511, 2000)):
        grid = make_grid(n)
        x = grid.nodes
        u0 = np.stack([np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
        params = ModelParams(nu1=1.0, nu2=0.0, gamma=0.0, mu=0.0)
        rec = integrate(SystemKind.DETERMINISTIC, u0, params, TimeGrid(0.1, steps))
        exact = math.exp(-math.pi**2 * 0.1) * np.sin(np.pi * x)
        errors[n] = float(np.max(np.abs(rec.final_values()[:, 0] - exact)))
    elapsed = time.perf_counter() - started
    ratio = errors[255] / errors[511]
    ok = errors[255] <= 1e-3 and ratio >= 1.7 and elapsed < 5.0
    assert _verdict(
        2, "heat oracle",
        ok, f"error {errors[255]:.3e} (<=1e-3), refinement ratio {ratio:.2f} (>=1.7), {elapsed:.1f}s",
    )


def test_criterion_03_cubic_ode_oracle(monkeypatch):
    # the implicit solve returns its right-hand side: no diffusion, so each
    # node follows the cubic damping ODE on its own
    monkeypatch.setattr(
        dynamics, "helm_values", lambda v, h, c, out=None: v if out is None else out
    )
    grid = make_grid(31)
    x = grid.nodes
    amp = 0.5
    u0 = np.stack([amp * np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    params = ModelParams(nu1=1.0, nu2=1.0, gamma=0.0, mu=1.0)
    horizon = 0.02
    steps = 2000  # dt = 1e-5

    # independent oracle first: closed form checked against strict quadrature
    r_peak = float(np.max((amp * np.sin(np.pi * x)) ** 2))
    decay = math.exp(-2.0 * params.nu2 * horizon)
    closed_peak = r_peak * decay / (1.0 + params.mu * r_peak * (1.0 - decay))
    ivp = solve_ivp(
        lambda t, r: -2.0 * params.nu2 * r - 2.0 * params.nu2 * params.mu * r**2,
        (0.0, horizon), [r_peak], rtol=1e-12, atol=1e-14,
    )
    oracle_gap = abs(float(ivp.y[0, -1]) - closed_peak)

    rec = integrate(SystemKind.DETERMINISTIC, u0, params, TimeGrid(horizon, steps))
    r0 = (amp * np.sin(np.pi * x)) ** 2
    expected = r0 * decay / (1.0 + params.mu * r0 * (1.0 - decay))
    r_num = np.einsum("ij,ij->i", rec.final_values(), rec.final_values())
    err = float(np.max(np.abs(r_num - expected)))
    ok = oracle_gap <= 1e-10 and err <= 1e-6
    assert _verdict(
        3, "cubic ODE oracle",
        ok, f"closed form vs solve_ivp {oracle_gap:.2e}, sim error {err:.3e} (<=1e-6) at dt=1e-5",
    )


def test_criterion_04_zero_noise_degeneration():
    grid = make_grid(63)
    u0 = initial_profile(grid)
    tgrid = TimeGrid(0.05, 200)
    spec = make_covariance(8, 4.0)
    det = integrate(SystemKind.DETERMINISTIC, u0, DEFAULT_PARAMS, tgrid)
    ((sto,),), failed = record_batch(
        (SystemKind.STOCHASTIC,), (u0[..., None],), DEFAULT_PARAMS, tgrid,
        spec=spec, rngs=[stream_rng(77)],
        epsilons=(0.0,),
    )
    ske = integrate(
        SystemKind.SKELETON, u0, DEFAULT_PARAMS, tgrid,
        spec=spec, ctrl=zero_control(tgrid.steps, 8, tgrid.dt),
    )
    sto_same = not failed and det.snapshots.tobytes() == sto.tobytes()
    ske_same = det.snapshots.tobytes() == ske.snapshots.tobytes()
    ok = sto_same and ske_same
    assert _verdict(
        4, "zero-noise degeneration",
        ok, f"stochastic(eps=0) bit-identical: {sto_same}, skeleton(h=0) bit-identical: {ske_same}",
    )


def test_criterion_05_a_priori_boundedness():
    epsilons = (1e-1, 1e-2)
    # 64 samples per epsilon, sample m of epsilon index i on stream (501, i, m)
    # the proof metric of u, sup ||grad u||^2 + nu1 int ||Lap u||^2: what the
    # a priori estimate bounds
    ensemble = a_priori_ensemble(
        epsilons, 64, DEFAULT_PARAMS, TimeGrid(0.25, 2500), make_covariance(8, 4.0),
        initial_profile(make_grid(127)), base_seed=501,
    )
    det = ensemble.deterministic
    details = []
    ok = True
    for eps, values in zip(epsilons, ensemble.values):
        failed = sum(value is None for value in values)
        mean = float(np.mean([value for value in values if value is not None]))
        ok = ok and failed == 0 and det / 3.0 <= mean <= 3.0 * det
        details.append(
            f"eps={eps:g}: mean proof metric {mean:.4f} vs det {det:.4f}, {failed} blow-ups"
        )
    assert _verdict(5, "a priori boundedness", ok, "; ".join(details))


def test_criterion_06_clt_decay_and_slope():
    started = time.perf_counter()
    report = run_clt(
        epsilons=(1e-1, 1e-2, 1e-3),
        samples=64,
        params=DEFAULT_PARAMS,
        tgrid=TimeGrid(0.25, 2500),  # dt = 1e-4
        spec=make_covariance(8, 4.0),
        initial=initial_profile(make_grid(127)),
        base_seed=20240808,
    )
    elapsed = time.perf_counter() - started
    means = [r.mean_error for r in report.rows]
    decreasing = all(
        a.mean_error - b.mean_error > math.hypot(a.std_error, b.std_error)
        for a, b in zip(report.rows, report.rows[1:])
    )
    no_failures = all(r.n_failed == 0 for r in report.rows)
    slope = report.fit.slope
    ok = decreasing and no_failures and slope >= 0.7 and elapsed <= 600.0
    assert _verdict(
        6, "central limit theorem",
        ok,
        f"e(eps)={['%.3e' % m for m in means]}, slope {slope:.3f} (>=0.7), "
        f"strict decrease within pooled SE: {decreasing}, {elapsed:.0f}s (<=600s)",
    )


def test_criterion_07_weak_convergence():
    tgrid = TimeGrid(0.25, 2500)
    spec = make_covariance(8, 4.0)
    ctrl = single_mode_control(tgrid.steps, 8, tgrid.dt, mode=1, component=3, coefficient=0.5)
    rows, _ = weak_convergence_experiment(
        ctrl, (1e-1, 1e-2, 1e-3), 32, DEFAULT_PARAMS, tgrid, spec,
        initial_profile(make_grid(127)), base_seed=60321,
    )
    metrics = [r.mean_metric for r in rows]
    ok = (
        all(r.n_failed == 0 for r in rows)
        and metrics[0] > metrics[1] > metrics[2] > 0.0
    )
    assert _verdict(
        7, "weak convergence to the skeleton",
        ok, f"metric {['%.3e' % m for m in metrics]} strictly decreasing: {ok}",
    )


def test_criterion_08_rate_function():
    started = time.perf_counter()
    grid = make_grid(31)
    u0 = initial_profile(grid)
    tgrid = TimeGrid(0.25, 250)
    spec = make_covariance(8, 4.0)

    det = integrate(SystemKind.DETERMINISTIC, u0, DEFAULT_PARAMS, tgrid, stride=tgrid.steps)
    trivial = estimate_rate(
        RateProblem(target=det.final_values(), penalty=1e4, control_modes=1, control_steps=5),
        DEFAULT_PARAMS, tgrid, spec, u0,
    )

    h_star = single_mode_control(tgrid.steps, 8, tgrid.dt, mode=1, component=3, coefficient=0.5)
    ske = integrate(
        SystemKind.SKELETON, u0, DEFAULT_PARAMS, tgrid, spec=spec, ctrl=h_star,
        stride=tgrid.steps,
    )
    target = ske.final_values()
    problem = RateProblem(
        target=target, penalty=1e4, control_modes=1, control_steps=5,
        max_iters=60, continuation_rounds=1,
    )
    unknowns = problem.control_modes * problem.control_steps * 3
    round_trip = estimate_rate(problem, DEFAULT_PARAMS, tgrid, spec, u0)
    elapsed = time.perf_counter() - started

    trivial_ok = trivial.cost <= 1e-3 and trivial.misfit <= 1e-3
    bound = 1.05 * h_star.h0_cost()
    misfit_bound = 1e-2 * h1_norm(target)
    round_ok = round_trip.cost <= bound and round_trip.misfit <= misfit_bound
    ok = trivial_ok and round_ok and unknowns <= 100 and elapsed <= 300.0
    assert _verdict(
        8, "rate function",
        ok,
        f"trivial: cost {trivial.cost:.2e} misfit {trivial.misfit:.2e}; round-trip: "
        f"cost {round_trip.cost:.5f} (<= {bound:.5f}), misfit {round_trip.misfit:.2e} "
        f"(<= {misfit_bound:.2e}); {unknowns} unknowns, {elapsed:.0f}s (<=300s)",
    )


def test_criterion_09_compactness_probe():
    tgrid = TimeGrid(0.25, 250)
    spec = make_covariance(8, 4.0)
    table = compactness_probe(
        zero_control(tgrid.steps, 8, tgrid.dt), (2, 4, 8), DEFAULT_PARAMS, tgrid, spec,
        initial_profile(make_grid(31)),
    )
    metrics = [m for _, m in table]
    ok = metrics[0] > metrics[1] > metrics[2] > 0.0
    assert _verdict(
        9, "compactness probe",
        ok, f"sup-grad response {['%.3e' % m for m in metrics]} strictly decreasing in mode",
    )


def test_criterion_10_reproducibility(tmp_path):
    configs = {
        "validate": "kind = validate\nvalidate.samples = 20\nvalidate.grids = 31\nseed = 5\n",
        "deterministic": (
            "kind = deterministic\ngrid.n = 31\ntime.horizon = 0.02\ntime.steps = 40\n"
            "deterministic.dump_fields = true\n"
        ),
        "ensemble": (
            "kind = stochastic-ensemble\ngrid.n = 31\ntime.horizon = 0.02\ntime.steps = 40\n"
            "noise.modes = 4\nensemble.epsilons = 0.1, 0.01\nensemble.samples = 3\nseed = 5\n"
        ),
        "clt": (
            "kind = clt\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 80\nnoise.modes = 4\n"
            "clt.epsilons = 0.5, 0.25, 0.125\nclt.samples = 2\nseed = 5\n"
        ),
        "weak": (
            "kind = weak-convergence\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 80\n"
            "noise.modes = 4\nweak.epsilons = 0.1, 0.01\nweak.samples = 2\nseed = 5\n"
        ),
        "rate": (
            "kind = rate\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 20\n"
            "rate.slabs = 4\nrate.max_iters = 2\nrate.continuation = 0\nseed = 5\n"
        ),
        "compactness": (
            "kind = compactness\ngrid.n = 31\ntime.horizon = 0.05\ntime.steps = 40\n"
            "noise.modes = 8\ncompact.modes = 2,4\nseed = 5\n"
        ),
    }
    ok = True
    details = []
    for name, text in configs.items():
        config = parse_config(text)
        outputs = {}
        for label in ("first", "rerun"):
            outdir = tmp_path / name / label
            code = run(config, out_dir=str(outdir))
            if code != EXIT_OK:
                ok = False
                details.append(f"{name}: exit {code}")
                break
            manifest = json.loads((outdir / "manifest.json").read_text())
            outputs[label] = {
                out: (outdir / out).read_bytes()
                for out in manifest["outputs"]
                if out.endswith(".csv")
            }
        else:
            same = outputs["first"] == outputs["rerun"]
            ok = ok and same
            details.append(f"{name}: {'identical' if same else 'DIFFER'}")
    assert _verdict(10, "byte-identical reruns", ok, "; ".join(details))
