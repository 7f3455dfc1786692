import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from llblab.dynamics import (
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    _drift_values,
    _step_values,
    initial_profile,
    integrate,
)
from llblab.field import VectorField, inner_l2, lap_values, make_grid, norms, zero_field
from llblab.noise import make_covariance, stream_rng, zero_control
from conftest import random_field

HEAT = ModelParams(nu1=1.0, nu2=0.0, gamma=0.0, mu=0.0, epsilon=0.0)


# --- parameter and grid types -------------------------------------------------

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(nu1=0.0)
    with pytest.raises(ValueError):
        ModelParams(nu2=-1.0)
    with pytest.raises(ValueError):
        ModelParams(mu=-0.5)
    with pytest.raises(ValueError):
        ModelParams(epsilon=1.5)
    assert ModelParams(epsilon=0.0).with_epsilon(0.3).epsilon == 0.3


def test_time_grid():
    tg = TimeGrid(0.25, 2500)
    assert tg.dt == 0.25 / 2500
    assert len(tg.times) == 2501
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# --- explicit drift and the step kernel --------------------------------------------

def _drift(u, params):
    return _drift_values(u.values, lap_values(u.values, u.grid.spacing), params)


def test_explicit_rhs_vanishes_without_terms(rng, grid63):
    u = random_field(grid63, rng)
    assert _drift(u, ModelParams(nu1=1.0, nu2=0.0, gamma=0.0, mu=0.0)) is None


def test_explicit_rhs_single_direction(rng):
    # u parallel to Lap u pointwise, so the cross term drops out
    g = make_grid(63)
    x = g.nodes
    f = np.sin(math.pi * x) + 0.3 * np.sin(2 * math.pi * x)
    u = VectorField(g, np.stack([f, 0 * x, 0 * x], axis=1))
    p = ModelParams(nu1=1.0, nu2=0.7, gamma=2.0, mu=1.3)
    out = _drift(u, p)
    expected = -p.nu2 * (1.0 + p.mu * f**2) * f
    assert np.max(np.abs(out[:, 0] - expected)) <= 1e-13
    assert np.all(out[:, 1:] == 0.0)


def test_precession_energy_orthogonality(rng):
    # (u x Lap u, u) = 0 at rounding level
    for n in (31, 127):
        g = make_grid(n)
        u = random_field(g, rng)
        term = _drift(u, ModelParams(nu1=1.0, nu2=0.0, gamma=1.0, mu=0.0))
        resid = abs(inner_l2(VectorField(g, term), u))
        rep = norms(u)
        assert resid <= 1e-12 * (1.0 + rep.linf**2 * rep.h2_semi)


def test_step_matches_integrate_single_step(rng):
    g = make_grid(31)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.01, 1)
    rec = integrate(SystemKind.DETERMINISTIC, u0, p, tg)
    v, h = u0.values, g.spacing
    manual = _step_values(v, lap_values(v, h), p, tg.dt, tg.dt * p.nu1, None, h)
    assert np.array_equal(rec.final_values(), manual)


# --- oracles ---------------------------------------------------------------------

def test_heat_oracle_small():
    g = make_grid(63)
    x = g.nodes
    u0 = VectorField(g, np.stack([np.sin(np.pi * x), 0 * x, 0 * x], axis=1))
    rec = integrate(SystemKind.DETERMINISTIC, u0, HEAT, TimeGrid(0.1, 500))
    exact = math.exp(-math.pi**2 * 0.1) * np.sin(np.pi * x)
    assert np.max(np.abs(rec.final_values()[:, 0] - exact)) <= 2e-3


def test_cubic_ode_oracle_bernoulli():
    # diffusion hook off, gamma = 0: each node follows r' = -2 nu2 r - 2 nu2 mu r^2
    g = make_grid(31)
    x = g.nodes
    amp = 0.5
    u0 = VectorField(g, np.stack([amp * np.sin(np.pi * x), 0 * x, 0 * x], axis=1))
    p = ModelParams(nu1=1.0, nu2=1.0, gamma=0.0, mu=1.0)
    horizon, steps = 0.02, 2000
    rec = integrate(
        SystemKind.DETERMINISTIC, u0, p, TimeGrid(horizon, steps), diffusion_off=True
    )
    r0 = (amp * np.sin(np.pi * x)) ** 2
    decay = math.exp(-2.0 * p.nu2 * horizon)
    closed_form = r0 * decay / (1.0 + p.mu * r0 * (1.0 - decay))

    # the closed form is itself cross-checked against a strict ODE integration
    ivp = solve_ivp(
        lambda t, r: -2.0 * p.nu2 * r - 2.0 * p.nu2 * p.mu * r**2,
        (0.0, horizon),
        [float(np.max(r0))],
        rtol=1e-12,
        atol=1e-14,
    )
    peak = float(np.max(r0))
    peak_exact = peak * decay / (1.0 + p.mu * peak * (1.0 - decay))
    assert abs(ivp.y[0, -1] - peak_exact) <= 1e-12

    r_num = np.einsum("ij,ij->i", rec.final_values(), rec.final_values())
    assert np.max(np.abs(r_num - closed_form)) <= 1e-6


def test_pure_precession_conserves_pointwise_norm():
    # nu2 = 0, diffusion hook off: |u_i| is conserved because u . (u x Lap u) = 0
    g = make_grid(63)
    u0 = initial_profile(g, a=0.25, b=0.25)
    p = ModelParams(nu1=1.0, nu2=0.0, gamma=1.0, mu=0.0)
    rec = integrate(
        SystemKind.DETERMINISTIC, u0, p, TimeGrid(1e-3, 1000), diffusion_off=True
    )
    before = np.sqrt(np.einsum("ij,ij->i", u0.values, u0.values))
    after = np.sqrt(np.einsum("ij,ij->i", rec.final_values(), rec.final_values()))
    assert np.max(np.abs(after - before)) <= 1e-8


# --- degeneration and coupling ---------------------------------------------------

def test_stochastic_eps_zero_degenerates_bitwise():
    g = make_grid(63)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.05, 200)
    spec = make_covariance(8, 4.0)
    det = integrate(SystemKind.DETERMINISTIC, u0, p, tg)
    sto = integrate(
        SystemKind.STOCHASTIC, u0, p.with_epsilon(0.0), tg, spec=spec, rng=stream_rng(7)
    )
    assert det.snapshots.tobytes() == sto.snapshots.tobytes()
    assert det.reports == sto.reports
    assert sto.noise_digest is not None


def test_skeleton_zero_control_degenerates_bitwise():
    g = make_grid(63)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.05, 200)
    spec = make_covariance(8, 4.0)
    det = integrate(SystemKind.DETERMINISTIC, u0, p, tg)
    ske = integrate(
        SystemKind.SKELETON, u0, p, tg, spec=spec, ctrl=zero_control(200, 8, tg.dt)
    )
    assert det.snapshots.tobytes() == ske.snapshots.tobytes()
    assert ske.noise_digest is None


def test_linearized_zero_path_stays_zero():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    base = integrate(SystemKind.DETERMINISTIC, initial_profile(g), p, tg)
    path = np.zeros((tg.steps, 4, 3))
    rec = integrate(
        SystemKind.LINEARIZED_CLT, zero_field(g), p, tg,
        spec=spec, shared_path=path, base=base,
    )
    assert np.all(rec.snapshots == 0.0)


def test_coupled_runs_share_noise_digest():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    base = integrate(SystemKind.DETERMINISTIC, initial_profile(g), p, tg)
    path = stream_rng(3).normal(0.0, math.sqrt(tg.dt), size=(tg.steps, 4, 3))
    u_eps = integrate(
        SystemKind.STOCHASTIC, initial_profile(g), p.with_epsilon(0.1), tg,
        spec=spec, shared_path=path,
    )
    v0 = integrate(
        SystemKind.LINEARIZED_CLT, zero_field(g), p, tg,
        spec=spec, shared_path=path, base=base,
    )
    assert u_eps.noise_digest == v0.noise_digest
    other = integrate(
        SystemKind.STOCHASTIC, initial_profile(g), p.with_epsilon(0.1), tg,
        spec=spec, rng=stream_rng(99),
    )
    assert other.noise_digest != u_eps.noise_digest


def test_integrate_determinism_same_seed():
    g = make_grid(31)
    p = ModelParams().with_epsilon(0.05)
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    a = integrate(SystemKind.STOCHASTIC, initial_profile(g), p, tg, spec=spec, rng=stream_rng(1, 2))
    b = integrate(SystemKind.STOCHASTIC, initial_profile(g), p, tg, spec=spec, rng=stream_rng(1, 2))
    assert a.snapshots.tobytes() == b.snapshots.tobytes()
    assert a.noise_digest == b.noise_digest


# --- required inputs and failure modes -------------------------------------------

def test_integrate_missing_inputs():
    g = make_grid(31)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    with pytest.raises(ValueError, match="rng or shared_path"):
        integrate(SystemKind.STOCHASTIC, u0, p, tg, spec=spec)
    with pytest.raises(ValueError, match="covariance"):
        integrate(SystemKind.STOCHASTIC, u0, p, tg, rng=stream_rng(0))
    with pytest.raises(ValueError, match="control"):
        integrate(SystemKind.SKELETON, u0, p, tg, spec=spec)
    with pytest.raises(ValueError, match="base"):
        integrate(
            SystemKind.LINEARIZED_CLT, zero_field(g), p, tg, spec=spec, rng=stream_rng(0)
        )


def test_integrate_control_step_mismatch():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    with pytest.raises(ValueError, match="steps"):
        integrate(
            SystemKind.SKELETON, initial_profile(g), p, tg,
            spec=spec, ctrl=zero_control(50, 4, tg.dt),
        )


def test_linearized_requires_zero_initial():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    base = integrate(SystemKind.DETERMINISTIC, initial_profile(g), p, tg)
    with pytest.raises(ValueError, match="zero initial"):
        integrate(
            SystemKind.LINEARIZED_CLT, initial_profile(g), p, tg,
            spec=spec, rng=stream_rng(0), base=base,
        )


def test_blow_up_on_ceiling():
    g = make_grid(31)
    u0 = initial_profile(g)  # |u|_inf ~ 1
    with pytest.raises(BlowUpError) as info:
        integrate(SystemKind.DETERMINISTIC, u0, ModelParams(), TimeGrid(0.01, 10), linf_ceiling=0.5)
    assert info.value.step == 0


def test_blow_up_on_instability():
    # violent explicit precession with the diffusion hook off must abort, not NaN out
    g = make_grid(31)
    u0 = initial_profile(g)
    p = ModelParams(nu1=1.0, nu2=0.0, gamma=50.0, mu=0.0)
    with pytest.raises(BlowUpError) as info:
        integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(1.0, 100), diffusion_off=True)
    assert info.value.step is not None and info.value.step > 0


# --- record layout ------------------------------------------------------------------

def test_default_stride_rule():
    from llblab.dynamics import _default_stride

    assert _default_stride(100) == 1
    assert _default_stride(10_000) == 1
    assert _default_stride(25_000) == 3


def test_snapshot_striding():
    g = make_grid(31)
    rec = integrate(
        SystemKind.DETERMINISTIC, initial_profile(g), ModelParams(), TimeGrid(0.01, 100),
        stride=7,
    )
    assert list(rec.snapshot_steps[:3]) == [0, 7, 14]
    assert rec.snapshot_steps[-1] == 100
    assert len(rec.reports) == 101
    assert not rec.dense
    with pytest.raises(KeyError):
        rec.values_at(1)
    assert rec.values_at(14).shape == (31, 3)


def test_trajectory_csv_writers(tmp_path):
    from llblab.dynamics import write_fields_csv, write_report_csv

    g = make_grid(31)
    rec = integrate(
        SystemKind.DETERMINISTIC, initial_profile(g), ModelParams(), TimeGrid(0.01, 10)
    )
    report_path = tmp_path / "trajectory_report.csv"
    write_report_csv(rec, report_path)
    lines = report_path.read_text().splitlines()
    assert lines[0] == "step,time,l2,h1_semi,h2_semi,linf"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[2]) == rec.reports[0].l2

    fields_path = tmp_path / "fields.csv"
    write_fields_csv(rec, fields_path)
    dump = fields_path.read_text().splitlines()
    assert dump[0] == "step,node_index,ux,uy,uz"
    assert len(dump) == 1 + 11 * 31


def test_stochastic_energy_stays_bounded_smoke():
    g = make_grid(63)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.1, 400)
    spec = make_covariance(8, 4.0)
    det = integrate(SystemKind.DETERMINISTIC, u0, p, tg)
    det_sup = max(r.h1_semi for r in det.reports) ** 2
    sups = []
    for m in range(4):
        rec = integrate(
            SystemKind.STOCHASTIC, u0, p.with_epsilon(0.1), tg,
            spec=spec, rng=stream_rng(17, m),
        )
        sups.append(max(r.h1_semi for r in rec.reports) ** 2)
    assert det_sup / 3.0 <= float(np.mean(sups)) <= 3.0 * det_sup
