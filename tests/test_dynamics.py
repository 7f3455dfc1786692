import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    integrate_batch,
)
from llblab.field import (
    VectorField,
    inner_l2,
    lap_values,
    make_grid,
    norms,
    sq_norm_values,
    stack_norms,
    zero_field,
)
from llblab.noise import (
    ControlPath,
    IncrementStreams,
    make_covariance,
    stream_rng,
    zero_control,
)
from conftest import ScaledRng, random_field

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
    v = u.values
    return _drift_values(v, lap_values(v, u.grid.spacing), sq_norm_values(v), params)


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
    manual = _step_values(v, lap_values(v, h), sq_norm_values(v), p, tg.dt, tg.dt * p.nu1, None, h)
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
    assert det.explicit_cfl == sto.explicit_cfl


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


def _coupled_states(kinds, initial, params, tg, spec, base, rngs, epsilons):
    """Every step of a batch of ``kinds`` run on increment streams drawn from
    ``rngs``, as one (steps + 1, n, 3, M) array per kind."""
    seen = [[] for _ in kinds]

    def observe(n, states, live):
        for k, u in enumerate(states):
            seen[k].append(u.copy())

    failed, _ = integrate_batch(
        kinds, initial[0].grid,
        [np.repeat(f.values[..., None], len(rngs), axis=2) for f in initial],
        params, tg, observe, spec=spec, base=base,
        noise=IncrementStreams(rngs, tg.steps, spec.mode_count, tg.dt), epsilons=epsilons,
    )
    assert failed == []
    return [np.array(states) for states in seen]


def test_linearized_zero_path_stays_zero():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    base = integrate(SystemKind.DETERMINISTIC, initial_profile(g), p, tg)
    (v0,) = _coupled_states(
        (SystemKind.LINEARIZED_CLT,), (zero_field(g),), p, tg, spec, base,
        [ScaledRng(stream_rng(3), 0.0)], [0.0],
    )
    assert np.all(v0 == 0.0)


def test_coupled_runs_share_noise():
    # the two systems of a batch column read the same increments: each equals
    # its own run on that stream, bitwise
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    base = integrate(SystemKind.DETERMINISTIC, initial_profile(g), p, tg)
    u_eps, v0 = _coupled_states(
        (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT), (initial_profile(g), zero_field(g)),
        p, tg, spec, base, [stream_rng(3), stream_rng(4)], [0.1, 0.1],
    )
    for j, seed in enumerate((3, 4)):
        alone_u = integrate(
            SystemKind.STOCHASTIC, initial_profile(g), p.with_epsilon(0.1), tg,
            spec=spec, rng=stream_rng(seed),
        )
        alone_v = integrate(
            SystemKind.LINEARIZED_CLT, zero_field(g), p, tg,
            spec=spec, rng=stream_rng(seed), base=base,
        )
        assert u_eps[..., j].tobytes() == alone_u.snapshots.tobytes()
        assert v0[..., j].tobytes() == alone_v.snapshots.tobytes()
    # another stream drives another path
    assert not np.array_equal(u_eps[..., 0], u_eps[..., 1])
    assert not np.array_equal(v0[..., 0], v0[..., 1])


def test_integrate_determinism_same_seed():
    g = make_grid(31)
    p = ModelParams().with_epsilon(0.05)
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    a = integrate(SystemKind.STOCHASTIC, initial_profile(g), p, tg, spec=spec, rng=stream_rng(1, 2))
    b = integrate(SystemKind.STOCHASTIC, initial_profile(g), p, tg, spec=spec, rng=stream_rng(1, 2))
    assert a.snapshots.tobytes() == b.snapshots.tobytes()
    # a batch rerun on the same streams has the same bits
    runs = [
        _coupled_states(
            (SystemKind.STOCHASTIC,), (initial_profile(g),), p, tg, spec, None,
            [stream_rng(1, 2), stream_rng(1, 3)], [0.05, 0.5],
        )[0]
        for _ in range(2)
    ]
    assert runs[0].tobytes() == runs[1].tobytes()
    assert runs[0][..., 0].tobytes() == a.snapshots.tobytes()


# --- required inputs and failure modes -------------------------------------------

def test_integrate_missing_inputs():
    g = make_grid(31)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    with pytest.raises(ValueError, match="needs an rng"):
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
    assert len(rec.snapshots) == len(rec.snapshot_steps) == 16
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
    last = lines[-1].split(",")
    assert (int(last[0]), float(last[1])) == (10, rec.times[10])
    final = norms(rec.final_field())
    assert [float(x) for x in last[2:]] == [final.l2, final.h1_semi, final.h2_semi, final.linf]

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
    det_sup = np.max(stack_norms(det.snapshots, g.spacing)[:, 1]) ** 2
    sups = []
    for m in range(4):
        rec = integrate(
            SystemKind.STOCHASTIC, u0, p.with_epsilon(0.1), tg,
            spec=spec, rng=stream_rng(17, m),
        )
        sups.append(np.max(stack_norms(rec.snapshots, g.spacing)[:, 1]) ** 2)
    assert det_sup / 3.0 <= float(np.mean(sups)) <= 3.0 * det_sup


# --- batches of sample columns ----------------------------------------------------

BATCH_GRID = make_grid(9)
BATCH_TIME = TimeGrid(0.02, 24)
BATCH_SPEC = make_covariance(16, 4.0)


def _batch_setup(kind, seed, width):
    """Initial states, epsilons, control and base of a ``width``-column run of ``kind``."""
    rng = np.random.default_rng(seed)
    if kind is SystemKind.LINEARIZED_CLT:
        initial = np.zeros((BATCH_GRID.n_interior, 3, width))
    else:
        initial = rng.normal(size=(BATCH_GRID.n_interior, 3, width))
    epsilons = rng.choice([0.0, 1e-3, 0.1, 1.0], size=width)
    ctrl = ControlPath(rng.normal(size=(BATCH_TIME.steps, BATCH_SPEC.mode_count, 3)), BATCH_TIME.dt)
    base = integrate(SystemKind.DETERMINISTIC, initial_profile(BATCH_GRID), ModelParams(), BATCH_TIME)
    return initial, epsilons, ctrl, base


def _control_for(kinds, ctrl):
    controlled = (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON)
    return ctrl if any(k in controlled for k in kinds) else None


def _base_for(kinds, base):
    return base if SystemKind.LINEARIZED_CLT in kinds else None


def _run_batch(kinds, initial, epsilons, ctrl, base, seed, columns):
    """March ``columns`` of the setup as one batch; returns each column's (steps+1, n, 3)
    states per kind (or the states it reached) and the failures."""
    seen = {j: [[] for _ in kinds] for j in columns}

    def observe(n, states, live):
        for k, u in enumerate(states):
            for pos, j in enumerate(live):
                seen[columns[j]][k].append(u[..., pos].copy())

    failed, _ = integrate_batch(
        kinds, BATCH_GRID, [u[..., columns] for u in initial], ModelParams(), BATCH_TIME, observe,
        spec=BATCH_SPEC, ctrl=_control_for(kinds, ctrl), base=_base_for(kinds, base),
        noise=IncrementStreams(
            [stream_rng(seed, j) for j in columns],
            BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt,
        ),
        epsilons=epsilons[columns], keys=[(seed, j) for j in columns],
    )
    return {j: [np.array(s) for s in per_kind] for j, per_kind in seen.items()}, failed


def _single_run(kind, initial, epsilons, ctrl, base, seed, j):
    return integrate(
        kind, VectorField(BATCH_GRID, initial[..., j]), ModelParams(epsilon=epsilons[j]),
        BATCH_TIME, spec=BATCH_SPEC, ctrl=_control_for((kind,), ctrl),
        base=_base_for((kind,), base),
        rng=stream_rng(seed, j), seed_info=(seed, j),
    )


BATCH_CASES = [(kind,) for kind in SystemKind] + [
    (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT)
]


@pytest.mark.parametrize("kinds", BATCH_CASES, ids=lambda ks: "+".join(k.value for k in ks))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batch_columns_equal_their_single_runs_bitwise(kinds, data):
    width = data.draw(st.integers(1, 8), label="width")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    cuts = []
    if width > 1:
        cuts = sorted(data.draw(st.sets(st.integers(1, width - 1), max_size=3), label="cuts"))
    setups = [_batch_setup(kind, seed, width) for kind in kinds]
    initial = [s[0] for s in setups]
    _, epsilons, ctrl, base = setups[0]
    bounds = [0, *cuts, width]
    for lo, hi in zip(bounds, bounds[1:]):
        columns = list(range(lo, hi))
        seen, failed = _run_batch(kinds, initial, epsilons, ctrl, base, seed, columns)
        assert failed == []
        for j in columns:
            for k, kind in enumerate(kinds):
                rec = _single_run(kind, initial[k], epsilons, ctrl, base, seed, j)
                assert seen[j][k].tobytes() == rec.snapshots.tobytes(), (kind, j)


def test_batch_retires_a_blown_up_column_at_its_single_run_step():
    # explicit cubic damping at |u| = 30 overshoots: u -> (1 - dt (1 + |u|^2)) u grows
    kind = SystemKind.STOCHASTIC
    initial, epsilons, ctrl, base = _batch_setup(kind, 5, 4)
    initial = 0.3 * initial
    initial[..., 2] *= 100.0
    seen, failed = _run_batch((kind,), [initial], epsilons, ctrl, base, 5, [0, 1, 2, 3])
    with pytest.raises(BlowUpError) as info:
        _single_run(kind, initial, epsilons, ctrl, base, 5, 2)
    assert len(failed) == 1
    assert failed[0].key == (5, 2)
    assert failed[0].step == info.value.step > 0
    assert str(failed[0]) == str(info.value)
    assert len(seen[2][0]) == info.value.step
    for j in (0, 1, 3):
        rec = _single_run(kind, initial, epsilons, ctrl, base, 5, j)
        assert seen[j][0].tobytes() == rec.snapshots.tobytes()


def test_integrate_batch_checks_its_inputs():
    initial, epsilons, ctrl, base = _batch_setup(SystemKind.STOCHASTIC, 1, 2)
    kw = dict(spec=BATCH_SPEC)
    with pytest.raises(ValueError, match="initial batch"):
        integrate_batch(
            (SystemKind.STOCHASTIC,), BATCH_GRID, (initial[..., 0],), ModelParams(),
            BATCH_TIME, lambda *a: None, **kw,
        )
    with pytest.raises(ValueError, match="increment streams"):
        integrate_batch(
            (SystemKind.STOCHASTIC,), BATCH_GRID, (initial,), ModelParams(),
            BATCH_TIME, lambda *a: None, epsilons=epsilons, **kw,
        )
    with pytest.raises(ValueError, match="zero initial"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT,), BATCH_GRID, (initial,), ModelParams(),
            BATCH_TIME, lambda *a: None, base=base,
            noise=IncrementStreams([stream_rng(0), stream_rng(1)], 24, 16, BATCH_TIME.dt), **kw,
        )


# --- inputs a kind cannot use ---------------------------------------------------------

BATCH_BASE = integrate(
    SystemKind.DETERMINISTIC, initial_profile(BATCH_GRID), ModelParams(), BATCH_TIME
)
BATCH_CONTROL = zero_control(BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(SystemKind)),
    with_spec=st.booleans(),
    with_ctrl=st.booleans(),
    with_base=st.booleans(),
    batch=st.booleans(),
)
def test_each_kind_takes_exactly_the_inputs_it_uses(kind, with_spec, with_ctrl, with_base, batch):
    # a control drives only the controlled kinds, a base only the linearized
    # one; both entry points reject every other combination before stepping
    controlled = kind in (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON)
    linearized = kind is SystemKind.LINEARIZED_CLT
    valid = (
        (with_spec or kind is SystemKind.DETERMINISTIC)
        and with_ctrl == controlled
        and with_base == linearized
    )
    initial = zero_field(BATCH_GRID) if linearized else initial_profile(BATCH_GRID)
    inputs = dict(
        spec=BATCH_SPEC if with_spec else None,
        ctrl=BATCH_CONTROL if with_ctrl else None,
        base=BATCH_BASE if with_base else None,
    )

    def run():
        if batch:
            return integrate_batch(
                (kind,), BATCH_GRID, (np.repeat(initial.values[..., None], 2, axis=2),),
                ModelParams(), BATCH_TIME, lambda *a: None,
                noise=IncrementStreams(
                    [stream_rng(0), stream_rng(1)], BATCH_TIME.steps, BATCH_SPEC.mode_count,
                    BATCH_TIME.dt,
                ),
                epsilons=[0.1, 0.1], **inputs,
            )
        return integrate(
            kind, initial, ModelParams(epsilon=0.1), BATCH_TIME, rng=stream_rng(0), **inputs
        )

    if valid:
        run()
    else:
        with pytest.raises(ValueError):
            run()
