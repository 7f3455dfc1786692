import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

import llblab.dynamics as dynamics
from llblab.dynamics import (
    LINF_CEILING,
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    TrajectoryRecord,
    _drive,
    _rhs_values,
    initial_profile,
    integrate,
    integrate_batch,
    skeleton_adjoint,
    write_fields_csv,
    write_report_csv,
)
from llblab.field import (
    STACK_CHUNK,
    column_sq_sums,
    cross_values,
    helm_values,
    lap_values,
    make_grid,
    sq_norm_values,
    stack_norms,
)
from llblab.noise import (
    ControlPath,
    IncrementStreams,
    make_covariance,
    mode_matrix,
    single_mode_control,
    stream_rng,
    zero_control,
)
from conftest import EDGE_FLOATS, ScaledRng, random_field, record_batch

HEAT = ModelParams(nu1=1.0, nu2=0.0, gamma=0.0, mu=0.0)


# --- parameter and grid types -------------------------------------------------

def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(nu1=0.0)
    with pytest.raises(ValueError):
        ModelParams(nu2=-1.0)
    with pytest.raises(ValueError):
        ModelParams(mu=-0.5)
    g = make_grid(7)
    with pytest.raises(ValueError, match="epsilons"):
        integrate_batch(
            (SystemKind.STOCHASTIC,), (initial_profile(g)[..., None],), ModelParams(),
            TimeGrid(0.01, 2), lambda *a: None, spec=make_covariance(2, 4.0),
            noise=IncrementStreams([stream_rng(0)], 2, 2, 0.005), epsilons=(1.5,),
        )


def test_time_grid():
    tg = TimeGrid(0.25, 2500)
    assert tg.dt == 0.25 / 2500
    assert len(tg.times) == 2501
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# --- explicit drift and the step kernel --------------------------------------------

def _drift(v, params):
    # the explicit drift is (rhs - v) / dt, rhs the right-hand side of a step
    # before its implicit solve; dt = 1 keeps the subtraction from scaling its rounding up
    h, dt = make_grid(len(v)).spacing, 1.0
    step = _rhs_values(
        v, lap_values(v, h), sq_norm_values(v), params, dt, None, np.empty_like(v),
        np.empty_like(v),
    )
    return (step - v) / dt


def test_explicit_rhs_vanishes_without_terms(rng, grid63):
    u = random_field(grid63, rng)
    assert not _drift(u, ModelParams(nu1=1.0, nu2=0.0, gamma=0.0, mu=0.0)).any()


def test_explicit_rhs_single_direction(rng):
    # u parallel to Lap u pointwise, so the cross term drops out
    g = make_grid(63)
    x = g.nodes
    f = np.sin(math.pi * x) + 0.3 * np.sin(2 * math.pi * x)
    u = np.stack([f, 0 * x, 0 * x], axis=1)
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
        resid = abs(g.spacing * column_sq_sums(term, u))
        _, _, h2_semi, linf = stack_norms(u[None], g.spacing)[0]
        assert resid <= 1e-12 * (1.0 + linf**2 * h2_semi)


def test_step_matches_integrate_single_step(rng):
    g = make_grid(31)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.01, 1)
    rec = integrate(SystemKind.DETERMINISTIC, u0, p, tg)
    v, h = u0, g.spacing
    rhs = _rhs_values(
        v, lap_values(v, h), sq_norm_values(v), p, tg.dt, None, np.empty_like(v), np.empty_like(v)
    )
    manual = helm_values(rhs, h, tg.dt * p.nu1)
    assert np.array_equal(rec.final_values(), manual)


# --- oracles ---------------------------------------------------------------------

def test_heat_oracle_small():
    g = make_grid(63)
    x = g.nodes
    u0 = np.stack([np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    rec = integrate(SystemKind.DETERMINISTIC, u0, HEAT, TimeGrid(0.1, 500))
    exact = math.exp(-math.pi**2 * 0.1) * np.sin(np.pi * x)
    assert np.max(np.abs(rec.final_values()[:, 0] - exact)) <= 2e-3


def _without_diffusion(monkeypatch):
    # the implicit solve returns its right-hand side, so the remaining terms
    # can be checked against pointwise ODE and precession oracles
    monkeypatch.setattr(
        dynamics, "helm_values", lambda v, h, c, out=None: v if out is None else out
    )


def test_cubic_ode_oracle_bernoulli(monkeypatch):
    # diffusion off, gamma = 0: each node follows r' = -2 nu2 r - 2 nu2 mu r^2
    _without_diffusion(monkeypatch)
    g = make_grid(31)
    x = g.nodes
    amp = 0.5
    u0 = np.stack([amp * np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    p = ModelParams(nu1=1.0, nu2=1.0, gamma=0.0, mu=1.0)
    horizon, steps = 0.02, 2000
    rec = integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(horizon, steps))
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


def test_pure_precession_conserves_pointwise_norm(monkeypatch):
    # nu2 = 0, diffusion off: |u_i| is conserved because u . (u x Lap u) = 0
    _without_diffusion(monkeypatch)
    g = make_grid(63)
    u0 = initial_profile(g, a=0.25, b=0.25)
    p = ModelParams(nu1=1.0, nu2=0.0, gamma=1.0, mu=0.0)
    rec = integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(1e-3, 1000))
    before = np.sqrt(np.einsum("ij,ij->i", u0, u0))
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
    sto = []
    failures, cfl = integrate_batch(
        (SystemKind.STOCHASTIC,), (u0[..., None],), p, tg,
        lambda n, states: sto.append(states[0][..., 0].copy()),
        spec=spec, noise=IncrementStreams([stream_rng(7)], tg.steps, 8, tg.dt), epsilons=(0.0,),
    )
    assert failures == []
    assert det.snapshots.tobytes() == np.array(sto).tobytes()
    assert det.explicit_cfl == cfl


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


def _coupled_states(kinds, initial, params, tg, spec, reference, rngs, epsilons):
    """Every step of a batch of ``kinds`` run on increment streams drawn from
    ``rngs``, as one (steps + 1, n, 3) array per column and kind; a
    ``reference`` field adds a shared deterministic column, listed last."""
    start = [np.repeat(f[..., None], len(rngs), axis=2) for f in initial]
    if reference is not None:
        kinds = (*kinds, SystemKind.DETERMINISTIC)
        start.append(reference)
    columns, failed = record_batch(
        kinds, start, params, tg, spec=spec,
        noise=IncrementStreams(rngs, tg.steps, spec.mode_count, tg.dt), epsilons=epsilons,
    )
    assert failed == []
    return columns


def test_linearized_zero_path_stays_zero():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    ((v0, _),) = _coupled_states(
        (SystemKind.LINEARIZED_CLT,), (np.zeros((31, 3)),), p, tg, spec, initial_profile(g),
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
    base = initial_profile(g)
    columns = _coupled_states(
        (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT), (base, np.zeros_like(base)),
        p, tg, spec, base, [stream_rng(3), stream_rng(4)], [0.1, 0.1],
    )
    for j, seed in enumerate((3, 4)):
        ((alone_u,),) = _coupled_states(
            (SystemKind.STOCHASTIC,), (initial_profile(g),), p, tg, spec, None,
            [stream_rng(seed)], [0.1],
        )
        ((alone_v, _),) = _coupled_states(
            (SystemKind.LINEARIZED_CLT,), (np.zeros_like(base),), p, tg, spec, base,
            [stream_rng(seed)], [0.1],
        )
        u_eps, v0, _ = columns[j]
        assert u_eps.tobytes() == alone_u.tobytes()
        assert v0.tobytes() == alone_v.tobytes()
    # another stream drives another path
    for k in range(2):
        assert not np.array_equal(columns[0][k], columns[1][k])


def test_integrate_determinism_same_seed():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    a, b = (
        _coupled_states(
            (SystemKind.STOCHASTIC,), (initial_profile(g),), p, tg, spec, None,
            [stream_rng(1, 2)], [0.05],
        )[0][0]
        for _ in range(2)
    )
    assert a.tobytes() == b.tobytes()
    # a batch rerun on the same streams has the same bits
    runs = [
        _coupled_states(
            (SystemKind.STOCHASTIC,), (initial_profile(g),), p, tg, spec, None,
            [stream_rng(1, 2), stream_rng(1, 3)], [0.05, 0.5],
        )
        for _ in range(2)
    ]
    for j in range(2):
        assert runs[0][j][0].tobytes() == runs[1][j][0].tobytes()
    assert runs[0][0][0].tobytes() == a.tobytes()


# --- required inputs and failure modes -------------------------------------------

@pytest.mark.parametrize(
    "kind",
    [SystemKind.STOCHASTIC, SystemKind.CONTROLLED_STOCHASTIC, SystemKind.LINEARIZED_CLT],
    ids=lambda kind: kind.value,
)
def test_integrate_rejects_noisy_kinds(kind):
    # noisy kinds run as batch columns; integrate stores the noiseless ones
    tg = TimeGrid(0.05, 100)
    with pytest.raises(ValueError, match="integrate_batch"):
        integrate(kind, np.zeros((31, 3)), ModelParams(), tg, spec=make_covariance(4, 4.0))


def test_integrate_missing_inputs():
    g = make_grid(31)
    u0 = initial_profile(g)
    p = ModelParams()
    tg = TimeGrid(0.05, 100)
    spec = make_covariance(4, 4.0)
    noise = IncrementStreams([stream_rng(0)], tg.steps, 4, tg.dt)
    with pytest.raises(ValueError, match="covariance"):
        integrate_batch(
            (SystemKind.STOCHASTIC,), (u0[..., None],), p, tg, lambda *a: None,
            noise=noise, epsilons=(0.1,),
        )
    with pytest.raises(ValueError, match="control"):
        integrate(SystemKind.SKELETON, u0, p, tg, spec=spec)
    # a linearized system needs a deterministic system to linearize about
    with pytest.raises(ValueError, match="deterministic reference"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT,), (np.zeros((g.n_interior, 3, 1)),), p, tg,
            lambda *a: None, spec=spec, noise=noise,
        )
    with pytest.raises(ValueError, match="deterministic reference"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT, SystemKind.STOCHASTIC),
            (np.zeros((g.n_interior, 3, 1)), u0[..., None]), p, tg,
            lambda *a: None, spec=spec, noise=noise, epsilons=(0.1,),
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
    with pytest.raises(ValueError, match="zero initial"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC),
            (initial_profile(g)[..., None], initial_profile(g)), p, tg,
            lambda *a: None, spec=spec,
            noise=IncrementStreams([stream_rng(0)], tg.steps, 4, tg.dt),
        )


def test_blow_up_on_ceiling():
    g = make_grid(31)
    u0 = initial_profile(g, a=2e3)  # |u|_inf = 2e3, above the ceiling 1e3
    with pytest.raises(BlowUpError) as info:
        integrate(SystemKind.DETERMINISTIC, u0, ModelParams(), TimeGrid(0.01, 10))
    assert info.value.step == 0


def test_blow_up_on_instability(monkeypatch):
    # violent explicit precession with diffusion off must abort, not NaN out
    _without_diffusion(monkeypatch)
    g = make_grid(31)
    u0 = initial_profile(g)
    p = ModelParams(nu1=1.0, nu2=0.0, gamma=50.0, mu=0.0)
    with pytest.raises(BlowUpError) as info:
        integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(1.0, 100))
    assert info.value.step is not None and info.value.step > 0


def test_blow_up_error_carries_the_stream_key_and_step():
    # a = 30 makes the explicit cubic damping overshoot until step 3, as without noise
    g = make_grid(31)
    tg = TimeGrid(0.25, 64)
    _, (exc,) = record_batch(
        (SystemKind.STOCHASTIC,), (initial_profile(g, a=30.0)[..., None],),
        ModelParams(), tg, spec=make_covariance(8, 4.0),
        noise=IncrementStreams([stream_rng(7, 2)], tg.steps, 8, tg.dt), epsilons=(0.01,),
        keys=((7, 1, 2),),
    )
    assert (exc.key, exc.step, exc.time) == ((7, 1, 2), 3, 3 * tg.dt)


def test_blow_up_error_carries_the_failing_norm_and_the_explicit_term_ratio():
    # a = 10 overshoots later: the ratio is the largest of the steps before the failure
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.25, 64)
    u0 = initial_profile(g, a=10.0)[..., None]
    (states,), (exc,) = record_batch((SystemKind.DETERMINISTIC,), (u0,), p, tg)
    states = states[0]
    assert exc.step == len(states) > 1
    linf = np.sqrt((states ** 2).sum(axis=-1).max(axis=-1))
    ratio = tg.dt * abs(p.gamma) / g.spacing ** 2 * linf.max()
    assert exc.ratio == pytest.approx(ratio, rel=1e-12)
    assert exc.linf > LINF_CEILING
    assert f"|u|_inf = {exc.linf:.3g}" in str(exc)
    assert f"explicit-term ratio {exc.ratio:.3g}" in str(exc)


# --- record layout ------------------------------------------------------------------

def test_snapshot_striding():
    g = make_grid(31)
    args = (SystemKind.DETERMINISTIC, initial_profile(g), ModelParams(), TimeGrid(0.01, 100))
    rec = integrate(*args, stride=7)
    assert list(rec.snapshot_steps[:3]) == [0, 7, 14]
    assert rec.snapshot_steps[-1] == 100
    assert len(rec.snapshots) == len(rec.snapshot_steps) == 16
    assert not rec.dense
    dense = integrate(*args)
    assert dense.dense
    assert rec.snapshots[2].tobytes() == dense.snapshots[14].tobytes()


def test_trajectory_csv_writers(tmp_path):
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
    final = stack_norms(rec.final_values()[None], rec.grid.spacing)[0]
    assert [float(x) for x in last[2:]] == final.tolist()

    fields_path = tmp_path / "fields.csv"
    write_fields_csv(rec, fields_path)
    dump = fields_path.read_text().splitlines()
    assert dump[0] == "step,node_index,ux,uy,uz"
    assert len(dump) == 1 + 11 * 31


def _csv_writer_report(record, path):
    # the csv.writer implementation the template writers replaced: the oracle
    rows = stack_norms(record.snapshots, record.grid.spacing).tolist()
    times = record.times.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "l2", "h1_semi", "h2_semi", "linf"])
        for n, row in zip(record.snapshot_steps.tolist(), rows):
            writer.writerow([n, repr(times[n]), *map(repr, row)])


def _csv_writer_fields(record, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "node_index", "ux", "uy", "uz"])
        for i, step_idx in enumerate(record.snapshot_steps):
            for node in range(record.grid.n_interior):
                v = record.snapshots[i, node]
                writer.writerow(
                    [int(step_idx), node, repr(float(v[0])), repr(float(v[1])), repr(float(v[2]))]
                )


@st.composite
def _records(draw):
    n = draw(st.one_of(st.integers(3, 6), st.integers(100, 260)))
    steps = draw(st.integers(1, 12))
    stride = draw(st.integers(1, steps))
    snap_steps = np.unique(np.append(np.arange(0, steps + 1, stride), steps))
    snapshots = draw(arrays(np.float64, (len(snap_steps), n, 3), elements=EDGE_FLOATS))
    times = draw(arrays(np.float64, steps + 1, elements=EDGE_FLOATS))
    return TrajectoryRecord(
        kind="deterministic", params=ModelParams(), grid=make_grid(n), times=times,
        snapshots=snapshots, snapshot_steps=snap_steps,
    )


@settings(max_examples=60, deadline=None)
@given(_records())
def test_trajectory_csv_writers_match_csv_writer_bytes(tmp_path_factory, record):
    # repr floats (signed zeros, subnormals, huge, inf and nan) and CRLF rows,
    # byte for byte as csv.writer wrote them, at any stride and grid size
    out = tmp_path_factory.mktemp("writers")
    write_fields_csv(record, out / "fields.csv")
    _csv_writer_fields(record, out / "fields_oracle.csv")
    assert (out / "fields.csv").read_bytes() == (out / "fields_oracle.csv").read_bytes()
    # norms of huge or non-finite states overflow to inf or nan, as they should
    with np.errstate(over="ignore", invalid="ignore"):
        write_report_csv(record, out / "report.csv")
        _csv_writer_report(record, out / "report_oracle.csv")
    assert (out / "report.csv").read_bytes() == (out / "report_oracle.csv").read_bytes()


@pytest.mark.parametrize("source", ["stride", "single"])
def test_fields_csv_matches_repr_rows_whatever_its_snapshot_count(tmp_path, rng, source):
    # 11 snapshots do not fill a whole number of the writer's calls; 1 fills part of one
    if source == "stride":
        record = integrate(
            SystemKind.DETERMINISTIC, initial_profile(make_grid(31)), ModelParams(),
            TimeGrid(0.1, 100), stride=10,
        )
        assert len(record.snapshots) == 11
    else:
        # magnitudes 1e-12 to 1e20 of both signs: every spelling range of field.csv_rows
        shape = (1, 31, 3)
        values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-12.0, 20.0, shape)
        record = TrajectoryRecord(
            kind="deterministic", params=ModelParams(), grid=make_grid(31),
            times=np.zeros(1), snapshots=values, snapshot_steps=np.zeros(1, dtype=np.int64),
        )
    write_fields_csv(record, tmp_path / "fields.csv")
    _csv_writer_fields(record, tmp_path / "oracle.csv")
    assert (tmp_path / "fields.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


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
        ((states,),), failed = record_batch(
            (SystemKind.STOCHASTIC,), (u0[..., None],), p, tg, spec=spec,
            noise=IncrementStreams([stream_rng(17, m)], tg.steps, 8, tg.dt), epsilons=(0.1,),
        )
        assert failed == []
        sups.append(np.max(stack_norms(states, g.spacing)[:, 1]) ** 2)
    assert det_sup / 3.0 <= float(np.mean(sups)) <= 3.0 * det_sup


# --- batches of sample columns ----------------------------------------------------

BATCH_GRID = make_grid(9)
BATCH_TIME = TimeGrid(0.02, 24)
BATCH_SPEC = make_covariance(16, 4.0)


def _batch_setup(kind, seed, width):
    """Initial states, epsilons, control and reference field of a ``width``-column
    run of ``kind``."""
    rng = np.random.default_rng(seed)
    if kind is SystemKind.LINEARIZED_CLT:
        initial = np.zeros((BATCH_GRID.n_interior, 3, width))
    else:
        initial = rng.normal(size=(BATCH_GRID.n_interior, 3, width))
    epsilons = rng.choice([0.0, 1e-3, 0.1, 1.0], size=width)
    ctrl = ControlPath(rng.normal(size=(BATCH_TIME.steps, BATCH_SPEC.mode_count, 3)), BATCH_TIME.dt)
    return initial, epsilons, ctrl, initial_profile(BATCH_GRID)


def _control_for(kinds, ctrl):
    controlled = (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON)
    return ctrl if any(k in controlled for k in kinds) else None


def _run_batch(kinds, initial, epsilons, ctrl, base, seed, columns):
    """March ``columns`` of the setup as one batch, with the ``base`` field as a
    shared deterministic column, listed last, when a linearized system needs
    one; returns each column's ``record_batch`` states, by column, and the
    failures."""
    start = [u[..., columns] for u in initial]
    if SystemKind.LINEARIZED_CLT in kinds and SystemKind.DETERMINISTIC not in kinds:
        kinds = (*kinds, SystemKind.DETERMINISTIC)
        start.append(base)
    states, failed = record_batch(
        kinds, start, ModelParams(), BATCH_TIME,
        spec=BATCH_SPEC, ctrl=_control_for(kinds, ctrl),
        noise=IncrementStreams(
            [stream_rng(seed, j) for j in columns],
            BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt,
        ),
        epsilons=epsilons[columns], keys=[(seed, j) for j in columns],
    )
    return dict(zip(columns, states)), failed


def _single_run(kind, initial, epsilons, ctrl, base, seed, j):
    """Column j of ``kind`` run alone: the ``integrate`` record of a noiseless
    kind, the width-1 batch of a noisy one."""
    if kind in (SystemKind.DETERMINISTIC, SystemKind.SKELETON):
        return integrate(
            kind, initial[..., j], ModelParams(),
            BATCH_TIME, spec=BATCH_SPEC, ctrl=_control_for((kind,), ctrl),
        ).snapshots
    seen, failed = _run_batch((kind,), (initial,), epsilons, ctrl, base, seed, [j])
    assert failed == []
    return seen[j][0]


BATCH_CASES = [(kind,) for kind in SystemKind] + [
    (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT),
    # two systems read one control term per step
    (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON),
    # noiseless systems march in lockstep beside a noisy one
    (SystemKind.DETERMINISTIC, SystemKind.STOCHASTIC, SystemKind.SKELETON),
]


@pytest.mark.parametrize("kinds", BATCH_CASES, ids=lambda ks: "+".join(k.value for k in ks))
@settings(max_examples=15, deadline=None)
@given(
    width=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.sets(st.integers(1, 7), max_size=3),
    blown=st.sets(st.integers(0, 7), max_size=3),
)
# every column with epsilon > 0 retires, and the noiseless ones march on
@example(width=6, seed=44, cuts=set(), blown={1, 3, 4})
def test_batch_columns_equal_their_single_runs_bitwise(kinds, width, seed, cuts, blown):
    # the ``blown`` columns start 100 times larger, where explicit cubic
    # damping overshoots, u -> (1 - dt (1 + |u|^2)) u grows, and they retire
    setups = [_batch_setup(kind, seed, width) for kind in kinds]
    initial = [s[0] for s in setups]
    _, epsilons, ctrl, base = setups[0]
    for u in initial:
        u[..., [j for j in blown if j < width]] *= 100.0
    bounds = [0, *sorted(c for c in cuts if c < width), width]
    for lo, hi in zip(bounds, bounds[1:]):
        columns = list(range(lo, hi))
        seen, failed = _run_batch(kinds, initial, epsilons, ctrl, base, seed, columns)
        retired = {exc.key[1]: exc for exc in failed}
        for j in columns:
            if j in retired:
                # the failure and the states up to it are those of its width-1 batch
                alone, (exc,) = _run_batch(kinds, initial, epsilons, ctrl, base, seed, [j])
                assert (retired[j].key, retired[j].step, str(retired[j])) == (
                    exc.key, exc.step, str(exc)
                )
                for states, states_alone in zip(seen[j], alone[j]):
                    assert states.tobytes() == states_alone.tobytes(), j
                continue
            for k, kind in enumerate(kinds):
                alone = _single_run(kind, initial[k], epsilons, ctrl, base, seed, j)
                assert seen[j][k].tobytes() == alone.tobytes(), (kind, j)
                if kind is SystemKind.STOCHASTIC and epsilons[j] == 0.0:
                    # criterion 4 inside a batch that may hold noisy and retired columns
                    det = _single_run(
                        SystemKind.DETERMINISTIC, initial[k], epsilons, ctrl, base, seed, j
                    )
                    assert seen[j][k].tobytes() == det.tobytes(), j


REFERENCE_CASES = [
    ((SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT), SystemKind.DETERMINISTIC),
    ((SystemKind.CONTROLLED_STOCHASTIC,), SystemKind.SKELETON),
]


@pytest.mark.parametrize(
    "kinds, ref_kind", REFERENCE_CASES, ids=["deterministic-reference", "skeleton-reference"]
)
@settings(max_examples=15, deadline=None)
@given(
    width=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    blown=st.sets(st.integers(0, 7), max_size=8),
    ref_scale=st.sampled_from([1.0, 1.0, 10.0, 100.0]),
)
# every sample column retires and the reference marches on alone, to the end
# or to its own blow-up a few steps later
@example(width=3, seed=5, blown={0, 1, 2}, ref_scale=1.0)
@example(width=3, seed=5, blown={0, 1, 2}, ref_scale=10.0)
def test_shared_reference_column_has_the_bits_of_integrate(
    kinds, ref_kind, width, seed, blown, ref_scale
):
    # the noiseless reference as a shared column of a batch: its states are
    # integrate's snapshots byte for byte, whatever the width and whichever
    # columns retire, every sample column keeps the bits of its own width-1
    # batch, and a reference that blows up raises integrate's BlowUpError
    setups = [_batch_setup(kind, seed, width) for kind in kinds]
    initial = [s[0] for s in setups]
    _, epsilons, ctrl, _ = setups[0]
    for u in initial:
        u[..., [j for j in blown if j < width]] *= 100.0
    draw = np.random.default_rng(seed + 1).normal(size=(BATCH_GRID.n_interior, 3))
    ref = ref_scale * draw
    ctrl = _control_for((ref_kind,), ctrl)

    def run(columns):
        return record_batch(
            (*kinds, ref_kind), [u[..., columns] for u in initial] + [ref],
            ModelParams(), BATCH_TIME, spec=BATCH_SPEC, ctrl=ctrl,
            noise=IncrementStreams(
                [stream_rng(seed, j) for j in columns],
                BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt,
            ),
            epsilons=epsilons[columns], keys=[(seed, j) for j in columns],
        )

    try:
        alone = integrate(ref_kind, ref, ModelParams(), BATCH_TIME, spec=BATCH_SPEC, ctrl=ctrl)
    except BlowUpError as exc:
        with pytest.raises(BlowUpError) as info:
            run(list(range(width)))
        raised = info.value
        assert (raised.step, raised.key, raised.linf, raised.ratio, str(raised)) == (
            exc.step, None, exc.linf, exc.ratio, str(exc)
        )
        return
    seen, failed = run(list(range(width)))
    retired = {exc.key[1]: exc for exc in failed}
    for j in range(width):
        assert seen[j][-1].tobytes() == alone.snapshots.tobytes(), j
        single, single_failed = run([j])
        assert [(exc.key, exc.step, str(exc)) for exc in single_failed] == (
            [(retired[j].key, retired[j].step, str(retired[j]))] if j in retired else []
        )
        for states, states_alone in zip(seen[j], single[0]):
            assert states.tobytes() == states_alone.tobytes(), j


def test_integrate_batch_checks_its_inputs():
    initial, epsilons, ctrl, base = _batch_setup(SystemKind.STOCHASTIC, 1, 2)
    kw = dict(spec=BATCH_SPEC)
    with pytest.raises(ValueError, match="initial batch"):
        integrate_batch(
            (SystemKind.STOCHASTIC,), (initial[..., 0],), ModelParams(),
            BATCH_TIME, lambda *a: None, **kw,
        )
    with pytest.raises(ValueError, match="increment streams"):
        integrate_batch(
            (SystemKind.STOCHASTIC,), (initial,), ModelParams(),
            BATCH_TIME, lambda *a: None, epsilons=epsilons, **kw,
        )
    with pytest.raises(ValueError, match="zero initial"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC),
            (initial, base), ModelParams(), BATCH_TIME, lambda *a: None,
            noise=IncrementStreams([stream_rng(0), stream_rng(1)], 24, 16, BATCH_TIME.dt), **kw,
        )
    # a shared column runs a noiseless kind beside at least one batch system
    with pytest.raises(ValueError, match="shared column"):
        integrate_batch(
            (SystemKind.DETERMINISTIC, SystemKind.STOCHASTIC),
            (initial, base), ModelParams(), BATCH_TIME, lambda *a: None,
            noise=IncrementStreams([stream_rng(0), stream_rng(1)], 24, 16, BATCH_TIME.dt),
            epsilons=epsilons, **kw,
        )
    # no batch system, or a shared field before one
    for kinds, start in (
        ((SystemKind.DETERMINISTIC,), (base,)),
        ((SystemKind.DETERMINISTIC, SystemKind.DETERMINISTIC), (base, initial)),
    ):
        with pytest.raises(ValueError, match="initial batch"):
            integrate_batch(kinds, start, ModelParams(), BATCH_TIME, lambda *a: None)


# --- inputs a kind cannot use ---------------------------------------------------------

BATCH_CONTROL = zero_control(BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(SystemKind)),
    with_spec=st.booleans(),
    with_ctrl=st.booleans(),
    with_reference=st.booleans(),
    batch=st.booleans(),
)
def test_each_kind_takes_exactly_the_inputs_it_uses(
    kind, with_spec, with_ctrl, with_reference, batch
):
    # a control drives only the controlled kinds, and the linearized one needs
    # a deterministic reference, here a shared column; both entry points reject
    # every other combination before stepping, and integrate every noisy kind
    controlled = kind in (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON)
    linearized = kind is SystemKind.LINEARIZED_CLT
    valid = (with_spec or kind is SystemKind.DETERMINISTIC) and with_ctrl == controlled
    if batch:
        valid = valid and (with_reference or not linearized)
    else:
        valid = valid and kind in (SystemKind.DETERMINISTIC, SystemKind.SKELETON)
    initial = np.zeros((BATCH_GRID.n_interior, 3)) if linearized else initial_profile(BATCH_GRID)
    inputs = dict(
        spec=BATCH_SPEC if with_spec else None,
        ctrl=BATCH_CONTROL if with_ctrl else None,
    )

    def run():
        if batch:
            reference = ((SystemKind.DETERMINISTIC,), (initial_profile(BATCH_GRID),))
            kinds, start = ((kind,), (np.repeat(initial[..., None], 2, axis=2),))
            if with_reference:
                kinds, start = kinds + reference[0], start + reference[1]
            return integrate_batch(
                kinds, start, ModelParams(), BATCH_TIME, lambda *a: None,
                noise=IncrementStreams(
                    [stream_rng(0), stream_rng(1)], BATCH_TIME.steps, BATCH_SPEC.mode_count,
                    BATCH_TIME.dt,
                ),
                epsilons=[0.1, 0.1], **inputs,
            )
        return integrate(kind, initial, ModelParams(), BATCH_TIME, **inputs)

    if valid:
        run()
    else:
        with pytest.raises(ValueError):
            run()


# --- the adjoint sweep -----------------------------------------------------------------

ADJOINT_GRID = make_grid(7)
ADJOINT_SPEC = make_covariance(3, 4.0)
ADJOINT_TIME = TimeGrid(0.25, 24)
ADJOINT_U0 = initial_profile(ADJOINT_GRID)


def _adjoint_oracle(record, tgrid, spec, ctrl, terminal):
    """The adjoint sweep a step at a time: each step takes the Laplacian, the
    squared norms and the control field of its own snapshot, and crosses mu
    with it once for the precession term and once for the sensitivity."""
    params = record.params
    h = record.grid.spacing
    dt = tgrid.dt
    mode_mat = mode_matrix(spec, record.grid)
    sens = np.empty_like(ctrl.coefficients)
    lam = np.asarray(terminal, dtype=float)
    for n in range(tgrid.steps - 1, -1, -1):
        v = record.snapshots[n]
        g = dt * (mode_mat @ ctrl.coefficients[n])
        mu = helm_values(lam, h, dt * params.nu1)
        out = mu
        drive = _drive(lap_values(v, h), params, dt, g)
        if drive is not None:
            out = out + cross_values(drive, mu)
        if params.gamma != 0.0:
            out = out + (dt * params.gamma) * lap_values(cross_values(mu, v), h)
        if params.nu2 != 0.0:
            out = out - (dt * params.nu2 * (1.0 + params.mu * sq_norm_values(v)))[:, None] * mu
            if params.mu != 0.0:
                dot = np.einsum("ij,ij->i", v, mu)
                out = out - (2.0 * dt * params.nu2 * params.mu) * dot[:, None] * v
        lam = out
        sens[n] = dt * (mode_mat.T @ cross_values(mu, v))
    return sens


ADJOINT_STEPS = (24, STACK_CHUNK, 300, 2 * STACK_CHUNK + 1)
adjoint_coefficient = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
# a slab of the control is drawn, zero or negative zero
slab_kinds = st.lists(st.sampled_from(["drawn", "zero", "negative zero"]), min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(
    steps=st.sampled_from(ADJOINT_STEPS),
    slabs=slab_kinds,
    gamma=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    nu2=adjoint_coefficient,
    mu=adjoint_coefficient,
    zero_components=st.sampled_from([[], [2], [0, 1, 2]]),
    zero=st.sampled_from([0.0, -0.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(steps=24, slabs=["drawn"], gamma=1.0, nu2=1.0, mu=1.0, zero_components=[], zero=0.0,
         seed=0)
@example(steps=STACK_CHUNK, slabs=["zero", "drawn"], gamma=0.0, nu2=1.0, mu=1.0,
         zero_components=[], zero=0.0, seed=1)
@example(steps=300, slabs=["drawn", "negative zero"], gamma=1.0, nu2=0.0, mu=0.0,
         zero_components=[2], zero=0.0, seed=2)
@example(steps=2 * STACK_CHUNK + 1, slabs=["drawn", "zero", "drawn"], gamma=-1.5, nu2=1.0,
         mu=0.0, zero_components=[], zero=0.0, seed=3)
# a terminal of negative zeros keeps every step's adjoint at signed zeros
@example(steps=300, slabs=["drawn", "zero"], gamma=0.0, nu2=0.0, mu=0.0,
         zero_components=[0, 1, 2], zero=-0.0, seed=4)
def test_skeleton_adjoint_has_the_bits_of_the_step_by_step_sweep(
    steps, slabs, gamma, nu2, mu, zero_components, zero, seed
):
    # across chunk boundaries, over control slabs whose fields are skipped as
    # zero, with terminals that hold zeros, and with each of the coefficients
    # that switch a term off
    params = ModelParams(nu1=1.0, nu2=nu2, gamma=gamma, mu=mu)
    tg = TimeGrid(0.25, steps)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(steps, ADJOINT_SPEC.mode_count, 3))
    for kind, part in zip(slabs, np.array_split(np.arange(steps), len(slabs))):
        if kind != "drawn":
            coeffs[part] = 0.0 if kind == "zero" else -0.0
    ctrl = ControlPath(coeffs, tg.dt)
    record = integrate(SystemKind.SKELETON, ADJOINT_U0, params, tg, spec=ADJOINT_SPEC, ctrl=ctrl)
    terminal = rng.normal(size=(ADJOINT_GRID.n_interior, 3))
    terminal[:, zero_components] = zero
    swept = skeleton_adjoint(record, tg, ADJOINT_SPEC, ctrl, terminal)
    oracle = _adjoint_oracle(record, tg, ADJOINT_SPEC, ctrl, terminal)
    assert swept.tobytes() == oracle.tobytes()


ADJOINT_CONTROL = single_mode_control(
    ADJOINT_TIME.steps, ADJOINT_SPEC.mode_count, ADJOINT_TIME.dt, mode=1, component=1,
    coefficient=0.5,
)
ADJOINT_RECORD = integrate(
    SystemKind.SKELETON, ADJOINT_U0, ModelParams(), ADJOINT_TIME, spec=ADJOINT_SPEC,
    ctrl=ADJOINT_CONTROL,
)
LONGER_TIME = TimeGrid(1.0, ADJOINT_TIME.steps)


def _adjoint_case(record=ADJOINT_RECORD, tgrid=ADJOINT_TIME, coefficients=None, dt=None,
                  terminal=(ADJOINT_GRID.n_interior, 3)):
    coefficients = ADJOINT_CONTROL.coefficients if coefficients is None else coefficients
    ctrl = ControlPath(coefficients, tgrid.dt if dt is None else dt)
    return record, tgrid, ADJOINT_SPEC, ctrl, np.ones(terminal)


@pytest.mark.parametrize(
    "case, match",
    [
        (lambda: _adjoint_case(record=integrate(
            SystemKind.DETERMINISTIC, ADJOINT_U0, ModelParams(), ADJOINT_TIME)),
         "skeleton record"),
        (lambda: _adjoint_case(record=integrate(
            SystemKind.SKELETON, ADJOINT_U0, ModelParams(), ADJOINT_TIME, spec=ADJOINT_SPEC,
            ctrl=ADJOINT_CONTROL, stride=2)),
         "every step"),
        # the same number of steps over another horizon
        (lambda: _adjoint_case(tgrid=LONGER_TIME), "every step"),
        (lambda: _adjoint_case(coefficients=ADJOINT_CONTROL.coefficients[1:]), "23 steps"),
        (lambda: _adjoint_case(coefficients=ADJOINT_CONTROL.coefficients[:, :2]), "2 modes"),
        (lambda: _adjoint_case(dt=LONGER_TIME.dt), "control dt"),
        (lambda: _adjoint_case(terminal=(3,)), "terminal"),
        (lambda: _adjoint_case(terminal=(7, 1)), "terminal"),
        (lambda: _adjoint_case(terminal=(6, 3)), "terminal"),
    ],
    ids=[
        "deterministic-record", "strided-record", "other-horizon", "control-steps",
        "control-modes", "control-dt", "terminal-3", "terminal-7x1", "terminal-6x3",
    ],
)
def test_skeleton_adjoint_rejects_inputs_that_do_not_fit_the_run(case, match):
    with pytest.raises(ValueError, match=match):
        skeleton_adjoint(*case())
