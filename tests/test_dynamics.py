import csv
import itertools
import math
import re

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
    REPORT_HEADER,
    TrajectoryRecord,
    _batch_rhs,
    initial_profile,
    integrate,
    integrate_batch,
    skeleton_adjoint,
    write_fields_csv,
    write_report_csv,
    write_report_rows,
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
            rngs=[stream_rng(0)], epsilons=(1.5,),
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

def _rhs(v, params, dt):
    """The right-hand side of one step of the deterministic system from the field
    v (n, 3), before its implicit solve: ``_batch_rhs`` of the width-1 batch of v."""
    u = v[..., None]
    buffers = [u, lap_values(u, make_grid(len(v)).spacing), sq_norm_values(u)]
    buffers += [np.empty_like(u), np.empty_like(u)]
    _batch_rhs(*[(a, [a]) for a in buffers], [(False, None)], (None, (), None), None, None,
               params, dt)
    return buffers[3][..., 0]


def _drift(v, params):
    # the explicit drift is (rhs - v) / dt; dt = 1 keeps the subtraction from
    # scaling its rounding up
    return _rhs(v, params, 1.0) - v


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
    manual = helm_values(_rhs(u0, p, tg.dt), g.spacing, tg.dt * p.nu1)
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

DEGENERATION_PARAMS = {
    f"gamma={g:g},nu2={n:g},mu={m:g}": ModelParams(gamma=g, nu2=n, mu=m)
    for g, n, m in itertools.product((0.0, 1.0), repeat=3)
}


def _degeneration_field(name):
    """An initial field of the degeneration tests on 63 nodes: the default
    profile, or one whose zeros are negative zeros."""
    u0 = initial_profile(make_grid(63))
    if name == "negative zeros":
        u0 = np.full_like(u0, -0.0)
    elif name == "profile, zeros negative":
        u0[u0 == 0.0] = -0.0
    elif name == "drawn, 30 % negative zeros":
        rng = np.random.default_rng(30)
        u0 = rng.normal(size=u0.shape)
        u0[rng.random(u0.shape) < 0.3] = -0.0
    return u0


DEGENERATION_FIELDS = [
    "profile", "negative zeros", "profile, zeros negative", "drawn, 30 % negative zeros"
]


@pytest.mark.parametrize("field", DEGENERATION_FIELDS)
@pytest.mark.parametrize("p", DEGENERATION_PARAMS.values(), ids=DEGENERATION_PARAMS)
def test_stochastic_eps_zero_degenerates_bitwise(p, field):
    # criterion 4, alone and beside a noisy column: the column at eps = 0 has
    # the deterministic run's bits, signed zeros included, with every term of
    # the step switched on or off
    u0 = _degeneration_field(field)
    tg = TimeGrid(0.05, 200)
    spec = make_covariance(8, 4.0)
    det = integrate(SystemKind.DETERMINISTIC, u0, p, tg)
    _, det_cfl = integrate_batch((SystemKind.DETERMINISTIC,), (u0,), p, tg, lambda n, u: None)
    for epsilons in [(0.0,), (0.1, 0.0)]:
        width = len(epsilons)
        sto = []
        failures, cfl = integrate_batch(
            (SystemKind.STOCHASTIC,), (np.repeat(u0[..., None], width, axis=2),), p, tg,
            lambda n, u: sto.append(u[..., -1].copy()),
            spec=spec, rngs=[stream_rng(7, 0, j) for j in range(width)], epsilons=epsilons,
        )
        assert failures == []
        assert det.snapshots.tobytes() == np.array(sto).tobytes(), epsilons
        if width == 1:
            assert det_cfl == cfl


@pytest.mark.parametrize("field", DEGENERATION_FIELDS)
@pytest.mark.parametrize("p", DEGENERATION_PARAMS.values(), ids=DEGENERATION_PARAMS)
def test_skeleton_zero_control_degenerates_bitwise(p, field):
    # the skeleton under a control of zeros or of negative zeros has the
    # deterministic run's bits, signed zeros included
    u0 = _degeneration_field(field)
    tg = TimeGrid(0.05, 200)
    spec = make_covariance(8, 4.0)
    det = integrate(SystemKind.DETERMINISTIC, u0, p, tg)
    for zero in (0.0, -0.0):
        ctrl = ControlPath(np.full((200, 8, 3), zero), tg.dt)
        ske = integrate(SystemKind.SKELETON, u0, p, tg, spec=spec, ctrl=ctrl)
        assert det.snapshots.tobytes() == ske.snapshots.tobytes(), zero


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
        rngs=rngs, epsilons=epsilons,
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
    rngs = [stream_rng(0)]
    with pytest.raises(ValueError, match="covariance"):
        integrate_batch(
            (SystemKind.STOCHASTIC,), (u0[..., None],), p, tg, lambda *a: None,
            rngs=rngs, epsilons=(0.1,),
        )
    with pytest.raises(ValueError, match="control"):
        integrate(SystemKind.SKELETON, u0, p, tg, spec=spec)
    # a linearized system needs a deterministic system to linearize about
    with pytest.raises(ValueError, match="deterministic reference"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT,), (np.zeros((g.n_interior, 3, 1)),), p, tg,
            lambda *a: None, spec=spec, rngs=rngs,
        )
    with pytest.raises(ValueError, match="deterministic reference"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT, SystemKind.STOCHASTIC),
            (np.zeros((g.n_interior, 3, 1)), u0[..., None]), p, tg,
            lambda *a: None, spec=spec, rngs=rngs, epsilons=(0.1,),
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
            rngs=[stream_rng(0)],
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
        rngs=[stream_rng(7, 2)], epsilons=(0.01,),
        keys=((7, 1, 2),),
    )
    assert (exc.key, exc.step, exc.time) == ((7, 1, 2), 3, 3 * tg.dt)


def test_blow_up_error_carries_the_failing_norm_and_the_explicit_term_ratio():
    # a = 10 overshoots later: the ratio is the largest of the steps before the failure
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.25, 64)
    seen = []
    with pytest.raises(BlowUpError) as info:
        integrate_batch(
            (SystemKind.DETERMINISTIC,), (initial_profile(g, a=10.0),), p, tg,
            lambda n, u: seen.append(u[..., 0].copy()),
        )
    exc, states = info.value, np.array(seen)
    assert exc.step == len(states) > 1 and exc.key is None
    linf = np.sqrt((states ** 2).sum(axis=-1).max(axis=-1))
    ratio = tg.dt * abs(p.gamma) / g.spacing ** 2 * linf.max()
    assert exc.ratio == pytest.approx(ratio, rel=1e-12)
    assert exc.linf > LINF_CEILING
    assert f"|u|_inf = {exc.linf:.3g}" in str(exc)
    assert f"explicit-term ratio {exc.ratio:.3g}" in str(exc)


def _exactly(exc):
    """A BlowUpError's key, step, linf, ratio and message; repr round-trips a
    float, so two of these are equal exactly when the numbers have the same
    bits, a NaN linf included."""
    return exc.key, exc.step, repr(exc.linf), repr(exc.ratio), str(exc)


def test_partly_blown_up_batch_retires_each_column_as_its_width_1_run():
    # u_eps and V0 beside a shared reference: columns 2 and 3 start where the
    # explicit damping overshoots and fail the ceiling at different steps,
    # column 4's increments are infinite (a non-finite state), column 5's so
    # large that its squares overflow past 1.3e154 (|u|_inf taken relative to
    # the largest magnitude) and column 6's loud enough that its V0, not its
    # u_eps, sets its ratio; columns 0 and 1 run to the end, with larger
    # explicit-term ratios than the reference's
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.25, 64)
    amplitudes = [2.0, 4.0, 10.0, 30.0, 1.0, 1.0, 1.0]
    gains = [1.0, 1.0, 1.0, 1.0, math.inf, 1e200, 3000.0]
    u0 = np.stack([initial_profile(g, a=a) for a in amplitudes], axis=-1)

    def run(columns):
        seen = []
        failures, cfl = integrate_batch(
            (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC),
            (u0[..., columns], np.zeros((31, 3, len(columns))), initial_profile(g)),
            p, tg, lambda n, u: seen.append(u.copy()),
            spec=make_covariance(8, 4.0),
            rngs=[ScaledRng(stream_rng(3, j), gains[j]) for j in columns],
            epsilons=[0.01] * len(columns), keys=list(columns),
        )
        return failures, cfl, np.array(seen)

    def ratio(steps):
        # the largest explicit-term ratio of the stored (S, n, 3, C) states, as the check takes it
        sq = sq_norm_values(np.moveaxis(steps, 0, -1))
        return float(cfl_scale * np.sqrt(sq.max()))

    cfl_scale = tg.dt * abs(p.gamma) / (g.spacing * g.spacing)
    width = len(amplitudes)
    failures, cfl, seen = run(list(range(width)))
    assert sorted(exc.key for exc in failures) == [2, 3, 4, 5, 6]
    assert len({exc.step for exc in failures}) >= 3
    by_key = {exc.key: exc for exc in failures}
    assert str(by_key[4]).startswith("non-finite state") and math.isnan(by_key[4].linf)
    assert 1.3e154 < by_key[5].linf < math.inf
    # the steps before a failure, u_eps and V0 of the column, give its ratio
    for j, exc in by_key.items():
        assert exc.ratio == ratio(seen[:exc.step, ..., [j, width + j]]), j
    assert ratio(seen[:by_key[6].step, ..., [6]]) < by_key[6].ratio
    # the survivors and the reference over every step give the batch's ratio
    assert cfl == ratio(seen[..., [0, 1, width, width + 1, -1]]) > ratio(seen[..., [-1]])
    alone = {j: run([j]) for j in range(width)}
    for exc in failures:
        (single,), _, _ = alone[exc.key]
        assert _exactly(exc) == _exactly(single)
    assert alone[0][0] == alone[1][0] == []
    assert cfl == max(alone[0][1], alone[1][1])


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
    assert (int(last[0]), float(last[1])) == (10, rec.tgrid.times[10])
    final = stack_norms(rec.final_values()[None], rec.grid.spacing)[0]
    assert [float(x) for x in last[2:]] == final.tolist()

    fields_path = tmp_path / "fields.csv"
    write_fields_csv(rec, fields_path)
    dump = fields_path.read_text().splitlines()
    assert dump[0] == "step,node_index,ux,uy,uz"
    assert len(dump) == 1 + 11 * 31


def _csv_writer_report(record, times, path):
    # the csv.writer implementation the template writers replaced: the oracle
    rows = stack_norms(record.snapshots, record.grid.spacing).tolist()
    times = times.tolist()
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
    record = TrajectoryRecord(
        kind="deterministic", params=ModelParams(), tgrid=TimeGrid(1.0, steps), spec=None,
        ctrl=None, snapshots=snapshots, snapshot_steps=snap_steps,
    )
    return record, times


@settings(max_examples=60, deadline=None)
@given(_records())
def test_trajectory_csv_writers_match_csv_writer_bytes(tmp_path_factory, drawn):
    # repr floats (signed zeros, subnormals, huge, inf and nan) and CRLF rows,
    # byte for byte as csv.writer wrote them, at any stride and grid size; a
    # record's times are those of its time grid, so the block writer takes an
    # arbitrary time column
    record, times = drawn
    out = tmp_path_factory.mktemp("writers")
    write_fields_csv(record, out / "fields.csv")
    _csv_writer_fields(record, out / "fields_oracle.csv")
    assert (out / "fields.csv").read_bytes() == (out / "fields_oracle.csv").read_bytes()
    # norms of huge or non-finite states overflow to inf or nan, as they should
    steps = record.snapshot_steps
    with np.errstate(over="ignore", invalid="ignore"):
        with open(out / "report.csv", "wb") as fh:
            fh.write(REPORT_HEADER)
            rows = stack_norms(record.snapshots, record.grid.spacing)
            write_report_rows(fh, steps, times[steps], rows)
        _csv_writer_report(record, times, out / "report_oracle.csv")
        write_report_csv(record, out / "record_report.csv")
        _csv_writer_report(record, record.tgrid.times, out / "record_report_oracle.csv")
    assert (out / "report.csv").read_bytes() == (out / "report_oracle.csv").read_bytes()
    assert (out / "record_report.csv").read_bytes() == (
        out / "record_report_oracle.csv"
    ).read_bytes()


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
            kind="deterministic", params=ModelParams(), tgrid=TimeGrid(1.0, 1), spec=None,
            ctrl=None, snapshots=values, snapshot_steps=np.zeros(1, dtype=np.int64),
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
            rngs=[stream_rng(17, m)], epsilons=(0.1,),
        )
        assert failed == []
        sups.append(np.max(stack_norms(states, g.spacing)[:, 1]) ** 2)
    assert det_sup / 3.0 <= float(np.mean(sups)) <= 3.0 * det_sup


# --- batches of sample columns ----------------------------------------------------

BATCH_GRID = make_grid(9)
BATCH_TIME = TimeGrid(0.02, 24)
BATCH_SPEC = make_covariance(16, 4.0)


NOISELESS = (SystemKind.DETERMINISTIC, SystemKind.SKELETON)


def _batch_setup(kind, seed, width):
    """Initial state, epsilons, control and reference field of a run of ``kind``:
    a ``width``-column batch of a noisy kind, one (n, 3) field of a noiseless one."""
    rng = np.random.default_rng(seed)
    shape = (BATCH_GRID.n_interior, 3) + (() if kind in NOISELESS else (width,))
    if kind is SystemKind.LINEARIZED_CLT:
        initial = np.zeros(shape)
    else:
        initial = rng.normal(size=shape)
    epsilons = rng.choice([0.0, 1e-3, 0.1, 1.0], size=width)
    ctrl = ControlPath(rng.normal(size=(BATCH_TIME.steps, BATCH_SPEC.mode_count, 3)), BATCH_TIME.dt)
    return initial, epsilons, ctrl, initial_profile(BATCH_GRID)


def _controls_for(kinds, ctrls):
    """``integrate_batch``'s control entries: each controlled kind's own control,
    None for any other kind."""
    controlled = (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON)
    return tuple(c if k in controlled else None for k, c in zip(kinds, ctrls, strict=True))


def _run_batch(kinds, initial, epsilons, ctrls, base, seed, columns, params=ModelParams()):
    """March ``columns`` of the setup as one batch, each system under its own
    control of ``ctrls``: the columns of every noisy system, then each
    noiseless system as one shared column, and the ``base`` field as a shared
    deterministic column, listed last, when a linearized system needs one.
    Returns each column's ``record_batch`` states, by column, and the
    failures; noiseless systems alone have no sample column, and their states
    are listed under None."""
    if all(kind in NOISELESS for kind in kinds):
        columns = []
    start = [u if kind in NOISELESS else u[..., columns] for kind, u in zip(kinds, initial)]
    ctrls = _controls_for(kinds, ctrls)
    if SystemKind.LINEARIZED_CLT in kinds and SystemKind.DETERMINISTIC not in kinds:
        kinds = (*kinds, SystemKind.DETERMINISTIC)
        start.append(base)
        ctrls = (*ctrls, None)
    states, failed = record_batch(
        kinds, start, params, BATCH_TIME,
        spec=BATCH_SPEC, ctrl=ctrls,
        rngs=[stream_rng(seed, j) for j in columns],
        epsilons=epsilons[columns], keys=[(seed, j) for j in columns],
    )
    return dict(zip(columns or [None], states)), failed


def _single_run(kind, initial, epsilons, ctrl, base, seed, j, params=ModelParams()):
    """A system run alone: the ``integrate`` record of a noiseless kind from its
    field, column j of a noisy kind as its width-1 batch."""
    if kind in NOISELESS:
        return integrate(
            kind, initial, params,
            BATCH_TIME, spec=BATCH_SPEC, ctrl=_controls_for((kind,), (ctrl,))[0],
        ).snapshots
    seen, failed = _run_batch((kind,), (initial,), epsilons, (ctrl,), base, seed, [j], params)
    assert failed == []
    return seen[j][0]


def _assert_columns_run_as_alone(kinds, initial, epsilons, ctrls, base, seed, columns, params):
    """March ``columns`` as one batch and check every column against its own run:
    each noiseless system's shared column has the bits of its ``integrate`` run
    beside every sample column, a retired sample column's failure and states
    up to it are those of its width-1 batch, any other sample column's states
    those of ``_single_run`` of each noisy kind, and a stochastic column at
    epsilon 0 has the deterministic run's bits. A linearized system follows
    the batch's own deterministic system, if it has one, alone too. Returns
    the batch's failures."""
    if SystemKind.DETERMINISTIC in kinds:
        base = initial[kinds.index(SystemKind.DETERMINISTIC)]
    seen, failed = _run_batch(kinds, initial, epsilons, ctrls, base, seed, columns, params)
    retired = {exc.key[1]: exc for exc in failed}
    shared = {
        k: _single_run(kind, initial[k], epsilons, ctrls[k], base, seed, None, params)
        for k, kind in enumerate(kinds) if kind in NOISELESS
    }
    for j, states in seen.items():
        for k, alone in shared.items():
            assert states[k].tobytes() == alone.tobytes(), (kinds[k], j)
        if j in retired:
            alone, (exc,) = _run_batch(kinds, initial, epsilons, ctrls, base, seed, [j], params)
            assert _exactly(retired[j]) == _exactly(exc)
            for column, column_alone in zip(states, alone[j]):
                assert column.tobytes() == column_alone.tobytes(), j
            continue
        for k, kind in enumerate(kinds):
            if k in shared:
                continue
            alone = _single_run(kind, initial[k], epsilons, ctrls[k], base, seed, j, params)
            assert states[k].tobytes() == alone.tobytes(), (kind, j)
            if kind is SystemKind.STOCHASTIC and epsilons[j] == 0.0:
                # criterion 4 inside a batch that may hold noisy and retired columns
                det = integrate(SystemKind.DETERMINISTIC, initial[k][..., j], params, BATCH_TIME)
                assert states[k].tobytes() == det.snapshots.tobytes(), j
    return failed


BATCH_CASES = [(kind,) for kind in SystemKind] + [
    (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT),
    # two controlled systems, each under its own control
    (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON),
    # noiseless systems alone: no sample column, two shared ones
    (SystemKind.SKELETON, SystemKind.SKELETON),
    # shared noiseless columns, each under its own control, beside noisy columns
    (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON, SystemKind.SKELETON),
    (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC,
     SystemKind.SKELETON, SystemKind.SKELETON),
]


@pytest.mark.parametrize("kinds", BATCH_CASES, ids=lambda ks: "+".join(k.value for k in ks))
@settings(max_examples=15, deadline=None)
@given(
    width=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.sets(st.integers(1, 7), max_size=3),
    blown=st.sets(st.integers(0, 7), max_size=3),
)
# every sample column retires, and the shared noiseless ones march on to the end
@example(width=6, seed=44, cuts=set(), blown={0, 1, 2, 3, 4, 5})
def test_batch_columns_equal_their_single_runs_bitwise(kinds, width, seed, cuts, blown):
    # the ``blown`` sample columns start 100 times larger, where explicit
    # cubic damping overshoots, u -> (1 - dt (1 + |u|^2)) u grows, and they
    # retire; system k draws its initial state and control from seed + k
    setups = [_batch_setup(kind, seed + k, width) for k, kind in enumerate(kinds)]
    initial = [s[0] for s in setups]
    ctrls = [s[2] for s in setups]
    _, epsilons, _, base = setups[0]
    for kind, u in zip(kinds, initial):
        if kind not in NOISELESS:
            u[..., [j for j in blown if j < width]] *= 100.0
    bounds = [0, *sorted(c for c in cuts if c < width), width]
    for lo, hi in zip(bounds, bounds[1:]):
        _assert_columns_run_as_alone(
            kinds, initial, epsilons, ctrls, base, seed, list(range(lo, hi)), ModelParams()
        )


BRANCH_PARAMS = {
    "gamma=0": ModelParams(gamma=0.0),
    "nu2=0": ModelParams(nu2=0.0),
    "mu=0": ModelParams(mu=0.0),
    # no term but the solve: a forcing of zeros is the only term a column adds
    "gamma=nu2=0": ModelParams(gamma=0.0, nu2=0.0),
    # the linearized damping weight 2 dt nu2 mu overflows, and so does every
    # nonzero state's damping coefficient
    "nu2=mu=1e300": ModelParams(nu2=1e300, mu=1e300),
}


@pytest.mark.parametrize("params", BRANCH_PARAMS.values(), ids=BRANCH_PARAMS)
@pytest.mark.parametrize("kinds", BATCH_CASES[-5:], ids=lambda ks: "+".join(k.value for k in ks))
@settings(max_examples=4, deadline=None)
@given(
    width=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    negative_zeros=st.sampled_from([0.0, 0.3, 1.0]),
)
# every state starts at -0.0 and column 1 is noisy: at gamma = nu2 = 0 column 0,
# at eps = 0, took the sign bits of zeros from its batch mate's noise
@example(width=2, seed=0, negative_zeros=1.0)
def test_batch_columns_keep_their_bits_at_every_branch_of_the_step(
    kinds, params, width, seed, negative_zeros
):
    # each branch of the batch right-hand side: no drive at gamma = 0, no
    # damping, no term but the forcing, no linearized damping term, and the
    # two-factor weight; column 0 runs without noise, and a drawn share of
    # every initial state is negative zeros. Under the overflowing weights
    # every nonzero state blows up at the first step, a shared column's
    # blow-up ending the march, so the shared columns and column 0 start from
    # zero, a fixed point: there b.v = 0 must stay 0, and column 0 must not
    # retire
    setups = [_batch_setup(kind, seed + k, width) for k, kind in enumerate(kinds)]
    initial = [s[0] for s in setups]
    ctrls = [s[2] for s in setups]
    _, epsilons, _, base = setups[0]
    epsilons[0] = 0.0
    draw = np.random.default_rng(seed)
    for u in initial:
        u[draw.random(u.shape) < negative_zeros] = -0.0
    overflow = params.mu > 1e100
    if overflow:
        base = np.zeros_like(base)
        for kind, u in zip(kinds, initial):
            if kind in NOISELESS:
                u[...] = 0.0
            else:
                u[..., 0] = 0.0
    failed = _assert_columns_run_as_alone(
        kinds, initial, epsilons, ctrls, base, seed, list(range(width)), params
    )
    assert not (overflow and any(exc.key[1] == 0 for exc in failed))


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
    ctrls = _controls_for((*kinds, ref_kind), [ctrl] * (len(kinds) + 1))

    def run(columns):
        return record_batch(
            (*kinds, ref_kind), [u[..., columns] for u in initial] + [ref],
            ModelParams(), BATCH_TIME, spec=BATCH_SPEC, ctrl=ctrls,
            rngs=[stream_rng(seed, j) for j in columns],
            epsilons=epsilons[columns], keys=[(seed, j) for j in columns],
        )

    try:
        alone = integrate(
            ref_kind, ref, ModelParams(), BATCH_TIME, spec=BATCH_SPEC, ctrl=ctrls[-1]
        )
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
        assert list(map(_exactly, single_failed)) == (
            [_exactly(retired[j])] if j in retired else []
        )
        for states, states_alone in zip(seen[j], single[0]):
            assert states.tobytes() == states_alone.tobytes(), j


def test_integrate_batch_checks_its_inputs():
    initial, epsilons, ctrl, base = _batch_setup(SystemKind.STOCHASTIC, 1, 2)
    kw = dict(spec=BATCH_SPEC)
    # the batch draws its increments on its own time grid and modes, so only
    # the number of generators can disagree with it: one per sample column
    for rngs in (None, [], [stream_rng(0)], [stream_rng(0), stream_rng(1), stream_rng(2)]):
        with pytest.raises(ValueError, match="one generator per column"):
            integrate_batch(
                (SystemKind.STOCHASTIC,), (initial,), ModelParams(),
                BATCH_TIME, lambda *a: None, rngs=rngs, epsilons=epsilons, **kw,
            )
    with pytest.raises(ValueError, match="zero initial"):
        integrate_batch(
            (SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC),
            (initial, base), ModelParams(), BATCH_TIME, lambda *a: None,
            rngs=[stream_rng(0), stream_rng(1)], **kw,
        )


STO, DET = SystemKind.STOCHASTIC, SystemKind.DETERMINISTIC
FIELD = initial_profile(BATCH_GRID)
BATCH = np.repeat(FIELD[..., None], 2, axis=2)
# (kinds, initial states): the kinds settle the layout, a noisy kind's
# (n, 3, M) batch first, then one (n, 3) field per noiseless kind
BAD_LAYOUTS = {
    "no-kind": ((), ()),
    "no-state": ((STO,), ()),
    "noiseless-batch": ((DET,), (BATCH,)),
    "noiseless-batch-beside-a-noisy-one": ((STO, DET), (BATCH, BATCH)),
    "noisy-field": ((STO,), (FIELD,)),
    "noisy-field-beside-a-noiseless-one": ((STO, DET), (FIELD, FIELD)),
    "noisy-after-noiseless": ((DET, STO), (FIELD, BATCH)),
    "noisy-after-noiseless-fields": ((DET, STO), (FIELD, FIELD)),
    "noisy-of-no-column": ((STO,), (np.zeros((BATCH_GRID.n_interior, 3, 0)),)),
    "noisy-scalar": ((STO,), (np.float64(1.0),)),
    "noisy-vector": ((STO,), (FIELD[:, 0],)),
    "noiseless-scalar": ((DET,), (np.float64(1.0),)),
    "grids-differ": ((STO, DET), (BATCH, FIELD[1:])),
    "widths-differ": ((STO, STO), (BATCH, BATCH[..., :1])),
    "one-state-short": ((STO, DET), (BATCH,)),
    "one-state-over": ((DET,), (FIELD, FIELD)),
}


@pytest.mark.parametrize("kinds, start", BAD_LAYOUTS.values(), ids=BAD_LAYOUTS)
def test_integrate_batch_refuses_a_layout_its_kinds_do_not_settle(kinds, start):
    # a ValueError before any step, never an IndexError from the layout
    steps = []
    with pytest.raises(ValueError, match="per noisy kind, then one"):
        integrate_batch(
            kinds, start, ModelParams(), BATCH_TIME, lambda n, u: steps.append(n),
            spec=BATCH_SPEC, rngs=[stream_rng(0), stream_rng(1)], epsilons=(0.1, 0.1),
        )
    assert steps == []


def test_integrate_batch_marches_noiseless_kinds_alone_as_shared_columns():
    # M = 0: each noiseless system is one shared column with the bits of its
    # integrate run, and the explicit-term ratio is the largest of theirs
    ctrls = [
        single_mode_control(BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt, mode, 1, 2.0)
        for mode in (1, 3)
    ]
    kinds = (SystemKind.DETERMINISTIC, SystemKind.SKELETON, SystemKind.SKELETON)
    starts = (FIELD, 2.0 * FIELD, -FIELD)
    seen = []
    failures, cfl = integrate_batch(
        kinds, starts, ModelParams(), BATCH_TIME, lambda n, u: seen.append(u.copy()),
        spec=BATCH_SPEC, ctrl=(None, *ctrls),
    )
    assert failures == []
    seen = np.array(seen)
    assert seen.shape == (BATCH_TIME.steps + 1, BATCH_GRID.n_interior, 3, 3)
    ratios = []
    for k, (kind, u0, ctrl) in enumerate(zip(kinds, starts, (None, *ctrls))):
        alone = integrate(kind, u0, ModelParams(), BATCH_TIME, spec=BATCH_SPEC, ctrl=ctrl)
        assert seen[..., k].tobytes() == alone.snapshots.tobytes(), k
        ratios.append(
            integrate_batch((kind,), (u0,), ModelParams(), BATCH_TIME, lambda *a: None,
                            spec=BATCH_SPEC, ctrl=(ctrl,))[1]
        )
    assert cfl == max(ratios)


def test_shared_columns_raise_the_first_failure_in_system_order():
    # two of three skeletons start above the ceiling: the march raises the
    # BlowUpError of the first of them in system order, with its own |u|_inf,
    # not the largest of the batch, and observes no step
    starts = (FIELD, 2.0 * LINF_CEILING * FIELD, 3.0 * LINF_CEILING * FIELD)
    ctrl = zero_control(BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt)
    with pytest.raises(BlowUpError) as info:
        integrate_batch(
            (SystemKind.SKELETON,) * 3, starts, ModelParams(), BATCH_TIME,
            lambda n, u: pytest.fail("observed"), spec=BATCH_SPEC, ctrl=(ctrl,) * 3,
        )
    with pytest.raises(BlowUpError) as alone:
        integrate(SystemKind.SKELETON, starts[1], ModelParams(), BATCH_TIME, spec=BATCH_SPEC,
                  ctrl=ctrl)
    assert _exactly(info.value) == _exactly(alone.value)
    assert info.value.step == 0 and info.value.key is None


@pytest.mark.parametrize("keys", [[], [(1, 0, 0), (1, 0, 1)]], ids=["no-keys", "two-keys"])
def test_integrate_batch_refuses_keys_that_are_not_one_per_sample_column(keys):
    # as it refuses epsilons: beside a shared reference that starts above the
    # ceiling, a key more would label its failure, key None, with a sample's
    # key, and a key fewer would fail on the lookup
    u0 = initial_profile(BATCH_GRID)
    with pytest.raises(ValueError, match="1 keys, one per sample column"):
        integrate_batch(
            (SystemKind.STOCHASTIC, SystemKind.DETERMINISTIC),
            (u0[..., None], initial_profile(BATCH_GRID, a=2.0 * LINF_CEILING)), ModelParams(),
            BATCH_TIME, lambda *a: None, spec=BATCH_SPEC, rngs=[stream_rng(1, 0, 0)],
            epsilons=(0.1,), keys=keys,
        )


# (parameters, time grid, interior nodes, the step scalars that leave the double range)
OVERFLOWING_STEPS = {
    "dt-nu1": (ModelParams(nu1=1.7e308), TimeGrid(4.0, 2), 7, ["dt nu1", "2 dt nu1 / h^2"]),
    "helmholtz-diagonal": (ModelParams(nu1=1e305), TimeGrid(1.0, 1), 999, ["2 dt nu1 / h^2"]),
    "dt-gamma": (
        ModelParams(gamma=1.7e308), TimeGrid(4.0, 2), 7, ["dt gamma", "dt |gamma| / h^2"]
    ),
    "dt-nu2": (ModelParams(nu2=1e308), TimeGrid(4.0, 2), 7, ["dt nu2", "2 dt nu2"]),
    "2-dt-nu2": (ModelParams(nu2=1.7e308), TimeGrid(2.0, 2), 7, ["2 dt nu2"]),
    "explicit-term-scale": (
        ModelParams(gamma=1e306), TimeGrid(1.0, 1), 999, ["dt |gamma| / h^2"]
    ),
}


@pytest.mark.parametrize("params, tg, nodes, overflowing", OVERFLOWING_STEPS.values(),
                         ids=OVERFLOWING_STEPS)
def test_integrate_batch_refuses_a_step_scalar_beyond_the_double_range(
    params, tg, nodes, overflowing
):
    # with any of them inf, a state at zero would meet inf * 0 = nan: refused
    # before step 0, so no run from zero leaves its fixed point
    assert dynamics.overflowing_step_scalars(params, tg, nodes) == overflowing
    steps = []
    with pytest.raises(ValueError, match=re.escape(f"the step's {', '.join(overflowing)} leave")):
        integrate_batch(
            (SystemKind.DETERMINISTIC,), (np.zeros((nodes, 3)),), params, tg,
            lambda n, states: steps.append(n),
        )
    assert steps == []


# --- inputs a kind cannot use ---------------------------------------------------------

BATCH_CONTROL = zero_control(BATCH_TIME.steps, BATCH_SPEC.mode_count, BATCH_TIME.dt)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(list(SystemKind)),
    with_spec=st.booleans(),
    with_ctrl=st.booleans(),
    with_reference=st.booleans(),
    reference_ctrl=st.booleans(),
    entries=st.sampled_from(["per kind", "per kind", "one short", "one over"]),
    batch=st.booleans(),
)
# a mixed batch: the skeleton takes a control and the deterministic reference
# none, and a control for both, or a tuple of another length, is refused
@example(SystemKind.SKELETON, True, True, True, False, "per kind", True)
@example(SystemKind.SKELETON, True, True, True, True, "per kind", True)
@example(SystemKind.SKELETON, True, True, True, False, "one short", True)
@example(SystemKind.SKELETON, True, True, True, False, "one over", True)
def test_each_kind_takes_exactly_the_inputs_it_uses(
    kind, with_spec, with_ctrl, with_reference, reference_ctrl, entries, batch
):
    # a control drives only the controlled kinds, and the linearized one needs
    # a deterministic reference, here a shared column; both entry points reject
    # every other combination before stepping, and integrate every noisy kind.
    # A batch takes one control entry per system: a control for a controlled
    # kind, None for any other
    controlled = kind in (SystemKind.CONTROLLED_STOCHASTIC, SystemKind.SKELETON)
    linearized = kind is SystemKind.LINEARIZED_CLT
    valid = (with_spec or kind is SystemKind.DETERMINISTIC) and with_ctrl == controlled
    if batch:
        valid = valid and (with_reference or not linearized)
        valid = valid and not (with_reference and reference_ctrl) and entries == "per kind"
    else:
        valid = valid and kind in (SystemKind.DETERMINISTIC, SystemKind.SKELETON)
    initial = np.zeros((BATCH_GRID.n_interior, 3)) if linearized else initial_profile(BATCH_GRID)
    spec = BATCH_SPEC if with_spec else None
    ctrl = BATCH_CONTROL if with_ctrl else None

    def run():
        if batch:
            # two sample columns of a noisy kind, one shared column of a noiseless one
            noisy = kind not in NOISELESS
            kinds = (kind,)
            start = (np.repeat(initial[..., None], 2, axis=2) if noisy else initial,)
            ctrls = (ctrl,)
            if with_reference:
                kinds += (SystemKind.DETERMINISTIC,)
                start += (initial_profile(BATCH_GRID),)
                ctrls += (BATCH_CONTROL if reference_ctrl else None,)
            ctrls = {"per kind": ctrls, "one short": ctrls[:-1], "one over": ctrls + (None,)}
            return integrate_batch(
                kinds, start, ModelParams(), BATCH_TIME, lambda *a: None, spec=spec,
                ctrl=ctrls[entries],
                rngs=[stream_rng(0), stream_rng(1)],
                epsilons=[0.1, 0.1] if noisy else None,
            )
        return integrate(kind, initial, ModelParams(), BATCH_TIME, spec=spec, ctrl=ctrl)

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
        # dt gamma Lap v + g, as the forward step forms it
        out = mu + cross_values((dt * params.gamma) * lap_values(v, h) + g, mu)
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
    # across chunk boundaries, over control slabs of zeros and negative zeros,
    # with terminals that hold zeros, and with each of the coefficients
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
    swept = skeleton_adjoint(record, terminal)
    oracle = _adjoint_oracle(record, tg, ADJOINT_SPEC, ctrl, terminal)
    assert swept.tobytes() == oracle.tobytes()


def _zero_skeleton(params, tg):
    return integrate(
        SystemKind.SKELETON, np.zeros_like(ADJOINT_U0), params, tg, spec=ADJOINT_SPEC,
        ctrl=zero_control(tg.steps, ADJOINT_SPEC.mode_count, tg.dt),
    )


def test_skeleton_adjoint_over_zero_under_an_overflowing_weight_is_zero():
    # 2 dt nu2 mu overflows, so the tangent's damping weight is taken in two
    # factors (``_tangent_weight``): over a skeleton at zero, u.w = 0 stays 0,
    # and w x u = 0 gives zero sensitivities, with no numpy warning
    record = _zero_skeleton(ModelParams(nu2=1e300, mu=1e300), TimeGrid(1e-9, 2))
    sens = skeleton_adjoint(record, np.ones_like(ADJOINT_U0))
    assert sens.shape == (2, ADJOINT_SPEC.mode_count, 3)
    assert not sens.any()


def test_skeleton_adjoint_past_the_double_range_is_a_blow_up():
    # the damping dt nu2 (1 + mu |u|^2) = 3.3e290 over a skeleton at zero scales
    # the adjoint by that much a step: at the third step back it overflows, and
    # w x u = inf * 0 gives a nan sensitivity, reported once, with no numpy warning
    record = _zero_skeleton(ModelParams(nu2=1e300), TimeGrid(1e-9, 3))
    with pytest.raises(BlowUpError, match="double range") as info:
        skeleton_adjoint(record, np.ones_like(ADJOINT_U0))
    assert info.value.step is None


class _Draws:
    """A generator whose normal draws are the rows of ``values`` (steps, K, 3),
    in turn: the increment stream of exactly those increments."""

    def __init__(self, values):
        self._values = values
        self._next = 0

    def normal(self, loc, scale, size):
        first, self._next = self._next, self._next + size[0]
        return self._values[first:self._next]


TANGENT_GRID = make_grid(15)
TANGENT_SPEC = make_covariance(3, 4.0)
TANGENT_TIME = TimeGrid(0.02, 40)


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.sampled_from([0.0, 1.0]),
    nu2=st.sampled_from([0.0, 1.0]),
    mu=st.sampled_from([0.0, 1.0]),
    slabs=st.lists(st.booleans(), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
# the control direction is zero on steps 5-39, where the tangent once took no
# b x (dt gamma Lap v) because the step's increments were all zero
@example(gamma=1.0, nu2=1.0, mu=1.0, slabs=[True] + [False] * 7, seed=0)
def test_tangent_is_the_derivative_that_the_adjoint_transposes(gamma, nu2, mu, slabs, seed):
    # the linearized system driven by increments dt dc_n takes the control field
    # of dc as its forcing: it is the tangent of the skeleton map at the zero
    # control, whose skeleton is the deterministic run. Its terminal state
    # paired with a terminal field is the adjoint's sensitivities paired with dc
    params = ModelParams(nu1=1.0, nu2=nu2, gamma=gamma, mu=mu)
    tg = TANGENT_TIME
    rng = np.random.default_rng(seed)
    dc = rng.normal(size=(tg.steps, TANGENT_SPEC.mode_count, 3))
    for drawn, part in zip(slabs, np.array_split(np.arange(tg.steps), len(slabs))):
        if not drawn:
            dc[part] = 0.0
    u0 = initial_profile(TANGENT_GRID)
    ((v, _),), failed = record_batch(
        (SystemKind.LINEARIZED_CLT, SystemKind.DETERMINISTIC), (np.zeros(u0.shape + (1,)), u0),
        params, tg, spec=TANGENT_SPEC, rngs=[_Draws(tg.dt * dc)],
    )
    assert failed == []
    record = integrate(
        SystemKind.SKELETON, u0, params, tg, spec=TANGENT_SPEC,
        ctrl=zero_control(tg.steps, TANGENT_SPEC.mode_count, tg.dt),
    )
    terminal = rng.normal(size=u0.shape)
    sens = skeleton_adjoint(record, terminal)
    tangent, adjoint = terminal * v[-1], sens * dc
    scale = np.abs(tangent).sum() + np.abs(adjoint).sum()
    assert abs(tangent.sum() - adjoint.sum()) <= 1e-12 * scale


class _FirstStepOnly:
    """A generator whose normal draws are those of ``rng`` on a stream's first
    step and exactly zero after it."""

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def normal(self, *args, **kwargs):
        draws = self._rng.normal(*args, **kwargs)
        draws[1 if self._first else 0:] = 0.0
        self._first = False
        return draws


def test_linearized_system_is_the_derivative_after_the_noise_stops():
    # the noise acts on step 0 only, and the deviation it leaves evolves under
    # the tangent alone: (u_eps - u_0) / sqrt(eps) - V_0 is O(sqrt eps), so each
    # hundredfold smaller eps leaves about a tenth of the gap
    g = make_grid(31)
    base = initial_profile(g)
    epsilons = [1e-2, 1e-4, 1e-6, 1e-8]
    columns = _coupled_states(
        (SystemKind.STOCHASTIC, SystemKind.LINEARIZED_CLT), (base, np.zeros_like(base)),
        ModelParams(), TimeGrid(0.05, 50), make_covariance(4, 4.0), base,
        [_FirstStepOnly(stream_rng(7)) for _ in epsilons], epsilons,
    )
    gaps = [
        np.abs((u_eps - u_0) / math.sqrt(eps) - v_0).max()
        for (u_eps, v_0, u_0), eps in zip(columns, epsilons)
    ]
    for wide, narrow in zip(gaps, gaps[1:]):
        assert narrow <= 0.2 * wide, gaps


ADJOINT_CONTROL = single_mode_control(
    ADJOINT_TIME.steps, ADJOINT_SPEC.mode_count, ADJOINT_TIME.dt, mode=1, component=1,
    coefficient=0.5,
)
ADJOINT_RECORD = integrate(
    SystemKind.SKELETON, ADJOINT_U0, ModelParams(), ADJOINT_TIME, spec=ADJOINT_SPEC,
    ctrl=ADJOINT_CONTROL,
)
LONGER_TIME = TimeGrid(1.0, ADJOINT_TIME.steps)


@pytest.mark.parametrize(
    "record, terminal, match",
    [
        (integrate(SystemKind.DETERMINISTIC, ADJOINT_U0, ModelParams(), ADJOINT_TIME),
         (ADJOINT_GRID.n_interior, 3), "skeleton record"),
        (integrate(
            SystemKind.SKELETON, ADJOINT_U0, ModelParams(), ADJOINT_TIME, spec=ADJOINT_SPEC,
            ctrl=ADJOINT_CONTROL, stride=2),
         (ADJOINT_GRID.n_interior, 3), "every step"),
        (ADJOINT_RECORD, (3,), "terminal"),
        (ADJOINT_RECORD, (7, 1), "terminal"),
        (ADJOINT_RECORD, (6, 3), "terminal"),
    ],
    ids=["deterministic-record", "strided-record", "terminal-3", "terminal-7x1", "terminal-6x3"],
)
def test_skeleton_adjoint_rejects_inputs_that_do_not_fit_the_run(record, terminal, match):
    # the sweep reads the run's time grid, covariance and control from the record
    with pytest.raises(ValueError, match=match):
        skeleton_adjoint(record, np.ones(terminal))


@pytest.mark.parametrize(
    "coefficients, dt, match",
    [
        (ADJOINT_CONTROL.coefficients[1:], ADJOINT_TIME.dt, "23 steps"),
        (ADJOINT_CONTROL.coefficients[:, :2], ADJOINT_TIME.dt, "2 modes"),
        # the same number of steps over another horizon
        (ADJOINT_CONTROL.coefficients, LONGER_TIME.dt, "control dt"),
    ],
    ids=["control-steps", "control-modes", "control-dt"],
)
def test_integrate_rejects_a_skeleton_control_that_does_not_fit_the_run(
    coefficients, dt, match
):
    # checked once, where the run is made: the record the adjoint sweep reads
    # holds a control that fits its time grid and covariance
    with pytest.raises(ValueError, match=match):
        integrate(
            SystemKind.SKELETON, ADJOINT_U0, ModelParams(), ADJOINT_TIME, spec=ADJOINT_SPEC,
            ctrl=ControlPath(coefficients, dt),
        )
