import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from llblab.dynamics import (
    BlowUpError,
    ModelParams,
    SystemKind,
    TimeGrid,
    initial_profile,
    integrate,
)
from llblab.analysis import StreamedPathGap
from llblab.field import STACK_CHUNK, h1_norm, make_grid
from llblab.cli import EXIT_OK, parse_config, run
from llblab.ldp import (
    RateObjective,
    RateProblem,
    _next_step,
    compactness_probe,
    estimate_rate,
    final_penalty,
    weak_convergence_experiment,
)
from llblab.noise import (
    ControlPath,
    make_covariance,
    single_mode_control,
    zero_control,
)
from conftest import record_batch

GRID = make_grid(31)
PARAMS = ModelParams()
SPEC = make_covariance(8, 4.0)


def tgrid(steps=125):
    return TimeGrid(0.25, steps)


# --- rate cost: the H0 cost of a control path ---------------------------------------

def test_rate_cost_zero():
    assert zero_control(10, 4, 0.01).h0_cost() == 0.0


def test_rate_cost_unit_coordinate():
    tg = tgrid()
    ctrl = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=1, coefficient=1.0)
    assert abs(ctrl.h0_cost() - tg.horizon / 2.0) <= 1e-12


def test_rate_cost_quadratic_scaling(rng):
    coeffs = rng.normal(size=(20, 4, 3))
    base = ControlPath(coeffs, 0.01).h0_cost()
    scaled = ControlPath(3.0 * coeffs, 0.01).h0_cost()
    assert abs(scaled - 9.0 * base) <= 1e-12 * (1.0 + abs(scaled))


# --- rate problem validation --------------------------------------------------------

def test_rate_problem_validation():
    target = initial_profile(GRID)
    with pytest.raises(ValueError):
        RateProblem(target=target, penalty=0.0)
    with pytest.raises(ValueError):
        RateProblem(target=target, control_modes=0)
    with pytest.raises(ValueError):
        RateProblem(target=target, continuation_rounds=-1)


@pytest.mark.parametrize(
    "penalty, rounds", [(1e308, 0), (1e306, 3), (1e-300, 10**9), (math.nan, 0)]
)
def test_rate_problem_rejects_a_penalty_schedule_that_overflows(penalty, rounds):
    # the last round's terminal adjoint 2 rho h (d - Lap d) would be inf * 0 = nan
    with pytest.raises(ValueError, match="overflows"):
        RateProblem(target=initial_profile(GRID), penalty=penalty, continuation_rounds=rounds)


def test_final_penalty_is_the_last_round_of_the_schedule():
    assert final_penalty(1e3, 0) == 1e3
    assert final_penalty(1e3, 2) == 1e3 * 10.0 * 10.0
    assert final_penalty(1e300, 5) == 1e300 * 10.0 * 10.0 * 10.0 * 10.0 * 10.0
    assert final_penalty(1.0, 400) == math.inf
    RateProblem(target=initial_profile(GRID), penalty=1e300, continuation_rounds=5)


def test_estimate_rate_requires_divisible_slabs():
    problem = RateProblem(target=initial_profile(GRID), control_steps=3)
    with pytest.raises(ValueError, match="divide"):
        estimate_rate(problem, PARAMS, tgrid(125), SPEC, initial_profile(GRID))


def test_estimate_rate_rejects_too_many_modes():
    problem = RateProblem(target=initial_profile(GRID), control_modes=9, control_steps=5)
    with pytest.raises(ValueError, match="modes"):
        estimate_rate(problem, PARAMS, tgrid(125), SPEC, initial_profile(GRID))


# --- exact gradient ----------------------------------------------------------------

TAYLOR_GRID = make_grid(7)
TAYLOR_TGRID = TimeGrid(0.25, 24)
TAYLOR_SPEC = make_covariance(3, 4.0)
# a target near the reachable set keeps the objective O(1), so rounding in
# the central differences stays below their O(bump^2) error at every bump
TAYLOR_PROBLEM = RateProblem(
    target=integrate(
        SystemKind.DETERMINISTIC, initial_profile(TAYLOR_GRID), PARAMS, TAYLOR_TGRID,
        stride=TAYLOR_TGRID.steps,
    ).final_values(),
    penalty=50.0, control_modes=2, control_steps=4,
)
TAYLOR_DIM = 2 * 4 * 3
TAYLOR_BUMPS = (1e-1, 1e-2, 1e-3)
coordinates = st.lists(
    st.floats(-1.0, 1.0, allow_subnormal=False), min_size=TAYLOR_DIM, max_size=TAYLOR_DIM
)
coefficient = st.one_of(st.just(0.0), st.floats(0.1, 2.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    x=coordinates,
    direction=coordinates.filter(lambda d: np.linalg.norm(d) > 0.1),
    gamma=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    nu2=coefficient,
    mu=coefficient,
)
@example(x=[0.5] * TAYLOR_DIM, direction=[1.0] * TAYLOR_DIM, gamma=0.0, nu2=0.0, mu=0.0)
@example(x=[-0.3] * TAYLOR_DIM, direction=[1.0, -1.0] * 12, gamma=1.0, nu2=1.0, mu=0.0)
def test_rate_gradient_taylor(x, direction, gamma, nu2, mu):
    # central differences of the objective approach the adjoint directional
    # derivative as O(bump^2): at least 30x closer per decade of bump, until
    # the gap reaches the rounding floor of the difference quotient (a nearly
    # quadratic objective, e.g. gamma = nu2 = 0, gets there at large bumps)
    params = ModelParams(nu1=1.0, nu2=nu2, gamma=gamma, mu=mu)
    objective = RateObjective(
        TAYLOR_PROBLEM, params, TAYLOR_TGRID, TAYLOR_SPEC, initial_profile(TAYLOR_GRID)
    )
    x = np.asarray(x)
    d = np.asarray(direction) / np.linalg.norm(direction)
    rho = TAYLOR_PROBLEM.penalty
    point = objective.evaluate(x)
    assert point.record.ctrl.coefficients.any()
    slope = float(objective.gradient(point, rho) @ d)
    scale = 100.0 * np.finfo(float).eps * (1.0 + abs(point.objective(rho)))
    gaps = []
    for bump in TAYLOR_BUMPS:
        upper = objective.evaluate(x + bump * d).objective(rho)
        lower = objective.evaluate(x - bump * d).objective(rho)
        gaps.append(abs((upper - lower) / (2.0 * bump) - slope))
    for bump, wide, narrow in zip(TAYLOR_BUMPS[1:], gaps, gaps[1:]):
        assert narrow <= max(wide / 30.0, scale / bump), gaps


# --- rate estimation -----------------------------------------------------------------

def test_estimate_rate_trivial_target():
    # target is the uncontrolled terminal state: zero control is optimal
    tg = tgrid()
    u0 = initial_profile(GRID)
    det = integrate(SystemKind.DETERMINISTIC, u0, PARAMS, tg, stride=tg.steps)
    problem = RateProblem(target=det.final_values(), penalty=1e4, control_modes=1, control_steps=5)
    est = estimate_rate(problem, PARAMS, tg, SPEC, u0)
    assert est.converged
    assert est.cost <= 1e-3
    assert est.misfit <= 1e-3


def test_estimate_rate_round_trip_recovers_known_control():
    tg = tgrid()
    u0 = initial_profile(GRID)
    h_star = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    ske = integrate(SystemKind.SKELETON, u0, PARAMS, tg, spec=SPEC, ctrl=h_star, stride=tg.steps)
    target = ske.final_values()
    problem = RateProblem(
        target=target, penalty=1e4, control_modes=1, control_steps=5,
        max_iters=25, continuation_rounds=1,
    )
    est = estimate_rate(problem, PARAMS, tg, SPEC, u0)
    assert est.converged
    assert est.gradient_norm <= problem.tolerance
    # h_star itself is feasible, so the optimizer must not do worse than its cost
    assert est.cost <= 1.05 * h_star.h0_cost()
    assert est.misfit <= 1e-2 * h1_norm(target)
    # line-search contract: each continuation round is nonincreasing
    for round_history in est.objective_history:
        assert all(b <= a for a, b in zip(round_history, round_history[1:]))


def _spike_problem():
    # a target far outside the skeleton's reach: long steps toward it blow up
    x = GRID.nodes
    spike = np.stack([1e3 * np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    return RateProblem(
        target=spike, penalty=1e3, control_modes=1, control_steps=5,
        max_iters=4, continuation_rounds=0,
    )


def test_estimate_rate_unreachable_target_flags_suspect_infimum():
    problem = _spike_problem()
    est = estimate_rate(problem, PARAMS, tgrid(), SPEC, initial_profile(GRID))
    assert not est.converged
    assert math.isfinite(est.cost)
    assert est.misfit > 0.5 * h1_norm(problem.target)


def test_estimate_rate_rejects_trials_that_blow_up(monkeypatch):
    blow_ups = []
    evaluate = RateObjective.evaluate

    def counted(self, x):
        try:
            return evaluate(self, x)
        except BlowUpError:
            blow_ups.append(x)
            raise

    monkeypatch.setattr(RateObjective, "evaluate", counted)
    est = estimate_rate(_spike_problem(), PARAMS, tgrid(), SPEC, initial_profile(GRID))
    assert blow_ups
    assert math.isfinite(est.cost)
    for round_history in est.objective_history:
        assert all(b <= a for a, b in zip(round_history, round_history[1:]))


# --- line search: the step after a rejected trial ------------------------------------

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    step=positive,
    current=finite,
    j_try=st.one_of(
        st.sampled_from([math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1.7e308]),
        st.floats(),
    ),
    gnorm_sq=positive,
)
@example(step=1.0, current=5.11, j_try=240.7, gnorm_sq=41.0)
@example(step=1e300, current=0.0, j_try=1e300, gnorm_sq=1e300)
@example(step=1.0, current=-1.7e308, j_try=1.7e308, gnorm_sq=1.0)
@example(step=5e-324, current=0.0, j_try=1.0, gnorm_sq=5e-324)
def test_next_step_is_finite_and_within_a_tenth_and_a_half(step, current, j_try, gnorm_sq):
    # a step that is not finite would end the round's while/else as a stall
    nxt = _next_step(step, current, j_try, gnorm_sq)
    assert math.isfinite(nxt)
    assert 0.1 * step <= nxt <= 0.5 * step
    if not math.isfinite(j_try):
        assert nxt == 0.5 * step


@settings(max_examples=200, deadline=None)
@given(
    step=st.floats(1e-12, 1e3),
    current=st.floats(-1e6, 1e6),
    gnorm_sq=st.floats(1e-6, 1e6),
    drop=st.floats(2.0, 1e3),
)
def test_next_step_halves_when_the_fit_is_not_convex(step, current, gnorm_sq, drop):
    # J(step) at least twice the linear model's drop below J(0): the quadratic
    # through J(0), J'(0) = -|g|^2 and J(step) opens downward
    j_try = current - drop * gnorm_sq * step
    assume(j_try - current < -1.5 * gnorm_sq * step)
    assert _next_step(step, current, j_try, gnorm_sq) == 0.5 * step


@settings(max_examples=200, deadline=None)
@given(
    step=st.floats(1e-3, 1e3),
    current=st.floats(-1e3, 1e3),
    slope=st.floats(1e-2, 1e2),
    fraction=st.floats(0.1, 0.5),
)
def test_next_step_is_the_minimizer_of_a_quadratic_objective(step, current, slope, fraction):
    # J(t) = J(0) - |g|^2 t + c t^2 with its minimizer at fraction * step, inside the window
    curvature = slope / (2.0 * fraction * step)
    j_try = current - slope * step + curvature * step * step
    nxt = _next_step(step, current, j_try, slope)
    assert abs(nxt - fraction * step) <= 1e-6 * step


def _perfbench_rate_config(tmp_path, max_iters):
    """The rate config that perfbench's rate-roundtrip workload runs: the skeleton
    endpoint under h* = 0.5 in mode 1, component 3, as a target CSV."""
    tg = TimeGrid(0.25, 250)
    spec = make_covariance(8)
    h_star = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    target = integrate(
        SystemKind.SKELETON, initial_profile(GRID), PARAMS, tg, spec=spec, ctrl=h_star,
        stride=tg.steps,
    ).final_values()
    path = tmp_path / "target.csv"
    rows = [f"{i},{x!r},{y!r},{z!r}\n" for i, (x, y, z) in enumerate(target.tolist())]
    path.write_text("node_index,ux,uy,uz\n" + "".join(rows))
    text = (
        f"kind = rate\nseed = 45\nrate.target = {path}\nrate.penalty = 1e4\n"
        "rate.modes = 1\nrate.slabs = 5\nrate.continuation = 0\ngrid.n = 31\n"
        f"time.horizon = 0.25\ntime.steps = 250\nnoise.modes = 8\nrate.max_iters = {max_iters}\n"
    )
    return parse_config(text), h_star.h0_cost(), h1_norm(target)


def test_perfbench_rate_run_makes_six_solves_and_five_sweeps(tmp_path):
    # halving tried steps 1, 1/2, 1/4 and 1/8 in the first iteration: 8 solves
    config, h_star_cost, target_h1 = _perfbench_rate_config(tmp_path, 4)
    assert run(config, out_dir=str(tmp_path / "out")) == EXIT_OK
    estimate = json.loads((tmp_path / "out" / "rate_estimate.json").read_text())
    assert estimate["iterations"] == 4
    assert estimate["skeleton_solves"] == 6
    assert estimate["adjoint_sweeps"] == 5
    assert estimate["cost"] <= 1.05 * h_star_cost
    assert estimate["misfit"] <= 1e-2 * target_h1


def test_round_trip_of_the_rate_criterion_makes_seventeen_solves():
    # the round trip of acceptance criterion 8; halving made 29 solves and 14 sweeps
    tg = tgrid(250)
    u0 = initial_profile(GRID)
    h_star = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    ske = integrate(SystemKind.SKELETON, u0, PARAMS, tg, spec=SPEC, ctrl=h_star, stride=tg.steps)
    target = ske.final_values()
    problem = RateProblem(
        target=target, penalty=1e4, control_modes=1, control_steps=5,
        max_iters=60, continuation_rounds=1,
    )
    est = estimate_rate(problem, PARAMS, tg, SPEC, u0)
    assert est.converged
    assert est.skeleton_solves == 17
    assert est.adjoint_sweeps == 12
    assert est.iterations == 10
    assert est.cost <= 1.05 * h_star.h0_cost()
    assert est.misfit <= 1e-2 * h1_norm(target)


def test_rate_run_whose_trials_are_all_accepted_never_interpolates(monkeypatch):
    # at penalty 1e3 the first trial of every iteration is accepted, so no
    # interpolated step is taken and the iterates are those of halving
    def refuse(*args):
        raise AssertionError("a trial was rejected")

    monkeypatch.setattr("llblab.ldp._next_step", refuse)
    tg = tgrid()
    u0 = initial_profile(GRID)
    h_star = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    ske = integrate(SystemKind.SKELETON, u0, PARAMS, tg, spec=SPEC, ctrl=h_star, stride=tg.steps)
    problem = RateProblem(
        target=ske.final_values(), penalty=1e3, control_modes=1, control_steps=5,
        max_iters=10, continuation_rounds=0,
    )
    est = estimate_rate(problem, PARAMS, tg, SPEC, u0)
    assert est.converged
    assert est.iterations == 3
    assert est.skeleton_solves == est.iterations + 1
    assert est.adjoint_sweeps == est.iterations + 1


def test_estimate_rate_blow_up_under_zero_control_raises():
    # violent explicit precession: the uncontrolled skeleton itself leaves the
    # bounded regime, so there is no start point to descend from
    grid = make_grid(63)
    tg = TimeGrid(1.0, 100)
    problem = RateProblem(target=np.zeros((grid.n_interior, 3)), control_modes=1, control_steps=5)
    with pytest.raises(BlowUpError) as info:
        estimate_rate(problem, ModelParams(gamma=500.0), tg, SPEC, initial_profile(grid))
    assert info.value.step is not None and info.value.step > 0


def test_estimate_rate_deterministic_rerun():
    tg = tgrid()
    u0 = initial_profile(GRID)
    det = integrate(SystemKind.DETERMINISTIC, u0, PARAMS, tg, stride=tg.steps)
    problem = RateProblem(target=det.final_values(), penalty=1e3, control_modes=1, control_steps=5)
    a = estimate_rate(problem, PARAMS, tg, SPEC, u0)
    b = estimate_rate(problem, PARAMS, tg, SPEC, u0)
    assert a.cost == b.cost
    assert a.misfit == b.misfit
    assert a.control.coefficients.tobytes() == b.control.coefficients.tobytes()


# --- weak convergence ------------------------------------------------------------------

def test_weak_convergence_zero_eps_is_exact():
    tg = tgrid()
    ctrl = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    rows, _ = weak_convergence_experiment(
        ctrl, [0.0], 2, PARAMS, tg, SPEC, initial_profile(GRID), base_seed=3
    )
    assert rows[0].mean_metric == 0.0
    assert rows[0].n_failed == 0


@pytest.mark.parametrize(
    "epsilons, samples", [((), 3), ((0.1,), 0)], ids=["no-epsilons", "no-samples"]
)
def test_weak_convergence_rejects_an_empty_ensemble_before_integrating(
    monkeypatch, epsilons, samples
):
    import llblab.clt as clt_module

    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble integrated before it checked its arguments")

    monkeypatch.setattr(clt_module, "integrate_batch", no_run)
    tg = tgrid()
    ctrl = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    with pytest.raises(ValueError, match="one epsilon and one sample"):
        weak_convergence_experiment(
            ctrl, epsilons, samples, PARAMS, tg, SPEC, initial_profile(GRID), base_seed=3
        )


def test_weak_convergence_metric_decreases():
    tg = tgrid(250)
    ctrl = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    rows, _ = weak_convergence_experiment(
        ctrl, [1e-1, 1e-2, 1e-3], 6, PARAMS, tg, SPEC, initial_profile(GRID), base_seed=11
    )
    metrics = [r.mean_metric for r in rows]
    assert metrics[0] > metrics[1] > metrics[2]
    assert all(r.n_failed == 0 for r in rows)


def test_weak_convergence_zero_control_reduces_to_small_noise():
    tg = tgrid(250)
    ctrl = zero_control(tg.steps, 8, tg.dt)
    rows, _ = weak_convergence_experiment(
        ctrl, [1e-1, 1e-3], 4, PARAMS, tg, SPEC, initial_profile(GRID), base_seed=5
    )
    assert rows[0].mean_metric > rows[1].mean_metric > 0.0


def test_weak_convergence_streamed_metric_equals_stored_path_gap(monkeypatch):
    import llblab.clt as clt_module
    from llblab.analysis import path_gap
    from llblab.noise import stream_rng

    tg = tgrid(100)
    ctrl = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    args = (ctrl, [1e-1, 0.0, 1e-3], 3, PARAMS, tg, SPEC, initial_profile(GRID), 9)
    rows, _ = weak_convergence_experiment(*args)
    skeleton = integrate(
        SystemKind.SKELETON, initial_profile(GRID), PARAMS, tg, spec=SPEC, ctrl=ctrl, stride=1
    )
    for i, row in enumerate(rows):
        metrics = []
        for m in range(3):
            ((states,),), failed = record_batch(
                (SystemKind.CONTROLLED_STOCHASTIC,), (initial_profile(GRID)[..., None],), PARAMS,
                tg, spec=SPEC, ctrl=(ctrl,),
                rngs=[stream_rng(9, i, m)],
                epsilons=(row.epsilon,),
            )
            assert failed == []
            metrics.append(path_gap(states, skeleton.snapshots, GRID.spacing, tg.dt, PARAMS.nu1))
        assert row.mean_metric == pytest.approx(float(np.mean(metrics)), rel=1e-12, abs=0.0)
    assert rows[1].mean_metric == 0.0
    # batches of any width give the same bits (the ensemble driver is clt.run_columns)
    monkeypatch.setattr(clt_module, "BATCH_COLUMNS", 2)
    assert weak_convergence_experiment(*args)[0] == rows


# --- compactness probe --------------------------------------------------------------------

def test_compactness_decreasing_in_mode():
    tg = tgrid(250)
    table = compactness_probe(
        zero_control(tg.steps, 8, tg.dt), [2, 4, 8], PARAMS, tg, SPEC, initial_profile(GRID)
    )
    metrics = [m for _, m in table]
    assert metrics[0] > metrics[1] > metrics[2] > 0.0


def test_compactness_response_equals_stored_path_gap():
    # the response is taken at most STACK_CHUNK snapshots per block: 301
    # snapshots make two blocks, and path_gap of the stored records is the oracle
    from llblab.analysis import path_gap

    tg = tgrid(300)
    assert tg.steps + 1 > STACK_CHUNK
    ctrl = single_mode_control(tg.steps, 8, tg.dt, mode=1, component=3, coefficient=0.5)
    u0 = initial_profile(GRID)
    table = compactness_probe(ctrl, [2, 5], PARAMS, tg, SPEC, u0, component=2)
    base = integrate(SystemKind.SKELETON, u0, PARAMS, tg, spec=SPEC, ctrl=ctrl)
    for mode, response in table:
        coeffs = ctrl.coefficients.copy()
        coeffs[:, mode - 1, 1] += math.sqrt(1.0 / tg.horizon)
        perturbed = integrate(
            SystemKind.SKELETON, u0, PARAMS, tg, spec=SPEC, ctrl=ControlPath(coeffs, ctrl.dt)
        )
        oracle = path_gap(perturbed.snapshots, base.snapshots, GRID.spacing, tg.dt, 0.0)
        assert response > 0.0
        assert response == pytest.approx(oracle, rel=1e-12, abs=0.0)


def _stored_record_responses(ctrl, modes, tg, u0, component):
    """The responses taken from stored records: a dense ``integrate`` run of the
    base and of each probe, their difference fed to ``StreamedPathGap``
    ``STACK_CHUNK`` snapshots per block."""
    base = integrate(SystemKind.SKELETON, u0, PARAMS, tg, spec=SPEC, ctrl=ctrl)
    out = []
    for mode in modes:
        coeffs = ctrl.coefficients.copy()
        coeffs[:, mode - 1, component - 1] += math.sqrt(1.0 / tg.horizon)
        perturbed = integrate(
            SystemKind.SKELETON, u0, PARAMS, tg, spec=SPEC, ctrl=ControlPath(coeffs, ctrl.dt)
        )
        d = perturbed.snapshots - base.snapshots
        gap = StreamedPathGap(1, tg, 0.0)
        for first in range(0, len(d), STACK_CHUNK):
            gap.add(first, np.moveaxis(d[first:first + STACK_CHUNK], 0, -1)[:, :, None])
        out.append((mode, float(gap.values[0])))
    return out


@settings(max_examples=10, deadline=None)
@given(
    modes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
    component=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_compactness_probe_has_the_bits_of_the_stored_records(modes, component, seed):
    # the probes march beside the base in one batch and their differences are
    # taken step by step: every response has the bits of the stored-record oracle
    tg = tgrid(300)
    assert tg.steps + 1 > STACK_CHUNK
    coeffs = np.random.default_rng(seed).normal(size=(tg.steps, SPEC.mode_count, 3))
    ctrl = ControlPath(coeffs, tg.dt)
    u0 = initial_profile(GRID)
    table = compactness_probe(ctrl, modes, PARAMS, tg, SPEC, u0, component=component)
    assert table == _stored_record_responses(ctrl, modes, tg, u0, component)


def test_compactness_probe_stores_no_record():
    # the probe keeps two numbers and one control per mode: its peak stays
    # below the size of one dense record of its run
    grid = make_grid(63)
    tg = TimeGrid(0.05, 400)
    spec = make_covariance(4, 4.0)
    record_bytes = (tg.steps + 1) * grid.n_interior * 3 * 8
    ctrl = zero_control(tg.steps, spec.mode_count, tg.dt)
    tracemalloc.start()
    try:
        compactness_probe(ctrl, (2, 3, 4), PARAMS, tg, spec, initial_profile(grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < record_bytes


def test_compactness_rejects_mode_out_of_range():
    tg = tgrid()
    with pytest.raises(ValueError, match="mode"):
        compactness_probe(
            zero_control(tg.steps, 8, tg.dt), [9], PARAMS, tg, SPEC, initial_profile(GRID)
        )
