import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llblab.analysis import (
    EXACT_IDENTITY_TOL,
    SampleStats,
    StreamedPathGap,
    check_cubic_identity,
    check_identities,
    cubic_identity_residuals,
    energy_drift,
    fit_slope,
    _pair_residuals,
    identity_suite,
    path_gap,
    sample_stats,
)
from llblab.dynamics import ModelParams, SystemKind, TimeGrid, initial_profile, integrate
from llblab.field import (
    STACK_CHUNK,
    Grid1D,
    column_sq_sums,
    grad_values,
    lap_values,
    make_grid,
    solver_empty,
)
from llblab.noise import make_covariance, stream_rng, zero_control
from conftest import random_field


# --- exact identities -----------------------------------------------------------

# the rows of _pair_residuals: the checks of identity_suite after its zero-field row
SUITE_CHECKS = [r.name.split("/")[0] for r in identity_suite(grid_sizes=(3,), samples=1)[1:]]


def test_check_identities_zero_field(grid63):
    reports = check_identities(np.zeros((grid63.n_interior, 3)), np.zeros((grid63.n_interior, 3)))
    assert all(r.residual == 0.0 for r in reports)
    assert all(r.passed for r in reports)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(3, 64),
    width=st.integers(1, 9),
    scale=st.floats(0.01, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_identities_random_fields(nodes, width, scale, seed):
    # a batch of random pairs as identity_suite checks it: each column's rows
    # have the bits of checking that pair alone (the suite keeps the magnitude
    # of the signed cubic residual), and every identity holds
    pairs = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(width, 2, nodes, 3))
    a, b = np.moveaxis(pairs, 0, -1)
    g = make_grid(nodes)
    rows = dict(zip(SUITE_CHECKS, _pair_residuals(a, b, g.spacing)))
    for j in range(width):
        u, v = pairs[j, 0], pairs[j, 1]
        for rep in check_identities(u, v) + [check_cubic_identity(u)]:
            assert rows[rep.name][j].tobytes() == np.float64(abs(rep.residual)).tobytes()
    for name in (
        "summation-by-parts", "cross-orthogonality", "precession-orthogonality",
        "cubic-damping-identity",
    ):
        assert rows[name].max() <= EXACT_IDENTITY_TOL
    for name in ("cross-antisymmetry", "precession-bound", "interpolation-inequality"):
        assert rows[name].max() == 0.0
    # the pointwise residual is not normalized: it grows with the cube of the scale
    assert rows["pointwise-orthogonality"].max() <= 1e-14 * max(1.0, scale) ** 3
    assert rows["helmholtz-roundtrip"].max() <= 1e-10


def test_check_identities_grid_mismatch(rng):
    with pytest.raises(ValueError):
        check_identities(random_field(make_grid(5), rng), random_field(make_grid(6), rng))


# --- cubic damping identity -------------------------------------------------------

def test_cubic_identity_zero(grid63):
    vec, col = cubic_identity_residuals(np.zeros((grid63.n_interior, 3)))
    assert vec == 0.0 and col == 0.0


def test_cubic_identity_single_direction_forms_coincide(rng):
    # u parallel to du: the colinear form agrees with the exact vector form up
    # to the O(h^2) mismatch between the two edge averages of f^2, so its
    # residual shrinks at second order while the vector form stays at rounding
    residuals = {}
    for n in (63, 127):
        g = make_grid(n)
        x = g.nodes
        f = np.sin(math.pi * x) + 0.4 * np.sin(3 * math.pi * x)
        u = np.stack([f, 0 * x, 0 * x], axis=1)
        vec, col = cubic_identity_residuals(u, mu=1.3)
        assert abs(vec) <= 1e-12
        assert check_cubic_identity(u, mu=1.3).passed
        residuals[n] = abs(col)
    assert residuals[63] / residuals[127] == pytest.approx(4.0, rel=0.3)


def test_cubic_identity_vector_form_is_exact(rng):
    # midpoint edge averaging makes the vector form a discrete identity,
    # so the residual is rounding noise even on rough fields
    for n in (31, 63, 127):
        g = make_grid(n)
        u = random_field(g, rng)
        assert check_cubic_identity(u).passed
        smooth = random_smooth_field(g, stream_rng(5, n))
        assert check_cubic_identity(smooth).passed


def test_cubic_identity_colinear_form_differs_generically(rng):
    g = make_grid(63)
    u = random_smooth_field(g, stream_rng(9))
    vec, col = cubic_identity_residuals(u)
    assert abs(vec) <= 1e-10
    assert abs(col) > 1e-4  # O(1) discrepancy for non-parallel fields


# --- slope fitting ------------------------------------------------------------------

def test_fit_slope_exact_power_law():
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    fit = fit_slope([(e, e) for e in eps])
    assert abs(fit.slope - 1.0) <= 1e-12
    assert fit.residual <= 1e-12


def test_fit_slope_constant_metric():
    fit = fit_slope([(1e-1, 3.0), (1e-2, 3.0), (1e-3, 3.0)])
    assert abs(fit.slope) <= 1e-12


def test_fit_slope_noisy_half_power(rng):
    eps = np.logspace(-4, -1, 12)
    metrics = 3.0 * eps**0.5 * (1.0 + 0.01 * rng.normal(size=len(eps)))
    fit = fit_slope(list(zip(eps, metrics)))
    assert abs(fit.slope - 0.5) <= 0.05


def test_fit_slope_scale_invariance():
    eps = [1e-1, 1e-2, 1e-3]
    base = fit_slope([(e, 2.0 * e**1.3) for e in eps])
    scaled = fit_slope([(e, 7.0 * 2.0 * e**1.3) for e in eps])
    assert abs(base.slope - scaled.slope) <= 1e-12


def test_fit_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_slope([(1e-1, 1.0), (1e-2, 0.5)])
    with pytest.raises(ValueError):
        fit_slope([(1e-1, 1.0), (1e-2, 0.0), (1e-3, 0.1)])
    with pytest.raises(ValueError):
        fit_slope([(1e-1, 1.0), (-1e-2, 0.5), (1e-3, 0.1)])


# --- energy drift ---------------------------------------------------------------------

def test_energy_drift_zero_solution():
    g = make_grid(31)
    p = ModelParams()
    rec = integrate(SystemKind.DETERMINISTIC, np.zeros((g.n_interior, 3)), p, TimeGrid(0.01, 20))
    assert energy_drift(rec) == 0.0


def test_energy_drift_heat_halves_with_dt():
    g = make_grid(63)
    x = g.nodes
    u0 = np.stack([np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    p = ModelParams(nu1=1.0, nu2=0.0, gamma=0.0, mu=0.0)
    d_coarse = energy_drift(integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(0.1, 500)))
    d_fine = energy_drift(integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(0.1, 1000)))
    assert d_coarse / d_fine == pytest.approx(2.0, rel=0.2)


def test_energy_drift_full_model_first_order():
    g = make_grid(63)
    u0 = initial_profile(g)
    p = ModelParams()
    d_coarse = energy_drift(integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(0.1, 500)))
    d_fine = energy_drift(integrate(SystemKind.DETERMINISTIC, u0, p, TimeGrid(0.1, 1000)))
    assert 1.5 <= d_coarse / d_fine <= 2.5


def test_energy_drift_does_not_depend_on_the_stack_chunk(monkeypatch):
    # each step's cubic sum is a column reduction: whatever chunk of snapshots
    # it is taken in, alone or in a wide stack, the drift keeps its bits. With
    # mu = 100 the cubic term carries the balance, so a sum that moved with
    # the chunk would show in the drift
    import dataclasses

    import llblab.field as field_module

    p = ModelParams(mu=100.0)
    rec = integrate(SystemKind.DETERMINISTIC, initial_profile(make_grid(31)), p, TimeGrid(0.05, 50))
    drifts = []
    for chunk in (1, 7, 256, 4096):
        monkeypatch.setattr(field_module, "STACK_CHUNK", chunk)
        # a fresh record, so its cached norm rows are taken at this chunk too
        drifts.append(energy_drift(dataclasses.replace(rec)).hex())
    assert drifts == [drifts[0]] * 4


def _dense_energy_drift(rec):
    # the one-pass balance over the whole stored record, one cumulative sum
    # of every step's dissipation: the oracle of the blocked drift
    from llblab.analysis import _cubic_sum
    from llblab.field import map_stack

    params, h = rec.params, rec.grid.spacing
    dt = float(rec.times[1] - rec.times[0])
    rows = rec.norm_rows
    h1_sq = rows[:, 1] ** 2
    cubic = map_stack(lambda v: h * _cubic_sum(v, grad_values(v, h)), rec.snapshots[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        diss = (2.0 * dt * params.nu1) * rows[:-1, 2] ** 2
        diss += (2.0 * dt * params.nu2) * (h1_sq[:-1] + params.mu * cubic)
        acc = np.concatenate([[0.0], np.cumsum(diss)])
        return float(np.max(np.abs(h1_sq + acc - h1_sq[0])))


@pytest.mark.parametrize(
    "steps", [1, STACK_CHUNK - 1, STACK_CHUNK, STACK_CHUNK + 1, 2 * STACK_CHUNK + 3]
)
def test_energy_drift_carries_its_sum_across_blocks(steps):
    # the drift takes STACK_CHUNK snapshots at a time and carries the running
    # dissipation sum and the worst deviation from block to block: the bits of
    # one cumulative sum over the whole record. mu = 100 makes the cubic term
    # carry the balance
    p = ModelParams(nu2=2.0, mu=100.0)
    rec = integrate(
        SystemKind.DETERMINISTIC, initial_profile(make_grid(9)), p, TimeGrid(0.05, steps)
    )
    assert energy_drift(rec).hex() == _dense_energy_drift(rec).hex()


def test_energy_drift_rejects_non_deterministic():
    g = make_grid(31)
    p = ModelParams()
    tg = TimeGrid(0.01, 20)
    spec = make_covariance(4, 4.0)
    ske = integrate(
        SystemKind.SKELETON, initial_profile(g), p, tg,
        spec=spec, ctrl=zero_control(20, 4, tg.dt),
    )
    with pytest.raises(ValueError, match="deterministic"):
        energy_drift(ske)


# --- path gap ----------------------------------------------------------------------

def test_path_gap_zero_for_identical(rng):
    snaps = rng.normal(size=(5, 31, 3))
    assert path_gap(snaps, snaps.copy(), 1 / 32, 0.01, 1.0) == 0.0


def test_path_gap_shape_mismatch(rng):
    a = rng.normal(size=(5, 31, 3))
    b = rng.normal(size=(4, 31, 3))
    with pytest.raises(ValueError):
        path_gap(a, b, 1 / 32, 0.01, 1.0)


def test_path_gap_matches_pointwise_formula(rng):
    # cross-check the batched evaluation against a direct per-step loop
    g = make_grid(31)
    h = g.spacing
    a = rng.normal(size=(4, 31, 3))
    b = rng.normal(size=(4, 31, 3))
    dt, nu1 = 0.01, 1.0
    sup = 0.0
    integ = 0.0
    for n in range(4):
        d = a[n] - b[n]
        sup = max(sup, h * column_sq_sums(grad_values(d, h)))
        if n < 3:
            integ += dt * h * column_sq_sums(lap_values(d, h))
    expected = sup + nu1 * integ
    assert path_gap(a, b, g.spacing, dt, nu1) == pytest.approx(expected, rel=1e-12)


def hand_written_path_gap(snaps_a, snaps_b, spacing, dt, nu1):
    """The proof metric with its grad/Laplacian stencils written out per snapshot
    stack; test oracle only."""
    d = snaps_a - snaps_b
    s, n, _ = d.shape
    grad = np.empty((s, n + 1, 3))
    grad[:, 0] = d[:, 0] / spacing
    grad[:, 1:-1] = (d[:, 1:] - d[:, :-1]) / spacing
    grad[:, -1] = -d[:, -1] / spacing
    grad_sq = spacing * np.einsum("sij,sij->s", grad, grad)

    inv_h2 = 1.0 / (spacing * spacing)
    lap = np.empty_like(d)
    lap[:, 1:-1] = (d[:, 2:] - 2.0 * d[:, 1:-1] + d[:, :-2]) * inv_h2
    lap[:, 0] = (d[:, 1] - 2.0 * d[:, 0]) * inv_h2
    lap[:, -1] = (d[:, -2] - 2.0 * d[:, -1]) * inv_h2
    lap_sq = spacing * np.einsum("sij,sij->s", lap, lap)

    return float(np.max(grad_sq)) + nu1 * dt * float(np.sum(lap_sq[:-1]))


@settings(max_examples=30, deadline=None)
@given(
    steps=st.integers(2, 300),
    nodes=st.sampled_from([3, 7, 31, 127]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
)
def test_path_gap_equals_hand_written_stencils_bitwise(steps, nodes, seed, scale):
    gen = np.random.default_rng(seed)
    a = scale * gen.normal(size=(steps, nodes, 3))
    b = scale * gen.normal(size=(steps, nodes, 3))
    spacing = 1.0 / (nodes + 1)
    assert path_gap(a, b, spacing, 1e-4, 0.7) == hand_written_path_gap(a, b, spacing, 1e-4, 0.7)


def test_path_gap_equals_hand_written_stencils_at_acceptance_size(rng):
    a = rng.normal(size=(2501, 127, 3))
    b = rng.normal(size=(2501, 127, 3))
    assert path_gap(a, b, 1 / 128, 1e-4, 1.0) == hand_written_path_gap(a, b, 1 / 128, 1e-4, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    steps=st.integers(1, 300),
    nodes=st.sampled_from([3, 7, 31, 127]),
    width=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
)
def test_streamed_path_gap_equals_path_gap(steps, nodes, width, seed, scale):
    # fed one step of an (n, 3, M) batch at a time
    gen = np.random.default_rng(seed)
    a = scale * gen.normal(size=(width, steps + 1, nodes, 3))
    b = scale * gen.normal(size=(width, steps + 1, nodes, 3))
    spacing = 1.0 / (nodes + 1)
    gap = StreamedPathGap(width, spacing, 1e-4, 0.7, steps)
    for n in range(steps + 1):
        gap.add(n, (a[:, n] - b[:, n]).transpose(1, 2, 0))
    for j in range(width):
        expected = path_gap(a[j], b[j], spacing, 1e-4, 0.7)
        assert gap.values[j] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_streamed_path_gap_equals_path_gap_at_eight_nodes_in_the_solver_layout(rng):
    # the differences in the march's memory order, whose last node of an
    # 8-node grid np.negative misread in grad_values (numpy 2.4)
    steps, width, nodes = 40, 3, 8
    a = rng.normal(size=(width, steps + 1, nodes, 3))
    b = rng.normal(size=(width, steps + 1, nodes, 3))
    spacing = 1.0 / (nodes + 1)
    gap = StreamedPathGap(width, spacing, 1e-4, 0.7, steps)
    d = solver_empty((nodes, 3, width))
    for n in range(steps + 1):
        d[...] = (a[:, n] - b[:, n]).transpose(1, 2, 0)
        gap.add(n, d)
    for j in range(width):
        expected = path_gap(a[j], b[j], spacing, 1e-4, 0.7)
        assert gap.values[j] == pytest.approx(expected, rel=1e-12, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(3, 12),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.7]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_streamed_path_gap_fed_in_blocks_equals_single_steps_bitwise(
    steps, nodes, width, nu1, seed, data
):
    # blocks of consecutive steps of random lengths, down to one step and with
    # a last block of any length, held in the solver's order as the ensembles hold them
    d = solver_empty((nodes, 3, width, steps + 1))
    d[...] = np.random.default_rng(seed).normal(size=d.shape)
    spacing = 1.0 / (nodes + 1)
    single = StreamedPathGap(width, spacing, 1e-4, nu1, steps)
    for n in range(steps + 1):
        single.add(n, d[..., n])
    cuts = data.draw(st.sets(st.integers(1, steps)))
    starts = [0] + sorted(cuts)
    blocked = StreamedPathGap(width, spacing, 1e-4, nu1, steps)
    for first, end in zip(starts, starts[1:] + [steps + 1]):
        block = solver_empty((nodes, 3, width, end - first))
        block[...] = d[..., first:end]
        blocked.add(first, block)
    assert np.array_equal(blocked.values, single.values)


# --- sample aggregation ------------------------------------------------------------------

def test_sample_stats_mean_and_standard_error():
    values = [1.0, 2.0, 4.0]
    se = float(np.std(values, ddof=1)) / math.sqrt(3)
    assert sample_stats(values) == SampleStats(7.0 / 3.0, se, 3, 0)


def test_sample_stats_counts_failures_without_averaging_them():
    stats = sample_stats([None, 2.0, None, 4.0])
    assert (stats.mean, stats.n_ok, stats.n_failed) == (3.0, 2, 2)
    assert stats.std_error == pytest.approx(1.0)


def test_sample_stats_single_and_no_survivor():
    assert sample_stats([5.0]) == SampleStats(5.0, 0.0, 1, 0)
    empty = sample_stats([None, None])
    assert math.isnan(empty.mean) and math.isnan(empty.std_error)
    assert (empty.n_ok, empty.n_failed) == (0, 2)


# --- suite and helpers ----------------------------------------------------------------

def random_smooth_field(
    grid: Grid1D,
    rng: np.random.Generator,
    modes: int = 8,
    decay: float = 2.0,
    scale: float = 1.0,
) -> np.ndarray:
    """Random low-mode sine combination with k**(-decay) coefficient falloff."""
    k = np.arange(1, modes + 1, dtype=float)
    coeffs = rng.normal(size=(modes, 3)) * (scale * k ** (-decay))[:, None]
    x = grid.nodes
    basis = np.sin(math.pi * np.outer(x, k))
    return basis @ coeffs


def test_random_smooth_field_is_bounded(grid63):
    f = random_smooth_field(grid63, stream_rng(2))
    assert np.all(np.isfinite(f))
    assert float(np.max(np.abs(f))) < 10.0


def test_identity_suite_small_sweep():
    reports = identity_suite(grid_sizes=(31, 63), samples=100, base_seed=4)
    assert all(r.passed for r in reports)
    names = {r.name.split("/")[0] for r in reports}
    assert "summation-by-parts" in names
    assert "cubic-damping-identity" in names


def test_identity_suite_chunks_give_the_rows_of_one_batch():
    # the samples cross a chunk boundary; checked as one batch of the same
    # draws, they give the same worst residuals
    n, samples = 7, STACK_CHUNK + 5
    reports = identity_suite(grid_sizes=(n,), samples=samples, base_seed=3)
    rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(n,)))
    a, b = np.moveaxis(rng.uniform(-1.0, 1.0, size=(samples, 2, n, 3)), 0, -1)
    worst = _pair_residuals(a, b, 1.0 / (n + 1)).max(axis=1)
    assert [r.name for r in reports[1:]] == [f"{name}/n={n}" for name in SUITE_CHECKS]
    assert [r.residual for r in reports[1:]] == worst.tolist()


def test_identity_suite_memory_does_not_grow_with_samples():
    def peak(samples):
        tracemalloc.start()
        try:
            identity_suite(grid_sizes=(255,), samples=samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * STACK_CHUNK) <= 1.25 * peak(STACK_CHUNK)
