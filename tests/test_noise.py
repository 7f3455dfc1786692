import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llblab.dynamics import (
    ModelParams,
    SystemKind,
    TimeGrid,
    initial_profile,
    integrate,
    integrate_batch,
)
from llblab.field import make_grid
from llblab.noise import (
    ControlPath,
    IncrementStreams,
    increment_path,
    make_covariance,
    mode_matrix,
    read_control_coefficients,
    single_mode_control,
    stream_rng,
    write_control_csv,
    zero_control,
)
from conftest import EDGE_FLOATS


# --- covariance -------------------------------------------------------------

def test_make_covariance_amplitudes_decreasing():
    amps = make_covariance(12, 3.5).amplitudes
    assert np.all(amps > 0)
    assert np.all(np.diff(amps) < 0)


def test_make_covariance_rejects_slow_decay():
    with pytest.raises(ValueError, match="H1 trace"):
        make_covariance(8, 2.0)
    with pytest.raises(ValueError, match="H1 trace"):
        make_covariance(8, 3.0)


def test_make_covariance_rejects_no_modes():
    with pytest.raises(ValueError):
        make_covariance(0, 4.0)


# --- increments --------------------------------------------------------------

def test_sample_increment_rejects_bad_dt():
    with pytest.raises(ValueError):
        increment_path(stream_rng(1), 10, 4, 0.0)
    with pytest.raises(ValueError):
        increment_path(stream_rng(1), 10, 4, -1.0)


def test_sample_increment_replay_bit_identical():
    a = increment_path(stream_rng(5, 1, 2), 20, 6, 1e-3)
    b = increment_path(stream_rng(5, 1, 2), 20, 6, 1e-3)
    assert a.shape == (20, 6, 3)
    assert a.tobytes() == b.tobytes()
    c = increment_path(stream_rng(5, 1, 3), 20, 6, 1e-3)
    assert a.tobytes() != c.tobytes()


def test_sample_increment_variance_small_dt():
    dt = 1e-6
    draws = increment_path(stream_rng(123), 100_000, 1, dt)
    assert abs(draws.var() / dt - 1.0) <= 0.05


def test_increment_independence_across_steps():
    steps = 10_000
    series = increment_path(stream_rng(321), steps, 1, 1e-3)[:, 0, 0]
    lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
    assert abs(lag1) <= 3.0 / math.sqrt(steps)


# --- field synthesis: mode_matrix @ coefficients ------------------------------

def test_noise_field_zero_increments():
    spec = make_covariance(4, 4.0)
    assert np.all(mode_matrix(spec, make_grid(31)) @ np.zeros((4, 3)) == 0.0)


def test_noise_field_single_unit_increment():
    spec = make_covariance(4, 4.0)
    grid = make_grid(63)
    coeffs = np.zeros((4, 3))
    coeffs[0, 0] = 1.0
    f = mode_matrix(spec, grid) @ coeffs
    expected = math.sqrt(2.0) * np.sin(math.pi * grid.nodes)  # lambda_1 = 1
    assert np.max(np.abs(f[:, 0] - expected)) <= 1e-14
    assert np.all(f[:, 1:] == 0.0)


def test_noise_field_linearity(rng):
    mat = mode_matrix(make_covariance(5, 4.0), make_grid(31))
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    assert np.max(np.abs(mat @ (2.0 * a + b) - (2.0 * (mat @ a) + mat @ b))) <= 1e-14


def test_noise_field_dimension_mismatch():
    # increment streams must match the covariance's mode count and the time grid
    spec = make_covariance(4, 4.0)
    tg = TimeGrid(0.01, 10)
    grid = make_grid(31)
    for steps, modes in ((10, 3), (9, 4)):
        with pytest.raises(ValueError, match="increment streams"):
            integrate_batch(
                (SystemKind.STOCHASTIC,), (initial_profile(grid)[..., None],),
                ModelParams(), tg, lambda *a: None, spec=spec,
                noise=IncrementStreams([stream_rng(0)], steps, modes, tg.dt), epsilons=[0.1],
            )


def test_noise_field_node_variance_matches_covariance():
    spec = make_covariance(4, 4.0)
    grid = make_grid(31)
    dt = 1e-3
    draws = mode_matrix(spec, grid) @ increment_path(stream_rng(55), 20_000, 4, dt)
    node = 10
    var_emp = float(draws[:, node, :].var(axis=0).mean())
    lam = spec.amplitudes**2
    k = np.arange(1, 5)
    var_theory = dt * float(np.sum(lam * 2.0 * np.sin(k * math.pi * grid.nodes[node]) ** 2))
    assert abs(var_emp / var_theory - 1.0) <= 0.05


def test_noise_field_boundary_decay_linear_in_h():
    # sine synthesis vanishes at the boundary; the first node value scales like h
    spec = make_covariance(4, 4.0)
    coeffs = np.ones((4, 3))
    vals = {}
    for n in (31, 63, 127):
        vals[n] = abs((mode_matrix(spec, make_grid(n)) @ coeffs)[0, 0])
    assert abs(vals[63] / vals[31] - make_grid(63).spacing / make_grid(31).spacing) <= 0.05
    assert abs(vals[127] / vals[31] - make_grid(127).spacing / make_grid(31).spacing) <= 0.05


# --- control paths -------------------------------------------------------------

def test_control_path_validation():
    with pytest.raises(ValueError):
        ControlPath(np.zeros((4, 2, 2)), 0.1)
    with pytest.raises(ValueError):
        ControlPath(np.zeros((4, 2, 3)), -0.1)


def test_control_field_zero():
    spec = make_covariance(4, 4.0)
    ctrl = zero_control(10, 4, 0.01)
    assert np.all(mode_matrix(spec, make_grid(31)) @ ctrl.coefficients[3] == 0.0)


def test_control_field_unit_coordinate_and_cost():
    spec = make_covariance(4, 4.0)
    grid = make_grid(63)
    steps, horizon = 50, 0.5
    ctrl = single_mode_control(steps, 4, horizon / steps, mode=1, component=1, coefficient=1.0)
    f = mode_matrix(spec, grid) @ ctrl.coefficients[0]
    expected = math.sqrt(2.0) * np.sin(math.pi * grid.nodes)  # sqrt(lambda_1) = 1
    assert np.max(np.abs(f[:, 0] - expected)) <= 1e-14
    assert abs(ctrl.h0_cost() - horizon / 2.0) <= 1e-12


def test_control_field_index_range():
    # a control is synthesized only over the run's own modes and time grid
    spec = make_covariance(4, 4.0)
    tg = TimeGrid(0.1, 10)
    u0 = initial_profile(make_grid(31))
    for ctrl, problem in ((zero_control(10, 3, tg.dt), "modes"), (zero_control(10, 4, 0.02), "dt")):
        with pytest.raises(ValueError, match=problem):
            integrate(SystemKind.SKELETON, u0, ModelParams(), tg, spec=spec, ctrl=ctrl)


def test_control_cost_mode_additivity():
    dt = 0.01
    a = single_mode_control(20, 4, dt, mode=1, component=1, coefficient=0.7)
    b = single_mode_control(20, 4, dt, mode=3, component=2, coefficient=-1.1)
    both = ControlPath(a.coefficients + b.coefficients, dt)
    assert abs(both.h0_cost() - (a.h0_cost() + b.h0_cost())) <= 1e-14


def test_parseval_coordinates_vs_synthesis(rng):
    # cost in coordinates == cost of the synthesized path projected back on a
    # fine grid (discrete sine orthogonality keeps this exact to quadrature)
    spec = make_covariance(6, 4.0)
    fine = make_grid(2047)
    steps, dt = 16, 0.02 / 16
    ctrl = ControlPath(rng.normal(size=(steps, 6, 3)), dt)
    mat = mode_matrix(spec, fine)
    basis = mat / spec.amplitudes
    h = fine.spacing
    cost = 0.0
    for n in range(steps):
        f = mat @ ctrl.coefficients[n]
        coords = (h * basis.T @ f) / spec.amplitudes[:, None]
        cost += 0.5 * dt * float(np.vdot(coords, coords))
    assert abs(cost - ctrl.h0_cost()) <= 1e-6 * ctrl.h0_cost()


# --- serialization ---------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 4), st.just(3)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_control_csv_round_trip(tmp_path_factory, coefficients):
    # repr keeps every bit, signed zeros and subnormals included
    path = tmp_path_factory.mktemp("control") / "control.csv"
    write_control_csv(ControlPath(coefficients, 0.05), path)
    header = path.read_text().splitlines()[0]
    assert header == "step,k,j,coefficient"
    read = read_control_coefficients(path, *coefficients.shape[:2])
    assert read.tobytes() == coefficients.tobytes()


def _csv_writer_control(ctrl, path):
    # the csv.writer implementation the template writer replaced: the oracle
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "k", "j", "coefficient"])
        coeffs = ctrl.coefficients
        for n in range(coeffs.shape[0]):
            for k in range(coeffs.shape[1]):
                for j in range(3):
                    writer.writerow([n, k + 1, j + 1, repr(float(coeffs[n, k, j]))])


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 12), st.just(3)),
        elements=EDGE_FLOATS,
    )
)
def test_control_csv_matches_csv_writer_bytes(tmp_path_factory, coefficients):
    # repr floats (signed zeros, subnormals, huge, inf and nan) and CRLF rows,
    # byte for byte as csv.writer wrote them, two-digit steps and modes included
    out = tmp_path_factory.mktemp("control")
    ctrl = ControlPath(coefficients, 0.05)
    write_control_csv(ctrl, out / "control.csv")
    _csv_writer_control(ctrl, out / "control_oracle.csv")
    assert (out / "control.csv").read_bytes() == (out / "control_oracle.csv").read_bytes()


def test_control_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_control_coefficients(path, 1, 1)


@pytest.mark.parametrize("block", [1, 7, 64, 500])
def test_increment_streams_replay_whole_paths(monkeypatch, block):
    # block by block, each stream yields the bits of its one-draw path
    import llblab.noise as noise_module

    monkeypatch.setattr(noise_module, "INCREMENT_BLOCK", block)
    steps, dt = 100, 1e-3
    whole = [increment_path(stream_rng(4, j), steps, 3, dt) for j in range(3)]
    streams = IncrementStreams([stream_rng(4, j) for j in range(3)], steps, 3, dt)
    assert streams.width == 3
    for n in range(steps):
        step = streams.at(n)
        assert step.shape == (3, 3, 3)
        for j in range(3):
            assert step[j].tobytes() == whole[j][n].tobytes()
