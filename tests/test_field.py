import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llblab.field import (
    EnergyReport,
    VectorField,
    cross,
    edge_inner,
    grad_values,
    gradient,
    h1_norm,
    helm_values,
    inner_l2,
    lap_values,
    laplacian,
    make_grid,
    norms,
    stack_norms,
    zero_field,
)
from conftest import random_field

# O(1) node values, the scale the exact identities are checked at
UNIT_VALUES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def fields(n, elements=UNIT_VALUES):
    return arrays(np.float64, (n, 3), elements=elements)


def thomas_reference(c: float, h: float, rhs: np.ndarray) -> np.ndarray:
    """Plain Thomas elimination for (I - c*Lap) w = rhs; test oracle only."""
    n = rhs.shape[0]
    off = -c / (h * h)
    diag = 1.0 + 2.0 * c / (h * h)
    cp = np.zeros(n)
    dp = np.zeros_like(rhs)
    cp[0] = off / diag
    dp[0] = rhs[0] / diag
    for i in range(1, n):
        denom = diag - off * cp[i - 1]
        cp[i] = off / denom
        dp[i] = (rhs[i] - off * dp[i - 1]) / denom
    out = np.zeros_like(rhs)
    out[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return out


# --- grid ------------------------------------------------------------------

def test_make_grid_spacing():
    assert make_grid(3).spacing == 0.25
    assert make_grid(255).spacing == 1.0 / 256.0


def test_make_grid_rejects_small():
    with pytest.raises(ValueError):
        make_grid(2)


@pytest.mark.parametrize("n", [3, 7, 31, 255, 1000])
def test_grid_spacing_partition_of_unity(n):
    g = make_grid(n)
    assert abs(g.spacing * (n + 1) - 1.0) <= np.finfo(float).eps


def test_nodes_interior():
    g = make_grid(4)
    assert np.allclose(g.nodes, [0.2, 0.4, 0.6, 0.8])


def test_vectorfield_shape_check():
    g = make_grid(5)
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((5, 2)))


# --- laplacian -------------------------------------------------------------

def test_laplacian_quadratic_exact():
    g = make_grid(127)
    x = g.nodes
    f = VectorField(g, np.stack([x * (1 - x), np.zeros_like(x), np.zeros_like(x)], axis=1))
    lap = laplacian(f)
    assert np.max(np.abs(lap.values[:, 0] + 2.0)) == 0.0
    assert np.all(lap.values[:, 1:] == 0.0)


def test_laplacian_zero_field(grid63):
    assert np.all(laplacian(zero_field(grid63)).values == 0.0)


def test_laplacian_sine_error_bound():
    # the stencil sees the exact discrete eigenvalue, so the node error against
    # the analytic second derivative is (pi^2 - pi_h^2) |sin| <= pi^4 h^2 / 12
    g = make_grid(255)
    x = g.nodes
    f = VectorField(g, np.stack([np.sin(np.pi * x), 0 * x, 0 * x], axis=1))
    lap = laplacian(f)
    err = np.max(np.abs(lap.values[:, 0] + math.pi**2 * np.sin(np.pi * x)))
    bound = math.pi**4 * g.spacing**2 / 12.0 * 1.01
    assert err <= bound


# --- gradient and summation by parts --------------------------------------

def test_gradient_zero(grid63):
    assert np.all(gradient(zero_field(grid63)) == 0.0)


def test_gradient_linear_exact_interior():
    g = make_grid(31)
    x = g.nodes
    f = VectorField(g, np.stack([x, 0 * x, 0 * x], axis=1))
    edges = gradient(f)
    # interior edges are exactly 1; the right boundary edge sees the ghost zero
    assert np.max(np.abs(edges[:-1, 0] - 1.0)) <= 1e-13
    assert edges.shape == (32, 3)


@pytest.mark.parametrize("n", [31, 127, 255])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_summation_by_parts(n, data):
    g = make_grid(n)
    f = VectorField(g, data.draw(fields(n), label="f"))
    w = VectorField(g, data.draw(fields(n), label="w"))
    lhs = inner_l2(laplacian(f), w)
    rhs = edge_inner(g, gradient(f), gradient(w))
    assert abs(lhs + rhs) <= 1e-12 * (1.0 + abs(rhs))


# --- cross product ---------------------------------------------------------

def test_cross_unit_vectors():
    g = make_grid(5)
    e1 = VectorField(g, np.tile([1.0, 0.0, 0.0], (5, 1)))
    e2 = VectorField(g, np.tile([0.0, 1.0, 0.0], (5, 1)))
    assert np.array_equal(cross(e1, e2).values, np.tile([0.0, 0.0, 1.0], (5, 1)))


def test_cross_self_is_zero(rng, grid63):
    f = random_field(grid63, rng)
    assert np.all(cross(f, f).values == 0.0)


def test_cross_antisymmetry_exact(rng, grid63):
    f = random_field(grid63, rng)
    w = random_field(grid63, rng)
    assert np.array_equal(cross(f, w).values, -cross(w, f).values)


def test_cross_inner_orthogonality(rng):
    # (u x v, v) = 0: rounding-level residual for any magnitude
    for n in (31, 255):
        g = make_grid(n)
        for scale in (1.0, 1e3):
            u = random_field(g, rng, scale)
            v = random_field(g, rng, scale)
            resid = abs(inner_l2(cross(u, v), v))
            nv = norms(v)
            assert resid <= 1e-12 * (1.0 + norms(u).linf * nv.l2**2)


def test_cross_pointwise_orthogonality(rng, grid63):
    u = VectorField(grid63, rng.uniform(-1, 1, size=(63, 3)))
    v = VectorField(grid63, rng.uniform(-1, 1, size=(63, 3)))
    c = cross(u, v).values
    assert np.max(np.abs(np.einsum("ij,ij->i", c, u.values))) <= 1e-14
    assert np.max(np.abs(np.einsum("ij,ij->i", c, v.values))) <= 1e-14


def test_cross_grid_mismatch(rng):
    u = random_field(make_grid(5), rng)
    v = random_field(make_grid(6), rng)
    with pytest.raises(ValueError):
        cross(u, v)


# --- inner products and norms ----------------------------------------------

def test_inner_normalized_sine():
    # discrete sine orthogonality makes h * sum 2 sin^2 exactly 1
    g = make_grid(255)
    x = g.nodes
    f = VectorField(g, np.stack([math.sqrt(2) * np.sin(np.pi * x), 0 * x, 0 * x], axis=1))
    assert abs(inner_l2(f, f) - 1.0) <= 1e-12


def test_inner_zero(rng, grid63):
    f = random_field(grid63, rng)
    assert inner_l2(f, zero_field(grid63)) == 0.0


def test_inner_bilinearity(rng, grid63):
    f = random_field(grid63, rng)
    w = random_field(grid63, rng)
    v = random_field(grid63, rng)
    a, b = 1.7, -0.3
    lhs = inner_l2(VectorField(grid63, a * f.values + b * w.values), v)
    rhs = a * inner_l2(f, v) + b * inner_l2(w, v)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_norms_zero(grid63):
    rep = norms(zero_field(grid63))
    assert rep == EnergyReport(0.0, 0.0, 0.0, 0.0)


def test_norms_eigenfunction():
    g = make_grid(255)
    x = g.nodes
    h = g.spacing
    f = VectorField(g, np.stack([math.sqrt(2) * np.sin(np.pi * x), 0 * x, 0 * x], axis=1))
    rep = norms(f)
    assert abs(rep.l2 - 1.0) <= 1e-12
    assert abs(rep.h1_semi - math.pi) <= math.pi**3 * h**2  # pi_h = pi + O(h^2)
    assert abs(rep.h2_semi - math.pi**2) <= 2 * math.pi**4 * h**2
    assert abs(rep.linf - math.sqrt(2)) <= 1e-3  # nearest node to the peak


# node values whose squares neither overflow nor underflow
FIELD_VALUES = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_poincare_sweep(data):
    n = data.draw(st.sampled_from([31, 127]), label="n")
    rep = norms(VectorField(make_grid(n), data.draw(fields(n, FIELD_VALUES), label="u")))
    assert rep.l2 <= rep.h1_semi


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_interpolation_inequality_sweep(data):
    n = data.draw(st.sampled_from([31, 127]), label="n")
    g = make_grid(n)
    rep = norms(VectorField(g, data.draw(fields(n, FIELD_VALUES), label="u")))
    rhs = 2.0 * rep.l2 * math.hypot(rep.l2, rep.h1_semi) * (1.0 + 10.0 * g.spacing)
    assert rep.linf**2 <= rhs


def test_h1_norm_combines(rng, grid63):
    f = random_field(grid63, rng)
    rep = norms(f)
    assert abs(h1_norm(f) - math.hypot(rep.l2, rep.h1_semi)) <= 1e-15


# --- stencils on snapshot stacks --------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 7), st.integers(3, 17), st.just(3)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    st.floats(1e-3, 0.5),
)
def test_stencils_on_node_major_stack_equal_per_snapshot_calls(stack, h):
    # stack is snapshot-major (S, n, 3); the kernels see its node-major view
    node_major = stack.transpose(1, 0, 2)
    lap = lap_values(node_major, h)
    grad = grad_values(node_major, h)
    assert grad.shape == (stack.shape[1] + 1, stack.shape[0], 3)
    for s, snap in enumerate(stack):
        assert lap[:, s].tobytes() == lap_values(snap, h).tobytes()
        assert grad[:, s].tobytes() == grad_values(snap, h).tobytes()
    # the results keep the snapshot-major memory layout of the input
    assert lap.transpose(1, 0, 2).flags.c_contiguous
    assert grad.transpose(1, 0, 2).flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 9), st.integers(3, 17), st.just(3)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    st.floats(1e-3, 0.5),
)
def test_stack_norms_rows_are_the_norms_of_each_field(stack, h):
    rows = stack_norms(stack, h)
    assert rows.shape == (len(stack), 4)
    grad = np.diff(np.pad(stack, ((0, 0), (1, 1), (0, 0))), axis=1) / h
    lap = np.diff(np.pad(stack, ((0, 0), (1, 1), (0, 0))), n=2, axis=1) / h**2
    for s, snap in enumerate(stack):
        # a row does not depend on the other fields of the stack
        assert rows[s].tobytes() == stack_norms(snap[None], h)[0].tobytes()
        expected = [
            math.sqrt(h * np.sum(snap**2)),
            math.sqrt(h * np.sum(grad[s] ** 2)),
            math.sqrt(h * np.sum(lap[s] ** 2)),
            math.sqrt(np.max(np.sum(snap**2, axis=1))),
        ]
        # the reference stencils round differently: allow for cancellation
        scale = np.max(np.abs(snap)) / h**2
        assert rows[s] == pytest.approx(expected, rel=1e-12, abs=1e-13 * scale)


def test_stack_norms_chunks_a_long_stack(rng):
    from llblab.field import STACK_CHUNK

    stack = rng.normal(size=(2 * STACK_CHUNK + 3, 7, 3))
    rows = stack_norms(stack, 0.125)
    for s in (0, STACK_CHUNK - 1, STACK_CHUNK, len(stack) - 1):
        assert rows[s].tobytes() == stack_norms(stack[s:s + 1], 0.125)[0].tobytes()


# --- helmholtz solve --------------------------------------------------------

def test_helmholtz_c_zero_identity(rng, grid63):
    f = random_field(grid63, rng)
    w = helm_values(f.values, grid63.spacing, 0.0)
    assert np.array_equal(w, f.values)


def test_helmholtz_negative_c(rng, grid63):
    # c = -0.1 makes I - c*Lap indefinite on this grid; the Cholesky factorization refuses it
    with pytest.raises(ValueError):
        helm_values(random_field(grid63, rng).values, grid63.spacing, -0.1)


def test_helmholtz_discrete_eigenvector():
    g = make_grid(127)
    x = g.nodes
    h = g.spacing
    c = 0.37
    pi2_h = (2.0 - 2.0 * math.cos(math.pi * h)) / h**2
    rhs = VectorField(g, np.stack([(1.0 + c * pi2_h) * np.sin(np.pi * x), 0 * x, 0 * x], axis=1))
    w = helm_values(rhs.values, h, c)
    assert np.max(np.abs(w[:, 0] - np.sin(np.pi * x))) <= 1e-10


@pytest.mark.parametrize("c", [1e-4, 0.1, 5.0])
def test_helmholtz_residual(c, rng):
    g = make_grid(255)
    rhs = random_field(g, rng)
    w = helm_values(rhs.values, g.spacing, c)
    resid = w - c * lap_values(w, g.spacing) - rhs.values
    rel = math.sqrt(float(np.vdot(resid, resid)) / float(np.vdot(rhs.values, rhs.values)))
    assert rel <= 1e-10


def test_helmholtz_round_trip(rng, grid63):
    c = 0.2
    f = random_field(grid63, rng)
    image = VectorField(grid63, f.values - c * laplacian(f).values)
    back = helm_values(image.values, grid63.spacing, c)
    rel = np.linalg.norm(back - f.values) / np.linalg.norm(f.values)
    assert rel <= 1e-10


def test_helmholtz_matches_thomas_reference(rng):
    g = make_grid(97)
    c = 0.85
    rhs = random_field(g, rng)
    w = helm_values(rhs.values, g.spacing, c)
    ref = thomas_reference(c, g.spacing, rhs.values)
    assert np.max(np.abs(w - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
