import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llblab import field
from llblab.field import (
    column_sq_sums,
    cross_values,
    csv_rows,
    dot_values,
    grad_values,
    h1_norm,
    helm_values,
    lap_values,
    make_grid,
    solver_empty,
    stack_norms,
)
from conftest import EDGE_FLOATS, random_field

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


# --- laplacian -------------------------------------------------------------

def test_laplacian_quadratic_exact():
    g = make_grid(127)
    x = g.nodes
    f = np.stack([x * (1 - x), np.zeros_like(x), np.zeros_like(x)], axis=1)
    lap = lap_values(f, g.spacing)
    assert np.max(np.abs(lap[:, 0] + 2.0)) == 0.0
    assert np.all(lap[:, 1:] == 0.0)


def test_laplacian_zero_field(grid63):
    assert np.all(lap_values(np.zeros((grid63.n_interior, 3)), grid63.spacing) == 0.0)


def test_laplacian_sine_error_bound():
    # the stencil sees the exact discrete eigenvalue, so the node error against
    # the analytic second derivative is (pi^2 - pi_h^2) |sin| <= pi^4 h^2 / 12
    g = make_grid(255)
    x = g.nodes
    f = np.stack([np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    lap = lap_values(f, g.spacing)
    err = np.max(np.abs(lap[:, 0] + math.pi**2 * np.sin(np.pi * x)))
    bound = math.pi**4 * g.spacing**2 / 12.0 * 1.01
    assert err <= bound


# --- gradient and summation by parts --------------------------------------

def test_gradient_zero(grid63):
    assert np.all(grad_values(np.zeros((grid63.n_interior, 3)), grid63.spacing) == 0.0)


def test_gradient_linear_exact_interior():
    g = make_grid(31)
    x = g.nodes
    edges = grad_values(np.stack([x, 0 * x, 0 * x], axis=1), g.spacing)
    # interior edges are exactly 1; the right boundary edge sees the ghost zero
    assert np.max(np.abs(edges[:-1, 0] - 1.0)) <= 1e-13
    assert edges.shape == (32, 3)


@pytest.mark.parametrize("n", [31, 127, 255])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_summation_by_parts(n, data):
    h = make_grid(n).spacing
    f = data.draw(fields(n), label="f")
    w = data.draw(fields(n), label="w")
    lhs = h * column_sq_sums(lap_values(f, h), w)
    rhs = h * column_sq_sums(grad_values(f, h), grad_values(w, h))
    assert abs(lhs + rhs) <= 1e-12 * (1.0 + abs(rhs))


# --- cross product ---------------------------------------------------------

def test_cross_unit_vectors():
    e1 = np.tile([1.0, 0.0, 0.0], (5, 1))
    e2 = np.tile([0.0, 1.0, 0.0], (5, 1))
    assert np.array_equal(cross_values(e1, e2), np.tile([0.0, 0.0, 1.0], (5, 1)))


def test_cross_self_is_zero(rng, grid63):
    f = random_field(grid63, rng)
    assert np.all(cross_values(f, f) == 0.0)


def test_cross_antisymmetry_exact(rng, grid63):
    f = random_field(grid63, rng)
    w = random_field(grid63, rng)
    assert np.array_equal(cross_values(f, w), -cross_values(w, f))


def test_cross_inner_orthogonality(rng):
    # (u x v, v) = 0: rounding-level residual for any magnitude
    for n in (31, 255):
        g = make_grid(n)
        for scale in (1.0, 1e3):
            u = random_field(g, rng, scale)
            v = random_field(g, rng, scale)
            resid = abs(g.spacing * column_sq_sums(cross_values(u, v), v))
            linf_u = stack_norms(u[None], g.spacing)[0, 3]
            l2_v = stack_norms(v[None], g.spacing)[0, 0]
            assert resid <= 1e-12 * (1.0 + linf_u * l2_v**2)


def test_cross_pointwise_orthogonality(rng, grid63):
    u = rng.uniform(-1, 1, size=(63, 3))
    v = rng.uniform(-1, 1, size=(63, 3))
    c = cross_values(u, v)
    assert np.max(np.abs(dot_values(c, u))) <= 1e-14
    assert np.max(np.abs(dot_values(c, v))) <= 1e-14


# --- inner products and norms ----------------------------------------------

def test_inner_normalized_sine():
    # discrete sine orthogonality makes h * sum 2 sin^2 exactly 1
    g = make_grid(255)
    x = g.nodes
    f = np.stack([math.sqrt(2) * np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    assert abs(g.spacing * column_sq_sums(f) - 1.0) <= 1e-12


def test_inner_zero(rng, grid63):
    f = random_field(grid63, rng)
    assert column_sq_sums(f, np.zeros((grid63.n_interior, 3))) == 0.0


def test_inner_bilinearity(rng, grid63):
    f, w, v = (random_field(grid63, rng) for _ in range(3))
    a, b = 1.7, -0.3
    lhs = column_sq_sums(a * f + b * w, v)
    rhs = a * column_sq_sums(f, v) + b * column_sq_sums(w, v)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_norms_zero(grid63):
    rows = stack_norms(np.zeros((grid63.n_interior, 3))[None], grid63.spacing)
    assert rows.tolist() == [[0.0, 0.0, 0.0, 0.0]]


def test_norms_eigenfunction():
    g = make_grid(255)
    x = g.nodes
    h = g.spacing
    f = np.stack([math.sqrt(2) * np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    l2, h1_semi, h2_semi, linf = stack_norms(f[None], h)[0]
    assert abs(l2 - 1.0) <= 1e-12
    assert abs(h1_semi - math.pi) <= math.pi**3 * h**2  # pi_h = pi + O(h^2)
    assert abs(h2_semi - math.pi**2) <= 2 * math.pi**4 * h**2
    assert abs(linf - math.sqrt(2)) <= 1e-3  # nearest node to the peak


# node values whose squares neither overflow nor underflow
FIELD_VALUES = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_poincare_sweep(data):
    n = data.draw(st.sampled_from([31, 127]), label="n")
    u = data.draw(fields(n, FIELD_VALUES), label="u")
    l2, h1_semi, _, _ = stack_norms(u[None], make_grid(n).spacing)[0]
    assert l2 <= h1_semi


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_interpolation_inequality_sweep(data):
    n = data.draw(st.sampled_from([31, 127]), label="n")
    h = make_grid(n).spacing
    u = data.draw(fields(n, FIELD_VALUES), label="u")
    l2, h1_semi, _, linf = stack_norms(u[None], h)[0]
    rhs = 2.0 * l2 * math.hypot(l2, h1_semi) * (1.0 + 10.0 * h)
    assert linf**2 <= rhs


def test_h1_norm_combines(rng, grid63):
    f = random_field(grid63, rng)
    l2, h1_semi, _, _ = stack_norms(f[None], grid63.spacing)[0]
    assert abs(h1_norm(f) - math.hypot(l2, h1_semi)) <= 1e-15


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


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(1, 40), st.integers(1, 7), st.integers(1, 9)),
    st.integers(0, 2**32 - 1),
)
def test_column_sq_sums_of_a_stack_of_steps_equal_those_of_each_step(shape, seed):
    # an (m, 3, M, K) stack of K steps in the solver's memory order, as the
    # ensembles buffer their narrow batches, against each step's (m, 3, M)
    # batch copied into a workspace of its own
    m, width, steps = shape
    stack = solver_empty((m, 3, width, steps))
    stack[...] = np.random.default_rng(seed).normal(size=stack.shape)
    sums = column_sq_sums(stack)
    assert sums.shape == (steps, width)
    for k in range(steps):
        step = solver_empty((m, 3, width))
        step[...] = stack[..., k]
        assert sums[k].tobytes() == column_sq_sums(step).tobytes()
        assert sums[k].tobytes() == column_sq_sums(stack[..., k]).tobytes()


def test_stack_norms_row_bits_do_not_depend_on_the_stack_around_it(rng):
    # a field's row has the same bits alone and in a stack wider than a chunk
    from llblab.field import STACK_CHUNK

    stack = rng.normal(size=(2 * STACK_CHUNK + 3, 7, 3))
    rows = stack_norms(stack, 0.125)
    for s in (0, STACK_CHUNK - 1, STACK_CHUNK, len(stack) - 1):
        assert rows[s].tobytes() == stack_norms(stack[s:s + 1], 0.125)[0].tobytes()


# --- helmholtz solve --------------------------------------------------------

def test_helmholtz_c_zero_identity(rng, grid63):
    f = random_field(grid63, rng)
    w = helm_values(f, grid63.spacing, 0.0)
    assert np.array_equal(w, f)


def test_helmholtz_negative_c(rng, grid63):
    # c = -0.1 makes I - c*Lap indefinite on this grid; the LDL^T factorization refuses it
    with pytest.raises(np.linalg.LinAlgError):
        helm_values(random_field(grid63, rng), grid63.spacing, -0.1)


def test_helmholtz_discrete_eigenvector():
    g = make_grid(127)
    x = g.nodes
    h = g.spacing
    c = 0.37
    pi2_h = (2.0 - 2.0 * math.cos(math.pi * h)) / h**2
    rhs = np.stack([(1.0 + c * pi2_h) * np.sin(np.pi * x), 0 * x, 0 * x], axis=1)
    w = helm_values(rhs, h, c)
    assert np.max(np.abs(w[:, 0] - np.sin(np.pi * x))) <= 1e-10


@pytest.mark.parametrize("c", [1e-4, 0.1, 5.0])
def test_helmholtz_residual(c, rng):
    g = make_grid(255)
    rhs = random_field(g, rng)
    w = helm_values(rhs, g.spacing, c)
    resid = w - c * lap_values(w, g.spacing) - rhs
    rel = math.sqrt(float(np.vdot(resid, resid)) / float(np.vdot(rhs, rhs)))
    assert rel <= 1e-10


def test_helmholtz_round_trip(rng, grid63):
    c = 0.2
    f = random_field(grid63, rng)
    image = f - c * lap_values(f, grid63.spacing)
    back = helm_values(image, grid63.spacing, c)
    rel = np.linalg.norm(back - f) / np.linalg.norm(f)
    assert rel <= 1e-10


def test_helmholtz_lapack_routines_give_the_bits_of_scipy_linalg(rng):
    # field loads pttrf/pttrs from scipy's _flapack file without scipy.linalg:
    # the routines scipy.linalg hands out give the same bits
    from scipy.linalg import LinAlgError, get_lapack_funcs

    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=np.float64)
    n, h, c = 127, 1.0 / 128, 1e-4  # criterion 6's grid and dt * nu1
    inv_h2 = 1.0 / (h * h)
    d, e, info = pttrf(np.full(n, 1.0 + 2.0 * c * inv_h2), np.full(n - 1, -c * inv_h2))
    assert info == 0
    factors = field._helmholtz_factor(n, h, c)
    assert [f.tobytes() for f in factors] == [d.tobytes(), e.tobytes()]
    batch = solver_empty((n, 3, 6))
    batch[...] = rng.normal(size=batch.shape)
    expected, info = pttrs(d, e, batch.reshape(n, -1))
    assert info == 0
    expected = expected.reshape(batch.shape)
    assert helm_values(batch, h, c).tobytes() == expected.tobytes()
    assert helm_values(batch, h, c, out=batch) is batch
    assert batch.tobytes() == expected.tobytes()
    assert field.LinAlgError is LinAlgError


def test_flapack_loader_names_the_missing_extension(tmp_path):
    with pytest.raises(ImportError, match="_flapack") as info:
        field._load_flapack(str(tmp_path))
    assert str(tmp_path / "linalg") in str(info.value)


@st.composite
def _helmholtz_stacks(draw):
    n = draw(st.integers(3, 300))
    width = draw(st.integers(1, 12))
    v = draw(arrays(np.float64, (n, 3, width), elements=st.floats(-1e3, 1e3)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        v = np.asfortranarray(v)
    elif layout == "strided":
        v = np.repeat(v, 2, axis=2)[..., ::2]
    return v, draw(st.floats(1e-8, 1e4))


@settings(max_examples=100, deadline=None)
@given(_helmholtz_stacks())
def test_helmholtz_stack_equals_column_solves_and_has_rounding_residual(case):
    # every column of a stack gets the bits of its own solve, whatever the
    # stack's width or memory layout, and w solves (I - c*Lap) w = v to rounding
    v, c = case
    n, _, width = v.shape
    h = 1.0 / (n + 1)
    w = helm_values(v, h, c)
    for j in range(width):
        assert w[..., j].tobytes() == helm_values(v[..., j].copy(), h, c).tobytes()
        assert w[..., j:j + 1].tobytes() == helm_values(v[..., j:j + 1].copy(), h, c).tobytes()
    resid = w - c * lap_values(w, h) - v
    scale = np.linalg.norm(v) + (1.0 + 4.0 * c / h**2) * np.linalg.norm(w)
    assert np.linalg.norm(resid) <= 8.0 * np.finfo(float).eps * scale


def test_helmholtz_matches_thomas_reference(rng):
    g = make_grid(97)
    c = 0.85
    rhs = random_field(g, rng)
    w = helm_values(rhs, g.spacing, c)
    ref = thomas_reference(c, g.spacing, rhs)
    assert np.max(np.abs(w - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


# --- out= and the in-place solve ----------------------------------------------------

def _in_layout(a, layout):
    """A copy of ``a`` (n, ...) held in ``layout``; its logical values are unchanged."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "solver":
        out = solver_empty(a.shape)
    else:
        out = np.empty(a.shape[:-1] + (2 * a.shape[-1],))[..., ::2]
    out[...] = a
    return out


LAYOUTS = st.sampled_from(["C", "F", "solver", "strided"])


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(3, 24))
    width = draw(st.integers(1, 12))
    a, b = (draw(arrays(np.float64, (n, 3, width), elements=EDGE_FLOATS)) for _ in range(2))
    layouts = [draw(LAYOUTS, label=name) for name in ("a", "b", "out")]
    return a, b, layouts, draw(st.floats(1e-3, 0.5)), draw(st.sampled_from([0.0, 1e-4, 0.3, 50.0]))


def _assert_same_bits_but_nan_signs(x, y, name):
    # IEEE 754 leaves the sign of a NaN result open, and numpy picks the operand
    # order of its loops from the layout: NaNs need only stand at the same places
    nan = np.isnan(x)
    assert np.array_equal(nan, np.isnan(y)), name
    assert x[~nan].tobytes() == y[~nan].tobytes(), name


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_out_and_in_place_solve_give_the_bits_of_the_allocating_calls(case):
    # C, Fortran, solver-order and strided inputs and outputs, -0.0, subnormals, inf and nan
    a, b, (layout_a, layout_b, layout_out), h, c = case
    a, b = _in_layout(a, layout_a), _in_layout(b, layout_b)
    with np.errstate(all="ignore"):
        for kernel, args, shape in (
            (lap_values, (a, h), a.shape),
            (grad_values, (a, h), (a.shape[0] + 1,) + a.shape[1:]),
            (cross_values, (a, b), a.shape),
            (dot_values, (a, b), a.shape[:1] + a.shape[2:]),
        ):
            out = _in_layout(np.zeros(shape), layout_out)
            assert kernel(*args, out=out) is out
            _assert_same_bits_but_nan_signs(out, kernel(*args), kernel.__name__)
        # the public solve never writes into its input; the in-place one gives its bits
        before = a.tobytes()
        solved = helm_values(a, h, c)
        assert a.tobytes() == before
        assert helm_values(a, h, c, out=a) is a
        assert a.tobytes() == solved.tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "solver", "strided"])
def test_grad_values_matches_a_diff_reference_at_every_size_and_layout(layout, rng):
    # the last edge is the negated last node: np.negative got it wrong at
    # 8 nodes in the Fortran and solver layouts (numpy 2.4)
    for n in range(3, 71):
        h = 1.0 / (n + 1)
        for width in (1, 2, 5):
            v = rng.normal(size=(n, 3, width))
            ghost = np.zeros((1, 3, width))
            expected = (np.diff(np.concatenate([ghost, v, ghost]), axis=0) / h).tobytes()
            a = _in_layout(v, layout)
            assert grad_values(a, h).tobytes() == expected, (n, width)
            if width == 1:
                assert grad_values(a[..., 0], h).tobytes() == expected, (n, "field")
            for out_layout in ("C", "F", "solver", "strided"):
                out = _in_layout(np.zeros((n + 1, 3, width)), out_layout)
                grad_values(a, h, out=out)
                assert out.tobytes() == expected, (n, width, out_layout)


# --- the flat Laplacian -------------------------------------------------------------

def _row_lap(v, h):
    """The row form of ``lap_values``, one call per node-shifted slice; test oracle only."""
    out = np.empty_like(v)
    np.multiply(2.0, v, out=out)
    np.subtract(v[1:], out[:-1], out=out[:-1])
    out[1:-1] += v[:-2]
    np.subtract(v[-2], out[-1], out=out[-1])
    out *= 1.0 / (h * h)
    return out


def _row_grad(v, h):
    """The row form of ``grad_values``; test oracle only."""
    out = np.empty_like(v, shape=(v.shape[0] + 1,) + v.shape[1:])
    np.copyto(out[0], v[0])
    np.subtract(v[1:], v[:-1], out=out[1:-1])
    np.multiply(-1.0, v[-1], out=out[-1])
    out /= h
    return out


def _stack(layout, n, width, steps):
    """An uninitialized (n, 3, width) stack, (n, 3, width, steps) for a block, in ``layout``."""
    if layout == "block":
        return solver_empty((n, 3, width, steps))
    if layout == "moveaxis":
        # a C-ordered snapshot stack (S, n, 3) seen node-major
        return np.moveaxis(np.empty((width, n, 3)), 0, -1)
    if layout == "sliced":
        return solver_empty((n, 3, 2 * width))[..., ::2]
    if layout == "reversed":
        return solver_empty((n, 3, width))[::-1]
    if layout == "step":
        # a step's state seen as a one-step block: a zero stride on its last axis
        return solver_empty((n, 3, width))[..., None]
    return solver_empty((n, 3, width))


STACK_LAYOUTS = ["solver", "block", "moveaxis", "sliced", "reversed", "step"]


@st.composite
def _stencil_stacks(draw):
    n = draw(st.sampled_from([3, 4, 5, 6, 7, 8, 9, 127]))
    v = _stack(draw(st.sampled_from(STACK_LAYOUTS)), n, draw(st.integers(1, 70)),
               draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=v.shape)
    special = rng.random(v.shape) < draw(st.sampled_from([0.0, 0.01, 0.3]))
    values[special] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], size=special.sum())
    v[...] = values
    return v, draw(st.sampled_from(["allocate", "like", "C"])), draw(st.floats(1e-3, 0.5))


@settings(max_examples=200, deadline=None)
@given(_stencil_stacks())
def test_stencils_give_the_row_forms_bits_in_every_layout(case):
    # solver-order batches and blocks, moveaxis views of snapshot stacks,
    # sliced views and node-reversed ones, n = 3..9 and 127, 1..70 columns,
    # signed zeros, inf and nan: 8 nodes is where np.negative read the wrong
    # elements (numpy 2.4)
    v, out_kind, h = case
    with np.errstate(all="ignore"):
        for kernel, oracle, nodes in (
            (lap_values, _row_lap, len(v)), (grad_values, _row_grad, len(v) + 1)
        ):
            if out_kind == "allocate":
                got = kernel(v, h)
            else:
                shape = (nodes,) + v.shape[1:]
                out = np.empty_like(v, shape=shape) if out_kind == "like" else np.empty(shape)
                got = kernel(v, h, out=out)
                assert got is out
            _assert_same_bits_but_nan_signs(got, oracle(v, h), kernel.__name__)


@pytest.mark.parametrize(
    "layout, width, out_kind, flat",
    [
        ("solver", 1, "like", False),  # 3 rows: the width-1 march
        ("solver", 3, "like", False),
        ("solver", 4, "like", True),
        ("solver", 13, "like", True),
        ("block", 6, "like", True),
        ("moveaxis", 13, "like", True),
        ("moveaxis", 13, "allocate", True),
        ("sliced", 13, "same", False),  # not contiguous
        ("reversed", 13, "same", False),  # a negative node stride
        ("C", 13, "like", False),  # node by node: the row form is one pass already
        ("solver", 13, "C", False),  # out has other strides
        ("step", 65, "block", True),  # strides differ only on the length-1 axis
    ],
)
def test_lap_values_takes_the_flat_pass_for_wide_contiguous_stacks(
    monkeypatch, layout, width, out_kind, flat
):
    calls = []
    flat_pass = field._flat_pass
    monkeypatch.setattr(field, "_flat_pass", lambda *args: calls.append(1) or flat_pass(*args))
    v = np.empty((127, 3, width)) if layout == "C" else _stack(layout, 127, width, 10)
    v[...] = np.random.default_rng(width).normal(size=v.shape)
    outs = {
        "allocate": None, "like": np.empty_like(v), "C": np.empty(v.shape),
        "block": solver_empty(v.shape),
    }
    # "same": another stack of the layout, with v's strides
    out = outs[out_kind] if out_kind in outs else _stack(layout, 127, width, 10)
    got = lap_values(v, 0.01, out=out)
    assert bool(calls) == flat
    assert got.tobytes() == _row_lap(v, 0.01).tobytes()


def _warnings_of(fn, *args):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, {(w.category, str(w.message)) for w in seen}


def test_flat_laplacian_raises_no_warning_the_row_form_does_not():
    # outside any np.errstate: one row ends in 5e307 beside the next row's
    # -8e307, so the flat pass's sums across the two overflow while every sum
    # of the row form stays finite (h = 1: nothing is scaled)
    v = solver_empty((5, 3, 6))
    v[...] = 1.0
    v[-1, 0, 0], v[0, 0, 1] = 5e307, -8e307
    lap, seen = _warnings_of(lap_values, v, 1.0)
    expected, expected_seen = _warnings_of(_row_lap, v, 1.0)
    assert seen == expected_seen == set()
    assert np.isfinite(lap).all()
    assert lap.tobytes() == expected.tobytes()
    # an overflow inside a row warns as in the row form, at the same entries
    v[2, 1, 3], v[3, 1, 3] = 8e307, -8e307
    lap, seen = _warnings_of(lap_values, v, 1.0)
    expected, expected_seen = _warnings_of(_row_lap, v, 1.0)
    assert seen == expected_seen != set()
    assert np.array_equal(np.isinf(lap), np.isinf(expected)) and np.isinf(lap).any()
    _assert_same_bits_but_nan_signs(lap, expected, "lap_values")


# --- CSV rows -----------------------------------------------------------------------

def _repr_rows(lead, values):
    """The oracle: every row joined from ``repr`` of its ints and floats, CRLF ends."""
    return "".join(
        ",".join(map(repr, ints + floats)) + "\r\n"
        for ints, floats in zip(lead.tolist(), values.tolist())
    ).encode()


@st.composite
def _csv_tables(draw):
    rows = draw(st.integers(0, 8))
    lead = draw(arrays(np.int64, (rows, draw(st.integers(0, 3)))))
    values = draw(arrays(np.float64, (rows, draw(st.integers(1, 4))), elements=EDGE_FLOATS))
    return lead, values


@settings(max_examples=300, deadline=None)
@given(_csv_tables())
def test_csv_rows_spell_every_float_as_repr(table):
    # nan, +-inf, +-0.0, subnormals, huge values and every int64
    lead, values = table
    assert csv_rows(lead, values) == _repr_rows(lead, values)


BOUNDARY_FLOATS = [
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e-5, np.nextafter(1e-5, 0.0),
    1e16, np.nextafter(1e16, 0.0), 5e-324, np.finfo(float).max, np.finfo(float).tiny,
    0.0, -0.0, math.inf, -math.inf, math.nan,
    # the edges of the ranges csv_rows fixes up from orjson's spelling
    1e-9, np.nextafter(1e-9, 0.0), 1e-10, 2e-5, -1.5e-5, 1.2345678901234568e-05, 1e22, 1e-100,
]


@pytest.mark.parametrize("value", BOUNDARY_FLOATS, ids=repr)
def test_csv_rows_spell_the_boundaries_of_the_plain_range_as_repr(value):
    values = np.array([[value, -value, 1.5]])
    lead = np.array([[7, -3]])
    assert csv_rows(lead, values) == _repr_rows(lead, values)


# magnitudes drawn log-uniformly over [1e-12, 1e-3) and [1e15, 1e20), of both
# signs: st.floats() seldom lands in the ranges orjson spells another way
LOG_UNIFORM_FLOATS = st.builds(
    lambda sign, exponent: sign * 10.0 ** exponent,
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.floats(-12.0, -3.0, exclude_max=True), st.floats(15.0, 20.0, exclude_max=True)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda width: arrays(np.float64, (16, width), elements=LOG_UNIFORM_FLOATS)
))
def test_csv_rows_spell_small_and_huge_floats_as_repr(values):
    lead = np.arange(len(values))[:, None]
    assert csv_rows(lead, values) == _repr_rows(lead, values)
