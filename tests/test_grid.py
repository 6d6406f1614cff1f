import numpy as np
import pytest
from scipy.linalg import solve_banded

from ctrlstop.benches import load_bench
from ctrlstop.grid import PECLET_SWITCH, Grid, GridField, build_operator, centered_gradient
from ctrlstop.model import parse_config_text

# strong drift (cell Peclet number above the switch on part of the grid) and
# correlated noise (a12 = 0.27), so every stencil branch enters the system
SKEWED_2D = """
dim = 2
horizon = 0.2
rate = 0.1
drift[1] = -3 * x1 + x2
drift[2] = -4 * x2
sigma[1][1] = 0.6
sigma[1][2] = 0.3
sigma[2][1] = 0.2
sigma[2][2] = 0.5
f = 1.5
g = 0.5 * max(0, 1 - (x1^2 + x2^2) / 4)^3
h = 0
"""


def _operator(case):
    if case == "bench_ou":
        bench = load_bench("bench_ou", coarse=True)
        op = build_operator(bench.grid, bench.spec)
    else:
        spec, _, _ = parse_config_text(SKEWED_2D)
        grid = Grid(d=2, m=3.0, nx=31, nt=30, T=0.2)
        op = build_operator(grid, spec)
        # interior cell Peclet numbers |b_i| hx / a_ii on both sides of the
        # switch, so both the centered and the upwind branch are exercised
        pts = grid.points()[:, ~op.dirichlet]
        a_diag = np.diagonal(spec.a_matrix(pts)).T
        peclet = np.abs(spec.drift(pts)) * grid.hx / a_diag
        assert np.any(peclet <= PECLET_SWITCH) and np.any(peclet > PECLET_SWITCH)
        assert spec.a_matrix(np.zeros(2))[0, 1] != 0.0
    return op


@pytest.mark.parametrize("case", ["bench_ou", "skewed_2d"])
def test_level_system_is_the_generator_stencil(case):
    """w = level_solver(e, dg)(rhs) solves w/ht - (L - r) w + dg w - <e, grad w> = rhs
    on interior rows, with L - r and grad the operator's own stencils."""
    op = _operator(case)
    grid = op.grid
    n = grid.n_nodes
    rng = np.random.default_rng(5)
    extra_drift = rng.normal(size=(grid.d, n))
    extra_diag = rng.uniform(0.0, 5.0, size=n)
    rhs = rng.normal(size=n)
    w = op.level_solver(extra_drift, extra_diag)(rhs)

    interior = ~op.dirichlet
    lhs = (
        w / grid.ht
        - op.apply_generator(w)
        + extra_diag * w
        - np.sum(extra_drift * centered_gradient(grid, w), axis=0)
    )
    scale = np.max(np.abs(w)) / grid.ht
    assert np.max(np.abs(lhs - rhs)[interior]) <= 1e-10 * scale
    assert np.allclose(w[op.dirichlet], rhs[op.dirichlet], rtol=1e-10, atol=0.0)

    plain = op.level_solver(None, None)(rhs)
    implicit = op.implicit_solve(rhs)
    assert np.max(np.abs(plain - implicit)) <= 1e-10 * np.max(np.abs(implicit))



@pytest.mark.parametrize(
    "grid",
    [Grid(d=1, m=6.0, nx=601, nt=1, T=1.0), Grid(d=2, m=3.0, nx=31, nt=1, T=1.0)],
    ids=["1d", "2d"],
)
def test_centered_gradient_is_np_gradient(grid):
    """The sliced gradient keeps np.gradient's formulas bit for bit."""
    u = np.random.default_rng(7).normal(size=grid.n_nodes) * 10.0
    ref = np.gradient(u.reshape(grid.shape), grid.hx)
    ref = ref[None, :] if grid.d == 1 else np.stack(ref, axis=0).reshape(grid.d, -1)
    np.testing.assert_array_equal(centered_gradient(grid, u), ref)


def test_level_solver_gtsv_is_solve_banded():
    """The 1-D closure calls gtsv directly; solve_banded((1, 1)) on the same
    bands is the reference, bit for bit, and the closure keeps its inputs."""
    op = _operator("bench_ou")
    n = op.grid.n_nodes
    interior = ~op.dirichlet
    M0 = op.implicit_matrix
    rng = np.random.default_rng(11)
    for _ in range(5):
        extra_drift = rng.normal(size=(1, n)) * 5.0
        extra_diag = rng.uniform(0.0, 50.0, size=n)
        rhs = rng.normal(size=n)
        ab = np.zeros((3, n))
        ab[0, 1:] = M0.diagonal(1)
        ab[1] = M0.diagonal() + np.where(interior, extra_diag, 0.0)
        ab[2, :-1] = M0.diagonal(-1)
        half = np.where(interior, extra_drift[0] / (2.0 * op.grid.hx), 0.0)
        ab[0, 1:] -= half[:-1]
        ab[2, :-1] += half[1:]
        ref = solve_banded((1, 1), ab, rhs)
        kept = rhs.copy()
        solve = op.level_solver(extra_drift, extra_diag)
        np.testing.assert_array_equal(solve(rhs), ref)
        np.testing.assert_array_equal(solve(rhs), ref)
        np.testing.assert_array_equal(rhs, kept)


def _reference_sample(grid, table, t, x):
    """Interpolation of a nodal table (nt+1, n_nodes) at (t, x) as sample and
    sample_gradient computed it before the sampling plan: per level and per
    table, from the time clip and the linspace axis."""
    tt = np.clip(t, 0.0, grid.T)
    pos_t = tt / grid.ht
    k = int(min(np.floor(pos_t), grid.nt - 1))
    w = pos_t - k

    def space(flat):
        pos = np.clip((x - grid.axis[0]) / grid.hx, 0.0, grid.nx - 1 - 1e-12)
        i0 = pos.astype(int)
        frac = pos - i0
        if grid.d == 1:
            return (1 - frac[0]) * flat[i0[0]] + frac[0] * flat[i0[0] + 1]
        v = flat.reshape(grid.shape)
        fx, fy = frac[0], frac[1]
        ix, iy = i0[0], i0[1]
        return (
            (1 - fx) * (1 - fy) * v[ix, iy]
            + fx * (1 - fy) * v[ix + 1, iy]
            + (1 - fx) * fy * v[ix, iy + 1]
            + fx * fy * v[ix + 1, iy + 1]
        )

    return (1.0 - w) * space(table[k]) + w * space(table[k + 1])


@pytest.mark.parametrize("case", ["bench_ou", "2d"])
def test_sampling_plan_is_the_old_interpolation(case):
    """sample and sample_gradient equal the per-table formula bit for bit:
    inside the box, clamped outside it, on the first and last node, and at
    times 0, T, beyond T, before 0, on a level and between levels."""
    if case == "bench_ou":
        grid = load_bench("bench_ou", coarse=True).grid
    else:
        grid = Grid(d=2, m=3.0, nx=31, nt=30, T=0.2)
    rng = np.random.default_rng(3)
    field = GridField(grid=grid, values=rng.normal(size=(grid.nt + 1, grid.n_nodes)))
    m = grid.m
    x = rng.uniform(-1.2 * m, 1.2 * m, size=(grid.d, 200))
    x[:, :4] = [m, -m, 1.5 * m, m * (1 - 1e-15)]
    times = [0.0, grid.T, grid.T + 0.1, -0.05, 7 * grid.ht, 0.37 * grid.T]
    for t in times:
        assert np.array_equal(field.sample(t, x), _reference_sample(grid, field.values, t, x))
        grads = [
            np.stack([centered_gradient(grid, v)[i] for v in field.values])
            for i in range(grid.d)
        ]
        got = field.sample_gradient(t, x)
        want = np.stack([_reference_sample(grid, g, t, x) for g in grads])
        assert got.shape == (grid.d, x.shape[1]) and np.array_equal(got, want)
    one = x[:, 5]  # a single point of shape (d,)
    assert field.sample(0.1, one) == _reference_sample(grid, field.values, 0.1, one)


def test_field_values_are_read_only():
    grid = Grid(d=1, m=2.0, nx=11, nt=4, T=1.0)
    field = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
    with pytest.raises(ValueError, match="read-only"):
        field.values[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        field.nodal_gradient(0)[0, 0] = 1.0
