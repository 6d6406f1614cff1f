import numpy as np
import pytest
from scipy.linalg import solve_banded

from ctrlstop.benches import load_bench
from ctrlstop.grid import Grid, build_operator, centered_gradient
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
        op = build_operator(Grid(d=2, m=3.0, nx=31, nt=30, T=0.2), spec)
        assert op.upwind_fraction > 0.0
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
