import numpy as np
import pytest

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

