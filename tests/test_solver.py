import math

import numpy as np
import pytest

from ctrlstop.benches import load_bench
from ctrlstop.grid import Grid, GridField, build_operator
from ctrlstop.kernel import Penalty, truncate_data
from ctrlstop.model import parse_config_text
from ctrlstop.solver import (
    SolverError,
    continuation,
    default_schedule,
    gamma_step,
    solve_penalized,
    vi_report,
)

HEAT = """
dim = 1
horizon = 1.0
rate = 0
drift[1] = 0
sigma[1][1] = sqrt(2)
f = 10
g = 1
h = 0
"""


class ManufacturedData:
    """Linear-problem data with exact solution e^{-t} cos(x) on [-1, 1]."""

    def __init__(self):
        self.spec = parse_config_text(HEAT)[0]
        self.m = 1.0
        self.time_independent = False

    def g_m(self, t, x):
        return np.exp(-t) * np.cos(np.asarray(x)[0])

    def h_m(self, t, x):
        return 2 * np.exp(-t) * np.cos(np.asarray(x)[0])

    def f_m_sq(self, t, x):
        return np.full(np.asarray(x).shape[1:], 100.0)


def exact_heat(grid):
    pts = grid.points()
    return np.array([np.exp(-t) * np.cos(pts[0]) for t in grid.times])


class TestGammaStep:
    def test_zero_data_exact_zero(self):
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        data = truncate_data(bench.spec, grid.m)
        frozen = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
        w = gamma_step(grid, data, Penalty(0.5), 0.5, frozen)
        assert np.max(np.abs(w.values)) == 0.0

    def test_const1_interior_residual_vanishes(self):
        # plugging the constant field into the discrete equations on the
        # cutoff-inert region leaves a zero source and zero residual
        bench = load_bench("const1", coarse=True)
        grid = Grid(d=1, m=4.0, nx=81, nt=20, T=bench.spec.T)
        data = truncate_data(bench.spec, 4.0)
        op = build_operator(grid, bench.spec)
        ones = np.ones(grid.n_nodes)
        pts = grid.points()
        core = (np.abs(pts[0]) <= 2.9) & ~op.dirichlet
        pen = Penalty(0.5)
        g0, h0, f20 = ones, np.zeros_like(ones), data.f_m_sq(0.0, pts)
        # discrete residual of w == 1: dw/dt + (L-r)w + h + pen-terms
        res = op.apply_generator(ones) + h0 + np.maximum(g0 - ones, 0) / 0.5 - pen.value(
            np.zeros_like(ones) - f20
        )
        assert np.max(np.abs(res[core])) < 1e-13

    def test_manufactured_solution_convergence_order(self):
        data = ManufacturedData()
        errs = []
        hxs = []
        for nx, nt in ((26, 25), (51, 100), (101, 400)):
            grid = Grid(d=1, m=1.0, nx=nx, nt=nt, T=1.0)
            exact = exact_heat(grid)
            frozen = GridField(grid=grid, values=exact.copy())
            w = gamma_step(grid, data, Penalty(0.5), 1.0, frozen)
            errs.append(float(np.max(np.abs(w.values - exact))))
            hxs.append(grid.hx)
        orders = [
            math.log(errs[i] / errs[i + 1]) / math.log(hxs[i] / hxs[i + 1])
            for i in range(len(errs) - 1)
        ]
        assert min(orders) >= 1.8

    def test_grid_mismatch_rejected(self):
        bench = load_bench("allzero", coarse=True)
        other = Grid(d=1, m=bench.grid.m, nx=bench.grid.nx + 2, nt=bench.grid.nt, T=bench.spec.T)
        data = truncate_data(bench.spec, bench.grid.m)
        frozen = GridField(grid=other, values=np.zeros((other.nt + 1, other.n_nodes)))
        with pytest.raises(ValueError):
            gamma_step(bench.grid, data, Penalty(0.5), 0.5, frozen)


class TestSolvePenalized:
    def test_zero_data_single_pass(self):
        bench = load_bench("allzero", coarse=True)
        data = truncate_data(bench.spec, bench.grid.m)
        point = solve_penalized(bench.grid, data, Penalty(0.5), 0.5, tol=1e-9)
        assert point.iters == 1
        assert np.max(np.abs(point.field.values)) == 0.0
        assert point.bounds_ok()

    def test_const1_interior_value(self):
        bench = load_bench("const1", coarse=True)
        grid = Grid(d=1, m=6.0, nx=241, nt=150, T=bench.spec.T)
        data = truncate_data(bench.spec, 6.0)
        res = continuation(
            bench.spec, default_schedule(5, m=6.0), lambda m: grid, tol=1e-7
        )
        pts = grid.points()[0]
        inner = np.abs(pts) <= 5.0
        err = np.max(np.abs(res.limit.values[:, inner] - 1.0))
        assert err < 5e-3

    def test_policy_and_picard_agree(self):
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=121, nt=100, T=bench.spec.T)
        data = truncate_data(bench.spec, 6.0)
        a = solve_penalized(grid, data, Penalty(0.5), 0.5, tol=1e-9, method="policy")
        b = solve_penalized(grid, data, Penalty(0.5), 0.5, tol=1e-9, method="picard")
        assert np.max(np.abs(a.field.values - b.field.values)) < 1e-7

    def test_obstacle_penalty_bound(self):
        bench = load_bench("bench_ou", coarse=True)
        data = truncate_data(bench.spec, bench.grid.m)
        for k in (1, 3):
            eps = 0.5 ** k
            point = solve_penalized(bench.grid, data, Penalty(eps), eps, tol=1e-8)
            bound, observed = point.bound_report["obstacle_penalty"]
            assert observed <= bound

    def test_running_reward_monotonicity(self):
        # raising h pointwise cannot lower the value anywhere
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=121, nt=80, T=bench.spec.T)
        lifted_cfg = """
dim = 1
horizon = 0.5
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = 0.3
g = 0.6 * max(0, 1 - (x1/4.5)^2)^3
h = 0.2 + 1.5 * max(0, 1 - ((x1-1.5)/0.6)^2)^3 + 1.5 * max(0, 1 - ((x1+1.5)/0.6)^2)^3
"""
        spec_hi = parse_config_text(lifted_cfg)[0]
        lo = solve_penalized(
            grid, truncate_data(bench.spec, 6.0), Penalty(0.25), 0.25, tol=1e-8
        )
        hi = solve_penalized(grid, truncate_data(spec_hi, 6.0), Penalty(0.25), 0.25, tol=1e-8)
        assert np.min(hi.field.values - lo.field.values) > -1e-6

    def test_divergent_picard_reports(self):
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=121, nt=100, T=bench.spec.T)
        data = truncate_data(bench.spec, 6.0)
        with pytest.raises(SolverError):
            solve_penalized(
                grid, data, Penalty(0.01), 0.01, tol=1e-10, method="picard", max_iter=8
            )


class TestContinuation:
    def test_march_counts_add_up(self):
        bench = load_bench("bench_ou", coarse=True)
        res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=1e-7)
        for point in res.points:
            work = point.march
            assert point.iters == 1  # certified at the first attempt
            assert work.levels == bench.grid.nt
            assert work.newton_iters >= work.levels  # one linear solve at least per level
            assert work.line_search_trials <= 9 * work.newton_iters

    def test_single_point_reproduces_solve(self):
        bench = load_bench("bench_ou", coarse=True)
        data = truncate_data(bench.spec, bench.grid.m)
        single = solve_penalized(bench.grid, data, Penalty(0.25), 0.25, tol=1e-8)
        res = continuation(
            bench.spec,
            [(0.25, 0.25, bench.grid.m)],
            bench.grid_policy,
            tol=1e-8,
        )
        np.testing.assert_array_equal(res.limit.values, single.field.values)
        assert res.increments == []

    def test_zero_data_increments_vanish(self):
        bench = load_bench("allzero", coarse=True)
        res = continuation(
            bench.spec, default_schedule(3, m=bench.grid.m), bench.grid_policy, tol=1e-9
        )
        assert all(inc == 0.0 for inc in res.increments)

    def test_schedule_monotonicity_enforced(self):
        bench = load_bench("allzero", coarse=True)
        m = bench.grid.m
        with pytest.raises(ValueError, match="nonincreasing"):
            continuation(bench.spec, [(0.25, 0.25, m), (0.5, 0.5, m)], bench.grid_policy)

    def test_growing_radius_restricts_limit_to_innermost_box(self):
        bench = load_bench("allzero", coarse=True)
        grids = {
            4.0: Grid(d=1, m=4.0, nx=81, nt=50, T=bench.spec.T),
            5.0: Grid(d=1, m=5.0, nx=101, nt=50, T=bench.spec.T),
        }
        res = continuation(
            bench.spec,
            [(0.5, 0.5, 4.0), (0.25, 0.25, 5.0)],
            lambda m: grids[m],
            tol=1e-9,
        )
        assert res.limit.grid.m == 4.0
        assert np.max(np.abs(res.limit.values)) == 0.0
        assert res.increments == [0.0]

    def test_quadratic_growth_calibration_propagates(self):
        bench = load_bench("bench_ou", coarse=True)
        res = continuation(
            bench.spec, default_schedule(3, m=bench.grid.m), bench.grid_policy, tol=1e-8
        )
        k3 = res.points[0].bound_report["quad_growth"][1]
        for point in res.points[1:]:
            bound, observed = point.bound_report["quad_growth"]
            assert bound == pytest.approx(k3, rel=1e-6)
            assert observed <= bound


class TestVIReport:
    def test_zero_data_report(self):
        bench = load_bench("allzero", coarse=True)
        res = continuation(
            bench.spec, default_schedule(2, m=bench.grid.m), bench.grid_policy, tol=1e-9
        )
        report = vi_report(res.limit, bench.spec, tol_region=0.1)
        assert report.sup_minmax == 0.0
        assert report.sup_maxmin == 0.0
        assert not report.region_C.any()  # never strictly above a zero obstacle
        interior_rows = report.interior_mask.sum() * (bench.grid.nt + 1)
        assert report.region_I.sum() == interior_rows  # f=1 slack everywhere
        assert report.terminal_error == 0.0
        assert report.max_constraint_violation == (0.0, 0.0)

    def test_terminal_slice_matches_data(self):
        bench = load_bench("bench_ou", coarse=True)
        res = continuation(
            bench.spec, default_schedule(3, m=bench.grid.m), bench.grid_policy, tol=1e-8
        )
        report = vi_report(res.limit, bench.spec)
        assert report.terminal_error == 0.0  # compactly supported data: g_m = g

    def test_branch_overlap_shrinks_with_tolerance(self):
        # the stopping and action contact sets are disjoint: nodes within
        # tol of both exist only for fat tolerances and empty out as tol -> 0
        bench = load_bench("bench_ou", coarse=True)
        res = continuation(
            bench.spec, default_schedule(4, m=bench.grid.m), bench.grid_policy, tol=1e-8
        )
        counts = [
            vi_report(res.limit, bench.spec, tol_region=tol).overlap_count
            for tol in (0.04, 0.02, 0.01)
        ]
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[2] == 0


class TestTwoDimensional:
    CFG = """
dim = 2
horizon = 0.2
rate = 0.1
drift[1] = -x1
drift[2] = -x2
sigma[1][1] = 1
sigma[1][2] = 0
sigma[2][1] = 0
sigma[2][2] = 1
f = 1.5
g = 0.5 * max(0, 1 - (x1^2 + x2^2) / 4)^3
h = 0
"""

    def test_mask_and_solve(self):
        spec, _, _ = parse_config_text(self.CFG)
        grid = Grid(d=2, m=3.0, nx=31, nt=30, T=0.2)
        data = truncate_data(spec, 3.0, sup_samples=61)
        point = solve_penalized(grid, data, Penalty(0.25), 0.25, tol=1e-7)
        assert point.bounds_ok()
        # masked nodes outside the ball carry the (vanishing) boundary data
        pts = grid.points()
        outside = np.sum(pts**2, axis=0) >= 9.0
        assert np.max(np.abs(point.field.values[:, outside])) < 1e-12
        # value respects the obstacle up to the penalty dip
        g0 = np.asarray(spec.g(0.0, pts), dtype=float)
        k2 = point.bound_report["obstacle_penalty"][0]
        assert np.max(g0 - point.field.values[0]) <= 0.25 * k2 + 1e-6

    def test_zero_data_2d(self):
        spec, _, _ = parse_config_text(self.CFG.replace("g = 0.5", "g = 0 * 0.5"))
        grid = Grid(d=2, m=3.0, nx=25, nt=20, T=0.2)
        data = truncate_data(spec, 3.0, sup_samples=41)
        point = solve_penalized(grid, data, Penalty(0.5), 0.5, tol=1e-9)
        assert np.max(np.abs(point.field.values)) == 0.0
