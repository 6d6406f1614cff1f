import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ctrlstop import solver
from ctrlstop.benches import load_bench
from ctrlstop.grid import Grid, GridField, Operator, build_operator
from ctrlstop.kernel import Penalty, TruncatedData, truncate_data
from ctrlstop.model import parse_config_text
from ctrlstop.solver import (
    SolverError,
    TruncatedProblem,
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


class CorrelatedManufacturedData:
    """Linear 2-D data with correlated noise, a = [[1, rho], [rho, 1]], and
    exact solution e^{-t} cos(x1) cos(x2) on the unit ball; the running
    reward h = 2u - rho e^{-t} sin(x1) sin(x2) balances u_t + L u."""

    RHO = 0.5

    def __init__(self):
        self.spec = parse_config_text(f"""
dim = 2
horizon = 1.0
rate = 0
drift[1] = 0
drift[2] = 0
sigma[1][1] = 1
sigma[1][2] = 0
sigma[2][1] = {self.RHO!r}
sigma[2][2] = {math.sqrt(1.0 - self.RHO**2)!r}
f = 10
g = 1
h = 0
""")[0]
        self.m = 1.0
        self.time_independent = False

    def g_m(self, t, x):
        x = np.asarray(x)
        return np.exp(-t) * np.cos(x[0]) * np.cos(x[1])

    def h_m(self, t, x):
        x = np.asarray(x)
        return 2.0 * self.g_m(t, x) - self.RHO * np.exp(-t) * np.sin(x[0]) * np.sin(x[1])

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
        w = gamma_step(TruncatedProblem(grid, data), Penalty(0.5), 0.5, frozen)
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
            w = gamma_step(TruncatedProblem(grid, data), Penalty(0.5), 1.0, frozen)
            errs.append(float(np.max(np.abs(w.values - exact))))
            hxs.append(grid.hx)
        orders = [
            math.log(errs[i] / errs[i + 1]) / math.log(hxs[i] / hxs[i + 1])
            for i in range(len(errs) - 1)
        ]
        assert min(orders) >= 1.8

    def test_correlated_manufactured_solution_convergence_order(self):
        """The seven-point cross term keeps the sweep second order in space
        in 2-D with correlated noise."""
        data = CorrelatedManufacturedData()
        errs, hxs = [], []
        for nx, nt in ((13, 9), (25, 36), (49, 144)):
            grid = Grid(d=2, m=1.0, nx=nx, nt=nt, T=1.0)
            exact = np.array([data.g_m(t, grid.points()) for t in grid.times])
            frozen = GridField(grid=grid, values=exact.copy())
            w = gamma_step(TruncatedProblem(grid, data), Penalty(0.5), 1.0, frozen)
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
            gamma_step(TruncatedProblem(bench.grid, data), Penalty(0.5), 0.5, frozen)
        with pytest.raises(ValueError):
            solve_penalized(TruncatedProblem(bench.grid, data), Penalty(0.5), 0.5, u0=frozen)

    @pytest.mark.parametrize("levels", [(2, 5), (2, 40)], ids=["near", "apart"])
    def test_a_non_finite_source_names_its_highest_bad_level(self, levels):
        """A frozen field that is NaN at one node of two low levels makes the
        source non-finite there; the backward sweep meets the higher one
        first and names it."""
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        values = np.zeros((grid.nt + 1, grid.n_nodes))
        values[list(levels), grid.n_nodes // 2] = np.nan
        problem = TruncatedProblem(grid, truncate_data(bench.spec, grid.m))
        with pytest.raises(SolverError, match=rf"^non-finite source at time level {levels[1]}$"):
            gamma_step(problem, Penalty(0.5), 0.5, GridField(grid=grid, values=values))

    @pytest.mark.parametrize("nth", [4, 40])
    def test_a_non_finite_solve_names_its_level(self, nth, monkeypatch):
        """The nth backward solve, that of level nt - nth, returns NaN at one
        node; the sweep names that level."""
        real, calls = Operator.implicit_solve, []

        def poisoned(self, rhs):
            sol = real(self, rhs)
            calls.append(1)
            if len(calls) == nth:
                sol[sol.size // 2] = np.nan
            return sol

        monkeypatch.setattr(Operator, "implicit_solve", poisoned)
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        frozen = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
        problem = TruncatedProblem(grid, truncate_data(bench.spec, grid.m))
        with pytest.raises(
            SolverError, match=rf"^linear solve produced non-finite values at level {grid.nt - nth}$"
        ):
            gamma_step(problem, Penalty(0.5), 0.5, frozen)
        assert len(calls) == nth


class TestSolvePenalized:
    def test_zero_data_single_pass(self):
        bench = load_bench("allzero", coarse=True)
        data = truncate_data(bench.spec, bench.grid.m)
        point = solve_penalized(TruncatedProblem(bench.grid, data), Penalty(0.5), 0.5, tol=1e-9)
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

    def test_obstacle_penalty_bound(self):
        bench = load_bench("bench_ou", coarse=True)
        data = truncate_data(bench.spec, bench.grid.m)
        for k in (1, 3):
            eps = 0.5 ** k
            point = solve_penalized(TruncatedProblem(bench.grid, data), Penalty(eps), eps, tol=1e-8)
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
            TruncatedProblem(grid, truncate_data(bench.spec, 6.0)), Penalty(0.25), 0.25, tol=1e-8
        )
        hi = solve_penalized(
            TruncatedProblem(grid, truncate_data(spec_hi, 6.0)), Penalty(0.25), 0.25, tol=1e-8
        )
        assert np.min(hi.field.values - lo.field.values) > -1e-6


class TestContinuation:
    def test_march_counts_add_up(self):
        bench = load_bench("bench_ou", coarse=True)
        res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=1e-7)
        for point in res.points:
            work = point.march
            assert point.iters == 1  # certified at the first attempt
            assert work.levels == bench.grid.nt
            assert work.newton_iters >= work.levels  # no level's start passes the stop rule here
            assert work.line_search_trials <= 9 * work.newton_iters

    def test_single_point_reproduces_solve(self):
        bench = load_bench("bench_ou", coarse=True)
        data = truncate_data(bench.spec, bench.grid.m)
        single = solve_penalized(TruncatedProblem(bench.grid, data), Penalty(0.25), 0.25, tol=1e-8)
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

    def test_operator_must_share_the_field_grid(self):
        """vi_report reads |grad u|^2 through the operator, so an operator of
        another grid is refused; the field's own operator gives the report
        of the default one."""
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        field = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
        other = Grid(d=grid.d, m=grid.m, nx=grid.nx + 2, nt=grid.nt, T=grid.T)
        with pytest.raises(ValueError, match="different grid"):
            vi_report(field, bench.spec, operator=build_operator(other, bench.spec))
        own = vi_report(field, bench.spec, operator=build_operator(grid, bench.spec))
        assert own.sup_minmax == vi_report(field, bench.spec).sup_minmax

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
        data = truncate_data(spec, 3.0)
        point = solve_penalized(TruncatedProblem(grid, data), Penalty(0.25), 0.25, tol=1e-7)
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
        data = truncate_data(spec, 3.0)
        point = solve_penalized(TruncatedProblem(grid, data), Penalty(0.5), 0.5, tol=1e-9)
        assert np.max(np.abs(point.field.values)) == 0.0

    OU_IN_X1 = """
dim = 2
horizon = 0.2
rate = 0.05
drift[1] = -x1
drift[2] = -x2
sigma[1][1] = 1
sigma[1][2] = 0
sigma[2][1] = 0
sigma[2][2] = 1
f = 0.3
g = 0.6 * max(0, 1 - (x1/4.5)^2)^3
h = 1.5 * max(0, 1 - ((x1-1.5)/0.6)^2)^3 + 1.5 * max(0, 1 - ((x1+1.5)/0.6)^2)^3
"""

    def test_strong_drift_keeps_nonnegativity(self):
        # hx = 0.2 puts the cell Peclet number |x2| hx / a of the drift -x2 in
        # (1, 1.2) near the rim of the ball; differenced centrally there, the
        # off-diagonal 0.5 a / hx^2 - |b| / (2 hx) is negative and the solve
        # loses nonnegativity
        spec, _, _ = parse_config_text(self.OU_IN_X1)
        grid = Grid(d=2, m=6.0, nx=61, nt=50, T=0.2)
        data = truncate_data(spec, 6.0)
        tol = 1e-7
        point = solve_penalized(TruncatedProblem(grid, data), Penalty(1 / 16), 1 / 16, tol=tol)
        assert float(np.min(point.field.values)) >= -10.0 * tol
        assert point.bounds_ok()

    @staticmethod
    def correlated(rho, width):
        """Zero drift, unit variances with correlation rho, and a bump of the
        given width as the stopping payoff; f = 100 keeps the gradient
        penalty idle."""
        return f"""
dim = 2
horizon = 0.2
rate = 0.05
drift[1] = 0
drift[2] = 0
sigma[1][1] = 1
sigma[1][2] = 0
sigma[2][1] = {rho!r}
sigma[2][2] = {math.sqrt(1.0 - rho**2)!r}
f = 100
g = max(0, 1 - 2 * (x1^2 + x2^2) / {width!r}^2)^3
h = 0
"""

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("width", [1.0, 0.4])
    def test_correlated_noise_keeps_nonnegativity(self, rho, width):
        # with the centered four-corner cross term two corners of every
        # interior row of M0 were positive, and these solves lost
        # nonnegativity (min -1.1e-4 to -8.1e-3) with the gradient penalty idle
        spec, _, _ = parse_config_text(self.correlated(rho, width))
        grid = Grid(d=2, m=3.0, nx=61, nt=40, T=0.2)
        point = solve_penalized(TruncatedProblem(grid, truncate_data(spec, 3.0)), Penalty(1 / 16), 1 / 16)
        assert float(np.min(point.field.values)) >= -1e-15

    def test_correlated_noise_with_a_binding_gradient_penalty_solves(self):
        # the narrow rho = 0.9 bump of test_correlated_noise_keeps_nonnegativity
        # with f = 1, so that the gradient penalty binds on its flanks; the
        # centered control term stalled the Newton march at time level 38
        spec, _, _ = parse_config_text(self.correlated(0.9, 0.4).replace("f = 100", "f = 1"))
        grid = Grid(d=2, m=3.0, nx=61, nt=40, T=0.2)
        tol = 1e-7
        point = solve_penalized(TruncatedProblem(grid, truncate_data(spec, 3.0)), Penalty(1 / 16), 1 / 16, tol=tol)
        assert float(np.min(point.field.values)) >= -10.0 * tol


# Inputs that the centered control term got wrong (ROADMAP item 1): its
# control drift 2 psi' grad u has a cell number of about (2 / eps) f hx / a,
# and above about 2 the level systems lost their M-matrix signs.  Two inputs
# of a random sweep over OU-type data at eps = 2^-7 stalled the Newton march
# (at time levels 13 and 16); the growing data of GROWING_DATA lost
# nonnegativity on radius 10 (min -6.818e-03 at eps = 1/32).
SWEEP_STALL_1D = """
dim = 1
horizon = 0.3
rate = 0.05
drift[1] = -x1
sigma[1][1] = 0.52
f = 1.09
g = max(0, 1 - (x1/1.83)^2)^3
h = 2.4 * max(0, 1 - ((x1 + 1.03)/0.56)^2)^3
"""
SWEEP_STALL_2D = """
dim = 2
horizon = 0.3
rate = 0.05
drift[1] = -0.8538619125324377 * x1
drift[2] = -0.8538619125324377 * x2
sigma[1][1] = 0.3201384627893409
sigma[1][2] = 0
sigma[2][1] = 0.0
sigma[2][2] = 0.46078455815925484
f = 0.40403017785732254
g = 0.22060105728690937 * max(0, 1 - ((x1 - -0.21337857982735153)^2 + x2^2)/1.0920028719479042^2)^3
h = 2.018326668928687 * max(0, 1 - ((x1 - 0.35018383322100277)^2 + x2^2)/0.897493181709861^2)^3
"""
GROWING_DATA = """
dim = 1
horizon = 0.5
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = sqrt(0.09 + 0.05 * x1^2)
g = 0.1 * x1^2
h = 1.5 * max(0, 1 - ((x1-1.5)/0.6)^2)^3 + 1.5 * max(0, 1 - ((x1+1.5)/0.6)^2)^3
"""


class TestMonotoneControlTerm:
    """Inputs on which the centered control term stalled the Newton march or
    lost nonnegativity solve with the monotone one, with min u >= -10 tol."""

    TOL = 1e-7

    def _solve(self, cfg, grid, eps, delta):
        spec = parse_config_text(cfg)[0]
        point = solve_penalized(
            TruncatedProblem(grid, truncate_data(spec, grid.m)), Penalty(eps), delta, tol=self.TOL
        )
        assert float(np.min(point.field.values)) >= -10.0 * self.TOL
        return point

    @pytest.mark.parametrize("delta", [1 / 16, 1 / 64])
    def test_two_d_ou_at_a_small_eps_keeps_nonnegativity(self, delta):
        """OU_IN_X1 at eps = 1/64 lost nonnegativity (min -1.353e-01 at
        delta = 1/16 and -7.070e-02 at delta = 1/64)."""
        self._solve(TestTwoDimensional.OU_IN_X1, Grid(d=2, m=6.0, nx=61, nt=50, T=0.2), 1 / 64, delta)

    @pytest.mark.parametrize("case", ["1d", "2d"])
    def test_sweep_stalls_solve(self, case):
        """In 1-D the line search still backtracks (trials exceed Newton
        iterations), which no bench does."""
        if case == "1d":
            point = self._solve(SWEEP_STALL_1D, Grid(d=1, m=4.0, nx=161, nt=20, T=0.3), 2.0**-7, 0.25)
            assert point.march.line_search_trials > point.march.newton_iters
        else:
            point = self._solve(SWEEP_STALL_2D, Grid(d=2, m=4.0, nx=25, nt=50, T=0.3), 2.0**-7, 0.25)
        assert point.bounds_ok() and point.bound_report["gradient_penalty"][1] > 0.0

    def test_growing_data_solve_on_radius_ten(self):
        spec = parse_config_text(GROWING_DATA)[0]
        res = continuation(
            spec, default_schedule(7, m=10.0), lambda m: Grid(d=1, m=m, nx=501, nt=500, T=spec.T), tol=self.TOL
        )
        assert len(res.points) == 7 and all(point.bounds_ok() for point in res.points)
        assert float(np.min(res.limit.values)) >= -10.0 * self.TOL


@pytest.mark.parametrize("case", ["bench_ou", "bench_ou_purestop", "const1", "allzero", "two_d"])
def test_level_systems_are_m_matrices_on_every_stage(case, monkeypatch):
    """Every Newton level system of a coarse bench continuation, or of a 2-D
    OU_IN_X1 one, has no positive off-diagonal on an interior row (ROADMAP
    item 16's count is 0), and every interior row keeps a margin
    diag - sum |off| of at least 1/ht, up to roundoff: the hypotheses of the
    march's bound E."""
    if case == "two_d":
        grid = Grid(d=2, m=6.0, nx=31, nt=20, T=0.2)
        spec = parse_config_text(TestTwoDimensional.OU_IN_X1)[0]
        schedule, policy = default_schedule(4, m=6.0), lambda m: grid
    else:
        bench = load_bench(case, coarse=True)
        spec, schedule, policy = bench.spec, bench.schedule, bench.grid_policy
    real, seen = Operator.level_systems, {"systems": 0, "moving": 0, "positive": 0, "short": 0}

    def checked(op, slope, lin, extra_diag):
        systems = real(op, slope, lin, extra_diag)
        interior = ~op.dirichlet
        margin = np.array(systems[0])
        for o, stack in systems.items():
            if o == 0:
                continue
            rows = op._rows[o]
            seen["positive"] += int(np.count_nonzero(stack[:, interior[rows]] > 0.0))
            margin[:, rows] -= np.abs(stack)
        seen["short"] += int(np.count_nonzero(margin[:, interior] < (1.0 - 1e-9) / op.grid.ht))
        seen["systems"] += len(slope)
        seen["moving"] += int(np.count_nonzero(slope.any(axis=1)))
        return systems

    monkeypatch.setattr(Operator, "level_systems", checked)
    res = continuation(spec, schedule, policy, tol=1e-7)
    assert len(res.points) == len(schedule)
    assert seen["positive"] == seen["short"] == 0
    assert seen["systems"] > 0 or case == "allzero"
    assert (seen["moving"] > 0) == (case in ("bench_ou", "const1", "two_d"))


def _level_errors(problem, pen, delta, values):
    """ht max|F_k(u_k)| on interior nodes for k = nt-1 down to 0, with the
    level residual F_k of _level_residual evaluated level by level from the
    problem's operator and data stacks, in its order of operations."""
    op, ht = problem.op, problem.grid.ht
    g, h, f2 = problem.stacks
    errors = []
    for k in range(problem.grid.nt - 1, -1, -1):
        v = values[k : k + 1]
        res = v / ht
        res -= op.apply_generator(v)
        res -= values[k + 1 : k + 2] / ht
        res -= h[k]
        obstacle = np.maximum(g[k] - v, 0.0)
        obstacle *= 1.0 / delta
        res -= obstacle
        res += pen.value(op.control_term(v)[0] - f2[k])
        errors.append(ht * np.max(np.abs(res[:, problem.interior])))
    return errors


@pytest.mark.parametrize("name", ["bench_ou", "bench_ou_purestop", "const1"])
def test_every_stage_certifies_within_its_bound(name):
    """Each stage's E is sum_k ht max|F_k(u_k)| over its levels, summed from
    level nt-1 down, bit for bit; each level met the stop rule
    ht max|F_k| <= inner_tol / nt; and gamma_step's residual <= E <=
    inner_tol = 0.1 tol, so each stage certified at its first attempt."""
    bench = load_bench(name, coarse=True)
    tol = 1e-7
    res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=tol)
    problem = TruncatedProblem(bench.grid, truncate_data(bench.spec, bench.grid.m))
    for point in res.points:
        errors = _level_errors(problem, Penalty(point.eps), point.delta, point.field.values)
        total = 0.0
        for e in errors:
            total += e
        assert point.E == total
        assert max(errors) <= 0.1 * tol / bench.grid.nt
        assert point.iters == 1 and point.residual <= point.E <= 0.1 * tol


# bench_ou with a decaying stopping reward and a growing right running-reward
# hill: time-dependent g_m, h_m on every level
BENCH_OU_TIME_DEPENDENT = """
dim = 1
horizon = 0.5
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = 0.3
g = 0.6*(1 - 0.2*t)*max(0, 1 - (x1/4.5)^2)^3
h = (1 + t)*1.5*max(0, 1 - ((x1-1.5)/0.6)^2)^3
"""


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _stage_reports(case):
    """Every stage's field digest, certification residual, bound E, bound
    report and march counts, and the vi_report of the limit, in a comparable
    form."""
    if case in ("static", "purestop", "const1"):
        bench = load_bench({"static": "bench_ou", "purestop": "bench_ou_purestop"}.get(case, case), coarse=True)
        spec, schedule, policy = bench.spec, bench.schedule, bench.grid_policy
    else:
        spec = parse_config_text(BENCH_OU_TIME_DEPENDENT)[0]
        grid = Grid(d=1, m=6.0, nx=121, nt=50, T=spec.T)
        schedule, policy = default_schedule(3, m=6.0), lambda m: grid
    res = continuation(spec, schedule, policy, tol=1e-7)
    stages = [
        {
            "values": _sha(p.field.values),
            "residual": p.residual.hex(),
            "E": p.E.hex(),
            "march": (p.march.levels, p.march.newton_iters, p.march.line_search_trials),
            "bounds": {k: (b.hex(), o.hex()) for k, (b, o) in sorted(p.bound_report.items())},
        }
        for p in res.points
    ]
    rep = vi_report(res.limit, spec, tol_region=0.05)
    vi = {
        "regions": [_sha(rep.region_C), _sha(rep.region_I), _sha(rep.band)],
        "sups": [rep.sup_minmax.hex(), rep.sup_maxmin.hex(), rep.mutual_diff.hex()],
        "overlap": rep.overlap_count,
        "terminal_error": rep.terminal_error.hex(),
    }
    return {"stages": stages, "vi": vi}


# _stage_reports of every case: floats as float.hex, arrays as sha256 digests
STAGE_GOLDEN = {
    "static": {
        "stages": [
            {
                "values": "ea7fb551c8f8d881",
                "residual": "0x1.751fccb04e7cep-48",
                "E": "0x1.2efc7373e0167p-44",
                "march": (250, 489, 489),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.a54479ae7beabp-10"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.75ee83c092123p-49"),
                    "obstacle_penalty": ("0x1.e6dcad891c56cp-4", "0x1.6a1105e5e1a60p-5"),
                    "quad_growth": ("0x1.3333333333333p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.e32e86d235040p-4"),
                    "time_derivative_full": ("inf", "0x1.e32e86d235040p-4"),
                },
            },
            {
                "values": "a91dbfa7c1f43c35",
                "residual": "0x1.9355e00000000p-34",
                "E": "0x1.21460e29be830p-31",
                "march": (250, 250, 250),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.92862c341c1c5p-7"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.0babf6a9a111ep-49"),
                    "obstacle_penalty": ("0x1.e6dec668106d8p-4", "0x1.0f0ef91687e20p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.e1456b5f4e460p-4"),
                    "time_derivative_full": ("inf", "0x1.e1456b5f4e460p-4"),
                },
            },
            {
                "values": "2addffa3af6a0b6c",
                "residual": "0x1.73ccb00000000p-34",
                "E": "0x1.24ed78458462ep-33",
                "march": (250, 471, 471),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.6c7f8d5697b5dp-4"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.ec92a26d2ed82p-50"),
                    "obstacle_penalty": ("0x1.e6e2f825f89afp-4", "0x1.66f9be63edfc0p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.dd7eb7d066ae0p-4"),
                    "time_derivative_full": ("inf", "0x1.dd7eb7d066ae0p-4"),
                },
            },
            {
                "values": "ec945e6c78559988",
                "residual": "0x1.6833e00000000p-35",
                "E": "0x1.fae95d1430e4ep-35",
                "march": (250, 482, 482),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.95b161791c833p-2"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.a26f9b1c58098p-50"),
                    "obstacle_penalty": ("0x1.e6eb5ba1c8f5fp-4", "0x1.a719f148fe400p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.d61e1f4bca2a0p-4"),
                    "time_derivative_full": ("inf", "0x1.d61e1f4bca2a0p-4"),
                },
            },
            {
                "values": "58e8fc38313544ef",
                "residual": "0x1.915b400000000p-34",
                "E": "0x1.613f3e6cfed8ep-31",
                "march": (250, 490, 490),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.936ffdfcecd9cp-1"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.9e3561aa00ffdp-50"),
                    "obstacle_penalty": ("0x1.e6fc229969abep-4", "0x1.c9d427bde6100p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.c806c1e5d7920p-4"),
                    "time_derivative_full": ("inf", "0x1.c806c1e5d7920p-4"),
                },
            },
        ],
        "vi": {
            "regions": ["f2d32f898b78a960", "64110f43601baa83", "b423c151236122f8"],
            "sups": ["0x1.4f366d6af0e84p-4", "0x1.4f366d6af0e84p-4", "0x1.68b316baa62b0p-5"],
            "overlap": 336,
            "terminal_error": "0x0.0p+0",
        },
    },
    "purestop": {
        "stages": [
            {
                "values": "3f906aa02ec3d4bc",
                "residual": "0x1.6800000000000p-48",
                "E": "0x1.3205fdf3b6461p-44",
                "march": (250, 255, 255),
                "bounds": {
                    "gradient_penalty": ("inf", "0x0.0p+0"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.025597bb869d3p-49"),
                    "obstacle_penalty": ("0x1.e6dcad891c56cp-4", "0x1.6a10e66499ba0p-5"),
                    "quad_growth": ("0x1.3333333333333p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.e32e86d235040p-4"),
                    "time_derivative_full": ("inf", "0x1.e32e86d235040p-4"),
                },
            },
            {
                "values": "954e0a274eb88351",
                "residual": "0x1.c000000000000p-49",
                "E": "0x1.3336c189374c1p-44",
                "march": (250, 250, 250),
                "bounds": {
                    "gradient_penalty": ("inf", "0x0.0p+0"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.27af1373f0701p-49"),
                    "obstacle_penalty": ("0x1.e6dec668106d8p-4", "0x1.0f0eb579898a0p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.e1456b5f4e460p-4"),
                    "time_derivative_full": ("inf", "0x1.e1456b5f4e460p-4"),
                },
            },
            {
                "values": "6774f4c6d19fb3ab",
                "residual": "0x1.b800000000000p-48",
                "E": "0x1.2d5e54fdf3b66p-44",
                "march": (250, 250, 250),
                "bounds": {
                    "gradient_penalty": ("inf", "0x0.0p+0"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.f8380639949ecp-50"),
                    "obstacle_penalty": ("0x1.e6e2f825f89afp-4", "0x1.66f93878a4e00p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.dd7eb7d066ae0p-4"),
                    "time_derivative_full": ("inf", "0x1.dd7eb7d066ae0p-4"),
                },
            },
            {
                "values": "90ba8bc67978bfdb",
                "residual": "0x1.b000000000000p-49",
                "E": "0x1.3a21178d4fdf9p-44",
                "march": (250, 250, 250),
                "bounds": {
                    "gradient_penalty": ("inf", "0x0.0p+0"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.4d088f2c5a42fp-49"),
                    "obstacle_penalty": ("0x1.e6eb5ba1c8f5fp-4", "0x1.a7197b5a41c00p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.d61e1f4bca2a0p-4"),
                    "time_derivative_full": ("inf", "0x1.d61e1f4bca2a0p-4"),
                },
            },
            {
                "values": "d4a7384bd74c343f",
                "residual": "0x1.e000000000000p-50",
                "E": "0x1.324fe39581067p-44",
                "march": (250, 251, 251),
                "bounds": {
                    "gradient_penalty": ("inf", "0x0.0p+0"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.757ed534223cbp-49"),
                    "obstacle_penalty": ("0x1.e6fc229969abep-4", "0x1.c9d4091e4d400p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.c806c1e5d7920p-4"),
                    "time_derivative_full": ("inf", "0x1.c806c1e5d7920p-4"),
                },
            },
        ],
        "vi": {
            "regions": ["584b24a856518c0a", "c975daac4f06cad6", "dac9a288668e58a9"],
            "sups": ["0x1.c9d4091e4d400p-9", "0x1.c9d4091e4d400p-9", "0x0.0p+0"],
            "overlap": 0,
            "terminal_error": "0x0.0p+0",
        },
    },
    "time_dependent": {
        "stages": [
            {
                "values": "c0b5370a8133537d",
                "residual": "0x1.eec0000000000p-43",
                "E": "0x1.a60b305f33332p-41",
                "march": (50, 100, 100),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.0513e8d2dbf2ep-7"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.a895da895da8cp-51"),
                    "obstacle_penalty": ("0x1.e9289dba96dc6p-3", "0x1.ebdd52dc4ee30p-4"),
                    "quad_growth": ("0x1.14c21bffd48b6p-1", "0x1.14c21bffd48b6p-1"),
                    "time_derivative": ("0x1.44f8df7b183f7p+1", "0x1.9c7f947320c40p-4"),
                    "time_derivative_full": ("inf", "0x1.9c7f947320c40p-4"),
                },
            },
            {
                "values": "bc3e0efb649df4da",
                "residual": "0x1.ada4300000000p-34",
                "E": "0x1.4abf008f6ccccp-33",
                "march": (50, 95, 95),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.c68828de20dcfp-5"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.eefc943c97d04p-51"),
                    "obstacle_penalty": ("0x1.e929aa2a10e7cp-3", "0x1.5baffc9dc7c60p-3"),
                    "quad_growth": ("0x1.14c21c0479365p-1", "0x1.1da8d8415dc29p-1"),
                    "time_derivative": ("0x1.44f8df7b183f7p+1", "0x1.8b445e7ffc400p-4"),
                    "time_derivative_full": ("inf", "0x1.8b445e7ffc400p-4"),
                },
            },
            {
                "values": "1efee7ffdc1fdfe7",
                "residual": "0x1.3b0e000000000p-35",
                "E": "0x1.97ee5f09e1478p-33",
                "march": (50, 97, 97),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.580f4eb49a590p-2"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.5da895da895ddp-51"),
                    "obstacle_penalty": ("0x1.e92bc30904fe8p-3", "0x1.a0f82faba4da0p-3"),
                    "quad_growth": ("0x1.14c21c0479365p-1", "0x1.2641421c2d448p-1"),
                    "time_derivative": ("0x1.44f8df7b183f7p+1", "0x1.6ab3f6b347940p-4"),
                    "time_derivative_full": ("inf", "0x1.6ab3f6b347940p-4"),
                },
            },
        ],
        "vi": {
            "regions": ["31795c643b15c6c2", "7dae2b0f6b922891", "a384f548a6ac2bde"],
            "sups": ["0x1.92014e9530962p-3", "0x1.92014e9530962p-3", "0x1.017f0042e3100p-5"],
            "overlap": 28,
            "terminal_error": "0x0.0p+0",
        },
    },
    "const1": {
        "stages": [
            {
                "values": "4396be33a8dedbab",
                "residual": "0x1.32f0180000000p-33",
                "E": "0x1.07524df5c28f7p-31",
                "march": (150, 253, 253),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.2744600ea4d42p+5"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.e7f5b155eb981p-46"),
                    "obstacle_penalty": ("0x1.7952692e9a85bp-2", "0x1.1f62d6a288a00p-9"),
                    "quad_growth": ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
                    "time_derivative": ("0x1.ac85162a10b33p-2", "0x1.e54429bbd8800p-10"),
                    "time_derivative_full": ("inf", "0x1.f500b2035a030p-3"),
                },
            },
            {
                "values": "778ad9d5c59bbfb6",
                "residual": "0x1.31472c0000000p-33",
                "E": "0x1.130666e0624dbp-31",
                "march": (150, 255, 255),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.ca301169a9592p+4"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.dcd807b380890p-45"),
                    "obstacle_penalty": ("0x1.7952ef66578b6p-2", "0x1.1cbab90ef8400p-8"),
                    "quad_growth": ("0x1.000000044b830p+0", "0x1.0000000000000p+0"),
                    "time_derivative": ("0x1.ac85162a10b33p-2", "0x1.daab9c8909800p-10"),
                    "time_derivative_full": ("inf", "0x1.f37011a8be8b0p-3"),
                },
            },
            {
                "values": "ce9b54fb101edb0f",
                "residual": "0x1.3b6b880000000p-33",
                "E": "0x1.19e6cfa872b03p-31",
                "march": (150, 244, 244),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.97792061a10bfp+4"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.1e0fc86540fb6p-46"),
                    "obstacle_penalty": ("0x1.7953fbd5d196cp-2", "0x1.17881cfea8e00p-7"),
                    "quad_growth": ("0x1.000000044b830p+0", "0x1.0000000000000p+0"),
                    "time_derivative": ("0x1.ac85162a10b33p-2", "0x1.c64160f1ec800p-10"),
                    "time_derivative_full": ("inf", "0x1.f056538e38930p-3"),
                },
            },
            {
                "values": "4aab6fae35424594",
                "residual": "0x1.b6ad600000000p-34",
                "E": "0x1.ccad44147ae0ep-32",
                "march": (150, 246, 246),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.816cd0ee60008p+4"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.2d7d7caf60d8dp-43"),
                    "obstacle_penalty": ("0x1.795614b4c5ad8p-2", "0x1.0d9441935a000p-6"),
                    "quad_growth": ("0x1.000000044b830p+0", "0x1.0000000000000p+0"),
                    "time_derivative": ("0x1.ac85162a10b33p-2", "0x1.a0d92dd55e000p-10"),
                    "time_derivative_full": ("inf", "0x1.ea403a9f26d30p-3"),
                },
            },
            {
                "values": "585a5c2b9e9a4f3a",
                "residual": "0x1.64b6000000000p-34",
                "E": "0x1.22198de926e96p-32",
                "march": (150, 227, 227),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.6c05607df7280p+4"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.7bd3bf34cee25p-44"),
                    "obstacle_penalty": ("0x1.795a4672addafp-2", "0x1.f698a72ebf400p-6"),
                    "quad_growth": ("0x1.000000044b830p+0", "0x1.0000000000000p+0"),
                    "time_derivative": ("0x1.ac85162a10b33p-2", "0x1.6a339ad3d1800p-10"),
                    "time_derivative_full": ("inf", "0x1.de8499d0053b0p-3"),
                },
            },
        ],
        "vi": {
            "regions": ["dac9a288668e58a9", "2d2fb4d90892679b", "b30882224e938ac1"],
            "sups": ["0x1.53589f8de8dd2p+0", "0x1.fd816308582adp-1", "0x1.a2ffb38352cc0p+0"],
            "overlap": 2104,
            "terminal_error": "0x1.0000000000000p+0",
        },
    },
}


@pytest.mark.parametrize("case", ["static", "purestop", "time_dependent", "const1"])
def test_stage_reports_are_golden(case):
    """Stage fields, certification residuals, bounds E, bound reports, march
    counts and the VI report stay bit for bit, on static and on
    time-dependent data, in the pure-stopping case, where the gradient
    penalty is idle at every node, and on const1, whose penalty binds in
    the truncation layer."""
    assert _stage_reports(case) == STAGE_GOLDEN[case]


def test_certification_goes_through_gamma_step(monkeypatch):
    """solve_penalized certifies every march with one call of the module's
    gamma_step, so a wrapper of it sees every certification attempt."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return gamma_step(*args, **kwargs)

    monkeypatch.setattr(solver, "gamma_step", counting)
    bench = load_bench("bench_ou", coarse=True)
    res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=1e-7)
    assert len(calls) == sum(p.iters for p in res.points) > 0


class TestCertificationRetry:
    """A failed certification re-marches from the last field with tighter
    level solves; four failed attempts end in SolverError."""

    TOL = 1e-7

    @staticmethod
    def _perturbed_sweeps(monkeypatch, perturb):
        """gamma_step with TOL * 10 added at one interior node of level 0 on
        the sweeps that perturb(sweep number) selects; returns the sweep log."""
        sweeps = []

        def sweep(*args, **kwargs):
            w = gamma_step(*args, **kwargs)
            sweeps.append(1)
            if not perturb(len(sweeps)):
                return w
            values = w.values.copy()
            values[0, values.shape[1] // 2] += 10.0 * TestCertificationRetry.TOL
            return GridField(grid=w.grid, values=values)

        monkeypatch.setattr(solver, "gamma_step", sweep)
        return sweeps

    @staticmethod
    def _problem():
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=81, nt=30, T=bench.spec.T)
        return grid, truncate_data(bench.spec, grid.m)

    def test_one_failed_certification_re_marches(self, monkeypatch):
        sweeps = self._perturbed_sweeps(monkeypatch, lambda n: n == 1)
        grid, data = self._problem()
        point = solve_penalized(TruncatedProblem(grid, data), Penalty(0.25), 0.25, tol=self.TOL)
        assert point.iters == 2 and len(sweeps) == 2
        assert point.march.levels == 2 * grid.nt
        assert point.residual <= self.TOL

    def test_four_failed_certifications_raise(self, monkeypatch):
        sweeps = self._perturbed_sweeps(monkeypatch, lambda n: True)
        grid, data = self._problem()
        with pytest.raises(SolverError, match=r"^marched solution failed certification"):
            solve_penalized(TruncatedProblem(grid, data), Penalty(0.25), 0.25, tol=self.TOL)
        assert len(sweeps) == 4


class PoisonedSource:
    """Zero payoff data, except a running reward of +inf on one time level."""

    def __init__(self, grid, level):
        self.spec = load_bench("allzero", coarse=True).spec
        self.m = grid.m
        self.time_independent = False
        self.t_bad = float(grid.times[level])

    def g_m(self, t, x):
        return np.zeros(np.asarray(x).shape[1:])

    def h_m(self, t, x):
        return np.full(np.asarray(x).shape[1:], np.inf if t == self.t_bad else 0.0)

    def f_m_sq(self, t, x):
        return np.ones(np.asarray(x).shape[1:])


class RunningReward:
    """A running reward of 1 on a zero obstacle, with f_m^2 = 100: the
    gradient penalty stays idle and the obstacle inactive, so each level of
    the march is a linear system that one Newton iteration solves."""

    def __init__(self, grid):
        self.spec = load_bench("allzero", coarse=True).spec
        self.m = grid.m
        self.time_independent = True
        self.cutoff = SimpleNamespace(m=grid.m)

    def g_m(self, t, x):
        return np.zeros(np.asarray(x).shape[1:])

    def h_m(self, t, x):
        return np.ones(np.asarray(x).shape[1:])

    def f_m_sq(self, t, x):
        return np.full(np.asarray(x).shape[1:], 100.0)


class TestMarchErrors:
    def test_non_finite_source_names_its_level(self):
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        data = PoisonedSource(grid, level=6)
        with pytest.raises(SolverError, match=r"^non-finite source at time level 6$"):
            solve_penalized(TruncatedProblem(grid, data), Penalty(0.5), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_solve_names_its_level(self, bad, monkeypatch):
        """On RunningReward every level converges in one Newton iteration, so
        the fourth level solve is the one of level nt - 4."""
        real = Operator.level_solver
        calls = []

        def poisoned(self, *args):
            solve = real(self, *args)
            calls.append(1)
            if len(calls) != 4:
                return solve

            def bad_solve(rhs):
                w = solve(rhs)
                w[w.size // 2] = bad
                return w

            return bad_solve

        grid = load_bench("allzero", coarse=True).grid
        problem = TruncatedProblem(grid, RunningReward(grid))
        point = solve_penalized(problem, Penalty(0.5), 0.5)
        assert point.march.newton_iters == point.march.levels == grid.nt
        monkeypatch.setattr(Operator, "level_solver", poisoned)
        level = grid.nt - 4
        with pytest.raises(
            SolverError, match=rf"^linear solve produced non-finite values at level {level}$"
        ):
            solve_penalized(problem, Penalty(0.5), 0.5)


def test_layer_counters_match_the_march(monkeypatch):
    """perfbench reads the march's work off calls of Operator.level_solver,
    Operator.apply_generator, Penalty.value and Penalty.d1.  The wavefront
    evaluates the rows of several stages in one call, so the counts are
    rows, summed over the continuation without retries: one level_solver
    call and one level_systems row per Newton iteration; one
    apply_generator row, one Penalty.value row and one Penalty.d1 row per
    level residual (one per level, one per line-search trial), plus one
    Penalty.value call per level block of gamma_step (levels 0..nt-1) and
    of the bound report (levels 0..nt) of every stage, and for the Theta_m
    of the one radius one apply_generator call per level block of the
    nt-level data stack."""
    rows = {name: [] for name in ("level_systems", "level_solver", "apply_generator", "value", "d1")}

    def counted(cls, name, rows_of):
        real = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            rows[name].append(rows_of(self, *args))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    in_theta, real_theta = [], solver._theta_truncated

    def theta_truncated(problem):
        in_theta.append(1)
        try:
            return real_theta(problem)
        finally:
            in_theta.pop()

    monkeypatch.setattr(solver, "_theta_truncated", theta_truncated)
    counted(Operator, "level_systems", lambda op, slope, lin, extra_diag: len(slope))
    counted(Operator, "level_solver", lambda op, *args: 1)
    counted(Operator, "apply_generator", lambda op, u: (bool(in_theta), len(u)))
    counted(Penalty, "value", lambda pen, y: np.size(pen.eps))
    counted(Penalty, "d1", lambda pen, y: np.size(pen.eps))
    bench = load_bench("bench_ou", coarse=True)
    res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=1e-7)
    assert len(res.points) == len(bench.schedule) > 1
    assert all(point.iters == 1 for point in res.points)
    newton = sum(point.march.newton_iters for point in res.points)
    residuals = sum(point.march.levels + point.march.line_search_trials for point in res.points)
    nt, per = bench.grid.nt, solver.BLOCK_LEVELS
    theta = [n for tagged, n in rows["apply_generator"] if tagged]
    waves = [n for tagged, n in rows["apply_generator"] if not tagged]
    assert sum(rows["level_solver"]) == sum(rows["level_systems"]) == newton
    assert theta == [min(per, nt - lo) for lo in range(0, nt, per)] and sum(waves) == residuals
    assert sum(rows["d1"]) == residuals and len(rows["d1"]) == len(waves)
    blocks = math.ceil(nt / per) + math.ceil((nt + 1) / per)
    assert sum(rows["value"]) == residuals + blocks * len(res.points)
    # the wavefront evaluates and assembles several stages per call
    assert len(waves) < residuals and len(rows["level_systems"]) < newton


def _chain(spec, schedule, policy, tol=1e-7):
    """The continuation as a chain of standalone solves: each stage
    solve_penalized from the previous field, on a problem per radius."""
    points, problem, prev, k3 = [], None, None, None
    for eps, delta, m in schedule:
        if problem is None or problem.data.m != m:
            problem = TruncatedProblem(policy(m), truncate_data(spec, m))
        u0 = None if prev is None else solver._interp_onto(prev, problem)
        point = solve_penalized(problem, Penalty(eps), delta, tol=tol, u0=u0, k3_bound=k3)
        if k3 is None:
            k3 = point.bound_report["quad_growth"][1] * (1.0 + 1e-9)
        points.append(point)
        prev = point.field
    return points


def _same_stages(got, want):
    """Stages equal bit for bit: fields, march counts, certification
    attempts, residuals and bound reports."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.eps, a.delta, a.m) == (b.eps, b.delta, b.m)
        np.testing.assert_array_equal(a.field.values, b.field.values)
        assert a.march == b.march and a.iters == b.iters
        assert a.residual.hex() == b.residual.hex()
        assert {k: (u.hex(), o.hex()) for k, (u, o) in a.bound_report.items()} == {
            k: (u.hex(), o.hex()) for k, (u, o) in b.bound_report.items()
        }


class TestWavefront:
    """continuation marches the stages of a radius as one wavefront; every
    stage equals the stage of a chain of standalone solves, each started
    from the certified field of the stage before."""

    @staticmethod
    def _case(case):
        if case == "bench_ou":
            bench = load_bench("bench_ou", coarse=True)
            return bench.spec, bench.schedule, bench.grid_policy
        if case == "three_radii":
            spec = load_bench("bench_ou", coarse=True).spec
            schedule = [(0.5, 0.5, 4.0), (0.25, 0.25, 4.0), (0.125, 0.125, 6.0)]
            schedule += [(1 / 16, 1 / 16, 6.0), (1 / 32, 1 / 32, 8.0)]
            return spec, schedule, lambda m: Grid(d=1, m=m, nx=int(20 * m) + 1, nt=50, T=spec.T)
        if case == "time_dependent":
            spec = parse_config_text(BENCH_OU_TIME_DEPENDENT)[0]
            grid = Grid(d=1, m=6.0, nx=121, nt=50, T=spec.T)
            return spec, default_schedule(3, m=6.0), lambda m: grid
        spec = parse_config_text(TestTwoDimensional.OU_IN_X1)[0]
        grid = Grid(d=2, m=6.0, nx=61, nt=50, T=0.2)
        return spec, [(0.125, 0.125, 6.0), (1 / 16, 1 / 16, 6.0)], lambda m: grid

    @pytest.mark.parametrize("case", ["bench_ou", "three_radii", "time_dependent", "two_d"])
    def test_continuation_is_the_chain_of_solves(self, case):
        spec, schedule, policy = self._case(case)
        res = continuation(spec, schedule, policy, tol=1e-7)
        _same_stages(res.points, _chain(spec, schedule, policy))

    @staticmethod
    def _failing_sweep(monkeypatch, failing):
        """gamma_step with 1e-6 added at one interior node of level 0 on the
        sweep numbered failing, so that its certification fails once."""
        sweeps = []

        def sweep(*args, **kwargs):
            w = gamma_step(*args, **kwargs)
            sweeps.append(1)
            if len(sweeps) != failing:
                return w
            values = w.values.copy()
            values[0, values.shape[1] // 2] += 1e-6
            return GridField(grid=w.grid, values=values)

        monkeypatch.setattr(solver, "gamma_step", sweep)
        return sweeps

    def test_stages_after_a_re_march_start_from_its_certified_field(self, monkeypatch):
        """Stage 2 of 4 fails its first certification and re-marches; stages
        3 and 4 start from its certified field, as in the chain."""
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=81, nt=30, T=bench.spec.T)
        schedule = default_schedule(4, m=6.0)
        sweeps = self._failing_sweep(monkeypatch, failing=2)
        res = continuation(bench.spec, schedule, lambda m: grid, tol=1e-7)
        assert [p.iters for p in res.points] == [1, 2, 1, 1] and len(sweeps) == 5
        sweeps.clear()
        _same_stages(res.points, _chain(bench.spec, schedule, lambda m: grid))
        assert len(sweeps) == 5

    @staticmethod
    def _poison_stage_two(monkeypatch, nth=None, off=np.nan):
        """Make the nth level solve of stage 2 of default_schedule(4), or
        each one if nth is None, land off away at its middle node (NaN by
        default); returns the list of stage 2's level solves.  Stage 2 alone
        has delta = 1/8: its obstacle rows read 8 in the extra diagonal of
        the level systems."""
        real_systems, real_solver = Operator.level_systems, Operator.level_solver
        stage_two, calls = [], []  # stage_two: per row of the last systems

        def systems(self, slope, lin, extra_diag):
            stage_two[:] = (np.max(extra_diag, axis=1) == 8.0).tolist()
            return real_systems(self, slope, lin, extra_diag)

        def poisoned(self, systems, row):
            solve = real_solver(self, systems, row)
            if not stage_two[row]:
                return solve
            calls.append(1)
            if nth is not None and len(calls) != nth:
                return solve

            def bad_solve(rhs):
                w = solve(rhs)
                w[w.size // 2] += off
                return w

            return bad_solve

        monkeypatch.setattr(Operator, "level_systems", systems)
        monkeypatch.setattr(Operator, "level_solver", poisoned)
        return calls

    def _stage_two_fails(self, monkeypatch, **poison):
        """Run default_schedule(4) with stage 2 poisoned by _poison_stage_two
        as a continuation and as a chain of solves: both fail with the
        chain's message once stages 0 and 1 are certified, which come back
        bit for bit as in the chain.  Returns that message and, for the
        continuation and then the chain, the number of stage 2's level
        solves and of all level solves."""
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=81, nt=30, T=bench.spec.T)
        schedule = default_schedule(4, m=6.0)
        calls = self._poison_stage_two(monkeypatch, **poison)
        real, solves = Operator.level_solver, []

        def counted(self, *args):
            solves.append(1)
            return real(self, *args)

        monkeypatch.setattr(Operator, "level_solver", counted)
        with pytest.raises(solver.ContinuationError) as failed:
            continuation(bench.spec, schedule, lambda m: grid, tol=1e-7)
        wave = len(calls), len(solves)
        calls.clear()
        solves.clear()
        with pytest.raises(SolverError) as alone:
            _chain(bench.spec, schedule, lambda m: grid)
        eps, delta, m = schedule[2]
        assert str(failed.value) == f"stage (eps={eps:g}, delta={delta:g}, m={m:g}) failed: {alone.value}"
        monkeypatch.undo()
        _same_stages(failed.value.partial, _chain(bench.spec, schedule[:2], lambda m: grid))
        return str(alone.value), wave, (len(calls), len(solves))

    def test_a_march_error_comes_after_the_stages_before_it(self, monkeypatch):
        """A level solve of stage 2 that returns NaN ends the continuation
        with the chain's message, once stages 0 and 1 are certified; stage 3,
        which starts from stage 2, is not solved."""
        message, _, (calls, _) = self._stage_two_fails(monkeypatch, nth=5)
        assert calls == 5
        assert message.startswith("linear solve produced non-finite values at level")

    def test_a_stalled_stage_ends_the_stages_after_it(self, monkeypatch):
        """Every level solve of stage 2 lands 1e-3 off at the middle node, so
        its first level stalls after MAX_INNER Newton iterations.  The
        continuation ends as the chain does and makes the chain's level
        solves: none for stage 3, which the chain never reaches."""
        message, wave, chain = self._stage_two_fails(monkeypatch, off=1e-3)
        assert wave == chain and chain[0] == solver.MAX_INNER
        assert message.startswith("inner iteration stalled at time level 29 (merit ")

    def test_a_non_finite_source_ends_its_stage_and_the_later_ones(self):
        """The running reward is +inf on level nt - 3.  Stage 0 reaches it in
        wave 2, where stages 1 and 2 march the finite levels nt - 2 and
        nt - 1: the march returns no stage and stage 0's error."""
        grid = load_bench("allzero", coarse=True).grid
        problem = TruncatedProblem(grid, PoisonedSource(grid, level=grid.nt - 3))
        stages = [(Penalty(eps), delta) for eps, delta, _ in default_schedule(4, m=grid.m)]
        done, error = solver._nonlinear_march(problem, stages, 1e-8)
        assert done == [] and grid.nt == 50
        assert str(error) == "non-finite source at time level 47"

    def test_a_failing_wave_is_timed_to_the_stages_it_advanced(self, monkeypatch):
        """The wave in which stage 2's first level solve fails advances
        stages 0 and 1 only, so its time goes to them: the seconds of the
        two stages that come back sum to the march's elapsed time, on a
        clock that ticks one second per reading."""
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=81, nt=30, T=bench.spec.T)
        schedule = default_schedule(4, m=6.0)
        problem = TruncatedProblem(grid, truncate_data(bench.spec, 6.0))
        stages = [(Penalty(eps), delta) for eps, delta, _ in schedule]
        calls = self._poison_stage_two(monkeypatch, nth=1)
        readings = []

        def clock():
            readings.append(float(len(readings)))
            return readings[-1]

        monkeypatch.setattr(solver.time, "perf_counter", clock)
        done, error = solver._nonlinear_march(problem, stages, 1e-8)
        monkeypatch.undo()
        assert len(calls) == 1 and len(done) == 2
        assert str(error) == f"linear solve produced non-finite values at level {grid.nt - 1}"
        assert all(march.seconds > 0.0 for march in done)
        assert sum(march.seconds for march in done) == readings[-1] - readings[0]


class TestWorkspace:
    """The whole-stack passes of a stage run over level blocks in the
    workspace of their TruncatedProblem: the workspace holds one block
    whatever the horizon, a certified stage allocates no level stack but
    its sweep field, and no call reads what an earlier one left there."""

    def test_the_workspace_does_not_grow_with_the_horizon(self):
        bench = load_bench("bench_ou", coarse=True)
        data = truncate_data(bench.spec, bench.grid.m)

        def workspace(nt):
            grid = Grid(d=1, m=bench.grid.m, nx=bench.grid.nx, nt=nt, T=bench.spec.T)
            problem = TruncatedProblem(grid, data)
            return sum(w.nbytes for w in problem.work) + problem.work_grad.nbytes

        assert workspace(50) == workspace(2000) > 0

    def test_a_certified_stage_allocates_only_its_sweep_field(self):
        """Beyond the sweep field, the temporaries of one level block: the
        largest, the penalty's classification of a block's nodes, takes
        about three block stacks where the penalty binds on most of them.
        On twice the coarse bench's levels, four block stacks are a quarter
        of the sweep field."""
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=bench.grid.m, nx=bench.grid.nx, nt=2 * bench.grid.nt, T=bench.spec.T)
        problem = TruncatedProblem(grid, truncate_data(bench.spec, grid.m))
        stack = (grid.nt + 1) * grid.n_nodes * np.dtype(float).itemsize
        block = problem.work[0].nbytes
        assert 4 * block < 0.26 * stack
        for eps, delta, _ in (bench.schedule[0], bench.schedule[-1]):
            pen = Penalty(eps)

            def marched():
                (done,), error = solver._nonlinear_march(problem, [(pen, delta)], 1e-8)
                assert error is None
                return done

            solve_penalized(problem, pen, delta, marched=marched())  # warm-up
            first = marched()
            tracemalloc.start()
            try:
                point = solve_penalized(problem, pen, delta, marched=first)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert point.iters == 1
            assert peak <= stack + 4 * block, f"peak {(peak - stack) / block:.2f} blocks over the sweep field"

    def test_gamma_step_leaks_no_state(self):
        """Sweeps interleaved over fields, penalties and problems (1-D and
        2-D, two problems on one grid) equal sweeps on fresh problems."""
        bench = load_bench("bench_ou", coarse=True)
        purestop = load_bench("bench_ou_purestop", coarse=True)
        spec_2d = parse_config_text(TestTwoDimensional.OU_IN_X1)[0]
        grid_2d = Grid(d=2, m=6.0, nx=41, nt=20, T=0.2)
        cases = [
            (bench.grid, truncate_data(bench.spec, bench.grid.m)),
            (bench.grid, truncate_data(purestop.spec, bench.grid.m)),
            (grid_2d, truncate_data(spec_2d, grid_2d.m)),
        ]
        rng = np.random.default_rng(11)
        shared = [TruncatedProblem(grid, data) for grid, data in cases]
        fields = [
            [GridField(grid=grid, values=rng.uniform(0.0, s, size=(grid.nt + 1, grid.n_nodes))) for s in (0.5, 2.0)]
            for grid, _ in cases
        ]
        penalties = [(Penalty(0.5), 0.5), (Penalty(1 / 64), 1 / 64)]
        for _ in range(2):
            for (pen, delta), f in ((p, f) for p in penalties for f in range(2)):
                for c, (grid, data) in enumerate(cases):
                    got = gamma_step(shared[c], pen, delta, fields[c][f])
                    want = gamma_step(TruncatedProblem(grid, data), pen, delta, fields[c][f])
                    np.testing.assert_array_equal(got.values, want.values)
                    assert not any(np.shares_memory(got.values, w) for w in shared[c].work)

    def test_continuations_leak_no_state(self):
        """Two continuation runs over three radii each equal a chain of
        solves on a fresh problem per stage, increments included."""
        spec, schedule, policy = TestWavefront._case("three_radii")
        fresh = []
        for eps, delta, m in schedule:
            problem = TruncatedProblem(policy(m), truncate_data(spec, m))
            u0 = None if not fresh else solver._interp_onto(fresh[-1].field, problem)
            k3 = None if not fresh else fresh[0].bound_report["quad_growth"][1] * (1.0 + 1e-9)
            fresh.append(solve_penalized(problem, Penalty(eps), delta, tol=1e-7, u0=u0, k3_bound=k3))
        increments = [
            float(np.max(np.abs(np.subtract(*b.field.restrict_common(a.field))))) for a, b in zip(fresh, fresh[1:])
        ]
        for _ in range(2):
            res = continuation(spec, schedule, policy, tol=1e-7)
            _same_stages(res.points, fresh)
            assert [x.hex() for x in res.increments] == [x.hex() for x in increments]


class TestOneProblemPerRadius:
    """continuation builds one TruncatedProblem per radius, so the truncated
    data are evaluated on the grid once per radius, and every stage of the
    radius reads its operator, data stacks and Theta_m bounds from it; each
    stage's bound report is bit for bit that of a standalone solve_penalized
    on a problem built afresh from the same grid and data."""

    @staticmethod
    def _run(monkeypatch, spec, schedule, policy):
        """continuation with the problems it builds, the data evaluations and
        each stage's call recorded; returns the problems, the number of
        evaluations of each of g_m, h_m, f_m^2 and the result."""
        problems, stages = [], []
        evaluations = dict.fromkeys(["g_m", "h_m", "f_m_sq"], 0)
        real_solve = solver.solve_penalized

        class Recorded(TruncatedProblem):
            def __init__(self, grid, data):
                super().__init__(grid, data)
                problems.append(self)

        def counted(name):
            real = getattr(TruncatedData, name)

            def wrapper(*args, **kwargs):
                evaluations[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(TruncatedData, name, wrapper)

        def solve(problem, *args, **kwargs):
            point = real_solve(problem, *args, **kwargs)
            stages.append((problem, args, kwargs, point))
            return point

        for name in evaluations:
            counted(name)
        monkeypatch.setattr(solver, "TruncatedProblem", Recorded)
        monkeypatch.setattr(solver, "solve_penalized", solve)
        res = continuation(spec, schedule, policy, tol=1e-7)
        counts = dict(evaluations)
        assert [p for *_, p in stages] == res.points
        for problem, args, kwargs, point in stages:
            assert problem in problems and problem.data.m == point.m
            alone = real_solve(TruncatedProblem(problem.grid, problem.data), *args, **kwargs)
            assert {k: (b.hex(), o.hex()) for k, (b, o) in alone.bound_report.items()} == {
                k: (b.hex(), o.hex()) for k, (b, o) in point.bound_report.items()
            }
        return problems, counts, res

    def test_one_problem_on_one_radius(self, monkeypatch):
        bench = load_bench("bench_ou", coarse=True)
        problems, evaluations, res = self._run(
            monkeypatch, bench.spec, bench.schedule, bench.grid_policy
        )
        assert len(problems) == 1 and len(res.points) == len(bench.schedule) > 1
        assert evaluations == {"g_m": 1, "h_m": 1, "f_m_sq": 1}

    def test_one_problem_per_radius(self, monkeypatch):
        bench = load_bench("bench_ou", coarse=True)
        schedule = [(0.5, 0.5, 4.0), (0.25, 0.25, 4.0), (0.125, 0.125, 6.0)]
        schedule += [(1 / 16, 1 / 16, 6.0), (1 / 32, 1 / 32, 8.0)]

        def policy(m):
            return Grid(d=1, m=m, nx=int(20 * m) + 1, nt=50, T=bench.spec.T)

        problems, evaluations, res = self._run(monkeypatch, bench.spec, schedule, policy)
        assert [p.data.m for p in problems] == [4.0, 6.0, 8.0]
        assert evaluations == {"g_m": 3, "h_m": 3, "f_m_sq": 3}
        assert [p.m for p in res.points] == [m for *_, m in schedule]


class ChosenData:
    """Truncated data with chosen nodal rows g_m, h_m and f_m^2, the same on
    every level, on the operator of spec."""

    def __init__(self, spec, grid, g, h, f2):
        self.spec, self.m = spec, grid.m
        self.time_independent = True
        self.cutoff = SimpleNamespace(m=grid.m)
        self._rows = g, h, f2

    def g_m(self, t, x):
        return self._rows[0]

    def h_m(self, t, x):
        return self._rows[1]

    def f_m_sq(self, t, x):
        return self._rows[2]


def _bits(values):
    """The float64 bits of values, so that signed zeros and NaN payloads count."""
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _dense(monkeypatch):
    """Make every idle test fail, so the solver takes the dense formulas."""
    monkeypatch.setattr(TruncatedProblem, "_penalty_idle", lambda self, values, levels: False)


class TestIdlePenalty:
    """Where the problem proves the gradient penalty idle, the level residual,
    gamma_step and the bound report skip the control term and the penalty,
    and each result is still the dense formulas' bit for bit.  Each case
    pins the test's verdict and compares the shortcut with the dense path on
    the same inputs.

    The field is s on every node but those of the box's low edges, where it
    is 0.  Its bound d fl(s / hx)^2 is attained at the first interior node
    of the diagonal (node 1 in 1-D), whose backward quotients are s / hx
    along every axis, and nowhere else.  On "equal" it is min f_m^2, and the
    penalty is idle; on "ulp_over" min f_m^2 is one ulp below it, so
    psi' > 0 at that node alone.  On "edge_floor" only node 0, a Dirichlet
    node where Q = 0, has that f_m^2: its f_m^2 counts in the floor, so the
    test fails although psi' = 0 everywhere.  A NaN or inf in the field or
    in f_m^2 fails the test.  On "negative_zero" the Newton source
    h_m + extra_diag g_m is -0.0, which the dense "+ 2 psi' Q" turns into
    +0.0."""

    SPEC = {1: HEAT, 2: TestTwoDimensional.CFG}
    CASES = ["equal", "ulp_over", "edge_floor", "nan_field", "inf_field", "inf_f2", "negative_zero"]
    IDLE = {"equal", "negative_zero"}
    JUMP = 0.3

    @staticmethod
    def _corner(grid):
        """The first interior node of the diagonal, flat index."""
        return 1 if grid.d == 1 else grid.nx + 1

    @classmethod
    def _case(cls, d, case):
        """The problem of the case, its field (one row) and the wave's next
        level over ht."""
        grid = Grid(d=d, m=1.0, nx=11 if d == 1 else 7, nt=4, T=1.0)
        n = grid.n_nodes
        field = np.full(n, cls.JUMP)
        node = np.arange(n)
        field[(node == 0) if d == 1 else (node // grid.nx == 0) | (node % grid.nx == 0)] = 0.0
        quotient = cls.JUMP / grid.hx
        bound = d * (quotient * quotient)
        f2 = np.full(n, bound)
        g, h, knext = 0.5 * field, np.full(n, 0.1), field / grid.ht
        if case == "ulp_over":
            f2[:] = np.nextafter(bound, -np.inf)
        elif case == "edge_floor":
            f2[:] = 4.0 * bound
            f2[0] = np.nextafter(bound, -np.inf)
        elif case in ("nan_field", "inf_field"):
            field[n // 2] = np.nan if case == "nan_field" else np.inf
            f2[:] = 1e300
        elif case == "inf_f2":
            f2[:] = 4.0 * bound
            f2[n // 2] = np.inf
        elif case == "negative_zero":
            field[:] = 0.0
            g, h, knext = np.full(n, -1.0), np.full(n, -0.0), np.full(n, -0.0)
        spec = parse_config_text(cls.SPEC[d])[0]
        return TruncatedProblem(grid, ChosenData(spec, grid, g, h, f2)), field, knext

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_level_residual_is_the_dense_one(self, d, case):
        problem, field, knext = self._case(d, case)
        g, h, f2 = problem.stacks
        ks = np.array([3, 2])
        cand = np.stack([field, field])
        wave = solver._Wave(
            g[ks], h[ks], f2[ks], np.stack([knext, knext]), np.array([[4.0], [8.0]]), Penalty(np.array([[0.25], [0.125]]))
        )
        for at in (slice(None), np.array([1])):
            rows = cand[at]
            idle = problem._penalty_idle(rows, ks[at])
            got = solver._level_residual(problem, wave, at, rows.copy(), idle)
            want = solver._level_residual(problem, wave, at, rows.copy(), False)
            merits, largest, _, slope, extra_diag, rhs, finite = got
            for a, b in zip([merits, largest, slope, extra_diag, rhs], [*want[0:2], *want[3:6]]):
                np.testing.assert_array_equal(_bits(a), _bits(b))
            np.testing.assert_array_equal(finite, want[6])
            assert idle == (case in self.IDLE)
        if case == "ulp_over":
            assert np.count_nonzero(want[3]) == 1 and want[3][0, self._corner(problem.grid)] > 0.0
        if case == "negative_zero":
            assert not np.signbit(rhs[:, problem.interior]).any()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gamma_step_and_bound_report_are_the_dense_ones(self, d, case, monkeypatch):
        problem, field, _ = self._case(d, case)
        nt = problem.grid.nt
        stack = np.tile(field, (nt + 1, 1))
        frozen = GridField(grid=problem.grid, values=stack)
        pen, delta = Penalty(0.25), 0.25

        def outcomes():
            try:
                swept = _bits(gamma_step(problem, pen, delta, frozen).values).tolist()
            except SolverError as exc:
                swept = str(exc)
            report = solver._bound_report(problem, pen, delta, 1e-7, stack, float(np.min(stack)), None)
            return swept, {k: (b.hex(), o.hex()) for k, (b, o) in report.items()}

        got = outcomes()
        idle = problem._penalty_idle(stack, slice(None))
        _dense(monkeypatch)
        assert got == outcomes()
        assert idle == (case in self.IDLE)

    @pytest.mark.parametrize("case", ["bench_ou_purestop", "two_d"])
    def test_an_idle_continuation_is_the_dense_one(self, case, monkeypatch):
        """A whole continuation with the penalty idle, in 1-D and in 2-D,
        equals the one that evaluates every control term, increments
        included."""
        if case == "two_d":
            spec = parse_config_text(TestTwoDimensional.CFG.replace("f = 1.5", "f = 100"))[0]
            grid = Grid(d=2, m=3.0, nx=21, nt=10, T=0.2)
            schedule, policy = [(0.25, 0.25, 3.0), (0.125, 0.125, 3.0)], lambda m: grid
        else:
            bench = load_bench(case, coarse=True)
            spec, schedule, policy = bench.spec, bench.schedule, bench.grid_policy
        verdicts = []
        real = TruncatedProblem._penalty_idle

        def recorded(self, values, levels):
            verdicts.append(real(self, values, levels))
            return verdicts[-1]

        monkeypatch.setattr(TruncatedProblem, "_penalty_idle", recorded)
        got = continuation(spec, schedule, policy, tol=1e-7)
        assert verdicts and all(verdicts)
        _dense(monkeypatch)
        want = continuation(spec, schedule, policy, tol=1e-7)
        _same_stages(got.points, want.points)
        assert [x.hex() for x in got.increments] == [x.hex() for x in want.increments]


def test_verify_checks_the_control_bound(monkeypatch):
    """ctrlstop verify's control-bound check passes on the solver's bound,
    and fails on a bound taken with 2 hx and on one blind to NaN."""
    from ctrlstop import verify

    def check():
        return verify._check_control_bound(400, np.random.default_rng(0))[0]

    real = verify._control_bound
    assert check()
    monkeypatch.setattr(verify, "_control_bound", lambda grid, v: real(grid, v) / 4.0)
    assert not check()
    monkeypatch.setattr(verify, "_control_bound", lambda grid, v: np.nan_to_num(real(grid, v), nan=0.0, posinf=np.inf))
    assert not check()


class TestIdleCallPattern:
    """The calls of the control term and the penalty in a coarse
    continuation: none where the penalty is idle, the dense path's where it
    binds, with the idle test tried once per march and once per level block
    of each certification (levels 0..nt-1) and report (levels 0..nt)."""

    @staticmethod
    def _run(monkeypatch, bench_name, dense=False):
        calls = dict.fromkeys(["control_term", "value", "d1", "_penalty_idle", "march"], 0)

        def counted(owner, name, key=None):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key or name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Operator, "control_term")
        counted(Penalty, "value")
        counted(Penalty, "d1")
        counted(solver, "_nonlinear_march", key="march")
        if dense:
            _dense(monkeypatch)
        else:
            counted(TruncatedProblem, "_penalty_idle")
        bench = load_bench(bench_name, coarse=True)
        res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=1e-7)
        monkeypatch.undo()
        return calls, res

    def test_an_idle_continuation_calls_no_control_term(self, monkeypatch):
        calls, res = self._run(monkeypatch, "bench_ou_purestop")
        assert calls["control_term"] == calls["value"] == calls["d1"] == 0
        assert calls["_penalty_idle"] > calls["march"] + 2 * len(res.points)

    def test_a_binding_continuation_makes_the_dense_calls(self, monkeypatch):
        calls, res = self._run(monkeypatch, "bench_ou")
        dense, _ = self._run(monkeypatch, "bench_ou", dense=True)
        assert all(point.iters == 1 for point in res.points)
        tries = calls.pop("_penalty_idle")
        nt, per = res.points[0].field.grid.nt, solver.BLOCK_LEVELS
        sweeps = math.ceil(nt / per) * sum(p.iters for p in res.points)
        assert tries == calls["march"] + sweeps + math.ceil((nt + 1) / per) * len(res.points)
        assert calls == {k: dense[k] for k in calls} and calls["control_term"] > 0
