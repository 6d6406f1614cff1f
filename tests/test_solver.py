import hashlib
import math

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

    def test_grid_mismatch_rejected(self):
        bench = load_bench("allzero", coarse=True)
        other = Grid(d=1, m=bench.grid.m, nx=bench.grid.nx + 2, nt=bench.grid.nt, T=bench.spec.T)
        data = truncate_data(bench.spec, bench.grid.m)
        frozen = GridField(grid=other, values=np.zeros((other.nt + 1, other.n_nodes)))
        with pytest.raises(ValueError):
            gamma_step(TruncatedProblem(bench.grid, data), Penalty(0.5), 0.5, frozen)
        with pytest.raises(ValueError):
            solve_penalized(TruncatedProblem(bench.grid, data), Penalty(0.5), 0.5, u0=frozen)


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
            assert work.newton_iters >= work.levels  # one linear solve at least per level
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
        data = truncate_data(spec, 3.0, sup_samples=41)
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
        data = truncate_data(spec, 6.0, sup_samples=61)
        tol = 1e-7
        point = solve_penalized(TruncatedProblem(grid, data), Penalty(1 / 16), 1 / 16, tol=tol)
        assert float(np.min(point.field.values)) >= -10.0 * tol
        assert point.bounds_ok()


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
    """Every stage's field digest, certification residual, bound report and
    march counts, and the vi_report of the limit, in a comparable form."""
    if case in ("static", "purestop"):
        bench = load_bench("bench_ou" if case == "static" else "bench_ou_purestop", coarse=True)
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
                "values": "878a3bed5beb870d",
                "residual": "0x1.7800000000000p-48",
                "march": (250, 505, 255),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.9806602029a66p-10"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.757ed534223cbp-49"),
                    "obstacle_penalty": ("0x1.e6dcad891c56cp-4", "0x1.6a10fa94c87c0p-5"),
                    "quad_growth": ("0x1.3333333333333p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.e32e86d235040p-4"),
                    "time_derivative_full": ("inf", "0x1.e32e86d235040p-4"),
                },
            },
            {
                "values": "25351ddbda1a96b1",
                "residual": "0x1.2800000000000p-48",
                "march": (250, 574, 324),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.888802aa9c4fap-7"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.aa68447962d21p-49"),
                    "obstacle_penalty": ("0x1.e6dec668106d8p-4", "0x1.0f0edf4367a40p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.e1456b5f4e460p-4"),
                    "time_derivative_full": ("inf", "0x1.e1456b5f4e460p-4"),
                },
            },
            {
                "values": "7119aff5565a764c",
                "residual": "0x1.c800000000000p-48",
                "march": (250, 715, 465),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.7472b863cd147p-4"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.181f1fe719ad8p-49"),
                    "obstacle_penalty": ("0x1.e6e2f825f89afp-4", "0x1.66f98783aac00p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.dd7eb7d066ae0p-4"),
                    "time_derivative_full": ("inf", "0x1.dd7eb7d066ae0p-4"),
                },
            },
            {
                "values": "ad1cbc05656f7cb4",
                "residual": "0x1.3000000000000p-48",
                "march": (250, 906, 656),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.1154b27c20824p-1"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.025597bb869d3p-49"),
                    "obstacle_penalty": ("0x1.e6eb5ba1c8f5fp-4", "0x1.a719c044b7380p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.d61e1f4bca2a0p-4"),
                    "time_derivative_full": ("inf", "0x1.d61e1f4bca2a0p-4"),
                },
            },
            {
                "values": "f07e72652c1f1407",
                "residual": "0x1.1800000000000p-48",
                "march": (250, 953, 703),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.298c132f64a9cp+0"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.d5fb54d088f2cp-50"),
                    "obstacle_penalty": ("0x1.e6fc229969abep-4", "0x1.c9d41e0042500p-4"),
                    "quad_growth": ("0x1.333333385a9d3p-1", "0x1.3333333333333p-1"),
                    "time_derivative": ("0x1.59d3b0bb7a866p-3", "0x1.c806c1e5d7920p-4"),
                    "time_derivative_full": ("inf", "0x1.c806c1e5d7920p-4"),
                },
            },
        ],
        "vi": {
            "regions": ["f2d32f898b78a960", "1f13ffcd7b9f9e39", "3fec38ea8b724e24"],
            "sups": ["0x1.8d1e93e7c3370p-4", "0x1.8d1e93e7c3370p-4", "0x0.0p+0"],
            "overlap": 314,
            "terminal_error": "0x0.0p+0",
        },
    },
    "purestop": {
        "stages": [
            {
                "values": "6feac40356816f45",
                "residual": "0x1.6800000000000p-48",
                "march": (250, 505, 255),
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
                "values": "c3d0b0b1a39db1b9",
                "residual": "0x1.c000000000000p-49",
                "march": (250, 573, 323),
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
                "values": "2c1d7c2da5520ac9",
                "residual": "0x1.b800000000000p-48",
                "march": (250, 592, 342),
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
                "values": "c85c36a6b46f259a",
                "residual": "0x1.b000000000000p-49",
                "march": (250, 613, 363),
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
                "values": "53207683ab619b52",
                "residual": "0x1.2000000000000p-49",
                "march": (250, 623, 373),
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
                "values": "ff02a86097071570",
                "residual": "0x1.a000000000000p-50",
                "march": (50, 150, 100),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.e3d3db2f7461dp-8"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.063e7063e7066p-50"),
                    "obstacle_penalty": ("0x1.e9289dba96dc6p-3", "0x1.ebdd38b6d40e0p-4"),
                    "quad_growth": ("0x1.14c21e861b750p-1", "0x1.14c21e861b750p-1"),
                    "time_derivative": ("0x1.44f8df7b183f7p+1", "0x1.9c7f947320c40p-4"),
                    "time_derivative_full": ("inf", "0x1.9c7f947320c40p-4"),
                },
            },
            {
                "values": "955f8dd0ad81c4e6",
                "residual": "0x1.0000000000000p-49",
                "march": (50, 142, 92),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.cd5abf3548c0cp-5"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.44aed44aed44dp-51"),
                    "obstacle_penalty": ("0x1.e929aa2a10e7cp-3", "0x1.5baf7355bc4d0p-3"),
                    "quad_growth": ("0x1.14c21e8ac0200p-1", "0x1.1da8e5e803ab3p-1"),
                    "time_derivative": ("0x1.44f8df7b183f7p+1", "0x1.8b445e7ffc400p-4"),
                    "time_derivative_full": ("inf", "0x1.8b445e7ffc400p-4"),
                },
            },
            {
                "values": "a69cfd578fd4a6f9",
                "residual": "0x1.6000000000000p-50",
                "march": (50, 175, 125),
                "bounds": {
                    "gradient_penalty": ("inf", "0x1.8b70855112382p-2"),
                    "negative_part": ("0x1.0c6f7a0b5ed8dp-20", "0x1.a895da895da8cp-51"),
                    "obstacle_penalty": ("0x1.e92bc30904fe8p-3", "0x1.a0f567a81b1a0p-3"),
                    "quad_growth": ("0x1.14c21e8ac0200p-1", "0x1.2641658c54289p-1"),
                    "time_derivative": ("0x1.44f8df7b183f7p+1", "0x1.6ab3f6b347940p-4"),
                    "time_derivative_full": ("inf", "0x1.6ab3f6b347940p-4"),
                },
            },
        ],
        "vi": {
            "regions": ["31795c643b15c6c2", "8f90f5229005eb0d", "6903b20b81007fef"],
            "sups": ["0x1.a41c2e321091ap-3", "0x1.a41c2e321091ap-3", "0x1.6adb54743e638p-5"],
            "overlap": 18,
            "terminal_error": "0x0.0p+0",
        },
    },
}


@pytest.mark.parametrize("case", ["static", "purestop", "time_dependent"])
def test_stage_reports_are_golden(case):
    """Stage fields, certification residuals, bound reports, march counts and
    the VI report stay bit for bit, on static and on time-dependent data, and
    in the pure-stopping case, where the gradient penalty is idle at every
    node."""
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


class TestMarchErrors:
    def test_non_finite_source_names_its_level(self):
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        data = PoisonedSource(grid, level=6)
        with pytest.raises(SolverError, match=r"^non-finite source at time level 6$"):
            solve_penalized(TruncatedProblem(grid, data), Penalty(0.5), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_solve_names_its_level(self, bad, monkeypatch):
        """On zero data every level converges in one Newton iteration, so the
        fourth level solve is the one of level nt - 4."""
        real = Operator.level_solver
        calls = []

        def poisoned(self, extra_drift, extra_diag):
            solve = real(self, extra_drift, extra_diag)
            calls.append(1)
            if len(calls) != 4:
                return solve

            def bad_solve(rhs):
                w = solve(rhs)
                w[w.size // 2] = bad
                return w

            return bad_solve

        monkeypatch.setattr(Operator, "level_solver", poisoned)
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        data = truncate_data(bench.spec, grid.m)
        level = grid.nt - 4
        with pytest.raises(
            SolverError, match=rf"^linear solve produced non-finite values at level {level}$"
        ):
            solve_penalized(TruncatedProblem(grid, data), Penalty(0.5), 0.5)


def test_layer_counters_match_the_march(monkeypatch):
    """perfbench reads the march's work off calls of Operator.level_solver,
    Operator.apply_generator, Penalty.value and Penalty.d1.  Per stage
    without retries, counted from the end of the stage before: one level
    solver and one Penalty.d1 per Newton iteration; one apply_generator and
    one Penalty.value per level residual (one per level, one per line-search
    trial), plus one Penalty.value each in gamma_step and the bound report,
    and on the first stage of a radius one apply_generator for the Theta_m
    that continuation computes before it."""
    calls = dict.fromkeys(["level_solver", "apply_generator", "value", "d1"], 0)

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(Operator, "level_solver")
    counted(Operator, "apply_generator")
    counted(Penalty, "value")
    counted(Penalty, "d1")
    totals = []
    real_solve = solver.solve_penalized

    def solve_counted(*args, **kwargs):
        point = real_solve(*args, **kwargs)
        totals.append((point, dict(calls)))
        return point

    monkeypatch.setattr(solver, "solve_penalized", solve_counted)
    bench = load_bench("bench_ou", coarse=True)
    res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=1e-7)
    assert len(totals) == len(res.points) == len(bench.schedule)
    before, radius = dict.fromkeys(calls, 0), None
    for point, total in totals:
        seen = {k: total[k] - before[k] for k in calls}
        work = point.march
        assert point.iters == 1
        residuals = work.levels + work.line_search_trials
        assert seen == {
            "level_solver": work.newton_iters,
            "d1": work.newton_iters,
            "apply_generator": residuals + (point.m != radius),
            "value": residuals + 2,
        }
        before, radius = total, point.m


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
