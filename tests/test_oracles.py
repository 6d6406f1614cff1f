from collections import Counter

import numpy as np
import pytest

from ctrlstop import oracles, verify
from ctrlstop.benches import load_bench
from ctrlstop.expressions import Expression
from ctrlstop.grid import Grid, GridField, build_operator
from ctrlstop.model import parse_config_text
from ctrlstop.oracles import (
    LatticeGame,
    ObstacleProblem,
    OracleError,
    compare_fields,
    solve_lattice_game,
    solve_obstacle,
)

OU_BUMP = """
dim = 1
horizon = 0.4
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = 1000
g = exp(-x1^2)
h = 0
"""

PLANE_BUMP = """
dim = 2
horizon = 0.2
rate = 0.1
drift[1] = -x1
drift[2] = -x2
sigma[1][1] = 1
sigma[1][2] = 0
sigma[2][1] = 0
sigma[2][2] = 1
f = 1000
g = 0.5 * max(0, 1 - (x1^2 + x2^2) / 4)^3
h = 0
"""


def projected_sor(prob, tol):
    """The red-black projected SOR (relaxation 1.5) that solve_obstacle used
    before policy iteration, kept as an independent reference."""
    grid = prob.grid
    op = build_operator(grid, prob.spec)
    pts = grid.points()
    interior = ~op.dirichlet
    M = op.implicit_matrix.tocsr()
    M_diag = M.diagonal()
    if grid.d == 1:
        parity = np.arange(grid.n_nodes) % 2
    else:
        ii, jj = np.divmod(np.arange(grid.n_nodes), grid.nx)
        parity = (ii + jj) % 2
    colors = [interior & (parity == 0), interior & (parity == 1)]
    out = np.empty((grid.nt + 1, grid.n_nodes))
    out[grid.nt] = prob.spec.g(float(grid.T), pts)
    for k in range(grid.nt - 1, -1, -1):
        t = float(grid.times[k])
        g_k = prob.spec.g(t, pts)
        rhs = out[k + 1] / grid.ht + prob.spec.h(t, pts)
        u = np.maximum(out[k + 1], g_k)
        u[op.dirichlet] = g_k[op.dirichlet]
        while True:
            max_change = 0.0
            for mask in colors:
                acc = rhs - M @ u + M_diag * u
                new = np.maximum(g_k, -0.5 * u + 1.5 * acc / M_diag)
                max_change = max(max_change, float(np.max(np.abs(new[mask] - u[mask]))))
                u[mask] = new[mask]
            if max_change <= tol:
                break
        out[k] = u
    return out


def _purestop_1d():
    bench = load_bench("bench_ou_purestop", coarse=True)
    return ObstacleProblem(spec=bench.spec, grid=bench.grid)


def _plane_bump_2d():
    spec, _, _ = parse_config_text(PLANE_BUMP)
    return ObstacleProblem(spec=spec, grid=Grid(d=2, m=3.0, nx=31, nt=20, T=spec.T))


@pytest.mark.parametrize("make", [_purestop_1d, _plane_bump_2d], ids=["1d", "2d"])
def test_policy_iteration_solves_the_lcp(make):
    prob = make()
    grid = prob.grid
    sol = solve_obstacle(prob)
    assert sol.complementarity_residual <= 1e-10
    pts = grid.points()
    interior = ~grid.dirichlet_mask()
    contact = 0
    for k, t in enumerate(grid.times):
        above = sol.field.values[k] - prob.spec.g(float(t), pts)
        assert np.min(above) >= -1e-12
        contact += int(np.sum(above[interior] == 0.0))
    # the obstacle binds on part of the interior, so the test sees both branches
    assert 0 < contact < interior.sum() * grid.nt
    reference = projected_sor(prob, tol=1e-13)
    assert np.max(np.abs(sol.field.values - reference)) <= 1e-9


class TestObstacle:
    def test_zero_data(self):
        bench = load_bench("allzero", coarse=True)
        sol = solve_obstacle(ObstacleProblem(spec=bench.spec, grid=bench.grid))
        assert np.max(np.abs(sol.field.values)) == 0.0

    def test_const_obstacle_exact(self):
        bench = load_bench("const1", coarse=True)
        grid = Grid(d=1, m=4.0, nx=81, nt=40, T=bench.spec.T)
        sol = solve_obstacle(ObstacleProblem(spec=bench.spec, grid=grid))
        assert np.max(np.abs(sol.field.values - 1.0)) < 1e-12
        assert sol.complementarity_residual < 1e-12

    def test_smooth_bump_structure(self):
        spec, _, _ = parse_config_text(OU_BUMP)
        coarse = Grid(d=1, m=3.0, nx=121, nt=100, T=spec.T)
        fine = Grid(d=1, m=3.0, nx=241, nt=400, T=spec.T)
        sols = {}
        for grid in (coarse, fine):
            prob = ObstacleProblem(spec=spec, grid=grid)
            sol = solve_obstacle(prob, tol=1e-10)
            pts = grid.points()
            for k, t in enumerate(grid.times):
                g_k = prob.spec.g(float(t), pts)
                assert np.min(sol.field.values[k] - g_k) >= -1e-9
            assert sol.complementarity_residual < 1e-7
            # continuation region nonempty: strictly above somewhere
            g_0 = prob.spec.g(0.0, pts)
            assert np.max(sol.field.values[0] - g_0) > 1e-3
            sols[grid.nx] = sol.field
        # doubling the resolution moves the solution by a discretization amount
        assert compare_fields(sols[121], sols[241]) < 5e-3

    def test_sweep_limit_raises(self, monkeypatch):
        spec, _, _ = parse_config_text(OU_BUMP)
        grid = Grid(d=1, m=3.0, nx=81, nt=20, T=spec.T)
        monkeypatch.setattr(oracles, "MAX_SWEEPS", 1)
        with pytest.raises(OracleError):
            solve_obstacle(ObstacleProblem(spec=spec, grid=grid), tol=1e-14)


class TestLattice:
    def one_step_game(self, g_src="1"):
        cfg = f"""
dim = 1
horizon = 0.0002
rate = 0
drift[1] = -x1
sigma[1][1] = 1
f = 0.5
g = {g_src}
h = 0
"""
        spec, _, _ = parse_config_text(cfg)
        return LatticeGame(spec=spec, radius=3.0, eta=0.02, dt=0.0002)

    def test_one_step_constant(self):
        sol = solve_lattice_game(self.one_step_game("1"))
        assert np.all(sol.value_minmax == 1.0)
        assert np.all(sol.value_maxmin == 1.0)

    def test_zero_data(self):
        sol = solve_lattice_game(self.one_step_game("0"))
        assert np.all(sol.value_minmax == 0.0)
        assert np.all(sol.value_maxmin == 0.0)

    def test_weak_duality_on_bench(self):
        bench = load_bench("bench_ou", coarse=True)
        game = LatticeGame(spec=bench.spec, radius=5.0, eta=0.1, dt=2e-3)
        sol = solve_lattice_game(game)
        assert sol.min_gap() >= -1e-12

    def test_probabilities_moment_match(self):
        bench = load_bench("bench_ou", coarse=True)
        game = LatticeGame(spec=bench.spec, radius=5.0, eta=0.1, dt=2e-3)
        probs = game.probabilities()
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(probs >= 0) and np.all(probs <= 1)
        xs = game.states
        mean = (probs[2] - probs[0]) * game.eta
        b = bench.spec.drift(xs[None, :])[0]
        np.testing.assert_allclose(mean, b * game.dt, atol=1e-12)
        # second moment matches sigma^2 dt exactly; the variance differs by
        # the squared-mean term (b dt)^2 = O(dt^2)
        second = (probs[2] + probs[0]) * game.eta**2
        np.testing.assert_allclose(second, 1.0 * game.dt, atol=1e-15)
        var = second - mean**2
        np.testing.assert_allclose(var, 1.0 * game.dt, atol=(5.0 * game.dt) ** 2)

    def test_one_stencil_per_level_is_bit_identical(self):
        bench = load_bench("bench_ou", coarse=True)
        game = LatticeGame(spec=bench.spec, radius=5.0, eta=0.1, dt=2e-3)
        spec, probs, n = game.spec, game.probabilities(), game.n_states
        disc = float(np.exp(-spec.r * game.dt))

        def expected(v, shift):
            # the per-shift stencil solve_lattice_game evaluated before
            tgt = np.clip(np.arange(n) + shift, 0, n - 1)
            p_dn, p_st, p_up = probs[0, tgt], probs[1, tgt], probs[2, tgt]
            v_dn = v[np.clip(tgt - 1, 0, n - 1)]
            v_up = v[np.clip(tgt + 1, 0, n - 1)]
            return p_dn * v_dn + p_st * v[tgt] + p_up * v_up

        x = game.states[None, :]
        v_mm = np.empty((game.n_times + 1, n))
        v_ms = np.empty((game.n_times + 1, n))
        v_mm[-1] = v_ms[-1] = spec.g(spec.T, x)
        for k in range(game.n_times - 1, -1, -1):
            t = k * game.dt
            g_k, run = spec.g(t, x), spec.h(t, x) * game.dt
            costs = (0.0, spec.f(t, x) * game.eta)
            cont_mm = [run + costs[abs(s)] + disc * expected(v_mm[k + 1], s) for s in (-1, 0, 1)]
            cont_ms = [run + costs[abs(s)] + disc * expected(v_ms[k + 1], s) for s in (-1, 0, 1)]
            v_mm[k] = np.minimum.reduce([np.maximum(g_k, c) for c in cont_mm])
            v_ms[k] = np.maximum(g_k, np.minimum.reduce(cont_ms))
        sol = solve_lattice_game(game)
        assert np.array_equal(sol.value_minmax, v_mm)
        assert np.array_equal(sol.value_maxmin, v_ms)

    def test_unstable_parameters_rejected(self):
        bench = load_bench("bench_ou", coarse=True)
        game = LatticeGame(spec=bench.spec, radius=5.0, eta=0.01, dt=2e-3)
        with pytest.raises(OracleError):
            game.probabilities()

    def test_monotone_in_payoffs(self):
        base = load_bench("bench_ou", coarse=True).spec
        lifted_cfg = """
dim = 1
horizon = 0.5
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = 0.3
g = 0.1 + 0.6 * max(0, 1 - (x1/4.5)^2)^3
h = 0.1 + 1.5 * max(0, 1 - ((x1-1.5)/0.6)^2)^3 + 1.5 * max(0, 1 - ((x1+1.5)/0.6)^2)^3
"""
        lifted, _, _ = parse_config_text(lifted_cfg)
        a = solve_lattice_game(LatticeGame(spec=base, radius=5.0, eta=0.1, dt=2e-3))
        b = solve_lattice_game(LatticeGame(spec=lifted, radius=5.0, eta=0.1, dt=2e-3))
        assert np.min(b.value_minmax - a.value_minmax) >= -1e-12
        assert np.min(b.value_maxmin - a.value_maxmin) >= -1e-12


# bench_ou with g, h and f all depending on t
BENCH_OU_TIME_DEPENDENT = """
dim = 1
horizon = 0.5
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = 0.3*(2 - t)
g = 0.6*(1 - 0.2*t)*max(0, 1 - (x1/4.5)^2)^3
h = (1 + t)*1.5*max(0, 1 - ((x1-1.5)/0.6)^2)^3
"""


class TestDataEvaluations:
    """The oracles read g, h and f on their time levels through one level
    stack: time-independent data are evaluated once, time-dependent data once
    per level."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Expression.__call__ counted per expression (equal expressions,
        such as those of two parses of one bench, share a count)."""
        counts = Counter()
        real = Expression.__call__

        def counted(self, t, x):
            counts[self] += 1
            return real(self, t, x)

        monkeypatch.setattr(Expression, "__call__", counted)
        return counts

    @staticmethod
    def _spec(case):
        if case == "static":
            return load_bench("bench_ou_purestop", coarse=True).spec
        return parse_config_text(BENCH_OU_TIME_DEPENDENT)[0]

    @staticmethod
    def _assert_at_most(counts, spec, levels):
        """g, h and f evaluated at most once on static data, else once per level."""
        bound = 1 if spec.time_independent else levels
        for name in ("g", "h", "f"):
            assert counts[getattr(spec, name)] <= bound, name

    @pytest.mark.parametrize("case", ["static", "time_dependent"])
    def test_obstacle_oracle(self, case, counts):
        spec = self._spec(case)
        grid = Grid(d=1, m=6.0, nx=151, nt=40, T=spec.T)
        solve_obstacle(ObstacleProblem(spec=spec, grid=grid))
        self._assert_at_most(counts, spec, grid.nt + 1)
        assert counts[spec.g] > 0 and counts[spec.h] > 0

    @pytest.mark.parametrize("case", ["static", "time_dependent"])
    def test_lattice_game(self, case, counts):
        spec = self._spec(case)
        game = LatticeGame(spec=spec, radius=4.0, eta=0.2, dt=0.01)
        solve_lattice_game(game)
        self._assert_at_most(counts, spec, game.n_times + 1)
        assert min(counts[spec.g], counts[spec.h], counts[spec.f]) > 0

    def test_obstacle_check_of_the_invariant_suite(self, counts, monkeypatch):
        """verify._check_obstacle evaluates g once for its comparison, on top
        of the oracle's own single evaluation of g and h."""
        in_oracle = Counter()
        real = verify.solve_obstacle

        def solve_counted(*args, **kwargs):
            before = counts.copy()
            sol = real(*args, **kwargs)
            in_oracle.update(counts - before)
            return sol

        monkeypatch.setattr(verify, "solve_obstacle", solve_counted)
        ok, _ = verify._check_obstacle(np.random.default_rng(0))
        assert ok
        spec = self._spec("static")
        self._assert_at_most(in_oracle, spec, 1)
        self._assert_at_most(counts - in_oracle, spec, 1)
        assert (counts - in_oracle)[spec.g] == 1


class TestCompareFields:
    def test_identical_fields(self):
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        a = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
        assert compare_fields(a, a) == 0.0

    def test_unit_gap(self):
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        a = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
        b = GridField(grid=grid, values=np.ones((grid.nt + 1, grid.n_nodes)))
        assert compare_fields(a, b, norm="sup") == 1.0
        assert compare_fields(a, b, norm="L2") == 1.0

    def test_bad_norm(self):
        bench = load_bench("allzero", coarse=True)
        grid = bench.grid
        a = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
        with pytest.raises(ValueError):
            compare_fields(a, a, norm="L7")
