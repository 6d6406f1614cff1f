from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from ctrlstop.benches import load_bench
from ctrlstop.grid import Grid, GridField
from ctrlstop.kernel import Penalty, truncate_data
from ctrlstop.model import parse_config_text
from ctrlstop.simulate import (
    FeedbackStrategy,
    PathConfig,
    SimulationError,
    saddle_probe,
    simulate_paths,
    simulate_penalized,
    simulate_recursive,
)


@pytest.fixture(scope="module")
def const1():
    bench = load_bench("const1", coarse=True)
    grid = Grid(d=1, m=6.0, nx=241, nt=100, T=bench.spec.T)
    data = truncate_data(bench.spec, 6.0)
    ones = GridField(grid=grid, values=np.ones((grid.nt + 1, grid.n_nodes)))
    return bench.spec, data, ones


@pytest.fixture(scope="module")
def allzero():
    bench = load_bench("allzero", coarse=True)
    grid = bench.grid
    data = truncate_data(bench.spec, grid.m)
    zeros = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
    return bench.spec, data, zeros


CFG = PathConfig(n_paths=1000, n_steps=100, rng_seed=42)


def strategies(spec, field, pen, data=None, **kw):
    def make(mode, **extra):
        return FeedbackStrategy(spec=spec, mode=mode, field=field, pen=pen, data=data, **extra)

    return make


class TestOriginalGame:
    def test_zero_data_idle_is_exactly_zero(self, allzero):
        spec, data, zeros = allzero
        make = strategies(spec, zeros, Penalty(0.25))
        est = simulate_paths(spec, (0.0, [0.0]), make("controller_idle"), make("stopper_never"), CFG)
        assert est.mean == 0.0 and est.std_error == 0.0
        assert est.breakdown == {"terminal": 0.0, "running": 0.0, "control_cost": 0.0}

    def test_const1_deterministic_unit_payoff(self, const1):
        spec, data, ones = const1
        make = strategies(spec, ones, Penalty(0.25))
        est = simulate_paths(
            spec, (0.0, [0.0]), make("controller_idle"), make("stopper_tau_star", band=0.02), CFG
        )
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_constant_push_cost_closed_form(self, const1):
        # on u = 1 - 2 x1, |grad u| = 2 > f = 1, so psi' = 1/eps = 4 and the
        # optimal push is 2 * 4 * 2 = 16 along +e1; scaled to c = 0.4, with
        # r=0, f=1, g=1 and no early stop: payoff = 1 + c (T - t0)
        spec, data, ones = const1
        grid = ones.grid
        slope = GridField(grid=grid, values=np.tile(1.0 - 2.0 * grid.points()[0], (grid.nt + 1, 1)))
        make = strategies(spec, slope, Penalty(0.25))
        est = simulate_paths(
            spec,
            (0.0, [0.0]),
            make("controller_opt", scale=0.025),
            make("stopper_never"),
            CFG,
        )
        assert est.mean == pytest.approx(1.0 + 0.4 * spec.T, abs=1e-10)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_sums_to_mean(self):
        bench = load_bench("bench_ou", coarse=True)
        grid = Grid(d=1, m=6.0, nx=121, nt=50, T=bench.spec.T)
        field = GridField(grid=grid, values=np.full((grid.nt + 1, grid.n_nodes), 0.5))
        make = strategies(bench.spec, field, Penalty(0.25))
        est = simulate_paths(
            bench.spec, (0.0, [1.0]), make("controller_idle"), make("stopper_never"), CFG
        )
        total = sum(est.breakdown.values())
        assert est.mean == pytest.approx(total, abs=1e-12)

    def test_reproducibility_bit_identical(self, const1):
        spec, data, ones = const1
        make = strategies(spec, ones, Penalty(0.25))
        runs = [
            simulate_paths(
                spec,
                (0.0, [0.3]),
                make("controller_idle"),
                make("stopper_fixed", fixed_time=0.2),
                PathConfig(n_paths=500, n_steps=64, rng_seed=7),
            )
            for _ in range(2)
        ]
        assert runs[0].mean == runs[1].mean
        assert runs[0].std_error == runs[1].std_error

    def test_exploding_dynamics_rejected(self):
        cfg_text = """
dim = 1
horizon = 0.5
rate = 0
drift[1] = x1^7
sigma[1][1] = 1
f = 1
g = 1
h = 0
"""
        spec, _, _ = parse_config_text(cfg_text)
        grid = Grid(d=1, m=4.0, nx=41, nt=20, T=0.5)
        ones = GridField(grid=grid, values=np.ones((grid.nt + 1, grid.n_nodes)))
        make = strategies(spec, ones, Penalty(0.25))
        with pytest.raises(SimulationError, match="rejected"):
            simulate_paths(
                spec,
                (0.0, [2.5]),
                make("controller_idle"),
                make("stopper_never"),
                PathConfig(n_paths=200, n_steps=400, rng_seed=1),
            )

    def test_exit_fraction_flags_invalid(self, const1):
        spec, data, _ = const1
        tiny = Grid(d=1, m=0.5, nx=11, nt=20, T=spec.T)
        field = GridField(grid=tiny, values=np.ones((tiny.nt + 1, tiny.n_nodes)))
        make = strategies(spec, field, Penalty(0.25))
        est = simulate_paths(
            spec,
            (0.0, [0.45]),
            make("controller_opt"),
            make("stopper_never"),
            PathConfig(n_paths=500, n_steps=100, rng_seed=5),
        )
        assert est.metadata["exit_fraction"] > 0.05
        assert not est.valid

    def test_exit_fraction_counts_the_stoppers_exits(self, const1):
        """stopper_tau_star reads the field on every path, also outside its
        box, so the exits count under an idle controller too (they read 0);
        with neither a controller_opt nor a stopper_tau_star no run reads the
        field, and none counts."""
        spec, data, _ = const1
        tiny = Grid(d=1, m=0.5, nx=11, nt=20, T=spec.T)
        field = GridField(grid=tiny, values=np.ones((tiny.nt + 1, tiny.n_nodes)))
        make = strategies(spec, field, Penalty(0.25))
        cfg = PathConfig(n_paths=500, n_steps=100, rng_seed=5)
        idle = make("controller_idle")
        reading = simulate_paths(spec, (0.0, [0.45]), idle, make("stopper_tau_star", band=-0.5), cfg)
        assert reading.metadata["stopped_paths"] == 0
        assert reading.metadata["exit_fraction"] > 0.05 and not reading.valid
        blind = simulate_paths(spec, (0.0, [0.45]), idle, make("stopper_never"), cfg)
        assert blind.metadata["exit_fraction"] == 0.0 and blind.valid
        assert (blind.mean, blind.std_error) == (reading.mean, reading.std_error)

    def test_nan_node_rejects_the_paths_that_read_it(self, const1):
        """A NaN node near the start gives the paths that sample it a NaN
        push, which the move rejects: over the 1% budget, SimulationError
        (a later feedback substep used to sample the field at the NaN pushed
        point and fail with an IndexError)."""
        spec, data, ones = const1
        values = np.tile(0.1 * ones.grid.points()[0], (ones.grid.nt + 1, 1))
        values[:, np.argmin(np.abs(ones.grid.axis - 0.5))] = np.nan
        field = GridField(grid=ones.grid, values=values)
        make = strategies(spec, field, Penalty(0.25), data=data)
        with pytest.raises(SimulationError, match="rejected"):
            simulate_paths(spec, (0.0, [0.5]), make("controller_opt"), make("stopper_never"), CFG)


class TestPenalizedGame:
    def test_zero_data_zero(self, allzero):
        spec, data, zeros = allzero
        pen = Penalty(0.25)
        make = strategies(spec, zeros, pen, data=data)
        est = simulate_penalized(
            spec, data, pen, 0.25, (0.0, [0.0]), make("controller_idle"), 0.0, CFG
        )
        assert est.mean == 0.0

    def test_const1_exact_identities(self, const1):
        spec, data, ones = const1
        pen = Penalty(0.125)
        make = strategies(spec, ones, pen, data=data)
        opt = make("controller_opt")
        rec = simulate_recursive(spec, data, pen, 0.125, (0.0, [0.0]), opt, CFG)
        assert rec.mean == pytest.approx(1.0, abs=1e-12)
        assert rec.std_error == pytest.approx(0.0, abs=1e-12)
        pen_est = simulate_penalized(spec, data, pen, 0.125, (0.0, [0.0]), opt, "w_star", CFG)
        assert pen_est.mean == pytest.approx(1.0, abs=1e-12)

    def test_flat_intensity_matches_recursive_when_field_below_obstacle(self, const1):
        # with u <= g_m along the paths the two integrands coincide pathwise
        spec, data, ones = const1
        pen = Penalty(0.125)
        make = strategies(spec, ones, pen, data=data)
        idle = make("controller_idle")
        a = simulate_penalized(spec, data, pen, 0.125, (0.0, [0.0]), idle, 1.0 / 0.125, CFG)
        b = simulate_recursive(spec, data, pen, 0.125, (0.0, [0.0]), idle, CFG)
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_zero_intensity_reduces_to_plain_discount(self):
        # constant payoff with r > 0: no stopping, payoff e^{-r T} g exactly
        cfg_text = """
dim = 1
horizon = 0.3
rate = 0.2
drift[1] = -x1
sigma[1][1] = 1
f = 1
g = 1
h = 0
"""
        spec, _, _ = parse_config_text(cfg_text)
        grid = Grid(d=1, m=8.0, nx=161, nt=60, T=0.3)
        data = truncate_data(spec, 8.0)
        ones = GridField(grid=grid, values=np.ones((grid.nt + 1, grid.n_nodes)))
        pen = Penalty(0.25)
        make = strategies(spec, ones, pen, data=data)
        est = simulate_penalized(
            spec, data, pen, 0.25, (0.0, [0.0]), make("controller_idle"), 0.0, CFG
        )
        assert est.mean == pytest.approx(np.exp(-0.2 * 0.3), abs=1e-12)
        assert est.metadata["min_R"] >= np.exp(-0.2 * 0.3) - 1e-12

    def test_intensity_range_enforced(self, const1):
        spec, data, ones = const1
        pen = Penalty(0.125)
        make = strategies(spec, ones, pen, data=data)
        with pytest.raises(SimulationError, match="intensity"):
            simulate_penalized(
                spec, data, pen, 0.125, (0.0, [0.0]), make("controller_idle"), 100.0, CFG
            )

    @pytest.mark.parametrize("intensity", [np.nan, lambda t, x, u: np.full(x.shape[1], np.nan)], ids=["float", "callable"])
    def test_nan_intensity_is_refused(self, const1, intensity):
        # NaN compares false, so it passed the range check and gave mean = nan
        spec, data, ones = const1
        pen = Penalty(0.125)
        make = strategies(spec, ones, pen, data=data)
        with pytest.raises(SimulationError, match="intensity"):
            simulate_penalized(
                spec, data, pen, 0.125, (0.0, [0.0]), make("controller_idle"), intensity, CFG
            )

    def test_discount_stays_in_unit_interval(self, const1):
        spec, data, ones = const1
        pen = Penalty(0.125)
        make = strategies(spec, ones, pen, data=data)
        est = simulate_penalized(
            spec, data, pen, 0.125, (0.0, [0.0]), make("controller_idle"), "w_star", CFG
        )
        assert 0.0 < est.metadata["min_R"] <= 1.0

    @pytest.mark.parametrize("simulator", ["penalized", "recursive"])
    def test_recursive_needs_field(self, allzero, simulator):
        spec, data, _ = allzero
        pen = Penalty(0.25)
        bare = FeedbackStrategy(spec=spec, mode="controller_idle", pen=pen, data=data)
        with pytest.raises(ValueError, match="field"):
            if simulator == "penalized":
                simulate_penalized(spec, data, pen, 0.25, (0.0, [0.0]), bare, "w_star", CFG)
            else:
                simulate_recursive(spec, data, pen, 0.25, (0.0, [0.0]), bare, CFG)


@pytest.mark.parametrize("simulator", ["paths", "penalized", "recursive"])
@pytest.mark.parametrize(
    "start, match",
    [
        ((0.0, [0.0, 0.0]), "dimension"),
        ((0.5, [0.0]), "horizon"),
        ((-1.0, [0.0]), ">= 0"),
        ((float("nan"), [0.0]), ">= 0"),
        ((0.0, [float("inf")]), "finite"),
    ],
)
def test_start_point_checked(const1, simulator, start, match):
    spec, data, ones = const1
    pen = Penalty(0.125)
    make = strategies(spec, ones, pen, data=data)
    idle = make("controller_idle")
    run = {
        "paths": lambda: simulate_paths(spec, start, idle, make("stopper_never"), CFG),
        "penalized": lambda: simulate_penalized(spec, data, pen, 0.125, start, idle, 0.0, CFG),
        "recursive": lambda: simulate_recursive(spec, data, pen, 0.125, start, idle, CFG),
    }[simulator]
    with pytest.raises(ValueError, match=match):
        run()


@pytest.mark.parametrize("name, value", [("feedback_substeps", 0), ("feedback_substeps", -3)])
def test_path_config_needs_a_substep(name, value):
    # non-positive substeps were quietly read as 1
    with pytest.raises(ValueError, match="must be >= 1"):
        PathConfig(n_paths=8, n_steps=4, **{name: value})


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
def test_path_config_needs_a_philox_seed(seed):
    # a negative seed ended in Philox's ValueError at the first draw, or ran
    # when every path stopped before it
    with pytest.raises(ValueError, match="seed must be an integer"):
        PathConfig(n_paths=8, n_steps=4, rng_seed=seed)
    assert PathConfig(n_paths=8, n_steps=4, rng_seed=2**64 - 1).rng_seed == 2**64 - 1


def test_unknown_mode_fails_at_construction(const1):
    spec, data, ones = const1
    make = strategies(spec, ones, Penalty(0.25))
    # a misspelled controller used to run silently when every path stops at step 0
    for mode in (
        "controller_perturbd",
        "controller_perturbed",
        "controller_delayed",
        "controller_push",
        "controller_jump",
        "stopper_w_star",
    ):
        with pytest.raises(ValueError, match="unknown strategy mode"):
            simulate_paths(
                spec, (0.0, [0.0]), make(mode), make("stopper_fixed", fixed_time=0), CFG
            )


@pytest.mark.parametrize(
    "mode, missing",
    [
        ("controller_opt", {"field": None}),
        ("controller_opt", {"pen": None}),
        ("stopper_tau_star", {"field": None}),
        ("stopper_fixed", {"fixed_time": None}),
        ("stopper_fixed", {"fixed_time": float("nan")}),
        ("controller_opt", {"scale": float("nan")}),
        ("controller_opt", {"scale": float("inf")}),
        ("controller_opt", {"scale": -0.5}),
        ("controller_opt", {"delay": float("nan")}),
        ("controller_opt", {"delay": -0.1}),
        ("stopper_tau_star", {"band": float("nan")}),
        ("stopper_tau_star", {"band": float("inf")}),
    ],
    ids=[
        "opt_no_field",
        "opt_no_pen",
        "tau_star_no_field",
        "fixed_none",
        "fixed_nan",
        "scale_nan",
        "scale_inf",
        "scale_negative",
        "delay_nan",
        "delay_negative",
        "band_nan",
        "band_inf",
    ],
)
def test_mode_inputs_are_checked_at_construction(const1, mode, missing):
    # these used to fail mid-run (TypeError, AttributeError), for a NaN
    # fixed_time never to stop, and for a NaN delay to switch the closed-form
    # Hamiltonian off
    spec, data, ones = const1
    kw = {"field": ones, "pen": Penalty(0.25), "fixed_time": 0.1, **missing}
    with pytest.raises(ValueError, match="needs"):
        FeedbackStrategy(spec=spec, mode=mode, **kw)


def test_saddle_probe_plays_every_mode(const1, monkeypatch):
    """Each mode of MODES has a reader: the default saddle probes play all of
    them, and no other."""
    import ctrlstop.simulate as simulate_mod
    from ctrlstop.simulate import MODES, PayoffEstimate

    played = set()

    def record(spec, start, runs, payoff):
        # the modes of the runs the path engine receives
        played.update(mode for run in runs for mode in (run.ctrl.mode, run.stopper.mode))
        return [
            PayoffEstimate(mean=1.0, std_error=0.0, n_paths=run.cfg.n_paths, breakdown={})
            for run in runs
        ]

    monkeypatch.setattr(simulate_mod, "_run_paths", record)
    spec, data, ones = const1
    saddle_probe(spec, ones, Penalty(0.25), (0.0, [0.0]), CFG)
    assert played == set(MODES)


@pytest.mark.parametrize(
    "ctrl, stop, match",
    [
        ("stopper_never", "stopper_fixed", "needs a controller mode"),
        ("controller_idle", "controller_opt", "needs a stopper mode"),
    ],
)
def test_strategy_roles_are_checked(const1, ctrl, stop, match):
    spec, data, ones = const1
    make = strategies(spec, ones, Penalty(0.25))
    # a role mix-up used to run silently when every path stops at step 0
    with pytest.raises(ValueError, match=match):
        simulate_paths(spec, (0.0, [0.0]), make(ctrl), make(stop, fixed_time=0), CFG)


class TestFeedbackContract:
    def test_controller_opt_unit_direction_and_nonnegative_rate(self, const1):
        spec, data, ones = const1
        # a field with slope: u = x -> grad u = 1, so the push has unit
        # direction and rate 2 psi'(1 - f^2) >= 0
        grid = ones.grid
        vals = np.tile(grid.points()[0], (grid.nt + 1, 1))
        field = GridField(grid=grid, values=vals)
        strat = FeedbackStrategy(
            spec=spec, mode="controller_opt", field=field, pen=Penalty(0.25), data=data
        )
        xs = np.linspace(-3, 3, 17)[None, :]
        nvec, rate = strat.control(0.0, 0.0, xs)
        norms = np.sqrt(np.sum(nvec**2, axis=0))
        np.testing.assert_allclose(norms, 1.0)
        assert np.all(rate >= 0.0)
        # inside the core f_m = f = 1 and |grad u| = 1: penalty slope vanishes
        inner = np.abs(xs[0]) <= 4.0
        np.testing.assert_allclose(rate[inner], 0.0, atol=1e-12)

    def test_rate_zero_where_slope_zero(self, const1):
        spec, data, ones = const1
        strat = FeedbackStrategy(
            spec=spec, mode="controller_opt", field=ones, pen=Penalty(0.25), data=data
        )
        xs = np.zeros((1, 5))
        nvec, rate = strat.control(0.0, 0.0, xs)
        np.testing.assert_allclose(rate, 0.0)
        np.testing.assert_allclose(np.sqrt(np.sum(nvec**2, axis=0)), 1.0)


@pytest.fixture(scope="module")
def ou_solved():
    """Coarse bench_ou field at eps = delta = 1/8, rounded to 1e-9 so that the
    golden estimates below pin the simulators, not the solver's last bits."""
    from ctrlstop.solver import TruncatedProblem, solve_penalized

    bench = load_bench("bench_ou", coarse=True)
    data = truncate_data(bench.spec, bench.grid.m)
    pen = Penalty(0.125)
    point = solve_penalized(TruncatedProblem(bench.grid, data), pen, 0.125, tol=1e-8)
    field = GridField(grid=bench.grid, values=np.round(point.field.values, 9))
    return bench.spec, data, pen, field


# (mean, std_error) as float.hex of 400-path, 40-step runs with seed 5 (or SEEDS)
GOLDEN = {
    "paths_opt_tau_star": ("0x1.48dcacef8a41bp-1", "0x1.60f81d7408b72p-8"),
    "paths_opt_fixed": ("0x1.22565cc70d6e8p-1", "0x1.7bb2d576908cbp-10"),
    "penalized_w_star": ("0x1.6389a3f86d238p-5", "0x1.77505988ecf22p-9"),
    "penalized_callable": ("0x1.468341f552b34p-1", "0x1.7d3d37b779eb3p-8"),
    "recursive": ("0x1.62363bfe47c00p-5", "0x1.186e63f2ea98cp-10"),
    "recursive_core": ("0x1.4ab7dfccb1fffp-1", "0x1.48ca251b35212p-9"),
    "paths_tau_star_rejected": ("0x1.4981bd812cbe7p-1", "0x1.6208ba9bf2186p-8"),
    "penalized_rejected": ("0x1.8e8bbc69f6fbbp-1", "0x1.4145009a50d3dp-7"),
}

# The *_rejected cases move under the bench_ou data with a drift that blows
# up past x1 = 1.3: paths stop at many different steps and a few leave the
# finite floats mid-run, so the engine's bookkeeping of the alive paths
# (draws, stops, rejections) is pinned.  Rejected paths per case, and the
# seed of each case other than 5 (seed 5 rejects none of the tau_star case's
# paths):
REJECTED = {"paths_tau_star_rejected": 4, "penalized_rejected": 1}
SEEDS = {"paths_tau_star_rejected": 7}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fixed_seed_estimates_are_golden(ou_solved, case):
    spec, data, pen, field = ou_solved
    make = strategies(spec, field, pen, data=data)
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=SEEDS.get(case, 5))

    def intensity(t, x, u):
        return np.where(u <= 0.3, 4.0, 0.0)

    text = resources.files("ctrlstop.configs").joinpath("bench_ou.cfg").read_text()
    explosive = parse_config_text(
        text.replace("drift[1] = -x1", "drift[1] = -x1 + max(0, x1 - 1.3)^4000")
    )[0]
    wild = strategies(explosive, field, pen, data=data)

    run = {
        "paths_opt_tau_star": lambda: simulate_paths(
            spec, (0.0, [1.0]), make("controller_opt"), make("stopper_tau_star", band=0.01), cfg
        ),
        "paths_opt_fixed": lambda: simulate_paths(
            spec,
            (0.1, [-0.5]),
            make("controller_opt"),
            make("stopper_fixed", fixed_time=0.2),
            cfg,
        ),
        "penalized_w_star": lambda: simulate_penalized(
            spec, data, pen, 0.125, (0.0, [5.9]), make("controller_opt"), "w_star", cfg
        ),
        "penalized_callable": lambda: simulate_penalized(
            spec,
            data,
            pen,
            0.125,
            (0.0, [1.0]),
            make("controller_opt", scale=0.5),
            intensity,
            cfg,
        ),
        "recursive": lambda: simulate_recursive(
            spec, data, pen, 0.125, (0.0, [5.9]), make("controller_opt"), cfg
        ),
        "recursive_core": lambda: simulate_recursive(
            spec, data, pen, 0.125, (0.2, [-1.2]), make("controller_opt", flip=True), cfg
        ),
        "paths_tau_star_rejected": lambda: simulate_paths(
            explosive,
            (0.0, [1.0]),
            wild("controller_opt"),
            wild("stopper_tau_star", band=0.0),
            cfg,
        ),
        "penalized_rejected": lambda: simulate_penalized(
            explosive, data, pen, 0.125, (0.0, [1.5]), wild("controller_opt"), "w_star", cfg
        ),
    }[case]
    est = run()
    assert (est.mean.hex(), est.std_error.hex()) == GOLDEN[case]
    if case in REJECTED:
        assert est.metadata["rejected_paths"] == REJECTED[case]


@pytest.mark.parametrize("simulator", ["paths", "penalized", "recursive"])
def test_delay_past_the_horizon_is_idle(ou_solved, simulator):
    spec, data, pen, field = ou_solved
    make = strategies(spec, field, pen, data=data)
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5)

    def run(ctrl):
        return {
            "paths": lambda: simulate_paths(
                spec, (0.0, [1.0]), ctrl, make("stopper_tau_star", band=0.01), cfg
            ),
            "penalized": lambda: simulate_penalized(
                spec, data, pen, 0.125, (0.0, [1.0]), ctrl, "w_star", cfg
            ),
            "recursive": lambda: simulate_recursive(spec, data, pen, 0.125, (0.0, [1.0]), ctrl, cfg),
        }[simulator]()

    late, idle = run(make("controller_opt", delay=2 * spec.T)), run(make("controller_idle"))
    assert (late.mean, late.std_error, late.breakdown) == (idle.mean, idle.std_error, idle.breakdown)


# (name, side, payoff, std_error, passed) of the twelve default probes at
# (0, [1.0]); payoff and std_error as float.hex
SADDLE_GOLDEN = [
    ("tau_star", "stopper", "0x1.462d8270d0fb1p-1", "0x1.4f236a359ca46p-8", True),
    ("immediate", "stopper", "0x1.07e63c303b3e3p-1", "0x1.9a1ceb13f2860p-58", True),
    ("never", "stopper", "0x1.44e519aba25aep-1", "0x1.57acb401703c2p-8", True),
    ("fixed_quarter", "stopper", "0x1.17f5c9f2f560ep-1", "0x1.aae993f61c45bp-10", True),
    ("fixed_half", "stopper", "0x1.2a63a6cc738bdp-1", "0x1.2de507e337126p-9", True),
    ("wide_band", "stopper", "0x1.2ff98407e6271p-1", "0x1.080bb926b7ea1p-8", True),
    ("opt", "controller", "0x1.44bcd993d0044p-1", "0x1.5ef3cff279433p-8", True),
    ("idle", "controller", "0x1.44b25b681658dp-1", "0x1.55f19dec819b5p-8", True),
    ("half_rate", "controller", "0x1.45b46497b6ef4p-1", "0x1.3efb30f63d4eep-8", True),
    ("double_rate", "controller", "0x1.409a8ada7c40cp-1", "0x1.25899e192d862p-8", True),
    ("flipped", "controller", "0x1.45c38145ba7e6p-1", "0x1.4a5763debe1cfp-8", True),
    ("delayed", "controller", "0x1.42770c950fd44p-1", "0x1.3d0becc7ae6f8p-8", True),
]


def test_saddle_probe_is_golden(ou_solved):
    spec, data, pen, field = ou_solved
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5, feedback_substeps=8)
    results = saddle_probe(spec, field, pen, (0.0, [1.0]), cfg, band=0.01, data=data)
    got = [(r.name, r.side, r.payoff.hex(), r.std_error.hex(), r.passed) for r in results]
    assert got == SADDLE_GOLDEN


@pytest.fixture(scope="module")
def ou2d_solved():
    """The 2-D OU_IN_X1 data of test_solver on Grid(d=2, m=6, nx=61, nt=50)
    at eps = delta = 1/16, rounded to 1e-9 like ou_solved."""
    from ctrlstop.solver import TruncatedProblem, solve_penalized

    from test_solver import TestTwoDimensional

    spec, _, _ = parse_config_text(TestTwoDimensional.OU_IN_X1)
    grid = Grid(d=2, m=6.0, nx=61, nt=50, T=0.2)
    data = truncate_data(spec, 6.0)
    pen = Penalty(1 / 16)
    point = solve_penalized(TruncatedProblem(grid, data), pen, 1 / 16, tol=1e-8)
    field = GridField(grid=grid, values=np.round(point.field.values, 9))
    return spec, data, pen, field


# (mean, std_error) as float.hex of 400-path, 40-step 2-D runs with seed 5
# and 8 feedback substeps; the penalized and recursive runs start near the
# ball's edge, so many of their paths exit
GOLDEN_2D = {
    "paths_opt_tau_star": ("0x1.2f857d219eb60p-1", "0x1.40f46c2a796cep-9"),
    "penalized_w_star": ("0x1.79aac44d46afap-3", "0x1.3d6e686d14ce6p-8"),
    "recursive": ("0x1.992f6c123f56ep-2", "0x1.158133cc4afb6p-8"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_2D))
def test_fixed_seed_2d_estimates_are_golden(ou2d_solved, case):
    spec, data, pen, field = ou2d_solved
    make = strategies(spec, field, pen, data=data)
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5, feedback_substeps=8)
    run = {
        "paths_opt_tau_star": lambda: simulate_paths(
            spec, (0.0, [1.2, -0.4]), make("controller_opt"), make("stopper_tau_star", band=0.01), cfg
        ),
        "penalized_w_star": lambda: simulate_penalized(
            spec, data, pen, 1 / 16, (0.0, [3.0, 4.9]), make("controller_opt"), "w_star", cfg
        ),
        "recursive": lambda: simulate_recursive(
            spec, data, pen, 1 / 16, (0.05, [-2.0, -5.2]), make("controller_opt"), cfg
        ),
    }[case]
    est = run()
    assert (est.mean.hex(), est.std_error.hex()) == GOLDEN_2D[case]


def _probe_strategies(spec, field, pen, data, band, horizon):
    """The default probes of saddle_probe as (side, name, seed offset,
    controller, stopper), built anew."""
    make = strategies(spec, field, pen, data=data)
    opt, tau_star = make("controller_opt"), make("stopper_tau_star", band=band)
    stoppers = [
        ("tau_star", tau_star),
        ("immediate", make("stopper_fixed", fixed_time=0.0)),
        ("never", make("stopper_never")),
        ("fixed_quarter", make("stopper_fixed", fixed_time=0.25 * horizon)),
        ("fixed_half", make("stopper_fixed", fixed_time=0.5 * horizon)),
        ("wide_band", make("stopper_tau_star", band=5 * band)),
    ]
    controllers = [
        ("opt", opt),
        ("idle", make("controller_idle")),
        ("half_rate", make("controller_opt", scale=0.5)),
        ("double_rate", make("controller_opt", scale=2.0)),
        ("flipped", make("controller_opt", flip=True)),
        ("delayed", make("controller_opt", delay=0.5 * horizon)),
    ]
    return [("stopper", name, 1000 + i, opt, stop) for i, (name, stop) in enumerate(stoppers)] + [
        ("controller", name, 2000 + i, ctrl, tau_star) for i, (name, ctrl) in enumerate(controllers)
    ]


def test_probe_seeds_wrap_around_64_bits(ou_solved):
    """PathConfig takes any seed below 2**64, and saddle_probe's seed
    offsets wrap around it: from the largest seed, each probe runs on its
    offset - 1 (the probe's PathConfig used to refuse the sum)."""
    spec, data, pen, field = ou_solved
    cfg = PathConfig(n_paths=40, n_steps=8, rng_seed=2**64 - 1)
    results = saddle_probe(spec, field, pen, (0.0, [1.0]), cfg, band=0.01, data=data)
    probes = _probe_strategies(spec, field, pen, data, 0.01, spec.T)
    for r, (_, _, offset, ctrl, stop) in zip(results, probes):
        alone = simulate_paths(spec, (0.0, [1.0]), ctrl, stop, replace(cfg, rng_seed=offset - 1))
        assert (r.payoff, r.std_error) == (alone.mean, alone.std_error), r.name
    assert len({r.payoff for r in results}) > 2


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_probes_are_their_standalone_runs(ou_solved, ou2d_solved, dim):
    """saddle_probe runs its probes as batches of the path engine; each
    probe's estimate and metadata equal those of a standalone simulate_paths
    run with the same controller, stopper and seed, bit for bit."""
    spec, data, pen, field = ou_solved if dim == 1 else ou2d_solved
    start = (0.0, [1.0]) if dim == 1 else (0.0, [1.2, -0.4])
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5, feedback_substeps=8)
    results = saddle_probe(spec, field, pen, start, cfg, band=0.01, data=data)
    probes = _probe_strategies(spec, field, pen, data, 0.01, spec.T)
    assert [(r.side, r.name) for r in results] == [(side, name) for side, name, *_ in probes]
    for r, (_, _, offset, ctrl, stop) in zip(results, probes):
        est = simulate_paths(spec, start, ctrl, stop, PathConfig(
            n_paths=400, n_steps=40, rng_seed=5 + offset, feedback_substeps=8
        ))
        assert (r.payoff.hex(), r.std_error.hex()) == (est.mean.hex(), est.std_error.hex()), r.name
        assert r.metadata == est.metadata, r.name


@pytest.mark.parametrize("dim", [1, 2])
def test_idle_controller_is_the_same_at_any_substep_count(ou_solved, ou2d_solved, dim):
    """controller_idle never moves a path and books +0.0 for its control, so
    its estimate and metadata are the same at 1 and at 8 feedback substeps;
    saddle_probe runs it in the batch of the pushing controllers."""
    spec, data, pen, field = ou_solved if dim == 1 else ou2d_solved
    make = strategies(spec, field, pen, data=data)
    start = (0.0, [1.0]) if dim == 1 else (0.0, [1.2, -0.4])
    one, eight = (
        simulate_paths(
            spec,
            start,
            make("controller_idle"),
            make("stopper_tau_star", band=0.01),
            PathConfig(n_paths=400, n_steps=40, rng_seed=5, feedback_substeps=nsub),
        )
        for nsub in (1, 8)
    )
    assert (eight.mean.hex(), eight.std_error.hex()) == (one.mean.hex(), one.std_error.hex())
    assert eight.breakdown == one.breakdown and eight.metadata == one.metadata
    assert one.metadata["stopped_paths"] > 0 and one.breakdown["control_cost"] == 0.0


@pytest.mark.parametrize("n_paths, batches", [(400, [12]), (20_000, [1] * 12)])
def test_saddle_probes_run_as_few_batches(ou_solved, monkeypatch, n_paths, batches):
    """The twelve default probes run in probe order as batches of at most
    _MAX_BATCH_PATHS paths, whatever their controller, each with the
    configured substeps: one batch at 400 paths, and one per probe at
    criterion 09's 20,000 paths (counted on a stand-in engine, which runs no
    path)."""
    import ctrlstop.simulate as simulate_mod
    from ctrlstop.simulate import PayoffEstimate

    spec, data, pen, field = ou_solved
    calls, plain = [], simulate_mod._run_paths

    def run_paths(spec, start, runs, payoff):
        calls.append((len(runs), payoff.nsub))
        if n_paths == 400:
            return plain(spec, start, runs, payoff)
        return [PayoffEstimate(mean=0.6, std_error=0.0, n_paths=n_paths, breakdown={}) for _ in runs]

    monkeypatch.setattr(simulate_mod, "_run_paths", run_paths)
    cfg = PathConfig(n_paths=n_paths, n_steps=40, rng_seed=5, feedback_substeps=8)
    results = saddle_probe(spec, field, pen, (0.0, [1.0]), cfg, band=0.01, data=data)
    assert calls == [(size, 8) for size in batches]
    assert len(results) == 12


def _explosive_runs(ou_solved, start, plan):
    """Standalone simulate_paths estimates (or SimulationErrors) and one batch
    on the explosive-drift spec of test_path_counts_add_up; plan lists each
    run's (stopper, seed), and batch(rule) takes the payoff rule
    rule(spec, nsub, box) on the field's box."""
    from ctrlstop.simulate import _OriginalPayoff, _Run, _run_paths

    spec, data, pen, field = ou_solved
    text = resources.files("ctrlstop.configs").joinpath("bench_ou.cfg").read_text()
    explosive = parse_config_text(
        text.replace("drift[1] = -x1", "drift[1] = -x1 + max(0, x1 - 1.3)^4000")
    )[0]
    wild = strategies(explosive, field, pen, data=data)
    stoppers = {
        "tau_star": wild("stopper_tau_star", band=0.0),
        "never": wild("stopper_never"),
        "fixed": wild("stopper_fixed", fixed_time=0.1),
        "immediate": wild("stopper_fixed", fixed_time=0.0),
    }
    opt = wild("controller_opt")
    runs = [_Run(PathConfig(n_paths=400, n_steps=40, rng_seed=seed), opt, stoppers[stop]) for stop, seed in plan]
    alone = []
    for run in runs:
        try:
            alone.append(simulate_paths(explosive, start, run.ctrl, run.stopper, run.cfg))
        except SimulationError as exc:
            alone.append(exc)

    def batch(rule=_OriginalPayoff):
        return _run_paths(explosive, start, runs, rule(explosive, 4, field.grid.m))

    return alone, batch


def test_batched_path_counts_are_their_standalone_counts(ou_solved):
    """In a batch whose runs stop at many different steps and lose paths to
    the floats, each run counts its own stopped, horizon and rejected paths."""
    plan = [("tau_star", 2), ("never", 7), ("fixed", 6), ("tau_star", 7)]
    alone, batch = _explosive_runs(ou_solved, (0.0, [1.0]), plan)
    batched = batch()
    assert sum(est.metadata["rejected_paths"] for est in batched) == 12
    for est, ref in zip(batched, alone):
        assert (est.mean, est.std_error) == (ref.mean, ref.std_error)
        assert est.metadata == ref.metadata


@pytest.mark.parametrize("plan", [[("fixed", 5), ("tau_star", 12), ("never", 5)], [("never", 5), ("tau_star", 12)]])
def test_batch_over_budget_raises_its_first_failing_run(ou_solved, plan):
    """Runs 6/400 and 5/400 over the 1% rejection budget: the batch raises
    the message of the first of them in run order."""
    alone, batch = _explosive_runs(ou_solved, (0.0, [1.2]), plan)
    failing = [str(exc) for exc in alone if isinstance(exc, SimulationError)]
    assert len(failing) == 2 and failing[0] != failing[1]
    with pytest.raises(SimulationError) as raised:
        batch()
    assert str(raised.value) == failing[0]


def test_a_run_emptied_at_step_0_leaves_its_neighbours(ou_solved):
    """The immediate stopper empties its run at step 0 (and draws nothing);
    the runs beside it keep their standalone estimates."""
    from ctrlstop.simulate import _OriginalPayoff, _Run, _run_paths

    spec, data, pen, field = ou_solved
    make = strategies(spec, field, pen, data=data)
    opt = make("controller_opt")
    runs = [
        _Run(PathConfig(n_paths=400, n_steps=40, rng_seed=seed, feedback_substeps=4), opt, stop)
        for seed, stop in (
            (3, make("stopper_tau_star", band=0.01)),
            (4, make("stopper_fixed", fixed_time=0.0)),
            (5, make("stopper_never")),
        )
    ]
    batched = _run_paths(spec, (0.0, [1.0]), runs, _OriginalPayoff(spec, 4, field.grid.m))
    assert batched[1].metadata["stopped_paths"] == 400
    for est, run in zip(batched, runs):
        ref = simulate_paths(spec, (0.0, [1.0]), run.ctrl, run.stopper, run.cfg)
        assert (est.mean, est.std_error, est.breakdown) == (ref.mean, ref.std_error, ref.breakdown)


def test_final_records_every_path_once_as_it_leaves(ou_solved):
    """The engine copies each path's entries into final exactly once, at its
    stop or at its rejection: a stand-in rule whose own per-path array holds
    each path's number, and which counts each path's accruals, finds every
    number in its place and every count as of the path's last step, in a
    batch with rejected paths and a run emptied at step 0."""
    from ctrlstop.simulate import _OriginalPayoff

    plan = [("tau_star", 5), ("immediate", 3), ("never", 7), ("fixed", 6)]
    n_all = 400 * len(plan)

    stopped, seen, final = [], np.zeros(n_all + 1, dtype=int), {}

    class Numbered(_OriginalPayoff):
        per_path = {**_OriginalPayoff.per_path, "number": np.arange(1, n_all + 1), "accruals": 0}

        def terminal(self, pts, elapsed, alive, stop):
            stopped.append(alive["number"][stop].copy())
            return super().terminal(pts, elapsed, alive, stop)

        def accrue(self, pts, elapsed, alive, controls, dt):
            alive["accruals"] += 1
            seen[alive["number"]] += 1
            return super().accrue(pts, elapsed, alive, controls, dt)

        def extras(self, engine_final, own, keep):
            final.update({k: v.copy() for k, v in engine_final.items()})
            return super().extras(engine_final, own, keep)

    alone, batch = _explosive_runs(ou_solved, (0.0, [1.0]), plan)
    batched = batch(Numbered)
    n_rej = sum(est.metadata["rejected_paths"] for est in batched)
    assert n_rej > 0 and batched[1].metadata["stopped_paths"] == 400
    assert np.array_equal(final["number"], np.arange(1, n_all + 1))
    assert np.array_equal(final["accruals"], seen[1:])
    stopped = np.concatenate(stopped)
    assert np.unique(stopped).size == stopped.size == n_all - n_rej
    assert np.count_nonzero(final["stopped"]) == sum(est.metadata["stopped_paths"] for est in batched)
    assert not np.any(final["accruals"][400:800])  # the emptied run never accrued
    for est, ref in zip(batched, alone):
        assert (est.mean, est.std_error, est.metadata) == (ref.mean, ref.std_error, ref.metadata)


@pytest.mark.parametrize("n_paths", [3, 7, 2001, 10, 2002])
@pytest.mark.parametrize("d_noise", [1, 2])
def test_draws_skip_the_unread_uniforms(n_paths, d_noise):
    """_draws no longer draws the uniforms a step once drew and never read:
    it yields, step after step, the normals of one
    standard_normal((d_noise, n_paths)) call of a Philox generator keyed by
    the seed, and draws nothing else, over step sizes that leave the 4-value
    buffer at every position."""
    from ctrlstop.simulate import _draws

    cfg = PathConfig(n_paths=n_paths, n_steps=1, rng_seed=31)
    gen = np.random.Generator(np.random.Philox(key=31))
    draws = _draws(cfg, d_noise)
    for _ in range(30):
        assert np.array_equal(next(draws), gen.standard_normal((d_noise, n_paths)))


def _old_control(strat, t, x):
    """controller_opt's direction and rate by the boolean-gather formula the
    feedback used before it wrote the direction with np.divide, with the rate
    read at |grad u|^2 - f^2."""
    grad = strat.field.sample_gradient(t, x)
    outside = np.linalg.norm(x, axis=0) > strat.field.grid.m
    grad[:, outside] = 0.0
    gnorm_sq = np.sum(grad**2, axis=0)
    f_sq = strat.data.f_m_sq(t, x)
    norm = np.sqrt(gnorm_sq)
    direction = np.zeros_like(x)
    direction[0] = 1.0
    pos = norm > 0
    direction[:, pos] = -grad[:, pos] / norm[pos]
    rate = 2.0 * strat.pen.d1(gnorm_sq - f_sq) * norm
    rate *= strat.scale
    if strat.flip:
        direction = -direction
    return direction, rate


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("flip", [False, True])
def test_feedback_direction_is_the_boolean_gather_formula(d, flip):
    """Inside the box, outside it (the controller idles) and where grad u = 0
    the direction and rate equal the old formula bit for bit; where the norm
    is 0 the direction is +e1, or -e1 when flipped."""
    from test_solver import TestTwoDimensional

    if d == 1:
        spec = load_bench("bench_ou", coarse=True).spec
    else:
        spec = parse_config_text(TestTwoDimensional.OU_IN_X1)[0]
    grid = Grid(d=d, m=4.0, nx=41, nt=10, T=0.2)
    data = truncate_data(spec, 4.0)
    pts = grid.points()
    # flat (grad u = 0) for x1 < 0.5 and x2 < 1, sloped beyond
    u = np.maximum(pts[0] - 0.5, 0.0) ** 2 + (np.maximum(pts[1] - 1.0, 0.0) if d == 2 else 0.0)
    field = GridField(grid=grid, values=np.tile(u, (grid.nt + 1, 1)))
    strat = FeedbackStrategy(
        spec=spec, mode="controller_opt", field=field, pen=Penalty(1 / 16), data=data, flip=flip
    )
    rng = np.random.default_rng(8)
    x = np.concatenate(
        [
            rng.uniform(-3.5, 3.5, size=(d, 40)),  # inside, sloped or flat
            rng.uniform(-3.0, -1.0, size=(d, 10)),  # flat: grad u = 0
            rng.uniform(4.2, 6.0, size=(d, 10)) * rng.choice([-1.0, 1.0], size=(d, 10)),  # outside
        ],
        axis=1,
    )
    direction, rate = strat.control(0.07, 0.0, x)
    want_direction, want_rate = _old_control(strat, 0.07, x)
    assert np.array_equal(direction, want_direction) and np.array_equal(rate, want_rate)
    norm = np.sqrt(np.sum(field.sample_gradient(0.07, x) ** 2, axis=0))
    idle = (norm == 0) | (np.linalg.norm(x, axis=0) > grid.m)
    assert 15 <= np.count_nonzero(idle) < x.shape[1]
    e1 = np.zeros(d)
    e1[0] = -1.0 if flip else 1.0
    assert np.array_equal(direction[:, idle], np.tile(e1[:, None], (1, np.count_nonzero(idle))))


@pytest.mark.parametrize("simulator", ["paths", "penalized", "recursive"])
def test_each_step_computes_its_geometry_once(ou_solved, monkeypatch, simulator):
    """Per step, the penalized and recursive simulators take |x| once and
    build one sampling plan; simulate_paths with s feedback substeps at most
    s of each (the stop rule shares the first substep's)."""
    import ctrlstop.grid as grid_mod
    import ctrlstop.kernel as kernel_mod
    import ctrlstop.simulate as simulate_mod

    calls = {"radius": 0, "plan": 0}
    plain_radius = kernel_mod._radius

    def radius(x):
        calls["radius"] += 1
        return plain_radius(x)

    class Plan(grid_mod._SamplingPlan):
        def __init__(self, *args):
            calls["plan"] += 1
            super().__init__(*args)

    for mod in (kernel_mod, simulate_mod):
        monkeypatch.setattr(mod, "_radius", radius)
    for mod in (grid_mod, simulate_mod):
        monkeypatch.setattr(mod, "_SamplingPlan", Plan, raising=False)

    spec, data, pen, field = ou_solved
    make = strategies(spec, field, pen, data=data)
    subs, n_steps = 4, 40
    cfg = PathConfig(n_paths=400, n_steps=n_steps, rng_seed=5, feedback_substeps=subs)
    opt = make("controller_opt")
    if simulator == "paths":
        est = simulate_paths(spec, (0.0, [1.0]), opt, make("stopper_tau_star", band=0.01), cfg)
        radii, plans = subs * n_steps, subs * n_steps
    elif simulator == "penalized":
        est = simulate_penalized(spec, data, pen, 0.125, (0.0, [5.9]), opt, "w_star", cfg)
        radii, plans = n_steps + 1, n_steps  # the horizon pays g_m: one more radius
    else:
        est = simulate_recursive(spec, data, pen, 0.125, (0.0, [5.9]), opt, cfg)
        radii, plans = n_steps + 1, n_steps
    assert 0 < calls["radius"] <= radii and 0 < calls["plan"] <= plans
    assert est.metadata["stopped_paths"] > 0


@pytest.mark.parametrize("case", ["paths_tau_star_rejected", "penalized_w_star"])
def test_path_counts_add_up(ou_solved, case):
    """Every launched path is stopped by the rule, reaches the horizon or is
    rejected, exactly once."""
    spec, data, pen, field = ou_solved
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=SEEDS.get(case, 5))
    if case == "penalized_w_star":
        make = strategies(spec, field, pen, data=data)
        est = simulate_penalized(spec, data, pen, 0.125, (0.0, [5.9]), make("controller_opt"), "w_star", cfg)
    else:
        text = resources.files("ctrlstop.configs").joinpath("bench_ou.cfg").read_text()
        explosive = parse_config_text(
            text.replace("drift[1] = -x1", "drift[1] = -x1 + max(0, x1 - 1.3)^4000")
        )[0]
        wild = strategies(explosive, field, pen, data=data)
        est = simulate_paths(
            explosive,
            (0.0, [1.0]),
            wild("controller_opt"),
            wild("stopper_tau_star", band=0.0),
            cfg,
        )
    meta = est.metadata
    assert meta["stopped_paths"] > 0 and meta["horizon_paths"] > 0
    assert meta["stopped_paths"] + meta["horizon_paths"] + meta["rejected_paths"] == cfg.n_paths
    if case == "paths_tau_star_rejected":
        assert meta["rejected_paths"] == REJECTED[case]


@pytest.mark.parametrize("case", ["scaled", "flipped", "delayed", "untruncated_feedback"])
def test_truncated_hamiltonian_samples_f_m_once_per_step(ou_solved, monkeypatch, case):
    """A perturbed optimal feedback samples f_m^2 once per step: the payoff's
    Hamiltonian reuses the f_m^2 that control took from the same truncated
    data.  Where control returned a plain tuple (before its delay) or sampled
    the untruncated f^2, the Hamiltonian samples f_m^2 itself, once."""
    from ctrlstop.kernel import TruncatedData
    from ctrlstop.simulate import _TruncatedPayoff

    spec, data, pen, field = ou_solved
    calls = {"f_m_sq": 0, "hamiltonian": 0}
    plain_f_m_sq, plain_hamiltonian = TruncatedData._f_m_sq, _TruncatedPayoff.hamiltonian

    def f_m_sq(self, *args):
        calls["f_m_sq"] += 1
        return plain_f_m_sq(self, *args)

    def hamiltonian(self, *args):
        calls["hamiltonian"] += 1
        return plain_hamiltonian(self, *args)

    monkeypatch.setattr(TruncatedData, "_f_m_sq", f_m_sq)
    monkeypatch.setattr(_TruncatedPayoff, "hamiltonian", hamiltonian)
    make = strategies(spec, field, pen, data=None if case == "untruncated_feedback" else data)
    ctrl = {
        "scaled": make("controller_opt", scale=0.5),
        "flipped": make("controller_opt", flip=True),
        "delayed": make("controller_opt", delay=0.1),
        "untruncated_feedback": make("controller_opt", scale=0.5),
    }[case]
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5)
    if case == "flipped":
        simulate_recursive(spec, data, pen, 0.125, (0.2, [-1.2]), ctrl, cfg)
    else:
        simulate_penalized(spec, data, pen, 0.125, (0.0, [1.0]), ctrl, "w_star", cfg)
    assert calls["hamiltonian"] > 0
    assert calls["f_m_sq"] == calls["hamiltonian"]  # one per step with paths alive


# (mean, std_error) as float.hex of 400-path, 40-step simulate_penalized runs
# with seed 5 from (0, [1.0]) under feedbacks whose rate is zero on some or
# all paths; recorded before hamiltonian_batch skipped the zero rates
ZERO_RATE_GOLDEN = {
    "delayed": ("0x1.4a6525900aba5p-1", "0x1.6b29030a2f0c6p-8"),
    "idle": ("0x1.4aa3c854fe9f7p-1", "0x1.6ad8906f2e6dbp-8"),
}


@pytest.mark.parametrize("case", sorted(ZERO_RATE_GOLDEN))
def test_zero_rate_estimates_are_golden(ou_solved, case):
    spec, data, pen, field = ou_solved
    make = strategies(spec, field, pen, data=data)
    ctrl = make("controller_idle") if case == "idle" else make("controller_opt", delay=0.1)
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5)
    est = simulate_penalized(spec, data, pen, 0.125, (0.0, [1.0]), ctrl, "w_star", cfg)
    assert (est.mean.hex(), est.std_error.hex()) == ZERO_RATE_GOLDEN[case]


@pytest.mark.parametrize("delta", [1 / 2, 1 / 8, 1 / 16, 1 / 64, 1 / 256])
@pytest.mark.parametrize("dt", [1e-3, 2e-3, 1.25e-2])
def test_two_discount_weights_are_the_per_path_weights(delta, dt):
    """Under w_star the stopper's rate takes two values, and accrue selects
    between two weights; they are the per-path weights bit for bit."""
    from ctrlstop.simulate import _exp_weight

    rng = np.random.default_rng(9)
    w_val = np.where(rng.random(10_000) < 0.4, 1.0 / delta, 0.0)
    for r in (0.05, 0.0):
        lo, hi = _exp_weight(np.array([r, r + 1.0 / delta]), dt)
        assert np.array_equal(np.where(w_val > 0, hi, lo), _exp_weight(r + w_val, dt))


@pytest.fixture(scope="module")
def ou_limit():
    """Last stage (eps = delta = 1/32) of the coarse bench_ou continuation,
    rounded to 1e-9 like ou_solved.  From x1 = 1.5 or 2 a doubled optimal
    push starts and ends inside many steps."""
    from ctrlstop.solver import continuation

    bench = load_bench("bench_ou", coarse=True)
    res = continuation(bench.spec, bench.schedule, bench.grid_policy, tol=1e-8)
    last = res.points[-1]
    field = GridField(grid=bench.grid, values=np.round(last.field.values, 9))
    return bench.spec, truncate_data(bench.spec, bench.grid.m), Penalty(last.eps), field


def _recorded_controls(monkeypatch):
    """Wrap _batch_control; the list it returns gets (elapsed, points, rates,
    directions) of every call."""
    import ctrlstop.simulate as simulate_mod

    calls, plain = [], simulate_mod._batch_control

    def batch_control(runs, spans, keys, ps, elapsed):
        ctl = plain(runs, spans, keys, ps, elapsed)
        calls.append((elapsed, ps.x.copy(), ctl[1].copy(), ctl[0].copy()))
        return ctl

    monkeypatch.setattr(simulate_mod, "_batch_control", batch_control)
    return calls


def _steps(calls):
    """The recorded calls grouped by step, in order."""
    steps = []
    for call in calls:
        if steps and steps[-1][0][0] == call[0]:
            steps[-1].append(call)
        else:
            steps.append([call])
    return steps


# (mean, std_error) as float.hex of 400-path, 5-step runs with seed 5 and 8
# feedback substeps from (0, [x1]) under the doubled optimal feedback on
# ou_limit, never stopped, and the (path, substep) pairs with a nonzero
# rate; recorded while every substep still evaluated every alive path
PUSH_END_GOLDEN = {
    1.5: ("0x1.bd66977fe5012p-1", "0x1.0bca264417f25p-7", 1324),
    2.0: ("0x1.630c9fc6dc0cdp-1", "0x1.65bdfda605b3ap-7", 7109),
}
PUSH_END_CFG = PathConfig(n_paths=400, n_steps=5, rng_seed=5, feedback_substeps=8)


@pytest.mark.parametrize("x1", sorted(PUSH_END_GOLDEN))
def test_pushes_that_end_inside_a_step_are_golden(ou_limit, monkeypatch, x1):
    """Pushed paths that go idle inside a step: later substeps evaluate a
    proper subset of the alive paths, and the estimate keeps its bits."""
    spec, data, pen, field = ou_limit
    make = strategies(spec, field, pen, data=data)
    calls = _recorded_controls(monkeypatch)
    est = simulate_paths(
        spec, (0.0, [x1]), make("controller_opt", scale=2.0), make("stopper_never"), PUSH_END_CFG
    )
    mean, se, pushed = PUSH_END_GOLDEN[x1]
    assert (est.mean.hex(), est.std_error.hex()) == (mean, se)
    assert est.metadata["pushed_path_substeps"] == pushed
    later = [rate for step in _steps(calls) for _, _, rate, _ in step[1:]]
    assert any(0 < rate.size < 400 for rate in later)
    assert any(np.any(rate == 0) for rate in later)  # a push ended inside a step


@pytest.mark.parametrize("nsub", [1, 8])
@pytest.mark.parametrize("x1", sorted(PUSH_END_GOLDEN))
def test_substeps_evaluate_the_pushed_paths(ou_limit, monkeypatch, x1, nsub):
    """At substep s >= 1 the feedback sees exactly the paths whose rate was
    nonzero at substep s - 1, moved by their push, and no call follows a
    substep that pushed none; one substep makes one call per step."""
    spec, data, pen, field = ou_limit
    make = strategies(spec, field, pen, data=data)
    calls = _recorded_controls(monkeypatch)
    cfg = replace(PUSH_END_CFG, feedback_substeps=nsub)
    simulate_paths(spec, (0.0, [x1]), make("controller_opt", scale=2.0), make("stopper_never"), cfg)
    steps = _steps(calls)
    dt = spec.T / cfg.n_steps
    assert len(steps) == cfg.n_steps
    for step in steps:
        assert 1 <= len(step) <= nsub and step[0][1].shape[1] == 400
        for (_, x, rate, direction), (_, x_next, _, _) in zip(step, step[1:]):
            pushed = rate != 0
            moved = x[:, pushed] + direction[:, pushed] * (rate[pushed] * dt / nsub)
            assert x_next.shape[1] == np.count_nonzero(pushed) > 0
            np.testing.assert_allclose(x_next, moved, rtol=0, atol=1e-12)
        assert len(step) == nsub or not np.any(step[-1][2])


def test_pushed_path_substeps_counts_the_nonzero_rates(ou_limit, monkeypatch):
    """pushed_path_substeps counts the (path, substep) pairs with a nonzero
    rate, 0 for the idle controller, and in a batch each run its own."""
    spec, data, pen, field = ou_limit
    make = strategies(spec, field, pen, data=data)
    calls = _recorded_controls(monkeypatch)
    start = (0.0, [2.0])
    est = simulate_paths(spec, start, make("controller_opt"), make("stopper_tau_star", band=0.01), PUSH_END_CFG)
    assert est.metadata["pushed_path_substeps"] == sum(np.count_nonzero(c[2]) for c in calls) > 0
    idle = simulate_paths(spec, start, make("controller_idle"), make("stopper_never"), PUSH_END_CFG)
    assert idle.metadata["pushed_path_substeps"] == 0

    calls.clear()
    results = saddle_probe(spec, field, pen, start, PUSH_END_CFG, band=0.01, data=data)
    assert sum(r.metadata["pushed_path_substeps"] for r in results) == sum(np.count_nonzero(c[2]) for c in calls)
    probes = _probe_strategies(spec, field, pen, data, 0.01, spec.T)
    for r, (_, _, offset, ctrl, stop) in zip(results, probes):
        alone = simulate_paths(spec, start, ctrl, stop, replace(PUSH_END_CFG, rng_seed=5 + offset))
        assert r.metadata["pushed_path_substeps"] == alone.metadata["pushed_path_substeps"], r.name
    counts = {r.name: r.metadata["pushed_path_substeps"] for r in results}
    assert counts["idle"] == 0 and counts["opt"] > 0


def _recorded_accruals(monkeypatch):
    """Wrap _OriginalPayoff.accrue; the list it returns gets, per step, the
    (points, rates, positions) of every substep entry and the nsub of the
    payoff rule."""
    from ctrlstop.simulate import _OriginalPayoff

    steps, plain = [], _OriginalPayoff.accrue

    def accrue(self, pts, elapsed, alive, controls, dt):
        assert len({id(entry) for entry in controls}) == len(controls)  # none twice
        steps.append(([(ps.x.copy(), ctl[1].copy(), at.copy()) for ps, ctl, at in controls], self.nsub))
        return plain(self, pts, elapsed, alive, controls, dt)

    monkeypatch.setattr(_OriginalPayoff, "accrue", accrue)
    return steps


@pytest.mark.parametrize("case", ["push_end_1.5", "push_end_2.0", "idle"])
def test_accrue_gets_each_substep_once(ou_limit, monkeypatch, case):
    """accrue gets at most nsub entries per step, no entry twice, and a
    short list only when its last substep pushed no path; an idle controller
    hands it one entry per step."""
    spec, data, pen, field = ou_limit
    make = strategies(spec, field, pen, data=data)
    steps = _recorded_accruals(monkeypatch)
    if case == "idle":
        ctrl, x1 = make("controller_idle"), 1.5
    else:
        ctrl, x1 = make("controller_opt", scale=2.0), float(case.split("_")[-1])
    simulate_paths(spec, (0.0, [x1]), ctrl, make("stopper_never"), PUSH_END_CFG)
    assert len(steps) == PUSH_END_CFG.n_steps
    for entries, nsub in steps:
        assert nsub == PUSH_END_CFG.feedback_substeps and 1 <= len(entries) <= nsub
        assert len(entries) == nsub or not np.any(entries[-1][1])
    lengths = {len(entries) for entries, _ in steps}
    if case == "idle":
        assert lengths == {1}
    else:
        assert max(lengths) > 1


@pytest.mark.parametrize("x1", sorted(PUSH_END_GOLDEN))
def test_substep_entries_hold_the_pushed_positions(ou_limit, monkeypatch, x1):
    """Entry 0 holds every alive path at its state; entry s >= 1 holds
    exactly the positions whose rate was nonzero at s - 1, with one point
    and one rate per position."""
    spec, data, pen, field = ou_limit
    make = strategies(spec, field, pen, data=data)
    steps = _recorded_accruals(monkeypatch)
    simulate_paths(spec, (0.0, [x1]), make("controller_opt", scale=2.0), make("stopper_never"), PUSH_END_CFG)
    for entries, _ in steps:
        assert np.array_equal(entries[0][2], np.arange(400))
        for (_, rate, at), (x_next, rate_next, at_next) in zip(entries, entries[1:]):
            assert np.array_equal(at_next, at[rate != 0])
            assert x_next.shape[1] == rate_next.size == at_next.size > 0


@pytest.fixture(scope="module")
def const1_huge_f(const1):
    """const1 with f = exp(1000 x1^2): f^2 overflows from |x1| = 0.6 on, and
    f itself from |x1| = 0.85 on."""
    text = resources.files("ctrlstop.configs").joinpath("const1.cfg").read_text()
    spec, data, ones = const1
    return parse_config_text(text.replace("f = 1", "f = exp(1000 * x1^2)"))[0], ones


def test_idle_controller_pays_nothing_for_an_infinite_f(const1_huge_f):
    """The controller pays f only where it pushes: idle at x1 = 1, where f is
    +inf, it books 0, and the unit payoff is exact (it used to book NaN)."""
    spec, ones = const1_huge_f
    make = strategies(spec, ones, Penalty(0.25))
    est = simulate_paths(spec, (0.0, [1.0]), make("controller_idle"), make("stopper_never"), CFG)
    assert est.mean == 1.0 and est.breakdown["control_cost"] == 0.0


@pytest.mark.parametrize("truncated", [False, True])
def test_controller_opt_squares_a_huge_f_silently(const1_huge_f, truncated):
    """f^2 saturates to +inf without a warning, in the feedback's f^2 and in
    the truncated f_m^2; on the flat field the controller idles and the
    payoff is exactly 1."""
    import warnings

    spec, ones = const1_huge_f
    data = truncate_data(spec, 6.0) if truncated else None
    make = strategies(spec, ones, Penalty(0.25), data=data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = simulate_paths(spec, (0.0, [1.0]), make("controller_opt"), make("stopper_never"), CFG)
    assert est.mean == 1.0 and est.metadata["pushed_path_substeps"] == 0


def test_closed_form_hamiltonian_needs_the_payoff_penalty(ou_solved):
    """A controller on another penalty than the payoff's is charged by the
    payoff's penalty: the optimal feedback gives the estimate of its scaled
    twin (scale one ulp above 1), which the bisection charges."""
    spec, data, pen, field = ou_solved
    cfg = PathConfig(n_paths=2000, n_steps=100, rng_seed=5)
    own = strategies(spec, field, Penalty(1 / 16), data=data)
    opt, twin = own("controller_opt"), own("controller_opt", scale=np.nextafter(1.0, 2.0))
    closed, bisected = (
        simulate_recursive(spec, data, pen, 1 / 8, (0.0, [1.5]), ctrl, cfg) for ctrl in (opt, twin)
    )
    assert closed.mean == pytest.approx(bisected.mean, abs=1e-9)
    assert closed.breakdown["control_cost"] == pytest.approx(bisected.breakdown["control_cost"], abs=1e-9)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("case", ["none_active", "some_active", "all_active", "nan_gradient", "infinite_cost"])
def test_active_set_rate_and_hamiltonian_are_the_dense_formulas(case, monkeypatch):
    """The feedback rate and the closed-form Hamiltonian, computed on the
    active paths only, are 2 psi'(zeta)|grad u| and
    2 psi'(zeta)|grad u|^2 - psi(zeta) at the one argument
    zeta = |grad u|^2 - f^2 on every path bit for bit; with no active path
    the penalty is not called."""
    from ctrlstop.kernel import Penalty as PenaltyClass
    from ctrlstop.simulate import _closed_form_hamiltonian, _feedback_rate

    pen = Penalty(1 / 16)
    rng = np.random.default_rng(17)
    f = np.full(200, 0.3)
    grad = rng.uniform(-0.2, 0.2, (2, 200))  # |grad u| < 0.3 = f: inactive
    if case == "some_active":
        grad[0, ::9] = rng.uniform(0.3, 0.8, grad[0, ::9].shape)  # bridge and linear branch
        grad[:, 5] = [0.3, 0.0]  # |grad u| = f: on the kink
    elif case == "all_active":
        grad[0] = rng.uniform(0.31, 0.8, 200) * rng.choice([-1.0, 1.0], 200)
    elif case == "nan_gradient":
        grad[:, 3] = [np.nan, 0.1]
        grad[0, 4] = np.inf
    elif case == "infinite_cost":
        f[::4] = np.inf
        grad[0, 8] = np.inf  # inf - inf: NaN
        grad[0, 1::4] = 0.6
    gnorm_sq = np.sum(grad**2, axis=0)
    norm = np.sqrt(gnorm_sq)
    f_sq = f**2
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf: NaN, as in the dense formulas
        zeta = gnorm_sq - f_sq
        want_rate = 2.0 * pen.d1(zeta) * norm
        want_h = 2.0 * pen.d1(zeta) * gnorm_sq - pen.value(zeta)
        calls = []
        for name in ("d1", "value"):
            plain = getattr(PenaltyClass, name)
            monkeypatch.setattr(PenaltyClass, name, lambda self, y, *a, plain=plain: calls.append(1) or plain(self, y, *a))
        rate = _feedback_rate(pen, norm, gnorm_sq, f_sq)
        h = _closed_form_hamiltonian(pen, gnorm_sq, f_sq)
        active = np.count_nonzero(~(zeta <= 0))
    assert _bits(rate) == _bits(want_rate)
    assert _bits(h) == _bits(want_h)
    assert (active == 0) == (case == "none_active") and (active == 200) == (case == "all_active")
    assert (len(calls) == 0) == (case == "none_active")
