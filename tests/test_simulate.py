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

    def test_antithetic_preserves_deterministic_means(self, allzero, const1):
        for spec, data, field, expect in (
            (*allzero, 0.0),
            (*const1, 1.0),
        ):
            make = strategies(spec, field, Penalty(0.25))
            for anti in (False, True):
                cfg = PathConfig(n_paths=1000, n_steps=50, rng_seed=3, antithetic=anti)
                est = simulate_paths(
                    spec,
                    (0.0, [0.0]),
                    make("controller_idle"),
                    make("stopper_tau_star", band=0.01) if expect else make("stopper_never"),
                    cfg,
                )
                assert est.mean == expect

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
    "start, match", [((0.0, [0.0, 0.0]), "dimension"), ((0.5, [0.0]), "horizon")]
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
def test_path_config_needs_a_quadrature_point_and_a_substep(name, value):
    # non-positive substeps were quietly read as 1
    with pytest.raises(ValueError, match="must be >= 1"):
        PathConfig(n_paths=8, n_steps=4, **{name: value})


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
    ],
    ids=["opt_no_field", "opt_no_pen", "tau_star_no_field", "fixed_none", "fixed_nan"],
)
def test_mode_inputs_are_checked_at_construction(const1, mode, missing):
    # these used to fail mid-run (TypeError, AttributeError), or for a NaN
    # fixed_time never to stop
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

    def record(spec, start, ctrl, stop, cfg):
        played.update((ctrl.mode, stop.mode))
        return PayoffEstimate(mean=1.0, std_error=0.0, n_paths=cfg.n_paths, breakdown={})

    monkeypatch.setattr(simulate_mod, "simulate_paths", record)
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
        nvec, rate, _ = strat.control(0.0, 0.0, xs)
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
        nvec, rate, _ = strat.control(0.0, 0.0, xs)
        np.testing.assert_allclose(rate, 0.0)
        np.testing.assert_allclose(np.sqrt(np.sum(nvec**2, axis=0)), 1.0)


def test_antithetic_error_is_over_pairs():
    # g = x1^2 with zero drift from the origin: a path and its mirror pay the
    # same, so 2N antithetic paths carry exactly the information of N plain ones
    cfg_text = """
dim = 1
horizon = 0.5
rate = 0.1
drift[1] = 0
sigma[1][1] = 1
f = 1
g = x1^2
h = 0
"""
    spec, _, _ = parse_config_text(cfg_text)
    grid = Grid(d=1, m=6.0, nx=61, nt=20, T=0.5)
    zeros = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
    make = strategies(spec, zeros, Penalty(0.25))

    def run(n_paths, antithetic):
        cfg = PathConfig(n_paths=n_paths, n_steps=50, rng_seed=9, antithetic=antithetic)
        return simulate_paths(
            spec, (0.0, [0.0]), make("controller_idle"), make("stopper_never"), cfg
        )

    anti, plain = run(1000, True), run(500, False)
    assert anti.mean == pytest.approx(plain.mean, abs=1e-12)
    assert anti.std_error == pytest.approx(plain.std_error, rel=1e-12)
    assert anti.n_paths == 1000



def test_antithetic_drops_pairs_with_a_rejected_path():
    from ctrlstop.simulate import _finalize

    cfg = PathConfig(n_paths=6, n_steps=1, antithetic=True)
    parts = {
        "terminal": np.array([1.0, 2.0, 3.0, 5.0, 6.0, 100.0]),
        "running": np.zeros(6),
        "control_cost": np.zeros(6),
    }
    keep = np.array([True, True, True, True, True, False])  # pair (2, 5) goes
    est = _finalize(parts, keep, 1, cfg, {})
    # pair averages 3 and 4
    assert est.mean == 3.5 and est.std_error == pytest.approx(0.5, rel=1e-15)
    assert est.n_paths == 4 and est.breakdown["terminal"] == 3.5

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


# (mean, std_error) as float.hex of 400-path, 40-step runs with seed 5
GOLDEN = {
    "paths_opt_tau_star": ("0x1.41f1da0aa39d8p-1", "0x1.4d486aa3dd25dp-8"),
    "paths_opt_fixed": ("0x1.238bec2c9b29dp-1", "0x1.64f918ff72ceap-10"),
    "penalized_w_star": ("0x1.73427222bc892p-5", "0x1.68d66e3874ebcp-9"),
    "penalized_callable": ("0x1.4232a56a56274p-1", "0x1.62029ca7c3d07p-8"),
    "recursive": ("0x1.606a0f6331563p-5", "0x1.03e4805b1acf6p-10"),
    "recursive_core": ("0x1.4a5fc441ddbacp-1", "0x1.3316698859d7ep-9"),
    "paths_tau_star_rejected": ("0x1.464a69e39a797p-1", "0x1.4e1b4c6dba864p-8"),
    "penalized_rejected": ("0x1.93a81385aa7e1p-1", "0x1.393dd83565ca8p-7"),
}

# The *_rejected cases move under the bench_ou data with a drift that blows
# up past x1 = 1.3: paths stop at many different steps and a few leave the
# finite floats mid-run, so the engine's bookkeeping of the alive paths
# (draws, stops, rejections) is pinned.  Rejected paths per case:
REJECTED = {"paths_tau_star_rejected": 4, "penalized_rejected": 1}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fixed_seed_estimates_are_golden(ou_solved, case):
    spec, data, pen, field = ou_solved
    make = strategies(spec, field, pen, data=data)
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5)

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
    ("tau_star", "stopper", "0x1.4340470384d3dp-1", "0x1.423380bc4f9e6p-8", True),
    ("immediate", "stopper", "0x1.07e63c303b3e3p-1", "0x1.9a1ceb13f2860p-58", True),
    ("never", "stopper", "0x1.47ff44fa670c1p-1", "0x1.754fc93d0fe5dp-8", True),
    ("fixed_quarter", "stopper", "0x1.193a6f4af19bdp-1", "0x1.94b6b7249ef10p-10", True),
    ("fixed_half", "stopper", "0x1.296fae95d030bp-1", "0x1.5974bdb210413p-9", True),
    ("wide_band", "stopper", "0x1.3799a4d3de3cdp-1", "0x1.437327690e016p-8", True),
    ("opt", "controller", "0x1.44adbfb3a911dp-1", "0x1.45e72a2cb8d62p-8", True),
    ("idle", "controller", "0x1.41f3534ac18d2p-1", "0x1.449912578f5e1p-8", True),
    ("half_rate", "controller", "0x1.4989adc4b0bcfp-1", "0x1.66695a08697bap-8", True),
    ("double_rate", "controller", "0x1.40c73acf966c8p-1", "0x1.2ed0506578a9bp-8", True),
    ("flipped", "controller", "0x1.4ba6138c56fb7p-1", "0x1.7be9c9bf36dd6p-8", True),
    ("delayed", "controller", "0x1.41cd6fc361565p-1", "0x1.3fcdc3a1b6c08p-8", True),
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
    data = truncate_data(spec, 6.0, sup_samples=61)
    pen = Penalty(1 / 16)
    point = solve_penalized(TruncatedProblem(grid, data), pen, 1 / 16, tol=1e-8)
    field = GridField(grid=grid, values=np.round(point.field.values, 9))
    return spec, data, pen, field


# (mean, std_error) as float.hex of 400-path, 40-step 2-D runs with seed 5
# and 8 feedback substeps; the penalized and recursive runs start near the
# ball's edge, so many of their paths exit
GOLDEN_2D = {
    "paths_opt_tau_star": ("0x1.2fc3ec35bf68ap-1", "0x1.429b7dbf74feap-9"),
    "penalized_w_star": ("0x1.7d453e99bf9c3p-3", "0x1.2d4569cda4636p-8"),
    "recursive": ("0x1.9af7d1baf5fafp-2", "0x1.041ea04ed64f0p-8"),
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


def _old_control(strat, t, x):
    """controller_opt's direction and rate by the boolean-gather formula the
    feedback used before it wrote the direction with np.divide."""
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
    rate = 2.0 * strat.pen.d1(norm**2 - f_sq) * norm
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
    data = truncate_data(spec, 4.0, sup_samples=41)
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
    direction, rate, _ = strat.control(0.07, 0.0, x)
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
    cfg = PathConfig(n_paths=400, n_steps=40, rng_seed=5)
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
    "delayed": ("0x1.44f3dae30e54dp-1", "0x1.54eb84982c0e7p-8"),
    "idle": ("0x1.4512ff3c25843p-1", "0x1.53fe9f381378ep-8"),
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
