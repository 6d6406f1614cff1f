import numpy as np
import pytest

from ctrlstop.benches import load_bench
from ctrlstop.model import (
    ConfigError,
    SamplePlan,
    parse_config_text,
    validate_assumptions,
)

CONST1 = """
dim = 1
horizon = 0.3
rate = 0
drift[1] = -x1
sigma[1][1] = 1
f = 1
g = 1
h = 0
sample_plan.radii = 2, 4
sample_plan.counts = 257, 257
sample_plan.rng_seed = 7
"""


def test_parse_const1():
    spec, plan, _ = parse_config_text(CONST1)
    assert spec.d == 1 and spec.T == 0.3 and spec.r == 0.0
    assert plan.radii == (2.0, 4.0)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(CONST1 + "\nmystery = 1\n")


def test_missing_drift_rejected():
    bad = CONST1.replace("drift[1] = -x1", "")
    with pytest.raises(ConfigError, match="drift"):
        parse_config_text(bad)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(CONST1 + "\nf = 2\n")


@pytest.mark.parametrize(
    "old, new",
    [
        ("sample_plan.rng_seed = 7", "sample_plan.rng_seed = 7.9"),
        ("sample_plan.counts = 257, 257", "sample_plan.counts = 513.5, 513"),
        ("sample_plan.rng_seed = 7", "sample_plan.rng_seed = nan"),
        ("sample_plan.counts = 257, 257", "sample_plan.counts = 257, inf"),
    ],
)
def test_fractional_plan_values_rejected(old, new):
    """The seed and the counts are whole numbers; no value is truncated."""
    with pytest.raises(ConfigError, match="whole number"):
        parse_config_text(CONST1.replace(old, new))


def test_whole_float_plan_values_accepted():
    _, plan, _ = parse_config_text(CONST1.replace("= 7", "= 7.0").replace("257, 257", "513.0, 513"))
    assert plan.rng_seed == 7 and plan.counts == (513, 513)


def test_dimension_mismatch_in_expression():
    bad = CONST1.replace("g = 1", "g = x2")
    with pytest.raises(ValueError, match="x2"):
        parse_config_text(bad)


def test_const1_report_values():
    spec, plan, _ = parse_config_text(CONST1)
    rep = validate_assumptions(spec, plan)
    assert rep.valid
    assert rep.Theta_min == pytest.approx(0.0, abs=1e-9)
    assert rep.K2 == 0.0
    assert rep.grad_g_le_f_margin == pytest.approx(1.0, abs=1e-9)
    assert rep.f_time_monotone
    assert all(v > 0.99 for v in rep.ellipticity_theta.values())


def test_time_increasing_cost_invalid():
    spec, plan, _ = parse_config_text(CONST1.replace("f = 1", "f = t"))
    rep = validate_assumptions(spec, plan)
    assert not rep.f_time_monotone
    assert not rep.valid


def test_gradient_dominance_violation():
    spec, plan, _ = parse_config_text(CONST1.replace("g = 1", "g = 2*x1"))
    rep = validate_assumptions(spec, plan)
    assert rep.grad_g_le_f_margin == pytest.approx(-1.0, abs=1e-6)
    assert not rep.valid


def test_summary_prints_plain_floats():
    spec, plan, _ = parse_config_text(CONST1.replace("g = 1", "g = 2*x1"))
    rep = validate_assumptions(spec, plan)
    assert rep.violations
    assert all(type(c) is float for _, point, _ in rep.violations for c in point)
    assert "np.float64" not in rep.summary()


def test_negative_payoff_flagged():
    spec, plan, _ = parse_config_text(CONST1.replace("h = 0", "h = -1"))
    rep = validate_assumptions(spec, plan)
    assert not rep.valid
    assert any(name == "h>=0" for name, _, _ in rep.violations)


def test_diffusion_matrix_psd_on_samples():
    bench = load_bench("bench_ou", coarse=True)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-4, 4, bench.spec.d)
        a = bench.spec.a_matrix(x)
        np.testing.assert_allclose(a, a.T)
        assert np.min(np.linalg.eigvalsh(a)) >= 0


def test_theta_estimate_matches_closed_form():
    # for the OU bench, Theta at the origin is h(0) + 0.5 g''(0) - r g(0)
    bench = load_bench("bench_ou")
    spec = bench.spec
    g0 = float(spec.g(0.0, np.zeros(1)))
    # wide cubic bump: g = c (1 - (x/a)^2)^3 has g''(0) = -6 c / a^2
    expected = 0.0 + 0.5 * (-6 * 0.6 / 4.5**2) - spec.r * g0
    assert spec.theta(0.0, np.zeros(1)) == pytest.approx(expected, abs=1e-5)
    rep = validate_assumptions(spec, bench.plan)
    assert rep.K2 == pytest.approx(-expected, rel=1e-3)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(radii=(1.0,), counts=(4, 4))
    with pytest.raises(ValueError):
        SamplePlan(radii=(-1.0,), counts=(64,))


def test_empty_sample_plan_rejected():
    """A plan without radii would let validate check nothing and report
    the data valid, whatever they are."""
    with pytest.raises(ValueError, match="at least one radius"):
        SamplePlan(radii=(), counts=())
    bad = CONST1.replace("g = 1", "g = 5 * x1^2").replace("radii = 2, 4", "radii = ,")
    with pytest.raises(ConfigError, match="at least one radius"):
        parse_config_text(bad.replace("sample_plan.counts = 257, 257\n", ""))


def test_bundled_benches_valid():
    for name in ("const1", "bench_ou", "bench_ou_purestop", "allzero"):
        bench = load_bench(name, coarse=True)
        rep = validate_assumptions(bench.spec, bench.plan)
        assert rep.valid, f"{name}: {rep.summary()}"


def test_rectangular_diffusion_supported():
    cfg = """
dim = 1
horizon = 0.2
rate = 0
drift[1] = -x1
sigma[1][1] = 0.6
sigma[1][2] = 0.8
f = 1
g = 1
h = 0
"""
    spec, plan, _ = parse_config_text(cfg)
    assert spec.d_noise == 2
    a = spec.a_matrix(np.array([0.3]))
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(0.6**2 + 0.8**2)
    rep = validate_assumptions(spec, plan)
    assert rep.valid


def test_f_squared_probe_follows_each_spec():
    # f = 1e200 overflows f^2, so only that spec's derivative probe is non-finite;
    # freshly parsed specs often reuse a collected spec's id, which an id-keyed
    # f^2 cache answered with the other spec's expression
    plan = SamplePlan(radii=(2.0,), counts=(8,), rng_seed=7)
    for i in range(40):
        huge = i % 2 == 1
        spec, _, _ = parse_config_text(CONST1.replace("f = 1", "f = 1e200" if huge else "f = 1"))
        rep = validate_assumptions(spec, plan)
        flagged = any(v[0] == "finite derivatives of g, h, f^2" for v in rep.violations)
        assert flagged == huge, f"spec {i} (f = {spec.f})"
        del spec, rep


def test_degenerate_noise_fails_ellipticity():
    """sigma = 0 on part of the box makes theta_B 0 on every radius that
    reaches it: the check flags each such radius with its theta_B."""
    spec, plan, _ = parse_config_text(CONST1.replace("sigma[1][1] = 1", "sigma[1][1] = max(0, 1 - x1^2)"))
    rep = validate_assumptions(spec, plan)
    assert not rep.valid
    flagged = [v for v in rep.violations if v[0] == "theta_B > 0"]
    assert flagged == [("theta_B > 0", (2.0,), 0.0), ("theta_B > 0", (4.0,), 0.0)]
    assert rep.ellipticity_theta == {2.0: 0.0, 4.0: 0.0}


def test_domain_error_skips_the_radius():
    # the sample lattice of both radii contains x1 = 0
    spec, plan, _ = parse_config_text(CONST1.replace("h = 0", "h = 1/x1"))
    rep = validate_assumptions(spec, plan)
    assert not rep.valid
    assert rep.violations == [
        ("evaluation: division by zero", (2.0,), pytest.approx(np.nan, nan_ok=True)),
        ("evaluation: division by zero", (4.0,), pytest.approx(np.nan, nan_ok=True)),
    ]
    assert rep.ellipticity_theta == {}


SKEW_2D = """
dim = 2
horizon = 0.4
rate = 0.1
drift[1] = -x1 + 0.2*x2
drift[2] = -0.5*x2
sigma[1][1] = 1
sigma[1][2] = 0.3
sigma[2][1] = 0.2
sigma[2][2] = 0.8 + 0.1*sin(x1)
f = 2 + 0.1*x1^2
g = exp(-t) * (1 + 0.3*sin(x1*x2)) + 0.2*x1*x2
h = 0.5 + 0.1*x2^2
sample_plan.radii = 1.5, 3
sample_plan.counts = 300, 200
sample_plan.rng_seed = 3
"""

# float.hex of (D1, theta_B per radius, margin, Theta_min, K0, K1, K2) and the
# relative tolerance: exact on the 1-D benches; the 2-D sums over the
# coordinates may be reordered
GOLDEN_REPORTS = {
    "bench_ou": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.22ecd44252a3cp-4", "-0x1.e6f80b13947adp-4", "0x0.0p+0",
         "0x1.3b9ec9f35e3eep-1", "0x1.e6f80b13947adp-4"],
        0.0,
    ),
    "const1": (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "0x1.ffeb80b07fdc4p-1", "0x0.0p+0"],
        0.0,
    ),
    "skew_2d": (
        ["0x1.5495fa25f0897p+0", "0x1.414101073a212p-2", "0x1.4109a312edd28p-2",
         "0x1.0000000133fb2p-1", "-0x1.1f17536fd858ap+1", "0x0.0p+0",
         "0x1.8000000000000p+0", "0x1.1f17536fd858ap+1"],
        1e-12,
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_assumption_constants_are_golden(case):
    if case == "skew_2d":
        spec, plan, _ = parse_config_text(SKEW_2D)
    else:
        bench = load_bench(case, coarse=True)
        spec, plan = bench.spec, bench.plan
    rep = validate_assumptions(spec, plan)
    assert rep.valid
    got = [rep.linear_growth_D1, *(v for _, v in sorted(rep.ellipticity_theta.items())),
           rep.grad_g_le_f_margin, rep.Theta_min, rep.K0, rep.K1, rep.K2]
    want, rel = GOLDEN_REPORTS[case]
    if rel == 0.0:
        assert [float(v).hex() for v in got] == want
    else:
        assert got == pytest.approx([float.fromhex(w) for w in want], rel=rel, abs=0.0)
