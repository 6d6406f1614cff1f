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
