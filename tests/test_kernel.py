import numpy as np
import pytest

from ctrlstop.benches import load_bench
from ctrlstop.expressions import eval_with_derivatives
from ctrlstop.kernel import (
    Penalty,
    build_cutoff,
    hamiltonian_batch,
    truncate_data,
)
from ctrlstop.kernel import _Branches, _xi_profile, _xi_profile_d1
from ctrlstop.model import parse_config_text


class TestCutoff:
    def test_anchor_values(self):
        cut = build_cutoff(3)
        assert float(cut.value_radial(3.0)) == 1.0  # one on the closed inner ball
        assert float(cut.value_radial(4.0)) == 0.0  # zero beyond the bridge
        assert float(_xi_profile(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_bridge(self):
        cut = build_cutoff(2)
        rs = np.linspace(2.0, 3.0, 5001)
        vals = cut.value_radial(rs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_gradient_bound_dense_radial_grid(self):
        cut = build_cutoff(5)
        rs = np.linspace(4.9, 6.1, 100_000)
        xi = cut.value_radial(rs)
        gsq = cut.grad_norm_sq_radial(rs)
        assert np.all(gsq <= cut.C0 * xi + 1e-12)

    def test_c0_independent_of_radius(self):
        assert build_cutoff(1).C0 == build_cutoff(9).C0

    def test_lazy_c0_is_the_eager_certificate(self):
        # the certification build_cutoff used to run on every call
        z = np.linspace(1e-9, 1.0 - 1e-9, 2_000_001)
        xi = _xi_profile(z)
        d1 = _xi_profile_d1(z)
        ratio = np.where(xi > 0, d1**2 / np.where(xi > 0, xi, 1.0), 0.0)
        assert build_cutoff(4).C0 == float(np.max(ratio)) * (1.0 + 1e-6)

    def test_gradient_direction_radial(self):
        cut = build_cutoff(2)
        x = np.array([[1.8], [1.2]])  # |x| ~ 2.16, on the bridge
        g = cut.grad(x)
        # gradient points inward along -x/|x| (profile decreasing)
        cosine = float((g[:, 0] @ x[:, 0]) / (np.linalg.norm(g) * np.linalg.norm(x)))
        assert cosine == pytest.approx(-1.0, abs=1e-12)


class TestPenalty:
    def test_anchor_values(self):
        for eps in (0.5, 0.1, 0.03):
            pen = Penalty(eps)
            assert float(pen.value(-1.0)) == 0.0
            assert float(pen.value(0.0)) == 0.0
            assert float(pen.value(2 * eps)) == pytest.approx(1.0, abs=1e-14)
            assert float(pen.d1(2 * eps)) == pytest.approx(1.0 / eps, rel=1e-12)
            assert float(pen.value(5 * eps)) == pytest.approx(4.0, rel=1e-12)

    def test_bridge_midpoint_value(self):
        # s = 1/2 on the bridge: 2 s^3 - s^4 = 3/16
        pen = Penalty(0.1)
        assert float(pen.value(0.1)) == pytest.approx(0.1875, abs=1e-15)

    def test_convexity_on_grid(self):
        pen = Penalty(0.07)
        ys = np.linspace(-pen.eps, 3 * pen.eps, 10_000)
        assert np.all(pen.d2(ys) >= 0)
        assert np.all(np.diff(pen.d1(ys)) >= -1e-12)

    def test_bridge_only_evaluation_is_the_clipped_formula(self):
        # reference: the clip-and-nested-where form, which evaluates the
        # bridge everywhere and selects the branch afterwards
        def reference(pen, y):
            s = np.clip(y / (2.0 * pen.eps), 0.0, 1.0)
            two_eps, zero = 2.0 * pen.eps, y <= 0.0
            return (
                np.where(y >= two_eps, (y - pen.eps) / pen.eps, np.where(zero, 0.0, 2.0 * s**3 - s**4)),
                np.where(
                    y >= two_eps, 1.0 / pen.eps, np.where(zero, 0.0, (6.0 * s**2 - 4.0 * s**3) / two_eps)
                ),
                np.where(
                    y >= two_eps, 0.0, np.where(zero, 0.0, (12.0 * s - 12.0 * s**2) / (4.0 * pen.eps**2))
                ),
            )

        rng = np.random.default_rng(9)
        for eps in (0.5, 0.1, 1.0 / 64, 1.0 / 1024):
            pen = Penalty(eps)
            special = [0.0, -0.0, 2 * eps, np.nextafter(2 * eps, 0.0), 5e-324, 1e300, np.nan, np.inf, -np.inf]
            inputs = [
                np.concatenate([rng.uniform(-3 * eps, 3 * eps, 20_000), special]),
                # one or two branches without nodes
                np.concatenate([-rng.uniform(0.0, 3 * eps, 100), [0.0, -0.0, -np.inf]]),
                np.concatenate([2 * eps + rng.uniform(0.0, 3 * eps, 100), [2 * eps, np.inf]]),
                np.concatenate([np.linspace(0.0, 2 * eps, 102)[1:-1], [5e-324, np.nextafter(2 * eps, 0.0)]]),
                np.full(7, np.nan),
                np.empty(0),
                # 0-d scalars, one per branch, and a stack of levels
                *(np.array(v) for v in (-0.0, 0.0, 0.5 * eps, 3 * eps, np.nan)),
                rng.uniform(-3 * eps, 3 * eps, (5, 60)),
            ]
            for y in inputs:
                # the points themselves, then their branches classified once
                # and read by all three evaluations
                for given in (y, _Branches(pen, y)):
                    for new, ref in zip((pen.value(given), pen.d1(given), pen.d2(given)), reference(pen, y)):
                        assert new.shape == y.shape
                        np.testing.assert_array_equal(new, ref)
                        np.testing.assert_array_equal(np.signbit(new), np.signbit(ref))

    def test_a_column_of_eps_is_the_penalty_of_each_row(self):
        """Penalty with a column (rows, 1) of eps evaluates each row of the
        points (rows, n) as the penalty of that row's eps does, bit for bit,
        given the points or their branches; a column eps outside (0, 1) is
        refused."""
        rng = np.random.default_rng(3)
        eps = np.array([[0.5], [0.1], [1.0 / 64], [0.1]])
        y = rng.uniform(-0.3, 0.3, (4, 200))
        y[:, :4] = [0.0, -0.0, np.nan, np.inf]
        y[1, 5] = 0.2  # the edge 2 eps of row 1, inside the bridge of row 0
        pen = Penalty(eps)
        for given in (y, _Branches(pen, y)):
            for name in ("value", "d1", "d2"):
                got = getattr(pen, name)(given)
                want = np.array([getattr(Penalty(float(e)), name)(row) for e, row in zip(eps[:, 0], y)])
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        for bad in ([[0.5], [1.0]], [[0.5], [np.nan]]):
            with pytest.raises(ValueError):
                Penalty(np.array(bad))

    def test_branches_belong_to_their_penalty(self):
        branches = _Branches(Penalty(0.1), np.linspace(-1.0, 1.0, 11))
        with pytest.raises(ValueError, match="another penalty"):
            Penalty(0.2).value(branches)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            Penalty(0.0)
        with pytest.raises(ValueError):
            Penalty(1.0)


class TestHamiltonian:
    def test_zero_input(self):
        pen = Penalty(0.1)
        h = hamiltonian_batch(pen, 1.0, np.zeros(3))
        assert np.array_equal(h, np.zeros(3)) and not np.signbit(h).any()

    def test_frozen_grid_search_value(self):
        # dense grid search over p in [-5,5]^2 with step 1e-3 gave this value
        # for y = (2, 0)
        pen = Penalty(0.1)
        h = hamiltonian_batch(pen, 1.0, 2.0)
        assert float(h) == pytest.approx(2.025240753238295, abs=1e-4)

    def test_quadratic_lower_bound(self):
        rng = np.random.default_rng(3)
        for eps in (0.3, 0.05):
            pen = Penalty(eps)
            f_vals = rng.uniform(0, 3, 500)
            qs = rng.uniform(0, 8, 500)
            hs = hamiltonian_batch(pen, f_vals, qs)
            assert np.all(hs >= eps * qs**2 / 4 - 1e-10)

    def test_no_random_point_beats_supremum(self):
        rng = np.random.default_rng(4)
        pen = Penalty(0.15)
        for _ in range(200):
            f_val = rng.uniform(0, 2)
            y = rng.uniform(-3, 3, 2)
            h = hamiltonian_batch(pen, f_val, np.linalg.norm(y))
            ps = rng.uniform(-5, 5, (2, 50))
            trial = y @ ps - pen.value(np.sum(ps**2, axis=0) - f_val**2)
            assert np.all(trial <= h + 1e-10)

    def test_compatibility_with_bounded_vectors(self):
        rng = np.random.default_rng(5)
        pen = Penalty(0.2)
        for _ in range(200):
            f_val = rng.uniform(0, 2)
            y = rng.uniform(-3, 3, 2)
            h = hamiltonian_batch(pen, f_val, np.linalg.norm(y))
            q = rng.normal(size=2)
            q *= rng.uniform(0, 1) * f_val / max(np.linalg.norm(q), 1e-12)
            assert h >= -(y @ q) - 1e-10

    def test_monotone_in_cost_level(self):
        # a larger cost level weakens the penalty, so the supremum grows;
        # with the cost nonincreasing in time this is the time monotonicity
        # of the supremum
        rng = np.random.default_rng(6)
        pen = Penalty(0.1)
        f_lo = rng.uniform(0, 2, 300)
        f_hi = f_lo + rng.uniform(0, 2, 300)
        qs = rng.uniform(0, 5, 300)
        assert np.all(
            hamiltonian_batch(pen, f_hi, qs) >= hamiltonian_batch(pen, f_lo, qs) - 1e-10
        )

    def test_first_order_condition_at_maximizer(self):
        # the maximizer's radius rho solves 2 psi'(rho^2 - f^2) rho = |y|, and
        # the value is |y| rho - psi(rho^2 - f^2)
        from ctrlstop.kernel import _solve_radius

        pen = Penalty(0.08)
        f_val, q = 0.7, float(np.hypot(1.3, -0.4))
        rho = float(_solve_radius(pen, np.asarray(f_val), np.asarray(q)))
        assert 2 * float(pen.d1(rho**2 - f_val**2)) * rho == pytest.approx(q, rel=1e-9)
        value = q * rho - float(pen.value(rho**2 - f_val**2))
        assert float(hamiltonian_batch(pen, f_val, q)) == pytest.approx(value, rel=1e-12)


class TestTruncation:
    def test_untouched_inside(self):
        bench = load_bench("bench_ou", coarse=True)
        data = truncate_data(bench.spec, 6.0)
        xs = np.linspace(-4.9, 4.9, 41)[None, :]
        for t in (0.0, 0.25):
            np.testing.assert_allclose(data.g_m(t, xs), bench.spec.g(t, xs) * np.ones(41))
            np.testing.assert_allclose(data.h_m(t, xs), bench.spec.h(t, xs) * np.ones(41))
            np.testing.assert_allclose(
                data.f_m(t, xs), float(bench.spec.f(t, xs[:, 0])) * np.ones(41)
            )

    def test_vanishes_outside(self):
        bench = load_bench("const1", coarse=True)
        data = truncate_data(bench.spec, 4.0)
        xs = np.array([[4.0, 4.5, 6.0]])
        np.testing.assert_allclose(data.g_m(0.0, xs), 0.0, atol=1e-300)
        np.testing.assert_allclose(data.h_m(0.0, xs), 0.0, atol=1e-300)

    def test_const1_cost_identity(self):
        # with a constant stopping payoff, f_m^2 = f^2 + |grad cutoff|^2
        bench = load_bench("const1", coarse=True)
        data = truncate_data(bench.spec, 4.0)
        xs = np.linspace(-4.2, 4.2, 301)[None, :]
        expected = 1.0 + data.cutoff.grad_norm_sq_radial(np.abs(xs[0]))
        np.testing.assert_allclose(data.f_m_sq(0.0, xs), expected, atol=1e-10)

    def test_truncated_gradient_constraint(self):
        bench = load_bench("bench_ou", coarse=True)
        data = truncate_data(bench.spec, 6.0)
        xs = np.linspace(-6.3, 6.3, 2001)[None, :]
        for t in (0.0, 0.37):
            gv, gg, _ = eval_with_derivatives(bench.spec.g, (t, xs), order=1)
            grad_gm = data.cutoff.grad(xs) * gv + data.cutoff.value(xs) * gg
            norm = np.sqrt(np.sum(grad_gm**2, axis=0))
            assert np.max(norm - data.f_m(t, xs)) <= 1e-8

    @pytest.mark.parametrize("case", ["bench_ou", "2d"])
    def test_lean_f_m_sq_is_the_full_formula(self, case):
        """f_m_sq skips the bridge terms only where grad xi = 0: bit for bit
        the full formula inside the cut-off radius, on the bridge, beyond it
        and on a mix of the three."""
        if case == "bench_ou":
            spec = load_bench("bench_ou", coarse=True).spec
            data = truncate_data(spec, 6.0)
        else:
            spec, _, _ = parse_config_text(SKEW_2D)
            data = truncate_data(spec, 3.0)
        mc = data.cutoff.m
        rng = np.random.default_rng(5)
        direction = rng.normal(size=(spec.d, 300))
        direction /= np.linalg.norm(direction, axis=0)
        radii = {
            "inside": rng.uniform(0.0, mc, 300),
            "bridge": rng.uniform(mc, mc + 1.0, 300),
            "beyond": rng.uniform(mc + 1.0, mc + 3.0, 300),
        }
        radii["inside"][0] = mc
        radii["beyond"][0] = mc + 1.0
        radii["mix"] = np.concatenate([radii["inside"][:100], radii["bridge"][:5], radii["beyond"][:100]])
        for name, r in radii.items():
            x = direction[:, : r.size] * r
            for t in (0.0, 0.3):
                got = data.f_m_sq(t, x)
                assert np.array_equal(got, _reference_f_m_sq(data, t, x)), (case, name, t)

    def test_minimum_radius(self):
        bench = load_bench("const1", coarse=True)
        with pytest.raises(ValueError):
            truncate_data(bench.spec, 1.0)


SKEW_2D = """
dim = 2
horizon = 0.4
rate = 0.1
drift[1] = -x1
drift[2] = -x2
sigma[1][1] = 1
sigma[1][2] = 0
sigma[2][1] = 0
sigma[2][2] = 1
f = 2 + 0.1*x1^2
g = 1 + 0.3*sin(x1*x2) + 0.1*x1
h = 0
"""


def _reference_f_m_sq(data, t, x):
    """f_m_sq as computed before it skipped the points off the bridge."""
    x = np.asarray(x, dtype=float)
    fv = data.spec.f(t, x)
    r = np.linalg.norm(x, axis=0)
    xi = data.cutoff.value_radial(r)
    out = fv**2
    if np.any(data.cutoff.grad_norm_sq_radial(r) > 0):
        gx = data.cutoff.grad(x)
        gv, gg, _ = eval_with_derivatives(data.spec.g, (t, x), order=1, fd_step=data.spec.fd_step)
        cross = 2.0 * gv * xi * np.sum(gx * gg, axis=0)
        out = out + data.g_norm**2 * np.sum(gx * gx, axis=0) + cross
    return np.maximum(out, 0.0)


def _reference_hamiltonian_batch(pen, f_vals, q):
    """hamiltonian_batch with the bisection on every rate, zeros included."""
    from ctrlstop.kernel import _solve_radius

    rho = _solve_radius(pen, f_vals, q)
    out = q * rho - pen.value(rho**2 - f_vals**2)
    return np.where(q == 0.0, 0.0, out)


@pytest.mark.parametrize("zero_share", [0.0, 0.7, 1.0])
def test_hamiltonian_batch_is_the_bisection_on_every_rate(zero_share):
    rng = np.random.default_rng(12)
    pen = Penalty(1 / 16)
    n = 3000
    f_vals = rng.uniform(0.0, 2.0, n)
    q = rng.uniform(0.0, 6.0, n)
    q[rng.random(n) < zero_share] = 0.0
    q[:4] = [-0.0, np.nan, 0.0, 5e-324]
    got = hamiltonian_batch(pen, f_vals, q)
    want = _reference_hamiltonian_batch(pen, f_vals, q)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert hamiltonian_batch(pen, 0.3, q).shape == (n,)  # f broadcasts
    assert hamiltonian_batch(pen, f_vals, 0.0).shape == (n,)


def test_bisection_never_receives_a_zero_rate(monkeypatch):
    import ctrlstop.kernel as kernel_mod

    seen = []
    plain = kernel_mod._solve_radius

    def solve_radius(pen, f_val, q, *args):
        seen.append(np.asarray(q).copy())
        return plain(pen, f_val, q, *args)

    monkeypatch.setattr(kernel_mod, "_solve_radius", solve_radius)
    pen = Penalty(0.1)
    q = np.array([0.0, 1.5, -0.0, np.nan, 0.0, 2.0])
    hamiltonian_batch(pen, np.full(6, 0.3), q)
    hamiltonian_batch(pen, np.full(6, 0.3), np.zeros(6))
    assert seen and all(np.count_nonzero(s == 0.0) == 0 for s in seen)
    assert sum(s.size for s in seen) == 3  # 1.5, NaN and 2.0


def _bits(a):
    """The bytes of a float result, its shape and dtype: equal only bit for bit."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def test_radius_in_one_dimension_is_the_norm_bit_for_bit():
    # sqrt(x1 * x1) against np.linalg.norm: +-0, inf, NaN, a square that
    # overflows, subnormals and squares that underflow, plain values
    from ctrlstop.kernel import _radius

    x = np.array([[0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan, 1e200, -1e300, 5e-324, -1e-170, 3.1]])
    for pts in (x, x[:, ::-3], x.reshape(1, 3, 4), x[:, 2], x[:, 7]):
        with np.errstate(over="ignore"):
            want = np.linalg.norm(pts, axis=0)
        assert _bits(_radius(pts)) == _bits(want)


# g and h do not vanish on the cut-off's bridge, so that a cut-off skipped
# there shows in g_m and h_m
BRIDGE_DATA = {
    1: """
dim = 1
horizon = 0.5
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = 0.3 + 0.01*x1^2
g = 1 + 0.1*x1
h = 0.5 - 0.2*x1
""",
    2: SKEW_2D.replace("h = 0", "h = 0.5 - 0.2*x2"),
}


@pytest.mark.parametrize("d", [1, 2])
def test_inner_ball_shortcut_is_the_cut_off_formula(d, monkeypatch):
    """Where every point lies in the cut-off's inner ball, g_m, h_m and f_m^2
    skip the cut-off; they are xi g, xi h and the full f_m^2 bit for bit on
    points all inside (one on the inner sphere), with one on the bridge, one
    beyond it, and one with a NaN or an infinite radius."""
    from ctrlstop.kernel import Cutoff, _radius

    spec, _, _ = parse_config_text(BRIDGE_DATA[d])
    data = truncate_data(spec, 4.0)
    mc = data.cutoff.m
    rng = np.random.default_rng(9)
    direction = rng.normal(size=(d, 60))
    direction /= np.linalg.norm(direction, axis=0)
    inside = direction * rng.uniform(0.0, mc, 60)
    inside[:, 0] = direction[:, 0] * mc  # |x| = m - 1 up to rounding
    inside[:, 1] = 0.0
    inside[0, 2] = mc  # on the inner sphere exactly
    inside[1:, 2] = 0.0
    cases = {"inside": inside}
    for name, extra in (("bridge", mc + 0.5), ("beyond", mc + 1.5), ("nan", np.nan), ("inf", np.inf)):
        x = inside.copy()
        x[:, 7] = direction[:, 7] * extra
        cases[name] = x
    calls = []
    plain = Cutoff.value_radial
    monkeypatch.setattr(Cutoff, "value_radial", lambda self, r: calls.append(1) or plain(self, r))
    for name, x in cases.items():
        r = _radius(x)
        for t in (0.0, 0.3):
            # at the infinite point: sin(inf) and 0 * inf are NaN, silently
            with np.errstate(invalid="ignore"):
                g, h = spec.g(t, x), spec.h(t, x)
                xi = plain(data.cutoff, r)
                calls.clear()
                got = data._cut(r, g, h)
                assert len(calls) == (name != "inside"), name  # the shortcut, and only inside
                assert [_bits(v) for v in got] == [_bits(xi * g), _bits(xi * h)], name
                assert _bits(data.g_m(t, x)) == _bits(data.cutoff.value(x) * g), name
                assert _bits(data.h_m(t, x)) == _bits(data.cutoff.value(x) * h), name
            if name != "inf":  # the full formula's radicand check needs finite points
                assert _bits(data.f_m_sq(t, x)) == _bits(_reference_f_m_sq(data, t, x)), name
    assert data._inner(_radius(cases["inside"])) and not data._inner(_radius(cases["bridge"]))
