"""Randomized invariant suite over the approximation kernel and the oracles.

Each check returns (name, passed, detail); the CLI verify command runs them
all and maps any failure to a nonzero exit code.  The penalty factory is
injectable so the suite can be demonstrated to catch a corrupted bridge.
"""
from __future__ import annotations

import numpy as np

from .benches import load_bench
from .expressions import eval_with_derivatives, parse_expression
from .kernel import Penalty, build_cutoff, hamiltonian_batch, truncate_data
from .model import _level_stacks
from .oracles import LatticeGame, ObstacleProblem, solve_lattice_game, solve_obstacle

__all__ = ["run_invariant_suite"]


def _check_psi(pen_factory, n_cases, rng):
    fails = 0
    for eps in (0.5, 0.1, 0.02):
        pen = pen_factory(eps)
        ys = np.linspace(-eps, 3 * eps, n_cases)
        if np.any(pen.d2(ys) < -1e-12):
            fails += 1
        if np.any(np.diff(pen.value(ys)) < -1e-12) or np.any(pen.d1(ys) < -1e-12):
            fails += 1
        anchors = (
            abs(float(pen.value(-1.0))) > 0
            or abs(float(pen.value(2 * eps)) - 1.0) > 1e-12
            or abs(float(pen.d1(2 * eps)) - 1.0 / eps) > 1e-9
        )
        if anchors:
            fails += 1
        # second derivative continuous across the joins at 0 and 2 eps
        # (the gap must vanish at the third-derivative scale eta / eps^3)
        for y0 in (0.0, 2 * eps):
            eta = 1e-9 * eps
            jump = abs(float(pen.d2(y0 - eta)) - float(pen.d2(y0 + eta)))
            if jump > 1e-6 + 100.0 * eta / eps**3:
                fails += 1
        # slope consistency: d2 matches a finite difference of d1 mid-bridge
        h = 1e-6 * eps
        for y0 in (0.5 * eps, eps, 1.5 * eps):
            fd = (float(pen.d1(y0 + h)) - float(pen.d1(y0 - h))) / (2 * h)
            if abs(fd - float(pen.d2(y0))) > 1e-4 / eps**2 + 1e-6:
                fails += 1
    return fails == 0, f"{fails} penalty-bridge failures"


def _check_hamiltonian(pen_factory, n_cases, rng):
    fails = 0
    for eps in (0.25, 0.05):
        pen = pen_factory(eps)
        f_vals = rng.uniform(0.0, 3.0, n_cases)
        qs = rng.uniform(0.0, 6.0, n_cases)
        H = hamiltonian_batch(pen, f_vals, qs)
        if np.any(H < eps * qs**2 / 4.0 - 1e-10):
            fails += 1
        if hamiltonian_batch(pen, 1.0, 0.0) != 0.0:
            fails += 1
        # concavity: no random p beats the reported supremum
        ps = rng.uniform(-6.0, 6.0, n_cases)
        trial = qs * ps - pen.value(ps**2 - f_vals**2)
        if np.any(trial > H + 1e-10):
            fails += 1
        # compatibility with any |q| <= f (2-d directions)
        angles = rng.uniform(0, 2 * np.pi, n_cases)
        scale = rng.uniform(0, 1, n_cases) * f_vals
        yv = np.stack([qs, np.zeros_like(qs)])
        qv = np.stack([np.cos(angles), np.sin(angles)]) * scale
        inner = np.sum(yv * qv, axis=0)
        if np.any(H < -inner - 1e-10):
            fails += 1
        # larger cost level => larger supremum (time monotonicity via f)
        f_hi = f_vals + rng.uniform(0.0, 1.0, n_cases)
        if np.any(hamiltonian_batch(pen, f_hi, qs) < H - 1e-10):
            fails += 1
    return fails == 0, f"{fails} Hamiltonian failures"


def _check_cutoff(n_cases, rng):
    cut = build_cutoff(3)
    z = np.linspace(0.0, 1.0, n_cases)
    xi = cut.value_radial(3.0 + z)
    gsq = cut.grad_norm_sq_radial(3.0 + z)
    ok = bool(np.all(gsq <= cut.C0 * xi + 1e-12))
    edge = abs(float(cut.value_radial(3.0)) - 1.0) < 1e-15 and float(cut.value_radial(4.0)) == 0.0
    return ok and edge, f"C0={cut.C0:.3f}, bound holds={ok}, edges={edge}"


def _check_truncation(n_cases, rng):
    bench = load_bench("bench_ou", coarse=True)
    data = truncate_data(bench.spec, 6.0)
    xs = rng.uniform(-6.0, 6.0, (1, n_cases))
    ts = rng.uniform(0.0, bench.spec.T, 4)
    worst = -np.inf
    for t in ts:
        gv, gg, _ = eval_with_derivatives(
            bench.spec.g, (float(t), xs), order=1, fd_step=bench.spec.fd_step
        )
        grad_gm = data.cutoff.grad(xs) * gv + data.cutoff.value(xs) * gg
        norm = np.sqrt(np.sum(grad_gm**2, axis=0))
        fm = data.f_m(float(t), xs)
        worst = max(worst, float(np.max(norm - fm)))
    return worst <= 1e-8, f"max(|grad g_m| - f_m) = {worst:.2e}"


def _check_lattice(rng):
    bench = load_bench("bench_ou", coarse=True)
    game = LatticeGame(spec=bench.spec, radius=4.0, eta=0.1, dt=2e-3)
    sol = solve_lattice_game(game)
    dual = sol.min_gap() >= -1e-12
    return dual, f"min gap {sol.min_gap():.2e}, max gap {sol.max_gap():.2e}"


def _check_obstacle(rng):
    bench = load_bench("bench_ou_purestop", coarse=True)
    spec, grid = bench.spec, bench.grid
    sol = solve_obstacle(ObstacleProblem(spec=spec, grid=grid), tol=1e-10)
    (g,) = _level_stacks(grid.times, grid.points(), spec.time_independent, spec.g)
    above = not np.any(sol.field.values < g - 1e-9)
    return (
        above and sol.complementarity_residual < 1e-10,
        f"above obstacle={above}, complementarity={sol.complementarity_residual:.1e}",
    )


def _check_roundtrip(n_cases, rng):
    sources = [
        "x1^2 + 1",
        "exp(-x1^2) * sin(t) + sqrt(abs(x1) + 1)",
        "min(t, x1) + max(x1, -2) / (1 + x1^2)",
        "2^-2 + -x1^2",
        "tanh(x1) * cos(t) - log(2 + x1^2)",
    ]
    for src in sources:
        e = parse_expression(src)
        e2 = parse_expression(str(e))
        xs = rng.uniform(-3, 3, (1, n_cases))
        ts = rng.uniform(0, 1, n_cases)
        for t, col in zip(ts[:8], range(8)):
            a = float(e(float(t), xs[:, col]))
            b = float(e2(float(t), xs[:, col]))
            if a != b:
                return False, f"round-trip mismatch for {src!r}"
    return True, f"{len(sources)} expressions round-trip exactly"


def run_invariant_suite(pen_factory=Penalty, n_cases: int = 100_000, rng_seed: int = 0):
    """Run every invariant check; returns a list of (name, passed, detail)."""
    rng = np.random.default_rng(rng_seed)
    checks = [
        ("penalty bridge (anchors, convexity, C2 joins)", _check_psi(pen_factory, n_cases, rng)),
        ("hamiltonian (bound, concavity, compatibility)", _check_hamiltonian(pen_factory, n_cases, rng)),
        ("cutoff gradient bound", _check_cutoff(n_cases, rng)),
        ("truncated gradient constraint", _check_truncation(min(n_cases, 20_000), rng)),
        ("lattice weak duality", _check_lattice(rng)),
        ("obstacle solver complementarity", _check_obstacle(rng)),
        ("expression round-trip", _check_roundtrip(1_000, rng)),
    ]
    return [(name, ok, detail) for name, (ok, detail) in checks]
