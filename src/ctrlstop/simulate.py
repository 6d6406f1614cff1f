"""Monte Carlo engine for the controlled SDE and the game payoffs.

simulate_paths estimates the original singular-control/stopping payoff
(discounted stopping reward g, running reward h, and a cost f per unit of
control, with jump costs integrated along the jump segment).
simulate_penalized estimates the absolutely-continuous penalized game payoff
with the controlled discount R^w, and simulate_recursive its recursive
reformulation with killing rate 1/delta.  Feedback strategies are synthesized
from a solved field: the controller pushes along -grad u at rate
2 psi'(|grad u|^2 - f^2)|grad u|, the stopper uses the contact-set rules.

All draws come from a counter-based Philox generator keyed by the seed, so
runs are bit-reproducible; paths are vectorized and reduced in fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import GridField
from .kernel import Penalty, TruncatedData, hamiltonian_batch
from .model import ProblemSpec

__all__ = [
    "PathConfig",
    "PayoffEstimate",
    "FeedbackStrategy",
    "SimulationError",
    "simulate_paths",
    "simulate_penalized",
    "simulate_recursive",
    "saddle_probe",
]

MAX_REJECT_FRACTION = 0.01
MAX_EXIT_FRACTION = 0.05


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PathConfig:
    n_paths: int
    n_steps: int
    rng_seed: int = 0
    antithetic: bool = False
    jump_quadrature_points: int = 16
    feedback_substeps: int = 4  # substeps for stiff reflection drifts

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least 2 paths for standard errors")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic pairing needs an even path count")


@dataclass
class PayoffEstimate:
    mean: float
    std_error: float
    n_paths: int
    breakdown: dict[str, float]
    metadata: dict = dc_field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return self.metadata.get("valid", True)


@dataclass
class FeedbackStrategy:
    """Controller or stopper rule synthesized from a solved field.

    Controller modes:
      controller_opt              push along -grad u at 2 psi'(.)|grad u|
      controller_idle             never act
      controller_perturbed        opt with nu_dot scaled and/or n flipped
      controller_push             constant rate along +e1 (test strategy)
      controller_jump             one impulse of given size at time 0
      controller_delayed          idle before `delay`, opt afterwards
    Stopper modes:
      stopper_tau_star            stop on u <= g + band
      stopper_w_star              stop at rate 1/delta on u <= g_m
      stopper_fixed               stop at a fixed elapsed time
      stopper_never               run to the horizon
    """

    spec: ProblemSpec
    mode: str
    field: GridField | None = None
    pen: Penalty | None = None
    data: TruncatedData | None = None  # use truncated payoffs where present
    delta: float | None = None
    band: float = 0.0
    scale: float = 1.0
    flip: bool = False
    fixed_time: float | None = None
    push_rate: float = 0.0
    jump_size: float = 0.0
    jump_direction: int = 1
    delay: float = 0.0

    def _grad_u(self, t, x):
        g = self.field.sample_gradient(t, x)
        # outside the solved box the controller idles (logged by the caller)
        radius = np.linalg.norm(x, axis=0)
        outside = radius > self.field.grid.m
        if np.any(outside):
            g[:, outside] = 0.0
        return g, outside

    def _f_squared(self, t, x):
        if self.data is not None:
            return self.data.f_m_sq(t, x)
        fv = np.asarray(self.spec.f(t, x), dtype=float)
        return fv**2 * np.ones(x.shape[1])

    def control(self, t, elapsed, x):
        """Unit direction and control rate at state x (d, n)."""
        n_paths = x.shape[1]
        direction = np.zeros_like(x)
        direction[0] = 1.0
        rate = np.zeros(n_paths)
        outside = np.zeros(n_paths, dtype=bool)
        if self.mode == "controller_idle":
            return direction, rate, outside
        if self.mode == "controller_push":
            rate[:] = self.push_rate
            return direction, rate, outside
        if self.mode in ("controller_opt", "controller_perturbed", "controller_delayed"):
            if self.mode == "controller_delayed" and elapsed < self.delay:
                return direction, rate, outside
            grad, outside = self._grad_u(t, x)
            norm = np.sqrt(np.sum(grad**2, axis=0))
            pos = norm > 0
            direction[:, pos] = -grad[:, pos] / norm[pos]
            rate = 2.0 * self.pen.d1(norm**2 - self._f_squared(t, x)) * norm
            rate *= self.scale
            if self.flip:
                direction = -direction
            return direction, rate, outside
        raise ValueError(f"not a controller mode: {self.mode}")

    def stop_mask(self, t, elapsed, x, uniforms, dt):
        """Boolean mask of paths the stopper terminates on this step."""
        if self.mode == "stopper_never":
            return np.zeros(x.shape[1], dtype=bool)
        if self.mode == "stopper_fixed":
            return np.full(x.shape[1], elapsed >= self.fixed_time - 1e-12)
        if self.mode == "stopper_tau_star":
            u = self.field.sample(t, x)
            g = np.asarray(self.spec.g(t, x), dtype=float) * np.ones(x.shape[1])
            return u <= g + self.band
        if self.mode == "stopper_w_star":
            u = self.field.sample(t, x)
            if self.data is not None:
                g = np.asarray(self.data.g_m(t, x), dtype=float)
            else:
                g = np.asarray(self.spec.g(t, x), dtype=float) * np.ones(x.shape[1])
            in_contact = u <= g + self.band
            p_stop = 1.0 - math.exp(-dt / self.delta)
            return in_contact & (uniforms < p_stop)
        raise ValueError(f"not a stopper mode: {self.mode}")


def _draws(cfg: PathConfig, d_noise: int):
    """Per-step generator of (normals (d', n), uniforms (n,)) from Philox."""
    gen = np.random.Generator(np.random.Philox(key=cfg.rng_seed))
    half = cfg.n_paths // 2
    while True:
        if cfg.antithetic:
            z_half = gen.standard_normal((d_noise, half))
            z = np.concatenate([z_half, -z_half], axis=1)
            u_half = gen.random(half)
            u = np.concatenate([u_half, u_half])
        else:
            z = gen.standard_normal((d_noise, cfg.n_paths))
            u = gen.random(cfg.n_paths)
        yield z, u


def _exp_weight(kappa, dt):
    """Exact integral of e^{-kappa s} over one step of length dt (elementwise);
    removes the O(dt * kappa) left-endpoint quadrature bias for large rates."""
    kappa = np.asarray(kappa, dtype=float)
    out = np.where(kappa > 0, -np.expm1(-kappa * dt) / np.where(kappa > 0, kappa, 1.0), dt)
    return out


def _jump_cost(spec, t, x, direction, sizes, q_points):
    """Cost of an impulse per path: integral of f along the jump segment,
    by midpoint quadrature with q_points nodes."""
    cost = np.zeros(x.shape[1])
    moving = sizes > 0
    if not np.any(moving):
        return cost
    lam = (np.arange(q_points) + 0.5) / q_points
    for w in lam:
        probe = x + direction * (w * sizes)[None, :]
        cost += np.asarray(spec.f(t, probe), dtype=float) * np.ones(x.shape[1])
    return np.where(moving, cost * sizes / q_points, 0.0)


def _finalize(parts, n_eff, rejected, cfg, extras=None):
    total = parts["terminal"] + parts["running"] + parts["control_cost"]
    mean = float(np.mean(total))
    se = float(np.std(total, ddof=1) / math.sqrt(n_eff)) if n_eff > 1 else 0.0
    breakdown = {k: float(np.mean(v)) for k, v in parts.items()}
    meta = {"rejected_paths": int(rejected), "n_steps": cfg.n_steps}
    if extras:
        meta.update(extras)
    return PayoffEstimate(
        mean=mean, std_error=se, n_paths=int(n_eff), breakdown=breakdown, metadata=meta
    )


def _start_point(spec: ProblemSpec, start):
    """(t0, x0 as a flat array, horizon T - t0) of a (t0, x0) start point."""
    t0, x0 = start
    t0 = float(t0)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != spec.d:
        raise ValueError("start point dimension mismatch")
    horizon = spec.T - t0
    if horizon <= 0:
        raise ValueError("start time at or beyond the horizon")
    return t0, x0, horizon


def simulate_paths(
    spec: ProblemSpec,
    start,
    strategy_ctrl: FeedbackStrategy,
    strategy_stop: FeedbackStrategy,
    cfg: PathConfig,
) -> PayoffEstimate:
    """Estimate the original game payoff under the given feedback strategies.

    Euler-Maruyama steps X += b dt + sigma sqrt(dt) Z + n dnu; the stopper is
    polled at each grid time before the move; stopping (or the horizon) pays
    the discounted g; running h and control costs accumulate along the way.
    """
    t0, x0, horizon = _start_point(spec, start)
    dt = horizon / cfg.n_steps
    n = cfg.n_paths
    x = np.tile(x0[:, None], (1, n))
    alive = np.ones(n, dtype=bool)
    ever_exited = np.zeros(n, dtype=bool)
    rejected = np.zeros(n, dtype=bool)
    parts = {
        "terminal": np.zeros(n),
        "running": np.zeros(n),
        "control_cost": np.zeros(n),
    }
    draws = _draws(cfg, spec.d_noise)
    sqdt = math.sqrt(dt)

    # optional single impulse at time zero (test strategies)
    if strategy_ctrl.mode == "controller_jump" and strategy_ctrl.jump_size > 0:
        direction = np.zeros_like(x)
        direction[0] = float(np.sign(strategy_ctrl.jump_direction) or 1.0)
        sizes = np.full(n, strategy_ctrl.jump_size)
        parts["control_cost"] += _jump_cost(
            spec, t0, x, direction, sizes, cfg.jump_quadrature_points
        )
        x = x + direction * sizes[None, :]

    for k in range(cfg.n_steps + 1):
        elapsed = k * dt
        t = t0 + elapsed
        disc = math.exp(-spec.r * elapsed)
        z, uniforms = next(draws)
        if k == cfg.n_steps:
            stop_now = alive.copy()
        else:
            stop_now = alive & strategy_stop.stop_mask(t, elapsed, x, uniforms, dt)
        if np.any(stop_now):
            g_val = np.asarray(spec.g(t, x[:, stop_now]), dtype=float) * np.ones(
                int(np.sum(stop_now))
            )
            parts["terminal"][stop_now] += disc * g_val
            alive &= ~stop_now
        if not np.any(alive) or k == cfg.n_steps:
            break

        xa = x[:, alive]
        n_alive = xa.shape[1]
        w_step = float(_exp_weight(spec.r, dt))  # exact discount integral per step
        h_val = np.asarray(spec.h(t, xa), dtype=float) * np.ones(n_alive)
        parts["running"][alive] += disc * h_val * w_step

        if strategy_ctrl.mode == "controller_jump":
            drift_ctrl = np.zeros_like(xa)
            cost_rate = np.zeros(n_alive)
            outside = np.zeros(n_alive, dtype=bool)
        else:
            nsub = max(1, cfg.feedback_substeps if _is_feedback(strategy_ctrl) else 1)
            drift_ctrl = np.zeros_like(xa)
            cost_rate = np.zeros(n_alive)
            outside = np.zeros(n_alive, dtype=bool)
            xs = xa
            for _ in range(nsub):
                nvec, rate, out_sub = strategy_ctrl.control(t, elapsed, xs)
                fv = np.asarray(spec.f(t, xs), dtype=float) * np.ones(n_alive)
                move = nvec * (rate * dt / nsub)[None, :]
                drift_ctrl = drift_ctrl + move
                cost_rate = cost_rate + fv * rate * w_step / nsub
                outside |= out_sub
                xs = xa + drift_ctrl
        parts["control_cost"][alive] += disc * cost_rate
        ever_exited[alive] |= outside

        with np.errstate(over="ignore", invalid="ignore"):
            bv = spec.drift(xa)
            sv = spec.diffusion(xa)
            noise = np.einsum("ijk,jk->ik", sv, z[:, alive])
            x_new = xa + bv * dt + noise * sqdt + drift_ctrl
        bad = ~np.all(np.isfinite(x_new), axis=0)
        if np.any(bad):
            idx = np.flatnonzero(alive)[bad]
            rejected[idx] = True
            alive[idx] = False
            x_new = x_new[:, ~bad]
            x[:, alive] = x_new
        else:
            x[:, alive] = x_new

    n_rej = int(np.sum(rejected))
    if n_rej > MAX_REJECT_FRACTION * n:
        raise SimulationError(f"{n_rej}/{n} paths rejected (diverging dynamics)")
    keep = ~rejected
    parts = {k: v[keep] for k, v in parts.items()}
    exit_fraction = float(np.mean(ever_exited[keep])) if np.any(keep) else 0.0
    return _finalize(
        parts,
        int(np.sum(keep)),
        n_rej,
        cfg,
        extras={
            "exit_fraction": exit_fraction,
            "valid": exit_fraction <= MAX_EXIT_FRACTION,
            "dt": dt,
        },
    )


def _is_feedback(strategy: FeedbackStrategy) -> bool:
    return strategy.mode in ("controller_opt", "controller_perturbed", "controller_delayed")


def simulate_penalized(
    spec: ProblemSpec,
    data: TruncatedData,
    pen: Penalty,
    delta: float,
    start,
    strategy_ctrl: FeedbackStrategy,
    strategy_w,
    cfg: PathConfig,
) -> PayoffEstimate:
    """Estimate the penalized game payoff with controlled discount R^w.

    strategy_w maps (t, x, u_interp) -> stopping intensity in [0, 1/delta];
    pass "w_star" for the bang-bang rule 1/delta on {u <= g_m}, or a float
    for a constant intensity.  Paths stop at the exit from the radius-m ball
    or at the horizon, collecting the discounted truncated payoff g_m.
    """
    t0, x0, horizon = _start_point(spec, start)
    dt = horizon / cfg.n_steps
    n = cfg.n_paths
    x = np.tile(x0[:, None], (1, n))
    alive = np.ones(n, dtype=bool)
    rejected = np.zeros(n, dtype=bool)
    logR = np.zeros(n)  # log of the controlled discount R^w
    parts = {
        "terminal": np.zeros(n),
        "running": np.zeros(n),
        "control_cost": np.zeros(n),
    }
    min_R, max_R = 1.0, 1.0
    draws = _draws(cfg, spec.d_noise)
    sqdt = math.sqrt(dt)
    use_opt_closed_form = strategy_ctrl.mode == "controller_opt" and not strategy_ctrl.flip

    for k in range(cfg.n_steps + 1):
        elapsed = k * dt
        t = t0 + elapsed
        xa = x[:, alive]
        n_alive = xa.shape[1]
        if n_alive == 0:
            break
        radius = np.linalg.norm(xa, axis=0)
        exited = radius >= data.m
        final = exited | (k == cfg.n_steps)
        if np.any(final):
            g_val = np.asarray(data.g_m(t, xa[:, final]), dtype=float)
            idx = np.flatnonzero(alive)[final]
            parts["terminal"][idx] += np.exp(logR[idx]) * g_val
            alive[idx] = False
            xa = xa[:, ~final]
            n_alive = xa.shape[1]
        if k == cfg.n_steps or n_alive == 0:
            if k == cfg.n_steps:
                break
            z, uniforms = next(draws)
            continue

        z, uniforms = next(draws)
        idx_alive = np.flatnonzero(alive)
        u_val = strategy_ctrl.field.sample(t, xa) if strategy_ctrl.field is not None else None
        g_m_val = np.asarray(data.g_m(t, xa), dtype=float)
        h_m_val = np.asarray(data.h_m(t, xa), dtype=float)

        if strategy_w == "w_star":
            w_val = np.where(u_val <= g_m_val, 1.0 / delta, 0.0)
        elif callable(strategy_w):
            w_val = np.asarray(strategy_w(t, xa, u_val), dtype=float) * np.ones(n_alive)
        else:
            w_val = np.full(n_alive, float(strategy_w))
        if np.any(w_val < -1e-12) or np.any(w_val > 1.0 / delta + 1e-9):
            raise SimulationError("stopper intensity outside [0, 1/delta]")

        nvec, rate, _ = strategy_ctrl.control(t, elapsed, xa)
        if use_opt_closed_form:
            grad, _ = strategy_ctrl._grad_u(t, xa)
            gnorm_sq = np.sum(grad**2, axis=0)
            zeta = gnorm_sq - strategy_ctrl._f_squared(t, xa)
            h_term = 2.0 * pen.d1(zeta) * gnorm_sq - pen.value(zeta)
        else:
            f_m_val = np.sqrt(data.f_m_sq(t, xa))
            h_term = hamiltonian_batch(pen, f_m_val, rate)
        R_now = np.exp(logR[idx_alive])
        w_step = _exp_weight(spec.r + w_val, dt)
        parts["running"][idx_alive] += R_now * (h_m_val + w_val * g_m_val) * w_step
        parts["control_cost"][idx_alive] += R_now * h_term * w_step

        with np.errstate(over="ignore", invalid="ignore"):
            bv = spec.drift(xa)
            sv = spec.diffusion(xa)
            noise = np.einsum("ijk,jk->ik", sv, z[:, alive])
            x_new = xa + bv * dt + noise * sqdt + nvec * (rate * dt)[None, :]
        logR[idx_alive] -= (spec.r + w_val) * dt
        min_R = min(min_R, float(np.min(np.exp(logR[idx_alive]))))
        bad = ~np.all(np.isfinite(x_new), axis=0)
        if np.any(bad):
            rejected[idx_alive[bad]] = True
            alive[idx_alive[bad]] = False
            x[:, alive] = x_new[:, ~bad]
        else:
            x[:, alive] = x_new

    n_rej = int(np.sum(rejected))
    if n_rej > MAX_REJECT_FRACTION * n:
        raise SimulationError(f"{n_rej}/{n} paths rejected (diverging dynamics)")
    keep = ~rejected
    parts = {k: v[keep] for k, v in parts.items()}
    return _finalize(
        parts, int(np.sum(keep)), n_rej, cfg, extras={"dt": dt, "min_R": min_R, "max_R": max_R}
    )


def simulate_recursive(
    spec: ProblemSpec,
    data: TruncatedData,
    pen: Penalty,
    delta: float,
    start,
    strategy_ctrl: FeedbackStrategy,
    cfg: PathConfig,
) -> PayoffEstimate:
    """Estimate the recursive reformulation: killing rate 1/delta, running
    reward h_m + (1/delta) max(g_m, u) + Hamiltonian term, terminal g_m at
    the exit from the ball or the horizon.  Requires the solved field (it
    enters its own running reward through u)."""
    if strategy_ctrl.field is None:
        raise ValueError("recursive payoff needs a solved field on the strategy")

    def w_const(t, x, u):
        return 1.0 / delta

    # identical mechanics to the penalized payoff with w = 1/delta, except
    # the running reward uses (1/delta) (g_m v u) instead of w g_m
    t0, x0, horizon = _start_point(spec, start)
    dt = horizon / cfg.n_steps
    n = cfg.n_paths
    x = np.tile(x0[:, None], (1, n))
    alive = np.ones(n, dtype=bool)
    rejected = np.zeros(n, dtype=bool)
    parts = {
        "terminal": np.zeros(n),
        "running": np.zeros(n),
        "control_cost": np.zeros(n),
    }
    kappa = spec.r + 1.0 / delta
    draws = _draws(cfg, spec.d_noise)
    sqdt = math.sqrt(dt)
    use_opt_closed_form = strategy_ctrl.mode == "controller_opt" and not strategy_ctrl.flip

    for k in range(cfg.n_steps + 1):
        elapsed = k * dt
        t = t0 + elapsed
        disc = math.exp(-kappa * elapsed)
        xa = x[:, alive]
        n_alive = xa.shape[1]
        if n_alive == 0:
            break
        radius = np.linalg.norm(xa, axis=0)
        exited = radius >= data.m
        final = exited | (k == cfg.n_steps)
        if np.any(final):
            g_val = np.asarray(data.g_m(t, xa[:, final]), dtype=float)
            idx = np.flatnonzero(alive)[final]
            parts["terminal"][idx] += disc * g_val
            alive[idx] = False
            xa = xa[:, ~final]
            n_alive = xa.shape[1]
        if k == cfg.n_steps or n_alive == 0:
            if k == cfg.n_steps:
                break
            next(draws)
            continue

        z, _ = next(draws)
        idx_alive = np.flatnonzero(alive)
        u_val = strategy_ctrl.field.sample(t, xa)
        g_m_val = np.asarray(data.g_m(t, xa), dtype=float)
        h_m_val = np.asarray(data.h_m(t, xa), dtype=float)
        nvec, rate, _ = strategy_ctrl.control(t, elapsed, xa)
        if use_opt_closed_form:
            grad, _ = strategy_ctrl._grad_u(t, xa)
            gnorm_sq = np.sum(grad**2, axis=0)
            zeta = gnorm_sq - strategy_ctrl._f_squared(t, xa)
            h_term = 2.0 * pen.d1(zeta) * gnorm_sq - pen.value(zeta)
        else:
            f_m_val = np.sqrt(data.f_m_sq(t, xa))
            h_term = hamiltonian_batch(pen, f_m_val, rate)
        reward = h_m_val + np.maximum(g_m_val, u_val) / delta
        w_step = float(_exp_weight(kappa, dt))
        parts["running"][idx_alive] += disc * reward * w_step
        parts["control_cost"][idx_alive] += disc * h_term * w_step

        with np.errstate(over="ignore", invalid="ignore"):
            bv = spec.drift(xa)
            sv = spec.diffusion(xa)
            noise = np.einsum("ijk,jk->ik", sv, z[:, alive])
            x_new = xa + bv * dt + noise * sqdt + nvec * (rate * dt)[None, :]
        bad = ~np.all(np.isfinite(x_new), axis=0)
        if np.any(bad):
            rejected[idx_alive[bad]] = True
            alive[idx_alive[bad]] = False
            x[:, alive] = x_new[:, ~bad]
        else:
            x[:, alive] = x_new

    n_rej = int(np.sum(rejected))
    if n_rej > MAX_REJECT_FRACTION * n:
        raise SimulationError(f"{n_rej}/{n} paths rejected (diverging dynamics)")
    keep = ~rejected
    parts = {k: v[keep] for k, v in parts.items()}
    return _finalize(parts, int(np.sum(keep)), n_rej, cfg, extras={"dt": dt})


@dataclass
class ProbeResult:
    name: str
    side: str  # "stopper" or "controller"
    payoff: float
    std_error: float
    reference: float
    margin: float
    passed: bool


def saddle_probe(
    spec: ProblemSpec,
    field: GridField,
    pen: Penalty,
    start,
    cfg: PathConfig,
    stopper_perturbations=None,
    controller_perturbations=None,
    band: float = 0.02,
    allowance: float = 0.02,
    data: TruncatedData | None = None,
) -> list[ProbeResult]:
    """Check the saddle structure of the value at a start point.

    (a) controller at the synthesized optimum vs perturbed stoppers:
        payoff <= u(start) + margin;
    (b) stopper at the contact rule vs perturbed controllers:
        payoff >= u(start) - margin;
    margin = 3 std errors + a discretization allowance.
    """
    t0, x0, horizon = _start_point(spec, start)
    reference = float(field.sample(t0, x0.reshape(-1, 1))[0])

    def ctrl(mode, **kw):
        return FeedbackStrategy(spec=spec, mode=mode, field=field, pen=pen, data=data, **kw)

    if stopper_perturbations is None:
        stopper_perturbations = [
            ("tau_star", ctrl("stopper_tau_star", band=band)),
            ("immediate", ctrl("stopper_fixed", fixed_time=0.0)),
            ("never", ctrl("stopper_never")),
            ("fixed_quarter", ctrl("stopper_fixed", fixed_time=0.25 * horizon)),
            ("fixed_half", ctrl("stopper_fixed", fixed_time=0.5 * horizon)),
            ("wide_band", ctrl("stopper_tau_star", band=5 * band)),
        ]
    if controller_perturbations is None:
        controller_perturbations = [
            ("opt", ctrl("controller_opt")),
            ("idle", ctrl("controller_idle")),
            ("half_rate", ctrl("controller_perturbed", scale=0.5)),
            ("double_rate", ctrl("controller_perturbed", scale=2.0)),
            ("flipped", ctrl("controller_perturbed", flip=True)),
            ("delayed", ctrl("controller_delayed", delay=0.5 * horizon)),
        ]

    results = []
    opt_ctrl = ctrl("controller_opt")
    tau_star = ctrl("stopper_tau_star", band=band)
    seed = cfg.rng_seed
    for i, (name, stopper) in enumerate(stopper_perturbations):
        sub_cfg = PathConfig(
            n_paths=cfg.n_paths,
            n_steps=cfg.n_steps,
            rng_seed=seed + 1000 + i,
            antithetic=cfg.antithetic,
            jump_quadrature_points=cfg.jump_quadrature_points,
            feedback_substeps=cfg.feedback_substeps,
        )
        est = simulate_paths(spec, start, opt_ctrl, stopper, sub_cfg)
        margin = 3 * est.std_error + allowance
        results.append(
            ProbeResult(
                name=name,
                side="stopper",
                payoff=est.mean,
                std_error=est.std_error,
                reference=reference,
                margin=margin,
                passed=est.mean <= reference + margin,
            )
        )
    for i, (name, controller) in enumerate(controller_perturbations):
        sub_cfg = PathConfig(
            n_paths=cfg.n_paths,
            n_steps=cfg.n_steps,
            rng_seed=seed + 2000 + i,
            antithetic=cfg.antithetic,
            jump_quadrature_points=cfg.jump_quadrature_points,
            feedback_substeps=cfg.feedback_substeps,
        )
        est = simulate_paths(spec, start, controller, tau_star, sub_cfg)
        margin = 3 * est.std_error + allowance
        results.append(
            ProbeResult(
                name=name,
                side="controller",
                payoff=est.mean,
                std_error=est.std_error,
                reference=reference,
                margin=margin,
                passed=est.mean >= reference - margin,
            )
        )
    return results
