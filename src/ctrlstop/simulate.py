"""Monte Carlo engine for the controlled SDE and the game payoffs.

simulate_paths estimates the original singular-control/stopping payoff
(discounted stopping reward g, running reward h, and a cost f per unit of
control, with jump costs integrated along the jump segment).
simulate_penalized estimates the absolutely-continuous penalized game payoff
with the controlled discount R^w, and simulate_recursive its recursive
reformulation with killing rate 1/delta.  Feedback strategies are synthesized
from a solved field: the controller pushes along -grad u at rate
2 psi'(|grad u|^2 - f^2)|grad u|, the stopper uses the contact-set rules.
The three simulators share one path engine (_run_paths) and differ only in
their payoff rule: when a path stops, its discount, and what it accrues.

All draws come from a counter-based Philox generator keyed by the seed, so
runs are bit-reproducible; paths are vectorized and reduced in fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grid import GridField
from .kernel import Penalty, TruncatedData, _radius, hamiltonian_batch
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
        if self.jump_quadrature_points < 1 or self.feedback_substeps < 1:
            raise ValueError("jump quadrature points and feedback substeps must be >= 1")


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


class _Controls(tuple):
    """(direction, rate, outside) of FeedbackStrategy.control.  A gradient
    feedback also keeps the |grad u|^2 and f^2 it sampled, so that the
    closed-form Hamiltonian of the penalized payoffs reuses them."""

    def __new__(cls, direction, rate, outside, gnorm_sq, f_sq):
        self = super().__new__(cls, (direction, rate, outside))
        self.gnorm_sq, self.f_sq = gnorm_sq, f_sq
        return self


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
        outside = _radius(x) > self.field.grid.m
        if np.any(outside):
            g[:, outside] = 0.0
        return g, outside

    def _f_squared(self, t, x):
        if self.data is not None:
            return self.data.f_m_sq(t, x)
        return self.spec.f(t, x) ** 2

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
            gnorm_sq = np.sum(grad**2, axis=0)
            f_sq = self._f_squared(t, x)
            norm = np.sqrt(gnorm_sq)
            pos = norm > 0
            direction[:, pos] = -grad[:, pos] / norm[pos]
            rate = 2.0 * self.pen.d1(norm**2 - f_sq) * norm
            rate *= self.scale
            if self.flip:
                direction = -direction
            return _Controls(direction, rate, outside, gnorm_sq, f_sq)
        raise ValueError(f"not a controller mode: {self.mode}")

    def stop_mask(self, t, elapsed, x, uniforms, dt):
        """Boolean mask of paths the stopper terminates on this step."""
        if self.mode == "stopper_never":
            return np.zeros(x.shape[1], dtype=bool)
        if self.mode == "stopper_fixed":
            return np.full(x.shape[1], elapsed >= self.fixed_time - 1e-12)
        if self.mode == "stopper_tau_star":
            u = self.field.sample(t, x)
            return u <= self.spec.g(t, x) + self.band
        if self.mode == "stopper_w_star":
            u = self.field.sample(t, x)
            g = self.data.g_m(t, x) if self.data is not None else self.spec.g(t, x)
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
        cost += spec.f(t, probe)
    return np.where(moving, cost * sizes / q_points, 0.0)


def _finalize(parts, keep, n_rej, cfg, extras):
    """Estimate over the kept paths.  Antithetic runs keep a pair only when
    both its paths are kept, and their samples are the pair averages: a path
    and its mirror share their draws, so they are not independent."""
    if cfg.antithetic:
        half = cfg.n_paths // 2
        keep = np.tile(keep[:half] & keep[half:], 2)
    parts = {k: v[keep] for k, v in parts.items()}
    total = parts["terminal"] + parts["running"] + parts["control_cost"]
    n_eff = total.size
    if cfg.antithetic:
        total = 0.5 * (total[: n_eff // 2] + total[n_eff // 2 :])
    mean = float(np.mean(total))
    se = float(np.std(total, ddof=1) / math.sqrt(total.size)) if total.size > 1 else 0.0
    breakdown = {k: float(np.mean(v)) for k, v in parts.items()}
    meta = {"rejected_paths": n_rej, "n_steps": cfg.n_steps, **extras}
    return PayoffEstimate(
        mean=mean, std_error=se, n_paths=n_eff, breakdown=breakdown, metadata=meta
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


def _run_paths(spec, start, strategy_ctrl, cfg, payoff, nsub=1) -> PayoffEstimate:
    """The Euler-Maruyama path engine behind the three simulators.

    Each step k < n_steps draws one batch of normals and uniforms for all
    paths.  The payoff rule picks the alive paths that stop (at the horizon
    all do) and what they are paid.  strategy_ctrl steers the rest over nsub
    substeps (none with nsub=0), the rule books what they accrue, and they
    move X += b dt + sigma sqrt(dt) Z + n dnu.  Paths that leave the finite
    floats are rejected and dropped from the estimate.
    """
    t0, x0, horizon = _start_point(spec, start)
    dt = horizon / cfg.n_steps
    sqdt = math.sqrt(dt)
    n = cfg.n_paths
    rejected = np.zeros(n, dtype=bool)
    parts = {"terminal": np.zeros(n), "running": np.zeros(n), "control_cost": np.zeros(n)}
    # the alive paths, kept compact: their numbers idx and states xa
    idx = np.arange(n)
    xa = payoff.begin(t0, np.tile(x0[:, None], (1, n)), parts)
    draws = _draws(cfg, spec.d_noise)

    for k in range(cfg.n_steps + 1):
        elapsed = k * dt
        t = t0 + elapsed
        if k == cfg.n_steps:
            stop = np.ones(idx.size, dtype=bool)
        else:
            z, uniforms = next(draws)
            stop = payoff.stop(t, elapsed, xa, uniforms if idx.size == n else uniforms[idx], dt)
        if np.any(stop):
            parts["terminal"][idx[stop]] += payoff.terminal(t, elapsed, xa[:, stop], idx[stop])
            idx, xa = idx[~stop], xa[:, ~stop]
        if idx.size == 0 or k == cfg.n_steps:
            break

        drift_ctrl = np.zeros_like(xa)
        controls = []
        xs = xa
        for _ in range(nsub):
            ctl = strategy_ctrl.control(t, elapsed, xs)
            drift_ctrl = drift_ctrl + ctl[0] * (ctl[1] * dt / nsub)[None, :]
            controls.append((xs, ctl))
            xs = xa + drift_ctrl
        running, control_cost = payoff.accrue(t, elapsed, xa, idx, controls, dt)
        parts["running"][idx] += running
        parts["control_cost"][idx] += control_cost

        with np.errstate(over="ignore", invalid="ignore"):
            bv = spec.drift(xa)
            sv = spec.diffusion(xa)
            noise = np.einsum("ijk,jk->ik", sv, z if idx.size == n else z[:, idx])
            xa = xa + bv * dt + noise * sqdt + drift_ctrl
        bad = ~np.all(np.isfinite(xa), axis=0)
        if np.any(bad):
            rejected[idx[bad]] = True
            idx, xa = idx[~bad], xa[:, ~bad]

    n_rej = int(np.sum(rejected))
    if n_rej > MAX_REJECT_FRACTION * n:
        raise SimulationError(f"{n_rej}/{n} paths rejected (diverging dynamics)")
    keep = ~rejected
    return _finalize(parts, keep, n_rej, cfg, {**payoff.extras(keep), "dt": dt})


class _Payoff:
    """A simulator's payoff rule for the path engine, called on the alive
    paths x (d, n_alive) with path numbers idx:

    stop(t, elapsed, x, uniforms, dt): mask of the paths that stop at t;
    terminal(t, elapsed, x, idx): discounted payment of the stopping paths;
    accrue(t, elapsed, x, idx, controls, dt): discounted (running reward,
        control cost) over [t, t + dt]; controls lists each feedback
        substep's (state, control);
    begin(t0, x, parts): the paths after a move at t0 (none by default);
    extras(keep): metadata entries (none by default).
    """

    def begin(self, t0, x, parts):
        return x

    def extras(self, keep):
        return {}


class _OriginalPayoff(_Payoff):
    """The stopper's rule, g discounted at e^{-r t}; h and f dnu accrue."""

    def __init__(self, spec, strategy_ctrl, strategy_stop, cfg):
        self.spec, self.ctrl, self.stopper, self.cfg = spec, strategy_ctrl, strategy_stop, cfg
        self.ever_exited = np.zeros(cfg.n_paths, dtype=bool)

    def begin(self, t0, x, parts):
        # optional single impulse at time zero (test strategies)
        if self.ctrl.mode != "controller_jump" or self.ctrl.jump_size <= 0:
            return x
        direction = np.zeros_like(x)
        direction[0] = float(np.sign(self.ctrl.jump_direction) or 1.0)
        sizes = np.full(x.shape[1], self.ctrl.jump_size)
        parts["control_cost"] += _jump_cost(
            self.spec, t0, x, direction, sizes, self.cfg.jump_quadrature_points
        )
        return x + direction * sizes[None, :]

    def stop(self, t, elapsed, x, uniforms, dt):
        return self.stopper.stop_mask(t, elapsed, x, uniforms, dt)

    def terminal(self, t, elapsed, x, idx):
        return math.exp(-self.spec.r * elapsed) * self.spec.g(t, x)

    def accrue(self, t, elapsed, x, idx, controls, dt):
        spec, n_alive = self.spec, x.shape[1]
        disc = math.exp(-spec.r * elapsed)
        w_step = float(_exp_weight(spec.r, dt))  # exact discount integral per step
        h_val = spec.h(t, x)
        cost_rate = np.zeros(n_alive)
        outside = np.zeros(n_alive, dtype=bool)
        for xs, (_, rate, out_sub) in controls:
            fv = spec.f(t, xs)
            cost_rate = cost_rate + fv * rate * w_step / len(controls)
            outside |= out_sub
        self.ever_exited[idx] |= outside
        return disc * h_val * w_step, disc * cost_rate

    def extras(self, keep):
        exit_fraction = float(np.mean(self.ever_exited[keep])) if np.any(keep) else 0.0
        return {"exit_fraction": exit_fraction, "valid": exit_fraction <= MAX_EXIT_FRACTION}


class _TruncatedPayoff(_Payoff):
    """Stop at the exit from the radius-m ball, paid the truncated g_m; the
    controller pays the penalized Hamiltonian term."""

    def __init__(self, spec, data, pen, delta, strategy_ctrl):
        self.spec, self.data, self.pen, self.delta = spec, data, pen, delta
        self.field = strategy_ctrl.field
        self.closed_form = strategy_ctrl.mode == "controller_opt" and not strategy_ctrl.flip

    def stop(self, t, elapsed, x, uniforms, dt):
        return _radius(x) >= self.data.m

    def hamiltonian(self, t, x, controls):
        ((_, ctl),) = controls
        if self.closed_form:
            zeta = ctl.gnorm_sq - ctl.f_sq
            return 2.0 * self.pen.d1(zeta) * ctl.gnorm_sq - self.pen.value(zeta)
        return hamiltonian_batch(self.pen, np.sqrt(self.data.f_m_sq(t, x)), ctl[1])


class _PenalizedPayoff(_TruncatedPayoff):
    """Controlled discount R^w = exp(-int (r + w)); h_m + w g_m accrues."""

    def __init__(self, spec, data, pen, delta, strategy_ctrl, strategy_w, cfg):
        super().__init__(spec, data, pen, delta, strategy_ctrl)
        self.strategy_w = strategy_w
        self.logR = np.zeros(cfg.n_paths)  # log of the controlled discount R^w
        self.min_R = 1.0

    def terminal(self, t, elapsed, x, idx):
        return np.exp(self.logR[idx]) * self.data.g_m(t, x)

    def accrue(self, t, elapsed, x, idx, controls, dt):
        n_alive, delta, r = x.shape[1], self.delta, self.spec.r
        u_val = self.field.sample(t, x) if self.field is not None else None
        g_m_val = self.data.g_m(t, x)
        h_m_val = self.data.h_m(t, x)
        if self.strategy_w == "w_star":
            w_val = np.where(u_val <= g_m_val, 1.0 / delta, 0.0)
        elif callable(self.strategy_w):
            w_val = np.asarray(self.strategy_w(t, x, u_val), dtype=float) * np.ones(n_alive)
        else:
            w_val = np.full(n_alive, float(self.strategy_w))
        if np.any(w_val < -1e-12) or np.any(w_val > 1.0 / delta + 1e-9):
            raise SimulationError("stopper intensity outside [0, 1/delta]")
        h_term = self.hamiltonian(t, x, controls)
        R_now = np.exp(self.logR[idx])
        w_step = _exp_weight(r + w_val, dt)
        self.logR[idx] -= (r + w_val) * dt
        self.min_R = min(self.min_R, float(np.min(np.exp(self.logR[idx]))))
        return R_now * (h_m_val + w_val * g_m_val) * w_step, R_now * h_term * w_step

    def extras(self, keep):
        return {"min_R": self.min_R}


class _RecursivePayoff(_TruncatedPayoff):
    """Killing at rate 1/delta, discount e^{-(r + 1/delta) t};
    h_m + (1/delta) max(g_m, u) accrues."""

    def terminal(self, t, elapsed, x, idx):
        kappa = self.spec.r + 1.0 / self.delta
        return math.exp(-kappa * elapsed) * self.data.g_m(t, x)

    def accrue(self, t, elapsed, x, idx, controls, dt):
        kappa = self.spec.r + 1.0 / self.delta
        disc = math.exp(-kappa * elapsed)
        u_val = self.field.sample(t, x)
        g_m_val = self.data.g_m(t, x)
        h_m_val = self.data.h_m(t, x)
        h_term = self.hamiltonian(t, x, controls)
        reward = h_m_val + np.maximum(g_m_val, u_val) / self.delta
        w_step = float(_exp_weight(kappa, dt))
        return disc * reward * w_step, disc * h_term * w_step


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
    if strategy_ctrl.mode == "controller_jump":
        nsub = 0  # the impulse at t0 is its only control
    elif _is_feedback(strategy_ctrl):
        nsub = cfg.feedback_substeps
    else:
        nsub = 1
    payoff = _OriginalPayoff(spec, strategy_ctrl, strategy_stop, cfg)
    return _run_paths(spec, start, strategy_ctrl, cfg, payoff, nsub)


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
    if strategy_w == "w_star" and strategy_ctrl.field is None:
        raise ValueError("the w_star stopper needs a solved field on the strategy")
    payoff = _PenalizedPayoff(spec, data, pen, delta, strategy_ctrl, strategy_w, cfg)
    return _run_paths(spec, start, strategy_ctrl, cfg, payoff)


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
    payoff = _RecursivePayoff(spec, data, pen, delta, strategy_ctrl)
    return _run_paths(spec, start, strategy_ctrl, cfg, payoff)


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
        sub_cfg = replace(cfg, rng_seed=seed + 1000 + i)
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
        sub_cfg = replace(cfg, rng_seed=seed + 2000 + i)
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
