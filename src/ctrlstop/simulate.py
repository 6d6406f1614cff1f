"""Monte Carlo engine for the controlled SDE and the game payoffs.

simulate_paths estimates the original singular-control/stopping payoff
(discounted stopping reward g, running reward h, and a cost f per unit of
control).
simulate_penalized estimates the absolutely-continuous penalized game payoff
with the controlled discount R^w, and simulate_recursive its recursive
reformulation with killing rate 1/delta.  Feedback strategies are synthesized
from a solved field: the controller pushes along -grad u at rate
2 psi'(|grad u|^2 - f^2)|grad u|, the stopper uses the contact-set rules.
The three simulators share one path engine (_run_paths) and differ only in
their payoff rule: when a path stops, its discount, and what it accrues.
The engine keeps the per-path state of the alive paths compact (states,
accrued sums and the rule's own state, such as log R^w) and writes it into
the full-size arrays only when a path stops.  Each step computes its
geometry once: the radius |x| and the sampling plan of the field live on
one _Points, which the stop rule, the feedback and the payoff rule share,
and which is subset, not recomputed, when paths drop out.  The estimate's
metadata counts the paths stopped by the rule, alive at the horizon and
rejected.

All draws come from a counter-based Philox generator keyed by the seed, so
runs are bit-reproducible; paths are vectorized and reduced in fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grid import GridField, _SamplingPlan
from .kernel import Penalty, TruncatedData, _Branches, _radius, hamiltonian_batch
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
    feedback_substeps: int = 4  # substeps for stiff reflection drifts

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least 2 paths for standard errors")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic pairing needs an even path count")
        if self.feedback_substeps < 1:
            raise ValueError("feedback substeps must be >= 1")


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
    feedback also keeps the |grad u|^2 and f^2 it sampled, and the truncated
    data f^2 came from (f_m^2; None for the untruncated f^2), so that the
    Hamiltonian of the penalized payoffs reuses them."""

    def __new__(cls, direction, rate, outside, gnorm_sq, f_sq, data):
        self = super().__new__(cls, (direction, rate, outside))
        self.gnorm_sq, self.f_sq, self.data = gnorm_sq, f_sq, data
        return self


class _Points:
    """States x (d, n) at time t with the geometry that the stop rule, the
    feedback and the payoff rule all read there: the radius |x| and the
    sampling plan on a field's grid.  Each is computed on first use; subset
    takes the points of a mask with the geometry already computed."""

    __slots__ = ("t", "x", "_radius", "_plan")

    def __init__(self, t, x, radius=None, plan=None):
        self.t, self.x, self._radius, self._plan = t, x, radius, plan

    @property
    def radius(self):
        if self._radius is None:
            self._radius = _radius(self.x)
        return self._radius

    def plan(self, grid):
        """The sampling plan of the points on grid."""
        if self._plan is None or self._plan.grid != grid:
            self._plan = _SamplingPlan(grid, self.t, self.x)
        return self._plan

    def subset(self, mask):
        return _Points(
            self.t,
            self.x[:, mask],
            None if self._radius is None else self._radius[mask],
            None if self._plan is None else self._plan.subset(mask),
        )


def _as_points(t, x):
    """x itself when the path engine passed its _Points, else points (d, n)."""
    return x if isinstance(x, _Points) else _Points(t, np.asarray(x, dtype=float))


MODES = ("controller_opt", "controller_idle", "stopper_tau_star", "stopper_fixed", "stopper_never")


@dataclass
class FeedbackStrategy:
    """Controller or stopper rule synthesized from a solved field; each mode
    is played by saddle_probe.  A mode's inputs are checked at construction.

    Controller modes:
      controller_opt    push along -grad u at 2 psi'(.)|grad u|, idle before
                        `delay`; the rate is multiplied by `scale`, and
                        `flip` reverses the direction (saddle probes); needs
                        `field` and `pen`
      controller_idle   never act
    Stopper modes:
      stopper_tau_star  stop on u <= g + band; needs `field`
      stopper_fixed     stop at the elapsed time `fixed_time` (not NaN)
      stopper_never     run to the horizon
    """

    spec: ProblemSpec
    mode: str
    field: GridField | None = None
    pen: Penalty | None = None
    data: TruncatedData | None = None  # use truncated payoffs where present
    band: float = 0.0
    scale: float = 1.0
    flip: bool = False
    fixed_time: float | None = None
    delay: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown strategy mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "controller_opt" and (self.field is None or self.pen is None):
            raise ValueError("controller_opt needs a solved field and a penalty")
        if self.mode == "stopper_tau_star" and self.field is None:
            raise ValueError("stopper_tau_star needs a solved field")
        if self.mode == "stopper_fixed" and (self.fixed_time is None or math.isnan(self.fixed_time)):
            raise ValueError(f"stopper_fixed needs a fixed_time, got {self.fixed_time!r}")

    @property
    def optimal(self) -> bool:
        """The synthesized optimal feedback itself, with no probe perturbation."""
        perturbed = self.scale != 1.0 or self.flip or self.delay != 0.0
        return self.mode == "controller_opt" and not perturbed

    def _grad_u(self, pts):
        g = self.field.sample_gradient(pts.t, pts.plan(self.field.grid))
        # outside the solved box the controller idles (logged by the caller)
        outside = pts.radius > self.field.grid.m
        if np.any(outside):
            g[:, outside] = 0.0
        return g, outside

    def _f_squared(self, pts):
        if self.data is not None:
            return self.data._f_m_sq(pts.t, pts.x, pts.radius)
        return self.spec.f(pts.t, pts.x) ** 2

    def control(self, t, elapsed, x):
        """Unit direction and control rate at states x (d, n) at time t.  The
        path engine passes its _Points at t as x, so that the feedback reads
        the radius and sampling plan the step already has."""
        pts = _as_points(t, x)
        n_paths = pts.x.shape[1]
        direction = np.zeros_like(pts.x)
        direction[0] = 1.0
        rate = np.zeros(n_paths)
        outside = np.zeros(n_paths, dtype=bool)
        if self.mode == "controller_idle":
            return direction, rate, outside
        if self.mode == "controller_opt":
            if elapsed < self.delay:
                return direction, rate, outside
            grad, outside = self._grad_u(pts)
            gnorm_sq = np.sum(grad**2, axis=0)
            f_sq = self._f_squared(pts)
            norm = np.sqrt(gnorm_sq)
            # -grad u / |grad u|, and +e1 where grad u = 0
            np.divide(-grad, norm, out=direction, where=norm > 0)
            rate = 2.0 * self.pen.d1(norm**2 - f_sq) * norm
            rate *= self.scale
            if self.flip:
                direction = -direction
            return _Controls(direction, rate, outside, gnorm_sq, f_sq, self.data)
        raise ValueError(f"not a controller mode: {self.mode}")

    def stop_mask(self, t, elapsed, x):
        """Boolean mask of paths the stopper terminates on this step; x as in
        control."""
        pts = _as_points(t, x)
        x = pts.x
        if self.mode == "stopper_never":
            return np.zeros(x.shape[1], dtype=bool)
        if self.mode == "stopper_fixed":
            return np.full(x.shape[1], elapsed >= self.fixed_time - 1e-12)
        if self.mode == "stopper_tau_star":
            u = self.field.sample(t, pts.plan(self.field.grid))
            return u <= self.spec.g(t, x) + self.band
        raise ValueError(f"not a stopper mode: {self.mode}")


def _draws(cfg: PathConfig, d_noise: int):
    """Per-step generator of normals (d', n) from Philox."""
    gen = np.random.Generator(np.random.Philox(key=cfg.rng_seed))
    half = cfg.n_paths // 2
    while True:
        if cfg.antithetic:
            z_half = gen.standard_normal((d_noise, half))
            z = np.concatenate([z_half, -z_half], axis=1)
        else:
            z = gen.standard_normal((d_noise, cfg.n_paths))
        # unread uniforms: they keep every fixed-seed estimate bit for bit until a re-record
        gen.random(half if cfg.antithetic else cfg.n_paths)
        yield z


def _exp_weight(kappa, dt):
    """Exact integral of e^{-kappa s} over one step of length dt (elementwise);
    removes the O(dt * kappa) left-endpoint quadrature bias for large rates."""
    kappa = np.asarray(kappa, dtype=float)
    out = np.where(kappa > 0, -np.expm1(-kappa * dt) / np.where(kappa > 0, kappa, 1.0), dt)
    return out


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

    Each step k < n_steps draws one batch of normals for all paths.  The
    payoff rule picks the alive paths that stop (at the horizon all do) and
    what they are paid.  strategy_ctrl steers the rest over nsub >= 1
    substeps, the rule books what they accrue, and they move
    X += b dt + sigma sqrt(dt) Z + n dnu.  Paths that leave the finite floats
    are rejected and dropped from the estimate.

    The alive paths are kept compact: their numbers idx, states xa, running
    and control-cost sums, and the rule's own per-path state all drop the
    same paths together.  The sums reach the full-size parts when a path
    stops.  Each step's geometry (|x| and the sampling plan) lives on one
    _Points, which the stop rule, the feedback and the payoff rule share.
    """
    t0, x0, horizon = _start_point(spec, start)
    dt = horizon / cfg.n_steps
    sqdt = math.sqrt(dt)
    n = cfg.n_paths
    rejected = np.zeros(n, dtype=bool)
    parts = {"terminal": np.zeros(n), "running": np.zeros(n), "control_cost": np.zeros(n)}
    xa = np.tile(x0[:, None], (1, n))
    idx = np.arange(n)
    running = np.zeros(n)
    control_cost = np.zeros(n)
    counts = {"stopped_paths": 0, "horizon_paths": 0}
    draws = _draws(cfg, spec.d_noise)

    for k in range(cfg.n_steps + 1):
        elapsed = k * dt
        t = t0 + elapsed
        pts = _Points(t, xa)
        if k == cfg.n_steps:
            stop = np.ones(idx.size, dtype=bool)
        else:
            z = next(draws)
            stop = payoff.stop(pts, elapsed)
        if np.any(stop):
            ids = idx[stop]
            parts["terminal"][ids] += payoff.terminal(pts.subset(stop), elapsed, stop)
            parts["running"][ids] = running[stop]
            parts["control_cost"][ids] = control_cost[stop]
            payoff.retire(ids, stop)
            counts["horizon_paths" if k == cfg.n_steps else "stopped_paths"] += ids.size
            live = ~stop
            idx, pts = idx[live], pts.subset(live)
            xa, running, control_cost = pts.x, running[live], control_cost[live]
            payoff.compact(live)
        if idx.size == 0 or k == cfg.n_steps:
            break

        drift_ctrl = np.zeros_like(xa)
        controls = []
        for s in range(nsub):
            ps = _Points(t, xa + drift_ctrl) if s else pts
            ctl = strategy_ctrl.control(t, elapsed, ps)
            drift_ctrl = drift_ctrl + ctl[0] * (ctl[1] * dt / nsub)[None, :]
            controls.append((ps, ctl))
        step_running, step_cost = payoff.accrue(pts, elapsed, controls, dt)
        running += step_running
        control_cost += step_cost

        with np.errstate(over="ignore", invalid="ignore"):
            bv = spec.drift(xa)
            sv = spec.diffusion(xa)
            noise = np.einsum("ijk,jk->ik", sv, z if idx.size == n else z[:, idx])
            xa = xa + bv * dt + noise * sqdt + drift_ctrl
        bad = ~np.all(np.isfinite(xa), axis=0)
        if np.any(bad):
            rejected[idx[bad]] = True
            live = ~bad
            idx, xa, running, control_cost = idx[live], xa[:, live], running[live], control_cost[live]
            payoff.compact(live)

    n_rej = int(np.sum(rejected))
    if n_rej > MAX_REJECT_FRACTION * n:
        raise SimulationError(f"{n_rej}/{n} paths rejected (diverging dynamics)")
    keep = ~rejected
    return _finalize(parts, keep, n_rej, cfg, {**counts, **payoff.extras(keep), "dt": dt})


class _Payoff:
    """A simulator's payoff rule for the path engine, called on the alive
    paths' _Points pts at time pts.t:

    stop(pts, elapsed): mask of the paths that stop at t;
    terminal(pts, elapsed, stop): discounted payment of the stopping paths
        pts, which are the alive paths in mask stop;
    accrue(pts, elapsed, controls, dt): discounted (running reward, control
        cost) over [t, t + dt]; controls lists each feedback substep's
        (_Points, control);
    retire(ids, stop): book the per-path state of the alive paths in mask
        stop, path numbers ids, as they stop (nothing by default);
    compact(live): keep the per-path state of the alive paths in mask live
        only (no state by default);
    extras(keep): metadata entries (none by default).
    """

    def retire(self, ids, stop):
        pass

    def compact(self, live):
        pass

    def extras(self, keep):
        return {}


class _OriginalPayoff(_Payoff):
    """The stopper's rule, g discounted at e^{-r t}; h and f dnu accrue."""

    def __init__(self, spec, strategy_stop, cfg):
        self.spec, self.stopper = spec, strategy_stop
        self.ever_exited = np.zeros(cfg.n_paths, dtype=bool)
        self.exited = self.ever_exited.copy()  # of the alive paths

    def stop(self, pts, elapsed):
        return self.stopper.stop_mask(pts.t, elapsed, pts)

    def terminal(self, pts, elapsed, stop):
        return math.exp(-self.spec.r * elapsed) * self.spec.g(pts.t, pts.x)

    def accrue(self, pts, elapsed, controls, dt):
        spec, t = self.spec, pts.t
        disc = math.exp(-spec.r * elapsed)
        w_step = float(_exp_weight(spec.r, dt))  # exact discount integral per step
        h_val = spec.h(t, pts.x)
        cost_rate = np.zeros(pts.x.shape[1])
        for ps, (_, rate, out_sub) in controls:
            fv = spec.f(t, ps.x)
            cost_rate = cost_rate + fv * rate * w_step / len(controls)
            self.exited |= out_sub
        return disc * h_val * w_step, disc * cost_rate

    def retire(self, ids, stop):
        self.ever_exited[ids] = self.exited[stop]

    def compact(self, live):
        self.exited = self.exited[live]

    def extras(self, keep):
        exit_fraction = float(np.mean(self.ever_exited[keep])) if np.any(keep) else 0.0
        return {"exit_fraction": exit_fraction, "valid": exit_fraction <= MAX_EXIT_FRACTION}


class _TruncatedPayoff(_Payoff):
    """Stop at the exit from the radius-m ball, paid the truncated g_m; the
    controller pays the penalized Hamiltonian term."""

    def __init__(self, spec, data, pen, delta, strategy_ctrl):
        self.spec, self.data, self.pen, self.delta = spec, data, pen, delta
        self.field = strategy_ctrl.field
        self.closed_form = strategy_ctrl.optimal

    def stop(self, pts, elapsed):
        return pts.radius >= self.data.m

    def g_m(self, pts):
        return self.data._g_m(pts.t, pts.x, self.data.cutoff.value_radial(pts.radius))

    def g_m_h_m(self, pts):
        """(g_m, h_m) at pts, with one evaluation of the cut-off."""
        xi = self.data.cutoff.value_radial(pts.radius)
        return self.data._g_m(pts.t, pts.x, xi), self.data._h_m(pts.t, pts.x, xi)

    def hamiltonian(self, pts, controls):
        ((_, ctl),) = controls
        if self.closed_form:
            zeta = _Branches(self.pen, ctl.gnorm_sq - ctl.f_sq)
            return 2.0 * self.pen.d1(zeta) * ctl.gnorm_sq - self.pen.value(zeta)
        if isinstance(ctl, _Controls) and ctl.data is self.data:
            f_m_sq = ctl.f_sq  # f_m^2 that control sampled at these points
        else:  # a delayed feedback's plain tuple, or f^2 of other data
            f_m_sq = self.data._f_m_sq(pts.t, pts.x, pts.radius)
        return hamiltonian_batch(self.pen, np.sqrt(f_m_sq), ctl[1])


class _PenalizedPayoff(_TruncatedPayoff):
    """Controlled discount R^w = exp(-int (r + w)); h_m + w g_m accrues.

    Under w_star the rate w is 0 or 1/delta, so each step takes the exact
    discount weights of r and r + 1/delta once and selects them per path
    (numpy's expm1 gives the same bits on the two-element array as on every
    path).  A callable or constant intensity is checked to lie in
    [0, 1/delta] and takes the weight per path."""

    def __init__(self, spec, data, pen, delta, strategy_ctrl, strategy_w, cfg):
        super().__init__(spec, data, pen, delta, strategy_ctrl)
        self.strategy_w = strategy_w
        self.logR = np.zeros(cfg.n_paths)  # log of the controlled discount R^w, alive paths
        self.R = np.ones(cfg.n_paths)  # exp(logR), taken once per step
        self.min_R = 1.0

    def terminal(self, pts, elapsed, stop):
        return self.R[stop] * self.g_m(pts)

    def accrue(self, pts, elapsed, controls, dt):
        t, x, delta, r = pts.t, pts.x, self.delta, self.spec.r
        n_alive = x.shape[1]
        u_val = self.field.sample(t, pts.plan(self.field.grid)) if self.field is not None else None
        g_m_val, h_m_val = self.g_m_h_m(pts)
        if self.strategy_w == "w_star":  # two rates: two weights, selected per path
            stopping = u_val <= g_m_val
            w_val = np.where(stopping, 1.0 / delta, 0.0)
            lo, hi = _exp_weight(np.array([r, r + 1.0 / delta]), dt)
            w_step = np.where(stopping, hi, lo)
        else:
            if callable(self.strategy_w):
                w_val = np.asarray(self.strategy_w(t, x, u_val), dtype=float) * np.ones(n_alive)
            else:
                w_val = np.full(n_alive, float(self.strategy_w))
            if np.any(w_val < -1e-12) or np.any(w_val > 1.0 / delta + 1e-9):
                raise SimulationError("stopper intensity outside [0, 1/delta]")
            w_step = _exp_weight(r + w_val, dt)
        h_term = self.hamiltonian(pts, controls)
        R_now = self.R
        self.logR -= (r + w_val) * dt
        self.R = np.exp(self.logR)
        self.min_R = min(self.min_R, float(np.min(self.R)))
        return R_now * (h_m_val + w_val * g_m_val) * w_step, R_now * h_term * w_step

    def compact(self, live):
        self.logR, self.R = self.logR[live], self.R[live]

    def extras(self, keep):
        return {"min_R": self.min_R}


class _RecursivePayoff(_TruncatedPayoff):
    """Killing at rate 1/delta, discount e^{-(r + 1/delta) t};
    h_m + (1/delta) max(g_m, u) accrues."""

    def terminal(self, pts, elapsed, stop):
        kappa = self.spec.r + 1.0 / self.delta
        return math.exp(-kappa * elapsed) * self.g_m(pts)

    def accrue(self, pts, elapsed, controls, dt):
        kappa = self.spec.r + 1.0 / self.delta
        disc = math.exp(-kappa * elapsed)
        u_val = self.field.sample(pts.t, pts.plan(self.field.grid))
        g_m_val, h_m_val = self.g_m_h_m(pts)
        h_term = self.hamiltonian(pts, controls)
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
    if not strategy_ctrl.mode.startswith("controller_"):
        raise ValueError(f"strategy_ctrl needs a controller mode, got {strategy_ctrl.mode!r}")
    if not strategy_stop.mode.startswith("stopper_"):
        raise ValueError(f"strategy_stop needs a stopper mode, got {strategy_stop.mode!r}")
    nsub = cfg.feedback_substeps if strategy_ctrl.mode == "controller_opt" else 1
    payoff = _OriginalPayoff(spec, strategy_stop, cfg)
    return _run_paths(spec, start, strategy_ctrl, cfg, payoff, nsub)


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

    opt_ctrl = ctrl("controller_opt")
    tau_star = ctrl("stopper_tau_star", band=band)
    if stopper_perturbations is None:
        stopper_perturbations = [
            ("tau_star", tau_star),
            ("immediate", ctrl("stopper_fixed", fixed_time=0.0)),
            ("never", ctrl("stopper_never")),
            ("fixed_quarter", ctrl("stopper_fixed", fixed_time=0.25 * horizon)),
            ("fixed_half", ctrl("stopper_fixed", fixed_time=0.5 * horizon)),
            ("wide_band", ctrl("stopper_tau_star", band=5 * band)),
        ]
    if controller_perturbations is None:
        controller_perturbations = [
            ("opt", opt_ctrl),
            ("idle", ctrl("controller_idle")),
            ("half_rate", ctrl("controller_opt", scale=0.5)),
            ("double_rate", ctrl("controller_opt", scale=2.0)),
            ("flipped", ctrl("controller_opt", flip=True)),
            ("delayed", ctrl("controller_opt", delay=0.5 * horizon)),
        ]

    # (side, name, seed offset, controller, stopper) of every run
    runs = [
        ("stopper", name, 1000 + i, opt_ctrl, stopper)
        for i, (name, stopper) in enumerate(stopper_perturbations)
    ] + [
        ("controller", name, 2000 + i, controller, tau_star)
        for i, (name, controller) in enumerate(controller_perturbations)
    ]
    results = []
    for side, name, offset, controller, stopper in runs:
        sub_cfg = replace(cfg, rng_seed=cfg.rng_seed + offset)
        est = simulate_paths(spec, start, controller, stopper, sub_cfg)
        margin = 3 * est.std_error + allowance
        if side == "stopper":
            passed = est.mean <= reference + margin
        else:
            passed = est.mean >= reference - margin
        results.append(ProbeResult(name, side, est.mean, est.std_error, reference, margin, passed))
    return results
