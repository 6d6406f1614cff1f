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
The engine owns every per-path array: the alive paths' states, accrued sums
and the arrays the rule declares (such as log R^w) are kept compact, and a
path that stops or is rejected has its entries copied into full-size arrays
as it leaves.  Each step computes its
geometry once: the radius |x| and the sampling plan of the field live on
one _Points, which the stop rule, the feedback and the payoff rule share,
and which is subset, not recomputed, when paths drop out.  The estimate's
metadata counts the paths stopped by the rule, alive at the horizon and
rejected.

The engine runs a batch of runs that share the start and the path and step
counts: each simulator is a batch of one, and saddle_probe runs its probes
as batches.  Each run owns a contiguous slice of the path numbers, and its
alive paths stay one contiguous slice of the alive ones, so per-run work
reads views.  Each run keeps its own Philox stream, stop rule, controller
and estimate, bit for bit those of the run alone; the payments, accruals and
moves run once on all alive paths, a stop rule once per group of adjacent
runs that share it, and the feedback once per substep per family of
adjacent controllers that differ only in their probe perturbation.

The controller is singular: it pays f per unit of push, and its rate is zero
on the inaction region, which holds almost every path.  So the controller
pays only where it pushes.  Substep 0 of a step evaluates the feedback on
every alive path, a substep s >= 1 only on the paths pushed at s - 1 (a path
that was not pushed did not move) to a finite point (the move rejects the
rest), and the step's substeps end once no path was pushed.  The control
drift and the cost f * rate are booked only on the pushed paths, those with
a nonzero (or NaN) rate, so a non-finite f where the controller idles costs
nothing, and an idle controller gives the same estimate at any substep
count.  The estimate's metadata counts the (path,
substep) pairs with a nonzero rate.

A step skips the work whose result it knows, bit for bit.  The feedback
rate and the closed-form Hamiltonian of the truncated payoffs are computed
only on the active paths, where |grad u|^2 - f^2 is not <= 0 (NaN
included): elsewhere psi and psi' are 0 and |grad u| is finite, so both are
+0.0 (_feedback_rate, _closed_form_hamiltonian).  Where every state of a
step lies in the cut-off's inner ball, the truncated data are the data
(TruncatedData._cut).  A payoff rule takes its exact discount weights,
which depend only on the step length, once per batch (set_step).

All draws come from a counter-based Philox generator keyed by the seed, so
runs are bit-reproducible; paths are vectorized and reduced in fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grid import GridField, _SamplingPlan
from .kernel import Penalty, TruncatedData, _above, _Branches, _radius, hamiltonian_batch
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
    # substeps of simulate_paths and saddle_probe for stiff reflection drifts;
    # simulate_penalized and simulate_recursive ignore it and take one
    feedback_substeps: int = 4

    def __post_init__(self):
        if not (isinstance(self.rng_seed, (int, np.integer)) and 0 <= self.rng_seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.rng_seed!r}")
        if self.n_paths < 2:
            raise ValueError("need at least 2 paths for standard errors")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")
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
    """(direction, rate) of FeedbackStrategy.control.  A gradient feedback
    also keeps the |grad u|^2 and f^2 it sampled, so that the Hamiltonian of
    the penalized payoffs reuses them."""

    def __new__(cls, direction, rate, gnorm_sq, f_sq):
        self = super().__new__(cls, (direction, rate))
        self.gnorm_sq, self.f_sq = gnorm_sq, f_sq
        return self


class _Points:
    """States x (d, n) at time t with the geometry that the stop rule, the
    feedback and the payoff rule all read there: the radius |x| and the
    sampling plan on a field's grid.  Each is computed on first use; subset
    takes the points of a mask and part the points of a slice, whose
    geometry is that of the whole, computed on all of its points once (the
    geometry of a point is its own, so it is taken, not recomputed)."""

    __slots__ = ("t", "x", "_radius", "_plan", "_whole")

    def __init__(self, t, x, whole=None):
        self.t, self.x, self._radius, self._plan = t, x, None, None
        self._whole = whole  # (points, slice or mask) these points are a part of

    @property
    def radius(self):
        if self._radius is None:
            if self._whole is None:
                self._radius = _radius(self.x)
            else:
                whole, part = self._whole
                self._radius = whole.radius[part]
        return self._radius

    def plan(self, grid):
        """The sampling plan of the points on grid."""
        if self._plan is None or self._plan.grid != grid:
            if self._whole is None:
                self._plan = _SamplingPlan(grid, self.t, self.x)
            else:
                whole, part = self._whole
                self._plan = whole.plan(grid).subset(part)
        return self._plan

    def part(self, a, b):
        """The points a:b, a view."""
        return _Points(self.t, self.x[:, a:b], whole=(self, slice(a, b)))

    def subset(self, mask):
        """The points in the boolean mask."""
        return _Points(self.t, self.x[:, mask], whole=(self, mask))


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
                        `delay` (>= 0); the rate is multiplied by `scale`
                        (finite, >= 0), and `flip` reverses the direction
                        (saddle probes); needs `field` and `pen`
      controller_idle   never act
    Stopper modes:
      stopper_tau_star  stop on u <= g + band (finite); needs `field`
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
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"{self.mode} needs a finite scale >= 0, got {self.scale!r}")
        if not self.delay >= 0.0:  # also NaN
            raise ValueError(f"{self.mode} needs a delay >= 0, got {self.delay!r}")
        if not math.isfinite(self.band):
            raise ValueError(f"{self.mode} needs a finite band, got {self.band!r}")

    @property
    def optimal(self) -> bool:
        """The synthesized optimal feedback itself, with no probe perturbation."""
        perturbed = self.scale != 1.0 or self.flip or self.delay != 0.0
        return self.mode == "controller_opt" and not perturbed

    def _grad_u(self, pts):
        g = self.field.sample_gradient(pts.t, pts.plan(self.field.grid))
        # outside the solved box the controller idles (the payoff rule logs
        # the paths that leave it)
        outside = pts.radius > self.field.grid.m
        if np.any(outside):
            g[:, outside] = 0.0
        return g

    def _f_squared(self, pts):
        if self.data is not None:
            return self.data._f_m_sq(pts.t, pts.x, pts.radius)
        with np.errstate(over="ignore"):  # a huge f saturates to f^2 = +inf
            return self.spec.f(pts.t, pts.x) ** 2

    def control(self, t, elapsed, x):
        """Unit direction and control rate at states x (d, n) at time t: the
        optimal feedback with this controller's perturbation applied.  The
        path engine passes its _Points at t as x, so that the feedback reads
        the radius and sampling plan the step already has."""
        pts = _as_points(t, x)
        if self.mode == "controller_idle":
            return _idle_controls(pts.x)
        if self.mode != "controller_opt":
            raise ValueError(f"not a controller mode: {self.mode}")
        if elapsed < self.delay:
            return _idle_controls(pts.x)
        grad = self._grad_u(pts)
        gnorm_sq = np.sum(grad**2, axis=0)
        f_sq = self._f_squared(pts)
        norm = np.sqrt(gnorm_sq)
        # -grad u / |grad u|, and +e1 where grad u = 0
        direction = np.zeros_like(pts.x)
        direction[0] = 1.0
        np.divide(-grad, norm, out=direction, where=norm > 0)
        rate = _feedback_rate(self.pen, norm, f_sq)
        self._perturb(direction, rate)
        return _Controls(direction, rate, gnorm_sq, f_sq)

    def _perturb(self, direction, rate):
        """Apply the probe perturbation in place: rate *= scale, and the
        direction reversed when flipped."""
        if self.scale != 1.0:
            rate *= self.scale
        if self.flip:
            np.negative(direction, out=direction)

    def _same_feedback(self, other) -> bool:
        """Both are controller_opt on the same data, so that they differ at
        most in scale, flip and delay."""
        return self.mode == other.mode == "controller_opt" and all(
            getattr(self, k) is getattr(other, k) for k in ("spec", "field", "pen", "data")
        )

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


def _feedback_rate(pen, norm, f_sq):
    """The optimal feedback's rate 2 psi'(|grad u|^2 - f^2)|grad u| at
    |grad u| = norm, computed on the active paths only, where |grad u|^2 - f^2
    is not <= 0 (NaN included).  Elsewhere psi' = 0 and |grad u| is finite,
    so the rate is +0.0, as the formula gives there."""
    y = norm**2 - f_sq
    rate = np.zeros(y.shape)
    on = _above(y)
    if on.size:
        rate[on] = 2.0 * pen.d1(y[on]) * norm[on]
    return rate


def _closed_form_hamiltonian(pen, gnorm_sq, f_sq):
    """The Hamiltonian 2 psi'(zeta)|grad u|^2 - psi(zeta), zeta = |grad u|^2 -
    f^2, of the optimal feedback's rate, computed on the active paths only,
    where zeta is not <= 0 (NaN included).  Elsewhere psi = psi' = 0 and
    |grad u|^2 is finite, so it is +0.0, as the formula gives there."""
    zeta = gnorm_sq - f_sq
    out = np.zeros(zeta.shape)
    on = _above(zeta)
    if on.size:
        branches = _Branches(pen, zeta[on])
        out[on] = 2.0 * pen.d1(branches) * gnorm_sq[on] - pen.value(branches)
    return out


def _idle_controls(x):
    """(direction +e1, rate 0) at the n states x (d, n)."""
    direction = np.zeros_like(x)
    direction[0] = 1.0
    return direction, np.zeros(x.shape[1])


_PHILOX_BLOCK = 4  # 64-bit outputs per Philox counter step


def _skip_raw(bits, count):
    """Move the Philox bit generator past count 64-bit outputs, as drawing
    count uniforms would: the rest of its buffer, whole counter blocks by
    advance (which empties the buffer), then the remainder."""
    buffered = min(count, _PHILOX_BLOCK - bits.state["buffer_pos"])
    bits.random_raw(buffered)
    blocks, rest = divmod(count - buffered, _PHILOX_BLOCK)
    if blocks:
        bits.advance(blocks)
    bits.random_raw(rest)


def _draws(cfg: PathConfig, d_noise: int):
    """Per-step generator of normals (d', n) from Philox."""
    gen = np.random.Generator(np.random.Philox(key=cfg.rng_seed))
    while True:
        z = gen.standard_normal((d_noise, cfg.n_paths))
        # skip the uniforms the step once drew and never read, so that every
        # fixed-seed estimate keeps its bits
        _skip_raw(gen.bit_generator, cfg.n_paths)
        yield z


def _exp_weight(kappa, dt):
    """Exact integral of e^{-kappa s} over one step of length dt (elementwise);
    removes the O(dt * kappa) left-endpoint quadrature bias for large rates."""
    kappa = np.asarray(kappa, dtype=float)
    out = np.where(kappa > 0, -np.expm1(-kappa * dt) / np.where(kappa > 0, kappa, 1.0), dt)
    return out


def _finalize(parts, keep, n_rej, cfg, extras):
    """Estimate over the kept paths."""
    parts = {k: v[keep] for k, v in parts.items()}
    total = parts["terminal"] + parts["running"] + parts["control_cost"]
    mean = float(np.mean(total))
    se = float(np.std(total, ddof=1) / math.sqrt(total.size)) if total.size > 1 else 0.0
    breakdown = {k: float(np.mean(v)) for k, v in parts.items()}
    meta = {"rejected_paths": n_rej, "n_steps": cfg.n_steps, **extras}
    return PayoffEstimate(
        mean=mean, std_error=se, n_paths=total.size, breakdown=breakdown, metadata=meta
    )


def _start_point(spec: ProblemSpec, start):
    """(t0, x0 as a flat array, horizon T - t0) of a (t0, x0) start point,
    checked: a finite t0 in [0, T) and a finite x0 of dimension d."""
    t0, x0 = start
    t0 = float(t0)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != spec.d:
        raise ValueError("start point dimension mismatch")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"start point {x0.tolist()} must be finite")
    if not 0.0 <= t0 < spec.T:  # also NaN
        raise ValueError(f"start time {t0!r} must be >= 0 and before the horizon {spec.T!r}")
    return t0, x0, spec.T - t0


_MAX_BATCH_PATHS = 2**15  # paths of all runs of one batch; larger probes run one per batch


@dataclass(frozen=True)
class _Run:
    """One run of a path engine batch: its PathConfig (which keys its Philox
    stream), its controller, and its stop rule, an object with
    stop_mask(t, elapsed, pts) (a stopper strategy, or the payoff rule)."""

    cfg: PathConfig
    ctrl: FeedbackStrategy
    stopper: object


def _spans(idx, firsts):
    """(run, a, b) of every run with alive paths: the alive path numbers idx
    (sorted) of run j, which owns the numbers firsts[j]:firsts[j + 1], are
    idx[a:b]."""
    bounds = np.searchsorted(idx, firsts).tolist()
    return [(j, a, b) for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])) if a < b]


def _groups(spans, keys):
    """(key, a, b) of every maximal group of adjacent spans whose runs have
    the same key object; runs with key None are left out."""
    out = []
    for j, a, b in spans:
        key = keys[j]
        if key is None:
            continue
        if out and out[-1][0] is key and out[-1][2] == a:
            out[-1] = (key, out[-1][1], b)
        else:
            out.append((key, a, b))
    return out


def _feedback_bases(ctrls):
    """Per controller, the unperturbed optimal feedback it perturbs (None for
    controller_idle).  Controllers that differ only in scale, flip and delay
    share one base, so that one control call serves a group of them."""
    bases = []
    for c in ctrls:
        base = None
        if c.mode == "controller_opt":
            base = next((b for b in bases if b is not None and b._same_feedback(c)), None)
            if base is None:
                base = c if c.optimal else replace(c, scale=1.0, flip=False, delay=0.0)
        bases.append(base)
    return bases


def _batch_stop(runs, spans, pts, elapsed):
    """Stop mask of the alive paths pts: one stop_mask call per group of
    adjacent runs that share a stop rule."""
    groups = _groups(spans, [run.stopper for run in runs])
    if len(groups) == 1:
        return groups[0][0].stop_mask(pts.t, elapsed, pts)
    stop = np.empty(pts.x.shape[1], dtype=bool)
    for stopper, a, b in groups:
        stop[a:b] = stopper.stop_mask(pts.t, elapsed, pts.part(a, b))
    return stop


def _batch_control(runs, spans, keys, ps, elapsed):
    """Controls at the alive paths' substep points ps: one control call per
    group of adjacent runs with the same feedback base (keys; None idles the
    run), then each run's perturbation on its own slice."""
    groups = _groups(spans, keys)
    if len(groups) == 1 and groups[0][1:] == (0, ps.x.shape[1]):
        ctl = groups[0][0].control(ps.t, elapsed, ps)
    else:
        ctl = _idle_controls(ps.x)
        for base, a, b in groups:
            part = base.control(ps.t, elapsed, ps.part(a, b))
            for whole, piece in zip(ctl, part):
                whole[..., a:b] = piece
    for j, a, b in spans:
        if keys[j] is not None:
            runs[j].ctrl._perturb(ctl[0][:, a:b], ctl[1][a:b])
    return ctl


def _leave(idx, alive, final, gone):
    """The one rule of a stop and a rejection: copy the entries of the alive
    paths in mask gone into final at their path numbers, then return the
    numbers idx and entries alive of the rest."""
    ids = idx[gone]
    for key, values in alive.items():
        final[key][ids] = values[gone]
    keep = ~gone
    return idx[keep], {key: values[keep] for key, values in alive.items()}


def _run_paths(spec, start, runs, payoff) -> list[PayoffEstimate]:
    """The Euler-Maruyama path engine behind the three simulators: one batch
    of runs that share the start, n_paths and n_steps; one estimate per
    run.

    Each step k < n_steps, each run with alive paths draws one batch of
    normals from its own Philox stream.  Each run's stop rule picks its
    alive paths that stop (at the horizon all do), and the payoff rule what
    they are paid.  The controllers steer the rest over the payoff rule's
    nsub substeps, the payoff rule books what they accrue, and they move
    X += b dt + sigma sqrt(dt) Z + n dnu.  Substep 0 evaluates the feedback
    on every alive path, a substep s >= 1 only on the paths pushed (rate
    nonzero or NaN) at s - 1 whose push moved them to finite points, and the
    substeps end once no path was pushed.  Each substep adds its control
    drift only on the paths it pushed, and hands the payoff rule its
    (points, controls, positions): the alive-path positions it evaluated,
    with their points and controls.
    Paths that leave the finite floats are rejected and dropped from their
    run's estimate.

    The alive paths are kept compact and in order: their numbers idx,
    states xa and entries alive (the running and control-cost sums and the
    payoff rule's per_path arrays) drop the same paths together, so each
    run's alive paths are one contiguous slice (_spans).  Stopped and
    rejected paths leave through _leave into the full-size arrays final,
    which also hold each path's terminal payment and whether it stopped
    before the horizon.  The payment, the accrual and the move run once on
    all alive paths, a stop rule once per group of adjacent runs that share
    it, and the feedback once per substep per group of adjacent runs whose
    controllers differ only in their perturbation (_batch_control).  Each
    run is then finalized on its own paths; a batch raises the
    SimulationError of the first run over its rejection budget.
    """
    t0, x0, horizon = _start_point(spec, start)
    cfg = runs[0].cfg
    dt = horizon / cfg.n_steps
    sqdt = math.sqrt(dt)
    payoff.set_step(dt)
    n = cfg.n_paths
    n_all = n * len(runs)
    firsts = np.arange(len(runs) + 1) * n  # run j owns the path numbers firsts[j]:firsts[j + 1]
    rejected = np.zeros(n_all, dtype=bool)
    xa = np.tile(x0[:, None], (1, n_all))
    idx = np.arange(n_all)
    initial = {"running": 0.0, "control_cost": 0.0, **payoff.per_path}
    alive = {key: np.full(n_all, value) for key, value in initial.items()}
    final = {key: np.zeros_like(values) for key, values in alive.items()}
    final.update(terminal=np.zeros(n_all), stopped=np.zeros(n_all, dtype=bool))
    pushed = np.zeros(len(runs), dtype=int)  # (path, substep) pairs with a nonzero rate
    draws = [_draws(run.cfg, spec.d_noise) for run in runs]
    bases = _feedback_bases([run.ctrl for run in runs])

    for k in range(cfg.n_steps + 1):
        elapsed = k * dt
        t = t0 + elapsed
        pts = _Points(t, xa)
        spans = _spans(idx, firsts)
        stop = np.ones(idx.size, dtype=bool) if k == cfg.n_steps else _batch_stop(runs, spans, pts, elapsed)
        if np.any(stop):
            ids = idx[stop]
            final["terminal"][ids] += payoff.terminal(pts.subset(stop), elapsed, alive, stop)
            final["stopped"][ids] = k < cfg.n_steps
            idx, alive = _leave(idx, alive, final, stop)
            pts = pts.subset(~stop)
            xa = pts.x
            spans = _spans(idx, firsts)
        if idx.size == 0 or k == cfg.n_steps:
            break

        pieces = []  # each run's normals at its alive paths
        for j, a, b in spans:
            z = next(draws[j])
            pieces.append(z if b - a == n else z[:, idx[a:b] - firsts[j]])
        z = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)

        keys = [base if elapsed >= run.ctrl.delay else None for base, run in zip(bases, runs)]
        drift_ctrl = np.zeros_like(xa)
        controls = []  # (points, controls, positions) of each substep
        at, ps, at_spans = np.arange(idx.size), pts, spans  # substep 0: every alive path
        for s in range(payoff.nsub):
            if s:  # the paths pushed at s - 1, moved by their push (the move rejects a non-finite one)
                moved = xa[:, at] + drift_ctrl[:, at]
                finite = np.isfinite(moved).all(axis=0)
                at = at[finite]
                if at.size == 0:
                    break
                ps, at_spans = _Points(t, moved[:, finite]), _spans(idx[at], firsts)
            ctl = _batch_control(runs, at_spans, keys, ps, elapsed)
            controls.append((ps, ctl, at))
            nonzero = ctl[1] != 0  # the paths this substep pushes (a NaN rate counts)
            for j, a, b in at_spans:
                pushed[j] += np.count_nonzero(nonzero[a:b])
            hit = np.flatnonzero(nonzero)
            if hit.size == 0:
                break
            at = at[hit]
            drift_ctrl[:, at] += ctl[0][:, hit] * (ctl[1][hit] * dt / payoff.nsub)[None, :]
        step_running, step_cost = payoff.accrue(pts, elapsed, alive, controls, dt)
        alive["running"] += step_running
        alive["control_cost"] += step_cost

        with np.errstate(over="ignore", invalid="ignore"):
            bv = spec.drift(xa)
            sv = spec.diffusion(xa)
            noise = np.einsum("ijk,jk->ik", sv, z)
            xa = xa + bv * dt + noise * sqdt + drift_ctrl
        bad = ~np.all(np.isfinite(xa), axis=0)
        if np.any(bad):
            rejected[idx[bad]] = True
            idx, alive = _leave(idx, alive, final, bad)
            xa = xa[:, ~bad]

    estimates = []
    for j, run in enumerate(runs):
        own = slice(firsts[j], firsts[j + 1])
        n_rej = int(np.count_nonzero(rejected[own]))
        if n_rej > MAX_REJECT_FRACTION * n:
            raise SimulationError(f"{n_rej}/{n} paths rejected (diverging dynamics)")
        keep = ~rejected[own]
        n_stopped = int(np.count_nonzero(final["stopped"][own]))
        counts = {
            "stopped_paths": n_stopped,
            "horizon_paths": n - n_stopped - n_rej,
            "pushed_path_substeps": int(pushed[j]),
        }
        extras = {**counts, **payoff.extras(final, own, keep), "dt": dt}
        parts = {k: final[k][own] for k in ("terminal", "running", "control_cost")}
        estimates.append(_finalize(parts, keep, n_rej, run.cfg, extras))
    return estimates


class _Payoff:
    """A simulator's payoff rule for the path engine, for all runs of a
    batch, called on the alive paths' _Points pts at time pts.t and their
    entries alive, the engine's dict of per-path arrays in the order of pts:

    terminal(pts, elapsed, alive, stop): discounted payment of the stopping
        paths pts, which are the alive paths in mask stop;
    accrue(pts, elapsed, alive, controls, dt): discounted (running reward,
        control cost) over [t, t + dt], updating the rule's own entries of
        alive; controls lists each feedback substep's (_Points, control,
        positions): the points and controls of the alive paths at positions,
        the ones the substep evaluated;
    extras(final, own, keep): metadata entries of the run whose path numbers
        are the slice own, from the full-size arrays final, which hold each
        path's entries as it left; keep marks its paths that were not
        rejected (none by default);
    set_step(dt): takes the runs' step length before their first step, so
        that the rule computes what depends only on it once per batch.

    per_path maps the name of each per-path array the rule keeps to its
    initial value (none by default); the engine keeps them with its own.
    nsub is the count of feedback substeps the engine takes per step.
    """

    nsub = 1
    per_path = {}

    def extras(self, final, own, keep):
        return {}

    def set_step(self, dt):
        pass


class _OriginalPayoff(_Payoff):
    """Paid g discounted at e^{-r t} when a run's stopper stops; h and f dnu
    accrue over nsub feedback substeps.  A substep books f * rate / nsub only
    at the paths it pushed, so f is sampled only there.  Each path's exited
    flag records whether its state at a step time, where it accrued or was
    paid, lay outside the radius box of the field that the strategies read
    (_field_box)."""

    per_path = {"exited": False}

    def __init__(self, spec, nsub, box):
        self.spec, self.nsub, self.box = spec, nsub, box

    def terminal(self, pts, elapsed, alive, stop):
        if self.box < math.inf:
            out = pts.radius > self.box
            if out.any():  # rare: index the stopping paths only then
                alive["exited"][np.flatnonzero(stop)[out]] = True
        return math.exp(-self.spec.r * elapsed) * self.spec.g(pts.t, pts.x)

    def set_step(self, dt):
        self.w_step = float(_exp_weight(self.spec.r, dt))  # exact discount integral per step

    def accrue(self, pts, elapsed, alive, controls, dt):
        spec, t, w_step = self.spec, pts.t, self.w_step
        if self.box < math.inf:
            alive["exited"] |= pts.radius > self.box
        disc = math.exp(-spec.r * elapsed)
        h_val = spec.h(t, pts.x)
        cost_rate = np.zeros(pts.x.shape[1])
        for ps, (_, rate), at in controls:
            hit = np.flatnonzero(rate != 0)  # the pushed paths (a NaN rate counts)
            if hit.size:
                cost_rate[at[hit]] += spec.f(t, ps.x[:, hit]) * rate[hit] * w_step / self.nsub
        return disc * h_val * w_step, disc * cost_rate

    def extras(self, final, own, keep):
        exited = final["exited"][own][keep]
        exit_fraction = float(np.mean(exited)) if exited.size else 0.0
        return {"exit_fraction": exit_fraction, "valid": exit_fraction <= MAX_EXIT_FRACTION}


class _TruncatedPayoff(_Payoff):
    """Stop at the exit from the radius-m ball, paid the truncated g_m; the
    controller pays the penalized Hamiltonian term.  The rule is also its
    runs' stop rule, and the truncated simulators run batches of one."""

    def __init__(self, spec, data, pen, delta, strategy_ctrl):
        self.spec, self.data, self.pen, self.delta = spec, data, pen, delta
        self.field = strategy_ctrl.field
        # the controller's f^2 is this rule's f_m^2 when it read the same data
        self.own_f_sq = strategy_ctrl.data is data
        # the closed form charges the controller's own penalty and f^2
        self.closed_form = strategy_ctrl.optimal and strategy_ctrl.pen == pen and self.own_f_sq

    def stop_mask(self, t, elapsed, pts):
        return pts.radius >= self.data.m

    def g_m(self, pts):
        return self.data._cut(pts.radius, self.spec.g(pts.t, pts.x))[0]

    def g_m_h_m(self, pts):
        """(g_m, h_m) at pts, with one evaluation of the cut-off."""
        return self.data._cut(pts.radius, self.spec.g(pts.t, pts.x), self.spec.h(pts.t, pts.x))

    def hamiltonian(self, pts, controls):
        ((_, ctl, _),) = controls
        if self.closed_form:
            return _closed_form_hamiltonian(self.pen, ctl.gnorm_sq, ctl.f_sq)
        if self.own_f_sq and isinstance(ctl, _Controls):
            f_m_sq = ctl.f_sq  # f_m^2 that control sampled at these points
        else:  # a delayed feedback's plain tuple, or f^2 of other data
            f_m_sq = self.data._f_m_sq(pts.t, pts.x, pts.radius)
        return hamiltonian_batch(self.pen, np.sqrt(f_m_sq), ctl[1])


class _PenalizedPayoff(_TruncatedPayoff):
    """Controlled discount R^w = exp(-int (r + w)); h_m + w g_m accrues.

    Under w_star the rate w is 0 or 1/delta, so the run takes the exact
    discount weights of r and r + 1/delta once and each step selects them
    per path (numpy's expm1 gives the same bits on the two-element array as
    on every path).  A callable or constant intensity is checked to lie in
    [0, 1/delta] (NaN does not) and takes the weight per path.  Since
    r + w >= 0, R^w never increases along a path, so its smallest value is
    the smallest R^w the paths leave with."""

    # log of the controlled discount R^w, and R^w = exp(logR) taken once per step
    per_path = {"logR": 0.0, "R": 1.0}

    def __init__(self, spec, data, pen, delta, strategy_ctrl, strategy_w):
        super().__init__(spec, data, pen, delta, strategy_ctrl)
        self.strategy_w = strategy_w

    def set_step(self, dt):
        self.w_star_weights = _exp_weight(np.array([self.spec.r, self.spec.r + 1.0 / self.delta]), dt)

    def terminal(self, pts, elapsed, alive, stop):
        return alive["R"][stop] * self.g_m(pts)

    def accrue(self, pts, elapsed, alive, controls, dt):
        t, x, delta, r = pts.t, pts.x, self.delta, self.spec.r
        n_alive = x.shape[1]
        u_val = self.field.sample(t, pts.plan(self.field.grid)) if self.field is not None else None
        g_m_val, h_m_val = self.g_m_h_m(pts)
        if self.strategy_w == "w_star":  # two rates: two weights, selected per path
            stopping = u_val <= g_m_val
            w_val = np.where(stopping, 1.0 / delta, 0.0)
            lo, hi = self.w_star_weights
            w_step = np.where(stopping, hi, lo)
        else:
            if callable(self.strategy_w):
                w_val = np.asarray(self.strategy_w(t, x, u_val), dtype=float) * np.ones(n_alive)
            else:
                w_val = np.full(n_alive, float(self.strategy_w))
            if not np.all((w_val >= -1e-12) & (w_val <= 1.0 / delta + 1e-9)):
                raise SimulationError("stopper intensity outside [0, 1/delta]")
            w_step = _exp_weight(r + w_val, dt)
        h_term = self.hamiltonian(pts, controls)
        R_now = alive["R"]
        alive["logR"] -= (r + w_val) * dt
        alive["R"] = np.exp(alive["logR"])
        return R_now * (h_m_val + w_val * g_m_val) * w_step, R_now * h_term * w_step

    def extras(self, final, own, keep):
        return {"min_R": float(np.min(final["R"][own]))}


class _RecursivePayoff(_TruncatedPayoff):
    """Killing at rate 1/delta, discount e^{-(r + 1/delta) t};
    h_m + (1/delta) max(g_m, u) accrues."""

    def set_step(self, dt):
        self.w_step = float(_exp_weight(self.spec.r + 1.0 / self.delta, dt))

    def terminal(self, pts, elapsed, alive, stop):
        kappa = self.spec.r + 1.0 / self.delta
        return math.exp(-kappa * elapsed) * self.g_m(pts)

    def accrue(self, pts, elapsed, alive, controls, dt):
        kappa = self.spec.r + 1.0 / self.delta
        disc = math.exp(-kappa * elapsed)
        u_val = self.field.sample(pts.t, pts.plan(self.field.grid))
        g_m_val, h_m_val = self.g_m_h_m(pts)
        h_term = self.hamiltonian(pts, controls)
        reward = h_m_val + np.maximum(g_m_val, u_val) / self.delta
        return disc * reward * self.w_step, disc * h_term * self.w_step


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
    run = _paths_run(strategy_ctrl, strategy_stop, cfg)
    payoff = _OriginalPayoff(spec, cfg.feedback_substeps, _field_box([run]))
    return _run_paths(spec, start, [run], payoff)[0]


def _paths_run(strategy_ctrl, strategy_stop, cfg):
    """The path engine run of simulate_paths."""
    if not strategy_ctrl.mode.startswith("controller_"):
        raise ValueError(f"strategy_ctrl needs a controller mode, got {strategy_ctrl.mode!r}")
    if not strategy_stop.mode.startswith("stopper_"):
        raise ValueError(f"strategy_stop needs a stopper mode, got {strategy_stop.mode!r}")
    return _Run(cfg, strategy_ctrl, strategy_stop)


def _field_box(runs):
    """The radius of the smallest field box that a controller_opt or a
    stopper_tau_star of the runs reads (outside it the field is clamped);
    inf when none of them reads a field."""
    readers = [s for run in runs for s in (run.ctrl, run.stopper) if s.mode in ("controller_opt", "stopper_tau_star")]
    return min((s.field.grid.m for s in readers), default=math.inf)


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
    or at the horizon, collecting the discounted truncated payoff g_m.  The
    controller takes one feedback substep per step, whatever
    cfg.feedback_substeps.
    """
    if strategy_w == "w_star" and strategy_ctrl.field is None:
        raise ValueError("the w_star stopper needs a solved field on the strategy")
    payoff = _PenalizedPayoff(spec, data, pen, delta, strategy_ctrl, strategy_w)
    return _run_paths(spec, start, [_Run(cfg, strategy_ctrl, payoff)], payoff)[0]


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
    enters its own running reward through u).  The controller takes one
    feedback substep per step, whatever cfg.feedback_substeps."""
    if strategy_ctrl.field is None:
        raise ValueError("recursive payoff needs a solved field on the strategy")
    payoff = _RecursivePayoff(spec, data, pen, delta, strategy_ctrl)
    return _run_paths(spec, start, [_Run(cfg, strategy_ctrl, payoff)], payoff)[0]


@dataclass
class ProbeResult:
    name: str
    side: str  # "stopper" or "controller"
    payoff: float
    std_error: float
    reference: float
    margin: float
    passed: bool
    metadata: dict  # the run's estimate metadata


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

    The probes run in probe order as batches of the path engine, of at most
    _MAX_BATCH_PATHS paths (a larger probe runs alone), whatever their
    controller.  Every probe runs cfg.feedback_substeps, the largest count
    any of them needs: controller_idle never moves and books +0.0, so its
    estimate is that of one substep.
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
    probes = [
        ("stopper", name, 1000 + i, opt_ctrl, stopper)
        for i, (name, stopper) in enumerate(stopper_perturbations)
    ] + [
        ("controller", name, 2000 + i, controller, tau_star)
        for i, (name, controller) in enumerate(controller_perturbations)
    ]
    runs = [
        # the seed offsets wrap around Philox's 64-bit keys
        _paths_run(controller, stopper, replace(cfg, rng_seed=(int(cfg.rng_seed) + offset) % 2**64))
        for _, _, offset, controller, stopper in probes
    ]

    # Batches of adjacent probes of at most _MAX_BATCH_PATHS paths: the
    # stopper probes share opt_ctrl, the controller probes tau_star, and the
    # perturbations of opt_ctrl its feedback.
    per_batch = max(1, _MAX_BATCH_PATHS // cfg.n_paths)
    payoff = _OriginalPayoff(spec, cfg.feedback_substeps, _field_box(runs))
    estimates = []
    for i in range(0, len(runs), per_batch):
        estimates += _run_paths(spec, start, runs[i : i + per_batch], payoff)

    results = []
    for (side, name, _, _, _), est in zip(probes, estimates):
        margin = 3 * est.std_error + allowance
        if side == "stopper":
            passed = est.mean <= reference + margin
        else:
            passed = est.mean >= reference - margin
        results.append(
            ProbeResult(name, side, est.mean, est.std_error, reference, margin, passed, est.metadata)
        )
    return results
