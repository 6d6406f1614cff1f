"""Finite-difference solution of the penalized semilinear PDE on the
space-time cylinder, continuation in the penalty parameters, and extraction
of variational-inequality residuals and regions.

The frozen-source sweep (gamma_step) solves the LINEAR backward problem

    dw/dt + L w - r w = -h_m - (1/delta)(g_m - phi)^+ + psi_eps(|grad phi|^2 - f_m^2)

with the source frozen at a previous iterate phi, Dirichlet data g_m on the
lateral boundary and terminal slice g_m(T, .).  Its fixed point is the
discrete penalized solution.  solve_penalized reaches that fixed point by
a per-level semi-smooth Newton march (robust for small penalty parameters)
and certifies convergence by the frozen-source residual |Gamma[u] - u|.

Only the march and the backward solves of gamma_step go level by level,
since each level needs the next.  Everything else (the frozen source, the
bound report, Theta_m and vi_report) runs on the whole (nt+1, n_nodes) level
stack.  The operator, the g_m, h_m, f_m^2 level stacks (from
model._level_stacks, which evaluates time-independent data once) and the
Theta_m bounds depend only on the grid and the truncated data, not on the
penalty: a TruncatedProblem derives them once per radius, and every stage
of that radius reads them from it.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridField, Operator, build_operator, centered_gradient
from .kernel import Penalty, TruncatedData, _Branches, truncate_data
from .model import _level_stacks

__all__ = [
    "TruncatedProblem",
    "MarchCounts",
    "PenaltyPoint",
    "VIReport",
    "ContinuationResult",
    "SolverError",
    "ContinuationError",
    "gamma_step",
    "solve_penalized",
    "continuation",
    "vi_report",
    "default_schedule",
    "check_schedule",
]

TIME_SLACK = 0.05  # additive slack on the time-derivative bound
MAX_INNER = 60  # Newton iterations per time level before the march stalls


class SolverError(RuntimeError):
    pass


class ContinuationError(SolverError):
    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class TruncatedProblem:
    """The truncated problem on the ball of radius data.m, discretized on
    grid: the operator of L - r, the (g_m, h_m, f_m^2) level stacks and the
    Theta_m bounds (K2, K0) = _theta_truncated(op, g_m, h_m).  None of them
    depends on the penalty or on a field, so they are derived once, here, and
    every stage of the radius reads them.  The stacks are read-only."""

    def __init__(self, grid: Grid, data: TruncatedData):
        self.grid = grid
        self.data = data
        self.op = build_operator(grid, data.spec)
        self.stacks = tuple(
            _level_stacks(
                grid.times, grid.points(), data.time_independent, data.g_m, data.h_m, data.f_m_sq
            )
        )
        for stack in self.stacks:
            stack.flags.writeable = False
        self.theta_bounds = _theta_truncated(self.op, *self.stacks[:2])


def gamma_step(problem: TruncatedProblem, pen: Penalty, delta: float, frozen: GridField) -> GridField:
    """One sweep of the fixed-point operator: solve the linear backward problem
    with the obstacle and gradient penalties evaluated at the frozen field."""
    grid, op = problem.grid, problem.op
    if frozen.grid != grid:
        raise ValueError("frozen field lives on a different grid")
    g, h, f2 = problem.stacks
    nt = grid.nt
    phi = frozen.values[:nt]
    inv_delta = 1.0 / delta
    source = (
        h[:nt]
        + inv_delta * np.maximum(g[:nt] - phi, 0.0)
        - pen.value(np.sum(centered_gradient(grid, phi) ** 2, axis=-2) - f2[:nt])
    )
    bad = ~np.all(np.isfinite(source), axis=1)
    if np.any(bad):
        # the backward sweep meets the highest bad level first
        raise SolverError(f"non-finite source at time level {np.flatnonzero(bad)[-1]}")
    out = np.empty((nt + 1, grid.n_nodes))
    out[nt] = g[nt]
    dirichlet = np.flatnonzero(op.dirichlet)
    ht = grid.ht
    for k in range(nt - 1, -1, -1):
        rhs = out[k + 1] / ht + source[k]
        rhs[dirichlet] = g[k, dirichlet]
        sol = op.implicit_solve(rhs)
        if not np.isfinite(sol).all():
            raise SolverError(f"linear solve produced non-finite values at level {k}")
        out[k] = sol
    return GridField(grid=grid, values=out)


@dataclass
class MarchCounts:
    """Work of the per-level Newton march, summed over the marches of a stage:
    time levels marched, Newton iterations (one linear solve each) and
    line-search trials (one level-residual evaluation each)."""

    levels: int = 0
    newton_iters: int = 0
    line_search_trials: int = 0


def _nonlinear_march(
    problem: TruncatedProblem,
    pen: Penalty,
    delta: float,
    inner_tol: float,
    counts: MarchCounts,
    guess: GridField | None = None,
) -> GridField:
    """Backward march solving each implicit time level to nonlinear tolerance.

    Per level, the obstacle and gradient penalties are handled by semi-smooth
    Newton: freeze the active set {g_m > v} and the controlled drift
    -2 psi'(|grad v|^2 - f_m^2) grad v at the running inner iterate v (both
    are supporting planes of convex terms), solve the linear system, repeat.
    Starting v from the next level's solution keeps steps O(ht), so the
    inner loop converges in a few iterations; the marched field is the
    fixed point of the frozen-source operator up to the inner tolerance.
    The line search evaluates the level residual at each trial point; the
    accepted trial's gradient, |grad v|^2, the penalty branches of zeta and
    psi feed the next linearization, so zeta is classified once per
    residual, and each Newton iteration evaluates psi' once and psi only
    through the residuals.
    """
    grid, op = problem.grid, problem.op
    g, h, f2 = problem.stacks
    nt, ht = grid.nt, grid.ht
    out = np.empty((nt + 1, grid.n_nodes))
    out[nt] = g[nt]
    dirichlet = np.flatnonzero(op.dirichlet)
    interior = np.flatnonzero(~op.dirichlet)
    inv_delta = 1.0 / delta

    def level_residual(v, knext_ht, g_k, h_k, f2_k):
        """Merit (interior norm of the level residual) at v, with the
        gradient, |grad v|^2, the penalty branches of
        zeta = |grad v|^2 - f_m^2 and psi(zeta) it used.
        The residual v/ht - (L - r) v - knext/ht - h_m - (1/delta)(g_m - v)^+
        + psi is summed left to right in place, and the merit is
        np.linalg.norm's sqrt(dot) of its interior entries."""
        grad = centered_gradient(grid, v)
        gsq = (grad**2).sum(axis=0)
        zeta = _Branches(pen, gsq - f2_k)
        psi = pen.value(zeta)
        res = v / ht
        res -= op.apply_generator(v)
        res -= knext_ht
        res -= h_k
        obstacle = np.subtract(g_k, v)
        np.maximum(obstacle, 0.0, out=obstacle)
        obstacle *= inv_delta
        res -= obstacle
        res += psi
        res = res[interior]
        return math.sqrt(np.dot(res, res)), grad, gsq, zeta, psi

    for k in range(nt - 1, -1, -1):
        g_k, h_k, f2_k = g[k], h[k], f2[k]
        knext_ht = out[k + 1] / ht
        v = out[k + 1].copy() if guess is None else guess.values[k].copy()
        v[dirichlet] = g_k[dirichlet]
        state = level_residual(v, knext_ht, g_k, h_k, f2_k)
        converged = False
        for _ in range(MAX_INNER):
            merit, grad_v, gsq, zeta, psi = state
            counts.newton_iters += 1
            slope = 2.0 * pen.d1(zeta)
            extra_diag = inv_delta * (g_k - v > 0.0)
            # an idle gradient penalty (zero slope at every node) adds no drift
            extra_drift = -slope[None, :] * grad_v if slope.any() else None
            # h_m + extra_diag g_m - psi + slope |grad v|^2, left to right
            const_src = np.multiply(extra_diag, g_k)
            np.add(h_k, const_src, out=const_src)
            const_src -= psi
            slope *= gsq
            const_src += slope
            if not np.isfinite(const_src).all():
                raise SolverError(f"non-finite source at time level {k}")
            rhs = knext_ht + const_src
            rhs[dirichlet] = g_k[dirichlet]
            w = op.level_solver(extra_drift, extra_diag)(rhs)
            direction = w - v
            step = float(np.abs(direction).max())
            # v is finite, so a non-finite step means a non-finite w, unless
            # w - v overflowed; then w is finite and the line search goes on
            if not math.isfinite(step) and not np.isfinite(w).all():
                raise SolverError(f"linear solve produced non-finite values at level {k}")
            if step <= inner_tol:
                v = w
                converged = True
                break
            # backtracking line search on the nonlinear level residual
            theta = 1.0
            accepted, best_merit = None, merit
            for _ in range(9):
                cand = v + theta * direction
                trial = level_residual(cand, knext_ht, g_k, h_k, f2_k)
                counts.line_search_trials += 1
                if trial[0] < best_merit:
                    accepted, best_merit = (cand, trial), trial[0]
                    if best_merit <= 0.9 * merit:
                        break
                theta *= 0.5
            # no trial lowered the merit: take the last, smallest trial to
            # escape a kink, bounded by MAX_INNER
            v, state = accepted if accepted is not None else (cand, trial)
        if not converged:
            raise SolverError(f"inner iteration stalled at time level {k} (merit {state[0]:.3e})")
        out[k] = v
        counts.levels += 1
    return GridField(grid=grid, values=out)


def _theta_truncated(op: Operator, g: np.ndarray, h: np.ndarray):
    """Discrete Theta_m = h_m + dt g_m + (L - r) g_m on interior nodes of the
    levels 0..nt-1 (forward time differences), as (K2, K0): the worst
    negative part of Theta_m and the largest forward dt g_m or dt h_m."""
    interior = ~op.dirichlet
    ht = op.grid.ht
    dt_g = (g[1:] - g[:-1]) / ht
    dt_h = (h[1:] - h[:-1]) / ht
    theta = h[:-1] + dt_g + op.apply_generator(g[:-1].T).T
    worst = float(np.min(theta[:, interior]))
    k0 = max(0.0, float(np.max(dt_g[:, interior])), float(np.max(dt_h[:, interior])))
    return max(0.0, -worst), k0


@dataclass
class PenaltyPoint:
    """One (eps, delta, m) stage of the continuation with its solved field.

    iters counts certification attempts: marches checked by a frozen-source
    sweep (1 unless a certification failed).  march counts the work of the
    stage's marches.  seconds splits the stage's wall time: "march" (every
    march), "certify" (every frozen-source sweep with its residual) and
    "report" (the nonnegativity check and the bound report).
    """

    eps: float
    delta: float
    m: float
    field: GridField
    iters: int
    residual: float
    bound_report: dict[str, tuple[float, float]]
    march: MarchCounts
    seconds: dict[str, float]

    def bounds_ok(self) -> bool:
        return all(obs <= bound for bound, obs in self.bound_report.values())


def solve_penalized(
    problem: TruncatedProblem,
    pen: Penalty,
    delta: float,
    tol: float = 1e-7,
    u0: GridField | None = None,
    k3_bound: float | None = None,
) -> PenaltyPoint:
    """Solve one penalty point to tolerance, warm-started from u0 if given,
    with runtime bound checks.

    Marches backward once, solving each implicit level by semi-smooth Newton,
    and certifies convergence with the plain frozen-source residual
    |Gamma[u] - u| <= tol (same fixed point; the march IS Gamma restarted on
    its own output).  A failed certification re-marches from the last field
    with tighter level solves, up to 4 attempts in all; then SolverError.

    bound_report entries are (upper bound, observed) pairs:
      negative_part        max(0, -min u)              <= 10 tol
      quad_growth          max u/(1+|x|^2)             <= calibrated K3
      obstacle_penalty     (1/delta) max (g_m - u)^+   <= K2(grid Theta_m) + slack
      time_derivative      max forward du/dt on the cutoff-inert core
                                                       <= K0(1+T) + K2 + 0.05
      time_derivative_full same over the whole interior (diagnostic only;
                           the truncation boundary layer is not covered)
      gradient_penalty     max psi(|grad u|^2 - f_m^2) (recorded)

    K2 and K0 are the problem's Theta_m bounds.
    """
    grid, op, data = problem.grid, problem.op, problem.data
    if u0 is not None and u0.grid != grid:
        raise ValueError("warm start lives on a different grid")

    counts = MarchCounts()
    seconds = dict.fromkeys(("march", "certify", "report"), 0.0)
    inner_tol = 0.1 * tol
    guess = u0
    for iters in range(1, 5):
        start = time.perf_counter()
        u = _nonlinear_march(problem, pen, delta, inner_tol, counts, guess=guess)
        marched = time.perf_counter()
        w = gamma_step(problem, pen, delta, u)
        residual = float(np.max(np.abs(w.values - u.values)))
        certified = time.perf_counter()
        seconds["march"] += marched - start
        seconds["certify"] += certified - marched
        if residual <= tol:
            break
        guess = u
        inner_tol *= 0.05  # certification failed: tighten the level solves
    else:
        raise SolverError(
            f"marched solution failed certification (residual {residual:.3e} > {tol:g})"
        )

    uv = u.values
    if float(np.min(uv)) < -10.0 * tol:
        raise SolverError(
            f"solution lost nonnegativity (min {float(np.min(uv)):.3e}); "
            "the payoff data may violate the standing assumptions"
        )
    g, _, f2 = problem.stacks
    interior = ~op.dirichlet
    xsq = np.sum(grid.points() ** 2, axis=0)

    k2_grid, k0_grid = problem.theta_bounds
    obs_penalty = max(0.0, float(np.max(g - uv))) / delta
    psi = pen.value(np.sum(centered_gradient(grid, uv) ** 2, axis=-2) - f2)
    obs_psi = max(0.0, float(np.max(psi[:, interior])))

    # the time-derivative bound concerns the untruncated problem; measure it
    # on the cutoff-inert core and keep the full-domain max as a diagnostic
    # (the lateral boundary layer of the truncated problem is not covered)
    radius = np.sqrt(xsq)
    core = interior & (radius <= data.cutoff.m)
    dt_fwd = (uv[1:] - uv[:-1]) / grid.ht
    obs_dt_core = float(np.max(dt_fwd[:, core])) if np.any(core) else 0.0
    obs_dt_full = float(np.max(dt_fwd[:, interior]))

    obs_growth = float(np.max(uv / (1.0 + xsq)[None, :]))
    report = {
        "negative_part": (10.0 * tol, max(0.0, -float(np.min(uv)))),
        "quad_growth": (obs_growth if k3_bound is None else k3_bound, obs_growth),
        "obstacle_penalty": (k2_grid + 10.0 * tol / delta, obs_penalty),
        "time_derivative": (k0_grid * (1.0 + grid.T) + k2_grid + TIME_SLACK, obs_dt_core),
        "time_derivative_full": (math.inf, obs_dt_full),
        "gradient_penalty": (math.inf, obs_psi),
    }
    seconds["report"] = time.perf_counter() - certified
    return PenaltyPoint(
        eps=pen.eps,
        delta=delta,
        m=data.m,
        field=u,
        iters=iters,
        residual=residual,
        bound_report=report,
        march=counts,
        seconds=seconds,
    )


def default_schedule(K: int, eps0: float = 0.5, delta0: float = 0.5, m: float = 4.0):
    """Geometric schedule (eps0 2^{-k+1}, delta0 2^{-k+1}, m), k = 1..K."""
    if K < 1:
        raise ValueError("empty schedule")
    return [(eps0 * 2.0 ** (-k), delta0 * 2.0 ** (-k), m) for k in range(K)]


def check_schedule(schedule) -> list[tuple[float, float, float]]:
    """The schedule of penalty points (eps, delta, m) as floats, checked before
    any stage runs: it is not empty, every eps lies in (0, 1), every delta is
    positive, every truncation radius m is at least 2, eps and delta are
    nonincreasing and m is nondecreasing."""
    schedule = [(float(e), float(d), float(m)) for e, d, m in schedule]
    if not schedule:
        raise ValueError("empty schedule")
    for eps, delta, m in schedule:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"schedule eps {eps:g} must lie in (0, 1)")
        if not delta > 0.0:
            raise ValueError(f"schedule delta {delta:g} must be positive")
        if not m >= 2.0:
            raise ValueError(f"truncation radius {m:g} must be >= 2")
    for (e0, d0, m0_), (e1, d1, m1_) in zip(schedule, schedule[1:]):
        if e1 > e0 or d1 > d0 or m1_ < m0_:
            raise ValueError("schedule must have eps, delta nonincreasing and m nondecreasing")
    return schedule


@dataclass
class ContinuationResult:
    points: list[PenaltyPoint]
    limit: GridField
    increments: list[float]
    schedule: list[tuple[float, float, float]]

    @property
    def last(self) -> PenaltyPoint:
        return self.points[-1]


def continuation(
    spec,
    schedule,
    grid_policy,
    tol: float = 1e-7,
) -> ContinuationResult:
    """Solve the schedule of penalty points, warm-starting each from the
    previous field; reports sup-norm Cauchy increments on the innermost box.

    schedule: list of (eps, delta, m) that check_schedule accepts.
    grid_policy maps a radius m to a Grid.  Since m is nondecreasing, a radius
    never comes back: one TruncatedProblem on grid_policy(m) serves every
    stage of the radius m, and the first radius's problem is kept for the
    limit.
    """
    schedule = check_schedule(schedule)

    points: list[PenaltyPoint] = []
    increments: list[float] = []
    prev_field: GridField | None = None
    k3_bound = None
    m0 = schedule[0][2]
    problem0 = problem = TruncatedProblem(grid_policy(m0), truncate_data(spec, m0))

    for eps_k, delta_k, m_k in schedule:
        if m_k != problem.data.m:
            problem = TruncatedProblem(grid_policy(m_k), truncate_data(spec, m_k))
        u0 = None
        if prev_field is not None:
            u0 = _interp_onto(prev_field, problem)
        try:
            point = solve_penalized(problem, Penalty(eps_k), delta_k, tol=tol, u0=u0, k3_bound=k3_bound)
        except SolverError as exc:
            raise ContinuationError(
                f"stage (eps={eps_k:g}, delta={delta_k:g}, m={m_k:g}) failed: {exc}", points
            ) from exc
        if k3_bound is None:
            k3_bound = point.bound_report["quad_growth"][1] * (1.0 + 1e-9)
        if prev_field is not None:
            mine, theirs = point.field.restrict_common(prev_field)
            increments.append(float(np.max(np.abs(mine - theirs))))
        points.append(point)
        prev_field = point.field

    last = points[-1].field
    limit = last if points[-1].m == m0 else _interp_onto(last, problem0)
    return ContinuationResult(points=points, limit=limit, increments=increments, schedule=schedule)


def _interp_onto(src: GridField, problem: TruncatedProblem) -> GridField:
    """Interpolate a field onto the problem's grid, re-imposing its
    boundary/terminal data g_m."""
    grid = problem.grid
    if src.grid == grid:
        return GridField(grid=grid, values=src.values.copy())
    pts = grid.points()
    vals = np.empty((grid.nt + 1, grid.n_nodes))
    for k, t in enumerate(grid.times):
        vals[k] = src.sample(float(t), pts)
    g = problem.stacks[0]
    dirichlet = problem.op.dirichlet
    vals[:, dirichlet] = g[:, dirichlet]
    vals[grid.nt] = g[grid.nt]
    return GridField(grid=grid, values=vals)


@dataclass
class VIReport:
    """Discrete residuals and regions of the min-max variational inequality."""

    region_C: np.ndarray  # continuation region mask (u > g + tol), (nt+1, n)
    region_I: np.ndarray  # inaction region mask (|grad u| < f - tol)
    band: np.ndarray  # neither mask (within tol of a boundary)
    residual_minmax: GridField
    residual_maxmin: GridField
    interior_mask: np.ndarray  # nodes where residuals are meaningful
    max_constraint_violation: tuple[float, float]  # (obstacle, gradient)
    sup_minmax: float
    sup_maxmin: float
    mutual_diff: float
    overlap_count: int
    terminal_error: float
    tol_region: float


def vi_report(field: GridField, spec, tol_region: float | None = None, operator=None) -> VIReport:
    """Evaluate both orderings of the variational inequality on interior nodes,
    using the solver's own stencils, against the untruncated data f, g, h."""
    grid = field.grid
    op = operator if operator is not None else build_operator(grid, spec)
    if tol_region is None:
        tol_region = 10.0 * grid.hx
    interior = ~op.dirichlet
    nt = grid.nt
    g, f, h = _level_stacks(grid.times, grid.points(), spec.time_independent, spec.g, spec.f, spec.h)
    u = field.values
    grad_norm = np.sqrt(np.sum(field._gradient_table() ** 2, axis=-2))

    obst = g - u
    gradc = f - grad_norm
    obst_viol = float(np.max(obst[:, interior]))
    grad_viol = float(np.max(-gradc[:, interior]))
    region_c = interior & (u > g + tol_region)
    region_i = interior & (grad_norm < f - tol_region)
    band = interior & ~region_c & ~region_i
    overlap = int(np.sum(interior & (-obst <= tol_region) & (gradc <= tol_region)))
    pde = (u[1:] - u[:-1]) / grid.ht + op.apply_generator(u[:-1].T).T + h[:-1]
    res_mm = np.zeros(u.shape)
    res_ms = np.zeros(u.shape)
    res_mm[:nt] = np.where(interior, np.minimum(np.maximum(pde, obst[:-1]), gradc[:-1]), 0.0)
    res_ms[:nt] = np.where(interior, np.maximum(np.minimum(pde, gradc[:-1]), obst[:-1]), 0.0)
    terminal_error = float(np.max(np.abs(u[nt] - g[nt])))
    sup_mm = float(np.max(np.abs(res_mm[:nt, interior])))
    sup_ms = float(np.max(np.abs(res_ms[:nt, interior])))
    mutual = float(np.max(np.abs((res_mm - res_ms)[:nt, interior])))
    return VIReport(
        region_C=region_c,
        region_I=region_i,
        band=band,
        residual_minmax=GridField(grid=grid, values=res_mm),
        residual_maxmin=GridField(grid=grid, values=res_ms),
        interior_mask=interior,
        max_constraint_violation=(max(0.0, obst_viol), max(0.0, grad_viol)),
        sup_minmax=sup_mm,
        sup_maxmin=sup_ms,
        mutual_diff=mutual,
        overlap_count=overlap,
        terminal_error=terminal_error,
        tol_region=tol_region,
    )
