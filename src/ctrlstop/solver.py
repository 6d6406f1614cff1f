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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridField, Operator, build_operator, centered_gradient
from .kernel import Penalty, TruncatedData, truncate_data

__all__ = [
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
]

TIME_SLACK = 0.05  # additive slack on the time-derivative bound


class SolverError(RuntimeError):
    pass


class ContinuationError(SolverError):
    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class _DataOnGrid:
    """Nodal arrays of g_m, h_m, f_m^2 with caching for time-independent data."""

    def __init__(self, grid: Grid, data: TruncatedData):
        self.grid = grid
        self.data = data
        self.pts = grid.points()
        self.static = data.time_independent
        self._cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def level(self, k: int):
        key = 0 if self.static else k
        if key not in self._cache:
            t = 0.0 if self.static else float(self.grid.times[key])
            g = self.data.g_m(t, self.pts)
            h = self.data.h_m(t, self.pts)
            f2 = self.data.f_m_sq(t, self.pts)
            self._cache[key] = (g, h, f2)
        return self._cache[key]


def _grad_norm_sq(grid: Grid, flat: np.ndarray) -> np.ndarray:
    return np.sum(centered_gradient(grid, flat) ** 2, axis=0)


def gamma_step(
    grid: Grid,
    data: TruncatedData,
    pen: Penalty,
    delta: float,
    frozen: GridField,
    operator: Operator | None = None,
) -> GridField:
    """One sweep of the fixed-point operator: solve the linear backward problem
    with the obstacle and gradient penalties evaluated at the frozen field."""
    if frozen.grid != grid:
        raise ValueError("frozen field lives on a different grid")
    op = operator if operator is not None else build_operator(grid, data.spec)
    arrays = _DataOnGrid(grid, data)
    n = grid.n_nodes
    nt = grid.nt
    out = np.empty((nt + 1, n))
    out[nt] = arrays.level(nt)[0]
    dirichlet = op.dirichlet
    inv_delta = 1.0 / delta
    for k in range(nt - 1, -1, -1):
        g_k, h_k, f2_k = arrays.level(k)
        phi = frozen.values[k]
        source = (
            h_k
            + inv_delta * np.maximum(g_k - phi, 0.0)
            - pen.value(_grad_norm_sq(grid, phi) - f2_k)
        )
        if not np.all(np.isfinite(source)):
            raise SolverError(f"non-finite source at time level {k}")
        rhs = out[k + 1] / grid.ht + source
        rhs[dirichlet] = g_k[dirichlet]
        sol = op.implicit_solve(rhs)
        if not np.all(np.isfinite(sol)):
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
    op: Operator,
    arrays: _DataOnGrid,
    pen: Penalty,
    delta: float,
    inner_tol: float,
    counts: MarchCounts,
    guess: GridField | None = None,
    max_inner: int = 60,
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
    accepted trial's gradient, |grad v|^2 and psi feed the next linearization.
    """
    grid = op.grid
    n, nt = grid.n_nodes, grid.nt
    out = np.empty((nt + 1, n))
    out[nt] = arrays.level(nt)[0]
    dirichlet = op.dirichlet
    interior = ~dirichlet
    inv_delta = 1.0 / delta

    def level_residual(v, knext, g_k, h_k, f2_k):
        """Merit (interior norm of the level residual) at v, with the
        gradient, |grad v|^2 and psi(|grad v|^2 - f_m^2) it used."""
        grad = centered_gradient(grid, v)
        gsq = np.sum(grad**2, axis=0)
        psi = pen.value(gsq - f2_k)
        res = (
            v / grid.ht
            - op.apply_generator(v)
            - knext / grid.ht
            - h_k
            - inv_delta * np.maximum(g_k - v, 0.0)
            + psi
        )
        return float(np.linalg.norm(res[interior])), grad, gsq, psi

    for k in range(nt - 1, -1, -1):
        g_k, h_k, f2_k = arrays.level(k)
        knext = out[k + 1]
        v = knext.copy() if guess is None else guess.values[k].copy()
        v[dirichlet] = g_k[dirichlet]
        state = level_residual(v, knext, g_k, h_k, f2_k)
        converged = False
        for _ in range(max_inner):
            merit, grad_v, gsq, psi = state
            counts.newton_iters += 1
            slope = 2.0 * pen.d1(gsq - f2_k)
            active = (g_k - v > 0.0).astype(float)
            extra_drift = -slope[None, :] * grad_v
            extra_diag = inv_delta * active
            const_src = h_k + inv_delta * active * g_k - psi + slope * gsq
            if not np.all(np.isfinite(const_src)):
                raise SolverError(f"non-finite source at time level {k}")
            rhs = knext / grid.ht + const_src
            rhs[dirichlet] = g_k[dirichlet]
            w = op.level_solver(extra_drift, extra_diag)(rhs)
            if not np.all(np.isfinite(w)):
                raise SolverError(f"linear solve produced non-finite values at level {k}")
            direction = w - v
            step = float(np.max(np.abs(direction)))
            if step <= inner_tol:
                v = w
                converged = True
                break
            # backtracking line search on the nonlinear level residual
            theta = 1.0
            accepted, best_merit = None, merit
            for _ in range(9):
                cand = v + theta * direction
                trial = level_residual(cand, knext, g_k, h_k, f2_k)
                counts.line_search_trials += 1
                if trial[0] < best_merit:
                    accepted, best_merit = (cand, trial), trial[0]
                    if best_merit <= 0.9 * merit:
                        break
                theta *= 0.5
            # no trial lowered the merit: take the last, smallest trial to
            # escape a kink, bounded by max_inner
            v, state = accepted if accepted is not None else (cand, trial)
        if not converged:
            raise SolverError(f"inner iteration stalled at time level {k} (merit {state[0]:.3e})")
        out[k] = v
        counts.levels += 1
    return GridField(grid=grid, values=out)


def _theta_truncated(grid: Grid, data: TruncatedData, op: Operator, arrays: _DataOnGrid):
    """Discrete Theta_m = h_m + dt g_m + (L - r) g_m on interior nodes."""
    interior = ~op.dirichlet
    worst = math.inf
    k0 = 0.0
    levels = [0] if arrays.static else list(range(grid.nt))
    for k in levels:
        g_k, h_k, _ = arrays.level(k)
        if arrays.static:
            dt_g = np.zeros_like(g_k)
            dt_h = np.zeros_like(g_k)
        else:
            g_next, h_next, _ = arrays.level(k + 1)
            dt_g = (g_next - g_k) / grid.ht
            dt_h = (h_next - h_k) / grid.ht
        theta = h_k + dt_g + op.apply_generator(g_k)
        worst = min(worst, float(np.min(theta[interior])))
        k0 = max(k0, float(np.max(dt_g[interior])), float(np.max(dt_h[interior])))
    return max(0.0, -worst), k0


@dataclass
class PenaltyPoint:
    """One (eps, delta, m) stage of the continuation with its solved field.

    iters counts certification attempts: marches checked by a frozen-source
    sweep (1 unless a certification failed).  march counts the work of the
    stage's marches.
    """

    eps: float
    delta: float
    m: float
    field: GridField
    iters: int
    residual: float
    bound_report: dict[str, tuple[float, float]]
    march: MarchCounts

    def bounds_ok(self) -> bool:
        return all(obs <= bound for bound, obs in self.bound_report.values())


def solve_penalized(
    grid: Grid,
    data: TruncatedData,
    pen: Penalty,
    delta: float,
    tol: float = 1e-7,
    u0: GridField | None = None,
    k3_bound: float | None = None,
    operator: Operator | None = None,
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
    """
    if u0 is not None and u0.grid != grid:
        raise ValueError("warm start lives on a different grid")
    op = operator if operator is not None else build_operator(grid, data.spec)
    arrays = _DataOnGrid(grid, data)

    counts = MarchCounts()
    inner_tol = 0.1 * tol
    guess = u0
    for iters in range(1, 5):
        u = _nonlinear_march(op, arrays, pen, delta, inner_tol, counts, guess=guess)
        w = gamma_step(grid, data, pen, delta, u, operator=op)
        residual = float(np.max(np.abs(w.values - u.values)))
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
    pts = arrays.pts
    interior = ~op.dirichlet
    xsq = np.sum(pts**2, axis=0)

    k2_grid, k0_grid = _theta_truncated(grid, data, op, arrays)
    obs_penalty = 0.0
    obs_psi = 0.0
    for k in range(grid.nt + 1):
        g_k, _, f2_k = arrays.level(k)
        obs_penalty = max(obs_penalty, float(np.max(g_k - uv[k])))
        psi_k = pen.value(_grad_norm_sq(grid, uv[k]) - f2_k)
        obs_psi = max(obs_psi, float(np.max(psi_k[interior])))
    obs_penalty = max(0.0, obs_penalty) / delta

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
    return PenaltyPoint(
        eps=pen.eps,
        delta=delta,
        m=data.m,
        field=u,
        iters=iters,
        residual=residual,
        bound_report=report,
        march=counts,
    )


def default_schedule(K: int, eps0: float = 0.5, delta0: float = 0.5, m: float = 4.0):
    """Geometric schedule (eps0 2^{-k+1}, delta0 2^{-k+1}, m), k = 1..K."""
    return [(eps0 * 2.0 ** (-k), delta0 * 2.0 ** (-k), m) for k in range(K)]


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

    schedule: list of (eps, delta, m) with eps, delta nonincreasing and m
    nondecreasing.  grid_policy maps a radius m to a Grid.
    """
    schedule = [(float(e), float(d), float(m)) for e, d, m in schedule]
    if not schedule:
        raise ValueError("empty schedule")
    for (e0, d0, m0_), (e1, d1, m1_) in zip(schedule, schedule[1:]):
        if e1 > e0 or d1 > d0 or m1_ < m0_:
            raise ValueError("schedule must have eps, delta nonincreasing and m nondecreasing")

    points: list[PenaltyPoint] = []
    increments: list[float] = []
    prev_field: GridField | None = None
    k3_bound = None
    data_cache: dict[float, TruncatedData] = {}
    op_cache: dict[float, object] = {}

    for eps_k, delta_k, m_k in schedule:
        if m_k not in data_cache:
            data_cache[m_k] = truncate_data(spec, m_k)
        grid = grid_policy(m_k)
        if m_k not in op_cache:
            op_cache[m_k] = build_operator(grid, spec)
        data = data_cache[m_k]
        u0 = None
        if prev_field is not None:
            u0 = _interp_onto(prev_field, grid, data)
        try:
            point = solve_penalized(
                grid,
                data,
                Penalty(eps_k),
                delta_k,
                tol=tol,
                u0=u0,
                k3_bound=k3_bound,
                operator=op_cache[m_k],
            )
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

    m0 = schedule[0][2]
    last = points[-1].field
    if points[-1].m == m0:
        limit = last
    else:
        grid0 = grid_policy(m0)
        data0 = data_cache[m0]
        limit = _interp_onto(last, grid0, data0)
    return ContinuationResult(points=points, limit=limit, increments=increments, schedule=schedule)


def _interp_onto(src: GridField, grid: Grid, data: TruncatedData) -> GridField:
    """Interpolate a field onto a new grid, re-imposing boundary/terminal data."""
    if src.grid == grid:
        return GridField(grid=grid, values=src.values.copy())
    pts = grid.points()
    vals = np.empty((grid.nt + 1, grid.n_nodes))
    for k, t in enumerate(grid.times):
        vals[k] = src.sample(float(t), pts)
    dirichlet = grid.dirichlet_mask()
    for k, t in enumerate(grid.times):
        gk = data.g_m(float(t), pts)
        vals[k, dirichlet] = gk[dirichlet]
    vals[grid.nt] = data.g_m(float(grid.T), pts)
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
    pts = grid.points()
    interior = ~op.dirichlet
    nt, n = grid.nt, grid.n_nodes

    res_mm = np.zeros((nt + 1, n))
    res_ms = np.zeros((nt + 1, n))
    region_c = np.zeros((nt + 1, n), dtype=bool)
    region_i = np.zeros((nt + 1, n), dtype=bool)
    band = np.zeros((nt + 1, n), dtype=bool)
    obst_viol = 0.0
    grad_viol = 0.0
    overlap = 0

    for k in range(nt + 1):
        t = float(grid.times[k])
        g_k = spec.g(t, pts)
        f_k = spec.f(t, pts)
        h_k = spec.h(t, pts)
        u_k = field.values[k]
        grad_norm = field.gradient_norm(k)
        obst = g_k - u_k
        gradc = f_k - grad_norm
        obst_viol = max(obst_viol, float(np.max(obst[interior])))
        grad_viol = max(grad_viol, float(np.max(-gradc[interior])))
        region_c[k] = interior & (u_k > g_k + tol_region)
        region_i[k] = interior & (grad_norm < f_k - tol_region)
        band[k] = interior & ~region_c[k] & ~region_i[k]
        overlap += int(np.sum(interior & (-obst <= tol_region) & (gradc <= tol_region)))
        if k < nt:
            dt_u = (field.values[k + 1] - u_k) / grid.ht
            pde = dt_u + op.apply_generator(u_k) + h_k
            res_mm[k] = np.where(interior, np.minimum(np.maximum(pde, obst), gradc), 0.0)
            res_ms[k] = np.where(interior, np.maximum(np.minimum(pde, gradc), obst), 0.0)

    terminal_error = float(
        np.max(np.abs(field.values[nt] - np.asarray(spec.g(float(grid.T), pts), dtype=float)))
    )
    sup_mm = float(np.max(np.abs(res_mm[:nt, :][:, interior]))) if nt > 0 else 0.0
    sup_ms = float(np.max(np.abs(res_ms[:nt, :][:, interior]))) if nt > 0 else 0.0
    mutual = float(np.max(np.abs((res_mm - res_ms)[:nt, :][:, interior]))) if nt > 0 else 0.0
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
