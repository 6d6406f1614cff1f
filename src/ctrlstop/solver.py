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

The control term |grad phi|^2 is the operator's monotone Rouy-Tourin Q
(grid.Operator.control_term), so every Newton level system is an M-matrix
with row margin at least 1/ht, at any eps.  The march stops each level on
its own residual F_k, once ht max|F_k| <= inner_tol / nt, and starts it
from a predictor taken off the stage before; by the discrete comparison
principle the marched field lies within E = sum_k ht max|F_k(u_k)| <=
inner_tol = 0.1 tol of the stage's exact discrete solution, and E bounds
|Gamma[u] - u| too (_nonlinear_march; PenaltyPoint.E).

Only the march and the backward solves of gamma_step go level by level,
since each level needs the next.  The other passes of a stage (the frozen
source, the certification residual, the Cauchy increment, the bound report
and Theta_m) run over blocks of at most BLOCK_LEVELS time levels in the
workspace of a TruncatedProblem, and reduce block by block: a max or min
is taken over the array of the block maxima or minima, which is the
whole-stack one bit for bit, NaN included.  So a radius's scratch memory
does not grow with the horizon.  vi_report runs on the whole
(nt+1, n_nodes) level stack.

Level k of a continuation stage needs only its own level k+1 and level k
of the stage before (its Newton start), so continuation marches
the stages of a radius as a wavefront, each one level behind the stage
before, with the rows of a wave on a leading axis: a Newton iteration
assembles the level systems of all its rows in one pass and then solves
them row by row.  continuation then certifies and reports stage by stage,
with the same results as solving the stages one after the other.  The
operator, the g_m, h_m, f_m^2 level stacks (from model._level_stacks, which
evaluates time-independent data once) and the Theta_m bounds depend only
on the grid and the truncated data, not on the penalty: a TruncatedProblem
derives them once per radius, and every stage of that radius reads them
from it.

Where the gradient penalty is idle, as in the pure-stopping limit of a
large control cost, psi(|grad u|^2 - f_m^2) and its slope are +0.0 at every
node.  A bound on the field's oscillation (_control_bound) proves that
without computing the gradient: the level residuals of the march, the
frozen source and the bound report then skip the control term and the
penalty, and every result stays bit for bit what the dense formulas give.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Grid, GridField, build_operator
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
    "check_tol",
]

TIME_SLACK = 0.05  # additive slack on the time-derivative bound
BLOCK_LEVELS = 32  # time levels per block of a stage's whole-stack passes
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
    Theta_m bounds (K2, K0) = _theta_truncated(self).  None of them
    depends on the penalty or on a field, so they are derived once, here, and
    every stage of the radius reads them.  The stacks are read-only.

    The problem also holds the workspace of the passes that certify and
    report a stage (gamma_step's frozen source and the bound report, whose
    penalty pass is _psi, the certification residual, the Cauchy increment)
    and of _theta_truncated.  Each pass runs over the level blocks of
    blocks(), one block at a time, so the workspace holds one block: two
    (levels, n_nodes) stacks, work, and one (levels, d, n_nodes) gradient
    stack, work_grad, with levels = min(nt+1, BLOCK_LEVELS), allocated
    once per radius.  Its size does not depend on the horizon, and a
    radius's memory grows with the horizon only by the fields it returns.
    A pass reads back only what it wrote itself in the same block, so no
    state passes from one block or call to the next.

    f2_floor holds min f_m^2 over all nodes of each level, box edge
    included, or NaN where a level holds a non-finite f_m^2: the level's
    threshold for _penalty_idle.  boundary indexes the Dirichlet nodes and
    interior selects the others (a slice on a line).  The bound report's
    node data (report_nodes) are derived at its first call."""

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
        f2 = self.stacks[2]
        lowest, highest = np.min(f2, axis=1), np.max(f2, axis=1)
        self.f2_floor = np.where(np.isfinite(lowest) & np.isfinite(highest), lowest, np.nan)
        self.boundary = np.flatnonzero(self.op.dirichlet)
        self.interior = _columns(~self.op.dirichlet)
        levels, n = min(grid.nt + 1, BLOCK_LEVELS), grid.n_nodes
        self.work = (np.empty((levels, n)), np.empty((levels, n)))
        self.work_grad = np.empty((levels, grid.d, n))
        self.theta_bounds = _theta_truncated(self)

    @functools.cached_property
    def report_nodes(self) -> tuple[np.ndarray, slice | np.ndarray | None]:
        """What _bound_report reads of the nodes: 1 + |x|^2 per node, and
        the columns of the cutoff-inert core (interior nodes with
        |x| <= data.cutoff.m), or None where it has none."""
        xsq = np.sum(self.grid.points() ** 2, axis=0)
        core = ~self.op.dirichlet & (np.sqrt(xsq) <= self.data.cutoff.m)
        return 1.0 + xsq, _columns(core) if np.any(core) else None

    def blocks(self, stop: int) -> list[slice]:
        """The levels 0..stop-1 as consecutive blocks of at most the
        workspace's levels, in increasing order."""
        step = self.work[0].shape[0]
        return [slice(lo, min(lo + step, stop)) for lo in range(0, stop, step)]

    def sup_distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """max |a - b| of two level stacks with at most the grid's levels and
        nodes, computed block by block in the workspace."""
        maxima = []
        for levels in self.blocks(a.shape[0]):
            u = a[levels]
            diff = np.subtract(u, b[levels], out=self.work[0][: u.shape[0], : u.shape[1]])
            maxima.append(np.max(np.abs(diff, out=diff)))
        return float(np.max(maxima))

    def _penalty_idle(self, values: np.ndarray, levels) -> bool:
        """Whether psi(Q(v) - f_m^2) and its slope psi' are +0.0 at every
        node of every row of values (rows, n_nodes), row r lying on level
        levels[r] (an index of f2_floor), proven from _control_bound without
        computing Q = op.control_term(v)[0].  False on a row or a level
        with a non-finite value, and wherever the bound cannot tell."""
        return bool(np.all(_control_bound(self.grid, values) <= self.f2_floor[levels]))

    def _psi(self, pen: Penalty, values: np.ndarray, levels: slice) -> np.ndarray | None:
        """psi(Q(v) - f_m^2) of a block of levels values, which lies on the
        levels `levels` of the grid, computed in the workspace (second level
        stack and gradient stack), or None where _penalty_idle proves it
        +0.0 at every node of the block, with no control term computed."""
        if self._penalty_idle(values, levels):
            return None
        rows = values.shape[0]
        zeta = self.work[1][:rows]
        self.op.control_term(values, out=(zeta, self.work_grad[:rows]))
        zeta -= self.stacks[2][levels]
        return pen.value(zeta, out=zeta)


def _control_bound(grid: Grid, values: np.ndarray) -> np.ndarray:
    """d fl((max v - min v) / hx)^2 per row of nodal values (..., n_nodes):
    a bound of the computed control term Q = op.control_term(v)[0] at every
    node of the row, the box edge included.

    Rounding is monotone, so each computed difference v[j] - v[i] is at
    most fl(max v - min v) in magnitude, and each difference quotient, the
    centered one over 2 hx inside the box and the one-sided one over hx on
    its edge, at most B = fl((max v - min v) / hx).  Squaring and summing d
    such quotients is monotone too, so Q <= fl(d fl(B B)) at every node,
    which is what this returns.  Where it is <= min f_m^2, every
    Q - f_m^2 <= 0, so the penalty and its slope are +0.0 everywhere.  A
    one-sided (upwind) control term, built from (v[j] - v[j-1]) / hx or its
    positive or negative part, keeps the bound.  A NaN in v gives NaN, and
    an inf gives inf or NaN, which no finite min f_m^2 passes."""
    bound = np.max(values, axis=-1) - np.min(values, axis=-1)
    bound /= grid.hx
    return grid.d * (bound * bound)


def _columns(mask: np.ndarray):
    """Index of the columns in the boolean mask: a slice where they form one
    run (on a line, the interior and the core), so that reading them copies
    nothing, else the mask itself."""
    cols = np.flatnonzero(mask)
    if cols.size and cols[-1] - cols[0] + 1 == cols.size:
        return slice(int(cols[0]), int(cols[-1]) + 1)
    return mask


def gamma_step(problem: TruncatedProblem, pen: Penalty, delta: float, frozen: GridField) -> GridField:
    """One sweep of the fixed-point operator: solve the linear backward problem
    with the obstacle and gradient penalties evaluated at the frozen field.
    The sweep goes down the level blocks of the frozen levels 0..nt-1
    (problem.blocks), highest first.  Each block's frozen source
    h_m + (1/delta)(g_m - phi)^+ - psi(Q(phi) - f_m^2) is summed left to
    right in the problem's workspace just before the block's backward
    solves; the swept field is a new array.  Where the problem proves the
    penalty idle on a block (problem._psi is None), psi is +0.0 at every
    node and subtracting it changes no bit, so it is skipped.  The first
    failure met going down raises SolverError: a block's source that is
    not finite names its highest bad level, and a solve that is not
    finite names its level."""
    grid, op = problem.grid, problem.op
    if frozen.grid != grid:
        raise ValueError("frozen field lives on a different grid")
    g, h = problem.stacks[:2]
    nt = grid.nt
    out = np.empty((nt + 1, grid.n_nodes))
    out[nt] = g[nt]
    dirichlet = problem.boundary
    ht = grid.ht
    for levels in reversed(problem.blocks(nt)):
        phi = frozen.values[levels]
        source = problem.work[0][: phi.shape[0]]
        np.subtract(g[levels], phi, out=source)
        np.maximum(source, 0.0, out=source)
        source *= 1.0 / delta
        np.add(h[levels], source, out=source)
        psi = problem._psi(pen, phi, levels)
        if psi is not None:
            source -= psi
        bad = ~np.all(np.isfinite(source), axis=1)
        if np.any(bad):
            # the backward sweep meets the highest bad level first
            raise SolverError(f"non-finite source at time level {levels.start + np.flatnonzero(bad)[-1]}")
        for k in range(levels.stop - 1, levels.start - 1, -1):
            rhs = out[k + 1] / ht + source[k - levels.start]
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


class _Marched(NamedTuple):
    """One stage's marched field with the work and the wall time of its
    march, and E = sum_k ht max|F_k(u_k)|, its bound on the distance to the
    stage's exact discrete solution (_nonlinear_march)."""

    field: GridField
    counts: MarchCounts
    seconds: float
    bound: float


class _Wave(NamedTuple):
    """What the level residuals of one wave of _nonlinear_march read, one
    row per stage the wave advances: the g_m, h_m and f_m^2 rows of the
    stage's level, its next level over ht, 1/delta as a column and the
    penalty with one eps per row."""

    g: np.ndarray
    h: np.ndarray
    f2: np.ndarray
    knext_ht: np.ndarray
    inv_delta: np.ndarray
    pen: Penalty


def _level_residual(problem: TruncatedProblem, wave: _Wave, at, cand: np.ndarray, idle: bool) -> list:
    """What a Newton step from cand reads, for the wave rows at (a slice of
    all of them, or their positions) with cand one row each: the merit
    (interior 2-norm of the level residual F), the interior max|F| that the
    march's stop rule reads, lin of the control term
    (Q, lin) = op.control_term(cand), the slope psi'(zeta) at
    zeta = Q - f_m^2, the obstacle's extra diagonal (1/delta) 1{g_m > cand},
    and the right-hand side of the Newton system with a flag that its
    source is finite.  The residual
    F = v/ht - (L - r) v - knext/ht - h_m - (1/delta)(g_m - v)^+ + psi is
    summed left to right in place, and each row's merit is np.linalg.norm's
    sqrt(dot) of its interior entries.  psi and psi' read one
    classification of zeta, and each wave stack is gathered once.

    idle, which only problem._penalty_idle(cand, ...) may grant, says that
    psi = psi' = +0.0 at every node.  Then the control term and the
    penalty are skipped and each result is still the dense one bit for bit:
    slope is zeros, so level_systems adds no drift and never reads lin,
    which is left unset; "+ psi" in the residual flips only the sign of a
    zero, which the merit squares away and max|F| takes the magnitude of;
    "- psi" in the source changes no bit; and "+ 2 slope Q" is "+ 0.0",
    which is kept since it turns a -0.0 source into +0.0."""
    op, ht = problem.op, problem.grid.ht
    g, h, knext, inv_delta = wave.g[at], wave.h[at], wave.knext_ht[at], wave.inv_delta[at]
    res = cand / ht
    res -= op.apply_generator(cand)
    res -= knext
    res -= h
    obstacle = np.subtract(g, cand)
    extra_diag = inv_delta * (obstacle > 0.0)
    np.maximum(obstacle, 0.0, out=obstacle)
    obstacle *= inv_delta
    res -= obstacle
    # h_m + extra_diag g_m - psi + slope Q'(v) v, left to right, where
    # Q'(v) v = 2 Q since Q is homogeneous of degree 2
    const_src = np.multiply(extra_diag, g)
    np.add(h, const_src, out=const_src)
    if idle:
        lin = np.empty(cand.shape[:-1] + (problem.grid.d, cand.shape[-1]))
        slope = np.zeros(cand.shape)
        const_src += 0.0
    else:
        pen = wave.pen if isinstance(at, slice) else Penalty(wave.pen.eps[at])
        Q, lin = op.control_term(cand)
        branches = _Branches(pen, Q - wave.f2[at])
        psi = pen.value(branches)
        res += psi
        slope = pen.d1(branches)
        const_src -= psi
        const_src += 2.0 * slope * Q
    inner = res[:, problem.interior]
    merits = np.array([math.sqrt(np.dot(r, r)) for r in inner])
    largest = np.max(np.abs(inner), axis=1)
    finite = np.isfinite(const_src).all(axis=1)
    rhs = np.add(knext, const_src, out=const_src)
    rhs[:, problem.boundary] = g[:, problem.boundary]
    return [merits, largest, lin, slope, extra_diag, rhs, finite]


def _nonlinear_march(
    problem: TruncatedProblem,
    stages: list[tuple[Penalty, float]],
    inner_tol: float,
    guess: GridField | None = None,
) -> tuple[list[_Marched], SolverError | None]:
    """Backward march solving each implicit time level to nonlinear
    tolerance, for a list of (penalty, delta) stages at once, each stage
    starting its Newton iterations from the fields of the stage before.

    Per level, the obstacle and gradient penalties are handled by semi-smooth
    Newton: freeze the active set {g_m > v} and the slope psi'(Q(v) - f_m^2)
    of the gradient penalty at the running inner iterate v, with Q the
    operator's monotone (Rouy-Tourin) control term and lin its one-sided
    slopes (both are supporting planes of convex terms), solve the linear
    system that op.level_systems assembles, repeat.  The level residual
    (_level_residual), evaluated at the start and at each line-search trial
    point, also returns all that a Newton step from that point reads (lin,
    psi', the obstacle's extra diagonal and the right-hand side), with psi
    and psi' from one classification of zeta; the accepted trial's feeds the
    next Newton step.

    Stop rule: a level accepts its iterate v as soon as
    ht max|F_k(v)| <= inner_tol / nt on the interior, tested on every
    evaluated residual before any assembly or solve, so a start that
    already passes costs no solve.  Every level system is an M-matrix whose
    row margin is at least M0's, 1/ht, so by the discrete comparison
    principle the marched field lies within E = sum_k ht max|F_k(u_k)|
    <= inner_tol of the exact discrete solution of its stage, and
    gamma_step's residual |Gamma[u] - u| is at most E too: e_k = Gamma[u]_k
    - u_k solves M0 e_k = e_{k+1}/ht - F_k(u_k), so
    |e_k| <= |e_{k+1}| + ht |F_k(u_k)|.  E is returned with each stage, its
    terms summed from level nt-1 down.

    Predictor: stage i starts level k from u_{i-1,k} + (u_{i,k+1} -
    u_{i-1,k+1}), the stage before at level k moved by the increment of
    this stage over it one level up; stage 0 does the same with guess as
    the stage before, or without one starts from its own level k+1, which
    keeps steps O(ht).  So a stage needs only its own level k+1 and levels
    k and k+1 of the stage before.  The Dirichlet nodes start at g_m.

    Before each level residual the march tests whether the problem proves
    the gradient penalty idle on the candidate (_penalty_idle, one max and
    one min per row); if so, the residual skips the control term and the
    penalty, bit for bit.  The first failed test ends the testing for the
    rest of the march, so a march where the penalty binds tests once.

    The stages march as a wavefront: at wave j, stage i solves level
    k = nt-1-j+i, one level behind the stage before.  The wave's rows (one
    per stage) sit on a leading axis, so a level residual (apply_generator,
    control term, penalty branches, Newton right-hand side) is evaluated
    once for all the rows that need it, each row with its own eps and
    delta, and a Newton iteration assembles the level systems of all its
    rows in one op.level_systems call.  Each row keeps its own Newton
    iterations, stop test, MAX_INNER stall, error, level solver and
    linear solve (the per-row loop calls op.level_solver and its solve
    only), and rows that start a line search together share its trial
    steps 0.5**trial.  Each row's arithmetic is that of a march of its
    stage alone, bit for bit.

    One rule ends a stage early: when a row's source is not finite, its
    linear solve is not finite, or its level fails the stop rule after
    MAX_INNER Newton iterations, fail records that error and ends the row's
    stage and every later one (they start from it), while the earlier
    stages march on.  Since the rows of a wave are in stage order, the rows
    still iterating are then those before the failing one.  Returns the
    marches of the stages that finished, in order, and the SolverError of
    the stage after them, or None.  Each wave's wall time is split evenly
    among the stages it advanced (not those that failed in it), so the
    seconds of the returned stages sum to the march's.
    """
    clock = time.perf_counter()
    grid, op = problem.grid, problem.op
    g, h, f2 = problem.stacks
    nt, ht, n = grid.nt, grid.ht, grid.n_nodes
    level_tol = inner_tol / nt  # on ht max|F_k(v)|
    eps = np.array([[pen.eps] for pen, _ in stages])
    inv_delta = np.array([[1.0 / delta] for _, delta in stages])
    outs = []
    for _ in stages:
        out = np.empty((nt + 1, n))
        out[nt] = g[nt]
        outs.append(out)
    work = np.zeros((3, len(stages)), dtype=int)  # levels, Newton iterations, trials
    seconds = np.zeros(len(stages))
    bounds = np.zeros(len(stages))  # E of each stage
    alive, error = len(stages), None  # stages from alive on start from a failed one
    # the idle test is tried until it first fails: a march where the penalty
    # binds pays for one test, and a failed test forgoes only the shortcut
    try_idle = True
    for j in range(nt + len(stages) - 1):
        rank = np.arange(max(0, j - nt + 1), min(alive, j + 1))  # the wave's stages
        if not rank.size:
            break
        ks = nt - 1 - j + rank
        knext_ht = np.empty((rank.size, n))
        v = np.empty((rank.size, n))
        for row, (i, k) in enumerate(zip(rank.tolist(), ks.tolist())):
            knext_ht[row] = outs[i][k + 1]
            if i == 0 and guess is None:
                v[row] = outs[i][k + 1]
            else:
                before = outs[i - 1] if i else guess.values
                np.subtract(outs[i][k + 1], before[k + 1], out=v[row])
                v[row] += before[k]
        knext_ht /= ht
        wave = _Wave(g[ks], h[ks], f2[ks], knext_ht, inv_delta[rank], Penalty(eps[rank]))
        v[:, problem.boundary] = wave.g[:, problem.boundary]

        def index(rows):
            """The wave rows as an index: a view of all of them, or a gather."""
            return slice(None) if rows.size == rank.size else rows

        def level_residual(rows, cand):
            """_level_residual of cand on the wave rows, idle while the
            problem proves the gradient penalty idle on every candidate."""
            nonlocal try_idle
            at = index(rows)
            try_idle = try_idle and problem._penalty_idle(cand, ks[at])
            return _level_residual(problem, wave, at, cand, try_idle)

        def fail(active, p, message):
            """Record the error of active row p, end its stage and every later
            one, and return the active rows before p: those of the earlier
            stages, which march on."""
            nonlocal alive, error
            alive, error = int(rank[active[p]]), SolverError(message)
            return active[:p]

        active = np.arange(rank.size)  # the rows iterating, in stage order
        # merit, max|F|, lin, slope, extra_diag, rhs, finite per row
        state = level_residual(active, v)
        level_error = np.empty(rank.size)  # ht max|F_k| of the accepted iterates
        for newton in range(MAX_INNER + 1):
            level_error[active] = ht * state[1][active]
            active = active[~(level_error[active] <= level_tol)]
            if not active.size:
                break
            if newton == MAX_INNER:
                row = active[0]
                fail(active, 0, f"inner iteration stalled at time level {ks[row]} (merit {state[0][row]:.3e})")
                break
            work[1, rank[active]] += 1
            merit, _, lin, slope, extra_diag, rhs, finite = state
            at = index(active)
            v_a = v[at]
            systems = op.level_systems(slope[at], lin[at], extra_diag[at])
            # each row's solve overwrites its right-hand side with w in 1-D
            w, finite_a = rhs[at], finite[at]
            for p, row in enumerate(active.tolist()):
                if not finite_a[p]:
                    active = fail(active, p, f"non-finite source at time level {ks[row]}")
                    break
                w[p] = op.level_solver(systems, p)(w[p])
            w = w[: active.size]
            direction = w - v_a[: active.size]
            step = np.abs(direction).max(axis=1)
            # v is finite, so a non-finite step means a non-finite w, unless
            # w - v overflowed; then w is finite and the line search goes on
            for p in np.flatnonzero(~np.isfinite(step)).tolist():
                if not np.isfinite(w[p]).all():
                    active = fail(active, p, f"linear solve produced non-finite values at level {ks[active[p]]}")
                    break
            if not active.size:
                break
            # backtracking line search on the nonlinear level residual, one
            # step 0.5**trial for every row still iterating
            v_s, d_s = v_a[: active.size], direction[: active.size]
            base = merit[active]
            best = base.copy()
            left = np.arange(active.size)  # rows still searching, as positions
            for trial in range(9):
                rows = active[left]
                cand = v_s[left] + 0.5**trial * d_s[left]
                found = level_residual(rows, cand)
                work[2, rank[rows]] += 1
                better = found[0] < best[left]
                # no trial lowered the merit: take the last, smallest trial
                # to escape a kink, bounded by MAX_INNER
                take = better | ((trial == 8) & ~(best[left] < base[left]))
                if take.all() and rows.size == rank.size:
                    state, v = found, cand
                elif take.any():
                    for kept, new in zip(state, found):
                        kept[rows[take]] = new[take]
                    v[rows[take]] = cand[take]
                best[left[better]] = found[0][better]
                left = left[~(better & (found[0] <= 0.9 * base[left]))]
                if not left.size:
                    break
        done = np.flatnonzero(rank < alive)
        for row in done.tolist():
            outs[rank[row]][ks[row]] = v[row]
        work[0, rank[done]] += 1
        bounds[rank[done]] += level_error[done]
        now = time.perf_counter()
        if done.size:
            seconds[rank[done]] += (now - clock) / done.size
        clock = now
    return [
        _Marched(
            GridField(grid=grid, values=outs[i]),
            MarchCounts(*(int(c) for c in work[:, i])),
            float(seconds[i]),
            float(bounds[i]),
        )
        for i in range(alive)
    ], error


def _theta_truncated(problem: TruncatedProblem):
    """Discrete Theta_m = h_m + dt g_m + (L - r) g_m on interior nodes of the
    levels 0..nt-1 (forward time differences) of the problem's g_m and h_m
    stacks, as (K2, K0): the worst negative part of Theta_m and the largest
    forward dt g_m or dt h_m, computed block by block in the problem's
    workspace."""
    op, interior, ht = problem.op, problem.interior, problem.grid.ht
    g, h = problem.stacks[:2]
    extremes = []  # per block: max dt g_m, max dt h_m, min Theta_m
    for levels in problem.blocks(problem.grid.nt):
        ahead = slice(levels.start + 1, levels.stop + 1)
        dt_g, theta = (stack[: levels.stop - levels.start] for stack in problem.work)
        np.subtract(g[ahead], g[levels], out=dt_g)
        dt_g /= ht
        dt_h = np.subtract(h[ahead], h[levels], out=theta)
        dt_h /= ht
        block = [np.max(dt_g[:, interior]), np.max(dt_h[:, interior])]
        np.add(h[levels], dt_g, out=theta)
        theta += op.apply_generator(g[levels])
        extremes.append(block + [np.min(theta[:, interior])])
    max_dt_g, max_dt_h, min_theta = np.array(extremes).T
    k0 = max(0.0, float(np.max(max_dt_g)), float(np.max(max_dt_h)))
    worst = float(np.min(min_theta))
    return max(0.0, -worst), k0


@dataclass
class PenaltyPoint:
    """One (eps, delta, m) stage of the continuation with its solved field.

    iters counts certification attempts: marches checked by a frozen-source
    sweep (1 unless a certification failed); residual is the certified
    sweep's |Gamma[u] - u|, and E = sum_k ht max|F_k(u_k)| the certified
    march's bound on the distance of field to the stage's exact discrete
    solution, which also bounds residual (_nonlinear_march).  march counts
    the work of the stage's marches.  seconds splits the stage's wall
    time: "march" (every march), "certify" (every frozen-source sweep with
    its residual) and "report" (the nonnegativity check and the bound
    report).  Where the
    stage was marched in a wavefront with others (continuation), its
    "march" time holds an even share of each wave that advanced it, so the
    march times of the stages continuation returns sum to the measured
    wavefront.
    """

    eps: float
    delta: float
    m: float
    field: GridField
    iters: int
    residual: float
    E: float
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
    marched: _Marched | None = None,
) -> PenaltyPoint:
    """Solve one penalty point to tolerance, warm-started from u0 if given,
    with runtime bound checks.

    Marches backward once, solving each implicit level by semi-smooth Newton
    (a one-stage _nonlinear_march), and certifies convergence with the plain
    frozen-source residual |Gamma[u] - u| <= tol (same fixed point; the
    march IS Gamma restarted on its own output).  The march's stop rule
    keeps that residual below its E <= 0.1 tol, so a stage certifies at its
    first attempt up to roundoff.  A failed certification re-marches from
    the last field (the re-march's predictor) with tighter level solves, up
    to 4 attempts in all; then SolverError.  continuation passes the first
    march as marched, the stage's part of a wavefront march from u0 at the
    tolerance of a first march; it is certified, and counted and timed, as
    if it had been marched here.

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
    grid, data = problem.grid, problem.data
    tol = check_tol(tol)
    if u0 is not None and u0.grid != grid:
        raise ValueError("warm start lives on a different grid")

    counts = MarchCounts()
    seconds = dict.fromkeys(("march", "certify", "report"), 0.0)
    inner_tol = 0.1 * tol
    guess = u0
    for iters in range(1, 5):
        if marched is None:
            done, error = _nonlinear_march(problem, [(pen, delta)], inner_tol, guess=guess)
            if error is not None:
                raise error
            (marched,) = done
        u, marched_bound = marched.field, marched.bound
        counts.levels += marched.counts.levels
        counts.newton_iters += marched.counts.newton_iters
        counts.line_search_trials += marched.counts.line_search_trials
        seconds["march"] += marched.seconds
        marched = None
        start = time.perf_counter()
        residual = problem.sup_distance(gamma_step(problem, pen, delta, u).values, u.values)
        certified = time.perf_counter()
        seconds["certify"] += certified - start
        if residual <= tol:
            break
        guess = u
        inner_tol *= 0.05  # certification failed: tighten the level solves
    else:
        raise SolverError(
            f"marched solution failed certification (residual {residual:.3e} > {tol:g})"
        )

    lowest = float(np.min(u.values))
    if lowest < -10.0 * tol:
        raise SolverError(
            f"solution lost nonnegativity (min {lowest:.3e}); "
            "the payoff data may violate the standing assumptions"
        )
    report = _bound_report(problem, pen, delta, tol, u.values, lowest, k3_bound)
    seconds["report"] = time.perf_counter() - certified
    return PenaltyPoint(
        eps=pen.eps,
        delta=delta,
        m=data.m,
        field=u,
        iters=iters,
        residual=residual,
        E=marched_bound,
        bound_report=report,
        march=counts,
        seconds=seconds,
    )


def _bound_report(
    problem: TruncatedProblem,
    pen: Penalty,
    delta: float,
    tol: float,
    uv: np.ndarray,
    lowest: float,
    k3_bound: float | None,
) -> dict[str, tuple[float, float]]:
    """solve_penalized's bound report of the level stack uv, whose minimum
    is lowest.  Its passes run block by block in the problem's workspace,
    each block's maxima kept in order and reduced at the end.  Where the
    problem proves the gradient penalty idle on a block, psi is +0.0 there
    and the block's max psi is 0.0, without recomputing grad u."""
    grid = problem.grid
    g = problem.stacks[0]
    nt, columns = grid.nt, problem.interior
    growth, core = problem.report_nodes
    k2_grid, k0_grid = problem.theta_bounds
    maxima = []  # per block: obstacle, psi, growth
    for levels in problem.blocks(nt + 1):
        u = uv[levels]
        scratch = problem.work[0][: u.shape[0]]
        block = [np.max(np.subtract(g[levels], u, out=scratch))]
        psi = problem._psi(pen, u, levels)
        block.append(0.0 if psi is None else np.max(psi[:, columns]))
        block.append(np.max(np.divide(u, growth, out=scratch)))
        maxima.append(block)
    # the time-derivative bound concerns the untruncated problem; measure it
    # on the cutoff-inert core and keep the full-domain max as a diagnostic
    # (the lateral boundary layer of the truncated problem is not covered)
    dt_maxima = []  # per block: forward du/dt on the core and on the interior
    for levels in problem.blocks(nt):
        ahead = slice(levels.start + 1, levels.stop + 1)
        dt_fwd = np.subtract(uv[ahead], uv[levels], out=problem.work[0][: levels.stop - levels.start])
        dt_fwd /= grid.ht
        dt_maxima.append([0.0 if core is None else np.max(dt_fwd[:, core]), np.max(dt_fwd[:, columns])])
    max_obstacle, max_psi, max_growth = np.array(maxima).T
    max_dt_core, max_dt_full = np.array(dt_maxima).T
    obs_penalty = max(0.0, float(np.max(max_obstacle))) / delta
    obs_psi = max(0.0, float(np.max(max_psi)))
    obs_dt_core = float(np.max(max_dt_core))
    obs_dt_full = float(np.max(max_dt_full))
    obs_growth = float(np.max(max_growth))
    return {
        "negative_part": (10.0 * tol, max(0.0, -lowest)),
        "quad_growth": (obs_growth if k3_bound is None else k3_bound, obs_growth),
        "obstacle_penalty": (k2_grid + 10.0 * tol / delta, obs_penalty),
        "time_derivative": (k0_grid * (1.0 + grid.T) + k2_grid + TIME_SLACK, obs_dt_core),
        "time_derivative_full": (math.inf, obs_dt_full),
        "gradient_penalty": (math.inf, obs_psi),
    }


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


def check_tol(tol) -> float:
    """The solver tolerance as a float, checked to be finite and positive: a
    march cannot certify a residual below a tolerance that is not."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"solver tolerance {tol!r} must be finite and positive")
    return tol


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

    The stages of a radius are marched together as one wavefront
    (_nonlinear_march), each from the marched field of the stage before;
    then each is certified and reported in order by solve_penalized.  A
    stage whose certification re-marched changes the start of the next
    one, so the stages after it start a new wavefront from its certified
    field.  A march error of a stage is raised once every stage before it
    is certified.  So every stage is solved as if from the certified field
    of the stage before, bit for bit.
    """
    schedule = check_schedule(schedule)
    tol = check_tol(tol)

    points: list[PenaltyPoint] = []
    increments: list[float] = []
    prev_field: GridField | None = None
    k3_bound = None
    m0 = schedule[0][2]
    problem0 = problem = TruncatedProblem(grid_policy(m0), truncate_data(spec, m0))

    def failed(stage, exc):
        eps_k, delta_k, m_k = schedule[stage]
        return ContinuationError(f"stage (eps={eps_k:g}, delta={delta_k:g}, m={m_k:g}) failed: {exc}", points)

    first = 0  # the first stage not yet solved
    while first < len(schedule):
        m_k = schedule[first][2]
        if m_k != problem.data.m:
            problem = TruncatedProblem(grid_policy(m_k), truncate_data(spec, m_k))
        wave = [(Penalty(eps_k), delta_k) for eps_k, delta_k, m in schedule[first:] if m == m_k]
        u0 = None if prev_field is None else _interp_onto(prev_field, problem)
        done, error = _nonlinear_march(problem, wave, 0.1 * tol, guess=u0)
        for (pen, delta_k), marched in zip(wave, done):
            try:
                point = solve_penalized(
                    problem, pen, delta_k, tol=tol, u0=u0, k3_bound=k3_bound, marched=marched
                )
            except SolverError as exc:
                raise failed(first, exc) from exc
            if k3_bound is None:
                k3_bound = point.bound_report["quad_growth"][1] * (1.0 + 1e-9)
            if prev_field is not None:
                increments.append(problem.sup_distance(*point.field.restrict_common(prev_field)))
            points.append(point)
            prev_field = u0 = point.field
            first += 1
            if point.iters > 1:  # re-marched: the next stage starts anew
                break
        else:
            if error is not None:
                raise failed(first, error) from error

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
    using the solver's own stencils and control term |grad u|^2, against the
    untruncated data f, g, h.  operator, if given, must live on the field's
    grid."""
    grid = field.grid
    op = operator if operator is not None else build_operator(grid, spec)
    if op.grid != grid:
        raise ValueError("operator lives on a different grid than the field")
    if tol_region is None:
        tol_region = 10.0 * grid.hx
    interior = ~op.dirichlet
    nt = grid.nt
    g, f, h = _level_stacks(grid.times, grid.points(), spec.time_independent, spec.g, spec.f, spec.h)
    u = field.values
    grad_norm = np.sqrt(op.control_term(u)[0])

    obst = g - u
    gradc = f - grad_norm
    obst_viol = float(np.max(obst[:, interior]))
    grad_viol = float(np.max(-gradc[:, interior]))
    region_c = interior & (u > g + tol_region)
    region_i = interior & (grad_norm < f - tol_region)
    band = interior & ~region_c & ~region_i
    overlap = int(np.sum(interior & (-obst <= tol_region) & (gradc <= tol_region)))
    pde = (u[1:] - u[:-1]) / grid.ht + op.apply_generator(u[:-1]) + h[:-1]
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
