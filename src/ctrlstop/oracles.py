"""Independent oracles for acceptance testing: an obstacle solver by policy
iteration (the pure-stopping limit in which the gradient constraint never
binds), exact on each level's complementarity problem, and a desk-scale
discrete lattice game solved by backward induction in both min-max orders.

Both share the pde-solver's stencil conventions where applicable so that
field comparisons measure algorithmic agreement, not stencil mismatch, and
both read g, h and f on their time levels through model._level_stacks, which
evaluates time-independent data once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridField, build_operator
from .model import ProblemSpec, _level_stacks

__all__ = [
    "ObstacleProblem",
    "LatticeGame",
    "OracleError",
    "solve_obstacle",
    "solve_lattice_game",
    "compare_fields",
]


MAX_SWEEPS = 20000  # policy-iteration solves per level before OracleError


class OracleError(RuntimeError):
    pass


@dataclass
class ObstacleProblem:
    """Backward obstacle problem: solution >= obstacle, complementarity with
    the linear generator equation, Dirichlet data = obstacle on the boundary."""

    spec: ProblemSpec
    grid: Grid


@dataclass
class ObstacleSolution:
    field: GridField
    sweeps_per_level: list[int]
    complementarity_residual: float


def solve_obstacle(prob: ObstacleProblem, tol: float = 1e-9) -> ObstacleSolution:
    """Backward time marching with policy iteration (Howard's algorithm) per
    level on the linear complementarity problem min(M0 u - rhs, u - g) = 0.

    Each iteration solves M0 with the rows of the active set (where the
    obstacle branch attains the min) made identity rows with right-hand side
    g, then re-picks the active set; the level is solved once the set repeats,
    which happens after finitely many solves when M0 is an M-matrix
    (Bokanowski, Maroso & Zidani 2009).  `tol` guards against cycling: a level
    also stops once a solve moves u by at most tol.  MAX_SWEEPS caps the
    solves per level; sweeps_per_level counts them.  Complementarity is
    reported as the worst interior violation of min(M0 u - rhs, u - g) in
    solution units (scaled by ht).
    """
    grid, spec = prob.grid, prob.spec
    op = build_operator(grid, spec)
    n, nt = grid.n_nodes, grid.nt
    dirichlet = op.dirichlet
    interior = ~dirichlet

    M = op.implicit_matrix.tocsr()  # interior rows: I/ht - (L - r)
    if np.any(M.diagonal()[interior] <= 0):
        raise OracleError("non-positive diagonal in the implicit operator")

    g, h = _level_stacks(grid.times, grid.points(), spec.time_independent, spec.g, spec.h)
    out = np.empty((nt + 1, n))
    out[nt] = g[nt]
    sweeps_used = []
    worst_comp = 0.0
    for k in range(nt - 1, -1, -1):
        g_k = g[k]
        rhs = out[k + 1] / grid.ht + h[k]
        u = np.maximum(out[k + 1], g_k)
        u[dirichlet] = g_k[dirichlet]
        active = interior & (u <= g_k)
        for solve in range(MAX_SWEEPS):
            pinned = active | dirichlet
            u_new = op.pinned_solver(pinned)(np.where(pinned, g_k, rhs))
            lin_res = M @ u_new - rhs
            repicked = interior & (lin_res > u_new - g_k)
            settled = np.array_equal(repicked, active) or (
                solve > 0 and np.max(np.abs(u_new - u)) <= tol
            )
            u, active = u_new, repicked
            if settled:
                break
        else:
            raise OracleError(f"policy iteration hit the solve limit at level {k}")
        sweeps_used.append(solve + 1)
        out[k] = u
        # the accepted u is the last u_new, so lin_res is its M0 u - rhs
        comp = np.minimum(lin_res[interior] * grid.ht, (u - g_k)[interior])  # solution units
        worst_comp = max(worst_comp, float(np.max(np.abs(comp))))
    return ObstacleSolution(
        field=GridField(grid=grid, values=out),
        sweeps_per_level=sweeps_used[::-1],
        complementarity_residual=worst_comp,
    )


@dataclass
class LatticeGame:
    """One-dimensional controlled random walk against a stopper.

    Per step the controller shifts the state by -eta, 0 or +eta at cost
    f * eta, then the state takes a trinomial step moment-matched to
    (b, sigma, dt); the stopper either collects g now or continues.
    """

    spec: ProblemSpec
    radius: float
    eta: float
    dt: float

    def __post_init__(self):
        if self.spec.d != 1:
            raise ValueError("lattice game supports d = 1 only")
        n_states = int(round(2 * self.radius / self.eta)) + 1
        if not np.isclose((n_states - 1) * self.eta, 2 * self.radius):
            raise ValueError("radius must be a multiple of eta")
        n_times = int(round(self.spec.T / self.dt))
        if not np.isclose(n_times * self.dt, self.spec.T):
            raise ValueError("horizon must be a multiple of dt")
        self.n_states = n_states
        self.n_times = n_times
        self.states = np.linspace(-self.radius, self.radius, n_states)

    def probabilities(self):
        """Trinomial (p_down, p_stay, p_up) per state; must lie in [0, 1]."""
        x = self.states[None, :]
        b = self.spec.drift(x)[0]
        var = self.spec.a_matrix(x)[0, 0]
        p_up = 0.5 * (var * self.dt / self.eta**2 + b * self.dt / self.eta)
        p_dn = 0.5 * (var * self.dt / self.eta**2 - b * self.dt / self.eta)
        p_st = 1.0 - p_up - p_dn
        probs = np.stack([p_dn, p_st, p_up], axis=0)
        if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
            raise OracleError(
                "trinomial probabilities leave [0,1]; shrink dt or enlarge eta"
            )
        return np.clip(probs, 0.0, 1.0)


@dataclass
class LatticeSolution:
    game: LatticeGame
    value_minmax: np.ndarray  # (n_times+1, n_states)
    value_maxmin: np.ndarray

    def max_gap(self) -> float:
        return float(np.max(self.value_minmax - self.value_maxmin))

    def min_gap(self) -> float:
        return float(np.min(self.value_minmax - self.value_maxmin))


def solve_lattice_game(game: LatticeGame) -> LatticeSolution:
    """Backward induction computing both orders at every node:
    min over controller of max(stop, continue), and
    max over {stop, continue} of min over controller."""
    spec = game.spec
    xs = game.states
    n_states, n_times = game.n_states, game.n_times
    probs = game.probabilities()
    disc = float(np.exp(-spec.r * game.dt))

    # post-shift state tgt = i + shift, then a trinomial -1/0/+1 step, all
    # clamped at the edges: E[v(next)] = expect(v)[tgt] for every shift
    idx = np.arange(n_states)
    dn = np.clip(idx - 1, 0, n_states - 1)
    up = np.clip(idx + 1, 0, n_states - 1)
    shifts = (-1, 0, 1)
    targets = [np.clip(idx + shift, 0, n_states - 1) for shift in shifts]

    def expect(v):
        return probs[0] * v[dn] + probs[1] * v + probs[2] * v[up]

    # level k lies at k dt and the terminal level at T
    times = np.append(np.arange(n_times) * game.dt, spec.T)
    g, h, f = _level_stacks(times, xs[None, :], spec.time_independent, spec.g, spec.h, spec.f)
    v_mm = np.empty((n_times + 1, n_states))
    v_ms = np.empty((n_times + 1, n_states))
    v_mm[n_times] = g[n_times]
    v_ms[n_times] = g[n_times]
    for k in range(n_times - 1, -1, -1):
        g_k = g[k]
        run = h[k] * game.dt
        costs = (0.0, f[k] * game.eta)
        e_mm, e_ms = expect(v_mm[k + 1]), expect(v_ms[k + 1])
        cont_mm = [
            run + costs[abs(shift)] + disc * e_mm[tgt]
            for shift, tgt in zip(shifts, targets)
        ]
        cont_ms = [
            run + costs[abs(shift)] + disc * e_ms[tgt]
            for shift, tgt in zip(shifts, targets)
        ]
        v_mm[k] = np.minimum.reduce([np.maximum(g_k, c) for c in cont_mm])
        v_ms[k] = np.maximum(g_k, np.minimum.reduce(cont_ms))
    return LatticeSolution(game=game, value_minmax=v_mm, value_maxmin=v_ms)


def compare_fields(a: GridField, b: GridField, norm: str = "sup") -> float:
    """Discrepancy between two fields over their common nodes (b interpolated
    onto a's lattice, restricted to the smaller box)."""
    if norm not in ("sup", "L2"):
        raise ValueError("norm must be 'sup' or 'L2'")
    mine, theirs = a.restrict_common(b)
    diff = mine - theirs
    if norm == "sup":
        return float(np.max(np.abs(diff)))
    return float(np.sqrt(np.mean(diff**2)))
