"""Independent brute-force oracles for acceptance testing: a projected
successive-relaxation obstacle solver (the pure-stopping limit in which the
gradient constraint never binds) and a desk-scale discrete lattice game
solved by backward induction in both min-max orders.

Both share the pde-solver's stencil conventions where applicable so that
field comparisons measure algorithmic agreement, not stencil mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridField, build_operator
from .model import ProblemSpec

__all__ = [
    "ObstacleProblem",
    "LatticeGame",
    "OracleError",
    "solve_obstacle",
    "solve_lattice_game",
    "compare_fields",
]


RELAX = 1.5  # over-relaxation factor of the projected SOR sweeps


class OracleError(RuntimeError):
    pass


@dataclass
class ObstacleProblem:
    """Backward obstacle problem: solution >= obstacle, complementarity with
    the linear generator equation, Dirichlet data = obstacle on the boundary."""

    spec: ProblemSpec
    grid: Grid

    def obstacle(self, t, pts):
        return self.spec.g(t, pts)

    def source(self, t, pts):
        return self.spec.h(t, pts)


@dataclass
class ObstacleSolution:
    field: GridField
    sweeps_per_level: list[int]
    complementarity_residual: float


def solve_obstacle(
    prob: ObstacleProblem,
    tol: float = 1e-9,
    max_sweeps: int = 20000,
) -> ObstacleSolution:
    """Backward time marching with projected SOR per level on
    max(linear residual, obstacle - u) = 0.

    Sweeps are red-black colored so the per-level relaxation vectorizes;
    for the 3/5-point stencils this is an exact Gauss-Seidel ordering.
    Complementarity is reported as the worst interior violation of
    min(M u - rhs, u - obstacle) in solution units (scaled by ht).
    """
    grid, spec = prob.grid, prob.spec
    op = build_operator(grid, spec)
    pts = grid.points()
    n, nt = grid.n_nodes, grid.nt
    dirichlet = op.dirichlet
    interior = ~dirichlet

    M = op.implicit_matrix.tocsr()  # interior rows: I/ht - (L - r)
    M_diag = M.diagonal()
    if np.any(M_diag[interior] <= 0):
        raise OracleError("non-positive diagonal in the implicit operator")

    if grid.d == 1:
        parity = np.arange(n) % 2
    else:
        ii, jj = np.divmod(np.arange(n), grid.nx)
        parity = (ii + jj) % 2
    colors = [interior & (parity == 0), interior & (parity == 1)]

    out = np.empty((nt + 1, n))
    out[nt] = prob.obstacle(float(grid.T), pts)
    sweeps_used = []
    worst_comp = 0.0
    for k in range(nt - 1, -1, -1):
        t = float(grid.times[k])
        g_k = prob.obstacle(t, pts)
        rhs = out[k + 1] / grid.ht + prob.source(t, pts)
        u = np.maximum(out[k + 1], g_k)
        u[dirichlet] = g_k[dirichlet]
        n_sweeps = 0
        for sweep in range(max_sweeps):
            n_sweeps = sweep + 1
            max_change = 0.0
            for mask in colors:
                acc = rhs - M @ u + M_diag * u
                cand = (1 - RELAX) * u + RELAX * acc / M_diag
                new = np.maximum(g_k, cand)
                change = np.abs(new[mask] - u[mask])
                if change.size:
                    max_change = max(max_change, float(np.max(change)))
                u[mask] = new[mask]
            if max_change <= tol:
                break
        else:
            raise OracleError(f"projected relaxation hit sweep limit at level {k}")
        sweeps_used.append(n_sweeps)
        out[k] = u
        lin_res = (M @ u - rhs)[interior] * grid.ht  # solution units
        comp = np.minimum(lin_res, (u - g_k)[interior])
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

    def expected(v, shift):
        """E[v(next)] after a controller shift of `shift` lattice cells."""
        # post-shift state index i+shift, then trinomial +-1/0; clamp at edges
        idx = np.arange(n_states)
        tgt = np.clip(idx + shift, 0, n_states - 1)
        p_dn, p_st, p_up = probs[0, tgt], probs[1, tgt], probs[2, tgt]
        v_dn = v[np.clip(tgt - 1, 0, n_states - 1)]
        v_st = v[tgt]
        v_up = v[np.clip(tgt + 1, 0, n_states - 1)]
        return p_dn * v_dn + p_st * v_st + p_up * v_up

    x_arr = xs[None, :]
    v_mm = np.empty((n_times + 1, n_states))
    v_ms = np.empty((n_times + 1, n_states))
    g_T = spec.g(spec.T, x_arr)
    v_mm[n_times] = g_T
    v_ms[n_times] = g_T
    for k in range(n_times - 1, -1, -1):
        t = k * game.dt
        g_k = spec.g(t, x_arr)
        h_k = spec.h(t, x_arr)
        f_k = spec.f(t, x_arr)
        run = h_k * game.dt
        costs = (0.0, f_k * game.eta)
        cont_mm = [
            run + costs[abs(shift)] + disc * expected(v_mm[k + 1], shift)
            for shift in (-1, 0, 1)
        ]
        cont_ms = [
            run + costs[abs(shift)] + disc * expected(v_ms[k + 1], shift)
            for shift in (-1, 0, 1)
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
