"""Tensor-product space-time lattices, nodal fields and the shared
finite-difference discretization of the generator L = 0.5 tr(a D^2) + <b, grad>.

build_operator is the only place that knows the stencil (centered second
differences, centered first differences with one-sided upwinding where the
cell Peclet number |b| hx / a exceeds 1, the seven-point cross term of
Kushner & Dupuis, and -r).  At |b| hx / a <= 1 the centered off-diagonals
0.5 a / hx^2 -+ b / (2 hx) stay nonnegative (the positive-coefficient rule
of Wang & Forsyth 2008), where in 2-D a is a_ii - |a12|, the diffusion the
cross term leaves to the axis; the cross term's corners are nonnegative.
It holds the stencil as diagonals, one coefficient array per offset, and
everything derives from them: L_matrix, whose product with the fields as
columns applies L - r to one field or a level stack on every grid (the
stack comes back in Fortran order), the implicit matrix
M0 = I/ht - (L - r), the Newton level systems
M0 + diag(extra_diag) + slope Q'(v) (interior rows), assembled for a stack
of rows in one pass and solved row by row, and the obstacle oracle's pinned
systems, so the penalized solver and the oracle are free of stencil
mismatch.

The operator also owns the discrete control term Q(u) = |grad u|^2 of the
gradient penalty psi(|grad u|^2 - f^2) (Operator.control_term) and its
linearization Q'(v) in the level systems, so that the solver never forms
either.  Q is built on centered_gradient, the one nodal gradient D_i u:
along the axis of flat-index stride s, (u[j+s] - u[j-s]) / (2 hx) inside the
box, and one-sided (u[j+s] - u[j]) / hx on its low edge and
(u[j] - u[j-s]) / hx on its high edge, which is np.gradient(u, hx) bit for
bit.  The Monte Carlo feedback reads the same gradient off GridField.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .model import ProblemSpec

__all__ = ["Grid", "GridField", "Operator", "build_operator", "centered_gradient"]

PECLET_SWITCH = 1.0
# a table whose values all lie within +-BLEND_BOUND is finite, and no blend of
# four of its values with weights in [0, 1] overflows (_SamplingPlan.apply)
BLEND_BOUND = 1e307
_GTSV, _GTTRF, _GTTRS = get_lapack_funcs(("gtsv", "gttrf", "gttrs"), (np.empty(0),))


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on [0,T] x [-m, m]^d (d = 1 or 2).

    In d=2 the ball of radius m is approximated by masking the square:
    nodes with |x| > m are Dirichlet nodes carrying boundary data.
    """

    d: int
    m: float
    nx: int  # nodes per spatial axis
    nt: int  # time steps (nt+1 levels)
    T: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("grid supports d = 1 or 2")
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"grid radius m must be finite and positive, got {self.m!r}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"grid horizon T must be finite and positive, got {self.T!r}")
        if self.nx < 5 or self.nt < 1:
            raise ValueError("grid too small")

    @property
    def hx(self) -> float:
        return 2.0 * self.m / (self.nx - 1)

    @property
    def ht(self) -> float:
        return self.T / self.nt

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.m, self.m, self.nx)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nx,) * self.d

    @property
    def n_nodes(self) -> int:
        return self.nx**self.d

    def points(self) -> np.ndarray:
        """Node coordinates, shape (d, n_nodes), C-order raveled."""
        if self.d == 1:
            return self.axis[None, :]
        xx, yy = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=0)

    def dirichlet_mask(self) -> np.ndarray:
        """Boundary nodes: outside the open ball of radius m.  The box edge is
        among them, since every edge node has a coordinate of exactly +-m."""
        return np.sum(self.points() ** 2, axis=0) >= self.m**2 * (1.0 - 1e-12)

    def cfl_diagnostic(self, spec: ProblemSpec) -> float:
        """ht * (max diffusion coefficient over the nodes) / hx^2 (reported,
        not enforced)."""
        amax = float(np.max(np.abs(np.diagonal(spec.a_matrix(self.points())))))
        return self.ht * amax / self.hx**2


@dataclass
class GridField:
    """Nodal values over the full lattice: values[k] is the slice at times[k].
    values is made read-only, so the gradient table built from it on first
    use, and whether a table is bounded by BLEND_BOUND, cannot go stale."""

    grid: Grid
    values: np.ndarray  # shape (nt+1, n_nodes)
    _gradients: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _bounded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = (self.grid.nt + 1, self.grid.n_nodes)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != {expected}")
        self.values.flags.writeable = False

    def _gradient_table(self) -> np.ndarray:
        """centered_gradient of every slice, shape (nt+1, d, n_nodes), read-only."""
        if self._gradients is None:
            self._gradients = centered_gradient(self.grid, self.values)
            self._gradients.flags.writeable = False
        return self._gradients

    def nodal_gradient(self, k: int) -> np.ndarray:
        """Centered-difference spatial gradient of slice k, shape (d, *shape)."""
        return self._gradient_table()[k].reshape((self.grid.d,) + self.grid.shape)

    def sample(self, t: float, x: np.ndarray) -> np.ndarray:
        """Field value at time t and spatial points x (d, n): linear in t,
        linear/bilinear in space; queries outside the box are clamped.  x may
        also be the _SamplingPlan of the points on this grid at t, which the
        path engine builds once per step and reuses."""
        return self._plan(t, x).apply(self.values, self._is_bounded("values", self.values))

    def sample_gradient(self, t: float, x: np.ndarray) -> np.ndarray:
        """Interpolated nodal centered-difference gradient at (t, x), shape
        (d, n); x may be a _SamplingPlan as in sample."""
        table = self._gradient_table()
        return self._plan(t, x).apply(table, self._is_bounded("gradients", table))

    def _is_bounded(self, name: str, table: np.ndarray) -> bool:
        """Whether every value of the named table lies within +-BLEND_BOUND
        (no NaN, no inf), checked on first use."""
        if name not in self._bounded:
            self._bounded[name] = bool(np.max(np.abs(table)) <= BLEND_BOUND)
        return self._bounded[name]

    def _plan(self, t, x) -> "_SamplingPlan":
        if not isinstance(x, _SamplingPlan):
            return _SamplingPlan(self.grid, t, x)
        if x.grid != self.grid:
            raise ValueError("sampling plan belongs to another grid")
        return x

    def restrict_common(self, other: "GridField") -> tuple[np.ndarray, np.ndarray]:
        """Values of self and other on their common nodes (other interpolated,
        or its stored node values when both fields share the grid).  On a
        shared grid whose every node is common (always in 1-D) these are the
        two read-only value stacks themselves."""
        radius = min(self.grid.m, other.grid.m)
        pts = self.grid.points()
        keep = np.sum(pts**2, axis=0) <= radius**2 * (1.0 + 1e-12)
        if not np.any(keep):
            raise ValueError("grids have no common nodes")
        if other.grid == self.grid:
            if keep.all():
                return self.values, other.values
            return self.values[:, keep], other.values[:, keep]
        mine = []
        theirs = []
        for k, t in enumerate(self.grid.times):
            mine.append(self.values[k][keep])
            theirs.append(other.sample(float(t), pts[:, keep]))
        return np.asarray(mine), np.asarray(theirs)


def centered_gradient(grid: Grid, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Centered-difference spatial gradient of nodal values (..., n_nodes),
    shape (..., d, n_nodes): (u[j+1] - u[j-1]) / (2 hx) along each space
    axis, one-sided (u[1] - u[0]) / hx and (u[-1] - u[-2]) / hx on the box
    edge, which only Dirichlet nodes occupy.  These are np.gradient's formulas
    with the uniform spacing hx, evaluated in its order, so the result is its
    result bit for bit.  A stack of time levels is differenced in one call.
    out, a C-contiguous array of the result's shape, receives the result."""
    lead = values.shape[:-1]
    u = values.reshape(lead + grid.shape)
    if out is None:
        out = np.empty(lead + (grid.d, grid.n_nodes))
    grads = out.reshape(lead + (grid.d,) + grid.shape, copy=False)
    hx = grid.hx
    for mid, ahead, behind, edges in _difference_index(len(lead), grid.d):
        inner = grads[mid]
        np.subtract(u[ahead], u[behind], out=inner)
        inner /= 2.0 * hx
        for node, up, down in edges:
            grads[node] = (u[up] - u[down]) / hx
    return out


@functools.cache
def _difference_index(n_lead: int, d: int):
    """Index tuples of centered_gradient for values with n_lead leading axes,
    per space axis: the output's interior slab, the nodes ahead of and behind
    it, and (output node, minuend, subtrahend) of its two box edges."""
    pre = (slice(None),) * n_lead
    index = []
    for axis in range(d):

        def at(sel, component=()):
            space = [slice(None)] * d
            space[axis] = sel
            return pre + component + tuple(space)

        edges = ((at(0, (axis,)), at(1), at(0)), (at(-1, (axis,)), at(-1), at(-2)))
        index.append((at(slice(1, -1), (axis,)), at(slice(2, None)), at(slice(None, -2)), edges))
    return tuple(index)


class _SamplingPlan:
    """Where (t, x) falls on the lattice, computed once and applied to any
    nodal table: the time levels k, k+1 with weight w on k+1, and the corner
    nodes of each point's cell with their (bi)linear weights.  Points outside
    the box are clamped onto it."""

    def __init__(self, grid: Grid, t: float, x: np.ndarray):
        self.grid = grid
        pos = min(max(float(t), 0.0), grid.T) / grid.ht
        self.k = min(math.floor(pos), grid.nt - 1)
        self.w = pos - self.k
        # (x + m) / hx is (x - axis[0]) / hx bit for bit: linspace starts at -m
        pos = np.clip((np.asarray(x, dtype=float) + grid.m) / grid.hx, 0.0, grid.nx - 1 - 1e-12)
        i0 = pos.astype(int)
        frac = pos - i0
        if grid.d == 1:
            self.corners, self.weights = (i0[0], i0[0] + 1), (1 - frac[0], frac[0])
        else:
            (fx, fy), c00 = frac, i0[0] * grid.nx + i0[1]
            self.corners = (c00, c00 + grid.nx, c00 + 1, c00 + grid.nx + 1)
            self.weights = ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)

    def subset(self, mask: np.ndarray) -> "_SamplingPlan":
        """The plan of the points in the boolean mask: each point's cell and
        weights are its own, so they are taken, not recomputed."""
        plan = copy.copy(self)
        plan.corners = tuple(c[mask] for c in self.corners)
        plan.weights = tuple(wc[mask] for wc in self.weights)
        return plan

    def apply(self, table: np.ndarray, bounded: bool = False) -> np.ndarray:
        """Interpolate table (nt+1, ..., n_nodes) at the plan's points: the
        blend (1 - w) near + w far of the levels k and k+1.

        At a time on a level (w = 0 or 1) the blend adds 0.0 times one level
        to the other level's value, which changes that value only where it
        is +-0, unless the product is NaN.  So for a bounded table (every
        value within +-BLEND_BOUND, which the caller knows) only the level
        weighted 1 is interpolated, and the other one only where the result
        is +-0, with the blend's rounding bit for bit."""
        if bounded and self.w in (0.0, 1.0):
            near, far = (self.k, self.k + 1) if self.w == 0.0 else (self.k + 1, self.k)
            out = self._space(table[near])
            zero = out == 0.0
            if zero.any():
                out[zero] += 0.0 * self._space(table[far])[zero]
            return out
        both = self._space(table[self.k : self.k + 2])
        return (1.0 - self.w) * both[0] + self.w * both[1]

    def _space(self, table: np.ndarray) -> np.ndarray:
        """(Bi)linear interpolation of table (..., n_nodes) at the plan's
        points, shape (..., n_points)."""
        out = self.weights[0] * np.take(table, self.corners[0], axis=-1)
        for c, wc in zip(self.corners[1:], self.weights[1:]):
            out += wc * np.take(table, c, axis=-1)
        return out


def _strides(grid: Grid) -> tuple[int, ...]:
    """Flat-index step between neighbouring nodes along each axis (C order)."""
    return (grid.nx, 1)[-grid.d :]


@dataclass
class Operator:
    """Discrete generator on a grid for a given problem spec, held as the
    diagonals of M0 = I/ht - (L - r) (interior rows; Dirichlet rows are
    identity rows).  A diagonal is the coefficient array of one stencil
    offset o (0, -+s per axis stride s, and the four cross-term corners in
    2-D) in the layout of scipy.sparse.diags: element j belongs to row
    j - min(o, 0).

    L_matrix is (L - r) on interior rows (Dirichlet rows are zero) and
    implicit_matrix is M0, both sp.diags of the same diagonals;
    apply_generator is the product with L_matrix on every grid, a stack of
    fields returned in Fortran order.  M0 is factored once, when the
    operator is built (LAPACK gttrf in 1-D, SuperLU in 2-D), and
    implicit_solve applies that factorization (gttrs in 1-D, the same
    elimination arithmetic as gtsv).
    The other solve paths edit copies of M0's diagonals and hand them to
    _system.  The Newton level systems

        M0 + I_int (diag(extra_diag) + diag(slope) Q'(v))

    where Q'(v) w = 2 sum_i (D_i v)(D_i w) is the derivative of the control
    term Q = control_term at v, D_i is the centered first difference along
    axis i and I_int keeps interior rows only, are assembled for a whole
    stack of rows at once (level_systems) and solved one row at a time
    (level_solver); pinned_solver solves M0 with chosen rows made identity
    rows.  Their 1-D solvers are single-use: gtsv overwrites the bands they
    were built with (never M0's own) and the right-hand side.
    """

    grid: Grid
    spec: ProblemSpec
    L_matrix: sp.csr_matrix
    dirichlet: np.ndarray
    implicit_matrix: sp.csc_matrix = field(repr=False)
    _diagonals: dict[int, np.ndarray] = field(repr=False)  # M0's, by offset

    def __post_init__(self):
        n = self.grid.n_nodes
        self._boundary = np.flatnonzero(self.dirichlet)
        self._minus_hx = -self.grid.hx
        self._strides = _strides(self.grid)
        self._rows = {o: slice(max(-o, 0), n - max(o, 0)) for o in self._diagonals}
        # M0's factors: gttrf's (dl, d, du, du2, ipiv, info) in 1-D, SuperLU in 2-D
        if self.grid.d == 1:
            self._lu = _GTTRF(self._diagonals[-1], self._diagonals[0], self._diagonals[1])
        else:
            self._lu = sp.linalg.splu(self.implicit_matrix)

    def _system(self, diagonals, row=...):
        """Solver for the system with the diagonals diagonals[o][row] (row
        picks one system of stacked diagonals; by default the diagonals are
        one system's), none of which may be M0's own: LAPACK gtsv on the
        three bands in 1-D (the routine solve_banded((1, 1), ...) calls,
        without its input checks; callers check the solution for non-finite
        values), a SuperLU factorization in 2-D.  In 1-D gtsv overwrites the
        bands and the right-hand side, which then holds the solution, so
        nothing is copied and the solver is single-use."""
        if self.grid.d == 1:
            lower, diag, upper = diagonals[-1][row], diagonals[0][row], diagonals[1][row]

            def solve(rhs):
                # positional flags: overwrite_dl, overwrite_d, overwrite_du, overwrite_b
                *_, x, info = _GTSV(lower, diag, upper, rhs, True, True, True, True)
                if info != 0:
                    raise np.linalg.LinAlgError(f"tridiagonal system: gtsv info {info}")
                return x

            return solve
        M = sp.diags([v[row] for v in diagonals.values()], list(diagonals), format="csc")
        return sp.linalg.splu(M).solve

    def implicit_solve(self, rhs: np.ndarray) -> np.ndarray:
        """M0^{-1} rhs from the factorization of M0 kept since construction."""
        if self.grid.d == 2:
            return self._lu.solve(rhs)
        *factors, info = self._lu
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal system: gttrf info {info}")
        return _GTTRS(*factors, rhs)[0]

    def pinned_solver(self, rows: np.ndarray):
        """Solver for M0 with the rows in the boolean mask `rows` replaced by
        identity rows (the policy systems of the obstacle oracle), for one
        call: in 1-D its solve overwrites the right-hand side it is given."""
        # a pinned row keeps 1 on the main diagonal (o == 0) and 0 elsewhere
        return self._system(
            {o: np.where(rows[self._rows[o]], float(o == 0), v) for o, v in self._diagonals.items()}
        )

    def apply_generator(self, flat_values: np.ndarray) -> np.ndarray:
        """(L - r) u on interior nodes (exact zeros on Dirichlet rows, whatever
        u holds there), for nodal values u of shape (..., n_nodes), one field
        or a stack of them on leading axes, as control_term takes them.

        L_matrix applies it to the fields as columns, on every grid.  Its
        rows hold only nonzero coefficients (none on Dirichlet rows, no zero
        cross-term corner in 2-D), so a value on a Dirichlet node, even inf
        or NaN, reaches only the rows that read it.  A stack comes back in
        Fortran order, the transpose of the product's C-order columns."""
        u = flat_values
        return (self.L_matrix @ u.reshape(-1, u.shape[-1]).T).T.reshape(u.shape)

    def control_term(
        self, values: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(Q, lin) of nodal values (..., n_nodes), one level or a stack:
        Q = |grad u|^2 of the gradient penalty, shape (..., n_nodes), and lin,
        what level_systems' linearization Q'(v) reads at v = values, here the
        centered gradient (..., d, n_nodes) that Q squares.  out, a pair of
        arrays of those shapes (lin's C-contiguous), receives (Q, lin)."""
        Q, lin = (None, None) if out is None else out
        lin = centered_gradient(self.grid, values, out=lin)
        # squared axis by axis, so that a level stack makes no temporary of
        # lin's size; the sum of d squares rounds as np.sum's
        Q = np.square(lin[..., 0, :], out=Q)
        for axis in range(1, self.grid.d):
            Q += np.square(lin[..., axis, :])
        return Q, lin

    def level_systems(
        self, slope: np.ndarray, lin: np.ndarray, extra_diag: np.ndarray
    ) -> dict[int, np.ndarray]:
        """The systems M0 + diag(extra_diag) + diag(slope) Q'(v) with Dirichlet
        rows identity, one per row of the stacks slope and extra_diag
        (rows, n_nodes) and lin (rows, d, n_nodes), where lin is
        control_term(v)[1]: the Newton systems of level residuals that hold
        psi(Q(v) - f^2), at slope = psi'.  They are laid out as M0's
        diagonals, one (rows, length) stack per offset, for level_solver.

        Q'(v) w = 2 sum_i lin_i D_i w with the same centered differences as
        Q, so the linear model is the exact derivative of the residual:
        slope lin_i / hx joins the +s diagonal and leaves the -s one; a row
        whose slope is zero everywhere (an idle gradient penalty) keeps M0's
        off-diagonals bit for bit.  Both terms are added on every row, then
        the Dirichlet rows are put back: 1 on the main diagonal and nothing
        off it, so they stay exact identity rows.
        """
        systems = {}
        for o, v in self._diagonals.items():
            systems[o] = np.empty((len(slope), v.size))
            systems[o][...] = v
        diag = systems[0]
        diag += extra_diag
        diag[:, self._boundary] = 1.0
        moving = slope.any(axis=1)
        if moving.any():
            at = slice(None) if moving.all() else moving
            for axis, s in enumerate(self._strides):
                # -slope lin_i / hx; dividing by -hx rounds as
                # -(2 slope lin_i) / (2 hx) does, signed zeros included
                half = lin[at, axis] * slope[at]
                half /= self._minus_hx
                half[:, self._boundary] = 0.0
                systems[s][at] -= half[:, :-s]
                systems[-s][at] += half[:, s:]
        return systems

    def level_solver(self, systems: dict[int, np.ndarray], row: int):
        """Solver for row `row` of systems = level_systems(...), for one call:
        in 1-D gtsv overwrites that row of the band stacks and the
        right-hand side it is given, both built for one Newton iteration."""
        return self._system(systems, row)


def build_operator(grid: Grid, spec: ProblemSpec) -> Operator:
    """Compute the diagonals of L - r, and from them L_matrix, M0 and its
    solver."""
    if spec.d != grid.d:
        raise ValueError("spec and grid dimension mismatch")
    n = grid.n_nodes
    pts = grid.points()
    dirichlet = grid.dirichlet_mask()
    interior = ~dirichlet
    hx = grid.hx

    bvals = spec.drift(pts)  # (d, n)
    avals = spec.a_matrix(pts)  # (d, d, n)

    # stencil[o][i]: the coefficient of u[i + o] in row i, before the Dirichlet
    # rows are zeroed.  Each sum adds diffusion, convection, upwinding and -r
    # in that order, the rounding the pinned 1-D results carry.  In 2-D the
    # cross term takes |a12| of each axis diffusion (below), so the axes
    # diffuse with, and switch their convection on, a_ii - |a12|; at
    # a12 = 0 this subtracts +0.0, which changes nothing.
    abs_a12 = np.abs(avals[0, 1]) if grid.d == 2 else 0.0
    stencil: dict[int, np.ndarray] = {0: np.zeros(n)}
    for axis, s in enumerate(_strides(grid)):
        a_ii, b_ax = avals[axis, axis] - abs_a12, bvals[axis]
        # diffusion: 0.5 * a_ii * (u_+ - 2u + u_-)/hx^2
        coef = 0.5 * a_ii / hx**2
        # convection: centered unless the cell Peclet number exceeds the switch
        with np.errstate(divide="ignore", invalid="ignore"):
            peclet = np.where(a_ii > 0, np.abs(b_ax) * hx / a_ii, np.inf)
        centered = peclet <= PECLET_SWITCH
        c_half = np.where(centered, b_ax / (2.0 * hx), 0.0)
        # b>0: forward difference, b<0: backward difference (M-matrix signs)
        forward = np.where(~centered & (b_ax > 0), b_ax / hx, 0.0)
        backward = np.where(~centered & (b_ax < 0), -b_ax / hx, 0.0)
        stencil[s] = coef + c_half + forward
        stencil[-s] = coef - c_half + backward
        stencil[0] = stencil[0] - 2.0 * coef - forward - backward
    if grid.d == 2:
        # cross term a12 * u_xy by the seven-point stencil of Kushner & Dupuis
        # (2001, ch. 5): |a12| / (2 hx^2) on the two corners along the sign
        # of a12, (+1, +1) and (-1, -1) for a12 > 0, (+1, -1) and (-1, +1)
        # for a12 < 0, and twice that off the centre; with the |a12| taken
        # from the axes above it is second-order consistent, and every
        # off-diagonal is nonnegative where a_ii >= |a12| (and the cell
        # Peclet number of a_ii - |a12| stays under the switch)
        half = avals[0, 1] / (2.0 * hx**2)
        along = np.maximum(half, 0.0)
        across = -np.minimum(half, 0.0)
        for sx, sy in ((+1, +1), (-1, -1), (+1, -1), (-1, +1)):
            stencil[sx * grid.nx + sy] = along if sx == sy else across
        stencil[0] = stencil[0] - 2.0 * np.abs(half)
    # zero-order term -r
    stencil[0] = stencil[0] - spec.r

    L = {o: np.where(interior, v, 0.0)[max(-o, 0) : n - max(o, 0)] for o, v in stencil.items()}
    M0 = {o: -v for o, v in L.items()}
    M0[0] = np.where(interior, 1.0 / grid.ht, 1.0) - L[0]
    return Operator(
        grid=grid,
        spec=spec,
        L_matrix=sp.diags(list(L.values()), list(L), format="csr"),
        dirichlet=dirichlet,
        implicit_matrix=sp.diags(list(M0.values()), list(M0), format="csc"),
        _diagonals=M0,
    )
