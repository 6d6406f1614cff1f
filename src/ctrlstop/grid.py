"""Tensor-product space-time lattices, nodal fields and the shared
finite-difference discretization of the generator L = 0.5 tr(a D^2) + <b, grad>.

build_operator is the only place that knows the stencil (centered second
differences, centered first differences with one-sided upwinding where the
cell Peclet number |b| hx / a exceeds 1, the centered cross term, and -r).
At |b| hx / a <= 1 the centered off-diagonals 0.5 a / hx^2 -+ b / (2 hx)
stay nonnegative (the positive-coefficient rule of Wang & Forsyth 2008).
The implicit matrix M0 = I/ht - (L - r), the Newton level systems
M0 + diag(extra_diag) - sum_i diag(extra_drift_i) D_i (interior rows) and
the obstacle oracle all derive from its L_matrix, so the penalized solver
and the oracle are free of stencil mismatch.  centered_gradient is the one
nodal gradient D_i u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .model import ProblemSpec

__all__ = ["Grid", "GridField", "Operator", "build_operator", "centered_gradient"]

PECLET_SWITCH = 1.0


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
        """Boundary nodes: outside the open ball of radius m, or the box edge."""
        pts = self.points()
        mask = np.sum(pts**2, axis=0) >= self.m**2 * (1.0 - 1e-12)
        if self.d == 1:
            mask[0] = mask[-1] = True
        else:
            idx = np.arange(self.n_nodes).reshape(self.shape)
            mask = mask.copy()
            mask[idx[0, :].ravel()] = True
            mask[idx[-1, :].ravel()] = True
            mask[idx[:, 0].ravel()] = True
            mask[idx[:, -1].ravel()] = True
        return mask

    def cfl_diagnostic(self, spec: ProblemSpec) -> float:
        """ht * (max diffusion coefficient over the nodes) / hx^2 (reported,
        not enforced)."""
        amax = float(np.max(np.abs(np.diagonal(spec.a_matrix(self.points())))))
        return self.ht * amax / self.hx**2


@dataclass
class GridField:
    """Nodal values over the full lattice: values[k] is the slice at times[k].
    values is made read-only, so the gradient table built from it on first
    use cannot go stale."""

    grid: Grid
    values: np.ndarray  # shape (nt+1, n_nodes)
    _gradients: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    def gradient_norm(self, k: int) -> np.ndarray:
        return np.sqrt(np.sum(self._gradient_table()[k] ** 2, axis=0))

    def sample(self, t: float, x: np.ndarray) -> np.ndarray:
        """Field value at time t and spatial points x (d, n): linear in t,
        linear/bilinear in space; queries outside the box are clamped."""
        return _SamplingPlan(self.grid, t, x).apply(self.values)

    def sample_gradient(self, t: float, x: np.ndarray) -> np.ndarray:
        """Interpolated nodal centered-difference gradient at (t, x), shape (d, n)."""
        return _SamplingPlan(self.grid, t, x).apply(self._gradient_table())

    def restrict_common(self, other: "GridField") -> tuple[np.ndarray, np.ndarray]:
        """Values of self and other on their common nodes (other interpolated,
        or its stored node values when both fields share the grid)."""
        radius = min(self.grid.m, other.grid.m)
        pts = self.grid.points()
        keep = np.sum(pts**2, axis=0) <= radius**2 * (1.0 + 1e-12)
        if not np.any(keep):
            raise ValueError("grids have no common nodes")
        if other.grid == self.grid:
            return self.values[:, keep], other.values[:, keep]
        mine = []
        theirs = []
        for k, t in enumerate(self.grid.times):
            mine.append(self.values[k][keep])
            theirs.append(other.sample(float(t), pts[:, keep]))
        return np.asarray(mine), np.asarray(theirs)


def centered_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Centered-difference spatial gradient of nodal values (..., n_nodes),
    shape (..., d, n_nodes): np.gradient with the uniform spacing hx over the
    space axes, one-sided on the box edge, which only Dirichlet nodes occupy.
    A stack of time levels is differenced in one call."""
    lead = values.shape[:-1]
    grads = np.gradient(values.reshape(lead + grid.shape), grid.hx, axis=tuple(range(-grid.d, 0)))
    if grid.d == 1:
        grads = (grads,)
    return np.stack(grads, axis=-grid.d - 1).reshape(lead + (grid.d, grid.n_nodes))


class _SamplingPlan:
    """Where (t, x) falls on the lattice, computed once and applied to any
    nodal table: the time levels k, k+1 with weight w on k+1, and the corner
    nodes of each point's cell with their (bi)linear weights.  Points outside
    the box are clamped onto it."""

    def __init__(self, grid: Grid, t: float, x: np.ndarray):
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

    def apply(self, table: np.ndarray) -> np.ndarray:
        """Interpolate table (nt+1, ..., n_nodes) at the plan's points."""
        pair = table[self.k : self.k + 2]
        both = self.weights[0] * np.take(pair, self.corners[0], axis=-1)
        for c, wc in zip(self.corners[1:], self.weights[1:]):
            both += wc * np.take(pair, c, axis=-1)
        return (1.0 - self.w) * both[0] + self.w * both[1]


@dataclass
class Operator:
    """Discrete generator on a grid for a given problem spec.

    L_matrix applies (L - r) on interior rows (Dirichlet rows are zero).
    implicit_matrix is M0 = I/ht - (L - r) on interior rows and the identity
    on Dirichlet rows; implicit_solve solves M0 w = rhs, in 1-D with LAPACK
    gtsv on M0's bands and in 2-D with a cached SuperLU factorization.
    level_solver derives the Newton level systems

        M0 + I_int (diag(extra_diag) - sum_i diag(extra_drift_i) D_i)

    from M0, where D_i is the centered first difference along axis i and
    I_int keeps interior rows only.  pinned_solver solves M0 with chosen rows
    made identity rows.
    """

    grid: Grid
    spec: ProblemSpec
    L_matrix: sp.csr_matrix
    dirichlet: np.ndarray
    implicit_matrix: sp.csc_matrix = field(repr=False)

    def __post_init__(self):
        if self.grid.d == 1:
            M0 = self.implicit_matrix
            self._bands = (M0.diagonal(-1), M0.diagonal(), M0.diagonal(1))
            (self._gtsv,) = get_lapack_funcs(("gtsv",), (self._bands[1],))
            self._solver = self._tridiagonal(*self._bands)
        else:
            self._solver = sp.linalg.splu(self.implicit_matrix).solve
            nx, hx = self.grid.nx, self.grid.hx
            d1 = sp.diags([-0.5 / hx, 0.5 / hx], [-1, 1], shape=(nx, nx))
            eye = sp.identity(nx)
            rows = sp.diags((~self.dirichlet).astype(float))
            self._centered = [rows @ sp.kron(d1, eye), rows @ sp.kron(eye, d1)]

    def implicit_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._solver(rhs)

    def _tridiagonal(self, lower, diag, upper):
        """Solver for the tridiagonal system with these bands, by LAPACK gtsv
        (the routine solve_banded((1, 1), ...) calls, without its input
        checks; callers check the solution for non-finite values)."""

        def solve(rhs):
            *_, x, info = self._gtsv(lower, diag, upper, rhs)
            if info != 0:
                raise np.linalg.LinAlgError(f"tridiagonal system: gtsv info {info}")
            return x

        return solve

    def pinned_solver(self, rows: np.ndarray):
        """Solver for M0 with the rows in the boolean mask `rows` replaced by
        identity rows (the policy systems of the obstacle oracle).

        d=1 zeroes those rows of M0's cached bands and solves with LAPACK
        gtsv (_tridiagonal); d=2 forms the sparse system and factorizes it.
        """
        if self.grid.d == 1:
            lower, diag, upper = self._bands
            return self._tridiagonal(
                np.where(rows[1:], 0.0, lower),
                np.where(rows, 1.0, diag),
                np.where(rows[:-1], 0.0, upper),
            )
        keep = sp.diags((~rows).astype(float))
        M = keep @ self.implicit_matrix + sp.diags(rows.astype(float))
        return sp.linalg.splu(sp.csc_matrix(M)).solve

    def apply_generator(self, flat_values: np.ndarray) -> np.ndarray:
        """(L - r) u on interior nodes (zeros on Dirichlet rows), for u of
        shape (n_nodes,) or (n_nodes, k) (k fields at once)."""
        return self.L_matrix @ flat_values

    def level_solver(self, extra_drift: np.ndarray | None, extra_diag: np.ndarray | None):
        """Solver for (I/ht - (L - r) - <extra_drift, grad .> + diag(extra_diag))
        with Dirichlet rows identity.

        The base generator keeps its static stencil; the extra drift (the
        penalty linearization) is discretized with CENTERED differences so
        the linear model is the exact Gateaux derivative of the frozen-source
        residual, whose gradients are also centered.

        d=1 adds the extra terms to the cached bands of M0 and solves with
        LAPACK gtsv (_tridiagonal); d=2 forms the sparse system and
        factorizes it per call.
        """
        interior = ~self.dirichlet
        diag_extra = None if extra_diag is None else np.where(interior, extra_diag, 0.0)

        if self.grid.d == 1:
            lower, diag, upper = self._bands
            if diag_extra is not None:
                diag = diag + diag_extra
            if extra_drift is not None:
                half = np.where(interior, extra_drift[0] / (2.0 * self.grid.hx), 0.0)
                upper = upper - half[:-1]
                lower = lower + half[1:]
            return self._tridiagonal(lower, diag, upper)

        M = self.implicit_matrix
        if diag_extra is not None:
            M = M + sp.diags(diag_extra)
        if extra_drift is not None:
            for e_ax, D in zip(extra_drift, self._centered):
                M = M - sp.diags(e_ax) @ D
        return sp.linalg.splu(sp.csc_matrix(M)).solve


def build_operator(grid: Grid, spec: ProblemSpec) -> Operator:
    """Assemble the stencil matrix for L - r and factorize the implicit system."""
    if spec.d != grid.d:
        raise ValueError("spec and grid dimension mismatch")
    n = grid.n_nodes
    pts = grid.points()
    dirichlet = grid.dirichlet_mask()
    hx = grid.hx

    bvals = spec.drift(pts)  # (d, n)
    avals = spec.a_matrix(pts)  # (d, d, n)

    rows, cols, vals = [], [], []
    interior = ~dirichlet
    idx_all = np.arange(n)

    def neighbor(idx, axis, step):
        if grid.d == 1:
            return idx + step
        stride = grid.nx if axis == 0 else 1
        return idx + step * stride

    interior_idx = idx_all[interior]
    for axis in range(grid.d):
        a_diag = avals[axis, axis][interior]
        b_ax = bvals[axis][interior]
        ip = neighbor(interior_idx, axis, +1)
        im = neighbor(interior_idx, axis, -1)
        # diffusion: 0.5 * a_ii * (u_+ - 2u + u_-)/hx^2
        coef = 0.5 * a_diag / hx**2
        rows.extend([interior_idx, interior_idx, interior_idx])
        cols.extend([ip, im, interior_idx])
        vals.extend([coef, coef, -2.0 * coef])
        # convection: centered unless the cell Peclet number exceeds the switch
        with np.errstate(divide="ignore", invalid="ignore"):
            peclet = np.where(a_diag > 0, np.abs(b_ax) * hx / a_diag, np.inf)
        centered = peclet <= PECLET_SWITCH
        c_half = np.where(centered, b_ax / (2.0 * hx), 0.0)
        rows.extend([interior_idx, interior_idx])
        cols.extend([ip, im])
        vals.extend([c_half, -c_half])
        up = ~centered
        if np.any(up):
            pos = up & (b_ax > 0)
            neg = up & (b_ax < 0)
            # b>0: forward difference, b<0: backward difference (M-matrix signs)
            rows.extend([interior_idx[pos], interior_idx[pos]])
            cols.extend([ip[pos], interior_idx[pos]])
            vals.extend([b_ax[pos] / hx, -b_ax[pos] / hx])
            rows.extend([interior_idx[neg], interior_idx[neg]])
            cols.extend([im[neg], interior_idx[neg]])
            vals.extend([-b_ax[neg] / hx, b_ax[neg] / hx])
    if grid.d == 2:
        # cross term a12 * u_xy with the centered 4-corner stencil
        a12 = avals[0, 1][interior]
        if np.any(a12 != 0.0):
            for sx, sy, sign in ((+1, +1, +1), (-1, -1, +1), (+1, -1, -1), (-1, +1, -1)):
                nb = neighbor(neighbor(interior_idx, 0, sx), 1, sy)
                rows.append(interior_idx)
                cols.append(nb)
                vals.append(sign * a12 / (4.0 * hx**2))
    # zero-order term -r on interior rows
    rows.append(interior_idx)
    cols.append(interior_idx)
    vals.append(np.full(interior_idx.shape, -spec.r))

    rows = np.concatenate([np.atleast_1d(r) for r in rows])
    cols = np.concatenate([np.atleast_1d(c) for c in cols])
    vals = np.concatenate([np.atleast_1d(v) for v in vals])
    L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    M0 = sp.diags(np.where(interior, 1.0 / grid.ht, 1.0)) - L
    return Operator(
        grid=grid,
        spec=spec,
        L_matrix=L,
        dirichlet=dirichlet,
        implicit_matrix=sp.csc_matrix(M0),
    )
