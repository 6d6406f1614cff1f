import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from ctrlstop.benches import load_bench
from ctrlstop.grid import PECLET_SWITCH, Grid, GridField, build_operator, centered_gradient
from ctrlstop.model import parse_config_text

# strong drift (cell Peclet number above the switch on part of the grid) and
# correlated noise (a12 = 0.27), so every stencil branch enters the system
SKEWED_2D = """
dim = 2
horizon = 0.2
rate = 0.1
drift[1] = -3 * x1 + x2
drift[2] = -4 * x2
sigma[1][1] = 0.6
sigma[1][2] = 0.3
sigma[2][1] = 0.2
sigma[2][2] = 0.5
f = 1.5
g = 0.5 * max(0, 1 - (x1^2 + x2^2) / 4)^3
h = 0
"""


def _operator(case):
    if case == "bench_ou":
        bench = load_bench("bench_ou", coarse=True)
        op = build_operator(bench.grid, bench.spec)
    else:
        spec, _, _ = parse_config_text(SKEWED_2D)
        grid = Grid(d=2, m=3.0, nx=31, nt=30, T=0.2)
        op = build_operator(grid, spec)
        # interior cell Peclet numbers |b_i| hx / a_ii on both sides of the
        # switch, so both the centered and the upwind branch are exercised
        pts = grid.points()[:, ~op.dirichlet]
        a_diag = np.diagonal(spec.a_matrix(pts)).T
        peclet = np.abs(spec.drift(pts)) * grid.hx / a_diag
        assert np.any(peclet <= PECLET_SWITCH) and np.any(peclet > PECLET_SWITCH)
        assert spec.a_matrix(np.zeros(2))[0, 1] != 0.0
    return op


def _level_solve(op, slope, lin, extra_diag, rhs):
    """Solution of one level system, assembled by level_systems as a stack
    of one row and solved by its level_solver, which may overwrite the
    right-hand side it is given (a copy of rhs)."""
    systems = op.level_systems(slope[None], lin[None], extra_diag[None])
    return op.level_solver(systems, 0)(rhs.copy())


@pytest.mark.parametrize("case", ["bench_ou", "skewed_2d"])
def test_level_system_is_the_generator_stencil(case):
    """w solves the level system of (slope, lin, dg), with lin = control_term(v)[1],
    solves w/ht - (L - r) w + dg w + slope Q'(v) w = rhs on interior rows,
    where L - r is the operator's own stencil and Q'(v) w the derivative of
    control_term's Q at v along w, taken by a central difference of step
    1e-4.  v has a gradient of fixed sign on every axis, so a one-sided Q has
    no kink between v - 1e-4 w and v + 1e-4 w either."""
    op = _operator(case)
    grid = op.grid
    n = grid.n_nodes
    rng = np.random.default_rng(5)
    pts = grid.points()
    v = np.array([1.0, -0.7])[: grid.d] @ pts + 0.1 * grid.hx * rng.uniform(size=n)
    slope = rng.uniform(0.0, 2.0, size=n)
    extra_diag = rng.uniform(0.0, 5.0, size=n)
    rhs = rng.normal(size=n)
    w = _level_solve(op, slope, op.control_term(v)[1], extra_diag, rhs)

    step = 1e-4
    dQ = (op.control_term(v + step * w)[0] - op.control_term(v - step * w)[0]) / (2.0 * step)
    terms = (w / grid.ht, -op.apply_generator(w), extra_diag * w, slope * dQ)
    interior = ~op.dirichlet
    scale = np.max(sum(np.abs(t) for t in terms)[interior])
    assert np.max(np.abs(sum(terms) - rhs)[interior]) <= 1e-10 * scale
    assert np.allclose(w[op.dirichlet], rhs[op.dirichlet], rtol=1e-10, atol=0.0)

    # a zero slope adds nothing: with no extra diagonal the system is M0
    zeros = np.zeros(n)
    plain = _level_solve(op, zeros, op.control_term(v)[1], zeros, rhs)
    implicit = op.implicit_solve(rhs.copy())
    assert np.max(np.abs(plain - implicit)) <= 1e-10 * np.max(np.abs(implicit))


def _one_sided_slopes(grid, values):
    """The Rouy-Tourin slopes of nodal values (..., n_nodes), (..., d, n_nodes):
    along each axis a = max(D^- u, 0) and b = max(-D^+ u, 0) from np.diff
    quotients, 0 where the quotient would leave the box, and a where a >= b,
    else -b."""
    lead = values.shape[:-1]
    u = values.reshape(lead + grid.shape)
    slopes = []
    for axis in range(grid.d):
        quotients = np.diff(u, axis=len(lead) + axis) / grid.hx
        pad = [(0, 0)] * u.ndim
        pad[len(lead) + axis] = (1, 0)
        backward = np.pad(quotients, pad)
        pad[len(lead) + axis] = (0, 1)
        forward = np.pad(quotients, pad)
        a, b = np.maximum(backward, 0.0), np.maximum(-forward, 0.0)
        slopes.append(np.where(a >= b, a, -b).reshape(lead + (grid.n_nodes,)))
    return np.stack(slopes, axis=len(lead))


def test_control_term_is_the_rouy_tourin_term():
    """control_term gives the one-sided slopes and Q = sum of their squares,
    bit for bit, for one level and for a stack of levels, and writes them
    into a given pair of arrays."""
    for case in ("bench_ou", "skewed_2d"):
        op = _operator(case)
        grid = op.grid
        values = np.random.default_rng(7).normal(size=(3, grid.n_nodes))
        values[1, :40] = 0.5  # a flat stretch: a = b = 0
        for u in (values[0], values):
            Q, lin = op.control_term(u)
            slopes = _one_sided_slopes(grid, u)
            np.testing.assert_array_equal(lin, slopes)
            np.testing.assert_array_equal(Q, np.sum(slopes**2, axis=-2))
            out = (np.empty_like(Q), np.empty_like(lin))
            got = op.control_term(u, out=out)
            assert got[0] is out[0] and got[1] is out[1]
            np.testing.assert_array_equal(out[0], Q)
            np.testing.assert_array_equal(out[1], lin)


@pytest.mark.parametrize("case", ["bench_ou", "skewed_2d"])
def test_control_term_is_monotone(case):
    """Raising u at one interior node does not lower Q there and does not
    raise it at the node's neighbours: the Rouy-Tourin Q is a monotone
    function of the nodal values."""
    op = _operator(case)
    grid = op.grid
    rng = np.random.default_rng(13)
    interior = np.flatnonzero(~op.dirichlet)
    for _ in range(50):
        v = rng.normal(size=grid.n_nodes)
        j = rng.choice(interior)
        raised = v.copy()
        raised[j] += rng.uniform(0.0, 1.0)
        before, after = op.control_term(v)[0], op.control_term(raised)[0]
        assert after[j] >= before[j]
        for s in (1, grid.nx)[: grid.d]:
            assert after[j - s] <= before[j - s] and after[j + s] <= before[j + s]


def _np_gradient(grid, values):
    """np.gradient of nodal values (..., n_nodes) over the space axes with
    spacing hx, stacked as (..., d, n_nodes)."""
    lead = values.shape[:-1]
    axes = tuple(range(len(lead), len(lead) + grid.d))
    grads = np.gradient(values.reshape(lead + grid.shape), grid.hx, axis=axes)
    if grid.d == 1:
        grads = (grads,)
    return np.stack(grads, axis=len(lead)).reshape(lead + (grid.d, grid.n_nodes))


@pytest.mark.parametrize(
    "grid",
    [
        Grid(d=1, m=6.0, nx=601, nt=1, T=1.0),
        Grid(d=2, m=3.0, nx=31, nt=1, T=1.0),
        Grid(d=1, m=1.0, nx=5, nt=1, T=1.0),
        Grid(d=2, m=1.0, nx=5, nt=1, T=1.0),
    ],
    ids=["1d", "2d", "1d-nx5", "2d-nx5"],
)
def test_centered_gradient_is_np_gradient(grid):
    """centered_gradient is np.gradient over the space axes, bit for bit: on
    one slice and on a stack of slices, on the smallest grid, and where the
    values hold inf and NaN (inf - inf and NaN come out where np.gradient
    puts them, with the same bits)."""
    rng = np.random.default_rng(7)
    u = rng.normal(size=grid.n_nodes) * 10.0
    stack = np.stack([u, -3.0 * u, u**2])
    bad = stack.copy()
    n = grid.n_nodes
    bad[0, [0, 1]] = np.inf  # on the box edge, and inf - inf next to it
    bad[1, n // 2] = np.nan
    bad[2, [n // 2 - 1, n // 2 + 1, n - 1]] = [np.inf, np.inf, -np.inf]
    for values in (u, stack, bad[0], bad[1], bad):
        with np.errstate(invalid="ignore"):
            got = centered_gradient(grid, values)
            want = _np_gradient(grid, values)
        assert got.shape == values.shape[:-1] + (grid.d, n)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("d, m, nx", [(1, 6.0, 601), (2, 3.0, 31), (2, 0.7, 6)])
def test_box_edge_is_dirichlet(d, m, nx):
    """The ball mask takes in every node on the box edge: each has a
    coordinate of exactly +-m."""
    grid = Grid(d=d, m=m, nx=nx, nt=1, T=1.0)
    edge = np.any(np.abs(grid.points()) == m, axis=0)
    assert np.any(edge) and np.all(grid.dirichlet_mask()[edge])


def test_level_solver_gtsv_is_solve_banded():
    """The 1-D solver of one row calls gtsv directly; solve_banded((1, 1))
    on the same bands is the reference, bit for bit.  It is single-use: the
    solve overwrites its row of the band stacks and the right-hand side it
    is given, which holds the solution, and leaves the other rows of the
    stacks and M0's diagonals as they were."""
    op = _operator("bench_ou")
    n = op.grid.n_nodes
    interior = ~op.dirichlet
    M0 = op.implicit_matrix
    kept_m0 = {o: d.copy() for o, d in op._diagonals.items()}
    rng = np.random.default_rng(11)
    slope = rng.uniform(0.0, 3.0, size=(5, n))
    lin = rng.normal(size=(5, 1, n))
    extra_diag = rng.uniform(0.0, 50.0, size=(5, n))
    rhs = rng.normal(size=(5, n))
    systems = op.level_systems(slope, lin, extra_diag)
    assembled = {o: stack.copy() for o, stack in systems.items()}
    for p in range(5):
        ab = np.zeros((3, n))
        ab[0, 1:] = M0.diagonal(1)
        ab[1] = M0.diagonal() + np.where(interior, extra_diag[p], 0.0)
        ab[2, :-1] = M0.diagonal(-1)
        # slope Q'(v) w = 2 slope lin D w, D = D^- where lin > 0 and D^+
        # where lin < 0: c = 2 slope lin / hx on the diagonal as |c|, below
        # it as -c where c > 0 and above it as c where c < 0
        c = np.where(interior, lin[p, 0] * slope[p] * (2.0 / op.grid.hx), 0.0)
        ab[1] += np.maximum(c, 0.0)
        ab[1] -= np.minimum(c, 0.0)
        ab[0, 1:] += np.minimum(c, 0.0)[:-1]
        ab[2, :-1] -= np.maximum(c, 0.0)[1:]
        ref = solve_banded((1, 1), ab, rhs[p])
        b = rhs[p].copy()
        x = op.level_solver(systems, p)(b)
        np.testing.assert_array_equal(x, ref)
        np.testing.assert_array_equal(b, ref)
        assert not np.array_equal(systems[0][p], assembled[0][p])
        for o, stack in systems.items():
            np.testing.assert_array_equal(stack[p + 1 :], assembled[o][p + 1 :])
    for o, diagonal in kept_m0.items():
        np.testing.assert_array_equal(op._diagonals[o], diagonal)


@pytest.mark.parametrize("case", ["bench_ou", "skewed_2d"])
def test_level_systems_stack_is_row_by_row_assembly(case):
    """One level_systems call on a stack of rows equals the assembly of each
    row on its own, bit for bit, signed zeros included; a row with zero
    slope next to rows with nonzero slopes keeps M0's off-diagonals."""
    op = _operator(case)
    n, d = op.grid.n_nodes, op.grid.d
    rng = np.random.default_rng(17)
    slope = rng.uniform(0.0, 3.0, size=(4, n)) * (rng.random((4, n)) < 0.6)
    slope[1] = 0.0
    lin = rng.normal(size=(4, d, n))
    extra_diag = rng.uniform(0.0, 50.0, size=(4, n)) * (rng.random((4, n)) < 0.5)
    stacked = op.level_systems(slope, lin, extra_diag)
    for p in range(4):
        single = op.level_systems(slope[p : p + 1], lin[p : p + 1], extra_diag[p : p + 1])
        assert single.keys() == stacked.keys() == op._diagonals.keys()
        for o, stack in stacked.items():
            assert stack.shape == (4, op._diagonals[o].size)
            np.testing.assert_array_equal(stack[p].view(np.uint64), single[o][0].view(np.uint64))
    for o, diagonal in op._diagonals.items():
        if o != 0:
            np.testing.assert_array_equal(stacked[o][1].view(np.uint64), diagonal.view(np.uint64))


@pytest.mark.parametrize("case", ["bench_ou", "skewed_2d"])
def test_solves_keep_the_diagonals_of_m0(case):
    """Level solves with a zero and a nonzero slope and pinned solves leave
    M0's diagonals bit for bit as built (a 1-D solve lets gtsv overwrite
    only the bands assembled for it), so a solve repeated after them gives
    the same result."""
    op = _operator(case)
    n = op.grid.n_nodes
    kept = {o: d.copy() for o, d in op._diagonals.items()}
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=n)
    zeros = np.zeros(n)
    lin = rng.normal(size=(op.grid.d, n))
    first = _level_solve(op, zeros, lin, zeros, rhs)
    for slope in (zeros, rng.uniform(0.0, 3.0, size=n)):
        for extra_diag in (zeros, rng.uniform(0.0, 50.0, size=n)):
            _level_solve(op, slope, lin, extra_diag, rhs)
    op.pinned_solver(op.dirichlet | (rng.uniform(size=n) < 0.3))(rhs.copy())
    assert kept.keys() == op._diagonals.keys()
    for o, diagonal in kept.items():
        np.testing.assert_array_equal(op._diagonals[o], diagonal)
    np.testing.assert_array_equal(_level_solve(op, zeros, lin, zeros, rhs), first)


def test_restrict_common_on_a_shared_grid():
    """On a shared grid whose nodes are all common (any 1-D grid) the value
    stacks themselves come back; in 2-D the nodes of the ball."""
    grid = Grid(d=1, m=3.0, nx=31, nt=4, T=1.0)
    rng = np.random.default_rng(9)
    a, b = (GridField(grid=grid, values=rng.normal(size=(5, 31))) for _ in range(2))
    mine, theirs = a.restrict_common(b)
    assert mine is a.values and theirs is b.values
    grid = Grid(d=2, m=3.0, nx=11, nt=4, T=1.0)
    a, b = (GridField(grid=grid, values=rng.normal(size=(5, 121))) for _ in range(2))
    keep = np.sum(grid.points() ** 2, axis=0) <= 9.0 * (1.0 + 1e-12)
    assert not keep.all()
    mine, theirs = a.restrict_common(b)
    np.testing.assert_array_equal(mine, a.values[:, keep])
    np.testing.assert_array_equal(theirs, b.values[:, keep])


# upwind rows of both signs: |b| hx / a > 1 with b > 0 left of x1 = 2/9 and
# with b < 0 right of it, centered rows in between
STRONG_1D = """
dim = 1
horizon = 0.2
rate = 0.1
drift[1] = -9*x1 + 2
sigma[1][1] = 0.4 + 0.1*x1^2
f = 1.5
g = 0.5 * max(0, 1 - x1^2 / 4)^3
h = 0
"""


def _coo_assembly(grid, spec):
    """L - r and M0 = I/ht - (L - r) as the COO triplet assembly built them
    before the stencil was held as diagonals, kept as the reference; in 2-D
    with the seven-point cross term of Kushner & Dupuis, whose corners along
    the sign of a12 take |a12| / (2 hx^2) and whose axes diffuse with
    a_ii - |a12|."""
    n, hx = grid.n_nodes, grid.hx
    pts = grid.points()
    interior = ~grid.dirichlet_mask()
    bvals, avals = spec.drift(pts), spec.a_matrix(pts)
    rows, cols, vals = [], [], []
    idx = np.arange(n)[interior]
    abs_a12 = np.abs(avals[0, 1][interior]) if grid.d == 2 else 0.0

    def neighbor(i, axis, step):
        return i + step * (1 if grid.d == 1 or axis == 1 else grid.nx)

    for axis in range(grid.d):
        a_diag, b_ax = avals[axis, axis][interior] - abs_a12, bvals[axis][interior]
        ip, im = neighbor(idx, axis, +1), neighbor(idx, axis, -1)
        coef = 0.5 * a_diag / hx**2
        rows.extend([idx, idx, idx])
        cols.extend([ip, im, idx])
        vals.extend([coef, coef, -2.0 * coef])
        with np.errstate(divide="ignore", invalid="ignore"):
            peclet = np.where(a_diag > 0, np.abs(b_ax) * hx / a_diag, np.inf)
        centered = peclet <= PECLET_SWITCH
        c_half = np.where(centered, b_ax / (2.0 * hx), 0.0)
        rows.extend([idx, idx])
        cols.extend([ip, im])
        vals.extend([c_half, -c_half])
        pos, neg = ~centered & (b_ax > 0), ~centered & (b_ax < 0)
        rows.extend([idx[pos], idx[pos], idx[neg], idx[neg]])
        cols.extend([ip[pos], idx[pos], im[neg], idx[neg]])
        vals.extend([b_ax[pos] / hx, -b_ax[pos] / hx, -b_ax[neg] / hx, b_ax[neg] / hx])
    if grid.d == 2:
        a12 = avals[0, 1][interior]
        for sx, sy in ((+1, +1), (-1, -1), (+1, -1), (-1, +1)):
            on = a12 * sx * sy > 0  # the corners along the sign of a12
            rows.extend([idx[on], idx[on]])
            cols.extend([neighbor(neighbor(idx[on], 0, sx), 1, sy), idx[on]])
            vals.extend([abs_a12[on] / (2.0 * hx**2), -abs_a12[on] / (2.0 * hx**2)])
    rows.append(idx)
    cols.append(idx)
    vals.append(np.full(idx.shape, -spec.r))
    L = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return L, sp.csc_matrix(sp.diags(np.where(interior, 1.0 / grid.ht, 1.0)) - L)


def _reference_system(grid, M0, interior, slope_lin=None, extra_diag=None, pinned=None):
    """Solver of a level system (slope and lin of slope_lin, extra_diag) or a
    pinned system by separate formulas: gtsv on M0's edited bands in 1-D,
    SuperLU of the sparse product form in 2-D, where the linearization
    2 slope lin_i D_i takes D_i = D^- where lin_i > 0 and D^+ where
    lin_i < 0 as Kronecker products of one-sided differences."""
    if grid.d == 1:
        lower, diag, upper = M0.diagonal(-1), M0.diagonal(), M0.diagonal(1)
        if pinned is not None:
            lower = np.where(pinned[1:], 0.0, lower)
            diag = np.where(pinned, 1.0, diag)
            upper = np.where(pinned[:-1], 0.0, upper)
        if extra_diag is not None:
            diag = diag + np.where(interior, extra_diag, 0.0)
        if slope_lin is not None:
            slope, lin = slope_lin
            c = np.where(interior, lin[0] * slope * (2.0 / grid.hx), 0.0)
            diag = diag + np.maximum(c, 0.0) - np.minimum(c, 0.0)
            upper = upper + np.minimum(c, 0.0)[:-1]
            lower = lower - np.maximum(c, 0.0)[1:]
        return lambda rhs: dgtsv(lower, diag, upper, rhs)[3]
    M = M0
    if pinned is not None:
        M = sp.diags((~pinned).astype(float)) @ M0 + sp.diags(pinned.astype(float))
    if extra_diag is not None:
        M = M + sp.diags(np.where(interior, extra_diag, 0.0))
    if slope_lin is not None:
        slope, lin = slope_lin
        back = sp.diags([1.0 / grid.hx, -1.0 / grid.hx], [0, -1], shape=(grid.nx, grid.nx))
        ahead = sp.diags([-1.0 / grid.hx, 1.0 / grid.hx], [0, 1], shape=(grid.nx, grid.nx))
        eye, keep = sp.identity(grid.nx), sp.diags(interior.astype(float))
        for lin_ax, axis in zip(lin, range(grid.d)):
            minus, plus = (sp.kron(back, eye), sp.kron(ahead, eye)) if axis == 0 else (sp.kron(eye, back), sp.kron(eye, ahead))
            M = M + keep @ (sp.diags(2.0 * slope * np.maximum(lin_ax, 0.0)) @ minus)
            M = M + keep @ (sp.diags(2.0 * slope * np.minimum(lin_ax, 0.0)) @ plus)
    return sp.linalg.splu(sp.csc_matrix(M)).solve


@pytest.mark.parametrize("case", ["bench_ou", "bench_ou_purestop", "strong_1d", "skewed_2d"])
def test_operator_is_the_coo_assembly(case):
    """L_matrix, implicit_matrix and the implicit, level and pinned solves
    equal the COO assembly and the former band and sparse-product systems:
    bit for bit in 1-D, within 1e-14 (relative) in 2-D, where the COO sums
    had no fixed order."""
    if case.startswith("bench"):
        bench = load_bench(case, coarse=True)
        op = build_operator(bench.grid, bench.spec)
    elif case == "strong_1d":
        spec, _, _ = parse_config_text(STRONG_1D)
        op = build_operator(Grid(d=1, m=4.0, nx=161, nt=20, T=0.2), spec)
        b, a = spec.drift(op.grid.points())[0], spec.a_matrix(op.grid.points())[0, 0]
        upwind = (np.abs(b) * op.grid.hx / a > PECLET_SWITCH) & ~op.dirichlet
        assert np.any(upwind & (b > 0)) and np.any(upwind & (b < 0))
    else:
        op = _operator(case)
    grid, interior = op.grid, ~op.dirichlet
    L, M0 = _coo_assembly(grid, op.spec)

    def same(got, want):
        if grid.d == 1:
            np.testing.assert_array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    same(op.L_matrix.toarray(), L.toarray())
    same(op.implicit_matrix.toarray(), M0.toarray())
    rng = np.random.default_rng(23)
    rhs = rng.normal(size=grid.n_nodes)
    same(op.implicit_solve(rhs.copy()), _reference_system(grid, M0, interior)(rhs))
    zeros = np.zeros(grid.n_nodes)
    for _ in range(3):
        slope = rng.uniform(0.0, 3.0, size=grid.n_nodes)
        lin = rng.normal(size=(grid.d, grid.n_nodes))
        diag = rng.uniform(0.0, 50.0, size=grid.n_nodes)
        pinned = op.dirichlet | (rng.uniform(size=grid.n_nodes) < 0.3)
        # slope Q'(v) w = 2 slope <lin, D w> with one-sided D
        for sl, e, dg in ((slope, (slope, lin), diag), (slope, (slope, lin), zeros), (zeros, None, diag), (zeros, None, zeros)):
            want = _reference_system(grid, M0, interior, slope_lin=e, extra_diag=dg)(rhs)
            same(_level_solve(op, sl, lin, dg, rhs), want)
        same(op.pinned_solver(pinned)(rhs.copy()), _reference_system(grid, M0, interior, pinned=pinned)(rhs))


@pytest.mark.parametrize("rho", [-0.9, 0.5, 1.0])
def test_correlated_m0_has_no_positive_off_diagonal(rho):
    """On grids where every a_ii >= |a12| (unit variances with correlation
    rho, and skewed_2d with its strong drift), the interior rows of M0 have
    no positive off-diagonal: M0 is an M-matrix, as the maximum principle and
    the obstacle oracle's Howard loop need."""
    spec = parse_config_text(f"""
dim = 2
horizon = 0.2
rate = 0.05
drift[1] = 0
drift[2] = 0
sigma[1][1] = 1
sigma[1][2] = 0
sigma[2][1] = {rho!r}
sigma[2][2] = {float(np.sqrt(1.0 - rho**2))!r}
f = 1
g = max(0, 1 - 2 * (x1^2 + x2^2))^3
h = 0
""")[0]
    for op in (build_operator(Grid(d=2, m=3.0, nx=61, nt=40, T=0.2), spec), _operator("skewed_2d")):
        assert np.any(op.spec.a_matrix(op.grid.points())[0, 1] != 0.0)
        M0 = op.implicit_matrix.tocoo()
        off = (M0.row != M0.col) & ~op.dirichlet[M0.row]
        assert np.count_nonzero(M0.data[off] > 0.0) == 0


@pytest.mark.parametrize("case", ["bench_ou", "strong_1d", "skewed_2d"])
def test_apply_generator_is_the_csr_product(case):
    """apply_generator(u) is L_matrix @ u bit for bit, signs of zero
    included, for a vector, and for stacks (k, n) and (j, k, n) of fields on
    leading axes, in C and in F order and as a read-only broadcast of one
    level over 251 levels (the stacks of time-independent data): each field
    of a stack is L_matrix @ u[i], scipy's product with one vector; its
    Dirichlet rows are +0.0 also where u is inf or NaN on Dirichlet nodes.
    A NaN's sign bit is not compared: where a sum meets two NaNs, it is
    the sign of whichever the addition's operand order keeps."""
    if case == "strong_1d":
        spec, _, _ = parse_config_text(STRONG_1D)
        op = build_operator(Grid(d=1, m=4.0, nx=161, nt=20, T=0.2), spec)
    else:
        op = _operator(case)
    n, boundary = op.grid.n_nodes, np.flatnonzero(op.dirichlet)
    rng = np.random.default_rng(31)

    def check(u):
        got = op.apply_generator(u)
        want = np.array([op.L_matrix @ row for row in u.reshape(-1, n)]).reshape(u.shape)
        assert got.shape == u.shape
        np.testing.assert_array_equal(got, want)
        number = ~np.isnan(want)
        np.testing.assert_array_equal(np.signbit(got[number]), np.signbit(want[number]))
        np.testing.assert_array_equal(got[..., boundary], 0.0)
        assert not np.signbit(got[..., boundary]).any()

    for shape in ((n,), (7, n), (251, n), (2, 3, n)):
        # exact zeros of both signs, so that some rows sum to zero
        u = rng.normal(size=shape) * (rng.random(shape) < 0.5)
        u[rng.random(shape) < 0.3] *= -1.0
        check(u)
        check(np.zeros(shape))
        check(-np.zeros(shape))
        u[..., boundary] = rng.choice([np.inf, -np.inf, np.nan], size=shape[:-1] + (boundary.size,))
        check(u)
    check(np.asfortranarray(rng.normal(size=(5, n))))
    level = rng.normal(size=n)
    level[boundary] = np.nan
    check(np.broadcast_to(level, (251, n)))


def _reference_sample(grid, table, t, x):
    """Interpolation of a nodal table (nt+1, n_nodes) at (t, x) as sample and
    sample_gradient computed it before the sampling plan: per level and per
    table, from the time clip and the linspace axis."""
    tt = np.clip(t, 0.0, grid.T)
    pos_t = tt / grid.ht
    k = int(min(np.floor(pos_t), grid.nt - 1))
    w = pos_t - k

    def space(flat):
        pos = np.clip((x - grid.axis[0]) / grid.hx, 0.0, grid.nx - 1 - 1e-12)
        i0 = pos.astype(int)
        frac = pos - i0
        if grid.d == 1:
            return (1 - frac[0]) * flat[i0[0]] + frac[0] * flat[i0[0] + 1]
        v = flat.reshape(grid.shape)
        fx, fy = frac[0], frac[1]
        ix, iy = i0[0], i0[1]
        return (
            (1 - fx) * (1 - fy) * v[ix, iy]
            + fx * (1 - fy) * v[ix + 1, iy]
            + (1 - fx) * fy * v[ix, iy + 1]
            + fx * fy * v[ix + 1, iy + 1]
        )

    return (1.0 - w) * space(table[k]) + w * space(table[k + 1])


@pytest.mark.parametrize("case", ["bench_ou", "2d"])
def test_sampling_plan_is_the_old_interpolation(case):
    """sample and sample_gradient equal the per-table formula bit for bit:
    inside the box, clamped outside it, on the first and last node, and at
    times 0, T, beyond T, before 0, on a level and between levels."""
    if case == "bench_ou":
        grid = load_bench("bench_ou", coarse=True).grid
    else:
        grid = Grid(d=2, m=3.0, nx=31, nt=30, T=0.2)
    rng = np.random.default_rng(3)
    field = GridField(grid=grid, values=rng.normal(size=(grid.nt + 1, grid.n_nodes)))
    m = grid.m
    x = rng.uniform(-1.2 * m, 1.2 * m, size=(grid.d, 200))
    x[:, :4] = [m, -m, 1.5 * m, m * (1 - 1e-15)]
    times = [0.0, grid.T, grid.T + 0.1, -0.05, 7 * grid.ht, 0.37 * grid.T]
    for t in times:
        assert np.array_equal(field.sample(t, x), _reference_sample(grid, field.values, t, x))
        grads = [
            np.stack([centered_gradient(grid, v)[i] for v in field.values])
            for i in range(grid.d)
        ]
        got = field.sample_gradient(t, x)
        want = np.stack([_reference_sample(grid, g, t, x) for g in grads])
        assert got.shape == (grid.d, x.shape[1]) and np.array_equal(got, want)
    one = x[:, 5]  # a single point of shape (d,)
    assert field.sample(0.1, one) == _reference_sample(grid, field.values, 0.1, one)


@pytest.mark.parametrize("d", [1, 2])
def test_sampling_on_a_level_is_the_blend(d):
    """At a time on a level (w = 0, and w = 1 at t = T) sample and
    sample_gradient read one level and still equal the two-level blend bit
    for bit, signs of zero included: at an interior level, at T, at a -0.0
    node whose other level is positive, and on tables holding an inf (read
    as the blend, NaN where it is)."""
    from ctrlstop.grid import _SamplingPlan

    grid = Grid(d=d, m=3.0, nx=25, nt=8, T=1.0)  # ht = 0.125, so k ht is exact
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.3, 3.3, size=(d, 150))
    x[:, 0] = 0.0  # on the centre node
    centre = grid.n_nodes // 2
    values = rng.normal(size=(grid.nt + 1, grid.n_nodes))
    values[rng.random(values.shape) < 0.2] = 0.0
    # at t = 3 ht the centre and its neighbours read -0.0, above them +1.5
    cell = [centre + o for o in (0, 1, grid.nx, grid.nx + 1)[: 2**d]]
    values[3, cell] = -0.0
    values[4, cell] = 1.5
    values[8, cell] = -0.0
    values[7, cell] = -2.0
    poisoned = np.where(np.arange(grid.n_nodes) == cell[0] + 2, np.inf, values)
    for table in (values, poisoned):
        field = GridField(grid=grid, values=table)
        grads = centered_gradient(grid, table)
        for t, w in ((3 * grid.ht, 0.0), (grid.T, 1.0), (5 * grid.ht, 0.0), (0.3, None)):
            plan = _SamplingPlan(grid, t, x)
            assert w is None or plan.w == w
            with np.errstate(invalid="ignore"):  # 0.0 * inf in the blend of poisoned
                pairs = (
                    (field.sample(t, plan), _reference_sample(grid, table, t, x)),
                    (field.sample_gradient(t, plan), np.stack([_reference_sample(grid, grads[:, i], t, x) for i in range(d)])),
                )
            for got, want in pairs:
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    with np.errstate(invalid="ignore"):
        assert np.isnan(GridField(grid=grid, values=poisoned).sample(grid.T, x)).any()
    # the two -0.0 cases: the blend gives +0.0 under +1.5 and -0.0 over -2.0
    field = GridField(grid=grid, values=values)
    assert np.signbit(field.sample(3 * grid.ht, x[:, :1])) == [False]
    assert np.signbit(field.sample(grid.T, x[:, :1])) == [True]


def test_field_values_are_read_only():
    grid = Grid(d=1, m=2.0, nx=11, nt=4, T=1.0)
    field = GridField(grid=grid, values=np.zeros((grid.nt + 1, grid.n_nodes)))
    with pytest.raises(ValueError, match="read-only"):
        field.values[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        field.nodal_gradient(0)[0, 0] = 1.0


@pytest.mark.parametrize("d", [1, 2])
def test_subset_plan_is_the_plan_of_the_subset(d):
    """A plan handed to sample and sample_gradient in place of the points
    gives their values, and the plan's subset is the plan of the subset
    points bit for bit; a plan of another grid is refused."""
    from ctrlstop.grid import _SamplingPlan

    grid = Grid(d=d, m=3.0, nx=31, nt=30, T=0.2)
    rng = np.random.default_rng(4)
    field = GridField(grid=grid, values=rng.normal(size=(grid.nt + 1, grid.n_nodes)))
    x = rng.uniform(-3.6, 3.6, size=(d, 300))
    mask = rng.random(300) < 0.6
    plan = _SamplingPlan(grid, 0.13, x)
    assert np.array_equal(field.sample(0.13, plan), field.sample(0.13, x))
    assert np.array_equal(field.sample_gradient(0.13, plan), field.sample_gradient(0.13, x))
    sub = plan.subset(mask)
    assert np.array_equal(field.sample(0.13, sub), field.sample(0.13, x[:, mask]))
    assert np.array_equal(field.sample_gradient(0.13, sub), field.sample_gradient(0.13, x[:, mask]))
    other = Grid(d=d, m=3.0, nx=21, nt=30, T=0.2)
    with pytest.raises(ValueError, match="another grid"):
        field.sample(0.13, _SamplingPlan(other, 0.13, x))


@pytest.mark.parametrize("m", [0.0, -6.0, float("nan")])
def test_grid_radius_must_be_positive(m):
    # Grid(m=-6) used to be accepted, with hx = -0.3
    with pytest.raises(ValueError, match="radius"):
        Grid(d=1, m=m, nx=41, nt=20, T=0.2)
