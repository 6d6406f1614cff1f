"""Approximation apparatus for the penalized problems: smooth radial cut-offs,
truncated payoff data on balls, the C^2 penalty bridge and the control
Hamiltonian.

The cut-off profile on (0, 1) is the classical exponential bridge
xi(z) = e^{1/(z-1)} / (e^{1/(z-1)} + e^{-1/z}); the penalty bridge on
(0, 2*eps) is the lowest-degree polynomial matching value and two
derivatives of 0 at the left end and of (y-eps)/eps at the right end.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expressions import eval_with_derivatives
from .model import ProblemSpec

__all__ = [
    "Cutoff",
    "TruncatedData",
    "Penalty",
    "DataError",
    "build_cutoff",
    "truncate_data",
    "hamiltonian_batch",
]


class DataError(ValueError):
    """Numerical violation of a structural identity in the truncated data."""


# ---------------------------------------------------------------------------
# Cut-off functions
# ---------------------------------------------------------------------------


def _xi_profile(z):
    """1 for z<=0, 0 for z>=1, exponential bridge in between. Vectorized."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    out[z >= 1.0] = 0.0
    mid = (z > 0.0) & (z < 1.0)
    zm = z[mid]
    with np.errstate(under="ignore"):
        a = np.exp(1.0 / (zm - 1.0))
        b = np.exp(-1.0 / zm)
    out[mid] = a / (a + b)
    return out


def _xi_profile_d1(z):
    """First derivative of the profile: -xi(1-xi)(1/(z-1)^2 + 1/z^2)."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    mid = (z > 0.0) & (z < 1.0)
    zm = z[mid]
    xi = _xi_profile(zm)
    with np.errstate(under="ignore"):
        out[mid] = -xi * (1.0 - xi) * (1.0 / (zm - 1.0) ** 2 + 1.0 / zm**2)
    return out


def _radius(x):
    """|x| over axis 0 of points x (d, n...).  A radius too large for a float
    reads +inf, which lies outside every ball.  In 1-D it is sqrt(x1 * x1),
    which is what np.linalg.norm computes for one coordinate."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        if x.shape[0] == 1:
            return np.sqrt(x[0] * x[0])
        return np.linalg.norm(x, axis=0)


@dataclass(frozen=True)
class Cutoff:
    """Radial cut-off: 1 on the closed ball of radius m, 0 outside radius m+1.

    C0 is the certified constant with |grad xi|^2 <= C0 * xi everywhere.  It
    does not depend on m; it is certified when first read (see _certified_c0).
    """

    m: float

    @property
    def C0(self) -> float:
        return _certified_c0()

    def value(self, x):
        """xi_m at spatial points x of shape (d,) or (d, n...)."""
        return _xi_profile(_radius(x) - self.m)

    def value_radial(self, r):
        return _xi_profile(np.asarray(r, dtype=float) - self.m)

    def grad(self, x):
        """grad xi_m = (x/|x|) * xi'(|x|-m); zero at the origin and off the bridge."""
        x = np.asarray(x, dtype=float)
        return self._grad(x, _radius(x))

    def _grad(self, x, r):
        """grad at points x (d, n...) whose radii r = _radius(x) are known."""
        dz = _xi_profile_d1(r - self.m)
        safe_r = np.where(r > 0, r, 1.0)
        return x * (dz / safe_r)

    def grad_norm_sq_radial(self, r):
        return _xi_profile_d1(np.asarray(r, dtype=float) - self.m) ** 2


@functools.cache
def _certified_c0() -> float:
    """Certify C0 by maximizing xi'(z)^2 / xi(z) on 2,000,001 points of (0, 1).

    The ratio vanishes at both ends of (0,1), so a dense grid maximum plus a
    small headroom factor dominates the true supremum for test purposes.
    """
    z = np.linspace(1e-9, 1.0 - 1e-9, 2_000_001)
    xi = _xi_profile(z)
    d1 = _xi_profile_d1(z)
    ratio = np.where(xi > 0, d1**2 / np.where(xi > 0, xi, 1.0), 0.0)
    return float(np.max(ratio)) * (1.0 + 1e-6)


def build_cutoff(m: float) -> Cutoff:
    """Build xi_m; its constant C0 is certified on first read (Cutoff.C0)."""
    if m < 1:
        raise ValueError("cut-off radius must be >= 1")
    return Cutoff(m=float(m))


# ---------------------------------------------------------------------------
# Truncated data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedData:
    """Payoff data multiplied by xi_{m-1}, with the cost term enlarged so the
    gradient constraint on the truncated stopping payoff is preserved."""

    spec: ProblemSpec
    m: float
    cutoff: Cutoff  # xi_{m-1}
    g_norm: float  # max |g| over the closed cylinder of radius m

    @property
    def time_independent(self) -> bool:
        return self.spec.time_independent

    def g_m(self, t, x):
        x = np.asarray(x, dtype=float)
        return self._cut(_radius(x), self.spec.g(t, x))[0]

    def h_m(self, t, x):
        x = np.asarray(x, dtype=float)
        return self._cut(_radius(x), self.spec.h(t, x))[0]

    # The private forms take the radii r = _radius(x) that the caller already
    # has at the points x.  Where every point lies in the cut-off's closed
    # inner ball |x| <= m - 1, which one max tells (a NaN radius does not),
    # xi = 1 and xi * v is v: g_m and h_m are g and h, and f_m^2 is f^2, with
    # no cut-off evaluated.

    def _inner(self, r):
        return not r.size or r.max() <= self.cutoff.m

    def _cut(self, r, *values):
        """The values (of g, h) at points of radii r times xi there, with one
        evaluation of the cut-off for all of them."""
        if self._inner(r):
            return values
        xi = self.cutoff.value_radial(r)
        return tuple(xi * v for v in values)

    def f_m_sq(self, t, x):
        """f_m^2 = f^2 + |g|_sup^2 |grad xi|^2 + 2 g xi <grad xi, grad g>, clamped at 0,
        with grad g by central differences of the untruncated g.  Off the
        cut-off bridge 0 < |x| - (m - 1) < 1, where grad xi = 0, it is f^2."""
        x = np.asarray(x, dtype=float)
        return self._f_m_sq(t, x, _radius(x))

    def _f_m_sq(self, t, x, r):
        with np.errstate(over="ignore"):  # a huge f saturates to f^2 = +inf
            f_sq = self.spec.f(t, x) ** 2
        out = f_sq
        if self._inner(r):
            return np.maximum(out, 0.0)
        bridge = (self.cutoff.grad_norm_sq_radial(r) > 0)
        if np.any(bridge):
            xi = self.cutoff.value_radial(r)
            gx = self.cutoff._grad(x, r)
            gv, gg, _ = eval_with_derivatives(self.spec.g, (t, x), order=1, fd_step=self.spec.fd_step)
            cross = 2.0 * gv * xi * np.sum(gx * gg, axis=0)
            out = out + self.g_norm**2 * np.sum(gx * gx, axis=0) + cross
        scale = 1.0 + self.g_norm**2 + float(np.max(f_sq))
        if np.any(out < -1e-12 * scale):
            raise DataError(
                "negative radicand in the enlarged cost term: "
                f"min {float(np.min(out)):.3e} (gradient-constraint identity violated)"
            )
        return np.maximum(out, 0.0)

    def f_m(self, t, x):
        return np.sqrt(self.f_m_sq(t, x))


def truncate_data(spec: ProblemSpec, m: float) -> TruncatedData:
    """Truncate (g, h, f) to the cylinder of radius m.

    |g|_sup over the closed radius-m cylinder is taken over a fine tensor grid
    (201 points per axis in space, 65 in time).
    """
    if m < 2:
        raise ValueError("truncation radius must be >= 2")
    cutoff = build_cutoff(m - 1)
    axes = [np.linspace(-m, m, 201) for _ in range(spec.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([mm.ravel() for mm in mesh], axis=0)
    keep = np.sum(pts**2, axis=0) <= m**2
    pts = pts[:, keep]
    times = (
        np.array([0.0])
        if not spec.g.depends_on_t
        else np.linspace(0.0, spec.T, 65)
    )
    g_norm = 0.0
    for t in times:
        g_norm = max(g_norm, float(np.max(np.abs(spec.g(float(t), pts)))))
    return TruncatedData(spec=spec, m=float(m), cutoff=cutoff, g_norm=g_norm)


# ---------------------------------------------------------------------------
# Penalty function
# ---------------------------------------------------------------------------


def _above(y):
    """Flat positions of y that are not <= 0 (NaN included): the only ones
    where a penalty or its slope can be nonzero."""
    return (~(y <= 0.0)).ravel().nonzero()[0]  # np.flatnonzero, minus its wrapper


class _Branches:
    """Where the points y fall among a penalty's branches, computed once and
    read by value, d1 and d2.  One compare and one nonzero pick the
    nodes that are not y <= 0, which are few where the constraint is slack
    and none in the pure-stopping limit; only those are split into the
    linear nodes y >= 2eps, with their y and eps, and the bridge nodes
    (0 < y < 2eps, and NaN, which the bridge propagates), with s = y/2eps
    and their eps.  A node with no branch of its own reads zero."""

    def __init__(self, pen: "Penalty", y):
        y = np.asarray(y, dtype=float)
        self.eps, self.shape = pen.eps, y.shape
        above = _above(y)
        self.linear = self.bridge = above  # both empty unless y has nodes above 0
        if above.size:
            y_above = y.take(above)
            per_row = np.ndim(pen.eps) > 0  # each node takes its row's eps
            eps = pen.eps.ravel().take(above // y.shape[-1]) if per_row else pen.eps
            linear = y_above >= 2.0 * eps
            bridge = ~linear
            self.eps_linear, self.eps_bridge = (eps[linear], eps[bridge]) if per_row else (eps, eps)
            self.linear, self.y_linear = above[linear], y_above[linear]
            self.bridge, self.s = above[bridge], y_above[bridge] / (2.0 * self.eps_bridge)


@dataclass(frozen=True)
class Penalty:
    """C^2, convex, nondecreasing penalty: 0 for y<=0, (y-eps)/eps for y>=2eps,
    polynomial bridge 2s^3 - s^4 (s = y/2eps) in between.

    eps is one float, or a column (rows, 1) of them for points y of shape
    (rows, n), one eps per row: the solver's Newton march evaluates the rows
    of several stages in one call, each row with its stage's eps.

    value, d1 and d2 take either the points y or their _Branches, which a
    caller that needs two of them at the same points builds once (the Newton
    level needs psi and psi', the Monte Carlo Hamiltonian the same).  Each
    evaluation starts from zeros and computes a branch only on its own
    nodes, and not at all when it has none: in the pure-stopping limit every
    y is <= 0, and value and d1 return zeros after classifying y.  The
    branches hold copies of the y they read, so value may write over y."""

    eps: float

    def __post_init__(self):
        eps = np.asarray(self.eps)
        if not ((0.0 < eps) & (eps < 1.0)).all():
            raise ValueError("penalty parameter must lie in (0, 1)")

    def _branches(self, y) -> _Branches:
        if not isinstance(y, _Branches):
            return _Branches(self, y)
        if y.eps is not self.eps and not np.array_equal(y.eps, self.eps):
            raise ValueError("branches belong to another penalty")
        return y

    def value(self, y, out=None):
        """psi(y); out, an array of y's shape (y itself too), receives it."""
        b = self._branches(y)
        if out is None:
            out = np.zeros(b.shape)
        else:
            out[...] = 0.0
        if b.linear.size:
            eps = b.eps_linear
            out.put(b.linear, (b.y_linear - eps) / eps)
        if b.bridge.size:
            s = b.s
            out.put(b.bridge, 2.0 * s**3 - s**4)
        return out

    def d1(self, y):
        b = self._branches(y)
        out = np.zeros(b.shape)
        if b.linear.size:
            out.put(b.linear, 1.0 / b.eps_linear)
        if b.bridge.size:
            s = b.s
            out.put(b.bridge, (6.0 * s**2 - 4.0 * s**3) / (2.0 * b.eps_bridge))
        return out

    def d2(self, y):
        b = self._branches(y)
        out = np.zeros(b.shape)
        if b.bridge.size:
            s = b.s
            out.put(b.bridge, (12.0 * s - 12.0 * s**2) / (4.0 * b.eps_bridge**2))
        return out


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def _radial_map(pen: Penalty, f_val, rho):
    """rho -> 2 psi'(rho^2 - f^2) rho: strictly increasing from 0 on [f, inf)."""
    return 2.0 * pen.d1(rho**2 - f_val**2) * rho


def _solve_radius(pen: Penalty, f_val, q, iters: int = 80):
    """Root of 2 psi'(rho^2 - f^2) rho = q, vectorized bisection.

    The upper bracket max(f + eps(q/2+1), sqrt(f^2+2eps), eps q/2) is safe:
    beyond max(sqrt(f^2+2eps), eps q/2) the map equals 2 rho/eps >= q.
    """
    shape = np.broadcast_shapes(np.shape(f_val), np.shape(q))
    f_val = np.broadcast_to(np.asarray(f_val, dtype=float), shape).copy()
    q = np.broadcast_to(np.asarray(q, dtype=float), shape).copy()
    lo = f_val.copy()
    hi = np.maximum.reduce(
        [
            f_val + pen.eps * (q / 2.0 + 1.0),
            np.sqrt(f_val**2 + 2.0 * pen.eps),
            pen.eps * q / 2.0,
        ]
    ) * (1.0 + 1e-12) + 1e-300
    bad = _radial_map(pen, f_val, hi) < q
    if np.any(bad):
        raise ArithmeticError("Hamiltonian root bracketing failed (non-monotone penalty slope?)")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        too_low = _radial_map(pen, f_val, mid) < q
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


def hamiltonian_batch(pen: Penalty, f_vals, q_norms):
    """The Hamiltonian sup_p { <y, p> - psi(|p|^2 - f^2) } at |y| = q_norms,
    broadcast with f = f_vals.  The maximizer is radial, p* = rho y/|y|, with
    rho the root of the first-order condition 2 psi'(rho^2 - f^2) rho = |y|,
    so the value is |y| rho - psi(rho^2 - f^2).

    The value is +0.0 where q_norms is zero (an idle controller's rate); the
    bisection of _solve_radius runs only on the other entries, NaN included.
    """
    f_vals, q = np.broadcast_arrays(
        np.asarray(f_vals, dtype=float), np.asarray(q_norms, dtype=float)
    )
    out = np.zeros(q.shape)
    active = q != 0.0
    if active.any():
        f_act, q_act = f_vals[active], q[active]
        rho = _solve_radius(pen, f_act, q_act)
        out[active] = q_act * rho - pen.value(rho**2 - f_act**2)
    return out
