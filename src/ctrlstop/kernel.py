"""Approximation apparatus for the penalized problems: smooth radial cut-offs,
truncated payoff data on balls, the C^2 penalty bridge and the control
Hamiltonian with its maximizer.

The cut-off profile on (0, 1) is the classical exponential bridge
xi(z) = e^{1/(z-1)} / (e^{1/(z-1)} + e^{-1/z}); the penalty bridge on
(0, 2*eps) is the lowest-degree polynomial matching value and two
derivatives of 0 at the left end and of (y-eps)/eps at the right end.
"""
from __future__ import annotations

import csv
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
    "hamiltonian",
    "hamiltonian_batch",
    "dump_psi_curve",
    "dump_hamiltonian_curve",
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
    reads +inf, which lies outside every ball."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(np.asarray(x, dtype=float), axis=0)


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
        r = _radius(x)
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
        return not (
            self.spec.f.depends_on_t or self.spec.g.depends_on_t or self.spec.h.depends_on_t
        )

    def _xi(self, x):
        x = np.asarray(x, dtype=float)
        r = _radius(x)
        return self.cutoff.value_radial(r), r

    def g_m(self, t, x):
        xi, _ = self._xi(x)
        return xi * self.spec.g(t, np.asarray(x, dtype=float))

    def h_m(self, t, x):
        xi, _ = self._xi(x)
        return xi * self.spec.h(t, np.asarray(x, dtype=float))

    def f_m_sq(self, t, x):
        """f_m^2 = f^2 + |g|_sup^2 |grad xi|^2 + 2 g xi <grad xi, grad g>, clamped at 0,
        with grad g by central differences of the untruncated g.  Off the
        cut-off bridge 0 < |x| - (m - 1) < 1, where grad xi = 0, it is f^2."""
        x = np.asarray(x, dtype=float)
        fv = self.spec.f(t, x)
        out = fv**2
        r = _radius(x)
        z = r - self.cutoff.m
        if not np.any((z > 0.0) & (z < 1.0)):
            return np.maximum(out, 0.0)
        xi = self.cutoff.value_radial(r)
        bridge = (self.cutoff.grad_norm_sq_radial(r) > 0)
        if np.any(bridge):
            gx = self.cutoff.grad(x)
            gv, gg, _ = eval_with_derivatives(self.spec.g, (t, x), order=1, fd_step=self.spec.fd_step)
            cross = 2.0 * gv * xi * np.sum(gx * gg, axis=0)
            out = out + self.g_norm**2 * np.sum(gx * gx, axis=0) + cross
        scale = 1.0 + self.g_norm**2 + float(np.max(fv**2))
        if np.any(out < -1e-12 * scale):
            raise DataError(
                "negative radicand in the enlarged cost term: "
                f"min {float(np.min(out)):.3e} (gradient-constraint identity violated)"
            )
        return np.maximum(out, 0.0)

    def f_m(self, t, x):
        return np.sqrt(self.f_m_sq(t, x))


def truncate_data(spec: ProblemSpec, m: float, sup_samples: int = 201) -> TruncatedData:
    """Truncate (g, h, f) to the cylinder of radius m.

    |g|_sup over the closed radius-m cylinder is taken over a fine tensor grid
    (sup_samples per axis in space, 65 in time).
    """
    if m < 2:
        raise ValueError("truncation radius must be >= 2")
    cutoff = build_cutoff(m - 1)
    axes = [np.linspace(-m, m, sup_samples) for _ in range(spec.d)]
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


@dataclass(frozen=True)
class Penalty:
    """C^2, convex, nondecreasing penalty: 0 for y<=0, (y-eps)/eps for y>=2eps,
    polynomial bridge 2s^3 - s^4 (s = y/2eps) in between."""

    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("penalty parameter must lie in (0, 1)")

    def _split(self, y):
        """y as an array, the mask of the linear branch y >= 2eps, the mask of
        the bridge (0 < y < 2eps, and NaN, which the bridge propagates) and
        s = y/2eps on the bridge."""
        y = np.asarray(y, dtype=float)
        two_eps = 2.0 * self.eps
        linear = y >= two_eps
        bridge = ~(linear | (y <= 0.0))
        return y, linear, bridge, y[bridge] / two_eps

    def value(self, y):
        y, linear, bridge, s = self._split(y)
        out = np.where(linear, (y - self.eps) / self.eps, 0.0)
        out[bridge] = 2.0 * s**3 - s**4
        return out

    def d1(self, y):
        y, linear, bridge, s = self._split(y)
        out = np.where(linear, 1.0 / self.eps, 0.0)
        out[bridge] = (6.0 * s**2 - 4.0 * s**3) / (2.0 * self.eps)
        return out

    def d2(self, y):
        y, linear, bridge, s = self._split(y)
        out = np.zeros(y.shape)
        out[bridge] = (12.0 * s - 12.0 * s**2) / (4.0 * self.eps**2)
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


def hamiltonian(pen: Penalty, f_val: float, y) -> tuple[float, np.ndarray]:
    """sup_p { <y, p> - psi(|p|^2 - f_val^2) } and its maximizer.

    The maximizer is radial: p* = rho * y/|y| with rho the unique root of
    the first-order condition; y = 0 returns (0, zero vector).
    """
    y = np.asarray(y, dtype=float)
    q = float(np.linalg.norm(y))
    if q == 0.0:
        return 0.0, np.zeros_like(y)
    rho = float(_solve_radius(pen, np.asarray(f_val, dtype=float), np.asarray(q)))
    h_val = q * rho - float(pen.value(rho**2 - f_val**2))
    return h_val, (rho / q) * y


def hamiltonian_batch(pen: Penalty, f_vals, q_norms):
    """Vectorized Hamiltonian value for |y| = q_norms (zeros handled)."""
    f_vals = np.asarray(f_vals, dtype=float)
    q = np.asarray(q_norms, dtype=float)
    rho = _solve_radius(pen, f_vals, q)
    out = q * rho - pen.value(rho**2 - f_vals**2)
    return np.where(q == 0.0, 0.0, out)


# ---------------------------------------------------------------------------
# Diagnostic dumps
# ---------------------------------------------------------------------------


def dump_psi_curve(pen: Penalty, path, y_min=None, y_max=None, n: int = 1001) -> None:
    """CSV of the penalty and its derivatives (columns y, psi, dpsi, d2psi)."""
    lo = -pen.eps if y_min is None else y_min
    hi = 3.0 * pen.eps if y_max is None else y_max
    ys = np.linspace(lo, hi, n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "psi", "dpsi", "d2psi"])
        for y in ys:
            writer.writerow(
                [f"{y:.17g}", f"{pen.value(y):.17g}", f"{pen.d1(y):.17g}", f"{pen.d2(y):.17g}"]
            )


def dump_hamiltonian_curve(pen: Penalty, f_val: float, path, q_max: float = 5.0, n: int = 501):
    """CSV of |y| -> H(f_val, |y|) (columns |y|, H)."""
    qs = np.linspace(0.0, q_max, n)
    hs = hamiltonian_batch(pen, np.full_like(qs, f_val), qs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["|y|", "H"])
        for qv, hv in zip(qs, hs):
            writer.writerow([f"{qv:.17g}", f"{hv:.17g}"])
