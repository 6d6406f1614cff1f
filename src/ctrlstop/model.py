"""Problem data for the controller-vs-stopper game and machine checks of its
standing assumptions by dense sampling.

A ProblemSpec holds the SDE coefficients b, sigma, the payoffs f (cost per
unit of control), g (stopping payoff), h (running payoff), the discount rate
and horizon.  Every pointwise question (drift, diffusion, a = sigma sigma^T,
Theta) is answered on a batch of points x of shape (d, n), with t a scalar
or of shape (n,); a single point of shape (d,) gives the same quantities
without the trailing n.  _level_stacks evaluates data on time levels (the
solver's lattice, the oracles' levels): time-independent data once,
broadcast over the levels.  validate_assumptions estimates the structural
constants (ellipticity, growth, the obstacle drift term) in one such pass
per sample radius and flags violations of the gates that the downstream
algorithms rely on:

  * f, g, h >= 0,
  * sigma*sigma^T locally elliptic (theta_B > 0 on each tested ball),
  * |grad g| <= f,
  * t -> f(t, x) non-increasing,
  * Theta = h + dg/dt + L g - r g finite (its negative part defines K2).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    Expression,
    ParseError,
    eval_with_derivatives,
    parse_expression,
    time_derivative,
)

__all__ = [
    "ProblemSpec",
    "SamplePlan",
    "AssumptionReport",
    "ConfigError",
    "validate_assumptions",
    "load_problem",
    "parse_config_text",
]

CHECK_TOL = 1e-8


class ConfigError(ValueError):
    """Malformed problem file: unknown key, missing key or bad value."""


@dataclass(frozen=True)
class ProblemSpec:
    """Game data: dX = b dt + sigma dW + n dnu, payoffs f, g, h, rate r, horizon T."""

    d: int
    T: float
    r: float
    b: tuple[Expression, ...]
    sigma: tuple[tuple[Expression, ...], ...]
    f: Expression
    g: Expression
    h: Expression
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.T!r}")
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.r!r}")
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ValueError(f"fd_step must be finite and positive, got {self.fd_step!r}")
        if len(self.b) != self.d:
            raise ValueError(f"drift must have {self.d} components")
        if len(self.sigma) != self.d or not self.sigma:
            raise ValueError(f"sigma must have {self.d} rows")
        ncols = len(self.sigma[0])
        if any(len(row) != ncols for row in self.sigma):
            raise ValueError("sigma rows must have equal length")
        for e in self.b:
            if e.depends_on_t:
                raise ValueError("drift entries may not depend on t")
            if e.max_space_index() > self.d:
                raise ValueError(f"drift uses x{e.max_space_index()} beyond dim {self.d}")
        for row in self.sigma:
            for e in row:
                if e.depends_on_t:
                    raise ValueError("sigma entries may not depend on t")
                if e.max_space_index() > self.d:
                    raise ValueError(f"sigma uses x{e.max_space_index()} beyond dim {self.d}")
        for name in ("f", "g", "h"):
            e = getattr(self, name)
            if e.max_space_index() > self.d:
                raise ValueError(f"{name} uses x{e.max_space_index()} beyond dim {self.d}")

    @property
    def d_noise(self) -> int:
        return len(self.sigma[0])

    @property
    def time_independent(self) -> bool:
        """No payoff depends on t (drift and sigma never do)."""
        return not (self.f.depends_on_t or self.g.depends_on_t or self.h.depends_on_t)

    def drift(self, x):
        """Drift vector at x; x has shape (d,) or (d, n). Returns same shape."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for i, e in enumerate(self.b):
            out[i] = e(0.0, x)
        return out

    def diffusion(self, x):
        """Diffusion matrix at x; returns shape (d, d') or (d, d', n)."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.d, self.d_noise) + x.shape[1:])
        for i, row in enumerate(self.sigma):
            for j, e in enumerate(row):
                out[i, j] = e(0.0, x)
        return out

    def a_matrix(self, x):
        """a = sigma sigma^T, entry (i, j) = sum_k sigma_ik sigma_jk; shape (d, d)
        at one point x of shape (d,), (d, d, n) on a batch of shape (d, n)."""
        s = self.diffusion(x)
        return np.array([[np.sum(s[i] * s[j], axis=0) for j in range(self.d)] for i in range(self.d)])

    def theta(self, t, x):
        """Theta = h + dg/dt + L g - r g, the drift of the stopping payoff, with
        L g = 0.5 tr(a D^2 g) + <b, grad g>; batched like eval_with_derivatives."""
        x = np.asarray(x, dtype=float)
        g, grad, hess = eval_with_derivatives(self.g, (t, x), order=2, fd_step=self.fd_step)
        return (
            self.h(t, x)
            + time_derivative(self.g, (t, x), self.fd_step)
            + 0.5 * np.sum(self.a_matrix(x) * hess, axis=(0, 1))
            + np.sum(self.drift(x) * grad, axis=0)
            - self.r * g
        )


def _level_stacks(times, points, static: bool, *fns) -> list[np.ndarray]:
    """fn(t_k, x) at every point of points (shape (d, n)) and every time t_k
    of times, shape (len(times), n), for each fn.  Time-independent data
    (static) are evaluated once and broadcast over the times as a read-only
    view; time-dependent data are evaluated time by time.  Every consumer of
    problem data on time levels reads them through here."""
    if static:
        return [np.broadcast_to(fn(0.0, points), (len(times), points.shape[1])) for fn in fns]
    return [np.stack([fn(float(t), points) for t in times]) for fn in fns]


@dataclass(frozen=True)
class SamplePlan:
    radii: tuple[float, ...]
    counts: tuple[int, ...]
    rng_seed: int = 0

    def __post_init__(self):
        if not self.radii:
            raise ValueError("sample plan needs at least one radius")
        if len(self.radii) != len(self.counts):
            raise ValueError("radii and counts must have equal length")
        if not all(math.isfinite(r) and r > 0 for r in self.radii) or any(c < 8 for c in self.counts):
            raise ValueError("radii must be finite and positive and counts >= 8")
        if self.rng_seed < 0:
            raise ValueError(f"sample plan seed must be >= 0, got {self.rng_seed!r}")


@dataclass
class AssumptionReport:
    linear_growth_D1: float
    ellipticity_theta: dict[float, float]
    grad_g_le_f_margin: float
    Theta_min: float
    K0: float
    K1: float
    K2: float
    f_time_monotone: bool
    violations: list[tuple[str, tuple, float]] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"D1 (linear growth)      = {self.linear_growth_D1:.6g}",
            "theta_B (ellipticity)   = "
            + ", ".join(f"R={r:g}: {v:.6g}" for r, v in sorted(self.ellipticity_theta.items())),
            f"min(f - |grad g|)       = {self.grad_g_le_f_margin:.6g}",
            f"Theta_min               = {self.Theta_min:.6g}",
            f"K0 (time growth of g,h) = {self.K0:.6g}",
            f"K1 (quadratic growth)   = {self.K1:.6g}",
            f"K2 (= max(0,-Theta_min))= {self.K2:.6g}",
            f"f time non-increasing   = {self.f_time_monotone}",
            f"valid                   = {self.valid}",
        ]
        if self.violations:
            lines.append(f"violations ({len(self.violations)}):")
            for name, point, value in self.violations[:20]:
                lines.append(f"  {name} at {point}: {value:.6g}")
            if len(self.violations) > 20:
                lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def _sample_points(spec: ProblemSpec, radius: float, count: int, rng: np.random.Generator):
    """Stratified lattice plus uniform random points in [0,T] x ball(radius)."""
    d = spec.d
    n_grid = max(count // 2, 4)
    per_axis = max(2, int(round(n_grid ** (1.0 / (d + 1)))))
    ts = np.linspace(0.0, spec.T, per_axis)
    axes = [np.linspace(-radius, radius, per_axis) for _ in range(d)]
    mesh = np.meshgrid(ts, *axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=0)  # (d+1, n)
    if d > 1:
        keep = np.sum(pts[1:] ** 2, axis=0) <= radius**2
        pts = pts[:, keep]
    n_rand = count - pts.shape[1]
    out = [pts]
    while n_rand > 0:
        batch = max(n_rand * 2, 16)
        xr = rng.uniform(-radius, radius, size=(d, batch))
        keep = np.sum(xr**2, axis=0) <= radius**2
        xr = xr[:, keep][:, :n_rand]
        tr = rng.uniform(0.0, spec.T, size=xr.shape[1])
        out.append(np.vstack([tr, xr]))
        n_rand -= xr.shape[1]
    return np.concatenate(out, axis=1)  # rows: t, x1..xd


def _check_points(spec: ProblemSpec, f_sq: Expression, pts):
    """The pointwise checks at the sample points pts (rows t, x1..xd), each one
    vectorized pass over the batch.

    Points with non-finite payoffs skip every later check; points with
    non-finite derivative probes skip the margin, Theta and growth checks.
    Returns the violation entries and the extrema over the batch of the
    linear growth ratio, the smallest eigenvalue of a, the margin f - |grad g|,
    Theta, the forward time increments of g and h, and (g + h) / (1 + |x|^2).
    """
    found: list[tuple[str, tuple, float]] = []

    def flag(name, bad, values):
        """Entries at the points of the current pts selected by the mask bad."""
        for col, v in zip(pts[:, bad].T, np.broadcast_to(values, bad.shape)[bad]):
            key = (round(float(col[0]), 6),) + tuple(np.round(col[1:], 6).tolist())
            found.append((name, key, float(v)))

    t, x = pts[0], pts[1:]
    fv, gv, hv = spec.f(t, x), spec.g(t, x), spec.h(t, x)
    for name, v in (("f>=0", fv), ("g>=0", gv), ("h>=0", hv)):
        flag(name, v < -CHECK_TOL, v)
    ok = np.isfinite(fv) & np.isfinite(gv) & np.isfinite(hv)
    flag("finite payoffs", ~ok, math.nan)
    pts, fv, gv, hv = pts[:, ok], fv[ok], gv[ok], hv[ok]
    t, x = pts[0], pts[1:]

    # SDE coefficients: linear growth and local ellipticity
    norm = np.sqrt(np.sum(spec.drift(x) ** 2, axis=0))
    norm = norm + np.sqrt(np.sum(spec.diffusion(x) ** 2, axis=(0, 1)))
    d1 = np.fmax.reduce(norm / (1.0 + np.sqrt(np.sum(x**2, axis=0))), initial=0.0)
    lam_min = np.linalg.eigvalsh(np.moveaxis(spec.a_matrix(x), -1, 0))[:, 0]
    theta_b = np.fmin.reduce(lam_min, initial=math.inf)

    # differentiability probes and gradient constraint
    _, grad_g, hess_g = eval_with_derivatives(spec.g, (t, x), order=2, fd_step=spec.fd_step)
    dt_g = time_derivative(spec.g, (t, x), spec.fd_step)
    _, grad_h, _ = eval_with_derivatives(spec.h, (t, x), order=1, fd_step=spec.fd_step)
    _, grad_f2, hess_f2 = eval_with_derivatives(f_sq, (t, x), order=2, fd_step=spec.fd_step)
    ok = np.ones(t.shape, dtype=bool)
    for p in (grad_g, hess_g, dt_g, grad_h, grad_f2, hess_f2):
        ok &= np.all(np.isfinite(p), axis=tuple(range(p.ndim - 1)))
    flag("finite derivatives of g, h, f^2", ~ok, math.nan)
    pts, fv, gv, hv, grad_g = pts[:, ok], fv[ok], gv[ok], hv[ok], grad_g[:, ok]
    t, x = pts[0], pts[1:]

    m = fv - np.sqrt(np.sum(grad_g**2, axis=0))
    flag("|grad g| <= f", m < -CHECK_TOL, m)
    margin = np.fmin.reduce(m, initial=math.inf)

    # Theta and growth constants
    theta = spec.theta(t, x)
    flag("finite Theta", ~np.isfinite(theta), theta)
    theta_min = np.fmin.reduce(theta, initial=math.inf)
    k1 = np.fmax.reduce((gv + hv) / (1.0 + np.sum(x**2, axis=0)), initial=0.0)

    # forward time increments of g, h and monotonicity of f
    t2 = np.minimum(t + spec.T / 64.0, spec.T)
    later = t2 > t
    pts, fv, gv, hv, t, t2 = pts[:, later], fv[later], gv[later], hv[later], t[later], t2[later]
    x = pts[1:]
    rise_g = (spec.g(t2, x) - gv) / (t2 - t)
    rise_h = (spec.h(t2, x) - hv) / (t2 - t)
    k0 = np.fmax.reduce(np.concatenate([rise_g, rise_h]), initial=0.0)
    f2 = spec.f(t2, x)
    flag("f non-increasing in t", f2 > fv + CHECK_TOL, f2 - fv)

    return found, *map(float, (d1, theta_b, margin, theta_min, k0, k1))


def validate_assumptions(spec: ProblemSpec, plan: SamplePlan) -> AssumptionReport:
    """Estimate the structural constants over the sample plan and flag violations.

    Failures never raise: each violated check appends an entry
    (check name, (t, x...), offending value) to the report, radius by radius
    and, within a radius, check by check.  A domain error while evaluating
    the data on a radius's points appends ("evaluation: ...", (radius,), nan)
    and skips that radius.
    """
    rng = np.random.default_rng(plan.rng_seed)
    violations: list[tuple[str, tuple, float]] = []
    d1, margin, theta_min, k0, k1 = 0.0, math.inf, math.inf, 0.0, 0.0
    theta_map: dict[float, float] = {}
    f_sq = parse_expression(f"({spec.f}) * ({spec.f})")

    for radius, count in zip(plan.radii, plan.counts):
        pts = _sample_points(spec, radius, count, rng)
        try:
            # non-finite values are reported as violations, not as warnings
            with np.errstate(invalid="ignore", over="ignore"):
                found, r_d1, theta_b, r_margin, r_theta, r_k0, r_k1 = _check_points(spec, f_sq, pts)
        except ArithmeticError as exc:
            violations.append((f"evaluation: {exc}", (radius,), math.nan))
            continue
        violations.extend(found)
        d1, margin, theta_min = max(d1, r_d1), min(margin, r_margin), min(theta_min, r_theta)
        k0, k1 = max(k0, r_k0), max(k1, r_k1)
        theta_map[radius] = theta_b
        if theta_b <= CHECK_TOL:
            violations.append(("theta_B > 0", (radius,), theta_b))

    return AssumptionReport(
        linear_growth_D1=d1,
        ellipticity_theta=theta_map,
        grad_g_le_f_margin=margin,
        Theta_min=theta_min,
        K0=k0,
        K1=k1,
        K2=max(0.0, -theta_min),
        f_time_monotone=not any(v[0] == "f non-increasing in t" for v in violations),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------
#
# Plain key/value format, one `key = value` per line, '#' starts a comment.
# Keys:
#   dim, horizon, rate, fd_step (optional), drift[i], sigma[i][j],
#   f, g, h, sample_plan.radii, sample_plan.counts, sample_plan.rng_seed
# Values of drift/sigma/f/g/h are expression strings.  Unknown keys error.

_KNOWN_SCALARS = {"dim", "horizon", "rate", "fd_step"}
_KNOWN_PLAN = {"sample_plan.radii", "sample_plan.counts", "sample_plan.rng_seed"}
_SIM_KEYS = {
    "simulate.start",
    "simulate.paths",
    "simulate.steps",
    "simulate.seed",
    "simulate.band",
}
_DRIFT_KEY = re.compile(r"^drift\[([1-9][0-9]*)\]$")
_SIGMA_KEY = re.compile(r"^sigma\[([1-9][0-9]*)\]\[([1-9][0-9]*)\]$")


def _whole(value: float, what: str) -> int:
    """value as an int; ValueError unless it is a whole number."""
    if not value.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def parse_config_text(text: str, source: str = "<string>"):
    """Parse a problem file; returns (ProblemSpec, SamplePlan, sim_defaults dict)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    for key in raw:
        if key in _KNOWN_SCALARS or key in _KNOWN_PLAN or key in _SIM_KEYS:
            continue
        if key in ("f", "g", "h"):
            continue
        if _DRIFT_KEY.match(key) or _SIGMA_KEY.match(key):
            continue
        raise ConfigError(f"{source}: unknown key {key!r}")

    def need(key):
        if key not in raw:
            raise ConfigError(f"{source}: missing key {key!r}")
        return raw[key]

    try:
        d = int(need("dim"))
        horizon = float(need("horizon"))
        rate = float(need("rate"))
        fd_step = float(raw.get("fd_step", "1e-5"))
    except ValueError as exc:
        raise ConfigError(f"{source}: bad numeric value: {exc}") from exc

    drift_entries: dict[int, str] = {}
    sigma_entries: dict[tuple[int, int], str] = {}
    for key, value in raw.items():
        m = _DRIFT_KEY.match(key)
        if m:
            drift_entries[int(m.group(1))] = value
        m = _SIGMA_KEY.match(key)
        if m:
            sigma_entries[(int(m.group(1)), int(m.group(2)))] = value
    if sorted(drift_entries) != list(range(1, d + 1)):
        raise ConfigError(f"{source}: drift[1..{d}] must all be present")
    if not sigma_entries:
        raise ConfigError(f"{source}: sigma[i][j] entries missing")
    d_noise = max(j for _, j in sigma_entries)
    expected = {(i, j) for i in range(1, d + 1) for j in range(1, d_noise + 1)}
    if set(sigma_entries) != expected:
        raise ConfigError(f"{source}: sigma must be a full {d}x{d_noise} matrix")

    def parse_expr(key, src_text):
        try:
            return parse_expression(src_text)
        except ParseError as exc:
            raise ConfigError(f"{source}: in {key!r}: {exc}") from exc

    b = tuple(parse_expr(f"drift[{i}]", drift_entries[i]) for i in range(1, d + 1))
    sigma = tuple(
        tuple(parse_expr(f"sigma[{i}][{j}]", sigma_entries[(i, j)]) for j in range(1, d_noise + 1))
        for i in range(1, d + 1)
    )
    f, g, h = (parse_expr(key, need(key)) for key in ("f", "g", "h"))

    def parse_floats(key, default=None):
        if key not in raw:
            if default is None:
                raise ConfigError(f"{source}: missing key {key!r}")
            return default
        try:
            return tuple(float(v) for v in raw[key].split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}: bad list for {key!r}: {exc}") from exc

    radii = parse_floats("sample_plan.radii", (2.0,))
    counts = parse_floats("sample_plan.counts", (256.0,) * len(radii))
    try:  # a value the data classes reject is a bad value of the file
        spec = ProblemSpec(d=d, T=horizon, r=rate, b=b, sigma=sigma, f=f, g=g, h=h, fd_step=fd_step)
        seed = _whole(float(raw.get("sample_plan.rng_seed", "0")), "sample_plan.rng_seed")
        counts = tuple(_whole(c, "sample_plan.counts") for c in counts)
        plan = SamplePlan(radii=radii, counts=counts, rng_seed=seed)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    sim_defaults = {k.split(".", 1)[1]: v for k, v in raw.items() if k in _SIM_KEYS}
    return spec, plan, sim_defaults


def load_problem(path):
    """Read and parse a problem file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
