"""The four pinned workloads of the ctrlstop benchmark.

Every workload runs on the terminal window of the pinned 601 x 2500 bench
grid: the last WINDOW_LEVELS time levels, with the bench's own space grid,
time step, schedule and data.  The bench data do not depend on time, so the
window problem is the bench problem with a shorter horizon; a full pinned
continuation (about 35 s on a 2-core machine) does not fit a run, a window
continuation takes a few seconds and can be repeated and timed several times.

Every operation is timed by a Clock, which also reports the time scaled by
the machine's current speed (see Clock).

A workload has a set-up (bench load, ``validate_assumptions``,
``truncate_data``, ``build_operator``, and for the Monte Carlo workloads the
continuation that solves their field) and a round: a fixed list of timed
operations, each followed by the pinned acceptance check of
``tests/test_acceptance.py`` that applies to its output.  On the window the
pinned Monte Carlo allowance of 0.02 is about the whole change of the value,
so the Monte Carlo rounds also check their estimates against tolerances that
scale with the standard error (see ``Workload.check_reference``).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.linalg

# Call the program through module attributes, which the tracer rebinds.
from ctrlstop import benches, grid, kernel, model, oracles, simulate, solver

PROBE_POINTS = (-1.5, -0.75, 0.0, 0.75, 1.5)  # criterion 08
SOLVER_TOL = 1e-7  # tolerance of the acceptance fixtures
WINDOW_LEVELS = 250  # a tenth of the pinned 2500 levels
MC_STEPS = 50  # Euler steps over the window: dt = 1e-3, as in criteria 08 and 09
IDENTITY_PATHS = 10_000
SADDLE_PATHS = 2_000
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_Z = 5.0  # standard errors an estimate may lie from its pooled reference
AGREEMENT_Z = 3.0  # standard errors the two criterion-08 simulators may differ by
ROUNDING_FLOOR = 1e-6  # absolute slack for estimates with a standard error of ~0
# A continuation is timed in pieces, calibrating between stages (see Clock).
STAGE_CHECKPOINTS = [(solver, "solve_penalized")]


CALIBRATION_REF_S = 0.004  # time of one calibration sample on the reference machine
_CAL_X = np.linspace(-6.0, 6.0, 601)
_CAL_BANDS = np.vstack([np.full(601, -1.0), np.full(601, 4.0), np.full(601, -1.0)])


def _calibration_sample() -> float:
    """Time a fixed loop of the kind of work the program's inner loops do:
    small numpy operations and a banded solve on a 601-node line."""
    start = time.perf_counter()
    for _ in range(60):
        grad = np.gradient(_CAL_X * _CAL_X, 0.02)
        sol = scipy.linalg.solve_banded((1, 1), _CAL_BANDS, grad)
        np.linalg.norm(np.maximum(sol, 0.0))
    return time.perf_counter() - start


class Clock:
    """Times operations and scales each time by the machine's current speed.

    A shared machine switches between faster and slower states that last for
    seconds, which moves raw timings by tens of percent between runs.  The
    clock runs a short calibration loop (median of three samples) between
    operations; an operation's scaled time is its raw time multiplied by
    CALIBRATION_REF_S over the mean of the calibrations just before and just
    after it.  A change to the program moves the raw time and not the
    calibration, so the scaled time keeps it, while a change of machine
    state moves both and cancels.

    A long operation can change state midway, so it is timed in pieces: the
    caller names program functions the operation calls (checkpoints), and
    before such a call, once CHECKPOINT_S have passed since the last
    calibration, the clock pauses, calibrates and starts a new piece.  Each
    piece is scaled by the calibrations at its two ends; the pauses are not
    timed.  The checkpoints are rebound in the program's module or class for
    the duration of the operation only, as the tracer rebinds them, and not
    at all when checkpoints are switched off (in a traced run, where the
    pauses would count in the spans).
    """

    CHECKPOINT_S = 0.2

    def __init__(self, checkpoints: bool = True):
        self.checkpoints = checkpoints
        _calibration_sample()  # warm-up
        self.last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        return sorted(_calibration_sample() for _ in range(3))[1]

    def time(self, fn, checkpoints=()):
        """Run fn; return (result, raw seconds, scaled seconds).  checkpoints
        is a list of (owner, attribute name) of program functions fn calls."""
        pieces = []  # (raw seconds, calibration at its start, calibration at its end)
        piece_start = time.perf_counter()

        def checkpoint():
            nonlocal piece_start
            now = time.perf_counter()
            if now - piece_start >= self.CHECKPOINT_S:
                after = self._calibrate()
                pieces.append((now - piece_start, self.last, after))
                self.last = after
                piece_start = time.perf_counter()

        def hooked(inner):
            def call(*args, **kwargs):
                checkpoint()
                return inner(*args, **kwargs)

            return call

        # A checkpoint the program no longer has is skipped, not an error.
        saved = [(o, n, vars(o)[n]) for o, n in checkpoints if self.checkpoints and n in vars(o)]
        for owner, name, inner in saved:
            setattr(owner, name, hooked(inner))
        piece_start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            for owner, name, inner in saved:
                setattr(owner, name, inner)
        after = self._calibrate()
        pieces.append((end - piece_start, self.last, after))
        self.last = after
        raw = sum(p for p, _, _ in pieces)
        scaled = sum(p * CALIBRATION_REF_S / (0.5 * (c0 + c1)) for p, c0, c1 in pieces)
        return result, raw, scaled


@dataclass
class Round:
    """Outcome of one round: raw and scaled time and work units of each
    operation, checks attempted and failed, the fingerprint of the outputs,
    quality values."""

    clock: Clock
    raw: dict[str, float] = field(default_factory=dict)
    scaled: dict[str, float] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def run(self, label: str, fn, work: float = 0.0, ops: int = 1, checkpoints=()):
        """Time one operation that makes ops program runs and produces work
        units of the workload's work (see Clock.time for checkpoints)."""
        result, self.raw[label], self.scaled[label] = self.clock.time(fn, checkpoints)
        self.work[label] = work
        self.attempted += ops
        return result

    def check(self, label: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}")


@dataclass
class State:
    """What a set-up hands to the rounds."""

    spec: object
    grid: object
    schedule: list
    seed: int
    data: object
    op: object
    axis: np.ndarray
    pooled: dict
    field: object = None


def window(bench):
    """Spec and grid of the bench restricted to its last WINDOW_LEVELS levels."""
    g = bench.grid
    w = grid.Grid(d=g.d, m=g.m, nx=g.nx, nt=WINDOW_LEVELS, T=WINDOW_LEVELS * g.ht)
    return replace(bench.spec, T=w.T), w


class Workload:
    name = ""
    bench = ""
    field_stage: int | None = None  # continuation stage the Monte Carlo runs use
    default_seed = 0
    work_unit = ""
    ops = 0  # program runs plus checks in one round
    # The seed keys the sampling plan of validate_assumptions (solve
    # workloads) or the Philox draws (Monte Carlo workloads).
    seed_keys_plan = True

    def setup(self, seed: int, out: Round) -> State:
        """Set the workload up, timing each step in out."""
        b = out.run("load_bench", lambda: benches.load_bench(self.bench))
        spec, g = window(b)
        plan = replace(b.plan, rng_seed=seed) if self.seed_keys_plan else b.plan
        report = out.run(
            "validate_assumptions",
            lambda: model.validate_assumptions(b.spec, plan),
            checkpoints=[(model, "time_derivative")],  # once per sampled point
        )
        out.check("validate_assumptions", report.valid, f"{len(report.violations)} violations")
        data = out.run("truncate_data", lambda: kernel.truncate_data(spec, g.m))
        op = out.run("build_operator", lambda: grid.build_operator(g, spec))
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        st = State(
            spec=spec, grid=g, schedule=b.schedule, seed=seed, data=data, op=op,
            axis=np.asarray(g.axis), pooled=refs.get(self.name, {}).get("pooled", {}),
        )
        if self.field_stage is not None:
            res = out.run(
                "continuation",
                lambda: solver.continuation(spec, b.schedule[: self.field_stage + 1], lambda m: g, tol=SOLVER_TOL),
                checkpoints=STAGE_CHECKPOINTS,
            )
            st.field = res.points[-1]
        return st

    def solve(self, st: State, out: Round):
        """One timed solver.continuation over the bench schedule; returns its
        limit field."""
        res = out.run(
            "continuation",
            lambda: solver.continuation(st.spec, st.schedule, lambda m: st.grid, tol=SOLVER_TOL),
            work=st.grid.nt * len(st.schedule),
            ops=len(st.schedule),
            checkpoints=STAGE_CHECKPOINTS,
        )
        out.fingerprint["increments"] = res.increments
        return res.limit

    def round(self, st: State, out: Round) -> None:
        raise NotImplementedError

    @staticmethod
    def probe_values(st: State, f) -> list[float]:
        """u(0, PROBE_POINTS), interpolated linearly between the nodes as
        GridField.sample does, but without a program call in the rounds."""
        return [float(v) for v in np.interp(PROBE_POINTS, st.axis, f.values[0])]

    @staticmethod
    def check_reference(st: State, out: Round, key: str, mean: float, se: float) -> None:
        """The estimate must lie within REFERENCE_Z combined standard errors
        of its mean pooled over the reference seeds (perfbench/reference.json).
        Unlike the pinned allowance, this tolerance shrinks with the standard
        error, so a shift of a few standard errors fails."""
        ref = st.pooled.get(key)
        if ref is None:
            out.check(f"reference {key}", False, "no pooled reference")
            return
        dev = abs(mean - ref[0])
        tol = REFERENCE_Z * math.hypot(se, ref[1]) + ROUNDING_FLOOR
        out.check(f"reference {key}", dev <= tol, f"|mean-ref| {dev:.3e} > {tol:.3e}")


class SolveOU(Workload):
    name = "solve_ou"
    bench = "bench_ou"
    work_unit = "levels"
    ops = 10 + 2 + 2

    def round(self, st, out):
        limit = self.solve(st, out)
        hx = st.grid.hx
        vi = out.run("vi_report", lambda: solver.vi_report(limit, st.spec, operator=st.op))
        out.check(
            "criterion 05",
            vi.sup_minmax <= 20 * hx and vi.sup_maxmin <= 20 * hx and vi.mutual_diff <= 10 * hx,
            f"sups {vi.sup_minmax:.3e} {vi.sup_maxmin:.3e} mutual {vi.mutual_diff:.3e}",
        )
        game = oracles.LatticeGame(spec=st.spec, radius=st.grid.m, eta=0.02, dt=st.grid.ht)
        sol = out.run("lattice", lambda: oracles.solve_lattice_game(game))
        keep = np.abs(game.states) <= st.grid.m - 2.0
        diff_mm = float(np.max(np.abs(sol.value_minmax[:, keep] - limit.values[:, keep])))
        diff_ms = float(np.max(np.abs(sol.value_maxmin[:, keep] - limit.values[:, keep])))
        out.check(
            "criterion 07",
            np.array_equal(game.states, st.grid.points()[0])
            and sol.min_gap() >= 0.0 and sol.max_gap() <= 5e-3 and diff_mm <= 5e-2 and diff_ms <= 5e-2,
            f"order gap {sol.max_gap():.2e} diffs {diff_mm:.4f} {diff_ms:.4f}",
        )
        out.quality["vi_residual_sup"] = max(vi.sup_minmax, vi.sup_maxmin)
        out.fingerprint.update({
            "u0_probes": self.probe_values(st, limit),
            "vi_sup_minmax": vi.sup_minmax,
            "vi_sup_maxmin": vi.sup_maxmin,
            "vi_mutual_diff": vi.mutual_diff,
            "lattice_order_gap": sol.max_gap(),
            "lattice_diff_minmax": diff_mm,
            "lattice_diff_maxmin": diff_ms,
        })


class SolvePureStop(Workload):
    name = "solve_purestop"
    bench = "bench_ou_purestop"
    work_unit = "levels"
    ops = 8 + 2 + 1

    def round(self, st, out):
        limit = self.solve(st, out)
        oracle = out.run("obstacle", lambda: oracles.solve_obstacle(oracles.ObstacleProblem(spec=st.spec, grid=st.grid), tol=1e-9))
        gap = out.run("compare", lambda: oracles.compare_fields(limit, oracle.field, norm="sup"))
        out.check("criterion 06", gap <= 1e-2, f"oracle gap {gap:.2e}")
        out.quality["oracle_gap"] = gap
        out.fingerprint.update({
            "u0_probes": self.probe_values(st, limit),
            "oracle_gap": gap,
            "oracle_sweeps": int(sum(oracle.sweeps_per_level)),
            "oracle_complementarity": oracle.complementarity_residual,
        })


class MCIdentity(Workload):
    name = "mc_identity"
    bench = "bench_ou"
    field_stage = 3  # eps = delta = 2^-4, as in criterion 08
    default_seed = 21
    work_unit = "path-steps"
    # Per probe point: 2 simulations, 2 criterion-08 checks, 2 reference
    # checks and 1 agreement check.
    ops = 7 * len(PROBE_POINTS)
    seed_keys_plan = False

    def round(self, st, out):
        point = st.field
        pen = kernel.Penalty(point.eps)
        opt = simulate.FeedbackStrategy(spec=st.spec, mode="controller_opt", field=point.field, pen=pen, data=st.data)
        cfg = simulate.PathConfig(n_paths=IDENTITY_PATHS, n_steps=MC_STEPS, rng_seed=st.seed)
        runners = {
            "penalized": lambda x0: simulate.simulate_penalized(
                st.spec, st.data, pen, point.delta, (0.0, [x0]), opt, "w_star", cfg
            ),
            "recursive": lambda x0: simulate.simulate_recursive(st.spec, st.data, pen, point.delta, (0.0, [x0]), opt, cfg),
        }
        worst = 0.0
        for label, runner in runners.items():
            for x0, u_val in zip(PROBE_POINTS, self.probe_values(st, point.field)):
                est = out.run(f"{label}@{x0}", lambda: runner(x0), work=cfg.n_paths * cfg.n_steps)
                tolerance = 3 * est.std_error + 2e-2
                dev = abs(est.mean - u_val)
                worst = max(worst, dev / tolerance)
                out.check(f"criterion 08 {label} x0={x0}", dev <= tolerance, f"|mean-u| {dev:.3e} > {tolerance:.3e}")
                self.check_reference(st, out, f"{label}@{x0}", est.mean, est.std_error)
                out.fingerprint[f"{label}@{x0}"] = [est.mean, est.std_error]
        # Both representations estimate the same u(0, x0).
        for x0 in PROBE_POINTS:
            (m1, s1), (m2, s2) = out.fingerprint[f"penalized@{x0}"], out.fingerprint[f"recursive@{x0}"]
            tol = AGREEMENT_Z * math.hypot(s1, s2) + ROUNDING_FLOOR
            out.check(f"simulators agree x0={x0}", abs(m1 - m2) <= tol, f"|pen-rec| {abs(m1 - m2):.3e} > {tol:.3e}")
        out.quality["mc_identity_dev_ratio"] = worst


class MCSaddle(Workload):
    name = "mc_saddle"
    bench = "bench_ou"
    field_stage = 9  # the final stage, as in criterion 09
    default_seed = 31
    work_unit = "path-steps"
    ops = 12 + 1 + 12 + 12  # probes, count check, criterion-09 checks, reference checks
    seed_keys_plan = False

    def round(self, st, out):
        point = st.field
        cfg = simulate.PathConfig(n_paths=SADDLE_PATHS, n_steps=MC_STEPS, rng_seed=st.seed, feedback_substeps=8)
        pen = kernel.Penalty(point.eps)
        results = []
        # The stopper and the controller probes run as two timed calls; the
        # empty list switches the other side's default probes off.
        for side, lists in (("stopper", {"controller_perturbations": []}), ("controller", {"stopper_perturbations": []})):
            results += out.run(
                f"saddle_probe {side}",
                lambda: simulate.saddle_probe(
                    st.spec, point.field, pen, (0.0, [1.0]), cfg, band=0.01, allowance=0.02, data=st.data, **lists
                ),
                work=6 * cfg.n_paths * cfg.n_steps,
                ops=6,
                checkpoints=[(simulate, "simulate_paths")],
            )
        sides = [r.side for r in results]
        out.check("criterion 09 probe count", sides.count("stopper") == 6 and sides.count("controller") == 6, f"{sides}")
        slack = math.inf
        for r in results:
            s = (r.reference + r.margin - r.payoff) if r.side == "stopper" else (r.payoff - r.reference + r.margin)
            slack = min(slack, s)
            out.check(f"criterion 09 {r.side} {r.name}", r.passed, f"slack {s:+.4f}")
            self.check_reference(st, out, f"{r.side}:{r.name}", r.payoff, r.std_error)
            out.fingerprint[f"{r.side}:{r.name}"] = [r.payoff, r.std_error]
        out.fingerprint["reference"] = results[0].reference
        out.quality["saddle_min_slack"] = slack


WORKLOADS = {w.name: w for w in (SolveOU(), SolvePureStop(), MCIdentity(), MCSaddle())}
