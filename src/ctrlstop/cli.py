"""Command-line orchestration: validate / solve / simulate / verify.

Exit codes: 0 success, 1 validation or assertion failure, 2 convergence
failure, 3 I/O or parse failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import artifacts
from .grid import Grid, GridField
from .kernel import DataError, Penalty, truncate_data
from .model import ConfigError, _whole, load_problem, validate_assumptions
from .oracles import ObstacleProblem, compare_fields, solve_obstacle
from .simulate import (
    FeedbackStrategy,
    PathConfig,
    SimulationError,
    _start_point,
    saddle_probe,
    simulate_paths,
)
from .solver import (
    ContinuationError,
    SolverError,
    check_schedule,
    check_tol,
    continuation,
    default_schedule,
    vi_report,
)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3


def _parse_triple(text, what, n, cast=float):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise ConfigError(f"--{what} expects {n} comma-separated values")
    return tuple(cast(p) for p in parts)


def cmd_validate(args) -> int:
    spec, plan, _ = load_problem(args.config)
    report = validate_assumptions(spec, plan)
    print(report.summary())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "command": "validate",
            "config_sha": artifacts.config_digest(args.config),
            "valid": report.valid,
            "constants": {
                "D1": report.linear_growth_D1,
                "theta_B": report.ellipticity_theta,
                "grad_margin": report.grad_g_le_f_margin,
                "Theta_min": report.Theta_min,
                "K0": report.K0,
                "K1": report.K1,
                "K2": report.K2,
            },
            "violations": [
                {"check": c, "point": list(p), "value": v} for c, p, v in report.violations
            ],
        }
        (out / "validate.json").write_text(json.dumps(payload, indent=2))
    return EXIT_OK if report.valid else EXIT_ASSERT


def save_field(path, field: GridField, eps: float, delta: float) -> None:
    g = field.grid
    np.savez_compressed(
        path, values=field.values, d=g.d, m=g.m, nx=g.nx, nt=g.nt, T=g.T, eps=eps, delta=delta
    )


def load_field(path):
    """The field, eps and delta that save_field wrote to path; ConfigError if
    the file does not hold them or the field has a non-finite value."""
    try:
        with np.load(path) as z:
            grid = Grid(d=int(z["d"]), m=float(z["m"]), nx=int(z["nx"]), nt=int(z["nt"]), T=float(z["T"]))
            field = GridField(grid=grid, values=z["values"].copy())
            if not np.isfinite(field.values).all():
                raise ValueError("field values must be finite")
            return field, float(z["eps"]), float(z["delta"])
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # not an .npz archive (empty, pickled, .npy, broken zip), a key
        # missing, or a value of the wrong type or shape
        raise ConfigError(f"field {path}: {exc}") from exc


def cmd_solve(args) -> int:
    spec, plan, _ = load_problem(args.config)
    try:  # bad values exit 3 before any work or run directory
        eps0, delta0, stages = _parse_triple(args.schedule, "schedule", 3)
        m, nx, nt = _parse_triple(args.grid, "grid", 3)
        grid = Grid(d=spec.d, m=m, nx=_whole(nx, "grid nx"), nt=_whole(nt, "grid nt"), T=spec.T)
        stages = _whole(stages, "schedule K")
        schedule = check_schedule(default_schedule(stages, eps0=eps0, delta0=delta0, m=m))
        check_tol(args.tol)
        if args.tol_region is not None and not (math.isfinite(args.tol_region) and args.tol_region >= 0.0):
            raise ValueError(f"--tol-region {args.tol_region!r} must be finite and >= 0")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate_assumptions(spec, plan)
    if not report.valid:
        print("problem data violates the standing assumptions:", file=sys.stderr)
        print(report.summary(), file=sys.stderr)
        return EXIT_ASSERT
    digest = artifacts.config_digest(args.config)
    run_dir = artifacts.make_run_dir(args.out, digest)
    walls = {}

    def failure_manifest(status, exc):
        artifacts.write_manifest(
            run_dir,
            {"command": "solve", "config_sha": digest, "status": status, "error": str(exc), "wall_times": walls},
        )

    t0 = time.perf_counter()
    try:
        result = continuation(spec, schedule, lambda mm: grid, tol=args.tol)
    except ContinuationError as exc:
        walls["solve"] = time.perf_counter() - t0
        print(f"continuation aborted: {exc}", file=sys.stderr)
        for i, point in enumerate(exc.partial):
            save_field(run_dir / f"field_{i:02d}.npz", point.field, point.eps, point.delta)
        failure_manifest("convergence-failure", exc)
        print(f"partial artifacts in {run_dir}")
        return EXIT_CONVERGENCE
    except DataError as exc:
        # data that passed the sampled checks and still break the truncation
        walls["solve"] = time.perf_counter() - t0
        failure_manifest("data-error", exc)
        print(f"failure manifest in {run_dir}")
        raise
    walls["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report_vi = vi_report(result.limit, spec, tol_region=args.tol_region)
    walls["vi_report"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    last = result.last
    save_field(run_dir / "field_limit.npz", result.limit, last.eps, last.delta)
    artifacts.write_field_csv(
        run_dir / "field_limit.csv", result.limit, report_vi, every=args.dump_every
    )
    artifacts.write_region_pgms(run_dir, report_vi, every=args.dump_every)
    walls["artifacts"] = time.perf_counter() - t0

    oracle_gap = None
    if args.obstacle_oracle:
        t0 = time.perf_counter()
        oracle = solve_obstacle(ObstacleProblem(spec=spec, grid=grid), tol=1e-9)
        oracle_gap = compare_fields(result.limit, oracle.field, norm="sup")
        walls["obstacle_oracle"] = time.perf_counter() - t0

    bounds_summary = []
    all_bounds_ok = True
    for i, point in enumerate(result.points):
        entry = {
            "stage": i,
            "eps": point.eps,
            "delta": point.delta,
            "iters": point.iters,
            "residual": point.residual,
            "march": dataclasses.asdict(point.march),
            "seconds": point.seconds,
            "bounds": {
                name: {"bound": b, "observed": o, "ok": o <= b}
                for name, (b, o) in point.bound_report.items()
            },
        }
        all_bounds_ok &= point.bounds_ok()
        bounds_summary.append(entry)

    payload = {
        "command": "solve",
        "config_sha": digest,
        "status": "ok",
        "schedule": [list(s) for s in result.schedule],
        "grid": {
            "m": grid.m,
            "nx": grid.nx,
            "nt": grid.nt,
            "hx": grid.hx,
            "ht": grid.ht,
            "cfl": grid.cfl_diagnostic(spec),
        },
        "seeds": {"sample_plan": plan.rng_seed},
        "tolerances": {"solver": args.tol, "tol_region": report_vi.tol_region},
        "increments": result.increments,
        "points": bounds_summary,
        "vi": {
            "sup_minmax": report_vi.sup_minmax,
            "sup_maxmin": report_vi.sup_maxmin,
            "mutual_diff": report_vi.mutual_diff,
            "max_obstacle_violation": report_vi.max_constraint_violation[0],
            "max_gradient_violation": report_vi.max_constraint_violation[1],
            "terminal_error": report_vi.terminal_error,
        },
        "obstacle_oracle_gap": oracle_gap,
        "bounds_ok": all_bounds_ok,
        "wall_times": walls,
    }
    artifacts.write_manifest(run_dir, payload)
    print(f"run artifacts in {run_dir}")
    print(
        "VI residuals: minmax %.3e, maxmin %.3e, mutual %.3e; violations g-u %.2e, |du|-f %.2e"
        % (
            report_vi.sup_minmax,
            report_vi.sup_maxmin,
            report_vi.mutual_diff,
            report_vi.max_constraint_violation[0],
            report_vi.max_constraint_violation[1],
        )
    )
    if oracle_gap is not None:
        print(f"obstacle-oracle sup gap: {oracle_gap:.3e}")
    if not all_bounds_ok:
        print("bound report violations detected (see manifest)", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec, plan, sim_defaults = load_problem(args.config)
    try:  # bad values exit 3 before any work or run directory
        start_txt = args.start or sim_defaults.get("start", "0, 0")
        start_vals = _parse_triple(start_txt, "start", spec.d + 1)
        start = (start_vals[0], list(start_vals[1:]))
        _start_point(spec, start)
        n_paths = args.paths if args.paths is not None else int(sim_defaults.get("paths", 10000))
        n_steps = args.steps if args.steps is not None else int(sim_defaults.get("steps", 250))
        seed = args.seed if args.seed is not None else int(sim_defaults.get("seed", 0))
        band = args.band if args.band is not None else float(sim_defaults.get("band", 0.01))
        if not (math.isfinite(args.allowance) and args.allowance >= 0.0):
            raise ValueError(f"--allowance {args.allowance!r} must be finite and >= 0")
        cfg = PathConfig(n_paths=n_paths, n_steps=n_steps, rng_seed=seed)
        field, eps, delta = load_field(args.field)
        if field.grid.d != spec.d:
            raise ValueError(f"field has dimension {field.grid.d}, the config {spec.d}")
        if field.grid.T != spec.T:
            raise ValueError(f"field has horizon {field.grid.T!r}, the config {spec.T!r}")
        pen = Penalty(eps)
        if not delta > 0.0:
            raise ValueError(f"field delta {delta:g} must be positive")
        data = truncate_data(spec, field.grid.m)
        controller = FeedbackStrategy(spec=spec, mode="controller_opt", field=field, pen=pen, data=data)
        stopper = FeedbackStrategy(spec=spec, mode="stopper_tau_star", field=field, pen=pen, band=band)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    t0 = time.perf_counter()
    try:
        estimate = simulate_paths(spec, start, controller, stopper, cfg)
        probes = saddle_probe(
            spec, field, pen, start, cfg, band=band, allowance=args.allowance, data=data
        )
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    wall = time.perf_counter() - t0

    reference = float(field.sample(start[0], np.asarray(start[1], dtype=float).reshape(-1, 1))[0])
    gap = abs(estimate.mean - reference)
    print(
        f"payoff estimate {estimate.mean:.6f} +- {estimate.std_error:.6f} "
        f"({estimate.n_paths} paths); solved field value {reference:.6f}; |gap| {gap:.4f}"
    )
    for r in probes:
        rel = "<=" if r.side == "stopper" else ">="
        status = "ok" if r.passed else "FAIL"
        if not r.metadata.get("valid", True):
            status += f" (exit fraction {r.metadata['exit_fraction']:.3f} over the 5% budget)"
        print(
            f"  probe [{r.side:10s}] {r.name:13s} {r.payoff:.5f} {rel} "
            f"{r.reference:.5f} -+ {r.margin:.4f}  {status}"
        )
    digest = artifacts.config_digest(args.config)
    run_dir = artifacts.make_run_dir(args.out, digest)
    payload = {
        "command": "simulate",
        "config_sha": digest,
        "field": str(args.field),
        "start": list(start_vals),
        "paths": n_paths,
        "steps": n_steps,
        "seed": seed,
        "band": band,
        "estimate": {
            "mean": estimate.mean,
            "std_error": estimate.std_error,
            "breakdown": estimate.breakdown,
            "metadata": estimate.metadata,
        },
        "field_value": reference,
        "probes": [
            {
                "name": r.name,
                "side": r.side,
                "payoff": r.payoff,
                "std_error": r.std_error,
                "margin": r.margin,
                "passed": r.passed,
                "metadata": r.metadata,
            }
            for r in probes
        ],
        "wall_times": {"simulate": wall},
    }
    artifacts.write_manifest(run_dir, payload)
    print(f"run artifacts in {run_dir}")
    if not estimate.valid:
        print(
            f"run invalid: exit fraction {estimate.metadata.get('exit_fraction'):.3f} "
            "exceeds the 5% budget",
            file=sys.stderr,
        )
        return EXIT_ASSERT
    if not all(r.passed for r in probes):
        return EXIT_ASSERT
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_invariant_suite

    if args.cases < 1:
        raise ConfigError(f"--cases {args.cases} must be >= 1")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed {args.seed} must be >= 0")
    results = run_invariant_suite(n_cases=args.cases, rng_seed=args.seed or 0)
    failures = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} invariant check(s) failed", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A bad argument (an unknown or missing option, a value argparse cannot
    convert) is a parse failure, exit 3 with one stderr line, not
    argparse's exit 2, which this CLI keeps for a convergence failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="ctrlstop",
        description="Numerical lab for singular-controller vs stopper games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the standing assumptions by sampling")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="run the penalization continuation")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--schedule", default="0.5,0.5,8", help="eps0,delta0,K")
    p_solve.add_argument("--grid", default="6,601,2500", help="m,nx,nt")
    p_solve.add_argument("--tol", type=float, default=1e-7)
    p_solve.add_argument("--tol-region", type=float, default=None)
    p_solve.add_argument("--out", default="runs")
    p_solve.add_argument("--dump-every", type=int, default=100)
    p_solve.add_argument(
        "--obstacle-oracle",
        action="store_true",
        help="cross-check the limit against the policy-iteration obstacle solver",
    )

    p_sim = sub.add_parser("simulate", help="Monte Carlo the game with solved feedback")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--field", required=True, help="field .npz from a solve run")
    p_sim.add_argument("--start", default=None, help="t0,x1[,x2]")
    p_sim.add_argument("--paths", type=int, default=None)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--band", type=float, default=None)
    p_sim.add_argument("--allowance", type=float, default=0.02)
    p_sim.add_argument("--out", default="runs")

    p_ver = sub.add_parser("verify", help="run the randomized invariant suite")
    p_ver.add_argument("--cases", type=int, default=100_000)
    p_ver.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    handlers = {
        "validate": cmd_validate,
        "solve": cmd_solve,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except (SolverError, ContinuationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
