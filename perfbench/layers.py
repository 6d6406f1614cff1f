"""Per-layer metrics computed from the spans of a traced run.

Every metric covers the measured rounds and is reported per round, except the
set-up metrics (``SETUP_METRICS``), which cover the set-up phase and are
reported per set-up.  ``calls`` counts spans, ``self`` sums self times (the
span minus its wrapped children) and ``total`` sums whole span durations.
"""
from __future__ import annotations

import numpy as np

SIMULATORS = ("simulate.simulate_paths", "simulate.simulate_penalized", "simulate.simulate_recursive")
LINEAR_SOLVE = "grid.Operator.level_solver.solve"

# metric -> (kind, span names) or (kind, counter name)
METRICS = {
    "solver.stages": ("calls", ["solver.solve_penalized"]),
    "solver.levels": ("counter", "solver.levels"),
    "solver.newton_per_level": ("ratio", ("grid.level_solver_calls", "solver.levels")),
    "solver.certify_sweeps": ("calls", ["solver.gamma_step"]),
    "solver.certify_retries": ("difference", ("solver.certify_sweeps", "solver.stages")),
    "solver.certify_s": ("total", ["solver.gamma_step"]),
    "solver.self_s": ("self", ["solver.solve_penalized", "solver.continuation"]),
    "solver.vi_report_s": ("total", ["solver.vi_report"]),
    "grid.level_solver_calls": ("calls", ["grid.Operator.level_solver"]),
    "grid.level_solver_s": ("self", ["grid.Operator.level_solver"]),
    "grid.linear_solve_calls": ("calls", [LINEAR_SOLVE, "grid.Operator.implicit_solve"]),
    "grid.linear_solve_s": ("self", [LINEAR_SOLVE, "grid.Operator.implicit_solve"]),
    "grid.apply_generator_calls": ("calls", ["grid.Operator.apply_generator"]),
    "grid.apply_generator_s": ("self", ["grid.Operator.apply_generator"]),
    "grid.restrict_common_s": ("self", ["grid.GridField.restrict_common"]),
    "grid.build_operator_s": ("total", ["grid.build_operator"]),
    "grid.sample_calls": ("calls", ["grid.GridField.sample"]),
    "grid.sample_s": ("self", ["grid.GridField.sample"]),
    "grid.sample_gradient_calls": ("calls", ["grid.GridField.sample_gradient"]),
    "grid.sample_gradient_s": ("self", ["grid.GridField.sample_gradient"]),
    "grid.nodal_gradient_calls": ("calls", ["grid.GridField.nodal_gradient"]),
    "grid.nodal_gradient_s": ("self", ["grid.GridField.nodal_gradient"]),
    "kernel.penalty_calls": ("calls", ["kernel.Penalty.value", "kernel.Penalty.d1", "kernel.Penalty.d2"]),
    "kernel.penalty_s": ("self", ["kernel.Penalty.value", "kernel.Penalty.d1", "kernel.Penalty.d2"]),
    "kernel.data_calls": ("calls", ["kernel.TruncatedData.*", "kernel.Cutoff.*"]),
    "kernel.data_s": ("self", ["kernel.TruncatedData.*", "kernel.Cutoff.*"]),
    "kernel.truncate_s": ("total", ["kernel.truncate_data"]),
    "simulate.self_s": ("self", list(SIMULATORS) + ["simulate.saddle_probe"]),
    "simulate.control_calls": ("calls", ["simulate.FeedbackStrategy.control"]),
    "simulate.control_s": ("self", ["simulate.FeedbackStrategy.control"]),
    "simulate.stop_mask_calls": ("calls", ["simulate.FeedbackStrategy.stop_mask"]),
    "simulate.stop_mask_s": ("self", ["simulate.FeedbackStrategy.stop_mask"]),
    "simulate.paths_rejected": ("counter", "simulate.paths_rejected"),
    "simulate.exit_fraction": ("ratio", ("simulate.exit_fraction_sum", "simulate.exit_fraction_runs")),
    "expressions.eval_calls": ("calls", ["expressions.Expression.__call__"]),
    "expressions.eval_s": ("self", ["expressions.Expression.__call__"]),
    "model.validate_s": ("total", ["model.validate_assumptions"]),
    "model.coeff_calls": ("calls", ["model.ProblemSpec.drift", "model.ProblemSpec.diffusion"]),
    "model.coeff_s": ("self", ["model.ProblemSpec.drift", "model.ProblemSpec.diffusion"]),
    "oracles.obstacle_s": ("total", ["oracles.solve_obstacle"]),
    "oracles.obstacle_sweeps": ("counter", "oracles.obstacle_sweeps"),
    "oracles.lattice_s": ("total", ["oracles.solve_lattice_game"]),
    "oracles.compare_s": ("total", ["oracles.compare_fields"]),
}

SETUP_METRICS = ("grid.build_operator_s", "kernel.truncate_s", "model.validate_s")

UNITS = {"calls": "count", "counter": "count", "difference": "count", "self": "s", "total": "s"}


def unit_of(metric: str) -> str:
    if metric == "solver.newton_per_level":
        return "count/level"
    if metric == "simulate.exit_fraction":
        return "fraction"
    return UNITS[METRICS[metric][0]]


def _hooks():
    def count_levels(tracer, point):
        tracer.add("solver.levels", point.field.grid.nt)
        return point

    def wrap_solve(tracer, solve):
        return tracer.wrap(solve, LINEAR_SOLVE)

    def count_paths(tracer, est):
        tracer.add("simulate.paths_rejected", est.metadata.get("rejected_paths", 0))
        if "exit_fraction" in est.metadata:
            tracer.add("simulate.exit_fraction_sum", est.metadata["exit_fraction"])
            tracer.add("simulate.exit_fraction_runs", 1)
        return est

    def count_sweeps(tracer, sol):
        tracer.add("oracles.obstacle_sweeps", sum(sol.sweeps_per_level))
        return sol

    hooks = {
        "solver.solve_penalized": count_levels,
        "grid.Operator.level_solver": wrap_solve,
        "oracles.solve_obstacle": count_sweeps,
    }
    hooks.update({name: count_paths for name in SIMULATORS})
    return hooks


HOOKS = _hooks()


def _select(names: list[str], patterns: list[str]) -> np.ndarray:
    """Indices of span names matching the patterns (a trailing '*' is a prefix match)."""
    picked = [
        i for i, name in enumerate(names)
        if any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns)
    ]
    return np.array(picked, dtype=np.int32)


def _as_number(value: float):
    """Whole counts print as integers so that repeated runs compare exactly."""
    return int(round(value)) if abs(value - round(value)) < 1e-9 else value


def layer_metrics(tracer, setup_windows, measure_window, rounds: int) -> dict[str, float]:
    """Every metric of METRICS from the tracer's spans and counters.

    setup_windows is a list of (start, end) clock times, one per set-up;
    measure_window the (start, end) of the measured rounds.
    """
    nid, start, end, _, self_time = tracer.arrays()
    dur = end - start
    in_setup = np.zeros(start.size, dtype=bool)
    for lo, hi in setup_windows:
        in_setup |= (start >= lo) & (start <= hi)
    in_measure = (start >= measure_window[0]) & (start <= measure_window[1])

    out: dict[str, float] = {}
    derived = {}
    for metric, (kind, arg) in METRICS.items():
        if kind in ("ratio", "difference"):
            derived[metric] = (kind, arg)
        elif kind == "counter":
            out[metric] = tracer.counters.get(arg, 0.0) / rounds
        elif metric in SETUP_METRICS:
            out[metric] = _reduce(kind, in_setup & np.isin(nid, _select(tracer.names, arg)), self_time, dur) / len(setup_windows)
        else:
            out[metric] = _reduce(kind, in_measure & np.isin(nid, _select(tracer.names, arg)), self_time, dur) / rounds
    for metric, (kind, (a, b)) in derived.items():
        va = out[a] if a in out else tracer.counters.get(a, 0.0) / rounds
        vb = out[b] if b in out else tracer.counters.get(b, 0.0) / rounds
        if kind == "difference":
            out[metric] = va - vb
        else:
            out[metric] = va / vb if vb else 0.0
    return {k: _as_number(out[k]) if unit_of(k) == "count" else out[k] for k in METRICS}


def _reduce(kind: str, mask: np.ndarray, self_time: np.ndarray, dur: np.ndarray) -> float:
    if kind == "calls":
        return float(np.count_nonzero(mask))
    return float((self_time if kind == "self" else dur)[mask].sum())
