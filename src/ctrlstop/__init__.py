"""Numerical lab for zero-sum games between a singular controller and a
stopper: penalized PDE solver with continuation, Monte Carlo game engine
with synthesized feedback strategies, and independent brute-force oracles."""

from .expressions import EvalError, Expression, ParseError, eval_with_derivatives, parse_expression
from .grid import Grid, GridField
from .kernel import (
    Cutoff,
    Penalty,
    TruncatedData,
    build_cutoff,
    truncate_data,
)
from .model import AssumptionReport, ProblemSpec, SamplePlan, load_problem, validate_assumptions
from .oracles import LatticeGame, ObstacleProblem, compare_fields, solve_lattice_game, solve_obstacle
from .simulate import (
    FeedbackStrategy,
    PathConfig,
    PayoffEstimate,
    saddle_probe,
    simulate_paths,
    simulate_penalized,
    simulate_recursive,
)
from .solver import (
    ContinuationResult,
    PenaltyPoint,
    TruncatedProblem,
    VIReport,
    continuation,
    default_schedule,
    gamma_step,
    solve_penalized,
    vi_report,
)

__version__ = "0.1.0"
