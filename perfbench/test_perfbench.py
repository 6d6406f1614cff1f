"""Tests of the benchmark itself: counts add up, tracing changes no output,
counts repeat exactly, and every wrapped attribute is put back.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload fixture makes two traced runs and one untraced run of one round
each (about a minute per workload).
"""
from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import run

run.import_program()

import layers  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _program_attributes():
    """Every module-level and class-level binding of the program's modules."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "ctrlstop" or name.startswith("ctrlstop."):
            snap[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(obj))
    return snap


@pytest.fixture(scope="module", params=["solve_ou", "mc_saddle"])
def runs(request):
    before = _program_attributes()
    traced = [run.run_workload(request.param, None, 0, True) for _ in range(2)]
    after = _program_attributes()
    untraced = run.run_workload(request.param, None, 0, False)
    return request.param, traced, untraced, before, after


def test_runs_are_correct(runs):
    _, traced, untraced, _, _ = runs
    for record in traced + [untraced]:
        assert record["correct"], record["failures"]
        assert record["failed"] == 0 and record["attempted"] > 0


def test_traced_and_untraced_fingerprints_match(runs):
    _, traced, untraced, _, _ = runs
    assert traced[0]["fingerprint"] == untraced["fingerprint"]
    assert traced[1]["fingerprint"] == untraced["fingerprint"]


def test_counts_repeat_exactly(runs):
    _, traced, _, _, _ = runs
    counts = [
        {k: v for k, v in r["per_layer"].items() if layers.unit_of(k) == "count"} for r in traced
    ]
    assert counts[0] == counts[1]
    assert all(isinstance(v, int) for v in counts[0].values())


def test_tracer_restores_every_attribute(runs):
    _, _, _, before, after = runs
    # A run may import more of the package, which adds names; none may change.
    for key, names in before.items():
        for name, value in names.items():
            assert after[key][name] is value, f"{key}.{name}"


def test_every_per_layer_metric_is_reported(runs):
    _, traced, _, _, _ = runs
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    reported = run.summary_line(traced[0])["metrics"]
    assert {k: v["unit"] for k, v in reported.items()} == declared


@pytest.mark.parametrize("runs", ["solve_ou"], indirect=True)
def test_solver_counts_add_up(runs):
    _, traced, _, _, _ = runs
    per_layer = traced[0]["per_layer"]
    assert per_layer["solver.stages"] == 10
    assert per_layer["solver.levels"] == 10 * 250
    assert per_layer["grid.level_solver_calls"] >= per_layer["solver.levels"]
    assert per_layer["grid.linear_solve_calls"] >= per_layer["solver.levels"]
    assert per_layer["solver.certify_retries"] == 0


def test_end_to_end_metrics_match_benchmark_json(runs):
    _, _, untraced, _, _ = runs
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    reported = run.summary_line(untraced)["metrics"]
    assert {k: v["unit"] for k, v in reported.items()} == declared
    assert all(v["value"] > 0 for v in reported.values())


def test_self_time_excludes_wrapped_children():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.03)

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    tracer.wrap(outer, "outer")()
    names, _, _, parent, self_time = tracer.arrays()
    by_name = {tracer.names[n]: (p, s) for n, p, s in zip(names, parent, self_time)}
    assert by_name["outer"][0] == -1 and by_name["inner"][0] == 0
    assert 0.02 <= by_name["outer"][1] < 0.03
    assert by_name["inner"][1] >= 0.03


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "solve_ou", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_check_scales_with_the_standard_error():
    out = workloads.Round(clock=None)
    st = SimpleNamespace(pooled={"p": [0.5, 1e-4]})
    workloads.Workload.check_reference(st, out, "p", 0.5 + 3e-4, 1e-4)  # 2.1 standard errors
    workloads.Workload.check_reference(st, out, "p", 0.5 + 1e-3, 1e-4)  # 7.1 standard errors
    workloads.Workload.check_reference(st, out, "q", 0.5, 1e-4)  # no reference
    assert (out.attempted, out.failed) == (3, 2)


def test_pool_averages_means_and_shrinks_the_standard_error():
    pooled = steady.pool([{"p": [1.0, 0.3], "x": 7.0}, {"p": [2.0, 0.4], "x": 8.0}])
    assert pooled.keys() == {"p"}
    assert pooled["p"] == pytest.approx([1.5, 0.25])
