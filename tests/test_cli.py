import argparse
import functools
import json
from importlib import resources
from pathlib import Path

import pytest

import numpy as np

from ctrlstop import cli, solver, verify
from ctrlstop.artifacts import file_digest
from ctrlstop.cli import build_parser, main, save_field
from ctrlstop.grid import Grid, GridField
from ctrlstop.kernel import Penalty
from ctrlstop.simulate import SimulationError

CONST1 = """
dim = 1
horizon = 0.3
rate = 0
drift[1] = -x1
sigma[1][1] = 1
f = 1
g = 1
h = 0
sample_plan.radii = 2, 4
sample_plan.counts = 257, 257
sample_plan.rng_seed = 7
"""

ALLZERO = """
dim = 1
horizon = 0.25
rate = 0
drift[1] = -x1
sigma[1][1] = 1
f = 1
g = 0
h = 0
sample_plan.radii = 2
sample_plan.counts = 257
sample_plan.rng_seed = 3
"""


@pytest.fixture
def const1_cfg(tmp_path):
    p = tmp_path / "const1.cfg"
    p.write_text(CONST1)
    return p


@pytest.fixture
def allzero_cfg(tmp_path):
    p = tmp_path / "allzero.cfg"
    p.write_text(ALLZERO)
    return p


class TestValidate:
    def test_valid_config_exits_zero(self, const1_cfg, tmp_path):
        assert main(["validate", "--config", str(const1_cfg), "--out", str(tmp_path / "v")]) == 0
        payload = json.loads((tmp_path / "v" / "validate.json").read_text())
        assert payload["valid"] and payload["constants"]["K2"] == 0.0

    def test_time_increasing_cost_exits_one(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONST1.replace("f = 1", "f = t"))
        assert main(["validate", "--config", str(p)]) == 1

    def test_gradient_violation_exits_one(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONST1.replace("g = 1", "g = 2*x1"))
        assert main(["validate", "--config", str(p)]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            ("sample_plan.rng_seed = 7", "sample_plan.rng_seed = 7\nwhatever = 3"),
            ("horizon = 0.3", "horizon = -1"),
            ("drift[1] = -x1", "drift[1] = -x1*t"),
            ("counts = 257, 257", "counts = 4, 4"),
            ("horizon = 0.3", "horizon = nan"),
            ("horizon = 0.3", "horizon = inf"),
            ("rate = 0", "rate = nan"),
            ("rate = 0", "rate = inf"),
            ("radii = 2, 4", "radii = nan, 4"),
            ("radii = 2, 4", "radii = 2, inf"),
            ("rng_seed = 7", "rng_seed = -1"),
            ("radii = 2, 4\nsample_plan.counts = 257, 257", "radii = ,"),
        ],
        ids=[
            "unknown-key",
            "negative-horizon",
            "drift-depends-on-t",
            "counts-below-8",
            "nan-horizon",
            "inf-horizon",
            "nan-rate",
            "inf-rate",
            "nan-radius",
            "inf-radius",
            "negative-seed",
            "empty-sample-plan",
        ],
    )
    def test_unknown_key_exits_three(self, edit, tmp_path, capsys):
        # all but the unknown key used to end in a traceback (exit 1) or,
        # for nan and inf, to be accepted
        p = tmp_path / "bad.cfg"
        p.write_text(CONST1.replace(*edit))
        assert main(["validate", "--config", str(p)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_missing_file_exits_three(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 3


class TestSolve:
    def test_zero_config_all_bounds_pass(self, allzero_cfg, tmp_path):
        out = tmp_path / "runs"
        rc = main(
            [
                "solve",
                "--config",
                str(allzero_cfg),
                "--schedule",
                "0.5,0.5,2",
                "--grid",
                "4,81,50",
                "--out",
                str(out),
                "--dump-every",
                "10",
            ]
        )
        assert rc == 0
        run_dir = next(out.iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())[0]
        assert manifest["status"] == "ok"
        assert manifest["bounds_ok"]
        assert manifest["vi"]["sup_minmax"] == 0.0
        for point in manifest["points"]:
            assert point["iters"] == 1
            assert point["march"]["levels"] == 50
            assert point["march"]["newton_iters"] >= 50
            assert set(point["seconds"]) == {"march", "certify", "report"}
            assert min(point["seconds"].values()) >= 0.0
        staged = sum(sum(p["seconds"].values()) for p in manifest["points"])
        assert staged <= manifest["wall_times"]["solve"]
        names = {o["file"] for o in manifest["outputs"]}
        assert "field_limit.csv" in names and "field_limit.npz" in names
        assert any(n.endswith(".pgm") for n in names)

    def test_convergence_failure_keeps_the_finished_stages(self, allzero_cfg, tmp_path, monkeypatch, capsys):
        """A stage that fails ends the solve with exit 2; the stages finished
        before it are saved as field_NN.npz next to the failure manifest."""
        real, solved = solver.solve_penalized, []

        def third_fails(*args, **kwargs):
            if len(solved) == 2:
                raise solver.SolverError("stalled")
            solved.append(real(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(solver, "solve_penalized", third_fails)
        out = tmp_path / "runs"
        argv = ["solve", "--config", str(allzero_cfg), "--schedule", "0.5,0.5,3", "--grid", "4,41,20"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "continuation aborted" in capsys.readouterr().err
        run_dir = next(out.iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())[0]
        assert manifest["status"] == "convergence-failure"
        assert sorted(o["file"] for o in manifest["outputs"]) == ["field_00.npz", "field_01.npz"]
        for i, point in enumerate(solved):
            field, eps, delta = cli.load_field(run_dir / f"field_{i:02d}.npz")
            assert (eps, delta) == (point.eps, point.delta)
            np.testing.assert_array_equal(field.values, point.field.values)

    def test_rerun_reproduces_csv_bytes(self, allzero_cfg, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(
                [
                    "solve",
                    "--config",
                    str(allzero_cfg),
                    "--schedule",
                    "0.5,0.5,2",
                    "--grid",
                    "4,81,50",
                    "--out",
                    str(out),
                    "--dump-every",
                    "10",
                ]
            )
            run_dir = next(out.iterdir())
            digests.append(file_digest(run_dir / "field_limit.csv"))
        assert digests[0] == digests[1]

    def test_invalid_spec_rejected_before_solving(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONST1.replace("g = 1", "g = 2*x1"))
        assert main(["solve", "--config", str(p), "--grid", "4,81,50", "--out", str(tmp_path / "o")]) == 1

    def test_bound_violation_exits_one_with_manifest(self, allzero_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(solver.PenaltyPoint, "bounds_ok", lambda self: False)
        out = tmp_path / "runs"
        argv = ["solve", "--config", str(allzero_cfg), "--schedule", "0.5,0.5,2"]
        assert main(argv + ["--grid", "4,81,50", "--out", str(out)]) == 1
        assert "bound report violations detected (see manifest)" in capsys.readouterr().err
        manifest = json.loads((next(out.iterdir()) / "manifest.json").read_text())[0]
        assert manifest["status"] == "ok" and manifest["bounds_ok"] is False

    def test_convergence_failure_exits_two_with_manifest(self, tmp_path):
        # no level solve reaches a tolerance of 1e-300: the first stage stalls
        p = tmp_path / "bench_ou.cfg"
        p.write_text(resources.files("ctrlstop.configs").joinpath("bench_ou.cfg").read_text())
        out = tmp_path / "runs"
        argv = ["solve", "--config", str(p), "--grid", "6,41,20", "--schedule", "0.5,0.5,2"]
        assert main(argv + ["--tol", "1e-300", "--out", str(out)]) == 2
        manifest = json.loads((next(out.iterdir()) / "manifest.json").read_text())[0]
        assert manifest["status"] == "convergence-failure"
        assert "stage (eps=0.5, delta=0.5, m=6) failed" in manifest["error"]

    def test_data_error_exits_one_with_manifest(self, tmp_path, capsys):
        """A bump of g at 5.5 breaks the enlarged cost term on the truncation
        bridge of radius 6, which the sample radii 2.5 and 5 of validate
        miss: solve exits 1 with one stderr line and a manifest that names
        the failure."""
        text = resources.files("ctrlstop.configs").joinpath("bench_ou.cfg").read_text()
        lines = []
        for line in text.splitlines():
            if line.startswith("g = "):
                line += " + 2 * max(0, 1 - ((x1-5.5)/0.3)^2)^3"
            elif line.startswith("h = "):
                line = "h = 0"
            lines.append(line)
        p = tmp_path / "bridge_bump.cfg"
        p.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--config", str(p)]) == 0
        capsys.readouterr()
        out = tmp_path / "runs"
        argv = ["solve", "--config", str(p), "--grid", "6,121,50", "--schedule", "0.5,0.5,2"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("data error: negative radicand") and len(err.strip().splitlines()) == 1
        manifest = json.loads((next(out.iterdir()) / "manifest.json").read_text())[0]
        assert manifest["status"] == "data-error" and manifest["outputs"] == []
        assert manifest["error"].startswith("negative radicand in the enlarged cost term")


class TestSimulate:
    def test_const1_simulate_pipeline(self, const1_cfg, tmp_path):
        out = tmp_path / "runs"
        rc = main(
            [
                "solve",
                "--config",
                str(const1_cfg),
                "--schedule",
                "0.5,0.5,3",
                "--grid",
                "6,121,60",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        run_dir = next(out.iterdir())
        rc = main(
            [
                "simulate",
                "--config",
                str(const1_cfg),
                "--field",
                str(run_dir / "field_limit.npz"),
                "--start",
                "0,0",
                "--paths",
                "400",
                "--steps",
                "60",
                "--seed",
                "9",
                "--out",
                str(tmp_path / "sims"),
            ]
        )
        assert rc == 0
        sim_dir = next((tmp_path / "sims").iterdir())
        manifest = json.loads((sim_dir / "manifest.json").read_text())[0]
        est = manifest["estimate"]
        assert abs(est["mean"] - 1.0) < 5e-2
        # the path counts of the estimate reach the manifest and add up
        meta = est["metadata"]
        assert meta["stopped_paths"] + meta["horizon_paths"] + meta["rejected_paths"] == 400
        assert meta["pushed_path_substeps"] >= 0
        assert len(manifest["probes"]) == 12
        assert all(p["passed"] for p in manifest["probes"])
        # and so do each probe's
        for probe in manifest["probes"]:
            meta = probe["metadata"]
            assert meta["stopped_paths"] + meta["horizon_paths"] + meta["rejected_paths"] == 400
            assert meta["valid"] and 0.0 <= meta["exit_fraction"] <= 0.05
            assert meta["pushed_path_substeps"] >= 0
        idle = next(p for p in manifest["probes"] if p["name"] == "idle")
        assert idle["metadata"]["pushed_path_substeps"] == 0

    def test_probes_over_the_exit_budget_are_flagged(self, const1_cfg, tmp_path, capsys):
        # on a box of radius 2 many paths from 1.95 leave it, so the probes
        # that do not stop at once are invalid
        grid = Grid(d=1, m=2.0, nx=41, nt=10, T=0.3)
        save_field(tmp_path / "field.npz", GridField(grid, np.ones((11, 41))), 0.5, 0.5)
        out = tmp_path / "runs"
        argv = ["simulate", "--config", str(const1_cfg), "--field", str(tmp_path / "field.npz")]
        main(argv + ["--start", "0,1.95", "--paths", "40", "--steps", "20", "--out", str(out)])
        flagged = [line for line in capsys.readouterr().out.splitlines() if "over the 5% budget" in line]
        manifest = json.loads((next(out.iterdir()) / "manifest.json").read_text())[0]
        invalid = [p for p in manifest["probes"] if not p["metadata"]["valid"]]
        assert invalid and len(flagged) == len(invalid)
        assert all(p["metadata"]["exit_fraction"] > 0.05 for p in invalid)

    def test_invalid_estimate_exits_one(self, const1_cfg, tmp_path, capsys):
        # u = 2 > g + band everywhere, so tau_star never stops, and on a box
        # of radius 2 many paths from 1.95 leave it: the main estimate is
        # invalid, and the run is still written
        grid = Grid(d=1, m=2.0, nx=41, nt=10, T=0.3)
        save_field(tmp_path / "field.npz", GridField(grid, np.full((11, 41), 2.0)), 0.5, 0.5)
        out = tmp_path / "runs"
        argv = ["simulate", "--config", str(const1_cfg), "--field", str(tmp_path / "field.npz")]
        assert main(argv + ["--start", "0,1.95", "--paths", "40", "--steps", "20", "--out", str(out)]) == 1
        assert "run invalid: exit fraction" in capsys.readouterr().err
        meta = json.loads((next(out.iterdir()) / "manifest.json").read_text())[0]["estimate"]["metadata"]
        assert not meta["valid"] and meta["exit_fraction"] > 0.05

    def test_simulation_error_exits_one_without_a_run(self, const1_cfg, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise SimulationError("too many rejected paths")

        monkeypatch.setattr(cli, "simulate_paths", failing)
        grid = Grid(d=1, m=4.0, nx=41, nt=10, T=0.3)
        save_field(tmp_path / "field.npz", GridField(grid, np.ones((11, 41))), 0.5, 0.5)
        out = tmp_path / "runs"
        argv = ["simulate", "--config", str(const1_cfg), "--field", str(tmp_path / "field.npz")]
        assert main(argv + ["--paths", "40", "--steps", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["simulation failed: too many rejected paths"]
        assert not out.exists()


class TestBadArguments:
    """A bad argument value exits 3 with one stderr line, before any work and
    before a run directory exists."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--grid", "4,3,10"],
            ["solve", "--schedule", "0.5,0.5,0"],
            ["solve", "--grid", "4,many,10"],
            ["solve", "--schedule=-0.5,0.5,2"],
            ["solve", "--schedule=1.5,0.5,2"],
            ["solve", "--grid=-6,41,20"],
            ["solve", "--grid=1.5,41,20"],
            ["simulate", "--paths", "0", "--steps", "0"],
            ["simulate", "--paths", "1"],
            ["simulate", "--start=-1,0"],
            ["simulate", "--start=nan,0"],
            ["simulate", "--start=0,nan"],
            ["simulate", "--band", "nan"],
            ["simulate", "--allowance", "nan"],
            ["simulate", "--allowance=-1"],
            ["solve", "--grid", "4,41,20", "--schedule", "0.5,0.5,2", "--tol=-1"],
            ["solve", "--grid", "4,41,20", "--schedule", "0.5,0.5,2", "--tol", "nan"],
            ["solve", "--grid", "4,41,20", "--schedule", "0.5,0.5,2", "--tol-region", "nan"],
            ["solve", "--grid", "4,41,20", "--schedule", "0.5,0.5,2", "--tol-region=-1"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--seed", str(2**64)],
            ["solve", "--grid", "4,41.7,20", "--schedule", "0.5,0.5,2"],
            ["solve", "--grid", "4,41,20.5", "--schedule", "0.5,0.5,2"],
            ["solve", "--grid", "4,41,20", "--schedule", "0.5,0.5,2.9"],
            ["solve", "--grid", "4,inf,20", "--schedule", "0.5,0.5,2"],
            ["solve", "--grid", "4,41,20", "--schedule", "0.5,0.5,2", "--tol", "abc"],
            ["simulate", "--no-such-option"],
            ["simulate", "--paths", "many"],
            ["solve", "--grid", "6,601"],
        ],
        ids=[
            "grid-too-small",
            "empty-schedule",
            "grid-not-a-number",
            "non-monotone-schedule",
            "eps-above-one",
            "negative-radius",
            "radius-below-two",
            "zero-paths-steps",
            "one-path",
            "start-before-0",
            "nan-start-time",
            "nan-start-point",
            "nan-band",
            "nan-allowance",
            "negative-allowance",
            "negative-tol",
            "nan-tol",
            "nan-tol-region",
            "negative-tol-region",
            "negative-seed",
            "seed-past-64-bits",
            "fractional-nx",
            "fractional-nt",
            "fractional-stages",
            "infinite-nx",
            "tol-not-a-number",
            "unknown-option",
            "paths-not-an-integer",
            "grid-two-values",
        ],
    )
    def test_exits_three_without_a_run(self, argv, tmp_path, capsys):
        grid = Grid(d=1, m=4.0, nx=41, nt=10, T=0.3)
        save_field(tmp_path / "field.npz", GridField(grid, np.zeros((11, 41))), 0.5, 0.5)
        self._exits_three(argv, tmp_path, capsys)

    def test_field_radius_below_two_exits_three(self, tmp_path, capsys):
        # the data cannot be truncated on a box of radius 1.5
        grid = Grid(d=1, m=1.5, nx=31, nt=10, T=0.3)
        save_field(tmp_path / "field.npz", GridField(grid, np.zeros((11, 31))), 0.5, 0.5)
        self._exits_three(["simulate"], tmp_path, capsys)

    def test_out_under_a_file_exits_three(self, tmp_path, capsys):
        """The run directory cannot be made under a regular file: exit 3 with
        one I/O error line."""
        cfg = tmp_path / "const1.cfg"
        cfg.write_text(CONST1)
        (tmp_path / "file").write_text("")
        argv = ["solve", "--config", str(cfg), "--grid", "4,41,20", "--schedule", "0.5,0.5,2"]
        assert main(argv + ["--out", str(tmp_path / "file" / "runs")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and len(err.strip().splitlines()) == 1

    @staticmethod
    def _exits_three(argv, tmp_path, capsys):
        """Run argv on const1 (with tmp_path/field.npz for simulate) and check
        the exit code, the one stderr line and the missing run directory."""
        cfg = tmp_path / "const1.cfg"
        # small config defaults, so a run that ignores the bad values ends fast
        cfg.write_text(CONST1 + "simulate.paths = 40\nsimulate.steps = 5\n")
        out = tmp_path / "runs"
        extra = ["--field", str(tmp_path / "field.npz")] if argv[0] == "simulate" else []
        assert main(argv + extra + ["--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    # save_field's keys; each malformed archive below changes or drops one
    FIELD = dict(values=np.zeros((11, 41)), d=1, m=4.0, nx=41, nt=10, T=0.3, eps=0.5, delta=0.5)

    @pytest.mark.parametrize(
        "content",
        [
            b"\x00 not a field \xff" * 8,
            b"",
            b"PK\x03\x04 not a zip" * 8,
            np.zeros(3),
            {k: v for k, v in FIELD.items() if k != "delta"},
            {**FIELD, "nx": "many"},
            {**FIELD, "values": np.zeros((10, 41))},
            {**FIELD, "eps": 1.5},
            {**FIELD, "d": 2, "values": np.zeros((11, 41 * 41))},
            {**FIELD, "delta": 0.0},
            {**FIELD, "T": 0.0},
            {**FIELD, "T": 0.25},
            {**FIELD, "values": np.where(np.arange(41) == 20, np.nan, np.zeros((11, 41)))},
            {**FIELD, "values": np.full((11, 41), np.inf)},
        ],
        ids=[
            "garbage-bytes",
            "empty",
            "broken-zip",
            "npy-array",
            "missing-key",
            "nx-not-a-number",
            "wrong-shape",
            "eps-above-one",
            "2d-under-1d",
            "zero-delta",
            "zero-horizon",
            "other-horizon",
            "nan-node",
            "all-inf",
        ],
    )
    def test_malformed_field_exits_three(self, content, tmp_path, capsys):
        path = tmp_path / "field.npz"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif isinstance(content, np.ndarray):
            with open(path, "wb") as f:
                np.save(f, content)  # an .npy array under the .npz name
        else:
            np.savez(path, **content)
        self._exits_three(["simulate"], tmp_path, capsys)


class TestVerify:
    def test_clean_suite_exits_zero(self):
        assert main(["verify", "--cases", "4000"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [["--cases", "0"], ["--cases", "-5"], ["--seed", "-1"]],
        ids=["zero-cases", "negative-cases", "negative-seed"],
    )
    def test_bad_counts_exit_three_before_any_check(self, argv, monkeypatch, capsys):
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(verify, "run_invariant_suite", no_suite)
        assert main(["verify"] + argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_corrupted_bridge_detected(self, monkeypatch, capsys):
        class NonConvexPenalty(Penalty):
            """A penalty whose bridge has a negative second derivative."""

            def d2(self, y):
                return super().d2(y) - 0.5 / self.eps**2

        suite = functools.partial(verify.run_invariant_suite, pen_factory=NonConvexPenalty)
        monkeypatch.setattr(verify, "run_invariant_suite", suite)
        assert main(["verify", "--cases", "4000"]) == 1
        assert "[FAIL] penalty bridge" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_every_option_is_in_its_help():
    """No subcommand has a hidden option."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subparsers.choices.items():
        text = sub.format_help()
        options = [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        assert options, name
        for option in options:
            assert option in text, (name, option)
    assert sorted(o for a in subparsers.choices["verify"]._actions for o in a.option_strings) == [
        "--cases",
        "--help",
        "--seed",
        "-h",
    ]


class TestObstacleOracleCrossLink:
    PURESTOP = """
dim = 1
horizon = 0.5
rate = 0.05
drift[1] = -x1
sigma[1][1] = 1
f = 1000
g = 0.6 * max(0, 1 - (x1/4.5)^2)^3
h = 1.5 * max(0, 1 - ((x1-1.5)/0.6)^2)^3 + 1.5 * max(0, 1 - ((x1+1.5)/0.6)^2)^3
sample_plan.radii = 2.5, 5
sample_plan.counts = 1025, 1025
sample_plan.rng_seed = 11
"""

    def test_manifest_records_oracle_gap(self, tmp_path):
        p = tmp_path / "purestop.cfg"
        p.write_text(self.PURESTOP)
        out = tmp_path / "runs"
        rc = main(
            [
                "solve",
                "--config",
                str(p),
                "--schedule",
                "0.5,0.5,6",
                "--grid",
                "6,151,250",
                "--out",
                str(out),
                "--obstacle-oracle",
            ]
        )
        assert rc == 0
        run_dir = next(out.iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())[0]
        assert manifest["obstacle_oracle_gap"] is not None
        assert manifest["obstacle_oracle_gap"] <= 1e-2
        assert "cfl" in manifest["grid"] and "sample_plan" in manifest["seeds"]
