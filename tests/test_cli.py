import json
from importlib import resources
from pathlib import Path

import pytest

from ctrlstop.artifacts import file_digest
from ctrlstop.cli import main

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

    def test_unknown_key_exits_three(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONST1 + "\nwhatever = 3\n")
        assert main(["validate", "--config", str(p)]) == 3

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
        names = {o["file"] for o in manifest["outputs"]}
        assert "field_limit.csv" in names and "field_limit.npz" in names
        assert any(n.endswith(".pgm") for n in names)

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
        assert len(manifest["probes"]) == 12
        assert all(p["passed"] for p in manifest["probes"])


class TestVerify:
    def test_clean_suite_exits_zero(self):
        assert main(["verify", "--cases", "4000"]) == 0

    def test_corrupted_bridge_detected(self):
        assert main(["verify", "--cases", "4000", "--selftest-corrupt-psi"]) == 1


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
