"""Run workloads over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --seeds 1-10 [--workloads solve_ou,mc_saddle] [--update-reference]

For every end-to-end metric it prints the median of the runs and the spread,
the distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json.  --update-reference stores the
fingerprints of these runs (and of each workload's default seed) in
perfbench/reference.json, the values later runs report their drift from.  For
the Monte Carlo workloads it also stores each estimate's mean pooled over the
given seeds, which every round checks its estimates against.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
        print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}, all correct: {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            ok = s < bound / 3
            steady &= ok
            print(f"  {name:12s} median {statistics.median(values):12.6g}  spread {s:7.4f}  "
                  f"bound {bound}  {'ok' if ok else 'TOO WIDE'}")
        if args.update_reference:
            update_reference(workload, seeds)
    return 0 if steady else 1


def update_reference(workload: str, seeds: list[int]) -> None:
    path = run.REFERENCE
    refs = json.loads(path.read_text()) if path.is_file() else {}
    entry = refs.setdefault(workload, {})
    wl = WORKLOADS[workload]
    pooled_seeds = seeds
    if not wl.seed_keys_plan:
        run_once(workload, wl.default_seed, 0)
        seeds = seeds + [wl.default_seed]
    for seed in seeds:
        result = json.loads((run.OUT / "results" / f"{workload}_seed{seed}_trace0.json").read_text())
        entry["any" if wl.seed_keys_plan else str(seed)] = result["fingerprint"]
    if not wl.seed_keys_plan:
        entry["pooled"] = pool([entry[str(seed)] for seed in pooled_seeds])
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def pool(fingerprints: list[dict]) -> dict:
    """Mean and standard error, pooled over independent seeds, of every
    [mean, standard error] pair of the fingerprints."""
    n = len(fingerprints)
    return {
        key: [sum(fp[key][0] for fp in fingerprints) / n, math.sqrt(sum(fp[key][1] ** 2 for fp in fingerprints)) / n]
        for key, value in fingerprints[0].items()
        if isinstance(value, list) and len(value) == 2
    }


if __name__ == "__main__":
    run.import_program()
    from workloads import WORKLOADS

    sys.exit(main())
