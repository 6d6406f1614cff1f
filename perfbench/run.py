"""Run one ctrlstop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve_ou --seed 1 --seconds 8 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.  A
run sets the workload up SETUP_REPEATS times, then runs whole rounds until
about ``--seconds`` have passed.  ``--trace 1`` wraps the program's public
functions in spans and reports per-layer metrics instead of the end-to-end
ones.  Human-readable lines go first; the last line of standard output is
the JSON result.  The full result, with machine info and the output
fingerprint, is written to ``perfbench/out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_program():
    """Import ctrlstop from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "ctrlstop" / "__init__.py").is_file():
        raise ImportError(f"no ctrlstop sources under {src}")
    sys.path.insert(0, str(src))
    import ctrlstop

    if Path(ctrlstop.__file__).resolve().parent != src / "ctrlstop":
        raise ImportError(f"ctrlstop imported from {ctrlstop.__file__}, not from {src}")
    return ctrlstop


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
    }


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), float(obj)


def fingerprint_drift(workload, seed: int, fingerprint: dict) -> dict:
    """Largest absolute and relative difference from the stored reference.
    Informational only: nothing is gated on it."""
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key = "any" if workload.seed_keys_plan else str(seed)
    ref = refs.get(workload.name, {}).get(key)
    if ref is None:
        return {"reference": None}
    mine, theirs = dict(_leaves(fingerprint)), dict(_leaves(ref))
    if mine.keys() != theirs.keys():
        return {"reference": key, "matches_keys": False}
    abs_d = max(abs(mine[k] - theirs[k]) for k in mine)
    rel_d = max(abs(mine[k] - theirs[k]) / max(abs(theirs[k]), 1e-300) for k in mine)
    return {"reference": key, "identical": abs_d == 0.0, "max_abs": abs_d, "max_rel": rel_d}


def run_workload(name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    """Set up and measure one workload; return the full result record."""
    import layers
    import spans
    from workloads import WORKLOADS, Clock, Round

    wl = WORKLOADS[name]
    seed = wl.default_seed if seed is None else seed
    tracer = spans.Tracer(layers.HOOKS) if trace else None
    clock = Clock(checkpoints=not trace)
    setups, setup_windows, rounds = [], [], []
    if tracer:
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            out = Round(clock)
            start = time.perf_counter()
            state = wl.setup(seed, out)
            setup_windows.append((start, time.perf_counter()))
            setups.append(out)
        if tracer:
            tracer.counters.clear()
        t0 = time.perf_counter()
        while True:
            out = Round(clock)
            start = time.perf_counter()
            try:
                wl.round(state, out)
            except Exception:  # a failing operation fails the rest of its round
                out.failures.append(traceback.format_exc(limit=3))
                out.failed = wl.ops - (out.attempted - out.failed)
                out.attempted = wl.ops
            if out.attempted != wl.ops:
                raise RuntimeError(f"{name}: round made {out.attempted} operations, expected {wl.ops}")
            rounds.append(out)
            if time.perf_counter() - t0 + (time.perf_counter() - start) / 2 >= seconds:
                break
        measure_window = (t0, time.perf_counter())
    finally:
        if tracer:
            tracer.restore()

    attempted = sum(r.attempted for r in setups + rounds)
    failed = sum(r.failed for r in setups + rounds)
    failures = [f for r in setups + rounds for f in r.failures]
    if any(r.fingerprint != rounds[0].fingerprint for r in rounds):
        failed += 1
        failures.append("rounds of one run gave different outputs")
    quality = {k: v for r in rounds for k, v in r.quality.items()}
    quality["failed_frac"] = failed / attempted
    # Rounds cut short by a failure lack some operations; time the full ones.
    template = max(rounds, key=lambda r: len(r.scaled))
    complete = [r for r in rounds if r.scaled.keys() == template.scaled.keys()]
    work = template.work

    def summarize(kind: str) -> dict:
        per_op = {op: statistics.median(getattr(r, kind)[op] for r in complete) for op in work}
        work_s = sum(per_op[op] for op in work if work[op])
        return {
            "wall_s": sum(per_op.values()),
            "work_per_s": sum(work.values()) / work_s if work_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(sum(getattr(r, kind).values()) for r in setups),
        }

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": summarize("scaled"),
        "end_to_end_raw": summarize("raw"),
        "work_unit": wl.work_unit,
        "work_per_round": sum(work.values()),
        "rounds": len(rounds),
        "op_raw_s": {op: [r.raw.get(op) for r in rounds] for op in work},
        "op_scaled_s": {op: [r.scaled.get(op) for r in rounds] for op in work},
        "setup_raw_s": [r.raw for r in setups],
        "quality": quality,
        "fingerprint": rounds[0].fingerprint,
        "fingerprint_drift": fingerprint_drift(wl, seed, rounds[0].fingerprint),
        "machine": machine_info(),
    }
    if tracer:
        record["per_layer"] = layers.layer_metrics(tracer, setup_windows, measure_window, len(rounds))
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "traces" / f"{name}_seed{seed}.npz")
        untraced = OUT / "results" / f"{name}_seed{seed}_trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]["wall_s"]
            record["trace_overhead_s"] = record["end_to_end"]["wall_s"] - base
    return record


def write_result(record: dict) -> Path:
    path = OUT / "results" / f"{record['workload']}_seed{record['seed']}_trace{record['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def summary_line(record: dict) -> dict:
    """The result line: end-to-end metrics untraced, per-layer metrics traced."""
    import layers

    if record["trace"]:
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in record["end_to_end"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="solve_ou, solve_purestop, mc_identity or mc_saddle")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the criterion's)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_result(record)
    print(f"workload {record['workload']} seed {record['seed']}: {record['rounds']} round(s), "
          f"{record['work_per_round']:.0f} {record['work_unit']} per round; result {path.relative_to(ROOT)}")
    for k, v in record["end_to_end"].items():
        print(f"  {k} = {v:.6g} {END_TO_END_UNITS[k]}")
    for k, v in record["quality"].items():
        print(f"  {k} = {v:.6g}")
    print(f"  fingerprint drift: {record['fingerprint_drift']}")
    if "trace_overhead_s" in record:
        print(f"  tracing overhead = {record['trace_overhead_s']:.4g} s per round")
    for failure in record["failures"]:
        print(f"  FAILED {failure.strip()}")
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
