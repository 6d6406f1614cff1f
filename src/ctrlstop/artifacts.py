"""Run artifacts: field CSV dumps, region maps as plain PGM (P2), and the
append-only run manifest with content digests.

Runs live in one directory each, named by config hash + timestamp; files are
never overwritten.  Re-running with the same config and seeds reproduces
byte-identical CSV/PGM output (fixed float formatting, fixed ordering).
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from .grid import GridField
from .solver import VIReport

__all__ = [
    "config_digest",
    "make_run_dir",
    "write_field_csv",
    "write_region_pgms",
    "write_manifest",
    "file_digest",
]


def config_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def make_run_dir(out_root, digest: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(out_root) / f"{digest}-{stamp}"
    run_dir = base
    counter = 0
    while run_dir.exists():
        counter += 1
        run_dir = Path(f"{base}-{counter}")
    run_dir.mkdir(parents=True)
    return run_dir


def _decimated(nt: int, every: int) -> list[int]:
    """Every `every`-th time level, with level 0 and the terminal level nt."""
    return sorted(set(range(0, nt + 1, max(1, every))) | {0, nt})


def write_field_csv(
    path,
    field: GridField,
    report: VIReport,
    every: int = 1,
) -> None:
    """Dump nodal values with header
    t, x1[, x2], u, ux1[, ux2], residual_minmax, residual_maxmin, inC, inI.

    `every` decimates time levels (level 0 and the terminal level always
    included)."""
    grid = field.grid
    d = grid.d
    cols = ["t", "x1"] + (["x2"] if d == 2 else [])
    cols += ["u", "ux1"] + (["ux2"] if d == 2 else [])
    cols += ["residual_minmax", "residual_maxmin", "inC", "inI"]
    pts = grid.points()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k in _decimated(grid.nt, every):
            t = float(grid.times[k])
            u = field.values[k]
            gr = field.nodal_gradient(k).reshape(d, -1)
            rmm = report.residual_minmax.values[k]
            rms = report.residual_maxmin.values[k]
            in_c = report.region_C[k].astype(int)
            in_i = report.region_I[k].astype(int)
            for j in range(grid.n_nodes):
                row = [f"{t:.17g}"] + [f"{pts[i, j]:.17g}" for i in range(d)]
                row.append(f"{u[j]:.17g}")
                row += [f"{gr[i, j]:.17g}" for i in range(d)]
                row += [f"{rmm[j]:.17g}", f"{rms[j]:.17g}", str(in_c[j]), str(in_i[j])]
                fh.write(",".join(row) + "\n")


def write_region_pgms(out_dir, report: VIReport, every: int = 1) -> list[Path]:
    """One P2 image per (decimated) time slice; values 0 stop, 1 band,
    2 continuation, using the report's region masks."""
    grid = report.residual_minmax.grid
    out = []
    for k in _decimated(grid.nt, every):
        codes = np.zeros(grid.n_nodes, dtype=int)
        codes[report.band[k]] = 1
        codes[report.region_C[k]] = 2
        img = codes.reshape(grid.shape)
        if grid.d == 1:
            img = img[None, :]
        path = Path(out_dir) / f"regions_t{k:06d}.pgm"
        with open(path, "w") as fh:
            fh.write("P2\n")
            fh.write(f"{img.shape[1]} {img.shape[0]}\n2\n")
            for row in img:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")
        out.append(path)
    return out


def write_manifest(run_dir, payload: dict) -> Path:
    """Write manifest.json; output files gain content digests.  Appends
    (never rewrites) if a manifest already exists in the run directory."""
    run_dir = Path(run_dir)
    outputs = []
    for name in sorted(os.listdir(run_dir)):
        p = run_dir / name
        if p.is_file() and name != "manifest.json":
            outputs.append({"file": name, "sha256_16": file_digest(p)})
    payload = dict(payload)
    payload["outputs"] = outputs
    manifest_path = run_dir / "manifest.json"
    entries = []
    if manifest_path.exists():
        entries = json.loads(manifest_path.read_text())
        if not isinstance(entries, list):
            entries = [entries]
    entries.append(payload)
    manifest_path.write_text(json.dumps(entries, indent=2, sort_keys=True))
    return manifest_path
