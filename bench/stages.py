"""Stage bench: each stage of the cubeforms pipeline timed on its own.

Run from the repository root, with the library on the path:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/stages.py --out BENCH_<n>.json

Per workload (mesh, order k, degree p, point count) it times, in pipeline
order, ``refine``, analytic ``de_rham``, ``interpolate``, ``de_rham`` of
the interpolant on its own mesh, ``locate``, unpinned ``evaluate``,
``evaluate_reference`` at the located cells and reference points (the
per-point kernel behind ``evaluate``, split from location), pinned
``evaluate`` and one ``verify_identities`` trial.  A mesh remembers the
batches it has located, so ``locate`` and ``evaluate`` run each call on the
points in a new order, which the mesh has not located before, and
``locate_repeat`` and ``evaluate_repeat`` time the same batch again and
again, as a time-stepper's fixed probes repeat it (``evaluate`` keeps its own
entry, so the cold call of ``evaluate_repeat`` locates the batch once more).
``step`` is one step of
such a time-stepper, as the ``probe-3d`` benchmark workload times it: it
interpolates a new multiple of the cochain and evaluates the repeated batch
(each call draws its own amplitude).  For each stage it
records the cold first call, the median and quartiles of warm repeats,
sizes, the ``tracemalloc`` peak of one more call and a SHA-256 digest of
the outputs, so that a change can show its outputs did not move.  The
JSON also records the environment.  Only the public API is used, so the
same script times any revision of the library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import cubeforms as cf

ROOT = Path(__file__).resolve().parents[1]

#: Warm repeats per stage: enough to fill about REPEAT_BUDGET_S seconds,
#: within these bounds.
MIN_REPEATS, MAX_REPEATS = 5, 200
REPEAT_BUDGET_S = 1.0
#: Cells that pinned evaluation visits, each at the 64-point grid below.
PINNED_CELLS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    subdivisions: int
    order: int
    degree: int
    points: int
    shear: float = 0.3
    seed: int = 0


#: The three baseline rows of ROADMAP.md and the mesh of the probe-3d workload.
WORKLOADS = (
    Workload("2d-m64-k2-p1", 2, 64, 2, 1, 2000),
    Workload("3d-m24-k2-p1", 3, 24, 2, 1, 2000),
    Workload("3d-m24-k2-p2", 3, 24, 2, 2, 2000),
    Workload("probe-3d-m8-k2-p1", 3, 8, 2, 1, 200),
)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _values_digest(values: dict) -> str:
    return _digest(*(values[dirs] for dirs in sorted(values)))


def _new_orders(points, seed) -> Iterator[np.ndarray]:
    """The points in a new order for every call one stage can make, drawn from ``seed``:
    the same work in each call, on bytes that no call has located before."""
    rng = np.random.default_rng(seed)
    return iter([points.take(rng.permutation(len(points)), axis=0) for _ in range(MAX_REPEATS + 2)])


def _amplitudes(seed) -> Iterator[float]:
    """An amplitude in [0.5, 2) for every call one stage can make, drawn from ``seed``."""
    return iter(np.random.default_rng(seed).uniform(0.5, 2.0, MAX_REPEATS + 2))


def _time_stage(call, digest) -> tuple[dict, object]:
    """Cold call, warm repeats and one traced call of ``call``; returns (record, output)."""
    start = time.perf_counter()
    out = call()
    cold = time.perf_counter() - start
    repeats = int(min(MAX_REPEATS, max(MIN_REPEATS, REPEAT_BUDGET_S // max(cold, 1e-6))))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    q1, median, q3 = statistics.quantiles(times, n=4)
    record = {
        "cold_s": cold,
        "median_s": median,
        "q1_s": q1,
        "q3_s": q3,
        "repeats": repeats,
        "tracemalloc_peak_bytes": peak,
        "digest": digest(out),
    }
    return record, out


def run_workload(w: Workload) -> dict:
    """Every stage of one workload, in pipeline order."""
    n, k, p = w.dimension, w.order, w.degree
    rng = np.random.default_rng(w.seed)
    mesh = cf.structured_mesh(n, w.subdivisions, shear=w.shear)
    degrees = (p, p + 1) if p < n else (p,)
    form = cf.get_form(f"sin{n}d-{p}")
    cells = rng.integers(0, mesh.n_cells, w.points)
    # one point per cell: map_points takes (..., s, n), so each point gets its own axis
    points = mesh.map_points(rng.random((w.points, n))[:, None], cells)[:, 0]
    grid = (np.indices((4,) * n).reshape(n, -1).T + 0.5) / 4
    pinned = range(min(PINNED_CELLS, mesh.n_cells))
    grids = [mesh.map_points(grid, [c])[0] for c in pinned]

    stages = {}
    stages["refine"], refined = _time_stage(
        lambda: cf.refine(mesh, k, degrees=degrees),
        lambda r: _digest(*(a for d in degrees for a in (r.cell_tables[d], r.cell_signs[d]))),
    )
    stages["de_rham"], cochain = _time_stage(
        lambda: cf.de_rham(form, refined), lambda c: _digest(c.values)
    )
    stages["interpolate"], approx = _time_stage(
        lambda: cf.interpolate(cochain, refined),
        lambda a: _digest(*(a.coefficients[dirs] for dirs in sorted(a.coefficients))),
    )
    stages["de_rham_pw"], _ = _time_stage(
        lambda: cf.de_rham(approx, refined), lambda c: _digest(c.values)
    )
    locate_orders = _new_orders(points, [w.seed, 1])
    stages["locate"], _ = _time_stage(
        lambda: mesh.locate(next(locate_orders)), lambda out: _digest(out[0], out[1])
    )
    stages["locate_repeat"], (located, ref) = _time_stage(
        lambda: mesh.locate(points), lambda out: _digest(out[0], out[1])
    )
    evaluate_orders = _new_orders(points, [w.seed, 2])
    stages["evaluate"], _ = _time_stage(
        lambda: approx.evaluate(next(evaluate_orders)), _values_digest
    )
    stages["evaluate_repeat"], _ = _time_stage(lambda: approx.evaluate(points), _values_digest)
    amplitudes = _amplitudes([w.seed, 3])

    def step():
        field = cf.interpolate(cf.Cochain(p, next(amplitudes) * cochain.values), refined)
        return field.evaluate(points)

    stages["step"], _ = _time_stage(step, _values_digest)
    stages["evaluate_reference"], _ = _time_stage(
        lambda: approx.evaluate_reference(located, ref), _values_digest
    )
    stages["evaluate_pinned"], _ = _time_stage(
        lambda: [approx.evaluate(g, cell=c) for c, g in zip(pinned, grids)],
        lambda outs: _digest(*(v[dirs] for v in outs for dirs in sorted(v))),
    )
    stages["verify_identities"], _ = _time_stage(
        lambda: cf.verify_identities(refined, p, trials=1, samples=200, rng=w.seed),
        lambda r: _digest(
            [r.round_trip_error, r.reconstruction_error, r.commutation_error or 0.0]
        ),
    )
    sizes = {
        "cells": mesh.n_cells,
        "points": w.points,
        "pinned_points": len(grids) * len(grid),
        "small_cubes": {str(d): refined.count(d) for d in degrees},
        "coboundary_nnz": {str(p): int(refined.coboundary_matrix(p).nnz)} if p < n else {},
    }
    return {"workload": asdict(w), "sizes": sizes, "stages": stages}


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_CORETYPE")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "cubeforms": getattr(cf, "__version__", None),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_env": {name: os.environ.get(name) for name in blas_vars},
        "commit": _git("rev-parse", "HEAD"),
        # uncommitted changes to tracked files: the numbers are not the commit's
        "dirty": None if status is None else bool(status),
    }


def run() -> dict:
    return {"environment": environment(), "workloads": [run_workload(w) for w in WORKLOADS]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    record = run()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for result in record["workloads"]:
        for stage, r in result["stages"].items():
            print(
                f"{result['workload']['name']:18s} {stage:18s} cold {1e3 * r['cold_s']:9.3f} ms"
                f"  median {1e3 * r['median_s']:9.3f} ms  [{1e3 * r['q1_s']:.3f}, "
                f"{1e3 * r['q3_s']:.3f}]  peak {r['tracemalloc_peak_bytes'] / 2**20:7.2f} MiB"
                f"  {r['digest'][:12]}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
