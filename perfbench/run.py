"""Benchmark of the cubeforms pipeline on three 3D workloads.

Run from the repository root:

    python3 perfbench/run.py --workload probe-3d --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each workload runs in a fresh process, so the library's caches start
cold.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a longer
record, with the environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NAMES = ("study-3d", "probe-3d", "highorder-3d")

#: One BLAS thread: the dense blocks are small, and a second thread only
#: adds contention on a shared two-core machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "sup_error": "1",
}

# Per-layer metrics: additive figures are summed over set-up and one
# round (the mean of the traced rounds); the rest are computed from them.
RATIOS = {
    "mesh.dedup_ratio": ("mesh.global_cubes", "mesh.cube_instances"),
    "interp.locate_hit_ratio": ("interp.located_points", "interp.pulled_back_points"),
}
PER_LAYER_UNITS = {
    "mesh.structured_mesh_s": "s",
    "mesh.validate_s": "s",
    "mesh.refine_s": "s",
    "mesh.cube_instances": "count",
    "mesh.global_cubes": "count",
    "mesh.dedup_ratio": "1",
    "mesh.coboundary_matrix_s": "s",
    "mesh.coboundary_nnz": "count",
    "smallcubes.enumerate_calls": "count",
    "smallcubes.enumerate_s": "s",
    "smallcubes.from_geometry_calls": "count",
    "dof.assemble_s": "s",
    "dof.solver_build_s": "s",
    "dof.solve_s": "s",
    "dof.solve_calls": "count",
    "dof.solve_columns": "count",
    "dof.local_size": "count",
    "forms.basis_stack_s": "s",
    "forms.polyforms_built": "count",
    "forms.polyform_eval_s": "s",
    "forms.polyform_eval_calls": "count",
    "forms.exterior_derivative_s": "s",
    "catalog.form_eval_s": "s",
    "catalog.form_eval_points": "count",
    "interp.de_rham_s": "s",
    "interp.quad_points": "count",
    "interp.interpolate_s": "s",
    "interp.evaluate_s": "s",
    "interp.evaluate_points": "count",
    "interp.pullbacks": "count",
    "interp.locate_hit_ratio": "1",
    "interp.verify_identities_s": "s",
    "interp.round_trip_err": "1",
    "interp.reconstruction_err": "1",
    "interp.commutation_err": "1",
    "mesh.self_s": "s",
    "smallcubes.self_s": "s",
    "dof.self_s": "s",
    "forms.self_s": "s",
    "quadrature.self_s": "s",
    "catalog.self_s": "s",
    "interp.self_s": "s",
    "trace.outside_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Figures that must repeat exactly from one traced round to the next.
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="time one cold set-up and print it"
    )
    return parser.parse_args(argv)


def import_library():
    """Import cubeforms from this checkout's src/, never from elsewhere."""
    if not (SRC / "cubeforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no cubeforms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubeforms

    if Path(cubeforms.__file__).resolve().parent != SRC / "cubeforms":
        raise SystemExit(f"error: imported cubeforms from {cubeforms.__file__}")


def child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)


def cold_setup(args) -> float:
    """One set-up in a fresh interpreter, whose caches are cold."""
    out = child(args, "--workload", args.workload, "--setup-only")
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = out.stdout.strip() or None
        except OSError:  # no git program
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source_fingerprint(),
    }


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubeforms").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_rounds(workload, seconds: float, tracer):
    """Repeat rounds for ``seconds``; with a tracer, alternate untraced/traced.

    Returns the untraced and the traced clocks.  A run makes at least
    the workload's ``min_rounds``, and a traced run at least two traced
    rounds, so their counts can be compared.
    """
    from workloads import Clock

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        clock = Clock(tracer if trace_this else None, run_id=len(traced) + 1)
        workload.run_round(clock)
        (traced if trace_this else plain).append(clock)
        done = time.perf_counter() - start >= seconds
        done = done and len(plain) + len(traced) >= workload.min_rounds
        if done and (tracer is None or len(traced) >= 2):
            return plain, traced


def latency_ms(plain) -> dict:
    latencies = [t for clock in plain for t in clock.latencies]
    out = {f"p{q}": 1e3 * percentile(latencies, q / 100) for q in (50, 90)}
    out["samples"] = len(latencies)
    return out


def round_s(clocks) -> float:
    """Mean time of a round: the run's timed time over its rounds.

    On a shared two-core VM the host's speed switches between levels up
    to 1.9x apart, in stretches of 5-20 s, and the mix of levels differs
    from run to run.  The fastest, median or upper-quartile round each
    jump when a run catches one level more or less; the mean moves only
    in proportion.  README.md gives the measurements.
    """
    return statistics.fmean(clock.total for clock in clocks)


def end_to_end(plain, setups, rss_mb, sup_error) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "run_s": round_s(plain),
        "peak_rss_mb": rss_mb,
        "sup_error": sup_error,
    }


def per_layer(tracer, plain, traced, checks) -> dict:
    setup = tracer.run_figures(0)
    rounds = [tracer.run_figures(clock.run_id) for clock in traced]
    for name in COUNTS:
        if name in rounds[0]:
            same = all(r[name] == rounds[0][name] for r in rounds)
            checks.check(same, f"{name} repeats between traced rounds")
    out = {name: setup[name] + statistics.fmean(r[name] for r in rounds) for name in setup}
    for name in COUNTS:
        if name in out and float(out[name]).is_integer():
            out[name] = int(out[name])
    extremes = [tracer.run_extremes(i) for i in range(len(traced) + 1)]
    for name in extremes[0]:
        out[name] = max(e[name] for e in extremes)
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    out["trace.pass_s"] = out.pop("trace.section_s")
    out["trace.overhead_s"] = round_s(traced) - round_s(plain)
    return {name: out[name] for name in PER_LAYER_UNITS}


def check_counts_repeat(checks, workload: str, seed: int, fingerprint: str, figures) -> None:
    """Compare counts with an earlier traced run of the same code and seed."""
    counts = {name: figures[name] for name in COUNTS}
    path = RESULTS / f"counts-{workload}-seed{seed}-{fingerprint[:16]}.json"
    if path.exists():
        before = json.loads(path.read_text())
        checks.check(before == counts, f"counts repeat the earlier run in {path.name}")
    else:
        path.write_text(json.dumps(counts, indent=1) + "\n")


def run_workload(args) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS, Checks

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, checks)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(0)
    start = time.perf_counter()
    workload.setup()
    end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_s": end - start}))
        return 0
    if tracer:
        tracer.uninstall()
        tracer.record_section(start, end)
    setups = [end - start]
    workload.prepare()
    plain, traced = run_rounds(workload, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.final_checks()

    env = environment(args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        values = per_layer(tracer, plain, traced, checks)
        units = PER_LAYER_UNITS
        check_counts_repeat(checks, args.workload, args.seed, env["source_sha256"], values)
        tracer.save(RESULTS / f"{stem}-spans.npz")
    else:
        setups += [cold_setup(args) for _ in range(workload.setup_samples - 1)]
        values = end_to_end(plain, setups, rss_mb, workload.sup_error)
        units = END_TO_END_UNITS
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "round_s": [clock.total for clock in plain],
        "round_min_s": min(clock.total for clock in plain),
        "round_median_s": statistics.median(clock.total for clock in plain),
        "round_max_s": max(clock.total for clock in plain),
        "setup_samples_s": setups,
        "eval_ms": latency_ms(plain),
        "failed_ops": checks.failed / checks.attempted,
        "failures": dict(checks.failures),
        "known_defects": dict(checks.known_defects),
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for what, n in {**checks.failures, **checks.known_defects}.items():
        tag = "known defect" if what in checks.known_defects else "FAILED"
        print(f"{tag} x{n}: {what}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, printed as one table."""
    results = {}
    for name in NAMES:
        out = child(args, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace))
        sys.stderr.write(out.stderr)
        results[name] = json.loads(out.stdout.splitlines()[-1])
    for name, res in results.items():
        record = json.loads((RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        rows = [(metric, v["value"], v["unit"]) for metric, v in res["metrics"].items()]
        rows.append(("failed_ops", record["failed_ops"], "1"))
        if not args.trace:
            latency = record["eval_ms"]
            rows += [(f"eval_{q}_ms", latency[q], "ms") for q in ("p50", "p90")]
            rows += [("eval_samples", latency["samples"], "count")]
            rows += [(f"round_{q}_s", record[f"round_{q}_s"], "s") for q in ("min", "median")]
        for metric, value, unit in rows:
            print(f"  {metric:32s} {value:.6g} {unit}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": v for name, r in results.items() for metric, v in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    import_library()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
