"""Smoke test of the stage bench at a tiny size: its keys and digests, never its timings."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import cubeforms as cf

STAGES_PY = Path(__file__).resolve().parents[1] / "bench" / "stages.py"
STAGES = [
    "refine",
    "de_rham",
    "interpolate",
    "de_rham_pw",
    "locate",
    "locate_repeat",
    "evaluate",
    "evaluate_repeat",
    "step",
    "evaluate_reference",
    "evaluate_pinned",
    "verify_identities",
]
RECORD = ["cold_s", "median_s", "q1_s", "q3_s", "repeats", "tracemalloc_peak_bytes", "digest"]


@pytest.fixture
def stages(monkeypatch):
    spec = importlib.util.spec_from_file_location("stages", STAGES_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "stages", module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPEAT_BUDGET_S", 0.0)  # the fewest repeats
    tiny = module.Workload("tiny-2d", 2, 2, 2, 1, 12)
    monkeypatch.setattr(module, "WORKLOADS", (tiny,))
    return module


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def test_stage_bench_writes_every_stage_with_the_outputs_digests(stages, tmp_path):
    out = tmp_path / "bench.json"
    assert stages.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert {"python", "numpy", "scipy", "nproc", "blas_env", "commit", "dirty"} <= set(
        record["environment"]
    )
    (result,) = record["workloads"]
    assert result["workload"]["name"] == "tiny-2d"
    assert result["sizes"] == {
        "cells": 4,
        "points": 12,
        "pinned_points": 4 * 16,
        "small_cubes": {"1": cf.small_cube_count(2, 1, 4), "2": cf.small_cube_count(2, 2, 4)},
        "coboundary_nnz": {"1": 4 * cf.small_cube_count(2, 2, 4)},
    }
    assert list(result["stages"]) == STAGES
    for stage in result["stages"].values():
        assert list(stage) == RECORD
        assert stage["repeats"] == stages.MIN_REPEATS

    # the digests, recomputed here through the public API with the bench's draws
    digests = {name: stage["digest"] for name, stage in result["stages"].items()}
    rng = np.random.default_rng(0)
    mesh = cf.structured_mesh(2, 2, shear=0.3)
    cells = rng.integers(0, mesh.n_cells, 12)
    points = mesh.map_points(rng.random((12, 2))[:, None], cells)[:, 0]
    refined = cf.refine(mesh, 2, degrees=(1, 2))
    tables = [a for d in (1, 2) for a in (refined.cell_tables[d], refined.cell_signs[d])]
    assert digests["refine"] == _sha(*tables)
    cochain = cf.de_rham(cf.get_form("sin2d-1"), refined)
    assert digests["de_rham"] == _sha(cochain.values)
    approx = cf.interpolate(cochain, refined)
    assert digests["interpolate"] == _sha(*(approx.coefficients[d] for d in [(0,), (1,)]))
    assert digests["de_rham_pw"] == _sha(cf.de_rham(approx, refined).values)
    # the timed stages run each call on a new order of the points, whose first is checked
    assert digests["locate"] == _sha(*mesh.locate(next(stages._new_orders(points, [0, 1]))))
    located, ref = mesh.locate(points)
    assert np.array_equal(located, cells)
    assert digests["locate_repeat"] == _sha(located, ref)
    values = approx.evaluate(next(stages._new_orders(points, [0, 2])))
    assert digests["evaluate"] == _sha(values[(0,)], values[(1,)])
    values = approx.evaluate(points)
    assert digests["evaluate_repeat"] == digests["evaluate_reference"] == _sha(values[(0,)], values[(1,)])
    # a step interpolates the first of its amplitudes' multiples of the cochain
    amplitude = next(stages._amplitudes([0, 3]))
    values = cf.interpolate(cf.Cochain(1, amplitude * cochain.values), refined).evaluate(points)
    assert digests["step"] == _sha(values[(0,)], values[(1,)])
    report = cf.verify_identities(refined, 1, trials=1, samples=200, rng=0)
    errors = [report.round_trip_error, report.reconstruction_error, report.commutation_error]
    assert digests["verify_identities"] == _sha(errors)
