"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines on
success; on failure they appear in the captured output.
"""

import math
from itertools import combinations

import numpy as np
from scipy.integrate import quad

from cubeforms.combinatorics import enumerate_faces
from cubeforms.dof import (
    check_unisolvence,
    dof_value_exact,
    integral_1d,
)
from cubeforms.forms import basis_grid_stack, direction_tuples
from cubeforms.catalog import get_form
from cubeforms.interp import (
    coboundary,
    de_rham,
    interpolate,
    verify_identities,
)
from cubeforms.mesh import refine, structured_mesh
from cubeforms.smallcubes import enumerate_small_cubes

from helpers import coefficient_norms, trace_mismatch


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_dimension_formula():
    worst = None
    for n in range(1, 5):
        for k in range(1, 5):
            total = 0
            for p in range(n + 1):
                enumerated = len(enumerate_small_cubes(n, p, k))
                formula = math.comb(n, p) * k**p * (k + 1) ** (n - p)
                total += enumerated
                if enumerated != formula:
                    worst = (n, p, k, enumerated, formula)
            if total != (2 * k + 1) ** n:
                worst = (n, "total", k, total, (2 * k + 1) ** n)
    _report(
        1,
        worst is None,
        "enumerated small-cube counts match the closed-form dimensions "
        f"for n<=4, k<=4 (first mismatch: {worst})",
    )


def test_criterion_2_closed_form_integrals():
    worst = 0.0
    for m in range(5):
        for n in range(5):
            for y in range(4):
                for z in range(4):
                    got = float(integral_1d(m, n, y, z))
                    ref, _ = quad(
                        lambda x: (z + x) ** n * (y + 1 - x) ** m, 0.0, 1.0
                    )
                    worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    # and the assembled functional values against per-axis quadrature
    for n, p, k in [(1, 1, 3), (2, 1, 2), (2, 2, 2), (3, 1, 2)]:
        cubes = enumerate_small_cubes(n, p, k)
        for cube in cubes:
            for basis in cubes:
                if cube.directions != basis.directions:
                    continue
                ref = _quad_dof(cube, basis)
                worst = max(
                    worst,
                    abs(float(dof_value_exact(cube, basis)) - ref) / max(1.0, abs(ref)),
                )
    _report(
        2,
        worst <= 1e-12,
        f"closed-form integrals agree with adaptive quadrature, "
        f"max relative deviation {worst:.3e} (tolerance 1e-12)",
    )


def _quad_dof(cube, basis):
    k = cube.order
    free = set(cube.directions)
    total = 1.0
    for axis in range(cube.dimension):
        m = basis.multi_index[axis]
        y = basis.face.fixed.get(axis)

        def g(x, m=m, y=y):
            v = x**m * (1 - x) ** (k - 1 - m)
            if y is not None:
                v = v * x**y * (1 - x) ** (1 - y)
            return v

        a = cube.anchor_numerators[axis]
        if axis in free:
            val, _ = quad(g, a / k, (a + 1) / k, epsabs=1e-14, epsrel=1e-14)
        else:
            val = g(a / k)
        total *= val
    return total


def test_criterion_3_linear_independence():
    worst = np.inf
    where = None
    for n in range(1, 4):
        for k in range(1, 4):
            for p in range(n + 1):
                for dirs in direction_tuples(n, p):
                    stack = basis_grid_stack(n, p, k)[dirs]
                    flat = stack.reshape(stack.shape[0], -1)
                    smin = np.linalg.svd(flat, compute_uv=False).min()
                    if smin < worst:
                        worst, where = smin, (n, p, k, dirs)
    _report(
        3,
        worst > 1e-10,
        "spanning forms are linearly independent for n<=3, k<=3; "
        f"smallest singular value {worst:.3e} at {where}",
    )


def test_criterion_4_unisolvence_block_structure():
    ok = True
    worst_cond = 0.0
    for n in range(1, 4):
        for k in range(1, 5):
            for p in range(n + 1):
                report = check_unisolvence(n, p, k)
                ok = ok and report.invertible
                worst_cond = max(worst_cond, report.condition_estimate)
                cubes = enumerate_small_cubes(n, p, k)
                for a in cubes:
                    for b in cubes:
                        if a.directions != b.directions:
                            ok = ok and dof_value_exact(a, b) == 0
    _report(
        4,
        ok,
        "degree-of-freedom matrices are invertible with exact "
        f"cross-direction zeros for n<=3, k<=4; worst block condition "
        f"{worst_cond:.3e}",
    )


def test_criterion_5_operator_identities():
    worst = 0.0
    where = None
    for n in (2, 3):
        meshes = [
            structured_mesh(n, 1),
            structured_mesh(n, 2),
            structured_mesh(n, 2, shear=0.5),
        ]
        for k in (1, 2, 3):
            for mesh in meshes:
                refined = refine(mesh, k)
                for p in range(n + 1):
                    report = verify_identities(
                        refined,
                        p,
                        trials=2,
                        samples=60,
                        rng=np.random.default_rng(0),
                    )
                    errs = [report.round_trip_error, report.reconstruction_error]
                    if report.commutation_error is not None:
                        errs.append(report.commutation_error)
                    err = max(errs)
                    if err > worst:
                        worst, where = err, (n, k, mesh.n_cells, p)
    _report(
        5,
        worst <= 1e-9,
        "integration/interpolation round trips and derivative "
        f"commutation hold on single, tiled, and sheared meshes; worst "
        f"error {worst:.3e} at (n, k, cells, p)={where} (tolerance 1e-9)",
    )


def test_criterion_6_convergence_rates():
    from cubeforms.cli import expected_order, run_convergence

    results = []
    ok = True
    for n, k, m_list in [
        (2, 1, [2, 4, 8, 16]),
        (2, 2, [2, 4, 8, 16]),
        (2, 3, [2, 4, 8, 16]),
        (3, 1, [2, 4, 8]),
        (3, 2, [2, 4, 8]),
    ]:
        rows = run_convergence(n, 1, k, m_list)
        eoc = rows[-1].eoc
        order = expected_order(1, k)
        good = eoc is not None and order - 0.3 <= eoc <= order + 0.5
        ok = ok and good
        results.append(f"n={n} k={k}: {eoc:.3f}")
    _report(
        6,
        ok,
        "degree-1 interpolation converges at the expected order "
        f"({'; '.join(results)}; gates [k-0.3, k+0.5], expected_order(1, k) = k)",
    )


def test_criterion_7_structural_identities():
    ok = True
    details = []

    # double coboundary vanishes exactly on integer incidence matrices
    dd_ok = True
    for n, m, k, shear in [(2, 2, 2, 0.7), (3, 2, 1, 0.4), (3, 1, 2, 0.0)]:
        refined = refine(structured_mesh(n, m, shear=shear), k)
        for q in range(n - 1):
            product = refined.coboundary_matrix(q + 1) @ refined.coboundary_matrix(q)
            dd_ok = dd_ok and (product.nnz == 0 or not np.any(product.data))
    ok = ok and dd_ok
    details.append(f"discrete d∘d=0 exact: {dd_ok}")

    # smooth double derivative vanishes to rounding
    refined = refine(structured_mesh(2, 2, shear=0.2), 2)
    w = interpolate(de_rham(get_form("sin2d-0"), refined), refined)
    dw = w.exterior_derivative()
    scale = float(np.max(coefficient_norms(dw)))
    dd_err = float(np.max(coefficient_norms(dw.exterior_derivative())))
    smooth_ok = dd_err <= 1e-12 * max(1.0, scale)
    ok = ok and smooth_ok
    details.append(f"interpolant d∘d residual {dd_err:.3e}")

    # integration commutes with the derivative (discrete Stokes)
    stokes = 0.0
    for form_id, n, m, k, shear in [
        ("sin2d-1", 2, 2, 2, 0.5),
        ("sin3d-1", 3, 1, 2, 0.0),
    ]:
        form = get_form(form_id)
        refined = refine(structured_mesh(n, m, shear=shear), k)
        lhs = de_rham(form.exterior_derivative(), refined)
        rhs = coboundary(de_rham(form, refined), refined)
        stokes = max(stokes, float(np.abs(lhs.values - rhs.values).max()))
    stokes_ok = stokes <= 1e-8
    ok = ok and stokes_ok
    details.append(f"Stokes residual {stokes:.3e}")

    # tangential traces agree across interior faces
    trace = 0.0
    for form_id, n, k, shear in [("sin2d-1", 2, 2, 0.6), ("sin3d-2", 3, 1, 0.0)]:
        form = get_form(form_id)
        refined = refine(structured_mesh(n, 2, shear=shear), k)
        w = interpolate(de_rham(form, refined), refined)
        trace = max(
            trace, trace_mismatch(refined, w, np.random.default_rng(3), samples=25)
        )
    trace_ok = trace <= 1e-10
    ok = ok and trace_ok
    details.append(f"trace mismatch {trace:.3e}")

    _report(7, ok, "; ".join(details))
