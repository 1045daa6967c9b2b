"""Exact functionals against adaptive quadrature and frozen values.

Closed-form results are pinned twice: as exact rationals derived with
sympy.integrate (frozen below), and at runtime against scipy's adaptive
quadrature applied to the raw generator products, which shares no code
with the Fraction pipeline.
"""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from cubeforms import dof
from cubeforms.dof import (
    RANK_TOL,
    DofMatrix,
    ReferenceSolver,
    assemble_dof_matrix,
    average_over_small_cube,
    check_unisolvence,
    dof_value_exact,
    integral_1d,
    reference_solver,
)
from cubeforms.interp import Cochain, PiecewiseForm, interpolate
from cubeforms.mesh import refine, structured_mesh
from cubeforms.smallcubes import enumerate_small_cubes, small_cube_from_geometry

from helpers import dense_dof_matrix, product_derivative_matrix

# sympy.integrate((z + x)**n * (y + 1 - x)**m, (x, 0, 1)) for (m, n, y, z)
INTEGRAL_1D_CASES = {
    (0, 0, 0, 0): Fraction(1, 1),
    (1, 0, 1, 0): Fraction(3, 2),
    (2, 3, 1, 2): Fraction(997, 30),
    (3, 1, 0, 4): Fraction(21, 20),
    (4, 4, 3, 3): Fraction(1972543, 90),
    (2, 2, 0, 0): Fraction(1, 30),
}


def test_integral_1d_frozen_values():
    for (m, n, y, z), want in INTEGRAL_1D_CASES.items():
        assert integral_1d(m, n, y, z) == want


def test_integral_1d_against_adaptive_quadrature():
    for m, n, y, z in INTEGRAL_1D_CASES:
        got = float(integral_1d(m, n, y, z))
        ref, err = quad(lambda x: (z + x) ** n * (y + 1 - x) ** m, 0.0, 1.0)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        assert err < 1e-8 * max(1.0, abs(ref))


def test_integral_1d_rejects_negative_exponents():
    with pytest.raises(ValueError):
        integral_1d(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        integral_1d(0, -2, 0, 0)


def test_average_frozen_value():
    # sympy: average of x(1-x) * y^2 over the segment x in [1/3, 2/3], y = 2/3
    cube = small_cube_from_geometry(3, (0,), (1, 2))
    assert average_over_small_cube((1, 2), 3, cube) == Fraction(26, 243)


def test_average_validation():
    cube = small_cube_from_geometry(3, (0,), (1, 2))
    with pytest.raises(ValueError):
        average_over_small_cube((1,), 3, cube)
    with pytest.raises(ValueError):
        average_over_small_cube((3, 0), 3, cube)


def test_average_of_constant_is_one():
    for n, p, k in [(1, 0, 2), (2, 1, 3), (3, 2, 2)]:
        for cube in enumerate_small_cubes(n, p, k):
            assert average_over_small_cube((0,) * n, 1, cube) == 1


DOF_FROZEN = [
    # (order, cube geometry, basis geometry, exact value) via sympy
    (2, ((0,), (0, 1)), ((0,), (1, 2)), Fraction(1, 32)),
    (3, ((0,), (1,)), ((0,), (1,)), Fraction(13, 162)),
    (2, ((), (1, 2)), ((), (1, 1)), Fraction(0)),
    (2, ((0, 1), (1, 0)), ((0, 1), (1, 0)), Fraction(9, 64)),
    (2, ((0,), (0, 1)), ((1,), (0, 1)), Fraction(0)),  # direction mismatch
]


def test_dof_value_frozen_cases():
    for k, (cd, ca), (bd, ba), want in DOF_FROZEN:
        cube = small_cube_from_geometry(k, cd, ca)
        basis = small_cube_from_geometry(k, bd, ba)
        assert dof_value_exact(cube, basis) == want
        assert float(dof_value_exact(cube, basis)) == float(want)


def test_dof_value_rejects_mismatched_spaces():
    a = small_cube_from_geometry(2, (0,), (0, 1))
    b = small_cube_from_geometry(3, (0,), (0, 1))
    with pytest.raises(ValueError):
        dof_value_exact(a, b)


def _generator_factor(basis, axis):
    """Per-axis polynomial of the spanning form, from raw generator data."""
    k = basis.order
    m = basis.multi_index[axis]
    y = basis.face.fixed.get(axis)

    def g(x):
        v = x**m * (1 - x) ** (k - 1 - m)
        if y is not None:
            v = v * x**y * (1 - x) ** (1 - y)
        return v

    return g


def quad_dof(cube, basis):
    """Independent route: per-axis adaptive quadrature of the raw product."""
    k = cube.order
    free = set(cube.directions)
    total = 1.0
    for axis in range(cube.dimension):
        g = _generator_factor(basis, axis)
        a = cube.anchor_numerators[axis]
        if axis in free:
            val, _ = quad(g, a / k, (a + 1) / k, epsabs=1e-14, epsrel=1e-14)
        else:
            val = g(a / k)
        total *= val
    return total


@pytest.mark.parametrize("n,p,k", [(1, 1, 3), (2, 0, 2), (2, 1, 2), (2, 2, 2), (3, 1, 2)])
def test_dof_value_against_quadrature(n, p, k):
    cubes = enumerate_small_cubes(n, p, k)
    for cube in cubes:
        for basis in cubes:
            if cube.directions != basis.directions:
                assert dof_value_exact(cube, basis) == 0
                continue
            got = float(dof_value_exact(cube, basis))
            ref = quad_dof(cube, basis)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


# A Kronecker product of the per-axis tables taken in floats differs from
# the exact entries in the last bit on every case here but (3, 0, 3).
@pytest.mark.parametrize(
    "n,p,k,size,blocks",
    [
        (2, 1, 3, 24, {(0,), (1,)}),
        (3, 0, 3, 64, {()}),
        (3, 1, 3, 144, {(0,), (1,), (2,)}),
        (3, 2, 3, 108, {(0, 1), (0, 2), (1, 2)}),
        (3, 3, 3, 27, {(0, 1, 2)}),
        (3, 3, 4, 64, {(0, 1, 2)}),
    ],
    ids=["2-1-3", "3-0-3", "3-1-3", "3-2-3", "3-3-3", "3-3-4"],
)
def test_matrix_block_structure(n, p, k, size, blocks):
    dm = assemble_dof_matrix(n, p, k)
    assert isinstance(dm, DofMatrix)
    assert dm.size == size
    assert set(dm.blocks) == blocks
    # the blocks tile the canonical order, in combinations order
    slices = list(dm.blocks.values())
    assert slices[0].start == 0 and slices[-1].stop == size
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    cubes = enumerate_small_cubes(n, p, k)
    for dirs, sl in dm.blocks.items():
        assert all(cubes[i].directions == dirs for i in range(sl.start, sl.stop))
        block = dm.block(dirs)
        assert block.shape == (sl.stop - sl.start, sl.stop - sl.start)
        for r in range(sl.start, sl.stop):
            for c in range(sl.start, sl.stop):
                assert block[r - sl.start, c - sl.start] == float(
                    dof_value_exact(cubes[r], cubes[c])
                )


def test_matrix_is_read_only_and_cached():
    dm = assemble_dof_matrix(2, 1, 2)
    assert assemble_dof_matrix(2, 1, 2) is dm
    for table in (dm.spanned, dm.fixed):
        with pytest.raises(ValueError):
            table[0, 0] = 3.0
    with pytest.raises(KeyError):
        dm.block((0, 1))


@pytest.mark.parametrize("k", range(1, 9))
def test_axis_tables_equal_the_exact_functionals(k):
    (f, f_den), (p, p_den) = dof._axis_tables(k)
    for r in range(k + 1):
        for c in range(k + 1):
            if r < k and c < k:
                assert Fraction(f[r, c], f_den) == integral_1d(k - 1 - c, c, k - 1 - r, r) / k**k
            assert Fraction(p[r, c], p_den) == Fraction(r, k) ** c * Fraction(k - r, k) ** (k - c)


@pytest.mark.parametrize("k", range(1, 9))
def test_axis_tables_commute_with_the_derivative(k):
    # 1-D discrete Stokes: integrating the derivative over segment r gives
    # the difference of the point values at its ends, so F_k D_k = P_k[1:] - P_k[:-1]
    # exactly, with D_k the derivative in the product basis
    d = product_derivative_matrix(k)
    (f, f_den), (p, p_den) = dof._axis_tables(k)
    assert np.array_equal((f @ d) * p_den, (p[1:] - p[:-1]) * f_den)


@pytest.mark.parametrize("k", range(1, 9))
def test_derivative_of_the_nodal_basis_is_the_incidence(k):
    # on a mesh of k + 1 cells, cell c carries the Lagrange polynomial of
    # node c; its derivative's coefficients on the segments are exactly the
    # rows of the 1-D incidence, the coboundary of one cell refined to order k
    refined = refine(structured_mesh(1, k + 1), k, degrees=(0, 1))
    d = PiecewiseForm(refined, 0, {(): np.eye(k + 1)}).exterior_derivative().coefficients[(0,)]
    incidence = refine(structured_mesh(1, 1), k).coboundary_matrix(0).toarray()
    assert np.array_equal(incidence, np.eye(k, k + 1, 1) - np.eye(k, k + 1))
    assert np.array_equal(d.T, incidence)


def _fraction_inverse(matrix):
    """Exact inverse of a square list of Fractions, by Gauss-Jordan elimination."""
    size = len(matrix)
    eye = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    rows = [list(row) + one for row, one in zip(matrix, eye)]
    for col in range(size):
        swap = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[swap] = rows[swap], rows[col]
        rows[col] = [a / rows[col][col] for a in rows[col]]
        for r in range(size):
            if r != col:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


@pytest.mark.parametrize("k", range(1, 9))
def test_axis_inverses_are_the_exact_inverses_rounded_once(k):
    # no entry may depend on the LAPACK or BLAS kernel: each is its exact value, rounded
    for (num, den), inverse in zip(dof._axis_tables(k), dof.axis_inverses(k)):
        exact = _fraction_inverse([[Fraction(int(a), den) for a in row] for row in num])
        want = np.array([[float(a) for a in row] for row in exact])
        assert inverse.dtype == np.float64 and inverse.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 3, 6])
def test_reference_solver_copies_the_one_cached_inversion(k):
    inverses = dof.axis_inverses(k)
    assert dof.axis_inverses(k) is inverses
    dm = assemble_dof_matrix(1, 0, k)
    for inverse, table in zip(inverses, (dm.spanned, dm.fixed)):
        assert not inverse.flags.writeable
        assert np.abs(inverse @ table - np.eye(len(table))).max() <= 1e-10
    solver = ReferenceSolver(assemble_dof_matrix(2, 1, k))
    for own, shared in zip(solver._inverses, inverses):
        assert own is not shared and np.array_equal(own, shared)


def test_interpolation_runs_without_exact_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("integral_1d called on the production path")

    monkeypatch.setattr(dof, "integral_1d", refuse)
    caches = (dof._axis_tables, dof.assemble_dof_matrix, dof.axis_inverses, dof.reference_solver)
    for cached in caches:
        cached.cache_clear()
    refined = refine(structured_mesh(2, 2, shear=0.3), 3, degrees=(1,))
    cochain = Cochain(1, np.random.default_rng(0).standard_normal(refined.count(1)))
    assert interpolate(cochain, refined).degree == 1


def test_order_one_vertices_give_identity():
    for n in (1, 2, 3):
        dm = assemble_dof_matrix(n, 0, 1)
        assert np.array_equal(dense_dof_matrix(dm), np.eye(dm.size))


def test_order_one_volume_form_is_unit():
    dm = assemble_dof_matrix(2, 2, 1)
    block = dm.block((0, 1))
    assert block.shape == (1, 1)
    assert block[0, 0] == 1.0


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)])
def test_unisolvence_small_sweep(n, k):
    for p in range(n + 1):
        dm = assemble_dof_matrix(n, p, k)
        report = check_unisolvence(n, p, k)
        assert report.invertible
        assert report.condition_estimate >= 1.0
        assert 0 < report.min_singular <= report.max_singular
        assert set(report.block_conditions) == set(dm.blocks)
        # the factor-product certificate against a dense SVD of each block
        for dirs in dm.blocks:
            s = np.linalg.svd(dm.block(dirs), compute_uv=False)
            assert report.block_conditions[dirs] == pytest.approx(s[0] / s[-1], rel=1e-10)
            assert report.min_singular == pytest.approx(s[-1], rel=1e-10)
            assert report.max_singular == pytest.approx(s[0], rel=1e-10)
            assert s[-1] > RANK_TOL * s[0]


def test_reference_solver_round_trip():
    rng = np.random.default_rng(17)
    n, p, k = 2, 1, 3
    dm = assemble_dof_matrix(n, p, k)
    dense = dense_dof_matrix(dm)
    solver = reference_solver(n, p, k)
    assert isinstance(solver, ReferenceSolver)
    assert reference_solver(n, p, k) is solver
    coeffs = rng.standard_normal(dm.size)
    values = dense @ coeffs
    back = solver.solve(values)
    assert np.abs(back - coeffs).max() < 1e-10
    # batched right-hand sides
    many = rng.standard_normal((dm.size, 5))
    out = solver.solve(many)
    assert out.shape == many.shape
    assert np.abs(dense @ out - many).max() < 1e-10
    # the cached solver gives the same answer again
    again = reference_solver(n, p, k).solve(values)
    assert np.array_equal(again, back)


def test_reference_solver_rejects_wrong_length():
    with pytest.raises(ValueError):
        reference_solver(2, 1, 2).solve(np.ones(3))


def test_residual_check_uses_the_blocks_not_the_inverses():
    # a fresh solver, so the cached one stays intact
    solver = ReferenceSolver(assemble_dof_matrix(2, 1, 3))
    values = np.random.default_rng(3).standard_normal(solver.matrix.size)
    solver.solve(values)
    solver._inverses[1][0, 0] *= 1 + 1e-6
    with pytest.raises(RuntimeError, match="residual"):
        solver.solve(values)


def test_residual_check_rejects_non_finite_values():
    # NaN compares false against any bound, so the check must not read it as small
    values = np.ones(reference_solver(2, 1, 2).matrix.size)
    values[3] = np.nan
    with pytest.raises(RuntimeError, match="residual nan exceeds"):
        reference_solver(2, 1, 2).solve(values)


def test_reference_solver_envelope_in_3d():
    # k = 6 is the last order admitted for every degree
    for p in range(4):
        reference_solver(3, p, 6)
    for p in range(3):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            reference_solver(3, p, 7)
    reference_solver(3, 3, 7)
    for p in range(4):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            reference_solver(3, p, 8)


def test_import_leaves_scipy_linalg_unloaded():
    code = "import sys, cubeforms; print('scipy.linalg' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
