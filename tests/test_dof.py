"""Exact functionals against adaptive quadrature and frozen values.

Closed-form results are pinned twice: as exact rationals derived with
sympy.integrate (frozen below), and at runtime against scipy's adaptive
quadrature applied to the raw generator products, which shares no code
with the Fraction pipeline.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from cubeforms.dof import (
    DofMatrix,
    ReferenceSolver,
    assemble_dof_matrix,
    average_over_small_cube,
    check_unisolvence,
    dof_value,
    dof_value_exact,
    integral_1d,
    reference_solver,
    solve_reference_coefficients,
)
from cubeforms.smallcubes import enumerate_small_cubes, small_cube_from_geometry

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
        assert dof_value(cube, basis) == float(want)


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
            got = dof_value(cube, basis)
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
    covered = np.zeros_like(dm.matrix, dtype=bool)
    for sl in dm.blocks.values():
        covered[sl, sl] = True
    assert np.all(dm.matrix[~covered] == 0.0)
    cubes = dm.cubes
    for dirs, sl in dm.blocks.items():
        assert all(cubes[i].directions == dirs for i in range(sl.start, sl.stop))
        block = dm.block(dirs)
        assert block.shape == (sl.stop - sl.start, sl.stop - sl.start)
        for r in range(sl.start, sl.stop):
            for c in range(sl.start, sl.stop):
                assert dm.matrix[r, c] == float(
                    dof_value_exact(cubes[r], cubes[c])
                )


def test_matrix_is_read_only_and_cached():
    dm = assemble_dof_matrix(2, 1, 2)
    assert assemble_dof_matrix(2, 1, 2) is dm
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 3.0


def test_order_one_vertices_give_identity():
    for n in (1, 2, 3):
        dm = assemble_dof_matrix(n, 0, 1)
        assert np.array_equal(dm.matrix, np.eye(dm.size))


def test_order_one_volume_form_is_unit():
    dm = assemble_dof_matrix(2, 2, 1)
    assert dm.matrix.shape == (1, 1)
    assert dm.matrix[0, 0] == 1.0


@pytest.mark.parametrize("n,k", [(1, 4), (2, 3), (3, 2)])
def test_unisolvence_small_sweep(n, k):
    for p in range(n + 1):
        report = check_unisolvence(n, p, k)
        assert report.invertible
        assert report.condition_estimate >= 1.0
        assert 0 < report.min_singular <= report.max_singular
        assert set(report.block_conditions) == set(
            assemble_dof_matrix(n, p, k).blocks
        )


def test_reference_solver_round_trip():
    rng = np.random.default_rng(17)
    n, p, k = 2, 1, 3
    dm = assemble_dof_matrix(n, p, k)
    solver = reference_solver(n, p, k)
    assert isinstance(solver, ReferenceSolver)
    assert reference_solver(n, p, k) is solver
    coeffs = rng.standard_normal(dm.size)
    values = dm.matrix @ coeffs
    back = solver.solve(values)
    assert np.abs(back - coeffs).max() < 1e-10
    # batched right-hand sides
    many = rng.standard_normal((dm.size, 5))
    out = solver.solve(many)
    assert out.shape == many.shape
    assert np.abs(dm.matrix @ out - many).max() < 1e-10
    # convenience wrapper
    again = solve_reference_coefficients(n, p, k, values)
    assert np.array_equal(again, back)


def test_reference_solver_rejects_wrong_length():
    with pytest.raises(ValueError):
        reference_solver(2, 1, 2).solve(np.ones(3))
