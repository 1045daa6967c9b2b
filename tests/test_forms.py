"""Polynomial forms against symbolic oracles.

sympy provides the independent route: spanning forms are expanded from
their defining products, derivatives are taken symbolically, and
evaluation is cross-checked through lambdify.
"""

import warnings

import numpy as np
import pytest
import sympy as sp

from cubeforms.combinatorics import enumerate_faces
from cubeforms.forms import (
    AnalyticForm,
    PolyForm,
    basis_form,
    basis_grid_stack,
    direction_tuples,
    exterior_derivative,
    lowest_order_form,
    pattern_shape,
    span_membership,
    span_residual,
    wedge_insert,
)
from cubeforms.smallcubes import enumerate_small_cubes

XS = sp.symbols("x0:4")


def sympy_grid(expr, n):
    """Monomial coefficient grid of a sympy polynomial in x0..x{n-1}."""
    poly = sp.Poly(sp.expand(expr), *XS[:n])
    shape = tuple(d + 1 for d in poly.degree_list())
    grid = np.zeros(shape)
    for monom, coeff in zip(poly.monoms(), poly.coeffs()):
        grid[monom] = float(coeff)
    return grid


def grids_equal(a, b, tol=0.0):
    shape = tuple(max(sa, sb) for sa, sb in zip(a.shape, b.shape))
    pa = np.zeros(shape)
    pb = np.zeros(shape)
    pa[tuple(slice(0, d) for d in a.shape)] = a
    pb[tuple(slice(0, d) for d in b.shape)] = b
    return np.abs(pa - pb).max() <= tol


def insertion_sign(axis, dirs):
    """Independent sign route: full inversion count of the raw sequence."""
    seq = (axis,) + tuple(dirs)
    inv = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return (-1) ** inv, tuple(sorted(seq))


def symbolic_generator_product(cube):
    """The spanning form's coefficient from its raw generator data.

    Built from the unfolded definition: translate factors on every axis
    times the face factors on the fixed axes only.
    """
    k = cube.order
    expr = sp.Integer(1)
    for axis, m in enumerate(cube.multi_index):
        x = XS[axis]
        expr *= x**m * (1 - x) ** (k - 1 - m)
    for axis, y in cube.face.fixed_values:
        x = XS[axis]
        expr *= x**y * (1 - x) ** (1 - y)
    return expr


def test_wedge_insert_signs():
    assert wedge_insert(0, ()) == (1, (0,))
    assert wedge_insert(2, (0, 1)) == (1, (0, 1, 2))
    assert wedge_insert(1, (0, 2)) == (-1, (0, 1, 2))
    assert wedge_insert(0, (1, 2)) == (1, (0, 1, 2))
    assert wedge_insert(3, (0, 1, 2)) == (-1, (0, 1, 2, 3))


def test_wedge_insert_matches_inversion_count():
    for dirs in [(1,), (0, 2), (1, 3), (0, 1, 3)]:
        for axis in range(4):
            if axis in dirs:
                continue
            assert wedge_insert(axis, dirs) == insertion_sign(axis, dirs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowest_order_form_matches_definition(n):
    for p in range(n + 1):
        for face in enumerate_faces(n, p):
            w = lowest_order_form(face)
            expr = sp.Integer(1)
            for axis, y in face.fixed_values:
                expr *= XS[axis] ** y * (1 - XS[axis]) ** (1 - y)
            assert set(w.terms) == {face.directions}
            assert grids_equal(w.terms[face.directions], sympy_grid(expr, n))


@pytest.mark.parametrize(
    "n,p,k", [(1, 1, 3), (2, 0, 2), (2, 1, 2), (2, 2, 3), (3, 2, 2)]
)
def test_basis_form_matches_symbolic_definition(n, p, k):
    for cube in enumerate_small_cubes(n, p, k):
        w = basis_form(cube)
        assert set(w.terms) == {cube.directions}
        expected = sympy_grid(symbolic_generator_product(cube), n)
        assert grids_equal(w.terms[cube.directions], expected)


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)])
def test_basis_grid_stack_rows_are_basis_forms(n, k):
    for p in range(n + 1):
        stacks = basis_grid_stack(n, p, k)
        assert list(stacks) == direction_tuples(n, p)
        for dirs, stack in stacks.items():
            cubes = [c for c in enumerate_small_cubes(n, p, k) if c.directions == dirs]
            assert stack.shape == (len(cubes), *pattern_shape(n, dirs, k))
            for row, cube in zip(stack, cubes):
                padded = np.zeros(stack.shape[1:])
                grid = basis_form(cube).terms[dirs]
                padded[tuple(slice(0, d) for d in grid.shape)] = grid
                assert row.tobytes() == padded.tobytes()


def test_basis_form_at_order_one_is_lowest_order():
    for n in (1, 2, 3):
        for p in range(n + 1):
            for cube in enumerate_small_cubes(n, p, 1):
                a = basis_form(cube)
                b = lowest_order_form(cube.face)
                assert set(a.terms) == set(b.terms)
                for dirs in a.terms:
                    assert grids_equal(a.terms[dirs], b.terms[dirs])


def test_evaluate_matches_lambdify():
    rng = np.random.default_rng(7)
    n = 3
    grid = rng.integers(-3, 4, size=(3, 2, 4)).astype(float)
    form = PolyForm(n, 1, {(1,): grid})
    expr = sum(
        grid[e] * XS[0] ** e[0] * XS[1] ** e[1] * XS[2] ** e[2]
        for e in np.ndindex(grid.shape)
    )
    func = sp.lambdify(XS[:n], expr, "numpy")
    pts = rng.random((40, n))
    vals = form.evaluate(pts)[(1,)]
    want = func(pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.abs(vals - want).max() < 1e-12


def test_evaluate_shapes():
    form = PolyForm(2, 0, {(): np.array([[1.0, 2.0], [3.0, 0.0]])})
    single = form.evaluate(np.array([0.5, 0.5]))
    assert isinstance(single[()], float)
    assert single[()] == pytest.approx(1.0 + 2.0 * 0.5 + 3.0 * 0.5)
    batch = form.evaluate(np.zeros((4, 5, 2)))
    assert batch[()].shape == (4, 5)
    with pytest.raises(ValueError):
        form.evaluate(np.zeros((3, 3)))


def test_evaluate_warns_outside_unit_cube():
    form = PolyForm(1, 0, {(): np.array([1.0, 1.0])})
    with pytest.warns(UserWarning):
        form.evaluate(np.array([1.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert form.evaluate(np.array([1.5]), warn_outside=False)[()] == 2.5


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_exterior_derivative_vs_sympy(n, p):
    from itertools import combinations

    rng = np.random.default_rng(n * 10 + p)
    terms = {}
    exprs = {}
    for dirs in combinations(range(n), p):
        grid = rng.integers(-2, 3, size=(3,) * n).astype(float)
        terms[dirs] = grid
        exprs[dirs] = sum(
            grid[e] * np.prod([XS[i] ** e[i] for i in range(n)])
            for e in np.ndindex(grid.shape)
        )
    form = PolyForm(n, p, terms)
    d = exterior_derivative(form)
    expected = {}
    for dirs, expr in exprs.items():
        for axis in range(n):
            if axis in dirs:
                continue
            sign, new = insertion_sign(axis, dirs)
            expected[new] = expected.get(new, 0) + sign * sp.diff(expr, XS[axis])
    for dirs, expr in expected.items():
        got = d.terms.get(dirs)
        want = sympy_grid(expr, n)
        if got is None:
            assert not want.any()
        else:
            assert grids_equal(got, want)


def test_second_derivative_vanishes():
    from itertools import combinations

    rng = np.random.default_rng(3)
    for n, p in [(2, 0), (3, 0), (3, 1)]:
        # integer grids: the mixed-partial cancellation is then exact
        terms = {
            dirs: rng.integers(-9, 10, size=(3,) * n).astype(float)
            for dirs in combinations(range(n), p)
        }
        dd = exterior_derivative(exterior_derivative(PolyForm(n, p, terms)))
        assert dd.is_zero()
        # float grids cancel only to rounding
        terms = {
            dirs: rng.standard_normal((3,) * n)
            for dirs in combinations(range(n), p)
        }
        form = PolyForm(n, p, terms)
        dd = exterior_derivative(exterior_derivative(form))
        assert dd.norm() <= 1e-13 * max(1.0, form.norm())


def test_top_degree_derivative_is_zero_form():
    form = basis_form(enumerate_small_cubes(2, 2, 2)[0])
    d = exterior_derivative(form)
    assert d.degree == 3
    assert d.is_zero()
    assert d.evaluate(np.array([0.5, 0.5])) == {}


def test_derivative_of_basis_form_stays_in_next_space():
    """The spaces form a complex: d maps order-k forms into order-k forms."""
    for n, k in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]:
        for p in range(n):
            for cube in enumerate_small_cubes(n, p, k):
                d = exterior_derivative(basis_form(cube))
                if d.is_zero():
                    continue
                assert span_membership(d, k)


def test_span_membership_of_combinations():
    rng = np.random.default_rng(11)
    n, p, k = 2, 1, 3
    cubes = enumerate_small_cubes(n, p, k)
    combo = PolyForm.zero(n, p)
    for cube in cubes:
        combo = combo + float(rng.standard_normal()) * basis_form(cube)
    assert span_membership(combo, k)
    assert span_residual(combo, k) < 1e-10 * combo.norm()


def test_degree_pattern_violation_raises():
    # degree k on the form's own direction axis exceeds the pattern
    bad = PolyForm(2, 1, {(0,): np.array([[1.0], [0.0], [1.0]])})
    with pytest.raises(ValueError):
        span_membership(bad, 2)
    # a 0-form of degree k+1 in one axis
    bad0 = PolyForm(1, 0, {(): np.array([0.0, 0.0, 0.0, 1.0])})
    with pytest.raises(ValueError):
        span_membership(bad0, 2)


def test_form_algebra():
    a = PolyForm(2, 1, {(0,): np.array([[1.0, 2.0]])})
    b = PolyForm(2, 1, {(0,): np.array([[1.0]]), (1,): np.array([[2.0]])})
    s = a + b
    assert grids_equal(s.terms[(0,)], np.array([[2.0, 2.0]]))
    assert grids_equal(s.terms[(1,)], np.array([[2.0]]))
    d = s - b - a
    assert d.is_zero()
    assert (2.0 * a).terms[(0,)][0, 1] == 4.0
    assert a.norm() == pytest.approx(np.sqrt(5.0))
    with pytest.raises(ValueError):
        a + PolyForm(2, 2, {})


def test_form_validation():
    with pytest.raises(ValueError):
        PolyForm(2, 1, {(1, 0): np.ones((1, 1))})  # not sorted / wrong length
    with pytest.raises(ValueError):
        PolyForm(2, 1, {(2,): np.ones((1, 1))})  # axis out of range
    with pytest.raises(ValueError):
        PolyForm(2, 3, {(0, 1): np.ones((1, 1))})  # degree beyond dimension
    with pytest.raises(ValueError):
        PolyForm(2, 1, {(0,): np.ones(3)})  # grid rank mismatch
    assert PolyForm(2, 3, {}).is_zero()  # zero form of high degree is fine


def test_analytic_form_derivative_matches_sympy():
    from cubeforms.catalog import get_form

    form = get_form("sin2d-1")
    d = form.exterior_derivative()
    x0, x1 = sp.symbols("x0 x1")
    f0 = sp.sin(sp.pi * x0) * sp.sin(sp.pi * x1)
    f1 = sp.cos(sp.pi * x0) * sp.cos(sp.pi * x1)
    expected = sp.lambdify((x0, x1), sp.diff(f1, x0) - sp.diff(f0, x1), "numpy")
    rng = np.random.default_rng(5)
    pts = rng.random((30, 2))
    got = d.evaluate(pts)[(0, 1)]
    assert np.abs(got - expected(pts[:, 0], pts[:, 1])).max() < 1e-10


def test_analytic_form_without_partials_rejects_derivative():
    plain = AnalyticForm(2, 0, {(): lambda x: x[..., 0]})
    with pytest.raises(ValueError):
        plain.exterior_derivative()
