"""Integration, interpolation, and the operator identities.

Oracles: hand-computed edge integrals for the linear catalog forms,
exact reproduction of polynomial forms that lie in the discrete space,
and the discrete Stokes identity checked against independently
assembled incidence matrices.
"""

import numpy as np
import pytest

from cubeforms.catalog import get_form, list_forms
from cubeforms.interp import (
    Cochain,
    PiecewiseForm,
    coboundary,
    de_rham,
    evaluate_piecewise,
    interpolate,
    verify_identities,
)
from cubeforms.mesh import refine, structured_mesh

from helpers import trace_mismatch


# -- cochain container ----------------------------------------------


def test_cochain_csv_round_trip(tmp_path):
    values = np.array([0.5, -1.25, 3.000000000000004, 0.0])
    path = tmp_path / "c.csv"
    Cochain(1, values).to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "id,value"
    back = Cochain.from_csv(path, 1)
    assert back.degree == 1
    assert np.array_equal(back.values, values)  # repr survives exactly


def test_cochain_csv_header_optional_and_order_free(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("2,30.0\n0,10.0\n1,20.0\n")
    back = Cochain.from_csv(path, 0)
    assert np.array_equal(back.values, [10.0, 20.0, 30.0])


def test_cochain_csv_rejects_duplicates_and_gaps(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("0,1.0\n0,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        Cochain.from_csv(dup, 0)
    gap = tmp_path / "gap.csv"
    gap.write_text("0,1.0\n2,2.0\n")
    with pytest.raises(ValueError, match="0..1"):
        Cochain.from_csv(gap, 0)


def test_cochain_values_read_only():
    c = Cochain(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        c.values[0] = 5.0


# -- integration ----------------------------------------------------


def test_degree_zero_integrals_are_point_values():
    mesh = structured_mesh(2, 2, shear=0.3)
    refined = refine(mesh, 1)
    form = get_form("sin2d-0")
    cochain = de_rham(form, refined)
    local = refined.local_cubes(0)
    for g, (cell, li) in enumerate(refined.first_owners[0]):
        pos = refined.maps[cell](np.array(local[li].anchor, dtype=float))
        want = form.evaluate(pos)[()]
        assert cochain.values[g] == pytest.approx(want, abs=1e-13)


def test_edge_integrals_of_linear_form_single_cell():
    # x1 dx0 on the unit square, k=1: the four edges in canonical
    # order are the bottom/top runs along axis 0 then left/right along
    # axis 1; only the top edge sees a nonzero integral
    refined = refine(structured_mesh(2, 1), 1)
    cochain = de_rham(get_form("linear2d-1"), refined)
    assert np.allclose(cochain.values, [0.0, 1.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("k", [1, 2])
def test_quad_order_override_matches_default_for_polynomials(k):
    refined = refine(structured_mesh(2, 2), k)
    form = get_form("linear2d-1")
    a = de_rham(form, refined)
    b = de_rham(form, refined, quad_order=k + 5)
    assert np.abs(a.values - b.values).max() < 1e-14


# -- interpolation and exact reproduction ----------------------------


@pytest.mark.parametrize(
    "form_id,n,k,shear",
    [
        ("linear2d-1", 2, 1, 0.0),
        ("linear2d-1", 2, 2, 0.0),
        ("linear2d-1", 2, 2, 0.4),
        ("linear3d-2", 3, 1, 0.0),
        ("linear3d-2", 3, 1, 0.3),
        ("linear3d-2", 3, 2, 0.0),
    ],
)
def test_polynomial_forms_reproduce_exactly(form_id, n, k, shear):
    form = get_form(form_id)
    refined = refine(structured_mesh(n, 2, shear=shear), k)
    approx = interpolate(de_rham(form, refined), refined)
    assert isinstance(approx, PiecewiseForm)
    rng = np.random.default_rng(11)
    for cell in range(refined.mesh.n_cells):
        pts = refined.maps[cell](rng.random((10, n)))
        got = approx.evaluate(pts, cell=cell)
        want = form.evaluate(pts)
        for dirs in got:
            ref = np.asarray(want.get(dirs, np.zeros(len(pts))))
            assert np.abs(np.asarray(got[dirs]) - ref).max() < 1e-12


def test_sheared_linear_form_leaves_lowest_order_space():
    # the pullback of x1 dx0 onto a sheared cell needs degree 1 along
    # the second axis in the second component, which k=1 cannot hold
    form = get_form("linear2d-1")
    refined = refine(structured_mesh(2, 2, shear=0.4), 1)
    approx = interpolate(de_rham(form, refined), refined)
    pts = refined.maps[0](np.random.default_rng(2).random((40, 2)))
    got = approx.evaluate(pts, cell=0)
    want = form.evaluate(pts)
    err = max(
        float(np.abs(np.asarray(got[d]) - np.asarray(want.get(d, 0.0))).max())
        for d in got
    )
    assert err > 1e-3  # genuinely not reproduced ...
    cochain = de_rham(form, refined)
    again = de_rham(approx, refined)
    assert np.abs(again.values - cochain.values).max() < 1e-12  # ... but integrals match


# -- discrete Stokes -------------------------------------------------


@pytest.mark.parametrize(
    "form_id,n,m,k,shear",
    [("sin2d-0", 2, 2, 2, 0.5), ("sin2d-1", 2, 2, 2, 0.5), ("sin3d-1", 3, 1, 2, 0.0)],
)
def test_integration_commutes_with_derivative(form_id, n, m, k, shear):
    form = get_form(form_id)
    refined = refine(structured_mesh(n, m, shear=shear), k)
    lhs = de_rham(form.exterior_derivative(), refined)
    rhs = coboundary(de_rham(form, refined), refined)
    assert lhs.degree == rhs.degree == form.degree + 1
    assert np.abs(lhs.values - rhs.values).max() < 1e-8


# -- piecewise evaluation --------------------------------------------


def test_piecewise_point_location_and_hints():
    refined = refine(structured_mesh(2, 2), 1)
    cochain = de_rham(get_form("sin2d-1"), refined)
    approx = interpolate(cochain, refined)
    # interior point of cell 0, located automatically
    auto = approx.evaluate(np.array([[0.2, 0.3]]))
    hinted = approx.evaluate(np.array([[0.2, 0.3]]), cell=0)
    for dirs in auto:
        assert auto[dirs] == pytest.approx(hinted[dirs])
    # a point on the shared edge is owned by the lowest cell id and
    # must not raise
    on_edge = approx.evaluate(np.array([[0.5, 0.25]]))
    assert all(np.isfinite(np.asarray(v)).all() for v in on_edge.values())
    with pytest.raises(ValueError, match="no mesh cell"):
        approx.evaluate(np.array([[1.7, 0.1]]))
    single = evaluate_piecewise(approx, np.array([0.2, 0.3]))
    assert single[(0,)] == pytest.approx(float(np.asarray(auto[(0,)])[0]))


def test_piecewise_derivative_is_closed():
    refined = refine(structured_mesh(2, 2, shear=0.2), 2)
    approx = interpolate(de_rham(get_form("sin2d-0"), refined), refined)
    dd = approx.exterior_derivative().exterior_derivative()
    scale = max(
        form.norm() for form in approx.exterior_derivative().cell_forms
    )
    assert all(f.norm() <= 1e-12 * max(1.0, scale) for f in dd.cell_forms)


# -- conformity across faces -----------------------------------------


@pytest.mark.parametrize(
    "form_id,n,p,k,shear",
    [
        ("sin2d-0", 2, 0, 2, 0.0),
        ("sin2d-1", 2, 1, 2, 0.6),
        ("sin3d-1", 3, 1, 1, 0.3),
        ("sin3d-2", 3, 2, 1, 0.0),
    ],
)
def test_interpolants_have_matching_traces(form_id, n, p, k, shear):
    form = get_form(form_id)
    assert form.degree == p
    refined = refine(structured_mesh(n, 2, shear=shear), k)
    approx = interpolate(de_rham(form, refined), refined)
    rng = np.random.default_rng(7)
    assert trace_mismatch(refined, approx, rng, samples=25) < 1e-10


def test_top_degree_trace_is_trivially_zero():
    refined = refine(structured_mesh(2, 2), 1)
    approx = interpolate(de_rham(get_form("sin2d-2"), refined), refined)
    assert trace_mismatch(refined, approx, np.random.default_rng(0)) == 0.0


# -- the identity suite ----------------------------------------------


@pytest.mark.parametrize("n,k,p", [(2, 2, 0), (2, 2, 1), (2, 1, 2), (3, 1, 1)])
def test_identity_report_passes(n, k, p):
    refined = refine(structured_mesh(n, 2, shear=0.25), k)
    report = verify_identities(
        refined, p, trials=2, samples=40, rng=np.random.default_rng(0)
    )
    assert report.passed
    assert report.round_trip_error <= report.tolerance
    assert report.reconstruction_error <= report.tolerance
    if p == n:
        assert report.commutation_error is None
    else:
        assert report.commutation_error <= report.tolerance


def test_catalog_is_complete():
    ids = list_forms()
    assert "sin2d-1" in ids and "sin3d-2" in ids
    with pytest.raises(KeyError, match="unknown"):
        get_form("nope-7")
