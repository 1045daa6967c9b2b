"""Integration, interpolation, and the operator identities.

Oracles: hand-computed edge integrals for the linear catalog forms,
exact reproduction of polynomial forms that lie in the discrete space,
and the discrete Stokes identity checked against independently
assembled incidence matrices.
"""

import hashlib
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubeforms import dof, interp
from cubeforms import mesh as mesh_module
from cubeforms.catalog import get_form, list_forms
from cubeforms.forms import AnalyticForm, PolyForm, basis_grid_stack, exterior_derivative
from cubeforms.interp import (
    Cochain,
    PiecewiseForm,
    coboundary,
    de_rham,
    interpolate,
    verify_identities,
)
from cubeforms.mesh import LOCATE_TOL, CubicalMesh, PulledBackForm, refine, structured_mesh
from cubeforms.quadrature import gauss_unit_interval
from cubeforms.smallcubes import enumerate_small_cubes

from helpers import (
    coefficient_norms,
    de_rham_at_every_local_cube,
    de_rham_by_cell,
    evaluate_product_basis,
    graded_mesh,
    locate_by_pairs,
    locate_by_scan,
    product_basis_derivative,
    product_basis_interpolant,
    scramble_corners,
    skewed,
    trace_mismatch,
    verify_identities_by_trial,
    verify_identities_every_cell,
)


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


def test_cochain_csv_takes_only_the_first_line_as_a_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("0,1\n\n1,2\n2.0,3\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line 4: expected 'id,value'"):
        Cochain.from_csv(path, 0)


@pytest.mark.parametrize("first", ["1.5,2.0", "-1,x", "0,oops"])
def test_cochain_csv_reads_a_numeric_first_line_as_data(tmp_path, first):
    # a first line is a header only if its first field is not a number
    path = tmp_path / "c.csv"
    path.write_text(f"{first}\n0,1.0\n")
    message = f"{path} line 1: expected 'id,value', got {first.split(',')}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Cochain.from_csv(path, 0)


@pytest.mark.parametrize(
    "text,line", [("0,1.0,extra\n1,2.0\n", 1), ("id,value\n0,1.0\n1,2.0,extra\n", 3)]
)
def test_cochain_csv_rejects_a_line_with_more_fields(tmp_path, text, line):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} line {line}: expected 'id,value'"):
        Cochain.from_csv(path, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cochain_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match=rf"cochain id 2 has a non-finite value \({bad}\)"):
        Cochain(1, [0.5, 1.0, bad, 2.0, bad])


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
    local = enumerate_small_cubes(refined.dimension, 0, refined.order)
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


@pytest.mark.parametrize("quad_order", [0, -2, 2.5, True])
def test_de_rham_needs_a_quadrature_point_at_every_degree(quad_order):
    # point values (p = 0) use no rule, yet a rule of no points, or of a count
    # that is not an integer (a bool is not one), is still an error
    refined = refine(structured_mesh(2, 2, shear=0.3), 2)
    message = rf"^need at least one quadrature point, got {quad_order}$"
    if not isinstance(quad_order, int) or isinstance(quad_order, bool):
        message = rf"^quad_order must be an integer, got {quad_order!r}$"
    for p in range(3):
        analytic = get_form(f"sin2d-{p}")
        piecewise = interpolate(de_rham(analytic, refined), refined)
        for form in (analytic, piecewise):
            with pytest.raises(ValueError, match=message):
                de_rham(form, refined, quad_order)


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


@pytest.mark.parametrize(
    "degree,size,want",
    [
        (1, 5, "cochain has 5 values, mesh has 12 small cubes of degree 1"),
        (2, 4, "a 2-cochain has no coboundary on a 2D mesh: the top degree is 2"),
    ],
)
def test_coboundary_checks_its_cochain_before_any_work(degree, size, want):
    refined = refine(structured_mesh(2, 1), 2)
    with pytest.raises(ValueError) as info:
        coboundary(Cochain(degree, np.zeros(size)), refined)
    assert str(info.value) == want


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
    single = approx.evaluate(np.array([0.2, 0.3]))
    assert single[(0,)] == pytest.approx(float(np.asarray(auto[(0,)])[0]))


# -- point location --------------------------------------------------


def _location_meshes(n, rng):
    """Sheared uniform and graded meshes, each also with scrambled corners,
    and a strongly graded one: 8 cells per axis in geometric ratio 3.

    The bucket width is the largest cell's, so on the strongly graded mesh
    the grid has 2 buckets per axis and a point has up to all 8^n cells
    as candidates (457 on average in 3D), against about 8 on a uniform mesh.
    """
    shear = 0.3 if n > 1 else 0.0
    uniform = structured_mesh(n, 3, shear=shear)
    breaks = [np.array([0.0, 0.05, 0.2, 0.6, 2.0]) * (j + 1) for j in range(n)]
    graded = graded_mesh(breaks, shear=shear)
    steep = np.concatenate([[0.0], np.cumsum(3.0 ** np.arange(8))]) / (3**8 - 1) * 2
    strong = graded_mesh([steep * (j + 1) for j in range(n)], shear=shear)
    return [uniform, scramble_corners(uniform, rng), graded, scramble_corners(graded, rng), strong]


def _location_points(refined, rng):
    """Per cell: its vertices, edge and face midpoints and centre, random
    interior points, and points 0.5 and 3 LOCATE_TOL (times the mesh
    scale) inside and outside each face, in the cell's reference frame.
    A mesh of more than 64 cells gets them in 64 randomly drawn cells,
    always including the first and the last."""
    n = refined.dimension
    maps = refined.maps
    max_cells = 64
    if len(maps) > max_cells:
        pick = rng.choice(np.arange(1, len(maps) - 1), max_cells - 2, replace=False)
        maps = [maps[c] for c in [0, *np.sort(pick), len(maps) - 1]]
    slack = LOCATE_TOL * max(1.0, float(np.abs(refined.mesh.vertices).max()))
    lattice = np.array(list(product((0.0, 0.5, 1.0), repeat=n)))
    near = []
    for axis, side, step in product(range(n), (0, 1), (-3.0, -0.5, 0.5, 3.0)):
        x = rng.random(n)
        x[axis] = side + (1 if side else -1) * step * slack
        near.append(x)
    ref = np.concatenate([lattice, rng.random((4, n)), near])
    return np.concatenate([amap(ref) for amap in maps])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_locate_matches_scan_oracle(n):
    rng = np.random.default_rng(10 + n)
    for mesh in _location_meshes(n, rng):
        refined = refine(mesh, 1, degrees=(0,))
        pts = _location_points(refined, rng)
        want = locate_by_scan(refined, pts)
        found = want >= 0
        assert found.any() and not found.all()
        cells, ref = refined.mesh.locate(pts[found])
        assert np.array_equal(cells, want[found])
        for c in np.unique(cells):
            pulled = refined.maps[c].pull_to_reference(pts[found][cells == c])
            assert np.abs(ref[cells == c] - pulled).max() <= 1e-12
        first = pts[int(np.argmin(found))]
        with pytest.raises(ValueError, match=re.escape(f"point {first.tolist()} lies in no")):
            refined.mesh.locate(pts)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_locate_rejects_points_of_another_shape(n):
    mesh = structured_mesh(n, 2)
    pts = np.full((4, n), 0.5)
    for bad in (pts[:, [0] * (n + 1)], pts[0], pts[None]):
        with pytest.raises(ValueError, match=rf"^points must have shape \(\*, {n}\), got "):
            mesh.locate(bad)


def _assert_locates_like_pairs_oracle(mesh, pts):
    try:
        want = locate_by_pairs(mesh, pts)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            mesh.locate(pts)
        assert str(raised.value) == str(error)
        return
    # the second call finds the batch remembered, and must return the same
    for got in (mesh.locate(pts), mesh.locate(pts.copy())):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.blas_free
def test_locate_is_bit_identical_to_pair_oracle(n):
    # same cells, same reference bits, same message for a point in no cell
    rng = np.random.default_rng(20 + n)
    for mesh in _location_meshes(n, rng):
        refined = refine(mesh, 1, degrees=(0,))
        pts = _location_points(refined, rng)
        found = locate_by_scan(refined, pts) >= 0
        _assert_locates_like_pairs_oracle(mesh, pts[found])
        _assert_locates_like_pairs_oracle(mesh, pts)
    mesh = structured_mesh(3, 8, shear=0.3)
    cells = rng.integers(0, mesh.n_cells, 2000)
    ref = rng.random((2000, 3))
    pts = mesh.origins[cells] + np.einsum("sij,sj->si", mesh.linears[cells], ref)
    _assert_locates_like_pairs_oracle(mesh, pts)
    assert len(mesh.locate(pts)[0]) == 2000


@pytest.mark.parametrize("n", [1, 2, 3])
def test_locate_edge_cases(n):
    mesh = structured_mesh(n, 2, shear=0.3 if n > 1 else 0.0)
    refined = refine(mesh, 1, degrees=(1,))
    approx = interpolate(Cochain(1, np.ones(refined.count(1))), refined)
    cells, ref = mesh.locate(np.full((5, n), 0.25))
    assert cells.dtype == np.int64 and cells.shape == (5,)
    assert ref.dtype == np.float64 and ref.shape == (5, n)
    cells, ref = mesh.locate(np.empty((0, n)))
    assert cells.dtype == np.int64 and cells.shape == (0,)
    assert ref.dtype == np.float64 and ref.shape == (0, n)
    for shape in [(0,), (2, 0)]:
        values = approx.evaluate(np.empty(shape + (n,)))
        assert sorted(values) == [(j,) for j in range(n)]
        assert all(v.shape == shape for v in values.values())
    inside = np.full(n, 0.25)
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.array([inside, inside])
        pts[1, -1] = bad
        with pytest.raises(ValueError, match=re.escape(f"point {pts[1].tolist()} lies in no mesh cell")):
            mesh.locate(pts)
    # several points miss: the lowest-index one is named
    pts = np.array([inside, inside + 5, inside, inside - 7, inside + 9])
    with pytest.raises(ValueError, match=re.escape(f"point {pts[1].tolist()} lies in no mesh cell")):
        mesh.locate(pts)
    with pytest.raises(ValueError, match=re.escape(f"point {pts[4].tolist()} lies in no mesh cell")):
        mesh.locate(pts[[0, 2, 4]])


def _probe_points(mesh, rng, count):
    cells = rng.integers(0, mesh.n_cells, count)
    return mesh.map_points(rng.random((count, mesh.dimension))[:, None], cells)[:, 0]


def _count_location_work(monkeypatch, mesh):
    """A list that grows by one each time ``mesh`` locates a batch, not looks it up."""
    mesh.cell_grid  # built before counting: it buckets the cells' boxes too
    calls = []
    bucket_coords = mesh_module._bucket_coords

    def counted(*args):
        calls.append(1)
        return bucket_coords(*args)

    monkeypatch.setattr(mesh_module, "_bucket_coords", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_locate_returns_a_repeated_batch_bit_equal_and_read_only(n):
    mesh = structured_mesh(n, 3, shear=0.3 if n > 1 else 0.0)
    pts = _probe_points(mesh, np.random.default_rng([n, 30]), 50)
    first = mesh.locate(pts)
    for again in (mesh.locate(pts), mesh.locate(pts.copy()), mesh.locate(np.asfortranarray(pts))):
        for a, b in zip(again, first):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable
    cells, x = first
    with pytest.raises(ValueError, match="read-only"):
        cells[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_remembered_batch_is_not_located_again(n, monkeypatch):
    # each label, locate's and unpinned evaluate's (order, degree), locates a batch once
    mesh = structured_mesh(n, 3, shear=0.3 if n > 1 else 0.0)
    refined = refine(mesh, 2, degrees=(1,))
    approx = interpolate(Cochain(1, np.random.default_rng(n).standard_normal(refined.count(1))), refined)
    pts = _probe_points(mesh, np.random.default_rng([n, 31]), 40)
    calls = _count_location_work(monkeypatch, mesh)
    cells, x = mesh.locate(pts)
    want = approx.evaluate_reference(cells, x)
    for _ in range(2):
        assert all(a is b for a, b in zip(mesh.locate(pts), (cells, x)))
        # unpinned evaluate looks up the same bytes, here reshaped, under its own label
        got = approx.evaluate(pts.reshape(2, -1, n))
        assert all(got[d].tobytes() == want[d].tobytes() for d in want)
        assert len(calls) == 2
    mesh.locate(pts[::-1])
    assert len(calls) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_batch_that_raises_is_not_remembered(n, monkeypatch):
    mesh = structured_mesh(n, 2)
    calls = _count_location_work(monkeypatch, mesh)
    inside = np.full(n, 0.25)
    for bad in (inside + 5, np.full(n, np.nan), np.full(n, np.inf)):
        pts = np.array([inside, bad])
        message = re.escape(f"point {bad.tolist()} lies in no mesh cell")
        before = len(calls)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                mesh.locate(pts)
        assert len(calls) == before + 2
    assert not mesh._located


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batches_whose_bytes_differ_are_separate_entries(n, monkeypatch):
    mesh = structured_mesh(n, 2)
    calls = _count_location_work(monkeypatch, mesh)
    zero, negative_zero = np.zeros((1, n)), np.full((1, n), -0.0)
    assert zero.tobytes() != negative_zero.tobytes()
    for pts in (zero, negative_zero, zero, negative_zero):
        cells, x = mesh.locate(pts)
        assert cells.tolist() == [0] and np.array_equal(x, zero)
    assert len(calls) == 2


def _held_bytes(mesh):
    """The bytes the mesh's entries hold, each stored size checked against a new count."""
    for key, (entry, size) in mesh._located.items():
        assert size == mesh_module._entry_bytes(key, entry)
    return sum(size for _, size in mesh._located.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_locate_remembers_within_its_bound_least_recently_used_first(n, monkeypatch):
    bound = 1 << 14
    monkeypatch.setattr(mesh_module, "LOCATE_CACHE_BYTES", bound)
    mesh = structured_mesh(n, 3, shear=0.3 if n > 1 else 0.0)
    rng = np.random.default_rng([n, 32])
    batches = [_probe_points(mesh, rng, size) for size in rng.integers(1, 80, 60)]
    calls = _count_location_work(monkeypatch, mesh)
    for pts in batches:
        mesh.locate(pts)
        mesh.locate(batches[0])  # used again after every batch, so never the oldest
        assert _held_bytes(mesh) == mesh._located_bytes <= bound
    assert len(calls) == len(batches)
    assert len(mesh._located) < len(batches) // 2
    mesh.locate(batches[-1])
    mesh.locate(batches[0])
    assert len(calls) == len(batches)  # both still held
    mesh.locate(batches[1])
    assert len(calls) == len(batches) + 1  # long evicted
    # never kept: a batch whose bytes exceed the bound, and one whose key fits
    # but whose whole entry does not
    held = list(mesh._located)
    for size in (bound // (8 * n) + 1, bound // (8 * n)):
        pts = _probe_points(mesh, rng, size)
        before = len(calls)
        mesh.locate(pts)
        mesh.locate(pts)
        assert len(calls) == before + 2
        assert list(mesh._located) == held


@pytest.mark.parametrize("n", [1, 3])
def test_an_entry_is_sized_once_when_it_is_kept(n, monkeypatch):
    # not on a hit, and not when it is evicted: the stored size is subtracted
    monkeypatch.setattr(mesh_module, "LOCATE_CACHE_BYTES", 1 << 15)
    mesh = structured_mesh(n, 3, shear=0.3 if n > 1 else 0.0)
    refined = refine(mesh, 2, degrees=(0, 1))
    rng = np.random.default_rng([n, 35])
    forms = [interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined) for p in (0, 1)]
    batches = [_probe_points(mesh, rng, 40) for _ in range(12)]
    entry_bytes = mesh_module._entry_bytes
    sized = []

    def counted(key, entry):
        sized.append(key)
        return entry_bytes(key, entry)

    monkeypatch.setattr(mesh_module, "_entry_bytes", counted)
    for _ in range(2):
        for pts in batches:
            mesh.locate(pts)
            for form in forms:
                form.evaluate(pts)
                form.evaluate(pts)  # a hit
    kept = 3 * len(batches)
    assert len(mesh._located) < kept  # entries were evicted on the first pass
    # the second pass finds none of the first pass's oldest entries: each is kept again
    assert len(sized) == 2 * kept and len(set(sized)) == kept
    assert sum(size for _, size in mesh._located.values()) == mesh._located_bytes


@pytest.mark.blas_free
@pytest.mark.parametrize("n", [2, 3])
def test_locate_and_two_degrees_on_the_same_bytes_make_three_entries(n, monkeypatch):
    def interpolants(mesh):
        refined = refine(mesh, 2)
        rng = np.random.default_rng([n, 36])
        return [interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined) for p in (1, 2)]

    mesh = structured_mesh(n, 3, shear=0.3)
    forms = interpolants(mesh)
    pts = _probe_points(mesh, np.random.default_rng([n, 37]), 30)
    calls = _count_location_work(monkeypatch, mesh)
    for _ in range(2):
        located = mesh.locate(pts)
        got = [form.evaluate(pts) for form in forms]
    assert len(calls) == 3
    key = pts.tobytes()
    assert set(mesh._located) == {(None, key), ((2, 1), key), ((2, 2), key)}
    fresh = structured_mesh(n, 3, shear=0.3)
    want = [form.evaluate(pts) for form in interpolants(fresh)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(located, fresh.locate(pts)))
    for values, expected in zip(got, want):
        assert all(values[d].tobytes() == expected[d].tobytes() for d in expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_entry_too_large_for_the_bound_is_not_kept(n, monkeypatch):
    def interpolant():
        mesh = structured_mesh(n, 3, shear=0.3 if n > 1 else 0.0)
        refined = refine(mesh, 3, degrees=(1,))
        values = np.random.default_rng(n).standard_normal(refined.count(1))
        return mesh, interpolate(Cochain(1, values), refined)

    mesh, approx = interpolant()
    pts = _probe_points(mesh, np.random.default_rng([n, 38]), 50)
    approx.evaluate(pts)
    ((_, size),) = mesh._located.values()
    # a bound that would hold the batch's location alone, not with its tables
    monkeypatch.setattr(mesh_module, "LOCATE_CACHE_BYTES", size - 1)
    mesh, approx = interpolant()
    calls = _count_location_work(monkeypatch, mesh)
    for _ in range(2):
        got = approx.evaluate(pts)
        assert not mesh._located and mesh._located_bytes == 0
    assert len(calls) == 2
    want = approx.evaluate_reference(*mesh.locate(pts))
    assert all(got[d].tobytes() == want[d].tobytes() for d in want)
    assert list(mesh._located) == [(None, pts.tobytes())]  # the location alone fits


def _pinned_by_cell(form, pts, cells):
    """Unpinned-shaped values of ``pts`` evaluated cell by cell with ``cell=``."""
    out = {dirs: np.empty(len(pts)) for dirs in combinations(range(form.dimension), form.degree)}
    for c in np.unique(cells):
        got = form.evaluate(pts[cells == c], cell=int(c))
        for dirs, values in got.items():
            out[dirs][cells == c] = values
    return out


@pytest.mark.blas_free
@pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3) for k in (1, 2, 3)])
def test_a_repeated_batch_evaluates_from_its_kept_tables_as_a_first_evaluation(n, k, monkeypatch):
    # the first unpinned evaluation keeps the batch's location, minors and factor
    # tables in one entry per (order, degree); a new interpolant evaluated on the
    # same bytes reads them and gives the bits of a first evaluation on a fresh
    # mesh and of pinned evaluation
    rng = np.random.default_rng([n, k, 33])
    mesh = structured_mesh(n, 3, shear=0.3)
    refined = refine(mesh, k)
    pts = _probe_points(mesh, rng, 60)
    key = pts.tobytes()
    calls = _count_location_work(monkeypatch, mesh)
    for p in range(n + 1):
        first, again = (rng.standard_normal(refined.count(p)) for _ in range(2))
        before = len(calls)
        interpolate(Cochain(p, first), refined).evaluate(pts)
        entry, _ = mesh._located[(k, p), key]
        assert len(entry) == 5  # cells, points, minors and the two factor tables
        got = interpolate(Cochain(p, again), refined).evaluate(pts)
        assert mesh._located[(k, p), key][0] is entry and len(calls) == before + 1
        fresh = refine(structured_mesh(n, 3, shear=0.3), k)
        want = interpolate(Cochain(p, again), fresh).evaluate(pts)
        pinned = _pinned_by_cell(interpolate(Cochain(p, again), refined), pts, mesh.locate(pts)[0])
        for dirs in want:
            assert got[dirs].tobytes() == want[dirs].tobytes() == pinned[dirs].tobytes()
    assert {label for label, _ in mesh._located} == {None, *((k, p) for p in range(n + 1))}
    assert _held_bytes(mesh) == mesh._located_bytes
    # an empty batch keeps empty tables and still gives empty components
    approx = interpolate(Cochain(1, rng.standard_normal(refined.count(1))), refined)
    for _ in range(2):
        values = approx.evaluate(np.empty((0, n)))
        assert sorted(values) == [(j,) for j in range(n)]
        assert all(v.shape == (0,) for v in values.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kept_tables_count_against_the_locate_bound(n, monkeypatch):
    mesh = structured_mesh(n, 3, shear=0.3 if n > 1 else 0.0)
    refined = refine(mesh, 3, degrees=(1,))
    approx = interpolate(Cochain(1, np.random.default_rng(n).standard_normal(refined.count(1))), refined)
    rng = np.random.default_rng([n, 34])
    pts = _probe_points(mesh, rng, 50)
    key = pts.tobytes()
    mesh.locate(pts)
    approx.evaluate(pts)
    _, located = mesh._located[None, key]
    entry, whole = mesh._located[(3, 1), key]
    assert whole - located >= sum(a.nbytes for a in entry[2:])  # the data, not just headers
    assert _held_bytes(mesh) == mesh._located_bytes == located + whole
    # under a bound of two whole entries, kept tables push older batches out
    bound = 2 * whole + located // 2
    monkeypatch.setattr(mesh_module, "LOCATE_CACHE_BYTES", bound)
    batches = [_probe_points(mesh, rng, 50) for _ in range(6)]
    for batch in batches:
        approx.evaluate(batch)
        assert ((3, 1), batch.tobytes()) in mesh._located
        assert _held_bytes(mesh) == mesh._located_bytes <= bound
    assert [((3, 1), batch.tobytes()) in mesh._located for batch in batches] == [False] * 4 + [True] * 2
    assert (None, key) not in mesh._located


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    entries=st.lists(st.floats(-0.6, 0.6), min_size=9, max_size=9),
    scale=st.floats(0.05, 20.0),
    shift=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_locate_matches_scan_oracle_on_random_affine_meshes(n, m, entries, scale, shift, seed):
    linear = scale * (np.eye(n) + np.reshape(entries, (3, 3))[:n, :n])
    assume(abs(np.linalg.det(linear)) > 0.05 * scale**n)
    rng = np.random.default_rng(seed)
    base = structured_mesh(n, m)
    mesh = CubicalMesh(n, base.vertices @ linear.T + shift[:n], base.cells)
    refined = refine(scramble_corners(mesh, rng), 1, degrees=(0,))
    ref = rng.uniform(-0.2, 1.2, (60, n))
    ref[::2] = np.round(2 * ref[::2]) / 2  # on vertices, edges and faces
    cells = rng.integers(0, mesh.n_cells, len(ref))
    pts = np.array([refined.maps[c](x) for c, x in zip(cells, ref)])
    want = locate_by_scan(refined, pts)
    found = want >= 0
    assert np.array_equal(refined.mesh.locate(pts[found])[0], want[found])


def _assert_components_close(got, want, tol=1e-12):
    for dirs in set(got) | set(want):
        a = np.asarray(got.get(dirs, 0.0))
        b = np.asarray(want.get(dirs, 0.0))
        assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max()), dirs


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_piecewise_form_matches_per_cell_oracle(n, k):
    # the interpolant's coefficients in the product basis, solved by the
    # reference solver, expanded into monomials and pushed through the cell
    # map by PulledBackForm, give the same form and the same exterior
    # derivative as the array path in the basis dual to the small cubes
    rng = np.random.default_rng(4)
    mesh = structured_mesh(n, 2, shear=0.3)
    for m in (mesh, scramble_corners(mesh, rng)):
        refined = refine(m, k)
        for p in range(n + 1):
            cochain = Cochain(p, rng.standard_normal(refined.count(p)))
            approx = interpolate(cochain, refined)
            d_approx = approx.exterior_derivative()
            product = product_basis_interpolant(cochain, refined)
            stack = basis_grid_stack(n, p, k)
            interior = 0.05 + 0.9 * rng.random((12, n))
            for c, amap in enumerate(refined.maps):
                poly = PolyForm(
                    n,
                    p,
                    {
                        dirs: np.tensordot(block[c].ravel(), stack[dirs], 1)
                        for dirs, block in product.items()
                    },
                )
                pts = amap(interior)
                pinned = approx.evaluate(pts, cell=c)
                _assert_components_close(pinned, PulledBackForm(amap, poly).evaluate(pts))
                _assert_components_close(
                    d_approx.evaluate(pts, cell=c),
                    PulledBackForm(amap, exterior_derivative(poly)).evaluate(pts),
                )
                _assert_components_close(approx.evaluate(pts), pinned)


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in (1, 2, 3) for k in range(1, 7)] + [(4, k) for k in range(1, 5)]
)
def test_interpolants_agree_with_the_product_basis_oracle(n, k):
    # the same interpolant and the same exterior derivative, stored in the
    # product basis by the reference solve and differentiated by D_k, at
    # every degree, on plain and scrambled meshes
    rng = np.random.default_rng([16, n, k])
    mesh = structured_mesh(n, 2 if n < 4 else 1, shear=0.3 if n > 1 else 0.0)
    for m in (mesh, scramble_corners(mesh, rng)):
        refined = refine(m, k)
        cells = rng.integers(0, m.n_cells, size=40)
        x = rng.random((40, n))
        for p in range(n + 1):
            cochain = Cochain(p, rng.standard_normal(refined.count(p)))
            approx = interpolate(cochain, refined)
            product = product_basis_interpolant(cochain, refined)
            pairs = [(approx, product)]
            if p < n:
                d_product = product_basis_derivative(product, n, k)
                pairs.append((approx.exterior_derivative(), d_product))
            for form, blocks in pairs:
                want = evaluate_product_basis(blocks, form.degree, refined, cells, x)
                _assert_components_close(form.evaluate_reference(cells, x), want)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 3)])
def test_interpolant_coefficients_are_the_signed_local_values(n, k):
    rng = np.random.default_rng([17, n, k])
    refined = refine(scramble_corners(structured_mesh(n, 2, shear=0.3 if n > 1 else 0.0), rng), k)
    for p in range(n + 1):
        x = rng.standard_normal(refined.count(p))
        approx = interpolate(Cochain(p, x), refined)
        local = x[refined.cell_tables[p]] * refined.cell_signs[p]
        got = np.concatenate([b.reshape(len(b), -1) for b in approx.coefficients.values()], axis=1)
        assert got.tobytes() == local.tobytes()


def test_pipeline_runs_without_the_reference_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("ReferenceSolver.solve called on the pipeline")

    monkeypatch.setattr(dof.ReferenceSolver, "solve", refuse)
    refined = refine(structured_mesh(3, 2, shear=0.3), 3)
    rng = np.random.default_rng(18)
    for p in range(4):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        pts = refined.mesh.map_points(rng.random((5, 3))).reshape(-1, 3)
        approx.evaluate(pts)
        approx.evaluate(pts[:5], cell=0)
        if p < 3:
            approx.exterior_derivative().evaluate(pts)
        de_rham(approx, refined)
        assert verify_identities(refined, p, trials=2, samples=20, rng=0).passed


@pytest.mark.parametrize("k", range(1, 9))
def test_dual_basis_tables_are_the_identity_on_the_small_cubes(k):
    # Lagrange polynomials at their nodes, and histopolants integrated over
    # their segments by a Gauss rule exact for their degree k - 1
    nodes = np.arange(k + 1) / k
    fixed = interp._factor_tables(nodes[:, None], k)[1][:, 0]
    assert np.abs(fixed - np.eye(k + 1)).max() <= 1e-13
    pts, wts = gauss_unit_interval(k)
    x = (np.arange(k)[:, None] + pts).reshape(-1, 1) / k
    spanned = interp._factor_tables(x, k)[0][:, 0].reshape(k, k, k) @ (wts / k)
    assert np.abs(spanned - np.eye(k)).max() <= 1e-13


@pytest.mark.parametrize("cell", [-1, 4, 1.0, True])
def test_piecewise_evaluate_rejects_bad_cell(cell):
    refined = refine(structured_mesh(2, 2), 1)
    approx = interpolate(de_rham(get_form("sin2d-1"), refined), refined)
    with pytest.raises(ValueError, match=rf"cell must be an integer in 0\.\.3, got {cell!r}"):
        approx.evaluate(np.array([[0.2, 0.3]]), cell=cell)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 1)], ids=["point", "batch", "column"])
def test_piecewise_evaluate_rejects_wrong_point_dimension(shape):
    refined = refine(structured_mesh(2, 2), 1)
    approx = interpolate(de_rham(get_form("sin2d-1"), refined), refined)
    with pytest.raises(
        ValueError, match=rf"points have {shape[-1]} coordinates, form lives in dimension 2"
    ):
        approx.evaluate(np.full(shape, 0.25), cell=0)


@pytest.mark.parametrize("n,k", product((1, 2, 3), (1, 3)))
def test_evaluate_reference_matches_pinned_physical_evaluation(n, k):
    rng = np.random.default_rng([n, k])
    mesh = scramble_corners(structured_mesh(n, 2, shear=0.3 if n > 1 else 0.0), rng)
    refined = refine(mesh, k)
    x = rng.random((20, n))
    cells = rng.integers(0, mesh.n_cells, size=len(x))
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        per_point = approx.evaluate_reference(cells, x)
        for c in range(mesh.n_cells):
            want = approx.evaluate(mesh.map_points(x, [c])[0], cell=c)
            pinned = approx.evaluate_reference(c, x)
            _assert_components_close(pinned, want)
            mine = cells == c
            if mine.any():
                _assert_components_close(
                    {dirs: v[mine] for dirs, v in per_point.items()},
                    {dirs: v[mine] for dirs, v in want.items()},
                )
                for dirs, v in pinned.items():
                    assert np.array_equal(v[mine], per_point[dirs][mine])


def test_pinned_evaluation_rejects_a_point_whose_pull_back_overflows():
    # a finite point far enough outside its cell has no finite reference point
    refined = refine(structured_mesh(3, 2, shear=0.3), 1)
    approx = interpolate(de_rham(get_form("sin3d-1"), refined), refined)
    batch = np.array([[0.5, 0.5, 0.5], [1e308, 0.5, 0.5], [np.nan, 0.5, 0.5]])
    message = re.escape(f"point {batch[1].tolist()} pulls back to a non-finite point of cell 3")
    for points in (batch, batch[1]):
        with pytest.raises(ValueError, match=message):
            approx.evaluate(points, cell=3)


def _skewed_scrambled(n, rng):
    mesh = structured_mesh(n, 2 if n < 4 else 1, shear=0.3 if n > 1 else 0.0)
    return scramble_corners(skewed(mesh, n), rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coefficients_keep_their_shape_and_stay_read_only(n):
    rng = np.random.default_rng(n)
    mesh = _skewed_scrambled(n, rng)
    refined = refine(mesh, 2)
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        forms = [approx] + ([approx.exterior_derivative()] if p < n else [])
        for form in forms:
            assert sorted(form.coefficients) == list(combinations(range(n), form.degree))
            local = refined.cell_tables[form.degree].shape[1]
            assert sum(b[0].size for b in form.coefficients.values()) == local
            for dirs, block in form.coefficients.items():
                sizes = tuple(2 if j in dirs else 3 for j in range(n))
                assert block.shape == (mesh.n_cells, *sizes)
                assert not block.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    block[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_form_built_from_cell_first_blocks_evaluates_as_its_source(n):
    # the documented constructor takes (n_cells, *sizes) blocks, here fresh
    # C-ordered copies, as a user would build them
    rng = np.random.default_rng([n, 5])
    mesh = _skewed_scrambled(n, rng)
    refined = refine(mesh, 3)
    phys = mesh.map_points(rng.random((4, n))).reshape(-1, n)
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        blocks = {dirs: np.array(block) for dirs, block in approx.coefficients.items()}
        built = PiecewiseForm(refined, p, blocks)
        for dirs, block in built.coefficients.items():
            assert np.array_equal(block, blocks[dirs]) and not block.flags.writeable
        pairs = [(approx, built)]
        if p < n:
            pairs.append((approx.exterior_derivative(), built.exterior_derivative()))
        for want, got in pairs:
            for cell in (None, mesh.n_cells - 1):
                a, b = want.evaluate(phys, cell=cell), got.evaluate(phys, cell=cell)
                assert all(a[dirs].tobytes() == b[dirs].tobytes() for dirs in a)
            assert de_rham(got, refined).values.tobytes() == de_rham(want, refined).values.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unpinned_evaluation_is_the_reference_kernel_at_located_points(n):
    rng = np.random.default_rng([n, 9])
    mesh = _skewed_scrambled(n, rng)
    refined = refine(mesh, 2)
    # interior points, and every cell's corners, which lie on shared faces
    phys = np.concatenate(
        [
            mesh.map_points(rng.random((5, n))).reshape(-1, n),
            mesh.map_points(np.indices((2,) * n).reshape(n, -1).T).reshape(-1, n),
        ]
    )
    cells, x = mesh.locate(phys)
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        got, want = approx.evaluate(phys), approx.evaluate_reference(cells, x)
        assert sorted(got) == sorted(want)
        assert all(got[dirs].tobytes() == want[dirs].tobytes() for dirs in want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unpinned_evaluation_rejects_a_non_finite_point_by_location(bad):
    refined = refine(structured_mesh(3, 2, shear=0.3), 1)
    approx = interpolate(de_rham(get_form("sin3d-1"), refined), refined)
    batch = np.full((3, 3), 0.5)
    batch[2, 1] = bad
    message = re.escape(f"point {batch[2].tolist()} lies in no mesh cell")
    for points in (batch, batch[2], batch[None]):
        with pytest.raises(ValueError, match=message):
            approx.evaluate(points)


@pytest.mark.parametrize("n,k", product((1, 2, 3, 4), (1, 2, 3)))
@pytest.mark.blas_free
def test_a_point_has_the_same_bits_alone_pinned_and_located(n, k):
    # one evaluation path: a point evaluated alone with cell=c, among a batch
    # pinned to c and among every cell's points located unpinned gives equal
    # values.  The points keep clear of the faces, where location may pick
    # a lower-index neighbour
    rng = np.random.default_rng([19, n, k])
    mesh = scramble_corners(skewed(structured_mesh(n, 2), [19, n]), rng)
    refined = refine(mesh, k)
    phys = mesh.map_points(0.05 + 0.9 * rng.random((50, n)))
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        located = approx.evaluate(phys)
        for c, points in enumerate(phys):
            batch = approx.evaluate(points, cell=c)
            for i, point in enumerate(points):
                alone = approx.evaluate(point, cell=c)
                for dirs, v in batch.items():
                    assert alone[dirs] == v[i] == located[dirs][c, i], (c, i, dirs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pinned_evaluation_rejects_non_finite_points(bad):
    refined = refine(structured_mesh(3, 2, shear=0.3), 1)
    approx = interpolate(de_rham(get_form("sin3d-1"), refined), refined)
    lone = np.array([bad, 0.5, 0.5])
    batch = np.full((4, 3), 0.5)
    batch[1, 2], batch[3, 0] = bad, np.nan  # the first point that is not finite is row 1
    for points, first in ((lone, lone), (lone[None], lone), (batch, batch[1])):
        message = re.escape(f"point {first.tolist()} has a non-finite coordinate")
        with pytest.raises(ValueError, match=message):
            approx.evaluate(points, cell=0)
        if points.ndim == 2:
            for cells in (0, np.arange(len(points))):
                with pytest.raises(ValueError, match=message):
                    approx.evaluate_reference(cells, points)


@pytest.mark.parametrize(
    "cells,points",
    [
        (0, np.full(2, 0.5)),
        (0, np.full((4, 3), 0.5)),
        (0, np.full((1, 4, 2), 0.5)),
        (-1, np.full((4, 2), 0.5)),
        (4, np.full((4, 2), 0.5)),
        (np.array([0, 1, -1, 2]), np.full((4, 2), 0.5)),
        (np.array([0, 1, 4, 2]), np.full((4, 2), 0.5)),
        (np.array([0, 1, 2]), np.full((4, 2), 0.5)),
        (np.array([0.0, 1.0, 2.0, 3.0]), np.full((4, 2), 0.5)),
        (True, np.full((4, 2), 0.5)),
    ],
)
def test_evaluate_reference_rejects_bad_points_and_cells(cells, points):
    refined = refine(structured_mesh(2, 2), 1)
    approx = interpolate(de_rham(get_form("sin2d-1"), refined), refined)
    with pytest.raises(ValueError, match=r"^(reference points must have shape|cells must be)"):
        approx.evaluate_reference(cells, points)


def test_evaluate_on_an_empty_batch_gives_empty_components():
    refined = refine(structured_mesh(2, 2), 1)
    approx = interpolate(de_rham(get_form("sin2d-1"), refined), refined)
    empty = np.empty((0, 2))
    for values in (
        approx.evaluate(empty),
        approx.evaluate_reference([], empty),
        approx.evaluate_reference(np.array([], dtype=int), empty),
    ):
        assert list(values) == [(0,), (1,)]
        assert all(v.shape == (0,) for v in values.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_empty_mesh_integrates_refuses_sampling_and_round_trips_a_file(n, tmp_path):
    mesh = CubicalMesh(n, np.zeros((0, n)), ())
    refined = refine(mesh, 2)
    for p in range(n + 1):
        back = de_rham(interpolate(Cochain(p, []), refined), refined)
        assert back.degree == p and back.values.shape == (0,)
    # no cell can be sampled: a named error before any draw
    with pytest.raises(ValueError, match="^verify_identities samples cells, and the mesh is empty$"):
        verify_identities(refined, 0)
    mesh_module.save_mesh(mesh, tmp_path / "empty.json")
    loaded = mesh_module.load_mesh(tmp_path / "empty.json")
    assert loaded.dimension == n and loaded.vertices.shape == (0, n) and loaded.n_cells == 0


class _PhysicalOnly:
    """A form offering only ``degree`` and physical ``evaluate``."""

    def __init__(self, form):
        self.degree = form.degree
        self.evaluate = form.evaluate


# Recorded when each global cube came to be integrated at its first owner, after
# every cochain was shown to move from the last owner's by at most 4.7e-16 of its
# largest value on these meshes; the cell maps and the cube sums are elementwise,
# so every batch size, BLAS kernel and BLAS thread count must reproduce every bit.
DE_RHAM_DIGESTS = {
    (2, 1, False): "8fd8d6d61a7f9278622c12bba446b14a4510bf787cf5f5b97374d4971b7c29b9",
    (2, 1, True): "bd156105c2e5ecf7a6a7c78cf6e670b44e77b832c1819536cab9d2e721004bea",
    (2, 2, False): "0eb331f3321832e903b06eb88090cb601e2e848675faa0825409d1015333be3d",
    (2, 2, True): "9734277f33e7540992a2366badf25cb98f1716c89965478e2e76b8a4932a000e",
    (2, 3, False): "a6d873ecdb3c0a1c2bef1308ef10b4f09855f53505a7b4c879fb35165f9fb624",
    (2, 3, True): "cc4a12f994b3b41600b59f5a71a79ab7013e78b66bebc465efec6bed89f99ad4",
    (3, 1, False): "c6cfa35824ec035a84abcd57d1052a6187cf1800a9e6d9d6c9440163874ded9f",
    (3, 1, True): "01d1033230a648ea24b1b459aa5ef20ec3533ce4f0fca5adf4f4e37efdbb9e71",
    (3, 2, False): "76e7ad06a02cde719cafb9f276e522deb09298221fba549607cdf17ebb2b8851",
    (3, 2, True): "a852d258a884e8ce84f595d32fb7d145207d566efa93f206deb89a5eae38ddf6",
    (3, 3, False): "0bf13969189cd77d9cd02e0f411666c73e975c7bfe836aa0941f1039fe8041fa",
    (3, 3, True): "96a171496b35a4a8315bb0f20f65e4f327f9db6e3440abd58dd8cdd72cef88a2",
}


@pytest.mark.parametrize("n,k,scrambled", DE_RHAM_DIGESTS)
@pytest.mark.parametrize("batch_points", [None, 1, 100])
@pytest.mark.blas_free
def test_de_rham_of_analytic_forms_is_pinned(n, k, scrambled, batch_points, monkeypatch):
    if batch_points is not None:
        # one cell, or a few cells, per batch must not change a bit either
        monkeypatch.setattr(interp, "DE_RHAM_BATCH_POINTS", batch_points)
    mesh = structured_mesh(n, 2, shear=0.3)
    if scrambled:
        mesh = scramble_corners(mesh, np.random.default_rng([n, k]))
    refined = refine(mesh, k)
    h = hashlib.sha256()
    for p in range(n + 1):
        values = de_rham(get_form(f"sin{n}d-{p}"), refined).values
        h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    assert h.hexdigest() == DE_RHAM_DIGESTS[n, k, scrambled]


# Interpolation, evaluation (unpinned and pinned to each cell) and the
# exterior derivative must keep every bit.  Recorded when pinned evaluation
# became the per-point path (one einsum pull-back, BLAS-free factor tables)
# and the 1-D inverses were rounded once from their exact values, after the
# hashed arrays were shown to agree with the matrix-product path within
# 5.3e-16 of their largest value on these meshes: every BLAS kernel and
# BLAS thread count must reproduce every bit.
INTERPOLANT_DIGESTS = {
    (2, 1, False): "dc62f344fa979e32bef261001744718fa38cd56706630677f632ec024436ce46",
    (2, 1, True): "576ecb8ffa83cbcc628e11b2fb402a57fd8bb4ade233b7fee9e2fcd9c7f29a2b",
    (2, 2, False): "b0898de3c337d55a7cc9e8d4bb67c61aad705830d6f33da80797a433f72175d0",
    (2, 2, True): "a1673eb907924cbbf3c6496480d4937e73af991f5b9253cc39ac551de69efc05",
    (2, 3, False): "9ddad68a9928a97aa4b5d96f79509adb0e2587c579348cfdd5ecff244473a70f",
    (2, 3, True): "35c284ea8d0611592c9f71aedd722f29189aef65dc719dac81c23866aff76f8c",
    (3, 1, False): "09ac3226df78dd1ee9a4a7f495de6b04ca62ffb69bee6428b5052c7bbb276223",
    (3, 1, True): "d28d2d8444de21e53f421d8f94007784cc49e39c61518d98b3d1bb45c9437ce9",
    (3, 2, False): "253931917ebe8b058d3f885459b40b1daa327562a3b9fcc1f798458dc819eb13",
    (3, 2, True): "d84a7da0af7e1a68762f561a09b3ba2119d6df42111ac576a93fbd1a582049f3",
    (3, 3, False): "85c3af4bbd0c0cae44b287a73e8a1be47123778d8da54483a077875d4225de9f",
    (3, 3, True): "4cf54b38b2a61d1eed333b128adf249c681b7bad2b5e39293d5d6a33a926b1c9",
}


@pytest.mark.parametrize("n,k,scrambled", INTERPOLANT_DIGESTS)
@pytest.mark.blas_free
def test_interpolants_and_their_values_are_pinned(n, k, scrambled):
    rng = np.random.default_rng([n, k, int(scrambled)])
    mesh = structured_mesh(n, 2, shear=0.3)
    if scrambled:
        mesh = scramble_corners(mesh, rng)
    refined = refine(mesh, k)
    phys = mesh.map_points(rng.random((6, n)))
    h = hashlib.sha256()
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        for form in [approx] + ([approx.exterior_derivative()] if p < n else []):
            arrays = list(form.coefficients.values())
            arrays += form.evaluate(phys.reshape(-1, n)).values()
            for c in range(mesh.n_cells):
                arrays += form.evaluate(phys[c], cell=c).values()
            for a in arrays:
                h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == INTERPOLANT_DIGESTS[n, k, scrambled]


class _CountingForm:
    """A form that counts the points it is evaluated at."""

    def __init__(self, form):
        self.degree, self.dimension = form.degree, form.dimension
        self.form = form
        self.points = 0

    def evaluate(self, points):
        self.points += int(np.prod(np.shape(points)[:-1]))
        return self.form.evaluate(points)


@pytest.mark.parametrize("batch_points", [None, 1])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_de_rham_evaluates_each_global_cube_once(p, batch_points, monkeypatch):
    if batch_points is not None:
        monkeypatch.setattr(interp, "DE_RHAM_BATCH_POINTS", batch_points)
    refined = refine(structured_mesh(3, 2, shear=0.3), 2)
    form = get_form(f"sin3d-{p}")
    counting = _CountingForm(form)
    values = de_rham(counting, refined).values
    q = 2 * refined.order + 2  # the default rule's points per axis
    assert counting.points == refined.count(p) * q**p
    assert values.tobytes() == de_rham(form, refined).values.tobytes()


def _trig_4d(p):
    # elementwise only: a product over the points would round by their shape
    def component(dirs):
        return lambda x: np.sin(np.pi * sum((1.0 + a + sum(dirs)) * x[..., a] for a in range(4)))

    return AnalyticForm(4, p, {dirs: component(dirs) for dirs in combinations(range(4), p)})


@pytest.mark.parametrize("batch_points", [None, 1])
@pytest.mark.parametrize(
    "n,k,mesh",
    [
        (3, 2, structured_mesh(3, 2, shear=0.3)),
        (3, 3, scramble_corners(structured_mesh(3, 2, shear=0.3), np.random.default_rng(3))),
        (4, 2, structured_mesh(4, 2, shear=0.3)),
        # a general affine image, where even corner coordinates 0 and 1 give
        # inexact sums, with one cell that owns a lone vertex
        (4, 1, scramble_corners(skewed(structured_mesh(4, 2), 7), np.random.default_rng(4))),
    ],
)
@pytest.mark.blas_free
def test_owner_only_de_rham_keeps_the_bits_of_every_owner_mapping(
    n, k, mesh, batch_points, monkeypatch
):
    # mapping only the owned cubes' points, a batch of cells at a time, rounds
    # as mapping all local cubes of a tuple cell by cell
    if batch_points is not None:
        monkeypatch.setattr(interp, "DE_RHAM_BATCH_POINTS", batch_points)
    refined = refine(mesh, k)
    for p in range(n + 1):
        form = get_form(f"sin3d-{p}") if n == 3 else _trig_4d(p)
        want = de_rham_at_every_local_cube(form, refined).values
        assert de_rham(form, refined).values.tobytes() == want.tobytes()


def test_de_rham_rejects_a_degree_that_was_not_refined():
    refined = refine(structured_mesh(3, 2), 2, degrees=(1,))
    with pytest.raises(KeyError, match=re.escape("degree 2 was not refined; available: (1,)")):
        de_rham(get_form("sin3d-2"), refined)


@pytest.mark.parametrize(
    "form_id,n,message",
    [
        ("sin2d-1", 3, "form lives in dimension 2, mesh in dimension 3"),
        ("sin2d-0", 1, "form lives in dimension 2, mesh in dimension 1"),
        ("sin3d-1", 2, "form lives in dimension 3, mesh in dimension 2"),
    ],
)
def test_de_rham_rejects_a_form_of_another_dimension(form_id, n, message):
    form = get_form(form_id)
    refined = refine(structured_mesh(n, 2), 2, degrees=(form.degree,))
    with pytest.raises(ValueError, match=message):
        de_rham(form, refined)


def test_de_rham_rejects_a_piecewise_form_of_another_dimension():
    refined = refine(structured_mesh(2, 2), 1, degrees=(1,))
    approx = interpolate(de_rham(get_form("sin2d-1"), refined), refined)
    other = refine(structured_mesh(3, 1), 1, degrees=(1,))
    with pytest.raises(ValueError, match="form lives in dimension 2, mesh in dimension 3"):
        de_rham(approx, other)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_de_rham_on_reference_points_matches_physical_evaluation(n, k):
    # a piecewise form on its own mesh is integrated by per-axis tables;
    # hiding its type makes de_rham evaluate it at mapped physical points.
    # Both apply the same Gauss rule, so a one-point rule (far from exact
    # at k = 3) only agrees if the tables use it too
    rng = np.random.default_rng(6)
    mesh = structured_mesh(n, 2, shear=0.3)
    for m in (mesh, scramble_corners(mesh, rng)):
        refined = refine(m, k)
        for p in range(n + 1):
            approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
            for quad_order in (None, 1):
                got = de_rham(approx, refined, quad_order).values
                want = de_rham(_PhysicalOnly(approx), refined, quad_order).values
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), quad_order


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)])
def test_de_rham_on_own_mesh_matches_per_cell_oracle(n, k):
    # the sum-factorised integrals agree with evaluating every cell at the
    # tensor Gauss points, for the default, a one-point and a high-order rule
    rng = np.random.default_rng([7, n, k])
    meshes = [structured_mesh(n, 2)]
    if n >= 2:
        sheared = structured_mesh(n, 2, shear=0.3)
        meshes = [sheared, scramble_corners(sheared, rng)]
    for mesh in meshes:
        refined = refine(mesh, k)
        for p in range(n + 1):
            approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
            for quad_order in (None, 1, 2 * k + 5):
                got = de_rham(approx, refined, quad_order).values
                want = de_rham_by_cell(approx, refined, quad_order).values
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (p, quad_order)


@pytest.mark.parametrize("n", [2, 3])
def test_de_rham_on_own_mesh_at_other_orders_matches_per_cell_oracle(n):
    # the same mesh refined to another order: the tables keep the form's
    # own basis order while the small cubes follow the target's
    rng = np.random.default_rng([8, n])
    mesh = scramble_corners(structured_mesh(n, 2, shear=0.3), rng)
    source = refine(mesh, 2)
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(source.count(p))), source)
        for target in (refine(mesh, 1), refine(mesh, 3)):
            got = de_rham(approx, target).values
            want = de_rham_by_cell(approx, target).values
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (p, target.order)


def test_piecewise_derivative_is_closed():
    refined = refine(structured_mesh(2, 2, shear=0.2), 2)
    approx = interpolate(de_rham(get_form("sin2d-0"), refined), refined)
    dd = approx.exterior_derivative().exterior_derivative()
    scale = np.max(coefficient_norms(approx.exterior_derivative()))
    assert np.all(coefficient_norms(dd) <= 1e-12 * max(1.0, scale))


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


@pytest.mark.parametrize(
    "n,k,p",
    [(2, 2, 0), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 4, 0), (3, 4, 1), (3, 4, 2), (3, 4, 3)],
)
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


# Same-mesh de_rham of a seeded interpolant, the round trip, and the identity
# reports, which integrate on the reference cube by one einsum per anchor axis,
# must keep every bit.  Recorded when that integration stopped calling BLAS, the
# scrambled meshes of n >= 2 again when each cube came to be integrated at its first
# owner; the default, Sandybridge, Haswell and Prescott OpenBLAS kernels, at one BLAS
# thread, gave the same digests.
ROUND_TRIP_DIGESTS = {
    (1, 2, False): "7063068bc2ab2e837c68a44f2fd90ef1d4b774b6afd8008030e3a9fa546a46cb",
    (1, 2, True): "19d91c646463db50aca0ce21a71e0bc14b456c67249dd680335014e1da677592",
    (1, 3, False): "273c098bd4f23f1261932e7793bd9a28c3e85b82a88f4f9a56815d42e2e91b7f",
    (1, 3, True): "a184b89f0e11dbe18770d331b3f227b744bab72c56ca72809c12bf7340e9ab14",
    (2, 2, False): "f14617cbae26b3cb78737d4b27760d0d0f20d45223176cd08853a99b79021ddb",
    (2, 2, True): "b9d2511aa3b7d3d0739fabcb6a65fbc8ef10571c946dc0f95eda3867803a1f94",
    (2, 3, False): "3ca3a282e7770b635f83589b08ab46d2b07ee5d49765113e0274ddd071008970",
    (2, 3, True): "a25920869dcee9988af15a974ffb427d154749d08a504dd0bf3a6b780f3b11a8",
    (3, 2, False): "bd57b32b4adcac8b3005b772722e9bc660aef11d6edc46a66a41768aa1fe30cb",
    (3, 2, True): "8cbaaf01992dbf98c4c2a7ebe355a9d61c8cd8227962d9d6ea02f8db99cf4d3b",
    (3, 3, False): "1414f9397f0c744f1b720abbdec0fdd4ba2c74eac64303dd10147df342a48fe8",
    (3, 3, True): "b80cc0069743e0091b779e6e647b38dee60067826ced3b783a94aa706cfa9aa7",
}


@pytest.mark.parametrize("n,k,scrambled", ROUND_TRIP_DIGESTS)
@pytest.mark.blas_free
def test_round_trips_and_identity_reports_are_pinned(n, k, scrambled):
    rng = np.random.default_rng([n, k, int(scrambled)])
    mesh = structured_mesh(n, 2, shear=0.3) if n > 1 else structured_mesh(1, 2)
    if scrambled:
        mesh = scramble_corners(mesh, rng)
    refined = refine(mesh, k)
    h = hashlib.sha256()
    for p in range(n + 1):
        approx = interpolate(Cochain(p, rng.standard_normal(refined.count(p))), refined)
        report = verify_identities(refined, p, trials=2, samples=50, rng=rng)
        errors = (report.round_trip_error, report.reconstruction_error, report.commutation_error)
        for a in (de_rham(approx, refined).values, [e or 0.0 for e in errors]):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == ROUND_TRIP_DIGESTS[n, k, scrambled]


def test_the_pipeline_reads_no_product_basis_certificate(monkeypatch):
    # the small cubes are unisolvent for every (n, p, k), and interpolation and
    # same-mesh integration work in the basis dual to them: at 3D k = 7 the product
    # basis's certificate refuses p <= 2, and nothing on the pipeline asks for it
    def refuse(*args):
        raise AssertionError("check_unisolvence called on the production path")

    monkeypatch.setattr(dof, "check_unisolvence", refuse)
    dof.reference_solver.cache_clear()
    refined = refine(structured_mesh(3, 1, shear=0.3), 7)
    rng = np.random.default_rng(0)
    for p in range(4):
        cochain = Cochain(p, rng.standard_normal(refined.count(p)))
        back = de_rham(interpolate(cochain, refined), refined)
        assert np.abs(back.values - cochain.values).max() <= 1e-10, p
        assert verify_identities(refined, p, trials=1, samples=20, rng=rng).passed, p


@pytest.mark.parametrize("n,k", [(2, 9), (3, 7), (4, 6)])
def test_identities_hold_where_the_product_basis_gate_refused(n, k):
    # the gate refused 2D p = 0 from k = 9, 3D p <= 2 at k = 7 and 4D k = 6; in the
    # dual basis every degree meets the default tolerance there (worst errors at
    # seed 0: 2.4e-10, 4.0e-11 and 3.0e-10)
    refined = refine(structured_mesh(n, 1, shear=0.3), k)
    for p in range(n + 1):
        assert verify_identities(refined, p, rng=0).passed, p


@pytest.mark.parametrize("n", [2, 3])
def test_identity_report_matches_per_trial_oracle(n):
    # the criterion-5 grid: sharing the factor tables, taking each gap on
    # coefficient differences and integrating on the reference cube move
    # the errors by roundoff only.  The bound, fixed beforehand, is a
    # tenth of the default tolerance.  A one-point rule at k = 4 must
    # fail on both sides, so the comparison is not between blind checks
    meshes = [structured_mesh(n, 1), structured_mesh(n, 2), structured_mesh(n, 2, shear=0.5)]
    for k, mesh in product((1, 2, 3, 4), meshes):
        refined = refine(mesh, k)
        for p, quad_order in product(range(n + 1), (None, 1) if k == 4 else (None,)):
            kwargs = dict(trials=2, samples=60, quad_order=quad_order)
            got = verify_identities(refined, p, rng=np.random.default_rng(0), **kwargs)
            want = verify_identities_by_trial(refined, p, rng=np.random.default_rng(0), **kwargs)
            where = (k, mesh.n_cells, p, quad_order)
            assert got.passed == want.passed == (quad_order is None or p == 0), where
            assert (got.commutation_error is None) == (want.commutation_error is None), where
            for g, w in [
                (got.round_trip_error, want.round_trip_error),
                (got.reconstruction_error, want.reconstruction_error),
                (got.commutation_error or 0.0, want.commutation_error or 0.0),
            ]:
                assert abs(g - w) <= 1e-10, where


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("one_trial_batches", [False, True])
@pytest.mark.blas_free
def test_identity_report_equals_every_cell_oracle(n, one_trial_batches, monkeypatch):
    # batching the trials and gathering only the sampled rows keeps every bit
    # of the report: some meshes have more cells than samples, others far
    # fewer, so that sampled cells repeat, down to one cell.  A lone sample
    # point, which leaves a single sampled row, runs with one trial only: the
    # loop evaluated each trial's gap on its one point, where NumPy's einsum
    # sums in another order than on a batch of points.  The round trip runs
    # once in batches of all trials and once in batches of one trial
    if one_trial_batches:
        monkeypatch.setattr(interp, "IDENTITY_BATCH_VALUES", 1)
    rng = np.random.default_rng([15, n])
    if n == 1:
        meshes = [structured_mesh(1, 2), structured_mesh(1, 5)]
    else:
        meshes = [structured_mesh(n, 2), scramble_corners(structured_mesh(n, 2, shear=0.3), rng)]
    meshes.append(structured_mesh(n, 1))
    for mesh, k in product(meshes, (1, 3)):
        refined = refine(mesh, k)
        for p, trials, quad_order in product(range(n + 1), (1, 2, 3, 4), (None, 1)):
            for samples in (1, 2, 40) if trials == 1 else (2, 40):
                kwargs = dict(trials=trials, samples=samples, quad_order=quad_order)
                seed = [n, mesh.n_cells, k, p, trials, samples]
                got = verify_identities(refined, p, rng=np.random.default_rng(seed), **kwargs)
                want = verify_identities_every_cell(
                    refined, p, rng=np.random.default_rng(seed), **kwargs
                )
                assert got == want, (mesh.n_cells, k, p, kwargs)


@pytest.mark.parametrize(
    "name,value",
    [
        ("degree", True),
        ("degree", 1.0),
        ("trials", 2.5),
        ("trials", True),
        ("samples", 2.5),
        ("quad_order", 2.5),
        ("quad_order", True),
    ],
)
def test_identity_report_rejects_non_integer_arguments(name, value):
    # an rng that draws nothing shows that no trial started
    refined = refine(structured_mesh(2, 2), 1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    kwargs = {"degree": 1, "trials": 2, "samples": 5, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        verify_identities(refined, rng=rng, **kwargs)
    assert rng.bit_generator.state == state


def test_identity_report_checks_its_degrees_and_rule_before_any_work():
    # an rng that draws nothing shows that no trial started
    refined = refine(structured_mesh(2, 2), 1, degrees=(0, 1))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(KeyError, match=r"degree 2 was not refined; available: \(0, 1\)"):
        verify_identities(refined, 1, rng=rng)
    with pytest.raises(KeyError, match=r"degree 2 was not refined"):
        verify_identities(refined, 2, rng=rng)
    with pytest.raises(ValueError, match=r"^need at least one quadrature point, got 0$"):
        verify_identities(refined, 0, quad_order=0, rng=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("trials,samples", [(0, 40), (-1, 40), (2, 0), (2, -3)])
def test_identity_report_rejects_checking_nothing(trials, samples):
    refined = refine(structured_mesh(2, 2), 1)
    name, value = ("trials", trials) if trials < 1 else ("samples", samples)
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
        verify_identities(refined, 1, trials=trials, samples=samples)


def test_catalog_is_complete():
    ids = list_forms()
    assert "sin2d-1" in ids and "sin3d-2" in ids
    with pytest.raises(KeyError, match="unknown"):
        get_form("nope-7")
