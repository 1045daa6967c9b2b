"""Mesh validation, refinement gluing, and pullback transport.

The gluing tests compare against a brute-force oracle that identifies
small cubes purely by their physical corner point sets (exact dyadic
floats on structured meshes), sharing nothing with the integer keys
used by :func:`refine`.
"""

import hashlib
import json

import numpy as np
import pytest

from cubeforms.forms import PolyForm, basis_form
from cubeforms.mesh import (
    AffineMap,
    CubicalMesh,
    MeshValidationError,
    PulledBackForm,
    load_mesh,
    pullback_basis,
    refine,
    save_mesh,
    structured_mesh,
)
from cubeforms.smallcubes import (
    enumerate_small_cubes,
    small_cube_count,
    small_cube_from_geometry,
)

from helpers import scramble_corners


def _corner_bits(j, n):
    return np.array([(j >> i) & 1 for i in range(n)], dtype=float)


# -- construction and validation -------------------------------------


def test_structured_mesh_counts_and_coordinates():
    mesh = structured_mesh(2, 3)
    assert mesh.n_vertices == 16
    assert mesh.n_cells == 9
    # vertices on the uniform grid, last axis fastest
    grid = np.array(
        [[i / 3, j / 3] for i in range(4) for j in range(4)]
    )
    assert np.array_equal(mesh.vertices, grid)


def test_structured_mesh_binary_corner_order():
    for n, m, shear in [(1, 3, 0.0), (2, 2, 0.0), (2, 2, 0.4), (3, 2, 0.1)]:
        mesh = structured_mesh(n, m, shear=shear)
        for ci in range(mesh.n_cells):
            amap = mesh.cell_map(ci)
            cell = mesh.cells[ci]
            for j in range(2**n):
                want = mesh.vertices[cell[j]]
                got = amap(_corner_bits(j, n))
                assert np.allclose(got, want, atol=1e-14)


def test_structured_mesh_shear_tilts_first_axis():
    mesh = structured_mesh(2, 1, shear=0.5)
    assert np.allclose(
        sorted(map(tuple, mesh.vertices.tolist())),
        [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0), (1.5, 1.0)],
    )


def test_cell_map_round_trip():
    mesh = structured_mesh(2, 2, shear=0.3)
    amap = mesh.cell_map(3)
    pts = np.random.default_rng(1).random((20, 2))
    back = amap.pull_to_reference(amap(pts))
    assert np.abs(back - pts).max() < 1e-13
    assert amap.determinant == pytest.approx(0.25)


def _square(vertices, cells):
    return CubicalMesh(2, np.asarray(vertices, dtype=float), cells)


def test_rejects_bad_vertex_shape():
    with pytest.raises(MeshValidationError, match="shape"):
        CubicalMesh(2, np.zeros((4, 3)), ((0, 1, 2, 3),))


def test_rejects_non_finite_vertex():
    with pytest.raises(MeshValidationError, match="finite"):
        _square([[0, 0], [1, 0], [0, np.nan], [1, 1]], ((0, 1, 2, 3),))


def test_rejects_wrong_cell_length():
    with pytest.raises(MeshValidationError, match="expected"):
        _square([[0, 0], [1, 0], [0, 1]], ((0, 1, 2),))


def test_rejects_out_of_range_vertex_id():
    with pytest.raises(MeshValidationError, match="valid ids"):
        _square([[0, 0], [1, 0], [0, 1], [1, 1]], ((0, 1, 2, 7),))


def test_rejects_repeated_vertex_in_cell():
    with pytest.raises(MeshValidationError, match="repeats"):
        _square([[0, 0], [1, 0], [0, 1], [1, 1], [0, 2], [1, 2]], ((0, 1, 2, 2), (2, 3, 4, 5)))


def test_rejects_dangling_vertex():
    with pytest.raises(MeshValidationError, match="used by no cell"):
        _square(
            [[0, 0], [1, 0], [0, 1], [1, 1], [5, 5]], ((0, 1, 2, 3),)
        )


def test_rejects_duplicate_vertex_coordinates():
    with pytest.raises(MeshValidationError, match="coincide"):
        _square(
            [[0, 0], [1, 0], [0, 1], [1, 1], [1, 0]],
            ((0, 1, 2, 3), (1, 4, 3, 2)),
        )


def test_rejects_non_parallelotope_cell():
    with pytest.raises(MeshValidationError, match="parallelotope"):
        _square([[0, 0], [1, 0], [0, 1], [2, 2]], ((0, 1, 2, 3),))


def test_rejects_degenerate_cell():
    with pytest.raises(MeshValidationError, match="degenerate"):
        _square([[0, 0], [1, 0], [2, 0], [3, 0]], ((0, 1, 2, 3),))


def test_shape_error_names_the_lowest_failing_cell():
    # cell 0 is a unit square, cell 1 is skewed, cell 2 is degenerate
    verts = [[0, 0], [1, 0], [0, 1], [1, 1]]
    verts += [[5, 0], [6, 0], [5, 1], [7, 2]]
    verts += [[10, 0], [11, 0], [12, 0], [13, 0]]
    cells = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
    with pytest.raises(MeshValidationError, match="cell 1 is not a parallelotope: corner 3"):
        _square(verts, cells)
    # a lower degenerate cell comes before a higher skewed one
    with pytest.raises(MeshValidationError, match="cell 1 is degenerate"):
        _square(verts[:4] + verts[8:] + verts[4:8], cells)
    # within one cell, a corner deviation comes before degeneracy
    with pytest.raises(MeshValidationError, match="cell 0 is not a parallelotope"):
        _square([[0, 0], [1, 0], [2, 0], [4, 0]], ((0, 1, 2, 3),))


def test_rejects_non_conforming_cells():
    # cells share vertices {0, 1, 3}, which is not a binary face of
    # either cell
    verts = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]]
    with pytest.raises(MeshValidationError, match="whole face"):
        _square(verts, ((0, 1, 2, 3), (3, 4, 0, 1)))


def test_accepts_translated_disjoint_cells():
    mesh = _square(
        [[0, 0], [1, 0], [0, 1], [1, 1], [5, 0], [6, 0], [5, 1], [6, 1]],
        ((0, 1, 2, 3), (4, 5, 6, 7)),
    )
    assert mesh.n_cells == 2


def test_mesh_json_round_trip(tmp_path):
    mesh = structured_mesh(2, 2, shear=0.25)
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert loaded.dimension == mesh.dimension
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert loaded.cells == mesh.cells


def test_load_mesh_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": [[0, 0]]}))
    with pytest.raises(MeshValidationError, match="malformed"):
        load_mesh(path)


# -- refinement ------------------------------------------------------


@pytest.mark.parametrize(
    "n,m,k,shear",
    [(1, 3, 2, 0.0), (2, 2, 2, 0.0), (2, 3, 1, 0.3), (2, 2, 3, 0.5), (3, 2, 2, 0.2)],
)
def test_refined_counts_match_finer_grid(n, m, k, shear):
    # gluing m^n cells of order k must reproduce the small-cube counts
    # of a single (m*k)-grid cell
    refined = refine(structured_mesh(n, m, shear=shear), k)
    for p in range(n + 1):
        assert refined.count(p) == small_cube_count(n, p, m * k)


@pytest.mark.parametrize("n,m,k", [(2, 2, 2), (2, 2, 1), (3, 2, 1)])
def test_refinement_matches_point_set_oracle(n, m, k):
    mesh = structured_mesh(n, m)
    refined = refine(mesh, k)
    maps = [mesh.cell_map(i) for i in range(mesh.n_cells)]
    for p in range(n + 1):
        local = enumerate_small_cubes(n, p, k)
        seen: dict[frozenset, set] = {}
        for ci in range(mesh.n_cells):
            for li, sc in enumerate(local):
                pts = maps[ci](
                    np.array(sc.corner_numerators(), dtype=float) / k
                )
                key = frozenset(map(tuple, pts.tolist()))
                seen.setdefault(key, set()).add(
                    int(refined.cell_tables[p][ci, li])
                )
        # distinct point sets <-> distinct global ids, one-to-one
        assert len(seen) == refined.count(p)
        assert all(len(ids) == 1 for ids in seen.values())
        assert {i for ids in seen.values() for i in ids} == set(
            range(refined.count(p))
        )


def test_owner_multiplicity_accounts_for_every_local_cube():
    n, m, k = 2, 2, 2
    refined = refine(structured_mesh(n, m), k)
    for p in range(n + 1):
        counts = refined.owner_counts(p)
        assert counts.shape == (refined.count(p),)
        assert counts.min() >= 1
        assert counts.sum() == m**n * small_cube_count(n, p, k)
    # the centre vertex belongs to all four cells
    assert refined.owner_counts(0).max() == 4


def test_axis_aligned_refinement_signs_are_uniform():
    # identical edge matrices in every cell must give identical signs;
    # degrees 0 and 1 are fixed to +1 by the sign normalisation
    refined = refine(structured_mesh(2, 2), 2)
    for p in range(3):
        signs = refined.cell_signs[p]
        assert len(np.unique(signs)) == 1
    assert np.all(refined.cell_signs[0] == 1)
    assert np.all(refined.cell_signs[1] == 1)


def test_sheared_refinement_signs_agree_between_owners():
    refined = refine(structured_mesh(2, 2, shear=0.6), 2)
    for p in range(3):
        cells, local = refined.first_owners[p].T
        first_signs = refined.cell_signs[p][cells, local]
        # every owner's sign equals the sign at the cube's first owner
        assert np.array_equal(
            refined.cell_signs[p], first_signs[refined.cell_tables[p]]
        )


def test_incidence_entry_pattern():
    refined = refine(structured_mesh(2, 2, shear=0.3), 2)
    for q in (0, 1):
        d = refined.coboundary_matrix(q)
        assert d.shape[0] == refined.count(q + 1)
        assert np.all(np.diff(d.indptr) == 2 * (q + 2 - 1))
        assert np.all(np.isin(d.data, (-1.0, 1.0)))
        assert np.all((0 <= d.indices) & (d.indices < refined.count(q)))


@pytest.mark.parametrize(
    "n,m,k,shear", [(2, 2, 2, 0.0), (2, 2, 2, 0.7), (3, 2, 1, 0.4), (3, 1, 2, 0.0)]
)
def test_coboundary_squares_to_zero(n, m, k, shear):
    refined = refine(structured_mesh(n, m, shear=shear), k)
    for q in range(n - 1):
        upper = refined.coboundary_matrix(q + 1)
        lower = refined.coboundary_matrix(q)
        product = upper @ lower
        assert product.nnz == 0 or np.all(product.data == 0)


def test_coboundary_shape_and_cache():
    refined = refine(structured_mesh(2, 2), 1)
    d0 = refined.coboundary_matrix(0)
    assert d0.shape == (refined.count(1), refined.count(0))
    assert refined.coboundary_matrix(0) is d0


def test_degree_restriction_raises_for_missing_level():
    refined = refine(structured_mesh(2, 2), 2, degrees=(1,))
    assert refined.degrees == (1,)
    assert refined.count(1) == small_cube_count(2, 1, 4)
    with pytest.raises(KeyError):
        refined.count(0)
    with pytest.raises(KeyError):
        refined.coboundary_matrix(0)


def _refinement_digest(refined):
    """SHA-256 of every cell table, cell sign array and sorted coboundary."""
    h = hashlib.sha256()

    def add(a):
        a = np.asarray(a)
        h.update(np.asarray(a.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())

    for p in refined.degrees:
        add(refined.cell_tables[p])
        add(refined.cell_signs[p])
    for q in refined.degrees[:-1]:
        coo = refined.coboundary_matrix(q).tocoo()
        order = np.lexsort((coo.col, coo.row))
        add(coo.row[order])
        add(coo.col[order])
        add(coo.data[order])
    return h.hexdigest()


# Recorded from the per-cube gluing that keyed cubes by their corner sets;
# refinement must reproduce its ids, signs and coboundaries exactly.
@pytest.mark.parametrize(
    "n,k,scrambled,digest",
    [
    (2, 1, False, "b984137656ab7f2d15a1ea06a855b5a17a1d3d122c5fa1faa4128437706e542e"),
    (2, 1, True, "4f72440b3681617c09efa6e9fdd816990c4cd66377b416772b151bb13d6d083e"),
    (2, 2, False, "dc7ef76f341ea4a24fef3d1b7723c5f87d2d2c0cb0c46d02f8058fbd96abf95d"),
    (2, 2, True, "213ce410941ac8f0c10fb32edec7ea843cfe4327602e08ff938592cb8f2e6b50"),
    (2, 3, False, "2ad4eedbb4f814d30eeac7a0a32997f96d1de3fe6f6f08f016cc06fa31498d80"),
    (2, 3, True, "1d444e9e49288bb1e8f3d6ddf93c15809c4766ba44a9901ad100bec5caa3fd8f"),
    (3, 1, False, "ea8d66882de7b462655a2414004a69f602889c4a896b11d71a5d760091228a1f"),
    (3, 1, True, "9b94a0e593e0ec70172c0b455a11953072e17ec7941c1f7dc694a21f7b07522c"),
    (3, 2, False, "b3181f5f4723b9f18264d60d85bf41e815c4cecf307ec0bb410695c7d17cd268"),
    (3, 2, True, "0070af8a21fc698a1f52d62bb1143845e0e404718e276e2ace1ee5236d015dcf"),
    (3, 3, False, "c1bed83149e238e768996836e7294d37339b835e6fa8b7e4c77ec985d6e74552"),
    (3, 3, True, "9da23b06c48a10ef2e8afe1adb61136987a0624daf05ff06cbeea2f37cd297fc"),
    ],
)
def test_refinement_outputs_are_pinned(n, k, scrambled, digest):
    mesh = structured_mesh(n, 2, shear=0.3)
    if scrambled:
        mesh = scramble_corners(mesh, np.random.default_rng([n, k]))
    refined = refine(mesh, k)
    assert _refinement_digest(refined) == digest
    for p in refined.degrees:
        # global ids are handed out in order of first appearance
        flat = refined.cell_tables[p].ravel()
        _, first = np.unique(flat, return_index=True)
        cells, local = refined.first_owners[p].T
        ids = np.arange(refined.count(p))
        assert np.array_equal(flat[np.sort(first)], ids)
        assert np.array_equal(refined.cell_tables[p][cells, local], ids)


def test_refine_empty_mesh_gives_empty_levels():
    refined = refine(CubicalMesh(2, np.zeros((0, 2)), ()), 2)
    assert [refined.count(p) for p in range(3)] == [0, 0, 0]
    assert refined.coboundary_matrix(0).shape == (0, 0)


def test_refine_rejects_bad_arguments():
    mesh = structured_mesh(2, 1)
    with pytest.raises(ValueError):
        refine(mesh, 0)
    with pytest.raises(ValueError):
        refine(mesh, 2, degrees=(3,))


def test_to_csv_lists_every_cube(tmp_path):
    refined = refine(structured_mesh(2, 2), 1)
    path = tmp_path / "cubes.csv"
    refined.to_csv(path, 1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,degree,n_owners,first_cell,anchor"
    assert len(lines) == 1 + refined.count(1)


# -- pullback --------------------------------------------------------


def test_pullback_through_identity_map_is_transparent():
    amap = AffineMap(origin=np.zeros(2), linear=np.eye(2))
    ref = basis_form(small_cube_from_geometry(2, (0,), (1, 0)))
    pulled = pullback_basis(amap, ref)
    assert isinstance(pulled, PulledBackForm)
    pts = np.random.default_rng(3).random((15, 2))
    got = pulled.evaluate(pts)
    want = ref.evaluate(pts)
    assert set(got) == set(want)
    for dirs in want:
        assert np.allclose(got[dirs], want[dirs], atol=1e-14)


def test_pullback_scales_components_by_inverse_edge_lengths():
    # the cell [0,2]x[0,3]: a unit reference 1-form along axis 0
    # becomes 1/2 along physical axis 0
    amap = AffineMap(origin=np.zeros(2), linear=np.diag([2.0, 3.0]))
    ref = PolyForm(2, 1, {(0,): np.ones((1, 1))})
    pulled = pullback_basis(amap, ref)
    got = pulled.evaluate(np.array([[1.0, 1.5]]))
    # vanishing components are dropped from the result
    assert set(got) == {(0,)}
    assert got[(0,)][0] == pytest.approx(0.5)


def test_pullback_derivative_matches_finite_differences():
    # sheared cell, scalar form: d(pullback) vs central differences
    amap = AffineMap(
        origin=np.array([0.5, -1.0]),
        linear=np.array([[1.0, 0.7], [0.0, 2.0]]),
    )
    ref = basis_form(small_cube_from_geometry(2, (), (1, 2)))
    pulled = pullback_basis(amap, ref)
    derived = pulled.exterior_derivative()
    assert derived.degree == 1
    rng = np.random.default_rng(5)
    pts = amap(rng.random((8, 2)) * 0.8 + 0.1)
    h = 1e-6
    got = derived.evaluate(pts)
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = h
        hi = pulled.evaluate(pts + shift)[()]
        lo = pulled.evaluate(pts - shift)[()]
        fd = (hi - lo) / (2 * h)
        assert np.abs(got[(axis,)] - fd).max() < 1e-6
