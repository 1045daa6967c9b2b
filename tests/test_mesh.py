"""Mesh validation, refinement gluing, and pullback transport.

The gluing tests compare against a brute-force oracle that identifies
small cubes purely by their physical corner point sets (exact dyadic
floats on structured meshes), sharing nothing with the integer keys
used by :func:`refine`.
"""

import hashlib
import json
import re
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cubeforms import mesh as mesh_module
from cubeforms.forms import PolyForm, basis_form
from cubeforms.mesh import (
    EDGE_SNAP_TOL,
    AffineMap,
    CubicalMesh,
    MeshValidationError,
    PulledBackForm,
    compound_matrix,
    load_mesh,
    refine,
    save_mesh,
    structured_mesh,
    _orientation_parities,
    _unique_rows,
)
from cubeforms.smallcubes import (
    anchor_runs,
    enumerate_small_cubes,
    small_cube_count,
    small_cube_from_geometry,
)

from helpers import (
    canonical_orientation,
    check_conformity_by_product,
    graded_mesh,
    refine_by_full_keys,
    scramble_corners,
    skewed,
)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.blas_free
def test_cell_maps_round_a_point_alike_in_every_batch(n):
    rng = np.random.default_rng([19, n])
    mesh = scramble_corners(skewed(structured_mesh(n, 2), [19, n]), rng)
    x = rng.random((50, n))
    order = rng.permutation(mesh.n_cells)
    every, shuffled = mesh.map_points(x), mesh.map_points(x, order)
    for c in range(mesh.n_cells):
        among = mesh.map_points(x, [c])[0]
        alone = np.concatenate([mesh.map_points(point[None], [c])[0] for point in x])
        amap = mesh.cell_map(c)
        for got in (alone, every[c], shuffled[np.flatnonzero(order == c)[0]], amap(x)):
            assert got.tobytes() == among.tobytes()
        assert amap(x[7]).tobytes() == among[7].tobytes()
        want = mesh.origins[c] + x @ mesh.linears[c].T
        assert np.abs(among - want).max() <= 1e-15 * np.abs(want).max()


def _square(vertices, cells):
    return CubicalMesh(2, np.asarray(vertices, dtype=float), cells)


def test_rejects_dimension_zero(tmp_path):
    message = "^dimension must be >= 1, got 0$"
    with pytest.raises(MeshValidationError, match=message):
        CubicalMesh(0, np.zeros((1, 0)), [[0]])
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"dimension": 0, "vertices": [[]], "cells": [[0]]}))
    with pytest.raises(MeshValidationError, match=message):
        load_mesh(path)


@pytest.mark.parametrize(
    "dimension,vertices,cells",
    [
        (2.0, np.zeros((4, 2)), [[0, 1, 2, 3]]),
        (True, np.array([[0.0], [1.0]]), [[0, 1]]),
        ("1", np.array([[0.0], [1.0]]), [[0, 1]]),
    ],
    ids=["float", "bool", "str"],
)
def test_mesh_requires_an_integer_dimension(dimension, vertices, cells):
    message = f"^dimension must be an integer, got {re.escape(repr(dimension))}$"
    with pytest.raises(MeshValidationError, match=message):
        CubicalMesh(dimension, vertices, cells)


def test_mesh_keeps_a_numpy_integer_dimension_as_an_int():
    mesh = CubicalMesh(np.int64(1), np.array([[0.0], [1.0]]), [[0, 1]])
    assert type(mesh.dimension) is int and mesh.dimension == 1


@pytest.mark.parametrize(
    "dimension,subdivisions,message",
    [
        (2, 2.5, "subdivisions must be an integer, got 2.5"),
        (2, True, "subdivisions must be an integer, got True"),
        (2.0, 2, "dimension must be an integer, got 2.0"),
        (0, 2, "dimension must be >= 1, got 0"),
        (2, 0, "need at least one subdivision, got 0"),
    ],
)
def test_structured_mesh_rejects_bad_sizes(dimension, subdivisions, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        structured_mesh(dimension, subdivisions)


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


_SEVEN = [[0, 0], [1, 0], [0, 1], [1, 1], [0, 2], [1, 2], [2, 2]]


@pytest.mark.parametrize(
    "cells,message",
    [
        # the lowest failing cell wins, whatever the kinds of failure
        (((0, 1, 2, 3), (2, 3, 4, 9), (0, 1, 2)), "cell 1 references vertex 9, valid ids are 0..6"),
        (((0, 1, 2, 3), (2, 3, 4, 4), (0, 1, 2, 9)), "cell 1 repeats a vertex id: (2, 3, 4, 4)"),
        # within one cell: length, then id range, then a repeated id
        (((0, 9, 9),), "cell 0 has 3 vertices, expected 4 in dimension 2"),
        (((0, 9, 9, 1),), "cell 0 references vertex 9, valid ids are 0..6"),
        (((0, 1, 1, -1),), "cell 0 references vertex -1, valid ids are 0..6"),
        (((0, 1, 1, 3),), "cell 0 repeats a vertex id: (0, 1, 1, 3)"),
        # an id beyond 64 bits is out of range, not an overflow
        (((0, 1, 2, 2**70),), f"cell 0 references vertex {2**70}, valid ids are 0..6"),
        # a table of one row length, all of it wrong
        (((0, 1, 2, 3, 4), (2, 3, 4, 5, 6)), "cell 0 has 5 vertices, expected 4 in dimension 2"),
        # ragged tables: the rows before the first of the wrong length come first
        (((0, 1, 2, 3), (4, 5, 6)), "cell 1 has 3 vertices, expected 4 in dimension 2"),
        (((0, 1, 2, 3), (2, 3, 4, 5, 6)), "cell 1 has 5 vertices, expected 4 in dimension 2"),
        (((0, 1, 2, 9), (4, 5, 6)), "cell 0 references vertex 9, valid ids are 0..6"),
        (((0, 1, 2, 3), (2, 3, 3, 5), (6,)), "cell 1 repeats a vertex id: (2, 3, 3, 5)"),
        # every row sound: the unused ids come next
        (((0, 1, 2, 3),), "3 vertex ids are used by no cell (first few: [4, 5, 6])"),
    ],
)
def test_cell_table_reports_the_first_failure(tmp_path, cells, message):
    with pytest.raises(MeshValidationError) as err:
        _square(_SEVEN, cells)
    assert str(err.value) == message
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": _SEVEN, "cells": cells}))
    with pytest.raises(MeshValidationError) as err:
        load_mesh(path)
    assert str(err.value) == message


def test_cell_table_is_a_read_only_int64_array(tmp_path):
    mesh = _square(_SEVEN[:4], [[0, 1, 2, 3]])
    assert mesh.cells.dtype == np.int64 and mesh.cells.shape == (1, 4)
    assert not mesh.cells.flags.writeable
    for stacked in (mesh.origins, mesh.linears, mesh.inverse_linears):
        assert not stacked.flags.writeable
    assert np.array_equal(mesh.linears[0], np.eye(2))
    # a table of non-integers fails as int() does, in the file as a malformed entry
    with pytest.raises(TypeError, match="NoneType"):
        _square(_SEVEN[:4], [[0, 1, 2, None]])
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": _SEVEN[:4], "cells": [[0, 1, 2, None]]}))
    with pytest.raises(MeshValidationError, match=r"^malformed mesh file .*NoneType"):
        load_mesh(path)


def test_rejects_duplicate_vertex_coordinates():
    with pytest.raises(MeshValidationError, match="coincide"):
        _square(
            [[0, 0], [1, 0], [0, 1], [1, 1], [1, 0]],
            ((0, 1, 2, 3), (1, 4, 3, 2)),
        )


def _two_squares(left_x, right_x):
    # two unit-high cells side by side; their interface is at left_x in the
    # left cell's vertices and at right_x in the right cell's
    verts = [[0, 0], [left_x, 0], [0, 1], [left_x, 1], [right_x, 0], [1, 0], [right_x, 1], [1, 1]]
    return _square(verts, ((0, 1, 2, 3), (4, 5, 6, 7)))


def test_rejects_coincident_vertices_that_do_not_sort_next_to_each_other():
    # (0.3, 1) sorts between (0.3, 0) and (0.30000000000000004, 0)
    with pytest.raises(MeshValidationError) as err:
        _two_squares(0.1 * 3, 0.3)
    assert str(err.value) == "vertices 1 and 4 coincide at [0.3, 0.0]; merge them and share the id"
    shared = _square([[0, 0], [0.3, 0], [0, 1], [0.3, 1], [1, 0], [1, 1]], ((0, 1, 2, 3), (1, 4, 3, 5)))
    assert refine(shared, 2).count(1) == 22


def test_coincident_vertices_are_found_across_bucket_boundaries():
    # vertex 1 sits on a bucket boundary (the tolerance is 2e-12 here), so
    # its copy falls into the next bucket down along one axis or both
    for shift in ([-0.4e-12, 0.0], [0.0, -0.4e-12], [-0.3e-12, -0.3e-12]):
        verts = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1]], dtype=float)
        verts = np.vstack([verts, verts[1] + shift, verts[3]])
        with pytest.raises(MeshValidationError, match="^vertices 1 and 6 coincide"):
            _square(verts, ((0, 1, 2, 3), (6, 4, 7, 5)))


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_shape_checks_are_relative_to_each_cell(scale):
    mesh = structured_mesh(3, 2, shear=0.3)
    scaled = CubicalMesh(3, mesh.vertices * scale, mesh.cells)
    assert np.allclose(scaled.linears, mesh.linears * scale, rtol=1e-15, atol=0)


def test_shape_checks_allow_roundoff_far_from_the_origin():
    # near |x| = 1000 floats are 1.1e-13 apart, far more than 1e-12 times
    # the 0.01 edges, so the sheared corners' roundoff scales with |x|
    mesh = structured_mesh(2, 100, shear=0.3)
    moved = CubicalMesh(2, mesh.vertices + 1000, mesh.cells)
    assert np.allclose(moved.linears, mesh.linears, rtol=1e-9, atol=0)


def test_rejects_a_cell_with_edges_dependent_up_to_roundoff():
    # far from the origin, the second edge is the first scaled up to roundoff
    origin, edge = np.array([100.33, 100.18]), np.array([0.71, 0.43])
    corners = [origin, origin + edge, origin + 1.32 * edge, origin + edge + 1.32 * edge]
    with pytest.raises(MeshValidationError, match="^cell 0 is degenerate: edge-matrix determinant"):
        _square(np.array(corners), ((0, 1, 2, 3),))


def test_rejects_non_parallelotope_cell():
    with pytest.raises(MeshValidationError, match="parallelotope"):
        _square([[0, 0], [1, 0], [0, 1], [2, 2]], ((0, 1, 2, 3),))


def test_rejects_degenerate_cell():
    with pytest.raises(MeshValidationError, match="degenerate"):
        _square([[0, 0], [1, 0], [2, 0], [3, 0]], ((0, 1, 2, 3),))


def test_rejects_a_cell_whose_determinant_is_not_finite():
    # both edges overflow along axis 0, which the corner check cannot see, and
    # elimination then meets inf - inf: the determinant is NaN
    corners = [[-1e308, 0.0], [1e308, 0.0], [1e308, 1e300], [0.0, 1e308]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(MeshValidationError, match="^cell 0 is degenerate: edge-matrix determinant nan$"):
            _square(corners, ((0, 1, 2, 3),))


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


# A unit square and a diamond on its diagonal: they share vertex ids
# {1, 2}, an edge of the diamond but not a face of the square.  Vertices
# 4..9 repeat the pair shifted by 10 along the first axis.
_DIAMOND_VERTS = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1], [1, 2]]
_DIAMOND_VERTS += [[x + 10, y] for x, y in _DIAMOND_VERTS]
_SQUARES = ((0, 1, 2, 3), (6, 7, 8, 9))
_DIAMONDS = ((1, 2, 4, 5), (7, 8, 10, 11))


@pytest.mark.parametrize(
    "order,message",
    [
        # pairs (0, 1) and (2, 3)
        ("SDsd", "cells 0 and 1 share vertex ids [1, 2] which do not form a whole face of cell 0"),
        # the lower pair's bad cell is its second one
        ("DSds", "cells 0 and 1 share vertex ids [1, 2] which do not form a whole face of cell 1"),
        # pairs (0, 3) and (1, 2): the lowest pair comes first, not the first listed
        ("SsdD", "cells 0 and 3 share vertex ids [1, 2] which do not form a whole face of cell 0"),
        ("sSDd", "cells 0 and 3 share vertex ids [7, 8] which do not form a whole face of cell 0"),
        ("DdsS", "cells 0 and 3 share vertex ids [1, 2] which do not form a whole face of cell 3"),
    ],
)
def test_conformity_error_names_the_lowest_pair(order, message):
    # upper case: the copy at the origin; lower case: the shifted copy
    pick = {"S": _SQUARES[0], "D": _DIAMONDS[0], "s": _SQUARES[1], "d": _DIAMONDS[1]}
    with pytest.raises(MeshValidationError) as err:
        _square(_DIAMOND_VERTS, tuple(pick[c] for c in order))
    assert str(err.value) == message + "; cells must meet along complete shared faces"


def test_accepts_translated_disjoint_cells():
    mesh = _square(
        [[0, 0], [1, 0], [0, 1], [1, 1], [5, 0], [6, 0], [5, 1], [6, 1]],
        ((0, 1, 2, 3), (4, 5, 6, 7)),
    )
    assert mesh.n_cells == 2


def _outcome(check, *args):
    """None if the check accepts, else its MeshValidationError text."""
    try:
        check(*args)
    except MeshValidationError as exc:
        return str(exc)
    return None


def _assert_conformity_matches_oracle(dimension, vertices, cells):
    """The constructor and the sparse-product oracle agree on one mesh."""
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 1 << dimension)
    vertices = np.asarray(vertices, dtype=float).reshape(-1, dimension)
    built = _outcome(CubicalMesh, dimension, vertices, cells)
    assert built == _outcome(check_conformity_by_product, cells, len(vertices))
    return built


def _table_check(dimension, cells):
    # the conformity check alone, on a table whose cells need not be parallelotopes
    mesh_like = SimpleNamespace(dimension=dimension, cells=np.asarray(cells, dtype=np.int64))
    CubicalMesh._check_conformity(mesh_like)


def _shuffled(mesh, rng):
    """The mesh's vertices and cells under random vertex ids and cell order."""
    relabel = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[relabel] = mesh.vertices
    return vertices, relabel[mesh.cells][rng.permutation(mesh.n_cells)]


def _rhombus_star(valence):
    """``valence`` rhombi around vertex 0, each spanned by two neighbouring rays."""
    angles = 2 * np.pi * np.arange(valence) / valence
    rays = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tips = rays + np.roll(rays, -1, axis=0)
    vertices = np.vstack([np.zeros((1, 2)), rays, tips])
    i = np.arange(valence)
    cells = np.stack([np.zeros(valence, dtype=int), 1 + i, 1 + (i + 1) % valence, 1 + valence + i], axis=1)
    return vertices, cells


@pytest.mark.parametrize("order", ["SDsd", "DSds", "SsdD", "sSDd", "DdsS", "Ss", "Dd", "SD", "D"])
def test_conformity_matches_product_oracle_on_diamonds(order):
    pick = {"S": _SQUARES[0], "D": _DIAMONDS[0], "s": _SQUARES[1], "d": _DIAMONDS[1]}
    used = sorted({v for c in order for v in pick[c]})
    # renumber onto the vertices the cells use, so none dangles
    ids = {v: i for i, v in enumerate(used)}
    cells = [[ids[v] for v in pick[c]] for c in order]
    built = _assert_conformity_matches_oracle(2, np.asarray(_DIAMOND_VERTS)[used], cells)
    assert (built is None) == (order in ("Ss", "Dd", "D"))


@pytest.mark.parametrize("n,m", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_conformity_matches_product_oracle_on_shuffled_grids(n, m):
    rng = np.random.default_rng(n)
    mesh = structured_mesh(n, m, shear=0.3 if n > 1 else 0.0)
    vertices, cells = _shuffled(mesh, rng)
    assert _assert_conformity_matches_oracle(n, vertices, cells) is None
    # the table alone, with corners of one cell swapped or one id replaced
    rejected = 0
    for _ in range(40):
        table = cells.copy()
        row = rng.integers(len(table))
        if rng.random() < 0.5:
            i, j = rng.choice(1 << n, 2, replace=False)
            table[row, [i, j]] = table[row, [j, i]]
        else:
            unused = np.setdiff1d(np.arange(len(vertices)), table[row])
            table[row, rng.integers(1 << n)] = rng.choice(unused)
        want = _outcome(check_conformity_by_product, table, len(vertices))
        assert _outcome(_table_check, n, table) == want
        rejected += want is not None
    # in 1D one shared vertex is a face and two are the whole cell
    assert rejected >= 10 if n > 1 else rejected == 0


def test_conformity_matches_product_oracle_on_a_hanging_node():
    # one unit square beside two half squares: the midpoint (1, 0.5) is no vertex
    # of the big cell, which shares one corner id with each small one
    vertices = [[0, 0], [1, 0], [0, 1], [1, 1], [1.5, 0], [1, 0.5], [1.5, 0.5], [1.5, 1]]
    cells = [[0, 1, 2, 3], [1, 4, 5, 6], [5, 6, 3, 7]]
    assert _assert_conformity_matches_oracle(2, vertices, cells) is None


@pytest.mark.parametrize("valence", [3, 6])
def test_conformity_matches_product_oracle_on_rhombus_stars(valence):
    # more than 2^n cells meet at the centre when the valence is 6
    vertices, cells = _rhombus_star(valence)
    assert _assert_conformity_matches_oracle(2, vertices, cells) is None
    rng = np.random.default_rng(valence)
    vertices, cells = _shuffled(CubicalMesh(2, vertices, cells), rng)
    assert _assert_conformity_matches_oracle(2, vertices, cells) is None
    # with two corners of one rhombus swapped, a neighbour shares a diagonal of it
    table = cells.copy()
    table[0, [0, 1]] = table[0, [1, 0]]
    want = _outcome(check_conformity_by_product, table, len(vertices))
    assert want is not None
    assert _outcome(_table_check, 2, table) == want


def test_conformity_matches_product_oracle_with_relabelled_corners():
    rng = np.random.default_rng(3)
    mesh = structured_mesh(3, 2, shear=0.3)
    # a symmetry of one cell's cube keeps the mesh conforming
    scrambled = scramble_corners(mesh, rng)
    cells = mesh.cells.copy()
    cells[5] = scrambled.cells[5]
    assert _assert_conformity_matches_oracle(3, mesh.vertices, cells) is None
    # any other relabelling does not, and both checks name the same pair and cell
    for _ in range(20):
        table = mesh.cells.copy()
        table[5] = table[5, rng.permutation(8)]
        want = _outcome(check_conformity_by_product, table, mesh.n_vertices)
        assert _outcome(_table_check, 3, table) == want


def test_conformity_matches_product_oracle_on_tiny_and_wide_meshes():
    assert _assert_conformity_matches_oracle(2, np.zeros((0, 2)), np.zeros((0, 4))) is None
    one = structured_mesh(3, 1, shear=0.3)
    assert _assert_conformity_matches_oracle(3, one.vertices, one.cells) is None
    # n = 7: two cells glued along a 6-face, 128 corners each
    rng = np.random.default_rng(7)
    wide = graded_mesh([[0.0, 0.5, 1.0]] + [[0.0, 1.0]] * 6, shear=0.3)
    vertices, cells = _shuffled(wide, rng)
    assert _assert_conformity_matches_oracle(7, vertices, cells) is None
    rejected = 0
    for _ in range(10):
        table = cells.copy()
        i, j = rng.choice(128, 2, replace=False)
        table[1, [i, j]] = table[1, [j, i]]
        want = _outcome(check_conformity_by_product, table, len(vertices))
        assert _outcome(_table_check, 7, table) == want
        rejected += want is not None
    assert rejected


def test_mesh_validation_does_not_use_scipy_sparse(tmp_path, monkeypatch):
    class NoSparse:
        def __getattr__(self, name):
            raise AssertionError(f"mesh validation used scipy.sparse.{name}")

    path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(3, 2, shear=0.3), path)
    monkeypatch.setattr(mesh_module, "sparse", NoSparse())
    assert structured_mesh(3, 3).n_cells == 27
    assert load_mesh(path).n_cells == 8


def test_mesh_json_round_trip(tmp_path):
    mesh = structured_mesh(2, 2, shear=0.25)
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert loaded.dimension == mesh.dimension
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert loaded.cells.dtype == np.int64
    assert loaded.cells.shape == mesh.cells.shape == (mesh.n_cells, 4)
    assert np.array_equal(loaded.cells, mesh.cells)


def test_load_mesh_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 2, "vertices": [[0, 0]]}))
    with pytest.raises(MeshValidationError, match="malformed"):
        load_mesh(path)


@pytest.mark.parametrize("dimension", [2.7, 2.0, True, "2", None])
def test_load_mesh_requires_an_integer_dimension(tmp_path, dimension):
    mesh = structured_mesh(2, 1)
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    data = json.loads(path.read_text())
    path.write_text(json.dumps(dict(data, dimension=dimension)))
    got = re.escape(repr(dimension))
    with pytest.raises(
        MeshValidationError, match=rf"^malformed mesh file .*: dimension must be an integer, got {got}$"
    ):
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
REFINEMENT_DIGESTS = {
    (2, 1, False): "b984137656ab7f2d15a1ea06a855b5a17a1d3d122c5fa1faa4128437706e542e",
    (2, 1, True): "4f72440b3681617c09efa6e9fdd816990c4cd66377b416772b151bb13d6d083e",
    (2, 2, False): "dc7ef76f341ea4a24fef3d1b7723c5f87d2d2c0cb0c46d02f8058fbd96abf95d",
    (2, 2, True): "213ce410941ac8f0c10fb32edec7ea843cfe4327602e08ff938592cb8f2e6b50",
    (2, 3, False): "2ad4eedbb4f814d30eeac7a0a32997f96d1de3fe6f6f08f016cc06fa31498d80",
    (2, 3, True): "1d444e9e49288bb1e8f3d6ddf93c15809c4766ba44a9901ad100bec5caa3fd8f",
    (3, 1, False): "ea8d66882de7b462655a2414004a69f602889c4a896b11d71a5d760091228a1f",
    (3, 1, True): "9b94a0e593e0ec70172c0b455a11953072e17ec7941c1f7dc694a21f7b07522c",
    (3, 2, False): "b3181f5f4723b9f18264d60d85bf41e815c4cecf307ec0bb410695c7d17cd268",
    (3, 2, True): "0070af8a21fc698a1f52d62bb1143845e0e404718e276e2ace1ee5236d015dcf",
    (3, 3, False): "c1bed83149e238e768996836e7294d37339b835e6fa8b7e4c77ec985d6e74552",
    (3, 3, True): "9da23b06c48a10ef2e8afe1adb61136987a0624daf05ff06cbeea2f37cd297fc",
}


@pytest.mark.parametrize("n,k,scrambled", REFINEMENT_DIGESTS)
@pytest.mark.blas_free
def test_refinement_outputs_are_pinned(n, k, scrambled):
    mesh = structured_mesh(n, 2, shear=0.3)
    if scrambled:
        mesh = scramble_corners(mesh, np.random.default_rng([n, k]))
    refined = refine(mesh, k)
    assert _refinement_digest(refined) == REFINEMENT_DIGESTS[n, k, scrambled]
    for p in refined.degrees:
        # global ids are handed out in order of first appearance
        flat = refined.cell_tables[p].ravel()
        _, first = np.unique(flat, return_index=True)
        cells, local = refined.first_owners[p].T
        ids = np.arange(refined.count(p))
        assert np.array_equal(flat[np.sort(first)], ids)
        assert np.array_equal(refined.cell_tables[p][cells, local], ids)


def _oracle_mesh(name):
    rng = np.random.default_rng(len(name))
    if name == "1d":
        return graded_mesh([np.array([0.0, 0.2, 0.25, 1.0])])
    if name == "2d-sheared":
        return structured_mesh(2, 3, shear=0.3)
    if name == "2d-scrambled":
        return scramble_corners(structured_mesh(2, 3, shear=0.3), rng)
    if name == "2d-graded":
        return graded_mesh([np.array([0.0, 0.1, 0.35, 1.0]), np.array([-1.0, 0.5, 0.6])], shear=0.4)
    if name == "3d-sheared":
        return structured_mesh(3, 2, shear=0.3)
    if name == "3d-scrambled":
        return scramble_corners(structured_mesh(3, 2, shear=0.3), rng)
    if name == "3d-graded":
        breaks = [np.array([0.0, 0.1, 1.0]), np.array([0.0, 0.5, 0.6, 2.0]), np.array([-1.0, 0.0, 0.2])]
        return scramble_corners(graded_mesh(breaks, shear=0.3), rng)
    return scramble_corners(structured_mesh(4, 2, shear=0.3), rng)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "name",
    ["1d", "2d-sheared", "2d-scrambled", "2d-graded", "3d-sheared", "3d-scrambled", "3d-graded", "4d"],
)
def test_per_face_numbering_matches_full_width_keys(name, k):
    mesh = _oracle_mesh(name)
    refined = refine(mesh, k)
    tables, signs, owners = refine_by_full_keys(mesh, k)
    assert refined.degrees == tuple(tables)
    for p in refined.degrees:
        assert np.array_equal(refined.cell_tables[p], tables[p])
        assert np.array_equal(refined.cell_signs[p], signs[p])
        assert np.array_equal(refined.first_owners[p], owners[p])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_signs_do_not_depend_on_the_numbering(n, k):
    # a cube is oriented by its span alone, so renumbering the cells and the
    # vertex ids moves each cell's sign row with the cell, unchanged
    rng = np.random.default_rng([n, k])
    mesh = scramble_corners(skewed(structured_mesh(n, 2), n + k), rng)
    cell_order = rng.permutation(mesh.n_cells)
    vertex_ids = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[vertex_ids] = mesh.vertices
    renumbered = CubicalMesh(n, vertices, vertex_ids[mesh.cells[cell_order]])
    refined, again = refine(mesh, k), refine(renumbered, k)
    moved = 0  # shared cubes whose first owner is another cell after renumbering
    for p in refined.degrees:
        assert np.array_equal(again.cell_signs[p], refined.cell_signs[p][cell_order])
        first = np.zeros(refined.cell_signs[p].shape, dtype=bool)
        first[tuple(refined.first_owners[p].T)] = True
        cells, local = again.first_owners[p].T
        moved += np.count_nonzero(~first[cell_order[cells], local])
    assert moved


@pytest.mark.parametrize("name", ["2d-scrambled", "3d-graded", "4d"])
def test_cell_tables_are_read_only_views_of_one_cells_last_store(name):
    refined = refine(_oracle_mesh(name), 2)
    for p in refined.degrees:
        n_local = sum(len(anchors) for _, _, anchors in anchor_runs(refined.dimension, p, 2))
        shape = (refined.mesh.n_cells, n_local)
        for get, dtype in (
            (lambda: refined.cell_tables[p], np.intp),
            (lambda: refined.cell_signs[p], np.int8),
        ):
            view = get()
            assert view.shape == shape and view.dtype == dtype
            assert view.T.flags.c_contiguous and not view.flags.writeable
            assert view.base is not None and get().base is view.base


_INT64 = np.iinfo(np.int64)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 8)),
        elements=st.integers(-2, 2) | st.sampled_from([_INT64.min, -1, _INT64.max]),
    )
)
@example(np.zeros((0, 8), dtype=np.int64))
@example(np.array([[5, -1, 3]], dtype=np.int64))
@example(np.full((7, 4), 9, dtype=np.int64))
def test_unique_rows_match_numpy_unique(rows):
    first, inverse = _unique_rows(rows)
    _, want_first, want_inverse = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    assert first.dtype == want_first.dtype and np.array_equal(first, want_first)
    assert np.array_equal(inverse, want_inverse.reshape(-1))


def _oracle_orientations(edges, wedges):
    return np.array([canonical_orientation(e, w) for e, w in zip(edges, wedges)])


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 4)])
def test_batched_orientations_match_scalar_oracle(n, p):
    rng = np.random.default_rng([n, p])
    pairs = 600
    edges = rng.standard_normal((pairs, n, p))
    # small integers: edges tie on leading components, or entirely
    edges[::3] = rng.integers(-2, 3, (pairs, n, p))[::3]
    # a leading component just below or above the snap threshold, then a
    # negative one: owners must agree on which one leads
    near = rng.random((pairs, p)) < 0.4
    if n > 1:
        edges[:, 1][near] = -np.abs(edges[:, 1][near]) - 0.5
        rest = np.linalg.norm(edges[:, 1:], axis=1)
        factor = rng.choice([0.5, 0.99, 1.01, 2.0], (pairs, p)) * rng.choice([-1, 1], (pairs, p))
        edges[:, 0] = np.where(near, factor * EDGE_SNAP_TOL * rest, edges[:, 0])
    # the oracle's span is nonzero, so the edge order alone decides its sign
    wedges = rng.standard_normal((pairs, len(list(combinations(range(n), p)))))
    usable = np.linalg.norm(edges, axis=1).min(axis=1) > 0
    edges, wedges = edges[usable], wedges[usable]
    got = _orientation_parities(edges)
    want = _oracle_orientations(edges, wedges)
    assert got.shape == (len(edges),) and np.all(np.abs(got) == 1.0)
    assert np.array_equal(got[:, None] * np.sign(wedges), np.sign(want))


def test_orientations_of_degree_zero_are_ones():
    assert np.array_equal(_orientation_parities(np.zeros((5, 3, 0))), np.ones(5))


def test_refine_empty_mesh_gives_empty_levels():
    refined = refine(CubicalMesh(2, np.zeros((0, 2)), ()), 2)
    assert [refined.count(p) for p in range(3)] == [0, 0, 0]
    assert refined.coboundary_matrix(0).shape == (0, 0)


def test_refine_rejects_bad_arguments():
    # a non-integer order or degree fails before any work, naming itself; a bool
    # is no integer, while NumPy integers are accepted
    mesh = structured_mesh(2, 1)
    with pytest.raises(ValueError):
        refine(mesh, 0)
    with pytest.raises(ValueError):
        refine(mesh, 2, degrees=(3,))
    cases = [
        ((2.5,), {}, "order must be an integer, got 2.5"),
        ((2.0,), {}, "order must be an integer, got 2.0"),
        ((True,), {}, "order must be an integer, got True"),
        ((2,), {"degrees": [1.5]}, "degree must be an integer, got 1.5"),
        ((2,), {"degrees": [0, True]}, "degree must be an integer, got True"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refine(mesh, *args, **kwargs)
    refined = refine(mesh, np.int64(2), degrees=[np.int32(1)])
    assert refined.degrees == (1,) and refined.count(1) == refine(mesh, 2).count(1)


def test_to_csv_lists_every_cube(tmp_path):
    refined = refine(structured_mesh(2, 2), 1)
    path = tmp_path / "cubes.csv"
    refined.to_csv(path, 1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,degree,n_owners,first_cell,anchor"
    assert len(lines) == 1 + refined.count(1)


# -- minors ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compound_matrix_entries_are_minors(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((5, n, n))
    assert np.array_equal(compound_matrix(stack, 0), np.ones((5, 1, 1)))
    once = compound_matrix(stack, 1)
    assert once.dtype == stack.dtype and once.tobytes() == stack.tobytes()
    for p in range(n + 1):
        got = compound_matrix(stack, p)
        tuples = list(combinations(range(n), p))
        assert got.shape == (5, len(tuples), len(tuples))
        for r, rows in enumerate(tuples):
            for c, cols in enumerate(tuples):
                want = np.linalg.det(stack[:, list(rows)][:, :, list(cols)])
                assert np.allclose(got[:, r, c], want, rtol=1e-12, atol=0)
        # Cauchy-Binet: the compound of a product is the product of compounds
        other = rng.standard_normal((5, n, n))
        lhs = compound_matrix(stack @ other, p)
        rhs = compound_matrix(stack, p) @ compound_matrix(other, p)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_compound_matrix_rejects_a_negative_degree():
    mesh = structured_mesh(2, 2)
    for call in (lambda: compound_matrix(np.eye(2), -1), lambda: mesh.pushforward(-1)):
        with pytest.raises(ValueError, match=r"^degree must be >= 0, got -1$"):
            call()
    assert -1 not in mesh._pushforwards
    # one degree above the size has no minor: the derivative of a top-degree form
    assert compound_matrix(np.ones((4, 2, 2)), 3).shape == (4, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pushforward_is_each_cells_compound_formed_once(n):
    sheared = structured_mesh(n, 2, shear=0.3 if n > 1 else 0.0)
    mesh = scramble_corners(sheared, np.random.default_rng(n))
    for p in range(n + 2):  # the derivative of a top-degree form has degree n + 1
        push = mesh.pushforward(p)
        assert push.shape == (mesh.n_cells,) + compound_matrix(np.eye(n), p).shape
        for c in range(mesh.n_cells):
            assert push[c].tobytes() == compound_matrix(mesh.inverse_linears[c], p).tobytes()
        assert not push.flags.writeable
        assert push.flags.c_contiguous  # so a take along the cells copies only its rows
        assert mesh.pushforward(p) is push
        assert refine(mesh, 1).mesh.pushforward(p) is refine(mesh, 2).mesh.pushforward(p) is push


# -- pullback --------------------------------------------------------


def test_pullback_through_identity_map_is_transparent():
    amap = AffineMap(origin=np.zeros(2), linear=np.eye(2))
    ref = basis_form(small_cube_from_geometry(2, (0,), (1, 0)))
    pulled = PulledBackForm(amap, ref)
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
    pulled = PulledBackForm(amap, ref)
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
    pulled = PulledBackForm(amap, ref)
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
