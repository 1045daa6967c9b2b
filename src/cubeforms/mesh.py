"""Cubical meshes of parallelotopes and their order-k refinements.

A mesh stores vertices plus cells of 2^n vertex ids in binary-corner
order: corner number c sits at reference coordinates whose j-th entry is
bit j of c, so corner 0 is the cell origin, corner 1 its neighbour along
reference axis 0, corner 2 along axis 1, and so on.  Every cell must be
a parallelotope (the image of the unit cube under an invertible affine
map) and cells may only meet along whole shared faces, which is checked
on the shared vertex-id sets.

Refinement glues the small p-cubes of all cells at once from one
reference pattern per (n, p, k).  A small cube is keyed exactly by the
integer multilinear weights of its centre on the cell's vertex ids
(denominator (2k)^n): the centre determines the cube, and its nonzero
weights are intrinsic to the smallest face holding it, so cells sharing
the cube produce the same key.  Global ids follow first appearance.
Each owner records the sign relating its local direction order to the
orientation of the cube's span at its first owner, and coboundaries
scatter the reference boundary of each cube through that first owner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb

import numpy as np
from scipy import sparse

from .forms import PolyForm, exterior_derivative
from .smallcubes import SmallCube, enumerate_small_cubes, small_cube_positions

#: Relative tolerance for the parallelotope shape check.
SHAPE_TOL = 1e-12

#: Relative tolerance below which a cell map counts as degenerate.
DEGENERACY_TOL = 1e-14


class MeshValidationError(ValueError):
    """Raised when a mesh fails a structural or geometric check."""


def _corner_shifts(dimension: int) -> np.ndarray:
    """Row c holds the reference coordinates of corner c: bit j of c."""
    return (np.arange(1 << dimension)[:, None] >> np.arange(dimension)) & 1


@dataclass(frozen=True)
class AffineMap:
    """x -> origin + linear @ x; columns of ``linear`` are cell edges."""

    origin: np.ndarray
    linear: np.ndarray

    def __call__(self, reference_points) -> np.ndarray:
        pts = np.asarray(reference_points, dtype=float)
        return self.origin + pts @ self.linear.T

    @cached_property
    def inverse_linear(self) -> np.ndarray:
        return np.linalg.inv(self.linear)

    @cached_property
    def determinant(self) -> float:
        return float(np.linalg.det(self.linear))

    def pull_to_reference(self, physical_points) -> np.ndarray:
        pts = np.asarray(physical_points, dtype=float)
        return (pts - self.origin) @ self.inverse_linear.T


@dataclass(frozen=True)
class CubicalMesh:
    """Vertices and cells of a conforming parallelotope mesh.

    Validation runs on construction and raises
    :class:`MeshValidationError` with a description of the first problem
    found.
    """

    dimension: int
    vertices: np.ndarray
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != self.dimension:
            raise MeshValidationError(
                f"vertex array must have shape (*, {self.dimension}), "
                f"got {verts.shape}"
            )
        if not np.all(np.isfinite(verts)):
            raise MeshValidationError("vertex coordinates must be finite")
        verts = verts.copy()
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(
            self, "cells", tuple(tuple(int(v) for v in cell) for cell in self.cells)
        )
        self._validate()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_map(self, index: int) -> AffineMap:
        """Affine map of one cell, from its origin and edge corners."""
        cell = self.cells[index]
        origin = self.vertices[cell[0]]
        linear = np.column_stack(
            [self.vertices[cell[1 << j]] - origin for j in range(self.dimension)]
        )
        return AffineMap(origin=origin, linear=linear)

    # -- validation --------------------------------------------------

    def _validate(self) -> None:
        n = self.dimension
        nv = self.n_vertices
        used: set[int] = set()
        for ci, cell in enumerate(self.cells):
            if len(cell) != 1 << n:
                raise MeshValidationError(
                    f"cell {ci} has {len(cell)} vertices, expected {1 << n} "
                    f"in dimension {n}"
                )
            for v in cell:
                if not 0 <= v < nv:
                    raise MeshValidationError(
                        f"cell {ci} references vertex {v}, valid ids are 0..{nv - 1}"
                    )
            if len(set(cell)) != len(cell):
                raise MeshValidationError(f"cell {ci} repeats a vertex id: {cell}")
            used.update(cell)
        if len(used) != nv:
            dangling = sorted(set(range(nv)) - used)
            raise MeshValidationError(
                f"{len(dangling)} vertex ids are used by no cell "
                f"(first few: {dangling[:5]})"
            )
        self._check_duplicate_vertices()
        self._check_parallelotope()
        self._check_conformity()

    def _check_duplicate_vertices(self) -> None:
        scale = max(1.0, float(np.abs(self.vertices).max(initial=0.0)))
        order = np.lexsort(self.vertices.T[::-1])
        v = self.vertices[order]
        close = np.all(np.abs(np.diff(v, axis=0)) <= SHAPE_TOL * scale, axis=1)
        if np.any(close):
            i = int(np.argmax(close))
            a, b = int(order[i]), int(order[i + 1])
            raise MeshValidationError(
                f"vertices {min(a, b)} and {max(a, b)} coincide at "
                f"{v[i].tolist()}; merge them and share the id"
            )

    def _check_parallelotope(self) -> None:
        """Check every cell at once; report the lowest failing cell."""
        n = self.dimension
        cells = np.array(self.cells, dtype=np.intp).reshape(-1, 1 << n)
        corners = self.vertices[cells]
        edges = corners[:, 1 << np.arange(n)] - corners[:, :1]
        # matmul sums the edges in the same order as AffineMap.__call__
        predicted = corners[:, :1] + _corner_shifts(n).astype(float) @ edges
        deviation = np.linalg.norm(corners - predicted, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(edges, axis=2).max(axis=1, initial=0.0))
        skewed = deviation > SHAPE_TOL * scale[:, None] * (1 << n)
        # edges as columns, as in cell_map, so the determinant matches it
        determinant = np.linalg.det(edges.transpose(0, 2, 1))
        degenerate = np.abs(determinant) <= DEGENERACY_TOL * scale**n
        failing = np.flatnonzero(skewed.any(axis=1) | degenerate)
        if not failing.size:
            return
        index = int(failing[0])
        if skewed[index].any():
            corner = int(np.argmax(skewed[index]))
            raise MeshValidationError(
                f"cell {index} is not a parallelotope: corner {corner} "
                f"(vertex {self.cells[index][corner]}) deviates by "
                f"{deviation[index, corner]:.3e} from the affine prediction "
                f"{predicted[index, corner].tolist()}"
            )
        raise MeshValidationError(
            f"cell {index} is degenerate: edge-matrix determinant "
            f"{determinant[index]:.3e}"
        )

    def _check_conformity(self) -> None:
        incident: dict[int, list[int]] = {}
        for ci, cell in enumerate(self.cells):
            for v in cell:
                incident.setdefault(v, []).append(ci)
        pairs = {
            (a, b)
            for cells in incident.values()
            for a, b in combinations(sorted(set(cells)), 2)
        }
        for a, b in sorted(pairs):
            shared = set(self.cells[a]) & set(self.cells[b])
            for ci in (a, b):
                positions = [
                    pos for pos, v in enumerate(self.cells[ci]) if v in shared
                ]
                if not _is_binary_face(positions):
                    raise MeshValidationError(
                        f"cells {a} and {b} share vertex ids {sorted(shared)} "
                        f"which do not form a whole face of cell {ci}; "
                        "cells must meet along complete shared faces"
                    )


def _is_binary_face(positions: list[int]) -> bool:
    """True iff the corner numbers are exactly those of one cube face."""
    land = positions[0]
    lor = positions[0]
    for c in positions[1:]:
        land &= c
        lor |= c
    free = lor & ~land
    if len(positions) != 1 << free.bit_count():
        return False
    generated = set()
    sub = free
    while True:
        generated.add(land | sub)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return set(positions) == generated


# -- construction and file format ------------------------------------


def structured_mesh(dimension: int, subdivisions: int, shear: float = 0.0) -> CubicalMesh:
    """Uniform m^n grid on the unit cube, optionally sheared.

    A nonzero ``shear`` tilts the grid by adding shear * x_1 to the
    first coordinate of every vertex, turning squares into congruent
    parallelograms (needs dimension >= 2).
    """
    n, m = dimension, subdivisions
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"need at least one subdivision, got {m}")
    if shear and n < 2:
        raise ValueError("shear needs at least two dimensions")
    shape = (m + 1,) * n
    grid = np.array(list(product(range(m + 1), repeat=n)), dtype=float) / m
    # itertools.product runs the last axis fastest, matching C-order ids
    verts = grid.copy()
    if shear:
        verts[:, 0] += shear * verts[:, 1]
    base = np.array(list(product(range(m), repeat=n)))
    corner_index = base[:, None, :] + _corner_shifts(n)
    cells = np.ravel_multi_index(tuple(np.moveaxis(corner_index, -1, 0)), shape)
    return CubicalMesh(n, verts, tuple(map(tuple, cells.tolist())))


def load_mesh(path) -> CubicalMesh:
    """Read a mesh from JSON: {"dimension", "vertices", "cells"}.

    Cells list vertex ids in binary-corner order, 0-based.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        dimension = int(data["dimension"])
        vertices = np.asarray(data["vertices"], dtype=float)
        cells = tuple(tuple(int(v) for v in cell) for cell in data["cells"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshValidationError(f"malformed mesh file {path}: {exc}") from exc
    return CubicalMesh(dimension, vertices, cells)


def save_mesh(mesh: CubicalMesh, path) -> None:
    """Write a mesh as JSON (inverse of :func:`load_mesh`)."""
    data = {
        "dimension": mesh.dimension,
        "vertices": mesh.vertices.tolist(),
        "cells": [list(cell) for cell in mesh.cells],
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


# -- pushing reference forms through cell maps -----------------------


@dataclass(frozen=True)
class PulledBackForm:
    """A reference-coordinate form expressed in physical coordinates.

    Wraps a polynomial form on the reference cube together with a cell
    map; evaluation pulls physical points back to reference coordinates
    and transforms the covector part with the minors of the inverse
    Jacobian, so the result is the form (phi^-1)^* w with components in
    the ambient coordinate differentials.
    """

    cell_map: AffineMap
    reference: PolyForm

    @property
    def degree(self) -> int:
        return self.reference.degree

    @property
    def dimension(self) -> int:
        return self.reference.dimension

    def evaluate(self, physical_points) -> dict[tuple[int, ...], np.ndarray | float]:
        x = self.cell_map.pull_to_reference(physical_points)
        ref_vals = self.reference.evaluate(x, warn_outside=False)
        b = self.cell_map.inverse_linear
        n, p = self.dimension, self.degree
        out = {}
        for phys_dirs in combinations(range(n), p):
            total = None
            for ref_dirs, vals in ref_vals.items():
                minor = _minor_det(b, ref_dirs, phys_dirs)
                if minor == 0.0:
                    continue
                total = minor * vals if total is None else total + minor * vals
            if total is not None:
                out[phys_dirs] = total
        return out

    def exterior_derivative(self) -> "PulledBackForm":
        # d commutes with pullback, so differentiate on the reference side
        return PulledBackForm(self.cell_map, exterior_derivative(self.reference))


def pullback_basis(cell_map: AffineMap, reference: PolyForm) -> PulledBackForm:
    """Wrap a reference form for evaluation in physical coordinates."""
    return PulledBackForm(cell_map, reference)


def _minor_det(
    matrix: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]
) -> float:
    if not rows:
        return 1.0
    if len(rows) == 1:
        return float(matrix[rows[0], cols[0]])
    return float(np.linalg.det(matrix[np.ix_(rows, cols)]))


# -- refinement ------------------------------------------------------

#: Edge components below this fraction of the edge length count as zero
#: when an orientation is normalised: far above the roundoff of edges
#: taken from vertex differences (~1e-16), so every owner of a shared
#: cube picks the same leading component.
EDGE_SNAP_TOL = 1e-9

#: An owner whose span meets the shared orientation at |cos| at most this
#: is rejected: owners of one cube agree up to roundoff (|cos| = 1), so
#: only cells that do not really share the cube come near it.
SPAN_AGREEMENT_TOL = 1e-8


def _exterior_coordinates(edges: np.ndarray) -> np.ndarray:
    """All p-by-p row minors of an (n, p) edge matrix, rows sorted."""
    n, p = edges.shape
    if p == 0:
        return np.ones(1)
    return np.array(
        [_minor_det(edges, rows, tuple(range(p))) for rows in combinations(range(n), p)]
    )


def _canonical_orientation(edges: np.ndarray, wedge: np.ndarray) -> np.ndarray:
    """Owner-independent unit orientation vector for a small cube's span.

    ``wedge`` is ``_exterior_coordinates(edges)``.  Edge vectors are
    sign-normalised (first significant component made positive) and
    sorted, removing any dependence on the local direction order; the
    orientation is the wedge of the normalised edges, which is ``wedge``
    times the parity of the flips and the sort, scaled to unit length.
    Components below :data:`EDGE_SNAP_TOL` of the edge length are
    treated as zero so that every owner of a shared cube makes identical
    decisions despite roundoff.
    """
    p = edges.shape[1]
    if p == 0:
        return np.ones(1)
    sign = 1
    keys = []
    for j in range(p):
        v = edges[:, j]
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise MeshValidationError("small cube has a zero edge vector")
        snapped = np.where(np.abs(v) > EDGE_SNAP_TOL * norm, v, 0.0)
        lead = snapped[np.nonzero(snapped)[0]]
        if lead.size == 0:
            raise MeshValidationError("small cube has a vanishing edge vector")
        if lead[0] < 0:
            snapped = -snapped
            sign = -sign
        keys.append(tuple(snapped))
    order = sorted(range(p), key=keys.__getitem__)
    sign *= (-1) ** sum(order[a] > order[b] for a, b in combinations(range(p), 2))
    norm = float(np.linalg.norm(wedge))
    if norm == 0.0:
        raise MeshValidationError("small cube spans a degenerate plane")
    return sign * wedge / norm


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _reference_pattern(dimension: int, degree: int, order: int):
    """The local small p-cubes of one cell, as integer tables.

    Returns, per local cube in canonical order, the index of its
    direction tuple among ``combinations(range(n), p)`` and the
    multilinear weights of its centre on the 2^n cell corners.  The
    centre has numerators over 2k (odd on spanned axes, even on fixed
    ones), so the weights are integers over (2k)^n.
    """
    n, k = dimension, order
    local = enumerate_small_cubes(n, degree, k)
    tuples = {dirs: t for t, dirs in enumerate(combinations(range(n), degree))}
    direction = np.array([tuples[sc.directions] for sc in local], dtype=np.int64)
    centre = np.array(
        [
            [2 * a + (axis in sc.directions) for axis, a in enumerate(sc.anchor_numerators)]
            for sc in local
        ],
        dtype=np.int64,
    )
    bits = _corner_shifts(n).astype(bool)
    weights = np.where(bits, centre[:, None, :], 2 * k - centre[:, None, :]).prod(axis=2)
    return _frozen(direction), _frozen(weights)


@lru_cache(maxsize=None)
def _reference_incidence(dimension: int, degree: int, order: int):
    """Boundary of each local (p+1)-cube of one cell, as local p-cubes.

    Returns (faces, signs), one row per local (p+1)-cube in canonical
    order: the face fixing the j-th spanned direction enters with
    (-1)^j, positive on the far side and negative on the near side.
    """
    positions = small_cube_positions(dimension, degree, order)
    faces, signs = [], []
    for sc in enumerate_small_cubes(dimension, degree + 1, order):
        for j, axis in enumerate(sc.directions):
            face_dirs = tuple(d for d in sc.directions if d != axis)
            for side in (0, 1):
                nums = list(sc.anchor_numerators)
                nums[axis] += side
                faces.append(positions[face_dirs, tuple(nums)])
                signs.append((-1) ** j * (1 if side else -1))
    shape = (-1, 2 * (degree + 1))
    return (
        _frozen(np.array(faces, dtype=np.int64).reshape(shape)),
        _frozen(np.array(signs, dtype=np.int64).reshape(shape)),
    )


@dataclass
class RefinedMesh:
    """Order-k refinement of a mesh: globally numbered small cubes.

    For each refined degree p, ``cell_tables[p][c, i]`` is the global id
    of local cube i (canonical order) of cell c, and ``cell_signs[p][c, i]``
    the sign relating its local direction order to the global cube's
    orientation.  Ids follow first appearance, cells in order and local
    cubes in order within a cell; ``first_owners[p][g]`` is the
    (cell, local index) where cube g first appears.
    """

    mesh: CubicalMesh
    order: int
    degrees: tuple[int, ...]
    maps: tuple[AffineMap, ...]
    cell_tables: dict[int, np.ndarray]
    cell_signs: dict[int, np.ndarray]
    first_owners: dict[int, np.ndarray]
    _coboundaries: dict[int, sparse.csr_matrix] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def dimension(self) -> int:
        return self.mesh.dimension

    def _require(self, degree: int) -> None:
        if degree not in self.first_owners:
            raise KeyError(
                f"degree {degree} was not refined; available: {self.degrees}"
            )

    def count(self, degree: int) -> int:
        """Number of distinct global small cubes of one degree."""
        self._require(degree)
        return len(self.first_owners[degree])

    def owner_counts(self, degree: int) -> np.ndarray:
        """Number of cells holding each global small cube of one degree."""
        self._require(degree)
        return np.bincount(
            self.cell_tables[degree].ravel(), minlength=self.count(degree)
        )

    def local_cubes(self, degree: int) -> list[SmallCube]:
        """Reference small cubes of one cell, canonical order."""
        return enumerate_small_cubes(self.dimension, degree, self.order)

    def coboundary_matrix(self, degree: int) -> sparse.csr_matrix:
        """Sparse map from p-cochains to (p+1)-cochains, cached.

        Row g lists the boundary faces of global cube g with their
        incidence signs; applying it to a vector of integrals over the
        p-cubes realises the discrete exterior derivative.  Each row is
        the reference boundary of the cube's first owner, carried
        through that cell's tables and signs.
        """
        if degree in self._coboundaries:
            return self._coboundaries[degree]
        self._require(degree + 1)
        self._require(degree)
        cells, local = self.first_owners[degree + 1].T
        faces, face_signs = _reference_incidence(self.dimension, degree, self.order)
        faces, face_signs = faces[local], face_signs[local]
        table, signs = self.cell_tables[degree], self.cell_signs[degree]
        cube_signs = self.cell_signs[degree + 1][cells, local]
        cols = table[cells[:, None], faces]
        vals = cube_signs[:, None] * face_signs * signs[cells[:, None], faces]
        rows = np.repeat(np.arange(len(cells)), faces.shape[1])
        matrix = sparse.csr_matrix(
            (vals.ravel().astype(float), (rows, cols.ravel())),
            shape=(self.count(degree + 1), self.count(degree)),
        )
        self._coboundaries[degree] = matrix
        return matrix

    def to_csv(self, path, degree: int) -> None:
        """Debug dump: one line per global cube with owners and anchor."""
        local = self.local_cubes(degree)
        owner_counts = self.owner_counts(degree)
        with open(path, "w") as fh:
            fh.write("id,degree,n_owners,first_cell,anchor\n")
            for g, (cell, li) in enumerate(self.first_owners[degree].tolist()):
                anchor = self.maps[cell](
                    np.array([float(a) for a in local[li].anchor])
                )
                coords = " ".join(f"{x:.6g}" for x in anchor)
                fh.write(f"{g},{degree},{owner_counts[g]},{cell},{coords}\n")


def refine(mesh: CubicalMesh, order: int, degrees=None) -> RefinedMesh:
    """Subdivide every cell into its order-k small cubes and glue them.

    ``degrees`` restricts which p-levels are built (default all); the
    coboundary between p and p+1 needs both present.
    """
    n = mesh.dimension
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if degrees is None:
        wanted = tuple(range(n + 1))
    else:
        wanted = tuple(sorted(set(int(p) for p in degrees)))
        if any(not 0 <= p <= n for p in wanted):
            raise ValueError(f"degrees {wanted} outside 0..{n}")
    maps = tuple(mesh.cell_map(i) for i in range(mesh.n_cells))
    edge_matrices = [amap.linear / order for amap in maps]
    cells = np.array(mesh.cells, dtype=np.int64).reshape(mesh.n_cells, 1 << n)
    tables: dict[int, np.ndarray] = {}
    signs: dict[int, np.ndarray] = {}
    owners: dict[int, np.ndarray] = {}
    for p in wanted:
        direction, weights = _reference_pattern(n, p, order)
        n_local = len(direction)
        # key: the centre's nonzero (vertex id, weight) pairs, packed into
        # one integer each and sorted; zero weights become -1
        packed = cells[:, None, :] * ((2 * order) ** n + 1) + weights
        keys = np.sort(np.where(weights > 0, packed, -1), axis=2)
        _, first, inverse = np.unique(
            keys.reshape(-1, 1 << n), axis=0, return_index=True, return_inverse=True
        )
        by_appearance = np.argsort(first)
        rank = np.empty_like(by_appearance)
        rank[by_appearance] = np.arange(len(by_appearance))
        table = rank[inverse.reshape(-1)].reshape(mesh.n_cells, n_local)
        first_cell, first_local = np.divmod(first[by_appearance], n_local)

        wedges, orientations = [], []
        for e in edge_matrices:
            for dirs in combinations(range(n), p):
                wedges.append(_exterior_coordinates(e[:, list(dirs)]))
                orientations.append(_canonical_orientation(e[:, list(dirs)], wedges[-1]))
        shape = (mesh.n_cells, comb(n, p), comb(n, p))
        own = np.reshape(wedges, shape)[:, direction]
        shared = np.reshape(orientations, shape)[first_cell, direction[first_local]]
        shared = shared[table]
        dot = np.einsum("clt,clt->cl", own, shared)
        disagree = np.abs(dot) <= SPAN_AGREEMENT_TOL * np.linalg.norm(own, axis=2)
        if disagree.any():
            ci = int(np.argmax(disagree.any(axis=1)))
            raise MeshValidationError(
                f"cells disagree on the span of a shared small cube near cell {ci}"
            )
        tables[p] = _frozen(table)
        signs[p] = _frozen(np.where(dot > 0, 1, -1).astype(np.int8))
        owners[p] = _frozen(np.stack([first_cell, first_local], axis=1))
    return RefinedMesh(
        mesh=mesh,
        order=order,
        degrees=wanted,
        maps=maps,
        cell_tables=tables,
        cell_signs=signs,
        first_owners=owners,
    )
