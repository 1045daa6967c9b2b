"""Cubical meshes of parallelotopes and their order-k refinements.

A mesh is plain arrays: vertices, plus an int64 table of cells of 2^n
vertex ids in binary-corner order (corner c sits at reference coordinates
whose j-th entry is bit j of c, so corner 0 is the cell origin and corner
2^j its neighbour along reference axis j).  Every cell must be a
parallelotope (the image of the unit cube under an invertible affine map)
and cells may only meet along whole shared faces, checked on the shared
vertex-id sets of every two cells that share a vertex, found by one sort
of the (vertex, cell, corner) incidences.  The mesh alone owns the cell
geometry and the operations on it: validation keeps the cell maps as
stacked arrays, and the inverse Jacobians, their push-forward minors per
degree and the bucket grid of :meth:`CubicalMesh.locate` are built from
them once, for every refinement.

Refinement glues the small p-cubes of all cells at once from one
reference pattern per (n, p, k), with no loop over cells.  A small cube
is keyed exactly by the integer multilinear weights of its centre on the
cell's vertex ids (denominator (2k)^n): the centre determines the cube,
and its nonzero weights sit on the 2^d corners of the d-face whose
relative interior holds it, so cells sharing the cube produce the same
key.  Cubes are matched within each face dimension, by one lexsort of
keys 2^d wide; cubes inside a cell (d = n) are its own.  Global ids
follow first appearance.  The spans of all (cell, direction tuple)
pairs are oriented in one array pass; each owner records the sign
relating its local direction order to the orientation of the cube's
span at its first owner, and coboundaries scatter the reference
boundary of each cube through that first owner.
"""

from __future__ import annotations

import json
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb

import numpy as np
from scipy import sparse

from .forms import PolyForm, exterior_derivative
from .smallcubes import anchor_runs, pattern_shape

#: Relative tolerance of the cell shape checks and of coincident vertices.  A corner may deviate
#: from the affine prediction by this times the larger of the cell's longest edge and its largest
#: corner coordinate (times 2^n), and a cell is degenerate where |det| of its edges is at most
#: this times the product of their lengths: cells at |x| ~ 100 whose edges are dependent up to
#: roundoff read at most 4.8e-13, sheared grids 0.96.  Vertices coincide within this times the
#: largest coordinate (at least 1).
SHAPE_TOL = 1e-12


class MeshValidationError(ValueError):
    """Raised when a mesh fails a structural or geometric check."""


def _corner_shifts(dimension: int) -> np.ndarray:
    """Row c holds the reference coordinates of corner c: bit j of c."""
    return (np.arange(1 << dimension)[:, None] >> np.arange(dimension)) & 1


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _require_integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is a Python or NumPy integer, not a bool."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def map_reference_points(reference_points, origins, linears) -> np.ndarray:
    """Points x (..., n) mapped to origins + linears @ x, broadcasting the leading axes.

    Coordinate i is origins_i plus the products x_j * linears_ij summed in axis
    order, elementwise: a point rounds the same alone or in any batch, under any
    BLAS.  Where the result has the points' shape, it has their memory order too.
    """
    x = np.asarray(reference_points, dtype=float)
    out = np.empty_like(x, shape=np.broadcast_shapes(x.shape, origins.shape))
    for i in range(linears.shape[-1]):
        coordinate = out[..., i]
        np.multiply(x[..., 0], linears[..., i, 0], out=coordinate)
        for j in range(1, linears.shape[-1]):
            coordinate += x[..., j] * linears[..., i, j]
        coordinate += origins[..., i]
    return out


@dataclass(frozen=True)
class AffineMap:
    """x -> origin + linear @ x, by :func:`map_reference_points`; ``linear``'s columns are edges."""

    origin: np.ndarray
    linear: np.ndarray

    def __call__(self, reference_points) -> np.ndarray:
        return map_reference_points(reference_points, self.origin, self.linear)

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
    """Vertices and cells of a conforming parallelotope mesh, as arrays.

    ``cells`` (n_cells, 2^n) is read-only int64, from any integer rows.
    Validation raises :class:`MeshValidationError` at the first problem
    and keeps the cell maps, ``origins`` (n_cells, n) and ``linears``
    (n_cells, n, n) with edges as columns; the rest is built on first use.
    """

    dimension: int
    vertices: np.ndarray
    cells: np.ndarray
    origins: np.ndarray = field(init=False, repr=False, compare=False)
    linears: np.ndarray = field(init=False, repr=False, compare=False)
    _pushforwards: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _located: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False, compare=False)
    _located_bytes: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "dimension", _require_integer("dimension", self.dimension))
        except ValueError as exc:
            raise MeshValidationError(str(exc)) from None
        if self.dimension < 1:
            raise MeshValidationError(f"dimension must be >= 1, got {self.dimension}")
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != self.dimension:
            raise MeshValidationError(
                f"vertex array must have shape (*, {self.dimension}), "
                f"got {verts.shape}"
            )
        if not np.all(np.isfinite(verts)):
            raise MeshValidationError("vertex coordinates must be finite")
        object.__setattr__(self, "vertices", _frozen(verts.copy()))
        cells = _cell_table(self.cells, self.dimension, self.n_vertices)
        object.__setattr__(self, "cells", _frozen(cells))
        self._validate()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_map(self, index: int) -> AffineMap:
        """Affine map of one cell: row ``index`` of the stacked maps."""
        return AffineMap(origin=self.origins[index], linear=self.linears[index])

    def map_points(self, reference_points, cells=slice(None)) -> np.ndarray:
        """Reference points (..., s, n) mapped into the cells of a slice or index array.

        Row c of the result is origins[c] + linears[c] @ x, by :func:`map_reference_points`.
        """
        origins, linears = self.origins[cells, None], self.linears[cells, None]
        return map_reference_points(reference_points, origins, linears)

    def pull_back(self, points, cells) -> np.ndarray:
        """Points (s, n) pulled back through the maps of cells (s,), by einsum (no BLAS call)."""
        shifted = points - self.origins.take(cells, axis=0)
        return np.einsum("sj,sij->si", shifted, self.inverse_linears.take(cells, axis=0))

    @cached_property
    def inverse_linears(self) -> np.ndarray:
        """The cell maps' inverse Jacobians, stacked: shape (n_cells, n, n)."""
        return _frozen(np.linalg.inv(self.linears))

    def pushforward(self, degree: int) -> np.ndarray:
        """The minors ``compound_matrix(inverse_linears, degree)``, formed once and read-only.

        They are stored C-ordered, one cell's minors contiguous: ``np.linalg.det`` returns
        them in another order, and ``take`` along the cells would copy the whole table on
        every call to reorder it.
        """
        if degree not in self._pushforwards:
            minors = np.ascontiguousarray(compound_matrix(self.inverse_linears, degree))
            self._pushforwards[degree] = _frozen(minors)
        return self._pushforwards[degree]

    @cached_property
    def cell_grid(self) -> "CellGrid":
        """The bucket grid that locates points in cells."""
        return CellGrid.build(self)

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The lowest-index cell holding each point (s, n), and the point's reference coordinates.

        Candidates are the cells in the point's bucket of :attr:`cell_grid` whose
        box, widened by :data:`LOCATE_TOL` times the mesh scale, holds the point.
        The (point, candidate) pairs run by point, then by cell; those whose box
        holds the point are pulled back in one batch, in that order, and a pair
        counts when its reference coordinates are within that slack of [0, 1].
        Each point's first counting pair, its lowest cell, starts a run of equal
        points among the counting pairs and wins.  Raises ValueError if the
        points are not (s, n), or naming the lowest-index point that lies in no
        cell.

        Both arrays are read-only.  The mesh remembers the batches it has located,
        keyed by their float64 bytes, in at most :data:`LOCATE_CACHE_BYTES`, the
        least recently used going first: locating the same bytes again returns
        the arrays the first call computed, with no location work.  A batch that
        raises, or whose entry alone would exceed the bound, is not kept, and one
        whose bytes alone exceed it is not even copied into a key.  Unpinned
        :meth:`PiecewiseForm.evaluate` keeps its own entries in the same store, one
        per order and degree, so the same bytes evaluated there are located again.
        """
        return self._locate_with(points)

    def _locate_with(self, points, label=None, derive=None) -> tuple:
        """:meth:`locate`'s cells and reference points, and with a ``label``, the arrays of
        ``derive(cells, x)``, which depend on the batch alone: one entry, remembered under
        (label, the batch's bytes) if it fits :data:`LOCATE_CACHE_BYTES`, with its size."""
        points = np.asarray(points, dtype=float)
        n = self.dimension
        if points.ndim != 2 or points.shape[1] != n:
            raise ValueError(f"points must have shape (*, {n}), got {points.shape}")
        key = (label, points.tobytes()) if points.nbytes <= LOCATE_CACHE_BYTES else None
        kept = self._located.get(key)
        if kept is not None:
            self._located.move_to_end(key)
            return kept[0]
        cells, x = map(_frozen, self._locate(points))
        entry = (cells, x) if label is None else (cells, x, *derive(cells, x))
        if key is not None and (size := _entry_bytes(key, entry)) <= LOCATE_CACHE_BYTES:
            self._located[key] = (entry, size)
            held = self._located_bytes + size
            while held > LOCATE_CACHE_BYTES:
                held -= self._located.popitem(last=False)[1][1]
            object.__setattr__(self, "_located_bytes", held)
        return entry

    def _locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`locate` of (s, n) float points, without its cache."""
        n = self.dimension
        point = first = cell = np.empty(0, dtype=np.int64)
        x = np.empty((0, n))
        if self.n_cells:
            grid = self.cell_grid
            coords = _bucket_coords(points, grid.start, grid.width, grid.shape)
            keys = np.ravel_multi_index(tuple(coords.T), grid.shape)
            slot = np.minimum(np.searchsorted(grid.keys, keys), len(grid.keys) - 1)
            begin = grid.indptr[slot]
            count = np.where(grid.keys[slot] == keys, grid.indptr[slot + 1] - begin, 0)
            point = np.repeat(np.arange(len(points)), count)
            # pair i of a point whose pairs start at r = cumsum(count) - count takes
            # grid.cells[begin + i - r]
            shift = np.repeat(begin + count - np.cumsum(count), count)
            cell = grid.cells.take(np.arange(len(point)) + shift)
            pts = points.take(point, axis=0)
            # .take and per-axis ANDs: fancy indexing and np.all(axis=1) cost
            # several times more per call on these short (pairs, n) arrays
            lower, upper = grid.lower.take(cell, axis=0), grid.upper.take(cell, axis=0)
            boxed = np.flatnonzero(_all_columns((pts >= lower) & (pts <= upper)))
            point, cell = point.take(boxed), cell.take(boxed)
            x = self.pull_back(pts.take(boxed, axis=0), cell)
            hits = np.flatnonzero(_all_columns((x >= -grid.slack) & (x <= 1 + grid.slack)))
            # a run of equal points starts where the point differs from the one before
            at = point.take(hits)
            starts = np.ones(len(at), dtype=bool)
            np.not_equal(at[1:], at[:-1], out=starts[1:])
            first = hits.compress(starts)
            cell, x = cell.take(first), x.take(first, axis=0)
        if len(cell) < len(points):
            # the points found are increasing, so the lowest missing point is the first gap
            found = point.take(first)
            gaps = np.flatnonzero(found != np.arange(len(found)))
            lowest = int(gaps[0]) if gaps.size else len(found)
            raise ValueError(f"point {points[lowest].tolist()} lies in no mesh cell")
        return cell, x

    # -- validation --------------------------------------------------

    def _validate(self) -> None:
        dangling = np.setdiff1d(np.arange(self.n_vertices), self.cells)
        if dangling.size:
            raise MeshValidationError(
                f"{len(dangling)} vertex ids are used by no cell "
                f"(first few: {dangling[:5].tolist()})"
            )
        self._check_duplicate_vertices()
        self._check_parallelotope()
        self._check_conformity()

    def _check_duplicate_vertices(self) -> None:
        """No two vertices within the tolerance of each other in every coordinate.

        Coordinates are cut into tolerance-wide buckets, so two such vertices
        sit in the same or neighbouring buckets along every axis.  A bucket's
        key is linear in its indices (mod 2^64), so a neighbouring bucket's key
        is a vertex's own key plus a fixed step; half of the 3^n steps find
        each neighbouring pair once.  The vertices found under those keys
        (hash collisions included) are confirmed by the coordinate test, and
        the pair reported is the first in lexicographic order of coordinates.
        ``scipy.spatial.cKDTree.query_pairs`` finds the same pairs, but
        importing it loads ``scipy.linalg`` and takes about 0.2 s.
        """
        n = self.dimension
        tol = SHAPE_TOL * max(1.0, float(np.abs(self.vertices).max(initial=0.0)))
        order = np.lexsort(self.vertices.T[::-1])
        v = self.vertices[order]
        mix = np.uint64(0x9E3779B97F4A7C15) ** np.arange(n, dtype=np.uint64)
        keys = (np.floor(v / tol).astype(np.int64).view(np.uint64) * mix).sum(axis=1, dtype=np.uint64)
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        # the zero step and those whose first nonzero entry is +1
        steps = np.indices((3,) * n).reshape(n, -1).T[(3**n - 1) // 2 :] - 1
        steps = (steps.view(np.uint64) * mix).sum(axis=1, dtype=np.uint64)
        # per step the targets stay sorted up to one wrap, which keeps the searches fast
        targets = (steps[:, None] + sorted_keys).ravel()
        lo = np.searchsorted(sorted_keys, targets, side="left")
        count = np.searchsorted(sorted_keys, targets, side="right") - lo
        i = np.repeat(np.tile(by_key, len(steps)), count)
        j = by_key[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(i))]
        i, j = np.minimum(i, j), np.maximum(i, j)
        close = np.flatnonzero((i < j) & np.all(np.abs(v[i] - v[j]) <= tol, axis=1))
        if close.size:
            first = close[np.lexsort((j[close], i[close]))[0]]
            a, b = int(order[i[first]]), int(order[j[first]])
            raise MeshValidationError(
                f"vertices {min(a, b)} and {max(a, b)} coincide at "
                f"{v[i[first]].tolist()}; merge them and share the id"
            )

    def _check_parallelotope(self) -> None:
        """Check every cell at once, report the lowest failing cell, keep the maps."""
        n = self.dimension
        corners = self.vertices[self.cells]
        edges = corners[:, 1 << np.arange(n)] - corners[:, :1]
        predicted = corners[:, :1] + _corner_shifts(n).astype(float) @ edges
        deviation = np.linalg.norm(corners - predicted, axis=-1)
        lengths = np.linalg.norm(edges, axis=2)
        # corner roundoff grows with the coordinates, not only with the edges
        scale = np.maximum(lengths.max(axis=1, initial=0.0), np.abs(corners).max(axis=(1, 2)))
        skewed = deviation > SHAPE_TOL * scale[:, None] * (1 << n)
        linears = np.swapaxes(edges, 1, 2).copy()
        determinant = np.linalg.det(linears)
        # negated, so that a NaN determinant (from edges that overflow) fails too
        degenerate = ~(np.abs(determinant) > SHAPE_TOL * lengths.prod(axis=1))
        failing = np.flatnonzero(skewed.any(axis=1) | degenerate)
        if not failing.size:
            object.__setattr__(self, "origins", _frozen(corners[:, 0].copy()))
            object.__setattr__(self, "linears", _frozen(linears))
            return
        index = int(failing[0])
        if skewed[index].any():
            corner = int(np.argmax(skewed[index]))
            raise MeshValidationError(
                f"cell {index} is not a parallelotope: corner {corner} "
                f"(vertex {self.cells[index, corner]}) deviates by "
                f"{deviation[index, corner]:.3e} from the affine prediction "
                f"{predicted[index, corner].tolist()}"
            )
        raise MeshValidationError(
            f"cell {index} is degenerate: edge-matrix determinant "
            f"{determinant[index]:.3e}"
        )

    def _check_conformity(self) -> None:
        """Cells sharing a vertex must share a whole face of each.

        The (vertex, cell, corner) incidences are sorted once, by vertex and
        then by cell, and every two incidences at one vertex make a pair of
        cells a < b; grouped by (a, b), the pairs list the shared corner
        numbers of each side.  Those of a cell lie in the face fixed by
        their common bits and free along the bits that vary among them, so
        they form that face exactly when there are 2^(number of varying
        bits) of them.  Pairs run in sorted order and the first failure is
        reported.
        """
        cells = self.cells
        n_cells, size = cells.shape
        ids = cells.ravel()
        # the table runs cell by cell, so a stable sort by vertex keeps the cells in order
        order = np.argsort(ids, kind="stable")
        vertex = ids[order]
        cell, corner = np.divmod(order, size)
        starts = np.flatnonzero(np.r_[True, vertex[1:] != vertex[:-1]])
        valence = np.diff(np.r_[starts, len(vertex)])
        # each incidence pairs with the later ones at its vertex
        later = np.repeat(starts + valence, valence) - np.arange(len(vertex)) - 1
        first = np.repeat(np.arange(len(vertex)), later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        if not first.size:
            return
        key = cell[first] * n_cells + cell[second]
        by_pair = np.argsort(key, kind="stable")
        key = key[by_pair]
        runs = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        count = np.diff(np.r_[runs, len(key)])
        whole = []
        for side in (first, second):
            corners = corner[side[by_pair]]
            common = np.bitwise_and.reduceat(corners, runs)
            varying = np.bitwise_or.reduceat(corners, runs) & ~common
            free_axes = sum((varying >> j) & 1 for j in range(self.dimension))
            whole.append(count == np.left_shift(1, free_axes))
        whole = np.stack(whole, axis=1)
        failing = np.flatnonzero(~whole.all(axis=1))
        if not failing.size:
            return
        i = int(failing[0])
        pair = divmod(int(key[runs[i]]), n_cells)
        shared = np.intersect1d(cells[pair[0]], cells[pair[1]])
        raise MeshValidationError(
            f"cells {pair[0]} and {pair[1]} share vertex ids {shared.tolist()} "
            f"which do not form a whole face of cell {pair[int(np.argmin(whole[i]))]}; "
            "cells must meet along complete shared faces"
        )


def _cell_table(cells, dimension: int, n_vertices: int) -> np.ndarray:
    """Rows of ids, converted as ``int()`` does, as an int64 array (n_cells, 2^n).

    The lowest failing row is reported: its length, then an id out of range, then a repeat.
    """
    size = 1 << dimension
    try:
        table = np.asarray(cells, dtype=np.int64)
    except OverflowError:  # ids beyond 64 bits stay Python integers, out of range
        table = np.asarray(cells, dtype=object)
    except ValueError:  # ragged rows, or an entry that is no integer
        table = None
        lengths = np.fromiter(map(len, cells), dtype=np.int64)
        if np.all(lengths == size):
            raise
    if table is not None:
        if table.ndim == 1 and not table.size:
            table = table.reshape(0, size)
        if table.ndim != 2:
            raise MeshValidationError(f"cells must be rows of vertex ids, got shape {table.shape}")
        lengths = np.full(len(table), table.shape[1])
    short = np.flatnonzero(lengths != size)
    if short.size:
        row = int(short[0])
        _cell_table(cells[:row], dimension, n_vertices)  # the rows before it come first
        raise MeshValidationError(
            f"cell {row} has {lengths[row]} vertices, expected {size} in dimension {dimension}"
        )
    outside = (table < 0) | (table >= n_vertices)
    ordered = np.sort(table, axis=1)
    repeated = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    failing = np.flatnonzero(outside.any(axis=1) | repeated)
    if failing.size:
        row = int(failing[0])
        if outside[row].any():
            raise MeshValidationError(
                f"cell {row} references vertex {table[row, np.argmax(outside[row])]}, "
                f"valid ids are 0..{n_vertices - 1}"
            )
        raise MeshValidationError(f"cell {row} repeats a vertex id: {tuple(table[row].tolist())}")
    return table


# -- construction and file format ------------------------------------


def structured_mesh(dimension: int, subdivisions: int, shear: float = 0.0) -> CubicalMesh:
    """Uniform m^n grid on the unit cube, optionally sheared.

    A nonzero ``shear`` tilts the grid by adding shear * x_1 to the
    first coordinate of every vertex, turning squares into congruent
    parallelograms (needs dimension >= 2).  Raises ValueError unless
    ``dimension`` and ``subdivisions`` are integers of at least 1.
    """
    n = _require_integer("dimension", dimension)
    m = _require_integer("subdivisions", subdivisions)
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
    return CubicalMesh(n, verts, cells)


def load_mesh(path) -> CubicalMesh:
    """Read a mesh from JSON: {"dimension", "vertices", "cells"}.

    Cells list vertex ids in binary-corner order, 0-based.  An empty vertex
    list reads as no vertices of the file's dimension.  A bad entry, or a
    ``dimension`` that is not an integer, is a malformed file.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        dimension = data["dimension"]
        if not isinstance(dimension, int) or isinstance(dimension, bool):
            raise TypeError(f"dimension must be an integer, got {dimension!r}")
        vertices = np.asarray(data["vertices"], dtype=float)
        if vertices.shape == (0,) and dimension > 0:  # JSON [] keeps no second axis
            vertices = vertices.reshape(0, dimension)
        return CubicalMesh(dimension, vertices, data["cells"])
    except MeshValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshValidationError(f"malformed mesh file {path}: {exc}") from exc


def save_mesh(mesh: CubicalMesh, path) -> None:
    """Write a mesh as JSON (inverse of :func:`load_mesh`)."""
    data = {
        "dimension": mesh.dimension,
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
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
        combos = list(combinations(range(self.dimension), self.degree))
        push = compound_matrix(self.cell_map.inverse_linear, self.degree)
        out = {}
        for col, phys_dirs in enumerate(combos):
            total = None
            for ref_dirs, vals in ref_vals.items():
                minor = push[combos.index(ref_dirs), col]
                if minor == 0.0:
                    continue
                total = minor * vals if total is None else total + minor * vals
            if total is not None:
                out[phys_dirs] = total
        return out

    def exterior_derivative(self) -> "PulledBackForm":
        # d commutes with pullback, so differentiate on the reference side
        return PulledBackForm(self.cell_map, exterior_derivative(self.reference))


def compound_matrix(matrices, degree: int) -> np.ndarray:
    """All degree-by-degree minors of a stack of matrices.

    For matrices of shape (..., r, c) the result has shape
    (..., C(r, p), C(c, p)); entry [..., i, j] is the determinant of the
    i-th row tuple and j-th column tuple, both listed as
    ``combinations``.  Degree 0 gives ones and degree 1 returns the
    input itself; column t of an edge matrix's compound is the wedge of
    the edges in direction tuple t.  A degree above the size gives no
    minor; a negative degree raises ValueError.
    """
    a = np.asarray(matrices, dtype=float)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree <= 1:
        return a if degree else np.ones(a.shape[:-2] + (1, 1))
    rows, cols = (
        np.array(list(combinations(range(size), degree)), dtype=np.intp).reshape(-1, degree)
        for size in a.shape[-2:]
    )
    return np.linalg.det(a[..., rows[:, None, :, None], cols[None, :, None, :]])


# -- point location --------------------------------------------------

#: Slack, relative to the largest vertex coordinate, with which a point
#: counts as inside a cell: points on shared faces pull back with a few
#: ulps of roundoff, and this keeps them from falling between cells.
LOCATE_TOL = 1e-12

#: Bytes of the batches that :meth:`CubicalMesh.locate` remembers per mesh, keys,
#: arrays and their Python objects counted by ``sys.getsizeof``: a time-stepper
#: probing fixed points skips location after its first step.  A point's key and
#: results take 8(2n + 1) bytes and each entry about 0.45 kB more, so in 3D this
#: holds about 360 batches of 200 points, or 8,000 single points, and the dict's own
#: slots add up to 30% (single points).  An unpinned evaluation's entry also holds
#: its batch's factor tables and minors, 8(2(k + 1)n + C^2) bytes a point for C
#: direction tuples: a 200-point 3D batch evaluated at k = 2, p = 1 holds 56 kB, so
#: about 75 such batches fit.  Looking a batch up costs one copy of its bytes and a
#: hash, about 2 us for 200 points in 3D, against about 160 us to locate them.
LOCATE_CACHE_BYTES = 1 << 22


@dataclass(frozen=True)
class CellGrid:
    """Uniform bucket grid over the cells' bounding boxes, for point location.

    Each box is widened by ``slack`` (:data:`LOCATE_TOL` times the mesh
    scale).  The bucket width per axis is the largest widened extent,
    raised where needed so that no axis has more buckets than cells, so
    every box meets at most two buckets per axis (up to roundoff).  Only
    occupied buckets are stored, in CSR form: bucket ``keys[i]`` (its
    raveled grid index) holds ``cells[indptr[i]:indptr[i + 1]]`` in
    increasing order.
    """

    slack: float
    lower: np.ndarray
    upper: np.ndarray
    start: np.ndarray
    width: np.ndarray
    shape: tuple[int, ...]
    keys: np.ndarray
    indptr: np.ndarray
    cells: np.ndarray

    @classmethod
    def build(cls, mesh: CubicalMesh) -> "CellGrid":
        n = mesh.dimension
        slack = LOCATE_TOL * max(1.0, float(np.abs(mesh.vertices).max(initial=0.0)))
        corners = mesh.vertices[mesh.cells]
        lower = corners.min(axis=1) - slack
        upper = corners.max(axis=1) + slack
        start = lower.min(axis=0)
        spread = upper.max(axis=0) - start
        width = np.maximum((upper - lower).max(axis=0), spread / len(lower))
        shape = tuple(int(s) + 1 for s in np.floor(spread / width))
        first = _bucket_coords(lower, start, width, shape)
        last = _bucket_coords(upper, start, width, shape)
        # two buckets per axis, or three where roundoff nudges an edge across
        coords = first[:, None, :] + np.indices((3,) * n).reshape(n, -1).T
        covered = np.all(coords <= last[:, None, :], axis=2)
        keys = np.ravel_multi_index(tuple(coords[covered].T), shape)
        members = np.repeat(np.arange(len(lower)), covered.sum(axis=1))
        order = np.argsort(keys, kind="stable")
        keys, starts = np.unique(keys[order], return_index=True)
        return cls(
            slack=slack,
            lower=lower,
            upper=upper,
            start=start,
            width=width,
            shape=shape,
            keys=keys,
            indptr=np.append(starts, len(order)),
            cells=members[order],
        )


def _all_columns(mask: np.ndarray) -> np.ndarray:
    """Rows of a boolean (s, n) array that are true in every column."""
    rows = mask[:, 0]
    for j in range(1, mask.shape[1]):
        rows = rows & mask[:, j]
    return rows


def _entry_bytes(key: tuple, entry: tuple) -> int:
    """What one remembered batch of :meth:`CubicalMesh.locate` holds, in bytes: its key,
    the pair that stores its arrays with its size, and the arrays, a buffer that views
    share counted once."""
    owners = {id(a.base): a.base for a in entry if a.base is not None}
    parts = [*key, key, entry, (entry, 0), *entry, *owners.values()]
    return sum(map(sys.getsizeof, parts))


def _bucket_coords(points, start, width, shape) -> np.ndarray:
    """Grid index per axis: monotone in each coordinate, clipped to the grid."""
    coords = np.subtract(points, start)
    coords /= width
    np.floor(coords, out=coords)
    # fmax sends NaN to 0 and fmin sends +inf to the last bucket: a point that is
    # not finite lies in no box, whatever bucket it is looked up in
    np.fmax(coords, 0, out=coords)
    np.fmin(coords, np.subtract(shape, 1), out=coords)
    return coords.astype(np.intp)


# -- refinement ------------------------------------------------------

#: Edge components below this fraction of the edge length count as zero
#: when an orientation is normalised: far above the roundoff of edges
#: taken from vertex differences (~1e-16), so every owner of a shared
#: cube picks the same leading component.
EDGE_SNAP_TOL = 1e-9


def _orientation_parities(edges: np.ndarray) -> np.ndarray:
    """+-1 per pair of ``edges`` (pairs, n, p), the p edge vectors of one direction tuple
    as columns: times the pair's wedge, the owner-independent orientation of its span.

    Edge vectors are sign-normalised (first significant component made positive) and
    sorted, removing any dependence on the local direction order; the parity is that
    of the flips and the sort, which counts the edge pairs out of lexicographic order,
    compared at their first differing component (equal edges keep their order).
    Components below :data:`EDGE_SNAP_TOL` of the edge length count as zero, so every
    owner of a shared cube decides alike despite roundoff.  All pairs are handled in
    one array pass; the edges of a validated cell are finite and nonzero.
    """
    p = edges.shape[-1]
    norms = np.linalg.norm(edges, axis=1)
    snapped = np.where(np.abs(edges) > EDGE_SNAP_TOL * norms[:, None, :], edges, 0.0)
    lead = np.take_along_axis(snapped, (snapped != 0.0).argmax(axis=1)[:, None, :], axis=1)[:, 0]
    snapped = np.where(lead[:, None, :] < 0, -snapped, snapped)
    a, b = np.array(list(combinations(range(p), 2)), dtype=np.intp).reshape(-1, 2).T
    differ = snapped[:, :, a] != snapped[:, :, b]
    at = differ.argmax(axis=1)[:, None, :]
    swapped = differ.any(axis=1) & (
        np.take_along_axis(snapped[:, :, a], at, axis=1)[:, 0]
        > np.take_along_axis(snapped[:, :, b], at, axis=1)[:, 0]
    )
    odd = ((lead < 0).sum(axis=1) + swapped.sum(axis=1)) % 2
    return np.where(odd, -1.0, 1.0)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``first`` and ``inverse`` of ``np.unique(rows, axis=0)``, from one lexsort.

    Rows sort lexicographically, column 0 first, as ``np.unique`` orders
    them; a new group starts wherever a row differs from the one before,
    and the running count of starts numbers the groups.  The sort is
    stable, so each group's first row in sorted order is its lowest index.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


@lru_cache(maxsize=None)
def _reference_pattern(dimension: int, degree: int, order: int):
    """The local small p-cubes of one cell, as integer tables.

    Returns, per local cube in canonical order, the index of its
    direction tuple among ``combinations(range(n), p)``, and the cubes
    grouped by the face of the cell whose relative interior holds them.
    The multilinear weights of a cube's centre on the 2^n cell corners
    are integers over (2k)^n (the centre has numerators over 2k, odd on
    spanned axes and even on fixed ones), and the nonzero ones sit on
    the corners of that face: 2^d of them for a d-face.  Each group is
    (local indices, corners (cubes, 2^d), weights (cubes, 2^d)), by d.
    """
    n, k = dimension, order
    runs = anchor_runs(n, degree, k)
    direction = np.repeat(np.arange(len(runs)), [len(anchors) for _, _, anchors in runs])
    centre = np.concatenate([2 * anchors + np.isin(np.arange(n), dirs) for dirs, _, anchors in runs])
    bits = _corner_shifts(n).astype(bool)
    weights = np.where(bits, centre[:, None, :], 2 * k - centre[:, None, :]).prod(axis=2)
    support = (weights > 0).sum(axis=1)
    groups = []
    for d in range(degree, n + 1):  # a p-cube lies in no face of lower dimension
        local = np.flatnonzero(support == 1 << d)
        if not local.size:  # at k = 1 every cube is a face of the cell
            continue
        corners = np.nonzero(weights[local] > 0)[1].reshape(len(local), 1 << d)
        nonzero = np.take_along_axis(weights[local], corners, axis=1)
        groups.append((_frozen(local), _frozen(corners), _frozen(nonzero)))
    return _frozen(direction), tuple(groups)


def _number_cubes(
    cells: np.ndarray, order: int, groups, n_local: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global ids (n_local, n_cells) by first appearance, and each id's first flat index
    (cell * n_local + local).

    A cube in the relative interior of a d-face of a cell (d < n) is keyed
    by its centre's nonzero weights on the face's vertex ids: each (vertex
    id, weight) pair packed into one integer, sorted, so the key is 2^d
    wide and owner-independent.  Each face dimension is deduplicated on
    its own, since cubes on faces of different dimension never coincide;
    cubes inside the cell (d = n) belong to it alone and need no key.  An
    id is then the number of first appearances before its cube's first,
    with cells in order and local cubes in order within a cell.
    """
    n_cells, size = cells.shape
    stride = (2 * order) ** (size.bit_length() - 1) + 1  # above every weight, (2k)^n
    firsts, inverses = [], []
    for local, corners, weights in groups:
        if corners.shape[1] == size:  # inside the cell
            first = inverse = np.arange(n_cells * len(local))
        else:
            keys = np.sort(cells[:, corners] * stride + weights, axis=2)
            first, inverse = _unique_rows(keys.reshape(-1, corners.shape[1]))
        cell, i = np.divmod(first, len(local))
        firsts.append(cell * n_local + local[i])
        inverses.append(inverse)
    appears = np.zeros(n_cells * n_local, dtype=bool)
    for first in firsts:
        appears[first] = True
    ids = np.cumsum(appears) - 1
    table = np.empty((n_local, n_cells), dtype=np.intp)
    for (local, _, _), first, inverse in zip(groups, firsts, inverses):
        table[local] = ids[first][inverse].reshape(n_cells, len(local)).T
    return table, np.flatnonzero(appears)


@lru_cache(maxsize=None)
def _reference_incidence(dimension: int, degree: int, order: int):
    """Boundary of each local (p+1)-cube of one cell, as local p-cubes.

    Returns (faces, signs), one row per local (p+1)-cube in canonical
    order: the face fixing the j-th spanned direction enters with
    (-1)^j, positive on the far side and negative on the near side.  A
    face's position is its run's start plus its anchor's flat index.
    """
    n, k = dimension, order
    starts = {dirs: sl.start for dirs, sl, _ in anchor_runs(n, degree, k)}
    faces = []
    for dirs, _, anchors in anchor_runs(n, degree + 1, k):
        columns = []
        for j, axis in enumerate(dirs):
            face_dirs = dirs[:j] + dirs[j + 1 :]
            shape = pattern_shape(n, face_dirs, k)
            for side in (0, 1):
                nums = anchors + side * (np.arange(n) == axis)
                columns.append(starts[face_dirs] + np.ravel_multi_index(nums.T, shape))
        faces.append(np.stack(columns, axis=1))
    faces = np.concatenate(faces)
    signs = [(-1) ** j * (2 * side - 1) for j in range(degree + 1) for side in (0, 1)]
    return _frozen(faces), _frozen(np.tile(np.array(signs, dtype=np.int64), (len(faces), 1)))


@dataclass
class RefinedMesh:
    """Order-k refinement of a mesh: globally numbered small cubes.

    For each refined degree p, ``cell_tables[p][c, i]`` is the global id
    of local cube i (canonical order) of cell c, and ``cell_signs[p][c, i]``
    the sign relating its local direction order to the global cube's
    orientation.  A cube is shared only through the face of each owner
    whose relative interior holds it, and a cube inside a cell has that
    cell alone.  Ids follow first appearance, cells in order and local
    cubes in order within a cell; ``first_owners[p][g]`` is the
    (cell, local index) where cube g first appears: its span orients the cube,
    its reference boundary gives the cube's coboundary row, and
    :func:`~cubeforms.interp.de_rham` integrates there.  The cell geometry is
    read from ``mesh``, shared by every refinement of it.  Each degree's ids and
    signs are stored once, read-only and C-contiguous with the cells last, as
    :class:`~cubeforms.interp.PiecewiseForm` stores its blocks; these attributes
    hold their transposed views.
    """

    mesh: CubicalMesh
    order: int
    degrees: tuple[int, ...]
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
            self.cell_tables[degree].T.ravel(), minlength=self.count(degree)
        )

    @cached_property
    def maps(self) -> tuple[AffineMap, ...]:
        """One :class:`AffineMap` per cell, on the mesh's stacked rows."""
        return tuple(map(AffineMap, self.mesh.origins, self.mesh.linears))

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
        # every row holds the 2(p+1) faces of one cube
        indptr = np.arange(len(cells) + 1) * faces.shape[1]
        matrix = sparse.csr_matrix(
            (vals.ravel().astype(float), cols.ravel(), indptr),
            shape=(self.count(degree + 1), self.count(degree)),
        )
        matrix.sort_indices()
        self._coboundaries[degree] = matrix
        return matrix

    def to_csv(self, path, degree: int) -> None:
        """Debug dump: one line per global cube with owners and anchor."""
        runs = anchor_runs(self.dimension, degree, self.order)
        local = np.concatenate([anchors for _, _, anchors in runs]) / self.order
        owner_counts = self.owner_counts(degree)
        cells, li = self.first_owners[degree].T
        anchors = self.mesh.map_points(local[li, None, :], cells)[:, 0]
        with open(path, "w") as fh:
            fh.write("id,degree,n_owners,first_cell,anchor\n")
            for g, (cell, anchor) in enumerate(zip(cells.tolist(), anchors)):
                coords = " ".join(f"{x:.6g}" for x in anchor)
                fh.write(f"{g},{degree},{owner_counts[g]},{cell},{coords}\n")


def refine(mesh: CubicalMesh, order: int, degrees=None) -> RefinedMesh:
    """Subdivide every cell into its order-k small cubes and glue them.

    Local cubes are numbered per face dimension d, since a cube in the
    relative interior of a d-face of one cell can only be shared through
    that face: each group is matched on keys 2^d wide, the cubes inside
    a cell (d = n) get ids without a match, and the groups merge by first
    appearance (see :func:`_number_cubes`).  ``degrees`` restricts which
    p-levels are built (default all); the coboundary between p and p+1
    needs both present.  Before any work, raises ValueError unless ``order`` is
    an integer of at least 1 and every degree an integer in 0..n.
    """
    n = mesh.dimension
    if _require_integer("order", order) < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if degrees is None:
        wanted = tuple(range(n + 1))
    else:
        wanted = tuple(sorted({_require_integer("degree", p) for p in degrees}))
        if any(not 0 <= p <= n for p in wanted):
            raise ValueError(f"degrees {wanted} outside 0..{n}")
    edges = mesh.linears / order
    tables: dict[int, np.ndarray] = {}
    signs: dict[int, np.ndarray] = {}
    owners: dict[int, np.ndarray] = {}
    for p in wanted:
        direction, groups = _reference_pattern(n, p, order)
        n_local = len(direction)
        table, first = _number_cubes(mesh.cells, order, groups, n_local)
        first_cell, first_local = np.divmod(first, n_local)

        # wedges[c, t]: the row minors of cell c's edges along direction tuple t; every
        # (cell, tuple) pair gets a parity, and a cube takes its first owner's wedge times it
        wedges = np.swapaxes(compound_matrix(edges, p), 1, 2)
        n_tuples = comb(n, p)
        tuples = np.array(list(combinations(range(n), p)), dtype=np.intp).reshape(n_tuples, p)
        pair_edges = np.moveaxis(edges[:, :, tuples], 2, 1).reshape(mesh.n_cells * n_tuples, n, p)
        oriented = _orientation_parities(pair_edges).reshape(-1, n_tuples, 1) * wedges
        shared = oriented[first_cell, direction[first_local]]
        dot = np.empty(table.shape)
        for t, (_, sl, _) in enumerate(anchor_runs(n, p, order)):
            dot[sl] = np.einsum("ct,lct->lc", wedges[:, t], shared[table[sl]])
        tables[p] = _frozen(table).T
        signs[p] = _frozen(np.where(dot > 0, 1, -1).astype(np.int8)).T
        owners[p] = _frozen(np.stack([first_cell, first_local], axis=1))
    return RefinedMesh(
        mesh=mesh,
        order=order,
        degrees=wanted,
        cell_tables=tables,
        cell_signs=signs,
        first_owners=owners,
    )
