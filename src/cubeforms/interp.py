"""Cochains, the integration map and piecewise interpolation.

The two directions between smooth forms and cochains: ``de_rham``
integrates a form over every global small p-cube of a refined mesh
(point evaluation at degree zero), and ``interpolate`` reconstructs the
unique piecewise form of the discrete space whose small-cube integrals
reproduce a given cochain.  Composed one way they are the identity on
cochains; composed the other way they project smooth forms into the
discrete space, and both facts are checked by
:func:`verify_identities` together with commutation of interpolation
with the (co)boundary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .dof import axis_inverses
from .forms import wedge_insert
from .mesh import RefinedMesh, _frozen, _require_integer, compound_matrix
from .quadrature import gauss_unit_cube, gauss_unit_interval
from .smallcubes import anchor_runs, pattern_shape


@dataclass
class Cochain:
    """A real value per global small cube of one degree.

    Raises ValueError naming the first id whose value is not finite.
    """

    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float).reshape(-1)
        _require_finite(vals)
        vals.setflags(write=False)
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self, path) -> None:
        """Write ``id,value`` lines; values use repr for exact round trips."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "value"])
            for i, v in enumerate(self.values):
                writer.writerow([i, repr(float(v))])

    @classmethod
    def from_csv(cls, path, degree: int) -> "Cochain":
        """Read ``id,value`` lines in any id order.

        Only the first non-blank line may be a header; any other line that
        is not ``id,value`` raises ValueError naming the file and the line.
        """
        pairs: dict[int, float] = {}
        for i, value in read_csv_rows(path, _id_value, str(path), "'id,value'"):
            if i in pairs:
                raise ValueError(f"duplicate cochain id {i} in {path}")
            pairs[i] = value
        if sorted(pairs) != list(range(len(pairs))):
            raise ValueError(
                f"cochain ids in {path} must be exactly 0..{len(pairs) - 1}"
            )
        return cls(degree, np.array([pairs[i] for i in range(len(pairs))]))


def _id_value(row: list[str]) -> tuple[int, float]:
    i, value = row
    return int(i), float(value)


def read_csv_rows(path, parse, name: str, expected: str) -> list:
    """``parse`` of each non-blank line of a CSV file.  Only the first may be a header,
    skipped if ``parse`` raises ValueError on it and its first field is not a number; any
    other such line raises ValueError "<name> line <line>: expected <expected>, got <row>".
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        lines = [(reader.line_num, row) for row in reader if row and row[0].strip()]
    parsed = []
    for index, (line, row) in enumerate(lines):
        try:
            parsed.append(parse(row))
        except ValueError:
            if index or _is_number(row[0]):
                raise ValueError(f"{name} line {line}: expected {expected}, got {row}") from None
    return parsed


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _require_finite(values: np.ndarray) -> None:
    """Raise ValueError naming the first cochain id, along the last axis of
    ``values`` (one cochain per row), whose value is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"cochain id {first[-1]} has a non-finite value ({values[first]})")


def _require_finite_points(points: np.ndarray) -> None:
    """Raise ValueError naming the first row of ``points`` (s, n) that is not finite."""
    if not np.isfinite(points).all():
        first = np.argmin(np.isfinite(points).all(axis=1))
        raise ValueError(f"point {points[first].tolist()} has a non-finite coordinate")


#: Quadrature points that ``de_rham`` handles per batch of owned cubes
#: when integrating a form at physical points (analytic forms, or a
#: piecewise form on another mesh; it maps and evaluates each batch's
#: points, one call each): enough to make the per-batch overhead
#: negligible, few enough that the form's temporaries stay a few
#: megabytes however large the mesh, and no bit depends on it.  An
#: interpolant on its own mesh is integrated by per-axis tables and never
#: evaluated point by point, so this bound does not apply to it.
DE_RHAM_BATCH_POINTS = 1 << 16


def de_rham(form, refined: RefinedMesh, quad_order: int | None = None) -> Cochain:
    """Integrate a form over every global small cube of its degree.

    ``form`` needs a ``degree`` attribute and an ``evaluate`` method
    returning per-direction components; analytic, polynomial and
    piecewise forms all qualify.  Integrals use a tensor Gauss rule with
    ``quad_order`` points per axis (default 2k + 2); degree zero reduces
    to point evaluation.  Each global cube is integrated once, at its
    first owner (``RefinedMesh.first_owners``), and signed there by its
    stored orientation.  The quadrature points sit at the same reference
    coordinates in every cell.  One direction tuple at a time, the owned
    cubes (see :func:`_owned_cubes`) are taken in batches of at most
    :data:`DE_RHAM_BATCH_POINTS` points (to bound the temporaries): each
    batch's points are mapped into their cells by one
    :meth:`CubicalMesh.map_points` call and the form is evaluated there in
    one call, with no loop over cells; each cube's integrands times the
    weights are summed along one row and scattered to the global cubes in
    one assignment.  The map and the sums are elementwise, in a fixed
    order, so each cube's value has the same bits whatever the batch, the
    BLAS or its thread count.
    Raises ValueError if the form declares another ``dimension`` than the
    mesh's or ``quad_order`` is not an integer >= 1 (at every degree, though
    point evaluation uses no rule), and KeyError if its degree was not refined.

    A :class:`PiecewiseForm` on the same mesh is integrated on the
    reference cube instead: over the image of a reference small cube its
    integral is its reference form's over that small cube, so the cell
    geometry cancels, and only the component dx_I of the cube's own
    directions I contributes, scaled by k^-p.  That component and the
    Gauss rule are tensor products, so the integrals are sum-factorised
    by :func:`_own_mesh_integrals`, with no quadrature point formed and
    no batching.
    """
    n = refined.dimension
    if getattr(form, "dimension", n) != n:
        raise ValueError(f"form lives in dimension {form.dimension}, mesh in dimension {n}")
    p = form.degree
    k = refined.order
    q = _rule_order(quad_order, k)
    values = np.empty(refined.count(p))  # first, as it names a degree that was not refined
    if isinstance(form, PiecewiseForm) and form.refined.mesh is refined.mesh:
        integrals = _own_mesh_integrals(form._store[:, None], form.refined.order, refined, p, q)
        return Cochain(p, integrals[0])
    tpts, twts = gauss_unit_cube(p, q)
    nq = len(twts)
    size = max(1, DE_RHAM_BATCH_POINTS // nq)
    combos = list(combinations(range(n), p))
    # spans[c, r, t]: minor of cell c's scaled edges on rows combos[r], columns combos[t]
    spans = compound_matrix(refined.mesh.linears / k, p)
    for t, (dirs, sl, anchors) in enumerate(anchor_runs(n, p, k)):
        # x[j, i, a]: coordinate j of Gauss point i of the local cube at anchor a
        x = np.zeros((n, nq, len(anchors)))
        x += anchors.T[:, None, :]
        for j, axis in enumerate(dirs):
            x[axis] += tpts[:, j, None]
        x /= k
        ids, signs, cells, anchor = _owned_cubes(refined, p, sl)
        for lo in range(0, len(ids), size):
            batch = slice(lo, lo + size)
            # points (cubes, nq, n) viewed on (n, nq, cubes): the map and the form run along cubes
            points = refined.mesh.map_points(x.take(anchor[batch], axis=2).T, cells[batch])
            comps = form.evaluate(points)
            minors = spans[cells[batch], :, t]
            integrand = np.zeros((nq, len(minors))).T
            for dirs_i, minor, used in zip(combos, minors.T, minors.any(axis=0)):
                if used and dirs_i in comps:
                    integrand += minor[:, None] * np.asarray(comps[dirs_i], dtype=float)
            cube_vals = np.multiply(integrand, twts, order="C").sum(axis=1)
            values[ids[batch]] = signs[batch] * cube_vals
    return Cochain(p, values)


def _owned_cubes(refined: RefinedMesh, p: int, sl: slice):
    """Global ids, signs, cells and anchors (from ``sl.start``) of the cubes whose first
    owner's local index falls in the run ``sl``, in id order, read from ``first_owners``."""
    cells, local = refined.first_owners[p].T
    ids = np.flatnonzero((local >= sl.start) & (local < sl.stop))
    cells, local = cells[ids], local[ids]
    return ids, refined.cell_signs[p][cells, local], cells, local - sl.start


def _rule_order(quad_order: int | None, k: int) -> int:
    """Gauss points per axis: ``quad_order``, an integer of at least one, or 2k + 2."""
    if quad_order is None:
        return 2 * k + 2
    if _require_integer("quad_order", quad_order) < 1:
        raise ValueError(f"need at least one quadrature point, got {quad_order}")
    return quad_order


def _own_mesh_integrals(stack, order: int, refined: RefinedMesh, p: int, q: int) -> np.ndarray:
    """Integrals of stacked interpolants on their own mesh, one cochain per row.

    ``stack`` (local cubes, trials, n_cells) holds the coefficient stores of
    p-forms of basis order ``order``, as :class:`PiecewiseForm` stores one
    form's, one per trial; the result, shape (trials, count), is the value of
    :func:`de_rham` on ``refined`` with a ``q``-point rule, form by form.  Per
    axis j, each factor is integrated by the 1-D rule over the k segments
    [b/k, (b+1)/k] (j in I) or evaluated at the k + 1 nodes b/k (j not in I),
    and one einsum per anchor axis, axis 0 first, sums that axis against its
    table into the small cubes' axis in its place, the rows kept last: no
    block is copied and no BLAS call is made, so each value is summed in one
    fixed order whatever the kernel or the number of rows.  Each global cube
    then takes, in one gather, its first owner's integral and sign.
    """
    n, k = refined.dimension, refined.order
    _, trials, n_cells = stack.shape
    rows = stack.reshape(len(stack), trials * n_cells)
    integrals = np.empty((refined.cell_tables[p].shape[1], trials, n_cells))
    # point values (p = 0) span no axis, so they need no rule
    edges, nodes = _own_mesh_tables(order, k, q if p else 1)
    axes = list(range(n + 1))  # the anchor axes, then the rows
    outs = [axes[:j] + [n + 1] + axes[j + 1 :] for j in range(n)]  # axis j becomes the cubes'
    for (dirs, sl, _), (_, block_sl, shape) in zip(_runs(n, p, k), _runs(n, p, order)):
        block = rows[block_sl].reshape(*shape, trials * n_cells)
        for j in range(n):
            block = np.einsum(block, axes, edges if j in dirs else nodes, [j, n + 1], outs[j])
        integrals[sl] = block.reshape(sl.stop - sl.start, trials, n_cells)
    cells, local = refined.first_owners[p].T
    return refined.cell_signs[p][cells, local] * (k**-p * integrals[local, :, cells]).T


@lru_cache(maxsize=None)
def _own_mesh_tables(order: int, k: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D tables that integrate a basis order on the small cubes of order k.

    ``edges[a, b]`` (shape (order, k)) is the q-point Gauss rule's
    integral of spanned factor a over the unit parameter of segment
    [b/k, (b+1)/k], and ``nodes[a, b]`` (shape (order + 1, k + 1)) is
    fixed factor a at node b/k, for the factors of :func:`_factor_tables`.
    Both are read-only.
    """
    pts, wts = gauss_unit_interval(q)
    x = (np.arange(k)[:, None] + pts) / k
    edges = (_factor_tables(x.reshape(-1, 1), order)[0].reshape(order, k, q) * wts).sum(axis=-1)
    nodes = _factor_tables(np.arange(k + 1)[:, None] / k, order)[1][:, 0]
    return _frozen(edges), _frozen(nodes)


def interpolate(cochain: Cochain, refined: RefinedMesh) -> "PiecewiseForm":
    """The discrete-space form whose small-cube integrals match the cochain.

    A cell's coefficients are its local cochain values (see :class:`PiecewiseForm`),
    so this is one signed gather, whose rows the form keeps as its store, uncopied: no
    solve, and no check, since the small cubes are unisolvent for every (n, p, k).
    ValueError if the cochain has the wrong length.
    """
    p = cochain.degree
    _require_count(cochain, refined)
    return PiecewiseForm._of_store(refined, p, _gather_rows(cochain.values[None], refined, p))


def _require_count(cochain: Cochain, refined: RefinedMesh) -> None:
    """ValueError unless the cochain has one value per small cube of its degree."""
    p = cochain.degree
    if len(cochain) != refined.count(p):
        raise ValueError(
            f"cochain has {len(cochain)} values, mesh has {refined.count(p)} "
            f"small cubes of degree {p}"
        )


def _gather_rows(values: np.ndarray, refined: RefinedMesh, p: int, rows=None) -> np.ndarray:
    """The coefficient store of the interpolants of stacked cochains, at chosen rows.

    ``values`` holds one p-cochain per row, shape (trials, count).  Column
    ``t * n_cells + c`` of the result, shape (local cubes, rows) as
    :class:`PiecewiseForm` stores one form's, is cell c of cochain t's
    interpolant; ``rows`` picks some of them, in order, and by default every
    row is kept.  Either way one ``take`` through the refinement's cells-last
    tables gathers them, faster than indexing by (trial, cell) pairs.  Each
    picked cell's values are pulled to local orientation, and they are its
    coefficients.  The result is a new contiguous array.
    """
    # the refinement's stores, (local cubes, cells)
    table, signs = refined.cell_tables[p].T, refined.cell_signs[p].T
    if rows is None:
        # signed in place, then viewed (local cubes, trials, cells): at one trial no copy follows
        local = values.take(table, axis=1)
        local *= signs
        local = local.transpose(1, 0, 2)
    else:
        trial, cell = np.divmod(rows, refined.mesh.n_cells)
        local = values.take(table[:, cell] + trial * values.shape[1]) * signs[:, cell]
    # one row per local cube, the rows contiguous
    return np.ascontiguousarray(local).reshape(len(local), -1)


def _factor_tables(x: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D basis factors at reference points x of shape (s, n).

    Returns arrays of shape (k, n, s) and (k + 1, n, s) holding the histopolants
    of the segments [r/k, (r+1)/k] (spanned axes) and the Lagrange polynomials of
    the nodes r/k (fixed axes), from the product factors x^a (1-x)^(k-1-a) and
    x^a (1-x)^(k-a) by the inverses of F_k and P_k.
    """
    # powers[a] holds x^a and (1-x)^a, one multiply raising both
    powers = np.empty((order + 1, 2, *x.T.shape))
    powers[0] = 1
    if order:
        powers[1, 0] = x.T
        np.subtract(1, x.T, out=powers[1, 1])
    for a in range(2, order + 1):
        np.multiply(powers[a - 1], powers[1], out=powers[a])
    rise, fall = powers[:, 0], powers[:, 1]
    spanned = rise[:order] * fall[order - 1 :: -1]
    rise *= fall[::-1]  # in place: evaluate builds these tables for whole point batches
    inv_spanned, inv_fixed = axis_inverses(order)
    # interleaved, as einsum sums a table contiguous on axis 0 (a lone 1-D point's) in SIMD lanes
    tables = np.empty((order + 1, 2, *x.T.shape))
    np.einsum("ar,a...->r...", inv_spanned, spanned, out=tables[:order, 0])
    np.einsum("ar,a...->r...", inv_fixed, rise, out=tables[:, 1])
    return tables[:order, 0], tables[:, 1]


@dataclass
class PiecewiseForm:
    """A form of the discrete space, stored as per-cell local cochain values.

    ``coefficients[I]`` is a read-only array of shape (n_cells, *sizes)
    with size k on the axes in I and k + 1 on the others.  Entry
    [c, a_0, ..., a_{n-1}] multiplies, on cell c's reference cube, dx_I times
    the histopolants of the segments [a_j/k, (a_j+1)/k] (j in I) and the
    Lagrange polynomials of the nodes a_j/k (j not in I): the basis dual to
    the small cubes, so the entry is the form's integral over the small cube
    anchored at a, in the canonical small-cube order (axis 0 slowest).

    All values are held in one read-only store of shape (local cubes,
    n_cells): row i holds local small cube i, in the canonical order, for
    every cell, contiguous, so that evaluation gathers a point batch's
    values with one ``take``.  ``coefficients`` holds views of it.  The
    constructor takes blocks of the documented shape and concatenates them
    into the store once.

    Evaluation locates points (lowest cell index wins on shared faces,
    or pass ``cell=`` to pin one) and pushes the cell's reference form
    through the cell map, so components refer to ambient coordinate
    differentials.
    """

    refined: RefinedMesh
    degree: int
    coefficients: dict[tuple[int, ...], np.ndarray]
    _store: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_cells = self.refined.mesh.n_cells
        runs = _runs(self.dimension, self.degree, self.refined.order)
        blocks = [
            np.asarray(self.coefficients[d]).reshape(n_cells, sl.stop - sl.start).T
            for d, sl, _ in runs
        ]
        # above the top degree there are no rows
        self._set_store(np.concatenate(blocks or [np.empty((0, n_cells))]))

    @classmethod
    def _of_store(cls, refined: RefinedMesh, degree: int, store: np.ndarray) -> "PiecewiseForm":
        """The form whose store is ``store``, a new array that it keeps uncopied."""
        form = cls.__new__(cls)
        form.refined, form.degree = refined, degree
        form._set_store(store)
        return form

    def _set_store(self, store: np.ndarray) -> None:
        self._store = _frozen(store)
        blocks = _blocks(store, self.dimension, self.degree, self.refined.order)
        self.coefficients = _cells_first(blocks)

    @property
    def dimension(self) -> int:
        return self.refined.dimension

    def evaluate(self, points, cell: int | None = None) -> dict[tuple[int, ...], np.ndarray | float]:
        """Components at one point (n,) or a batch (..., n) of physical points.

        Unpinned, the whole batch is located at once by :meth:`CubicalMesh.locate`
        (the lowest cell index wins on shared faces), and the mesh remembers the batch with
        the minors and factor tables computed here, one entry per (order, degree), so that
        evaluating it again only gathers and contracts; ``cell=`` gives every point that
        cell, pulled back by :meth:`CubicalMesh.pull_back` as in location.  Then the per-point
        kernel of :meth:`evaluate_reference` runs, so a point has the same bits alone or in
        a batch.  Raises ValueError if the points do not have n coordinates, if ``cell`` is
        not an integer in 0..n_cells-1, if a point is not finite or lies in no cell, or if
        a pinned point pulls back to a point that is not finite.  The kernel then runs
        without :meth:`evaluate_reference`'s checks, since its cells and reference points
        have passed these.
        """
        n, n_cells = self.dimension, self.refined.mesh.n_cells
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != (n,):
            got = pts.shape[-1] if pts.ndim else 0
            raise ValueError(f"points have {got} coordinates, form lives in dimension {n}")
        integer = isinstance(cell, (int, np.integer)) and not isinstance(cell, bool)
        if cell is not None and not (integer and 0 <= cell < n_cells):
            raise ValueError(f"cell must be an integer in 0..{n_cells - 1}, got {cell!r}")
        flat = pts.reshape(-1, n)
        mesh = self.refined.mesh
        if cell is None:
            label = (self.refined.order, self.degree)
            cells, x, *tables = mesh._locate_with(flat, label, self._batch_tables)
        else:
            cells = np.full(len(flat), cell)
            x = mesh.pull_back(flat, cells)
            # one check, on what the kernel reads: a point that is not finite pulls back
            # to one that is not, and so does a finite point far enough outside the cell
            finite = np.isfinite(x).all(axis=1)
            if not finite.all():
                point = flat[np.argmin(finite)]
                if np.isfinite(point).all():
                    where = f"pulls back to a non-finite point of cell {cell}"
                    raise ValueError(f"point {point.tolist()} {where}")
                raise ValueError(f"point {point.tolist()} has a non-finite coordinate")
            tables = self._batch_tables(cells, x)
        values = self._values(cells, tables)
        if pts.ndim == 1:
            return {dirs: float(v[0]) for dirs, v in values.items()}
        return {dirs: v.reshape(pts.shape[:-1]) for dirs, v in values.items()}

    def evaluate_reference(self, cells, points) -> dict[tuple[int, ...], np.ndarray]:
        """Components at reference points (s, n) of one cell or of one cell per point.

        One integer ``cells`` stands for that cell at every point.  Each point gathers
        its cell's coefficients, sums them out one axis at a time, in a fixed order,
        and its cell's minors (:meth:`CubicalMesh.pushforward`) give ambient components,
        one (s,) array per direction tuple.  Raises ValueError if the points are not
        (s, n), a point has a non-finite coordinate or a cell is outside 0..n_cells-1.
        """
        n, n_cells = self.dimension, self.refined.mesh.n_cells
        x = np.asarray(points, dtype=float)
        if x.ndim != 2 or x.shape[1] != n:
            raise ValueError(f"reference points must have shape (*, {n}), got {x.shape}")
        _require_finite_points(x)
        index = np.asarray(cells, dtype=None if np.size(cells) else np.intp)  # [] reads as floats
        inside = np.all((index >= 0) & (index < n_cells)) if index.dtype.kind in "iu" else False
        if not (inside and index.shape in {(), x.shape[:1]}):
            raise ValueError(f"cells must be one integer or one per point in 0..{n_cells - 1}")
        cells = np.broadcast_to(index, x.shape[:1])
        return self._values(cells, self._batch_tables(cells, x))

    def _batch_tables(self, cells: np.ndarray, x: np.ndarray) -> tuple:
        """What the kernel reads of valid cells (s,) and finite reference points (s, n)
        besides the store: the cells' pushforward minors and the points' factor tables."""
        push = self.refined.mesh.pushforward(self.degree).take(cells, axis=0)
        return (push, *_factor_tables(x, self.refined.order))

    def _values(self, cells: np.ndarray, tables: tuple) -> dict[tuple[int, ...], np.ndarray]:
        """The kernel of :meth:`evaluate_reference`, on cells (s,) and their batch's tables."""
        out = _reference_values(self._store, self.degree, cells, *tables)
        return dict(zip(combinations(range(self.dimension), self.degree), out))

    def exterior_derivative(self) -> "PiecewiseForm":
        """Differentiate cell by cell (commutes with the cell maps).

        Along each axis j outside I, segment s gets c_(s+1) - c_s, the jump of
        the nodal values across it: d is the reference coboundary, times the
        sign of dx_j ^ dx_I.
        """
        store = _differentiate(self._store, self.dimension, self.degree, self.refined.order)
        return PiecewiseForm._of_store(self.refined, self.degree + 1, store)


@lru_cache(maxsize=None)
def _runs(n: int, p: int, k: int) -> tuple:
    """Each direction tuple, its slice of the canonical small-cube order and its block's
    anchor shape (:func:`anchor_runs`, :func:`pattern_shape`); none above the top degree,
    where every form is zero."""
    if p > n:
        return ()
    return tuple((d, sl, pattern_shape(n, d, k)) for d, sl, _ in anchor_runs(n, p, k))


def _blocks(store: np.ndarray, n: int, p: int, k: int) -> dict:
    """Views of a coefficient store's rows as cells-last blocks, one per direction tuple."""
    return {d: store[sl].reshape(*shape, store.shape[1]) for d, sl, shape in _runs(n, p, k)}


def _cells_first(blocks: dict) -> dict:
    """Views of cells-last blocks with the cell axis moved first (a transpose:
    ``np.moveaxis`` costs several times more per call on these small blocks)."""
    return {d: block.transpose(-1, *range(block.ndim - 1)) for d, block in blocks.items()}


def _differentiate(store: np.ndarray, n: int, p: int, k: int) -> np.ndarray:
    """The coefficient store of d of a p-form's store (see
    :meth:`PiecewiseForm.exterior_derivative`), a new array; its columns need not be cells.
    Each direction tuple's rows start at zero and take its terms in place, in axis order."""
    runs = _runs(n, p + 1, k)
    out = np.zeros((runs[-1][1].stop if runs else 0, store.shape[1]))
    terms = _blocks(out, n, p + 1, k)
    for dirs, block in _blocks(store, n, p, k).items():
        for axis in sorted(set(range(n)) - set(dirs)):
            sign, new_dirs = wedge_insert(axis, dirs)
            terms[new_dirs] += sign * np.diff(block, axis=axis)
    return out


def _reference_values(store, degree, cells, push, spanned, fixed) -> np.ndarray:
    """Physical components of a piecewise form at reference points of cells.

    ``store`` (local cubes, rows) holds the coefficients of a ``degree``-form as
    :class:`PiecewiseForm` stores them, ``cells`` (s,) the row of each point, and
    ``spanned`` and ``fixed`` the points' factor tables from :func:`_factor_tables`.
    One ``take`` gathers every point's values, contiguous along the points; each
    direction tuple's rows then sum out the anchor axes, the last first; the
    result, one row per direction tuple in ``combinations`` order, is pushed forward
    with ``push`` (s, C, C), each point's minors of the inverse Jacobian
    (:meth:`CubicalMesh.pushforward`).  Every sum is an einsum (no BLAS call) over one
    point's values in a fixed order, so a point rounds the same in any batch.
    """
    n, k = spanned.shape[1], len(fixed) - 1
    runs = _runs(n, degree, k)
    values = store.take(cells, axis=1)
    ref = np.empty((len(runs), len(cells)))
    for r, (dirs, sl, shape) in enumerate(runs):
        val = values[sl].reshape(*shape, len(cells))
        for j in reversed(range(n)):  # sum out the last anchor axis
            val = np.einsum("...as,as->...s", val, (spanned if j in dirs else fixed)[:, j])
        ref[r] = val
    return np.einsum("sij,is->js", push, ref)


def coboundary(cochain: Cochain, refined: RefinedMesh) -> Cochain:
    """Apply the discrete exterior derivative to a cochain.

    Before any work, raises ValueError if the cochain has the top degree or
    above, which has no coboundary, or if its length is not the count of
    small cubes of its degree.
    """
    p, n = cochain.degree, refined.dimension
    if p >= n:
        raise ValueError(
            f"a {p}-cochain has no coboundary on a {n}D mesh: the top degree is {n}"
        )
    _require_count(cochain, refined)
    return Cochain(p + 1, refined.coboundary_matrix(p) @ cochain.values)


@dataclass(frozen=True)
class IdentityReport:
    """Max errors of the three operator identities at one degree."""

    degree: int
    round_trip_error: float
    reconstruction_error: float
    commutation_error: float | None
    tolerance: float

    @property
    def passed(self) -> bool:
        errs = [self.round_trip_error, self.reconstruction_error]
        if self.commutation_error is not None:
            errs.append(self.commutation_error)
        return all(e <= self.tolerance for e in errs)


#: Local values (cells times local small cubes) that :func:`verify_identities`
#: interpolates and integrates per batch of whole trials (at least one):
#: every trial of a small mesh shares one gather and one integration,
#: while on a large mesh a batch holds one trial, so the check holds one
#: batch's interpolants at a time however many trials run.
IDENTITY_BATCH_VALUES = 1 << 16

#: The absolute bound on every error that :func:`verify_identities` reports.  The
#: worst error over all degrees reads 8.7e-14 to 1.2e-11 in 3D at k = 3..6 (README),
#: and 4.0e-11, 3.0e-10 and 2.4e-10 at 3D k = 7, 4D k = 6 and 2D k = 9, where the
#: product-basis gate used to refuse.  The reconstruction error grows with the
#: dual basis's amplification, so an absolute bound caps k rather than detecting a
#: fault there; a bound relative to that amplification is ROADMAP item 4.
IDENTITY_TOL = 1e-9


def verify_identities(
    refined: RefinedMesh,
    degree: int,
    *,
    trials: int = 3,
    samples: int = 200,
    rng=None,
) -> IdentityReport:
    """Check the operator identities on random cochains.

    Each of ``trials`` draws a standard normal cochain x, then ``samples``
    random cells and reference points in them.  Round trip: integrating
    x's interpolant w returns x on every small cube.  Reconstruction:
    interpolating those integrals y returns w.  Commutation (skipped at
    top degree): interpolating the coboundary dx equals differentiating w.
    The round trip covers every cell, in batches of whole trials holding
    at most :data:`IDENTITY_BATCH_VALUES` local values, each batch one
    gather and one integration on the reference cube; the rows of w at
    sampled (trial, cell) pairs are gathered again afterwards.  The two
    form identities are compared at the sampled points alone, so y and dx
    are interpolated, and w differentiated, on those rows only, and each
    gap is evaluated once over every trial's points, on the coefficient
    difference a - b.  Every error is bounded by :data:`IDENTITY_TOL`.
    The round trip integrates with :func:`de_rham`'s default rule: the
    interpolants' spanned factors have degree k - 1, so every rule of at
    least k/2 points gives the same integrals, and a coarser one could only
    report a failure that is not there.
    Before any work, raises ValueError if ``degree``, ``trials`` or
    ``samples`` is not an integer, or if ``trials`` or ``samples`` is below 1
    (no identity to check), or if the mesh is empty (no cell to sample), and
    KeyError if degree p, or p + 1 below the top degree, was not refined.
    """
    for name, value in (("degree", degree), ("trials", trials), ("samples", samples)):
        _require_integer(name, value)
    for name, value in (("trials", trials), ("samples", samples)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    n, k, n_cells = refined.dimension, refined.order, refined.mesh.n_cells
    if not n_cells:
        raise ValueError("verify_identities samples cells, and the mesh is empty")
    p = degree
    q = _rule_order(None, k)
    count = refined.count(p)
    matrix = refined.coboundary_matrix(p) if p < n else None

    rng = np.random.default_rng(rng)
    draws = [
        (
            rng.standard_normal(count),
            rng.integers(0, n_cells, size=samples),
            rng.random((samples, n)),
        )
        for _ in range(trials)
    ]
    x, cells, points = (np.stack(d) for d in zip(*draws))
    _require_finite(x)
    # the sampled (trial, cell) rows, ascending, and each point's row among them
    rows, at = np.unique(np.arange(trials)[:, None] * n_cells + cells, return_inverse=True)
    at = at.reshape(-1)

    per_batch = max(1, IDENTITY_BATCH_VALUES // refined.cell_tables[p].size)
    y = np.empty_like(x)
    for t0 in range(0, trials, per_batch):
        batch = _gather_rows(x[t0 : t0 + per_batch], refined, p)
        stack = batch.reshape(len(batch), -1, n_cells)
        y[t0 : t0 + per_batch] = _own_mesh_integrals(stack, k, refined, p, q)
    _require_finite(y)
    w = _gather_rows(x, refined, p, rows)

    tables = _factor_tables(points.reshape(-1, n), k)

    def gap(a, b, form_degree: int) -> float:
        push = refined.mesh.pushforward(form_degree).take(cells.reshape(-1), axis=0)
        return float(np.abs(_reference_values(a - b, form_degree, at, push, *tables)).max())

    e_recon = gap(w, _gather_rows(y, refined, p, rows), p)
    e_comm = None
    if matrix is not None:
        dx = (matrix @ x.T).T
        _require_finite(dx)
        e_comm = gap(_gather_rows(dx, refined, p + 1, rows), _differentiate(w, n, p, k), p + 1)
    return IdentityReport(
        degree=p,
        round_trip_error=float(np.abs(y - x).max()),
        reconstruction_error=e_recon,
        commutation_error=e_comm,
        tolerance=IDENTITY_TOL,
    )
