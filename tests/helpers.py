"""Shared test utilities."""

from itertools import combinations

import numpy as np
from scipy import sparse

from cubeforms.catalog import get_form
from cubeforms.cli import _sample_grid
from cubeforms.dof import reference_solver
from cubeforms.forms import wedge_insert
from cubeforms.interp import (
    Cochain,
    IdentityReport,
    PiecewiseForm,
    _factor_tables,
    _reference_values,
    coboundary,
    de_rham,
    interpolate,
)
from cubeforms.mesh import (
    EDGE_SNAP_TOL,
    LOCATE_TOL,
    CubicalMesh,
    MeshValidationError,
    _bucket_coords,
    compound_matrix,
    refine,
    structured_mesh,
)
from cubeforms.quadrature import gauss_unit_cube
from cubeforms.smallcubes import anchor_runs, pattern_shape


def dense_dof_matrix(dm):
    """The whole reference DOF matrix: the block-diagonal join of ``dm.block``."""
    dense = np.zeros((dm.size, dm.size))
    for dirs, sl in dm.blocks.items():
        dense[sl, sl] = dm.block(dirs)
    return dense


def skewed(mesh, seed):
    """The mesh's image under a random linear map near the identity: a general
    affine mesh, where even corner coordinates 0 and 1 give inexact sums."""
    n = mesh.dimension
    linear = np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))
    return CubicalMesh(n, mesh.vertices @ linear.T, mesh.cells)


def scramble_corners(mesh, rng):
    """The same mesh with each cell's corners relabelled by a random
    symmetry of the cube: an axis permutation followed by axis flips.

    New local axis j is old axis ``perm[j]``, reversed where ``flips[j]``
    is set, so every cell stays a parallelotope in binary-corner order
    while its reference orientation differs from its neighbours'.
    """
    n = mesh.dimension
    cells = []
    for cell in mesh.cells:
        perm = rng.permutation(n)
        flips = rng.integers(0, 2, size=n)
        relabelled = []
        for corner in range(1 << n):
            old = 0
            for j in range(n):
                bit = ((corner >> j) & 1) ^ int(flips[j])
                old |= bit << int(perm[j])
            relabelled.append(cell[old])
        cells.append(tuple(relabelled))
    return CubicalMesh(n, mesh.vertices, tuple(cells))


def check_conformity_by_product(cells, n_vertices):
    """``CubicalMesh._check_conformity`` as it was before the incidence sort.

    The oracle for conformity: the sharing pairs come from the sparse
    product of the cell-vertex incidence with its transpose, and each
    pair's shared corners from a (pairs, 2^n, 2^n) equality cube.  Raises
    :class:`MeshValidationError` with the constructor's message.
    """
    cells = np.asarray(cells, dtype=np.int64)
    n_cells, size = cells.shape
    incidence = sparse.csr_matrix(
        (np.ones(cells.size), (np.repeat(np.arange(n_cells), size), cells.ravel())),
        shape=(n_cells, n_vertices),
    )
    pairs = sparse.triu(incidence @ incidence.T, k=1).tocoo()
    order = np.lexsort((pairs.col, pairs.row))
    a, b = pairs.row[order], pairs.col[order]
    same = cells[a][:, :, None] == cells[b][:, None, :]
    whole = np.stack([_whole_faces(same.any(axis=2)), _whole_faces(same.any(axis=1))], axis=1)
    failing = np.flatnonzero(~whole.all(axis=1))
    if not failing.size:
        return
    i = int(failing[0])
    pair = (int(a[i]), int(b[i]))
    shared = np.intersect1d(cells[pair[0]], cells[pair[1]])
    raise MeshValidationError(
        f"cells {pair[0]} and {pair[1]} share vertex ids {shared.tolist()} "
        f"which do not form a whole face of cell {pair[int(np.argmin(whole[i]))]}; "
        "cells must meet along complete shared faces"
    )


def _whole_faces(members):
    """For rows of flags over the 2^n corner numbers: is each row one face?"""
    corner = np.arange(members.shape[1])
    common = np.bitwise_and.reduce(np.where(members, corner, corner[-1]), axis=1)
    varying = np.bitwise_or.reduce(np.where(members, corner, 0), axis=1) & ~common
    free_axes = sum((varying >> j) & 1 for j in range(members.shape[1].bit_length() - 1))
    return members.sum(axis=1) == np.left_shift(1, free_axes)


def graded_mesh(breaks, shear=0.0):
    """Tensor grid on the given per-axis breakpoints: cells of unequal size.

    A nonzero ``shear`` adds shear * x_1 to the first coordinate, as in
    ``structured_mesh``.
    """
    n = len(breaks)
    shape = tuple(len(b) for b in breaks)
    verts = np.stack(np.meshgrid(*breaks, indexing="ij"), axis=-1).reshape(-1, n)
    if shear:
        verts[:, 0] += shear * verts[:, 1]
    base = np.indices(tuple(s - 1 for s in shape)).reshape(n, -1).T
    corners = base[:, None, :] + ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    cells = np.ravel_multi_index(tuple(np.moveaxis(corners, -1, 0)), shape)
    return CubicalMesh(n, verts, tuple(map(tuple, cells.tolist())))


def locate_by_scan(refined, points):
    """Lowest-index cell holding each point, by scanning every cell (-1: none).

    The oracle for point location: each cell in turn tests the points
    not yet placed, first against its bounding box widened by the slack,
    then by pulling them back through its map.
    """
    mesh = refined.mesh
    assign = np.full(len(points), -1, dtype=int)
    scale = max(1.0, float(np.abs(mesh.vertices).max(initial=0.0)))
    tol = LOCATE_TOL * scale
    for c in range(mesh.n_cells):
        open_idx = np.nonzero(assign < 0)[0]
        if not len(open_idx):
            break
        corners = mesh.vertices[list(mesh.cells[c])]
        lo = corners.min(axis=0) - tol
        hi = corners.max(axis=0) + tol
        boxed = np.all((points[open_idx] >= lo) & (points[open_idx] <= hi), axis=1)
        cand = open_idx[boxed]
        x = refined.maps[c].pull_to_reference(points[cand])
        inside = np.all((x >= -tol) & (x <= 1 + tol), axis=1)
        assign[cand[inside]] = c
    return assign


def locate_by_pairs(mesh, points):
    """``CubicalMesh.locate`` as it was before its pair pass was rewritten.

    The oracle for the bits of point location: fancy-index gathers,
    ``np.all`` over the axes, and ``np.unique`` for each point's first
    counting pair, scattered into full-length arrays.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != mesh.dimension:
        raise ValueError(f"points must have shape (*, {mesh.dimension}), got {points.shape}")
    assign = np.full(len(points), -1)
    reference = np.empty_like(points)
    if mesh.n_cells:
        grid = mesh.cell_grid
        coords = _bucket_coords(points, grid.start, grid.width, grid.shape)
        keys = np.ravel_multi_index(tuple(coords.T), grid.shape)
        slot = np.minimum(np.searchsorted(grid.keys, keys), len(grid.keys) - 1)
        begin = grid.indptr[slot]
        count = np.where(grid.keys[slot] == keys, grid.indptr[slot + 1] - begin, 0)
        point = np.repeat(np.arange(len(points)), count)
        offset = np.arange(len(point)) - np.repeat(np.cumsum(count) - count, count)
        cell = grid.cells[np.repeat(begin, count) + offset]
        pts = points[point]
        boxed = np.all((pts >= grid.lower[cell]) & (pts <= grid.upper[cell]), axis=1)
        point, cell = point[boxed], cell[boxed]
        x = np.einsum("sj,sij->si", pts[boxed] - mesh.origins[cell], mesh.inverse_linears[cell])
        inside = np.all((x >= -grid.slack) & (x <= 1 + grid.slack), axis=1)
        hit, first = np.unique(point[inside], return_index=True)
        assign[hit] = cell[inside][first]
        reference[hit] = x[inside][first]
    if np.any(assign < 0):
        first = points[int(np.argmax(assign < 0))]
        raise ValueError(f"point {first.tolist()} lies in no mesh cell")
    return assign, reference


def canonical_orientation(edges, wedge):
    """Owner-independent unit orientation of one small cube's span.

    The oracle for the batched orientation in ``refine``, one (cell,
    direction tuple) pair at a time: ``edges`` (n, p) holds the edge
    vectors as columns and ``wedge`` their p-by-p row minors.  Edges are
    snapped, sign-normalised and sorted as tuples; the orientation is
    ``wedge`` times the parity of the flips and the sort, at unit length.
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


def refine_by_full_keys(mesh, order):
    """Cell tables, cell signs and first owners of every degree, from 2^n-wide keys.

    The oracle for the per-face numbering in ``refine``: every local cube
    of every cell is keyed by its centre's multilinear weights on all 2^n
    cell corners, each nonzero (vertex id, weight) pair packed into one
    integer and zero weights written as -1, sorted; ``np.unique`` groups
    equal keys and ids follow first appearance.  Each (cell, direction
    tuple) pair is oriented by :func:`canonical_orientation`, and an owner's
    sign is that of its span against the orientation at the cube's first owner.
    """
    n, k = mesh.dimension, order
    corners = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    edges = mesh.linears / k
    tables, signs, owners = {}, {}, {}
    for p in range(n + 1):
        runs = anchor_runs(n, p, k)
        direction = np.repeat(np.arange(len(runs)), [len(anchors) for _, _, anchors in runs])
        centre = np.concatenate([2 * anchors + np.isin(np.arange(n), dirs) for dirs, _, anchors in runs])
        weights = np.where(corners == 1, centre[:, None, :], 2 * k - centre[:, None, :]).prod(axis=2)
        packed = mesh.cells[:, None, :] * ((2 * k) ** n + 1) + weights
        keys = np.sort(np.where(weights > 0, packed, -1), axis=2).reshape(-1, 1 << n)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        by_appearance = np.argsort(first)
        rank = np.empty_like(by_appearance)
        rank[by_appearance] = np.arange(len(first))
        table = rank[inverse.reshape(-1)].reshape(mesh.n_cells, len(direction))
        first_cell, first_local = np.divmod(first[by_appearance], len(direction))

        tuples = list(combinations(range(n), p))
        wedges = np.swapaxes(compound_matrix(edges, p), 1, 2)
        orientations = np.array([
            [canonical_orientation(edges[c][:, list(dirs)], wedges[c, t]) for t, dirs in enumerate(tuples)]
            for c in range(mesh.n_cells)
        ]).reshape(mesh.n_cells, len(tuples), len(tuples))
        shared = orientations[first_cell, direction[first_local]][table]
        dot = np.einsum("clt,clt->cl", wedges[:, direction], shared)
        tables[p] = table
        signs[p] = np.where(dot > 0, 1, -1)
        owners[p] = np.stack([first_cell, first_local], axis=1)
    return tables, signs, owners


def sup_errors_by_cell(dimension, degree, order, m_list, *, shear=0.0, samples=64):
    """Sup errors of the convergence study, evaluated cell by cell.

    The oracle for ``run_convergence``: per mesh, each cell maps the
    sample grid and evaluates the interpolant pinned to that cell.
    """
    form = get_form(f"sin{dimension}d-{degree}")
    ref_grid = _sample_grid(dimension, samples)
    errors = []
    for m in m_list:
        refined = refine(structured_mesh(dimension, m, shear=shear), order, degrees=(degree,))
        approx = interpolate(de_rham(form, refined), refined)
        err = 0.0
        for c, amap in enumerate(refined.maps):
            phys = amap(ref_grid)
            got = approx.evaluate(phys, cell=c)
            want = form.evaluate(phys)
            for dirs, values in got.items():
                err = max(err, float(np.abs(values - np.asarray(want.get(dirs, 0.0))).max()))
        errors.append(err)
    return errors


def de_rham_by_cell(form, refined, quad_order=None):
    """Integrals of a piecewise form over the small cubes of its own mesh, cell by cell.

    The oracle for the sum-factorised same-mesh path of ``de_rham``: each
    cell evaluates the form at the tensor Gauss points of every small
    cube, at their reference coordinates, and sums the integrands
    against the tensor weights.  As in ``de_rham``, a cube's first owner
    writes its value.
    """
    n, p, k = refined.dimension, form.degree, refined.order
    q = quad_order if quad_order is not None else 2 * k + 2
    tpts, twts = gauss_unit_cube(p, q)
    nq = len(twts)
    spans = compound_matrix(refined.mesh.linears / k, p)
    table = refined.cell_tables[p]
    signs = refined.cell_signs[p]
    values = np.empty(refined.count(p))
    for t, (dirs, sl, anchors) in enumerate(anchor_runs(n, p, k)):
        x = np.zeros((len(anchors), nq, n))
        x += anchors[:, None, :]
        for j, axis in enumerate(dirs):
            x[:, :, axis] += tpts[None, :, j]
        x = x.reshape(-1, n) / k
        factors = _factor_tables(x, form.refined.order)
        for ci in range(refined.mesh.n_cells):
            push = compound_matrix(form.refined.mesh.inverse_linears[ci], p)
            push = np.broadcast_to(push, (len(x), *push.shape))
            comps = _reference_values(
                coefficient_store(form.coefficients), p, np.full(len(x), ci), push, *factors
            )
            integrand = np.zeros(len(x))
            for minor, vals in zip(spans[ci, :, t], comps):
                if minor != 0.0:
                    integrand += minor * vals
            first = _first_owned(refined, p, ci, sl)
            values[table[ci, sl][first]] = (signs[ci, sl] * (integrand.reshape(-1, nq) @ twts))[first]
    return Cochain(p, values)


def de_rham_at_every_local_cube(form, refined, quad_order=None):
    """Integrals of a form over the small cubes, at every owner, cell by cell.

    The oracle for the owner-only analytic path of ``de_rham``: each cell
    maps the Gauss points of all its local cubes of one direction tuple
    in one call, evaluates the form there and sums each cube's integrands
    times the tensor weights.  Only a cube's first owner writes its
    value.
    """
    n, p, k = refined.dimension, form.degree, refined.order
    q = quad_order if quad_order is not None else 2 * k + 2
    tpts, twts = gauss_unit_cube(p, q)
    nq = len(twts)
    combos = list(combinations(range(n), p))
    spans = compound_matrix(refined.mesh.linears / k, p)
    table = refined.cell_tables[p]
    signs = refined.cell_signs[p]
    values = np.empty(refined.count(p))
    for t, (dirs, sl, anchors) in enumerate(anchor_runs(n, p, k)):
        x = np.zeros((len(anchors), nq, n))
        x += anchors[:, None, :]
        for j, axis in enumerate(dirs):
            x[:, :, axis] += tpts[None, :, j]
        x = x.reshape(-1, n) / k
        for ci in range(refined.mesh.n_cells):
            phys = refined.mesh.map_points(x, [ci])[0]
            comps = form.evaluate(phys)
            integrand = np.zeros(len(phys))
            for dirs_i, minor in zip(combos, spans[ci, :, t]):
                if minor != 0.0 and dirs_i in comps:
                    integrand += minor * np.asarray(comps[dirs_i], dtype=float)
            cube_vals = signs[ci, sl] * (integrand.reshape(-1, nq) * twts).sum(axis=1)
            first = _first_owned(refined, p, ci, sl)
            values[table[ci, sl][first]] = cube_vals[first]
    return Cochain(p, values)


def _first_owned(refined, p, cell, sl):
    """Which local cubes ``sl`` of ``cell`` are their global cube's first owner."""
    owners = refined.first_owners[p][refined.cell_tables[p][cell, sl]]
    return (owners[:, 0] == cell) & (owners[:, 1] == np.arange(sl.start, sl.stop))


def verify_identities_by_trial(
    refined, degree, *, trials=3, samples=200, quad_order=None, tol=1e-9, rng=None
):
    """The identity check as a plain loop over trials, with nothing shared.

    The oracle for ``verify_identities``: the same draws from ``rng`` in
    the same order, the round trip integrated cell by cell through
    :func:`de_rham_by_cell`, and each gap taken by evaluating both forms
    at every sample point, with the push-forward minors formed per point.
    """
    rng = np.random.default_rng(rng)
    n, p = refined.dimension, degree

    def gap(a, b, cells, ref_pts):
        tables = _factor_tables(ref_pts, refined.order)
        push = compound_matrix(refined.mesh.inverse_linears[cells], a.degree)
        va, vb = (
            _reference_values(coefficient_store(f.coefficients), f.degree, cells, push, *tables)
            for f in (a, b)
        )
        return float(np.abs(va - vb).max(initial=0.0))

    e_round = e_recon = 0.0
    e_comm = 0.0 if p < n else None
    for _ in range(trials):
        x = Cochain(p, rng.standard_normal(refined.count(p)))
        w = interpolate(x, refined)
        y = de_rham_by_cell(w, refined, quad_order)
        e_round = max(e_round, float(np.abs(y.values - x.values).max()))
        w2 = interpolate(y, refined)
        cells = rng.integers(0, refined.mesh.n_cells, size=samples)
        ref_pts = rng.random((samples, n))
        e_recon = max(e_recon, gap(w, w2, cells, ref_pts))
        if p < n:
            w_dx = interpolate(coboundary(x, refined), refined)
            e_comm = max(e_comm, gap(w_dx, w.exterior_derivative(), cells, ref_pts))
    return IdentityReport(p, e_round, e_recon, e_comm, tol)


def verify_identities_every_cell(
    refined, degree, *, trials=3, samples=200, quad_order=None, tol=1e-9, rng=None
):
    """``verify_identities`` as it was before it batched its trials.

    The oracle for the bits of ``verify_identities``: one trial at a time,
    each cochain interpolated, integrated and differentiated on every cell,
    and each gap evaluated on the difference of two whole interpolants.
    Its draws from ``rng`` come in the same order.  With two samples or
    more, the batched check must report the very same errors.  With one
    sample this loop evaluates each gap at a single point, where einsum
    sums in another order than on a batch; so there the errors move by
    roundoff, and only the 1e-10 comparison with
    :func:`verify_identities_by_trial` applies.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(rng)
    n = refined.dimension
    p = degree
    e_round = e_recon = 0.0
    e_comm = 0.0 if p < n else None

    def gap(a, b, cells, points):
        diff = {dirs: block - b.coefficients[dirs] for dirs, block in a.coefficients.items()}
        values = PiecewiseForm(refined, a.degree, diff).evaluate_reference(cells, points)
        return max(float(np.abs(v).max(initial=0.0)) for v in values.values())

    for _ in range(trials):
        x = Cochain(p, rng.standard_normal(refined.count(p)))
        w = interpolate(x, refined)
        y = de_rham(w, refined, quad_order)
        e_round = max(e_round, float(np.abs(y.values - x.values).max()))
        w2 = interpolate(y, refined)
        sampled = rng.integers(0, refined.mesh.n_cells, size=samples)
        points = rng.random((samples, n))
        e_recon = max(e_recon, gap(w, w2, sampled, points))
        if p < n:
            w_dx = interpolate(coboundary(x, refined), refined)
            e_comm = max(e_comm, gap(w_dx, w.exterior_derivative(), sampled, points))
    return IdentityReport(
        degree=p,
        round_trip_error=e_round,
        reconstruction_error=e_recon,
        commutation_error=e_comm,
        tolerance=tol,
    )


def coefficient_norms(form):
    """Euclidean norm of each cell's coefficients in the basis dual to the
    small cubes, that is, of its local cochain values."""
    squares = [
        np.square(block).reshape(len(block), -1).sum(axis=1)
        for block in form.coefficients.values()
    ]
    return np.sqrt(np.sum(squares, axis=0))


def product_factor_tables(x, order):
    """The 1-D product factors at reference points x of shape (s, n).

    Returns arrays of shape (k, n, s) and (k + 1, n, s) holding
    x^a (1-x)^(k-1-a) (spanned axes) and x^a (1-x)^(k-a) (fixed axes),
    the spanning forms' own factors, in which the DOF tables F_k and P_k
    are written.
    """
    x = np.asarray(x, dtype=float)
    rise = np.ones((order + 1, *x.T.shape))
    fall = np.ones_like(rise)
    for a in range(1, order + 1):
        rise[a] = rise[a - 1] * x.T
        fall[a] = fall[a - 1] * (1 - x.T)
    return rise[:order] * fall[order - 1 :: -1], rise * fall[::-1]


def product_derivative_matrix(k):
    """D_k: d/dx x^a (1-x)^(k-a) = a x^(a-1) (1-x)^(k-a) - (k-a) x^a (1-x)^(k-1-a),
    so column a holds a at row a - 1 and a - k at row a (integers, as objects)."""
    d = np.zeros((k, k + 1), dtype=object)
    for a in range(k + 1):
        if a:
            d[a - 1, a] = a
        if a < k:
            d[a, a] = a - k
    return d


def product_basis_interpolant(cochain, refined):
    """The interpolant's coefficient blocks in the product basis, by the reference solve.

    The oracle for the basis dual to the small cubes: each cell's signed
    local values are solved for the coefficients of the spanning forms
    x^a (1-x)^(k-1-a) (spanned axes) times x^a (1-x)^(k-a) (fixed axes),
    as :func:`~cubeforms.interp.interpolate` stored them before the change
    of basis.
    """
    n, k, p = refined.dimension, refined.order, cochain.degree
    local = cochain.values[refined.cell_tables[p]] * refined.cell_signs[p]
    solver = reference_solver(n, p, k)
    coeffs = solver.solve(local.T).T
    blocks = solver.matrix.blocks.items()
    return {d: coeffs[:, sl].reshape(-1, *pattern_shape(n, d, k)) for d, sl in blocks}


def product_basis_derivative(blocks, n, k):
    """d of product-basis coefficient blocks, by :func:`product_derivative_matrix`
    along each axis outside I, times the sign of dx_j ^ dx_I."""
    diff = product_derivative_matrix(k).astype(float)
    terms = {}
    for dirs, block in blocks.items():
        for axis in sorted(set(range(n)) - set(dirs)):
            sign, new_dirs = wedge_insert(axis, dirs)
            term = np.moveaxis(np.tensordot(diff, block, ([1], [axis + 1])), 0, axis + 1)
            terms[new_dirs] = terms.get(new_dirs, 0) + sign * term
    return dict(sorted(terms.items()))


def evaluate_product_basis(blocks, degree, refined, cells, x):
    """Physical components of product-basis blocks at reference points x (s, n),
    one cell per point, one (s,) array per direction tuple."""
    n = refined.dimension
    push = refined.mesh.pushforward(degree).take(cells, axis=0)
    tables = product_factor_tables(x, refined.order)
    values = _reference_values(coefficient_store(blocks), degree, cells, push, *tables)
    return dict(zip(combinations(range(n), degree), values))


def coefficient_store(blocks):
    """Cell-first coefficient blocks, as ``PiecewiseForm.coefficients`` holds them,
    concatenated into one (local cubes, cells) store, direction tuples in sorted order
    and anchors in C order, as the private kernels take them."""
    return np.concatenate([block.reshape(len(block), -1).T for _, block in sorted(blocks.items())])


def _face_between(cell_a, cell_b, dimension):
    """Fixed axis and side of the shared face, seen from cell_a.

    Returns None unless the two cells share a whole (n-1)-face.
    """
    shared = set(cell_a) & set(cell_b)
    if len(shared) != 1 << (dimension - 1):
        return None
    positions = [pos for pos, v in enumerate(cell_a) if v in shared]
    land = lor = positions[0]
    for c in positions[1:]:
        land &= c
        lor |= c
    fixed_mask = ((1 << dimension) - 1) & ~(lor & ~land)
    if fixed_mask.bit_count() != 1:
        return None
    axis = fixed_mask.bit_length() - 1
    side = (land >> axis) & 1
    return axis, side


def _pair_with_tangents(values, tangents, degree):
    """Evaluate a component dict against all p-tuples of tangent vectors."""
    n = tangents.shape[0]
    n_pts = next(iter(values.values())).shape[0] if values else 0
    out = []
    for cols in combinations(range(tangents.shape[1]), degree):
        total = np.zeros(n_pts)
        for dirs, vals in values.items():
            if degree == 0:
                minor = 1.0
            else:
                sub = tangents[np.ix_(list(dirs), list(cols))]
                minor = float(np.linalg.det(sub)) if degree > 1 else float(sub[0, 0])
            if minor != 0.0:
                total = total + minor * np.asarray(vals)
        out.append(total)
    return np.stack(out) if out else np.zeros((0, n_pts))


def trace_mismatch(refined, form, rng, samples=40):
    """Worst tangential jump of a piecewise form across interior faces.

    Faces are found from shared vertex ids; points are sampled on the
    face and the form is evaluated from both neighbouring cells, paired
    with every p-tuple of face tangent vectors.  Degree-n forms have no
    tangential trace, so the mismatch is zero by convention.
    """
    mesh = refined.mesh
    n = refined.dimension
    p = form.degree
    if p >= n:
        return 0.0
    worst = 0.0
    for a, b in combinations(range(mesh.n_cells), 2):
        found = _face_between(mesh.cells[a], mesh.cells[b], n)
        if found is None:
            continue
        axis, side = found
        x = rng.random((samples, n))
        x[:, axis] = float(side)
        phys = refined.maps[a](x)
        tangent_axes = [d for d in range(n) if d != axis]
        tangents = refined.maps[a].linear[:, tangent_axes]
        va = form.evaluate(phys, cell=a)
        vb = form.evaluate(phys, cell=b)
        pa = _pair_with_tangents(va, tangents, p)
        pb = _pair_with_tangents(vb, tangents, p)
        worst = max(worst, float(np.abs(pa - pb).max()))
    return worst
