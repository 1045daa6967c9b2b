"""Shared test utilities."""

from itertools import combinations

import numpy as np

from cubeforms.mesh import CubicalMesh


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
