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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dof import assemble_dof_matrix, reference_solver
from .forms import PolyForm, basis_grid_stack, exterior_derivative
from .mesh import PulledBackForm, RefinedMesh
from .quadrature import gauss_unit_cube

#: Slack, relative to the largest vertex coordinate, with which a point
#: counts as inside a cell: points on shared faces pull back with a few
#: ulps of roundoff, and this keeps them from falling between cells.
LOCATE_TOL = 1e-12


@dataclass
class Cochain:
    """A real value per global small cube of one degree."""

    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float).reshape(-1)
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
        """Read ``id,value`` lines (header optional, any id order)."""
        pairs: dict[int, float] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or not row[0].strip():
                    continue
                try:
                    i = int(row[0])
                except ValueError:
                    continue  # header line
                if i in pairs:
                    raise ValueError(f"duplicate cochain id {i} in {path}")
                try:
                    pairs[i] = float(row[1])
                except (IndexError, ValueError):
                    raise ValueError(
                        f"{path} line {reader.line_num}: expected 'id,value', got {row}"
                    ) from None
        if sorted(pairs) != list(range(len(pairs))):
            raise ValueError(
                f"cochain ids in {path} must be exactly 0..{len(pairs) - 1}"
            )
        return cls(degree, np.array([pairs[i] for i in range(len(pairs))]))


def _direction_runs(refined: RefinedMesh, degree: int):
    """Contiguous runs of the local cube list sharing a direction tuple."""
    local = refined.local_cubes(degree)
    runs: list[tuple[tuple[int, ...], slice, np.ndarray]] = []
    start = 0
    for i in range(1, len(local) + 1):
        if i == len(local) or local[i].directions != local[start].directions:
            anchors = np.array(
                [local[j].anchor_numerators for j in range(start, i)], dtype=float
            )
            runs.append((local[start].directions, slice(start, i), anchors))
            start = i
    return runs


def de_rham(form, refined: RefinedMesh, quad_order: int | None = None) -> Cochain:
    """Integrate a form over every global small cube of its degree.

    ``form`` needs a ``degree`` attribute and an ``evaluate`` method
    returning per-direction components; analytic, polynomial and
    piecewise forms all qualify.  Integrals use a tensor Gauss rule with
    ``quad_order`` points per axis (default 2k + 2); degree zero reduces
    to point evaluation.  Each cube's value is oriented by its stored
    global orientation.
    """
    n = refined.dimension
    p = form.degree
    k = refined.order
    count = refined.count(p)
    q = quad_order if quad_order is not None else 2 * k + 2
    tpts, twts = gauss_unit_cube(p, q)
    nq = len(twts)
    runs = _direction_runs(refined, p)
    combos = list(combinations(range(n), p))
    table = refined.cell_tables[p]
    signs = refined.cell_signs[p]
    values = np.empty(count)
    for ci in range(refined.mesh.n_cells):
        amap = refined.maps[ci]
        scaled = amap.linear / k
        for dirs, sl, anchors in runs:
            x = np.zeros((len(anchors), nq, n))
            x += anchors[:, None, :]
            for j, axis in enumerate(dirs):
                x[:, :, axis] += tpts[None, :, j]
            x /= k
            y = amap(x.reshape(-1, n))
            if isinstance(form, PiecewiseForm):
                comps = form.evaluate(y, cell=ci)
            else:
                comps = form.evaluate(y)
            minors = _span_minors(scaled[:, list(dirs)], combos)
            integrand = np.zeros(len(anchors) * nq)
            for dirs_i, minor in minors.items():
                vals = comps.get(dirs_i)
                if vals is None or minor == 0.0:
                    continue
                integrand += minor * np.asarray(vals, dtype=float).reshape(-1)
            cube_vals = integrand.reshape(len(anchors), nq) @ twts
            values[table[ci, sl]] = signs[ci, sl] * cube_vals
    return Cochain(p, values)


def _span_minors(edge_matrix: np.ndarray, combos) -> dict[tuple[int, ...], float]:
    p = edge_matrix.shape[1]
    out = {}
    for rows in combos:
        if p == 0:
            out[rows] = 1.0
        elif p == 1:
            out[rows] = float(edge_matrix[rows[0], 0])
        else:
            out[rows] = float(np.linalg.det(edge_matrix[list(rows), :]))
    return out


def _combined_reference_form(
    coefficients: np.ndarray, dimension: int, degree: int, order: int
) -> PolyForm:
    stacks = basis_grid_stack(dimension, degree, order)
    blocks = assemble_dof_matrix(dimension, degree, order).blocks
    terms = {}
    for dirs, sl in blocks.items():
        terms[dirs] = np.tensordot(coefficients[sl], stacks[dirs], axes=([0], [0]))
    return PolyForm(dimension, degree, terms)


def interpolate(cochain: Cochain, refined: RefinedMesh) -> "PiecewiseForm":
    """The discrete-space form whose small-cube integrals match the cochain.

    Per cell, global values are pulled to local orientation and the
    reference coefficient solve runs for all cells in one batched call.
    """
    n, k = refined.dimension, refined.order
    p = cochain.degree
    if len(cochain) != refined.count(p):
        raise ValueError(
            f"cochain has {len(cochain)} values, mesh has {refined.count(p)} "
            f"small cubes of degree {p}"
        )
    table = refined.cell_tables[p]
    local_values = cochain.values[table] * refined.cell_signs[p]
    coeffs = reference_solver(n, p, k).solve(local_values.T)
    cell_forms = tuple(
        _combined_reference_form(coeffs[:, c], n, p, k)
        for c in range(refined.mesh.n_cells)
    )
    return PiecewiseForm(refined, p, cell_forms)


@dataclass
class PiecewiseForm:
    """A form of the discrete space: one reference polynomial per cell.

    Evaluation locates points (lowest cell index wins on shared faces,
    or pass ``cell=`` to pin one) and pushes the cell's reference
    polynomial through the cell map, so components refer to ambient
    coordinate differentials.
    """

    refined: RefinedMesh
    degree: int
    cell_forms: tuple[PolyForm, ...]

    @property
    def dimension(self) -> int:
        return self.refined.dimension

    def evaluate(self, points, cell: int | None = None) -> dict[tuple[int, ...], np.ndarray | float]:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        flat = pts.reshape(-1, self.dimension)
        if cell is None:
            assign = _locate_cells(self.refined, flat)
        else:
            assign = np.full(len(flat), cell, dtype=int)
        out = {
            dirs: np.zeros(len(flat))
            for dirs in combinations(range(self.dimension), self.degree)
        }
        for c in np.unique(assign):
            idx = np.nonzero(assign == c)[0]
            pulled = PulledBackForm(self.refined.maps[c], self.cell_forms[c])
            for dirs, vals in pulled.evaluate(flat[idx]).items():
                out[dirs][idx] = vals
        if single:
            return {dirs: float(v[0]) for dirs, v in out.items()}
        shape = pts.shape[:-1]
        return {dirs: v.reshape(shape) for dirs, v in out.items()}

    def exterior_derivative(self) -> "PiecewiseForm":
        """Differentiate cell by cell (commutes with the cell maps)."""
        return PiecewiseForm(
            self.refined,
            self.degree + 1,
            tuple(exterior_derivative(f) for f in self.cell_forms),
        )


def evaluate_piecewise(form: PiecewiseForm, points, cell: int | None = None):
    """Module-level alias for :meth:`PiecewiseForm.evaluate`."""
    return form.evaluate(points, cell=cell)


def _locate_cells(refined: RefinedMesh, points: np.ndarray) -> np.ndarray:
    """First cell (lowest index) containing each point, within LOCATE_TOL."""
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
        pts = points[open_idx]
        boxed = np.all((pts >= lo) & (pts <= hi), axis=1)
        if not boxed.any():
            continue
        cand = open_idx[boxed]
        x = refined.maps[c].pull_to_reference(points[cand])
        inside = np.all((x >= -tol) & (x <= 1 + tol), axis=1)
        assign[cand[inside]] = c
    if np.any(assign < 0):
        first = points[int(np.nonzero(assign < 0)[0][0])]
        raise ValueError(f"point {first.tolist()} lies in no mesh cell")
    return assign


def coboundary(cochain: Cochain, refined: RefinedMesh) -> Cochain:
    """Apply the discrete exterior derivative to a cochain."""
    matrix = refined.coboundary_matrix(cochain.degree)
    return Cochain(cochain.degree + 1, matrix @ cochain.values)


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


def verify_identities(
    refined: RefinedMesh,
    degree: int,
    *,
    trials: int = 3,
    samples: int = 200,
    quad_order: int | None = None,
    tol: float = 1e-9,
    rng=None,
) -> IdentityReport:
    """Check the operator identities on random cochains.

    Round trip: integrating an interpolated cochain returns the cochain.
    Reconstruction: interpolating those integrals returns the same form,
    compared pointwise at random interior points.  Commutation (skipped
    at top degree): interpolating the coboundary equals differentiating
    the interpolant.
    """
    rng = np.random.default_rng(rng)
    n = refined.dimension
    p = degree
    e_round = e_recon = 0.0
    e_comm: float | None = 0.0 if p < n else None
    n_cells = refined.mesh.n_cells
    for _ in range(trials):
        x = Cochain(p, rng.standard_normal(refined.count(p)))
        w = interpolate(x, refined)
        y = de_rham(w, refined, quad_order)
        e_round = max(e_round, float(np.abs(y.values - x.values).max()))
        w2 = interpolate(y, refined)
        cells = rng.integers(0, n_cells, size=samples)
        ref_pts = rng.random((samples, n))
        for c in np.unique(cells):
            idx = cells == c
            phys = refined.maps[c](ref_pts[idx])
            va = w.evaluate(phys, cell=int(c))
            vb = w2.evaluate(phys, cell=int(c))
            for dirs in va:
                e_recon = max(
                    e_recon, float(np.abs(np.asarray(va[dirs]) - vb[dirs]).max())
                )
        if p < n:
            dx = coboundary(x, refined)
            w_dx = interpolate(dx, refined)
            dw_x = w.exterior_derivative()
            for c in np.unique(cells):
                idx = cells == c
                phys = refined.maps[c](ref_pts[idx])
                va = w_dx.evaluate(phys, cell=int(c))
                vb = dw_x.evaluate(phys, cell=int(c))
                for dirs in va:
                    e_comm = max(
                        e_comm, float(np.abs(np.asarray(va[dirs]) - vb[dirs]).max())
                    )
    return IdentityReport(
        degree=p,
        round_trip_error=e_round,
        reconstruction_error=e_recon,
        commutation_error=e_comm,
        tolerance=tol,
    )
