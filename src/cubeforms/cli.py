"""Command-line front end.

Subcommands: ``dims`` (dimension table of the discrete spaces),
``check-unisolvence`` (DOF matrix invertibility certificate),
``dof-matrix`` (CSV dump of the reference DOF matrix), ``interpolate``
(evaluate the interpolant of a cochain on a mesh) and ``convergence``
(interpolation-error study on refined structured meshes).

Exit codes: 0 on success, 1 when a checked property fails (singular
matrix, mismatched counts, convergence rate outside its window), 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations, product
from math import ceil, log

import numpy as np

from .catalog import get_form, list_forms
from .dof import assemble_dof_matrix, check_unisolvence
from .interp import Cochain, de_rham, interpolate
from .mesh import MeshValidationError, load_mesh, refine, structured_mesh
from .smallcubes import enumerate_small_cubes, small_cube_count

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Largest total small-cube count the dims table will enumerate.
_DIMS_ENUMERATION_CAP = 500_000


def dimension_table(dimension: int, order: int) -> list[tuple[int, int, int]]:
    """Rows (p, enumerated count, closed-form count) for one (n, k)."""
    rows = []
    for p in range(dimension + 1):
        enumerated = len(enumerate_small_cubes(dimension, p, order))
        rows.append((p, enumerated, small_cube_count(dimension, p, order)))
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    """One mesh of a refinement study."""

    subdivisions: int
    mesh_size: float
    sup_error: float
    eoc: float | None


def run_convergence(
    dimension: int,
    degree: int,
    order: int,
    m_list,
    *,
    shear: float = 0.0,
    samples: int = 64,
    quad_order: int | None = None,
    form_id: str | None = None,
) -> list[ConvergenceRow]:
    """Interpolation sup-error of a catalog form over refined meshes.

    For each subdivision count the form is integrated over the small
    cubes, interpolated back, and compared with the exact form on a
    fixed tensor grid of about ``samples`` interior points per cell; the
    same grid on every mesh keeps the sup-norm estimates comparable.
    The observed order eoc compares consecutive rows.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    form = get_form(form_id if form_id else f"sin{dimension}d-{degree}")
    if form.dimension != dimension or form.degree != degree:
        raise ValueError(
            f"form {form.name!r} is a {form.degree}-form in dimension "
            f"{form.dimension}, wanted degree {degree} in dimension {dimension}"
        )
    combos = list(combinations(range(dimension), degree))
    per_axis = max(2, ceil(samples ** (1.0 / dimension) - 1e-9))
    axis_pts = (2.0 * np.arange(per_axis) + 1.0) / (2.0 * per_axis)
    ref_grid = np.array(list(product(axis_pts, repeat=dimension)))
    rows: list[ConvergenceRow] = []
    for m in m_list:
        mesh = structured_mesh(dimension, m, shear=shear)
        refined = refine(mesh, order, degrees=(degree,))
        cochain = de_rham(form, refined, quad_order)
        approx = interpolate(cochain, refined)
        err = 0.0
        for c in range(mesh.n_cells):
            phys = refined.maps[c](ref_grid)
            got = approx.evaluate(phys, cell=c)
            want = form.evaluate(phys)
            for dirs in combos:
                diff = np.asarray(got[dirs]) - np.asarray(want.get(dirs, 0.0))
                err = max(err, float(np.abs(diff).max()))
        h = 1.0 / m
        if rows:
            prev = rows[-1]
            eoc = log(prev.sup_error / err) / log(prev.mesh_size / h)
        else:
            eoc = None
        rows.append(ConvergenceRow(m, h, err, eoc))
    return rows


# -- helpers ---------------------------------------------------------


@contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")


def _check_degree(dimension: int, degree: int) -> None:
    if not 0 <= degree <= dimension:
        raise ValueError(f"p must be in 0..{dimension}, got {degree}")


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--m-list must be comma-separated integers, got {text!r}")
    if not values or any(m < 1 for m in values):
        raise ValueError(f"--m-list entries must be positive, got {text!r}")
    return values


def _read_points(path, dimension: int) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                continue  # header line
    pts = np.array(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dimension:
        raise ValueError(
            f"points file {path} must have {dimension} columns per row"
        )
    return pts


def _component_label(dirs: tuple[int, ...]) -> str:
    return "w" + "".join(str(d) for d in dirs)


# -- subcommands -----------------------------------------------------


def _cmd_dims(args) -> int:
    _check_range("--n", args.n, 1, 6)
    _check_range("--k", args.k, 1, 8)
    total_formula = (2 * args.k + 1) ** args.n
    if total_formula > _DIMS_ENUMERATION_CAP:
        raise ValueError(
            f"table for n={args.n}, k={args.k} has {total_formula} small cubes; "
            f"enumeration is capped at {_DIMS_ENUMERATION_CAP}"
        )
    rows = dimension_table(args.n, args.k)
    ok = True
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "enumerated", "formula", "match"])
        for p, enumerated, formula in rows:
            match = enumerated == formula
            ok = ok and match
            writer.writerow([p, enumerated, formula, str(match).lower()])
        total = sum(r[1] for r in rows)
        match = total == total_formula
        ok = ok and match
        writer.writerow(["total", total, total_formula, str(match).lower()])
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_check_unisolvence(args) -> int:
    _check_range("--n", args.n, 1, 4)
    _check_range("--k", args.k, 1, 4)
    _check_degree(args.n, args.p)
    report = check_unisolvence(args.n, args.p, args.k)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "size", "condition"])
        for dirs, cond in report.block_conditions.items():
            label = "scalar" if not dirs else "d" + "d".join(str(d) for d in dirs)
            size = assemble_dof_matrix(args.n, args.p, args.k).blocks[dirs]
            writer.writerow([label, size.stop - size.start, repr(cond)])
        writer.writerow(["all", report.size, repr(report.condition_estimate)])
    print(
        f"n={args.n} p={args.p} k={args.k}: {report.size} degrees of freedom, "
        f"min singular value {report.min_singular:.6e}, "
        f"unisolvent: {'yes' if report.invertible else 'NO'}",
        file=sys.stderr,
    )
    return EXIT_OK if report.invertible else EXIT_FAIL


def _cmd_dof_matrix(args) -> int:
    _check_range("--n", args.n, 1, 4)
    _check_range("--k", args.k, 1, 4)
    _check_degree(args.n, args.p)
    dm = assemble_dof_matrix(args.n, args.p, args.k)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for sl in dm.blocks.values():
            for r in range(sl.start, sl.stop):
                for c in range(sl.start, sl.stop):
                    writer.writerow([r, c, f"{dm.matrix[r, c]:.12e}"])
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    mesh = load_mesh(args.mesh)
    _check_range("--k", args.k, 1, 8)
    _check_degree(mesh.dimension, args.p)
    refined = refine(mesh, args.k, degrees=(args.p,))
    cochain = Cochain.from_csv(args.cochain, args.p)
    if len(cochain) != refined.count(args.p):
        raise ValueError(
            f"cochain has {len(cochain)} values but the refined mesh has "
            f"{refined.count(args.p)} small cubes of degree {args.p}"
        )
    form = interpolate(cochain, refined)
    if args.points:
        pts = _read_points(args.points, mesh.dimension)
    else:
        centers = np.full((mesh.n_cells, mesh.dimension), 0.5)
        pts = np.array(
            [refined.maps[c](centers[c]) for c in range(mesh.n_cells)]
        )
    values = form.evaluate(pts)
    combos = sorted(values)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i}" for i in range(mesh.dimension)]
            + [_component_label(dirs) for dirs in combos]
        )
        for i, pt in enumerate(pts):
            writer.writerow(
                [repr(float(x)) for x in pt]
                + [repr(float(np.asarray(values[dirs]).reshape(-1)[i])) for dirs in combos]
            )
    return EXIT_OK


def _cmd_convergence(args) -> int:
    _check_range("--n", args.n, 1, 3)
    _check_range("--k", args.k, 1, 4)
    _check_degree(args.n, args.p)
    m_list = _parse_m_list(args.m_list)
    if len(m_list) < 2:
        raise ValueError("--m-list needs at least two mesh sizes to estimate an order")
    rows = run_convergence(
        args.n,
        args.p,
        args.k,
        m_list,
        shear=args.shear,
        samples=args.samples,
        quad_order=args.quad_order,
        form_id=args.form,
    )
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "h", "sup_error", "eoc"])
        for row in rows:
            writer.writerow(
                [
                    row.subdivisions,
                    repr(row.mesh_size),
                    repr(row.sup_error),
                    "" if row.eoc is None else repr(row.eoc),
                ]
            )
    final = rows[-1].eoc
    lo, hi = args.k - 0.3, args.k + 0.5
    ok = final is not None and lo <= final <= hi
    print(
        f"final EOC {final:.4f}, expected within [{lo:.2f}, {hi:.2f}]: "
        f"{'ok' if ok else 'OUT OF RANGE'}",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_FAIL


# -- entry point -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeforms",
        description="Tensor-product differential forms on cubical meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension table of the discrete spaces")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--k", type=int, required=True, help="polynomial order")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser(
        "check-unisolvence", help="certify invertibility of the reference DOF matrix"
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--p", type=int, required=True, help="form degree")
    p.add_argument("--k", type=int, required=True, help="polynomial order")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_check_unisolvence)

    p = sub.add_parser("dof-matrix", help="dump the reference DOF matrix as CSV")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--p", type=int, required=True, help="form degree")
    p.add_argument("--k", type=int, required=True, help="polynomial order")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_dof_matrix)

    p = sub.add_parser(
        "interpolate", help="evaluate the interpolant of a cochain on a mesh"
    )
    p.add_argument("--mesh", required=True, help="mesh JSON file")
    p.add_argument("--cochain", required=True, help="cochain CSV file (id,value)")
    p.add_argument("--p", type=int, required=True, help="form degree")
    p.add_argument("--k", type=int, required=True, help="polynomial order")
    p.add_argument(
        "--points", help="CSV of evaluation points (default: cell centres)"
    )
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser(
        "convergence", help="interpolation-error study on structured meshes"
    )
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--p", type=int, required=True, help="form degree")
    p.add_argument("--k", type=int, required=True, help="polynomial order")
    p.add_argument(
        "--m-list", required=True, help="comma-separated subdivision counts"
    )
    p.add_argument("--shear", type=float, default=0.0, help="mesh shear factor")
    p.add_argument(
        "--samples", type=int, default=64, help="evaluation points per cell"
    )
    p.add_argument(
        "--quad-order", type=int, default=None, help="Gauss points per axis"
    )
    p.add_argument(
        "--form",
        default=None,
        help=f"catalog form id (default sin<n>d-<p>; known: {', '.join(list_forms())})",
    )
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        MeshValidationError,
        FileNotFoundError,
        IsADirectoryError,
        KeyError,
        ValueError,
    ) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
