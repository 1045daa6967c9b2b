"""Command-line front end.

Subcommands: ``dims`` (dimension table of the discrete spaces),
``check-unisolvence`` (DOF matrix invertibility certificate),
``dof-matrix`` (CSV dump of the reference DOF matrix, block by block),
``interpolate`` (evaluate the interpolant of a cochain on a mesh) and
``convergence`` (interpolation-error study on refined structured meshes).

Exit codes: 0 on success, 1 when a checked property fails (singular
matrix, mismatched counts, convergence rate outside its window), 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product
from math import ceil, log

import numpy as np

from .catalog import get_form, list_forms
from .dof import assemble_dof_matrix, check_unisolvence
from .interp import Cochain, de_rham, interpolate, read_csv_rows
from .mesh import load_mesh, refine, structured_mesh
from .smallcubes import enumerate_small_cubes, small_cube_count

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Each subcommand's largest k per dimension n, checked before any work (n runs
#: from the smallest key to the largest; ``interpolate`` reads it from its mesh, and
#: no error was ever measured past 4D; ``convergence`` starts at 2D, as the catalog
#: has no 1-D form).  ``dims`` enumerates (2k + 1)^n small cubes in all,
#: so from 5D its cap is the largest k with at most 500,000 of them.  The
#: reference-matrix commands stop at k = 4, a leftover of slow exact assembly.  The
#: library interpolates at every k; the ``interpolate`` caps are this command's own
#: and stay until the supported envelope is measured and tabulated per (n, k).
LIMITS = {
    "dims": {1: 8, 2: 8, 3: 8, 4: 8, 5: 6, 6: 3},
    "check-unisolvence": dict.fromkeys(range(1, 5), 4),
    "dof-matrix": dict.fromkeys(range(1, 5), 4),
    "interpolate": {1: 8, 2: 8, 3: 6, 4: 4},
    "convergence": dict.fromkeys(range(2, 4), 4),
}

#: Offsets (low, high) from :func:`expected_order` between which ``convergence``
#: accepts the final EOC.  At n = 2, 3, k <= 4, every degree, straight and shear 0.3,
#: on the meshes ``tests/test_cli.py`` runs, the final EOCs read -0.21 to +0.14 from
#: the order; coarser meshes lag more (3D k = 4, p = 3 reads -0.31 on m = 2, 4).  The
#: band admits that lag and rejects a rate one order off.
EOC_BAND = (-0.3, 0.5)


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


def expected_order(degree: int, order: int) -> int:
    """The sup-error order of interpolating a smooth p-form at order k: k + 1 at p = 0,
    whose space holds the Lagrange Q_k functions, and k for p >= 1, whose spanned
    factors have degree k - 1."""
    return order + 1 if degree == 0 else order


def _sample_grid(dimension: int, samples: int) -> np.ndarray:
    """The cell-centred reference tensor grid of about ``samples`` points."""
    per_axis = max(2, ceil(samples ** (1.0 / dimension) - 1e-9))
    axis_pts = (2.0 * np.arange(per_axis) + 1.0) / (2.0 * per_axis)
    return np.array(list(product(axis_pts, repeat=dimension)))


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
    Each grid point lies in its own cell by construction, so a mesh's
    points are evaluated in one :meth:`PiecewiseForm.evaluate_reference` call.
    The observed order eoc compares consecutive rows; it is None on the
    first row and wherever either error is exactly zero.  Raises ValueError
    if a mesh size repeats, which leaves no order to observe, or, before any
    work, unless ``samples`` is an integer (not a bool) of at least 1.
    """
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m_list = list(m_list)
    if len(set(m_list)) != len(m_list):
        raise ValueError(f"mesh sizes must be distinct, got {m_list}")
    form = get_form(form_id if form_id else f"sin{dimension}d-{degree}")
    if form.dimension != dimension or form.degree != degree:
        raise ValueError(
            f"form {form.name!r} is a {form.degree}-form in dimension "
            f"{form.dimension}, wanted degree {degree} in dimension {dimension}"
        )
    ref_grid = _sample_grid(dimension, samples)
    rows: list[ConvergenceRow] = []
    for m in m_list:
        mesh = structured_mesh(dimension, m, shear=shear)
        refined = refine(mesh, order, degrees=(degree,))
        cochain = de_rham(form, refined, quad_order)
        approx = interpolate(cochain, refined)
        cells = np.repeat(np.arange(mesh.n_cells), len(ref_grid))
        got = approx.evaluate_reference(cells, np.tile(ref_grid, (mesh.n_cells, 1)))
        want = form.evaluate(mesh.map_points(ref_grid).reshape(-1, dimension))
        err = max(
            float(np.abs(values - np.asarray(want.get(dirs, 0.0))).max())
            for dirs, values in got.items()
        )
        h = 1.0 / m
        if rows and err and rows[-1].sup_error:
            prev = rows[-1]
            eoc = log(prev.sup_error / err) / log(prev.mesh_size / h)
        else:
            eoc = None
        rows.append(ConvergenceRow(m, h, err, eoc))
    return rows


# -- helpers ---------------------------------------------------------


def _write_csv(path, header, rows) -> None:
    """Write a header line and the rows as CSV to ``path``, or to stdout if it is None."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")


def _check_limits(args, n: int) -> None:
    """Refuse, before any work, what :data:`LIMITS` leaves out: n first, then k, then p."""
    caps = LIMITS[args.command]
    _check_range("--n" if "n" in args else "mesh dimension", n, min(caps), max(caps))
    _check_range("--k", args.k, 1, caps[n])
    if "p" in args:
        _check_range("p", args.p, 0, n)


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--m-list must be comma-separated integers, got {text!r}")
    if not values or any(m < 1 for m in values):
        raise ValueError(f"--m-list entries must be positive, got {text!r}")
    return values


def _read_points(path, dimension: int) -> np.ndarray:
    """Rows of coordinates; only the first non-blank line may be a header."""
    rows = read_csv_rows(path, lambda r: [float(v) for v in r], f"points file {path}", "numbers")
    pts = np.array(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dimension:
        raise ValueError(f"points file {path} must have {dimension} columns per row")
    return pts


# -- subcommands -----------------------------------------------------


def _cmd_dims(args) -> int:
    total_formula = (2 * args.k + 1) ** args.n
    rows = [[p, e, f, str(e == f).lower()] for p, e, f in dimension_table(args.n, args.k)]
    total = sum(row[1] for row in rows)
    rows.append(["total", total, total_formula, str(total == total_formula).lower()])
    _write_csv(args.out, ["p", "enumerated", "formula", "match"], rows)
    return EXIT_OK if all(row[3] == "true" for row in rows) else EXIT_FAIL


def _cmd_check_unisolvence(args) -> int:
    report = check_unisolvence(args.n, args.p, args.k)
    blocks = assemble_dof_matrix(args.n, args.p, args.k).blocks
    rows = []
    for dirs, cond in report.block_conditions.items():
        label = "scalar" if not dirs else "d" + "d".join(str(d) for d in dirs)
        rows.append([label, blocks[dirs].stop - blocks[dirs].start, repr(cond)])
    rows.append(["all", report.size, repr(report.condition_estimate)])
    _write_csv(args.out, ["block", "size", "condition"], rows)
    print(
        f"n={args.n} p={args.p} k={args.k}: {report.size} degrees of freedom, "
        f"min singular value {report.min_singular:.6e}, "
        f"unisolvent: {'yes' if report.invertible else 'NO'}",
        file=sys.stderr,
    )
    return EXIT_OK if report.invertible else EXIT_FAIL


def _cmd_dof_matrix(args) -> int:
    dm = assemble_dof_matrix(args.n, args.p, args.k)
    rows = (
        [sl.start + r, sl.start + c, f"{value:.12e}"]
        for dirs, sl in dm.blocks.items()
        for (r, c), value in np.ndenumerate(dm.block(dirs))
    )
    _write_csv(args.out, ["row", "col", "value"], rows)
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    mesh = load_mesh(args.mesh)
    _check_limits(args, mesh.dimension)
    refined = refine(mesh, args.k, degrees=(args.p,))
    form = interpolate(Cochain.from_csv(args.cochain, args.p), refined)
    if args.points:
        pts = _read_points(args.points, mesh.dimension)
    else:
        pts = mesh.map_points(np.full((1, mesh.dimension), 0.5))[:, 0]
    values = form.evaluate(pts)
    combos = sorted(values)
    columns = [np.asarray(values[dirs]).reshape(-1) for dirs in combos]
    _write_csv(
        args.out,
        [f"x{i}" for i in range(mesh.dimension)]
        + ["w" + "".join(str(d) for d in dirs) for dirs in combos],
        (
            [repr(float(x)) for x in pt] + [repr(float(col[i])) for col in columns]
            for i, pt in enumerate(pts)
        ),
    )
    return EXIT_OK


def _cmd_convergence(args) -> int:
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
    _write_csv(
        args.out,
        ["m", "h", "sup_error", "eoc"],
        (
            [row.subdivisions, repr(row.mesh_size), repr(row.sup_error)]
            + ["" if row.eoc is None else repr(row.eoc)]
            for row in rows
        ),
    )
    final = rows[-1].eoc
    if final is None:
        print(
            "final EOC undefined: the sup error is exactly 0 on "
            + " and ".join(f"m={r.subdivisions}" for r in rows[-2:] if not r.sup_error)
            + ", so no order of convergence can be observed",
            file=sys.stderr,
        )
        return EXIT_FAIL
    order = expected_order(args.p, args.k)
    lo, hi = order + EOC_BAND[0], order + EOC_BAND[1]
    ok = lo <= final <= hi
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

    def shared(*names: str, k_help: str = "polynomial order") -> list:
        """A subcommand's parent parser: the integer flags ``names``, then ``--out``."""
        parent = argparse.ArgumentParser(add_help=False)
        helps = {"--n": "ambient dimension", "--p": "form degree", "--k": k_help}
        for name in names:
            parent.add_argument(name, type=int, required=True, help=helps[name])
        parent.add_argument("--out", help="write CSV here instead of stdout")
        return [parent]

    sub.add_parser(
        "dims", parents=shared("--n", "--k"), help="dimension table of the discrete spaces"
    ).set_defaults(func=_cmd_dims)
    sub.add_parser(
        "check-unisolvence",
        parents=shared("--n", "--p", "--k"),
        help="certify invertibility of the reference DOF matrix",
    ).set_defaults(func=_cmd_check_unisolvence)
    sub.add_parser(
        "dof-matrix",
        parents=shared("--n", "--p", "--k"),
        help="dump the reference DOF matrix as CSV",
    ).set_defaults(func=_cmd_dof_matrix)

    caps = ", ".join(f"1..{k} on a {n}D mesh" for n, k in LIMITS["interpolate"].items())
    k_help = (
        f"polynomial order: {caps}; other dimensions are refused, and these caps stay "
        "until the supported envelope is tabulated per (n, k)"
    )
    p = sub.add_parser(
        "interpolate",
        parents=shared("--p", "--k", k_help=k_help),
        help="evaluate the interpolant of a cochain on a mesh",
    )
    p.add_argument("--mesh", required=True, help="mesh JSON file")
    p.add_argument("--cochain", required=True, help="cochain CSV file (id,value)")
    p.add_argument("--points", help="CSV of evaluation points (default: cell centres)")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser(
        "convergence",
        parents=shared("--n", "--p", "--k"),
        help="interpolation-error study on structured meshes",
    )
    p.add_argument("--m-list", required=True, help="comma-separated subdivision counts")
    p.add_argument("--shear", type=float, default=0.0, help="mesh shear factor")
    p.add_argument("--samples", type=int, default=64, help="evaluation points per cell")
    p.add_argument("--quad-order", type=int, default=None, help="Gauss points per axis")
    p.add_argument(
        "--form",
        default=None,
        help=f"catalog form id (default sin<n>d-<p>; known: {', '.join(list_forms())})",
    )
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "n" in args:
            _check_limits(args, args.n)
        return args.func(args)
    except OSError as exc:
        # a file that cannot be read or written: name it, not only the errno
        message = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:  # MeshValidationError is a ValueError
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
