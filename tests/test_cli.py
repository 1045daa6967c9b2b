"""Command-line interface: exit codes and output formats."""

import argparse
import ast
import subprocess
import sys
from math import log
from pathlib import Path

import numpy as np
import pytest

from cubeforms import cli
from cubeforms.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main, run_convergence
from cubeforms.dof import assemble_dof_matrix
from cubeforms.interp import Cochain, de_rham
from cubeforms.catalog import get_form
from cubeforms.mesh import refine, save_mesh, structured_mesh
from cubeforms.smallcubes import small_cube_count

from helpers import dense_dof_matrix, sup_errors_by_cell


def test_dims_golden_table(capsys):
    assert main(["dims", "--n", "1", "--k", "1"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [
        "p,enumerated,formula,match",
        "0,2,2,true",
        "1,1,1,true",
        "total,3,3,true",
    ]


def test_dims_to_file(tmp_path):
    path = tmp_path / "dims.csv"
    assert main(["dims", "--n", "3", "--k", "2", "--out", str(path)]) == EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,enumerated,formula,match"
    assert lines[-1] == f"total,125,125,true"
    assert len(lines) == 2 + 3 + 1  # header, p-rows, total


def test_dims_rejects_out_of_range(capsys):
    assert main(["dims", "--n", "9", "--k", "1"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n,k", [(5, 7), (6, 4)])
def test_dims_caps_k_by_the_small_cube_count(n, k, capsys):
    # (2k + 1)^n small cubes in all: the cap is the largest k with at most 500,000
    assert (2 * k + 1) ** n > 500_000 >= (2 * k - 1) ** n
    assert cli.LIMITS["dims"][n] == k - 1
    assert main(["dims", "--n", str(n), "--k", str(k)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --k must be in 1..{k - 1}, got {k}\n"


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_check_unisolvence_report(tmp_path, capsys):
    path = tmp_path / "u.csv"
    code = main(
        ["check-unisolvence", "--n", "2", "--p", "1", "--k", "2", "--out", str(path)]
    )
    assert code == EXIT_OK
    assert "unisolvent: yes" in capsys.readouterr().err
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "block,size,condition"
    assert lines[1].startswith("d0,6,")
    assert lines[2].startswith("d1,6,")
    assert lines[-1].startswith("all,12,")


def test_dof_matrix_output_matches_library(capsys):
    assert main(["dof-matrix", "--n", "2", "--p", "1", "--k", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "row,col,value"
    dm = assemble_dof_matrix(2, 1, 2)
    dense = dense_dof_matrix(dm)
    expected_entries = sum(
        (sl.stop - sl.start) ** 2 for sl in dm.blocks.values()
    )
    assert len(lines) - 1 == expected_entries
    for line in lines[1:]:
        r, c, v = line.split(",")
        assert float(v) == pytest.approx(dense[int(r), int(c)], abs=1e-11)


def test_interpolate_round_trip(tmp_path, capsys):
    mesh = structured_mesh(2, 1)
    mesh_path = tmp_path / "mesh.json"
    save_mesh(mesh, mesh_path)
    refined = refine(mesh, 1, degrees=(1,))
    cochain = de_rham(get_form("linear2d-1"), refined)
    cochain_path = tmp_path / "cochain.csv"
    cochain.to_csv(cochain_path)
    points_path = tmp_path / "points.csv"
    points_path.write_text("x0,x1\n0.25,0.75\n0.5,0.5\n")
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "1",
            "--k", "1",
            "--points", str(points_path),
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x0,x1,w0,w1"
    x0, x1, w0, w1 = (float(v) for v in lines[1].split(","))
    assert (x0, x1) == (0.25, 0.75)
    assert w0 == pytest.approx(0.75, abs=1e-12)  # form is x1 dx0
    assert w1 == pytest.approx(0.0, abs=1e-12)


def test_interpolate_defaults_to_cell_centers(tmp_path, capsys):
    mesh = structured_mesh(2, 2)
    mesh_path = tmp_path / "mesh.json"
    save_mesh(mesh, mesh_path)
    refined = refine(mesh, 1, degrees=(0,))
    cochain = de_rham(get_form("sin2d-0"), refined)
    cochain_path = tmp_path / "cochain.csv"
    cochain.to_csv(cochain_path)
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "0",
            "--k", "1",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x0,x1,w"
    assert len(lines) == 1 + mesh.n_cells


def test_interpolate_rejects_wrong_cochain_length(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(2, 1), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    Cochain(1, np.zeros(3)).to_csv(cochain_path)
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "1",
            "--k", "1",
        ]
    )
    assert code == EXIT_USAGE
    assert "cochain has 3 values" in capsys.readouterr().err


def test_interpolate_rejects_cochain_row_without_value(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(2, 1), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    cochain_path.write_text("id,value\n0,1.0\n1\n2,0.5\n3,0.0\n")
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "0",
            "--k", "1",
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{cochain_path} line 3" in err


def test_interpolate_rejects_a_malformed_points_row(tmp_path, capsys):
    mesh = structured_mesh(2, 1)
    mesh_path = tmp_path / "mesh.json"
    save_mesh(mesh, mesh_path)
    refined = refine(mesh, 1, degrees=(1,))
    cochain_path = tmp_path / "cochain.csv"
    de_rham(get_form("linear2d-1"), refined).to_csv(cochain_path)
    points_path = tmp_path / "points.csv"
    points_path.write_text("x0,x1\n0.5,0.5\n0.25,oops\n0.75,0.75\n")
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "1",
            "--k", "1",
            "--points", str(points_path),
        ]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: points file {points_path} line 3:")


@pytest.mark.parametrize("first", ["0.5,oops", "-1,y", "nan,x"])
def test_interpolate_reads_a_numeric_first_points_row_as_data(tmp_path, capsys, first):
    # a first line is a header only if its first field is not a number
    mesh = structured_mesh(2, 1)
    mesh_path = tmp_path / "mesh.json"
    save_mesh(mesh, mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    de_rham(get_form("linear2d-1"), refine(mesh, 1, degrees=(1,))).to_csv(cochain_path)
    points_path = tmp_path / "points.csv"
    points_path.write_text(f"{first}\n0.25,0.75\n")
    argv = ["interpolate", "--mesh", str(mesh_path), "--cochain", str(cochain_path)]
    code = main(argv + ["--p", "1", "--k", "1", "--points", str(points_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    want = f"error: points file {points_path} line 1: expected numbers, got {first.split(',')}"
    assert captured.err.startswith(want)


def test_interpolate_rejects_non_finite_cochain_value(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(2, 1), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    cochain_path.write_text("id,value\n0,1.0\n1,0.5\n2,nan\n3,0.0\n")
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "0",
            "--k", "1",
        ]
    )
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cochain id 2 has a non-finite value (nan)\n"


def test_interpolate_names_a_missing_mesh_or_cochain_file(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(2, 1), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    Cochain(0, np.zeros(4)).to_csv(cochain_path)
    missing = tmp_path / "nope"
    for mesh, cochain in ((missing, cochain_path), (mesh_path, missing)):
        argv = ["interpolate", "--mesh", str(mesh), "--cochain", str(cochain)]
        assert main(argv + ["--p", "0", "--k", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {missing}: No such file or directory\n"


def test_an_unwritable_out_is_named(tmp_path, capsys):
    # --out inside a regular file: the directory does not exist as one
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "x.csv"
    assert main(["dims", "--n", "2", "--k", "1", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {out}: Not a directory\n"


def test_interpolate_rejects_singular_3d_order(tmp_path, capsys):
    # the library interpolates 3D at k = 7 (p = 0 included), but --k stops at 6 there
    # until the envelope is tabulated per (n, k)
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(3, 1), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    Cochain(0, np.zeros(8**3)).to_csv(cochain_path)
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "0",
            "--k", "7",
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err == "error: --k must be in 1..6, got 7\n"


def test_interpolate_caps_3d_order_at_six(tmp_path, capsys):
    # the cap is the command's own, not the library's, and it is checked before
    # any interpolation
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(3, 1, shear=0.3), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    Cochain(3, np.zeros(small_cube_count(3, 3, 7))).to_csv(cochain_path)
    argv = ["interpolate", "--mesh", str(mesh_path), "--cochain", str(cochain_path)]
    assert main(argv + ["--p", "3", "--k", "7"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --k must be in 1..6, got 7\n"


def test_interpolate_caps_4d_order_at_four(tmp_path, capsys):
    # the identity errors of (n, p, k) = (4, 3, 5) (1.1e-11 at seed 0) and of 4D
    # k = 6 (3.0e-10 worst over p) meet the default tolerance, but the cap stays
    # at four until the envelope is tabulated per (n, k)
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(4, 1, shear=0.3), mesh_path)
    argv = ["interpolate", "--mesh", str(mesh_path), "--p", "3"]
    for k in (5, 6):
        cochain_path = tmp_path / f"cochain{k}.csv"
        Cochain(3, np.zeros(small_cube_count(4, 3, k))).to_csv(cochain_path)
        assert main(argv + ["--cochain", str(cochain_path), "--k", str(k)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --k must be in 1..4, got {k}\n"
    cochain_path = tmp_path / "cochain4.csv"
    Cochain(3, np.ones(small_cube_count(4, 3, 4))).to_csv(cochain_path)
    assert main(argv + ["--cochain", str(cochain_path), "--k", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("x0,x1,x2,x3,") and len(lines) == 2


def test_interpolate_refuses_meshes_past_4d(tmp_path, capsys):
    # no interpolation error was measured past 4D; the mesh is checked before any work
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(5, 1), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    Cochain(2, np.ones(small_cube_count(5, 2, 4))).to_csv(cochain_path)
    argv = ["interpolate", "--mesh", str(mesh_path), "--cochain", str(cochain_path)]
    assert main(argv + ["--p", "2", "--k", "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mesh dimension must be in 1..4, got 5\n"


def test_interpolate_accepts_order_eight_in_2d(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(structured_mesh(2, 1, shear=0.3), mesh_path)
    cochain_path = tmp_path / "cochain.csv"
    Cochain(1, np.ones(small_cube_count(2, 1, 8))).to_csv(cochain_path)
    argv = ["interpolate", "--mesh", str(mesh_path), "--cochain", str(cochain_path)]
    assert main(argv + ["--p", "1", "--k", "8"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x0,x1,w0,w1" and len(lines) == 2


def test_interpolate_rejects_malformed_mesh(tmp_path, capsys):
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text('{"dimension": 2}')
    cochain_path = tmp_path / "cochain.csv"
    cochain_path.write_text("0,1.0\n")
    code = main(
        [
            "interpolate",
            "--mesh", str(mesh_path),
            "--cochain", str(cochain_path),
            "--p", "0",
            "--k", "1",
        ]
    )
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_convergence_passes_for_first_order(tmp_path, capsys):
    path = tmp_path / "conv.csv"
    code = main(
        [
            "convergence",
            "--n", "2",
            "--p", "1",
            "--k", "1",
            "--m-list", "4,8",
            "--out", str(path),
        ]
    )
    assert code == EXIT_OK
    assert "final EOC" in capsys.readouterr().err
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,h,sup_error,eoc"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4" and first[3] == ""  # no rate for the first row
    final = lines[2].split(",")
    assert 0.7 <= float(final[3]) <= 1.5


def test_convergence_expects_order_k_plus_one_at_degree_zero(capsys):
    # vertex interpolation is Lagrange Q_k interpolation: its sup error falls as
    # h^(k+1), so a resolved degree-0 rate passes the band around k + 1
    assert [cli.expected_order(p, 3) for p in range(4)] == [4, 3, 3, 3]
    code = main(
        ["convergence", "--n", "2", "--p", "0", "--k", "1", "--m-list", "4,8,16"]
    )
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "final EOC 1.95" in err and "expected within [1.70, 2.50]: ok" in err


def test_convergence_flags_a_rate_outside_the_expected_band(capsys):
    # one cell and then four do not resolve the degree-0 rate at k = 2, so the
    # observed order falls far below k + 1 and the run fails
    code = main(["convergence", "--n", "2", "--p", "0", "--k", "2", "--m-list", "1,2"])
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert "final EOC 0.8586, expected within [2.70, 3.50]: OUT OF RANGE" in err


def test_convergence_refuses_one_dimension(capsys):
    # the catalog has no 1-D form, so the limits table starts at 2D
    argv = ["convergence", "--n", "1", "--p", "1", "--k", "2", "--m-list", "2,4"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --n must be in 2..3, got 1\n"


def test_convergence_rejects_bad_m_lists(capsys):
    assert (
        main(["convergence", "--n", "2", "--p", "1", "--k", "1", "--m-list", "4,x"])
        == EXIT_USAGE
    )
    assert (
        main(["convergence", "--n", "2", "--p", "1", "--k", "1", "--m-list", "4"])
        == EXIT_USAGE
    )
    err = capsys.readouterr().err
    assert "comma-separated" in err
    assert "at least two" in err


def test_convergence_rejects_repeated_mesh_sizes(capsys):
    argv = ["convergence", "--n", "2", "--p", "1", "--k", "1", "--m-list", "2,2"]
    assert main(argv) == EXIT_USAGE
    assert "error: mesh sizes must be distinct, got [2, 2]" in capsys.readouterr().err


def test_convergence_with_zero_error_has_no_order(capsys):
    # every discrete space reproduces the linear form exactly
    argv = ["convergence", "--n", "2", "--p", "1", "--k", "1", "--m-list", "2,4"]
    assert main(argv + ["--form", "linear2d-1"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["2,0.5,0.0,", "4,0.25,0.0,"]
    assert "final EOC undefined" in err and "m=2 and m=4" in err


@pytest.mark.parametrize(
    "n,p,k,m_list,shear",
    [
        (2, 1, 2, [2, 4, 8], 0.5),
        (2, 0, 3, [3, 5], 0.0),
        (3, 1, 2, [2, 3, 4], 0.3),
        (3, 2, 1, [2, 4], 0.3),
    ],
)
def test_convergence_matches_per_cell_oracle(n, p, k, m_list, shear):
    rows = run_convergence(n, p, k, m_list, shear=shear)
    want = sup_errors_by_cell(n, p, k, m_list, shear=shear)
    for row, err in zip(rows, want):
        assert abs(row.sup_error - err) <= 1e-12 * err


# every degree, straight and sheared: 2D at k <= 4 and 3D at k <= 3, finer at 3D k = 1,
# whose coarse meshes lag (p = 0 reads 1.74 on m = 2, 4, 8 against a band edge of 1.70);
# 3D k = 4 is left out, as its analytic de_rham at the default rule takes 1-2 s a case
_EVERY_DEGREE = [
    (n, p, k, m_list, shear)
    for n, ks in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)))
    for k in ks
    for m_list in [[4, 8, 16] if n == 2 or k == 1 else [2, 4, 8]]
    for p in range(n + 1)
    for shear in (0.0, 0.3)
]


@pytest.mark.parametrize(
    "n,p,k,m_list,shear",
    _EVERY_DEGREE,
    ids=[f"{n}-{p}-{k}-m{m[0]}-{shear}" for n, p, k, m, shear in _EVERY_DEGREE],
)
def test_convergence_holds_the_expected_order_at_every_degree(n, p, k, m_list, shear):
    order = cli.expected_order(p, k)
    eoc = run_convergence(n, p, k, m_list, shear=shear)[-1].eoc
    assert eoc is not None and order - 0.3 <= eoc <= order + 0.5, eoc


def test_convergence_prints_the_oracle_order(capsys):
    argv = ["convergence", "--n", "3", "--p", "1", "--k", "2", "--m-list", "2,4"]
    assert main(argv + ["--shear", "0.3"]) == EXIT_OK
    e2, e4 = sup_errors_by_cell(3, 1, 2, [2, 4], shear=0.3)
    assert f"final EOC {log(e2 / e4) / log(2):.4f}," in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_convergence_rejects_nonpositive_samples(capsys, samples):
    argv = ["convergence", "--n", "2", "--p", "1", "--k", "1", "--m-list", "2,4"]
    assert main(argv + ["--samples", samples]) == EXIT_USAGE
    assert "error: samples must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [2.5, 4.0, True])
def test_run_convergence_rejects_non_integer_samples(samples, monkeypatch):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before samples was checked")

    monkeypatch.setattr(cli, "structured_mesh", no_mesh)
    with pytest.raises(ValueError, match=f"^samples must be an integer, got {samples!r}$"):
        run_convergence(2, 1, 1, [2, 4], samples=samples)
    monkeypatch.undo()
    assert len(run_convergence(2, 1, 1, [2], samples=np.int64(4))) == 1


def test_convergence_rejects_unknown_form(capsys):
    code = main(
        [
            "convergence",
            "--n", "2",
            "--p", "1",
            "--k", "1",
            "--m-list", "2,4",
            "--form", "mystery-9",
        ]
    )
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_subcommand_options_and_interpolate_caps():
    sub = next(
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert options == {
        "dims": {"--n", "--k", "--out"},
        "check-unisolvence": {"--n", "--p", "--k", "--out"},
        "dof-matrix": {"--n", "--p", "--k", "--out"},
        "interpolate": {"--mesh", "--cochain", "--p", "--k", "--points", "--out"},
        "convergence": {"--n", "--p", "--k", "--m-list", "--shear", "--samples"}
        | {"--quad-order", "--form", "--out"},
    }
    help_text = " ".join(sub.choices["interpolate"].format_help().split())
    for n, k in cli.LIMITS["interpolate"].items():
        assert f"1..{k} on a {n}D mesh" in help_text


def test_cli_imports_no_private_names():
    # the CLI is a client of the library's public surface
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "cubeforms")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "cubeforms.cli", "dims", "--n", "1", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "total,5,5,true"
