"""Command-line interface: exit codes and output formats."""

import subprocess
import sys

import numpy as np
import pytest

from cubeforms.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from cubeforms.dof import assemble_dof_matrix
from cubeforms.interp import Cochain, de_rham
from cubeforms.catalog import get_form
from cubeforms.mesh import refine, save_mesh, structured_mesh


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
    expected_entries = sum(
        (sl.stop - sl.start) ** 2 for sl in dm.blocks.values()
    )
    assert len(lines) - 1 == expected_entries
    for line in lines[1:]:
        r, c, v = line.split(",")
        assert float(v) == pytest.approx(dm.matrix[int(r), int(c)], abs=1e-11)


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


def test_convergence_flags_degree_zero_superconvergence(capsys):
    # vertex interpolation converges one order faster than the gate
    # expects, so the check honestly reports failure once the rate is
    # resolved
    code = main(
        ["convergence", "--n", "2", "--p", "0", "--k", "1", "--m-list", "8,16"]
    )
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert "OUT OF RANGE" in err
    assert "final EOC 1.95" in err


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


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_convergence_rejects_nonpositive_samples(capsys, samples):
    argv = ["convergence", "--n", "2", "--p", "1", "--k", "1", "--m-list", "2,4"]
    assert main(argv + ["--samples", samples]) == EXIT_USAGE
    assert "error: samples must be >= 1" in capsys.readouterr().err


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


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "cubeforms.cli", "dims", "--n", "1", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "total,5,5,true"
