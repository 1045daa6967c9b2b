"""Every public entry point, of the library and of the command line, on the smallest
valid inputs: the empty mesh and one cell for n = 1..4, at k = 1..3 and p = 0 and p = n.

Each call returns well-shaped, possibly empty, output, or raises an error that names
what is wrong.
"""

import re
from itertools import combinations

import numpy as np
import pytest

from cubeforms import (
    Cochain,
    CubicalMesh,
    coboundary,
    de_rham,
    interpolate,
    load_mesh,
    refine,
    save_mesh,
    structured_mesh,
    verify_identities,
)
from cubeforms.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main


_SIZES = [(n, k) for k in (1, 2, 3) for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("top", [False, True], ids=["p0", "pn"])
@pytest.mark.parametrize("empty", [True, False], ids=["empty", "one-cell"])
@pytest.mark.parametrize(
    "n,k", _SIZES, ids=[f"{n}" if k == 1 else f"{n}-k{k}" for n, k in _SIZES]
)
def test_every_entry_point_on_the_smallest_inputs(n, k, empty, top, tmp_path, capsys):
    p = n if top else 0
    mesh = CubicalMesh(n, np.zeros((0, n)), ()) if empty else structured_mesh(n, 1)
    refined = refine(mesh, k)
    count = refined.count(p)
    # one cell holds (k + 1)^n small 0-cubes and k^n small n-cubes
    assert count == (0 if empty else (k + 1) ** n if p == 0 else k**n)
    assert refined.owner_counts(p).shape == (count,)
    cochain = Cochain(p, np.arange(count, dtype=float))
    approx = interpolate(cochain, refined)
    np.testing.assert_allclose(de_rham(approx, refined).values, cochain.values, atol=1e-12)
    # the analytic path: an interpolant on another mesh, constant 1 on the unit cube, so
    # each small cube of side 1/k integrates to k^-p
    other = refine(structured_mesh(n, 1), 1)
    source = interpolate(Cochain(p, np.ones(other.count(p))), other)
    np.testing.assert_allclose(de_rham(source, refined).values, np.full(count, k**-p), atol=1e-12)

    combos = list(combinations(range(n), p))
    values = approx.evaluate(np.empty((0, n)))
    assert sorted(values) == combos and all(v.shape == (0,) for v in values.values())
    centre = np.full(n, 0.5)
    if empty:
        for call in (lambda: approx.evaluate(centre), lambda: mesh.locate(centre[None])):
            with pytest.raises(ValueError, match=r"^point \[[0-9., ]+\] lies in no mesh cell$"):
                call()
        with pytest.raises(ValueError, match="the mesh is empty"):
            verify_identities(refined, p)
    else:
        assert sorted(approx.evaluate(centre)) == combos
        cells, x = mesh.locate(centre[None])
        assert cells.tolist() == [0] and x.tolist() == [centre.tolist()]
        assert verify_identities(refined, p).passed

    d = approx.exterior_derivative()
    assert d.degree == p + 1
    if top:
        unrefined = f"degree {p + 1} was not refined; available: {refined.degrees}"
        for call in (lambda: de_rham(d, refined), lambda: refined.coboundary_matrix(p)):
            with pytest.raises(KeyError, match=re.escape(unrefined)):
                call()
        with pytest.raises(ValueError, match=f"has no coboundary on a {n}D mesh"):
            coboundary(cochain, refined)
    else:
        want = coboundary(cochain, refined).values
        np.testing.assert_allclose(de_rham(d, refined).values, want, atol=1e-12)
        assert refined.coboundary_matrix(p).shape == (refined.count(1), count)

    save_mesh(mesh, tmp_path / "mesh.json")
    loaded = load_mesh(tmp_path / "mesh.json")
    assert loaded.n_cells == mesh.n_cells and np.array_equal(loaded.vertices, mesh.vertices)
    cochain.to_csv(tmp_path / "cochain.csv")
    assert np.array_equal(Cochain.from_csv(tmp_path / "cochain.csv", p).values, cochain.values)

    args = ["--p", str(p), "--k", str(k)]
    files = ["--mesh", str(tmp_path / "mesh.json"), "--cochain", str(tmp_path / "cochain.csv")]
    out = tmp_path / "out.csv"
    assert main(["interpolate", *files, *args, "--out", str(out)]) == EXIT_OK
    # a header, then one row at the centre of each cell
    assert len(out.read_text().splitlines()) == 1 + mesh.n_cells
    assert main(["dims", "--n", str(n), "--k", str(k), "--out", str(out)]) == EXIT_OK
    assert main(["check-unisolvence", "--n", str(n), *args]) == EXIT_OK
    assert main(["dof-matrix", "--n", str(n), *args, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    status = main(["convergence", "--n", str(n), *args, "--m-list", "1,2", "--out", str(out)])
    err = capsys.readouterr().err
    if n in (1, 4):
        assert status == EXIT_USAGE and err == f"error: --n must be in 2..3, got {n}\n"
    else:
        # one cell is too coarse for the band, but the run completes and says so
        assert status in (EXIT_OK, EXIT_FAIL) and err.startswith("final EOC ")
