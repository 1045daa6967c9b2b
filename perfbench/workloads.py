"""The three 3D workloads, driven through cubeforms' public API.

Each workload has a one-time ``setup`` (timed as ``setup_s``), a
``prepare`` step that draws its inputs from the seed (untimed), and a
``run_round`` that is repeated for the length of the run.  Every round
replays the same inputs, so its work and its counts repeat exactly.
Work a user of the library would do sits inside ``clock.timed()``;
the output checks sit outside it.  README.md says why each workload
exists and which mechanisms it exercises or bypasses.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations, product
from math import log

import numpy as np

# Library calls go through module attributes (cf.refine, dof.reference_solver)
# so that the tracer, which patches those attributes, sees them.
import cubeforms as cf
from cubeforms import dof, forms

DIMENSION = 3
SHEAR = 0.3
FORM_ID = "sin3d-1"
DIRS = list(combinations(range(DIMENSION), 1))

# The 64-point cell-centred reference grid that `cubeforms convergence`
# samples every cell on (samples=64 gives four points per axis).
_AXIS = (2.0 * np.arange(4) + 1.0) / 8.0
REF_GRID = np.array(list(product(_AXIS, repeat=DIMENSION)))

# -- tolerances of the output checks -------------------------------------

#: Window for the final observed order, as `cubeforms convergence` uses.
EOC_WINDOW = (-0.3, 0.5)
#: Round trip de_rham(interpolate(x)) = x; verify_identities' default tol,
#: taken relative to the largest cochain value when that exceeds one.
ROUND_TRIP_TOL = 1e-9
#: Unpinned against pinned evaluation: the same arithmetic on other batches.
PIN_RTOL = 1e-12
#: Identity errors relative to the size of the interpolated fields.  The
#: library's own check uses an absolute 1e-9 (see README.md, known defect).
IDENTITY_REL_TOL = 1e-9
#: An interpolant of the unit-amplitude sample form must stay this close
#: to it; anything near 1 means the output is wrong, not merely coarse.
SUP_TOL = 0.05


class Checks:
    """Output checks, each counted once per run.

    Every round replays the same inputs, so a later round that repeats a
    check asks the same question again: it is one check, and it fails if
    it fails in any round.  ``attempted`` and ``failed`` therefore do not
    depend on how many rounds fit into the run.  Failures are kept with
    the number of rounds they showed in; a known library defect is kept
    apart from the others.
    """

    def __init__(self) -> None:
        self.passed: dict[str, bool] = {}
        self.failures: Counter[str] = Counter()
        self.known_defects: Counter[str] = Counter()

    def check(self, ok, what: str, detail: str = "", known_defect: bool = False) -> None:
        self.passed[what] = self.passed.get(what, True) and bool(ok)
        if not ok:
            message = f"{what}: {detail}" if detail else what
            (self.known_defects if known_defect else self.failures)[message] += 1

    @property
    def attempted(self) -> int:
        return len(self.passed)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.passed.values())


class Clock:
    """Wall time of one round's timed sections, plus evaluate latencies."""

    def __init__(self, tracer=None, run_id: int = 0) -> None:
        self.run_id = run_id
        self.total = 0.0
        self.latencies: list[float] = []
        self._tracer = tracer

    @contextmanager
    def timed(self):
        if self._tracer:
            self._tracer.install(self.run_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.total += end - start
            if self._tracer:
                self._tracer.uninstall()
                self._tracer.record_section(start, end)

    def evaluate(self, form, points, cell=None):
        """``form.evaluate`` with its latency recorded."""
        start = time.perf_counter()
        values = form.evaluate(points, cell=cell)
        self.latencies.append(time.perf_counter() - start)
        return values


def _max_diff(got, want, scale=1.0) -> float:
    return max(float(np.abs(np.asarray(got[d]) - scale * np.asarray(want[d])).max()) for d in DIRS)


def check_complex(checks: Checks, refined, subdivisions: int) -> None:
    """Global counts against the closed form, and d∘d = 0 in integers.

    A structured m-grid refined at order k is the order m·k refinement
    of one cell, so every global count is small_cube_count(n, p, m·k).
    """
    k = refined.order
    for p in refined.degrees:
        expected = cf.small_cube_count(DIMENSION, p, subdivisions * k)
        checks.check(refined.count(p) == expected, f"global {p}-cube count at m={subdivisions}")
    for p in refined.degrees:
        if p + 1 in refined.degrees and p + 2 in refined.degrees:
            first = refined.coboundary_matrix(p).astype(np.int64)
            second = refined.coboundary_matrix(p + 1).astype(np.int64)
            dd = (second @ first).tocsr()
            dd.eliminate_zeros()
            checks.check(dd.nnz == 0, f"d∘d = 0 from degree {p} at m={subdivisions}")


def check_small_complex(checks: Checks, order: int) -> None:
    """The complex checks on an all-degree refinement of the m=2 mesh.

    d∘d needs three consecutive degrees, which the k=2 workloads do not
    refine, so they check the complex on this small mesh instead.
    """
    refined = cf.refine(cf.structured_mesh(DIMENSION, 2, shear=SHEAR), order)
    check_complex(checks, refined, 2)


class Workload:
    name = ""
    #: Rounds a run makes at least, so that every check is made.
    min_rounds = 1
    #: Cold set-ups a run times, its own and the rest in fresh processes.
    setup_samples = 5

    def __init__(self, seed: int, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks
        self.form = cf.get_form(FORM_ID)
        #: Sup error of the interpolant against the form, set by the run.
        self.sup_error: float | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Draw the seeded inputs; not part of any timing."""

    def run_round(self, clock: Clock) -> None:
        """One round of work, with its output checks."""
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks made once per run, after the last round."""


class Study(Workload):
    """The convergence study behind `cubeforms convergence`, n=3 p=1 k=2."""

    name = "study-3d"
    order = 2
    subdivisions = (4, 8, 12)
    # The set-up takes well under 0.1 s, so more samples cost little.
    setup_samples = 9

    def setup(self) -> None:
        dof.reference_solver(DIMENSION, 1, self.order)
        forms.basis_grid_stack(DIMENSION, 1, self.order)

    def run_round(self, clock: Clock) -> None:
        errors = []
        for m in self.subdivisions:
            with clock.timed():
                refined = cf.refine(
                    cf.structured_mesh(DIMENSION, m, shear=SHEAR), self.order, degrees=(1,)
                )
                approx = cf.interpolate(cf.de_rham(self.form, refined), refined)
                err = 0.0
                for c in range(refined.mesh.n_cells):
                    phys = refined.maps[c](REF_GRID)
                    got = clock.evaluate(approx, phys, cell=c)
                    err = max(err, _max_diff(got, self.form.evaluate(phys)))
            errors.append(err)
            check_complex(self.checks, refined, m)
        h = [1.0 / m for m in self.subdivisions]
        eoc = log(errors[-2] / errors[-1]) / log(h[-2] / h[-1])
        lo, hi = (self.order + w for w in EOC_WINDOW)
        self.checks.check(lo <= eoc <= hi, f"final EOC within [{lo}, {hi}]", f"{eoc:.3f}")
        self.sup_error = errors[-1]

    def final_checks(self) -> None:
        check_small_complex(self.checks, self.order)


class Probe(Workload):
    """A time-stepper: one mesh, a new cochain per step, fixed unpinned probes."""

    name = "probe-3d"
    order = 2
    subdivisions = 8
    amplitudes = 10
    batches = 10
    min_rounds = max(amplitudes, batches)
    batch_points = 200
    # Reference coordinates keep this far from the faces, so the cell that
    # generated a probe point is the only cell containing it.
    margin = 0.02

    def setup(self) -> None:
        mesh = cf.structured_mesh(DIMENSION, self.subdivisions, shear=SHEAR)
        self.refined = cf.refine(mesh, self.order, degrees=(1,))
        dof.reference_solver(DIMENSION, 1, self.order)
        forms.basis_grid_stack(DIMENSION, 1, self.order)
        # The stepper's field is a seeded multiple of this cochain per step.
        self.base = cf.de_rham(self.form, self.refined)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        maps = self.refined.maps
        shape = (self.batches, self.batch_points)
        self.scales = rng.uniform(0.5, 2.0, self.amplitudes)
        self.cells = rng.integers(0, len(maps), shape)
        ref = self.margin + (1 - 2 * self.margin) * rng.random(shape + (DIMENSION,))
        origins = np.array([m.origin for m in maps])
        linears = np.array([m.linear for m in maps])
        self.points = origins[self.cells] + np.einsum(
            "...ij,...j->...i", linears[self.cells], ref
        )
        self.exact = self.form.evaluate(self.points)
        self.step = 0

    def run_round(self, clock: Clock) -> None:
        """One step: interpolate the step's cochain, evaluate every probe batch."""
        step = self.step % self.amplitudes
        amplitude = self.scales[step]
        checked = self.step % self.batches
        self.step += 1
        cochain = cf.Cochain(1, amplitude * self.base.values)
        with clock.timed():
            approx = cf.interpolate(cochain, self.refined)
            values = [clock.evaluate(approx, pts) for pts in self.points]
        self._check_pinned(approx, values[checked], checked)
        err = max(
            _max_diff(got, {d: self.exact[d][b] for d in DIRS}, amplitude)
            for b, got in enumerate(values)
        ) / amplitude
        self.last = amplitude, cochain, approx
        self.checks.check(
            err <= SUP_TOL, f"probe sup error at most {SUP_TOL}, amplitude {step}", f"{err:.3e}"
        )

    def _check_pinned(self, approx, unpinned, batch: int) -> None:
        pts, cells = self.points[batch], self.cells[batch]
        pinned = {d: np.empty(len(pts)) for d in DIRS}
        for c in np.unique(cells):
            idx = cells == c
            got = approx.evaluate(pts[idx], cell=int(c))
            for d in DIRS:
                pinned[d][idx] = got[d]
        scale = max(float(np.abs(pinned[d]).max()) for d in DIRS)
        ok = all(
            np.allclose(unpinned[d], pinned[d], rtol=PIN_RTOL, atol=PIN_RTOL * scale)
            for d in DIRS
        )
        self.checks.check(ok, f"unpinned evaluate equals pinned on batch {batch}")

    def final_checks(self) -> None:
        amplitude, cochain, approx = self.last
        # The reported error uses every cell's grid, not the seeded probes,
        # so that it does not depend on the seed.
        self.sup_error = max(
            _max_diff(approx.evaluate(phys, cell=c), self.form.evaluate(phys), amplitude)
            for c, phys in enumerate(m(REF_GRID) for m in self.refined.maps)
        ) / amplitude
        back = cf.de_rham(approx, self.refined)
        err = float(np.abs(back.values - cochain.values).max())
        tol = ROUND_TRIP_TOL * max(1.0, float(np.abs(cochain.values).max()))
        self.checks.check(err <= tol, f"round trip error at most {tol:.1e}", f"{err:.3e}")
        check_complex(self.checks, self.refined, self.subdivisions)
        check_small_complex(self.checks, self.order)


class HighOrder(Workload):
    """The k=4 reference layer under verify_identities on a 2x2x2 mesh."""

    name = "highorder-3d"
    order = 4
    subdivisions = 2
    degrees = (1, 2, 3)
    verified = (1, 2)
    # Each cold set-up takes about 4 s, so fewer samples keep a run short.
    setup_samples = 3

    def setup(self) -> None:
        mesh = cf.structured_mesh(DIMENSION, self.subdivisions, shear=SHEAR)
        self.refined = cf.refine(mesh, self.order, degrees=self.degrees)
        for p in self.degrees:
            dof.reference_solver(DIMENSION, p, self.order)
            forms.basis_grid_stack(DIMENSION, p, self.order)
        for p in self.verified:
            self.refined.coboundary_matrix(p)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        refined = self.refined

        def size(cochain):
            field = cf.interpolate(cochain, refined)
            return max(
                float(np.abs(np.asarray(v)).max())
                for c in range(refined.mesh.n_cells)
                for v in field.evaluate(refined.maps[c](REF_GRID), cell=c).values()
            )

        # Size of the fields verify_identities compares at degree p: the
        # interpolants of a standard normal p-cochain, the distribution it
        # draws from, and of its coboundary.
        self.scale = {}
        for p in self.verified:
            x = cf.Cochain(p, rng.standard_normal(refined.count(p)))
            self.scale[p] = max(size(x), size(cf.coboundary(x, refined)))
        self.verify_seed = {p: int(rng.integers(2**32)) for p in self.verified}

    def run_round(self, clock: Clock) -> None:
        refined = self.refined
        with clock.timed():
            reports = [
                cf.verify_identities(refined, p, rng=self.verify_seed[p]) for p in self.verified
            ]
            approx = cf.interpolate(cf.de_rham(self.form, refined), refined)
            got = []
            for c in range(refined.mesh.n_cells):
                phys = refined.maps[c](REF_GRID)
                got.append((phys, clock.evaluate(approx, phys, cell=c)))
        for rep in reports:
            errors = [rep.round_trip_error, rep.reconstruction_error, rep.commutation_error or 0.0]
            self.checks.check(
                rep.passed,
                f"verify_identities(p={rep.degree}).passed at tol={rep.tolerance:g}",
                f"errors {', '.join(f'{e:.2e}' for e in errors)}",
                known_defect=True,
            )
            tol = IDENTITY_REL_TOL * self.scale[rep.degree]
            self.checks.check(
                max(errors) <= tol,
                f"identity errors at p={rep.degree} at most {tol:.1e}",
                f"{max(errors):.3e}",
            )
        err = max(_max_diff(values, self.form.evaluate(phys)) for phys, values in got)
        self.checks.check(err <= SUP_TOL, f"order-4 sup error at most {SUP_TOL}", f"{err:.3e}")
        self.sup_error = err

    def final_checks(self) -> None:
        check_complex(self.checks, self.refined, self.subdivisions)


WORKLOADS = {w.name: w for w in (Study, Probe, HighOrder)}
