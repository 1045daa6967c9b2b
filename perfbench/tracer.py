"""Span tracer that times cubeforms' public functions and methods from outside.

The library is not instrumented: :meth:`Tracer.install` replaces each
target function or method, wherever a cubeforms module holds a reference
to it, with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts the originals back.  A span is the tuple
``(name id, start, end, parent span, run id, extra)``; ``extra`` holds the
count taken at the boundary (points, columns, cubes) or ``None``.  Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

LAYERS = ("mesh", "smallcubes", "dof", "forms", "quadrature", "catalog", "interp")

# Modules searched for references to the targets: modules bind imported
# functions under their own names, so each binding is patched.
_MODULES = (
    "cubeforms",
    "cubeforms.catalog",
    "cubeforms.dof",
    "cubeforms.forms",
    "cubeforms.interp",
    "cubeforms.mesh",
    "cubeforms.quadrature",
    "cubeforms.smallcubes",
)


def _rows(points) -> int:
    a = np.asarray(points)
    return a.size // a.shape[-1] if a.ndim and a.shape[-1] else 1


def _refine_sizes(args, kwargs, refined):
    instances = sum(int(t.size) for t in refined.cell_tables.values())
    return instances, sum(refined.count(p) for p in refined.degrees)


def _solve_sizes(args, kwargs, result):
    values = np.asarray(args[1])
    return (values.shape[1] if values.ndim == 2 else 1), args[0].matrix.size


def _evaluate_points(args, kwargs, result):
    return _rows(args[1])


def _piecewise_points(args, kwargs, result):
    cell = kwargs.get("cell", args[2] if len(args) > 2 else None)
    return _rows(args[1]), cell is not None


def _identity_errors(args, kwargs, report):
    return (
        report.round_trip_error,
        report.reconstruction_error,
        report.commutation_error or 0.0,
    )


# (layer, defining module, qualified name, count taken from the call)
TARGETS = (
    ("mesh", "mesh", "structured_mesh", None),
    ("mesh", "mesh", "CubicalMesh.__post_init__", None),
    ("mesh", "mesh", "refine", _refine_sizes),
    ("mesh", "mesh", "RefinedMesh.coboundary_matrix", "nnz"),
    ("mesh", "mesh", "AffineMap.pull_to_reference", _evaluate_points),
    ("mesh", "mesh", "PulledBackForm.evaluate", _evaluate_points),
    ("smallcubes", "smallcubes", "enumerate_small_cubes", None),
    ("smallcubes", "smallcubes", "small_cube_from_geometry", None),
    ("dof", "dof", "assemble_dof_matrix", None),
    ("dof", "dof", "reference_solver", None),
    ("dof", "dof", "ReferenceSolver.solve", _solve_sizes),
    ("forms", "forms", "basis_grid_stack", None),
    ("forms", "forms", "PolyForm.__post_init__", None),
    ("forms", "forms", "PolyForm.evaluate", _evaluate_points),
    ("forms", "forms", "exterior_derivative", None),
    # Every analytic form the workloads integrate comes from the catalog.
    ("catalog", "forms", "AnalyticForm.evaluate", _evaluate_points),
    ("quadrature", "quadrature", "gauss_unit_cube", None),
    ("interp", "interp", "de_rham", None),
    ("interp", "interp", "interpolate", None),
    ("interp", "interp", "PiecewiseForm.evaluate", _piecewise_points),
    ("interp", "interp", "coboundary", None),
    ("interp", "interp", "verify_identities", _identity_errors),
)


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.sections: list[tuple[int, float, float]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._matrices: dict[int, object] = {}
        self._columns = None
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, module, qualname, count in TARGETS:
            self._prepare(layer, importlib.import_module(f"cubeforms.{module}"), qualname, count)

    def _prepare(self, layer, module, qualname, count) -> None:
        owner_name, _, attr = qualname.rpartition(".")
        name_id = len(self.names)
        self.names.append(f"{layer}:{qualname}")
        if count == "nnz":
            count = self._new_matrix_nnz
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, self._wrap(name_id, original, count)))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name_id, original, count)
        for mod_name in _MODULES:
            mod = importlib.import_module(mod_name)
            for key, value in vars(mod).items():
                if value is original:
                    self._patches.append((mod, key, original, wrapper))

    def _new_matrix_nnz(self, args, kwargs, matrix):
        # Coboundaries are cached per mesh; count each matrix once.  The
        # reference keeps the id from being reused within the run.
        if id(matrix) in self._matrices:
            return 0
        self._matrices[id(matrix)] = matrix
        return int(matrix.nnz)

    def _wrap(self, name_id, func, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, clock(), parent, self.run_id, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            extra = count(args, kwargs, result) if count else None
            spans[index] = (name_id, start, end, parent, self.run_id, extra)
            return result

        return wrapper

    def install(self, run_id: int) -> None:
        self.run_id = run_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def record_section(self, start: float, end: float) -> None:
        """A timed stretch of the run, during which the tracer was installed."""
        self.sections.append((self.run_id, start, end))

    # -- derived figures -------------------------------------------------

    def run_figures(self, run_id: int) -> dict[str, float]:
        """Additive per-layer figures of one run id: times, counts, parts."""
        if self._columns is None:
            ids = np.array([s[0] for s in self.spans], dtype=np.int64)
            dur = np.array([s[2] - s[1] for s in self.spans])
            parent = np.array([s[3] for s in self.spans], dtype=np.int64)
            run = np.array([s[4] for s in self.spans], dtype=np.int64)
            inner = parent >= 0
            child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
            self._columns = ids, dur, parent, run, child
        ids, dur, parent, run, child = self._columns
        mine = run == run_id
        by_name = {name: i for i, name in enumerate(self.names)}

        def sel(name):
            return mine & (ids == by_name[name])

        def total(name):
            return float(dur[sel(name)].sum())

        def calls(name):
            return int(sel(name).sum())

        def extras(name):
            return [self.spans[i][5] for i in np.nonzero(sel(name))[0]]

        refines = extras("mesh:refine")
        solves = extras("dof:ReferenceSolver.solve")
        piecewise = np.nonzero(sel("interp:PiecewiseForm.evaluate"))[0]
        unpinned = {int(i) for i in piecewise if not self.spans[i][5][1]}
        pulls = np.nonzero(sel("mesh:AffineMap.pull_to_reference"))[0]
        de_rhams = set(np.nonzero(sel("interp:de_rham"))[0].tolist())
        quad_points = 0
        for name in ("catalog:AnalyticForm.evaluate", "interp:PiecewiseForm.evaluate"):
            for i in np.nonzero(sel(name))[0]:
                if self.spans[i][3] in de_rhams:
                    extra = self.spans[i][5]
                    quad_points += extra[0] if isinstance(extra, tuple) else extra
        section_total = sum(e - s for r, s, e in self.sections if r == run_id)
        out = {
            "mesh.structured_mesh_s": total("mesh:structured_mesh"),
            "mesh.validate_s": total("mesh:CubicalMesh.__post_init__"),
            "mesh.refine_s": total("mesh:refine"),
            "mesh.cube_instances": sum(e[0] for e in refines),
            "mesh.global_cubes": sum(e[1] for e in refines),
            "mesh.coboundary_matrix_s": total("mesh:RefinedMesh.coboundary_matrix"),
            "mesh.coboundary_nnz": sum(extras("mesh:RefinedMesh.coboundary_matrix")),
            "smallcubes.enumerate_calls": calls("smallcubes:enumerate_small_cubes"),
            "smallcubes.enumerate_s": total("smallcubes:enumerate_small_cubes"),
            "smallcubes.from_geometry_calls": calls("smallcubes:small_cube_from_geometry"),
            "dof.assemble_s": total("dof:assemble_dof_matrix"),
            "dof.solver_build_s": total("dof:reference_solver"),
            "dof.solve_s": total("dof:ReferenceSolver.solve"),
            "dof.solve_calls": len(solves),
            "dof.solve_columns": sum(e[0] for e in solves),
            "forms.basis_stack_s": total("forms:basis_grid_stack"),
            "forms.polyforms_built": calls("forms:PolyForm.__post_init__"),
            "forms.polyform_eval_s": total("forms:PolyForm.evaluate"),
            "forms.polyform_eval_calls": calls("forms:PolyForm.evaluate"),
            "forms.exterior_derivative_s": total("forms:exterior_derivative"),
            "catalog.form_eval_s": total("catalog:AnalyticForm.evaluate"),
            "catalog.form_eval_points": sum(extras("catalog:AnalyticForm.evaluate")),
            "interp.de_rham_s": total("interp:de_rham"),
            "interp.quad_points": quad_points,
            "interp.interpolate_s": total("interp:interpolate"),
            "interp.evaluate_s": total("interp:PiecewiseForm.evaluate"),
            "interp.evaluate_points": sum(self.spans[i][5][0] for i in piecewise),
            "interp.pullbacks": len(pulls),
            "interp.located_points": sum(self.spans[i][5][0] for i in unpinned),
            "interp.pulled_back_points": sum(
                self.spans[i][5] for i in pulls if self.spans[i][3] in unpinned
            ),
            "interp.verify_identities_s": total("interp:verify_identities"),
            "trace.outside_s": section_total - float(dur[mine & (parent < 0)].sum()),
            "trace.section_s": section_total,
            "trace.spans": int(mine.sum()),
        }
        self_time = dur - child
        layer_of = np.array([n.split(":", 1)[0] for n in self.names])[ids]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_time[mine & (layer_of == layer)].sum())
        return out

    def run_extremes(self, run_id: int) -> dict[str, float]:
        """Non-additive figures of one run id: sizes and errors (maxima)."""
        picks = [s for s in self.spans if s[4] == run_id and s[5] is not None]
        solve_id = self.names.index("dof:ReferenceSolver.solve")
        verify_id = self.names.index("interp:verify_identities")
        sizes = [s[5][1] for s in picks if s[0] == solve_id]
        errors = [s[5] for s in picks if s[0] == verify_id] or [(0.0, 0.0, 0.0)]
        return {
            "dof.local_size": max(sizes, default=0),
            "interp.round_trip_err": max(e[0] for e in errors),
            "interp.reconstruction_err": max(e[1] for e in errors),
            "interp.commutation_err": max(e[2] for e in errors),
        }

    def save(self, path) -> None:
        """Write every span as columns, with the name table and sections."""
        spans = self.spans
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array([s[0] for s in spans], dtype=np.int32),
            start=np.array([s[1] for s in spans]),
            end=np.array([s[2] for s in spans]),
            parent=np.array([s[3] for s in spans], dtype=np.int64),
            run=np.array([s[4] for s in spans], dtype=np.int32),
            sections=np.array(self.sections, dtype=float).reshape(-1, 3),
        )
