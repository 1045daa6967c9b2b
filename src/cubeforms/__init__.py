"""Tensor-product polynomial differential forms on cubical meshes."""

from .combinatorics import FaceId, MultiIndex, enumerate_faces, enumerate_multi_indices
from .smallcubes import (
    ScalingMap,
    SmallCube,
    enumerate_small_cubes,
    pave_check,
    small_cube_count,
    small_cube_from_geometry,
    small_cube_map,
)
from .forms import (
    AnalyticForm,
    PolyForm,
    basis_form,
    exterior_derivative,
    lowest_order_form,
    span_membership,
)
from .dof import (
    DofMatrix,
    UnisolvenceReport,
    assemble_dof_matrix,
    average_over_small_cube,
    check_unisolvence,
    dof_value_exact,
    integral_1d,
)
from .mesh import (
    AffineMap,
    CubicalMesh,
    MeshValidationError,
    RefinedMesh,
    load_mesh,
    refine,
    save_mesh,
    structured_mesh,
)
from .interp import (
    Cochain,
    IdentityReport,
    PiecewiseForm,
    coboundary,
    de_rham,
    interpolate,
    verify_identities,
)
from .catalog import get_form, list_forms

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AnalyticForm",
    "Cochain",
    "CubicalMesh",
    "DofMatrix",
    "FaceId",
    "IdentityReport",
    "MeshValidationError",
    "MultiIndex",
    "PiecewiseForm",
    "PolyForm",
    "RefinedMesh",
    "ScalingMap",
    "SmallCube",
    "UnisolvenceReport",
    "assemble_dof_matrix",
    "average_over_small_cube",
    "basis_form",
    "check_unisolvence",
    "coboundary",
    "de_rham",
    "dof_value_exact",
    "enumerate_faces",
    "enumerate_multi_indices",
    "enumerate_small_cubes",
    "exterior_derivative",
    "get_form",
    "integral_1d",
    "interpolate",
    "list_forms",
    "lowest_order_form",
    "load_mesh",
    "pave_check",
    "refine",
    "save_mesh",
    "small_cube_count",
    "small_cube_from_geometry",
    "small_cube_map",
    "span_membership",
    "structured_mesh",
    "verify_identities",
]
