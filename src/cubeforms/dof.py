"""Degrees of freedom: integrals of spanning forms over small cubes.

The functional attached to a small p-cube integrates a p-form over that
cube.  It annihilates every spanning form of another direction tuple, so
the matrix of all functionals against all spanning forms is block
diagonal, and each block is the Kronecker product of two exact 1-D
tables: segment integrals F_k on spanned axes, point values P_k on fixed
axes.  :func:`dof_value_exact` computes single entries in
:class:`fractions.Fraction` arithmetic as the oracle for that product,
and :func:`check_unisolvence` certifies that each block is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, lcm

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .smallcubes import SmallCube, enumerate_small_cubes

#: Singular-value ratio below which a block counts as singular (cond * eps > 2e-6).
RANK_TOL = 1e-10

#: Relative residual bound of reference solves; stable LU stays <= 2.5e-12 (n <= 3, k <= 6).
RESIDUAL_TOL = 1e-10


@lru_cache(maxsize=None)
def integral_1d(
    fall_exp: int, rise_exp: int, fall_shift: Fraction | int, rise_shift: Fraction | int
) -> Fraction:
    """Exact value of the unit-interval integral of a shifted product.

    Computes the integral over [0, 1] of

        (rise_shift + x)^rise_exp * (fall_shift + 1 - x)^fall_exp

    by binomial expansion against the Beta integral
    i! j! / (i + j + 1)!.
    """
    if fall_exp < 0 or rise_exp < 0:
        raise ValueError(f"exponents must be nonnegative, got {fall_exp}, {rise_exp}")
    y = Fraction(fall_shift)
    z = Fraction(rise_shift)
    total = Fraction(0)
    for i in range(fall_exp + 1):
        for j in range(rise_exp + 1):
            total += (
                comb(fall_exp, i)
                * comb(rise_exp, j)
                * y ** (fall_exp - i)
                * z ** (rise_exp - j)
                * Fraction(factorial(i) * factorial(j), factorial(i + j + 1))
            )
    return total


def _shifted_product_average(
    rise: tuple[int, ...], fall: tuple[int, ...], cube: SmallCube
) -> Fraction:
    """Average over a small cube of prod_i x_i^rise_i (1 - x_i)^fall_i.

    Free axes of the cube contribute a 1-D integral through the scaling
    x = (a + t) / k; fixed axes contribute the point value at a / k.
    """
    k = cube.order
    free = set(cube.directions)
    anchors = cube.anchor_numerators
    result = Fraction(1)
    for axis in range(cube.dimension):
        r, f = rise[axis], fall[axis]
        a = anchors[axis]
        if axis in free:
            factor = integral_1d(f, r, k - 1 - a, a)
        else:
            factor = Fraction(a) ** r * Fraction(k - a) ** f
        result *= factor / Fraction(k) ** (r + f)
    return result


def average_over_small_cube(exponents, bound: int, cube: SmallCube) -> Fraction:
    """Exact average over a small cube of the degree-(bound-1) product.

    ``exponents`` gives the rising exponent e_i per axis; the falling
    exponent is bound - 1 - e_i, i.e. the average of
    prod_i x_i^e_i (1 - x_i)^(bound - 1 - e_i).
    """
    e = tuple(exponents)
    if len(e) != cube.dimension:
        raise ValueError(
            f"got {len(e)} exponents for a cube in dimension {cube.dimension}"
        )
    if any(not 0 <= ei <= bound - 1 for ei in e):
        raise ValueError(f"exponents {e} outside [0, {bound - 1}]")
    return _shifted_product_average(e, tuple(bound - 1 - ei for ei in e), cube)


def dof_value_exact(cube: SmallCube, basis: SmallCube) -> Fraction:
    """Exact integral of one spanning form over one small cube.

    Zero whenever the direction tuples differ: the inclusion of the cube
    kills every coordinate differential along its fixed axes.  Otherwise
    the spanning form's per-axis exponents are read off the generating
    cube's anchor (with the fixed-axis face factors folded in, raising
    those exponent sums from k - 1 to k) and the average is scaled by
    the cube's p-volume (1/k)^p.
    """
    if (cube.dimension, cube.degree, cube.order) != (
        basis.dimension,
        basis.degree,
        basis.order,
    ):
        raise ValueError("cube and basis generator must share dimension, degree, order")
    if cube.directions != basis.directions:
        return Fraction(0)
    k = cube.order
    free = set(basis.directions)
    rise = basis.anchor_numerators
    fall = tuple(
        (k - 1 - a) if axis in free else (k - a) for axis, a in enumerate(rise)
    )
    return _shifted_product_average(rise, fall, cube) * cube.volume


def dof_value(cube: SmallCube, basis: SmallCube) -> float:
    """Float version of :func:`dof_value_exact`."""
    return float(dof_value_exact(cube, basis))


@dataclass(frozen=True)
class DofMatrix:
    """All functionals against all spanning forms on the reference cube.

    Rows index small cubes (functionals), columns index spanning forms,
    both in the canonical small-cube order, so the matrix is block
    diagonal with one square block per direction tuple.
    """

    dimension: int
    degree: int
    order: int
    cubes: tuple[SmallCube, ...]
    matrix: np.ndarray
    blocks: dict[tuple[int, ...], slice]

    @property
    def size(self) -> int:
        return len(self.cubes)

    def block(self, directions: tuple[int, ...]) -> np.ndarray:
        """The square diagonal block of one direction tuple."""
        sl = self.blocks[directions]
        return self.matrix[sl, sl]


@lru_cache(maxsize=None)
def _axis_tables(order: int):
    """F_k and P_k, each as integer numerators over one denominator.

    F_k[r, c] integrates x^c (1-x)^(k-1-c) over [r/k, (r+1)/k], which
    :func:`integral_1d` returns times k^k; P_k[r, c] = (r/k)^c (1-r/k)^(k-c).
    """
    k = order
    f = [[integral_1d(k - 1 - c, c, k - 1 - r, r) for c in range(k)] for r in range(k)]
    den = lcm(*(v.denominator for row in f for v in row))
    f_num = np.array([[int(v * den) for v in row] for row in f], dtype=object)
    p = [[r**c * (k - r) ** (k - c) for c in range(k + 1)] for r in range(k + 1)]
    return (f_num, den * k**k), (np.array(p, dtype=object), k**k)


@lru_cache(maxsize=None)
def assemble_dof_matrix(dimension: int, degree: int, order: int) -> DofMatrix:
    """Assemble the reference DOF matrix, each block kron(M_0, ..., M_{n-1}).

    Exact numerators are divided once per entry, which rounds correctly:
    every entry equals ``float(dof_value_exact(row cube, column cube))``.
    """
    cubes = tuple(enumerate_small_cubes(dimension, degree, order))
    spanned, fixed = _axis_tables(order)
    matrix = np.zeros((len(cubes), len(cubes)))
    blocks = {}
    for i, dirs in enumerate(combinations(range(dimension), degree)):
        num, den = np.ones((1, 1), dtype=object), 1
        for axis in range(dimension):
            table, table_den = spanned if axis in dirs else fixed
            num, den = np.kron(num, table), den * table_den
        sl = blocks[dirs] = slice(i * len(num), (i + 1) * len(num))
        matrix[sl, sl] = (num / den).astype(float)
    matrix.setflags(write=False)
    return DofMatrix(dimension, degree, order, cubes, matrix, blocks)


@dataclass(frozen=True)
class UnisolvenceReport:
    """Singular-value certificate for one reference DOF matrix."""

    dimension: int
    degree: int
    order: int
    size: int
    invertible: bool
    condition_estimate: float
    min_singular: float
    max_singular: float
    block_conditions: dict[tuple[int, ...], float]


def check_unisolvence(
    dimension: int, degree: int, order: int, rank_tol: float = RANK_TOL
) -> UnisolvenceReport:
    """Certify invertibility of the DOF matrix via per-block SVDs.

    Invertible means the smallest singular value over all blocks exceeds
    ``rank_tol`` times the largest; conditioning is reported globally
    and per block.
    """
    dm = assemble_dof_matrix(dimension, degree, order)
    block_conditions: dict[tuple[int, ...], float] = {}
    smin, smax = np.inf, 0.0
    for dirs in dm.blocks:
        s = np.linalg.svd(dm.block(dirs), compute_uv=False)
        block_conditions[dirs] = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        smin = min(smin, float(s[-1]))
        smax = max(smax, float(s[0]))
    invertible = smax > 0 and smin > rank_tol * smax
    return UnisolvenceReport(
        dimension=dimension,
        degree=degree,
        order=order,
        size=dm.size,
        invertible=invertible,
        condition_estimate=smax / smin if smin > 0 else np.inf,
        min_singular=smin,
        max_singular=smax,
        block_conditions=block_conditions,
    )


@dataclass
class ReferenceSolver:
    """LU-backed solver mapping DOF values to spanning-form coefficients.

    Factorises each diagonal block once; :meth:`solve` then handles a
    single value vector or a whole matrix of right-hand sides (one
    column per cell, say) in one pass.
    """

    matrix: DofMatrix
    _factors: dict[tuple[int, ...], tuple] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        report = check_unisolvence(
            self.matrix.dimension, self.matrix.degree, self.matrix.order
        )
        if not report.invertible:
            raise np.linalg.LinAlgError(
                f"DOF matrix (n={self.matrix.dimension}, p={self.matrix.degree}, "
                f"k={self.matrix.order}) is numerically singular: "
                f"min singular value {report.min_singular:.3e}"
            )
        self._factors = {
            dirs: lu_factor(self.matrix.block(dirs)) for dirs in self.matrix.blocks
        }

    def solve(self, values: np.ndarray) -> np.ndarray:
        """Coefficients c with (DOF matrix) @ c = values, residual-checked."""
        v = np.asarray(values, dtype=float)
        if v.shape[0] != self.matrix.size:
            raise ValueError(
                f"expected {self.matrix.size} DOF values, got {v.shape[0]}"
            )
        out = np.empty_like(v)
        for dirs, sl in self.matrix.blocks.items():
            out[sl] = lu_solve(self._factors[dirs], v[sl])
        residual = np.linalg.norm(self.matrix.matrix @ out - v)
        scale = max(1.0, float(np.linalg.norm(v)))
        if residual > RESIDUAL_TOL * scale:
            raise RuntimeError(
                f"reference solve residual {residual:.3e} exceeds "
                f"{RESIDUAL_TOL:.1e} * {scale:.3e}"
            )
        return out


@lru_cache(maxsize=None)
def reference_solver(dimension: int, degree: int, order: int) -> ReferenceSolver:
    """Shared solver instance per (dimension, degree, order)."""
    return ReferenceSolver(assemble_dof_matrix(dimension, degree, order))


def solve_reference_coefficients(
    dimension: int, degree: int, order: int, values: np.ndarray
) -> np.ndarray:
    """One-shot wrapper around the cached :class:`ReferenceSolver`."""
    return reference_solver(dimension, degree, order).solve(values)
