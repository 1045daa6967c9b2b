"""Degrees of freedom: integrals of spanning forms over small cubes.

The functional attached to a small p-cube integrates a p-form over that
cube.  It annihilates every spanning form of another direction tuple, so
the matrix of all functionals against all spanning forms is block
diagonal, and each block is the Kronecker product of two 1-D tables:
segment integrals F_k on spanned axes, point values P_k on fixed axes.
The reference layer keeps only those two tables (:class:`DofMatrix`),
built from integers: P_k from integer numerators, and F_k from
differences of them by discrete Stokes.  :func:`axis_inverses` inverts
the two tables once per order, from the same integer numerators by
fraction-free elimination, so each entry is its exact value rounded
once, whatever the LAPACK or BLAS.  Those inverses change the product
basis into the basis dual to the small cubes, in which interpolation
needs no solve: Lagrange polynomials at the nodes r/k on fixed axes and
histopolants of the segments [r/k, (r+1)/k] on spanned axes (Bonazzoli
& Rapetti 2017; Gerritsma 2011).  The small cubes are unisolvent for
every (n, p, k), so the pipeline reads only those inverses from here.
:func:`check_unisolvence` certifies the product basis's blocks from
their singular values, and :class:`ReferenceSolver` applies the inverses
one axis at a time (Lynch, Rice & Thomas 1964) to map DOF values to
product-basis coefficients; both serve the tests, as do the exact
:class:`fractions.Fraction` functionals :func:`integral_1d` and
:func:`dof_value_exact`, which check the tables entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

import numpy as np

from .smallcubes import SmallCube, anchor_runs

#: Singular-value ratio below which :func:`check_unisolvence` calls the product basis singular:
#: 3D passes k <= 6 (cond <= 1.6e9), not p <= 2 at k = 7 (cond >= 2.0e10).  A certificate of the
#: product basis only: the pipeline does not read it, and its errors at 3D k = 7 are <= 4.0e-11.
RANK_TOL = 1e-10

#: Relative residual bound of reference solves; per-axis solves stay <= 3.0e-12 (n <= 3, k <= 7).
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


@dataclass(frozen=True)
class DofMatrix:
    """All functionals against all spanning forms on the reference cube.

    Rows index small cubes (functionals), columns index spanning forms,
    both in the canonical small-cube order, so the matrix is block
    diagonal.  The block of direction tuple I is kron(M_0, ..., M_{n-1})
    with M_j = F_k (``spanned``) for j in I and P_k (``fixed``) otherwise;
    only those two read-only tables are stored.
    """

    dimension: int
    degree: int
    order: int
    blocks: dict[tuple[int, ...], slice]
    spanned: np.ndarray
    fixed: np.ndarray

    @property
    def size(self) -> int:
        return sum(sl.stop - sl.start for sl in self.blocks.values())

    def block(self, directions: tuple[int, ...]) -> np.ndarray:
        """The square diagonal block of one direction tuple, built on demand.

        The Kronecker product runs over exact integer numerators and is
        divided once per entry, which rounds correctly: every entry equals
        ``float(dof_value_exact(row cube, column cube))``.
        """
        if directions not in self.blocks:
            raise KeyError(directions)
        spanned, fixed = _axis_tables(self.order)
        num, den = np.ones((1, 1), dtype=object), 1
        for axis in range(self.dimension):
            table, table_den = spanned if axis in directions else fixed
            num, den = np.kron(num, table), den * table_den
        return (num / den).astype(float)


@lru_cache(maxsize=None)
def _axis_tables(order: int):
    """F_k and P_k, each as integer numerators over one denominator, from integers only.

    P_k[r, a] = (r/k)^a (1-r/k)^(k-a) is N[r, a] / k^k with N[r, a] = r^a (k-r)^(k-a).
    x^c (1-x)^(k-1-c) is the derivative of sum_{a>c} C(k, a) x^a (1-x)^(k-a) over
    k C(k-1, c), so by discrete Stokes its integral F_k[r, c] over [r/k, (r+1)/k] is
    sum_{a>c} C(k, a) (N[r+1, a] - N[r, a]) / (k^(k+1) C(k-1, c)).
    """
    k = order
    n = [[r**a * (k - r) ** (k - a) for a in range(k + 1)] for r in range(k + 1)]
    step = [[comb(k, a) * (n[r + 1][a] - n[r][a]) for a in range(k + 1)] for r in range(k)]
    den = lcm(*(comb(k - 1, c) for c in range(k)))
    f = [[sum(row[c + 1 :]) * (den // comb(k - 1, c)) for c in range(k)] for row in step]
    return (np.array(f, dtype=object), den * k ** (k + 1)), (np.array(n, dtype=object), k**k)


@lru_cache(maxsize=None)
def assemble_dof_matrix(dimension: int, degree: int, order: int) -> DofMatrix:
    """The reference DOF matrix: block slices plus F_k and P_k in floats."""
    blocks = {dirs: sl for dirs, sl, _ in anchor_runs(dimension, degree, order)}
    tables = [(num / den).astype(float) for num, den in _axis_tables(order)]
    for table in tables:
        table.setflags(write=False)
    return DofMatrix(dimension, degree, order, blocks, *tables)


@lru_cache(maxsize=None)
def axis_inverses(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverses of F_k and P_k, read-only, every entry correctly rounded.

    Column r of the inverse of P_k holds the product-basis coefficients of
    the Lagrange polynomial of node r/k, and column r of the inverse of
    F_k those of the histopolant of segment [r/k, (r+1)/k]: the factors
    whose values and segment integrals are 1 at r and 0 elsewhere.  Both
    are inverted from the integer numerators of :func:`_axis_tables`
    (every dimension and degree shares them), so no LAPACK or BLAS call
    moves a bit.
    """
    inverses = tuple(_rounded_inverse(num, den) for num, den in _axis_tables(order))
    for inverse in inverses:
        inverse.setflags(write=False)
    return inverses


def _rounded_inverse(num, den) -> np.ndarray:
    """The inverse of the matrix num / den, each entry rounded once from its exact value.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [num | I] keeps every
    entry an integer, each division being exact, and ends at [d I | d num^-1]
    with d = +-det(num).  Each entry den * (d num^-1) / d is then one Python
    int division, which rounds correctly.
    """
    size = len(num)
    rows = [[int(a) for a in row] + [int(i == j) for j in range(size)] for i, row in enumerate(num)]
    last = 1
    for col in range(size):
        swap = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[swap] = rows[swap], rows[col]
        pivot = rows[col]
        for r, row in enumerate(rows):
            if r != col:
                rows[r] = [(pivot[col] * a - row[col] * b) // last for a, b in zip(row, pivot)]
        last = pivot[col]
    scale, det = (den, last) if last > 0 else (-den, -last)
    return np.array([[scale * a / det for a in row[size:]] for row in rows])


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


def check_unisolvence(dimension: int, degree: int, order: int) -> UnisolvenceReport:
    """Certify invertibility of the DOF matrix from its 1-D factors.

    The singular values of a Kronecker product are the products of its
    factors' singular values, and every block has F_k on its p axes and
    P_k on the other n - p, so every block shares the extremes
    s_max(F)^p s_max(P)^(n-p) and s_min(F)^p s_min(P)^(n-p).
    Invertible means the smallest exceeds :data:`RANK_TOL` times the
    largest; conditioning is reported globally and per block.
    """
    dm = assemble_dof_matrix(dimension, degree, order)
    sf = np.linalg.svd(dm.spanned, compute_uv=False)
    sp = np.linalg.svd(dm.fixed, compute_uv=False)
    smax = float(sf[0] ** degree * sp[0] ** (dimension - degree))
    smin = float(sf[-1] ** degree * sp[-1] ** (dimension - degree))
    condition = smax / smin if smin > 0 else np.inf
    return UnisolvenceReport(
        dimension=dimension,
        degree=degree,
        order=order,
        size=dm.size,
        invertible=smax > 0 and smin > RANK_TOL * smax,
        condition_estimate=condition,
        min_singular=smin,
        max_singular=smax,
        block_conditions=dict.fromkeys(dm.blocks, condition),
    )


def _apply_per_axis(dimension, directions, spanned, fixed, x: np.ndarray) -> np.ndarray:
    """kron(M_0, ..., M_{n-1}) @ x, with M_j = ``spanned`` for j in ``directions``
    and ``fixed`` otherwise, one stacked matrix product per anchor axis.

    ``x`` has one row per anchor of the block (axis 0 slowest) and any
    number of columns; no N x N block is formed.
    """
    y, done = x, 1
    for axis in range(dimension):
        m = spanned if axis in directions else fixed
        # rows as (anchor axes before j, anchor axis j, the rest)
        y = m @ y.reshape(done, len(m), -1)
        done *= len(m)
    return y.reshape(x.shape)


@dataclass
class ReferenceSolver:
    """Maps DOF values to product-basis coefficients, one axis at a time.

    A block's inverse is the Kronecker product of the inverses of F_k and
    P_k from :func:`axis_inverses`, of which each solver holds its own
    copies.  :meth:`solve` handles a single value vector or a whole matrix
    of right-hand sides (one column per cell, say) in one pass.  Building
    one raises ``LinAlgError`` where :func:`check_unisolvence` finds the
    product basis singular.  The pipeline, in the dual basis, builds none.
    """

    matrix: DofMatrix
    _inverses: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

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
        self._inverses = tuple(inverse.copy() for inverse in axis_inverses(self.matrix.order))

    def solve(self, values: np.ndarray) -> np.ndarray:
        """Coefficients c with (DOF matrix) @ c = values, residual-checked.

        The residual is taken against the blocks themselves, applied
        through F_k and P_k axis by axis, never through the inverses.
        Raises RuntimeError when it is above ``RESIDUAL_TOL`` times the
        values' norm or not finite (from NaN or infinite values).
        """
        dm = self.matrix
        v = np.asarray(values, dtype=float)
        if v.shape[0] != dm.size:
            raise ValueError(f"expected {dm.size} DOF values, got {v.shape[0]}")
        out = np.empty_like(v)
        applied = np.empty_like(v)
        for dirs, sl in dm.blocks.items():
            out[sl] = _apply_per_axis(dm.dimension, dirs, *self._inverses, v[sl])
            applied[sl] = _apply_per_axis(dm.dimension, dirs, dm.spanned, dm.fixed, out[sl])
        residual = np.linalg.norm(applied - v)
        scale = max(1.0, float(np.linalg.norm(v)))
        if not residual <= RESIDUAL_TOL * scale:
            raise RuntimeError(
                f"reference solve residual {residual:.3e} exceeds "
                f"{RESIDUAL_TOL:.1e} * {scale:.3e}"
            )
        return out


@lru_cache(maxsize=None)
def reference_solver(dimension: int, degree: int, order: int) -> ReferenceSolver:
    """Shared solver instance per (dimension, degree, order)."""
    return ReferenceSolver(assemble_dof_matrix(dimension, degree, order))
