"""Polynomial differential forms on the unit n-cube.

A form is stored as a map from increasing direction tuples I = (i_1 <
... < i_p) to tensor-product coefficient grids: entry ``grid[e_1, ...,
e_n]`` multiplies ``x_1^e_1 * ... * x_n^e_n`` in the coefficient of
``dx_I``.  The spanning forms attached to small cubes are built in the
product basis x^a (1-x)^b and expanded into these monomial grids, which
makes evaluation, differentiation and rank computations uniform.

The kth-order basis forms have per-axis degree k-1 on the axes in their
own direction tuple and k elsewhere; that degree pattern characterises
the whole space and is what :func:`span_membership` tests against.

Direction tuples are always kept sorted; wedge-reordering signs are
confined to :func:`exterior_derivative`.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .combinatorics import FaceId
from .smallcubes import SmallCube, pattern_shape

#: Slack before evaluation warns: a point on a face rounds a few ulps out; 1e-12 is 4,500 ulps.
_OUTSIDE_TOL = 1e-12


def wedge_insert(axis: int, dirs: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign and sorted tuple for dx_axis ^ dx_dirs; axis must not be in dirs."""
    below = sum(1 for d in dirs if d < axis)
    sign = -1 if below % 2 else 1
    return sign, tuple(sorted(dirs + (axis,)))


def _product_factor(rising: int, falling: int) -> np.ndarray:
    """Monomial coefficients of x^rising * (1 - x)^falling."""
    coeffs = np.zeros(rising + falling + 1)
    for j in range(falling + 1):
        coeffs[rising + j] = (-1) ** j * comb(falling, j)
    return coeffs


def _tensor_grid(factors: list[np.ndarray]) -> np.ndarray:
    grid = factors[0]
    for f in factors[1:]:
        grid = np.multiply.outer(grid, f)
    return grid


def _trim(grid: np.ndarray) -> np.ndarray:
    """Drop trailing all-zero coefficient slices along every axis."""
    for axis in range(grid.ndim):
        nz = np.nonzero(np.any(grid != 0, axis=tuple(a for a in range(grid.ndim) if a != axis)))[0]
        top = int(nz[-1]) + 1 if nz.size else 1
        grid = np.take(grid, np.arange(top), axis=axis)
    return grid


def _padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two coefficient grids, zero-padded to a common shape."""
    s = np.zeros(tuple(max(sa, sb) for sa, sb in zip(a.shape, b.shape)))
    s[tuple(slice(0, d) for d in a.shape)] += a
    s[tuple(slice(0, d) for d in b.shape)] += b
    return s


def _diff_grid(grid: np.ndarray, axis: int) -> np.ndarray | None:
    """Coefficient grid of the partial derivative along one axis."""
    d = grid.shape[axis]
    if d <= 1:
        return None
    out = np.take(grid, np.arange(1, d), axis=axis)
    shape = [1] * grid.ndim
    shape[axis] = d - 1
    return out * np.arange(1, d, dtype=float).reshape(shape)


def _eval_grid(grid: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient grid at points of shape (s, n)."""
    val = np.tensordot(points[:, 0:1] ** np.arange(grid.shape[0])[None, :], grid, axes=([1], [0]))
    for axis in range(1, grid.ndim):
        powers = points[:, axis : axis + 1] ** np.arange(grid.shape[axis])[None, :]
        val = np.einsum("sj,sj...->s...", powers, val)
    return val


@dataclass(frozen=True)
class PolyForm:
    """A differential p-form with tensor-product polynomial coefficients."""

    dimension: int
    degree: int
    terms: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.terms and self.degree > self.dimension:
            raise ValueError(
                f"nonzero form of degree {self.degree} in dimension {self.dimension}"
            )
        clean = {}
        for dirs, grid in self.terms.items():
            dirs = tuple(dirs)
            if len(dirs) != self.degree or list(dirs) != sorted(set(dirs)):
                raise ValueError(f"direction tuple {dirs} invalid for degree {self.degree}")
            if dirs and not (0 <= dirs[0] and dirs[-1] < self.dimension):
                raise ValueError(f"direction tuple {dirs} out of range")
            arr = np.asarray(grid, dtype=float)
            if arr.ndim != self.dimension:
                raise ValueError(
                    f"coefficient grid for {dirs} has {arr.ndim} axes, "
                    f"expected {self.dimension}"
                )
            if np.any(arr != 0.0):
                arr = _trim(arr).copy()
                arr.setflags(write=False)
                clean[dirs] = arr
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, dimension: int, degree: int) -> "PolyForm":
        """The zero form of any degree (empty term map)."""
        return cls(dimension, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(
        self, points, *, warn_outside: bool = True
    ) -> dict[tuple[int, ...], np.ndarray | float]:
        """Coefficient values per direction tuple at the given point(s).

        ``points`` is a single point of shape (n,) or a batch (..., n);
        values come back as floats or arrays of the batch shape.  Points
        outside the closed unit cube are evaluated anyway but flagged
        with a warning.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if pts.shape[-1] != self.dimension:
            raise ValueError(
                f"points have {pts.shape[-1]} coordinates, form lives in "
                f"dimension {self.dimension}"
            )
        flat = pts.reshape(-1, self.dimension)
        if warn_outside and flat.size and (
            flat.min() < -_OUTSIDE_TOL or flat.max() > 1 + _OUTSIDE_TOL
        ):
            warnings.warn("evaluating polynomial form outside the unit cube", stacklevel=2)
        out = {}
        for dirs, grid in self.terms.items():
            vals = _eval_grid(grid, flat)
            out[dirs] = float(vals[0]) if single else vals.reshape(pts.shape[:-1])
        return out

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if (self.dimension, self.degree) != (other.dimension, other.degree):
            raise ValueError("can only add forms of equal dimension and degree")
        terms: dict[tuple[int, ...], np.ndarray] = {}
        for dirs in set(self.terms) | set(other.terms):
            a, b = self.terms.get(dirs), other.terms.get(dirs)
            terms[dirs] = b if a is None else a if b is None else _padded_sum(a, b)
        return PolyForm(self.dimension, self.degree, terms)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def __neg__(self) -> "PolyForm":
        return self * -1.0

    def __mul__(self, scalar: float) -> "PolyForm":
        return PolyForm(
            self.dimension,
            self.degree,
            {dirs: grid * float(scalar) for dirs, grid in self.terms.items()},
        )

    __rmul__ = __mul__

    def norm(self) -> float:
        """Euclidean norm of all monomial coefficients."""
        return float(
            np.sqrt(sum(float(np.sum(g * g)) for g in self.terms.values()))
        )


def lowest_order_form(face: FaceId) -> PolyForm:
    """The first-order form attached to a face of the unit cube.

    The coefficient is the product over fixed axes of x (value 1) or
    1 - x (value 0), wedged over the face's free axes; the top face
    gives the constant volume form of its degree.
    """
    n = face.dimension
    factors = [np.array([1.0]) for _ in range(n)]
    for axis, value in face.fixed_values:
        factors[axis] = _product_factor(value, 1 - value)
    return PolyForm(n, face.degree, {face.directions: _tensor_grid(factors)})


def basis_form(cube: SmallCube) -> PolyForm:
    """The kth-order spanning form attached to a small cube.

    Product of the translate factor x_i^(m_i) (1-x_i)^(k-1-m_i) over all
    axes with the lowest-order form of the generating face; for k = 1 it
    reduces to that lowest-order form.
    """
    k = cube.order
    n = cube.dimension
    fixed = cube.face.fixed
    factors = []
    for axis, m in enumerate(cube.multi_index):
        rising, falling = m, k - 1 - m
        if axis in fixed:
            # fold in the face factor x^y (1-x)^(1-y)
            y = fixed[axis]
            rising, falling = rising + y, falling + 1 - y
        factors.append(_product_factor(rising, falling))
    return PolyForm(n, cube.degree, {cube.directions: _tensor_grid(factors)})


def exterior_derivative(form: PolyForm) -> PolyForm:
    """d(f_I dx_I) = sum_i (df_I/dx_i) dx_i ^ dx_I, directions re-sorted.

    Total on every degree: the top degree maps to the zero form one
    degree up.
    """
    terms: dict[tuple[int, ...], np.ndarray] = {}
    for dirs, grid in form.terms.items():
        for axis in range(form.dimension):
            if axis in dirs:
                continue
            dg = _diff_grid(grid, axis)
            if dg is None:
                continue
            sign, new_dirs = wedge_insert(axis, dirs)
            contrib = sign * dg
            old = terms.get(new_dirs)
            terms[new_dirs] = contrib if old is None else _padded_sum(old, contrib)
    return PolyForm(form.dimension, form.degree + 1, terms)


def direction_tuples(dimension: int, degree: int) -> list[tuple[int, ...]]:
    """All increasing direction tuples, lexicographically."""
    return list(combinations(range(dimension), degree))


@lru_cache(maxsize=None)
def basis_grid_stack(
    dimension: int, degree: int, order: int
) -> dict[tuple[int, ...], np.ndarray]:
    """Stacked monomial grids of all basis forms, grouped by direction tuple.

    Entry I holds an array of shape (count, *pattern_shape) whose rows
    follow the canonical small-cube ordering restricted to direction
    tuple I.  Rows of different I never mix: a basis form only carries
    its own dx_I.  Each stack is an outer product of per-axis tables of
    the factor of anchor a, one row per a, one column per exponent.
    """
    spanned = np.array([_product_factor(a, order - 1 - a) for a in range(order)])
    fixed = np.array([_product_factor(a, order - a) for a in range(order + 1)])
    out = {}
    for dirs in direction_tuples(dimension, degree):
        grid = _tensor_grid([spanned if axis in dirs else fixed for axis in range(dimension)])
        # axes (anchor_0, exponent_0, anchor_1, ...) -> anchors first
        grid = grid.transpose(*range(0, 2 * dimension, 2), *range(1, 2 * dimension, 2))
        out[dirs] = grid.reshape(-1, *pattern_shape(dimension, dirs, order))
    return out


def _embedded_vector(
    form: PolyForm, dirs: tuple[int, ...], order: int
) -> np.ndarray:
    shape = pattern_shape(form.dimension, dirs, order)
    grid = np.zeros(shape)
    g = form.terms.get(dirs)
    if g is not None:
        grid[tuple(slice(0, d) for d in g.shape)] = g
    return grid.ravel()


def _check_degree_pattern(form: PolyForm, order: int) -> None:
    for dirs, grid in form.terms.items():
        for axis, size in enumerate(grid.shape):
            limit = order - 1 if axis in dirs else order
            if size - 1 > limit:
                raise ValueError(
                    f"term {dirs} has degree {size - 1} in axis {axis}, "
                    f"allowed at most {limit} at order {order}"
                )


def span_residual(form: PolyForm, order: int) -> float:
    """Least-squares distance from the span of the order-k basis forms."""
    _check_degree_pattern(form, order)
    stacks = basis_grid_stack(form.dimension, form.degree, order)
    total = 0.0
    for dirs, stack in stacks.items():
        if form.terms.get(dirs) is None:
            continue
        b = _embedded_vector(form, dirs, order)
        a = stack.reshape(stack.shape[0], -1).T
        coeff, res, _, _ = np.linalg.lstsq(a, b, rcond=None)
        if res.size:
            total += float(res[0])
        else:
            total += float(np.sum((a @ coeff - b) ** 2))
    return float(np.sqrt(total))


#: The least-squares residual, relative to max(1, coefficient norm), up to which
#: :func:`span_membership` counts a form as in the space.  For n <= 3, k <= 5, random
#: combinations of the basis forms, and their derivatives, read at most 4.8e-14; single
#: basis forms read up to 1.2e-11 (3D 0-forms at k = 5; 2.3e-11 at k = 6), as the
#: monomial basis's conditioning grows with k.
SPAN_TOL = 1e-10


def span_membership(form: PolyForm, order: int) -> bool:
    """True iff the form is a combination of the order-k basis forms.

    The form must already satisfy the order-k degree pattern (degree at
    most k-1 on its own directions, k elsewhere); violating it raises
    ValueError.  Membership is decided by least squares in the monomial
    tensor basis, the residual at most :data:`SPAN_TOL` times max(1,
    coefficient norm).
    """
    res = span_residual(form, order)
    return res <= SPAN_TOL * max(1.0, form.norm())


@dataclass(frozen=True)
class AnalyticForm:
    """A smooth p-form given by per-component callables.

    Component callables receive a point batch of shape (..., n) and
    return values of shape (...).  ``partials`` optionally supplies every
    partial derivative of every component, which makes the exterior
    derivative available in closed form.  A form may also carry one
    callable giving every component at once, bit for bit as the component
    callables give them, so that components share their work (catalog
    forms evaluate each sin/cos factor once per axis); :meth:`evaluate`
    then calls it instead.
    """

    dimension: int
    degree: int
    components: Mapping[tuple[int, ...], Callable]
    partials: Mapping[tuple[int, ...], tuple[Callable, ...]] | None = None
    name: str = ""
    _evaluate_all: Callable | None = field(default=None, repr=False, compare=False)

    def evaluate(self, points) -> dict[tuple[int, ...], np.ndarray]:
        pts = np.asarray(points, dtype=float)
        if self._evaluate_all is not None:
            values = self._evaluate_all(pts)
        else:
            values = {dirs: func(pts) for dirs, func in self.components.items()}
        return {dirs: np.asarray(v) for dirs, v in values.items()}

    def exterior_derivative(self) -> "AnalyticForm":
        if self.partials is None:
            raise ValueError(f"form {self.name or '<anonymous>'} carries no partials")
        pieces: dict[tuple[int, ...], list[tuple[int, Callable]]] = {}
        for dirs, parts in self.partials.items():
            for axis in range(self.dimension):
                if axis in dirs:
                    continue
                sign, new_dirs = wedge_insert(axis, dirs)
                pieces.setdefault(new_dirs, []).append((sign, parts[axis]))
        def _summed(terms):
            def component(pts):
                total = sign0 * np.asarray(terms[0][1](pts))
                for sgn, func in terms[1:]:
                    total = total + sgn * np.asarray(func(pts))
                return total
            sign0 = terms[0][0]
            return component
        components = {dirs: _summed(terms) for dirs, terms in pieces.items()}
        return AnalyticForm(
            self.dimension,
            self.degree + 1,
            components,
            name=f"d({self.name})" if self.name else "",
        )
