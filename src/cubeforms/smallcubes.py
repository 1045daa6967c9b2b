"""Small cubes: scaled translates of the faces of the unit n-cube.

A small p-cube of order k is the image of a p-face of the unit cube
under x -> (m + x) / k for a multi-index m with components in 0..k-1.
On its free axes it spans an interval of length 1/k; on the remaining
axes it sits at a grid value j/k.  Distinct generator pairs (m, face)
can produce the same point set, so cubes are listed by exact geometry
instead: per direction tuple, every anchor (integer numerators over k,
0..k-1 on free axes and 0..k on fixed ones) in lexicographic order, each
built with its canonical generator by :func:`small_cube_from_geometry`.

The order k is part of a small cube's identity: the same multi-index
denotes different translates for different k, so k is stored explicitly
and serialized alongside the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .combinatorics import FaceId, MultiIndex


@dataclass(frozen=True)
class ScalingMap:
    """The affine map x -> offset + scale * x on R^n, with exact rational data."""

    scale: Fraction
    offset: tuple[Fraction, ...]

    def __call__(self, point):
        """Apply the map; exact when the input is exact."""
        if len(point) != len(self.offset):
            raise ValueError(
                f"point has {len(point)} components, map expects {len(self.offset)}"
            )
        return tuple(o + self.scale * x for o, x in zip(self.offset, point))


def small_cube_map(multi_index: MultiIndex, order: int) -> ScalingMap:
    """The homothety x -> (m + x) / k sending the unit cube onto a subcell."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not multi_index.within(order - 1):
        raise ValueError(
            f"multi-index {multi_index.components} has a component >= order {order}"
        )
    return ScalingMap(
        scale=Fraction(1, order),
        offset=tuple(Fraction(c, order) for c in multi_index),
    )


@dataclass(frozen=True)
class SmallCube:
    """A kth-order small p-cube, identified by a generator (m, face, k)."""

    order: int
    multi_index: MultiIndex
    face: FaceId

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.multi_index.dimension != self.face.dimension:
            raise ValueError(
                f"multi-index dimension {self.multi_index.dimension} != "
                f"face dimension {self.face.dimension}"
            )
        if not self.multi_index.within(self.order - 1):
            raise ValueError(
                f"multi-index {self.multi_index.components} not admissible "
                f"for order {self.order}"
            )

    @property
    def dimension(self) -> int:
        return self.face.dimension

    @property
    def degree(self) -> int:
        return self.face.degree

    @property
    def directions(self) -> tuple[int, ...]:
        return self.face.directions

    @property
    def edge_length(self) -> Fraction:
        return Fraction(1, self.order)

    @property
    def anchor_numerators(self) -> tuple[int, ...]:
        """Anchor coordinates times k, as exact integers.

        Free axes contribute the multi-index component (range 0..k-1),
        fixed axes the component plus the face's 0/1 value (range 0..k).
        """
        fixed = self.face.fixed
        return tuple(
            m + fixed.get(axis, 0) for axis, m in enumerate(self.multi_index)
        )

    @property
    def anchor(self) -> tuple[Fraction, ...]:
        """Corner of the cube with all free coordinates at their minimum."""
        return tuple(Fraction(a, self.order) for a in self.anchor_numerators)

    @property
    def volume(self) -> Fraction:
        """p-dimensional volume (1/k)^p."""
        return Fraction(1, self.order**self.degree)

    def geometry_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Exact point-set identifier: (directions, anchor numerators)."""
        return self.face.directions, self.anchor_numerators

    def corner_numerators(self) -> list[tuple[int, ...]]:
        """All 2^p corners, as integer numerators over k."""
        anchor = self.anchor_numerators
        corners = []
        for bits in product((0, 1), repeat=self.degree):
            c = list(anchor)
            for b, axis in zip(bits, self.face.directions):
                c[axis] += b
            corners.append(tuple(c))
        return corners


def small_cube_from_geometry(
    order: int, directions: tuple[int, ...], anchor_numerators: tuple[int, ...]
) -> SmallCube:
    """Rebuild the canonical small cube with the given exact geometry.

    The canonical generator takes, on every fixed axis with anchor
    numerator a, the smallest admissible translate component max(a-1, 0)
    with the face bit making up the difference; this is the
    lexicographically smallest (multi-index, fixed-bit) generator of the
    point set.
    """
    mi = []
    bits = []
    free = set(directions)
    for axis, a in enumerate(anchor_numerators):
        if axis in free:
            if not 0 <= a <= order - 1:
                raise ValueError(
                    f"free-axis anchor numerator {a} out of range for order {order}"
                )
            mi.append(a)
        else:
            if not 0 <= a <= order:
                raise ValueError(
                    f"fixed-axis anchor numerator {a} out of range for order {order}"
                )
            m = max(a - 1, 0)
            mi.append(m)
            bits.append((axis, a - m))
    face = FaceId(tuple(directions), tuple(bits))
    return SmallCube(order, MultiIndex(tuple(mi)), face)


@lru_cache(maxsize=None)
def _enumerate_small_cubes(dimension: int, degree: int, order: int):
    return tuple(
        small_cube_from_geometry(order, dirs, anchor)
        for dirs in combinations(range(dimension), degree)
        for anchor in product(
            *(range(order) if axis in dirs else range(order + 1) for axis in range(dimension))
        )
    )


def enumerate_small_cubes(dimension: int, degree: int, order: int) -> list[SmallCube]:
    """All distinct kth-order small p-cubes, in canonical order.

    Each point set appears once, with its lexicographically
    smallest generator; the result is ordered by (directions, anchor)
    and has exactly C(n, p) * k^p * (k+1)^(n-p) entries.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0 <= degree <= dimension:
        raise ValueError(f"degree {degree} out of range for dimension {dimension}")
    return list(_enumerate_small_cubes(dimension, degree, order))


def small_cube_count(dimension: int, degree: int, order: int) -> int:
    """C(n, p) * k^p * (k+1)^(n-p), the number of distinct small p-cubes."""
    return (
        comb(dimension, degree)
        * order**degree
        * (order + 1) ** (dimension - degree)
    )


@lru_cache(maxsize=None)
def small_cube_positions(dimension: int, degree: int, order: int):
    """Map geometry key -> position in the canonical enumeration."""
    cubes = _enumerate_small_cubes(dimension, degree, order)
    return {sc.geometry_key(): i for i, sc in enumerate(cubes)}


def pave_check(dimension: int, order: int) -> bool:
    """True iff the k^n small n-cubes tile the unit cube.

    Checks that the top-degree small cubes are exactly the cells of the
    uniform k-grid: their volumes sum to 1 and their anchors are the
    distinct grid points with components in 0..k-1.
    """
    cubes = enumerate_small_cubes(dimension, dimension, order)
    if len(cubes) != order**dimension:
        return False
    if sum(sc.volume for sc in cubes) != 1:
        return False
    anchors = {sc.anchor_numerators for sc in cubes}
    expected = set(product(range(order), repeat=dimension))
    return anchors == expected
