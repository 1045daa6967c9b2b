"""Enumeration of multi-indices and faces of the unit n-cube.

Every other module relies on the orderings fixed here: multi-indices are
listed lexicographically, and faces are listed lexicographically by their
direction set first and then by their fixed-coordinate bits read as a
binary number (first fixed axis is the most significant bit).  The
orderings are total and stable, so matrix layouts built on top of them
are reproducible across runs.

Coordinate axes are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Tuple of nonnegative integers, one per coordinate axis."""

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise ValueError("multi-index needs at least one component")
        if any(c < 0 for c in self.components):
            raise ValueError(f"negative component in multi-index {self.components}")

    @property
    def dimension(self) -> int:
        return len(self.components)

    def within(self, bound: int) -> bool:
        """True iff every component is <= bound."""
        return all(c <= bound for c in self.components)

    def __getitem__(self, i: int) -> int:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class FaceId:
    """A p-face of the unit n-cube.

    ``directions`` lists the p axes spanning the face (strictly
    increasing); ``fixed_values`` assigns 0 or 1 to each remaining axis,
    stored as (axis, value) pairs sorted by axis.  Together they must
    cover all n axes exactly once.
    """

    directions: tuple[int, ...]
    fixed_values: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        free = set(self.directions)
        fixed = {axis for axis, _ in self.fixed_values}
        n = len(free) + len(fixed)
        if n < 1:
            raise ValueError("face of a 0-dimensional cube is not defined")
        if list(self.directions) != sorted(free) or len(free) != len(self.directions):
            raise ValueError(f"directions {self.directions} not strictly increasing")
        if free & fixed or (free | fixed) != set(range(n)):
            raise ValueError(
                f"directions {self.directions} and fixed axes {sorted(fixed)} "
                f"must partition 0..{n - 1}"
            )
        if self.fixed_values != tuple(sorted(self.fixed_values)):
            raise ValueError("fixed_values must be sorted by axis")
        if any(v not in (0, 1) for _, v in self.fixed_values):
            raise ValueError("fixed values must be 0 or 1")

    @property
    def dimension(self) -> int:
        return len(self.directions) + len(self.fixed_values)

    @property
    def degree(self) -> int:
        return len(self.directions)

    @property
    def fixed(self) -> dict[int, int]:
        """Fixed axes as a mapping axis -> value."""
        return dict(self.fixed_values)


def enumerate_multi_indices(dimension: int, bound: int) -> list[MultiIndex]:
    """All multi-indices with components in 0..bound, lexicographically.

    Returns exactly ``(bound + 1) ** dimension`` entries.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    return [
        MultiIndex(c) for c in product(range(bound + 1), repeat=dimension)
    ]


def enumerate_faces(dimension: int, degree: int) -> list[FaceId]:
    """All p-faces of the unit n-cube in canonical order.

    There are C(n, p) * 2**(n - p) of them.  The top face (p = n) has an
    empty fixed-value list.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not 0 <= degree <= dimension:
        raise ValueError(
            f"face degree {degree} out of range for dimension {dimension}"
        )
    faces = []
    for dirs in combinations(range(dimension), degree):
        rest = [a for a in range(dimension) if a not in dirs]
        for bits in product((0, 1), repeat=len(rest)):
            faces.append(FaceId(dirs, tuple(zip(rest, bits))))
    return faces


def face_count(dimension: int, degree: int) -> int:
    """Number of p-faces of the unit n-cube."""
    return comb(dimension, degree) * 2 ** (dimension - degree)
