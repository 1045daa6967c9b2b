"""Small-cube geometry: scaling maps, deduplication, paving."""

from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from cubeforms.combinatorics import MultiIndex, enumerate_faces, enumerate_multi_indices
from cubeforms.smallcubes import (
    SmallCube,
    anchor_runs,
    enumerate_small_cubes,
    pave_check,
    small_cube_count,
    small_cube_from_geometry,
    small_cube_map,
    pattern_shape,
)


def test_scaling_map_is_exact():
    f = small_cube_map(MultiIndex((1, 2)), 3)
    assert f((Fraction(1), Fraction(0))) == (Fraction(2, 3), Fraction(2, 3))
    assert f((0, 0)) == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(ValueError):
        f((0, 0, 0))


def test_scaling_map_rejects_out_of_range_translation():
    with pytest.raises(ValueError):
        small_cube_map(MultiIndex((3,)), 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_count_matches_closed_form(n, k):
    for p in range(n + 1):
        cubes = enumerate_small_cubes(n, p, k)
        assert len(cubes) == comb(n, p) * k**p * (k + 1) ** (n - p)
        assert len(cubes) == small_cube_count(n, p, k)


@pytest.mark.parametrize("n,p,k", [(1, 0, 2), (2, 0, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)])
def test_deduplication_against_point_set_oracle(n, p, k):
    """Independent route: identify cubes by their exact corner points.

    Every (face, translate) generator is mapped to the frozen set of its
    physical corner coordinates computed through the scaling map alone;
    distinct point sets must match the library's deduplicated count and
    geometry keys one to one.
    """
    point_sets = {}
    for face in enumerate_faces(n, p):
        fixed = face.fixed
        for mi in enumerate_multi_indices(n, k - 1):
            scale = small_cube_map(mi, k)
            corners = set()
            for bits in product((0, 1), repeat=p):
                ref = [Fraction(fixed.get(axis, 0)) for axis in range(n)]
                for b, axis in zip(bits, face.directions):
                    ref[axis] = Fraction(b)
                corners.add(scale(tuple(ref)))
            point_sets.setdefault(frozenset(corners), []).append((mi, face))
    cubes = enumerate_small_cubes(n, p, k)
    assert len(cubes) == len(point_sets)
    for sc in cubes:
        corners = frozenset(
            tuple(Fraction(c, k) for c in nums) for nums in sc.corner_numerators()
        )
        assert corners in point_sets


def test_duplicate_generators_merge_to_smallest():
    # at k=2 the vertex 1/2 arises both as m=0,bit=1 and m=1,bit=0
    cubes = enumerate_small_cubes(1, 0, 2)
    anchors = [sc.anchor_numerators for sc in cubes]
    assert anchors == [(0,), (1,), (2,)]
    middle = cubes[1]
    assert tuple(middle.multi_index) == (0,)
    assert middle.face.fixed == {0: 1}


def test_geometry_round_trip():
    for n, p, k in [(2, 1, 2), (3, 2, 3), (3, 0, 1)]:
        for sc in enumerate_small_cubes(n, p, k):
            again = small_cube_from_geometry(k, sc.directions, sc.anchor_numerators)
            assert again == sc


def test_from_geometry_rejects_bad_anchors():
    with pytest.raises(ValueError):
        small_cube_from_geometry(2, (0,), (2, 0))  # free axis numerator == k
    with pytest.raises(ValueError):
        small_cube_from_geometry(2, (0,), (0, 3))  # fixed axis numerator > k


def test_anchor_and_volume():
    sc = small_cube_from_geometry(4, (1,), (3, 2, 4))
    assert sc.anchor == (Fraction(3, 4), Fraction(1, 2), Fraction(1))
    assert sc.edge_length == Fraction(1, 4)
    assert sc.volume == Fraction(1, 4)
    top = small_cube_from_geometry(2, (0, 1), (1, 0))
    assert top.volume == Fraction(1, 4)


def test_corner_numerators_span_the_cube():
    sc = small_cube_from_geometry(3, (0, 2), (1, 2, 0))
    corners = sc.corner_numerators()
    assert len(corners) == 4
    assert min(corners) == (1, 2, 0)
    assert (2, 2, 1) in corners
    assert all(c[1] == 2 for c in corners)  # fixed axis never moves


@pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 3), (3, 2)])
def test_paving(n, k):
    assert pave_check(n, k)


def test_positions_agree_with_enumeration():
    # a cube's position is its run's start plus its anchor's flat index
    for n, p, k in [(2, 1, 3), (3, 1, 2), (3, 2, 3)]:
        cubes = enumerate_small_cubes(n, p, k)
        runs = anchor_runs(n, p, k)
        assert runs[-1][1].stop == len(cubes)
        for dirs, sl, anchors in runs:
            assert len(anchors) == sl.stop - sl.start
            for anchor in anchors:
                i = sl.start + np.ravel_multi_index(tuple(anchor), pattern_shape(n, dirs, k))
                assert cubes[i].geometry_key() == (dirs, tuple(anchor.tolist()))


def test_enumeration_grouped_by_directions():
    cubes = enumerate_small_cubes(3, 1, 2)
    dirs = [sc.directions for sc in cubes]
    seen = []
    for d in dirs:
        if not seen or seen[-1] != d:
            seen.append(d)
    assert seen == [(0,), (1,), (2,)]


def test_validation():
    with pytest.raises(ValueError):
        enumerate_small_cubes(2, 3, 1)
    with pytest.raises(ValueError):
        enumerate_small_cubes(2, 1, 0)
    with pytest.raises(ValueError):
        SmallCube(2, MultiIndex((2, 0)), enumerate_faces(2, 1)[0])
