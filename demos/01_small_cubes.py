"""Enumerate the small cubes of a subdivided reference cube.

Subdividing the unit n-cube into k^n boxes produces scaled copies of
every p-dimensional face.  Distinct generators can land on the same
point set, so the enumeration lists each point set once, by geometry;
the count matches a closed-form product, and the top-dimensional cubes
tile the volume exactly.
"""

import math

from cubeforms import enumerate_small_cubes, pave_check, small_cube_count

N, K = 2, 3

print(f"small cubes of the {N}-cube at subdivision order {K}")
print(f"{'p':>3} {'count':>7} {'formula':>9}")
total = 0
for p in range(N + 1):
    cubes = enumerate_small_cubes(N, p, K)
    formula = math.comb(N, p) * K**p * (K + 1) ** (N - p)
    total += len(cubes)
    assert len(cubes) == small_cube_count(N, p, K) == formula
    print(f"{p:>3} {len(cubes):>7} {formula:>9}")
print(f"sum over p: {total} = (2k+1)^n = {(2 * K + 1) ** N}")

print()
print("the first few edges (degree 1), by spanned axis and anchor:")
for cube in enumerate_small_cubes(N, 1, K)[:6]:
    print(
        f"  axis {cube.directions[0]}, anchor {tuple(map(str, cube.anchor))}, "
        f"edge length {cube.edge_length}"
    )

print()
ok = pave_check(N, K)
print(f"top-degree cubes tile the unit cube with total volume 1: {ok}")
