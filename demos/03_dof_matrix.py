"""Assemble the degree-of-freedom matrix and check unisolvence.

The functional attached to a small cube averages a form over the cube
and scales by its volume.  Evaluating every functional against every
spanning form gives a square matrix which is block diagonal: the value
is identically zero unless the cube and the form span the same axes.
Invertibility of each block makes the degrees of freedom unisolvent.
"""

import numpy as np

from cubeforms import (
    assemble_dof_matrix,
    check_unisolvence,
    dof_value_exact,
    enumerate_small_cubes,
)

N, P, K = 2, 1, 2

dm = assemble_dof_matrix(N, P, K)
print(f"n={N}, p={P}, k={K}: {dm.size} x {dm.size} matrix, "
      f"blocks {[(d, s.stop - s.start) for d, s in dm.blocks.items()]}")

with np.printoptions(precision=4, suppress=True):
    print(dm.block((0,)))

# exact rational entries are available too; rows and columns follow
# the canonical small-cube order
cubes = enumerate_small_cubes(N, P, K)
a, b = cubes[0], cubes[3]
print(f"\nentry (0, 3) exactly: {dof_value_exact(a, b)}")

report = check_unisolvence(N, P, K)
print(f"\ninvertible: {report.invertible}")
print(f"condition estimate: {report.condition_estimate:.4e}")
for dirs, cond in report.block_conditions.items():
    print(f"  block {dirs}: condition {cond:.4e}")
