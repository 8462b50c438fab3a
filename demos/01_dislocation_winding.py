#!/usr/bin/env python3
"""Screw dislocations in a scalar wave: amplitude zeros with quantized winding.

Builds a field with three first-order zeros, locates them from phase sums
(each zero here sits on a grid node, so around its 8-node ring), and shows
that loop integrals of the phase count exactly the enclosed charges no
matter how the loop is drawn.
"""

import numpy as np

import defectfield as df

grid = df.GridSpec.centered((8.0, 8.0, 1.0), (161, 161, 1))
X, Y, _ = grid.meshgrid()

defects = [(-1.5, 0.0, +1), (1.2, 0.4, -1), (0.2, 1.8, +1)]
values = np.ones(grid.dims, dtype=complex)
for x0, y0, charge in defects:
    sign = 1.0 if charge > 0 else -1.0
    values *= (X - x0) + 1j * sign * (Y - y0)
field = df.ComplexScalarField(grid, 0.0, values)

print("planted defects:")
for x0, y0, charge in defects:
    print(f"  charge {charge:+d} at ({x0:+.2f}, {y0:+.2f})")

print("\ndetected from phase sums around 2x2 plaquettes or on-node 8-node rings:")
for rec in df.find_dislocations(field, 0):
    x, y, _ = rec.position
    print(f"  index {int(rec.index):+d} at ({x:+.3f}, {y:+.3f}), "
          f"amplitude margin {rec.confidence:.3f}")

print("\nphase winding around hand-drawn loops:")
loops = {
    "small circle around the first defect": df.LoopPath.circle(-1.5, 0.0, 0.8, n=128),
    "rectangle around the dipole pair": df.LoopPath.rectangle(-2.4, -0.9, 2.1, 1.1,
                                                              per_side=48),
    "big circle around everything": df.LoopPath.circle(0.0, 0.3, 3.2, n=192),
    "loop enclosing nothing": df.LoopPath.circle(2.6, -2.6, 0.7, n=96),
}
for label, loop in loops.items():
    print(f"  {label:<38s} -> {df.phase_winding(field, loop):+d}")

print("\nreversing a loop's orientation negates its winding:")
loop = df.LoopPath.circle(0.0, 0.3, 3.2, n=192)
print(f"  counterclockwise {df.phase_winding(field, loop):+d}, "
      f"clockwise {df.phase_winding(field, loop.reversed()):+d}")
