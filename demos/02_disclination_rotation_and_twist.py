#!/usr/bin/env python3
"""The pure screw disclination: a vector-field defect in space and time.

The transverse potential (Ax, Ay) = a*r*e^{i chi} * (1, i) with
chi = theta + k*z - omega*t vanishes on the z axis, where its direction is
undefined. The azimuth pattern of the real transverse vector rotates
rigidly at omega/2, twists by pi per wavelength along z, and its rotation
per period pins the time-defect index to exactly 1/2.
"""

import math
from fractions import Fraction

import numpy as np

import defectfield as df

model = df.DisclinationModel(df.WaveParams.with_dispersion(k=1.0, c=1.0))
params = model.params
omega, k = params.omega, params.k

print(f"model: k={k}, omega={omega}, c={params.c}, a={params.a}, az={params.az}")

# the azimuth beta equals -chi wherever the transverse field is nonzero
x, y, z, t = 0.7, -0.4, 0.3, 0.2
ax, ay, _, _ = model.components(x, y, z, t)
beta = df.azimuth_beta(ax, ay)
chi = df.phase_chi(params, x, y, z, t)
print(f"\nazimuth check at one point: beta={beta:+.6f}, "
      f"-chi mod 2pi={float(df.wrap_angle(-chi)):+.6f}")

# a slice through the axis carries exactly one disclination of index +1
grid = df.GridSpec.centered((4.0, 4.0, 1.0), (81, 81, 1))
field = df.sample_potential(model, grid, 0.0)
for rec in df.find_disclinations(field, 0):
    print(f"detected disclination: index {int(rec.index):+d} at "
          f"({rec.position[0]:+.3f}, {rec.position[1]:+.3f})")

period = 2.0 * math.pi / omega
rate = df.pattern_rotation_rate(model, 0.0, period / 4.0)
print(f"\npattern rotation rate  = {rate:.12f}  (omega/2 = {omega / 2:.12f})")

wavelength = 2.0 * math.pi / k
twist = df.axial_twist_per_length(model, 0.0, wavelength, 0.0)
print(f"axial twist rate       = {twist:+.12f}  (-k/2 = {-k / 2:+.12f})")
print(f"twist over one wavelength: {abs(twist) * wavelength:.12f}  (pi = {math.pi:.12f})")
print(f"rotation/twist ratio   = {rate / twist:+.9f}  (-c = {-params.c:+.9f})")

index, residual = df.tifold_index(model, full_output=True)
assert index == Fraction(1, 2)
print(f"\ntime-defect index: rotation per period / omega = {index} "
      f"(alignment residual {residual:.2e})")

# a full period turns the pattern by pi: half a turn, hence the half index
alpha = df.pattern_rotation_rate(model, 0.0, period) * period
print(f"pattern angle after one period: {alpha:.12f} rad = pi * {alpha / math.pi:.9f}")
