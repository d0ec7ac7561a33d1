#!/usr/bin/env python3
"""Demo 1: the propagator is exact in time.

Evolves Gaussian initial data with the spectral multiplier solver and shows
two hallmarks of exactness:

  * total energy is conserved to machine round-off at every time, because
    conservation is a bin-wise trigonometric identity, and
  * at order s = 1 the solution reproduces the classical traveling-wave
    integral (an error-function formula for Gaussian velocity data) to
    spectral accuracy.
"""

import math

import numpy as np

from fracwave import Gaussian, GridBackend, GridSpec, Parameters, ZERO, evolve_state

backend = GridBackend(GridSpec(half_width=40.0, points=4096))

print("== energy conservation (s = 0.75, u0 = u1 = gaussian) ==")
params = Parameters(s=0.75)
data = (Gaussian(), Gaussian())
e0 = evolve_state(data, params, 0.0, backend).energy()
print(f"E(0) = {e0:.15f}")
for t in (0.1, 1.0, 10.0, 100.0):
    e = evolve_state(data, params, t, backend).energy()
    print(f"t = {t:6.1f}:  E(t) = {e:.15f}   |E-E0|/E0 = {abs(e - e0) / e0:.2e}")

print()
print("== classical anchor (s = 1, u0 = 0, u1 = gaussian, t = 5) ==")
params = Parameters(s=1.0)
snap = evolve_state((ZERO, Gaussian()), params, 5.0, backend)
x = backend.grid.x()
erf = np.vectorize(math.erf)
u_exact = np.sqrt(np.pi) / 4.0 * (erf(x + 5.0) - erf(x - 5.0))
err = np.max(np.abs(snap.u.real - u_exact)) / np.max(np.abs(u_exact))
print(f"max relative deviation from the closed-form wave integral: {err:.2e}")
print(f"largest imaginary residue of the physical field: {np.max(np.abs(snap.u.imag)):.2e}")
