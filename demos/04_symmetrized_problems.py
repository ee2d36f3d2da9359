"""
The symmetrized problem on a geodesic ball
==========================================

Any meshed domain has a matched ball: the geodesic ball in the model space
with the same weighted measure.  The torsion and eigenvalue problems on
that ball reduce to one-dimensional ODEs.  The torsion twin is one fixed
quadrature of its exact flux V(r)/A(r) through each sphere; the eigenvalue
is a root of the closed-form ground state (a Bessel function on the flat
ball).  These radial solutions are the right-hand sides of every
comparison.
"""

import math

import numpy as np

from robinsym import (
    GeodesicBall, ModelSpace, generate_domain, radius_for_volume,
    solve_radial_eigen, solve_symmetrized_poisson,
)

flat = ModelSpace(kappa=0, n=2)

# the matched ball of the unit square has radius 1/sqrt(pi)
square = generate_domain("square", target_h=0.1, side=1.0)
R = radius_for_volume(flat, square.total_measure())
print(f"unit square -> ball of radius {R:.6f} "
      f"(1/sqrt(pi) = {1/math.sqrt(math.pi):.6f})")

ball = GeodesicBall(flat, R)
v = solve_symmetrized_poisson(ball, 1.0)  # no source: the unit source
# closed form at the center: R^2/4 + R/(2*beta)
print(f"torsion at the center: {v.values[0]:.8f} "
      f"(exact {R*R/4 + R/2:.8f})")
print(f"monotone decreasing: {bool(np.all(np.diff(v.values) <= 0))}")

# the same solve on the sphere: a cap holding half the area of S^2
sphere = ModelSpace(kappa=1, n=2)
half = GeodesicBall(sphere, radius_for_volume(sphere, 2.0 * math.pi))
v_half = solve_symmetrized_poisson(half, 1.0)
print(f"\nhemisphere torsion: center {v_half.values[0]:.6f}, "
      f"boundary {v_half.values[-1]:.6f}")

# eigenvalues as the first root of u'(R) + beta u(R) for the Bessel ground state
print("\nradial Robin eigenvalues on the unit disk:")
for beta in (0.1, 1.0, 10.0):
    lam = solve_radial_eigen(GeodesicBall(flat, 1.0), beta)
    print(f"  beta = {beta:<4g} lambda = {lam:.10f}")

# large beta approaches the Dirichlet disk value, the squared first root
# of the Bessel function J0
lam_big = solve_radial_eigen(GeodesicBall(flat, 1.0), 1e8)
print(f"  beta = 1e8  lambda = {lam_big:.6f} "
      f"(Dirichlet limit 5.783186)")
