#!/usr/bin/env python3
# Quadrature rules behind the integrals, and synthesis-kernel diagnostics.

import numpy as np

from opframes import below_bounded_check, frame_operator, independence_check, optimal_bounds
from opframes.catalog import diagonal_slope_family
from opframes.frames import OperatorFamily
from opframes.hilbert_module import ModuleOperator
from opframes.quadrature import counting, gauss_legendre, midpoint

# Gauss-Legendre integrates the quadratic node profile exactly from
# two nodes on; the midpoint rule converges at second order.
print("rule           nodes   integral of w^2 on [0,1]   error")
for label, rule in (
    ("gauss-legendre", gauss_legendre(0.0, 1.0, 2)),
    ("gauss-legendre", gauss_legendre(0.0, 1.0, 32)),
    ("midpoint", midpoint(0.0, 1.0, 100)),
    ("midpoint", midpoint(0.0, 1.0, 10_000)),
):
    value = float(np.dot(rule.weights, rule.nodes**2))
    print(f"{label:14s} {len(rule):6d}   {value:.12f}        {abs(value - 1/3):.1e}")

# The frame operator inherits the quadrature accuracy: for polynomial
# families Gauss-Legendre is exact, midpoint is close.
family = diagonal_slope_family()
exact = frame_operator(family).flat
approx = frame_operator(family.with_rule(midpoint(0.0, 1.0, 10_000))).flat
print(f"\n|s_GL - s_mid(1e4)| = {np.max(np.abs(exact - approx)):.2e}")

# Below-boundedness reads off the weighted analysis map: its smallest
# singular value squares to the lower frame bound.
bounded, sigma_min = below_bounded_check(family)
lower, _ = optimal_bounds(frame_operator(family))
print(f"\nbounded below: {bounded}, sigma_min = {sigma_min:.6f}, sigma_min^2 = {sigma_min**2:.6f} = A")

# Independence asks whether the synthesis map has a trivial kernel.
# With 32 nodes mapping onto a 2-dimensional module the kernel, counted in
# the module, is forced to be large; a single invertible node operator is
# independent.
independent, kernel_dim = independence_check(family)
print(f"32-node family:  independent = {independent}, kernel dimension = {kernel_dim}")

single = OperatorFamily.sampled(counting(1), [ModuleOperator.identity(family.descriptor, 1)])
independent, kernel_dim = independence_check(single)
print(f"one-node family: independent = {independent}, kernel dimension = {kernel_dim}")
