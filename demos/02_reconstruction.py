#!/usr/bin/env python3
# Recovering x from y = S x: direct inversion vs the frame algorithm.
#
# For a frame with bounds (A, B), the iteration x <- x + lam (y - x s)
# contracts the error by q = max(|1 - lam A|, |1 - lam B|).  With
# lam = 1/B that is (B - A)/B; with lam = 2/(A + B) it improves to
# (B - A)/(A + B).  Chebyshev acceleration contracts by
# (sqrt B - sqrt A)/(sqrt B + sqrt A).  Both iterations run one loop (the
# relaxation is Chebyshev's recurrence on the one point 1/lam), and each
# reports its a-priori step count beside the steps it took.

import numpy as np

from opframes import (
    frame_operator,
    optimal_bounds,
    reconstruct_chebyshev,
    reconstruct_direct,
    reconstruct_neumann,
)
from opframes.catalog import diagonal_slope_family
from opframes.hilbert_module import apply, random_vector, scalar_norm

family = diagonal_slope_family()
data = frame_operator(family)
lower, upper = optimal_bounds(data)
print(f"bounds: A = {lower:.6f}, B = {upper:.6f}")

rng = np.random.default_rng(0)
x_true = random_vector(family.descriptor, family.n, rng, unit=True)
y = apply(data.element, x_true)

direct = reconstruct_direct(data, y)
print(f"direct: residual {direct.final_residual:.2e}, "
      f"error {scalar_norm(direct.vector - x_true):.2e}")

for relaxation, label in (("auto", "lam = 1/B     "), ("optimal", "lam = 2/(A+B) ")):
    result = reconstruct_neumann(data, y, relaxation=relaxation, tol=1e-12)
    print(f"{label}: q = {result.contraction:.4f}, {result.iterations} iterations "
          f"({result.predicted_iterations} predicted), residual {result.final_residual:.2e}")
result = reconstruct_chebyshev(data, y, tol=1e-12)
print(f"Chebyshev     : q = {result.contraction:.4f}, {result.iterations} iterations "
      f"({result.predicted_iterations} predicted), residual {result.final_residual:.2e}")

# The certified factor is visible in the measured residual decay.
result = reconstruct_neumann(data, y, tol=1e-12)
history = result.residual_history
print("\nresidual history (lam = 1/B):")
for i, value in enumerate(history[:6]):
    ratio = "" if i == 0 else f"   ratio {history[i] / history[i - 1]:.4f}"
    print(f"  step {i}: {value:.3e}{ratio}")
