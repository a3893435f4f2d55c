#!/usr/bin/env python3
# Additive perturbation T_w + c_w K: admissibility and the bound envelope.
#
# The perturbation energy is R = integral of |c_w|^2 ||K||^2.  While
# R < A the perturbed family stays a frame and its optimal bounds stay
# inside [(sqrt A - sqrt R)^2, (sqrt B + sqrt R)^2].

from opframes import (
    AdditivePerturbation,
    ScalarFamily,
    additive_admissible,
    additive_envelope,
    frame_operator,
    optimal_bounds,
    perturb_additive,
)
from opframes.catalog import diagonal_slope_family
from opframes.hilbert_module import ModuleOperator

family = diagonal_slope_family()
lower, upper = optimal_bounds(frame_operator(family))
print(f"base bounds: ({lower:.4f}, {upper:.4f})\n")

print("constant c | energy R | admissible | envelope            | empirical bounds")
for c in (0.0, 0.2, 0.4, 0.49, 0.6):
    pert = AdditivePerturbation(
        ModuleOperator.identity(family.descriptor, 1), ScalarFamily.constant(c)
    )
    admissible, _, energy, _ = additive_admissible(family, pert)
    emp = optimal_bounds(frame_operator(perturb_additive(family, pert)))
    if admissible:
        env = additive_envelope(lower, upper, energy)
        env_text = f"[{env[0]:.4f}, {env[1]:.4f}]"
        inside = env[0] - 1e-9 <= emp[0] and emp[1] <= env[1] + 1e-9
        tail = "inside" if inside else "OUTSIDE"
    else:
        env_text = "-- (R >= A)       "
        tail = "no guarantee"
    print(f"  {c:8.2f} | {energy:8.4f} | {str(admissible):10s} | {env_text} |"
          f" ({emp[0]:.4f}, {emp[1]:.4f})  {tail}")

# A node-dependent coefficient works the same way; only its integrated
# energy enters the criterion.
ramp = AdditivePerturbation(
    ModuleOperator.identity(family.descriptor, 1),
    ScalarFamily.polynomial([0.0, 0.45]),  # c(w) = 0.45 w
)
admissible, _, energy, _ = additive_admissible(family, ramp)
print(f"\nc(w) = 0.45 w: R = {energy:.4f}, admissible = {admissible}")
