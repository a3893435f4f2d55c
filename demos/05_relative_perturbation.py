#!/usr/bin/env python3
# Relative perturbation: a comparison family close to a frame inherits bounds.
#
# If, for positively confined scale families a_w, b_w and constants
# alpha, beta < 1/2,
#
#   integral <a T x - b L x, a T x - b L x>
#       <= alpha integral <a T x, a T x> + beta integral <b L x, b L x>
#
# for all x, then L is itself a frame, with bounds predicted from T's.
# Both sides are quadratic forms in the row flattening of x, so the
# hypothesis holds for all x exactly when one Hermitian matrix Q is
# positive semidefinite.  The margin is its smallest eigenvalue relative to
# the largest eigenvalue of Q's positive part (the right-hand side), so it
# does not change when the problem is rescaled.

import numpy as np

from opframes import (
    RelativePerturbation,
    ScalarFamily,
    frame_operator,
    optimal_bounds,
    relative_criterion_check,
    relative_envelope,
)
from opframes.catalog import diagonal_slope_family
from opframes.frames import OperatorFamily

family = diagonal_slope_family()
bounds = optimal_bounds(frame_operator(family))

# comparison family: per-node rescaling of the original
rng = np.random.default_rng(3)
gamma = 1.0 + 0.12 * rng.uniform(-1.0, 1.0, len(family))
other = OperatorFamily.from_flats(
    family.rule, family.descriptor, family.n, gamma[:, None, None] * family.flats
)

pert = RelativePerturbation(
    scale_primal=ScalarFamily.constant(1.0),
    scale_other=ScalarFamily.constant(1.0),
    alpha=0.2,
    beta=0.2,
)

passed, margin = relative_criterion_check(family, other, pert)
print(f"criterion holds for all x: {passed} (margin {margin:.6f})")

env = relative_envelope(bounds, pert, family.rule)
emp = optimal_bounds(frame_operator(other))
print(f"predicted envelope: [{env[0]:.4f}, {env[1]:.4f}]")
print(f"empirical bounds:   ({emp[0]:.4f}, {emp[1]:.4f})")
print("inside envelope:", env[0] - 1e-9 <= emp[0] and emp[1] <= env[1] + 1e-9)

# A comparison family that is nothing like T fails the criterion.
unrelated = OperatorFamily.from_flats(
    family.rule, family.descriptor, family.n, 0.0 * family.flats
)
passed, margin = relative_criterion_check(family, unrelated, pert)
print(f"\nzero family passes the criterion: {passed} (margin {margin:.6f})")
