"""Canonical dual families and dual-pair verification.

The canonical dual of a frame {T_w} is {T_w S^-1}: apply the inverse
frame operator first, then the node operator.  In the right-multiplication
picture the dual node matrix is ``s_inv @ M_w``, and the dual frame
operator is ``s_inv`` itself, so the dual's optimal bounds are exactly
(1/B, 1/A) of the primal.  Both the inverse, W diag(sigma^-2) W* from the
SVD that ``frame_operator`` caches, and the resolution of the identity are
taken per slot block (see ``frames``).  The dual's slots are s^-1 times the
family's, of either form, so a parametric dual is parametric and no node
operator is evaluated.
"""

from __future__ import annotations

import numpy as np

from .algebra import _check_tol, _Frozen
from .frames import FRAME_TOL, OperatorFamily, _gram, _require_fit, frame_operator, optimal_bounds
from .frames import require_frame
from .hilbert_module import _slot_norm

_INVERTIBLE = 1.0 / np.finfo(float).max  # the least lower bound A whose 1/A is a double


class DualPairReport(_Frozen):
    """Whether two families are a dual pair: ``resolution_residual`` is || integral of T* Lambda - I ||."""

    def __init__(self, is_dual: bool, resolution_residual: float, dual_bounds: tuple, tolerance: float):
        self._store(is_dual=is_dual, resolution_residual=resolution_residual, dual_bounds=dual_bounds,
                    tolerance=tolerance)


def canonical_dual(family: OperatorFamily, tol: float = FRAME_TOL) -> OperatorFamily:
    """The family {T_w S^-1} of a frame at ``tol``; parametric input yields parametric output.

    Raises ValueError, before s^-1 is formed, when 1/A is past the largest double."""
    data = frame_operator(family)
    lower, _ = require_frame(data, tol)
    if lower < _INVERTIBLE:
        raise ValueError(f"lower frame bound {lower:.6g} inverts past the float range of doubles")
    vectors = data.block_eigenvectors
    s_inv = ((vectors / data.block_eigenvalues[:, None, :]) @ vectors.conj().swapaxes(1, 2))[:, None]
    return OperatorFamily(family.rule, family.descriptor, family.n, s_inv @ family.slots, family.form)


def is_dual_pair(primal: OperatorFamily, other: OperatorFamily, tol: float = 1e-10) -> DualPairReport:
    """Check the resolution of the identity  x = integral of T_w* (Lambda_w x).

    The per-node composition in the right-multiplication picture is
    ``L_w @ M_w*``; the pair is dual when the weighted sum of those
    products is the identity to tolerance, in the largest spectral norm over the slots.
    For two parametric families the sum is Y_L* Y_M from their slot factors.
    """
    _check_tol(tol)
    _require_fit(primal, other)
    resolution = _gram(other, primal)
    residual = _slot_norm(resolution - np.eye(resolution.shape[-1]))
    lo, hi = optimal_bounds(frame_operator(other))
    return DualPairReport(
        is_dual=residual <= tol,
        resolution_residual=residual,
        dual_bounds=(lo, hi),
        tolerance=tol,
    )


def dual_bounds(family: OperatorFamily, tol: float = FRAME_TOL) -> tuple[float, float]:
    """Optimal bounds of the canonical dual; equals (1/B, 1/A) of the primal."""
    return optimal_bounds(frame_operator(canonical_dual(family, tol)))
