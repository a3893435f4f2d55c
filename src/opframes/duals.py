"""Canonical dual families and dual-pair verification.

The canonical dual of a frame {T_w} is {T_w S^-1}: apply the inverse
frame operator first, then the node operator.  In the right-multiplication
picture the dual node matrix is ``s_inv @ M_w``, and the dual frame
operator is ``s_inv`` itself, so the dual's optimal bounds are exactly
(1/B, 1/A) of the primal.  Both the inverse, W diag(sigma^-2) W* from the
SVD that ``frame_operator`` caches, and the resolution of the identity are
taken per slot block (see ``frames``); for parametric families both come
from the coefficients, and no node operator is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _check_tol
from .frames import FRAME_TOL, PARAMETRIC, OperatorFamily, _gram, frame_operator, optimal_bounds, require_frame
from .hilbert_module import _from_slots, _slot_norm, _to_slots


@dataclass(frozen=True)
class DualPairReport:
    is_dual: bool
    resolution_residual: float          # || integral of T* Lambda - I ||
    dual_bounds: tuple
    tolerance: float


def canonical_dual(family: OperatorFamily, tol: float = FRAME_TOL) -> OperatorFamily:
    """The family {T_w S^-1} of a frame at ``tol``; parametric input yields parametric output."""
    data = frame_operator(family)
    require_frame(data, tol)
    vectors = data.block_eigenvectors
    s_inv = ((vectors / data.block_eigenvalues[:, None, :]) @ vectors.conj().swapaxes(1, 2))[:, None]
    descriptor, n = family.descriptor, family.n
    if family.form == PARAMETRIC:
        dual_coeffs = _from_slots(descriptor, s_inv @ _to_slots(descriptor, family.coefficients))
        return OperatorFamily.parametric(family.rule, descriptor, n, dual_coeffs)
    return OperatorFamily(family.rule, descriptor, n, s_inv @ family.blocks)


def is_dual_pair(primal: OperatorFamily, other: OperatorFamily, tol: float = 1e-10) -> DualPairReport:
    """Check the resolution of the identity  x = integral of T_w* (Lambda_w x).

    The per-node composition in the right-multiplication picture is
    ``L_w @ M_w*``; the pair is dual when the weighted sum of those
    products is the identity to tolerance, in the largest spectral norm over the slots.
    For two parametric families the sum is Y_L* Y_M from their slot factors.
    """
    _check_tol(tol)
    if primal.rule != other.rule:
        raise ValueError("families must share one quadrature rule")
    if primal.descriptor != other.descriptor or primal.n != other.n:
        raise ValueError("families must share descriptor and rank")
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
