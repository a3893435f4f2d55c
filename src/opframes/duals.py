"""Canonical dual families and dual-pair verification.

The canonical dual of a frame {T_w} is {T_w S^-1}: apply the inverse
frame operator first, then the node operator.  In the right-multiplication
picture the dual node matrix is ``s_inv @ M_w``, and the dual frame
operator is ``s_inv`` itself, so the dual's optimal bounds are exactly
(1/B, 1/A) of the primal.  Both the inverse and the resolution of the
identity are taken per slot block (see ``frames``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _check_tol
from .frames import PARAMETRIC, OperatorFamily, frame_operator, optimal_bounds, require_frame
from .hilbert_module import _from_slots, _to_slots
from .quadrature import _integrate_products


@dataclass(frozen=True)
class DualPairReport:
    is_dual: bool
    resolution_residual: float          # || integral of T* Lambda - I ||
    dual_bounds: tuple
    tolerance: float


def canonical_dual(family: OperatorFamily, tol: float = 1e-10) -> OperatorFamily:
    """The family {T_w S^-1} of a frame at ``tol``; parametric input yields parametric output."""
    data = frame_operator(family)
    require_frame(data, tol)
    s_inv = np.linalg.inv(data.blocks)[:, None]
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
    """
    _check_tol(tol)
    if primal.rule != other.rule:
        raise ValueError("families must share one quadrature rule")
    if primal.descriptor != other.descriptor or primal.n != other.n:
        raise ValueError("families must share descriptor and rank")
    resolution = _integrate_products(primal.rule, other.blocks, primal.blocks)
    residual = float(np.max(np.linalg.norm(resolution - np.eye(resolution.shape[-1]), 2, axis=(1, 2))))
    lo, hi = optimal_bounds(frame_operator(other))
    return DualPairReport(
        is_dual=residual <= tol,
        resolution_residual=residual,
        dual_bounds=(lo, hi),
        tolerance=tol,
    )


def dual_bounds(family: OperatorFamily, tol: float = 1e-10) -> tuple[float, float]:
    """Optimal bounds of the canonical dual; equals (1/B, 1/A) of the primal."""
    return optimal_bounds(frame_operator(canonical_dual(family, tol)))
