"""Canonical dual families and dual-pair verification.

The canonical dual of a frame {T_w} is {T_w S^-1}: apply the inverse
frame operator first, then the node operator.  In the right-multiplication
picture the dual node matrix is ``s_inv @ M_w``, and the dual frame
operator is ``s_inv`` itself, so the dual's optimal bounds are exactly
(1/B, 1/A) of the primal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotAFrame
from .frames import PARAMETRIC, FrameOperatorData, OperatorFamily, frame_operator, optimal_bounds
from .quadrature import _integrate_products


@dataclass(frozen=True)
class DualPairReport:
    is_dual: bool
    resolution_residual: float          # || integral of T* Lambda - I ||
    dual_bounds: tuple
    tolerance: float


def _require_frame(data: FrameOperatorData, tol):
    lo, hi = optimal_bounds(data)
    if lo <= tol:
        raise NotAFrame(f"lower frame bound {lo:.3e} below tolerance {tol:.1e}")
    return lo, hi


def canonical_dual(family: OperatorFamily, tol: float = 1e-10) -> OperatorFamily:
    """The family {T_w S^-1}; parametric input yields parametric output."""
    data = frame_operator(family)
    _require_frame(data, tol)
    s_inv = np.linalg.inv(data.flat)
    if family.form == PARAMETRIC:
        coeffs = family.coefficients
        deg, n = coeffs.shape[0], family.n
        k = family.descriptor.dim
        flat_coeffs = coeffs.transpose(0, 1, 3, 2, 4).reshape(deg, n * k, n * k)
        dual_flat = s_inv @ flat_coeffs
        dual_coeffs = dual_flat.reshape(deg, n, k, n, k).transpose(0, 1, 3, 2, 4)
        return OperatorFamily.parametric(family.rule, family.descriptor, n, dual_coeffs)
    return OperatorFamily.from_flats(family.rule, family.descriptor, family.n, s_inv @ family.flats)


def is_dual_pair(primal: OperatorFamily, other: OperatorFamily, tol: float = 1e-10) -> DualPairReport:
    """Check the resolution of the identity  x = integral of T_w* (Lambda_w x).

    The per-node composition in the right-multiplication picture is
    ``L_w @ M_w*``; the pair is dual when the weighted sum of those
    products is the identity to tolerance.
    """
    if primal.rule != other.rule:
        raise ValueError("families must share one quadrature rule")
    if primal.descriptor != other.descriptor or primal.n != other.n:
        raise ValueError("families must share descriptor and rank")
    resolution = _integrate_products(primal.rule, other.flats, primal.flats)
    residual = float(np.linalg.norm(resolution - np.eye(resolution.shape[0]), 2))
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
