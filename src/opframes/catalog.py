"""Ready-made operator families for demos, benchmarks, and tests."""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor
from .frames import OperatorFamily, frame_operator, optimal_bounds
from .quadrature import QuadratureRule, gauss_legendre

ROOT3 = np.sqrt(3.0)


def diagonal_slope_family(slopes=(1.0, ROOT3 / 2.0), rule: QuadratureRule | None = None) -> OperatorFamily:
    """Diagonal family T_w = diag(slope_1 w, ..., slope_k w) on [0, 1].

    The default slopes (1, sqrt(3)/2) give the standard two-slot instance
    whose frame operator is diag(1/3, 1/4), optimal bounds (1/4, 1/3), and
    whose canonical dual is diag(3 w, 2 sqrt(3) w) with bounds (3, 4).
    """
    if rule is None:
        rule = gauss_legendre(0.0, 1.0, 32)
    slopes = np.asarray(slopes, dtype=np.complex128)
    k = len(slopes)
    descriptor = AlgebraDescriptor("diagonal", k)
    coeffs = np.zeros((2, 1, 1, k, k), dtype=np.complex128)
    coeffs[1, 0, 0] = np.diag(slopes)
    return OperatorFamily.parametric(rule, descriptor, 1, coeffs)


def identity_family(descriptor: AlgebraDescriptor, n: int, rule: QuadratureRule | None = None) -> OperatorFamily:
    """Constant family T_w = I.  On [0, 1] with Lebesgue measure it is Parseval."""
    if rule is None:
        rule = gauss_legendre(0.0, 1.0, 32)
    k = descriptor.dim
    coeffs = np.zeros((1, n, n, k, k), dtype=np.complex128)
    for i in range(n):
        coeffs[0, i, i] = np.eye(k)
    return OperatorFamily.parametric(rule, descriptor, n, coeffs)


def random_frame_family(
    descriptor: AlgebraDescriptor,
    n: int,
    rule: QuadratureRule,
    degree: int = 2,
    seed=0,
) -> OperatorFamily:
    """Random polynomial family that is certified to be a frame.

    An identity anchor in the constant coefficient keeps every node
    operator away from singularity; the random polynomial part is scaled
    down with degree.  Draws are retried (deterministically) until the
    lower frame bound clears 1e-2.
    """
    rng = np.random.default_rng(seed)
    k = descriptor.dim
    eye = np.eye(k)
    for _ in range(64):
        coeffs = np.zeros((degree + 1, n, n, k, k), dtype=np.complex128)
        for d in range(degree + 1):
            blocks = rng.standard_normal((n, n, k, k)) + 1j * rng.standard_normal((n, n, k, k))
            if descriptor.is_diagonal:
                blocks = blocks * eye
            scale = 0.25 / ((d + 1.0) * np.sqrt(n * k))
            coeffs[d] = scale * blocks
        for i in range(n):
            coeffs[0, i, i] += eye
        family = OperatorFamily.parametric(rule, descriptor, n, coeffs)
        lower, _ = optimal_bounds(frame_operator(family))
        if lower >= 1e-2:
            return family
    raise RuntimeError("could not draw a frame family with the requested lower bound")
