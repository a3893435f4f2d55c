"""Recovering x from frame-operator data y = S x.

Two routes: direct inversion of the frame operator, and the relaxation
iteration  x_{m+1} = x_m + lam (y - x_m s)  whose error contracts by
q = max(|1 - lam A|, |1 - lam B|) per step.  With lam = 1/B the
contraction factor is (B - A) / B, the same quantity that certifies
invertibility of the frame operator in the first place; lam = 2/(A + B)
is the classical optimal relaxation and is available opt-in.
Both routes refuse A <= SINGULARITY_RATIO * B and measure residuals relative to ||y||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SINGULARITY_RATIO
from .exceptions import NoConvergence, SingularFrameOperator
from .frames import FrameOperatorData, require_frame
from .hilbert_module import ModuleVector, scalar_norm


@dataclass(frozen=True)
class ReconstructionResult:
    vector: ModuleVector
    iterations: int
    residual_history: tuple
    method: str                      # "direct" or "neumann"
    relaxation: float | None = None
    contraction: float | None = None

    @property
    def final_residual(self):
        return self.residual_history[-1]


def _relative_residual(y_flat, x_flat, s_flat, y_scale):
    r = y_flat - x_flat @ s_flat
    return float(np.linalg.norm(r, 2)) / y_scale, r


def reconstruct_direct(data: FrameOperatorData, y: ModuleVector) -> ReconstructionResult:
    """Solve x s = y by direct inversion of the flattened frame operator."""
    require_frame(data, SINGULARITY_RATIO, SingularFrameOperator)
    y_flat = y.flatten()
    x_flat = np.linalg.solve(data.flat.T, y_flat.T).T
    y_scale = scalar_norm(y) or 1.0
    residual, _ = _relative_residual(y_flat, x_flat, data.flat, y_scale)
    return ReconstructionResult(
        vector=ModuleVector.from_flat(y.descriptor, x_flat),
        iterations=0,
        residual_history=(residual,),
        method="direct",
    )


def reconstruct_neumann(
    data: FrameOperatorData,
    y: ModuleVector,
    relaxation="auto",
    tol: float = 1e-12,
    max_iter: int = 200,
) -> ReconstructionResult:
    """Relaxation iteration from x_0 = lam y, stopping at the requested residual.

    ``relaxation`` may be a number in (0, 2/B), "auto" for the certified
    1/B step, or "optimal" for 2/(A + B).  The residual is the norm of
    y - x_m s relative to ||y|| (to 1 when y = 0).  Raises NoConvergence
    when max_iter updates do not reach ``tol``.
    """
    lo, hi = require_frame(data, SINGULARITY_RATIO, SingularFrameOperator)
    if relaxation == "auto":
        lam = 1.0 / hi
    elif relaxation == "optimal":
        lam = 2.0 / (lo + hi)
    else:
        lam = float(relaxation)
        if not 0.0 < lam < 2.0 / hi:
            raise ValueError(f"relaxation must lie in (0, {2.0 / hi:.6g}), got {lam}")
    q = max(abs(1.0 - lam * lo), abs(1.0 - lam * hi))

    y_flat = y.flatten()
    y_scale = scalar_norm(y) or 1.0
    x_flat = lam * y_flat
    residual, r = _relative_residual(y_flat, x_flat, data.flat, y_scale)
    history = [residual]
    iterations = 0
    while history[-1] > tol:
        if iterations >= max_iter:
            raise NoConvergence(
                f"residual {history[-1]:.3e} > {tol:.3e} after {max_iter} iterations",
                residual=history[-1],
                iterations=iterations,
            )
        x_flat = x_flat + lam * r
        iterations += 1
        residual, r = _relative_residual(y_flat, x_flat, data.flat, y_scale)
        history.append(residual)
    return ReconstructionResult(
        vector=ModuleVector.from_flat(y.descriptor, x_flat),
        iterations=iterations,
        residual_history=tuple(history),
        method="neumann",
        relaxation=lam,
        contraction=q,
    )
