"""Recovering x from frame-operator data y = S x, per slot block of s (``frames``).

Two routes: LU of every slot of x s = y in one batched call, and the
relaxation iteration  x_{m+1} = x_m + lam (y - x_m s)  whose error contracts
by q = max(|1 - lam A|, |1 - lam B|) per step.  With lam = 1/B the
contraction factor is (B - A) / B, the same quantity that certifies
invertibility of the frame operator in the first place; lam = 2/(A + B)
is the classical optimal relaxation and is available opt-in.  Both routes
refuse A <= SINGULARITY_RATIO * B and measure residuals relative to ||y||,
as the largest spectral norm over the slots (the norm of their direct sum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SINGULARITY_RATIO, _check_tol
from .exceptions import NoConvergence, SingularFrameOperator
from .frames import FrameOperatorData, require_frame
from .hilbert_module import ModuleVector, _from_slots, _to_slots, scalar_norm


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


def _relative_residual(y, x, s, y_scale):
    r = y - x @ s  # its norm is the largest singular value over the slots
    return float(np.max(np.linalg.svd(r, compute_uv=False)[:, 0])) / y_scale, r


def reconstruct_direct(data: FrameOperatorData, y: ModuleVector) -> ReconstructionResult:
    """Solve x s = y by LU on every slot block of the frame operator, in one batched call."""
    require_frame(data, SINGULARITY_RATIO, SingularFrameOperator)
    y_slots = _to_slots(y.descriptor, y.stack[None])
    x_slots = np.linalg.solve(data.blocks.swapaxes(1, 2), y_slots.swapaxes(1, 2)).swapaxes(1, 2)
    y_scale = scalar_norm(y) or 1.0
    residual, _ = _relative_residual(y_slots, x_slots, data.blocks, y_scale)
    return ReconstructionResult(
        vector=ModuleVector(y.descriptor, _from_slots(y.descriptor, x_slots)[0]),
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
    _check_tol(tol)
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
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

    y_slots = _to_slots(y.descriptor, y.stack[None])
    y_scale = scalar_norm(y) or 1.0
    x_slots = lam * y_slots
    residual, r = _relative_residual(y_slots, x_slots, data.blocks, y_scale)
    history = [residual]
    iterations = 0
    while history[-1] > tol:
        if iterations >= max_iter:
            raise NoConvergence(
                f"residual {history[-1]:.3e} > {tol:.3e} after {max_iter} iterations",
                residual=history[-1],
                iterations=iterations,
            )
        x_slots = x_slots + lam * r
        iterations += 1
        residual, r = _relative_residual(y_slots, x_slots, data.blocks, y_scale)
        history.append(residual)
    return ReconstructionResult(
        vector=ModuleVector(y.descriptor, _from_slots(y.descriptor, x_slots)[0]),
        iterations=iterations,
        residual_history=tuple(history),
        method="neumann",
        relaxation=lam,
        contraction=q,
    )
