"""Recovering x from frame-operator data y = S x, per slot block of s (``frames``).

Every route works in the eigenbasis of s that ``frame_operator`` caches
from the family's one SVD (V the right singular vectors of its slot factor,
mu their singular values squared), so no second factorization is made.
With s = V diag(mu) V* per slot, y_hat = y V turns x s = y into the
elementwise x_hat mu = y_hat, and x = x_hat V*.

* ``reconstruct_direct`` divides: x = ((y V) / mu) V*.
* ``reconstruct_chebyshev`` is the frame algorithm with Chebyshev
  acceleration on the spectral interval [A, B] (Groechenig, "Acceleration of
  the frame algorithm", IEEE Trans. Signal Process. 41, 1993; Saad,
  *Iterative Methods for Sparse Linear Systems*, Alg. 12.1).  With
  theta = (B + A)/2, delta = (B - A)/2 and q = (sqrt B - sqrt A)/(sqrt B + sqrt A),
  it starts from x_0 = y / theta, and its residual obeys
  ||r_k|| <= (delta / theta) ||y|| 2 q^k / (1 + q^(2k)), so it reaches a
  relative residual tol in O(sqrt(B/A) log(1/tol)) steps.
* ``reconstruct_neumann`` is the plain relaxation x_{m+1} = x_m + lam (y - x_m s)
  from x_0 = lam y, whose residual contracts by q = max(|1 - lam A|, |1 - lam B|)
  per step, ||r_k|| <= q^(k+1) ||y||.  With lam = 1/B, q = (B - A)/B, the
  quantity that certifies invertibility of the frame operator; lam = 2/(A + B)
  is the classical optimal relaxation and is available opt-in.

Both iterations report the least k their bound allows as
``predicted_iterations``.  Chebyshev stops at that count plus
CHEBYSHEV_SLACK, and never after more than CHEBYSHEV_BUDGET steps; the
relaxation stops at its ``max_iter``.  Every route refuses
A <= SINGULARITY_RATIO * B and measures residuals relative to ||y||, as the
largest spectral norm over the slots (the norm of their direct sum).  V is
unitary, so an iteration's residual y_hat - x_hat mu has the norm of
y - x s; the direct route, whose eigenbasis residual is zero to rounding,
measures y - x s with the blocks of s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SINGULARITY_RATIO, _check_tol
from .exceptions import NoConvergence, SingularFrameOperator
from .frames import FrameOperatorData, require_frame
from .hilbert_module import ModuleVector, _from_slots, _slot_norm, _to_slots

# Chebyshev steps allowed beyond the a-priori count, for a bound met only to
# rounding.  On 4000 random frames with B/A in [1, 1e4] and tol in [1e-14, 1e-6]
# the count exceeded the prediction by at most 1 (tests/test_reconstruction.py
# holds it to this slack on such frames).
CHEBYSHEV_SLACK = 2
# A fixed ceiling on the Chebyshev steps, whatever B/A and tol ask for, so that
# every call ends in bounded time and memory (one residual per step).  The
# a-priori count at B/A = 1e4 and tol = 1e-14 is 1647, so every frame up to
# that ratio still converges; at B/A = 1e8 the count is about 1.4e5 and the
# call ends in NoConvergence after this many steps.
CHEBYSHEV_BUDGET = 2000


@dataclass(frozen=True)
class ReconstructionResult:
    vector: ModuleVector
    iterations: int
    residual_history: tuple
    method: str                      # "direct", "neumann" or "chebyshev"
    relaxation: float | None = None
    contraction: float | None = None
    predicted_iterations: int | None = None

    @property
    def final_residual(self):
        return self.residual_history[-1]


def _eigenbasis(data, y):
    """(y_hat, mu, y_scale): the slot blocks of y in the eigenbasis of s, its
    eigenvalues broadcast over the rows, and ||y|| (1 when y = 0)."""
    y_slots = _to_slots(y.descriptor, y.stack[None])
    y_hat = y_slots @ data.block_eigenvectors
    return y_hat, data.block_eigenvalues[:, None, :], _slot_norm(y_slots) or 1.0


def _vector(data, y, x_hat):
    """The module vector whose slot blocks are x_hat V*."""
    x_slots = x_hat @ data.block_eigenvectors.conj().swapaxes(1, 2)
    return ModuleVector(y.descriptor, _from_slots(y.descriptor, x_slots)[0])


def _least_count(log_need, log_rate):
    """The least k >= 0 with k * log_rate >= log_need (log_rate > 0 or infinite)."""
    return 0 if log_need <= 0.0 else math.ceil(log_need / log_rate)


def reconstruct_direct(data: FrameOperatorData, y: ModuleVector) -> ReconstructionResult:
    """x = ((y V) / mu) V* from the cached eigenpairs of every slot block."""
    require_frame(data, SINGULARITY_RATIO, SingularFrameOperator)
    y_hat, mu, y_scale = _eigenbasis(data, y)
    x = _vector(data, y, y_hat / mu)
    y_slots, x_slots = (_to_slots(y.descriptor, v.stack[None]) for v in (y, x))
    return ReconstructionResult(
        vector=x,
        iterations=0,
        residual_history=(_slot_norm(y_slots - x_slots @ data.blocks) / y_scale,),
        method="direct",
    )


def reconstruct_chebyshev(
    data: FrameOperatorData, y: ModuleVector, tol: float = 1e-12
) -> ReconstructionResult:
    """Chebyshev semi-iteration on [A, B] from x_0 = y / theta, to the requested residual.

    The residual is the norm of y - x_k s relative to ||y||.  Raises
    NoConvergence after ``predicted_iterations`` + CHEBYSHEV_SLACK steps, or
    after CHEBYSHEV_BUDGET steps if that is fewer.  A tight frame (delta = 0)
    is solved by x_0; its steps would be the relaxation with lam = 1/theta.
    """
    _check_tol(tol)
    lo, hi = require_frame(data, SINGULARITY_RATIO, SingularFrameOperator)
    theta, delta = (hi + lo) / 2.0, (hi - lo) / 2.0
    root_sum = math.sqrt(hi) + math.sqrt(lo)
    q = 2.0 * delta / root_sum / root_sum  # (sqrt B - sqrt A)/(sqrt B + sqrt A), with no cancellation
    # the least k with cosh(k log(1/q)) >= delta / (theta tol) = e^L, in logs so
    # that no tol overflows it: acosh(e^L) = L + log(1 + sqrt(1 - e^(-2L)))
    log_need = math.log(delta) - math.log(theta) - math.log(tol) if delta > 0.0 else -math.inf
    if log_need > 0.0:
        log_need += math.log1p(math.sqrt(-math.expm1(-2.0 * log_need)))
    predicted = _least_count(log_need, -math.log(q) if q > 0.0 else math.inf)
    cap = min(predicted + CHEBYSHEV_SLACK, CHEBYSHEV_BUDGET)

    y_hat, mu, y_scale = _eigenbasis(data, y)
    x = y_hat / theta
    r = y_hat - x * mu
    history = [_slot_norm(r) / y_scale]
    rho = delta / theta                  # Saad's rho_k = 1/sigma_k, sigma = theta/delta
    d = r / theta
    while history[-1] > tol:
        if len(history) > cap:
            raise NoConvergence(
                f"residual {history[-1]:.3e} > {tol:.3e} after {cap} iterations",
                residual=history[-1],
                iterations=cap,
                predicted_iterations=predicted,
            )
        x = x + d
        r = r - d * mu                   # drives the recurrence; the test reads the true residual
        history.append(_slot_norm(y_hat - x * mu) / y_scale)
        # rho' = 1/(2 sigma - rho) and 2 rho'/delta, spelled with no division by delta
        scale = 2.0 * theta - rho * delta
        rho, rho_prev = delta / scale, rho
        d = (rho * rho_prev) * d + (2.0 / scale) * r
    return ReconstructionResult(
        vector=_vector(data, y, x),
        iterations=len(history) - 1,
        residual_history=tuple(history),
        method="chebyshev",
        contraction=q,
        predicted_iterations=predicted,
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
    # least k with q^(k+1) <= tol
    predicted = max(0, _least_count(-math.log(tol), -math.log(q)) - 1) if q > 0.0 else 0

    y_hat, mu, y_scale = _eigenbasis(data, y)
    x = lam * y_hat
    r = y_hat - x * mu
    history = [_slot_norm(r) / y_scale]
    while history[-1] > tol:
        if len(history) > max_iter:
            raise NoConvergence(
                f"residual {history[-1]:.3e} > {tol:.3e} after {max_iter} iterations",
                residual=history[-1],
                iterations=max_iter,
                predicted_iterations=predicted,
            )
        x = x + lam * r
        r = y_hat - x * mu
        history.append(_slot_norm(r) / y_scale)
    return ReconstructionResult(
        vector=_vector(data, y, x),
        iterations=len(history) - 1,
        residual_history=tuple(history),
        method="neumann",
        relaxation=lam,
        contraction=q,
        predicted_iterations=predicted,
    )
