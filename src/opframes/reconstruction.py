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
  per step, ||r_k|| <= q^(k+1) ||y||.  With lam = 1/B ("auto"), q = (B - A)/B,
  the quantity that certifies invertibility of the frame operator;
  lam = 2/(A + B) ("optimal") is the classical optimal relaxation.  It is
  Chebyshev's recurrence on the one-point interval [1/lam, 1/lam]: with
  theta = 1/lam and delta = 0 the recurrence's step is lam r, so both
  iterations run one loop, ``_iterate``.

Both iterations report the least k their bound allows as
``predicted_iterations``, stop at that count plus CHEBYSHEV_SLACK, and
never after more than CHEBYSHEV_BUDGET steps.  Every route refuses
A <= SINGULARITY_RATIO * B and a y that is not a vector of the module s
acts on (a y with an entry that is not finite was refused when it was
built), and refuses y by name, with no numpy warning, when ||y||,
an iterate, the solution or a residual is past the float range.  It
measures residuals relative to ||y||, as the largest spectral norm over the
slots (the norm of their direct sum).  V is unitary, so an iteration's
residual y_hat - x_hat mu has the norm of y - x s; the direct route, whose
eigenbasis residual is zero to rounding, measures y - x s with the blocks
of s.

An iteration norms its steps' residuals in runs, one SVD of their stacked
slot blocks per run: steps 0 to ``predicted_iterations``, then the steps
left before the cap.  It returns the first step whose residual is not
above tol, with its iterate, so the stopping rule and every number are
those of norming one step at a time; a run may compute steps past that
one, which it does not report.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import SINGULARITY_RATIO, _check_tol, _finite, _Frozen
from .exceptions import NoConvergence, SingularFrameOperator
from .frames import FrameOperatorData, require_frame
from .hilbert_module import ModuleVector, _slot_norm

# Steps allowed beyond the a-priori count, for a bound met only to rounding.
# On 4000 random frames with B/A in [1, 1e4] and tol in [1e-14, 1e-6] Chebyshev
# exceeded its prediction by at most 1, and so did the relaxation, with either
# step, on 3000 with B/A in [1, 70] (tests/test_reconstruction.py holds both
# to this slack).
CHEBYSHEV_SLACK = 2
# A fixed ceiling on the steps of either iteration, whatever B/A and tol ask
# for, so that every call ends in bounded time and memory (one residual per
# step).  Chebyshev's a-priori count at B/A = 1e4 and tol = 1e-14 is 1647, so
# every frame up to that ratio still converges; at B/A = 1e8 the count is
# about 1.4e5 and the call ends in NoConvergence after this many steps.  The
# relaxation with lam = 1/B has its count at tol = 1e-12 within it up to B/A
# of about 73.
CHEBYSHEV_BUDGET = 2000
# The most steps whose residuals one SVD norms, so that a run holds a bounded
# number of iterates and residual blocks at once.
RUN_STEPS = 256
# The refusal of a y whose iterate, solution or residual is past the float range.
_PAST_RANGE = "data vector drives the solve past the float range of doubles"


class ReconstructionResult(_Frozen):
    """A recovered vector and how it was found: ``method`` is "direct", "neumann" or "chebyshev"."""

    def __init__(self, vector: ModuleVector, iterations: int, residual_history: tuple, method: str,
                 relaxation: float | None = None, contraction: float | None = None,
                 predicted_iterations: int | None = None):
        self._store(vector=vector, iterations=iterations, residual_history=residual_history, method=method,
                    relaxation=relaxation, contraction=contraction, predicted_iterations=predicted_iterations)

    @property
    def final_residual(self):
        return self.residual_history[-1]


def _eigenbasis(data, y):
    """(y_hat, mu, y_scale): the slot blocks of y in the eigenbasis of s, its
    eigenvalues broadcast over the rows, and ||y|| (1 when y = 0).  Refuses a y
    of another algebra or rank than s, or whose norm is past the float range;
    its entries are finite since it was built (``algebra._as_blocks``)."""
    y_slots = y.slots
    if y.descriptor != data.descriptor or y_slots.shape[-1] != data.blocks.shape[-1]:
        raise ValueError("data vector does not match the frame operator shape")
    y_scale = _finite(_slot_norm(y_slots), "data vector has a norm past the float range of doubles")
    y_hat = y_slots @ data.block_eigenvectors
    return y_hat, data.block_eigenvalues[:, None, :], y_scale or 1.0


def _vector(data, y, x_hat):
    """The module vector whose slot blocks are x_hat V*, refused past the float range."""
    x_slots = x_hat @ data.block_eigenvectors.conj().swapaxes(1, 2)
    return ModuleVector.from_slots(y.descriptor, _finite(x_slots, _PAST_RANGE))


def _least_count(log_need, log_rate):
    """The least k >= 0 with k * log_rate >= log_need (log_rate > 0 or infinite)."""
    return 0 if log_need <= 0.0 else math.ceil(log_need / log_rate)


def _norms(residuals, y_scale):
    """The norms of a run of residuals relative to y_scale, as floats, from one
    SVD of their stacked slot blocks (LAPACK factors each block as it would
    alone).  Only the steps before the first block with an entry that is not
    finite are normed; that step and the ones after it read NaN."""
    blocks = np.stack(residuals)
    finite = np.isfinite(blocks).reshape(len(blocks), -1).all(axis=1)
    count = int(np.logical_and.accumulate(finite).sum())  # the steps before the first non-finite block
    norms = np.linalg.svd(blocks[:count], compute_uv=False)[..., 0].max(axis=1) / y_scale
    return norms.tolist() + [math.nan] * (len(blocks) - count)


@np.errstate(over="ignore", invalid="ignore")  # a value past the float range is refused by name
def _iterate(data, y, tol, theta, delta, predicted, **fields):
    """Chebyshev's recurrence on [theta - delta, theta + delta] from x_0 = y / theta,
    to the relative residual tol; ``fields`` complete the result.

    The result is the first step whose residual is not above tol, with that
    step's iterate.  A step up to it whose residual, or its norm, is past the
    float range (an iterate past it gives such a residual, since mu > 0)
    raises ValueError, as a step at a time would.  The steps' residuals are
    normed in runs, one SVD per run (``_norms``): steps 0 to ``predicted``,
    then the at most CHEBYSHEV_SLACK steps left before the cap, each run cut
    into pieces of at most RUN_STEPS steps.  The recurrence is the same a
    step at a time, so the iterates do not depend on where a run ends.
    Raises NoConvergence after ``predicted`` + CHEBYSHEV_SLACK steps, or
    after CHEBYSHEV_BUDGET steps if that is fewer.  With delta = 0 every
    step is x <- x + (y - x s) / theta.
    """
    cap = min(predicted + CHEBYSHEV_SLACK, CHEBYSHEV_BUDGET)
    y_hat, mu, y_scale = _eigenbasis(data, y)
    x = y_hat / theta
    r = y_hat - x * mu
    rho = delta / theta                  # Saad's rho_k = 1/sigma_k, sigma = theta/delta
    d = r / theta
    history, iterates, residuals, step = [], [x], [r], 0
    stop = min(predicted, cap)
    for end in sorted({*range(RUN_STEPS, stop, RUN_STEPS), stop, cap}):
        while step < end:
            step += 1
            x = x + d
            r = r - d * mu               # drives the recurrence; the test reads the true residual
            iterates.append(x)
            residuals.append(y_hat - x * mu)
            # rho' = 1/(2 sigma - rho) and 2 rho'/delta, spelled with no division by delta
            scale = 2.0 * theta - rho * delta
            rho, rho_prev = delta / scale, rho
            d = (rho * rho_prev) * d + (2.0 / scale) * r
        for x_k, residual in zip(iterates, _norms(residuals, y_scale)):
            history.append(_finite(residual, _PAST_RANGE))
            if residual <= tol:
                return ReconstructionResult(
                    vector=_vector(data, y, x_k),
                    iterations=len(history) - 1,
                    residual_history=tuple(history),
                    predicted_iterations=predicted,
                    **fields,
                )
        iterates, residuals = [], []
    raise NoConvergence(
        f"residual {history[-1]:.3e} > {tol:.3e} after {cap} iterations",
        residual=history[-1],
        iterations=cap,
        predicted_iterations=predicted,
    )


@np.errstate(over="ignore", invalid="ignore")  # a value past the float range is refused by name
def reconstruct_direct(data: FrameOperatorData, y: ModuleVector) -> ReconstructionResult:
    """x = ((y V) / mu) V* from the cached eigenpairs of every slot block."""
    require_frame(data, SINGULARITY_RATIO, SingularFrameOperator)
    y_hat, mu, y_scale = _eigenbasis(data, y)
    x = _vector(data, y, y_hat / mu)
    return ReconstructionResult(
        vector=x,
        iterations=0,
        residual_history=(_slot_norm(_finite(y.slots - x.slots @ data.blocks, _PAST_RANGE)) / y_scale,),
        method="direct",
    )


def reconstruct_chebyshev(
    data: FrameOperatorData, y: ModuleVector, tol: float = 1e-12
) -> ReconstructionResult:
    """Chebyshev semi-iteration on [A, B] from x_0 = y / theta, to the requested residual.

    The residual is the norm of y - x_k s relative to ||y||.  Raises
    NoConvergence after ``predicted_iterations`` + CHEBYSHEV_SLACK steps, or
    after CHEBYSHEV_BUDGET steps if that is fewer.  A tight frame (delta = 0)
    is solved by x_0.
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
    return _iterate(data, y, tol, theta, delta, predicted, method="chebyshev", contraction=q)


def reconstruct_neumann(
    data: FrameOperatorData, y: ModuleVector, relaxation="auto", tol: float = 1e-12
) -> ReconstructionResult:
    """Relaxation iteration from x_0 = lam y, stopping at the requested residual.

    ``relaxation`` is "auto" for the certified step lam = 1/B or "optimal" for
    2/(A + B).  The residual is the norm of y - x_m s relative to ||y|| (to 1
    when y = 0).  Raises NoConvergence as ``reconstruct_chebyshev`` does.
    """
    _check_tol(tol)
    if not isinstance(relaxation, str) or relaxation not in ("auto", "optimal"):
        raise ValueError(f"relaxation must be 'auto' (1/B) or 'optimal' (2/(A + B)), got {relaxation!r}")
    lo, hi = require_frame(data, SINGULARITY_RATIO, SingularFrameOperator)
    theta = hi if relaxation == "auto" else (hi + lo) / 2.0
    lam = 1.0 / theta
    q = max(abs(1.0 - lam * lo), abs(1.0 - lam * hi))
    # least k with q^(k+1) <= tol
    predicted = max(0, _least_count(-math.log(tol), -math.log(q)) - 1) if q > 0.0 else 0
    return _iterate(data, y, tol, theta, 0.0, predicted, method="neumann", relaxation=lam, contraction=q)
