"""Operator families, the frame operator, and optimal frame bounds.

A family {T_w} indexed by the nodes of a quadrature rule defines

* the analysis map            x  ->  {T_w x},
* the synthesis map      {y_w}  ->  sum_i w_i T_wi* y_wi,
* the frame operator        S  =  synthesis o analysis.

In the right-multiplication representation S acts as ``x @ s`` where
``s = sum_i w_i M_i M_i*`` blockwise.  The optimal constants in the
two-sided inequality  A <x,x>  <=  <Sx,x>  <=  B <x,x>  are the extreme
eigenvalues of the flattened ``s``: under the row flattening X of x one
has <Sx,x> = X s X* and <x,x> = X X*, and placing an extremal eigenvector
in a single row of X attains equality.  A family stores its node operators
as slot blocks, (k, N, n, n) for a diagonal algebra and (1, N, nk, nk) for
a full one, and every spectral quantity is one batched kernel over the
slots: the spectrum of s is the union of its blocks' spectra.  Tables of
algebra elements, slot blocks and the dense ``flats`` and ``flat`` convert
into each other only through the helpers of ``hilbert_module``.

"Is a frame" has one rule, in ``require_frame``, ``classify`` and
``below_bounded_check`` alike: A > tol * B with B > 0.  It is relative, so
rescaling a family never changes the verdict; non-finite bounds fail it.
A tol below ``algebra.SINGULARITY_RATIO``, the floor at which the
reconstructors decide, raises ValueError, so no command can accept a
family that the reconstructors refuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import SINGULARITY_RATIO, AlgebraDescriptor, _check_tol
from .exceptions import NotAFrame
from .hilbert_module import L2Family, ModuleOperator, ModuleVector, _as_blocks, _flatten, _from_slots
from .hilbert_module import _to_slots, _unflatten
from .quadrature import QuadratureRule, _integrate_products, _side_by_side

PARAMETRIC = "parametric"
SAMPLED = "sampled"


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class OperatorFamily:
    """An indexed operator family, parametric in the node variable or sampled.

    Parametric families store polynomial coefficients, lowest degree first,
    as an array of shape (degree + 1, n, n, k, k); the node operator is the
    polynomial evaluated at that node.  The node operators are read-only
    slot blocks (m, N, b, b), so the frame operator and the singular values
    computed from them are cached on the family.
    """

    def __init__(self, rule, descriptor, n, blocks, coefficients=None):
        self.rule = rule
        self.descriptor = descriptor
        self.n = n
        self.form = SAMPLED if coefficients is None else PARAMETRIC
        self.coefficients = coefficients
        self.blocks = _read_only(blocks)
        self._frame = None               # FrameOperatorData, set by frame_operator
        self._sigma = None               # singular values, set by _singular_values

    @classmethod
    def parametric(cls, rule: QuadratureRule, descriptor: AlgebraDescriptor, n: int, coefficients):
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        k = descriptor.dim
        if n < 1 or coefficients.ndim != 5 or coefficients.shape[1:] != (n, n, k, k):
            raise ValueError(
                f"coefficients must have shape (degree+1, {n}, {n}, {k}, {k}),"
                f" got {coefficients.shape}"
            )
        # each coefficient is itself a valid operator, so every node evaluation is one
        coefficients = _as_blocks(descriptor, coefficients, coefficients.shape, "operator blocks")
        powers = rule.nodes[:, None] ** np.arange(len(coefficients))[None, :]
        blocks = np.tensordot(powers, _to_slots(descriptor, coefficients), axes=([1], [1]))
        blocks = np.ascontiguousarray(blocks.swapaxes(0, 1))
        return cls(rule, descriptor, n, blocks, coefficients)

    @classmethod
    def sampled(cls, rule: QuadratureRule, operators):
        operators = list(operators)
        if len(operators) != len(rule):
            raise ValueError(f"need {len(rule)} operators, got {len(operators)}")
        first = operators[0]
        if any(op.descriptor != first.descriptor or op.n != first.n for op in operators):
            raise ValueError("all sampled operators must share descriptor and rank")
        table = np.stack([op.blocks for op in operators])  # each one validated already
        return cls(rule, first.descriptor, first.n, _to_slots(first.descriptor, table))

    @classmethod
    def from_flats(cls, rule, descriptor, n, flats):
        """Sampled family from pre-flattened node operators, validated and copied in one pass."""
        flats = np.asarray(flats, dtype=np.complex128)
        k = descriptor.dim
        if n < 1 or flats.shape[1:] != (n * k, n * k):
            raise ValueError(f"node operators must be {n * k} x {n * k}, got {flats.shape[1:]}")
        if len(flats) != len(rule):
            raise ValueError(f"need {len(rule)} operators, got {len(flats)}")
        table = _as_blocks(descriptor, _unflatten(flats, k), (len(rule), n, n, k, k), "operator blocks")
        return cls(rule, descriptor, n, _to_slots(descriptor, table))

    @property
    def flats(self) -> np.ndarray:
        """(N, n*k, n*k) array of flattened node operators, built from the blocks on each read."""
        return _read_only(_flatten(_from_slots(self.descriptor, self.blocks)))

    def with_rule(self, rule: QuadratureRule) -> "OperatorFamily":
        """Re-sample a parametric family on another rule (sampled forms cannot move)."""
        if self.form != PARAMETRIC:
            raise ValueError("only parametric families can change quadrature rule")
        return OperatorFamily.parametric(rule, self.descriptor, self.n, self.coefficients)

    def __len__(self):
        return len(self.rule)


@dataclass(frozen=True, eq=False)
class FrameOperatorData:
    """Frame operator of a family as slot blocks, with the blocks' eigenpairs."""

    descriptor: AlgebraDescriptor
    blocks: np.ndarray                   # (m, b, b) Hermitian, one per slot
    block_eigenvalues: np.ndarray        # (m, b), each row ascending
    block_eigenvectors: np.ndarray       # (m, b, b), columns match the rows above

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the flattened s, ascending (one slot's eigh is sorted already)."""
        values = self.block_eigenvalues
        return _read_only(np.sort(values, axis=None) if len(values) > 1 else values.ravel())

    @cached_property
    def flat(self) -> np.ndarray:
        """(n*k, n*k) Hermitian flattening of s."""
        return _read_only(_flatten(_from_slots(self.descriptor, self.blocks)))

    @cached_property
    def element(self) -> ModuleOperator:
        """s as an operator on A^n, S x = x @ s."""
        return ModuleOperator(self.descriptor, _from_slots(self.descriptor, self.blocks))


@dataclass(frozen=True)
class FrameReport:
    """Classification of a family from the spectrum of its frame operator."""

    lower_bound: float
    upper_bound: float
    classification: str                  # frame | tight | parseval | bessel_only | not_bessel
    spectrum: tuple
    condition: float
    tolerance: float
    tight_value: float | None = None
    diagnostics: str = ""


def analysis(family: OperatorFamily, x: ModuleVector) -> L2Family:
    """Apply every node operator to x; node and weight metadata travel along."""
    if x.descriptor != family.descriptor or x.n != family.n:
        raise ValueError("vector does not match the family shape")
    rows = _to_slots(family.descriptor, x.stack[None])[:, None] @ family.blocks
    return L2Family(family.rule, family.descriptor, _from_slots(family.descriptor, rows)[:, 0])


def synthesis(family: OperatorFamily, ys: L2Family) -> ModuleVector:
    """Weighted sum of adjoint node operators applied to the samples."""
    if ys.rule != family.rule:
        raise ValueError("family and samples use different quadrature rules")
    if ys.descriptor != family.descriptor or ys.n != family.n:
        raise ValueError("samples do not match the family shape")
    acc = _integrate_products(family.rule, _to_slots(family.descriptor, ys.samples[:, None]), family.blocks)
    return ModuleVector(family.descriptor, _from_slots(family.descriptor, acc)[0])


def frame_operator(family: OperatorFamily) -> FrameOperatorData:
    """s = sum_i w_i M_i M_i* per slot with one batched eigh, computed once per family.

    The result is cached on the family and its arrays are read-only, so
    every consumer shares one factorization.
    """
    if family._frame is None:
        blocks = _integrate_products(family.rule, family.blocks, family.blocks)
        eigenpairs = np.linalg.eigh(blocks)
        family._frame = FrameOperatorData(family.descriptor, *map(_read_only, (blocks, *eigenpairs)))
    return family._frame


def optimal_bounds(data: FrameOperatorData) -> tuple[float, float]:
    """Best constants in the two-sided frame inequality: the extreme eigenvalues over all slots."""
    values = data.block_eigenvalues
    return float(np.min(values[..., 0])), float(np.max(values[..., -1]))


def _is_frame(lower: float, upper: float, tol: float) -> bool:
    """The one frame rule: A > tol * B with B > 0; NaN bounds fail it.

    tol may not undercut SINGULARITY_RATIO, the floor at which the
    reconstructors and additive_admissible decide.
    """
    _check_tol(tol)
    if tol < SINGULARITY_RATIO:
        raise ValueError(
            f"tol {tol:g} is below the frame-rule floor SINGULARITY_RATIO = {SINGULARITY_RATIO:g}"
        )
    return upper > 0.0 and lower > tol * upper


def require_frame(data: FrameOperatorData, tol: float, error=NotAFrame) -> tuple[float, float]:
    """Optimal bounds (A, B) of a frame; raises ``error`` (a NotAFrame) unless A > tol * B."""
    lower, upper = optimal_bounds(data)
    if not _is_frame(lower, upper, tol):
        raise error(f"lower frame bound {lower:.3e} is not above {tol:.1e} x {upper:.3e}")
    return lower, upper


def classify(data: FrameOperatorData, tol: float = 1e-8) -> FrameReport:
    """Sort a family into frame / tight / parseval / bessel_only / not_bessel."""
    lower, upper = optimal_bounds(data)
    is_frame = _is_frame(lower, upper, tol)
    spectrum = tuple(float(v) for v in data.eigenvalues)
    tight_value = None
    if not (np.isfinite(lower) and np.isfinite(upper)):
        kind = "not_bessel"
        condition = float("nan")
        note = "spectrum contains non-finite values; input is malformed"
    elif not is_frame:
        kind = "bessel_only"
        condition = float("inf")
        note = f"lower bound {lower:.3e} not above {tol:.1e} x upper (Bessel) bound {upper:.6g}"
    else:
        condition = upper / lower
        if upper - lower <= tol * upper:
            tight_value = (lower + upper) / 2.0
            if abs(lower - 1.0) <= tol:
                kind = "parseval"
                note = "tight with level 1"
            else:
                kind = "tight"
                note = f"tight with level {tight_value:.6g}"
        else:
            kind = "frame"
            note = f"bounds ({lower:.6g}, {upper:.6g}), ratio {condition:.6g}"
    return FrameReport(
        lower_bound=lower,
        upper_bound=upper,
        classification=kind,
        spectrum=spectrum,
        condition=condition,
        tolerance=tol,
        tight_value=tight_value,
        diagnostics=note,
    )


def _singular_values(family) -> np.ndarray:
    """Singular values, descending, of V stacking sqrt(w_i) M_i* (so V* V = s), cached."""
    if family._sigma is None:
        roots = np.sqrt(family.rule.weights)
        tall = _side_by_side(roots[:, None, None] * family.blocks).conj().swapaxes(1, 2)
        sigma = np.linalg.svd(tall, compute_uv=False)
        family._sigma = _read_only(np.sort(sigma, axis=None)[::-1] if len(sigma) > 1 else sigma[0])
    return family._sigma


def below_bounded_check(family, tol: float = 1e-10) -> tuple[bool, float]:
    """The frame rule on sigma_min^2 = A, sigma_max^2 = B of the weighted analysis map, and sigma_min."""
    sigma_max, sigma_min = (float(v) for v in _singular_values(family)[[0, -1]])
    return _is_frame(sigma_min**2, sigma_max**2, tol), sigma_min


def independence_check(family, tol: float = 1e-12) -> tuple[bool, int]:
    """Numerical kernel of the synthesis map at quadrature resolution.

    The synthesis map sends the discretized l2 space (dimension N * n * k^2)
    onto the flattened module (dimension n * k^2); the family is independent
    exactly when the numerical kernel (singular values <= tol * sigma_max)
    is trivial.  Returns the kernel dimension, counted in the full
    flattened space.
    """
    _check_tol(tol)
    sigma = _singular_values(family)
    k = family.descriptor.dim
    rows = len(family) * family.n * k
    if sigma[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sigma > tol * sigma[0]))
    kernel_dim = k * (rows - rank)
    return kernel_dim == 0, kernel_dim


def extremal_vector(data: FrameOperatorData, which: str = "min") -> ModuleVector:
    """Unit vector in H attaining the extreme of <Sx,x> relative to <x,x>.

    Built from the eigenvector of the slot block that holds the extreme
    eigenvalue, placed in the first row of that slot.
    """
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    col, pick = (0, np.argmin) if which == "min" else (-1, np.argmax)
    slot = int(pick(data.block_eigenvalues[:, col]))
    rows = 1 if data.descriptor.is_diagonal else data.descriptor.dim
    blocks = np.zeros((len(data.blocks), rows, data.blocks.shape[-1]), dtype=np.complex128)
    blocks[slot, 0] = data.block_eigenvectors[slot][:, col].conj()
    return ModuleVector(data.descriptor, _from_slots(data.descriptor, blocks)[0])
