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
in a single row of X attains equality.  A family holds slot blocks: a
sampled family's node operators, (k, N, n, n) for a diagonal algebra and
(1, N, nk, nk) for a full one, or a parametric family's coefficients,
with D in place of N.  Every spectral quantity is one batched kernel over
the slots: the spectrum of s is the union of its blocks' spectra.  Tables
of algebra elements, slot blocks and the dense ``flats`` and ``flat``
convert into each other only through the helpers of ``hilbert_module``.

Every weighted Gram form sum_i w_i L_i M_i* is one product F_L* F_M of
slot factors (``_gram``): per slot, F is a tall matrix with F* F = s.  A
sampled family's is the weighted analysis map V, which stacks
sqrt(w_i) M_i* over the nodes.  A parametric family M(t) = sum_p C_p t^p,
p < D, depends on the rule only through Phi_ip = sqrt(w_i) t_i^p, so with
the triangle R of a Householder QR of Phi its factor is Y = (R (x) I_b)[C_p*],
of min(N, D) b rows per slot, and Y* Y = V* V.  Either is cached on the
family; the triangle R is computed once per rule and degree and cached on
the rule.  A parametric family evaluates its node blocks only when they are
read (``analysis``, ``synthesis``, and a pair with a sampled family, which
pairs the two node factors V).  Phi and the node blocks take their t^p
from ``quadrature.node_powers``, which refuses one past the float range,
and the node blocks are summed by ``quadrature.polynomial_values``, which
refuses a value past it, as ``analysis`` and ``synthesis`` refuse their
results.  ``algebra._as_blocks`` checks a constructor's table once; it
refuses an empty axis and a non-finite entry.  Every spectral quantity of
a family comes from one SVD per slot of its factor (``frame_operator``),
never from the formed s, whose eigenvalues carry A with a relative error
of about eps B/A; sigma_min^2 carries about eps sqrt(B/A).

"Is a frame" has one rule, in ``require_frame``, ``classify`` and
``below_bounded_check`` alike: A > tol * B with B > 0, by default at
FRAME_TOL.  It is relative, so rescaling a family never changes the
verdict; non-finite bounds fail it.  A tol below
``algebra.SINGULARITY_RATIO``, the floor at which the reconstructors
decide, raises ValueError, so no command can accept a family that the
reconstructors refuse.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import SINGULARITY_RATIO, AlgebraDescriptor, _as_blocks, _check_tol, _finite, _Frozen, _read_only
from .exceptions import NotAFrame
from .hilbert_module import L2Family, ModuleOperator, ModuleVector, _check_fit, _flatten, _from_slots
from .hilbert_module import _side_by_side, _slot_rows, _to_slots, _unflatten
from .quadrature import QuadratureRule, polynomial_values

FRAME_TOL = 1e-8  # the default tol of the frame rule, in the library and in scenarios
PARAMETRIC = "parametric"
KERNEL_TOL = 1e-12  # singular values <= KERNEL_TOL * sigma_max count toward the synthesis kernel
SAMPLED = "sampled"
_SIGMA_MAX, _SIGMA_TINY = np.sqrt(np.finfo(float).max), np.sqrt(np.finfo(float).tiny)  # square to the float range


def _node_blocks(rule, slots):
    """Slot blocks (m, N, b, b) of sum_p C_p t^p at the nodes of ``rule``, from the coefficient
    slots (m, D, b, b) (``quadrature.polynomial_values``, which refuses a value past the float range)."""
    return np.ascontiguousarray(polynomial_values(rule.nodes, slots, axis=1).swapaxes(0, 1))


class OperatorFamily(_Frozen, eq=False):
    """An indexed operator family, parametric in the node variable or sampled.

    Either form holds one read-only working array, ``slots``, which every
    consumer reads: a sampled family's node operators (m, N, b, b), or a
    parametric family's polynomial coefficients, lowest degree first,
    (m, D, b, b).  A parametric family evaluates its node operators,
    ``blocks``, only when first read, which ``analysis``, ``synthesis`` and
    the consumers that mix it with sampled data do; its frame operator,
    spectrum and dual-pair resolution come from its slot factor
    (``_slot_factor``), at O(N D^2) for the rule and nothing per node
    operator.  Either form caches its factor and its frame operator, and no
    field can be set again under them.  A constructor's table, checked by
    ``algebra._as_blocks`` (a sampled one's per node operator), becomes slot
    blocks once, in ``_to_slots``.
    """

    def __init__(self, rule, descriptor, n, slots, form):
        # _factor, the slot factor V or Y, is set by _slot_factor; _frame, a FrameOperatorData, by frame_operator
        self._store(rule=rule, descriptor=descriptor, n=n, slots=_read_only(slots), form=form, _factor=None,
                    _frame=None)

    @classmethod
    def parametric(cls, rule: QuadratureRule, descriptor: AlgebraDescriptor, n: int, coefficients):
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        k = descriptor.dim
        # each coefficient is itself a valid operator, so every node evaluation is one
        coefficients = _as_blocks(descriptor, coefficients, (*coefficients.shape[:1], n, n, k, k), "operator blocks")
        family = cls(rule, descriptor, n, _to_slots(descriptor, coefficients), PARAMETRIC)
        family._store(coefficients=coefficients)  # the validated table as given, bit for bit
        return family

    @classmethod
    def sampled(cls, rule: QuadratureRule, operators):
        operators = list(operators)
        if len(operators) != len(rule):
            raise ValueError(f"need {len(rule)} operators, got {len(operators)}")
        first = operators[0]
        for op in operators:
            _check_fit(op, first, "all sampled operators must share descriptor and rank")
        table = np.stack([op.blocks for op in operators])  # each one validated already
        return cls(rule, first.descriptor, first.n, _to_slots(first.descriptor, table), SAMPLED)

    @classmethod
    def from_flats(cls, rule, descriptor, n, flats):
        """Sampled family from pre-flattened node operators, validated and copied in one pass."""
        flats = np.asarray(flats, dtype=np.complex128)
        k = descriptor.dim
        if flats.shape[1:] != (n * k, n * k):
            raise ValueError(f"node operators must be {n * k} x {n * k}, got {flats.shape[1:]}")
        if len(flats) != len(rule):
            raise ValueError(f"need {len(rule)} operators, got {len(flats)}")
        table = _as_blocks(descriptor, _unflatten(flats, k), (len(rule), n, n, k, k), "operator blocks")
        return cls(rule, descriptor, n, _to_slots(descriptor, table), SAMPLED)

    @cached_property
    def coefficients(self) -> np.ndarray | None:
        """(D, n, n, k, k) read-only coefficient table of a parametric family (None if sampled),
        for inspection and reports: the table given to ``parametric``, else built from ``slots``."""
        return None if self.form == SAMPLED else _read_only(_from_slots(self.descriptor, self.slots))

    @cached_property
    def blocks(self) -> np.ndarray:
        """(m, N, b, b) read-only slot blocks of the node operators: a sampled family's ``slots``;
        a parametric family evaluates its polynomial at the nodes on the first read."""
        return self.slots if self.form == SAMPLED else _read_only(_node_blocks(self.rule, self.slots))

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


class FrameOperatorData(_Frozen, eq=False):
    """Frame operator of a family as slot blocks, with the blocks' eigenpairs
    (from the slot factor, not from ``blocks``, so a residual with ``blocks`` checks them):
    ``blocks`` (m, b, b) Hermitian, one per slot; ``block_eigenvalues`` (m, b), each row
    ascending; ``block_eigenvectors`` (m, b, b), its columns matching those rows."""

    def __init__(self, descriptor: AlgebraDescriptor, blocks: np.ndarray, block_eigenvalues: np.ndarray,
                 block_eigenvectors: np.ndarray):
        self._store(descriptor=descriptor, blocks=blocks, block_eigenvalues=block_eigenvalues,
                    block_eigenvectors=block_eigenvectors)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the flattened s, ascending (one slot's row is sorted already)."""
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


class FrameReport(_Frozen):
    """Classification of a family from the spectrum of its frame operator: ``classification``
    is frame, tight, parseval, bessel_only or not_bessel, ``is_frame`` the frame rule
    (``_is_frame``) at ``tolerance``."""

    def __init__(self, lower_bound: float, upper_bound: float, classification: str, is_frame: bool,
                 spectrum: tuple, condition: float, tolerance: float, tight_value: float | None = None,
                 diagnostics: str = ""):
        self._store(lower_bound=lower_bound, upper_bound=upper_bound, classification=classification,
                    is_frame=is_frame, spectrum=spectrum, condition=condition, tolerance=tolerance,
                    tight_value=tight_value, diagnostics=diagnostics)


@np.errstate(over="ignore", invalid="ignore")  # a value past the float range is refused by name
def analysis(family: OperatorFamily, x: ModuleVector) -> L2Family:
    """Apply every node operator to x; node and weight metadata travel along."""
    _check_fit(x, family, "vector does not match the family shape")
    rows = _finite(x.slots[:, None] @ family.blocks, "T x is past the float range of doubles")
    return L2Family(family.rule, family.descriptor, _from_slots(family.descriptor, rows)[:, 0])


@np.errstate(over="ignore", invalid="ignore")  # a value past the float range is refused by name
def synthesis(family: OperatorFamily, ys: L2Family) -> ModuleVector:
    """Weighted sum of adjoint node operators applied to the samples."""
    if ys.rule != family.rule:
        raise ValueError("family and samples use different quadrature rules")
    _check_fit(ys, family, "samples do not match the family shape")
    roots = np.sqrt(family.rule.weights)[:, None, None]
    rows = _side_by_side(roots * _to_slots(family.descriptor, ys.samples[:, None])) @ _node_factor(family)
    return ModuleVector.from_slots(family.descriptor, _finite(rows, "T* y is past the float range of doubles"))


def _node_factor(family) -> np.ndarray:
    """V per slot, (m, N b, b): sqrt(w_i) M_i* stacked over the nodes, from the node blocks."""
    roots = np.sqrt(family.rule.weights)[:, None, None]
    return _side_by_side(roots * family.blocks).conj().swapaxes(1, 2)


def _slot_factor(family) -> np.ndarray:
    """Per slot, a tall matrix F with F* F = s and the singular values of V, (m, r, b), r >= b; cached.

    A sampled family's F is V itself (``_node_factor``), r = N b.  A
    parametric family's is Y: with the weighted Vandermonde matrix
    Phi_ip = sqrt(w_i) t_i^p (N x D) and R the (min(N, D), D) triangle of its
    Householder QR, Y = (R (x) I_b) [C_0*; ...; C_{D-1}*], since
    V = (Phi (x) I_b) [C_p*] and Phi = Q R with orthonormal Q.  R comes from
    ``QuadratureRule.vandermonde_triangle``, computed once per rule and
    degree, so the parametric families on one rule share it.  On a Gauss
    rule with N >= D the products Y_L* Y_M are the integrals over the
    measure itself.  Phi's float-range refusal (``quadrature.node_powers``)
    is raised on every call.
    """
    if family._factor is None:
        if family.form == SAMPLED:
            factor = _node_factor(family)
        else:
            slots = family.slots
            triangle = family.rule.vandermonde_triangle(slots.shape[1])
            factor = np.tensordot(slots.conj().swapaxes(-1, -2), triangle, axes=([1], [1]))
            factor = factor.transpose(0, 3, 1, 2).reshape(len(slots), -1, slots.shape[-1])
        family._store(_factor=_read_only(factor))
    return family._factor


def _require_fit(family: OperatorFamily, other: OperatorFamily) -> None:
    """Raise ValueError unless two families share one quadrature rule, descriptor and rank."""
    if family.rule != other.rule:
        raise ValueError("families must share one quadrature rule")
    _check_fit(family, other, "families must share descriptor and rank")


def _gram(left: OperatorFamily, right: OperatorFamily) -> np.ndarray:
    """sum_i w_i L_i R_i* per slot, (m, b, b), for two families on one rule: F_L* F_R.

    Two families of one form pair their slot factors; a sampled family and
    a parametric one pair their node factors V, whose rows both follow the
    nodes.  A parametric factor of lower degree is zero below its rows, so
    the product runs over the shorter factor.
    """
    factor = _slot_factor if left.form == right.form else _node_factor
    f_left, f_right = factor(left), factor(right)
    rows = min(f_left.shape[1], f_right.shape[1])
    return f_left[:, :rows].conj().swapaxes(1, 2) @ f_right[:, :rows]


def frame_operator(family: OperatorFamily) -> FrameOperatorData:
    """s = sum_i w_i M_i M_i* per slot (``_gram``) and its eigenpairs, computed once per family.

    The eigenpairs come from one SVD per slot: the triangle R of a QR of the
    slot factor F has R* R = F* F = s, so with R = U diag(sigma) W* the
    eigenvalues of s are sigma^2, ascending here, and its eigenvectors are
    the columns of W.  A largest sigma whose square is past the largest
    double, or below the smallest normal one (so that every eigenvalue is
    subnormal or zero, or a nonzero family's factor underflowed to 0), raises
    ValueError before s is formed.  The result is cached on the family and
    its arrays are read-only, so every consumer shares one factorization.
    """
    if family._frame is None:
        _, sigma, right = np.linalg.svd(np.linalg.qr(_slot_factor(family), mode="r"))
        top = np.max(sigma)  # a NaN, from a factor past the float range, passes on to be classified not_bessel
        if top > _SIGMA_MAX:
            raise ValueError(f"singular value {top:.6g} squares past the float range of doubles")
        nonzero = top > 0.0 or family.slots.any()
        if nonzero and top < _SIGMA_TINY:  # a factor that underflowed to 0 too
            raise ValueError(f"largest singular value {top:.6g} squares below the float range of doubles")
        eigenpairs = sigma[:, ::-1] ** 2, right[:, ::-1].conj().swapaxes(1, 2)
        blocks = _gram(family, family)
        family._store(_frame=FrameOperatorData(family.descriptor, *map(_read_only, (blocks, *eigenpairs))))
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


def classify(data: FrameOperatorData, tol: float = FRAME_TOL) -> FrameReport:
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
        is_frame=is_frame,
        spectrum=spectrum,
        condition=condition,
        tolerance=tol,
        tight_value=tight_value,
        diagnostics=note,
    )


def below_bounded_check(family, tol: float = FRAME_TOL) -> tuple[bool, float]:
    """The frame rule on A = sigma_min^2, B = sigma_max^2 of the weighted analysis map, and sigma_min."""
    lower, upper = optimal_bounds(frame_operator(family))
    return _is_frame(lower, upper, tol), lower**0.5


def independence_check(family, tol: float = KERNEL_TOL) -> tuple[bool, int]:
    """Numerical kernel of the synthesis map at quadrature resolution.

    The synthesis map sends the discretized l2 space, N copies of the module,
    onto the module; the family is independent exactly when the numerical
    kernel (singular values <= tol * sigma_max) is trivial.  Returns the
    kernel dimension in the module, whose vectors have r rows of b entries
    in each of m slots (``ModuleVector.slots``), r = 1 on a diagonal algebra
    and k on a full one (``_slot_rows``): r (N m b - rank).
    """
    _check_tol(tol)
    data = frame_operator(family)
    sigma = np.sqrt(data.eigenvalues)  # ascending; all zero gives rank 0
    rank = int(np.sum(sigma > tol * sigma[-1]))
    slots, size = data.blocks.shape[:2]
    kernel_dim = _slot_rows(family.descriptor) * (len(family) * slots * size - rank)
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
    blocks = np.zeros((len(data.blocks), _slot_rows(data.descriptor), data.blocks.shape[-1]), dtype=np.complex128)
    blocks[slot, 0] = data.block_eigenvectors[slot][:, col].conj()
    return ModuleVector.from_slots(data.descriptor, blocks)
