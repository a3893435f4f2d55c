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
in a single row of X attains equality.  All spectral quantities below are
computed from that flattening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDescriptor, loewner_leq, operator_norm
from .hilbert_module import (
    L2Family,
    ModuleOperator,
    ModuleVector,
    apply,
    inner_product,
    random_vector,
)
from .quadrature import QuadratureRule, _integrate_products, _side_by_side

PARAMETRIC = "parametric"
SAMPLED = "sampled"


class OperatorFamily:
    """An indexed operator family, parametric in the node variable or sampled.

    Parametric families store polynomial coefficients, lowest degree first,
    as an array of shape (degree + 1, n, n, k, k); the node operator is the
    polynomial evaluated at that node.  Sampled families store one operator
    per node.  The flats are read-only, so the frame operator and the
    singular values computed from them are cached on the family.
    """

    def __init__(self, rule, descriptor, n, *, coefficients=None, flats=None, form):
        self.rule = rule
        self.descriptor = descriptor
        self.n = n
        self.form = form
        self.coefficients = coefficients
        flats.setflags(write=False)
        self._flats = flats
        self._frame = None               # FrameOperatorData, set by frame_operator
        self._sigma = None               # singular values, set by _singular_values

    @classmethod
    def parametric(cls, rule: QuadratureRule, descriptor: AlgebraDescriptor, n: int, coefficients):
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        k = descriptor.dim
        if coefficients.ndim != 5 or coefficients.shape[1:] != (n, n, k, k):
            raise ValueError(
                f"coefficients must have shape (degree+1, {n}, {n}, {k}, {k}),"
                f" got {coefficients.shape}"
            )
        # each coefficient is itself a valid operator, so every node evaluation is one
        for d in range(coefficients.shape[0]):
            ModuleOperator(descriptor, coefficients[d])
        coefficients = coefficients.copy()
        coefficients.setflags(write=False)
        nk = n * k
        flat_coeffs = coefficients.transpose(0, 1, 3, 2, 4).reshape(-1, nk, nk)
        powers = rule.nodes[:, None] ** np.arange(flat_coeffs.shape[0])[None, :]
        flats = np.tensordot(powers, flat_coeffs, axes=1)
        return cls(rule, descriptor, n, coefficients=coefficients, flats=flats, form=PARAMETRIC)

    @classmethod
    def sampled(cls, rule: QuadratureRule, operators):
        operators = list(operators)
        if len(operators) != len(rule):
            raise ValueError(f"need {len(rule)} operators, got {len(operators)}")
        first = operators[0]
        if any(op.descriptor != first.descriptor or op.n != first.n for op in operators):
            raise ValueError("all sampled operators must share descriptor and rank")
        return cls.from_flats(rule, first.descriptor, first.n, [op.flatten() for op in operators])

    @classmethod
    def from_flats(cls, rule, descriptor, n, flats):
        """Sampled family from pre-flattened node operators, validated in one pass."""
        flats = np.array(flats, dtype=np.complex128)
        k = descriptor.dim
        if n < 1 or flats.shape[1:] != (n * k, n * k):
            raise ValueError(f"node operators must be {n * k} x {n * k}, got {flats.shape[1:]}")
        if len(flats) != len(rule):
            raise ValueError(f"need {len(rule)} operators, got {len(flats)}")
        slot = np.arange(n * k) % k  # the algebra index of each flattened row and column
        if descriptor.is_diagonal and np.any(flats[:, slot[:, None] != slot]):
            raise ValueError("operator blocks: diagonal descriptor requires zero off-diagonal entries")
        return cls(rule, descriptor, n, flats=flats, form=SAMPLED)

    @property
    def flats(self) -> np.ndarray:
        """(N, n*k, n*k) array of flattened node operators."""
        return self._flats

    def node_operator(self, i) -> ModuleOperator:
        return ModuleOperator.from_flat(self.descriptor, self._flats[i])

    def with_rule(self, rule: QuadratureRule) -> "OperatorFamily":
        """Re-sample a parametric family on another rule (sampled forms cannot move)."""
        if self.form != PARAMETRIC:
            raise ValueError("only parametric families can change quadrature rule")
        return OperatorFamily.parametric(rule, self.descriptor, self.n, self.coefficients)

    def __len__(self):
        return len(self.rule)


@dataclass(frozen=True, eq=False)
class FrameOperatorData:
    """Frame operator of a family: blocks over A, flattening, and its spectrum."""

    element: ModuleOperator              # s with S x = x @ s
    flat: np.ndarray                     # (n*k, n*k) Hermitian
    eigenvalues: np.ndarray              # ascending
    eigenvectors: np.ndarray             # columns match eigenvalues

    @property
    def descriptor(self):
        return self.element.descriptor

    @property
    def n(self):
        return self.element.n


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
    out = x.flatten() @ family.flats
    k = family.descriptor.dim
    samples = out.reshape(len(family), k, family.n, k).transpose(0, 2, 1, 3)
    return L2Family(family.rule, family.descriptor, samples)


def synthesis(family: OperatorFamily, ys: L2Family) -> ModuleVector:
    """Weighted sum of adjoint node operators applied to the samples."""
    if ys.rule != family.rule:
        raise ValueError("family and samples use different quadrature rules")
    if ys.descriptor != family.descriptor or ys.n != family.n:
        raise ValueError("samples do not match the family shape")
    k = family.descriptor.dim
    ys_flat = ys.samples.transpose(0, 2, 1, 3).reshape(len(family), k, family.n * k)
    acc = _integrate_products(family.rule, ys_flat, family.flats)
    return ModuleVector.from_flat(family.descriptor, acc)


def frame_operator(family: OperatorFamily) -> FrameOperatorData:
    """s = sum_i w_i M_i M_i* with its eigendecomposition, computed once per family.

    The result is cached on the family and its arrays are read-only, so
    every consumer shares one factorization.
    """
    if family._frame is None:
        acc = _integrate_products(family.rule, family.flats, family.flats)
        eigenvalues, eigenvectors = np.linalg.eigh(acc)
        for arr in (acc, eigenvalues, eigenvectors):
            arr.setflags(write=False)
        element = ModuleOperator.from_flat(family.descriptor, acc)
        family._frame = FrameOperatorData(element, acc, eigenvalues, eigenvectors)
    return family._frame


def optimal_bounds(data: FrameOperatorData) -> tuple[float, float]:
    """Best constants in the two-sided frame inequality: the extreme eigenvalues."""
    return float(data.eigenvalues[0]), float(data.eigenvalues[-1])


def classify(data: FrameOperatorData, tol: float = 1e-8) -> FrameReport:
    """Sort a family into frame / tight / parseval / bessel_only / not_bessel."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    lower, upper = optimal_bounds(data)
    spectrum = tuple(float(v) for v in data.eigenvalues)
    tight_value = None
    if not (np.isfinite(lower) and np.isfinite(upper)):
        kind = "not_bessel"
        condition = float("nan")
        note = "spectrum contains non-finite values; input is malformed"
    elif lower <= tol:
        kind = "bessel_only"
        condition = float("inf")
        note = f"lower bound {lower:.3e} below tolerance; upper (Bessel) bound {upper:.6g}"
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


def check_frame_inequality(family, lower, upper, xs, tol: float = 1e-10) -> bool:
    """Directly verify  lower <x,x> <= <Sx,x> <= upper <x,x>  on given vectors."""
    if lower > upper:
        raise ValueError("need lower <= upper")
    data = frame_operator(family)
    for x in xs:
        gram = inner_product(x, x)
        middle = inner_product(apply(data.element, x), x)
        if not loewner_leq(lower * gram, middle, tol):
            return False
        if not loewner_leq(middle, upper * gram, tol):
            return False
    return True


def norm_bounds_estimate(family, sample_count: int, seed=0) -> tuple[float, float]:
    """Sampled min/max of ||<Sx,x>|| over random unit vectors.

    The estimates always lie inside the optimal bounds; they approach them
    as the sample count grows.  Deterministic for a given seed.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    data = frame_operator(family)
    lo, hi = np.inf, -np.inf
    for _ in range(sample_count):
        x = random_vector(family.descriptor, family.n, rng, unit=True)
        value = operator_norm(inner_product(apply(data.element, x), x))
        lo = min(lo, value)
        hi = max(hi, value)
    return lo, hi


def _singular_values(family) -> np.ndarray:
    """Singular values of the tall matrix V stacking sqrt(w_i) M_i* (so V* V = s), cached."""
    if family._sigma is None:
        roots = np.sqrt(family.rule.weights)
        tall = _side_by_side(roots[:, None, None] * family.flats).conj().T
        family._sigma = np.linalg.svd(tall, compute_uv=False)
        family._sigma.setflags(write=False)
    return family._sigma


def below_bounded_check(family, tol: float = 1e-10) -> tuple[bool, float]:
    """Smallest singular value of the weighted analysis map; positive iff frame."""
    sigma_min = float(_singular_values(family)[-1])
    return sigma_min > tol, sigma_min


def independence_check(family, tol: float = 1e-12) -> tuple[bool, int]:
    """Numerical kernel of the synthesis map at quadrature resolution.

    The synthesis map sends the discretized l2 space (dimension N * n * k^2)
    onto the flattened module (dimension n * k^2); the family is independent
    exactly when the numerical kernel (singular values <= tol * sigma_max)
    is trivial.  Returns the kernel dimension, counted in the full
    flattened space.
    """
    sigma = _singular_values(family)
    k = family.descriptor.dim
    rows = len(family) * family.flats.shape[1]
    if sigma[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sigma > tol * sigma[0]))
    kernel_dim = k * (rows - rank)
    return kernel_dim == 0, kernel_dim


def extremal_vector(data: FrameOperatorData, which: str = "min") -> ModuleVector:
    """Unit vector in H attaining the extreme of <Sx,x> relative to <x,x>.

    Built from the corresponding eigenvector of the flattened frame
    operator; for the diagonal algebra the eigenvector is folded onto its
    dominant diagonal slot so the result stays inside the algebra.
    """
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    col = 0 if which == "min" else -1
    v = data.eigenvectors[:, col]
    k = data.descriptor.dim
    n = data.n
    if data.descriptor.is_diagonal:
        per_slot = v.reshape(n, k)
        slot = int(np.argmax(np.sum(np.abs(per_slot) ** 2, axis=0)))
        coeffs = per_slot[:, slot].conj()
        coeffs = coeffs / np.linalg.norm(coeffs)
        stack = np.zeros((n, k, k), dtype=np.complex128)
        stack[:, slot, slot] = coeffs
        return ModuleVector(data.descriptor, stack)
    flat = np.zeros((k, n * k), dtype=np.complex128)
    flat[0] = v.conj()
    return ModuleVector.from_flat(data.descriptor, flat)
