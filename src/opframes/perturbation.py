"""Perturbation of operator families and the resulting bound envelopes.

Additive route: {T_w + c_w K} stays a frame whenever the perturbation
energy R = integral of |c_w|^2 ||K||^2 stays below the lower bound A, and
its optimal bounds land inside [(sqrt A - sqrt R)^2, (sqrt B + sqrt R)^2].

Relative route: a comparison family {L_w} inherits frame bounds from
{T_w} whenever the quadratic-closeness hypothesis with positively
confined scale families a_w, b_w and constants alpha, beta < 1/2 holds.
The hypothesis quantifies over all x but is a quadratic form in x, so it
is decided exactly, from the spectrum of one Hermitian matrix.
"""

from __future__ import annotations

import numpy as np

from .algebra import SINGULARITY_RATIO, _check_tol, _finite, _Frozen, _read_only
from .frames import PARAMETRIC, SAMPLED, OperatorFamily, _gram, _require_fit, extremal_vector, frame_operator
from .frames import require_frame
from .hilbert_module import ModuleOperator, _check_fit, op_norm, random_vector
from .quadrature import COUNTING, QuadratureRule, polynomial_values


class ScalarFamily(_Frozen, eq=False):
    """A scalar function of the node variable: a polynomial, valued through ``node_powers``, or per-node samples."""

    def __init__(self, *, coefficients=None, values=None):
        if (coefficients is None) == (values is None):
            raise ValueError("give exactly one of coefficients or values")
        polynomial = coefficients is not None
        given = _read_only(np.array(coefficients if polynomial else values, dtype=np.complex128))
        if given.ndim != 1 or len(given) == 0:
            raise ValueError(f"scale family needs a non-empty 1-d array, got shape {given.shape}")
        _finite(given, "scale family must be finite")
        self._store(coefficients=given if polynomial else None, values=None if polynomial else given)

    @classmethod
    def polynomial(cls, coefficients):
        """Coefficients lowest degree first."""
        return cls(coefficients=coefficients)

    @classmethod
    def sampled(cls, values):
        return cls(values=values)

    @classmethod
    def constant(cls, value):
        return cls(coefficients=[value])

    @property
    def form(self):
        return "polynomial" if self.coefficients is not None else "sampled"

    def at_nodes(self, rule: QuadratureRule) -> np.ndarray:
        if self.values is not None:
            if len(self.values) != len(rule):
                raise ValueError(f"need {len(rule)} samples, got {len(self.values)}")
            return self.values
        return polynomial_values(rule.nodes, self.coefficients)

    def real_range(self, rule: QuadratureRule) -> tuple[float, float]:
        """Exact (inf, sup) of the real values over the node set or the interval.

        Sampled forms, and any form under counting measure, range over the
        rule's nodes; polynomial forms over the interval, evaluated at its
        endpoints and at the critical points of their real and imaginary
        parts, for which degree 2 or more imports ``numpy.polynomial`` (a
        line has none).  Rejects values with an imaginary part.
        """
        if self.values is not None or rule.space.kind == COUNTING:
            vals = self.at_nodes(rule)
        else:
            a, b = rule.space.a, rule.space.b
            critical = ()  # a constant or a line has no interior critical point
            if len(self.coefficients) > 2:
                from numpy.polynomial import polynomial as P  # here, its one user, so no run pays for it at import
                slopes = (P.polyder(self.coefficients.real), P.polyder(self.coefficients.imag))
                # extra points inside [a, b] never move the inf or the sup
                critical = np.clip(np.concatenate([P.polyroots(c).real for c in slopes]), a, b)
            vals = polynomial_values(np.concatenate([[a, b], critical]), self.coefficients)
        if np.max(np.abs(vals.imag), initial=0.0) > 1e-12 * (1.0 + np.max(np.abs(vals))):
            raise ValueError("scale family must be real-valued")
        return float(np.min(vals.real)), float(np.max(vals.real))


class AdditivePerturbation(_Frozen):
    """A direction operator K (nonzero; finite since it was built) and a scalar coefficient family c_w."""

    def __init__(self, operator: ModuleOperator, coefficient: ScalarFamily):
        if not operator.blocks.any():  # decided exactly, with no SVD of the operator
            raise ValueError("perturbation operator must be nonzero")
        self._store(operator=operator, coefficient=coefficient)

    def energy(self, rule: QuadratureRule) -> float:
        """R = integral of |c_w|^2 ||K||^2.  A factor, or R, past the float range
        of doubles raises ValueError, naming it."""
        c = self.coefficient.at_nodes(rule)
        with np.errstate(over="ignore"):
            mass = float(np.dot(rule.weights, np.abs(c) ** 2))
            # the C pow of float's ** (not x * x, which can differ in the last bit), inf past the range
            square = float(np.float64(op_norm(self.operator)) ** 2)
        for name, value in (("sum w|c|^2", mass), ("||K||^2", square), ("R", mass * square)):
            _finite(value, f"perturbation energy R = sum w|c|^2 ||K||^2: {name} is past the float range of doubles")
        return mass * square


class RelativePerturbation(_Frozen):
    """Positively confined scale families a_w (``scale_primal``, multiplies T_w x) and
    b_w (``scale_other``, multiplies Lambda_w x), and constants alpha, beta."""

    def __init__(self, scale_primal: ScalarFamily, scale_other: ScalarFamily, alpha: float, beta: float):
        if not (0.0 <= alpha < 0.5 and 0.0 <= beta < 0.5):
            raise ValueError("alpha and beta must lie in [0, 1/2)")
        self._store(scale_primal=scale_primal, scale_other=scale_other, alpha=alpha, beta=beta)

    def confined_ranges(self, rule):
        """((inf a, sup a), (inf b, sup b)), enforcing strict positivity.  Each sup is
        finite: ``real_range`` ranges over values already refused when not finite."""
        ra = self.scale_primal.real_range(rule)
        rb = self.scale_other.real_range(rule)
        for name, (lo, _) in (("a", ra), ("b", rb)):
            if lo <= 0.0:
                raise ValueError(f"scale family {name} must be positively confined")
        return ra, rb


def _combination(terms) -> OperatorFamily:
    """The family sum_j c_j(w) F_j(w) over (ScalarFamily c_j, OperatorFamily F_j) pairs on one rule.

    It is parametric, its coefficients the convolutions of the c_j with the
    F_j, when every c_j is a polynomial and every F_j parametric; else it is
    sampled, from the node blocks (evaluated where a F_j is parametric).
    """
    first = terms[0][1]
    rule, descriptor, n = first.rule, first.descriptor, first.n
    if all(c.form == "polynomial" and f.form == PARAMETRIC for c, f in terms):
        degree = max(len(c.coefficients) + f.slots.shape[1] - 1 for c, f in terms)
        slots = np.zeros((len(first.slots), degree, *first.slots.shape[2:]), dtype=np.complex128)
        for c, f in terms:
            for d, c_d in enumerate(c.coefficients):
                slots[:, d:d + f.slots.shape[1]] += c_d * f.slots
        return OperatorFamily(rule, descriptor, n, slots, PARAMETRIC)
    blocks = sum(c.at_nodes(rule)[:, None, None] * f.blocks for c, f in terms)
    return OperatorFamily(rule, descriptor, n, blocks, SAMPLED)


_ONE, _MINUS_ONE = ScalarFamily.constant(1.0), ScalarFamily.constant(-1.0)
_MISFIT = "perturbation operator does not match the family shape"


def perturb_additive(family: OperatorFamily, pert: AdditivePerturbation) -> OperatorFamily:
    """The family {T_w + c_w K}; parametric + polynomial inputs stay parametric."""
    _check_fit(pert.operator, family, _MISFIT)
    constant = pert.operator.slots[:, None]  # K as a family of degree 0
    direction = OperatorFamily(family.rule, family.descriptor, family.n, constant, PARAMETRIC)
    return _combination([(_ONE, family), (pert.coefficient, direction)])


def additive_admissible(
    family: OperatorFamily, pert: AdditivePerturbation, tol: float = 1e-12
) -> tuple[bool, float, float, float]:
    """Whether the perturbation energy stays below the lower frame bound.

    Returns (admissible, margin, R, A) with the criterion R < (1 - tol) A,
    relative to A so that rescaling the problem never changes the verdict,
    and margin = ((1 - tol) A - R) / A, whose sign is the verdict; refuses
    A <= SINGULARITY_RATIO * B, as the reconstructors do, and an operator that
    ``perturb_additive`` refuses.  The energy criterion
    is what the envelope consumes; integral |c|^2 < A / ||K|| is not used.
    """
    _check_tol(tol)
    _check_fit(pert.operator, family, _MISFIT)
    lo, _ = require_frame(frame_operator(family), SINGULARITY_RATIO)
    energy = pert.energy(family.rule)
    return energy < (1.0 - tol) * lo, ((1.0 - tol) * lo - energy) / lo, energy, lo


def additive_envelope(lower: float, upper: float, energy: float) -> tuple[float, float]:
    """Predicted bounds [(sqrt A - sqrt R)^2, (sqrt B + sqrt R)^2]; needs R < A."""
    _finite([lower, upper, energy], "frame bounds and perturbation energy must be finite")
    if energy >= lower:
        raise ValueError(f"perturbation energy {energy:.6g} must stay below A = {lower:.6g}")
    if energy < 0.0:
        raise ValueError("perturbation energy cannot be negative")
    return (lower**0.5 - energy**0.5) ** 2, (upper**0.5 + energy**0.5) ** 2


def within_envelope(envelope: tuple[float, float], bounds: tuple[float, float]) -> bool:
    """Whether frame bounds lie inside a predicted envelope, with a slack of 1e-9 relative to each end."""
    lo, hi = envelope
    return bool(lo - 1e-9 * abs(lo) <= bounds[0] and bounds[1] <= hi + 1e-9 * abs(hi))


def relative_criterion_check(
    family: OperatorFamily,
    other: OperatorFamily,
    pert: RelativePerturbation,
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """Exact decision of the quadratic-closeness hypothesis, with its margin.

    For every x, in the Loewner order:

        integral <a T x - b L x, a T x - b L x>
            <=  alpha * integral <a T x, a T x>  +  beta * integral <b L x, b L x>.

    Under the row flattening X of x both sides are X (.) X*, so this holds
    for all x iff Q = alpha sum w (aM)(aM)* + beta sum w (bN)(bN)* - sum w D D*,
    D = aM - bN, is positive semidefinite (Q is formed per slot block).
    Returns (passed, margin) with margin = lambda_min(Q) / lambda_max(P),
    P = alpha sum w (aM)(aM)* + beta sum w (bN)(bN)* the positive part of Q,
    each extreme taken over the blocks; it passes when margin >= -tol.  Both
    scale with Q, so rescaling the problem never changes the verdict.  With
    parametric families and polynomial scales, aM, bN and D are parametric
    too (``_combination``), and each sum comes from its slot factor.
    """
    _check_tol(tol)
    _require_fit(family, other)
    scaled_t = _combination([(pert.scale_primal, family)])
    scaled_l = _combination([(pert.scale_other, other)])
    diff = _combination([(_ONE, scaled_t), (_MINUS_ONE, scaled_l)])
    positive = pert.alpha * _gram(scaled_t, scaled_t) + pert.beta * _gram(scaled_l, scaled_l)
    gap = _gram(diff, diff)
    least = float(np.min(np.linalg.eigvalsh(positive - gap)[:, 0]))
    scale = float(np.max(np.linalg.eigvalsh(positive)[:, -1]))
    if scale > 0.0:
        margin = least / scale
    else:  # P = 0, so Q = -sum w D D*: the hypothesis holds only where D = 0
        margin = 0.0 if least >= 0.0 else -np.inf
    return margin >= -tol, margin


def relative_envelope(
    bounds: tuple[float, float], pert: RelativePerturbation, rule: QuadratureRule
) -> tuple[float, float]:
    """Predicted frame bounds for the comparison family.

    lower = A (1 - 2 alpha) (inf a)^2 / (2 (1 + beta) (sup b)^2)
    upper = B 2 (1 + alpha) (sup a)^2 / ((1 - 2 beta) (inf b)^2)
    """
    lower, upper = bounds
    (inf_a, sup_a), (inf_b, sup_b) = pert.confined_ranges(rule)
    env_lower = lower * (1.0 - 2.0 * pert.alpha) * inf_a**2 / (2.0 * (1.0 + pert.beta) * sup_b**2)
    env_upper = upper * 2.0 * (1.0 + pert.alpha) * sup_a**2 / ((1.0 - 2.0 * pert.beta) * inf_b**2)
    return env_lower, env_upper


def criterion_sample_vectors(
    family: OperatorFamily, other: OperatorFamily, count: int = 200, seed=0
):
    """Random unit vectors plus the extremal vectors of both frame operators,
    for cross-checking the exact relative criterion vector by vector."""
    rng = np.random.default_rng(seed)
    xs = [
        random_vector(family.descriptor, family.n, rng, unit=True) for _ in range(count)
    ]
    for fam in (family, other):
        data = frame_operator(fam)
        xs.append(extremal_vector(data, "min"))
        xs.append(extremal_vector(data, "max"))
    return xs
