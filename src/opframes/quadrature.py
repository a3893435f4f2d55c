"""Discretization of the measure space into weighted nodes.

Two measures are supported: Lebesgue measure on a bounded interval and
counting measure on {1..N}.  Gauss-Legendre nodes come in closed form from
Bogaert's expansions above 100 nodes, in O(N), and from Newton's method on
the Legendre recurrence up to 100.  An integral of algebra-valued samples
is a finite weighted sum, one BLAS contraction with the weights over the
node axis; weighted Gram forms of operator families are products of their
slot factors (see ``frames``), and a rule caches the triangle of its
weighted Vandermonde matrix for each degree they ask for.  Every power t^p
of the node variable comes from ``node_powers``, which refuses one past the
float range, and every polynomial's value at points from
``polynomial_values``, which refuses a value past it.  Results are the same
from run to run for one numpy/BLAS build and thread count, but they are not
bit-equal to a left-to-right fold: the two differ in the last few bits (a
few 1e-15 relative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .algebra import AlgebraElement

LEBESGUE = "lebesgue_interval"
COUNTING = "counting"


@dataclass(frozen=True)
class MeasureSpace:
    kind: str
    a: float = 0.0
    b: float = 0.0
    count: int = 0

    def __post_init__(self):
        if self.kind == LEBESGUE:
            for name, end in (("a", self.a), ("b", self.b)):
                if not np.isfinite(end):
                    raise ValueError(f"interval end {name} must be finite, got {end}")
            if not self.a < self.b:
                raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")
        elif self.kind == COUNTING:
            if self.count < 1:
                raise ValueError(f"counting measure requires N >= 1, got {self.count}")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")


def node_powers(points: np.ndarray, terms: int, scale=1.0) -> np.ndarray:
    """(len(points), terms) matrix scale * t^p, p < ``terms``, over the points t; ``scale``
    broadcasts, and 1.0 is exact.  An entry past the float range raises ValueError."""
    with np.errstate(over="ignore"):
        powers = scale * points[:, None] ** np.arange(terms)
    if not np.isfinite(powers).all():
        raise ValueError("a node power t^p is past the float range of doubles")
    return powers


def polynomial_values(points: np.ndarray, coefficients: np.ndarray, axis=0) -> np.ndarray:
    """sum_p C_p t^p at each of the points t, the C_p along ``axis`` of ``coefficients``
    and the points' axis first, t^p from ``node_powers``.  A value past the float range
    raises ValueError."""
    powers = node_powers(points, coefficients.shape[axis])
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.tensordot(powers, coefficients, axes=([1], [axis]))
    if not np.isfinite(values).all():
        raise ValueError("a polynomial's value is past the float range of doubles")
    return values


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Finite nodes and strictly positive finite weights discretizing a measure space."""

    space: MeasureSpace
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        for name, values in (("nodes", nodes), ("weights", weights)):
            if not np.isfinite(values).all():
                raise ValueError(f"quadrature {name} must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("all quadrature weights must be strictly positive")
        if self.space.kind == LEBESGUE:
            length = self.space.b - self.space.a
            if abs(float(weights.sum()) - length) > 1e-12 * (1.0 + abs(length)):
                raise ValueError("interval rule weights must sum to b - a")
        else:
            if len(nodes) != self.space.count or np.any(weights != 1.0):
                raise ValueError("counting rule needs one unit weight per point")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_triangles", {})  # vandermonde_triangle's, by degree

    def __len__(self):
        return len(self.nodes)

    def vandermonde_triangle(self, terms: int) -> np.ndarray:
        """The (min(N, D), D) triangle R of a Householder QR of the weighted
        Vandermonde matrix Phi_ip = sqrt(w_i) t_i^p, p < D = ``terms``, for
        polynomials of degree D - 1.

        It is computed once per degree and cached on the rule, read-only, so
        every parametric family on the rule shares it (``frames._slot_factor``).
        Phi comes from ``node_powers``, whose refusal is never cached.
        """
        triangle = self._triangles.get(terms)
        if triangle is None:
            phi = node_powers(self.nodes, terms, np.sqrt(self.weights)[:, None])
            triangle = self._triangles[terms] = np.linalg.qr(phi, mode="r")
            triangle.setflags(write=False)
        return triangle

    def __eq__(self, other):
        if not isinstance(other, QuadratureRule):
            return NotImplemented
        return (
            self.space == other.space
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def _node_count(n) -> int:
    """n as an int; bools, non-integers and counts below 1 are refused."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"need an integer node count >= 1, got {n}")
    return int(n)


def _legendre(n: int, theta: np.ndarray):
    """P_n(cos θ) and dP_n/dθ for θ in (0, π/2], by the three-term recurrence in
    Reinsch's form: it carries r_k = P_{k-1} - P_k and 1 - x = 2 sin²(θ/2), so
    near x = 1, where P_k and P_{k-1} agree to many digits, no digits cancel.
    Only n <= 100 comes here, so the coefficient table is at most 100 x 50.
    """
    u = 2.0 * np.sin(theta / 2) ** 2
    p, r, t = np.ones(theta.size), np.zeros(theta.size), np.empty(theta.size)  # r_0 is multiplied by b_0 = 0
    k = np.arange(n, dtype=float)
    for au, b in zip(np.multiply.outer((2 * k + 1) / (k + 1), u), (k / (k + 1)).tolist()):
        np.multiply(au, p, out=t)
        r *= b
        r += t  # r_{k+1} = k/(k+1) r_k + (2k+1)/(k+1) (1 - x) P_k
        p -= r  # P_{k+1} = P_k - r_{k+1}
    return p, -n * (u * p + r) / np.sin(theta)  # n (x P_n - P_{n-1}) / sin θ


def _newton_half(n: int):
    """Nodes in [0, 1), descending, and their weights, by Newton's method in θ.

    The start is Tricomi's guess; each step adds the second-order term of
    P'' = -cot θ P' - n(n+1) P, so it is cubic, and the loop stops once
    n max|Δθ| <= 1e-8, where what that step and the Taylor step below leave is
    about (n Δθ)² relative, below 1e-16 (two passes for n >= 5).  Weights are
    2 / (dP_n/dθ)², the derivative moved from the last iterate to the root by
    one Taylor step.  O(n²) flops.
    """
    theta = (4 * np.arange(1, (n + 1) // 2 + 1) - 1) * np.pi / (4 * n + 2)
    theta = np.arccos((1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta))
    lam = n * (n + 1.0)
    while True:
        p, dp = _legendre(n, theta)
        h, cot = p / dp, 1.0 / np.tan(theta)
        step = h - (cot + lam * h) * h * h / 2
        if not n * np.max(np.abs(step)) > 1e-8:  # a NaN ends the loop too, and the rule refuses it
            break
        theta = theta - step
    w = 2.0 / (dp + step * (cot * dp + lam * p)) ** 2
    return np.cos(theta) * np.cos(step) + np.sin(theta) * np.sin(step), w  # cos(θ - step) without rounding θ - step


# Bogaert's expansions (SIAM J. Sci. Comput. 36, 2014), lowest degree first.
# The offsets j_{0,k} - π(k - 1/4) of the first zeros of J_0 and J_1(j_{0,k})²,
# as the doubles nearest mpmath's values.
_J0_OFFSETS = np.array([
    0.04863106750342784, 0.022290966504172484, 0.014348115539080811, 0.010561988052556969, 0.008352603936268065,
    0.006906209769611422, 0.005886218148154599, 0.005128465428405139, 0.004543413129563959, 0.004078095931491043,
    0.003699187483291371, 0.003384673983973428, 0.0031194313583755044, 0.0028927263170733285, 0.0026967312123637515,
    0.0025256033585736677, 0.002374893485959285, 0.002241153801149329, 0.0021216712723189117, 0.0020142818287534232,
])
_J1_SQUARED = np.array([
    0.2695141239419169, 0.11578013858220369, 0.07368635113640822, 0.05403757319811628, 0.04266142901724309,
    0.0352421034909961, 0.030021070103054673, 0.02614739149530809, 0.023159121824691393, 0.02078382912226786,
    0.01885045066931767, 0.017246157569665008, 0.0158935181059236, 0.01473762609647219, 0.013738465145387117,
    0.012866181737615133, 0.012098051548626797, 0.011416471224491609, 0.010807592791180204, 0.010260372926280762,
    0.009765897139791051,
])
# McMahon's series beyond the table: j_{0,k} - β = r P(r²), r = 1/β, β = π(k - 1/4) ...
_MCMAHON = (
    0.125, -0.807291666666666666666666666667e-1, 0.246028645833333333333333333333,
    -1.82443876720610119047619047619, 25.3364147973439050099206349206, -567.644412135183381139802038240,
    18690.4765282320653831636345064, -8.49353580299148769921876983660e5, 5.09225462402226769498681286758e7,
)
# ... and J_1(j_{0,k})² = q P(q²), q = 1/(k - 1/4)
_J1_SQUARED_TAIL = (
    0.202642367284675542887042149360, 0.0, -0.303380429711290253026202643516e-3,
    0.198924364245969295201137972743e-3, -0.228969902772111653038747229723e-3,
    0.433710719130746277915572905025e-3, -0.123632349727175414724737657367e-2,
    0.496101423268883102872271417616e-2, -0.266837393702323757700998557826e-1,
    0.185395398206345628711318848386,
)
# Fits in α² = (w j_{0,k})² of the node terms ...
_NODE_TERMS = (
    (-0.416666666666662959639712457549e-1, 0.416666666665193394525296923981e-2, -0.148809523713909147898955880165e-3,
     0.275573168962061235623801563453e-5, -3.13148654635992041468855740012e-8, 2.40724685864330121825976175184e-10,
     -1.29052996274280508473467968379e-12),
    (0.815972221772932265640401128517e-2, -0.209022248387852902722635654229e-2, 0.282116886057560434805998583817e-3,
     -0.253300326008232025914059965302e-4, 0.161969259453836261731700382098e-5, -7.53036771373769326811030753538e-8,
     2.20639421781871003734786884322e-9),
    (-0.416012165620204364833694266818e-2, 0.128654198542845137196151147483e-2, -0.251395293283965914823026348764e-3,
     0.418498100329504574443885193835e-4, -0.567797841356833081642185432056e-5, 5.55845330223796209655886325712e-7,
     -2.97058225375526229899781956673e-8),
)
# ... and of the weight terms.
_WEIGHT_TERMS = (
    (0.833333333333333302184063103900e-1, -0.305555555555553028279487898503e-1, 0.436507936507598105249726413120e-2,
     -0.326278659594412170300449074873e-3, 0.149644593625028648361395938176e-4, -4.63968647553221331251529631098e-7,
     1.03756066927916795821098009353e-8, -1.75257700735423807659851042318e-10, 2.30365726860377376873232578871e-12,
     -2.20902861044616638398573427475e-14),
    (-0.111111111111214923138249347172e-1, 0.268959435694729660779984493795e-2, -0.407297185611335764191683161117e-3,
     0.465969530694968391417927388162e-4, -0.381817918680045468483009307090e-5, 2.11483880685947151466370130277e-7,
     -7.12912857233642220650643150625e-9, 7.67643545069893130779501844323e-11, 3.63117412152654783455929483029e-12),
    (0.656966489926484797412985260842e-2, -0.947969308958577323145923317955e-4, -0.105646050254076140548678457002e-3,
     -0.422888059282921161626339411388e-4, 0.200559326396458326778521795392e-4, -0.397933316519135275712977531366e-5,
     5.08898347288671653137451093208e-7, -4.38647122520206649251063212545e-8, 2.01826791256703301806643264922e-9),
)
_NEWTON_MAX = 100  # the expansions' error grows as n falls: 3e-10 at n = 10, 1.9e-15 at 50
_PI_HI = 52707178 / 2**24  # π to 26 bits, so m _PI_HI is exact for integer and half-integer m < 2^26
_PI_LO = 3.178650954705639338e-08  # π - _PI_HI


def _mcmahon_offset(k: np.ndarray) -> np.ndarray:
    """j_{0,k} - π(k - 1/4) by McMahon's series, to an ulp or two for k > 20."""
    r = 1.0 / (np.pi * (k - 0.25))
    return r * polyval(r * r, _MCMAHON)


def _j1_squared_tail(k: np.ndarray) -> np.ndarray:
    """J_1(j_{0,k})² by its asymptotic series in 1/(k - 1/4), for k > 21."""
    q = 1.0 / (k - 0.25)
    return q * polyval(q * q, _J1_SQUARED_TAIL)


def _angle(m, rest, den, corr):
    """(π m + rest) / den + corr, rounding only the last two sums: the large term
    π m is taken as m _PI_HI, exact, and m _PI_LO joins the small terms."""
    return m * _PI_HI / den + ((m * _PI_LO + rest) / den + corr)


def _bogaert_half(n: int):
    """Nodes in [0, 1), descending, and their weights, in closed form for n > 100.

    With w = 1/(n + ½) and α = w j_{0,k}, the angle is θ = α + corr and the
    weight 2w / (J_1(j_{0,k})² j_{0,k}/sin α (1 + ...)), where corr and the
    weight's series are Bogaert's fits in α².  θ = (π(2k - ½) + 2 offset)/(2n + 1)
    + corr, with offset = j_{0,k} - π(k - 1/4), is formed with π split in two,
    so no rounding of π m reaches it; at θ >= π/4 the node is sin φ with
    φ = π/2 - θ formed the same way, so x near 0 does not inherit the rounding
    of θ near π/2.  O(n) flops.
    """
    k = np.arange(1, (n + 1) // 2 + 1, dtype=float)
    offset = _mcmahon_offset(k)
    offset[: _J0_OFFSETS.size] = _J0_OFFSETS[: k.size]
    j = np.pi * (k - 0.25) + offset
    j1_squared = _j1_squared_tail(k)
    j1_squared[: _J1_SQUARED.size] = _J1_SQUARED[: k.size]
    w = 1.0 / (n + 0.5)
    alpha = w * j
    j_sin = j / np.sin(alpha)
    v = w * w * j_sin  # w α / sin α
    v2 = v * v
    alpha2 = alpha * alpha
    f1, f2, f3, g1, g2, g3 = (polyval(alpha2, c) for c in _NODE_TERMS + _WEIGHT_TERMS)
    corr = w * alpha * v * (f1 + v2 * (f2 + v2 * f3))
    weights = 2.0 * w / (j1_squared * j_sin * (1.0 + v2 * (g1 + v2 * (g2 + v2 * g3))))
    theta = _angle(2 * k - 0.5, 2.0 * offset, 2 * n + 1, corr)
    phi = _angle(n + 1 - 2 * k, -2.0 * offset, 2 * n + 1, -corr)
    return np.where(theta < np.pi / 4, np.cos(theta), np.sin(phi)), weights


def gauss_legendre(a: float, b: float, n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b].

    For n > 100 every node and weight comes in closed form from Bogaert's
    iteration-free expansions in 1/(n + ½) around the zeros of J_0: O(n) flops.
    For n <= 100, where those expansions lose accuracy, it is Newton's method
    in θ = arccos x on the Legendre recurrence, from Tricomi's guess: O(n²)
    flops.  Both compute the nodes in [0, 1) and mirror them, so the rule is
    symmetric by construction, and both take O(n) memory.  Against a 38-digit
    reference, nodes on [-1, 1] are within 2.3e-16 and weights within 1e-14
    relative: measured at every n <= 300 and at 51 sizes from 338 to 2048, the
    recurrence reads 2.27e-16 and 4.2e-15 at worst, the expansions 1.4e-16 and
    7.9e-16.
    """
    space = MeasureSpace(LEBESGUE, a, b)  # refuses a >= b and infinite ends before the nodes are computed
    n = _node_count(n)
    x, w = _bogaert_half(n) if n > _NEWTON_MAX else _newton_half(n)
    x[n // 2 :] = 0.0  # the middle node of an odd rule, if any
    nodes, w = np.concatenate((-x[: n // 2], x[::-1])), np.concatenate((w[: n // 2], w[::-1]))
    return QuadratureRule(space, (b - a) / 2.0 * nodes + (a + b) / 2.0, (b - a) / 2.0 * w)


def midpoint(a: float, b: float, n: int) -> QuadratureRule:
    """Composite midpoint rule on [a, b]; O(n^-2) error on smooth integrands."""
    space = MeasureSpace(LEBESGUE, a, b)  # refuses a >= b and infinite ends before they reach the nodes
    n = _node_count(n)
    h = (b - a) / n
    nodes = a + h * (np.arange(n) + 0.5)
    return QuadratureRule(space, nodes, np.full(n, h))


def counting(n: int) -> QuadratureRule:
    """Counting measure on n points: nodes 1..n, unit weights; integrals are sums."""
    n = _node_count(n)
    return QuadratureRule(MeasureSpace(COUNTING, count=n), np.arange(1, n + 1, dtype=float), np.ones(n))


def integrate(rule: QuadratureRule, samples) -> AlgebraElement:
    """Weighted sum of per-node algebra elements (see ``integrate_array``)."""
    samples = list(samples)
    entries = integrate_array(rule, np.array([s.entries for s in samples]))
    return AlgebraElement(samples[0].descriptor, entries)


def integrate_array(rule: QuadratureRule, samples: np.ndarray) -> np.ndarray:
    """Weighted sum over axis 0 of a raw ndarray of per-node samples.

    One ``tensordot`` with the weights: reproducible from run to run for a
    fixed numpy/BLAS build and thread count, not bit-equal to a left fold.
    """
    samples = np.asarray(samples)
    if samples.shape[0] != len(rule):
        raise ValueError(f"sample count {samples.shape[0]} != node count {len(rule)}")
    return np.tensordot(rule.weights, samples, axes=1)
