"""Discretization of the measure space into weighted nodes.

Two measures are supported: Lebesgue measure on a bounded interval and
counting measure on {1..N}; Gauss-Legendre nodes come from Newton's method
on the Legendre recurrence.  Integrals of algebra-valued samples are finite
weighted sums, taken as BLAS contractions over the node axis and batched
over the slot axis of node operators (see ``hilbert_module``).
Results are the same from run to run for one numpy/BLAS build and thread
count, but they are not bit-equal to a left-to-right fold: the two differ
in the last few bits (a few 1e-15 relative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement

LEBESGUE = "lebesgue_interval"
COUNTING = "counting"
_CHUNK_ENTRIES = 1 << 16  # complex entries per node chunk in _integrate_products (1 MB)


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

    def __len__(self):
        return len(self.nodes)

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
    """
    u = 2.0 * np.sin(theta / 2) ** 2
    p, r, t = np.ones(theta.size), np.zeros(theta.size), np.empty(theta.size)  # r_0 is multiplied by b_0 = 0
    rows = max(1, (1 << 14) // theta.size)  # steps per block of coefficients (128 KB)
    for start in range(0, n, rows):
        k = np.arange(start, min(n, start + rows), dtype=float)
        for au, b in zip(np.multiply.outer((2 * k + 1) / (k + 1), u), (k / (k + 1)).tolist()):
            np.multiply(au, p, out=t)
            r *= b
            r += t  # r_{k+1} = k/(k+1) r_k + (2k+1)/(k+1) (1 - x) P_k
            p -= r  # P_{k+1} = P_k - r_{k+1}
    return p, -n * (u * p + r) / np.sin(theta)  # n (x P_n - P_{n-1}) / sin θ


def gauss_legendre(a: float, b: float, n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b], by Newton's method in θ = arccos x.

    The nodes in [0, 1) start from Tricomi's guess; each step adds the second-order
    term of P'' = -cot θ P' - n(n+1) P, so it is cubic, and the loop stops once
    n max|Δθ| <= 1e-8, where what that step and the Taylor step below leave is
    about (n Δθ)² relative, below 1e-16 (two passes for n >= 5).  Weights are
    2 / (dP_n/dθ)², the derivative moved from the last iterate to the root by one
    Taylor step.  O(n²) flops, O(n) memory, symmetric by construction.  Against
    a 38-digit reference for n <= 1024, nodes on [-1, 1] are within 2.3e-16 and
    weights within 1.5e-14 relative (``leggauss``, a dense eigensolve: 1.1e-10
    at n = 512, 1.2e-9 at n = 1024).
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    n = _node_count(n)
    space = MeasureSpace(LEBESGUE, a, b)  # refuses infinite ends before the iteration
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
    x = np.cos(theta) * np.cos(step) + np.sin(theta) * np.sin(step)  # cos(θ - step) without rounding θ - step
    x[n // 2 :] = 0.0  # the middle node of an odd rule, if any
    nodes, w = np.concatenate((-x[: n // 2], x[::-1])), np.concatenate((w[: n // 2], w[::-1]))
    return QuadratureRule(space, (b - a) / 2.0 * nodes + (a + b) / 2.0, (b - a) / 2.0 * w)


def midpoint(a: float, b: float, n: int) -> QuadratureRule:
    """Composite midpoint rule on [a, b]; O(n^-2) error on smooth integrands."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    n = _node_count(n)
    space = MeasureSpace(LEBESGUE, a, b)  # refuses infinite ends before they reach the nodes
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


def _side_by_side(stack):
    """Node matrices laid side by side in each slot: (m, N, r, c) -> (m, r, N * c)."""
    return stack.swapaxes(1, 2).reshape(stack.shape[0], stack.shape[2], -1)


def _integrate_products(rule: QuadratureRule, left, right) -> np.ndarray:
    """sum_i w_i L_i R_i* per slot, (m, N, r, b) and (m, N, c, b) -> (m, r, c),
    as one batched GEMM per chunk of nodes.

    Chunks bound the temporaries, and their size depends only on the
    shapes, so results are as reproducible as ``integrate_array``'s.
    """
    step = max(1, _CHUNK_ENTRIES // right[:, 0].size)
    acc = 0.0
    for start in range(0, len(rule), step):
        part = slice(start, start + step)
        scaled = rule.weights[part, None, None] * right[:, part]
        acc = acc + _side_by_side(left[:, part]) @ _side_by_side(scaled).conj().swapaxes(1, 2)
    return acc
