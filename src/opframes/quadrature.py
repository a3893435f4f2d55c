"""Discretization of the measure space into weighted nodes.

Two measures are supported: Lebesgue measure on a bounded interval and
counting measure on {1..N}.  Integrals of algebra-valued samples are
finite weighted sums, taken as BLAS contractions over the node axis.
Results are the same from run to run for one numpy/BLAS build and thread
count, but they are not bit-equal to a left-to-right fold: the two differ
in the last few bits (a few 1e-15 relative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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
            if not self.a < self.b:
                raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")
        elif self.kind == COUNTING:
            if self.count < 1:
                raise ValueError(f"counting measure requires N >= 1, got {self.count}")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and strictly positive weights discretizing a measure space."""

    space: MeasureSpace
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
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


def gauss_legendre(a: float, b: float, n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b]; exact through degree 2n - 1."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if n < 1:
        raise ValueError(f"need n >= 1 nodes, got {n}")
    x, w = leggauss(n)
    half = (b - a) / 2.0
    return QuadratureRule(MeasureSpace(LEBESGUE, a, b), half * x + (a + b) / 2.0, half * w)


def midpoint(a: float, b: float, n: int) -> QuadratureRule:
    """Composite midpoint rule on [a, b]; O(n^-2) error on smooth integrands."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if n < 1:
        raise ValueError(f"need n >= 1 nodes, got {n}")
    h = (b - a) / n
    nodes = a + h * (np.arange(n) + 0.5)
    return QuadratureRule(MeasureSpace(LEBESGUE, a, b), nodes, np.full(n, h))


def counting(n: int) -> QuadratureRule:
    """Counting measure on n points: nodes 1..n, unit weights; integrals are sums."""
    if n < 1:
        raise ValueError(f"need n >= 1 points, got {n}")
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
    """Node matrices laid side by side: (N, r, c) -> (r, N * c)."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


def _integrate_products(rule: QuadratureRule, left, right) -> np.ndarray:
    """sum_i w_i L_i R_i* over the nodes, as one GEMM per chunk of nodes.

    Chunks bound the temporaries, and their size depends only on the
    shapes, so results are as reproducible as ``integrate_array``'s.
    """
    step = max(1, _CHUNK_ENTRIES // right[0].size)
    acc = 0.0
    for start in range(0, len(rule), step):
        part = slice(start, start + step)
        scaled = rule.weights[part, None, None] * right[part]
        acc = acc + _side_by_side(left[part]) @ _side_by_side(scaled).conj().T
    return acc
