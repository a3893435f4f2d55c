"""The module H = A^n over a matrix algebra A, with its A-valued inner product.

Vectors are row n-tuples of algebra elements.  Adjointable A-linear
operators on H are n x n matrices of algebra elements acting by right
multiplication, ``x -> x @ M``; this representation is exhaustive for
matrix algebras and makes the adjoint a blockwise conjugate transpose.

Everything here also exists in a "flattened" complex form used by the
spectral machinery: a vector becomes the k x (n*k) matrix obtained by
laying its components side by side, an operator becomes the (n*k) x (n*k)
block matrix.  Flattening is an isometric *-isomorphism onto its image,
so norms, positivity and spectra can be read off standard dense linear
algebra.  For the diagonal algebra A = C^k, A^n splits into k copies of
C^n: an operator is the direct sum of its k n x n slot blocks, slot s
made of entry (s, s) of every element, the form the spectral machinery
works on; for the full algebra the whole flattening is the one slot.  Only
this module knows the layout: a (..., r, c, k, k) table of algebra elements
goes to its flattening in ``_flatten`` and to its slot blocks in
``_to_slots``, an operator's are ``ModuleOperator.slots``, a vector's are
``ModuleVector.slots`` and back ``ModuleVector.from_slots``,
``_side_by_side`` lays a slot's node matrices in one row, and
``_slot_norm`` is the norm of a direct sum of slot blocks.
Two values on A^n fit together when they share a descriptor and a rank,
which ``_check_fit`` decides for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, _as_blocks
from .quadrature import QuadratureRule, integrate_array


def _check_fit(a, b, message):
    """Raise ValueError(message) unless two values on A^n share one descriptor and rank n."""
    if a.descriptor != b.descriptor or a.n != b.n:
        raise ValueError(message)


def _flatten(table):
    """Flattenings of tables of algebra elements, (..., r, c, k, k) -> (..., r*k, c*k)."""
    *lead, rows, cols, k, _ = table.shape
    return table.swapaxes(-3, -2).reshape(*lead, rows * k, cols * k)


def _unflatten(flat, k):
    """Tables of algebra elements of flattenings, (..., r*k, c*k) -> (..., r, c, k, k)."""
    *lead, rows, cols = flat.shape
    return flat.reshape(*lead, rows // k, k, cols // k, k).swapaxes(-3, -2)


def _to_slots(descriptor, table):
    """Slot blocks of tables, (..., r, c, k, k) -> (k, ..., r, c), or (1, ..., r*k, c*k) if full."""
    if not descriptor.is_diagonal:
        return _flatten(table)[None]
    k = descriptor.dim
    return np.moveaxis(table, (-2, -1), (0, 1))[range(k), range(k)]


def _from_slots(descriptor, blocks):
    """The tables of slot blocks, zero off the diagonal of each element; inverse of ``_to_slots``."""
    if not descriptor.is_diagonal:
        return _unflatten(blocks[0], descriptor.dim)
    k = descriptor.dim
    table = np.zeros((*blocks.shape[1:], k, k), dtype=blocks.dtype)
    np.moveaxis(table, (-2, -1), (0, 1))[range(k), range(k)] = blocks
    return table


def _side_by_side(stack):
    """Node matrices laid side by side in each slot: (m, N, r, c) -> (m, r, N * c)."""
    return stack.swapaxes(1, 2).reshape(stack.shape[0], stack.shape[2], -1)


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of H = A^n: components stacked as an (n, k, k) array."""

    descriptor: AlgebraDescriptor
    stack: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.stack).shape[0] if np.asarray(self.stack).ndim == 3 else 0
        k = self.descriptor.dim
        object.__setattr__(self, "stack", _as_blocks(self.descriptor, self.stack, (n, k, k), "vector components"))
        if n < 1:
            raise ValueError("module rank n must be >= 1")

    @property
    def n(self):
        return self.stack.shape[0]

    def flatten(self) -> np.ndarray:
        """k x (n*k) matrix [x_1 x_2 ... x_n]."""
        return _flatten(self.stack[None])

    @property
    def slots(self) -> np.ndarray:
        """Slot blocks of x: (k, 1, n) for a diagonal algebra, (1, k, n*k) for a full one."""
        return _to_slots(self.descriptor, self.stack[None])

    @classmethod
    def from_slots(cls, descriptor, slots):
        """The vector whose slot blocks are ``slots``; inverse of ``slots``."""
        return cls(descriptor, _from_slots(descriptor, slots)[0])

    def scale(self, scalar):
        return ModuleVector(self.descriptor, complex(scalar) * self.stack)

    def __sub__(self, other):
        _check_fit(self, other, "vectors must share descriptor and rank")
        return ModuleVector(self.descriptor, self.stack - other.stack)


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """Adjointable operator on A^n: blocks[j, i] carries component j to i.

    The action is right multiplication on row vectors,
    ``apply(M, x)_i = sum_j x_j @ blocks[j, i]``.
    """

    descriptor: AlgebraDescriptor
    blocks: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.blocks)
        n = arr.shape[0] if arr.ndim == 4 else 0
        k = self.descriptor.dim
        object.__setattr__(self, "blocks", _as_blocks(self.descriptor, self.blocks, (n, n, k, k), "operator blocks"))
        if n < 1:
            raise ValueError("module rank n must be >= 1")

    @classmethod
    def identity(cls, descriptor, n):
        return cls.from_flat(descriptor, np.eye(n * descriptor.dim))

    @classmethod
    def from_flat(cls, descriptor, flat):
        return cls(descriptor, _unflatten(flat, descriptor.dim))

    @property
    def n(self):
        return self.blocks.shape[0]

    def flatten(self) -> np.ndarray:
        """(n*k) x (n*k) matrix with blocks[j, i] at block row j, block column i."""
        return _flatten(self.blocks)

    @property
    def slots(self) -> np.ndarray:
        """Slot blocks of M: (k, n, n) for a diagonal algebra, (1, n*k, n*k) for a full one."""
        return _to_slots(self.descriptor, self.blocks)


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """A-valued inner product sum_i x_i @ y_i*.

    Linear in x, conjugate-linear in y; satisfies <x,y> = <y,x>*
    and <a.x, y> = a <x,y>.
    """
    _check_fit(x, y, "vectors must share descriptor and rank")
    gram = np.einsum("iab,icb->ac", x.stack, y.stack.conj())
    return AlgebraElement(x.descriptor, gram)


def _slot_norm(blocks):
    """The largest spectral norm over slot blocks (m, rows, cols): the norm of their direct sum."""
    return float(np.max(np.linalg.svd(blocks, compute_uv=False)[:, 0]))


def scalar_norm(x: ModuleVector) -> float:
    """||x|| = ||<x,x>||^(1/2), read from the slot blocks of x.  <x,x> is never
    formed: it overflows once the entries of x pass about 1e154 and underflows
    below about 1e-154."""
    return _slot_norm(x.slots)


def apply(op: ModuleOperator, x: ModuleVector) -> ModuleVector:
    """Right action x @ M."""
    _check_fit(op, x, "operator and vector shapes do not match")
    out = np.einsum("jab,jibc->iac", x.stack, op.blocks)
    return ModuleVector(x.descriptor, out)


def op_norm(op: ModuleOperator) -> float:
    """Operator norm on H, the largest singular value of the flattening, read from its slot blocks."""
    return _slot_norm(op.slots)


@dataclass(frozen=True, eq=False)
class L2Family:
    """A node-sampled element {x_w} of the discretized l2(Omega, H)."""

    rule: QuadratureRule
    descriptor: AlgebraDescriptor
    samples: np.ndarray  # (N, n, k, k)

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 4 or arr.shape[0] != len(self.rule):
            raise ValueError("need one (n, k, k) sample per quadrature node")
        k = self.descriptor.dim
        object.__setattr__(self, "samples", _as_blocks(self.descriptor, arr, (*arr.shape[:2], k, k), "l2 samples"))

    @property
    def n(self):
        return self.samples.shape[1]


def l2_inner_product(xs: L2Family, ys: L2Family) -> AlgebraElement:
    """Integral of the pointwise inner products against the shared rule."""
    if xs.rule != ys.rule:
        raise ValueError("families must share one quadrature rule")
    _check_fit(xs, ys, "families must share descriptor and shape")
    grams = np.einsum("siab,sicb->sac", xs.samples, ys.samples.conj())
    return AlgebraElement(xs.descriptor, integrate_array(xs.rule, grams))


def random_vector(descriptor, n, rng, unit=False) -> ModuleVector:
    """Random vector with complex Gaussian entries conforming to the descriptor."""
    k = descriptor.dim
    stack = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
    if descriptor.is_diagonal:
        stack = stack * np.eye(k)
    x = ModuleVector(descriptor, stack)
    if unit:
        nrm = scalar_norm(x)
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero draw")
        x = x.scale(1.0 / nrm)
    return x
