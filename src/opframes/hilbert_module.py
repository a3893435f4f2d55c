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
``ModuleVector.slots`` (``_slot_rows`` rows) and back
``ModuleVector.from_slots``, ``_side_by_side`` lays a slot's node matrices
in one row, and ``_slot_norm`` is the norm of a direct sum of slot blocks.
Two values on A^n fit together when they share a descriptor and a rank,
which ``_check_fit`` decides for every caller.  A value computed from finite
ones is refused by name if it lands past the float range of doubles.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, _as_blocks, _finite, _Frozen
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
    diagonals = table.diagonal(0, -2, -1)  # a view, (..., r, c, k)
    return diagonals.transpose(-1, *range(diagonals.ndim - 1)).copy()


def _slot_rows(descriptor):
    """The rows of a vector's slot block: 1 on a diagonal algebra, k on a full one."""
    return 1 if descriptor.is_diagonal else descriptor.dim


def _from_slots(descriptor, blocks):
    """The tables of slot blocks, zero off the diagonal of each element; inverse of ``_to_slots``."""
    if not descriptor.is_diagonal:
        return _unflatten(blocks[0], descriptor.dim)
    k = descriptor.dim
    table = np.zeros((*blocks.shape[1:], k, k), dtype=blocks.dtype)
    table[..., range(k), range(k)] = blocks.transpose(*range(1, blocks.ndim), 0)
    return table


def _side_by_side(stack):
    """Node matrices laid side by side in each slot: (m, N, r, c) -> (m, r, N * c)."""
    return stack.swapaxes(1, 2).reshape(stack.shape[0], stack.shape[2], -1)


class ModuleVector(_Frozen, eq=False):
    """Element of H = A^n: components stacked as an (n, k, k) array."""

    def __init__(self, descriptor: AlgebraDescriptor, stack: np.ndarray):
        n = np.shape(stack)[0] if np.ndim(stack) == 3 else "n"
        k = descriptor.dim
        self._store(descriptor=descriptor, stack=_as_blocks(descriptor, stack, (n, k, k), "vector components"))

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

    @np.errstate(over="ignore", invalid="ignore")  # a value past the float range is refused by name
    def scale(self, scalar):
        stack = _finite(complex(scalar), "the scale factor must be finite") * self.stack
        return ModuleVector(self.descriptor, _finite(stack, "the scaled vector is past the float range of doubles"))

    @np.errstate(over="ignore", invalid="ignore")
    def __sub__(self, other):
        _check_fit(self, other, "vectors must share descriptor and rank")
        stack = self.stack - other.stack
        return ModuleVector(self.descriptor, _finite(stack, "x - y is past the float range of doubles"))


class ModuleOperator(_Frozen, eq=False):
    """Adjointable operator on A^n: blocks[j, i] carries component j to i.

    The action is right multiplication on row vectors,
    ``apply(M, x)_i = sum_j x_j @ blocks[j, i]``.
    """

    def __init__(self, descriptor: AlgebraDescriptor, blocks: np.ndarray):
        n = np.shape(blocks)[0] if np.ndim(blocks) == 4 else "n"
        k = descriptor.dim
        self._store(descriptor=descriptor, blocks=_as_blocks(descriptor, blocks, (n, n, k, k), "operator blocks"))

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
    return AlgebraElement(x.descriptor, _finite(gram, "<x, y> is past the float range of doubles"))


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
    return ModuleVector(x.descriptor, _finite(out, "x @ M is past the float range of doubles"))


def op_norm(op: ModuleOperator) -> float:
    """Operator norm on H, the largest singular value of the flattening, read from its slot blocks."""
    return _slot_norm(op.slots)


class L2Family(_Frozen, eq=False):
    """A node-sampled element {x_w} of the discretized l2(Omega, H): ``samples`` is (N, n, k, k)."""

    def __init__(self, rule: QuadratureRule, descriptor: AlgebraDescriptor, samples: np.ndarray):
        arr = np.asarray(samples)
        if arr.ndim != 4 or arr.shape[0] != len(rule):
            raise ValueError("need one (n, k, k) sample per quadrature node")
        k = descriptor.dim
        samples = _as_blocks(descriptor, arr, (*arr.shape[:2], k, k), "l2 samples")
        self._store(rule=rule, descriptor=descriptor, samples=samples)

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


def _unit(x, unit):
    """x / ||x|| if ``unit``, else x."""
    if not unit:
        return x
    nrm = scalar_norm(x)
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero draw")
    return x.scale(1.0 / nrm)


def random_vector(descriptor, n, rng, unit=False) -> ModuleVector:
    """Random vector with complex Gaussian entries from the numpy generator ``rng``, conforming to the descriptor."""
    k = descriptor.dim
    stack = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
    if descriptor.is_diagonal:
        stack = stack * np.eye(k)
    return _unit(ModuleVector(descriptor, stack), unit)


def uniform_vector(descriptor, n, seed, unit=False) -> ModuleVector:
    """The vector that ``seed`` names: each entry the algebra holds (n k^2 on a full algebra,
    n k on a diagonal one), in C order, takes a real and then an imaginary part 2 u - 1,
    uniform in [-1, 1), u the next ``random.Random(seed).random()``.  The draw is exact
    and calls no libm function, so its bits are the same on every platform."""
    k = descriptor.dim
    held = (n, k) if descriptor.is_diagonal else (n, k, k)
    draw = random.Random(seed).random
    stack = np.array([2.0 * draw() - 1.0 for _ in range(2 * math.prod(held))]).view(np.complex128).reshape(held)
    if descriptor.is_diagonal:
        stack, diagonals = np.zeros((n, k, k), dtype=np.complex128), stack
        stack[:, range(k), range(k)] = diagonals
    return _unit(ModuleVector(descriptor, stack), unit)
