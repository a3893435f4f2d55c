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
C^n: a flattened operator is the direct sum of its k n x n slot blocks
``flat[s::k, s::k]``, the form the spectral machinery works on (``_to_slots``);
for the full algebra the whole flattening is the one slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, operator_norm
from .quadrature import QuadratureRule, integrate_array


def _as_blocks(descriptor, arr, shape, what):
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if descriptor.is_diagonal:
        mask = ~np.eye(descriptor.dim, dtype=bool)
        if np.any(arr[..., mask] != 0):
            raise ValueError(f"{what}: diagonal descriptor requires zero off-diagonal entries")
    out = arr.copy()
    out.setflags(write=False)
    return out


def _to_slots(descriptor, flat):
    """Slot blocks ``flat[..., s::k, s::k]`` of flattened arrays, (..., r*k, c*k) -> (k, ..., r, c)."""
    if not descriptor.is_diagonal:
        return flat[None]
    k, (*lead, rows, cols) = descriptor.dim, flat.shape
    return flat.reshape(*lead, rows // k, k, cols // k, k)[..., :, range(k), :, range(k)]


def _from_slots(descriptor, blocks):
    """The flattened arrays of slot blocks, zero between the slots; inverse of ``_to_slots``."""
    if not descriptor.is_diagonal:
        return blocks[0]
    k, (_, *lead, rows, cols) = descriptor.dim, blocks.shape
    flat = np.zeros((*lead, rows, k, cols, k), dtype=blocks.dtype)
    flat[..., :, range(k), :, range(k)] = blocks
    return flat.reshape(*lead, rows * k, cols * k)


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of H = A^n: components stacked as an (n, k, k) array."""

    descriptor: AlgebraDescriptor
    stack: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.stack).shape[0] if np.asarray(self.stack).ndim == 3 else 0
        k = self.descriptor.dim
        object.__setattr__(
            self, "stack", _as_blocks(self.descriptor, self.stack, (n, k, k), "vector components")
        )
        if n < 1:
            raise ValueError("module rank n must be >= 1")

    @classmethod
    def from_components(cls, components):
        components = list(components)
        descriptor = components[0].descriptor
        return cls(descriptor, np.stack([c.entries for c in components]))

    @classmethod
    def zero(cls, descriptor, n):
        return cls(descriptor, np.zeros((n, descriptor.dim, descriptor.dim)))

    @property
    def n(self):
        return self.stack.shape[0]

    def flatten(self) -> np.ndarray:
        """k x (n*k) matrix [x_1 x_2 ... x_n]."""
        n, k, _ = self.stack.shape
        return self.stack.transpose(1, 0, 2).reshape(k, n * k)

    @classmethod
    def from_flat(cls, descriptor, flat):
        k = descriptor.dim
        n = flat.shape[1] // k
        return cls(descriptor, flat.reshape(k, n, k).transpose(1, 0, 2))

    def scale(self, scalar):
        return ModuleVector(self.descriptor, complex(scalar) * self.stack)

    def __add__(self, other):
        _check_vectors(self, other)
        return ModuleVector(self.descriptor, self.stack + other.stack)

    def __sub__(self, other):
        _check_vectors(self, other)
        return ModuleVector(self.descriptor, self.stack - other.stack)


def _check_vectors(x, y):
    if x.descriptor != y.descriptor or x.n != y.n:
        raise ValueError("vectors must share descriptor and rank")


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
        object.__setattr__(
            self, "blocks", _as_blocks(self.descriptor, self.blocks, (n, n, k, k), "operator blocks")
        )
        if n < 1:
            raise ValueError("module rank n must be >= 1")

    @classmethod
    def identity(cls, descriptor, n):
        k = descriptor.dim
        blocks = np.zeros((n, n, k, k), dtype=np.complex128)
        for i in range(n):
            blocks[i, i] = np.eye(k)
        return cls(descriptor, blocks)

    @classmethod
    def zero(cls, descriptor, n):
        k = descriptor.dim
        return cls(descriptor, np.zeros((n, n, k, k)))

    @classmethod
    def from_flat(cls, descriptor, flat):
        k = descriptor.dim
        n = flat.shape[0] // k
        return cls(descriptor, flat.reshape(n, k, n, k).transpose(0, 2, 1, 3))

    @property
    def n(self):
        return self.blocks.shape[0]

    def flatten(self) -> np.ndarray:
        """(n*k) x (n*k) matrix with blocks[j, i] at block row j, block column i."""
        n, _, k, _ = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k)

    def block(self, j, i) -> AlgebraElement:
        return AlgebraElement(self.descriptor, self.blocks[j, i])

    def __add__(self, other):
        _check_operators(self, other)
        return ModuleOperator(self.descriptor, self.blocks + other.blocks)

    def __sub__(self, other):
        _check_operators(self, other)
        return ModuleOperator(self.descriptor, self.blocks - other.blocks)

    def scale(self, scalar):
        return ModuleOperator(self.descriptor, complex(scalar) * self.blocks)


def _check_operators(m1, m2):
    if m1.descriptor != m2.descriptor or m1.n != m2.n:
        raise ValueError("operators must share descriptor and rank")


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """A-valued inner product sum_i x_i @ adjoint(y_i).

    Linear in x, conjugate-linear in y; satisfies <x,y> = adjoint(<y,x>)
    and <a.x, y> = a <x,y>.
    """
    _check_vectors(x, y)
    gram = np.einsum("iab,icb->ac", x.stack, y.stack.conj())
    return AlgebraElement(x.descriptor, gram)


def scalar_norm(x: ModuleVector) -> float:
    """||x|| = ||<x,x>||^(1/2); equals the largest singular value of the flattening."""
    return operator_norm(inner_product(x, x)) ** 0.5


def apply(op: ModuleOperator, x: ModuleVector) -> ModuleVector:
    """Right action x @ M."""
    if op.descriptor != x.descriptor or op.n != x.n:
        raise ValueError("operator and vector shapes do not match")
    out = np.einsum("jab,jibc->iac", x.stack, op.blocks)
    return ModuleVector(x.descriptor, out)


def op_adjoint(op: ModuleOperator) -> ModuleOperator:
    """Blockwise conjugate transpose; the flattening is the plain conjugate transpose."""
    return ModuleOperator(op.descriptor, op.blocks.transpose(1, 0, 3, 2).conj())


def compose(first: ModuleOperator, second: ModuleOperator) -> ModuleOperator:
    """Operator performing ``first`` then ``second``: x @ M1 @ M2."""
    _check_operators(first, second)
    blocks = np.einsum("jlab,libc->jiac", first.blocks, second.blocks)
    return ModuleOperator(first.descriptor, blocks)


def op_norm(op: ModuleOperator) -> float:
    """Operator norm on H, the largest singular value of the flattening."""
    return float(np.linalg.norm(op.flatten(), 2))


def left_action(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Module action a . x, the element a applied to every component from the left."""
    if a.descriptor != x.descriptor:
        raise ValueError("element and vector descriptors do not match")
    return ModuleVector(x.descriptor, np.einsum("ab,ibc->iac", a.entries, x.stack))


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
        shape = arr.shape
        object.__setattr__(
            self, "samples", _as_blocks(self.descriptor, arr, shape, "l2 samples")
        )

    @classmethod
    def from_vectors(cls, rule, vectors):
        vectors = list(vectors)
        return cls(rule, vectors[0].descriptor, np.stack([v.stack for v in vectors]))

    @property
    def n(self):
        return self.samples.shape[1]


def l2_inner_product(xs: L2Family, ys: L2Family) -> AlgebraElement:
    """Integral of the pointwise inner products against the shared rule."""
    if xs.rule != ys.rule:
        raise ValueError("families must share one quadrature rule")
    if xs.descriptor != ys.descriptor or xs.samples.shape != ys.samples.shape:
        raise ValueError("families must share descriptor and shape")
    grams = np.einsum("siab,sicb->sac", xs.samples, ys.samples.conj())
    return AlgebraElement(xs.descriptor, integrate_array(xs.rule, grams))


def random_vector(descriptor, n, rng, scale=1.0, unit=False) -> ModuleVector:
    """Random vector with complex Gaussian entries conforming to the descriptor."""
    k = descriptor.dim
    stack = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
    if descriptor.is_diagonal:
        stack = stack * np.eye(k)
    x = ModuleVector(descriptor, scale * stack)
    if unit:
        nrm = scalar_norm(x)
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero draw")
        x = x.scale(1.0 / nrm)
    return x


def random_operator(descriptor, n, rng, scale=1.0) -> ModuleOperator:
    """Random operator with complex Gaussian blocks conforming to the descriptor."""
    k = descriptor.dim
    blocks = rng.standard_normal((n, n, k, k)) + 1j * rng.standard_normal((n, n, k, k))
    if descriptor.is_diagonal:
        blocks = blocks * np.eye(k)
    return ModuleOperator(descriptor, scale * blocks)
