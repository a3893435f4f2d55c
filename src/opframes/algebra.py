"""Finite-dimensional C*-algebra arithmetic.

The algebra is either the full algebra of k x k complex matrices or its
diagonal subalgebra.  Elements are immutable; all operations are pure
functions returning new elements.  Order statements (positivity, the
Loewner comparison) are tolerance-based: the effective floor for an
element ``a`` is ``tol * (||a|| + 1)``.

Diagonal elements take entrywise fast paths throughout, so diagonal
structure is preserved exactly (off-diagonal entries stay 0.0, never
rounding dust).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularElement

# sigma_min <= SINGULARITY_RATIO * sigma_max counts as singular
SINGULARITY_RATIO = 1e-13

_KINDS = ("full", "diagonal")


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which matrix algebra an element lives in: ``full`` or ``diagonal``, size k."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"algebra kind must be one of {_KINDS}, got {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"algebra dimension must be >= 1, got {self.dim}")

    @property
    def is_diagonal(self):
        return self.kind == "diagonal"


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A k x k complex matrix tagged with its algebra descriptor.

    Diagonal-tagged elements must have exactly zero off-diagonal entries;
    this is enforced at construction.  The entry array is read-only.
    """

    descriptor: AlgebraDescriptor
    entries: np.ndarray

    def __post_init__(self):
        k = self.descriptor.dim
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (k, k):
            raise ValueError(f"entries must have shape {(k, k)}, got {entries.shape}")
        if self.descriptor.is_diagonal and np.any(entries != np.diag(np.diag(entries))):
            raise ValueError("diagonal descriptor requires zero off-diagonal entries")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def diagonal(cls, descriptor, values):
        """Element with the given diagonal, valid for both algebra kinds."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (descriptor.dim,):
            raise ValueError(f"need {descriptor.dim} diagonal values, got shape {values.shape}")
        return cls(descriptor, np.diag(values))

    @classmethod
    def identity(cls, descriptor):
        return cls(descriptor, np.eye(descriptor.dim))

    @classmethod
    def zero(cls, descriptor):
        return cls(descriptor, np.zeros((descriptor.dim, descriptor.dim)))

    @property
    def diag(self):
        return np.diag(self.entries)

    def __add__(self, other):
        _check_same(self, other)
        return AlgebraElement(self.descriptor, self.entries + other.entries)

    def __sub__(self, other):
        _check_same(self, other)
        return AlgebraElement(self.descriptor, self.entries - other.entries)

    def __neg__(self):
        return AlgebraElement(self.descriptor, -self.entries)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(self.descriptor, self.entries * complex(other))

    def __rmul__(self, scalar):
        return AlgebraElement(self.descriptor, complex(scalar) * self.entries)

    def __repr__(self):
        return f"AlgebraElement({self.descriptor.kind}, k={self.descriptor.dim})"


def _check_same(a, b):
    if a.descriptor != b.descriptor:
        raise ValueError(f"descriptor mismatch: {a.descriptor} vs {b.descriptor}")


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Conjugate transpose.  An exact involution: adjoint(adjoint(a)) == a."""
    return AlgebraElement(a.descriptor, a.entries.conj().T)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Algebra product a @ b.  Requires matching descriptors."""
    _check_same(a, b)
    return AlgebraElement(a.descriptor, a.entries @ b.entries)


def operator_norm(a: AlgebraElement) -> float:
    """Largest singular value; for a Hermitian element this is max |eigenvalue|."""
    if a.descriptor.is_diagonal:
        return float(np.max(np.abs(a.diag))) if a.descriptor.dim else 0.0
    return float(np.linalg.norm(a.entries, 2))


def _check_tol(tol):
    """Refuse a tolerance that is not a positive finite number; NaN and inf decide nothing."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol!r}")


def is_positive(a: AlgebraElement, tol: float = 1e-10) -> bool:
    """Whether ``a`` is positive to tolerance.

    True iff ``a`` is Hermitian within the floor ``tol * (||a|| + 1)`` and
    the minimum eigenvalue of its Hermitian part is >= -floor.
    """
    _check_tol(tol)
    floor = tol * (operator_norm(a) + 1.0)
    if a.descriptor.is_diagonal:
        d = a.diag
        return float(np.max(np.abs(d.imag), initial=0.0)) * 2.0 <= floor and float(
            np.min(d.real, initial=0.0)
        ) >= -floor
    dev = float(np.linalg.norm(a.entries - a.entries.conj().T, 2))
    if dev > floor:
        return False
    herm = (a.entries + a.entries.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0]) >= -floor


def loewner_leq(a: AlgebraElement, b: AlgebraElement, tol: float = 1e-10) -> bool:
    """Loewner comparison a <= b, i.e. b - a positive to tolerance."""
    _check_same(a, b)
    return is_positive(b - a, tol)


def hermitian_sqrt(a: AlgebraElement, tol: float = 1e-10) -> AlgebraElement:
    """Positive square root of a positive element.

    Eigenvalues are clamped at zero before taking the root, so roundoff
    cannot leak into the complex plane.  Raises ValueError when the input
    is not positive within ``tol``.
    """
    if not is_positive(a, tol):
        raise ValueError("hermitian_sqrt requires a positive element")
    if a.descriptor.is_diagonal:
        vals = np.sqrt(np.clip(a.diag.real, 0.0, None))
        return AlgebraElement.diagonal(a.descriptor, vals)
    herm = (a.entries + a.entries.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = np.sqrt(np.clip(vals, 0.0, None))
    return AlgebraElement(a.descriptor, (vecs * vals) @ vecs.conj().T)


def inverse(a: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse, W diag(1/sigma) U* from the one SVD a = U diag(sigma) W*
    that also decides the cutoff.  Raises SingularElement below it."""
    if a.descriptor.is_diagonal:
        d = a.diag
        mags = np.abs(d)
        if float(np.min(mags)) <= SINGULARITY_RATIO * float(np.max(mags, initial=0.0)):
            raise SingularElement("diagonal element has a zero (to tolerance) entry")
        return AlgebraElement.diagonal(a.descriptor, 1.0 / d)
    left, sigma, right = np.linalg.svd(a.entries)
    if sigma[-1] <= SINGULARITY_RATIO * sigma[0]:
        raise SingularElement(
            f"element is singular to tolerance (sigma_min/sigma_max = "
            f"{sigma[-1] / sigma[0] if sigma[0] else 0.0:.3e})"
        )
    return AlgebraElement(a.descriptor, (right.conj().T / sigma) @ left.conj().T)


def abs_element(a: AlgebraElement) -> AlgebraElement:
    """The modulus (adjoint(a) @ a) ** (1/2)."""
    return hermitian_sqrt(multiply(adjoint(a), a))
