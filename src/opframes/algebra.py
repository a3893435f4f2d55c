"""Finite-dimensional C*-algebra elements.

The algebra is either the full algebra of k x k complex matrices or its
diagonal subalgebra.  An element is an immutable k x k complex matrix
tagged with its descriptor: the value of an A-valued inner product or an
integral.  The frame machinery itself works on flattenings and slot
blocks (``hilbert_module``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @property
    def diag(self):
        return np.diag(self.entries)


def operator_norm(a: AlgebraElement) -> float:
    """Largest singular value; for a Hermitian element this is max |eigenvalue|."""
    if a.descriptor.is_diagonal:
        return float(np.max(np.abs(a.diag))) if a.descriptor.dim else 0.0
    return float(np.linalg.norm(a.entries, 2))


def _check_tol(tol):
    """Refuse a tolerance that is not a positive finite number; NaN and inf decide nothing."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol!r}")
