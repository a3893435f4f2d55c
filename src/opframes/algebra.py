"""Finite-dimensional C*-algebra elements.

The algebra is either the full algebra of k x k complex matrices or its
diagonal subalgebra.  An element is an immutable k x k complex matrix
tagged with its descriptor: the value of an A-valued inner product or an
integral.  The frame machinery itself works on flattenings and slot
blocks (``hilbert_module``).

The module also holds the checks that every numeric module shares: a
tolerance (``_check_tol``), a table of algebra elements (``_as_blocks``,
the one birth check of every element, vector, operator, l2 family and
operator family), and a value past the float range of doubles
(``_finite``), through which every refusal of a NaN or infinite value
goes; every array the package freezes is made read-only by ``_read_only``.
"""

from __future__ import annotations

import math
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


def _as_blocks(descriptor, arr, shape, what):
    """``arr`` as a read-only complex array of ``shape`` of elements of ``descriptor``, else ValueError naming
    ``what``: a wrong shape, an empty axis, a non-finite entry or a nonzero off-diagonal entry of a diagonal one."""
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not arr.size:
        raise ValueError(f"{what} must have no empty axis, got shape {arr.shape}")
    _finite(arr, f"{what} must be finite")
    if descriptor.is_diagonal:
        mask = ~np.eye(descriptor.dim, dtype=bool)
        if np.any(arr[..., mask] != 0):
            raise ValueError(f"{what}: diagonal descriptor requires zero off-diagonal entries")
    return _read_only(arr.copy(order="K"))  # in its own memory order, so a flattening stays a view


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A k x k complex matrix tagged with its algebra descriptor, checked by ``_as_blocks``
    (finite, and zero off the diagonal of a diagonal algebra) and read-only."""

    descriptor: AlgebraDescriptor
    entries: np.ndarray

    def __post_init__(self):
        k = self.descriptor.dim
        object.__setattr__(self, "entries", _as_blocks(self.descriptor, self.entries, (k, k), "entries"))

    @property
    def diag(self):
        return np.diag(self.entries)


def operator_norm(a: AlgebraElement) -> float:
    """Largest singular value; for a Hermitian element this is max |eigenvalue|."""
    if a.descriptor.is_diagonal:
        return float(np.max(np.abs(a.diag)))
    return float(np.linalg.norm(a.entries, 2))


def _check_tol(tol):
    """Refuse a tolerance that is not a positive finite number; NaN and inf decide nothing."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol!r}")


def _read_only(arr):
    """``arr``, made read-only in place."""
    arr.setflags(write=False)
    return arr


def _finite(values, message):
    """``values``, unless an entry is NaN or infinite: then ValueError(message).
    A Python float, the per-step residual of an iteration, takes ``math.isfinite``,
    a fraction of the time of ``np.isfinite``."""
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise ValueError(message)
    return values
