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
Every value class of the package is a ``_Frozen``.
"""

from __future__ import annotations

import math

import numpy as np

# sigma_min <= SINGULARITY_RATIO * sigma_max counts as singular
SINGULARITY_RATIO = 1e-13

_KINDS = ("full", "diagonal")


class _Frozen:
    """Base of the package's value classes, a plain class where a frozen dataclass would do.

    A class's fields are the parameters of its ``__init__``, which checks them
    and stores them with ``_store``; after that no attribute can be set or
    deleted (AttributeError), though a ``cached_property`` fills its cache.
    ``repr`` lists the fields, and ``==`` and ``hash`` compare them, unless the
    class is declared with ``eq=False``: then a value equals only itself.
    """

    def __init_subclass__(cls, eq=True):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _store(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())


class AlgebraDescriptor(_Frozen):
    """Which matrix algebra an element lives in: ``full`` or ``diagonal``, size k."""

    def __init__(self, kind: str, dim: int):
        if kind not in _KINDS:
            raise ValueError(f"algebra kind must be one of {_KINDS}, got {kind!r}")
        if dim < 1:
            raise ValueError(f"algebra dimension must be >= 1, got {dim}")
        self._store(kind=kind, dim=dim)

    @property
    def is_diagonal(self):
        return self.kind == "diagonal"


def _as_blocks(descriptor, arr, shape, what):
    """``arr`` as a read-only complex array of ``shape`` of elements of ``descriptor``, else ValueError naming
    ``what``: a wrong shape, an empty axis, a non-finite entry or a nonzero off-diagonal entry of a diagonal one."""
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.shape != shape:  # an axis named by a letter, such as the rank n, matches no array
        raise ValueError(f"{what} must have shape ({', '.join(map(str, shape))}), got {arr.shape}")
    if not arr.size:
        raise ValueError(f"{what} must have no empty axis, got shape {arr.shape}")
    _finite(arr, f"{what} must be finite")
    if descriptor.is_diagonal:
        mask = ~np.eye(descriptor.dim, dtype=bool)
        if np.any(arr[..., mask] != 0):
            raise ValueError(f"{what}: diagonal descriptor requires zero off-diagonal entries")
    return _read_only(arr.copy(order="K"))  # in its own memory order, so a flattening stays a view


class AlgebraElement(_Frozen, eq=False):
    """A k x k complex matrix tagged with its algebra descriptor, checked by ``_as_blocks``
    (finite, and zero off the diagonal of a diagonal algebra) and read-only."""

    def __init__(self, descriptor: AlgebraDescriptor, entries: np.ndarray):
        k = descriptor.dim
        self._store(descriptor=descriptor, entries=_as_blocks(descriptor, entries, (k, k), "entries"))

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
