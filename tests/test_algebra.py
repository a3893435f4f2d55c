import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opframes.algebra import AlgebraDescriptor, AlgebraElement, operator_norm

from oracles import jacobi_eigh

FULL2 = AlgebraDescriptor("full", 2)
FULL3 = AlgebraDescriptor("full", 3)
DIAG2 = AlgebraDescriptor("diagonal", 2)


def full(matrix, k=None):
    matrix = np.asarray(matrix, dtype=complex)
    return AlgebraElement(AlgebraDescriptor("full", matrix.shape[0]), matrix)


def diag(*values):
    return AlgebraElement(AlgebraDescriptor("diagonal", len(values)), np.diag(values))


class TestConstruction:
    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            AlgebraDescriptor("sparse", 2)
        with pytest.raises(ValueError):
            AlgebraDescriptor("full", 0)

    def test_diagonal_rejects_off_diagonal(self):
        with pytest.raises(ValueError):
            AlgebraElement(DIAG2, [[1.0, 0.5], [0.0, 2.0]])

    def test_entries_are_read_only(self):
        a = diag(1.0, 2.0)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            AlgebraElement(FULL2, np.zeros((3, 3)))


class TestOperatorNorm:
    def test_node_operator_at_endpoint(self):
        # diag(w, sqrt(3) w / 2) at w = 1: norm is max(1, sqrt(3)/2) = 1
        assert operator_norm(diag(1.0, np.sqrt(3.0) / 2.0)) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self):
        assert operator_norm(AlgebraElement(FULL3, np.zeros((3, 3)))) == 0.0

    def test_hermitian_matches_jacobi_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (m + m.conj().T) / 2.0
            values, _ = jacobi_eigh(h)
            expected = max(abs(values[0]), abs(values[-1]))
            assert operator_norm(full(h)) == pytest.approx(expected, rel=1e-12)


complex_entries = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(arrays(np.complex128, (3, 3), elements=complex_entries))
def test_cstar_identity(entries):
    a = AlgebraElement(FULL3, entries)
    lhs = operator_norm(AlgebraElement(FULL3, a.entries.conj().T @ a.entries))
    rhs = operator_norm(a) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

