import numpy as np
import pytest

from opframes.algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    adjoint,
    is_positive,
    operator_norm,
)
from opframes.hilbert_module import (
    L2Family,
    ModuleOperator,
    ModuleVector,
    apply,
    compose,
    inner_product,
    l2_inner_product,
    left_action,
    op_adjoint,
    op_norm,
    random_operator,
    random_vector,
    scalar_norm,
)
from opframes.quadrature import counting, gauss_legendre

from oracles import check_norm_domination, jacobi_eigh, weighted_sum

DIAG2 = AlgebraDescriptor("diagonal", 2)
FULL2 = AlgebraDescriptor("full", 2)
ROOT3 = np.sqrt(3.0)


def diag_vector(*values):
    return ModuleVector.from_components([AlgebraElement.diagonal(DIAG2, values)])


def slope_operator(w):
    """Right multiplication by diag(w, sqrt(3) w / 2) on the rank-1 module."""
    blocks = np.zeros((1, 1, 2, 2), dtype=complex)
    blocks[0, 0] = np.diag([w, ROOT3 * w / 2.0])
    return ModuleOperator(DIAG2, blocks)


class TestConstruction:
    def test_vector_diagonal_conformity(self):
        with pytest.raises(ValueError):
            ModuleVector(DIAG2, np.ones((1, 2, 2)))

    def test_operator_block_adjoint_layout(self):
        rng = np.random.default_rng(0)
        m = random_operator(FULL2, 3, rng)
        star = op_adjoint(m)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(
                    star.blocks[i, j], adjoint(m.block(j, i)).entries
                )

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(1)
        x = random_vector(FULL2, 3, rng)
        assert np.array_equal(ModuleVector.from_flat(FULL2, x.flatten()).stack, x.stack)
        m = random_operator(FULL2, 3, rng)
        assert np.array_equal(ModuleOperator.from_flat(FULL2, m.flatten()).blocks, m.blocks)


class TestInnerProduct:
    def test_diagonal_rank_one_formula(self):
        x = diag_vector(2.0 + 1j, 3.0)
        y = diag_vector(1.0 - 1j, 2.0j)
        expected = np.diag([(2.0 + 1j) * np.conj(1.0 - 1j), 3.0 * np.conj(2.0j)])
        assert np.allclose(inner_product(x, y).entries, expected)

    def test_identity_gram(self):
        x = ModuleVector.from_components([AlgebraElement.identity(DIAG2)])
        assert np.array_equal(inner_product(x, x).entries, np.eye(2))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_vector(FULL2, 3, rng)
            y = random_vector(FULL2, 3, rng)
            assert np.allclose(
                inner_product(x, y).entries,
                adjoint(inner_product(y, x)).entries,
                atol=1e-13,
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(diag_vector(1, 2), random_vector(FULL2, 1, np.random.default_rng(3)))


class TestScalarNorm:
    def test_diagonal_max_modulus(self):
        assert scalar_norm(diag_vector(3.0, 4.0)) == pytest.approx(4.0)

    def test_zero(self):
        assert scalar_norm(ModuleVector.zero(FULL2, 3)) == 0.0

    def test_matches_flattening_singular_value(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = random_vector(FULL2, 3, rng)
            assert scalar_norm(x) == pytest.approx(
                float(np.linalg.norm(x.flatten(), 2)), rel=1e-12
            )


class TestApply:
    def test_slope_action(self):
        x = diag_vector(2.0, -1.0)
        out = apply(slope_operator(0.5), x)
        assert np.allclose(out.stack[0], np.diag([1.0, -ROOT3 / 4.0]))

    def test_identity(self):
        rng = np.random.default_rng(5)
        x = random_vector(FULL2, 3, rng)
        out = apply(ModuleOperator.identity(FULL2, 3), x)
        assert np.allclose(out.stack, x.stack)

    def test_composition_matches_block_product(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m1 = random_operator(FULL2, 3, rng)
            m2 = random_operator(FULL2, 3, rng)
            x = random_vector(FULL2, 3, rng)
            via_steps = apply(m2, apply(m1, x))
            via_product = apply(compose(m1, m2), x)
            assert np.allclose(via_steps.stack, via_product.stack, atol=1e-12)

    def test_module_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = AlgebraElement(FULL2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            x = random_vector(FULL2, 3, rng)
            m = random_operator(FULL2, 3, rng)
            lhs = apply(m, left_action(a, x))
            rhs = left_action(a, apply(m, x))
            assert np.allclose(lhs.stack, rhs.stack, atol=1e-12)


class TestOpAdjoint:
    def test_slope_family_self_adjoint(self):
        m = slope_operator(0.7)
        assert np.array_equal(op_adjoint(m).blocks, m.blocks)

    def test_involution(self):
        rng = np.random.default_rng(8)
        m = random_operator(FULL2, 3, rng)
        assert np.array_equal(op_adjoint(op_adjoint(m)).blocks, m.blocks)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = random_operator(FULL2, 2, rng)
            x = random_vector(FULL2, 2, rng)
            y = random_vector(FULL2, 2, rng)
            lhs = inner_product(apply(m, x), y).entries
            rhs = inner_product(x, apply(op_adjoint(m), y)).entries
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestL2:
    def test_worked_family_samples_at_identity(self):
        rule = gauss_legendre(0.0, 1.0, 2)
        x = ModuleVector.from_components([AlgebraElement.identity(DIAG2)])
        fam = L2Family.from_vectors(rule, [apply(slope_operator(w), x) for w in rule.nodes])
        gram = l2_inner_product(fam, fam)
        assert np.allclose(gram.entries, np.diag([1.0 / 3.0, 0.25]), atol=1e-15)

    def test_zero_partner(self):
        rule = gauss_legendre(0.0, 1.0, 3)
        xs = L2Family.from_vectors(
            rule, [random_vector(DIAG2, 1, np.random.default_rng(10)) for _ in range(3)]
        )
        zeros = L2Family(rule, DIAG2, np.zeros_like(xs.samples))
        assert np.array_equal(l2_inner_product(xs, zeros).entries, np.zeros((2, 2)))

    def test_counting_measure_is_plain_sum(self):
        rule = counting(3)
        rng = np.random.default_rng(11)
        vectors = [random_vector(DIAG2, 1, rng) for _ in range(3)]
        fam = L2Family.from_vectors(rule, vectors)
        expected = sum(
            (inner_product(v, v).entries for v in vectors), np.zeros((2, 2), dtype=complex)
        )
        assert np.allclose(l2_inner_product(fam, fam).entries, expected, atol=1e-14)

    def test_rule_mismatch(self):
        rng = np.random.default_rng(12)
        xs = L2Family.from_vectors(
            gauss_legendre(0.0, 1.0, 3), [random_vector(DIAG2, 1, rng) for _ in range(3)]
        )
        ys = L2Family.from_vectors(
            gauss_legendre(0.0, 2.0, 3), [random_vector(DIAG2, 1, rng) for _ in range(3)]
        )
        with pytest.raises(ValueError):
            l2_inner_product(xs, ys)

    def test_operator_integral_interchange(self):
        # a fixed operator commutes with the finite weighted sum
        rng = np.random.default_rng(13)
        rule = gauss_legendre(0.0, 1.0, 8)
        vectors = [random_vector(FULL2, 2, rng) for _ in range(8)]
        fam = L2Family.from_vectors(rule, vectors)
        m = random_operator(FULL2, 2, rng)
        lhs = apply(m, weighted_sum(fam))
        rhs = weighted_sum(L2Family.from_vectors(rule, [apply(m, v) for v in vectors]))
        assert np.allclose(lhs.stack, rhs.stack, atol=1e-13)


class TestNormDomination:
    def test_worked_family_at_endpoint(self):
        m = slope_operator(1.0)
        assert op_norm(m) == pytest.approx(1.0)
        x = ModuleVector.from_components([AlgebraElement.identity(DIAG2)])
        assert check_norm_domination(m, x, 1e-10)

    def test_zero_operator(self):
        x = diag_vector(1.0, 2.0)
        assert check_norm_domination(ModuleOperator.zero(DIAG2, 1), x, 1e-10)

    def test_random_sweep(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m = random_operator(FULL2, 2, rng)
            x = random_vector(FULL2, 2, rng)
            assert check_norm_domination(m, x, 1e-10)


class TestInvariants:
    def test_sesquilinearity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = AlgebraElement(FULL2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            x = random_vector(FULL2, 2, rng)
            y = random_vector(FULL2, 2, rng)
            z = random_vector(FULL2, 2, rng)
            lhs = inner_product(left_action(a, x) + y, z).entries
            rhs = (a * inner_product(x, z) + inner_product(y, z)).entries
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_definiteness(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = random_vector(FULL2, 3, rng)
            assert is_positive(inner_product(x, x), 1e-10)
        zero = ModuleVector.zero(FULL2, 3)
        assert operator_norm(inner_product(zero, zero)) == 0.0

    def test_flattened_two_sided_bound(self):
        # injective flattened operator: its gram matrix sits between
        # 1/||(M*M)^-1|| and ||M||^2 in the PSD order
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = random_operator(FULL2, 2, rng)
            flat = m.flatten() + 1.5 * np.eye(4)  # keep it injective
            gram = flat.conj().T @ flat
            upper = float(np.linalg.norm(flat, 2)) ** 2
            lower = 1.0 / float(np.linalg.norm(np.linalg.inv(gram), 2))
            values, _ = jacobi_eigh(gram)
            assert values[0] >= lower - 1e-9 * upper
            assert values[-1] <= upper + 1e-9 * upper
