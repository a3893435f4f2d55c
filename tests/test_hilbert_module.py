import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor, operator_norm
from opframes.hilbert_module import (
    L2Family,
    ModuleOperator,
    ModuleVector,
    apply,
    inner_product,
    l2_inner_product,
    op_norm,
    random_vector,
    scalar_norm,
    _flatten,
    _from_slots,
    _to_slots,
    _unflatten,
)
from opframes.quadrature import counting, gauss_legendre

from oracles import _loewner_leq, check_norm_domination, jacobi_eigh, random_operator, weighted_sum

DIAG2 = AlgebraDescriptor("diagonal", 2)
FULL2 = AlgebraDescriptor("full", 2)
ROOT3 = np.sqrt(3.0)


def diag_vector(*values):
    return ModuleVector(DIAG2, np.diag(values)[None])


def slope_operator(w):
    """Right multiplication by diag(w, sqrt(3) w / 2) on the rank-1 module."""
    blocks = np.zeros((1, 1, 2, 2), dtype=complex)
    blocks[0, 0] = np.diag([w, ROOT3 * w / 2.0])
    return ModuleOperator(DIAG2, blocks)


class TestConstruction:
    def test_vector_diagonal_conformity(self):
        with pytest.raises(ValueError):
            ModuleVector(DIAG2, np.ones((1, 2, 2)))

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(1)
        x = random_vector(FULL2, 3, rng)
        assert np.array_equal(ModuleVector(FULL2, _unflatten(x.flatten(), 2)[0]).stack, x.stack)
        m = random_operator(FULL2, 3, rng)
        assert np.array_equal(ModuleOperator.from_flat(FULL2, m.flatten()).blocks, m.blocks)


def written_out_flattening(table):
    """Element (i, j) of each (r, c, k, k) table at rows i*k.., columns j*k.. of its flattening."""
    *lead, rows, cols, k, _ = table.shape
    flat = np.zeros((*lead, rows * k, cols * k), dtype=table.dtype)
    for i in range(rows):
        for j in range(cols):
            flat[..., i * k:(i + 1) * k, j * k:(j + 1) * k] = table[..., i, j, :, :]
    return flat


def conforming_table(descriptor, shape, rng):
    """A random table of algebra elements, zero off the diagonal for a diagonal algebra."""
    k = descriptor.dim
    table = rng.standard_normal((*shape, k, k)) + 1j * rng.standard_normal((*shape, k, k))
    return table * np.eye(k) if descriptor.is_diagonal else table


class TestLayout:
    """The layout helpers against a spelling of the layout written out here."""

    @pytest.mark.parametrize("kind", ["full", "diagonal"])
    @pytest.mark.parametrize("lead", [(), (5,), (3, 5)])
    @pytest.mark.parametrize("rows, cols", [(1, 3), (3, 3)])
    def test_helpers_match_the_written_out_layout(self, kind, lead, rows, cols):
        descriptor = AlgebraDescriptor(kind, 3)
        k = descriptor.dim
        table = conforming_table(descriptor, (*lead, rows, cols), np.random.default_rng(len(lead)))
        flat = written_out_flattening(table)
        assert np.array_equal(_flatten(table), flat)
        assert np.array_equal(_unflatten(_flatten(table), k), table)
        slots = _to_slots(descriptor, table)
        if kind == "diagonal":
            want = np.stack([flat[..., s::k, s::k] for s in range(k)])
        else:
            want = flat[None]
        assert slots.shape == want.shape
        assert np.array_equal(slots, want)
        assert np.array_equal(_from_slots(descriptor, slots), table)

    def test_vector_is_its_table_of_one_row(self):
        x = random_vector(FULL2, 3, np.random.default_rng(9))
        assert np.array_equal(x.flatten(), written_out_flattening(x.stack[None]))


class TestInnerProduct:
    def test_diagonal_rank_one_formula(self):
        x = diag_vector(2.0 + 1j, 3.0)
        y = diag_vector(1.0 - 1j, 2.0j)
        expected = np.diag([(2.0 + 1j) * np.conj(1.0 - 1j), 3.0 * np.conj(2.0j)])
        assert np.allclose(inner_product(x, y).entries, expected)

    def test_identity_gram(self):
        x = ModuleVector(DIAG2, np.eye(2)[None])
        assert np.array_equal(inner_product(x, x).entries, np.eye(2))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_vector(FULL2, 3, rng)
            y = random_vector(FULL2, 3, rng)
            assert np.allclose(
                inner_product(x, y).entries,
                inner_product(y, x).entries.conj().T,
                atol=1e-13,
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(diag_vector(1, 2), random_vector(FULL2, 1, np.random.default_rng(3)))


class TestScalarNorm:
    def test_diagonal_max_modulus(self):
        assert scalar_norm(diag_vector(3.0, 4.0)) == pytest.approx(4.0)

    def test_zero(self):
        assert scalar_norm(ModuleVector(FULL2, np.zeros((3, 2, 2)))) == 0.0

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
            via_product = apply(ModuleOperator.from_flat(FULL2, m1.flatten() @ m2.flatten()), x)
            assert np.allclose(via_steps.stack, via_product.stack, atol=1e-12)

    def test_module_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = random_vector(FULL2, 3, rng)
            m = random_operator(FULL2, 3, rng)
            lhs = apply(m, ModuleVector(FULL2, a @ x.stack))
            rhs = a @ apply(m, x).stack
            assert np.allclose(lhs.stack, rhs, atol=1e-12)


class TestOpAdjoint:
    def test_adjoint_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = random_operator(FULL2, 2, rng)
            x = random_vector(FULL2, 2, rng)
            y = random_vector(FULL2, 2, rng)
            lhs = inner_product(apply(m, x), y).entries
            star = ModuleOperator(FULL2, m.blocks.transpose(1, 0, 3, 2).conj())
            rhs = inner_product(x, apply(star, y)).entries
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestL2:
    def test_worked_family_samples_at_identity(self):
        rule = gauss_legendre(0.0, 1.0, 2)
        x = ModuleVector(DIAG2, np.eye(2)[None])
        fam = L2Family(rule, DIAG2, np.stack([apply(slope_operator(w), x).stack for w in rule.nodes]))
        gram = l2_inner_product(fam, fam)
        assert np.allclose(gram.entries, np.diag([1.0 / 3.0, 0.25]), atol=1e-15)

    def test_zero_partner(self):
        rule = gauss_legendre(0.0, 1.0, 3)
        xs = L2Family(
            rule, DIAG2, np.stack([random_vector(DIAG2, 1, np.random.default_rng(10)).stack for _ in range(3)])
        )
        zeros = L2Family(rule, DIAG2, np.zeros_like(xs.samples))
        assert np.array_equal(l2_inner_product(xs, zeros).entries, np.zeros((2, 2)))

    def test_counting_measure_is_plain_sum(self):
        rule = counting(3)
        rng = np.random.default_rng(11)
        vectors = [random_vector(DIAG2, 1, rng) for _ in range(3)]
        fam = L2Family(rule, DIAG2, np.stack([v.stack for v in vectors]))
        expected = sum(
            (inner_product(v, v).entries for v in vectors), np.zeros((2, 2), dtype=complex)
        )
        assert np.allclose(l2_inner_product(fam, fam).entries, expected, atol=1e-14)

    def test_rule_mismatch(self):
        rng = np.random.default_rng(12)
        xs = L2Family(
            gauss_legendre(0.0, 1.0, 3), DIAG2, np.stack([random_vector(DIAG2, 1, rng).stack for _ in range(3)])
        )
        ys = L2Family(
            gauss_legendre(0.0, 2.0, 3), DIAG2, np.stack([random_vector(DIAG2, 1, rng).stack for _ in range(3)])
        )
        with pytest.raises(ValueError):
            l2_inner_product(xs, ys)

    def test_operator_integral_interchange(self):
        # a fixed operator commutes with the finite weighted sum
        rng = np.random.default_rng(13)
        rule = gauss_legendre(0.0, 1.0, 8)
        vectors = [random_vector(FULL2, 2, rng) for _ in range(8)]
        fam = L2Family(rule, FULL2, np.stack([v.stack for v in vectors]))
        m = random_operator(FULL2, 2, rng)
        lhs = apply(m, weighted_sum(fam))
        rhs = weighted_sum(L2Family(rule, FULL2, np.stack([apply(m, v).stack for v in vectors])))
        assert np.allclose(lhs.stack, rhs.stack, atol=1e-13)


class TestNormDomination:
    def test_worked_family_at_endpoint(self):
        m = slope_operator(1.0)
        assert op_norm(m) == pytest.approx(1.0)
        x = ModuleVector(DIAG2, np.eye(2)[None])
        assert check_norm_domination(m, x, 1e-10)

    def test_zero_operator(self):
        x = diag_vector(1.0, 2.0)
        assert check_norm_domination(ModuleOperator(DIAG2, np.zeros((1, 1, 2, 2))), x, 1e-10)

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
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = random_vector(FULL2, 2, rng)
            y = random_vector(FULL2, 2, rng)
            z = random_vector(FULL2, 2, rng)
            lhs = inner_product(ModuleVector(FULL2, a @ x.stack + y.stack), z).entries
            rhs = a @ inner_product(x, z).entries + inner_product(y, z).entries
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_definiteness(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = random_vector(FULL2, 3, rng)
            assert _loewner_leq(np.zeros((2, 2)), inner_product(x, x).entries, 1e-10)
        zero = ModuleVector(FULL2, np.zeros((3, 2, 2)))
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
