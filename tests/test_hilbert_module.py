import re
import warnings

import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor, AlgebraElement, operator_norm
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
from opframes.quadrature import counting, gauss_legendre, integrate

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("descriptor", [DIAG2, FULL2], ids=["diagonal", "full"])
    def test_non_finite_entries_are_refused_by_name_when_built(self, descriptor, bad):
        # refused by the one birth check, before a norm's SVD fails to converge or
        # apply, inner_product and l2_inner_product hand the entry on
        entry = np.diag([1.0, bad])
        rule = gauss_legendre(0.0, 1.0, 2)
        builds = {"entries": lambda: AlgebraElement(descriptor, entry),
                  "vector components": lambda: ModuleVector(descriptor, entry[None]),
                  "operator blocks": lambda: ModuleOperator(descriptor, entry[None, None]),
                  "l2 samples": lambda: L2Family(rule, descriptor, np.stack([entry[None]] * 2))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for what, build in builds.items():
                with pytest.raises(ValueError, match=f"^{what} must be finite$"):
                    build()

    def test_rank_zero_values_are_refused_by_name_and_shape(self):
        rule = gauss_legendre(0.0, 1.0, 2)
        builds = {r"vector components must have no empty axis, got shape \(0, 2, 2\)":
                  lambda: ModuleVector(DIAG2, np.zeros((0, 2, 2))),
                  r"operator blocks must have no empty axis, got shape \(0, 0, 2, 2\)":
                  lambda: ModuleOperator(FULL2, np.zeros((0, 0, 2, 2))),
                  r"l2 samples must have no empty axis, got shape \(2, 0, 2, 2\)":
                  lambda: L2Family(rule, DIAG2, np.zeros((2, 0, 2, 2)))}
        for message, build in builds.items():
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_a_wrong_number_of_axes_is_refused_by_the_axes_expected_and_the_shape_given(self):
        # the rank n is read from the first axis only when the number of axes is right; else the
        # message names it by its letter, and no shape with a rank of 0 is ever expected
        builds = {r"vector components must have shape \(n, 2, 2\), got \(2, 2\)":
                  lambda: ModuleVector(DIAG2, np.eye(2)),
                  r"operator blocks must have shape \(n, n, 2, 2\), got \(1, 2, 2\)":
                  lambda: ModuleOperator(DIAG2, np.eye(2)[None]),
                  r"vector components must have shape \(n, 3, 3\), got \(1, 1, 3, 3\)":
                  lambda: ModuleVector(AlgebraDescriptor("full", 3), np.eye(3)[None, None]),
                  r"operator blocks must have shape \(2, 2, 2, 2\), got \(2, 1, 2, 2\)":
                  lambda: ModuleOperator(FULL2, np.zeros((2, 1, 2, 2)))}
        for message, build in builds.items():
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_a_result_past_the_float_range_is_refused_by_name(self):
        # each input is finite, so a non-finite entry of the result is an overflow, not a bad input
        # (the parent returned it); the birth check's "must be finite" would name an input never given
        big = ModuleVector(FULL2, 1e200 * np.eye(2)[None])
        huge = ModuleVector(FULL2, 1.5e308 * np.eye(2)[None])
        rule = gauss_legendre(0.0, 100.0, 2)
        samples = L2Family(rule, FULL2, 1e200 * np.ones((2, 1, 2, 2)))
        results = [("<x, y>", lambda: inner_product(big, big)),
                   ("x @ M", lambda: apply(ModuleOperator(FULL2, 1e200 * np.eye(2)[None, None]), big)),
                   ("the integral", lambda: l2_inner_product(samples, samples)),
                   ("the integral", lambda: integrate(rule, [AlgebraElement(FULL2, 1.5e308 * np.eye(2))] * 2)),
                   ("the scaled vector", lambda: big.scale(1e200)),
                   ("x - y", lambda: huge - huge.scale(-1.0))]
        for what, result in results:
            with pytest.raises(ValueError, match=f"^{re.escape(what)} is past the float range of doubles$"):
                result()
        # a factor that is not finite is the caller's input, not an overflow
        for factor in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^the scale factor must be finite$"):
                big.scale(factor)

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

    @pytest.mark.parametrize("kind", ["full", "diagonal"])
    @pytest.mark.parametrize("seed", range(4))
    def test_vector_slots_round_trip(self, kind, seed):
        descriptor = AlgebraDescriptor(kind, 3)
        k, n = descriptor.dim, 1 + seed
        rng = np.random.default_rng(seed)
        table = conforming_table(descriptor, (n,), rng)
        table.real[rng.random(table.shape) < 0.3] = -0.0  # signed zeros must come back too
        if kind == "diagonal":  # off its diagonal an element holds no slot entry, so no sign either
            table = np.where(np.eye(k, dtype=bool), table, 0.0)
        x = ModuleVector(descriptor, table)
        flat = written_out_flattening(x.stack[None])
        want = np.stack([flat[s::k, s::k] for s in range(k)]) if kind == "diagonal" else flat[None]
        assert x.slots.shape == ((k, 1, n) if kind == "diagonal" else (1, k, n * k))
        assert np.array_equal(x.slots, _to_slots(descriptor, x.stack[None]))
        assert np.array_equal(x.slots, want)
        back = ModuleVector.from_slots(descriptor, x.slots)
        assert back.stack.tobytes() == x.stack.tobytes()

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

    @pytest.mark.parametrize("descriptor", [DIAG2, FULL2], ids=["diagonal", "full"])
    def test_samples_of_another_algebra_size_are_refused(self, descriptor):
        # a diagonal descriptor indexed 3 x 3 samples with its 2 x 2 mask and raised IndexError;
        # a full one took them, and l2_inner_product compared their shapes
        rule = gauss_legendre(0.0, 1.0, 2)
        with pytest.raises(ValueError, match=r"^l2 samples must have shape \(2, 1, 2, 2\), got \(2, 1, 3, 3\)$"):
            L2Family(rule, descriptor, np.zeros((2, 1, 3, 3)))

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
