import warnings

import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor
from opframes.catalog import diagonal_slope_family, random_frame_family
from opframes.exceptions import NotAFrame
from opframes.frames import OperatorFamily, frame_operator, optimal_bounds
from opframes.hilbert_module import ModuleOperator, op_norm
from opframes.perturbation import (
    AdditivePerturbation,
    RelativePerturbation,
    ScalarFamily,
    additive_admissible,
    additive_envelope,
    criterion_sample_vectors,
    perturb_additive,
    relative_criterion_check,
    relative_envelope,
)
from opframes.quadrature import counting, gauss_legendre

from families import rank_deficient_family
from oracles import criterion_margin, sampled_relative_criterion

DIAG2 = AlgebraDescriptor("diagonal", 2)
FULL2 = AlgebraDescriptor("full", 2)
ROOT3 = np.sqrt(3.0)


def identity_perturbation(c):
    return AdditivePerturbation(ModuleOperator.identity(DIAG2, 1), ScalarFamily.constant(c))


def scaled_family(family, factors):
    """Sampled family with node operators multiplied by per-node scalars."""
    flats = factors[:, None, None] * family.flats
    return OperatorFamily.from_flats(family.rule, family.descriptor, family.n, flats)


class TestScalarFamily:
    def test_polynomial_evaluation(self):
        rule = gauss_legendre(0.0, 1.0, 4)
        fam = ScalarFamily.polynomial([1.0, 2.0])
        assert np.allclose(fam.at_nodes(rule), 1.0 + 2.0 * rule.nodes)

    def test_sampled_length_check(self):
        rule = gauss_legendre(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            ScalarFamily.sampled([1.0, 2.0]).at_nodes(rule)

    def test_real_range_rejects_complex(self):
        rule = gauss_legendre(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            ScalarFamily.constant(1.0 + 0.5j).real_range(rule)

    def test_real_range_sees_an_interior_imaginary_part(self):
        # imaginary part 1e-3 (w - w^2): zero at both endpoints, 2.5e-4 at w = 1/2
        rule = gauss_legendre(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="real-valued"):
            ScalarFamily.polynomial([1.0, 1e-3j, -1e-3j]).real_range(rule)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ScalarFamily.polynomial([1.0, 1.0, 1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            ScalarFamily.sampled([1.0, bad])

    def test_a_value_past_the_float_range_is_refused_by_name(self):
        # t^2 ~ 1e300 is a double, 1e10 t^2 is not: at_nodes read inf + nan j and
        # real_range (inf, inf), each after numpy's overflow and invalid-value warnings
        rule = gauss_legendre(1e150, 1e150 * (1 + 2**-52), 4)
        fam = ScalarFamily.polynomial([1.0, 0.0, 1e10])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for call in (fam.at_nodes, fam.real_range):
                with pytest.raises(ValueError, match="^a polynomial's value is past the float range of doubles$"):
                    call(rule)
        assert caught == []

    def test_exactly_one_form(self):
        with pytest.raises(ValueError):
            ScalarFamily(coefficients=[1.0], values=[1.0])

    @pytest.mark.parametrize("make, table", [
        (ScalarFamily.polynomial, []),
        (ScalarFamily.sampled, []),
        (ScalarFamily.sampled, [[1.0, 2.0]]),
        (ScalarFamily.polynomial, [[1.0], [2.0]]),
        (ScalarFamily.sampled, 1.0),
    ])
    def test_table_must_be_a_non_empty_list(self, make, table):
        with pytest.raises(ValueError, match="^scale family needs a non-empty 1-d array"):
            make(table)


class TestAdditivePerturbation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_direction_rejected(self, bad):
        blocks = np.zeros((1, 1, 2, 2), dtype=complex)
        blocks[0, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="^perturbation operator must be finite$"):
            AdditivePerturbation(ModuleOperator(DIAG2, blocks), ScalarFamily.constant(1.0))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            AdditivePerturbation(ModuleOperator(DIAG2, np.zeros((1, 1, 2, 2))), ScalarFamily.constant(0.1))

    @pytest.mark.parametrize("entry", [5e-324, 5e-324j])
    @pytest.mark.parametrize("descriptor,index", [(DIAG2, (0, 0, 1, 1)), (FULL2, (0, 0, 0, 1))])
    def test_smallest_subnormal_direction_is_nonzero(self, descriptor, index, entry):
        # decided from the entries, as the SVD norm (5e-324) decided it before
        blocks = np.zeros((1, 1, 2, 2), dtype=complex)
        blocks[index] = entry
        pert = AdditivePerturbation(ModuleOperator(descriptor, blocks), ScalarFamily.constant(1.0))
        assert op_norm(pert.operator) == 5e-324
        for signed_zero in (0.0, -0.0, complex(-0.0, -0.0)):
            with pytest.raises(ValueError, match="^perturbation operator must be nonzero$"):
                AdditivePerturbation(ModuleOperator(descriptor, blocks * 0 + signed_zero), ScalarFamily.constant(1.0))

    def test_energy_of_constant_coefficient(self):
        fam = diagonal_slope_family()
        assert identity_perturbation(0.4).energy(fam.rule) == pytest.approx(0.16, abs=1e-12)

    def test_perturbed_node_blocks(self):
        fam = diagonal_slope_family()
        perturbed = perturb_additive(fam, identity_perturbation(0.1))
        for i, w in enumerate(fam.rule.nodes):
            expected = np.diag([w + 0.1, ROOT3 * w / 2.0 + 0.1])
            assert np.allclose(perturbed.flats[i], expected, atol=1e-14)

    def test_zero_coefficient_is_identity_map(self):
        fam = diagonal_slope_family()
        perturbed = perturb_additive(fam, identity_perturbation(0.0))
        assert np.array_equal(perturbed.flats, fam.flats)

    def test_parametric_and_sampled_paths_agree(self):
        fam = diagonal_slope_family()
        poly = AdditivePerturbation(
            ModuleOperator.identity(DIAG2, 1), ScalarFamily.polynomial([0.05, -0.2])
        )
        sampled = AdditivePerturbation(
            ModuleOperator.identity(DIAG2, 1),
            ScalarFamily.sampled(0.05 - 0.2 * fam.rule.nodes),
        )
        via_poly = perturb_additive(fam, poly)
        via_samples = perturb_additive(fam, sampled)
        assert via_poly.form == "parametric"
        assert via_samples.form == "sampled"
        assert np.max(np.abs(via_poly.flats - via_samples.flats)) <= 1e-14

    def test_shape_mismatch(self):
        # the energy criterion reads only c, so a verdict needs this check too
        fam = diagonal_slope_family()
        for descriptor, n in ((FULL2, 1), (AlgebraDescriptor("full", 3), 2), (DIAG2, 2)):
            pert = AdditivePerturbation(ModuleOperator.identity(descriptor, n), ScalarFamily.constant(0.01))
            for call in (perturb_additive, additive_admissible):
                with pytest.raises(ValueError, match="^perturbation operator does not match the family shape"):
                    call(fam, pert)


class TestAdmissibility:
    def test_admissible_case(self):
        fam = diagonal_slope_family()
        admissible, energy, lower = additive_admissible(fam, identity_perturbation(0.4))
        assert admissible
        assert energy == pytest.approx(0.16, abs=1e-12)
        assert lower == pytest.approx(0.25, abs=1e-10)

    def test_zero_coefficient_is_admissible(self):
        fam = diagonal_slope_family()
        admissible, energy, _ = additive_admissible(fam, identity_perturbation(0.0))
        assert admissible
        assert energy == 0.0

    def test_inadmissible_case(self):
        fam = diagonal_slope_family()
        admissible, energy, lower = additive_admissible(fam, identity_perturbation(0.6))
        assert not admissible
        assert energy == pytest.approx(0.36, abs=1e-12)
        assert energy >= lower

    def test_requires_frame(self):
        with pytest.raises(NotAFrame):
            additive_admissible(rank_deficient_family(), identity_perturbation(0.1))

    def test_slope_family_scaled_by_1e_minus_6_with_quarter_energy_is_admissible(self):
        # A = 2.5e-13 and A/B = 0.75; the absolute margin R < A - 1e-12 refused it
        c = 1e-6
        fam = diagonal_slope_family((c, c * ROOT3 / 2.0))
        admissible, energy, lower = additive_admissible(fam, identity_perturbation(c / 4.0))
        assert lower == pytest.approx(c * c / 4.0, rel=1e-12)
        assert energy == pytest.approx(lower / 4.0, rel=1e-12)
        assert admissible


class TestAdditiveEnvelope:
    def test_zero_energy_reproduces_bounds(self):
        assert additive_envelope(0.25, 1.0 / 3.0, 0.0) == (0.25, 1.0 / 3.0)

    def test_worked_numbers(self):
        lo, hi = additive_envelope(0.25, 1.0 / 3.0, 0.16)
        assert lo == pytest.approx(0.01, abs=1e-12)
        assert hi == pytest.approx((np.sqrt(1.0 / 3.0) + 0.4) ** 2, abs=1e-12)

    def test_energy_must_stay_below_lower_bound(self):
        with pytest.raises(ValueError):
            additive_envelope(0.25, 1.0 / 3.0, 0.3)

    @pytest.mark.parametrize("args", [
        (1.0, 2.0, np.nan), (np.nan, 2.0, 0.5), (1.0, np.nan, 0.5), (1.0, np.inf, 0.5),
    ])
    def test_non_finite_input_rejected(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            additive_envelope(*args)

    def test_worked_family_bounds_inside_envelope(self):
        fam = diagonal_slope_family()
        lower, upper = optimal_bounds(frame_operator(fam))
        pert = identity_perturbation(0.4)
        _, energy, _ = additive_admissible(fam, pert)
        env_lo, env_hi = additive_envelope(lower, upper, energy)
        emp_lo, emp_hi = optimal_bounds(frame_operator(perturb_additive(fam, pert)))
        assert emp_lo >= env_lo - 1e-9
        assert emp_hi <= env_hi + 1e-9

    def test_envelope_widens_with_energy(self):
        widths = []
        for energy in np.linspace(0.0, 0.2, 9):
            lo, hi = additive_envelope(0.25, 1.0 / 3.0, float(energy))
            widths.append((lo, hi))
        for (lo_a, hi_a), (lo_b, hi_b) in zip(widths, widths[1:]):
            assert lo_b <= lo_a + 1e-15
            assert hi_b >= hi_a - 1e-15

    def test_randomized_soundness(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            descriptor = FULL2 if seed % 2 else DIAG2
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            lower, upper = optimal_bounds(frame_operator(fam))
            direction = ModuleOperator.identity(descriptor, 2)
            target = float(rng.uniform(0.05, 0.8)) * lower
            pert = AdditivePerturbation(direction, ScalarFamily.constant(np.sqrt(target)))
            admissible, energy, _ = additive_admissible(fam, pert)
            assert admissible
            env_lo, env_hi = additive_envelope(lower, upper, energy)
            emp_lo, emp_hi = optimal_bounds(frame_operator(perturb_additive(fam, pert)))
            assert emp_lo >= env_lo - 1e-9
            assert emp_hi <= env_hi + 1e-9


def rotated_pair(gap, scale=1.0):
    """One counting node, M = scale I and N = scale (I + (e^{i theta} - 1) v v*), a scaled
    unitary with |e^{i theta} - 1|^2 = gap: at alpha = beta = 1/4, Q = scale^2 (I / 2 - gap v v*)."""
    rule = counting(1)
    v = np.array([1.0, 1j, -1.0, 1.0]) / 2.0
    m = scale * np.eye(4, dtype=complex)
    theta = 2.0 * np.arcsin(np.sqrt(gap / 4.0))
    flat = m + scale * (np.exp(1j * theta) - 1.0) * np.outer(v, v.conj())
    return (OperatorFamily.from_flats(rule, FULL2, 2, m[None]),
            OperatorFamily.from_flats(rule, FULL2, 2, flat[None]))


class TestRelativeCriterion:
    def test_same_family_always_passes(self):
        fam = diagonal_slope_family()
        pert = RelativePerturbation(
            ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.1, 0.3
        )
        passed, _ = relative_criterion_check(fam, fam, pert)
        assert passed

    def test_scaled_family_passes(self):
        fam = diagonal_slope_family()
        other = scaled_family(fam, np.full(len(fam), 1.05))
        pert = RelativePerturbation(
            ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.4, 0.4
        )
        passed, _ = relative_criterion_check(fam, other, pert)
        assert passed

    def test_zero_comparison_fails_for_frames(self):
        fam = diagonal_slope_family()
        other = scaled_family(fam, np.zeros(len(fam)))
        pert = RelativePerturbation(
            ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.4, 0.4
        )
        passed, _ = relative_criterion_check(fam, other, pert)
        assert not passed

    @pytest.mark.parametrize("kind", ["full", "diagonal"])
    def test_margin_matches_jacobi_oracle(self, kind):
        rng = np.random.default_rng(11)
        rule = gauss_legendre(0.0, 1.0, 12)
        verdicts = set()
        for seed in range(4):
            descriptor = AlgebraDescriptor(kind, 1 + seed % 3)
            n = 1 + seed // 2
            fam = random_frame_family(descriptor, n, rule, seed=seed)
            # near I like fam, so its negative is far from fam
            unrelated = random_frame_family(descriptor, n, rule, seed=100 + seed)
            gamma = 1.0 + 0.1 * rng.standard_normal(len(rule))
            for other_flats in (gamma[:, None, None] * fam.flats, -unrelated.flats):
                other = OperatorFamily.from_flats(rule, descriptor, n, other_flats)
                # complex scale families: the criterion itself needs no real values
                if seed % 2:
                    scale_a = ScalarFamily.polynomial([1.0, 0.5j, -0.2])
                else:
                    moduli = rng.uniform(0.5, 2.0, len(rule))
                    scale_a = ScalarFamily.sampled(moduli * np.exp(0.3j * rng.standard_normal(len(rule))))
                a = scale_a.at_nodes(rule)
                b = a * np.exp(0.05j * rng.standard_normal(len(rule)))
                pert = RelativePerturbation(scale_a, ScalarFamily.sampled(b), 0.3, 0.2)
                passed, margin = relative_criterion_check(fam, other, pert)
                want = criterion_margin(rule.weights, a, b, 0.3, 0.2, fam.flats, other.flats)
                assert margin == pytest.approx(want, abs=1e-12)
                assert passed == (margin >= -1e-10)
                verdicts.add(passed)
        assert verdicts == {True, False}

    def test_exact_check_rejects_what_sampling_misses(self):
        fam, other = rotated_pair(0.9)
        rule, one = fam.rule, np.ones(1)
        # a gross violation is one the samples do find
        xs = [x.flatten() for x in criterion_sample_vectors(fam, other, count=200, seed=0)]
        assert not sampled_relative_criterion(
            rule.weights, one, one, 0.25, 0.25, fam.flats, other.flats, xs
        )
        _, other = rotated_pair(0.5 + 1e-6)
        for seed in range(20):
            xs = [x.flatten() for x in criterion_sample_vectors(fam, other, count=200, seed=seed)]
            assert sampled_relative_criterion(
                rule.weights, one, one, 0.25, 0.25, fam.flats, other.flats, xs
            )
        pert = RelativePerturbation(ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.25, 0.25)
        passed, margin = relative_criterion_check(fam, other, pert)
        # lambda_min(Q) = -1e-6 against lambda_max(P) = lambda_max(I / 4 + N N* / 4) = 1/2
        assert not passed
        assert margin == pytest.approx(-2e-6, abs=1e-12)

    @pytest.mark.parametrize("c", [1.0, 1e-5, 1e-6])
    def test_rotated_pair_fails_at_every_scale(self, c):
        # Q = c^2 (I / 2 - 0.9 v v*) and P = c^2 I / 2: the margin is -0.4 / 0.5 at every c;
        # the absolute floor -tol (1 + |lambda_min|) passed it at c = 1e-5 and 1e-6
        fam, other = rotated_pair(0.9, c)
        pert = RelativePerturbation(ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.25, 0.25)
        passed, margin = relative_criterion_check(fam, other, pert)
        assert not passed
        assert margin == pytest.approx(-0.8, rel=1e-12)

    def test_zero_positive_part_passes_only_equal_families(self):
        # alpha = beta = 0 leaves Q = -sum w D D*, with no scale to divide by
        fam, other = rotated_pair(0.9)
        pert = RelativePerturbation(ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.0, 0.0)
        assert relative_criterion_check(fam, fam, pert) == (True, 0.0)
        assert relative_criterion_check(fam, other, pert) == (False, -np.inf)

    def test_alpha_beta_range_enforced(self):
        with pytest.raises(ValueError):
            RelativePerturbation(ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.5, 0.1)


class TestRelativeEnvelope:
    def test_plain_plugin(self):
        pert = RelativePerturbation(
            ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.0, 0.0
        )
        rule = gauss_legendre(0.0, 1.0, 8)
        lo, hi = relative_envelope((0.25, 1.0 / 3.0), pert, rule)
        assert lo == pytest.approx(0.125, abs=1e-12)   # A / 2
        assert hi == pytest.approx(2.0 / 3.0, abs=1e-12)  # 2 B

    def test_scaled_family_inside_envelope(self):
        fam = diagonal_slope_family()
        other = scaled_family(fam, np.full(len(fam), 1.05))
        pert = RelativePerturbation(
            ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.4, 0.4
        )
        bounds = optimal_bounds(frame_operator(fam))
        env_lo, env_hi = relative_envelope(bounds, pert, fam.rule)
        emp_lo, emp_hi = optimal_bounds(frame_operator(other))
        assert env_lo - 1e-9 <= emp_lo
        assert emp_hi <= env_hi + 1e-9

    def test_lower_envelope_vanishes_with_scale(self):
        rule = gauss_legendre(0.0, 1.0, 8)
        values = []
        for eps in (1e-1, 1e-2, 1e-3):
            pert = RelativePerturbation(
                ScalarFamily.constant(eps), ScalarFamily.constant(1.0), 0.0, 0.0
            )
            values.append(relative_envelope((0.25, 1.0 / 3.0), pert, rule)[0])
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(0.125e-6, rel=1e-9)

    def test_positively_confined_enforced(self):
        rule = gauss_legendre(0.0, 1.0, 8)
        pert = RelativePerturbation(
            ScalarFamily.polynomial([0.0, 1.0]),  # vanishes at the left endpoint
            ScalarFamily.constant(1.0),
            0.1,
            0.1,
        )
        with pytest.raises(ValueError):
            relative_envelope((0.25, 1.0 / 3.0), pert, rule)

    def test_interior_dip_below_zero_is_not_confined(self):
        # a(w) = (w - c)^2 - 1e-9: a 1000-point grid sees a minimum of +6.2e-8
        rule = gauss_legendre(0.0, 1.0, 8)
        c = 0.50025
        dip = ScalarFamily.polynomial([c * c - 1e-9, -2.0 * c, 1.0])
        assert dip.real_range(rule)[0] == pytest.approx(-1e-9, abs=1e-15)
        pert = RelativePerturbation(dip, ScalarFamily.constant(1.0), 0.1, 0.1)
        with pytest.raises(ValueError, match="positively confined"):
            pert.confined_ranges(rule)

    def test_zero_perturbation_fixed_point(self):
        fam = diagonal_slope_family()
        pert = RelativePerturbation(
            ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.0, 0.0
        )
        passed, _ = relative_criterion_check(fam, fam, pert)
        assert passed
        bounds = optimal_bounds(frame_operator(fam))
        env_lo, env_hi = relative_envelope(bounds, pert, fam.rule)
        # the comparison family is the original one; its bounds are unchanged
        # and sit inside the envelope
        assert env_lo <= bounds[0] <= bounds[1] <= env_hi

    def test_sampled_soundness_with_varying_scales(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            descriptor = FULL2 if seed % 2 else DIAG2
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 12), seed=seed)
            n_nodes = len(fam)
            alpha = float(rng.uniform(0.05, 0.45))
            beta = float(rng.uniform(0.05, 0.45))
            a_vals = rng.uniform(0.5, 2.0, n_nodes)
            b_vals = rng.uniform(0.5, 2.0, n_nodes)
            delta = rng.uniform(-0.9, 0.9, n_nodes) * np.sqrt(alpha)
            gamma = (a_vals / b_vals) * (1.0 + delta)
            other = scaled_family(fam, gamma)
            pert = RelativePerturbation(
                ScalarFamily.sampled(a_vals), ScalarFamily.sampled(b_vals), alpha, beta
            )
            passed, _ = relative_criterion_check(fam, other, pert)
            assert passed
            bounds = optimal_bounds(frame_operator(fam))
            env_lo, env_hi = relative_envelope(bounds, pert, fam.rule)
            emp_lo, emp_hi = optimal_bounds(frame_operator(other))
            assert emp_lo >= env_lo - 1e-9
            assert emp_hi <= env_hi + 1e-9
