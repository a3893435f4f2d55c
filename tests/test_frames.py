import warnings

import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor, operator_norm
from opframes.catalog import diagonal_slope_family, identity_family, random_frame_family
from opframes.frames import (
    OperatorFamily,
    analysis,
    below_bounded_check,
    classify,
    extremal_vector,
    frame_operator,
    independence_check,
    optimal_bounds,
    synthesis,
)
from opframes.duals import canonical_dual
from opframes.hilbert_module import (
    L2Family,
    ModuleOperator,
    ModuleVector,
    apply,
    inner_product,
    l2_inner_product,
    random_vector,
    scalar_norm,
    _from_slots,
)
from opframes.perturbation import AdditivePerturbation, ScalarFamily, perturb_additive
from opframes.quadrature import counting, gauss_legendre

from families import rank_deficient_family
from oracles import check_frame_inequality, node_operator, norm_bounds_estimate, psd_within, random_operator

DIAG2 = AlgebraDescriptor("diagonal", 2)
FULL2 = AlgebraDescriptor("full", 2)
ROOT3 = np.sqrt(3.0)


def identity_vector():
    return ModuleVector(DIAG2, np.eye(2)[None])


def tight_ramp_family(rule=None):
    """T_w = diag(w, w): a tight family with level 1/3 on [0, 1]."""
    if rule is None:
        rule = gauss_legendre(0.0, 1.0, 8)
    coeffs = np.zeros((2, 1, 1, 2, 2), dtype=complex)
    coeffs[1, 0, 0] = np.eye(2)
    return OperatorFamily.parametric(rule, DIAG2, 1, coeffs)


class TestOperatorFamily:
    def test_parametric_coefficient_validation(self):
        rule = gauss_legendre(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            OperatorFamily.parametric(rule, DIAG2, 1, np.ones((1, 1, 1, 2, 2)))
        with pytest.raises(ValueError):
            OperatorFamily.parametric(rule, DIAG2, 2, np.zeros((1, 1, 1, 2, 2)))

    def test_sampled_length_check(self):
        rule = gauss_legendre(0.0, 1.0, 4)
        ops = [random_operator(FULL2, 1, np.random.default_rng(0)) for _ in range(3)]
        with pytest.raises(ValueError):
            OperatorFamily.sampled(rule, ops)

    def test_parametric_evaluation_matches_manual(self):
        fam = diagonal_slope_family(rule=gauss_legendre(0.0, 1.0, 5))
        for i, w in enumerate(fam.rule.nodes):
            assert np.allclose(fam.flats[i], np.diag([w, ROOT3 * w / 2.0]))

    def test_with_rule_resamples(self):
        fam = diagonal_slope_family()
        moved = fam.with_rule(gauss_legendre(0.0, 1.0, 7))
        assert len(moved) == 7
        sampled = OperatorFamily.sampled(
            fam.rule, [node_operator(fam, i) for i in range(len(fam))]
        )
        with pytest.raises(ValueError):
            sampled.with_rule(gauss_legendre(0.0, 1.0, 7))

    @pytest.mark.parametrize("descriptor", [DIAG2, FULL2])
    def test_every_form_holds_its_slot_blocks(self, descriptor):
        # coefficient slots (m, D, b, b) for a parametric family, node slots (m, N, b, b) for a sampled one
        fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 5), degree=2, seed=3)
        sampled = OperatorFamily.from_flats(fam.rule, descriptor, 2, fam.flats)
        m, b = (2, 2) if descriptor.is_diagonal else (1, 4)
        assert fam.slots.shape == (m, 3, b, b) and sampled.slots.shape == (m, 5, b, b)
        assert np.array_equal(_from_slots(descriptor, fam.slots), fam.coefficients)
        assert sampled.blocks is sampled.slots and sampled.coefficients is None
        for slots in (fam.slots, sampled.slots):
            with pytest.raises(ValueError, match="read-only"):
                slots[0, 0, 0, 0] = 1.0

    def test_a_given_table_is_kept_bit_for_bit(self):
        # -0.0 off the diagonal, as catalog.random_frame_family writes it, survives;
        # a slot round trip would read it back as 0.0
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal((3, 2, 2, 2, 2)) + 1j * rng.standard_normal((3, 2, 2, 2, 2))
        coeffs[..., [0, 1], [1, 0]] = complex(-0.0, -0.0)
        fam = OperatorFamily.parametric(gauss_legendre(0.0, 1.0, 6), DIAG2, 2, coeffs)
        assert np.array_equal(fam.coefficients.view(np.uint64), coeffs.view(np.uint64))
        assert not fam.coefficients.flags.writeable
        assert np.array_equal(fam.with_rule(gauss_legendre(0.0, 1.0, 3)).coefficients.view(np.uint64),
                              coeffs.view(np.uint64))

    @pytest.mark.parametrize("descriptor", [DIAG2, FULL2])
    def test_a_derived_table_is_read_from_the_slots(self, descriptor):
        fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 6), degree=1, seed=4)
        shift = AdditivePerturbation(ModuleOperator(descriptor, 0.1 * fam.coefficients[0]),
                                     ScalarFamily.polynomial([0.1, 0.2]))
        for derived in (canonical_dual(fam), perturb_additive(fam, shift)):
            want = _from_slots(descriptor, derived.slots)
            assert derived.form == "parametric"
            assert np.array_equal(derived.coefficients.view(np.uint64), want.view(np.uint64))
            assert derived.coefficients is derived.coefficients and not derived.coefficients.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_are_refused_by_name(self, bad):
        rule = gauss_legendre(0.0, 1.0, 3)
        coeffs = np.zeros((2, 1, 1, 2, 2), dtype=complex)
        coeffs[1, 0, 0] = np.diag([1.0, bad])
        table = np.broadcast_to(coeffs[1], (3, 1, 1, 2, 2))
        builds = (lambda: OperatorFamily.parametric(rule, DIAG2, 1, coeffs),
                  lambda: OperatorFamily.sampled(rule, [ModuleOperator(DIAG2, t) for t in table]),
                  lambda: OperatorFamily.from_flats(rule, DIAG2, 1, table.reshape(3, 2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in builds:
                with pytest.raises(ValueError, match="^operator family entries must be finite$"):
                    build()


class TestAnalysisSynthesis:
    def test_analysis_samples(self):
        fam = diagonal_slope_family(rule=gauss_legendre(0.0, 1.0, 2))
        out = analysis(fam, identity_vector())
        for i, w in enumerate(fam.rule.nodes):
            assert np.allclose(out.samples[i, 0], np.diag([w, ROOT3 * w / 2.0]))

    def test_analysis_of_zero(self):
        fam = diagonal_slope_family()
        out = analysis(fam, ModuleVector(DIAG2, np.zeros((1, 2, 2))))
        assert np.array_equal(out.samples, np.zeros_like(out.samples))

    def test_analysis_gram_matches_frame_operator(self):
        rng = np.random.default_rng(1)
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=5)
        data = frame_operator(fam)
        for _ in range(10):
            x = random_vector(FULL2, 2, rng)
            coefs = analysis(fam, x)
            lhs = l2_inner_product(coefs, coefs).entries
            rhs = inner_product(apply(data.element, x), x).entries
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_synthesis_of_analysis_is_frame_operator_action(self):
        fam = diagonal_slope_family()
        y = synthesis(fam, analysis(fam, identity_vector()))
        assert np.allclose(y.stack[0], np.diag([1.0 / 3.0, 0.25]), atol=1e-14)

    def test_synthesis_of_zero(self):
        fam = diagonal_slope_family()
        zeros = L2Family(fam.rule, DIAG2, np.zeros((len(fam), 1, 2, 2)))
        assert scalar_norm(synthesis(fam, zeros)) == 0.0

    def test_adjointness_of_analysis_and_synthesis(self):
        rng = np.random.default_rng(2)
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 8), seed=7)
        for _ in range(10):
            x = random_vector(FULL2, 2, rng)
            ys = L2Family(
                fam.rule, FULL2, np.stack([random_vector(FULL2, 2, rng).stack for _ in range(len(fam))])
            )
            lhs = l2_inner_product(analysis(fam, x), ys).entries
            rhs = inner_product(x, synthesis(fam, ys)).entries
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_rule_mismatch(self):
        fam = diagonal_slope_family()
        other = L2Family(
            gauss_legendre(0.0, 1.0, 2), DIAG2, np.zeros((2, 1, 2, 2))
        )
        with pytest.raises(ValueError):
            synthesis(fam, other)


class TestFrameOperator:
    def test_worked_element(self):
        data = frame_operator(diagonal_slope_family())
        assert np.allclose(data.element.blocks[0, 0], np.diag([1.0 / 3.0, 0.25]), atol=1e-15)

    def test_constant_identity_family_is_parseval(self):
        data = frame_operator(identity_family(DIAG2, 1))
        assert np.allclose(data.flat, np.eye(2), atol=1e-14)

    def test_dual_scaling_family(self):
        coeffs = np.zeros((2, 1, 1, 2, 2), dtype=complex)
        coeffs[1, 0, 0] = np.diag([3.0, 2.0 * ROOT3])
        fam = OperatorFamily.parametric(gauss_legendre(0.0, 1.0, 8), DIAG2, 1, coeffs)
        data = frame_operator(fam)
        assert np.allclose(data.element.blocks[0, 0], np.diag([3.0, 4.0]), atol=1e-13)

    def test_factorizes_through_analysis(self):
        rng = np.random.default_rng(3)
        fam = random_frame_family(FULL2, 3, gauss_legendre(0.0, 1.0, 16), seed=11)
        data = frame_operator(fam)
        for _ in range(200):
            x = random_vector(FULL2, 3, rng)
            direct = apply(data.element, x)
            via_maps = synthesis(fam, analysis(fam, x))
            assert scalar_norm(direct - via_maps) <= 1e-10 * (1.0 + scalar_norm(direct))

    def test_single_counting_node_gives_m_mstar(self):
        rng = np.random.default_rng(4)
        op = random_operator(FULL2, 2, rng)
        fam = OperatorFamily.sampled(counting(1), [op])
        data = frame_operator(fam)
        flat = op.flatten()
        assert np.allclose(data.flat, flat @ flat.conj().T, atol=1e-13)


class TestOptimalBounds:
    def test_worked_bounds(self):
        lo, hi = optimal_bounds(frame_operator(diagonal_slope_family()))
        assert lo == pytest.approx(0.25, abs=1e-10)
        assert hi == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_dual_bounds(self):
        coeffs = np.zeros((2, 1, 1, 2, 2), dtype=complex)
        coeffs[1, 0, 0] = np.diag([3.0, 2.0 * ROOT3])
        fam = OperatorFamily.parametric(gauss_legendre(0.0, 1.0, 8), DIAG2, 1, coeffs)
        lo, hi = optimal_bounds(frame_operator(fam))
        assert lo == pytest.approx(3.0, abs=1e-9)
        assert hi == pytest.approx(4.0, abs=1e-9)

    def test_optimality_by_random_search(self):
        # the sandwich holds on 500 random vectors, and nudging the lower
        # bound upward produces a violating vector
        rng = np.random.default_rng(5)
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=13)
        data = frame_operator(fam)
        lo, hi = optimal_bounds(data)
        xs = [random_vector(FULL2, 2, rng) for _ in range(500)]
        assert check_frame_inequality(fam, lo, hi, xs, 1e-10)
        witness = extremal_vector(data, "min")
        assert not check_frame_inequality(fam, 1.01 * lo, hi, [witness], 1e-10)
        top = extremal_vector(data, "max")
        assert not check_frame_inequality(fam, lo, hi / 1.01, [top], 1e-10)


class TestClassify:
    def test_worked_family_is_untight_frame(self):
        report = classify(frame_operator(diagonal_slope_family()), 1e-8)
        assert report.classification == "frame"
        assert report.tight_value is None
        assert report.condition == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_identity_family_is_parseval(self):
        report = classify(frame_operator(identity_family(DIAG2, 1)), 1e-8)
        assert report.classification == "parseval"

    def test_ramp_family_is_tight(self):
        report = classify(frame_operator(tight_ramp_family()), 1e-8)
        assert report.classification == "tight"
        assert report.tight_value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rank_deficient_family_is_bessel_only(self):
        report = classify(frame_operator(rank_deficient_family()), 1e-8)
        assert report.classification == "bessel_only"
        assert report.upper_bound == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_bounds_ordered(self):
        report = classify(frame_operator(diagonal_slope_family()), 1e-8)
        assert report.lower_bound <= report.upper_bound


class TestCheckFrameInequality:
    def test_worked_bounds_hold(self):
        rng = np.random.default_rng(6)
        fam = diagonal_slope_family()
        xs = [random_vector(DIAG2, 1, rng) for _ in range(100)]
        assert check_frame_inequality(fam, 0.25, 1.0 / 3.0, xs, 1e-10)

    def test_too_large_lower_bound_fails(self):
        fam = diagonal_slope_family()
        data = frame_operator(fam)
        xs = [extremal_vector(data, "min")]
        assert not check_frame_inequality(fam, 0.3, 1.0 / 3.0, xs, 1e-10)

    def test_trivial_bounds_always_hold(self):
        rng = np.random.default_rng(7)
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 8), seed=17)
        xs = [random_vector(FULL2, 2, rng) for _ in range(20)]
        assert check_frame_inequality(fam, 0.0, 1e15, xs, 1e-10)


class TestNormBoundsEstimate:
    def test_worked_family_estimates(self):
        lo, hi = norm_bounds_estimate(diagonal_slope_family(), 10_000, seed=0)
        assert lo == pytest.approx(0.25, abs=1e-3)
        assert hi == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_parseval_estimates(self):
        lo, hi = norm_bounds_estimate(identity_family(DIAG2, 1), 50, seed=1)
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_estimates_inside_optimal_bounds(self):
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 8), seed=19)
        lo, hi = optimal_bounds(frame_operator(fam))
        est_lo, est_hi = norm_bounds_estimate(fam, 200, seed=2)
        assert est_lo >= lo - 1e-10
        assert est_hi <= hi + 1e-10

    def test_deterministic_given_seed(self):
        fam = diagonal_slope_family()
        assert norm_bounds_estimate(fam, 64, seed=3) == norm_bounds_estimate(fam, 64, seed=3)


class TestBelowBounded:
    def test_worked_family(self):
        bounded, sigma_min = below_bounded_check(diagonal_slope_family())
        assert bounded
        assert sigma_min == pytest.approx(0.5, abs=1e-12)

    def test_zero_family(self):
        ops = [ModuleOperator(DIAG2, np.zeros((1, 1, 2, 2))) for _ in range(4)]
        fam = OperatorFamily.sampled(gauss_legendre(0.0, 1.0, 4), ops)
        bounded, sigma_min = below_bounded_check(fam)
        assert not bounded
        assert sigma_min == 0.0

    def test_rank_deficient_family(self):
        bounded, _ = below_bounded_check(rank_deficient_family())
        assert not bounded

    def test_sigma_min_squared_is_lower_bound(self):
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=23)
        lo, _ = optimal_bounds(frame_operator(fam))
        _, sigma_min = below_bounded_check(fam)
        assert sigma_min**2 == pytest.approx(lo, abs=1e-9)

    def test_agrees_with_classification(self):
        for fam in (diagonal_slope_family(), rank_deficient_family()):
            report = classify(frame_operator(fam), 1e-8)
            bounded, _ = below_bounded_check(fam, tol=1e-8)
            assert bounded == (report.classification in ("frame", "tight", "parseval"))


class TestIndependence:
    def test_single_invertible_block(self):
        op = ModuleOperator.identity(FULL2, 2)
        fam = OperatorFamily.sampled(counting(1), [op])
        independent, kernel_dim = independence_check(fam)
        assert independent
        assert kernel_dim == 0

    def test_worked_family_large_kernel(self):
        fam = diagonal_slope_family()  # 32 nodes, module dimension 2
        independent, kernel_dim = independence_check(fam)
        assert not independent
        assert kernel_dim == (len(fam) - 1) * 2

    def test_repeated_node_kernel_vector(self):
        rng = np.random.default_rng(8)
        op = random_operator(FULL2, 2, rng)
        fam = OperatorFamily.sampled(counting(2), [op, op])
        independent, kernel_dim = independence_check(fam)
        assert not independent
        assert kernel_dim >= 8
        y = random_vector(FULL2, 2, rng)
        pair = L2Family(fam.rule, FULL2, np.stack([y.stack, y.scale(-1.0).stack]))
        assert scalar_norm(synthesis(fam, pair)) <= 1e-12 * scalar_norm(y)


class TestSpectralInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_frame_operator_spectral_contracts(self, seed):
        descriptor = FULL2 if seed % 2 else DIAG2
        fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 32), seed=seed)
        data = frame_operator(fam)
        dim = data.flat.shape[0]
        assert np.linalg.norm(data.flat - data.flat.conj().T, 2) <= 1e-12
        assert data.eigenvalues[0] >= -1e-10
        lo, hi = optimal_bounds(data)
        assert psd_within(data.flat - lo * np.eye(dim), 1e-10)
        assert psd_within(hi * np.eye(dim) - data.flat, 1e-10)
        contraction = np.linalg.norm(np.eye(dim) - data.flat / hi, 2)
        assert contraction <= (hi - lo) / hi + 1e-10

    def test_extremal_vectors_attain_bounds(self):
        for seed in (5, 6):
            descriptor = FULL2 if seed % 2 else DIAG2
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            data = frame_operator(fam)
            lo, hi = optimal_bounds(data)
            for which, target in (("min", lo), ("max", hi)):
                x = extremal_vector(data, which)
                assert scalar_norm(x) == pytest.approx(1.0, abs=1e-10)
                value = operator_norm(inner_product(apply(data.element, x), x))
                assert value == pytest.approx(target, rel=1e-8)
