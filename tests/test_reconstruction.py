import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor, AlgebraElement
from opframes.catalog import diagonal_slope_family, identity_family, random_frame_family
from opframes.exceptions import NoConvergence, NotAFrame, SingularFrameOperator
from opframes.frames import OperatorFamily, analysis, frame_operator, optimal_bounds, synthesis
from opframes.hilbert_module import (
    L2Family,
    ModuleOperator,
    ModuleVector,
    apply,
    random_vector,
    scalar_norm,
)
from opframes.quadrature import gauss_legendre
from opframes.reconstruction import reconstruct_direct, reconstruct_neumann

from families import rank_deficient_family, tiny_slopes
from oracles import dense_solve, fold_products, weighted_sum

DIAG2 = AlgebraDescriptor("diagonal", 2)
FULL2 = AlgebraDescriptor("full", 2)


class TestDirect:
    def test_recovers_identity_from_worked_data(self):
        data = frame_operator(diagonal_slope_family())
        y = ModuleVector.from_components(
            [AlgebraElement.diagonal(DIAG2, [1.0 / 3.0, 0.25])]
        )
        result = reconstruct_direct(data, y)
        assert np.allclose(result.vector.stack[0], np.eye(2), atol=1e-12)
        assert result.iterations == 0
        assert result.final_residual <= 1e-10

    def test_parseval_is_identity_map(self):
        data = frame_operator(identity_family(DIAG2, 1))
        y = random_vector(DIAG2, 1, np.random.default_rng(0))
        result = reconstruct_direct(data, y)
        assert np.allclose(result.vector.stack, y.stack, atol=1e-12)

    def test_round_trip_on_random_frames(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            data = frame_operator(fam)
            x = random_vector(FULL2, 2, rng)
            y = apply(data.element, x)
            result = reconstruct_direct(data, y)
            assert scalar_norm(result.vector - x) <= 1e-9 * (1.0 + scalar_norm(x))

    def test_diagonal_slots_match_a_dense_solve(self):
        # k = 16, n = 4: sixteen 4 x 4 slot solves against one dense 64 x 64 solve
        k, n = 16, 4
        descriptor = AlgebraDescriptor("diagonal", k)
        rule = gauss_legendre(0.0, 1.0, 24)
        rng = np.random.default_rng(5)
        slot = np.arange(n * k) % k
        shape = (len(rule), n * k, n * k)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flats = (np.eye(n * k) + 0.3 * noise / np.sqrt(n * k)) * (slot[:, None] == slot)
        family = OperatorFamily.from_flats(rule, descriptor, n, flats)
        s = fold_products(rule.weights, flats, flats)
        y = random_vector(descriptor, n, rng)
        want = dense_solve(s, y.flatten())
        result = reconstruct_direct(frame_operator(family), y)
        got = result.vector.flatten()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.linalg.norm(y.flatten() - got @ s, 2) <= 1e-13 * scalar_norm(y)
        assert result.final_residual <= 1e-13

    def test_singular_frame_operator_refused(self):
        data = frame_operator(rank_deficient_family())
        y = random_vector(DIAG2, 1, np.random.default_rng(2))
        with pytest.raises(SingularFrameOperator):
            reconstruct_direct(data, y)


class TestNeumann:
    def test_worked_contraction_factor(self):
        data = frame_operator(diagonal_slope_family())
        y = ModuleVector.from_components(
            [AlgebraElement.diagonal(DIAG2, [1.0 / 3.0, 0.25])]
        )
        result = reconstruct_neumann(data, y, tol=1e-12)
        assert result.relaxation == pytest.approx(3.0, rel=1e-9)
        assert result.contraction == pytest.approx(0.25, abs=1e-9)
        assert result.iterations <= 25
        assert result.final_residual <= 1e-12
        history = result.residual_history
        ratios = [b / a for a, b in zip(history, history[1:]) if a > 1e-300]
        assert max(ratios) <= 0.25 + 1e-8

    def test_parseval_converges_immediately(self):
        data = frame_operator(identity_family(DIAG2, 1))
        y = random_vector(DIAG2, 1, np.random.default_rng(3))
        result = reconstruct_neumann(data, y, tol=1e-12)
        assert result.iterations <= 1
        assert result.contraction == pytest.approx(0.0, abs=1e-12)

    def test_optimal_relaxation_is_faster(self):
        data = frame_operator(diagonal_slope_family())
        lo, hi = optimal_bounds(data)
        y = ModuleVector.from_components(
            [AlgebraElement.diagonal(DIAG2, [0.7, -0.4])]
        )
        result = reconstruct_neumann(data, y, relaxation="optimal", tol=1e-12)
        assert result.relaxation == pytest.approx(2.0 / (lo + hi), rel=1e-9)
        assert result.contraction == pytest.approx((hi - lo) / (hi + lo), rel=1e-9)
        assert result.contraction == pytest.approx(1.0 / 7.0, rel=1e-6)
        history = result.residual_history
        # measure contraction only while the residual is above 1e-6: rounding
        # r = y - x s moves a ratio by about 1e-16 / a, 1e-10 at that floor
        ratios = [b / a for a, b in zip(history, history[1:]) if a > 1e-6]
        assert ratios and max(ratios) <= 1.0 / 7.0 + 1e-8
        default = reconstruct_neumann(data, y, tol=1e-12)
        assert result.iterations < default.iterations

    def test_residual_history_non_increasing(self):
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=9)
        data = frame_operator(fam)
        y = random_vector(FULL2, 2, np.random.default_rng(4))
        result = reconstruct_neumann(data, y, tol=1e-11)
        history = result.residual_history
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_not_a_frame(self):
        data = frame_operator(rank_deficient_family())
        y = random_vector(DIAG2, 1, np.random.default_rng(5))
        with pytest.raises(NotAFrame):
            reconstruct_neumann(data, y)

    def test_no_convergence_reports_residual(self):
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=10)
        data = frame_operator(fam)
        y = random_vector(FULL2, 2, np.random.default_rng(6))
        with pytest.raises(NoConvergence) as info:
            reconstruct_neumann(data, y, tol=1e-14, max_iter=1)
        assert info.value.residual is not None
        assert info.value.iterations == 1

    def test_residual_is_relative_at_any_scale(self):
        # bounds (1e-9, 4e-9/3): a residual taken relative to ||y|| + 1 would
        # stop at an absolute 1e-12 while x is still off by about 1e-3
        data = frame_operator(diagonal_slope_family(tiny_slopes()))
        x = random_vector(DIAG2, 1, np.random.default_rng(10), unit=True)
        y = apply(data.element, x)
        for result in (reconstruct_neumann(data, y, tol=1e-12), reconstruct_direct(data, y)):
            assert result.final_residual <= 1e-12
            assert scalar_norm(result.vector - x) <= 1e-10

    def test_zero_data_stops_at_once(self):
        data = frame_operator(diagonal_slope_family(tiny_slopes()))
        result = reconstruct_neumann(data, ModuleVector.zero(DIAG2, 1))
        assert result.iterations == 0
        assert result.final_residual == 0.0

    def test_relaxation_range_validated(self):
        data = frame_operator(diagonal_slope_family())
        y = random_vector(DIAG2, 1, np.random.default_rng(7))
        with pytest.raises(ValueError):
            reconstruct_neumann(data, y, relaxation=7.0)
        with pytest.raises(ValueError):
            reconstruct_neumann(data, y, relaxation=0.0)


class TestConsistency:
    def test_direct_and_neumann_agree(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            descriptor = FULL2 if seed % 2 else DIAG2
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            data = frame_operator(fam)
            y = random_vector(descriptor, 2, rng)
            direct = reconstruct_direct(data, y)
            iterative = reconstruct_neumann(data, y, tol=1e-12)
            assert scalar_norm(direct.vector - iterative.vector) <= 10 * 1e-12

    def test_reconstruction_identity_both_orders(self):
        # recovering x from the weighted T*T samples, applying the inverse
        # frame operator after the sum and inside the sum
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=21)
        data = frame_operator(fam)
        s_inv = ModuleOperator.from_flat(FULL2, np.linalg.inv(data.flat))
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = random_vector(FULL2, 2, rng)
            integrated = synthesis(fam, analysis(fam, x))
            outside = apply(s_inv, integrated)
            per_node = [
                apply(s_inv, ModuleVector.from_flat(FULL2, x.flatten() @ f @ f.conj().T))
                for f in fam.flats
            ]
            inside = weighted_sum(L2Family.from_vectors(fam.rule, per_node))
            scale = 1.0 + scalar_norm(x)
            assert scalar_norm(outside - x) <= 1e-9 * scale
            assert scalar_norm(inside - x) <= 1e-9 * scale
            assert scalar_norm(outside - inside) <= 1e-9 * scale
