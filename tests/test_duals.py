import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor
from opframes.catalog import diagonal_slope_family, identity_family, random_frame_family
from opframes.duals import canonical_dual, dual_bounds, is_dual_pair
from opframes.exceptions import NotAFrame
from opframes.frames import OperatorFamily, frame_operator, optimal_bounds
from opframes.quadrature import gauss_legendre

from families import rank_deficient_family
from oracles import node_operator

DIAG2 = AlgebraDescriptor("diagonal", 2)
FULL2 = AlgebraDescriptor("full", 2)
ROOT3 = np.sqrt(3.0)


class TestCanonicalDual:
    def test_worked_family_dual_scalings(self):
        dual = canonical_dual(diagonal_slope_family())
        assert dual.form == "parametric"
        expected = np.zeros((2, 1, 1, 2, 2), dtype=complex)
        expected[1, 0, 0] = np.diag([3.0, 2.0 * ROOT3])
        assert np.max(np.abs(dual.coefficients - expected)) <= 1e-10

    def test_parseval_family_is_self_dual(self):
        fam = identity_family(DIAG2, 1)
        dual = canonical_dual(fam)
        assert np.max(np.abs(dual.coefficients - fam.coefficients)) <= 1e-12
        assert np.max(np.abs(dual.flats - fam.flats)) <= 1e-12

    def test_involution(self):
        for seed, descriptor in ((0, DIAG2), (1, FULL2)):
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            back = canonical_dual(canonical_dual(fam))
            assert np.max(np.abs(back.flats - fam.flats)) <= 1e-10

    def test_sampled_input_gives_sampled_output(self):
        fam = diagonal_slope_family()
        sampled = OperatorFamily.sampled(
            fam.rule, [node_operator(fam, i) for i in range(len(fam))]
        )
        dual = canonical_dual(sampled)
        assert dual.form == "sampled"
        assert np.max(np.abs(dual.flats - canonical_dual(fam).flats)) <= 1e-12

    def test_requires_a_frame(self):
        with pytest.raises(NotAFrame):
            canonical_dual(rank_deficient_family())


class TestIsDualPair:
    def test_worked_pair_resolves_identity(self):
        fam = diagonal_slope_family()
        report = is_dual_pair(fam, canonical_dual(fam))
        assert report.is_dual
        assert report.resolution_residual <= 1e-10
        # integral of 3 w^2 over [0, 1] is 1 in both diagonal slots
        assert report.dual_bounds[0] == pytest.approx(3.0, abs=1e-9)
        assert report.dual_bounds[1] == pytest.approx(4.0, abs=1e-9)

    def test_parseval_family_with_itself(self):
        fam = identity_family(DIAG2, 1)
        assert is_dual_pair(fam, fam).is_dual

    def test_worked_family_with_itself_fails(self):
        fam = diagonal_slope_family()
        report = is_dual_pair(fam, fam)
        assert not report.is_dual
        # residual is || diag(1/3, 1/4) - I || = 3/4
        assert report.resolution_residual == pytest.approx(0.75, abs=1e-12)

    def test_shape_and_rule_mismatch(self):
        fam = diagonal_slope_family()
        other = diagonal_slope_family(rule=gauss_legendre(0.0, 1.0, 8))
        with pytest.raises(ValueError):
            is_dual_pair(fam, other)
        full_fam = random_frame_family(FULL2, 1, fam.rule, seed=0)
        with pytest.raises(ValueError):
            is_dual_pair(fam, full_fam)


class TestDualBounds:
    def test_worked_family(self):
        lo, hi = dual_bounds(diagonal_slope_family())
        assert lo == pytest.approx(3.0, abs=1e-9)
        assert hi == pytest.approx(4.0, abs=1e-9)

    def test_parseval(self):
        lo, hi = dual_bounds(identity_family(DIAG2, 1))
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_reciprocal_of_primal_bounds(self):
        for seed in range(5):
            descriptor = FULL2 if seed % 2 else DIAG2
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            lo, hi = optimal_bounds(frame_operator(fam))
            dual_lo, dual_hi = dual_bounds(fam)
            assert dual_lo == pytest.approx(1.0 / hi, rel=1e-9)
            assert dual_hi == pytest.approx(1.0 / lo, rel=1e-9)

    def test_requires_a_frame(self):
        with pytest.raises(NotAFrame):
            dual_bounds(rank_deficient_family())


class TestDualInvariants:
    def test_canonical_dual_always_resolves(self):
        for seed in range(6):
            descriptor = FULL2 if seed % 2 else DIAG2
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            report = is_dual_pair(fam, canonical_dual(fam))
            assert report.is_dual
            assert report.resolution_residual <= 1e-10

    def test_dual_bounds_inside_reciprocal_envelope(self):
        for seed in range(4):
            fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            lo, hi = optimal_bounds(frame_operator(fam))
            dual_lo, dual_hi = dual_bounds(fam)
            assert dual_lo >= 1.0 / hi - 1e-9
            assert dual_hi <= 1.0 / lo + 1e-9
