"""Acceptance suite: the project's numbered exit criteria.

Each test prints one ``acceptance N (<label>): PASS/FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.  Tolerances are
stated inline and are not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor
from opframes.catalog import diagonal_slope_family, random_frame_family
from opframes.duals import canonical_dual, is_dual_pair
from opframes.frames import (
    OperatorFamily,
    analysis,
    below_bounded_check,
    frame_operator,
    optimal_bounds,
    synthesis,
)
from opframes.hilbert_module import (
    ModuleOperator,
    apply,
    inner_product,
    random_vector,
    scalar_norm,
)
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
from opframes.quadrature import gauss_legendre, midpoint
from opframes.reconstruction import reconstruct_direct, reconstruct_neumann

from oracles import check_norm_domination, psd_within, random_operator, sampled_relative_criterion

ROOT3 = np.sqrt(3.0)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({label}): FAIL")
        raise
    print(f"acceptance {number} ({label}): PASS")


def random_scenarios(count=50):
    """Deterministic batch of frame scenarios with k <= 4, n <= 3, N = 32."""
    rule = gauss_legendre(0.0, 1.0, 32)
    rng = np.random.default_rng(2024)
    out = []
    for index in range(count):
        kind = "diagonal" if index % 3 == 0 else "full"
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        descriptor = AlgebraDescriptor(kind, k)
        out.append(random_frame_family(descriptor, n, rule, seed=1000 + index))
    return out


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked diagonal example: bounds and frame operator"):
        start = time.perf_counter()
        for nodes in (2, 8, 32):
            family = diagonal_slope_family(rule=gauss_legendre(0.0, 1.0, nodes))
            data = frame_operator(family)
            lower, upper = optimal_bounds(data)
            assert abs(lower - 0.25) <= 1e-10
            assert abs(upper - 1.0 / 3.0) <= 1e-10
            element = data.element.blocks[0, 0]
            assert np.max(np.abs(element - np.diag([1.0 / 3.0, 0.25]))) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"took {elapsed:.3f} s"


def test_criterion_2_canonical_dual_reproduction():
    with criterion(2, "canonical dual: scalings, bounds, resolution"):
        family = diagonal_slope_family()
        dual = canonical_dual(family)
        expected = np.zeros((2, 1, 1, 2, 2), dtype=complex)
        expected[1, 0, 0] = np.diag([3.0, 2.0 * ROOT3])
        assert np.max(np.abs(dual.coefficients - expected)) <= 1e-10
        lower, upper = optimal_bounds(frame_operator(dual))
        assert abs(lower - 3.0) <= 1e-9
        assert abs(upper - 4.0) <= 1e-9
        report = is_dual_pair(family, dual)
        assert report.resolution_residual <= 1e-10


def test_criterion_3_frame_operator_spectral_suite():
    with criterion(3, "frame operator spectral contracts on 50 random scenarios"):
        start = time.perf_counter()
        for family in random_scenarios(50):
            data = frame_operator(family)
            dim = data.flat.shape[0]
            assert np.linalg.norm(data.flat - data.flat.conj().T, 2) <= 1e-12
            assert data.eigenvalues[0] >= -1e-10
            lower, upper = optimal_bounds(data)
            assert psd_within(data.flat - lower * np.eye(dim), 1e-10)
            assert psd_within(upper * np.eye(dim) - data.flat, 1e-10)
            contraction = float(np.linalg.norm(np.eye(dim) - data.flat / upper, 2))
            assert contraction <= (upper - lower) / upper + 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f} s"


def test_criterion_4_reconstruction():
    with criterion(4, "direct vs relaxation reconstruction"):
        rng = np.random.default_rng(7)
        for family in random_scenarios(50):
            data = frame_operator(family)
            x = random_vector(family.descriptor, family.n, rng)
            y = apply(data.element, x)
            direct = reconstruct_direct(data, y)
            iterative = reconstruct_neumann(data, y, tol=1e-12)
            assert scalar_norm(direct.vector - iterative.vector) <= 1e-9

        family = diagonal_slope_family()
        data = frame_operator(family)
        x = random_vector(family.descriptor, 1, np.random.default_rng(11), unit=True)
        y = apply(data.element, x)
        result = reconstruct_neumann(data, y, tol=1e-12)
        assert result.relaxation == pytest.approx(3.0, rel=1e-9)
        assert result.iterations <= 25
        assert result.final_residual <= 1e-12
        history = result.residual_history
        ratios = [b / a for a, b in zip(history, history[1:]) if a > 1e-300]
        assert max(ratios) <= 0.25 + 1e-8


def test_criterion_5_additive_perturbation_envelope():
    with criterion(5, "additive perturbation envelope soundness"):
        rng = np.random.default_rng(17)
        rule = gauss_legendre(0.0, 1.0, 32)
        for index in range(50):
            kind = "diagonal" if index % 2 else "full"
            descriptor = AlgebraDescriptor(kind, int(rng.integers(1, 4)))
            n = int(rng.integers(1, 3))
            family = random_frame_family(descriptor, n, rule, seed=3000 + index)
            lower, upper = optimal_bounds(frame_operator(family))
            direction = random_operator(descriptor, n, rng)
            raw = AdditivePerturbation(direction, ScalarFamily.polynomial(
                [complex(rng.standard_normal(), rng.standard_normal()),
                 complex(rng.standard_normal(), rng.standard_normal())]
            ))
            target = float(rng.uniform(0.05, 0.85)) * lower
            scale = np.sqrt(target / raw.energy(rule))
            pert = AdditivePerturbation(
                direction, ScalarFamily.polynomial(scale * raw.coefficient.coefficients)
            )
            admissible, _, energy, _ = additive_admissible(family, pert)
            assert admissible
            env_lo, env_hi = additive_envelope(lower, upper, energy)
            emp_lo, emp_hi = optimal_bounds(frame_operator(perturb_additive(family, pert)))
            assert emp_lo >= env_lo - 1e-9
            assert emp_hi <= env_hi + 1e-9

        # the specific worked case: identity direction, constant 0.4
        family = diagonal_slope_family()
        pert = AdditivePerturbation(
            ModuleOperator.identity(family.descriptor, 1), ScalarFamily.constant(0.4)
        )
        admissible, _, energy, lower = additive_admissible(family, pert)
        assert admissible
        assert abs(energy - 0.16) <= 1e-12
        env_lo, env_hi = additive_envelope(lower, optimal_bounds(frame_operator(family))[1], energy)
        assert env_lo == pytest.approx(0.01, abs=1e-10)
        assert env_hi == pytest.approx((np.sqrt(1.0 / 3.0) + 0.4) ** 2, abs=1e-10)
        emp_lo, emp_hi = optimal_bounds(frame_operator(perturb_additive(family, pert)))
        assert env_lo - 1e-9 <= emp_lo and emp_hi <= env_hi + 1e-9


def relative_cases():
    """Deterministic (family, comparison, perturbation) triples of criterion 6."""
    rng = np.random.default_rng(23)
    rule = gauss_legendre(0.0, 1.0, 16)
    for index in range(20):
        kind = "diagonal" if index % 2 else "full"
        descriptor = AlgebraDescriptor(kind, int(rng.integers(1, 4)))
        n = int(rng.integers(1, 3))
        family = random_frame_family(descriptor, n, rule, seed=4000 + index)
        alpha = float(rng.uniform(0.05, 0.45))
        beta = float(rng.uniform(0.05, 0.45))
        a_vals = rng.uniform(0.5, 2.0, len(family))
        b_vals = rng.uniform(0.5, 2.0, len(family))
        delta = rng.uniform(-0.9, 0.9, len(family)) * np.sqrt(alpha)
        gamma = (a_vals / b_vals) * (1.0 + delta)
        other = OperatorFamily.from_flats(rule, descriptor, n, gamma[:, None, None] * family.flats)
        pert = RelativePerturbation(
            ScalarFamily.sampled(a_vals), ScalarFamily.sampled(b_vals), alpha, beta
        )
        yield index, family, other, pert


def test_criterion_6_relative_perturbation_envelope():
    with criterion(6, "relative perturbation envelope soundness"):
        for _, family, other, pert in relative_cases():
            passed, _ = relative_criterion_check(family, other, pert)
            assert passed
            bounds = optimal_bounds(frame_operator(family))
            env_lo, env_hi = relative_envelope(bounds, pert, family.rule)
            emp_lo, emp_hi = optimal_bounds(frame_operator(other))
            assert emp_lo >= env_lo - 1e-9
            assert emp_hi <= env_hi + 1e-9


def test_exact_criterion_pass_holds_on_every_sample():
    """Criterion 6's families: the old per-vector check agrees with each exact pass."""
    for index, family, other, pert in relative_cases():
        passed, _ = relative_criterion_check(family, other, pert)
        assert passed
        xs = criterion_sample_vectors(family, other, count=200, seed=5000 + index)
        assert sampled_relative_criterion(
            family.rule.weights,
            pert.scale_primal.at_nodes(family.rule),
            pert.scale_other.at_nodes(family.rule),
            pert.alpha,
            pert.beta,
            family.flats,
            other.flats,
            [x.flatten() for x in xs],
        )


def test_criterion_7_oracle_equivalence():
    with criterion(7, "independent oracles agree"):
        rng = np.random.default_rng(29)
        rule = gauss_legendre(0.0, 1.0, 32)

        # factorization against the analysis/synthesis route, 200 vectors
        families = [random_frame_family(
            AlgebraDescriptor("full" if i % 2 else "diagonal", 2 + i % 3),
            1 + i % 3, rule, seed=6000 + i,
        ) for i in range(4)]
        for family in families:
            data = frame_operator(family)
            for _ in range(50):
                x = random_vector(family.descriptor, family.n, rng)
                direct = apply(data.element, x)
                via_maps = synthesis(family, analysis(family, x))
                assert scalar_norm(direct - via_maps) <= 1e-10 * (1.0 + scalar_norm(direct))

        # spectral floor against the weighted analysis singular value
        for family in families:
            lower, _ = optimal_bounds(frame_operator(family))
            _, sigma_min = below_bounded_check(family)
            assert abs(sigma_min**2 - lower) <= 1e-9

        # quadrature route: Gauss-Legendre vs 10^4-point midpoint
        for family in (diagonal_slope_family(), families[0], families[1]):
            coarse = frame_operator(family).flat
            fine = frame_operator(family.with_rule(midpoint(0.0, 1.0, 10_000))).flat
            assert np.max(np.abs(coarse - fine)) <= 1e-6


def test_criterion_8_module_property_suites():
    with criterion(8, "norm domination, two-sided gram bound, adjoint identity"):
        rng = np.random.default_rng(31)
        descriptor = AlgebraDescriptor("full", 2)

        for _ in range(200):
            m = random_operator(descriptor, 2, rng)
            x = random_vector(descriptor, 2, rng)
            assert check_norm_domination(m, x, 1e-10)

        for _ in range(50):
            m = random_operator(descriptor, 2, rng)
            flat = m.flatten() + 1.5 * np.eye(4)  # keep it injective
            gram = flat.conj().T @ flat
            upper = float(np.linalg.norm(flat, 2)) ** 2
            lower = 1.0 / float(np.linalg.norm(np.linalg.inv(gram), 2))
            dim = gram.shape[0]
            assert psd_within(gram - lower * np.eye(dim), 1e-9 * upper)
            assert psd_within(upper * np.eye(dim) - gram, 1e-9 * upper)

        for _ in range(200):
            m = random_operator(descriptor, 2, rng)
            x = random_vector(descriptor, 2, rng)
            y = random_vector(descriptor, 2, rng)
            lhs = inner_product(apply(m, x), y).entries
            star = ModuleOperator(descriptor, m.blocks.transpose(1, 0, 3, 2).conj())
            rhs = inner_product(x, apply(star, y)).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(lhs)))
