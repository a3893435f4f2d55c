import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opframes.algebra import AlgebraDescriptor
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
    _unflatten,
)
from opframes.quadrature import counting, gauss_legendre
from opframes.reconstruction import (
    CHEBYSHEV_BUDGET,
    CHEBYSHEV_SLACK,
    RUN_STEPS,
    _norms,
    reconstruct_chebyshev,
    reconstruct_direct,
    reconstruct_neumann,
)

from families import ROOT3, rank_deficient_family, ratio_slopes, tiny_slopes
from oracles import dense_solve, fold_products, frame_iteration, weighted_sum

DIAG2 = AlgebraDescriptor("diagonal", 2)
FULL2 = AlgebraDescriptor("full", 2)


def prescribed_family(descriptor, n, spectrum, rng):
    """A one-node family on the counting measure whose frame operator has the
    given spectrum, slot by slot, in random eigenvectors."""
    k = descriptor.dim
    size = n if descriptor.is_diagonal else n * k
    flat = np.zeros((n * k, n * k), dtype=complex)
    for slot, values in enumerate(np.reshape(spectrum, (-1, size))):
        noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        u = np.linalg.qr(noise)[0]
        block = (u * np.sqrt(values)) @ u.conj().T
        if descriptor.is_diagonal:
            flat[slot::k, slot::k] = block
        else:
            flat[:] = block
    return OperatorFamily.from_flats(counting(1), descriptor, n, flat[None])


def chebyshev_bound(lower, upper, k):
    """(delta / theta) 2 q^k / (1 + q^(2k)): the residual bound after k Chebyshev steps."""
    q = (math.sqrt(upper) - math.sqrt(lower)) / (math.sqrt(upper) + math.sqrt(lower))
    return (upper - lower) / (upper + lower) * 2.0 * q**k / (1.0 + q ** (2 * k))


def relaxation_bound(lower, upper, relaxation, k):
    """q^(k+1), q = max(|1 - lam A|, |1 - lam B|): the residual bound after k relaxation steps."""
    lam = 1.0 / upper if relaxation == "auto" else 2.0 / (lower + upper)
    return max(abs(1.0 - lam * lower), abs(1.0 - lam * upper)) ** (k + 1)


class TestDirect:
    def test_recovers_identity_from_worked_data(self):
        data = frame_operator(diagonal_slope_family())
        y = ModuleVector(DIAG2, np.diag([1.0 / 3.0, 0.25])[None])
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
        y = ModuleVector(DIAG2, np.diag([1.0 / 3.0, 0.25])[None])
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
        y = ModuleVector(DIAG2, np.diag([0.7, -0.4])[None])
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
        # B/A = 133: the a-priori count at tol 1e-12 is past the budget
        data = frame_operator(diagonal_slope_family((1.0, ROOT3 / 20.0)))
        y = random_vector(DIAG2, 1, np.random.default_rng(6))
        with pytest.raises(NoConvergence) as info:
            reconstruct_neumann(data, y, tol=1e-12)
        assert info.value.residual is not None
        assert info.value.iterations == CHEBYSHEV_BUDGET

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
        result = reconstruct_neumann(data, ModuleVector(DIAG2, np.zeros((1, 2, 2))))
        assert result.iterations == 0
        assert result.final_residual == 0.0

    def test_relaxation_range_validated(self):
        data = frame_operator(diagonal_slope_family())
        y = random_vector(DIAG2, 1, np.random.default_rng(7))
        for relaxation in (7.0, 0.0, 1.0, True, "Auto"):
            with pytest.raises(ValueError, match="^relaxation must be 'auto' .* or 'optimal' "):
                reconstruct_neumann(data, y, relaxation=relaxation)

    @pytest.mark.parametrize("relaxation", ["auto", "optimal"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
    def test_predicted_count_is_the_least_the_bound_allows(self, relaxation, tol):
        data = frame_operator(diagonal_slope_family((1.0, ROOT3 / 20.0)))  # B/A = 133
        lower, upper = optimal_bounds(data)
        y = random_vector(DIAG2, 1, np.random.default_rng(21))
        try:
            predicted = reconstruct_neumann(data, y, relaxation=relaxation, tol=tol).predicted_iterations
        except NoConvergence as exc:
            predicted = exc.predicted_iterations
        assert relaxation_bound(lower, upper, relaxation, predicted) <= tol * (1.0 + 1e-12)
        assert relaxation_bound(lower, upper, relaxation, predicted - 1) > tol * (1.0 - 1e-12)

    @pytest.mark.parametrize("relaxation", ["auto", "optimal"])
    def test_unreachable_tolerance_stops_at_the_cap(self, relaxation):
        # B/A = 4/3: the count at tol 1e-300 is a few hundred, inside the budget
        data = frame_operator(diagonal_slope_family())
        y = random_vector(DIAG2, 1, np.random.default_rng(22))
        with pytest.raises(NoConvergence) as info:
            reconstruct_neumann(data, y, relaxation=relaxation, tol=1e-300)
        exc = info.value
        assert 0 < exc.predicted_iterations + CHEBYSHEV_SLACK < CHEBYSHEV_BUDGET
        assert exc.iterations == exc.predicted_iterations + CHEBYSHEV_SLACK
        assert 0.0 < exc.residual < 1e-14


class TestChebyshev:
    @settings(max_examples=180, derandomize=True, deadline=None)
    @given(
        method=st.sampled_from(["chebyshev", "auto", "optimal"]),
        kind=st.sampled_from(["full", "diagonal"]),
        k=st.integers(1, 3),
        n=st.integers(1, 3),
        log_ratio=st.floats(0.0, 4.0),
        log_scale=st.floats(-6.0, 6.0),
        tol=st.sampled_from([1e-14, 1e-11, 1e-8, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_converges_within_the_predicted_count(self, method, kind, k, n, log_ratio, log_scale, tol, seed):
        # B/A in [1, 1e4] for Chebyshev and in [1, 10^1.6] for the relaxation, whose
        # count at tol = 1e-14 then stays within the budget; both ends are
        # eigenvalues, the rest lie between them
        rng = np.random.default_rng(seed)
        descriptor = AlgebraDescriptor(kind, k)
        ratio = 10.0 ** (log_ratio if method == "chebyshev" else 0.4 * log_ratio)
        size = n * k                     # eigenvalues of s, over all slots; one is a tight frame
        spectrum = np.concatenate([[1.0, ratio], rng.uniform(1.0, ratio, max(size - 2, 0))])[:size]
        spectrum = 10.0**log_scale * rng.permutation(spectrum)
        data = frame_operator(prescribed_family(descriptor, n, spectrum, rng))
        lower, upper = optimal_bounds(data)
        x = random_vector(descriptor, n, rng, unit=True)
        y = apply(data.element, x)
        if method == "chebyshev":
            result = reconstruct_chebyshev(data, y, tol=tol)
            bound = lambda step: chebyshev_bound(lower, upper, step)
        else:
            result = reconstruct_neumann(data, y, relaxation=method, tol=tol)
            bound = lambda step: relaxation_bound(lower, upper, method, step)
        assert result.iterations <= result.predicted_iterations + CHEBYSHEV_SLACK <= CHEBYSHEV_BUDGET
        assert result.final_residual <= tol
        for step, residual in enumerate(result.residual_history):
            assert residual <= bound(step) * (1.0 + 1e-9) + 1e-14
        # ||x - x*|| <= ||r|| / A <= tol ||y|| / A <= tol B / A, plus the rounding of y;
        # at tol = 1e-14 that is 2e-10 for every B/A up to 1e4
        assert scalar_norm(result.vector - x) <= (tol + 1e-14) * upper / lower

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-14, 1e-300])
    def test_predicted_count_is_the_least_the_bound_allows(self, tol):
        data = frame_operator(diagonal_slope_family((1.0, ROOT3 / 20.0)))  # B/A = 133
        lower, upper = optimal_bounds(data)
        y = random_vector(DIAG2, 1, np.random.default_rng(12))
        try:
            predicted = reconstruct_chebyshev(data, y, tol=tol).predicted_iterations
        except NoConvergence as exc:
            predicted = exc.predicted_iterations
        assert chebyshev_bound(lower, upper, predicted) <= tol * (1.0 + 1e-12)
        assert chebyshev_bound(lower, upper, predicted - 1) > tol * (1.0 - 1e-12)

    def test_converges_where_the_relaxation_cap_does_not(self):
        # the worked family with slot 1's slope x 0.1: B/A = 133
        data = frame_operator(diagonal_slope_family((1.0, ROOT3 / 20.0)))
        lower, upper = optimal_bounds(data)
        assert upper / lower == pytest.approx(400.0 / 3.0)
        x = random_vector(DIAG2, 1, np.random.default_rng(13), unit=True)
        y = apply(data.element, x)
        result = reconstruct_chebyshev(data, y, tol=1e-12)
        assert result.method == "chebyshev"
        assert result.relaxation is None
        assert result.contraction == pytest.approx((math.sqrt(400 / 3) - 1) / (math.sqrt(400 / 3) + 1))
        assert result.iterations <= result.predicted_iterations + CHEBYSHEV_SLACK < 200
        assert scalar_norm(result.vector - x) <= 1e-10
        with pytest.raises(NoConvergence):
            reconstruct_neumann(data, y, tol=1e-12)

    @pytest.mark.parametrize("level", [1.0, 4.0, 1e-9])
    def test_tight_frame_is_solved_at_the_start(self, level):
        # delta = 0 exactly: every eigenvalue is the level
        descriptor = AlgebraDescriptor("full", 2)
        family = prescribed_family(descriptor, 2, np.full(4, level), np.random.default_rng(14))
        data = frame_operator(family)
        lower, upper = optimal_bounds(data)
        x = random_vector(descriptor, 2, np.random.default_rng(15), unit=True)
        result = reconstruct_chebyshev(data, apply(data.element, x), tol=1e-12)
        assert (result.iterations, result.predicted_iterations) == (0, 0)
        assert result.contraction == pytest.approx(0.0, abs=1e-15)
        assert result.final_residual <= 1e-12
        assert scalar_norm(result.vector - x) <= 1e-12

    def test_parseval_frame_converges_at_once(self):
        data = frame_operator(identity_family(DIAG2, 1))
        y = random_vector(DIAG2, 1, np.random.default_rng(16))
        result = reconstruct_chebyshev(data, y, tol=1e-12)
        assert result.iterations == 0
        assert np.allclose(result.vector.stack, y.stack, atol=1e-12)

    def test_unreachable_tolerance_stops_at_the_cap(self):
        data = frame_operator(diagonal_slope_family())
        y = random_vector(DIAG2, 1, np.random.default_rng(17))
        with pytest.raises(NoConvergence) as info:
            reconstruct_chebyshev(data, y, tol=1e-300)
        exc = info.value
        assert exc.predicted_iterations > 0
        assert exc.iterations == exc.predicted_iterations + CHEBYSHEV_SLACK
        assert 0.0 < exc.residual < 1e-14

    @pytest.mark.parametrize("ratio, tol", [(3.0 / 400.0, 1e-300), (1e-8, 1e-12), (1e-13 * 1.001, 1e-12)])
    def test_budget_ends_every_call(self, ratio, tol):
        # B/A = 133 at an unreachable tol, and B/A = 1e8 and 1e13, which the
        # classifier admits at tol 1e-8 and 1e-13, each asking for more steps
        data = frame_operator(diagonal_slope_family(ratio_slopes(ratio)))
        y = random_vector(DIAG2, 1, np.random.default_rng(19))
        with pytest.raises(NoConvergence) as info:
            reconstruct_chebyshev(data, y, tol=tol)
        exc = info.value
        assert exc.predicted_iterations > CHEBYSHEV_BUDGET
        assert exc.iterations == CHEBYSHEV_BUDGET

    def test_budget_covers_the_tested_ratios(self):
        # the property above reaches B/A = 1e4 at tol = 1e-14
        data = frame_operator(diagonal_slope_family(ratio_slopes(1e-4)))
        x = random_vector(DIAG2, 1, np.random.default_rng(20), unit=True)
        result = reconstruct_chebyshev(data, apply(data.element, x), tol=1e-14)
        assert result.iterations <= result.predicted_iterations + CHEBYSHEV_SLACK <= CHEBYSHEV_BUDGET

    def test_zero_data_stops_at_once(self):
        data = frame_operator(diagonal_slope_family(tiny_slopes()))
        result = reconstruct_chebyshev(data, ModuleVector(DIAG2, np.zeros((1, 2, 2))))
        assert result.iterations == 0
        assert result.final_residual == 0.0

    def test_not_a_frame(self):
        data = frame_operator(rank_deficient_family())
        y = random_vector(DIAG2, 1, np.random.default_rng(18))
        with pytest.raises(SingularFrameOperator):
            reconstruct_chebyshev(data, y)


def iterate(data, y, method, tol):
    if method == "chebyshev":
        return reconstruct_chebyshev(data, y, tol=tol)
    return reconstruct_neumann(data, y, relaxation=method, tol=tol)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_as_one_step_at_a_time(data, y, method, tol):
    """The result, or the NoConvergence, of ``method`` is that of the per-step oracle, bit for bit."""
    stack, history, predicted = frame_iteration(data, y, method, tol)
    if stack is None:
        with pytest.raises(NoConvergence) as info:
            iterate(data, y, method, tol)
        exc = info.value
        assert (exc.iterations, exc.predicted_iterations) == (len(history) - 1, predicted)
        assert bits(exc.residual) == bits(history[-1])
        return None
    result = iterate(data, y, method, tol)
    assert (result.iterations, result.predicted_iterations) == (len(history) - 1, predicted)
    assert np.array_equal(bits(result.residual_history), bits(history))
    assert np.array_equal(result.vector.stack.view(np.uint64), stack.view(np.uint64))
    return result


class TestRunsOfResiduals:
    # the steps' residuals are normed in runs, one SVD per run; the per-step
    # loop of tests/oracles.py norms each by its own SVD
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        method=st.sampled_from(["chebyshev", "auto", "optimal"]),
        kind=st.sampled_from(["full", "diagonal"]),
        k=st.integers(1, 3),
        n=st.integers(1, 3),
        log_ratio=st.floats(0.0, 4.0),
        log_scale=st.floats(-6.0, 6.0),
        tol=st.sampled_from([1e-300, 1e-14, 1e-12, 1e-8, 1e-3]),
        solvable=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_svd_per_step(self, method, kind, k, n, log_ratio, log_scale, tol, solvable, seed):
        # a diagonal algebra's slot blocks have one row, a full one's k; y is S x, or any vector
        rng = np.random.default_rng(seed)
        descriptor = AlgebraDescriptor(kind, k)
        ratio = 10.0 ** (log_ratio if method == "chebyshev" else 0.4 * log_ratio)
        size = n * k
        spectrum = np.concatenate([[1.0, ratio], rng.uniform(1.0, ratio, max(size - 2, 0))])[:size]
        data = frame_operator(prescribed_family(descriptor, n, 10.0**log_scale * rng.permutation(spectrum), rng))
        y = random_vector(descriptor, n, rng)
        assert_as_one_step_at_a_time(data, apply(data.element, y) if solvable else y, method, tol)

    @pytest.mark.parametrize("method, slopes", [("auto", (1.0, ROOT3 / 20.0)), ("chebyshev", ratio_slopes(1e-8))])
    def test_budget_stops_as_one_step_at_a_time(self, method, slopes):
        # B/A = 133 for the relaxation with step 1/B and 1e8 for Chebyshev, at tol 1e-12
        data = frame_operator(diagonal_slope_family(slopes))
        y = random_vector(DIAG2, 1, np.random.default_rng(25))
        assert assert_as_one_step_at_a_time(data, y, method, 1e-12) is None

    def test_a_run_norms_no_block_from_the_first_that_is_not_finite(self):
        # a step at a time stops at the first residual not above tol, which may come
        # before that block; past it every step reads NaN, and no SVD meets one
        block = np.array([[[3.0, 4.0]]])
        norms = _norms([block, np.full_like(block, np.nan), block, np.full_like(block, np.inf)], 5.0)
        assert norms[0] == 1.0 and all(math.isnan(norm) for norm in norms[1:])

    @pytest.mark.parametrize("method, slopes, runs", [
        ("chebyshev", (1.0, ROOT3 / 20.0), 1),  # B/A = 133, converged within the a-priori count
        ("auto", (1.0, ROOT3 / 2.0), 1),  # B/A = 4/3
        ("chebyshev", ratio_slopes(1e-8), math.ceil(CHEBYSHEV_BUDGET / RUN_STEPS)),  # the budget, in pieces
    ])
    def test_one_svd_per_run_of_steps(self, monkeypatch, method, slopes, runs):
        data = frame_operator(diagonal_slope_family(slopes))
        y = random_vector(DIAG2, 1, np.random.default_rng(27))
        normed, svd = [], np.linalg.svd  # the steps of each stacked SVD

        def counting(a, *args, **kwargs):
            normed.extend([len(a)] if np.ndim(a) == 4 else [])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        try:
            steps = iterate(data, y, method, 1e-12).iterations
        except NoConvergence as exc:
            steps = exc.iterations
        assert len(normed) == runs and max(normed) <= RUN_STEPS + 1 and sum(normed) >= steps + 1


class TestNoSecondFactorization:
    def test_reconstructors_run_without_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve was called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        fam = random_frame_family(FULL2, 2, gauss_legendre(0.0, 1.0, 16), seed=22)
        data = frame_operator(fam)
        x = random_vector(FULL2, 2, np.random.default_rng(19))
        y = apply(data.element, x)
        for result in (reconstruct_direct(data, y), reconstruct_chebyshev(data, y), reconstruct_neumann(data, y)):
            assert scalar_norm(result.vector - x) <= 1e-9 * scalar_norm(x)


def poisoned(vector, value):
    stack = vector.stack.copy()
    stack[0, 0, 0] = value
    return ModuleVector(vector.descriptor, stack)


@pytest.mark.parametrize("reconstruct", [reconstruct_direct, reconstruct_chebyshev, reconstruct_neumann])
def test_data_vector_must_fit_the_frame_operator(reconstruct):
    # a full k = 1, n = 2 vector broadcasts against the slots of this diagonal
    # k = 2, n = 2 frame, so only the check stops a wrong answer
    data = frame_operator(random_frame_family(DIAG2, 2, gauss_legendre(0.0, 1.0, 16), seed=23))
    rng = np.random.default_rng(24)
    y = random_vector(DIAG2, 2, rng)
    for other in (ModuleVector(AlgebraDescriptor("full", 1), np.ones((2, 1, 1))),
                  random_vector(DIAG2, 1, rng), random_vector(FULL2, 2, rng)):
        with pytest.raises(ValueError, match="^data vector does not match the frame operator shape"):
            reconstruct(data, other)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^vector components must be finite$"):
            poisoned(y, value)
    assert reconstruct(data, y).final_residual <= 1e-12


def past_the_float_range(case):
    """(frame operator data, y, cause) for a data vector whose norm, or whose solve, is past the float range."""
    if case == "solve":  # ||y|| = 1e307 with A = 1/3000, so y / A is past it
        data = frame_operator(diagonal_slope_family(ratio_slopes(1e-3)))
        return data, ModuleVector(DIAG2, np.diag([1e307, 5e306])[None]), "drives the solve past"
    descriptor = AlgebraDescriptor(case, 2)  # entries near the largest double, so ||y|| is past it
    rng = np.random.default_rng(26)
    data = frame_operator(prescribed_family(descriptor, 2, [1.0, 3.0, 2.0, 2.5], rng))
    y = random_vector(descriptor, 2, rng)
    return data, ModuleVector(descriptor, y.stack / np.abs(y.stack).max() * 1.7e308), "has a norm past"


@pytest.mark.parametrize("method", ["direct", "chebyshev", "auto", "optimal"])
@pytest.mark.parametrize("case", ["full", "diagonal", "solve"])
def test_a_solve_past_the_float_range_is_refused_by_name(method, case):
    # never a non-finite vector returned as converged, nor a relative residual of 0
    # or NaN read from an infinite ||y||, nor LAPACK's "SVD did not converge"
    data, y, cause = past_the_float_range(case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^data vector {cause} the float range of doubles$"):
            reconstruct_direct(data, y) if method == "direct" else iterate(data, y, method, 1e-12)
    assert caught == []


class TestConsistency:
    def test_direct_and_neumann_agree(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            descriptor = FULL2 if seed % 2 else DIAG2
            fam = random_frame_family(descriptor, 2, gauss_legendre(0.0, 1.0, 16), seed=seed)
            data = frame_operator(fam)
            y = random_vector(descriptor, 2, rng)
            direct = reconstruct_direct(data, y)
            for iterative in (reconstruct_neumann(data, y, tol=1e-12), reconstruct_chebyshev(data, y, tol=1e-12)):
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
                apply(s_inv, ModuleVector(FULL2, _unflatten(x.flatten() @ f @ f.conj().T, 2)[0]))
                for f in fam.flats
            ]
            inside = weighted_sum(L2Family(fam.rule, FULL2, np.stack([v.stack for v in per_node])))
            scale = 1.0 + scalar_norm(x)
            assert scalar_norm(outside - x) <= 1e-9 * scale
            assert scalar_norm(inside - x) <= 1e-9 * scale
            assert scalar_norm(outside - inside) <= 1e-9 * scale
