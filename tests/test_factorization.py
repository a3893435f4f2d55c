"""One factorization per family, and the batched kernels against left folds."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from opframes import frames
from opframes.algebra import AlgebraDescriptor
from opframes.catalog import random_frame_family
from opframes.cli import main
from opframes.duals import canonical_dual, is_dual_pair
from opframes.frames import OperatorFamily, frame_operator, optimal_bounds, synthesis
from opframes.hilbert_module import L2Family
from opframes.perturbation import RelativePerturbation, ScalarFamily, relative_criterion_check
from opframes.quadrature import gauss_legendre, integrate_array

from oracles import criterion_terms, fold_integral, fold_products

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
DESCRIPTORS = [AlgebraDescriptor("full", 3), AlgebraDescriptor("diagonal", 4)]
RTOL = 1e-13


def random_family(descriptor, seed, nodes=37):
    rule = gauss_legendre(0.0, 1.0, nodes)
    return random_frame_family(descriptor, 2, rule, seed=seed)


def random_sampled(descriptor, rng, nodes=37):
    """A sampled family with independent random node operators."""
    k, n = descriptor.dim, 2
    shape = (nodes, n * k, n * k)
    flats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if descriptor.is_diagonal:
        slot = np.arange(n * k) % k
        flats = flats * (slot[:, None] == slot)
    return OperatorFamily.from_flats(gauss_legendre(0.0, 1.0, nodes), descriptor, n, flats)


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def count_calls(monkeypatch, name):
    """Record the first argument of every np.linalg.<name> call, with its keywords."""
    calls = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append((np.array(a), kwargs))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def factorizations(svds):
    """The arguments of the SVDs that compute singular vectors: the spectral
    factorizations.  A residual's norm takes singular values only."""
    return [a for a, kwargs in svds if kwargs.get("compute_uv", True)]


def refuse(monkeypatch, *names):
    """Make every np.linalg.<name> raise, so a test fails if it is called."""
    for name in names:
        def raising(*args, _name=name, **kwargs):
            raise AssertionError(f"np.linalg.{_name} was called")

        monkeypatch.setattr(np.linalg, name, raising)


class TestOneFactorizationPerFamily:
    # each scenario has three families: its own, the canonical dual, and the
    # perturbed family (additive) or the comparison family (relative)
    @pytest.mark.parametrize("name", ["perturbed_additive.json", "perturbed_relative.json"])
    def test_analyze_runs_one_svd_per_family(self, monkeypatch, capsys, name):
        refuse(monkeypatch, "eigh")
        calls = count_calls(monkeypatch, "svd")
        assert main(["analyze", "--scenario", str(SCENARIOS / name)]) == 0
        capsys.readouterr()
        svds = factorizations(calls)
        assert len(svds) == 3
        assert len({a.tobytes() for a in svds}) == 3

    @pytest.mark.parametrize("name,families", [("perturbed_additive.json", 3), ("perturbed_relative.json", 6)])
    def test_analyze_runs_one_slot_factor_per_family(self, monkeypatch, capsys, name, families):
        # the relative criterion adds three: aT, bL and aT - bL, each with its own
        # factor and none factored further; every parametric factor takes one QR
        # of its Vandermonde matrix, and every SVD one QR of the factor before it
        refuse(monkeypatch, "eigh")
        calls, qrs = count_calls(monkeypatch, "svd"), count_calls(monkeypatch, "qr")
        factored, factor = [], frames._slot_factor

        def recording(family):
            factored.append(family)
            return factor(family)

        monkeypatch.setattr(frames, "_slot_factor", recording)
        assert main(["analyze", "--scenario", str(SCENARIOS / name)]) == 0
        capsys.readouterr()
        svds = factorizations(calls)
        assert len({id(f) for f in factored}) == families
        assert len(svds) == 3
        assert len(qrs) == families + len(svds)

    @pytest.mark.parametrize("method", ["direct", "neumann", "chebyshev"])
    def test_reconstruct_runs_one_svd_and_no_inverse(self, monkeypatch, capsys, method):
        # every reconstructor reads the cached eigenpairs; none factors s again
        refuse(monkeypatch, "eigh", "inv", "solve")
        calls = count_calls(monkeypatch, "svd")
        argv = ["reconstruct", "--scenario", str(SCENARIOS / "perturbed_additive.json"), "--method", method]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["reconstruction"]["converged"] is True
        assert len(factorizations(calls)) == 1

    def test_analyze_runs_no_inverse(self, monkeypatch, capsys):
        refuse(monkeypatch, "eigh", "inv", "solve")
        calls = count_calls(monkeypatch, "svd")
        assert main(["analyze", "--scenario", str(SCENARIOS / "perturbed_additive.json")]) == 0
        assert json.loads(capsys.readouterr().out)["reconstruction"]["method"] == "chebyshev"
        svds = factorizations(calls)
        assert len(svds) == len({a.tobytes() for a in svds}) == 3

    def test_dual_runs_one_svd_per_family_and_no_inverse(self, monkeypatch, capsys):
        # the family's SVD gives s^-1 for the dual; the dual's own SVD gives its bounds
        refuse(monkeypatch, "eigh", "inv", "solve")
        calls = count_calls(monkeypatch, "svd")
        assert main(["dual", "--scenario", str(SCENARIOS / "perturbed_additive.json")]) == 0
        assert json.loads(capsys.readouterr().out)["dual"]["is_dual"] is True
        svds = factorizations(calls)
        assert len(svds) == len({a.tobytes() for a in svds}) == 2

    def test_independence_runs_one_svd(self, monkeypatch, capsys):
        refuse(monkeypatch, "eigh")
        calls = count_calls(monkeypatch, "svd")
        assert main(["independence", "--scenario", str(SCENARIOS / "perturbed_additive.json")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_frame_operator_is_cached_on_the_family(self):
        family = random_family(DESCRIPTORS[0], seed=1)
        assert frame_operator(family) is frame_operator(family)


class TestReadOnly:
    def test_cached_arrays_reject_writes(self):
        family = random_family(DESCRIPTORS[1], seed=2)
        data = frame_operator(family)
        arrays = (family.blocks, family.flats, data.blocks, data.flat, data.eigenvalues,
                  data.block_eigenvalues, data.block_eigenvectors)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_from_flats_leaves_the_input_writable(self):
        family = random_family(DESCRIPTORS[0], seed=3)
        flats = np.array(family.flats)
        OperatorFamily.from_flats(family.rule, family.descriptor, family.n, flats)
        flats[0, 0, 0] = 2.0


class TestFromFlatsValidation:
    def test_off_diagonal_entry_rejected(self):
        family = random_family(DESCRIPTORS[1], seed=4)
        flats = np.array(family.flats)
        flats[5, 0, 1] = 1e-3
        message = "^operator blocks: diagonal descriptor requires zero off-diagonal entries$"
        with pytest.raises(ValueError, match=message):
            OperatorFamily.from_flats(family.rule, family.descriptor, family.n, flats)

    def test_node_count_checked(self):
        family = random_family(DESCRIPTORS[0], seed=5)
        with pytest.raises(ValueError, match="^need 37 operators, got 36$"):
            OperatorFamily.from_flats(family.rule, family.descriptor, family.n, family.flats[:-1])

    def test_shape_checked(self):
        family = random_family(DESCRIPTORS[0], seed=6)
        with pytest.raises(ValueError):
            OperatorFamily.from_flats(family.rule, family.descriptor, 1, family.flats)


@pytest.mark.parametrize("descriptor", DESCRIPTORS, ids=lambda d: d.kind)
class TestAgainstLeftFolds:
    def test_frame_operator(self, descriptor):
        rng = np.random.default_rng(7)
        for family in (random_family(descriptor, seed=8), random_sampled(descriptor, rng)):
            want = fold_products(family.rule.weights, family.flats, family.flats)
            assert relative_error(frame_operator(family).flat, want) <= RTOL

    def test_dual_resolution(self, descriptor):
        rng = np.random.default_rng(9)
        primal = random_family(descriptor, seed=10)
        others = (canonical_dual(primal), random_sampled(descriptor, rng))
        for other in others:
            resolution = fold_products(primal.rule.weights, other.flats, primal.flats)
            want = np.linalg.norm(resolution - np.eye(len(resolution)), 2)
            got = is_dual_pair(primal, other).resolution_residual
            assert abs(got - want) <= RTOL * max(1.0, want)

    def test_synthesis(self, descriptor):
        rng = np.random.default_rng(11)
        family = random_sampled(descriptor, rng)
        k, n = descriptor.dim, family.n
        shape = (len(family), n, k, k)
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if descriptor.is_diagonal:
            samples = samples * np.eye(k)
        ys = L2Family(family.rule, descriptor, samples)
        flat_samples = samples.transpose(0, 2, 1, 3).reshape(len(family), k, n * k)
        want = fold_products(family.rule.weights, flat_samples, family.flats)
        assert relative_error(synthesis(family, ys).flatten(), want) <= RTOL

    def test_integrate_array(self, descriptor):
        rng = np.random.default_rng(12)
        rule = gauss_legendre(0.0, 1.0, 53)
        k = descriptor.dim
        for samples in (
            rng.standard_normal((53, k, k)),
            rng.standard_normal((53, 2, k, k)) + 1j * rng.standard_normal((53, 2, k, k)),
        ):
            want = fold_integral(rule.weights, samples)
            assert relative_error(integrate_array(rule, samples), want) <= RTOL


# ---------------------------------------------------------------- slot blocks


def node_flats(rule, descriptor, n, seed, form):
    """(N, nk, nk) node operators built by plain numpy: a parametric family's
    polynomial summed term by term, or an identity plus random noise."""
    k = descriptor.dim
    rng = np.random.default_rng(seed)
    mask = 1.0
    if descriptor.is_diagonal:
        slot = np.arange(n * k) % k
        mask = slot[:, None] == slot
    if form == "parametric":
        coeffs = random_frame_family(descriptor, n, rule, seed=seed).coefficients
        flat_coeffs = coeffs.transpose(0, 1, 3, 2, 4).reshape(-1, n * k, n * k)
        flats = np.array([sum(w**d * c for d, c in enumerate(flat_coeffs)) for w in rule.nodes])
        return flats, OperatorFamily.parametric(rule, descriptor, n, coeffs)
    shape = (len(rule), n * k, n * k)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flats = (np.eye(n * k) + 0.3 * noise / np.sqrt(n * k)) * mask
    return flats, OperatorFamily.from_flats(rule, descriptor, n, flats)


def spread(got, want):
    """Largest deviation relative to the largest magnitude of ``want``."""
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("form", ["parametric", "sampled"])
@pytest.mark.parametrize(
    "descriptor,n",
    [(AlgebraDescriptor("diagonal", 4), 3), (AlgebraDescriptor("full", 3), 2)],
    ids=["diagonal", "full"],
)
class TestSlotBlocksAgainstDenseFolds:
    """Every per-slot kernel against the dense flattening folded node by node."""

    @pytest.fixture
    def case(self, descriptor, n, form):
        rule = gauss_legendre(0.0, 1.0, 23)
        flats, family = node_flats(rule, descriptor, n, 40, form)
        return rule, flats, family, fold_products(rule.weights, flats, flats)

    def test_frame_operator_and_spectrum(self, case):
        _, _, family, s = case
        data = frame_operator(family)
        spectrum = np.linalg.eigvalsh(s)
        assert spread(data.flat, s) <= RTOL
        assert spread(data.eigenvalues, spectrum) <= RTOL
        assert spread(optimal_bounds(data), spectrum[[0, -1]]) <= RTOL

    def test_singular_values(self, case):
        rule, flats, family, _ = case
        tall = np.concatenate([np.sqrt(w) * f.conj().T for w, f in zip(rule.weights, flats)])
        want = np.linalg.svd(tall, compute_uv=False)
        # the factorization's singular values, descending as LAPACK gives them
        got = np.sqrt(frame_operator(family).eigenvalues)[::-1]
        assert got.shape == want.shape
        assert spread(got, want) <= RTOL

    def test_canonical_dual(self, case, descriptor, n):
        rule, flats, family, s = case
        s_inv = np.linalg.inv(s)
        dual = canonical_dual(family)
        if dual.form == "parametric":
            k = descriptor.dim
            flat_coeffs = family.coefficients.transpose(0, 1, 3, 2, 4).reshape(-1, n * k, n * k)
            want = (s_inv @ flat_coeffs).reshape(-1, n, k, n, k).transpose(0, 1, 3, 2, 4)
            assert spread(dual.coefficients, want) <= RTOL
        else:
            assert spread(dual.flats, s_inv @ flats) <= RTOL

    def test_dual_pair_residual(self, case, descriptor, n):
        rule, flats, family, s = case
        pairs = [(np.linalg.inv(s) @ flats, canonical_dual(family)),
                 node_flats(rule, descriptor, n, 41, "sampled")]
        for other_flats, other in pairs:
            gap = fold_products(rule.weights, other_flats, flats) - np.eye(len(s))
            want = np.linalg.norm(gap, 2)
            got = is_dual_pair(family, other).resolution_residual
            assert abs(got - want) <= RTOL * max(1.0, want)

    def test_relative_criterion_margin(self, case, descriptor, n):
        rule, flats, family, _ = case
        other_flats, other = node_flats(rule, descriptor, n, 42, "sampled")
        a = 1.0 + 0.5 * rule.nodes
        b = 1.2 - 0.3 * rule.nodes
        pert = RelativePerturbation(ScalarFamily.sampled(a), ScalarFamily.sampled(b), 0.3, 0.2)
        positive, gap = criterion_terms(rule.weights, a, b, 0.3, 0.2, flats, other_flats)
        spectrum = np.linalg.eigvalsh(positive - gap)
        scale = np.linalg.eigvalsh(positive)[-1]
        _, margin = relative_criterion_check(family, other, pert)
        assert abs(margin - spectrum[0] / scale) <= RTOL * np.max(np.abs(spectrum)) / scale


def test_diagonal_family_stores_slot_blocks_until_flats_is_read():
    # k=16, n=4, N=512, the diagonal-parametric benchmark shape: 2.1 MB of
    # slot blocks against 33.6 MB of dense flats
    k, n, nodes = 16, 4, 512
    descriptor = AlgebraDescriptor("diagonal", k)
    rule = gauss_legendre(0.0, 1.0, nodes)
    rng = np.random.default_rng(43)
    coeffs = (rng.standard_normal((3, n, n, k, k)) + 1j * rng.standard_normal((3, n, n, k, k)))
    coeffs = coeffs * np.eye(k)
    tracemalloc.start()
    try:
        family = OperatorFamily.parametric(rule, descriptor, n, coeffs)
        frame_operator(family)
        stored, _ = tracemalloc.get_traced_memory()
        flats = family.flats
        with_flats, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert family.blocks.shape == (k, nodes, n, n)
    assert family.blocks.nbytes == k * nodes * n * n * 16 == 2_097_152
    assert flats.nbytes == nodes * (n * k) ** 2 * 16 == 33_554_432
    assert stored < 2 * family.blocks.nbytes
    assert with_flats - stored >= flats.nbytes
