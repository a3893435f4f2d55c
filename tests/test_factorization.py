"""One factorization per family, and the batched kernels against left folds."""

from pathlib import Path

import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor
from opframes.catalog import random_frame_family
from opframes.cli import main
from opframes.duals import canonical_dual, is_dual_pair
from opframes.frames import OperatorFamily, frame_operator, synthesis
from opframes.hilbert_module import L2Family
from opframes.quadrature import gauss_legendre, integrate_array

from oracles import fold_integral, fold_products

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
    """Record the first argument of every np.linalg.<name> call."""
    calls = []
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestOneFactorizationPerFamily:
    # each scenario has three families: its own, the canonical dual, and the
    # perturbed family (additive) or the comparison family (relative)
    @pytest.mark.parametrize("name", ["perturbed_additive.json", "perturbed_relative.json"])
    def test_analyze_runs_one_eigh_per_family(self, monkeypatch, capsys, name):
        calls = count_calls(monkeypatch, "eigh")
        assert main(["analyze", "--scenario", str(SCENARIOS / name)]) == 0
        capsys.readouterr()
        assert len(calls) == 3
        assert len({a.tobytes() for a in calls}) == 3

    def test_independence_runs_one_svd(self, monkeypatch, capsys):
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
        for arr in (family.flats, data.flat, data.eigenvalues, data.eigenvectors):
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
