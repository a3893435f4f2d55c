"""The Gauss-Legendre rule against a high-precision reference.

``oracles.gauss_legendre_reference`` runs Newton's method at 128 bits from
numpy's ``leggauss``; ``leggauss`` itself appears here only as the comparator
whose weight error the rule must not exceed.  The tests that need the
reference skip without mpmath, which stays a test-only dependency.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander

from opframes import quadrature
from opframes.quadrature import gauss_legendre

from oracles import gauss_legendre_reference

SIZES = (1, 2, 3, 4, 5, 16, 33, 64, 128, 512, 1024)
FOUR_ULPS = 4 * np.finfo(float).eps


@functools.cache
def reference(n):
    pytest.importorskip("mpmath")
    return gauss_legendre_reference(n)


def largest_error(values, exact, relative):
    import mpmath

    with mpmath.workprec(256):
        return max(
            float(abs(mpmath.mpf(float(v)) - e) / (abs(e) if relative else 1))
            for v, e in zip(values, exact)
        )


@pytest.mark.parametrize("n", [5, 16, 33])
def test_reference_nodes_are_roots_of_mpmath_legendre(n):
    # mpmath's own P_n (a hypergeometric sum) vanishes at the reference nodes
    mpmath = pytest.importorskip("mpmath")
    nodes, _ = reference(n)
    with mpmath.workprec(160):
        assert max(abs(mpmath.legendre(n, x)) for x in nodes) < 1e-30


@pytest.mark.parametrize("n", SIZES)
def test_nodes_increase_and_the_rule_is_symmetric(n):
    rule = gauss_legendre(-1.0, 1.0, n)
    assert len(rule) == n
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])


@pytest.mark.parametrize("n", SIZES)
def test_nodes_match_the_reference(n):
    nodes, _ = reference(n)
    assert largest_error(gauss_legendre(-1.0, 1.0, n).nodes, nodes, relative=False) <= 2.3e-16


@pytest.mark.parametrize("n", SIZES)
def test_weights_match_the_reference(n):
    _, weights = reference(n)
    error = largest_error(gauss_legendre(-1.0, 1.0, n).weights, weights, relative=True)
    assert error <= 1e-11
    assert error <= max(FOUR_ULPS, largest_error(leggauss(n)[1], weights, relative=True))
    # measured 1.5e-14 at n = 1024; the plain recurrence in x reads 9.5e-12 there
    assert error <= 3e-14


@pytest.mark.parametrize("n", [64, 512])
def test_legendre_moments_through_degree_2n_minus_1(n):
    # sum_i w_i P_m(x_i) = integral of P_m over [-1, 1] = 2 delta_{m0}
    rule = gauss_legendre(-1.0, 1.0, n)
    moments = rule.weights @ legvander(rule.nodes, 2 * n - 1)
    expected = np.zeros(2 * n)
    expected[0] = 2.0
    assert np.max(np.abs(moments - expected)) <= 1e-12


def test_peak_memory_is_linear_in_the_node_count():
    # a dense n x n eigensolve at n = 4096 would need 134 MB for its matrix alone
    tracemalloc.start()
    try:
        gauss_legendre(0.0, 1.0, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("n", [5, 64, 512])
def test_two_recurrence_passes_from_the_tricomi_guess(n, monkeypatch):
    # the step's second-order term makes the iteration cubic: one pass to
    # converge and one to confirm, where plain Newton needs three
    calls = []
    evaluate = quadrature._legendre
    monkeypatch.setattr(quadrature, "_legendre", lambda *args: calls.append(1) or evaluate(*args))
    gauss_legendre(0.0, 1.0, n)
    assert len(calls) == 2
