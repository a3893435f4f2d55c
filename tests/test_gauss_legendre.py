"""The Gauss-Legendre rule against a high-precision reference.

``oracles.gauss_legendre_reference`` runs Newton's method at 128 bits from
numpy's ``leggauss``; ``leggauss`` itself appears here only as the comparator
whose weight error the rule must not exceed.  The sizes cover both sides of
the switch from the recurrence (n <= 100) to the expansions (n > 100).  The
tests that need mpmath skip without it, as it stays a test-only dependency.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander

from opframes import quadrature
from opframes.quadrature import gauss_legendre

from oracles import gauss_legendre_reference

SIZES = (1, 2, 3, 4, 5, 16, 33, 64, 100, 101, 128, 512, 1024, 1536, 2048)
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
    error = largest_error(gauss_legendre(-1.0, 1.0, n).nodes, nodes, relative=False)
    assert error <= 2.3e-16
    # the expansions read 1.37e-16 at worst over 252 sizes up to 2048; with
    # π m rounded in the angle, in place of split, 1.64e-16 at n = 2048
    assert n <= 100 or error <= 1.5e-16


@pytest.mark.parametrize("n", SIZES)
def test_weights_match_the_reference(n):
    _, weights = reference(n)
    error = largest_error(gauss_legendre(-1.0, 1.0, n).weights, weights, relative=True)
    assert error <= max(FOUR_ULPS, largest_error(leggauss(n)[1], weights, relative=True))
    # measured 4.2e-15 by the recurrence for n <= 100 and 7.9e-16 by the
    # expansions above; the recurrence read 1.5e-14 at n = 1024
    assert error <= 1e-14


@pytest.mark.parametrize("n", [64, 100, 101, 512])
def test_legendre_moments_through_degree_2n_minus_1(n):
    # sum_i w_i P_m(x_i) = integral of P_m over [-1, 1] = 2 delta_{m0}
    rule = gauss_legendre(-1.0, 1.0, n)
    moments = rule.weights @ legvander(rule.nodes, 2 * n - 1)
    expected = np.zeros(2 * n)
    expected[0] = 2.0
    assert np.max(np.abs(moments - expected)) <= 1e-12


def test_peak_memory_is_linear_in_the_node_count():
    # a dense n x n eigensolve at n = 4096 would need 134 MB for its matrix alone;
    # the expansions peaked at 0.35 MB there and 25 MB at n = 300,000
    for n, limit in ((4096, 2_000_000), (300_000, 160 * 300_000)):
        tracemalloc.start()
        try:
            gauss_legendre(0.0, 1.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, n


@pytest.mark.parametrize("n", [5, 64, 100])
def test_two_recurrence_passes_from_the_tricomi_guess(n, monkeypatch):
    # the step's second-order term makes the iteration cubic: one pass to
    # converge and one to confirm, where plain Newton needs three
    calls = []
    evaluate = quadrature._legendre
    monkeypatch.setattr(quadrature, "_legendre", lambda *args: calls.append(1) or evaluate(*args))
    gauss_legendre(0.0, 1.0, n)
    assert len(calls) == 2


@pytest.mark.parametrize("n", [101, 512, 4096])
def test_no_recurrence_above_100_nodes(n, monkeypatch):
    def refuse(*args):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(quadrature, "_legendre", refuse)
    gauss_legendre(0.0, 1.0, n)


def test_bessel_constants_and_tails_match_mpmath():
    # the tabulated literals are the doubles nearest mpmath's values; the
    # McMahon tail (k > 20) and the J_1² tail (k > 21) are within an ulp or two
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workprec(160):
        zeros = [mpmath.besseljzero(0, k) for k in range(1, 201)]
        offsets = [z - mpmath.pi * (k - mpmath.mpf(0.25)) for k, z in enumerate(zeros, 1)]
        squares = [mpmath.besselj(1, z) ** 2 for z in zeros]
        assert quadrature._J0_OFFSETS.tolist() == [float(d) for d in offsets[:20]]
        assert quadrature._J1_SQUARED.tolist() == [float(b) for b in squares[:21]]
        assert (quadrature._PI_HI * 2**24).is_integer()
        assert quadrature._PI_LO == float(mpmath.pi - quadrature._PI_HI)
        k = np.arange(21, 201, dtype=float)
        tail = quadrature._mcmahon_offset(k)
        for kk, d, z, exact in zip(k.tolist(), tail, zeros[20:], offsets[20:]):
            assert abs(mpmath.mpf(float(np.pi * (kk - 0.25) + d)) - z) <= eps * z
            assert abs(mpmath.mpf(float(d)) - exact) <= 2 * eps * exact
        for b, exact in zip(quadrature._j1_squared_tail(k[1:]), squares[21:]):
            assert abs(mpmath.mpf(float(b)) - exact) <= 2 * eps * exact
