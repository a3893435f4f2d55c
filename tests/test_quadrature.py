import ast
from pathlib import Path

import numpy as np
import pytest

from opframes import quadrature
from opframes.algebra import AlgebraDescriptor, AlgebraElement
from opframes.quadrature import (
    QuadratureRule,
    counting,
    gauss_legendre,
    integrate,
    integrate_array,
    midpoint,
)

from oracles import _loewner_leq, random_psd

DIAG2 = AlgebraDescriptor("diagonal", 2)


class TestGaussLegendre:
    def test_two_point_closed_form(self):
        rule = gauss_legendre(0.0, 1.0, 2)
        assert np.allclose(np.sort(rule.nodes), [(3 - np.sqrt(3)) / 6, (3 + np.sqrt(3)) / 6])
        assert np.allclose(rule.weights, [0.5, 0.5])
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_one_point_is_midpoint(self):
        rule = gauss_legendre(0.0, 1.0, 1)
        assert np.allclose(rule.nodes, [0.5])
        assert np.allclose(rule.weights, [1.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_quadratic_moment_exact_for_all_n(self, n):
        rule = gauss_legendre(0.0, 1.0, n)
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gauss_legendre(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            gauss_legendre(0.0, 1.0, 0)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_polynomial_exactness_through_degree(self, n):
        rule = gauss_legendre(0.0, 1.0, n)
        for p in range(2 * n):
            value = float(np.dot(rule.weights, rule.nodes**p))
            assert value == pytest.approx(1.0 / (p + 1), abs=1e-13)


class TestMidpoint:
    def test_single_cell(self):
        rule = midpoint(0.0, 1.0, 1)
        assert np.allclose(rule.nodes, [0.5])
        assert np.allclose(rule.weights, [1.0])

    def test_quadratic_convergence(self):
        rule = midpoint(0.0, 1.0, 1000)
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_weights_sum_to_length(self, n):
        rule = midpoint(-1.5, 2.5, n)
        assert float(rule.weights.sum()) == pytest.approx(4.0, abs=1e-12)


class TestCounting:
    def test_unit_weights(self):
        rule = counting(3)
        assert np.array_equal(rule.weights, [1.0, 1.0, 1.0])
        assert np.array_equal(rule.nodes, [1.0, 2.0, 3.0])

    def test_integral_is_plain_sum(self):
        rule = counting(3)
        samples = [AlgebraElement(DIAG2, np.diag([i + 1.0, 1.0])) for i in range(3)]
        total = integrate(rule, samples)
        assert np.allclose(total.entries, np.diag([6.0, 3.0]))

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            counting(0)


class TestRuleValidation:
    def test_weights_must_be_positive(self):
        from opframes.quadrature import MeasureSpace

        with pytest.raises(ValueError):
            QuadratureRule(MeasureSpace("counting", count=2), [1.0, 2.0], [1.0, 0.0])

    def test_interval_weights_must_sum(self):
        from opframes.quadrature import MeasureSpace

        with pytest.raises(ValueError):
            QuadratureRule(MeasureSpace("lebesgue_interval", 0.0, 1.0), [0.25, 0.75], [0.5, 0.1])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("end", ["a", "b"])
    def test_interval_ends_must_be_finite(self, end, value):
        from opframes.quadrature import MeasureSpace

        ends = {"a": 0.0, "b": 1.0, end: value}
        with pytest.raises(ValueError, match=f"^interval end {end} must be finite"):
            MeasureSpace("lebesgue_interval", **ends)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["nodes", "weights"])
    def test_nodes_and_weights_must_be_finite(self, field, value):
        from opframes.quadrature import MeasureSpace

        # a NaN weight passed both the sign check and the sum check
        arrays = {"nodes": [0.5], "weights": [1.0], field: [value]}
        with pytest.raises(ValueError, match=f"^quadrature {field} must be finite$"):
            QuadratureRule(MeasureSpace("lebesgue_interval", 0.0, 1.0), **arrays)

    @pytest.mark.parametrize("build", [gauss_legendre, midpoint])
    def test_rules_refuse_an_infinite_interval(self, build):
        # gauss_legendre(-inf, 1, 3) returned nodes [-inf, nan, nan] with infinite weights
        for a, b in ((-np.inf, 1.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                build(a, b, 3)

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, 0])
    @pytest.mark.parametrize("build", [
        lambda n: gauss_legendre(0.0, 1.0, n),
        lambda n: midpoint(0.0, 1.0, n),
        counting,
    ], ids=["gauss_legendre", "midpoint", "counting"])
    def test_rules_refuse_a_bad_node_count(self, build, n):
        # True gave a 1-node Gauss rule; 3.0 and 2.5 raised TypeErrors from numpy
        with pytest.raises(ValueError, match=f"^need an integer node count >= 1, got {n}$"):
            build(n)

    def test_rules_take_numpy_integer_counts(self):
        assert gauss_legendre(0.0, 1.0, np.int64(3)) == gauss_legendre(0.0, 1.0, 3)
        assert midpoint(0.0, 1.0, np.int64(3)) == midpoint(0.0, 1.0, 3)
        assert counting(np.int64(3)) == counting(3)

    def test_equality_compares_arrays(self):
        assert gauss_legendre(0.0, 1.0, 4) == gauss_legendre(0.0, 1.0, 4)
        assert gauss_legendre(0.0, 1.0, 4) != gauss_legendre(0.0, 1.0, 5)
        assert gauss_legendre(0.0, 1.0, 4) != midpoint(0.0, 1.0, 4)


class TestIntegrate:
    def test_worked_quadratic_family(self):
        rule = gauss_legendre(0.0, 1.0, 2)
        samples = [
            AlgebraElement(DIAG2, np.diag([w**2, 0.75 * w**2])) for w in rule.nodes
        ]
        total = integrate(rule, samples)
        assert np.allclose(total.entries, np.diag([1.0 / 3.0, 0.25]), atol=1e-15)

    def test_zero_integrand(self):
        rule = gauss_legendre(0.0, 1.0, 5)
        samples = [AlgebraElement(DIAG2, np.zeros((2, 2)))] * 5
        assert np.array_equal(integrate(rule, samples).entries, np.zeros((2, 2)))

    def test_length_mismatch(self):
        rule = gauss_legendre(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            integrate(rule, [AlgebraElement(DIAG2, np.zeros((2, 2)))] * 4)

    def test_refinement_agreement_on_smooth_integrand(self):
        def value(rule):
            samples = np.exp(rule.nodes)[:, None, None] * np.eye(2)
            return integrate_array(rule, samples)

        coarse = value(gauss_legendre(0.0, 1.0, 32))
        fine = value(gauss_legendre(0.0, 1.0, 64))
        assert np.max(np.abs(coarse - fine)) <= 1e-10

    def test_positivity_preserved(self):
        rng = np.random.default_rng(11)
        rule = gauss_legendre(0.0, 1.0, 8)
        descriptor = AlgebraDescriptor("full", 3)
        samples = [AlgebraElement(descriptor, random_psd(rng, 3)) for _ in range(8)]
        for sample in samples:
            assert _loewner_leq(np.zeros((3, 3)), sample.entries, 1e-12)
        assert _loewner_leq(np.zeros((3, 3)), integrate(rule, samples).entries, 1e-10)

    def test_linearity_exact_on_dyadic_data(self):
        # dyadic weights and samples make the fold exactly distributive
        from opframes.quadrature import MeasureSpace

        rule = QuadratureRule(MeasureSpace("counting", count=3), [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        f = [AlgebraElement(DIAG2, np.diag([0.5 * i, 0.25])) for i in range(3)]
        g = [AlgebraElement(DIAG2, np.diag([2.0, 4.0 * i])) for i in range(3)]
        lhs = integrate(rule, [AlgebraElement(DIAG2, 2.0 * fi.entries + gi.entries) for fi, gi in zip(f, g)])
        rhs = 2.0 * integrate(rule, f).entries + integrate(rule, g).entries
        assert np.array_equal(lhs.entries, rhs)

    def test_linearity_close_on_random_data(self):
        rng = np.random.default_rng(12)
        rule = gauss_legendre(0.0, 1.0, 16)
        descriptor = AlgebraDescriptor("full", 2)
        f = [AlgebraElement(descriptor, rng.standard_normal((2, 2))) for _ in range(16)]
        g = [AlgebraElement(descriptor, rng.standard_normal((2, 2))) for _ in range(16)]
        alpha = 0.37 + 0.21j
        lhs = integrate(rule, [AlgebraElement(descriptor, alpha * fi.entries + gi.entries) for fi, gi in zip(f, g)])
        rhs = alpha * integrate(rule, f).entries + integrate(rule, g).entries
        assert np.allclose(lhs.entries, rhs, atol=1e-14)


def _sources():
    """(file name, syntax tree) of every module of the package."""
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(Path(quadrature.__file__).parent.glob("*.py"))]


def _calls(node, name):
    """Whether ``node`` holds a call of a function or method named ``name``."""
    return any(isinstance(c, ast.Call) and getattr(c.func, "attr", getattr(c.func, "id", None)) == name
               for c in ast.walk(node))


def _sites(tree, match, scope=()):
    """(function, line) of every node in ``tree`` that ``match`` accepts."""
    for child in ast.iter_child_nodes(tree):
        inner = (*scope, child.name) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        if match(child):
            yield ".".join(scope), child.lineno
        yield from _sites(child, match, inner)


def _node_power(node):
    """A ** whose exponent holds an arange(...) call."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
        return _calls(node.right if isinstance(node, ast.BinOp) else node.value, "arange")
    return False


def _finiteness_refusal(node):
    """An ``if`` whose test calls an ``isfinite`` and whose body raises."""
    return (isinstance(node, ast.If) and _calls(node.test, "isfinite")
            and any(isinstance(inner, ast.Raise) for statement in node.body for inner in ast.walk(statement)))


def _freeze(node):
    """A ``setflags`` call."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags"


def test_node_powers_are_formed_in_one_function():
    # every power t^p of the node variable comes from quadrature.node_powers,
    # so a change to how they are formed, or refused, is made in one place
    sites = [(name, *site) for name, tree in _sources() for site in _sites(tree, _node_power)]
    assert [site[:2] for site in sites] == [("quadrature.py", "node_powers")], sites


def test_the_cli_decides_nothing_and_one_function_freezes_arrays():
    # each verdict, margin and envelope comes from the module that owns its theorem:
    # the perturbation report does no arithmetic, and no classification is read back
    # into "is a frame"; every read-only array is frozen by algebra._read_only
    sources = dict(_sources())
    section = next(node for node in ast.walk(sources["cli.py"])
                   if isinstance(node, ast.FunctionDef) and node.name == "_perturbation_section")
    assert [node.lineno for node in ast.walk(section) if isinstance(node, ast.BinOp)] == []
    strings = {node.value for node in ast.walk(sources["cli.py"]) if isinstance(node, ast.Constant)}
    assert strings.isdisjoint({"tight", "parseval"})
    sites = [(name, *site) for name, tree in sources.items() for site in _sites(tree, _freeze)]
    assert [site[:2] for site in sites] == [("algebra.py", "_read_only")], sites


def test_values_that_are_not_finite_are_refused_in_one_function():
    # every refusal of a NaN or infinite value goes through algebra._finite, so how
    # such a value is detected, and how fast, is decided in one place
    sites = [(name, *site) for name, tree in _sources() for site in _sites(tree, _finiteness_refusal)]
    assert [site[:2] for site in sites] == [("algebra.py", "_finite")], sites


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ re-exports its public imports through __all__
    unused = []
    for name, tree in _sources():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)) and getattr(statement, "module", "") != "__future__":
                for alias in statement.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded and not (name == "__init__.py" and not bound.startswith("_")):
                        unused.append((name, statement.lineno, bound))
    assert unused == []
