"""Parametric families in coefficient space: no node operator is evaluated, the
answers match the node route, and the node count stops mattering on a Gauss rule."""

import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import legendre, polynomial

from opframes import duals, frames, perturbation
from opframes.algebra import AlgebraDescriptor
from opframes.cli import COMMANDS, main
from opframes.frames import OperatorFamily, frame_operator
from opframes.hilbert_module import ModuleOperator
from opframes.quadrature import gauss_legendre

from families import generated_doc
from oracles import fold_products, node_factor, node_flats, node_gram

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
DEMOS = sorted(SCENARIOS.glob("*.json"))
SCENARIO_COMMANDS = [name for name, (_, _, flags) in COMMANDS.items() if "--scenario" in flags]
MEASURES = {
    "gauss_legendre": {"kind": "lebesgue_interval", "a": 0.0, "b": 1.0, "rule": "gauss_legendre", "nodes": 12},
    "midpoint": {"kind": "lebesgue_interval", "a": 0.0, "b": 1.0, "rule": "midpoint", "nodes": 12},
    "counting": {"kind": "counting", "count": 12},
}
SHAPES = {"diagonal": (3, 2), "full": (2, 2)}  # algebra kind: (k, n)
BOUND_RTOL = 1e-12


def leaves(value, prefix=""):
    """{path: leaf} of a decoded report."""
    if isinstance(value, dict):
        return {p: v for key, item in value.items() for p, v in leaves(item, f"{prefix}.{key}").items()}
    if isinstance(value, list):
        return {p: v for i, item in enumerate(value) for p, v in leaves(item, f"{prefix}[{i}]").items()}
    return {prefix: value}


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, (leaves(json.loads(out)) if out else {}), err


def refuse_node_evaluation(rule, slots):
    raise AssertionError("a parametric family evaluated its node operators")


def generated(tmp_path, kind, rule, perturbation_kind):
    k, n = SHAPES[kind]
    doc = generated_doc(kind, k, n, 12, "parametric", seed=5, perturbation=perturbation_kind)
    doc["measure"] = MEASURES[rule]
    path = tmp_path / f"{kind}-{rule}-{perturbation_kind}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(
    params=[p.name for p in DEMOS] + [
        f"{kind}-{rule}-{pert}" for kind in SHAPES for rule in MEASURES for pert in ("additive", "relative")
    ]
)
def scenario(request, tmp_path):
    if request.param.endswith(".json"):
        return SCENARIOS / request.param
    return generated(tmp_path, *request.param.split("-"))


@pytest.mark.parametrize("nodes", [None, "40"], ids=["default", "nodes"])
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_parametric_commands_evaluate_no_node_operator(monkeypatch, capsys, scenario, command, nodes):
    argv = [command, "--scenario", str(scenario)] + (["--nodes", nodes] if nodes else [])
    with monkeypatch.context() as patch:
        patch.setattr(frames, "_node_blocks", refuse_node_evaluation)
        got = run(capsys, argv)
    with monkeypatch.context() as patch:  # the oracle: every Gram form and the SVD from node folds
        for module in (frames, duals, perturbation):
            patch.setattr(module, "_gram", node_gram)
        patch.setattr(frames, "_slot_factor", node_factor)
        want = run(capsys, argv)
    (code, report, err), (want_code, want_report, want_err) = got, want
    assert code == want_code and report.keys() == want_report.keys()
    assert bool(err) == bool(want_err)
    assert (code == 1) == ("error" in err) and "AssertionError" not in err
    for path, value in report.items():
        expected = want_report[path]
        if type(value) is float and type(expected) is float:
            if "bound" in path or "spectrum" in path or "envelope" in path:
                assert abs(value - expected) <= BOUND_RTOL * max(abs(value), abs(expected)), path
        else:
            assert value == expected, path


def count_conversions(patch, counts):
    """Count in ``counts`` the layout conversions (``_to_slots``, ``_from_slots``) of the family modules."""
    for module in (frames, duals, perturbation):
        for name in ("_to_slots", "_from_slots"):
            if hasattr(module, name):
                def counted(*args, convert=getattr(module, name), name=name):
                    counts[name] += 1
                    return convert(*args)
                patch.setattr(module, name, counted)


@pytest.mark.parametrize("nodes", [None, "64"], ids=["default", "nodes"])
@pytest.mark.parametrize("source, tables", [
    ("perturbed_relative.json", 2), ("diagonal_slope.json", 1), ("full-gauss_legendre-relative", 2),
])
def test_analyze_converts_each_parsed_table_to_slots_once(monkeypatch, capsys, tmp_path, source, tables, nodes):
    # every consumer reads a family's slots: the parse converts each of its
    # tables once, and only the dual's table for the report converts back
    path = SCENARIOS / source if source.endswith(".json") else generated(tmp_path, *source.split("-"))
    counts = Counter()
    with monkeypatch.context() as patch:
        count_conversions(patch, counts)
        code = main(["analyze", "--scenario", str(path)] + (["--nodes", nodes] if nodes else []))
    capsys.readouterr()
    assert code == 0
    assert counts["_to_slots"] == tables and counts["_from_slots"] <= 1, counts


@pytest.mark.parametrize("kind", ["diagonal", "full"])
def test_the_node_count_stops_mattering_on_a_gauss_rule(capsys, tmp_path, kind):
    k, n = SHAPES[kind]
    doc = generated_doc(kind, k, n, 32, "parametric", seed=9, perturbation="additive")
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    degrees = len(doc["family"]["coefficients"])
    bounds = {}
    for nodes in (degrees, 32, 512, 300_000):
        tracemalloc.start()
        try:
            code = main(["analyze", "--scenario", str(path), "--nodes", str(nodes)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        bounds[nodes] = [report["frame"]["lower_bound"], report["frame"]["upper_bound"],
                         *report["dual"]["bounds"], *report["perturbation"]["empirical_bounds"]]
    assert peak < 100e6  # the 300000-node analyze
    for nodes, got in bounds.items():
        assert np.allclose(got, bounds[degrees], rtol=1e-14, atol=0.0), nodes


def shifted_legendre(d):
    """Monomial coefficients, lowest first, of P_d(2t - 1), whose square integrates to 1/(2d + 1) on [0, 1]."""
    out = np.zeros(d + 1)
    for j, c in enumerate(legendre.leg2poly(np.eye(d + 1)[d])):
        out[: j + 1] += c * polynomial.polypow([-1.0, 2.0], j)
    return out


@pytest.mark.parametrize("nodes", [17, 32, 64, 512])
def test_accuracy_is_the_inputs_own_conditioning(nodes):
    """The factor route's error on integral P_d(2t - 1)^2 = 1/(2d + 1), d <= 16, stays within
    8 eps kappa_d, kappa_d = ||sum_p |c_p| t^p|| / ||P_d(2t - 1)|| in L2[0, 1]: the
    amplification of rounding the monomial input itself, which the node route
    (folded by the oracle) is held to as well."""
    eps = np.finfo(float).eps
    rule, fine = gauss_legendre(0.0, 1.0, nodes), gauss_legendre(0.0, 1.0, 64)
    descriptor = AlgebraDescriptor("diagonal", 1)
    for d in range(17):
        coeffs = shifted_legendre(d)
        exact = 1.0 / (2 * d + 1)
        kappa = np.sqrt(np.dot(fine.weights, polynomial.polyval(fine.nodes, np.abs(coeffs)) ** 2) / exact)
        family = OperatorFamily.parametric(rule, descriptor, 1, coeffs.reshape(-1, 1, 1, 1, 1))
        factor = frame_operator(family).blocks[0, 0, 0].real
        node = fold_products(rule.weights, node_flats(family), node_flats(family))[0, 0].real
        for route, value in (("factor", factor), ("node", node)):
            assert abs(value - exact) / exact <= 8 * eps * kappa, (route, d)


@pytest.mark.parametrize("nodes", [1, 2, 4, 9])
@pytest.mark.parametrize("kind", ["diagonal", "full"])
def test_factors_of_different_degrees_pair_on_any_node_count(kind, nodes):
    """F_L* F_M over the shorter factor for parametric families of degrees 1, 3 and 6
    and two sampled families, every pair, against the node fold, with N below, at and above D."""
    k, n = SHAPES[kind]
    descriptor = AlgebraDescriptor(kind, k)
    rule = gauss_legendre(0.0, 1.0, nodes)
    rng = np.random.default_rng(nodes)
    mask = np.eye(k) if descriptor.is_diagonal else 1.0
    families = []
    for degrees in (1, 3, 6):
        coeffs = rng.standard_normal((degrees, n, n, k, k)) + 1j * rng.standard_normal((degrees, n, n, k, k))
        families.append(OperatorFamily.parametric(rule, descriptor, n, coeffs * mask))
    for _ in range(2):
        table = rng.standard_normal((nodes, n, n, k, k)) + 1j * rng.standard_normal((nodes, n, n, k, k))
        families.append(OperatorFamily.sampled(rule, [ModuleOperator(descriptor, t) for t in table * mask]))
    for left in families:
        for right in families:
            want = node_gram(left, right)
            assert np.max(np.abs(frames._gram(left, right) - want)) <= 1e-13 * np.max(np.abs(want))
