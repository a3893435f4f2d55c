"""Loading and validation of JSON scenario files (schema version 1).

Complex numbers are two-element [re, im] arrays; polynomial coefficient
tables are listed lowest degree first.  Validation failures raise
ScenarioError carrying the JSON path of the offending field.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import AlgebraDescriptor
from .frames import OperatorFamily
from .hilbert_module import ModuleOperator
from .perturbation import AdditivePerturbation, RelativePerturbation, ScalarFamily
from .quadrature import QuadratureRule, counting, gauss_legendre, midpoint

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "classification": 1e-8,
    "reconstruction": 1e-12,
    "dual": 1e-10,
    "criterion": 1e-10,
    "admissibility": 1e-12,
}

_RULES = {"gauss_legendre": gauss_legendre, "midpoint": midpoint}


class ScenarioError(ValueError):
    """Schema violation; ``field_path`` names the offending field."""

    def __init__(self, field_path, message):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass(frozen=True)
class Scenario:
    raw: dict
    descriptor: AlgebraDescriptor
    module_rank: int
    rule: QuadratureRule
    family: OperatorFamily
    tolerances: dict
    perturbation_kind: str | None = None
    additive: AdditivePerturbation | None = None
    relative: RelativePerturbation | None = None
    comparison_family: OperatorFamily | None = None


def _get(mapping, key, path, kind=None):
    if not isinstance(mapping, dict):
        raise ScenarioError(path, "expected an object")
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise ScenarioError(f"{path}.{key}" if path else key, f"expected {names}")
    return value


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, "expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities and ints beyond the float range
        raise ScenarioError(path, "number must be finite")
    return float(value)


def _positive_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioError(path, "expected a positive integer")
    return value


def _complex_pair(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(path, "expected a [re, im] pair")
    return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _numeric_block(value):
    """``(shape, flat)`` of a rectangular nested list whose leaves are all exactly
    int or float (bool is not), flattened level by level; else None."""
    shape, level = [], [value]
    while True:
        kinds = set(map(type, level))
        if kinds != {list}:
            return (tuple(shape), level) if shape and kinds <= {int, float} else None
        lengths = set(map(len, level))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))


def _complex_blocks(value, shape, path):
    """Nested lists of [re, im] pairs with the given block shape.

    A rectangular all-finite numeric block is converted in one step; anything
    else (wrong shape, bool or string leaves, non-finite or huge numbers) goes
    through the element walker, which names the offending field.
    """
    block = _numeric_block(value)
    if block is not None and block[0] == (*shape, 2):
        try:
            flat = np.array(block[1], dtype=float)
        except OverflowError:
            flat = None
        if flat is not None and np.isfinite(flat).all():
            return flat.view(np.complex128).reshape(shape)
    out = np.zeros(shape, dtype=np.complex128)
    def fill(node, idx, sub_path):
        if len(idx) == len(shape):
            out[idx] = _complex_pair(node, sub_path)
            return
        expected = shape[len(idx)]
        if not isinstance(node, list) or len(node) != expected:
            raise ScenarioError(sub_path, f"expected a list of length {expected}")
        for i, child in enumerate(node):
            fill(child, idx + (i,), f"{sub_path}[{i}]")
    fill(value, (), path)
    return out


def _parse_measure(doc, path):
    kind = _get(doc, "kind", path, str)
    if kind == "lebesgue_interval":
        a = _number(_get(doc, "a", path), f"{path}.a")
        b = _number(_get(doc, "b", path), f"{path}.b")
        if not a < b:
            raise ScenarioError(f"{path}.b", "interval requires a < b")
        rule_name = _get(doc, "rule", path, str)
        if rule_name not in _RULES:
            raise ScenarioError(f"{path}.rule", f"unknown rule {rule_name!r}; use one of {sorted(_RULES)}")
        nodes = _positive_int(_get(doc, "nodes", path), f"{path}.nodes")
        return _RULES[rule_name](a, b, nodes)
    if kind == "counting":
        return counting(_positive_int(_get(doc, "count", path), f"{path}.count"))
    raise ScenarioError(f"{path}.kind", f"unknown measure kind {kind!r}")


def _parse_family(doc, descriptor, n, rule, path):
    form = _get(doc, "form", path, str)
    k = descriptor.dim
    if form == "parametric":
        table = _get(doc, "coefficients", path, list)
        if not table:
            raise ScenarioError(f"{path}.coefficients", "need at least one coefficient")
        coeffs = _complex_blocks(table, (len(table), n, n, k, k), f"{path}.coefficients")
        try:
            return OperatorFamily.parametric(rule, descriptor, n, coeffs)
        except ValueError as exc:
            raise ScenarioError(f"{path}.coefficients", str(exc)) from exc
    if form == "sampled":
        table = _get(doc, "operators", path, list)
        if len(table) != len(rule):
            raise ScenarioError(f"{path}.operators", f"need one operator per node ({len(rule)})")
        ops = _complex_blocks(table, (len(rule), n, n, k, k), f"{path}.operators")
        flats = ops.transpose(0, 1, 3, 2, 4).reshape(len(rule), n * k, n * k)
        try:
            return OperatorFamily.from_flats(rule, descriptor, n, flats)
        except ValueError as exc:  # an off-diagonal entry: name the first node that has one
            off_diagonal = ops[..., ~np.eye(k, dtype=bool)].any(axis=(1, 2, 3))
            raise ScenarioError(f"{path}.operators[{np.argmax(off_diagonal)}]", str(exc)) from exc
    raise ScenarioError(f"{path}.form", f"unknown family form {form!r}")


def _parse_scalar_family(doc, rule, path, real=False):
    form = _get(doc, "form", path, str)
    if form == "polynomial":
        table = _get(doc, "coefficients", path, list)
        if not table:
            raise ScenarioError(f"{path}.coefficients", "need at least one coefficient")
        coeffs = [
            _number(c, f"{path}.coefficients[{i}]")
            if real
            else _complex_pair(c, f"{path}.coefficients[{i}]")
            for i, c in enumerate(table)
        ]
        return ScalarFamily.polynomial(coeffs)
    if form == "sampled":
        table = _get(doc, "values", path, list)
        if len(table) != len(rule):
            raise ScenarioError(f"{path}.values", f"need one value per node ({len(rule)})")
        values = [
            _number(c, f"{path}.values[{i}]") if real else _complex_pair(c, f"{path}.values[{i}]")
            for i, c in enumerate(table)
        ]
        return ScalarFamily.sampled(values)
    raise ScenarioError(f"{path}.form", f"unknown scalar form {form!r}")


def _parse_perturbation(doc, descriptor, n, rule, path):
    kind = _get(doc, "kind", path, str)
    k = descriptor.dim
    if kind == "additive":
        blocks = _complex_blocks(_get(doc, "operator", path), (n, n, k, k), f"{path}.operator")
        try:
            op = ModuleOperator(descriptor, blocks)
            pert = AdditivePerturbation(op, _parse_scalar_family(
                _get(doc, "coefficient", path, dict), rule, f"{path}.coefficient"
            ))
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
        return "additive", pert, None
    if kind == "relative":
        comparison = _parse_family(
            _get(doc, "comparison_family", path, dict), descriptor, n, rule,
            f"{path}.comparison_family",
        )
        alpha = _number(_get(doc, "alpha", path), f"{path}.alpha")
        beta = _number(_get(doc, "beta", path), f"{path}.beta")
        scale_a = _parse_scalar_family(
            _get(doc, "scale_primal", path, dict), rule, f"{path}.scale_primal", real=True
        )
        scale_b = _parse_scalar_family(
            _get(doc, "scale_other", path, dict), rule, f"{path}.scale_other", real=True
        )
        try:
            pert = RelativePerturbation(scale_a, scale_b, alpha, beta)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
        return "relative", pert, comparison
    raise ScenarioError(f"{path}.kind", f"unknown perturbation kind {kind!r}")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    version = _get(doc, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    algebra = _get(doc, "algebra", "", dict)
    kind = _get(algebra, "kind", "algebra", str)
    if kind not in ("full", "diagonal"):
        raise ScenarioError("algebra.kind", f"expected 'full' or 'diagonal', got {kind!r}")
    dim = _positive_int(_get(algebra, "dim", "algebra"), "algebra.dim")
    descriptor = AlgebraDescriptor(kind, dim)

    n = _positive_int(_get(doc, "module_rank", ""), "module_rank")
    rule = _parse_measure(_get(doc, "measure", "", dict), "measure")
    family = _parse_family(_get(doc, "family", "", dict), descriptor, n, rule, "family")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in doc:
        block = _get(doc, "tolerances", "", dict)
        for key, value in block.items():
            if key not in DEFAULT_TOLERANCES:
                raise ScenarioError(f"tolerances.{key}", "unknown tolerance name")
            value = _number(value, f"tolerances.{key}")
            if value <= 0:
                raise ScenarioError(f"tolerances.{key}", "tolerance must be positive")
            tolerances[key] = value

    pert_kind, additive, relative, comparison = None, None, None, None
    if "perturbation" in doc and doc["perturbation"] is not None:
        pert_kind, pert, comparison = _parse_perturbation(
            _get(doc, "perturbation", "", dict), descriptor, n, rule, "perturbation"
        )
        if pert_kind == "additive":
            additive = pert
        else:
            relative = pert

    return Scenario(
        raw=doc,
        descriptor=descriptor,
        module_rank=n,
        rule=rule,
        family=family,
        tolerances=tolerances,
        perturbation_kind=pert_kind,
        additive=additive,
        relative=relative,
        comparison_family=comparison,
    )


def load_scenario(path, nodes=None) -> Scenario:
    """Read and parse a scenario file.  ``nodes`` replaces the measure's node
    count (its ``count`` for a counting measure) before the one parse."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ScenarioError("", f"not valid JSON: {exc}") from exc
    measure = doc.get("measure") if isinstance(doc, dict) else None
    if nodes is not None and isinstance(measure, dict):
        measure["count" if measure.get("kind") == "counting" else "nodes"] = nodes
    return parse_scenario(doc)
