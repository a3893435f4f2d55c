"""Validation of JSON scenario documents (schema version 1), and ``load_scenario``.

Complex numbers are two-element [re, im] arrays; polynomial coefficient
tables are listed lowest degree first.  Validation failures raise
ScenarioError carrying the JSON path of the offending field.
``load_scenario`` reads a file with ``codec._Reader``: each table of
numbers as a ``TokenBlock``, any other float as its token, which the parse
converts where it needs the value.  ``Scenario.raw`` is the document as
read, for the report's echo.  Every table field reaches its array through
``_number_array``; a Python document given to ``parse_scenario`` is
converted there element by element.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .algebra import AlgebraDescriptor, _Frozen
from .codec import TokenBlock, _Reader, _refuse_lone_surrogates
from .exceptions import ScenarioError
from .frames import FRAME_TOL, OperatorFamily
from .hilbert_module import ModuleOperator, _flatten, _unflatten
from .perturbation import AdditivePerturbation, RelativePerturbation, ScalarFamily
from .quadrature import QuadratureRule, counting, gauss_legendre, midpoint

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "classification": FRAME_TOL,
    "reconstruction": 1e-12,
    "dual": 1e-10,
    "criterion": 1e-10,
    "admissibility": 1e-12,
}

_RULES = {"gauss_legendre": gauss_legendre, "midpoint": midpoint}


class Scenario(_Frozen):
    """A parsed scenario; ``comparison_family`` is a relative perturbation's {L_w}."""

    def __init__(self, raw: dict, descriptor: AlgebraDescriptor, module_rank: int, rule: QuadratureRule,
                 family: OperatorFamily, tolerances: dict,
                 perturbation: AdditivePerturbation | RelativePerturbation | None = None,
                 comparison_family: OperatorFamily | None = None):
        self._store(raw=raw, descriptor=descriptor, module_rank=module_rank, rule=rule, family=family,
                    tolerances=tolerances, perturbation=perturbation, comparison_family=comparison_family)


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
    """A finite JSON number as float: an int, a float or a token (the bytes of its text)."""
    if type(value) is bytes:
        try:
            value = float(value)
        except ValueError:
            raise ScenarioError(path, "expected a number") from None
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


def _number_array(value, shape, path, real=False):
    """Nested lists of [re, im] pairs, or of real numbers if ``real``, or
    their TokenBlock, as an array of the given shape.

    A TokenBlock of that shape (with an axis of 2 for the pairs) and only
    finite numbers is converted in one step; anything else (wrong shape,
    bool, string or token leaves, non-finite or huge numbers, a Python
    document) goes through the element walker, which names the offending
    field.
    """
    if type(value) is TokenBlock and value.shape == (shape if real else (*shape, 2)):
        flat = value.floats()
        if np.isfinite(flat).all():
            return (flat if real else flat.view(np.complex128)).reshape(shape)
    value = _nested(value)
    out = np.zeros(shape, dtype=float if real else np.complex128)
    leaf = _number if real else _complex_pair
    def fill(node, idx, sub_path):
        if len(idx) == len(shape):
            out[idx] = leaf(node, sub_path)
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
        table = _table(doc, "coefficients", path)
        if not table:
            raise ScenarioError(f"{path}.coefficients", "need at least one coefficient")
        coeffs = _number_array(table, (len(table), n, n, k, k), f"{path}.coefficients")
        try:
            return OperatorFamily.parametric(rule, descriptor, n, coeffs)
        except ValueError as exc:
            raise ScenarioError(f"{path}.coefficients", str(exc)) from exc
    if form == "sampled":
        table = _table(doc, "operators", path)
        if len(table) != len(rule):
            raise ScenarioError(f"{path}.operators", f"need one operator per node ({len(rule)})")
        flats = _flatten(_number_array(table, (len(rule), n, n, k, k), f"{path}.operators"))
        try:
            return OperatorFamily.from_flats(rule, descriptor, n, flats)
        except ValueError as exc:  # an off-diagonal entry: name the first node that has one
            off_diagonal = _unflatten(flats, k)[..., ~np.eye(k, dtype=bool)].any(axis=(1, 2, 3))
            raise ScenarioError(f"{path}.operators[{np.argmax(off_diagonal)}]", str(exc)) from exc
    raise ScenarioError(f"{path}.form", f"unknown family form {form!r}")


def _table(doc, key, path):
    """A list field, or the TokenBlock that ``load_scenario`` reads it as."""
    value = _get(doc, key, path)
    if type(value) is not TokenBlock and not isinstance(value, list):
        raise ScenarioError(f"{path}.{key}", "expected list")
    return value


def _nested(table):
    """A TokenBlock as the nested lists of its numbers; any other value as it is."""
    return table.floats().reshape(table.shape).tolist() if type(table) is TokenBlock else table


def _parse_scalar_family(doc, rule, path, real=False):
    """A ScalarFamily of [re, im] pairs, or of real numbers if ``real``: its
    ``coefficients`` or per-node ``values`` as one table (``_number_array``)."""
    form = _get(doc, "form", path, str)
    if form not in ("polynomial", "sampled"):
        raise ScenarioError(f"{path}.form", f"unknown scalar form {form!r}")
    key = "coefficients" if form == "polynomial" else "values"
    table = _table(doc, key, path)
    if form == "polynomial" and not table:
        raise ScenarioError(f"{path}.coefficients", "need at least one coefficient")
    if form == "sampled" and len(table) != len(rule):
        raise ScenarioError(f"{path}.values", f"need one value per node ({len(rule)})")
    return ScalarFamily(**{key: _number_array(table, (len(table),), f"{path}.{key}", real)})


def _parse_perturbation(doc, descriptor, n, rule, path):
    kind = _get(doc, "kind", path, str)
    k = descriptor.dim
    if kind == "additive":
        blocks = _number_array(_get(doc, "operator", path), (n, n, k, k), f"{path}.operator")
        coefficient = _parse_scalar_family(
            _get(doc, "coefficient", path, dict), rule, f"{path}.coefficient"
        )
        try:
            pert = AdditivePerturbation(ModuleOperator(descriptor, blocks), coefficient)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from exc
        return pert, None
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
        return pert, comparison
    raise ScenarioError(f"{path}.kind", f"unknown perturbation kind {kind!r}")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    version = _get(doc, "schema_version", "")
    if type(version) is bytes:
        version = float(version)
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # True == 1, but is no version
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

    perturbation, comparison = None, None
    if "perturbation" in doc and doc["perturbation"] is not None:
        perturbation, comparison = _parse_perturbation(
            _get(doc, "perturbation", "", dict), descriptor, n, rule, "perturbation"
        )

    return Scenario(
        raw=doc,
        descriptor=descriptor,
        module_rank=n,
        rule=rule,
        family=family,
        tolerances=tolerances,
        perturbation=perturbation,
        comparison_family=comparison,
    )


def load_scenario(path, nodes=None) -> Scenario:
    """Read and parse a scenario file.  ``nodes`` replaces the measure's node
    count (its ``count`` for a counting measure) before the one parse.  A key
    or string with a lone surrogate is refused (``_refuse_lone_surrogates``);
    only an escape can spell one, so a text without ``\\u`` is not walked."""
    reader = _Reader()
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = reader.decode(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioError("", "not valid JSON: nested too deeply") from None
    if "\\u" in text:
        _refuse_lone_surrogates(doc)
    del text
    measure = doc.get("measure") if isinstance(doc, dict) else None
    if nodes is not None and isinstance(measure, dict):
        measure["count" if measure.get("kind") == "counting" else "nodes"] = nodes
    scenario = parse_scenario(doc)
    # The parse has its arrays and the echo needs only the text.  Emptying the
    # list matters too: the reader's scanner refers to itself, so the reader
    # lives on until the cycle collector runs, and must hold no TokenBlock.
    while reader.blocks:
        reader.blocks.pop().values = None
    return scenario
