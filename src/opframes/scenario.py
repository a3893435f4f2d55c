"""Loading and validation of JSON scenario files (schema version 1).

Complex numbers are two-element [re, im] arrays; polynomial coefficient
tables are listed lowest degree first.  Validation failures raise
ScenarioError carrying the JSON path of the offending field.

``load_scenario`` reads every number once and keeps its text for the
report's echo.  A rectangular table of numbers is recognised from its text
(``_token_block``), decoded to one flat float array without nested lists,
and held as a ``TokenBlock``: its shape, its float array and its JSON text.
A float anywhere else becomes its token, the bytes of its own text, which
the parse converts where it needs the value.  ``Scenario.raw`` is the
document as read, so the echo writes each number as the file does.  A
table in a Python document given to ``parse_scenario`` is recognised by
``_numeric_block``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import chain
from json.decoder import WHITESPACE, JSONObject
from json.scanner import make_scanner

import numpy as np

from .algebra import AlgebraDescriptor
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


class ScenarioError(ValueError):
    """Schema violation; ``field_path`` names the offending field."""

    def __init__(self, field_path, message):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


class TokenBlock:
    """A rectangular table of numbers as read from a file (``_token_block``):
    its nested ``shape``, its numbers as a flat float array ``values``, and
    its JSON text, in ``pieces`` of bytes small enough for Python's
    small-object allocator."""

    def __init__(self, shape, values, pieces):
        self.shape = shape
        self.values = values
        self.pieces = pieces

    def __len__(self):
        return self.shape[0]

    def tokens(self):
        """Every number's token (bytes), in order."""
        return b"".join(self.pieces).translate(_SEPARATORS).split()

    def floats(self):
        """The numbers as a flat float array: ``values``, or, once ``load_scenario``
        has dropped it after the parse, the tokens read again."""
        return np.array(self.tokens(), dtype=float) if self.values is None else self.values


_SEPARATORS = bytes.maketrans(b"[],", b"   ")
_BRACKETS = bytes.maketrans(b"[]", b"  ")
_NUMBER = bytes.maketrans(b"123456789.eE+-", b"0" * 14)  # each byte of a number as 0
_PIECE = 400  # characters, below the 512 bytes of the small-object allocator


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


def _numeric_block(value):
    """``(shape, floats)`` of a table of numbers in a Python document, else
    None (a file's tables are recognised from their text, by
    ``_token_block``).  A table is a rectangular nested list whose leaves
    are all exactly int or float (bool is not), each within float range;
    ``floats`` is the flat float array of its leaves, row by row."""
    shape, level = [], [value]
    while True:
        kinds = set(map(type, level))
        if kinds != {list}:
            break
        lengths = set(map(len, level))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    if not shape or not kinds <= {int, float}:
        return None
    try:
        return tuple(shape), np.array(level, dtype=float)
    except OverflowError:                     # an int beyond float range
        return None


def _complex_blocks(value, shape, path):
    """Nested lists of [re, im] pairs, or their TokenBlock, with the given block shape.

    A TokenBlock's float array is used as it is, and a table of numbers in
    a Python document (``_numeric_block``) is converted in one step, if
    either has the block shape and only finite numbers; anything else
    (wrong shape, bool, string or token leaves, non-finite or huge numbers)
    goes through the element walker, which names the offending field.
    """
    block = (value.shape, value.floats()) if type(value) is TokenBlock else _numeric_block(value)
    if block is not None and block[0] == (*shape, 2) and np.isfinite(block[1]).all():
        return block[1].view(np.complex128).reshape(shape)
    value = _nested(value)
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
        table = _table(doc, "coefficients", path)
        if not table:
            raise ScenarioError(f"{path}.coefficients", "need at least one coefficient")
        coeffs = _complex_blocks(table, (len(table), n, n, k, k), f"{path}.coefficients")
        try:
            return OperatorFamily.parametric(rule, descriptor, n, coeffs)
        except ValueError as exc:
            raise ScenarioError(f"{path}.coefficients", str(exc)) from exc
    if form == "sampled":
        table = _table(doc, "operators", path)
        if len(table) != len(rule):
            raise ScenarioError(f"{path}.operators", f"need one operator per node ({len(rule)})")
        flats = _flatten(_complex_blocks(table, (len(rule), n, n, k, k), f"{path}.operators"))
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
    form = _get(doc, "form", path, str)
    if form == "polynomial":
        table = _nested(_table(doc, "coefficients", path))
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
        table = _nested(_table(doc, "values", path))
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
    if type(version) is bytes:
        version = float(version)
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


def _skeleton(raw):
    """``raw``, the bytes of a list's text, less its whitespace and with each
    run of number bytes written as one ``0``."""
    marks = np.frombuffer(raw.translate(_NUMBER, b" \t\n\r"), np.uint8)
    other = marks != ord("0")
    keep = np.empty(len(marks), bool)
    keep[0] = True
    np.logical_or(other[1:], other[:-1], out=keep[1:])   # no 0 right after a 0
    return marks[keep].tobytes()


def _table_shape(skeleton, depth):
    """The shape of a rectangular table from its ``skeleton`` (``_skeleton``),
    which opens ``depth`` lists; else None.

    Each axis's length is read from the first row at its level, and the
    skeleton must be exactly that shape's, no axis empty.  So every row is
    full, and every number sits in a row of the last axis, between ``[`` or
    ``,`` and ``,`` or ``]``.
    """
    shape, width, close = [], 1, 0          # width: the span of an item one level in
    for level in reversed(range(depth)):
        close = skeleton.find(b"]" * (depth - level), close)  # where its first row closes
        if close < 0:
            return None
        span = close + depth - 2 * level    # [ item , item , ... ] of ``width`` each
        shape.append((span - 1) // (width + 1))
        width = span
    row = b"0"
    for size in shape:
        row = b"[" + b",".join([row] * size) + b"]"
    return tuple(reversed(shape)) if row == skeleton and all(shape) else None


def _token_block(floats, text, start):
    """``(TokenBlock, end)`` of the list that starts at ``text[start]`` if it is
    a rectangular table of numbers only, each within float range; else None.

    The table is read from its text, never as nested lists.  Its text runs
    to the next key or closing brace, less trailing commas and whitespace.
    Its skeleton (``_skeleton``) must be exactly a shape's (``_table_shape``),
    which leaves no room for any other character.  With its brackets
    blanked the text is one flat list, which ``floats``, the C scanner,
    decodes, so JSON's own number grammar decides every leaf and each ``0``
    of the skeleton is one number.  A declined list goes to the reader's
    route for other values, which raises the same errors as ever.
    """
    key = text.find('"', start)
    key = len(text) if key < 0 else key
    brace = text.find("}", start, key)
    span = text[start:key if brace < 0 else brace].rstrip(", \t\n\r")
    raw = span.encode("ascii", "replace")    # any other character is kept in the skeleton
    skeleton = _skeleton(raw)
    depth = len(skeleton) - len(skeleton.lstrip(b"["))
    # No nested list is decoded, so probe the nesting the decoder allows: this
    # raises RecursionError where scanning the table's own lists would.
    floats("[" * depth + "]" * depth, 0)
    shape = _table_shape(skeleton, depth)
    if shape is None:
        return None
    try:
        flat, _ = floats(f"[{raw.translate(_BRACKETS).decode()}]", 0)
        values = np.array(flat, dtype=float)
    except (StopIteration, ValueError, OverflowError):  # not JSON, or an int beyond float range
        return None
    del flat                                 # its floats' memory serves the pieces
    pieces = [raw[i:i + _PIECE] for i in range(0, len(raw), _PIECE)]
    return TokenBlock(shape, values, pieces), start + len(raw)


class _Reader(json.JSONDecoder):
    """The decoder of ``load_scenario``: objects member by member, a table of
    numbers as a TokenBlock read from its text (``_token_block``), and any
    other value with each float as its token."""

    def __init__(self):
        super().__init__()
        self.blocks = []                      # every TokenBlock read
        floats = self.scan_once
        self.parse_float = str.encode
        tokens = make_scanner(self)

        def scan_once(text, idx):
            head = text[idx:idx + 1]
            if head == "{":
                return JSONObject((text, idx + 1), self.strict, scan_once, None, None, self.memo)
            if head == "[":
                block = _token_block(floats, text, idx)
                if block is not None:
                    self.blocks.append(block[0])
                    return block
            return tokens(text, idx)

        self.scan_once = scan_once

    def decode(self, s):
        """``json.loads(s)``, with no frame between this one and ``scan_once``,
        so that a document nests as deep here as ``json.load`` reads it."""
        if s.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", s, 0)
        try:
            doc, end = self.scan_once(s, WHITESPACE.match(s, 0).end())
        except StopIteration as err:
            raise json.JSONDecodeError("Expecting value", s, err.value) from None
        end = WHITESPACE.match(s, end).end()
        if end != len(s):
            raise json.JSONDecodeError("Extra data", s, end)
        return doc


_SURROGATE = re.compile("[\ud800-\udfff]")  # after decoding, an escaped pair is one character


def _refuse_lone_surrogates(doc):
    """Raise ScenarioError at the first key or string, in document order, that
    holds a lone surrogate.  A JSON escape such as ``\\ud800`` spells one, and
    no report could write it as UTF-8.  Number tables (TokenBlocks) hold
    none and are not walked; open containers are kept on a stack, so any
    depth the decoder reads is walked."""
    stack = [("", doc)]
    while stack:
        path, value = stack.pop()
        if type(value) is dict:
            for key in value:
                if _SURROGATE.search(key):
                    shown = key.encode("utf-8", "backslashreplace").decode()
                    raise ScenarioError(f"{path}.{shown}" if path else shown, "key holds a lone surrogate")
            stack.extend((f"{path}.{key}" if path else key, item) for key, item in reversed(value.items()))
        elif type(value) is list:
            stack.extend((f"{path}[{i}]", value[i]) for i in reversed(range(len(value))))
        elif type(value) is str and _SURROGATE.search(value):
            raise ScenarioError(path, "string holds a lone surrogate")


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
