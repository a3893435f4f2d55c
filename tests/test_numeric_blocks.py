"""Bulk parse and emit of numeric blocks against the element-by-element paths.

A table of numbers is a rectangular nested list whose leaves are all
exactly int or float.  In a file, ``load_scenario`` recognises one from its
text (``scenario._token_block``) and holds it as a TokenBlock; in a Python
document, ``scenario._numeric_block`` recognises it.
``scenario._complex_blocks`` converts either in a single step and falls
back to its element walker on anything else.  ``cli._emit`` writes a
TokenBlock or a float array from a layout template, and any list item by
item.  These tests hold both to the slow paths they replace: the walker
(with the table helper switched off), the stdlib ``json.loads`` and
``json.dumps(indent=2, sort_keys=True)``, the table check
``oracles.table_shape`` and the row-by-row csv writer in
``oracles.csv_report``.  The parse runs on Python documents and on their
JSON text, in several layouts and spellings, through ``load_scenario``,
whose echo must write every number as the file does.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opframes import cli, scenario
from opframes.cli import _emit, main
from opframes.quadrature import gauss_legendre

from families import generated_doc
from oracles import csv_report, table_shape

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
SCENARIO_COMMANDS = ("analyze", "reconstruct", "dual", "perturb", "independence")
LAYOUTS = {  # ways to write a document as JSON text
    "compact": json.dumps,
    "indented": lambda doc: json.dumps(doc, indent=2, sort_keys=True),
    "tight": lambda doc: json.dumps(doc, separators=(",", ":")),
    "tabs": lambda doc: json.dumps(doc, indent="\t"),
    "crlf": lambda doc: json.dumps(doc, indent=2).replace("\n", "\r\n"),
}


def documents():
    """The demo scenarios and one small scenario of each benchmark workload's form."""
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
    docs["sampled_full"] = generated_doc("full", 2, 2, 4, "sampled", seed=1)
    docs["sampled_diagonal"] = generated_doc("diagonal", 3, 2, 5, "sampled", seed=5)
    docs["parametric_diagonal"] = generated_doc("diagonal", 3, 2, 8, "parametric", seed=2)
    docs["relative_diagonal"] = generated_doc("diagonal", 2, 2, 6, "parametric", 3, "relative")
    docs["additive_full"] = generated_doc("full", 2, 2, 5, "parametric", 4, "additive")
    return docs


def block_tables(doc):
    """(owner, key) of every table that _complex_blocks parses."""
    tables = []
    for owner in (doc["family"], (doc.get("perturbation") or {}).get("comparison_family")):
        if owner is not None:
            tables.append((owner, "coefficients" if "coefficients" in owner else "operators"))
    if "operator" in (doc.get("perturbation") or {}):
        tables.append((doc["perturbation"], "operator"))
    return tables


def first_pair(block):
    """The innermost list holding a block's first [re, im] pair, and that pair."""
    row = block
    while isinstance(row[0][0], list):
        row = row[0]
    return row, row[0]


def set_leaf(index, value):
    def mutate(block):
        first_pair(block)[1][index] = value
    return mutate


def drop_pair(block):                 # a ragged row
    first_pair(block)[0].pop()


def add_pair(block):                  # a row one too long
    row, pair = first_pair(block)
    row.append(list(pair))


def add_part(block):                  # a pair of three
    first_pair(block)[1].append(0.0)


def pair_to_number(block):
    row = first_pair(block)[0]
    row[0] = 1.0


def extra_entry(block):               # the outermost list one too long
    block.append(copy.deepcopy(block[-1]))


def negative_zeros(block):
    row = first_pair(block)[0]
    row[0] = [-0.0, -0.0]


def tuple_pair(block):
    row, pair = first_pair(block)
    row[0] = tuple(pair)


def off_diagonal(block):              # entry (0, 1) of the first algebra element, if k > 1
    row = first_pair(block)[0]
    if len(row) > 1:
        row[1] = [0.5, 0.0]


MUTATIONS = {
    "bool_leaf": set_leaf(0, True),
    "string_leaf": set_leaf(1, "1.5"),
    "null_leaf": set_leaf(0, None),
    "nan_leaf": set_leaf(1, float("nan")),
    "overflow_float": set_leaf(0, json.loads("1e400")),
    "huge_int": set_leaf(1, 10**400),
    "ragged_row": drop_pair,
    "long_row": add_pair,
    "three_part_pair": add_part,
    "number_for_pair": pair_to_number,
    "extra_entry": extra_entry,
    "negative_zeros": negative_zeros,
    "tuple_pair": tuple_pair,
    "off_diagonal": off_diagonal,
}


def parsed_arrays(sc):
    """Every array that _complex_blocks fed, as (shape, dtype, bytes) so -0.0 counts."""
    arrays = [sc.family.flats, sc.family.coefficients]
    if sc.comparison_family is not None:
        arrays += [sc.comparison_family.flats, sc.comparison_family.coefficients]
    if sc.additive is not None:
        arrays.append(sc.additive.operator.blocks)
    return [None if a is None else (a.shape, a.dtype, a.tobytes()) for a in arrays]


def outcome(doc):
    try:
        return "parsed", parsed_arrays(scenario.parse_scenario(doc))
    except Exception as exc:  # the walker's own exception types are part of the contract
        return "raised", (type(exc), str(exc), getattr(exc, "field_path", None))


def walker_outcome(doc, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(scenario, "_numeric_block", lambda value: None)
        return outcome(doc)


def load_outcome(text, tmp_path):
    """The outcome of the JSON text route: the file read by ``load_scenario``."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    try:
        return "parsed", parsed_arrays(scenario.load_scenario(path))
    except Exception as exc:
        return "raised", (type(exc), str(exc), getattr(exc, "field_path", None))


def mutated_cases():
    for name, doc in documents().items():
        for t in range(len(block_tables(doc))):
            for mutation in MUTATIONS:
                yield pytest.param(name, t, mutation, id=f"{name}-{t}-{mutation}")


@pytest.mark.parametrize("name", sorted(documents()))
def test_valid_documents_parse_bit_identically(name, monkeypatch):
    doc = documents()[name]
    fast = outcome(doc)
    assert fast[0] == "parsed"
    assert fast == walker_outcome(doc, monkeypatch)


@pytest.mark.parametrize("name,table,mutation", list(mutated_cases()))
def test_mutated_documents_match_the_walker(name, table, mutation, monkeypatch):
    doc = documents()[name]
    owner, key = block_tables(doc)[table]
    block = owner[key][-1] if key in ("coefficients", "operators") else owner[key]
    MUTATIONS[mutation](block)
    got = outcome(doc)
    assert got == walker_outcome(doc, monkeypatch)
    if mutation in ("nan_leaf", "overflow_float", "huge_int"):
        kind, (error, message, field_path) = got
        assert kind == "raised" and error is scenario.ScenarioError
        assert message == f"{field_path}: number must be finite"


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", sorted(documents()))
def test_valid_documents_load_bit_identically(name, layout, tmp_path, monkeypatch):
    doc = documents()[name]
    assert load_outcome(LAYOUTS[layout](doc), tmp_path) == walker_outcome(doc, monkeypatch)
    echo = scenario.load_scenario(tmp_path / "doc.json").raw     # its tables hold their text only
    assert outcome(echo) == walker_outcome(doc, monkeypatch)


@pytest.mark.parametrize("name,table,mutation", list(mutated_cases()))
def test_mutated_texts_load_like_the_walker(name, table, mutation, tmp_path, monkeypatch):
    """The parse differential on the JSON text route: numbers arrive as tokens,
    a string stays a string, and the overflow case is the token 1e400."""
    doc = documents()[name]
    owner, key = block_tables(doc)[table]
    block = owner[key][-1] if key in ("coefficients", "operators") else owner[key]
    MUTATIONS[mutation](block)
    text = json.dumps(doc)
    if mutation == "overflow_float":
        assert text.count("Infinity") == 1
        text = text.replace("Infinity", "1e400")
    got = load_outcome(text, tmp_path)
    assert got == walker_outcome(doc, monkeypatch)
    if mutation == "string_leaf":
        kind, (error, message, field_path) = got
        assert error is scenario.ScenarioError and message == f"{field_path}: expected a number"


SPELLINGS = ["-0", "-0.0", "1.50", "1E+2", "10"]  # numbers as only a file writes them


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("name", sorted(documents()))
def test_spelled_numbers_load_and_echo_as_written(name, spelling, tmp_path, monkeypatch):
    """A table's first number spelled as the file may spell it: the parse gives
    the walker's bits on the stdlib decode (``-0`` is the int 0), and the
    echo writes the spelling, in JSON and in CSV."""
    doc = documents()[name]
    owner, key = block_tables(doc)[0]
    block = owner[key][-1] if key in ("coefficients", "operators") else owner[key]
    set_leaf(0, "@leaf")(block)
    text = json.dumps(doc).replace('"@leaf"', spelling)
    assert load_outcome(text, tmp_path) == walker_outcome(json.loads(text), monkeypatch)
    raw = scenario.load_scenario(tmp_path / "doc.json").raw
    read_owner, read_key = block_tables(raw)[0]
    assert type(read_owner[read_key]) is scenario.TokenBlock
    as_written = json.loads(text, parse_float=str, parse_int=str)
    assert json.loads(emitted(raw, "json"), parse_float=str, parse_int=str) == as_written
    assert emitted(raw, "csv") == csv_report(as_written)


@pytest.mark.parametrize("table", [
    "[01]", "[+1]", "[1.]", "[.5]", "[1 2]", "[1,,2]", "[1,]", "[[1,2]3]",
    "[[0.5, 1] 2, [3, 4]]",                     # a stray number between two rows
    "[[1,]2]", "[[]1]", "[[1],2[]]", "[[1,]]2",  # a number on the wrong side of a bracket
    "[[1],[]]", "[[]]", "[]", "[[1, 2], 3, [4, 5]]",
])
def test_table_texts_load_as_json_reads_them(table, tmp_path, monkeypatch):
    """A table's text that only a file can hold: invalid JSON is refused with
    the decoder's message, line and column, and valid JSON that is no table
    reaches the walker."""
    doc = documents()["additive_full"]
    doc["perturbation"]["operator"] = "@table"
    text = json.dumps(doc, indent=2).replace('"@table"', table)
    try:
        expected = walker_outcome(json.loads(text), monkeypatch)
    except json.JSONDecodeError as exc:
        expected = "raised", (scenario.ScenarioError, f": not valid JSON: {exc}", "")
    assert load_outcome(text, tmp_path) == expected


def leaves(value):
    return [leaf for item in value for leaf in leaves(item)] if type(value) is list else [value]


def depth(value):
    return 1 + max(map(depth, value), default=0) if type(value) is list else 0


def holds_block(value):
    if type(value) is list:
        return any(map(holds_block, value))
    return type(value) is scenario.TokenBlock


LEAVES = (
    st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308, 10**400, -(10**309)])
)
RECTANGULAR = st.lists(st.integers(1, 3), min_size=1, max_size=6).flatmap(
    lambda shape: st.lists(LEAVES, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda flat: nest(flat, shape)
    )
)
RAGGED = st.recursive(LEAVES, lambda children: st.lists(children, max_size=3), max_leaves=12).filter(
    lambda value: 1 <= depth(value) <= 6
)


def shift_leaf(table):
    """``table`` with the last number of its first row moved to its last row:
    ragged, with as many numbers as its first rows promise."""
    rows = [table]
    while type(rows[0][0]) is list:
        rows = [row for parent in rows for row in parent]
    rows[-1].append(rows[0].pop())
    return table


SHIFTED = RECTANGULAR.filter(lambda table: type(table[-1]) is list).map(shift_leaf)


def assert_read_as_json(text):
    """The reader of ``load_scenario`` decodes ``text``, whose ``notes`` may be a
    table, as ``json.loads`` does: it raises the same error at the same
    place, and holds a list as a TokenBlock exactly when the stdlib decode of
    its text is a table (``oracles.table_shape``), with that shape, the
    floats of its leaves bit for bit and the list's own text; a list that
    is no table holds no TokenBlock."""
    try:
        decoded = json.loads(text)["notes"]
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as got:
            scenario._Reader().decode(text)
        assert (got.value.msg, got.value.pos) == (exc.msg, exc.pos)
        return
    read = scenario._Reader().decode(text)
    shape = table_shape(decoded)
    if not shape:
        assert not holds_block(read["notes"])
        return
    block = read["notes"]
    assert type(block) is scenario.TokenBlock and block.shape == shape
    assert block.values.tobytes() == np.array([float(x) for x in leaves(decoded)]).tobytes()
    assert json.loads(b"".join(block.pieces)) == decoded and read.get("after", 1) == 1


@settings(max_examples=300, deadline=None)
@given(RECTANGULAR | RAGGED | SHIFTED, st.sampled_from(sorted(LAYOUTS)))
@example([[1], []], "compact")
@example([[1, 2], [3], [4, 5, 6]], "indented")
@example([[[1, 2]], [[3], [4]]], "tabs")
@example([[]], "tight")
@example([[1, 2.5], [3, 4]], "crlf")
def test_tables_are_recognised_as_json_reads_them(value, layout):
    """Valid JSON, tables or not, in every layout (``assert_read_as_json``)."""
    assert_read_as_json(LAYOUTS[layout]({"notes": value, "after": 1}))


@settings(max_examples=300, deadline=None)
@given(RECTANGULAR, st.sampled_from(sorted(LAYOUTS)), st.integers(0, 10**6), st.integers(0, 10**6),
       st.booleans())
@example([[1, 2]], "compact", 3, 5, True)                   # [[1, ]2]
@example([[1], [2]], "tight", 3, 6, False)                  # [[1],2[]]
def test_moved_brackets_read_as_json_reads_them(table, layout, which, to, last):
    """A table's text with one bracket moved elsewhere in it, as the list last
    in its object or before another key: the reader raises ``json.loads``'s
    error or reads it as that does (``assert_read_as_json``).  A number
    moved across a bracket keeps the skeleton of brackets and commas and
    the count of numbers."""
    text = LAYOUTS[layout](table)
    brackets = [i for i, char in enumerate(text) if char in "[]"]
    at = brackets[which % len(brackets)]
    text = text[:at] + text[at + 1:]
    to %= len(text) + 1
    text = text[:to] + LAYOUTS[layout](table)[at] + text[to:]
    assert_read_as_json('{"notes": %s%s}' % (text, "" if last else ', "after": 1'))


def plain(value):
    """``value`` with each TokenBlock as the tuple of its fields, for comparison."""
    if type(value) is scenario.TokenBlock:
        return value.shape, value.values.tolist(), value.pieces
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return list(map(plain, value))
    return value


@pytest.mark.parametrize("name", sorted(documents()))
def test_parse_leaves_its_document_alone(name):
    doc = documents()[name]
    read = scenario._Reader().decode(json.dumps(doc))
    for given in (doc, read):
        before = copy.deepcopy(given)
        scenario.parse_scenario(given)
        assert plain(given) == plain(before)


def test_off_diagonal_sampled_entry_names_its_node():
    doc = documents()["sampled_diagonal"]
    off_diagonal(doc["family"]["operators"][3])
    with pytest.raises(scenario.ScenarioError) as caught:
        scenario.parse_scenario(doc)
    assert str(caught.value) == (
        "family.operators[3]: operator blocks: diagonal descriptor requires zero off-diagonal entries"
    )
    assert caught.value.field_path == "family.operators[3]"


@pytest.mark.parametrize("walker", [False, True], ids=["bulk", "walker"])
@pytest.mark.parametrize("field", ["measure.b", "family.coefficients[1][0][0][0][0][1]"])
def test_huge_int_exits_with_its_field_path(field, walker, tmp_path, monkeypatch, capsys):
    doc = json.loads((SCENARIOS / "diagonal_slope.json").read_text())
    if field == "measure.b":
        doc["measure"]["b"] = 10**400
    else:
        doc["family"]["coefficients"][1][0][0][0][0][1] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    if walker:
        monkeypatch.setattr(scenario, "_numeric_block", lambda value: None)
    assert main(["analyze", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenario error: {field}: number must be finite\n"


def test_fast_path_keeps_the_sign_of_zero():
    doc = documents()["sampled_full"]
    negative_zeros(doc["family"]["operators"][0])
    entry = scenario.parse_scenario(doc).family.flats[0, 0, 0]
    assert np.signbit(entry.real) and np.signbit(entry.imag)


@pytest.mark.parametrize("name", ["diagonal_slope", "sampled_full"])
def test_valid_blocks_bypass_the_walker(name, monkeypatch):
    def walker_pair(value, path):
        raise AssertionError(f"walker reached {path}")

    monkeypatch.setattr(scenario, "_complex_pair", walker_pair)
    scenario.parse_scenario(documents()[name])


# ------------------------------------------------------------------ emit

NUMBERS = (
    st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, -1e22])
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1])
)
TEXT = st.text() | st.sampled_from(["é", "Ωmega ∑", " ", "tab\t", 'q"uote,comma\nline', "%s"])
KEYS = TEXT | st.sampled_from(["", "a,b", "x[0]", "field.value", "\r"])
SCALARS = NUMBERS | TEXT | st.booleans() | st.none()


def nest(flat, shape):
    for size in reversed(shape[1:]):
        flat = [flat[i:i + size] for i in range(0, len(flat), size)]
    return flat


BLOCKS = st.lists(st.integers(1, 3), min_size=1, max_size=4).flatmap(
    lambda shape: st.lists(NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda flat: nest(flat, shape)
    )
)


def damage(block, how):
    """A block with a bool leaf, one row cut short, or one row a tuple."""
    row = block
    while isinstance(row[0], list):
        row = row[0]
    if how == "bool":
        row[0] = True
    elif how == "ragged":
        row.pop()
    elif how == "tuple" and row is not block:
        parent = block
        while parent[0] is not row:
            parent = parent[0]
        parent[0] = tuple(row)
    return block


DAMAGED = st.builds(damage, BLOCKS, st.sampled_from(["bool", "ragged", "tuple"]))
VALUES = st.recursive(
    SCALARS | BLOCKS | DAMAGED,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=24,
)


def emitted(report, fmt):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(report, fmt)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({"operators": [[[[0.5, -0.0]], [[1e22, 5e-324]]]], "empty": [[], {}, ()]})
@example({"ints": {1: [1.0, 2.0], 2: {"x": math.nan}}, "np": [np.float64(0.1), 1.0]})
@example({"spectrum": [1.0, math.inf, 2.0], "huge": [2**64 + 1, 0.5], "mixed": [1, 2.5]})
def test_json_matches_stdlib(report):
    assert emitted(report, "json") == json.dumps(report, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({'a,b': [[1.0, 2.0]], 'q"': [3], "line\nbreak": [[0.5]], "ok": [[math.nan, -0.0]]})
@example({"np": [np.float64(0.1), 1.0], "bools": [True, 1.5], "t": (1.0, 2.0)})
def test_csv_matches_row_walker(report):
    assert emitted(report, "csv") == csv_report(report)


def tokenized(value):
    """``value`` with each finite float in its lists and dicts, the containers a
    JSON document holds, replaced by its token: the bytes of its repr."""
    if type(value) is float and math.isfinite(value):
        return repr(value).encode()
    if type(value) is dict:
        return {key: tokenized(item) for key, item in value.items()}
    if type(value) is list:
        return list(map(tokenized, value))
    return value


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example({"mixed": [[1, 2.5], [0.5, 3]], "deep": [[[[0.25]]]], "pair": [1e-300, -0.0]})
def test_tokens_are_written_as_their_numbers(report):
    tokens = tokenized(report)
    assert emitted(tokens, "json") == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert emitted(tokens, "csv") == csv_report(report)


# Reports as the commands build them: float arrays, TokenBlocks and lists of
# tokens, under keys the CSV paths must escape or quote.  The oracles are
# json.dumps and the csv.writer walk ``csv_report`` on ``stdlib_plain(report)``:
# arrays as their lists, tokens as numbers.

SPECIAL = [-0.0, 5e-324, 1e-05, 1e16, 1e308, -1e308, 0.1, 2.0, -3.0, 1e22]
FINITE = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    -(2**53), 2**53
).map(float)
SHAPES = st.lists(st.integers(1, 3), min_size=1, max_size=6)


def shaped(shape, numbers):
    return st.lists(numbers, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda flat: np.array(flat, dtype=float).reshape(shape)
    )


def spoil(arr, index, value):
    arr.flat[index % arr.size] = value
    return arr


FINITE_ARRAYS = SHAPES.flatmap(lambda shape: shaped(shape, FINITE))
NONFINITE_ARRAYS = st.builds(
    spoil, FINITE_ARRAYS, st.integers(0, 728), st.sampled_from([math.nan, math.inf, -math.inf])
)
OTHER_ARRAYS = st.sampled_from([np.zeros((0,)), np.zeros((2, 0)), np.arange(6).reshape(2, 3)])


def token_block(arr, cut):
    """A TokenBlock of ``arr`` written by json.dumps, its text cut into pieces of ``cut`` bytes."""
    text = json.dumps(arr.tolist()).encode()
    pieces = [text[i:i + cut] for i in range(0, len(text), cut)]
    return scenario.TokenBlock(arr.shape, arr.ravel(), pieces)


TOKEN_BLOCKS = st.builds(token_block, FINITE_ARRAYS, st.integers(1, 400))
TOKEN = (FINITE | st.integers(-(2**70), 2**70)).map(lambda number: repr(number).encode())
MIXED = SHAPES.flatmap(lambda shape: st.lists(
    TOKEN | st.integers(-(2**70), 2**70), min_size=math.prod(shape), max_size=math.prod(shape)
).map(lambda flat: nest(flat, shape)))
PATH_KEYS = st.text(alphabet="ab%s,\"\r\n é∑", max_size=6) | st.sampled_from(
    ["%", "%s", "%%", "100%s %%", ",", '"', '""', "\r", "\n", "a,b", 'q"', "line\nbreak", "Ωmega ∑"]
)
REPORTS = st.recursive(
    FINITE_ARRAYS | NONFINITE_ARRAYS | OTHER_ARRAYS | TOKEN_BLOCKS | MIXED
    | TOKEN | NUMBERS | st.none() | st.booleans(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(PATH_KEYS, children, max_size=4),
    max_leaves=12,
).map(lambda value: {"report": value})


def stdlib_plain(value):
    """``value`` as the stdlib writers take it: an ndarray as its ``tolist()``, a
    TokenBlock as its decoded text and a token as its number."""
    if type(value) is np.ndarray:
        return value.tolist()
    if type(value) is scenario.TokenBlock:
        return json.loads(b"".join(value.pieces))
    if type(value) is bytes:
        return json.loads(value)
    if type(value) is dict:
        return {key: stdlib_plain(item) for key, item in value.items()}
    if type(value) is list:
        return list(map(stdlib_plain, value))
    return value


@settings(max_examples=300, deadline=None)
@given(REPORTS)
@example({"report": {"%s,\"\r\né": np.array([[-0.0, 5e-324], [1e-05, 1e16]]), "%%": [b"1e+308", 7]}})
@example({"report": [np.array([[[math.nan]]]), np.zeros((1, 0)), token_block(np.array([1e308, 3.0]), 5)]})
def test_writers_match_the_stdlib_on_built_reports(report):
    plain = stdlib_plain(report)
    assert emitted(report, "json") == json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert emitted(report, "csv") == csv_report(plain)


def leaf_count(value):
    return sum(map(leaf_count, value)) if isinstance(value, (list, tuple)) else 1


def lists_in(value):
    """Every list and tuple in a report, the nested ones too; arrays are not walked."""
    if isinstance(value, dict):
        return [found for item in value.values() for found in lists_in(item)]
    if isinstance(value, (list, tuple)):
        return [value, *(found for item in value for found in lists_in(item))]
    return []


def test_computed_tables_reach_the_writers_as_arrays(tmp_path, monkeypatch):
    """No table the commands compute is turned into nested lists on its way out:
    outside the scenario's echo, the only lists the writers see are the
    two-number pairs of bounds."""
    path = tmp_path / "full.json"
    path.write_text(json.dumps(generated_doc("full", 2, 3, 8, "parametric", seed=7)))
    reports, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, fmt: reports.append(report) or emit(report, fmt))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--scenario", str(path)]) == 0
        assert main(["dual", "--scenario", str(path), "--format", "csv"]) == 0
    received = [found for report in reports for key, section in report.items() if key != "scenario"
                for found in lists_in(section)]
    assert received and max(map(leaf_count, received)) <= 2
    analyzed, dual = reports
    assert type(analyzed["frame"]["spectrum"]) is np.ndarray
    assert analyzed["frame"]["spectrum"].shape == (6,)
    for section in (analyzed["dual"], dual["dual"]):
        assert type(section["coefficients"]) is np.ndarray
        assert section["coefficients"].shape[1:] == (3, 3, 2, 2, 2)  # degree, n, n, k, k, [re, im]


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_json_reports_keep_the_stdlib_layout(command, path, capsys):
    main([command, "--scenario", str(path)])
    out = capsys.readouterr().out
    if out:
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------------ echo

@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", sorted(documents()))
def test_echo_matches_the_float_document(name, layout, tmp_path, capsys):
    """The report's ``scenario`` section, JSON and CSV, against the stdlib writers
    on the float-decoded document: its numbers are written in shortest repr
    form, so echoing their tokens changes no byte."""
    doc = documents()[name]
    path = tmp_path / "doc.json"
    path.write_text(LAYOUTS[layout](doc))
    floats = json.loads(path.read_text())
    main(["analyze", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert out == json.dumps({**json.loads(out), "scenario": floats}, indent=2, sort_keys=True) + "\n"
    main(["analyze", "--scenario", str(path), "--format", "csv"])
    rows = [r for r in capsys.readouterr().out.splitlines(True) if r.startswith("scenario.")]
    assert rows == csv_report({"scenario": floats}).splitlines(True)[1:]


TOKENS = {  # path in the coefficient table -> the pair as written
    (0, 0, 0, 0, 0): ("1.50", "1e0"),
    (0, 0, 0, 0, 1): ("1e-400", "1e-400"),   # an off-diagonal entry that reads as zero
    (0, 0, 0, 1, 1): ("1E+2", "0.0"),
}


def token_scenario(tmp_path):
    """diagonal_slope.json with the pairs of TOKENS and ``measure.b`` written as 1e0."""
    doc = json.loads((SCENARIOS / "diagonal_slope.json").read_text())
    doc["measure"]["b"] = "@b"
    for i, index in enumerate(TOKENS):
        node = doc["family"]["coefficients"]
        for j in index:
            node = node[j]
        node[:] = [f"@{i}re", f"@{i}im"]
    text = json.dumps(doc, indent=2)
    text = text.replace('"@b"', "1e0")
    for i, (re_part, im_part) in enumerate(TOKENS.values()):
        text = text.replace(f'"@{i}re"', re_part).replace(f'"@{i}im"', im_part)
    path = tmp_path / "tokens.json"
    path.write_text(text)
    return path


def test_echo_writes_each_number_as_written(tmp_path, capsys):
    path = token_scenario(tmp_path)
    sc = scenario.load_scenario(path)
    assert type(sc.raw["family"]["coefficients"]) is scenario.TokenBlock
    for index, (re_part, im_part) in TOKENS.items():
        assert sc.family.coefficients[index] == complex(float(re_part), float(im_part))
    assert sc.rule.nodes.tolist() == gauss_legendre(0.0, 1.0, 32).nodes.tolist()
    as_written = json.loads(path.read_text(), parse_float=str)

    assert main(["analyze", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out, parse_float=str)
    assert report["scenario"] == as_written
    coefficients = report["scenario"]["family"]["coefficients"]
    for index, pair in TOKENS.items():
        node = coefficients
        for j in index:
            node = node[j]
        assert tuple(node) == pair

    assert main(["analyze", "--scenario", str(path), "--format", "csv"]) == 0
    values = dict(row.split(",", 1) for row in capsys.readouterr().out.splitlines()[1:])
    assert values["scenario.measure.b"] == "1e0"
    for index, (re_part, im_part) in TOKENS.items():
        field = "scenario.family.coefficients" + "".join(f"[{j}]" for j in index)
        assert (values[field + "[0]"], values[field + "[1]"]) == (re_part, im_part)


def test_echo_keeps_every_number_as_written(tmp_path, capsys):
    """Tables of numbers, ragged and mixed lists, and numbers in nested objects
    all echo their tokens, in JSON and in CSV."""
    doc = json.loads((SCENARIOS / "diagonal_slope.json").read_text())
    text = json.dumps(doc)[:-1] + (
        ', "notes": {"ragged": [[1.50, 2], [3e0]], "mixed": ["x", 1.50, {"y": 2.50, "z": [1E+2]}],'
        ' "flat": [1.0, -0.0, 10], "deep": [[[[0.250]]]], "empty": [[]]}}'
    )
    path = tmp_path / "notes.json"
    path.write_text(text)
    assert main(["analyze", "--scenario", str(path)]) == 0
    report = json.loads(capsys.readouterr().out, parse_float=str)
    assert report["scenario"] == json.loads(text, parse_float=str)
    assert main(["analyze", "--scenario", str(path), "--format", "csv"]) == 0
    values = dict(row.split(",", 1) for row in capsys.readouterr().out.splitlines()[1:])
    assert values["scenario.notes.ragged[0][0]"] == "1.50"
    assert values["scenario.notes.mixed[2].z[0]"] == "1E+2"
    assert values["scenario.notes.flat[1]"] == "-0.0"
    assert values["scenario.notes.deep[0][0][0][0]"] == "0.250"
