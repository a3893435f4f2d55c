"""Pins on the package's structure, read from its syntax trees.

Each names one job that one module or function owns, such as forming a
node power t^p, refusing a value that is not finite, or spelling the text
of a number table, and fails when another module takes that job up.
"""

import ast
from pathlib import Path

from opframes import codec


def _sources():
    """(file name, syntax tree) of every module of the package."""
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(Path(codec.__file__).parent.glob("*.py"))]


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


# Names that only the codec spells: the table templates and their fill, a TokenBlock's
# text, and the stdlib's JSON and CSV text machinery.
CODEC_ONLY = {"_block_template", "_array_rows", "_write_table", "_csv_block", "_csv_row", "pieces", "tokens",
              "encode_basestring_ascii", "make_scanner", "writer"}


def _spelled(node):
    """The name a node spells: a name's, an attribute's or an imported name's; else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or (
        node.name if isinstance(node, ast.alias) else None)


def test_only_the_codec_spells_the_text_of_number_tables():
    # a table template is built and filled, and a TokenBlock's text read, in codec.py
    # alone, so a new spelling of tables changes one module
    sources = dict(_sources())
    sites = [(name, *site) for name, tree in sources.items() if name != "codec.py"
             for site in _sites(tree, lambda node: _spelled(node) in CODEC_ONLY)]
    assert sites == []
    assert CODEC_ONLY <= {_spelled(node) for node in ast.walk(sources["codec.py"])}


def test_the_cli_imports_no_text_machinery():
    tree = dict(_sources())["cli.py"]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert imported.isdisjoint({"json", "json.encoder", "json.decoder", "json.scanner", "csv", "io"}), imported


def _slot_rows(node):
    """``1 if <descriptor>.is_diagonal else <descriptor>.dim``, either way round."""
    if not (isinstance(node, ast.IfExp) and getattr(node.test, "attr", None) == "is_diagonal"):
        return False
    return {getattr(branch, "attr", getattr(branch, "value", None)) for branch in (node.body, node.orelse)} == {1, "dim"}


def test_the_rows_of_a_vector_slot_block_are_spelled_in_one_function():
    # hilbert_module owns the slot layout, so it alone says how many rows a vector's slot block has
    sites = [(name, *site) for name, tree in _sources() for site in _sites(tree, _slot_rows)]
    assert [site[:2] for site in sites] == [("hilbert_module.py", "_slot_rows")], sites


# The names a table of algebra elements goes by: the value types' own arrays, a family's
# coefficient or node-operator table, and the array that algebra._as_blocks checks.
TABLES = {"arr", "table", "coefficients", "operators", "entries", "stack", "blocks", "samples"}


def _text(node):
    """The literal text of a string or f-string, its replacement fields left out."""
    parts = node.values if isinstance(node, ast.JoinedStr) else [node]
    return "".join(part.value for part in parts if isinstance(part, ast.Constant) and isinstance(part.value, str))


def _table_finiteness_check(node):
    """A ``_finite`` call whose checked value is a name or attribute that a table goes by, unless it
    refuses a computed table past the float range, an overflow that the birth check cannot name."""
    return (isinstance(node, ast.Call) and _spelled(node.func) == "_finite" and bool(node.args)
            and isinstance(node.args[0], (ast.Name, ast.Attribute)) and _spelled(node.args[0]) in TABLES
            and not any("past the float range" in _text(arg) for arg in node.args[1:]))


def test_tables_of_algebra_elements_are_checked_for_finiteness_once_at_birth():
    # algebra._as_blocks refuses a non-finite entry when a value or family is built,
    # so no consumer of a built value checks it again; a value computed from finite
    # ones is refused by name where it overflows, before it is built
    sites = [(name, *site) for name, tree in _sources() for site in _sites(tree, _table_finiteness_check)]
    assert [site[:2] for site in sites] == [("algebra.py", "_as_blocks")], sites


def _imports_dataclasses(node):
    """An ``import dataclasses`` or a ``from dataclasses import ...``."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"


def test_no_module_imports_dataclasses():
    # the value classes are plain classes on algebra._Frozen: a dataclass generates and
    # compiles its methods when its module is imported, which every fresh run paid for
    sites = [(name, *site) for name, tree in _sources() for site in _sites(tree, _imports_dataclasses)]
    assert sites == []
