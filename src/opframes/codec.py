"""The text of scenarios and reports: the JSON reader and the JSON and CSV writers.

A table of numbers is a rectangular nested list of JSON numbers, such as a
family's coefficient table; a complex number is an innermost [re, im] pair
(``_pairs``).  The reader recognises a table from its text
(``_token_block``) and holds it as a ``TokenBlock``: its shape, its numbers
decoded as one flat float array (``_decode``) and its JSON text.  Any other
float is read as its token, the bytes of its own text.

The writers write ``json.dumps(report, indent=2, sort_keys=True)``, or one
``field,value`` row per leaf as ``_csv_row`` writes it.  A token is written
as it reads, so the echo writes each number as the scenario file does, and
a computed number as its repr.  A table, a TokenBlock or a float array, is
written by ``_write_table`` from one layout template filled with its tokens as
bytes or its leaves' reprs as str; any list is written item by item.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import chain, repeat
from json.decoder import WHITESPACE, JSONObject
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner

import numpy as np

from .exceptions import ScenarioError


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
        has dropped it after the parse, its text decoded again as it was read
        (``_decode``)."""
        return _decode(b"".join(self.pieces)) if self.values is None else self.values


_SCAN = json.JSONDecoder().scan_once    # the C scanner, numbers read as by ``json.loads``
_SEPARATORS = bytes.maketrans(b"[],", b"   ")
_BRACKETS = bytes.maketrans(b"[]", b"  ")
_NUMBER = bytes.maketrans(b"123456789.eE+-", b"0" * 14)  # each byte of a number as 0
_PIECE = 400  # characters, below the 512 bytes of the small-object allocator


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


def _decode(raw):
    """A table's text ``raw`` (bytes) as the flat float array of its numbers:
    with its brackets blanked it is one flat list, which the C scanner
    decodes, so JSON's own number grammar decides every leaf (``-0`` is the
    int 0) and no nested list is built."""
    flat, _ = _SCAN(f"[{raw.translate(_BRACKETS).decode()}]", 0)
    return np.array(flat, dtype=float)


def _token_block(text, start):
    """``(TokenBlock, end)`` of the list that starts at ``text[start]`` if it is
    a rectangular table of numbers only, each within float range; else None.

    The table is read from its text, never as nested lists.  Its text runs
    to the next key or closing brace, less trailing commas and whitespace.
    Its skeleton (``_skeleton``) must be exactly a shape's (``_table_shape``),
    which leaves no room for any other character, and its numbers are
    decoded as one flat list (``_decode``), so each ``0`` of the skeleton is
    one number.  A declined list goes to the reader's route for other
    values, which raises the same errors as ever.
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
    _SCAN("[" * depth + "]" * depth, 0)
    shape = _table_shape(skeleton, depth)
    if shape is None:
        return None
    try:
        values = _decode(raw)                # its floats' memory, freed, serves the pieces
    except (StopIteration, ValueError, OverflowError):  # not JSON, or an int beyond float range
        return None
    pieces = [raw[i:i + _PIECE] for i in range(0, len(raw), _PIECE)]
    return TokenBlock(shape, values, pieces), start + len(raw)


class _Reader(json.JSONDecoder):
    """The decoder of ``load_scenario``: objects member by member, a table of
    numbers as a TokenBlock read from its text (``_token_block``), and any
    other value with each float as its token."""

    def __init__(self):
        super().__init__()
        self.blocks = []                      # every TokenBlock read
        self.parse_float = str.encode
        tokens = make_scanner(self)

        def scan_once(text, idx):
            head = text[idx:idx + 1]
            if head == "{":
                return JSONObject((text, idx + 1), self.strict, scan_once, None, None, self.memo)
            if head == "[":
                block = _token_block(text, idx)
                if block is not None:
                    self.blocks.append(block[0])
                    return block
            return tokens(text, idx)

        self.scan_once = scan_once

    def decode(self, s):
        """``json.loads(s)``, with no frame between this one and ``scan_once``,
        so that lists nest as deep here as ``json.loads`` reads them: 994
        levels, called from one frame below a fresh interpreter's top, at the
        default recursion limit of 1000.  An object level takes two frames,
        ``scan_once`` and ``JSONObject``, so objects nest only 497 deep."""
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


def _pairs(arr):
    """Complex ndarray -> its float view, shape (..., 2), with innermost [re, im] pairs."""
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    return arr.view(np.float64).reshape(arr.shape + (2,))


def _block_template(shape, level):
    """The indented json layout of a nested list of ``shape`` at ``level``, one %s per leaf."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        inner = "\n" + "  " * (level + depth + 1)
        text = f"[{inner}{(',' + inner).join([text] * shape[depth])}\n{'  ' * (level + depth)}]"
    return text


def _array_rows(value):
    """An array's leaves, row by row of its outermost axis, as ``_write_table`` fills
    a row template with them: ``(slots, kept)``.  ``slots`` has one text per
    leaf position of a row: "0.0" where a float64 leaf is +0.0 in every row
    (all its bits 0, so -0.0 keeps its own text), "%s" elsewhere.  They are
    written into the template once, and ``kept``, a 2-d array of the
    remaining leaves, is repr'd to fill its %s."""
    rows = value.reshape(math.prod(value.shape[:1]), math.prod(value.shape[1:]))
    zero = np.zeros(rows.shape[1], bool)
    if rows.dtype == np.float64:
        zero = ~rows.view(np.uint64).any(axis=0)
    slots = tuple(np.where(zero, "0.0", "%s").tolist())
    return slots, rows[:, ~zero] if zero.any() else rows


def _write_table(value, write, level=0, prefix=None):
    """Write a table's text with ``write`` and return True, else return False: its
    JSON at nesting ``level``, a row of its outermost axis at a time, or, given its
    path ``prefix``, its CSV rows (``_csv_block``).  Tokens fill the layout template
    as bytes, a float array's reprs as str after its ``slots`` (``_array_rows``).  In
    CSV any array is a table; in JSON a finite float array with leaves, as json.dumps
    spells NaN, infinities and empty lists its own way."""
    if type(value) is TokenBlock:
        shape, slots, texts = value.shape, None, value.tokens()
    elif type(value) is np.ndarray and (prefix is not None or value.ndim and value.size
                                        and value.dtype.kind == "f" and np.isfinite(value).all()):
        shape, (slots, kept) = value.shape, _array_rows(value)
        texts = list(map(repr, kept.ravel().tolist()))
    else:
        return False
    if prefix is not None:
        write(_csv_block(prefix, shape, texts, slots))
        return True
    row = _block_template(shape[1:], level + 1)
    row = "\n" + "  " * (level + 1) + (row if slots is None else row % slots)
    first, other, text = "[" + row, "," + row, str
    if slots is None:
        first, other, text = first.encode(), other.encode(), bytes.decode
    rows = zip(*[iter(texts)] * (len(texts) // shape[0])) if texts else repeat((), shape[0])
    for fill in rows:
        write(text(first % fill))
        first = other
    write("\n" + "  " * level + "]")
    return True


def _write_json(value, write):
    """Write ``json.dumps(value, indent=2, sort_keys=True)``, an ndarray written as
    its ``tolist()``: a token as it reads, a table (``_write_table``) from its
    template, any other array as its nested lists, and a list item by item.
    Other types, and non-finite numbers, go to the stdlib.  Open containers
    are kept on a stack, not in Python frames, so any depth the reader reads
    can be written."""
    stack = []                             # (items left, closing text) of each open container
    while True:
        kind = type(value)
        depth = len(stack)
        inner = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth
        if kind is str:
            write(encode_basestring_ascii(value))
        elif value is None:
            write("null")
        elif kind is bool:
            write("true" if value else "false")
        elif kind is int or (kind is float and value - value == 0.0):
            write(repr(value))
        elif kind is bytes:
            write(value.decode())
        elif kind is dict and value and set(map(type, value)) == {str}:
            keys = sorted(value)
            marks = chain("{", repeat(","))
            openings = [f"{mark}{inner}{encode_basestring_ascii(key)}: " for mark, key in zip(marks, keys)]
            stack.append((zip(openings, map(value.__getitem__, keys)), close + "}"))
        elif kind is list and value:
            openings = chain(["[" + inner], repeat("," + inner))
            stack.append((zip(openings, value), close + "]"))
        elif kind is TokenBlock or kind is np.ndarray:
            if not _write_table(value, write, depth):  # an array that is no table: as its nested lists
                value = value.tolist()
                continue
        else:
            write(json.dumps(value, indent=2, sort_keys=True).replace("\n", close))
        while stack:                       # the next value, after closing every finished container
            items, closing = stack[-1]
            opening, value = next(items, (None, None))
            if opening is not None:
                write(opening)
                break
            write(closing)
            stack.pop()
        else:
            return


def _csv_row(fields):
    """One csv row of ``fields`` as csv.writer writes it with "\\n" line ends, but
    for a field that holds a carriage return, which is quoted too: csv.reader
    splits a row at a bare "\\r"."""
    row = io.StringIO()
    csv.writer(row, lineterminator="\r\n").writerow(fields)
    return row.getvalue()[:-2] + "\n"


def _csv_block(prefix, shape, texts, slots=None):
    """The csv rows ``prefix[i0]...[im],text`` of a table of ``shape``, as
    ``_csv_row`` writes them, from one template built axis by axis, and
    filled with ``texts``: all str, or all bytes (tokens), filled encoded and
    decoded once.  A float array's ``slots`` (``_array_rows``) are written
    into the rows of one outermost index first.  Only the prefix can need quoting."""
    head = _csv_row([prefix, ""])[:-2]     # the prefix as a field
    tail = '"' if head != prefix else ""   # it is quoted: the path's closing quote
    text = "\0" + tail + ",%s\n"
    for size in reversed(shape[1:]):       # "\0" marks where the next outer index goes
        text = "".join([text.replace("\0", f"\0[{i}]") for i in range(size)])
    if slots is not None:
        text %= slots
    for size in shape[:1]:
        text = "".join([text.replace("\0", f"\0[{i}]") for i in range(size)])
    text = text.replace("\0", head.removesuffix(tail).replace("%", "%%"))
    if texts and type(texts[0]) is bytes:  # surrogatepass: a key may hold any str
        return (text.encode("utf-8", "surrogatepass") % tuple(texts)).decode("utf-8", "surrogatepass")
    return text % tuple(texts)


def _write_csv(report, buffer):
    """Write ``field,value`` rows, one per leaf, as ``_csv_row`` writes them: a table
    (``_write_table``) from its template, a list or tuple item by item, a token as it reads."""
    buffer.write(_csv_row(["field", "value"]))

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        elif type(value) is TokenBlock or type(value) is np.ndarray:
            _write_table(value, buffer.write, prefix=prefix)
        elif type(value) is bytes:
            walk(prefix, value.decode())
        else:  # None is written as an empty field
            buffer.write(_csv_row([prefix, value]))

    walk("", report)


class _Parts(list):
    """A report's pieces, joined once: no buffer of several MB grows by realloc."""
    write = list.append
