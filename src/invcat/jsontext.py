"""The JSON writer behind every report and serialized representation.

``dumps(doc)`` returns exactly ``json.dumps(doc, indent=2, sort_keys=True)``,
byte for byte.  On CPython that call skips the C encoder whenever ``indent``
is set and yields every scalar through a chain of Python generators; here
each container's text is built with one ``str.join``.

A refutation prints the same few subspaces in hundreds of witnesses, each
witness a dict with the same keys.  Three memos, each living for one
``dumps`` call, render that repetition once per indent depth:

* *by identity*: a ``tuple`` is rendered once per ``(id, depth)``.  The memo
  holds the tuple, so no id is reused within the call, and nothing in the
  document changes while it is written.  Every witness hands out the same
  cached ``Subspace.json_rows()`` tuples, which are then neither scanned nor
  hashed again.
* *by value*: a matrix -- a list of rows whose entries are exact ``int`` or
  ``str`` -- is rendered once per content, so callers may hand out fresh
  lists.  Bools and floats are left out of it because they compare equal to
  ints (``True == 1``) yet print differently.
* *by key set*: a ``dict`` whose keys are all exact ``str`` takes its sorted
  key order and the pre-quoted ``{``/``,`` + newline + ``"key": `` prefixes
  from a memo keyed by its keys in insertion order.  Other keys are never
  stored, for the same reason as bools in rows: ``1``, ``True`` and ``1.0``
  are equal keys that print differently.

One value that is not JSON is accepted: a ``Splice``, whose maker writes
its text.  ``dumps`` calls its ``write(render, depth)`` with the call's
``_Render`` and the depth at which the value stands, and copies the text
returned.  The maker writes the text ``dumps`` would write for the value it
stands for.  It may reuse the memos through ``render.value`` (any value at
any depth) and ``render.layout`` (a dict's key frame), and lay out a
container with ``block`` and ``separator``.  A refutation's witness list is
one: each element's basis is rendered once, and each run of witnesses that
share b is one join of the c's fragments within a fixed frame.  A splice is
for ``dumps`` alone; the values callers read, the reports' ``to_json()``,
hold plain lists.  Matrices are also written from a frame fixed per depth,
with one join per row.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, List, Tuple

_INDENT = "  "
_ROW_TYPES = frozenset((list, tuple))
_ENTRY_TYPES = frozenset((int, str))
_KEY_TYPES = frozenset((str,))


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, built without generators;
    each ``Splice`` in ``doc`` is written as the text it gives."""
    return _Render().value(doc, 0)


class Splice:
    """A value whose text its maker writes: ``write(render, depth)`` returns
    the text ``dumps`` would write, at ``depth``, for the JSON value the
    splice stands for (see the module docstring)."""

    __slots__ = ("write",)

    def __init__(self, write: Callable[["_Render", int], str]) -> None:
        self.write = write


def separator(depth: int) -> str:
    """The text between two items of a non-empty container at ``depth``."""
    return ",\n" + _INDENT * (depth + 1)


def _scalar(o: Any) -> str:
    """Text of an exact ``int`` or ``str``."""
    return _quote(o) if type(o) is str else int.__repr__(o)


def _key(k: Any) -> str:
    """A dict key as ``json`` converts it before quoting."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def block(parts: List[str], depth: int, brackets: str = "[]") -> str:
    """A non-empty container at ``depth``: one part per line, one level in."""
    inner = separator(depth).join(parts)
    return brackets[0] + "\n" + _INDENT * (depth + 1) + inner + "\n" + _INDENT * depth + brackets[1]


@cache
def _matrix_frame(depth: int) -> Tuple[str, ...]:
    """The fixed text of a non-empty matrix at ``depth``: its opening, the
    text between its rows and its closing line, and the same three for a
    non-empty row."""
    outer, inner = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * (depth + 2)
    close = "\n" + _INDENT * depth + "]"
    return "[" + outer, "," + outer, close, "[" + inner, "," + inner, outer + "]"


class _Render:
    """One ``dumps`` call and its three memos (see the module docstring)."""

    def __init__(self) -> None:
        # (id, depth) -> (the tuple, kept alive, and its text)
        self.by_id: Dict[Tuple[int, int], Tuple[tuple, str]] = {}
        # (rows, depth) -> text
        self.memo: Dict[Tuple[tuple, int], str] = {}
        # (keys in insertion order, depth) -> (sorted keys, one prefix per
        # key, the closing line)
        self.layouts: Dict[Tuple[tuple, int], Tuple[List[str], List[str], str]] = {}

    def value(self, o: Any, depth: int) -> str:
        t = type(o)
        if t is str:
            return _quote(o)
        if t is int:
            return int.__repr__(o)
        if t is tuple:
            hit = self.by_id.get((id(o), depth))
            if hit is None:
                hit = self.by_id[id(o), depth] = (o, self.array(o, depth))
            return hit[1]
        if t is dict:
            return self.object(o, depth)
        if t is list:
            return self.array(o, depth)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, Splice):
            return o.write(self, depth)
        if isinstance(o, (list, tuple)):
            return self.array(o, depth)
        if isinstance(o, dict):
            return self.sorted_object(o, depth)
        return json.dumps(o)  # str and int subclasses, floats; TypeError otherwise

    def array(self, o, depth: int) -> str:
        if not o:
            return "[]"
        if type(o[0]) in _ROW_TYPES and _ROW_TYPES.issuperset(map(type, o)):
            rows = tuple(map(tuple, o))
            if _ENTRY_TYPES.issuperset(map(type, chain.from_iterable(rows))):
                return self.matrix(rows, depth)
        return block([self.value(x, depth + 1) for x in o], depth, "[]")

    def matrix(self, rows: tuple, depth: int) -> str:
        key = (rows, depth)
        text = self.memo.get(key)
        if text is None:
            start, between, end, row_start, row_between, row_end = _matrix_frame(depth)
            lines = [
                row_start + row_between.join(map(_scalar, r)) + row_end if r else "[]" for r in rows
            ]
            text = self.memo[key] = start + between.join(lines) + end
        return text

    def object(self, o: dict, depth: int) -> str:
        """A plain dict: by its layout where every key is an exact ``str``."""
        if not o:
            return "{}"
        keys = tuple(o)
        layout = self.layouts.get((keys, depth))
        if layout is None:
            if not _KEY_TYPES.issuperset(map(type, keys)):
                return self.sorted_object(o, depth)
            layout = self.layout(keys, depth)
        order, prefixes, close = layout
        parts = []
        for prefix, k in zip(prefixes, order):
            parts += (prefix, self.value(o[k], depth + 1))
        parts.append(close)
        return "".join(parts)

    def layout(self, keys: Tuple[str, ...], depth: int) -> Tuple[List[str], List[str], str]:
        """The frame of a non-empty dict at ``depth`` whose keys, all exact
        ``str``, are ``keys`` in insertion order: the keys sorted, the text
        before each one's value in that order (the first opens the dict),
        and the closing line."""
        layout = self.layouts.get((keys, depth))
        if layout is None:
            order = sorted(keys)
            nl = "\n" + _INDENT * (depth + 1)
            prefixes = ["{" + nl + _quote(order[0]) + ": "]
            prefixes += ["," + nl + _quote(k) + ": " for k in order[1:]]
            layout = self.layouts[keys, depth] = (order, prefixes, "\n" + _INDENT * depth + "}")
        return layout

    def sorted_object(self, o, depth: int) -> str:
        """Any dict, its items sorted as ``json`` sorts them."""
        if not o:
            return "{}"
        parts = [_quote(_key(k)) + ": " + self.value(v, depth + 1) for k, v in sorted(o.items())]
        return block(parts, depth, "{}")
