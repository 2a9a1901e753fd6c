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
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Tuple

_INDENT = "  "
_ROW_TYPES = frozenset((list, tuple))
_ENTRY_TYPES = frozenset((int, str))
_KEY_TYPES = frozenset((str,))


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, built without generators."""
    return _Render().value(doc, 0)


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


def _block(parts: List[str], depth: int, brackets: str) -> str:
    """A non-empty container at ``depth``: one part per line, one level in."""
    nl = "\n" + _INDENT * (depth + 1)
    return brackets[0] + nl + ("," + nl).join(parts) + "\n" + _INDENT * depth + brackets[1]


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
        return _block([self.value(x, depth + 1) for x in o], depth, "[]")

    def matrix(self, rows: tuple, depth: int) -> str:
        key = (rows, depth)
        text = self.memo.get(key)
        if text is None:
            lines = [_block(list(map(_scalar, r)), depth + 1, "[]") if r else "[]" for r in rows]
            text = self.memo[key] = _block(lines, depth, "[]")
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
            order = sorted(keys)
            nl = "\n" + _INDENT * (depth + 1)
            prefixes = ["{" + nl + _quote(order[0]) + ": "]
            prefixes += ["," + nl + _quote(k) + ": " for k in order[1:]]
            layout = self.layouts[keys, depth] = (order, prefixes, "\n" + _INDENT * depth + "}")
        order, prefixes, close = layout
        parts = []
        for prefix, k in zip(prefixes, order):
            parts += (prefix, self.value(o[k], depth + 1))
        parts.append(close)
        return "".join(parts)

    def sorted_object(self, o, depth: int) -> str:
        """Any dict, its items sorted as ``json`` sorts them."""
        if not o:
            return "{}"
        parts = [_quote(_key(k)) + ": " + self.value(v, depth + 1) for k, v in sorted(o.items())]
        return _block(parts, depth, "{}")
