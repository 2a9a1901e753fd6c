"""The JSON writer behind every report and serialized representation.

``dumps(doc)`` returns exactly ``json.dumps(doc, indent=2, sort_keys=True)``,
byte for byte.  On CPython that call skips the C encoder whenever ``indent``
is set and yields every scalar through a chain of Python generators; here
each container's text is built with one ``str.join``.

A report repeats the same subspaces many times (every criterion witness
prints both of its bases).  A matrix -- a list of rows whose entries are
exact ``int`` or ``str`` -- is therefore rendered once per content and
indent depth and looked up in a memo that lives for one ``dumps`` call.  The
memo is keyed by value, not identity, so callers keep handing out fresh
lists; bools and floats are left out of it because they compare equal to
ints (``True == 1``) yet print differently.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Tuple

_INDENT = "  "
_ROW_TYPES = frozenset((list, tuple))
_ENTRY_TYPES = frozenset((int, str))


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
    """One ``dumps`` call: the matrix memo, keyed by (rows, depth)."""

    def __init__(self) -> None:
        self.memo: Dict[Tuple[tuple, int], str] = {}

    def value(self, o: Any, depth: int) -> str:
        t = type(o)
        if t is str:
            return _quote(o)
        if t is int:
            return int.__repr__(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, (list, tuple)):
            return self.array(o, depth)
        if isinstance(o, dict):
            return self.object(o, depth)
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

    def object(self, o, depth: int) -> str:
        if not o:
            return "{}"
        parts = [_quote(_key(k)) + ": " + self.value(v, depth + 1) for k, v in sorted(o.items())]
        return _block(parts, depth, "{}")
