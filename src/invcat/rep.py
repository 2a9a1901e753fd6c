"""Representations of free categories on finite quivers.

The input format presents generators only; the indexing category is the free
category on them.  A document looks like::

    { "field": {"kind": "rational"} | {"kind": "prime", "p": 5},
      "objects": [ {"id": "x", "dim": 2}, ... ],
      "generators": [ {"id": "f", "dom": "x", "cod": "y",
                       "matrix": [[1, 0], [0, "1/2"]]}, ... ] }

Matrices are row-major, dim(cod) rows by dim(dom) columns, acting on column
vectors.  Rational entries may be ints or "a/b" strings; prime-field entries
are ints reduced mod p.

A document whose sizes pass ``MAX_OBJECT_DIM`` or ``MAX_TOTAL_ENTRIES`` is
refused with ``TooLarge`` while it is parsed, before any entry of a matrix
that would pass them is read and before any elimination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from .errors import CompositionError, InputSyntaxError, TooLarge, ValidationError
from .fields import Field
from .linalg import Matrix

# Parse-time size limits.  The closure holds the full space at every object,
# a dim x dim matrix, so the total counts dim^2 per object as well as
# rows x cols per generator.  The largest bundled example, test or benchmark
# input has an object of dimension 8 and a total of 777 entries (the 64-dim
# A_12 interval sum: 400 for its objects, 377 for its generators), 16x and
# 42x below these limits.
MAX_OBJECT_DIM = 128
MAX_TOTAL_ENTRIES = 32768


@dataclass(frozen=True)
class RepObject:
    id: str
    dim: int


@dataclass(frozen=True)
class Generator:
    id: str
    dom: str
    cod: str
    matrix: Matrix


@dataclass(frozen=True)
class Representation:
    field: Field
    objects: Tuple[RepObject, ...]
    generators: Tuple[Generator, ...]

    def __post_init__(self):
        dims: Dict[str, int] = {}
        for i, o in enumerate(self.objects):
            if o.id in dims:
                raise ValidationError(f"duplicate object id {o.id!r}", path=f"objects[{i}].id")
            if o.dim < 0:
                raise ValidationError("object dimension must be nonnegative", path=f"objects[{i}].dim")
            dims[o.id] = o.dim
        seen = set()
        for i, g in enumerate(self.generators):
            where = f"generators[{i}]"
            if g.id in seen:
                raise ValidationError(f"duplicate generator id {g.id!r}", path=f"{where}.id")
            seen.add(g.id)
            for end, name in ((g.dom, "dom"), (g.cod, "cod")):
                if end not in dims:
                    raise ValidationError(f"unknown object id {end!r}", path=f"{where}.{name}")
            if g.matrix.field != self.field:
                raise ValidationError("generator matrix over the wrong field", path=f"{where}.matrix")
            if (g.matrix.rows, g.matrix.cols) != (dims[g.cod], dims[g.dom]):
                raise ValidationError(
                    f"matrix shape {g.matrix.rows}x{g.matrix.cols} does not match "
                    f"dim(cod)x dim(dom) = {dims[g.cod]}x{dims[g.dom]}",
                    path=f"{where}.matrix",
                )

    def object_dim(self, oid: str) -> int:
        for o in self.objects:
            if o.id == oid:
                return o.dim
        raise ValidationError(f"unknown object id {oid!r}")

    def generator(self, gid: str) -> Generator:
        for g in self.generators:
            if g.id == gid:
                return g
        raise ValidationError(f"unknown generator id {gid!r}")

    @property
    def object_ids(self) -> Tuple[str, ...]:
        return tuple(o.id for o in self.objects)

    def to_json(self) -> dict:
        return {
            "field": self.field.describe(),
            "objects": [{"id": o.id, "dim": o.dim} for o in self.objects],
            "generators": [
                {"id": g.id, "dom": g.dom, "cod": g.cod, "matrix": g.matrix.to_json()}
                for g in self.generators
            ],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class QuiverShape:
    """Derived view of the underlying directed graph of a representation."""

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, str], ...]  # (generator id, dom, cod)
    has_undirected_cycle: bool


def quiver_shape(rep: Representation) -> QuiverShape:
    """Union-find cycle detection; loops and parallel edges count as cycles."""
    parent: Dict[str, str] = {o.id: o.id for o in rep.objects}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cyclic = False
    for g in rep.generators:
        a, b = find(g.dom), find(g.cod)
        if a == b:
            cyclic = True
        else:
            parent[a] = b
    return QuiverShape(
        vertices=rep.object_ids,
        edges=tuple((g.id, g.dom, g.cod) for g in rep.generators),
        has_undirected_cycle=cyclic,
    )


def _expect(cond: bool, msg: str, path: str) -> None:
    if not cond:
        raise ValidationError(msg, path=path)


def _count_entries(total: int, more: int, path: str) -> int:
    total += more
    if total > MAX_TOTAL_ENTRIES:
        raise TooLarge(
            f"the input has more than {MAX_TOTAL_ENTRIES} matrix entries "
            "(dim^2 per object, rows x cols per generator)",
            path=path,
        )
    return total


def representation_from_json(doc: Any) -> Representation:
    _expect(isinstance(doc, dict), "top-level document must be an object", "$")
    for key in ("field", "objects", "generators"):
        _expect(key in doc, f"missing required key {key!r}", key)
    field = Field.from_json(doc["field"])
    _expect(isinstance(doc["objects"], list), "'objects' must be an array", "objects")
    objects = []
    dims: Dict[str, int] = {}
    for i, o in enumerate(doc["objects"]):
        where = f"objects[{i}]"
        _expect(isinstance(o, dict), "object entry must be an object", where)
        _expect(isinstance(o.get("id"), str), "object id must be a string", f"{where}.id")
        _expect(isinstance(o.get("dim"), int) and not isinstance(o["dim"], bool),
                "object dim must be an integer", f"{where}.dim")
        if o["dim"] > MAX_OBJECT_DIM:
            raise TooLarge(
                f"object dimension {o['dim']} exceeds the limit {MAX_OBJECT_DIM}",
                path=f"{where}.dim",
            )
        objects.append(RepObject(o["id"], o["dim"]))
        dims[o["id"]] = o["dim"]
    _expect(isinstance(doc["generators"], list), "'generators' must be an array", "generators")
    entries = _count_entries(0, sum(o.dim * o.dim for o in objects), "objects")
    gens = []
    for i, g in enumerate(doc["generators"]):
        where = f"generators[{i}]"
        _expect(isinstance(g, dict), "generator entry must be an object", where)
        for key in ("id", "dom", "cod"):
            _expect(isinstance(g.get(key), str), f"generator {key} must be a string", f"{where}.{key}")
        _expect(isinstance(g.get("matrix"), list), "generator matrix must be an array of rows", f"{where}.matrix")
        _expect(g["dom"] in dims, f"unknown object id {g.get('dom')!r}", f"{where}.dom")
        _expect(g["cod"] in dims, f"unknown object id {g.get('cod')!r}", f"{where}.cod")
        nrows, ncols = dims[g["cod"]], dims[g["dom"]]
        entries = _count_entries(entries, nrows * ncols, f"{where}.matrix")
        raw = g["matrix"]
        _expect(len(raw) == nrows, f"matrix must have {nrows} rows", f"{where}.matrix")
        rows = []
        for r, row in enumerate(raw):
            _expect(isinstance(row, list) and len(row) == ncols,
                    f"row must have {ncols} entries", f"{where}.matrix[{r}]")
            rows.append([field.parse_entry(x, f"{where}.matrix[{r}][{c}]") for c, x in enumerate(row)])
        gens.append(Generator(g["id"], g["dom"], g["cod"], Matrix.build(field, nrows, ncols, rows)))
    return Representation(field, tuple(objects), tuple(gens))


def parse_representation(data: Union[str, bytes]) -> Representation:
    """Parse and fully validate a representation document."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise InputSyntaxError(f"input is not UTF-8: {e}") from e
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise InputSyntaxError(f"malformed JSON: {e}") from e
    except RecursionError as e:
        raise InputSyntaxError("JSON nests too deeply") from e
    return representation_from_json(doc)


def evaluate_word(rep: Representation, word: Sequence[str], at: Optional[str] = None) -> Matrix:
    """Evaluate a path of generator ids, written in composition order.

    ``word = [f, g]`` denotes the composite "f after g"; its matrix is the
    product matrix(f) @ matrix(g).  The empty word needs ``at`` to pick the
    object whose identity it denotes.
    """
    if not word:
        if at is None:
            raise CompositionError("empty word needs an object (pass at=...)")
        return Matrix.identity(rep.field, rep.object_dim(at))
    gens = [rep.generator(gid) for gid in word]
    for left, right in zip(gens, gens[1:]):
        if left.dom != right.cod:
            raise CompositionError(
                f"cannot compose {left.id!r} after {right.id!r}: "
                f"dom({left.id}) = {left.dom!r} but cod({right.id}) = {right.cod!r}"
            )
    if at is not None and gens[-1].dom != at:
        raise CompositionError(f"word starts at {gens[-1].dom!r}, not {at!r}")
    out = gens[0].matrix
    for g in gens[1:]:
        out = out @ g.matrix
    return out
