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
that would pass them is read and before any elimination.  So is one with an
entry past ``fields.MAX_ENTRY_BITS``, or with a JSON integer too long for the
interpreter to read.

This module is the one reader of input documents: ``decode_json`` turns bytes
into a document and ``read_rows`` reads a matrix's rows against an
``EntryBudget``, for representations here and for the certificates of
``decompose.BlockcodeDecomposition.from_json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import CompositionError, InputSyntaxError, TooLarge, ValidationError
from .fields import Field, Scalar
from .jsontext import dumps
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
        return dumps(self.to_json()) + "\n"


@dataclass(frozen=True)
class QuiverShape:
    """Derived view of the underlying directed graph of a representation."""

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, str], ...]  # (generator id, dom, cod)
    has_undirected_cycle: bool


def connected_components(
    vertices: Iterable[Hashable], edges: Iterable[Tuple[Hashable, Hashable]]
) -> List[List[Hashable]]:
    """The connected components of an undirected graph by union-find with
    path halving: each in the order of ``vertices``, in the order of their
    first vertices."""
    parent = {v: v for v in vertices}

    def find(x: Hashable) -> Hashable:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: Dict[Hashable, List[Hashable]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def quiver_shape(rep: Representation) -> QuiverShape:
    """Cycle detection: a graph is a forest exactly when it has one edge
    fewer than vertices per component, so loops and parallel edges count as
    cycles."""
    components = connected_components(rep.object_ids, ((g.dom, g.cod) for g in rep.generators))
    return QuiverShape(
        vertices=rep.object_ids,
        edges=tuple((g.id, g.dom, g.cod) for g in rep.generators),
        has_undirected_cycle=len(rep.generators) > len(rep.objects) - len(components),
    )


def expect(cond: bool, msg: str, path: str) -> None:
    if not cond:
        raise ValidationError(msg, path=path)


class EntryBudget:
    """The ``MAX_TOTAL_ENTRIES`` matrix entries one document may hold;
    ``counted`` says, for the message, what its count covers."""

    def __init__(self, document: str, counted: str):
        self.left = MAX_TOTAL_ENTRIES
        self.document, self.counted = document, counted

    def charge(self, entries: int, path: str) -> None:
        self.left -= entries
        if self.left < 0:
            raise TooLarge(
                f"the {self.document} has more than {MAX_TOTAL_ENTRIES} matrix entries "
                f"({self.counted})",
                path=path,
            )


def read_rows(
    field: Field, raw: Any, ncols: int, where: str, budget: EntryBudget, nrows: Optional[int] = None
) -> Tuple[Tuple[Scalar, ...], ...]:
    """The entries of the matrix at ``where``: an array of ``nrows`` rows (of
    any number where ``nrows`` is None), each an array of ``ncols`` entries.
    They are charged to ``budget`` before any is read."""
    expect(isinstance(raw, list), "matrix must be an array of rows", where)
    if nrows is None:
        nrows = len(raw)
    budget.charge(nrows * ncols, where)
    expect(len(raw) == nrows, f"matrix must have {nrows} rows", where)
    parse = field.parse_entry
    rows = []
    for r, row in enumerate(raw):
        expect(isinstance(row, list) and len(row) == ncols, f"row must have {ncols} entries", f"{where}[{r}]")
        rows.append(tuple([parse(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)]))
    return tuple(rows)


def representation_from_json(doc: Any) -> Representation:
    expect(isinstance(doc, dict), "top-level document must be an object", "$")
    for key in ("field", "objects", "generators"):
        expect(key in doc, f"missing required key {key!r}", key)
    field = Field.from_json(doc["field"])
    expect(isinstance(doc["objects"], list), "'objects' must be an array", "objects")
    objects = []
    dims: Dict[str, int] = {}
    for i, o in enumerate(doc["objects"]):
        where = f"objects[{i}]"
        expect(isinstance(o, dict), "object entry must be an object", where)
        expect(isinstance(o.get("id"), str), "object id must be a string", f"{where}.id")
        expect(isinstance(o.get("dim"), int) and not isinstance(o["dim"], bool),
               "object dim must be an integer", f"{where}.dim")
        if o["dim"] > MAX_OBJECT_DIM:
            raise TooLarge(
                f"object dimension {o['dim']} exceeds the limit {MAX_OBJECT_DIM}",
                path=f"{where}.dim",
            )
        objects.append(RepObject(o["id"], o["dim"]))
        dims[o["id"]] = o["dim"]
    expect(isinstance(doc["generators"], list), "'generators' must be an array", "generators")
    budget = EntryBudget("input", "dim^2 per object, rows x cols per generator")
    budget.charge(sum(o.dim * o.dim for o in objects), "objects")
    gens = []
    for i, g in enumerate(doc["generators"]):
        where = f"generators[{i}]"
        expect(isinstance(g, dict), "generator entry must be an object", where)
        for key in ("id", "dom", "cod"):
            expect(isinstance(g.get(key), str), f"generator {key} must be a string", f"{where}.{key}")
        expect(g["dom"] in dims, f"unknown object id {g['dom']!r}", f"{where}.dom")
        expect(g["cod"] in dims, f"unknown object id {g['cod']!r}", f"{where}.cod")
        nrows, ncols = dims[g["cod"]], dims[g["dom"]]
        rows = read_rows(field, g.get("matrix"), ncols, f"{where}.matrix", budget, nrows)
        gens.append(Generator(g["id"], g["dom"], g["cod"], Matrix(field, nrows, ncols, rows)))
    return Representation(field, tuple(objects), tuple(gens))


def decode_json(data: Union[str, bytes], what: str = "JSON") -> Any:
    """The document that ``data`` holds; ``what`` names it in the messages."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as e:
        raise InputSyntaxError(f"{what} is not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise InputSyntaxError(f"malformed {what}: {e}") from e
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise TooLarge(f"{what} integer too long: {e}") from e
    except RecursionError as e:
        raise InputSyntaxError(f"{what} nests too deeply") from e


def parse_representation(data: Union[str, bytes]) -> Representation:
    """Parse and fully validate a representation document."""
    return representation_from_json(decode_json(data))


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
