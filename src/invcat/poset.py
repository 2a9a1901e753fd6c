"""Finite meet-closed posets of subspaces, Hasse diagrams, Moebius functions.

A poset stores its order once, as one down-set bitmask per element, and
reads the meet of two elements off their masks: the highest index in the
common down-set.  ``assemble_poset`` takes the covers off the down-sets.
For a family given bare, the down-sets are read in one pass, with no
containment test, off a record of the meets of its pairs.  One loop fills
that record: each member in turn meets those before it, so every pair is
intersected once.  ``meet_closure`` lets the loop append the meets it has
not seen, up to an element limit, and returns the poset it closed;
``build_poset`` refuses growth, and so validates meet-closure.  The flag
closure sets its down-sets while closing, and hands them to
``assemble_poset`` directly.

Two Moebius variants are kept side by side:

* ``one_var`` -- the single-argument recursion mu(min) = 1,
  mu(y) = -sum(mu(x) for x < y).
* ``two_var`` -- the standard incidence function mu(a, a) = 1,
  mu(a, b) = -sum(mu(a, z) for a <= z < b).

The factorization criterion's standard mode is defined by ``two_var``;
``one_var`` is retained because the two disagree on some posets and the
divergence is worth reporting (see the criterion module).  The criterion
builds neither table: it takes the Moebius inverses of dimension and of
the indicator of the zero element (which is ``one_var``) by the recursion
of ``mobius_invert``, both in one pass over the down-sets, one step per
comparable pair.  ``mobius`` builds the tables for the ``mobius`` command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import compress, repeat
from operator import eq
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ElementNotInPoset, MissingBounds, NotMeetClosed
from .fields import Field
from .linalg import Subspace, sub_intersect


@dataclass(frozen=True, eq=False)
class SubspacePoset:
    """Subspaces ordered by containment, closed under pairwise intersection.

    ``elements`` are sorted by (dim, basis), which is a linear extension of
    containment: every index order scan from 0 upward visits subspaces before
    their superspaces.  The order is stored once, as down-set bitmasks: bit i
    of ``down[j]`` is set when elements[i] <= elements[j].  Since the order
    is by dimension first, the meet of i and j is the highest index in their
    common down-set.  ``up`` holds the up-set masks, built when first read.
    """

    field: Field
    ambient_dim: int
    elements: Tuple[Subspace, ...]
    down: Tuple[int, ...]                   # bit i of down[j]: elements[i] <= elements[j]
    covers: Tuple[Tuple[int, int], ...]     # (i, j): j covers i
    _index: Dict[Subspace, int] = dc_field(repr=False, default_factory=dict)

    # Lazy caches of ``criterion.adapted_complements``, where the rank count
    # fails of ``criterion.rank_count_excess``, and of the criterion's scores
    # (not dataclass fields).
    _complements = None
    _excess = None
    _scores = None

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, s: Subspace) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise ElementNotInPoset(f"subspace of dim {s.dim} is not a poset element") from None

    @property
    def zero_index(self) -> int:
        return 0

    @property
    def full_index(self) -> int:
        return len(self.elements) - 1

    def meet(self, i: int, j: int) -> int:
        return (self.down[i] & self.down[j]).bit_length() - 1

    @cached_property
    def up(self) -> Tuple[int, ...]:
        """Up-set bitmasks: bit j of ``up[i]`` is set when elements[i] <= elements[j]."""
        up = [0] * len(self.down)
        for j, mask in enumerate(self.down):
            bit = 1 << j
            for i in members(mask):
                up[i] |= bit
        return tuple(up)


def members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> bytes:
    """The bits of ``mask``, lowest first, one byte of 0 or 1 each, so that
    ``itertools.compress(seq, bits(mask))`` yields the items of ``seq`` at
    the set bits' indices, ascending, without a Python-level step per bit."""
    return format(mask, "b")[::-1].encode().translate(_BIT_BYTES)


def _record_meets(
    family: List[Subspace], limit: Optional[int] = None, grow: bool = True
) -> Optional[List[List[int]]]:
    """The record of the meets of every pair of ``family``: for i < k, row k
    holds at i the position of the meet of its members i and k.  Each
    member k in turn meets members 0, 1, ..., k - 1, so every pair is
    intersected once, in that order.  Where ``grow``, a meet that is not a
    member joins at the end, the loop reaches it in turn, and the record is
    None once there are more than ``limit`` members.  Otherwise the first
    missing meet raises ``NotMeetClosed``, with the lower member of its pair
    on the left."""
    index = {s: k for k, s in enumerate(family)}
    meets = []
    for k, b in enumerate(family):  # reaches the members appended on the way
        if limit is not None and len(family) > limit:
            return None
        row = []
        for a in family[:k]:
            m = sub_intersect(a, b)
            i = index.get(m)
            if i is None:
                if not grow:
                    raise NotMeetClosed(
                        "family is not closed under intersection",
                        left=a.to_json(),
                        right=b.to_json(),
                        missing=m.to_json(),
                    )
                i = index[m] = len(family)
                family.append(m)
            row.append(i)
        meets.append(row)
    return meets


def build_poset(
    subspaces: Iterable[Subspace], meets: Optional[Sequence[Sequence[Optional[int]]]] = None
) -> SubspacePoset:
    """Validate bounds and meet-closure, then assemble the down-sets and covers.

    The record ``meets`` says, for i < k, that ``meets[k][i]`` is the position
    in ``subspaces`` (then a sequence without repeats) of the meet of its
    elements i and k; ``meet_closure`` passes the record its loop filled.  A
    bare family (no ``meets``) is sorted and its record filled by
    ``_record_meets`` with growth refused: the first missing meet in that
    loop's order (each element, in sort order, against the ones before it)
    raises ``NotMeetClosed``.

    The down-sets are read off the meets in one pass: a meet that equals
    one of its pair is a containment.  ``assemble_poset`` reads the covers
    off them.
    """
    given = list(subspaces) if meets is not None else list(set(subspaces))
    order = sorted(range(len(given)), key=lambda k: given[k].sort_key)
    elems = [given[k] for k in order]
    if not elems:
        raise MissingBounds("empty subspace family")
    field = elems[0].field
    ambient = elems[0].ambient_dim
    for s in elems:
        if s.field != field or s.ambient_dim != ambient:
            raise MissingBounds("subspace family mixes ambient spaces")
    if not elems[0].is_zero:
        raise MissingBounds("family does not contain the zero subspace")
    if not elems[-1].is_full:
        raise MissingBounds("family does not contain the full space")
    n = len(elems)
    if meets is None:
        order = range(n)
        meets = _record_meets(elems, grow=False)
    position = [0] * n  # ordinal in ``subspaces`` -> index in ``elems``
    for i, k in enumerate(order):
        position[k] = i
    down = [1 << i for i in range(n)]
    for k in range(n):
        row = meets[k]
        if len(row) < k or None in row:
            raise LookupError(f"no recorded meet for element {k} and a lower one")
        lower = range(k)
        mask = down[position[k]]
        for i in compress(lower, map(eq, row, lower)):  # i <= k
            mask |= 1 << position[i]
        down[position[k]] = mask
        if k in row:  # k <= i
            bit = 1 << position[k]
            for i in compress(lower, map(eq, row, repeat(k))):
                down[position[i]] |= bit
    return assemble_poset(elems, down)


def assemble_poset(elements: Sequence[Subspace], down: Sequence[int]) -> SubspacePoset:
    """The poset of ``elements``, in ``sort_key`` order from 0 to the full
    space, with the down-set masks ``down``.  The lower covers of b are the
    elements of its strict down-set that lie in no other element's strict
    down-set within it (transitive reduction over down-set bitmasks)."""
    covers = []
    for j, mask in enumerate(down):
        strict = mask & ~(1 << j)
        below = 0
        for z in members(strict):
            below |= down[z] & ~(1 << z)
        covers.extend((i, j) for i in members(strict & ~below))
    return SubspacePoset(
        field=elements[0].field,
        ambient_dim=elements[0].ambient_dim,
        elements=tuple(elements),
        down=tuple(down),
        covers=tuple(sorted(covers)),
        _index={s: i for i, s in enumerate(elements)},
    )


def meet_closure(subspaces: Iterable[Subspace], limit: Optional[int] = None) -> Optional[SubspacePoset]:
    """The poset of the closure of a family under pairwise intersection, or
    None where it has more than ``limit`` members.  ``_record_meets`` closes
    the family, intersecting each pair once, and ``build_poset`` assembles
    the poset off its record, so the family must hold 0 and the full space."""
    closed = list(dict.fromkeys(subspaces))
    meets = _record_meets(closed, limit)
    return None if meets is None else build_poset(closed, meets)


@dataclass(frozen=True, eq=False)
class MobiusTable:
    one_var: Tuple[int, ...]
    two_var: Tuple[Tuple[int, ...], ...]  # two_var[i][j] for elements[i] <= elements[j], else 0


def mobius(p: SubspacePoset) -> MobiusTable:
    n = len(p.elements)
    # one_var is the inverse of the indicator of the zero element (index 0)
    one = mobius_invert(p, [1] + [0] * (n - 1))
    two = [[0] * n for _ in range(n)]
    for a, above in enumerate(p.up):
        row = two[a]
        row[a] = 1
        for b in members(above & ~(1 << a)):  # ascending: a linear extension
            row[b] = -sum(row[z] for z in members(above & p.down[b] & ~(1 << b)))
    return MobiusTable(tuple(one), tuple(tuple(r) for r in two))


def _as_values(p: SubspacePoset, f: Sequence[int]) -> List[int]:
    vals = list(f)
    if len(vals) != len(p.elements):
        raise ElementNotInPoset("function values do not cover the poset")
    return vals


def mobius_invert(p: SubspacePoset, phi_hat: Sequence[int]) -> List[int]:
    """Recover phi from its down-set sums: phi(y) = sum mu(x, y) phi_hat(x).

    Inverse of the forward operator phi_hat(y) = sum(phi(x) for x <= y), by
    the recursion phi(y) = phi_hat(y) - sum(phi(x) for x < y) in index order
    (a linear extension), one step per comparable pair, which builds no
    table.
    """
    vals = _as_values(p, phi_hat)
    phi: List[int] = []
    at = phi.__getitem__
    for y, mask in enumerate(p.down):
        phi.append(vals[y] - sum(map(at, members(mask ^ (1 << y)))))
    return phi


def forward_sum(p: SubspacePoset, phi: Sequence[int]) -> List[int]:
    vals = _as_values(p, phi)
    return [sum(vals[x] for x in members(mask)) for mask in p.down]


def _dot_label(s: Subspace) -> str:
    rows = ",".join("(" + ",".join(str(s.field.entry_to_json(x)) for x in r) + ")" for r in s.basis)
    return f"dim {s.dim}: [{rows}]" if rows else "dim 0"


def export_dot(p: SubspacePoset, name: str = "poset") -> str:
    """Graphviz DOT text for the Hasse diagram; edges point up the order."""
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;"]
    for i, s in enumerate(p.elements):
        lines.append(f"  n{i} [label={json.dumps(_dot_label(s))}];")
    for (i, j) in p.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
