"""Finite meet-closed posets of subspaces, Hasse diagrams, Moebius functions.

A poset stores its order once, as one down-set bitmask per element, and
reads the meet of two elements off their masks: the highest index in the
common down-set.  ``build_poset`` reads the down-sets and the covers off the
meets, with no containment test.  It intersects every pair itself when given
a bare family (and so validates meet-closure); the flag closure hands over
the meets it computed while closing, and its members' sort order.  The
relation ``leq`` and the ``meet_table`` remain as n x n views of the masks,
built only when read; no command reads them.  ``meet_closure`` closes a bare
family under meets, up to an element limit.

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
of ``mobius_invert`` over each down-set, one step per comparable pair.
``mobius`` builds the tables for the ``mobius`` command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import compress, repeat
from operator import eq
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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
    common down-set.  ``up``, ``leq`` and ``meet_table`` are views of the
    masks, built when first read.
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

    @cached_property
    def leq(self) -> Tuple[Tuple[bool, ...], ...]:
        """leq[i][j]: elements[i] <= elements[j]."""
        return tuple(tuple(bool(d >> i & 1) for d in self.down) for i in range(len(self.down)))

    @cached_property
    def meet_table(self) -> Tuple[Tuple[int, ...], ...]:
        """meet_table[i][j]: the index of elements[i] meet elements[j]."""
        n = len(self.down)
        return tuple(tuple(self.meet(i, j) for j in range(n)) for i in range(n))

    def atoms(self) -> List[int]:
        return [j for (i, j) in self.covers if i == self.zero_index]


def members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_poset(
    subspaces: Iterable[Subspace],
    meets: Optional[Sequence[Sequence[Optional[int]]]] = None,
    order: Optional[Sequence[int]] = None,
) -> SubspacePoset:
    """Validate bounds and meet-closure, then assemble the down-sets and covers.

    Without ``meets`` every pair is intersected, and the first pair (in index
    order) whose meet is not in the family raises ``NotMeetClosed``.  The flag
    closure passes the record of the intersections it has already computed
    instead: ``subspaces`` is then a sequence without repeats, and for i < k,
    ``meets[k][i]`` is the position in it of the meet of its elements i and k.
    It may pass ``order`` too, the positions in ``subspaces`` in ``sort_key``
    order, which are then not sorted again.

    The down-sets are read off the meets in one pass: a meet that equals
    one of its pair is a containment.  The lower covers of b are the
    elements of its strict down-set that lie in no other element's strict
    down-set within it (transitive reduction over down-set bitmasks).
    """
    given = list(subspaces) if meets is not None else list(set(subspaces))
    if order is None:
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
    index = {s: i for i, s in enumerate(elems)}
    down = [1 << i for i in range(n)]
    if meets is None:
        for i in range(n):
            a = elems[i]
            for j in range(i + 1, n):
                m = sub_intersect(a, elems[j])
                k = index.get(m)
                if k is None:
                    raise NotMeetClosed(
                        "family is not closed under intersection",
                        left=a.to_json(),
                        right=elems[j].to_json(),
                        missing=m.to_json(),
                    )
                if k == i:  # a later element is never below an earlier one
                    down[j] |= 1 << i
    else:
        position = [0] * n  # ordinal in ``subspaces`` -> index in ``elems``
        for i, k in enumerate(order):
            position[k] = i
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
    covers = []
    for j in range(n):
        strict = down[j] & ~(1 << j)
        below = 0
        for z in members(strict):
            below |= down[z] & ~(1 << z)
        covers.extend((i, j) for i in members(strict & ~below))
    return SubspacePoset(
        field=field,
        ambient_dim=ambient,
        elements=tuple(elems),
        down=tuple(down),
        covers=tuple(sorted(covers)),
        _index=index,
    )


def meet_closure(subspaces: Iterable[Subspace], limit: Optional[int] = None) -> Optional[List[Subspace]]:
    """The closure of a family under pairwise intersection, in ``sort_key``
    order, or None where it has more than ``limit`` members.  Each member in
    turn meets those before it, and a new meet joins at the end, so every
    pair is intersected once."""
    members = list(dict.fromkeys(subspaces))
    seen = set(members)
    for k, b in enumerate(members):  # reaches the members appended on the way
        if limit is not None and len(members) > limit:
            return None
        for a in members[:k]:
            m = sub_intersect(a, b)
            if m not in seen:
                seen.add(m)
                members.append(m)
    return sorted(members, key=lambda s: s.sort_key)


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


PointFunction = Union[Sequence[int], Callable[[int], int]]


def _as_values(p: SubspacePoset, f: PointFunction) -> List[int]:
    if callable(f):
        return [f(i) for i in range(len(p.elements))]
    vals = list(f)
    if len(vals) != len(p.elements):
        raise ElementNotInPoset("function values do not cover the poset")
    return vals


def mobius_invert(p: SubspacePoset, phi_hat: PointFunction, table: MobiusTable = None) -> List[int]:
    """Recover phi from its down-set sums: phi(y) = sum mu(x, y) phi_hat(x).

    Inverse of the forward operator phi_hat(y) = sum(phi(x) for x <= y).
    With a Moebius ``table`` it is that sum; without one, the recursion
    phi(y) = phi_hat(y) - sum(phi(x) for x < y) in index order (a linear
    extension), one step per comparable pair, which builds no table.
    """
    vals = _as_values(p, phi_hat)
    if table is not None:
        return [
            sum(table.two_var[x][y] * vals[x] for x in members(mask))
            for y, mask in enumerate(p.down)
        ]
    phi: List[int] = []
    at = phi.__getitem__
    for y, mask in enumerate(p.down):
        phi.append(vals[y] - sum(map(at, members(mask ^ (1 << y)))))
    return phi


def forward_sum(p: SubspacePoset, phi: PointFunction) -> List[int]:
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
