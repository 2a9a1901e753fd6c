"""Finite meet-closed posets of subspaces, Hasse diagrams, Moebius functions.

A poset stores its order once, as one down-set bitmask per element, and
reads the meet of two elements off their masks: the highest index in the
common down-set.  ``assemble_poset`` takes the elements and the down-sets
and derives nothing.  The Hasse covers (``covers``), the up-sets and the
index of the elements are read off the masks when first read, and each
element's lower covers alone when asked for (``_lower_covers``): the rank
count reads them element by element and stops at its first excess, and
only ``export_dot`` reads every cover.  The one flag closure driver, on
subspaces, on bitmasks and in ``flag.meet_closure``, sets the down-sets
while closing and hands them to ``assemble_poset`` directly.
``build_poset`` is the pairwise reference they are tested against: it
validates a bare family's meet-closure by intersecting every pair once,
and sets each containment as it finds it.

Two Moebius variants are kept side by side:

* ``one_var`` -- the single-argument recursion mu(min) = 1,
  mu(y) = -sum(mu(x) for x < y).
* ``two_var`` -- the standard incidence function mu(a, a) = 1,
  mu(a, b) = -sum(mu(a, z) for a <= z < b).

The factorization criterion's standard mode is defined by ``two_var``;
``one_var`` is retained because the two disagree on some posets and the
divergence is worth reporting (see the criterion module).  The criterion
builds neither table: it takes the Moebius inverse of dimension, and for a
literal score that of the indicator of the zero element (``one_var``), by
the recursion of ``mobius_invert``, one step per comparable pair.
``mobius`` builds the tables for the ``mobius`` command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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
    common down-set.  ``up`` (the up-set masks), ``covers`` and the index
    behind ``index_of`` are built when first read.
    """

    field: Field
    ambient_dim: int
    elements: Tuple[Subspace, ...]
    down: Tuple[int, ...]                   # bit i of down[j]: elements[i] <= elements[j]

    # Lazy caches of ``criterion.adapted_complements``, where the rank count
    # fails of ``criterion.rank_count_excess``, and of the criterion's scores
    # (not dataclass fields).
    _complements = None
    _excess = None
    _scores = None

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> Dict[Subspace, int]:
        return {s: i for i, s in enumerate(self.elements)}

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

    def _lower_covers(self, j: int) -> int:
        """The mask of the lower covers of element j: the elements of its
        strict down-set that lie in no other element's strict down-set
        within it (the transitive reduction at j)."""
        down = self.down
        strict = down[j] ^ (1 << j)
        below = 0
        for z in members(strict):
            below |= down[z] ^ (1 << z)
        return strict & ~below

    @cached_property
    def covers(self) -> Tuple[Tuple[int, int], ...]:
        """The Hasse diagram's edges (i, j), where j covers i, sorted."""
        return tuple(sorted((i, j) for j in range(len(self.down)) for i in members(self._lower_covers(j))))


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


def ambient_space(family: Sequence[Subspace]) -> Tuple[Field, int]:
    """The field and the ambient dimension of the members of ``family``,
    which must share them."""
    if not family:
        raise MissingBounds("empty subspace family")
    field, n = family[0].field, family[0].ambient_dim
    if any(s.field != field or s.ambient_dim != n for s in family):
        raise MissingBounds("subspace family mixes ambient spaces")
    return field, n


def build_poset(subspaces: Iterable[Subspace]) -> SubspacePoset:
    """The poset of a meet-closed family, validated pair by pair: the
    reference every closure's poset is checked against.

    The family is sorted, and each element in turn meets every one before
    it.  The first meet that is not a member raises ``NotMeetClosed``, with
    the lower of its pair on the left.  A meet that is the lower one sets
    that bit of the higher one's down-set; the reverse cannot hold, since
    the order is by dimension first.
    """
    elems = sorted(set(subspaces), key=lambda s: s.sort_key)
    ambient_space(elems)
    if not elems[0].is_zero:
        raise MissingBounds("family does not contain the zero subspace")
    if not elems[-1].is_full:
        raise MissingBounds("family does not contain the full space")
    index = {s: i for i, s in enumerate(elems)}
    down = []
    for k, b in enumerate(elems):
        mask = 1 << k
        for i, a in enumerate(elems[:k]):
            m = sub_intersect(a, b)
            j = index.get(m)
            if j is None:
                raise NotMeetClosed(
                    "family is not closed under intersection",
                    left=a.to_json(),
                    right=b.to_json(),
                    missing=m.to_json(),
                )
            if j == i:
                mask |= 1 << i
        down.append(mask)
    return assemble_poset(elems, down)


def assemble_poset(elements: Sequence[Subspace], down: Sequence[int]) -> SubspacePoset:
    """The poset of ``elements``, in ``sort_key`` order from 0 to the full
    space, with the down-set masks ``down``.  Nothing is derived here: the
    covers and the element index are built off the masks when first read."""
    return SubspacePoset(
        field=elements[0].field,
        ambient_dim=elements[0].ambient_dim,
        elements=tuple(elements),
        down=tuple(down),
    )


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
