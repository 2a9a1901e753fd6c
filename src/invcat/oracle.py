"""Brute-force ground truth over small prime fields.

For a meet-closed family of subspaces of GF(p)^n (tiny p, n), decide by
exhaustive backtracking whether some assignment of a projection onto each
member is multiplicative: pi_b pi_c = pi_(b meet c) for every pair.  This is
the semantic statement the criterion is supposed to characterize, so the two
must agree wherever the search is feasible.  For a representation of a
small tree quiver, ``oracle_blockcode_basis`` likewise searches every basis
for one that splits it into blockcodes.

The search checks multiplicativity directly rather than mere commutation:
commuting projections with the right images get the right product image for
free, but not the product equality itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Optional, Tuple

from .errors import TooLarge, ValidationError
from .fields import Field
from .linalg import Matrix, Subspace, map_image, projection_onto, sub_intersect
from .poset import SubspacePoset, build_poset
from .realize import verify_projection_family
from .rep import Representation


@dataclass(frozen=True)
class OracleBounds:
    max_prime: int = 3
    max_dim: int = 3
    max_family: int = 8


@dataclass(eq=False)
class OracleInstance:
    field: Field
    ambient_dim: int
    family: Tuple[Subspace, ...]

    def poset(self) -> SubspacePoset:
        return build_poset(self.family)


def all_subspaces(field: Field, n: int) -> List[Subspace]:
    """Every subspace of GF(p)^n, enumerated through canonical RREF bases."""
    if field.is_rational:
        raise ValidationError("subspace enumeration needs a finite field")
    p = field.p
    out = [Subspace.zero(field, n)]
    for d in range(1, n + 1):
        for pivots in combinations(range(n), d):
            free_pos = [
                (i, j)
                for i in range(d)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            for values in product(range(p), repeat=len(free_pos)):
                rows = [[field.zero] * n for _ in range(d)]
                for i in range(d):
                    rows[i][pivots[i]] = field.one
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                out.append(Subspace(field, n, tuple(tuple(r) for r in rows)))
    return out


def complements_of(s: Subspace, pool: List[Subspace]) -> List[Subspace]:
    want = s.ambient_dim - s.dim
    return [
        k for k in pool if k.dim == want and sub_intersect(k, s).is_zero
    ]


def candidate_projections(s: Subspace, pool: List[Subspace]) -> List[Matrix]:
    """All projections of the ambient space whose image is exactly ``s``."""
    return [projection_onto(s, k) for k in complements_of(s, pool)]


def oracle_exists_family(
    inst: OracleInstance,
    bounds: OracleBounds = OracleBounds(),
    want_witness: bool = False,
) -> Tuple[bool, Optional[Dict[Subspace, Matrix]]]:
    """Exhaustive search for a multiplicative commuting projection family.

    Elements are assigned in increasing dimension, so every meet of the pair
    under inspection is already pinned when a candidate is tried.
    """
    if inst.field.is_rational:
        raise TooLarge("the oracle only enumerates over finite fields")
    if inst.field.p > bounds.max_prime:
        raise TooLarge(f"prime {inst.field.p} exceeds oracle bound {bounds.max_prime}")
    if inst.ambient_dim > bounds.max_dim:
        raise TooLarge(f"dimension {inst.ambient_dim} exceeds oracle bound {bounds.max_dim}")
    if len(inst.family) > bounds.max_family:
        raise TooLarge(f"family size {len(inst.family)} exceeds oracle bound {bounds.max_family}")
    poset = inst.poset()
    elems = poset.elements  # sorted by dim: a valid assignment order
    pool = all_subspaces(inst.field, inst.ambient_dim)
    options = [candidate_projections(s, pool) for s in elems]
    assigned: List[Optional[Matrix]] = [None] * len(elems)

    def consistent(i: int, cand: Matrix) -> bool:
        for j in range(i):
            pj = assigned[j]
            m1 = poset.meet(i, j)
            target = assigned[m1] if m1 < i else cand
            if cand @ pj != target or pj @ cand != target:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(elems):
            return True
        for cand in options[i]:
            if consistent(i, cand):
                assigned[i] = cand
                if search(i + 1):
                    return True
                assigned[i] = None
        return False

    found = search(0)
    if not found:
        return False, None
    witness = {s: assigned[i] for i, s in enumerate(elems)}
    if want_witness:
        leftovers = verify_projection_family(poset, witness)
        if leftovers:
            raise ValidationError(
                "oracle produced a family that fails verification", problems=leftovers
            )
        return True, witness
    return True, None


def oracle_blockcode_basis(rep: Representation) -> bool:
    """Exhaustive search, over a finite field, for a blockcode basis: a basis
    at every object, taken up to scalars, whose lines every generator sends
    to zero or one-to-one onto lines of the basis at its codomain.

    On a tree quiver such a basis splits the representation into rank-one
    blockcodes (on A_n, the intervals of the zigzag decomposition), and a
    splitting into blockcodes gives one by carrying a basis through each
    summand.
    """
    if rep.field.is_rational:
        raise TooLarge("the oracle only enumerates over finite fields")
    choices = []
    for o in rep.objects:
        lines = [s for s in all_subspaces(rep.field, o.dim) if s.dim == 1]
        choices.append([
            set(c) for c in combinations(lines, o.dim)
            if Subspace.span(rep.field, o.dim, [s.basis[0] for s in c]).is_full
        ])
    at = {o.id: k for k, o in enumerate(rep.objects)}
    for pick in product(*choices):
        for g in rep.generators:
            hit = [t for t in (map_image(g.matrix, s) for s in pick[at[g.dom]]) if t.dim]
            if len(set(hit)) != len(hit) or not set(hit) <= pick[at[g.cod]]:
                break
        else:
            return True
    return False
