"""Constructive side: adapted bases, commuting multiplicative projection
families and pseudo-inverses.

A family is read off the adapted basis of the flag: the complements C_b of
``criterion.adapted_complements``, the same construction the rank count
measures.  Each projection keeps the coordinates of the C_x below its target
and zeroes the rest, so the family axioms hold by construction once the
basis is invertible and each target gets as many coordinates as its
dimension; those two facts are checked.  ``verify_projection_family`` is the
exhaustive check of the axioms, kept as the reference for the oracle and the
tests.

``transported_bases`` picks one adapted basis per object for a whole
representation: on a cycle-free quiver it carries one object's basis along
every edge, so that every generator maps basis vectors to basis vectors or
to zero.  A pseudo-inverse is read off the bases at the two ends of its
generator in closed form, from the generator's matrix in those bases; on a
cycle-free quiver that matrix is a partial matching and the pseudo-inverse is
the inverse matching.
The envelope is closed one generator or pseudo-inverse at a time, and each
morphism is checked against the reversed word of pseudo-inverses that came
with it: pseudo-inverses in an inverse category are unique, so (z w)* = w* z*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .criterion import adapted_complements
from .errors import (
    AxiomViolation,
    ConstructionFailure,
    CriterionViolated,
    ValidationError,
)
from .fields import Field
from .flag import FlagAssignment
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    image,
    inverse,
    kernel,
    map_preimage,
    sub_sum,
)
from .poset import SubspacePoset
from .rep import Representation, quiver_shape

# unused here, kept bound so that per-layer tracers can wrap them by name
from .criterion import poset_passes  # noqa: F401
from .poset import mobius  # noqa: F401


@dataclass(eq=False)
class ProjectionFamily:
    """Commuting multiplicative projections onto every element of a poset,
    read off an adapted basis (the columns of ``basis``)."""

    object_id: str
    poset: SubspacePoset
    projections: Dict[Subspace, Matrix]
    basis: Matrix

    def to_json(self) -> dict:
        return {
            "object": self.object_id,
            "projections": [
                {"image": s.to_json(), "matrix": self.projections[s].to_json()}
                for s in self.poset.elements
            ],
        }


def verify_projection_family(
    poset: SubspacePoset, projections: Dict[Subspace, Matrix]
) -> List[str]:
    """Exhaustively check the family axioms; returns human-readable defects."""
    problems: List[str] = []
    n = poset.ambient_dim
    elems = poset.elements
    for s in elems:
        pi = projections.get(s)
        if pi is None:
            problems.append(f"missing projection for dim-{s.dim} element")
            continue
        if (pi.rows, pi.cols) != (n, n):
            problems.append(f"projection for dim-{s.dim} element has wrong shape")
            continue
        if pi @ pi != pi:
            problems.append(f"projection onto dim-{s.dim} element is not idempotent")
        if image(pi) != s:
            problems.append(f"projection image differs from its dim-{s.dim} target")
    if not problems:
        if not projections[elems[poset.full_index]].is_identity:
            problems.append("projection onto the full space is not the identity")
        if not projections[elems[poset.zero_index]].is_zero:
            problems.append("projection onto the zero space is not the zero map")
        for i, b in enumerate(elems):
            for j, c in enumerate(elems):
                lhs = projections[b] @ projections[c]
                rhs = projections[elems[poset.meet(i, j)]]
                if lhs != rhs:
                    problems.append(
                        f"product of projections (dims {b.dim}, {c.dim}) is not the "
                        f"projection onto their meet"
                    )
                if lhs != projections[c] @ projections[b]:
                    problems.append(
                        f"projections for dims {b.dim}, {c.dim} do not commute"
                    )
    return problems


def _column_matrix(field: Field, n: int, vectors: Sequence[Vector]) -> Matrix:
    """The n x len(vectors) matrix whose columns are ``vectors``."""
    return Matrix(field, n, len(vectors), tuple(zip(*vectors)) if vectors else ((),) * n)


def realize_projections(p: SubspacePoset, object_id: str = "") -> ProjectionFamily:
    """Build the projection family of one object's flag poset from its
    adapted basis.

    The complements C_b of ``adapted_complements``, taken in index order, are
    the columns of a basis P.  The projection onto c keeps the coordinates
    S_c of the C_x with x <= c and sends the others to zero:
    pi_c = P[:, S_c] P^-1[S_c, :].  Since x <= b and x <= c exactly when
    x <= b meet c, S_b and S_c intersect in S_(b meet c), so the projections
    commute and multiply as meets do.  Raises CriterionViolated when the rank
    count fails (the C_b are then dependent); checks that P is invertible and
    that |S_c| = dim c, which makes pi_c a projection onto c.
    """
    comps = adapted_complements(p)
    n = p.ambient_dim
    if sum(c.dim for c in comps) != n:
        raise CriterionViolated(
            f"criterion fails on flag({object_id or '?'}); no projection family exists"
        )
    field = p.field
    cols = [v for c in comps for v in c.basis]
    owner = [bi for bi, c in enumerate(comps) for _ in c.basis]
    basis = _column_matrix(field, n, cols)
    inv = inverse(basis)
    if inv is None:
        raise ConstructionFailure(
            f"adapted basis is singular at object {object_id!r}", object=object_id
        )
    projections: Dict[Subspace, Matrix] = {}
    for ci, c in enumerate(p.elements):
        keep = [k for k in range(n) if p.leq[owner[k]][ci]]
        if len(keep) != c.dim:
            raise ConstructionFailure(
                f"adapted basis spans {len(keep)} dimensions of a dim-{c.dim} "
                f"element at object {object_id!r}",
                object=object_id,
            )
        left = Matrix(field, n, c.dim, tuple(tuple(r[k] for k in keep) for r in basis.entries))
        right = Matrix(field, c.dim, n, tuple(inv.entries[k] for k in keep))
        projections[c] = left @ right
    return ProjectionFamily(object_id=object_id, poset=p, projections=projections, basis=basis)


def basis_inverse(q: Matrix) -> Matrix:
    """The inverse of a basis matrix; ConstructionFailure when it is singular."""
    q_inv = inverse(q)
    if q_inv is None:
        raise ConstructionFailure("codomain basis is singular")
    return q_inv


def pseudo_inverse(zeta: Matrix, p: Matrix, q: Matrix) -> Matrix:
    """Pseudo-inverse of a generator matrix, read off adapted bases at its ends.

    ``p`` and ``q`` are invertible matrices P and Q whose columns are bases
    adapted to ker(zeta) and im(zeta).  In those bases zeta is M = Q^-1 zeta P;
    see ``pseudo_inverse_from_coordinates``.
    """
    q_inv = basis_inverse(q)
    return pseudo_inverse_from_coordinates(q_inv @ zeta @ p, p, q_inv)


def pseudo_inverse_from_coordinates(m: Matrix, p: Matrix, q_inv: Matrix) -> Matrix:
    """The pseudo-inverse of zeta = Q M P^-1, from its matrix M = Q^-1 zeta P
    in adapted bases P and Q, and from Q^-1.

    M's nonzero columns R are the basis vectors outside ker(zeta) and its
    nonzero rows T the coordinates of im(zeta), so M[T, R] is square and
    invertible, and

        zeta* = P[:, R] M[T, R]^-1 Q^-1[T, :].

    Then zeta* zeta = 1 - pi_ker and zeta zeta* = pi_im for the coordinate
    projections in P and Q, which fix a pseudo-inverse.  Where zeta carries
    basis vectors to basis vectors or to zero, zeta* is the inverse matching.
    """
    field = m.field
    rows = [j for j, r in enumerate(m.entries) if any(r)]
    cols = [k for k in range(m.cols) if any(r[k] for r in m.entries)]
    block = inverse(
        Matrix(field, len(rows), len(cols), tuple(tuple(m.entries[j][k] for k in cols) for j in rows))
    )
    if block is None:
        raise ConstructionFailure("bases are not adapted to the kernel and the image")
    left = Matrix(field, p.rows, len(cols), tuple(tuple(r[k] for k in cols) for r in p.entries))
    right = Matrix(field, len(rows), q_inv.cols, tuple(q_inv.entries[j] for j in rows))
    return left @ block @ right


def transported_bases(rep: Representation, flag: FlagAssignment) -> Dict[str, Matrix]:
    """One basis per object, adapted to a passing flag, as the columns of an
    invertible matrix.

    Each object's first-fit basis A is its complements of
    ``adapted_complements`` in index order.  With an undirected cycle (loops
    count) these are the bases.  Otherwise the first object of each
    connected component keeps A, and the basis is carried breadth-first
    along every edge:

    * push along z: x -> y:  B_y = {z(v) : v in B_x, z(v) != 0}, then the
      a in A_y outside im z;
    * pull along w: u -> y:  B_u = the a in A_u inside ker w, then w*(e) for
      the e in B_y inside im w, where w* is the pseudo-inverse for A_u and
      B_y: the preimage of e in the span K of the rest of A_u.

    Both stay adapted: ker z and im z are flag elements, c meet im z =
    z(z^-1(c)) at y, and c = (c meet ker w) + (c meet K) with
    w(c meet K) = w(c) at u.  A tree crosses each edge once, so every
    generator then carries each basis vector to a basis vector or to zero.
    """
    field = rep.field
    dims = {o.id: o.dim for o in rep.objects}
    first_fit = {
        oid: [v for c in adapted_complements(flag.posets[oid]) for v in c.basis]
        for oid in dims
    }
    # with a cycle every object keeps A, and the walk below has nothing to do
    cyclic = quiver_shape(rep).has_undirected_cycle
    bases: Dict[str, List[Vector]] = dict(first_fit) if cyclic else {}
    for o in rep.objects:
        if o.id in bases:
            continue
        bases[o.id] = first_fit[o.id]
        queue = [o.id]
        for here in queue:
            for g in rep.generators:
                if g.dom == here and g.cod not in bases:
                    im = image(g.matrix)
                    pushed = [w for w in map(g.matrix.apply, bases[here]) if any(w)]
                    kept = [a for a in first_fit[g.cod] if not im.contains_vector(a)]
                    bases[g.cod] = pushed + kept
                    queue.append(g.cod)
                elif g.cod == here and g.dom not in bases:
                    own = first_fit[g.dom]
                    dagger = pseudo_inverse(
                        g.matrix,
                        _column_matrix(field, dims[g.dom], own),
                        _column_matrix(field, dims[here], bases[here]),
                    )
                    kept = [a for a in own if not any(g.matrix.apply(a))]
                    pulled = [v for v in map(dagger.apply, bases[here]) if any(v)]
                    bases[g.dom] = kept + pulled
                    queue.append(g.dom)
    return {oid: _column_matrix(field, n, bases[oid]) for oid, n in dims.items()}


def kernel_decomposition_check(alpha: Matrix, beta: Matrix, beta_dagger: Matrix) -> bool:
    """beta^-1(im alpha) = ker beta + im(beta* alpha), as exact subspaces."""
    if alpha.rows != beta.rows:
        raise ValidationError("maps must share a codomain")
    if (beta_dagger.rows, beta_dagger.cols) != (beta.cols, beta.rows):
        raise ValidationError("pseudo-inverse has the wrong shape")
    lhs = map_preimage(beta, image(alpha))
    rhs = sub_sum(kernel(beta), image(beta_dagger @ alpha))
    return lhs == rhs


@dataclass(frozen=True)
class EnvelopeLimits:
    # max_words counts the products computed, one per arrow applied
    max_words: int = 10_000
    max_matrices_per_hom: int = 1_000


@dataclass(eq=False)
class Envelope:
    pseudo_inverses: Dict[str, Matrix]
    # per hom-set (dom, cod): each morphism, mapped to its reversed dagger word
    closure: Dict[Tuple[str, str], Dict[Matrix, Matrix]]
    bounded: bool
    idempotents_commute: bool
    endomorphisms_idempotent: Optional[bool]  # None when the quiver has a cycle
    all_have_pseudo_inverse: Optional[bool]   # None when the closure was cut short

    @property
    def total_morphisms(self) -> int:
        return sum(len(v) for v in self.closure.values())

    def to_json(self) -> dict:
        return {
            "pseudo_inverses": {
                gid: m.to_json() for gid, m in sorted(self.pseudo_inverses.items())
            },
            "closure": {
                f"{dom}->{cod}": len(mats)
                for (dom, cod), mats in sorted(self.closure.items())
            },
            "total_morphisms": self.total_morphisms,
            "bounded": self.bounded,
            "idempotents_commute": self.idempotents_commute,
            "endomorphisms_idempotent": self.endomorphisms_idempotent,
            "all_have_pseudo_inverse": self.all_have_pseudo_inverse,
        }


def _is_idempotent(m: Matrix) -> bool:
    return m.rows == m.cols and m @ m == m


def verify_envelope(
    rep: Representation,
    families: Dict[str, ProjectionFamily],
    pseudo_inverses: Dict[str, Matrix],
    limits: EnvelopeLimits = EnvelopeLimits(),
) -> Envelope:
    """Close generators and pseudo-inverses under composition; check axioms.

    Every morphism is an identity extended one arrow at a time, an arrow
    (a, a*) being (g, g*) or (g*, g).  One breadth-first pass from the
    identities stores (a m, s a*) for each stored (m, s) and arrow out of
    cod(m), so s is the reversed dagger word of the first word reaching m.
    Hitting a limit sets ``bounded`` and restricts the verdict to the
    explored fragment.

    Raises AxiomViolation on a non-commuting idempotent pair, or (on
    cycle-free quivers) on a non-idempotent endomorphism.  Once idempotents
    commute, s is a pseudo-inverse of m by induction on the word: m s and
    a* a are idempotents at cod(m), so (a m)(s a*)(a m) = a (a* a)(m s) m =
    a m, and dually.  Pseudo-inverses in an inverse category are unique, so
    ``all_have_pseudo_inverse`` checks m s m = m and s m s = s for each pair
    instead of searching the back hom-set.  This rests on each g* satisfying
    its two identities with g, as ``pseudo_inverse`` guarantees; otherwise
    the check can read False where the closure holds another candidate.  A
    generator without a pseudo-inverse raises ValidationError.

    ``families`` is not read: the pseudo-inverses already encode its
    projections (g* g = 1 - pi_ker, g g* = pi_im).  It stays for callers
    that pass it positionally.
    """
    cycle_free = not quiver_shape(rep).has_undirected_cycle
    arrows: Dict[str, List[Tuple[str, Matrix, Matrix]]] = {o.id: [] for o in rep.objects}
    for g in rep.generators:
        dag = pseudo_inverses.get(g.id)
        if dag is None:
            raise ValidationError(f"generator {g.id!r} has no pseudo-inverse", generator=g.id)
        arrows[g.dom].append((g.cod, g.matrix, dag))
        arrows[g.cod].append((g.dom, dag, g.matrix))

    homs: Dict[Tuple[str, str], Dict[Matrix, Matrix]] = {}
    queue: List[Tuple[str, str, Matrix]] = []
    for o in rep.objects:
        one = Matrix.identity(rep.field, o.dim)
        homs[(o.id, o.id)] = {one: one}
        queue.append((o.id, o.id, one))
    words = 0
    bounded = False
    for dom, cod, m in queue:
        s = homs[(dom, cod)][m]
        for target, a, a_star in arrows[cod]:
            if words >= limits.max_words:
                bounded = True
                break
            words += 1
            am = a @ m
            bucket = homs.setdefault((dom, target), {})
            if am in bucket:
                continue
            if len(bucket) >= limits.max_matrices_per_hom:
                bounded = True
                continue
            bucket[am] = s @ a_star
            queue.append((dom, target, am))
        else:
            continue
        break  # the word limit ends the pass

    for o in rep.objects:
        endos = homs[(o.id, o.id)]
        idempotents = [m for m in endos if _is_idempotent(m)]
        for i, e in enumerate(idempotents):
            for f in idempotents[i + 1:]:
                if e @ f != f @ e:
                    raise AxiomViolation(
                        f"non-commuting idempotent endomorphisms at object {o.id!r}",
                        object=o.id,
                        left=e.to_json(),
                        right=f.to_json(),
                    )
        if cycle_free:
            for m in endos:
                if not _is_idempotent(m):
                    raise AxiomViolation(
                        f"non-idempotent endomorphism at object {o.id!r} "
                        f"on a cycle-free quiver",
                        object=o.id,
                        matrix=m.to_json(),
                    )

    all_have = None if bounded else all(
        m @ s @ m == m and s @ m @ s == s for bucket in homs.values() for m, s in bucket.items()
    )

    return Envelope(
        pseudo_inverses=dict(pseudo_inverses),
        closure=homs,
        bounded=bounded,
        idempotents_commute=True,
        endomorphisms_idempotent=True if cycle_free else None,
        all_have_pseudo_inverse=all_have,
    )
