"""Constructive side: commuting multiplicative projection families and
pseudo-inverses, with every claimed identity re-verified before returning.

The greedy family construction picks, for each pair (b, c), a set of vectors
inside b avoiding c and everything below b, of size equal to the criterion
score of (b, c).  The union over b spans the kernel of the projection onto c.
Where the underlying counting argument has gaps, exact verification catches
the fallout and raises ConstructionFailure rather than returning an
unverified family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .criterion import evaluate_pair, poset_passes
from .errors import (
    AxiomViolation,
    ConstructionFailure,
    CriterionViolated,
    MissingFlagElement,
    ValidationError,
)
from .linalg import (
    Matrix,
    Subspace,
    image,
    inverse,
    kernel,
    map_preimage,
    projection_onto,
    solve_particular,
    sub_intersect,
    sub_sum,
)
from .poset import MobiusTable, SubspacePoset, mobius
from .rep import Representation


@dataclass(eq=False)
class ProjectionFamily:
    """Commuting multiplicative projections onto every element of a poset."""

    object_id: str
    poset: SubspacePoset
    projections: Dict[Subspace, Matrix]

    def projection(self, s: Subspace) -> Matrix:
        try:
            return self.projections[s]
        except KeyError:
            raise MissingFlagElement(
                f"no projection onto a dim-{s.dim} subspace at object {self.object_id!r}"
            ) from None

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


def _independent_modulo(field, candidate: Sequence, span_rows: List[List]) -> bool:
    """Does ``candidate`` fall outside the row space of ``span_rows``?"""
    probe = Subspace.span(field, len(candidate), span_rows)
    return not probe.contains_vector(candidate)


def realize_projections(
    p: SubspacePoset,
    mu: Optional[MobiusTable] = None,
    object_id: str = "",
    report_pass: Optional[bool] = None,
) -> ProjectionFamily:
    """Build the projection family for one object's flag poset.

    Processing order is the poset's canonical linear extension; candidate
    kernel vectors are drawn from each element's canonical basis rows, first
    match wins.  Everything is verified before returning.
    """
    mu = mu if mu is not None else mobius(p)
    if report_pass is None:
        report_pass = poset_passes(p, mu, "standard")
    if not report_pass:
        raise CriterionViolated(
            f"criterion fails on flag({object_id or '?'}); no projection family exists"
        )
    field = p.field
    n = p.ambient_dim
    elems = p.elements
    projections: Dict[Subspace, Matrix] = {}
    for c in elems:
        kernel_rows: List[List] = []
        for bi, b in enumerate(elems):
            count = evaluate_pair(p, mu, b, c, "standard")
            if count < 0:
                raise CriterionViolated(
                    f"negative score at object {object_id!r}", value=count
                )
            if count == 0:
                continue
            below = [a for ai, a in enumerate(elems) if p.leq[ai][bi] and a != b]
            forbidden: List[List] = [list(r) for r in c.basis]
            for a in below:
                forbidden.extend(list(r) for r in a.basis)
            forbidden.extend(kernel_rows)
            taken = 0
            for row in b.basis:
                if taken == count:
                    break
                if _independent_modulo(field, row, forbidden):
                    kernel_rows.append(list(row))
                    forbidden.append(list(row))
                    taken += 1
            if taken < count:
                raise ConstructionFailure(
                    f"could not pick {count} kernel vectors for pair "
                    f"(dim {b.dim}, dim {c.dim}) at object {object_id!r}",
                    object=object_id,
                    b=b.to_json(),
                    c=c.to_json(),
                    needed=count,
                    found=taken,
                )
        ker = Subspace.span(field, n, kernel_rows)
        if ker.dim + c.dim != n or not sub_intersect(ker, c).is_zero:
            raise ConstructionFailure(
                f"kernel candidate does not complement its dim-{c.dim} image "
                f"at object {object_id!r}",
                object=object_id,
            )
        projections[c] = projection_onto(c, ker)
    problems = verify_projection_family(p, projections)
    if problems:
        raise ConstructionFailure(
            f"projection family verification failed at object {object_id!r}",
            object=object_id,
            problems=problems,
        )
    return ProjectionFamily(object_id=object_id, poset=p, projections=projections)


def pseudo_inverse(
    zeta: Matrix, fam_dom: ProjectionFamily, fam_cod: ProjectionFamily
) -> Matrix:
    """Pseudo-inverse of a generator matrix through the projection families.

    The complement of ker(zeta) chosen by the domain family is carried
    isomorphically onto im(zeta); the pseudo-inverse projects onto im(zeta)
    and pulls back through that isomorphism.  Satisfies, and is checked to
    satisfy exactly: z z* z = z, z* z z* = z*, z* z = 1 - pi_ker,
    z z* = pi_im.
    """
    ker_z = kernel(zeta)
    im_z = image(zeta)
    pi_ker = fam_dom.projection(ker_z)
    pi_im = fam_cod.projection(im_z)
    field = zeta.field
    s = Matrix.identity(field, zeta.cols) - pi_ker
    w = image(s)
    basis_w = list(w.basis)
    images = [zeta.apply(v) for v in basis_w]
    u = (
        Matrix(field, zeta.rows, len(images), tuple(zip(*images)))
        if images
        else Matrix.zeros(field, zeta.rows, 0)
    )
    w_t = w.basis_matrix().transpose()
    cols = []
    for j in range(zeta.rows):
        e = [field.one if i == j else field.zero for i in range(zeta.rows)]
        target = pi_im.apply(e)
        lam = solve_particular(u, target)
        if lam is None:
            raise ConstructionFailure(
                "projected vector not reachable through the carried complement"
            )
        cols.append(w_t.apply(lam))
    dagger = (
        Matrix(field, zeta.cols, zeta.rows, tuple(zip(*cols)))
        if cols
        else Matrix.zeros(field, zeta.cols, 0)
    )
    checks = [
        (zeta @ dagger @ zeta == zeta, "z z* z = z"),
        (dagger @ zeta @ dagger == dagger, "z* z z* = z*"),
        (dagger @ zeta == s, "z* z = 1 - pi_ker"),
        (zeta @ dagger == pi_im, "z z* = pi_im"),
    ]
    failed = [name for ok, name in checks if not ok]
    if failed:
        raise ConstructionFailure(
            "pseudo-inverse identities failed", identities=failed
        )
    return dagger


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
    max_words: int = 10_000
    max_matrices_per_hom: int = 1_000


@dataclass(eq=False)
class Envelope:
    pseudo_inverses: Dict[str, Matrix]
    closure: Dict[Tuple[str, str], Tuple[Matrix, ...]]
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
    cycle_free: Optional[bool] = None,
) -> Envelope:
    """Close generators and pseudo-inverses under composition; check axioms.

    Raises AxiomViolation on a non-commuting idempotent pair, or (on
    cycle-free quivers) on a non-idempotent endomorphism.  Hitting a limit
    sets ``bounded`` and restricts the verdict to the explored fragment.
    """
    if cycle_free is None:
        from .rep import quiver_shape

        cycle_free = not quiver_shape(rep).has_undirected_cycle
    homs: Dict[Tuple[str, str], Dict[Matrix, None]] = {}
    queue: List[Tuple[str, str, Matrix]] = []
    words = 0
    bounded = False

    def add(dom: str, cod: str, m: Matrix) -> None:
        nonlocal bounded
        key = (dom, cod)
        bucket = homs.setdefault(key, {})
        if m in bucket:
            return
        if len(bucket) >= limits.max_matrices_per_hom:
            bounded = True
            return
        bucket[m] = None
        queue.append((dom, cod, m))

    for o in rep.objects:
        add(o.id, o.id, Matrix.identity(rep.field, o.dim))
    for g in rep.generators:
        add(g.dom, g.cod, g.matrix)
        dag = pseudo_inverses.get(g.id)
        if dag is not None:
            add(g.cod, g.dom, dag)

    head = 0
    while head < len(queue):
        dom, cod, m = queue[head]
        head += 1
        snapshot = [(d, c, x) for (d, c), bucket in homs.items() for x in bucket]
        for d2, c2, other in snapshot:
            if words >= limits.max_words:
                bounded = True
                break
            if c2 == dom:
                words += 1
                add(d2, cod, m @ other)
            if cod == d2 and words < limits.max_words:
                words += 1
                add(dom, c2, other @ m)
        if bounded and words >= limits.max_words:
            break

    closure = {key: tuple(bucket.keys()) for key, bucket in homs.items()}

    for o in rep.objects:
        endos = closure.get((o.id, o.id), ())
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

    all_have = None
    if not bounded:
        all_have = True
        for (dom, cod), mats in closure.items():
            back = closure.get((cod, dom), ())
            for m in mats:
                if not any(m @ b @ m == m and b @ m @ b == b for b in back):
                    all_have = False
                    break
            if not all_have:
                break

    return Envelope(
        pseudo_inverses=dict(pseudo_inverses),
        closure=closure,
        bounded=bounded,
        idempotents_commute=True,
        endomorphisms_idempotent=True if cycle_free else None,
        all_have_pseudo_inverse=all_have,
    )
