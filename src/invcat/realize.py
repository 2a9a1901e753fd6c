"""Constructive side: adapted bases, commuting multiplicative projection
families and pseudo-inverses.

A family is read off an adapted basis of the flag: each projection keeps the
basis coordinates of its target and zeroes the rest, pi_c = B[:, S_c]
B^-1[S_c, :], so the family axioms hold once the basis is invertible and
every element is the span of its coordinates.  On a flag of coordinate sets
(saturated on bitmasks, see ``flag.BasisCoordinates``) the basis is the
flag's own and S_c is c's mask (``mask_projections``).  Otherwise it is the
first-fit basis of the complements C_b of ``criterion.adapted_complements``,
the same construction the rank count measures, with S_c the coordinates of
the C_x below c; that the basis is invertible and that each target gets as
many coordinates as its dimension is checked (``realize_projections``).
``verify_projection_family`` is the exhaustive check of the axioms, kept as
the reference for the oracle and the tests.  Every reader of a basis's
inverse calls ``basis_inverse``, and the inverse is cached on the basis
matrix, so each basis is eliminated once however many readers it has.

``transported_bases`` picks one adapted basis per object for a whole
representation: it carries one object's basis along a spanning forest, so
that every forest edge, and on a cycle-free quiver every generator, maps
basis vectors to basis vectors or to zero.  It hands over each generator's
matrix in the bases with them: for a forest edge, the partial matching it
built.  A pseudo-inverse is read off the bases at the two ends of its
generator in closed form, from that matrix; where it is a partial matching
the pseudo-inverse is the inverse matching.

The envelope is closed one generator or pseudo-inverse at a time, as a set
of morphisms per hom-set; once its idempotents commute, pseudo-inverses need
checking only at the generators, by induction on the word.  Conjugation by
the families' bases is a faithful functor, so the closure may run in those
bases; where every generator and pseudo-inverse is monomial there, it runs
on monomial maps (partial bijections of basis vectors, scaled), the
Wagner-Preston form of the envelope, and otherwise on matrices
(``verify_envelope``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from itertools import count
from operator import matmul
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .criterion import adapted_complements
from .errors import (
    AxiomViolation,
    ConstructionFailure,
    CriterionViolated,
    ValidationError,
)
from .fields import Field
from .flag import FlagAssignment, Monomial, monomial
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


def _coordinate_family(
    p: SubspacePoset, object_id: str, basis: Matrix, keeps: Sequence[Sequence[int]]
) -> ProjectionFamily:
    """The family whose projection onto the element c of ``p`` keeps the
    basis coordinates S_c = ``keeps[c's index]`` and zeroes the rest:
    pi_c = B[:, S_c] B^-1[S_c, :], with B = ``basis``."""
    inv = basis_inverse(basis)
    projections = {c: basis.through(inv, keep) for c, keep in zip(p.elements, keeps)}
    return ProjectionFamily(object_id, p, projections, basis)


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
    cols = [v for c in comps for v in c.basis]
    owner = [bi for bi, c in enumerate(comps) for _ in c.basis]
    basis = _column_matrix(p.field, n, cols)
    if inverse(basis) is None:
        raise ConstructionFailure(
            f"adapted basis is singular at object {object_id!r}", object=object_id
        )
    keeps = []
    for c, below in zip(p.elements, p.down):
        keep = [k for k in range(n) if below >> owner[k] & 1]
        if len(keep) != c.dim:
            raise ConstructionFailure(
                f"adapted basis spans {len(keep)} dimensions of a dim-{c.dim} "
                f"element at object {object_id!r}",
                object=object_id,
            )
        keeps.append(keep)
    return _coordinate_family(p, object_id, basis, keeps)


def mask_projections(
    p: SubspacePoset, masks: Sequence[int], basis: Matrix, object_id: str = ""
) -> ProjectionFamily:
    """The projection family of a poset of coordinate sets, read off their
    masks: ``masks[i]`` holds the basis indices (the columns of ``basis``)
    that span element i.  The projection onto c keeps the coordinates of
    c's mask, pi_c = B[:, S_c] B^-1[S_c, :]; S_b and S_c intersect in the
    mask of b meet c, so the projections commute and multiply as meets do.
    """
    n = p.ambient_dim
    keeps = [[k for k in range(n) if mask >> k & 1] for mask in masks]
    return _coordinate_family(p, object_id, basis, keeps)


def basis_inverse(q: Matrix) -> Matrix:
    """The inverse of a basis matrix, cached on it (``linalg.inverse``);
    ConstructionFailure when it is singular."""
    q_inv = inverse(q)
    if q_inv is None:
        raise ConstructionFailure("basis is singular")
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
    rows, _, pulled = _pulled_columns(m, p)
    right = Matrix(m.field, len(rows), q_inv.cols, tuple(q_inv.entries[j] for j in rows))
    return pulled @ right


def _pulled_columns(m: Matrix, p: Matrix) -> Tuple[List[int], List[int], Matrix]:
    """``(T, R, P[:, R] M[T, R]^-1)`` for zeta's matrix M in adapted bases P
    and Q (see ``pseudo_inverse_from_coordinates``): M's nonzero rows T and
    columns R, and the matrix whose column i is zeta*(Q e_(T[i])), the
    image under the pseudo-inverse of the i-th basis vector of Q in im zeta."""
    field = m.field
    rows = [j for j, r in enumerate(m.entries) if any(r)]
    cols = [k for k in range(m.cols) if any(r[k] for r in m.entries)]
    block = inverse(
        Matrix(field, len(rows), len(cols), tuple(tuple(m.entries[j][k] for k in cols) for j in rows))
    )
    if block is None:
        raise ConstructionFailure("bases are not adapted to the kernel and the image")
    left = Matrix(field, p.rows, len(cols), tuple(tuple(r[k] for k in cols) for r in p.entries))
    return rows, cols, left @ block


def transported_bases(
    rep: Representation, flag: FlagAssignment
) -> Tuple[Dict[str, Matrix], Dict[str, Matrix]]:
    """One basis per object, adapted to a passing flag, as the columns of an
    invertible matrix, and each generator's matrix in those bases (its
    *reading*).

    Each object's first-fit basis A is its complements of
    ``adapted_complements`` in index order.  The first object of each
    connected component keeps A, and the basis is carried breadth-first
    along a spanning forest, one edge into each object it reaches first:

    * push along z: x -> y:  B_y = {z(v) : v in B_x, z(v) != 0}, then the
      a in A_y outside im z;
    * pull along w: u -> y:  B_u = the a in A_u inside ker w, then w*(e) for
      the e in B_y inside im w, where w* is the pseudo-inverse for A_u and
      B_y: the preimage of e in the span K of the rest of A_u.  With
      M = B_y^-1 w A_u, the a inside ker w are the columns of A_u outside
      M's nonzero columns R, and the w*(e) are the columns of
      A_u[:, R] M[T, R]^-1, in the order of M's nonzero rows T (see
      ``pseudo_inverse_from_coordinates``), so no pseudo-inverse is built.

    Both stay adapted: ker z and im z are flag elements, c meet im z =
    z(z^-1(c)) at y, and c = (c meet ker w) + (c meet K) with
    w(c meet K) = w(c) at u.  Every forest edge, so every generator of a
    cycle-free quiver, then carries each basis vector to a basis vector or
    to zero, and its reading is the 0/1 partial matching just built, with
    no inversion and no product: a push sends its k-th basis vector with a
    nonzero image to the k-th pushed vector, and a pull sends the a inside
    ker w to zero and its i-th pulled vector to the basis vector T[i] of
    B_y.  Only an edge that closes a cycle is conjugated, B_cod^-1 g B_dom.
    Each basis matrix is built once, so the inverse a pull takes of it is
    the one cached for every later reader.
    """
    field = rep.field
    dims = {o.id: o.dim for o in rep.objects}
    first_fit = {
        oid: [v for c in adapted_complements(flag.posets[oid]) for v in c.basis]
        for oid in dims
    }
    bases: Dict[str, Matrix] = {}
    in_bases: Dict[str, Matrix] = {}
    for o in rep.objects:
        if o.id in bases:
            continue
        bases[o.id] = _column_matrix(field, o.dim, first_fit[o.id])
        queue = [o.id]
        for here in queue:
            vectors = list(zip(*bases[here].entries))  # its columns
            for g in rep.generators:
                if g.dom == here and g.cod not in bases:
                    im = image(g.matrix)
                    images = list(map(g.matrix.apply, vectors))
                    hit = [k for k, w in enumerate(images) if any(w)]
                    kept = [a for a in first_fit[g.cod] if not im.contains_vector(a)]
                    pushed = [images[k] for k in hit]
                    bases[g.cod] = _column_matrix(field, dims[g.cod], pushed + kept)
                    pairs = zip(hit, count())
                    in_bases[g.id] = _matching_matrix(field, dims[g.cod], len(vectors), pairs)
                    queue.append(g.cod)
                elif g.cod == here and g.dom not in bases:
                    own = first_fit[g.dom]
                    a_u = _column_matrix(field, dims[g.dom], own)
                    m = basis_inverse(bases[here]) @ g.matrix @ a_u
                    targets, moved, pulled = _pulled_columns(m, a_u)
                    kept = [a for k, a in enumerate(own) if k not in moved]
                    pulled_vectors = list(zip(*pulled.entries))
                    bases[g.dom] = _column_matrix(field, dims[g.dom], kept + pulled_vectors)
                    pairs = enumerate(targets, len(kept))
                    in_bases[g.id] = _matching_matrix(field, len(vectors), len(own), pairs)
                    queue.append(g.dom)
    for g in rep.generators:
        if g.id not in in_bases:  # an edge that closes a cycle
            in_bases[g.id] = basis_inverse(bases[g.cod]) @ g.matrix @ bases[g.dom]
    return {oid: bases[oid] for oid in dims}, {g.id: in_bases[g.id] for g in rep.generators}


def _matching_matrix(
    field: Field, rows: int, cols: int, pairs: Iterable[Tuple[int, int]]
) -> Matrix:
    """The rows x cols 0/1 matrix that sends basis vector k to basis vector
    t for each (k, t) in ``pairs``, and every other basis vector to zero."""
    grid = [[field.zero] * cols for _ in range(rows)]
    for k, t in pairs:
        grid[t][k] = field.one
    return Matrix(field, rows, cols, tuple(map(tuple, grid)))


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
    # per hom-set (dom, cod): its morphisms, as an insertion-ordered set of
    # matrices in the input's coordinates
    closure: Dict[Tuple[str, str], Mapping[Matrix, None]]
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


Morphism = Hashable  # a Matrix, or a flag.Monomial


class _HomSet(Mapping):
    """One hom-set of a closure, as an insertion-ordered set of matrices in
    the input's coordinates.  Its size is that of the closure's own set; its
    morphisms are mapped back to matrices when first read."""

    def __init__(self, morphisms: Dict[Morphism, None], back: Callable[[Morphism], Matrix]):
        self._morphisms = morphisms
        self._back = back
        self._matrices: Optional[Dict[Matrix, None]] = None

    def _read(self) -> Dict[Matrix, None]:
        if self._matrices is None:
            self._matrices = dict.fromkeys(map(self._back, self._morphisms))
        return self._matrices

    def __len__(self) -> int:
        return len(self._morphisms)

    def __iter__(self) -> Iterator[Matrix]:
        return iter(self._read())

    def __getitem__(self, m: Matrix) -> None:
        return self._read()[m]


# The closure on one kind of morphism: the identity of a dimension, the
# product (a, m) -> a m, the matrix in the input's coordinates of a morphism
# dom -> cod, and each generator's (g, g*) as morphisms of the kind.
_Kind = Tuple[
    Callable[[int], Morphism],
    Callable[[Morphism, Morphism], Morphism],
    Callable[[str, str, Morphism], Matrix],
    List[Tuple[Morphism, Morphism]],
]


def _matrix_kind(rep: Representation, pairs: List[Tuple[Matrix, Matrix]]) -> _Kind:
    return partial(Matrix.identity, rep.field), matmul, lambda dom, cod, m: m, pairs


def _monomial_kind(
    rep: Representation,
    families: Dict[str, ProjectionFamily],
    pairs: List[Tuple[Matrix, Matrix]],
) -> Optional[_Kind]:
    """The kind of monomial maps in the bases of ``families``: each generator
    g: x -> y as B_y^-1 g B_x and its g* as B_x^-1 g* B_y.  None where an
    object has no family, or where one of those is not monomial."""
    if not families or not all(o.id in families for o in rep.objects):
        return None
    bases = {o.id: families[o.id].basis for o in rep.objects}
    inverses = {oid: basis_inverse(b) for oid, b in bases.items()}
    monomial_pairs = []
    for gen, (g, s) in zip(rep.generators, pairs):
        g_hat = monomial(inverses[gen.cod] @ g @ bases[gen.dom])
        if g_hat is None:
            return None
        s_hat = monomial(inverses[gen.dom] @ s @ bases[gen.cod])
        if s_hat is None:
            return None
        monomial_pairs.append((g_hat, s_hat))
    field = rep.field
    mul, zero = field.mul, field.zero

    def compose(a: Monomial, m: Monomial) -> Monomial:
        out = []
        for e in m:
            f = None if e is None else a[e[0]]
            out.append(None if f is None else (f[0], mul(f[1], e[1])))
        return tuple(out)

    def back(dom: str, cod: str, m: Monomial) -> Matrix:
        rows = [[zero] * len(m) for _ in range(bases[cod].rows)]
        for j, e in enumerate(m):
            if e is not None:
                rows[e[0]][j] = field.coerce(e[1])
        hat = Matrix(field, len(rows), len(m), tuple(map(tuple, rows)))
        return bases[cod] @ hat @ inverses[dom]

    return lambda n: tuple((j, 1) for j in range(n)), compose, back, monomial_pairs


def verify_envelope(
    rep: Representation,
    families: Dict[str, ProjectionFamily],
    pseudo_inverses: Dict[str, Matrix],
    limits: EnvelopeLimits = EnvelopeLimits(),
) -> Envelope:
    """Close generators and pseudo-inverses under composition; check axioms.

    Every morphism is an identity extended one arrow at a time, an arrow
    (a, a*) being (g, g*) or (g*, g).  One breadth-first pass from the
    identities stores a m for each stored m and arrow a out of cod(m).
    Hitting a limit sets ``bounded`` and restricts the verdict to the
    explored fragment.

    Raises AxiomViolation on a non-commuting idempotent pair, or (on
    cycle-free quivers) on a non-idempotent endomorphism.  Once idempotents
    commute, ``all_have_pseudo_inverse`` needs only g g* g = g and
    g* g g* = g* at each generator: then, by induction on the word, the
    reversed word s of daggers is a pseudo-inverse of m, since m s and a* a
    are idempotents at cod(m), so (a m)(s a*)(a m) = a (a* a)(m s) m = a m,
    and dually.  A supplied g* that fails an identity reads False, even
    where the closure holds another candidate.  A generator without a
    pseudo-inverse raises ValidationError.

    ``families`` supplies one basis B_x per object.  Conjugation,
    m -> B_y^-1 m B_x for m: x -> y, is a faithful functor: it keeps
    identities and products and tells distinct maps apart.  So the closure
    in those bases has the same morphisms, words and hom-set sizes, hence
    the same limits, and the same idempotents, commutations and identities
    g g* g = g, as the closure on the input's matrices.  Where every
    generator and every supplied g* is monomial in the bases (at most one
    nonzero entry per column), so is every product, and the closure runs on
    monomial maps: per domain index, a target index and a scalar, or
    nothing.  The pipeline's families give such bases wherever the flag was
    saturated on bitmasks: a map is read as monomial by ``flag.monomial``,
    the scan ``flag.Matching.of`` makes.  Otherwise, or where an
    object has no family, it runs on the matrices.  ``closure`` and an
    AxiomViolation's matrices are in the input's coordinates either way; on
    monomial maps a hom-set's matrices are computed when first read.
    """
    cycle_free = not quiver_shape(rep).has_undirected_cycle
    pairs: List[Tuple[Matrix, Matrix]] = []
    for g in rep.generators:
        dag = pseudo_inverses.get(g.id)
        if dag is None:
            raise ValidationError(f"generator {g.id!r} has no pseudo-inverse", generator=g.id)
        pairs.append((g.matrix, dag))
    identity, compose, back, daggers = (
        _monomial_kind(rep, families, pairs) or _matrix_kind(rep, pairs)
    )
    arrows: Dict[str, List[Tuple[str, Morphism]]] = {o.id: [] for o in rep.objects}
    for g, (m, s) in zip(rep.generators, daggers):
        arrows[g.dom].append((g.cod, m))
        arrows[g.cod].append((g.dom, s))

    homs: Dict[Tuple[str, str], Dict[Morphism, None]] = {}
    queue: List[Tuple[str, str, Morphism]] = []
    for o in rep.objects:
        one = identity(o.dim)
        homs[(o.id, o.id)] = {one: None}
        queue.append((o.id, o.id, one))
    words = 0
    bounded = False
    for dom, cod, m in queue:
        for target, a in arrows[cod]:
            if words >= limits.max_words:
                bounded = True
                break
            words += 1
            am = compose(a, m)
            bucket = homs.setdefault((dom, target), {})
            if am in bucket:
                continue
            if len(bucket) >= limits.max_matrices_per_hom:
                bounded = True
                continue
            bucket[am] = None
            queue.append((dom, target, am))
        else:
            continue
        break  # the word limit ends the pass

    for o in rep.objects:
        idempotents: List[Morphism] = []
        others: List[Morphism] = []
        for m in homs[(o.id, o.id)]:
            (idempotents if compose(m, m) == m else others).append(m)
        for i, e in enumerate(idempotents):
            for f in idempotents[i + 1:]:
                if compose(e, f) != compose(f, e):
                    raise AxiomViolation(
                        f"non-commuting idempotent endomorphisms at object {o.id!r}",
                        object=o.id,
                        left=back(o.id, o.id, e).to_json(),
                        right=back(o.id, o.id, f).to_json(),
                    )
        if cycle_free and others:
            raise AxiomViolation(
                f"non-idempotent endomorphism at object {o.id!r} "
                f"on a cycle-free quiver",
                object=o.id,
                matrix=back(o.id, o.id, others[0]).to_json(),
            )

    all_have = None if bounded else all(
        compose(compose(g, s), g) == g and compose(compose(s, g), s) == s for g, s in daggers
    )

    return Envelope(
        pseudo_inverses=dict(pseudo_inverses),
        closure={
            (dom, cod): _HomSet(morphisms, partial(back, dom, cod))
            for (dom, cod), morphisms in homs.items()
        },
        bounded=bounded,
        idempotents_commute=True,
        endomorphisms_idempotent=True if cycle_free else None,
        all_have_pseudo_inverse=all_have,
    )
