"""Blockcode decomposition of representations of cycle-free quivers.

Pipeline: split every object's space into atoms (joint refinement by the
projection family's images/kernels, then by generator images, preimages and
kernels across edges, to a fixpoint); check that every generator carries each
atom to zero or isomorphically onto a single atom; take connected components
of the atom-matching graph as summands.  Components whose atoms have common
dimension d > 1 are isomorphism-carried copies of d rank-one strands and are
split into those strands, so summand dimension vectors match the multiset of
indecomposables on interval-built corpora.

The verifier re-checks everything from scratch with plain linear algebra and
never trusts the decomposer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    AlignmentFailure,
    CriterionViolated,
    CycleError,
    ValidationError,
)
from .fields import Field
from .flag import ClosureLimits
from .linalg import (
    Matrix,
    Subspace,
    complement_within,
    inverse,
    kernel,
    map_image,
    map_preimage,
    solve_particular,
    sub_intersect,
    sub_sum,
)
from .pipeline import Analysis, analyze
from .rep import Representation, quiver_shape

AtomKey = Tuple[str, int]  # (object id, atom index)


def _atom_id(oid: str, i: int) -> str:
    return f"{oid}#{i}"


@dataclass(eq=False)
class BlockcodeDecomposition:
    field: Field
    atoms: Dict[str, Tuple[Subspace, ...]]
    gen_ends: Dict[str, Tuple[str, str]]          # gen id -> (dom object, cod object)
    action: Dict[str, Dict[int, Optional[int]]]   # gen id -> dom atom -> cod atom or None
    blocks: Dict[str, Dict[int, Matrix]]          # gen id -> dom atom -> invertible block
    summands: Tuple[Tuple[AtomKey, ...], ...]
    summand_dims: Tuple[Tuple[Tuple[str, int], ...], ...]

    def dims_multiset(self, object_ids: Sequence[str]) -> List[Tuple[int, ...]]:
        """Per-summand dimension vectors in a fixed object order, sorted."""
        vectors = []
        for dims in self.summand_dims:
            lookup = dict(dims)
            vectors.append(tuple(lookup.get(oid, 0) for oid in object_ids))
        return sorted(vectors)

    def to_json(self) -> dict:
        gens = {}
        for gid in sorted(self.action):
            dom_oid, cod_oid = self.gen_ends[gid]
            gens[gid] = {
                "action": {
                    _atom_id(dom_oid, i): ("zero" if tgt is None else _atom_id(cod_oid, tgt))
                    for i, tgt in sorted(self.action[gid].items())
                },
                "blocks": {
                    _atom_id(dom_oid, i): blk.to_json()
                    for i, blk in sorted(self.blocks[gid].items())
                },
            }
        return {
            "field": self.field.describe(),
            "objects": {
                oid: [
                    {"atom": _atom_id(oid, i), "basis": s.to_json()}
                    for i, s in enumerate(atoms)
                ]
                for oid, atoms in sorted(self.atoms.items())
            },
            "generators": gens,
            "summands": [
                [_atom_id(oid, i) for (oid, i) in summand] for summand in self.summands
            ],
        }

    @classmethod
    def from_json(cls, doc: dict, rep: Representation) -> "BlockcodeDecomposition":
        """Parse a certificate against a representation's shapes.

        Structural problems raise ValidationError; semantic defects are the
        verifier's job.
        """
        if not isinstance(doc, dict):
            raise ValidationError("certificate must be an object", path="$")
        field = Field.from_json(doc.get("field"))
        objects = doc.get("objects")
        if not isinstance(objects, dict):
            raise ValidationError("certificate needs an 'objects' map", path="objects")
        atoms: Dict[str, Tuple[Subspace, ...]] = {}
        index_by_id: Dict[str, AtomKey] = {}
        for oid, lst in objects.items():
            if not isinstance(lst, list):
                raise ValidationError("object atoms must be an array", path=f"objects.{oid}")
            dim = rep.object_dim(oid) if any(o.id == oid for o in rep.objects) else None
            subs = []
            for k, entry in enumerate(lst):
                where = f"objects.{oid}[{k}]"
                if not isinstance(entry, dict) or "basis" not in entry or "atom" not in entry:
                    raise ValidationError("atom entry needs 'atom' and 'basis'", path=where)
                basis = entry["basis"]
                if not isinstance(basis, list) or not all(isinstance(r, list) for r in basis):
                    raise ValidationError("atom basis must be an array of rows", path=where)
                ambient = dim if dim is not None else (len(basis[0]) if basis else 0)
                if any(len(r) != ambient for r in basis):
                    raise ValidationError(f"atom basis rows must have {ambient} entries", path=where)
                rows = [
                    [field.parse_entry(x, f"{where}.basis") for x in row] for row in basis
                ]
                subs.append(Subspace.span(field, ambient, rows))
                index_by_id[entry["atom"]] = (oid, k)
            atoms[oid] = tuple(subs)
        gens_doc = doc.get("generators")
        if not isinstance(gens_doc, dict):
            raise ValidationError("certificate needs a 'generators' map", path="generators")
        gen_ends: Dict[str, Tuple[str, str]] = {}
        action: Dict[str, Dict[int, Optional[int]]] = {}
        blocks: Dict[str, Dict[int, Matrix]] = {}
        for gid, body in gens_doc.items():
            where = f"generators.{gid}"
            try:
                g = rep.generator(gid)
            except ValidationError:
                raise ValidationError(f"unknown generator {gid!r} in certificate", path=where)
            gen_ends[gid] = (g.dom, g.cod)
            act: Dict[int, Optional[int]] = {}
            blk: Dict[int, Matrix] = {}
            if not isinstance(body, dict) or not isinstance(body.get("action"), dict):
                raise ValidationError("generator entry needs an 'action' map", path=where)
            for src_id, tgt_id in body["action"].items():
                if src_id not in index_by_id:
                    raise ValidationError(f"unknown atom {src_id!r}", path=f"{where}.action")
                src = index_by_id[src_id]
                if src[0] != g.dom:
                    raise ValidationError(
                        f"atom {src_id!r} does not live at dom({gid})", path=f"{where}.action"
                    )
                if tgt_id == "zero":
                    act[src[1]] = None
                else:
                    if tgt_id not in index_by_id:
                        raise ValidationError(f"unknown atom {tgt_id!r}", path=f"{where}.action")
                    tgt = index_by_id[tgt_id]
                    if tgt[0] != g.cod:
                        raise ValidationError(
                            f"atom {tgt_id!r} does not live at cod({gid})",
                            path=f"{where}.action",
                        )
                    act[src[1]] = tgt[1]
            for src_id, rows in (body.get("blocks") or {}).items():
                if src_id not in index_by_id:
                    raise ValidationError(f"unknown atom {src_id!r}", path=f"{where}.blocks")
                src = index_by_id[src_id]
                tgt = act.get(src[1])
                if tgt is None:
                    raise ValidationError(
                        f"block given for zero-mapped atom {src_id!r}", path=f"{where}.blocks"
                    )
                nrows = atoms[g.cod][tgt].dim
                ncols = atoms[g.dom][src[1]].dim
                if not isinstance(rows, list) or len(rows) != nrows:
                    raise ValidationError("block has wrong row count", path=f"{where}.blocks")
                parsed = [
                    [field.parse_entry(x, f"{where}.blocks.{src_id}") for x in row]
                    for row in rows
                ]
                blk[src[1]] = Matrix.build(field, nrows, ncols, parsed)
            action[gid] = act
            blocks[gid] = blk
        summands_doc = doc.get("summands")
        if not isinstance(summands_doc, list):
            raise ValidationError("certificate needs a 'summands' array", path="summands")
        summands = []
        for i, group in enumerate(summands_doc):
            if not isinstance(group, list):
                raise ValidationError("summand must be an array of atom ids", path=f"summands[{i}]")
            keys = []
            for aid in group:
                if aid not in index_by_id:
                    raise ValidationError(f"unknown atom {aid!r}", path=f"summands[{i}]")
                keys.append(index_by_id[aid])
            summands.append(tuple(keys))
        summand_dims = tuple(
            tuple(sorted((oid, atoms[oid][k].dim) for (oid, k) in summand))
            for summand in summands
        )
        return cls(
            field=field,
            atoms=atoms,
            gen_ends=gen_ends,
            action=action,
            blocks=blocks,
            summands=tuple(summands),
            summand_dims=summand_dims,
        )


# --- atom refinement ---------------------------------------------------------


def _refine_parts(atoms: List[Subspace], parts: Sequence[Subspace]) -> bool:
    """Split each atom along its intersections with ``parts``.

    A split happens only when the nonzero intersection pieces are pairwise
    disjoint and independent; the unreached remainder, if any, is topped up
    with one deterministic complement.  Splitting siblings together (rather
    than one piece at a time against an arbitrary complement) is what keeps
    the pieces compatible across generators.
    """
    changed = False
    out: List[Subspace] = []
    for atom in atoms:
        pieces: List[Subspace] = []
        whole = False
        for p in parts:
            inter = sub_intersect(atom, p)
            if inter.is_zero:
                continue
            if inter.dim == atom.dim:
                whole = True
                break
            if inter not in pieces:
                pieces.append(inter)
        if whole or not pieces:
            out.append(atom)
            continue
        reach = pieces[0]
        independent = True
        for p in pieces[1:]:
            if not sub_intersect(reach, p).is_zero:
                independent = False
                break
            reach = sub_sum(reach, p)
        if not independent or reach.dim != sum(p.dim for p in pieces):
            out.append(atom)
            continue
        if reach.dim < atom.dim:
            pieces.append(complement_within(atom, reach))
        out.extend(sorted(pieces, key=lambda s: s.sort_key))
        changed = True
    if changed:
        atoms[:] = out
    return changed


def _initial_atoms(analysis: Analysis) -> Dict[str, List[Subspace]]:
    atoms: Dict[str, List[Subspace]] = {}
    for o in analysis.rep.objects:
        if o.dim == 0:
            atoms[o.id] = []
            continue
        current = [Subspace.full(analysis.rep.field, o.dim)]
        fam = analysis.families[o.id]
        for s in fam.poset.elements:
            pi = fam.projections[s]
            _refine_parts(current, [s, kernel(pi)])
        atoms[o.id] = current
    return atoms


def _cross_refine(rep: Representation, atoms: Dict[str, List[Subspace]]) -> None:
    total_dim = sum(o.dim for o in rep.objects) or 1
    for _ in range(2 * total_dim + 2):
        changed = False
        for g in rep.generators:
            ker = kernel(g.matrix)
            changed |= _refine_parts(atoms[g.dom], [ker])
            images = [
                img
                for img in (map_image(g.matrix, b) for b in atoms[g.dom])
                if not img.is_zero
            ]
            changed |= _refine_parts(atoms[g.cod], images)
            for img in images:
                changed |= _refine_parts(atoms[g.cod], [img])
            preimages = [map_preimage(g.matrix, c) for c in atoms[g.cod]]
            changed |= _refine_parts(atoms[g.dom], preimages)
            for pre in preimages:
                changed |= _refine_parts(atoms[g.dom], [pre])
        if not changed:
            return
    raise AlignmentFailure("atom refinement failed to reach a fixpoint")


def _match_atoms(
    rep: Representation, atoms: Dict[str, List[Subspace]]
) -> Tuple[Dict[str, Dict[int, Optional[int]]], Dict[str, Dict[int, Matrix]]]:
    """Resolve each generator's action on atoms; zero or iso onto one atom."""
    action: Dict[str, Dict[int, Optional[int]]] = {}
    blocks: Dict[str, Dict[int, Matrix]] = {}
    for g in rep.generators:
        act: Dict[int, Optional[int]] = {}
        blk: Dict[int, Matrix] = {}
        for i, atom in enumerate(atoms[g.dom]):
            img = map_image(g.matrix, atom)
            if img.is_zero:
                act[i] = None
                continue
            tgt = None
            for j, cand in enumerate(atoms[g.cod]):
                if img == cand:
                    tgt = j
                    break
            if tgt is None:
                raise AlignmentFailure(
                    f"image of an atom under {g.id!r} is neither zero nor an atom",
                    generator=g.id,
                    atom=atom.to_json(),
                    image=img.to_json(),
                )
            if img.dim != atom.dim:
                raise AlignmentFailure(
                    f"generator {g.id!r} is neither zero nor injective on an atom",
                    generator=g.id,
                    atom=atom.to_json(),
                )
            act[i] = tgt
            blk[i] = _block_matrix(g.matrix, atom, atoms[g.cod][tgt])
        action[g.id] = act
        blocks[g.id] = blk
    return action, blocks


def _block_matrix(m: Matrix, src: Subspace, tgt: Subspace) -> Matrix:
    """Coordinates of m restricted to src, written in tgt's basis."""
    field = m.field
    tgt_t = Matrix(field, tgt.ambient_dim, tgt.dim, tuple(zip(*tgt.basis)))
    cols = []
    for v in src.basis:
        w = m.apply(v)
        coords = solve_particular(tgt_t, w)
        if coords is None:
            raise AlignmentFailure("atom image does not land in the matched atom")
        cols.append(coords)
    if not cols:
        return Matrix.zeros(field, tgt.dim, 0)
    return Matrix(field, tgt.dim, src.dim, tuple(zip(*cols)))


def _components(
    rep: Representation,
    atoms: Dict[str, List[Subspace]],
    action: Dict[str, Dict[int, Optional[int]]],
) -> List[List[AtomKey]]:
    keys: List[AtomKey] = [
        (o.id, i) for o in rep.objects for i in range(len(atoms[o.id]))
    ]
    parent: Dict[AtomKey, AtomKey] = {k: k for k in keys}

    def find(k: AtomKey) -> AtomKey:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for g in rep.generators:
        for i, tgt in action[g.id].items():
            if tgt is not None:
                a, b = find((g.dom, i)), find((g.cod, tgt))
                if a != b:
                    parent[a] = b
    groups: Dict[AtomKey, List[AtomKey]] = {}
    for k in keys:
        groups.setdefault(find(k), []).append(k)
    return [sorted(v) for v in sorted(groups.values())]


def _strand_split(
    rep: Representation,
    atoms: Dict[str, List[Subspace]],
    action: Dict[str, Dict[int, Optional[int]]],
) -> bool:
    """Split iso-carried components of common dimension d > 1 into d strands.

    Inside one component every matched block is invertible, the quiver is a
    tree, so transporting the root atom's basis rows along the unique paths
    is well-defined; each row sweeps out a rank-one strand.
    """
    components = _components(rep, atoms, action)
    edges: Dict[AtomKey, List[Tuple[AtomKey, Matrix, bool]]] = {}
    for g in rep.generators:
        for i, tgt in action[g.id].items():
            if tgt is None:
                continue
            a, b = (g.dom, i), (g.cod, tgt)
            edges.setdefault(a, []).append((b, g.matrix, True))
            edges.setdefault(b, []).append((a, g.matrix, False))
    replacements: Dict[AtomKey, List[Subspace]] = {}
    for comp in components:
        d = atoms[comp[0][0]][comp[0][1]].dim
        if d <= 1:
            continue
        root = comp[0]
        members = set(comp)
        root_atom = atoms[root[0]][root[1]]
        carried: Dict[AtomKey, List[Tuple]] = {root: [list(r) for r in root_atom.basis]}
        frontier = [root]
        while frontier:
            here = frontier.pop(0)
            for there, mat, forward in edges.get(here, ()):
                if there in carried or there not in members:
                    continue
                vecs = []
                for v in carried[here]:
                    if forward:
                        vecs.append(list(mat.apply(v)))
                    else:
                        src_atom = atoms[there[0]][there[1]]
                        src_t = Matrix(
                            mat.field, src_atom.ambient_dim, src_atom.dim,
                            tuple(zip(*src_atom.basis)),
                        )
                        coords = solve_particular(mat @ src_t, v)
                        if coords is None:
                            raise AlignmentFailure("strand transport failed")
                        vecs.append(list(src_t.apply(coords)))
                carried[there] = vecs
                frontier.append(there)
        for key, vecs in carried.items():
            field = rep.field
            ambient = atoms[key[0]][key[1]].ambient_dim
            replacements[key] = [Subspace.span(field, ambient, [v]) for v in vecs]
    if not replacements:
        return False
    for oid in atoms:
        out: List[Subspace] = []
        for i, atom in enumerate(atoms[oid]):
            out.extend(replacements.get((oid, i), [atom]))
        atoms[oid] = out
    return True


def decompose(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    analysis: Optional[Analysis] = None,
) -> BlockcodeDecomposition:
    """Certified decomposition into blockcodes, or a structured error."""
    if quiver_shape(rep).has_undirected_cycle:
        raise CycleError("quiver has an undirected cycle (loops count); not decomposable here")
    if analysis is None:
        analysis = analyze(rep, limits, "standard")
    report = analysis.standard_report
    if not report.passed:
        detail = {"witnesses": [w.to_json() for w in report.witnesses]}
        if report.distributivity_witnesses:
            detail["distributivity_witnesses"] = [
                w.to_json() for w in report.distributivity_witnesses
            ]
        raise CriterionViolated("criterion fails; the representation does not factor", **detail)
    if analysis.families is None:
        raise CriterionViolated(
            "projection families unavailable"
            + (f" ({analysis.saturation_note})" if analysis.saturation_note else "")
        )
    atoms = _initial_atoms(analysis)
    _cross_refine(rep, atoms)
    action, blocks = _match_atoms(rep, atoms)
    if _strand_split(rep, atoms, action):
        action, blocks = _match_atoms(rep, atoms)
    components = _components(rep, atoms, action)
    summands = tuple(tuple(comp) for comp in components)
    summand_dims = tuple(
        tuple(sorted((oid, atoms[oid][i].dim) for (oid, i) in comp)) for comp in summands
    )
    dec = BlockcodeDecomposition(
        field=rep.field,
        atoms={oid: tuple(lst) for oid, lst in atoms.items()},
        gen_ends={g.id: (g.dom, g.cod) for g in rep.generators},
        action=action,
        blocks=blocks,
        summands=summands,
        summand_dims=summand_dims,
    )
    outcome = verify_decomposition(rep, dec)
    if not outcome.ok:
        raise AlignmentFailure(
            "decomposition failed its own verification", problems=outcome.problems
        )
    return dec


# --- independent verification -------------------------------------------------


@dataclass(eq=False)
class VerificationResult:
    ok: bool
    problems: List[str]

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(rep: Representation, dec: BlockcodeDecomposition) -> VerificationResult:
    """Re-check every certificate invariant from scratch."""
    problems: List[str] = []
    if dec.field != rep.field:
        problems.append("certificate field differs from the representation's")
        return VerificationResult(False, problems)
    rep_ids = set(rep.object_ids)
    if set(dec.atoms) != rep_ids:
        problems.append("certificate objects differ from the representation's")
        return VerificationResult(False, problems)

    for o in rep.objects:
        atoms = dec.atoms[o.id]
        rows = [r for s in atoms for r in s.basis]
        if any(s.ambient_dim != o.dim for s in atoms):
            problems.append(f"atom at {o.id!r} has the wrong ambient dimension")
            continue
        if sum(s.dim for s in atoms) != o.dim:
            problems.append(f"atom dimensions at {o.id!r} do not add up to {o.dim}")
            continue
        if o.dim and inverse(Matrix(rep.field, o.dim, o.dim, tuple(tuple(r) for r in rows))) is None:
            problems.append(f"atom bases at {o.id!r} do not assemble to a basis")

    for g in rep.generators:
        act = dec.action.get(g.id)
        if act is None:
            problems.append(f"certificate is missing generator {g.id!r}")
            continue
        if set(act) != set(range(len(dec.atoms[g.dom]))):
            problems.append(f"action of {g.id!r} does not cover every dom atom")
            continue
        for i, tgt in act.items():
            src = dec.atoms[g.dom][i]
            if tgt is None:
                if any(any(x != 0 for x in g.matrix.apply(v)) for v in src.basis):
                    problems.append(f"{g.id!r} marked zero on atom {i} but is not")
                continue
            if tgt >= len(dec.atoms[g.cod]):
                problems.append(f"{g.id!r} maps atom {i} to a missing atom")
                continue
            tgt_atom = dec.atoms[g.cod][tgt]
            blk = dec.blocks.get(g.id, {}).get(i)
            if blk is None:
                problems.append(f"{g.id!r} lacks a block for atom {i}")
                continue
            if (blk.rows, blk.cols) != (tgt_atom.dim, src.dim):
                problems.append(f"block of {g.id!r} on atom {i} has the wrong shape")
                continue
            if blk.rows != blk.cols or inverse(blk) is None:
                problems.append(f"block of {g.id!r} on atom {i} is not invertible")
                continue
            tgt_t = Matrix(rep.field, tgt_atom.ambient_dim, tgt_atom.dim, tuple(zip(*tgt_atom.basis)))
            for col, v in enumerate(src.basis):
                got = g.matrix.apply(v)
                want = tgt_t.apply(tuple(blk.entries[r][col] for r in range(blk.rows)))
                if got != want:
                    problems.append(
                        f"{g.id!r} does not act on atom {i} by its declared block"
                    )
                    break

    seen: Dict[AtomKey, int] = {}
    for si, summand in enumerate(dec.summands):
        for key in summand:
            if key in seen:
                problems.append(f"atom {key} appears in two summands")
            seen[key] = si
    every = {(oid, i) for oid, atoms in dec.atoms.items() for i in range(len(atoms))}
    if set(seen) != every:
        problems.append("summands do not partition the atoms")
    else:
        for g in rep.generators:
            for i, tgt in dec.action.get(g.id, {}).items():
                if tgt is None:
                    continue
                if seen.get((g.dom, i)) != seen.get((g.cod, tgt)):
                    problems.append(f"{g.id!r} maps across summands")
        # blockcode property per summand: on each summand every generator is
        # all-zero or a bijection between its dom and cod atoms there.
        for si, summand in enumerate(dec.summands):
            members = set(summand)
            for g in rep.generators:
                doms = [(i, t) for i, t in dec.action.get(g.id, {}).items() if (g.dom, i) in members]
                if not doms:
                    continue
                mapped = [t for _, t in doms if t is not None]
                if mapped and len(mapped) != len(doms):
                    problems.append(
                        f"summand {si} sends {g.id!r} to a map neither zero nor iso"
                    )
                if mapped:
                    cod_atoms = {i for (oid, i) in members if oid == g.cod}
                    if sorted(mapped) != sorted(cod_atoms):
                        problems.append(
                            f"summand {si} is not carried onto itself by {g.id!r}"
                        )
    return VerificationResult(not problems, problems)
