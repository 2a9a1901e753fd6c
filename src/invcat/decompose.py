"""Blockcode decomposition of representations of cycle-free quivers.

The certificate is read off the adapted bases the analysis carries
(``realize.transported_bases``), which every generator of a cycle-free quiver
carries to basis vectors or to zero, and off each generator's matrix in
them, the partial matching the transport built (``Analysis.in_bases``); no
generator is applied to a vector.  Each basis vector spans one atom, a
line.  A generator sends an atom to the atom of the basis vector it hits,
with a 1x1 block, or to zero.  The summands are the connected components of
that matching: rank-one strands, which on A_n are the intervals of the
zigzag decomposition, so summand dimension vectors match the multiset of
indecomposables on interval-built corpora.

The verifier re-checks everything from scratch with plain linear algebra and
never trusts the decomposer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import AlignmentFailure, CriterionViolated, CycleError
from .fields import Field
from .flag import ClosureLimits, monomial
from .linalg import Matrix, Subspace, inverse
from .pipeline import Analysis, analyze
from .rep import EntryBudget, Representation, connected_components, expect, quiver_shape, read_rows

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
    def from_json(cls, doc: Any, rep: Representation) -> "BlockcodeDecomposition":
        """Parse a certificate against a representation's shapes.

        Structural problems raise ValidationError.  The atom bases and blocks
        are charged to one ``EntryBudget``, matrix by matrix before each is
        read, so the first that passes ``MAX_TOTAL_ENTRIES`` raises TooLarge
        unread.  Semantic defects are the verifier's job.
        """
        expect(isinstance(doc, dict), "certificate must be an object", "$")
        field = Field.from_json(doc.get("field"))
        dims = {o.id: o.dim for o in rep.objects}
        gens = {g.id: g for g in rep.generators}
        budget = EntryBudget("certificate", "rows x cols per atom basis and per block")
        objects = doc.get("objects")
        expect(isinstance(objects, dict), "certificate needs an 'objects' map", "objects")
        atoms: Dict[str, Tuple[Subspace, ...]] = {}
        index_by_id: Dict[str, AtomKey] = {}
        for oid, lst in objects.items():
            expect(oid in dims, f"unknown object id {oid!r}", f"objects.{oid}")
            expect(isinstance(lst, list), "object atoms must be an array", f"objects.{oid}")
            subs = []
            for k, entry in enumerate(lst):
                where = f"objects.{oid}[{k}]"
                expect(isinstance(entry, dict) and "basis" in entry and "atom" in entry,
                       "atom entry needs 'atom' and 'basis'", where)
                aid = entry["atom"]
                expect(isinstance(aid, str), "atom id must be a string", f"{where}.atom")
                expect(aid not in index_by_id, f"duplicate atom id {aid!r}", f"{where}.atom")
                rows = read_rows(field, entry["basis"], dims[oid], f"{where}.basis", budget)
                subs.append(Subspace.span(field, dims[oid], rows))
                index_by_id[aid] = (oid, k)
            atoms[oid] = tuple(subs)

        def atom(aid: Any, path: str, at: Optional[str] = None) -> AtomKey:
            expect(isinstance(aid, str), "atom id must be a string", path)
            expect(aid in index_by_id, f"unknown atom {aid!r}", path)
            key = index_by_id[aid]
            expect(at is None or key[0] == at, f"atom {aid!r} does not live at {at!r}", path)
            return key

        gens_doc = doc.get("generators")
        expect(isinstance(gens_doc, dict), "certificate needs a 'generators' map", "generators")
        gen_ends: Dict[str, Tuple[str, str]] = {}
        action: Dict[str, Dict[int, Optional[int]]] = {}
        blocks: Dict[str, Dict[int, Matrix]] = {}
        for gid, body in gens_doc.items():
            where = f"generators.{gid}"
            expect(gid in gens, f"unknown generator {gid!r} in certificate", where)
            g = gens[gid]
            expect(isinstance(body, dict) and isinstance(body.get("action"), dict),
                   "generator entry needs an 'action' map", where)
            blocks_doc = body.get("blocks", {})
            expect(isinstance(blocks_doc, dict), "generator blocks must be a map", f"{where}.blocks")
            act: Dict[int, Optional[int]] = {}
            for src_id, tgt_id in body["action"].items():
                path = f"{where}.action.{src_id}"
                i = atom(src_id, path, g.dom)[1]
                act[i] = None if tgt_id == "zero" else atom(tgt_id, path, g.cod)[1]
            blk: Dict[int, Matrix] = {}
            for src_id, raw in blocks_doc.items():
                path = f"{where}.blocks.{src_id}"
                i = atom(src_id, path, g.dom)[1]
                tgt = act.get(i)
                expect(tgt is not None, f"block given for zero-mapped atom {src_id!r}", path)
                nrows, ncols = atoms[g.cod][tgt].dim, atoms[g.dom][i].dim
                blk[i] = Matrix(field, nrows, ncols, read_rows(field, raw, ncols, path, budget, nrows))
            gen_ends[gid] = (g.dom, g.cod)
            action[gid] = act
            blocks[gid] = blk
        summands_doc = doc.get("summands")
        expect(isinstance(summands_doc, list), "certificate needs a 'summands' array", "summands")
        summands = []
        for i, group in enumerate(summands_doc):
            expect(isinstance(group, list), "summand must be an array of atom ids", f"summands[{i}]")
            summands.append(tuple(atom(aid, f"summands[{i}][{j}]") for j, aid in enumerate(group)))
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


# --- reading the certificate off the bases --------------------------------------


def _read_off(
    rep: Representation, bases: Dict[str, Matrix], in_bases: Dict[str, Matrix]
) -> Tuple[
    Dict[str, List[Subspace]],
    Dict[str, Dict[int, Optional[int]]],
    Dict[str, Dict[int, Matrix]],
]:
    """Atoms, action and blocks off the bases and each generator's matrix in
    them (``Analysis.in_bases``): each basis vector spans one atom, and a
    generator whose matrix is monomial sends basis vector v_i to s w_j, so
    the atom of v_i to the atom of w_j, or to zero.

    An atom's stored basis is its vector scaled to a leading 1, so that
    block is s lead(w_j) / lead(v_i).
    """
    field = rep.field
    vectors = {o.id: list(zip(*bases[o.id].entries)) for o in rep.objects}
    atoms = {
        o.id: [Subspace.span(field, o.dim, [v]) for v in vectors[o.id]] for o in rep.objects
    }
    leads = {oid: [next(x for x in v if x) for v in vs] for oid, vs in vectors.items()}
    action: Dict[str, Dict[int, Optional[int]]] = {}
    blocks: Dict[str, Dict[int, Matrix]] = {}
    for g in rep.generators:
        hat = monomial(in_bases[g.id])
        if hat is None:
            raise AlignmentFailure(
                f"generator {g.id!r} is not monomial in the adapted bases", generator=g.id
            )
        act: Dict[int, Optional[int]] = {}
        blk: Dict[int, Matrix] = {}
        for i, e in enumerate(hat):
            if e is None:
                act[i] = None
                continue
            j, s = e
            act[i] = j
            block = field.div(field.mul(s, leads[g.cod][j]), leads[g.dom][i])
            blk[i] = Matrix(field, 1, 1, ((block,),))
        action[g.id] = act
        blocks[g.id] = blk
    return atoms, action, blocks


def _components(
    rep: Representation,
    atoms: Dict[str, List[Subspace]],
    action: Dict[str, Dict[int, Optional[int]]],
) -> List[List[AtomKey]]:
    keys: List[AtomKey] = [
        (o.id, i) for o in rep.objects for i in range(len(atoms[o.id]))
    ]
    groups = connected_components(
        keys,
        (
            ((g.dom, i), (g.cod, tgt))
            for g in rep.generators
            for i, tgt in action[g.id].items()
            if tgt is not None
        ),
    )
    return [sorted(v) for v in sorted(groups)]


def decompose(
    rep: Representation,
    limits: ClosureLimits = ClosureLimits(),
    analysis: Optional[Analysis] = None,
) -> BlockcodeDecomposition:
    """Certified decomposition into blockcodes, or a structured error."""
    if quiver_shape(rep).has_undirected_cycle:
        raise CycleError("quiver has an undirected cycle (loops count); not decomposable here")
    if analysis is None:
        analysis = analyze(rep, limits, "standard", saturate=False)
    if not analysis.passed:
        raise CriterionViolated(
            "criterion fails; the representation does not factor", report=analysis.standard_report
        )
    atoms, action, blocks = _read_off(rep, analysis.bases, analysis.in_bases)
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
