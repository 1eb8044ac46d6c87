"""Quotient Kripke models and answers mapped back to cells.

The minimal model's nodes are the equivalence classes computed by strong
bisimilarity on the abstract LTS over same-valuation components, pulled back
to the cells; its accessibility relation holds between two classes when some
member pair is ordered.  The result is a reflexive Kripke model but in general
not a poset (transitivity can fail), so it is never re-interpreted as one.
Distinguishing formulas are read off the rounds of that same refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisim import (
    DOWN, STEP, Lts, Partition, encode_abstract, pull_back, quotient_lts, strong_partition,
    strong_rounds,
)
from .checker import SatSet
from .errors import InputError
from .kripke import ReflexiveKripkeModel
from .logic import TOP, And, Atom, Eta, Formula, Not, Or, node_count
from .simplicial import PosetModel

__all__ = [
    "MinimalModel", "UnknownClassError",
    "minimal_model", "rmin_via_quotient_d", "map_back", "distinguishing_formula",
]


class UnknownClassError(InputError):
    """A class identifier that does not belong to the minimal model."""


def class_id(i: int) -> str:
    return f"C{i}"


@dataclass(frozen=True)
class MinimalModel:
    """Quotient of a poset model by logical equivalence.

    ``kripke`` is the quotient model over class identifiers ``C0, C1, ...``
    (ordered by each class's least element); ``partition`` maps the source
    elements to those classes.
    """

    kripke: ReflexiveKripkeModel
    partition: Partition
    source: PosetModel

    def class_of_element(self, element: str) -> str:
        return class_id(self.partition.block[self.source.index_of(element)])

    def members_of(self, cid: str) -> frozenset[str]:
        if cid not in self.kripke:
            raise UnknownClassError(f"unknown class {cid!r}")
        return self.partition.classes[self.kripke.index_of(cid)]


def minimal_model(p: PosetModel) -> MinimalModel:
    """Build the quotient model over logical-equivalence classes.

    The classes are strong-bisimilarity classes of the abstract encoding,
    pulled back to cells.  The relation holds between classes with an ordered
    member pair, so it is reflexive by reflexivity of the order; the valuation
    is lifted from any member (all members agree, which is asserted).
    """
    lts, components = encode_abstract(p)
    part = pull_back(strong_partition(lts), components)
    ids = [class_id(i) for i in range(len(part))]
    cls = part.block

    succ: list[set[int]] = [set() for _ in ids]
    valuations: dict[int, frozenset[str]] = {}
    for w, targets in enumerate(p.succ):
        succ[cls[w]].update(map(cls.__getitem__, targets))
        if valuations.setdefault(cls[w], p.valuations[w]) != p.valuations[w]:
            block = sorted(part.classes[cls[w]])
            raise AssertionError(f"class {ids[cls[w]]} mixes valuations: {block}")

    kripke = ReflexiveKripkeModel._from_successors(
        ids, [sorted(s) for s in succ], [valuations[i] for i in range(len(ids))], p.atoms
    )
    return MinimalModel(kripke=kripke, partition=part, source=p)


def rmin_via_quotient_d(lts: Lts, part: Partition) -> frozenset[tuple[str, str]]:
    """The reversed ``d`` transitions of the concrete LTS ``lts`` projected onto
    its branching partition ``part``, over ``part``'s class ids ``C0, C1, ...``;
    must equal :func:`minimal_model`'s relation."""
    quotient = quotient_lts(lts, part)
    return frozenset(
        (class_id(j), class_id(i))
        for i, ms in enumerate(quotient.moves) for lab, j in ms if lab == DOWN
    )


def map_back(mm: MinimalModel, class_result: SatSet) -> list[bool]:
    """Expand a class-level answer to a per-cell boolean vector.

    Output order is the source model's canonical element order.
    """
    valid = {class_id(i) for i in range(len(mm.partition))}
    unknown = set(class_result.members) - valid
    if unknown:
        raise UnknownClassError(f"unknown classes in result: {sorted(unknown)}")
    hit = {mm.kripke.index_of(c) for c in class_result.members}
    return [k in hit for k in mm.partition.block]


# -- distinguishing formulas -----------------------------------------------------

def _valuation_formula(atoms: tuple[str, ...], held: frozenset[str]) -> Formula:
    """Conjunction of literals pinning an exact atom set."""
    f: Formula | None = None
    for a in atoms:
        lit: Formula = Atom(a) if a in held else Not(Atom(a))
        f = lit if f is None else And(f, lit)
    return f if f is not None else TOP


class _RoundLog:
    """The rounds of the abstract route's strong refinement (block tables over
    component numbers), with an exact formula (its extension is the block's
    cells) and its tree size for every block of every round, built on demand."""

    def __init__(self, p: PosetModel):
        self.atoms = p.atoms
        self.lts, self.components = encode_abstract(p)
        self.valuations = dict(zip(self.components.block, p.valuations))
        self.rounds = list(strong_rounds(self.lts))
        self.reps = [{j: s for s, j in enumerate(block)} for block in self.rounds]
        self._formulas: dict[tuple[int, int], tuple[Formula, int]] = {}

    def signature(self, k: int, s: int) -> frozenset[tuple[str, int]]:
        """Component ``s``'s ``s`` and ``d`` moves by round-``k`` target block;
        past round 1 nothing else differs inside a block."""
        return frozenset(
            (lab, self.rounds[k][t]) for lab, t in self.lts.moves[s] if lab in (STEP, DOWN)
        )

    def formula(self, k: int, j: int) -> tuple[Formula, int]:
        """Round 0 is one block and round 1 splits it by valuation, as every
        component has ``s`` and ``d`` self-loops.  A later block adds to its
        parent's formula literals that exclude the parent's other blocks."""
        if (k, j) not in self._formulas:
            rep = self.reps[k][j]
            if k == 0:
                out = (TOP, 1)
            elif k == 1:
                f = _valuation_formula(self.atoms, self.valuations[rep])
                out = (f, node_count(f))
            else:
                parent = self.rounds[k - 1][rep]
                out = self.formula(k - 1, parent)
                siblings = [
                    self.signature(k - 1, r) for i, r in self.reps[k].items()
                    if i != j and self.rounds[k - 1][r] == parent
                ]
                for lit, size in self.separate(k - 1, rep, siblings):
                    out = (And(out[0], lit), out[1] + 1 + size)
            self._formulas[k, j] = out
        return self._formulas[k, j]

    def literal(self, k: int, s: int, entry: tuple[str, int], positive: bool):
        """On components valued like ``s``: true where the round-``k`` signature
        has ``entry`` (label, block B), or lacks it if not ``positive``.

        With V pinning the valuation and F exact for B, ``d`` gives ``eta(V, F)``
        and ``s`` gives ``eta(V | F, F)``: a path inside V stays in its
        component, and a path that steps into F has made an ``s`` move."""
        v, v_size = self.formula(1, self.rounds[1][s])
        lab, b = entry
        target, size = self.formula(k, b)
        if lab == DOWN:
            lit, size = Eta(v, target), 1 + v_size + size
        else:
            lit, size = Eta(Or(v, target), target), 2 + v_size + 2 * size
        return (lit, size) if positive else (Not(lit), size + 1)

    def separate(self, k: int, s: int, others: list[frozenset]) -> list[tuple[Formula, int]]:
        """Literals true on ``s``'s round-``k`` signature that together fail
        on each of ``others``: greedily, the smallest still separating one."""
        own = self.signature(k, s)
        candidates = sorted(
            (self.literal(k, s, e, e in own)[1], e)
            for e in own.union(*others)
            if any((e in own) != (e in o) for o in others)
        )
        chosen = []
        for _, e in candidates:
            rest = [o for o in others if (e in own) == (e in o)]
            if len(rest) < len(others):
                chosen.append(self.literal(k, s, e, e in own))
                others = rest
        return chosen


def distinguishing_formula(p: PosetModel, a: str, b: str) -> Formula | None:
    """An eta-pure formula separating two cells, or None when none exists.

    None is returned exactly when the cells are logically equivalent.  When a
    formula is returned it holds at ``a`` and fails at ``b``: either an atom
    literal (different valuations) or one signature entry that differs
    between their components in the first refinement round that splits them.
    """
    p.index_of(a)
    p.index_of(b)
    if a == b:
        return None
    va, vb = p.valuation_of(a), p.valuation_of(b)
    if va != vb:
        gained = sorted(va - vb)
        if gained:
            return Atom(gained[0])
        return Not(Atom(sorted(vb - va)[0]))
    log = _RoundLog(p)
    x, y = (log.components.block[p.index_of(c)] for c in (a, b))
    for k, block in enumerate(log.rounds):
        if block[x] != block[y]:
            [(witness, _)] = log.separate(k - 1, x, [log.signature(k - 1, y)])
            return witness
    return None
