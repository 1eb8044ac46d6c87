"""Quotient Kripke models and answers mapped back to cells.

The minimal model's nodes are the equivalence classes computed by strong
bisimilarity on the abstract encoding's numbered component tables, refined
from the components' valuations by :func:`polymin.bisim.refine` and pulled
back to the cells; its accessibility relation holds between two classes when
some member pair is ordered, and is read from the components' down-sets.  The
result is a reflexive Kripke model but in general not a poset (transitivity
can fail), so it is never re-interpreted as one.  Distinguishing formulas are
read off the rounds of that same refinement, logged once per model.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from itertools import chain

from . import bisim
from .bisim import DOWN, STEP, Moves, Partition
from .checker import SatSet
from .errors import InputError
from .kripke import ReflexiveKripkeModel
from .logic import TOP, And, Atom, Eta, Formula, Not, Or
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
    (ordered by each class's least element); ``partition.block`` maps each
    source element number to its class number.
    """

    kripke: ReflexiveKripkeModel
    partition: Partition
    source: PosetModel


def minimal_model(p: PosetModel) -> MinimalModel:
    """Build the quotient model over logical-equivalence classes.

    Strong bisimilarity on the abstract encoding's tables, refined from the
    components' valuations and pulled back to cells, gives the classes.  The
    relation holds between classes with an ordered member pair, read from the
    components' down-sets, so it is reflexive; the valuation is lifted from
    any member (all members agree, which is asserted).
    """
    components, valuations, step, down = bisim.abstract_tables(p)
    for block in bisim.refine(_valuation_split(valuations), (step, down)):
        pass
    part = bisim.pull_back(tuple(block), components)
    ids = [class_id(i) for i in range(len(part))]

    below: list[set[int]] = [set() for _ in ids]
    lifted: dict[int, frozenset[str]] = {}
    for k, v, d in zip(block, valuations, down):
        below[k].update(map(block.__getitem__, d))
        if lifted.setdefault(k, v) != v:
            raise AssertionError(f"class {ids[k]} mixes valuations: {sorted(part.classes[k])}")
    # ascending sources leave every successor list sorted
    succ: list[list[int]] = [[] for _ in ids]
    for k, ys in enumerate(below):
        for y in ys:
            succ[y].append(k)

    kripke = ReflexiveKripkeModel(ids, succ, [lifted[i] for i in range(len(ids))], p.atoms)
    return MinimalModel(kripke=kripke, partition=part, source=p)


def _valuation_split(valuations: list[frozenset[str]]) -> list[int]:
    """The block table of equal valuations, numbered in order of first state."""
    first: dict[frozenset[str], int] = {}
    return [first.setdefault(v, len(first)) for v in valuations]


def rmin_via_quotient_d(quotient: Moves) -> tuple[tuple[int, ...], ...]:
    """The reversed ``d`` moves of the concrete LTS's branching quotient, as
    sorted successor tables by class number; must equal the ``succ`` of
    :func:`minimal_model`'s relation."""
    succ: list[list[int]] = [[] for _ in quotient]
    for i, ms in enumerate(quotient):
        for lab, j in ms:
            if lab == DOWN:
                succ[j].append(i)
    return tuple(map(tuple, succ))


def map_back(mm: MinimalModel, class_result: SatSet) -> list[bool]:
    """Expand a class-level answer to a per-cell boolean vector.

    Output order is the source model's canonical element order.  The answer
    must have been computed on ``mm.kripke``: its numbers are class numbers
    of that model only.
    """
    if class_result.model is not mm.kripke:
        raise UnknownClassError("the result was not computed on this minimal model")
    unknown = sorted(i for i in class_result.numbers if not 0 <= i < len(mm.partition))
    if unknown:
        raise UnknownClassError(f"unknown classes in result: {list(map(class_id, unknown))}")
    return list(map(class_result.to_bools(mm.kripke).__getitem__, mm.partition.block))


# -- distinguishing formulas -----------------------------------------------------

def _valuation_formula(atoms: tuple[str, ...], held: frozenset[str]) -> Formula:
    """Conjunction of literals pinning an exact atom set."""
    f: Formula | None = None
    for a in atoms:
        lit: Formula = Atom(a) if a in held else Not(Atom(a))
        f = lit if f is None else And(f, lit)
    return f if f is not None else TOP


def _differences(own: frozenset, others: list[frozenset]) -> list[tuple[str, int]]:
    """The signature entries on which ``own`` disagrees with some of ``others``."""
    return [e for e in own.union(*others) if any((e in own) != (e in o) for o in others)]


class _RoundLog:
    """The rounds of the abstract route's strong refinement (block tables over
    component numbers), with an exact formula (its extension is the block's
    cells) for every block of every round, built on demand.

    A log is kept with its model (see :func:`distinguishing_formula`), so it
    is stored compactly: each round's block table, and its representatives
    (each block's last component) by block number, as ``array('i')``; and by
    round, each block that split in it, with its children."""

    def __init__(self, p: PosetModel):
        self.atoms = p.atoms
        self.components, self.valuations, self.step, self.down = bisim.abstract_tables(p)
        split = _valuation_split(self.valuations)
        rounds = bisim.refine(split, (self.step, self.down))
        # round 0 is one block; refinement starts at round 1, the valuation
        # split, which is round 0 itself when there is one valuation
        if max(split, default=0) > 0:
            rounds = chain([[0] * len(split)], rounds)
        self.rounds: list[array] = []
        self.reps: list[array] = []
        self.kids: list[dict[int, list[int]]] = []
        for block in rounds:
            # blocks are numbered in order of first component, so the dict's
            # keys arrive in block order; a later component overwrites its value
            lasts = dict(zip(block, range(len(block)))).values()
            current = set(lasts)
            kids: dict[int, list[int]] = {}
            if self.rounds:
                # a parent's last component is still the last of one child;
                # a child whose last component is new has split off, so only
                # parents with such a child are listed
                prev, last = self.rounds[-1], self.reps[-1]
                for s in current - previous:
                    kids.setdefault(prev[s], [block[last[prev[s]]]]).append(block[s])
            previous = current
            self.rounds.append(array("i", block))
            self.reps.append(array("i", lasts))
            self.kids.append(kids)
        self._formulas: dict[tuple[int, int], Formula] = {}

    def signature(self, k: int, s: int) -> frozenset[tuple[str, int]]:
        """Component ``s``'s ``s`` and ``d`` moves by round-``k`` target block;
        past round 1 nothing else differs inside a block."""
        block = self.rounds[k]
        return frozenset(
            [(STEP, block[t]) for t in self.step[s]] + [(DOWN, block[t]) for t in self.down[s]]
        )

    def formula(self, k: int, j: int) -> Formula:
        """Round 0 is one block and round 1 splits it by valuation, as every
        component has ``s`` and ``d`` self-loops.  A later block adds to its
        parent's formula literals that exclude the parent's other blocks; an
        explicit stack builds it after every block those formulas read."""
        stack: list = [(k, j, None)]
        while stack:
            r, b, siblings = stack.pop()
            if (r, b) in self._formulas:
                continue
            rep = self.reps[r][b]
            if r <= 1:
                self._formulas[r, b] = (
                    TOP if r == 0 else _valuation_formula(self.atoms, self.valuations[rep])
                )
            elif siblings is None:
                parent = self.rounds[r - 1][rep]
                siblings = [
                    self.signature(r - 1, self.reps[r][i])
                    for i in self.kids[r].get(parent, ()) if i != b
                ]
                own = self.signature(r - 1, rep)
                stack += [(r, b, siblings), (1, self.rounds[1][rep], None), (r - 1, parent, None)]
                stack += [(r - 1, t, None) for _, t in _differences(own, siblings)]
            else:
                out = self._formulas[r - 1, self.rounds[r - 1][rep]]
                for lit in self.separate(r - 1, rep, siblings):
                    out = And(out, lit)
                self._formulas[r, b] = out
        return self._formulas[k, j]

    def literal(self, k: int, s: int, entry: tuple[str, int], positive: bool) -> Formula:
        """On components valued like ``s``: true where the round-``k`` signature
        has ``entry`` (label, block B), or lacks it if not ``positive``.

        With V pinning the valuation and F exact for B, ``d`` gives ``eta(V, F)``
        and ``s`` gives ``eta(V | F, F)``: a path inside V stays in its
        component, and a path that steps into F has made an ``s`` move."""
        v = self.formula(1, self.rounds[1][s])
        lab, b = entry
        target = self.formula(k, b)
        lit = Eta(v, target) if lab == DOWN else Eta(Or(v, target), target)
        return lit if positive else Not(lit)

    def separate(self, k: int, s: int, others: list[frozenset]) -> list[Formula]:
        """Literals true on ``s``'s round-``k`` signature that together fail
        on each of ``others``: greedily, the smallest still separating one."""
        own = self.signature(k, s)
        literals = {e: self.literal(k, s, e, e in own) for e in _differences(own, others)}
        chosen = []
        for e in sorted(literals, key=lambda e: (literals[e].size, e)):
            rest = [o for o in others if (e in own) == (e in o)]
            if len(rest) < len(others):
                chosen.append(literals[e])
                others = rest
        return chosen


# each poset's round log, freed with the poset
_LOGS: weakref.WeakKeyDictionary[PosetModel, _RoundLog] = weakref.WeakKeyDictionary()


def distinguishing_formula(p: PosetModel, a: str, b: str) -> Formula | None:
    """An eta-pure formula separating two cells, or None when none exists.

    None is returned exactly when the cells are logically equivalent.  When a
    formula is returned it holds at ``a`` and fails at ``b``: either an atom
    literal (different valuations) or one signature entry that differs
    between their components in the first refinement round that splits them.

    The first call on a model that needs the refinement builds its round log;
    later calls on that model reuse it, with every block formula built so
    far.  The log is kept only as long as the model is.
    """
    i, j = p.index_of(a), p.index_of(b)
    if a == b:
        return None
    va, vb = p.valuations[i], p.valuations[j]
    if va != vb:
        gained = sorted(va - vb)
        if gained:
            return Atom(gained[0])
        return Not(Atom(sorted(vb - va)[0]))
    log = _LOGS.get(p)
    if log is None:
        # threads that miss at once may each build one; the first stored wins
        log = _LOGS.setdefault(p, _RoundLog(p))
    x, y = log.components.block[i], log.components.block[j]
    for k, block in enumerate(log.rounds):
        if block[x] != block[y]:
            [witness] = log.separate(k - 1, x, [log.signature(k - 1, y)])
            return witness
    return None
