"""Quotient Kripke models and answers mapped back to cells.

The minimal model's nodes are the equivalence classes computed by strong
bisimilarity on the abstract encoding's numbered component tables, refined
from the components' valuations by :func:`polymin.bisim.refine` and pulled
back to the cells; its accessibility relation holds between two classes when
some member pair is ordered, and is read from the components' down-sets.  The
result is a reflexive Kripke model but in general not a poset (transitivity
can fail), so it is never re-interpreted as one.  Distinguishing formulas are
read off the splits of that same refinement: one record per model, kept as
long as the model is, holds the classes, the quotient and the split tree."""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass

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
    any member (all members agree, which is asserted).  Both are read from
    the model's record (see :func:`distinguishing_formula`)."""
    r = _refinement(p)
    return MinimalModel(kripke=r.kripke, partition=r.partition, source=p)


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


def _differences(own: frozenset, others: list[frozenset]) -> frozenset:
    """The entries on which ``own`` disagrees with some of ``others``."""
    return own.union(*others) - own.intersection(*others)


class _Refinement:
    """A model's record: the classes and quotient of :func:`minimal_model`
    and the split tree of :func:`distinguishing_formula`, with an exact
    formula (its extension is the node's cells) for every node, on demand.

    Node 0 holds every component; round 1 splits it by valuation, when there
    are several, and each child keeps its valuation.  Every later node is a
    block, stored once, in the round where it split off its parent, as the
    ``s`` and ``d`` sets of its :func:`polymin.bisim.refine` key and the
    round before's block nodes, which spell its signature, its (label, target
    block, its node) entries, when first read.  Children are numbered
    consecutively, after every node of an earlier round.  ``leaf`` holds each
    class's leaf.  A witness depends only on the two siblings where its
    cells' leaves part, so each ordered sibling pair's literal is memoised
    when first asked."""

    def __init__(self, p: PosetModel):
        components, valuations, step, down = bisim.abstract_tables(p)
        self.parent, self.signature = parent, signature = [-1], [frozenset()]
        self.children: dict[int, range] = {}
        first: dict[frozenset[str], int] = {}  # round 1 splits node 0 by valuation
        split = [first.setdefault(v, len(first)) for v in valuations]
        code = "H" if len(valuations) < 1 << 15 else "i"  # nodes < 2 * components
        node = array(code, [0])  # each block's node in the round before; round 0 is one block
        for block, keys in bisim.refine(split, (step, down)):
            keys = list(keys or ((0, v, None) for v in first))
            kids: dict[int, list[int]] = {}  # each old block's blocks
            nodes = array(code)
            for k, (b, _, _) in enumerate(keys):
                nodes.append(node[b])
                kids.setdefault(b, []).append(k)
            for b, ks in kids.items():
                if len(ks) > 1:  # b split: each of its blocks is a new node
                    up = node[b]
                    self.children[up] = range(len(parent), len(parent) + len(ks))
                    for k in ks:
                        nodes[k] = len(parent)
                        parent.append(up)
                        _, ss, ds = keys[k]
                        signature.append((ss, ds, node) if up else ss)
            self.leaf = node = nodes  # the last round's are the leaves
        self.partition = part = bisim.pull_back(tuple(block), components)
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
        self.kripke = ReflexiveKripkeModel(ids, succ, list(lifted.values()), p.atoms)
        self._formulas: dict[int, tuple[Formula, Formula]] = {}
        self._witnesses: dict[tuple[int, int], Formula] = {}

    def entries(self, m: int) -> frozenset:
        """Node ``m``'s signature, spelled from its key when first read."""
        sig = self.signature[m]  # read once: another thread may spell it meanwhile
        if isinstance(sig, tuple):
            step, down, node = sig
            sig = self.signature[m] = frozenset(
                (lab, t, node[t]) for lab, ts in ((STEP, step), (DOWN, down)) for t in ts)
        return sig

    def build(self, n: int) -> None:
        """Memoise every node's valuation formula and exact formula up to
        node ``n``, in node order, so the memo holds the nodes below some
        number.  A child of node 0 is pinned by its valuation; a later node
        adds to its parent's formula literals that exclude its siblings.
        Threads that build at once store equal pairs of the same objects."""
        memo = self._formulas
        for m in range(len(memo), n + 1):
            up, own = self.parent[m], self.entries(m)
            if up <= 0:
                v = out = TOP if up < 0 else _valuation_formula(self.kripke.atoms, own)
            else:
                v, out = memo[up]
                siblings = [self.entries(k) for k in self.children[up] if k != m]
                for lit in self.separate(v, own, siblings):
                    out = And(out, lit)
            memo[m] = (v, out)

    def separate(self, v: Formula, own: frozenset, others: list[frozenset]) -> list[Formula]:
        """Literals true on the signature ``own`` of components valued ``v``
        that together fail on each of ``others``: greedily, the smallest still
        separating one.  Candidates are ranked by a size computed from their
        operands (:meth:`rank`), and only the literals kept are built.

        With F exact for an entry's node, ``d`` gives ``eta(v, F)`` and ``s``
        gives ``eta(v | F, F)``: a path inside v stays in its component, and
        a path that steps into F has made an ``s`` move."""
        chosen = []
        for e in sorted(_differences(own, others), key=lambda e: (self.rank(v, own, e), e)):
            rest = [o for o in others if (e in own) == (e in o)]
            if len(rest) < len(others):
                chosen.append(self.literal(v, own, e))
                if not rest:
                    break
                others = rest
        return chosen

    def literal(self, v: Formula, own: frozenset, e: tuple) -> Formula:
        """The literal of entry ``e``, true where the signature is like ``own``."""
        target = self._formulas[e[2]][1]
        lit = Eta(v, target) if e[0] == DOWN else Eta(Or(v, target), target)
        return lit if e in own else Not(lit)

    def rank(self, v: Formula, own: frozenset, e: tuple) -> int:
        """The size of :meth:`literal`, from its operands' sizes."""
        f = self._formulas[e[2]][1].size
        return (1 + v.size + f if e[0] == DOWN else 2 + v.size + 2 * f) + (e not in own)

    def witness(self, i: int, j: int) -> Formula | None:
        """The separating literal of two same-valuation cells at their
        lowest common ancestor, or None if they share a leaf.  A higher
        node is never an ancestor of a lower one."""
        block, parent = self.partition.block, self.parent
        a, b = self.leaf[block[i]], self.leaf[block[j]]
        while parent[a] != parent[b]:
            a, b = (parent[a], b) if a > b else (a, parent[b])
        if a == b:
            return None
        witness = self._witnesses.get((a, b))
        if witness is None:
            own, other = self.entries(a), self.entries(b)
            # every entry's node, the parent's among them (each component has
            # a d move to itself), is older than a and b
            self.build(max(n for _, _, n in own | other))
            [witness] = self.separate(self._formulas[parent[a]][0], own, [other])
            self._witnesses[a, b] = witness
        return witness


# each poset's record, freed with the poset, as no record holds its poset
_LOGS: weakref.WeakKeyDictionary[PosetModel, _Refinement] = weakref.WeakKeyDictionary()


def _refinement(p: PosetModel) -> _Refinement:
    """The model's record; threads that miss at once may each build one."""
    return _LOGS.get(p) or _LOGS.setdefault(p, _Refinement(p))


def distinguishing_formula(p: PosetModel, a: str, b: str) -> Formula | None:
    """An eta-pure formula separating two cells, or None when none exists.

    None is returned exactly when the cells are logically equivalent.  When a
    formula is returned it holds at ``a`` and fails at ``b``: either an atom
    literal (different valuations) or one signature entry that differs
    between their components in the first refinement round that splits them.

    The model's record (see :func:`minimal_model`) is built once and kept as
    long as the model is, with every node formula built so far.
    """
    i, j = p.index_of(a), p.index_of(b)
    va, vb = p.valuations[i], p.valuations[j]
    if va != vb:
        return Atom(min(va - vb)) if va - vb else Not(Atom(min(vb - va)))
    return None if i == j else _refinement(p).witness(i, j)
