"""LTS encodings of poset models and bisimulation partition refinement.

The abstract encoding quotients same-valuation connected components and uses
labels ``atom sets + {s, d}``; strong bisimilarity on it, pulled back to the
cells, is logical equivalence of the reach logic on the poset, and it is the
route minimisation uses.  Its numbered tables (:func:`abstract_tables`: each
component's valuation and its ``s`` and ``d`` successors) are built from
component down-unions, and minimisation refines them once per model.  The concrete
encoding, over the labels ``atoms + {tau, c, d}``, has branching bisimilarity
for the same classes.  It is stated once, by :func:`branching_quotient`: one
pass over the poset tables projects it on a partition and checks that the
partition is stable, a linear certificate that the partition *is* branching
bisimilarity.  Minimality and the relation are read from that quotient,
which ``minimize --emit-aut`` writes; the concrete LTS itself, for Aldebaran
export, is the same pass on the discrete partition.  An LTS is the tuple of
its moves by state number.  Every refinement runs through one engine,
:func:`refine`, over per-label successor tables, whose rounds report the
keys they split blocks by; :func:`strong_partition` reduces any LTS to it.
A direct fixpoint computation from the model is kept as an oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .simplicial import PosetModel

__all__ = [
    "TAU", "CHANGE", "DOWN", "STEP",
    "Moves", "Partition", "LabelError",
    "encode_concrete", "components_same_valuation", "abstract_tables", "encode_abstract",
    "refine", "strong_partition", "branching_quotient", "is_branching_minimal",
    "weak_pm_partition", "pull_back",
    "to_aut",
]

TAU = "tau"
CHANGE = "c"
DOWN = "d"
STEP = "s"

Label = object  # str for concrete labels, frozenset[str] for valuation sets
Moves = tuple[frozenset[tuple[Label, int]], ...]  # an LTS: (label, target) pairs by state


class LabelError(InputError):
    """An atom name that cannot serve as a transition label: a reserved
    label of the concrete encoding, or one that Aldebaran output cannot
    spell."""


@dataclass(frozen=True)
class Partition:
    """An ordered partition of a model's elements.

    ``block[i]`` is the class number of element i; classes are numbered in
    order of their first member, so equal partitions have equal tables.
    ``universe`` holds the element names that :attr:`classes` lists.
    """

    universe: tuple[str, ...]
    block: tuple[int, ...]

    @cached_property
    def classes(self) -> tuple[frozenset[str], ...]:
        members: list[list[str]] = [[] for _ in range(len(self))]
        for w, k in zip(self.universe, self.block):
            members[k].append(w)
        return tuple(map(frozenset, members))

    _count = cached_property(lambda self: max(self.block, default=-1) + 1)

    def __len__(self) -> int:
        return self._count


# -- encodings ---------------------------------------------------------------

def encode_concrete(p: PosetModel) -> Moves:
    """Encode a poset model as an LTS over ``atoms + {tau, c, d}``: the
    :func:`branching_quotient` pass on the discrete partition."""
    return branching_quotient(p, tuple(range(len(p))))


def components_same_valuation(p: PosetModel) -> Partition:
    """Connected components of comparability restricted to equal valuations.

    Two elements land in one class when an undirected chain of comparable,
    identically-valued elements links them ("nothing changes" along the way).
    Each component is found by a search from its least member, so they are
    numbered in order of least member.
    """
    block = [-1] * len(p)
    count = 0
    for w, vw in enumerate(p.valuations):
        if block[w] >= 0:
            continue
        block[w] = count
        component = [w]
        for v in component:
            for u in chain(p.succ[v], p.pred[v]):
                if block[u] < 0 and p.valuations[u] == vw:
                    block[u] = count
                    component.append(u)
        count += 1
    return Partition(p.elements, tuple(block))


def abstract_tables(
    p: PosetModel,
) -> tuple[Partition, list[frozenset[str]], list[set[int]], list[set[int]]]:
    """The numbered tables of the abstract encoding: the same-valuation
    component partition, each component's valuation, and its ``s`` and ``d``
    successors by component number.

    ``down[c]`` unions the components of every member's down-set, so it
    holds c itself; ``step[c]`` is ``down[c]`` together with every component
    whose ``down`` holds c.
    """
    part = components_same_valuation(p)
    comp = part.block
    # components are numbered in order of least member: the dict's keys
    # arrive in component order, and all members share one valuation
    valuations = list(dict(zip(comp, p.valuations)).values())
    down: list[set[int]] = [set() for _ in valuations]
    for c, below in zip(comp, p.pred):
        down[c].update(map(comp.__getitem__, below))
    step = [set(below) for below in down]
    for x, below in enumerate(down):
        for y in below:
            step[y].add(x)
    return part, valuations, step, down


def encode_abstract(p: PosetModel) -> tuple[Moves, Partition]:
    """Encode a poset model as an LTS over its same-valuation components.

    Each component self-loops on its valuation *set*; an ``s`` transition
    links components holding any comparable pair; a ``d`` transition links
    components holding any ordered pair.  Duplicates collapse.  Returns the
    LTS together with the component partition (states are its class numbers);
    the moves are read off :func:`abstract_tables`.
    """
    part, valuations, step, down = abstract_tables(p)
    return tuple(
        frozenset(chain([(v, c)], zip(repeat(STEP), s), zip(repeat(DOWN), d)))
        for c, (v, s, d) in enumerate(zip(valuations, step, down))
    ), part


# -- partition refinement ------------------------------------------------------

def refine(
    block: Sequence[int], tables: Sequence[Sequence[Iterable[int]]]
) -> Iterator[tuple[Sequence[int], dict[tuple, int] | None]]:
    """Signature-based refinement, round by round, from the block table
    ``block`` (blocks numbered in order of first state).

    Each table of ``tables`` holds one label's successors by state.  A round
    splits every block by its states' sets of successor blocks under each
    label, with new block numbers in order of first state.  A round yields
    its table with its blocks' keys in block order: the old block, then per
    label a frozenset of old successor blocks, or None if the old block is one
    state.  The first table is ``block`` itself, with None; the last is stable.
    """
    n_blocks, groups = len(set(block)), None
    while True:
        yield block, groups
        if n_blocks == len(block):  # every block is one state: stable
            return
        get, size = block.__getitem__, Counter(block)  # a block of one state cannot split
        signatures = [[frozenset(map(get, ts)) if size[b] > 1 else None
                       for b, ts in zip(block, t)] for t in tables]
        groups = {}
        new = [groups.setdefault(key, len(groups)) for key in zip(block, *signatures)]
        if len(groups) == n_blocks:
            return
        block, n_blocks = new, len(groups)


def strong_partition(moves: Moves) -> tuple[int, ...]:
    """Block table of the coarsest partition stable under strong transfer.

    A label that only ever loops (a valuation set, an atom) is read once:
    states start apart by their sets of such labels.  Every other label
    becomes a successor table for :func:`refine`.
    """
    moving = {lab for i, ms in enumerate(moves) for lab, j in ms if j != i}
    tables: dict[Label, list[list[int]]] = {lab: [[] for _ in moves] for lab in moving}
    first: dict[frozenset[Label], int] = {}
    block = []
    for i, ms in enumerate(moves):
        loops = []
        for lab, j in ms:
            if lab in moving:
                tables[lab][i].append(j)
            else:
                loops.append(lab)
        block.append(first.setdefault(frozenset(loops), len(first)))
    for block, _ in refine(block, list(tables.values())):
        pass
    return tuple(block)


# -- certificate of branching bisimilarity ----------------------------------------

def branching_quotient(p: PosetModel, block: Sequence[int]) -> Moves | None:
    """The concrete encoding of ``p`` projected on the blocks of the table
    ``block``, or None if they are no branching bisimulation.

    Per element, the encoding has one self-loop per satisfied atom; a
    ``tau`` move to every comparable element with the same valuation
    (including itself); a ``c`` move to every comparable element with a
    different valuation; a ``d`` move to everything below it in the full
    order (including itself).  Inside each block, ``tau`` moves link states
    into components, whose signatures (their members' moves by label and
    target block) must all be equal: they are the block's moves in the
    quotient.  Comparability is symmetric, so a component's states reach
    each other by inert ``tau`` moves.
    """
    clash = {TAU, CHANGE, DOWN}.intersection(p.atoms)
    if clash:
        raise LabelError(f"atom names collide with reserved labels: {sorted(clash)}")
    vals, succ, pred = p.valuations, p.succ, p.pred
    seen = [False] * len(block)
    signatures: dict[int, frozenset[tuple[Label, int]]] = {}
    for s, k in enumerate(block):
        if seen[s]:
            continue
        seen[s] = True
        vs = vals[s]  # every member of s's component has this valuation
        component, signature = [s], {(TAU, k), *zip(vs, repeat(k))}  # tau and atom loops
        for v in component:
            for t in chain(succ[v], pred[v]):
                if vals[t] != vs:
                    signature.add((CHANGE, block[t]))
                elif block[t] != k:
                    signature.add((TAU, block[t]))
                elif not seen[t]:
                    seen[t] = True
                    component.append(t)
            signature.update(zip(repeat(DOWN), map(block.__getitem__, pred[v])))
        if k not in signatures:
            signatures[k] = frozenset(signature)
        elif signatures[k] != signature:
            return None
    return tuple(signatures.get(k, frozenset()) for k in range(max(block, default=-1) + 1))


def is_branching_minimal(quotient: Moves) -> bool:
    """Are the blocks of a branching bisimulation pairwise inequivalent?
    ``quotient`` is the one :func:`branching_quotient` returns, where each
    state is branching bisimilar to its block; with every ``tau`` move
    there a self-loop, strong bisimilarity on it must separate every block."""
    tau_loops = all(lab != TAU or j == k for k, ms in enumerate(quotient) for lab, j in ms)
    return tau_loops and len(set(strong_partition(quotient))) == len(quotient)


# -- direct fixpoint on the poset model ----------------------------------------

def weak_pm_partition(p: PosetModel) -> Partition:
    """Greatest fixpoint of the matching condition, straight from the model.

    Starting from all identically-valued pairs, a pair (w1, w2) survives as
    long as, for every comparable u1 of w1 and every d1 below u1, there is an
    undirected chain from w2 through elements related to w1 or u1 ending with
    a downward step into an element related to d1 (and symmetrically).  The
    surviving relation is an equivalence; its classes are returned.
    """
    n = len(p)
    related = [{j for j in range(n) if p.valuations[j] == p.valuations[i]} for i in range(n)]

    def holds(w1: int, w2: int) -> bool:
        z_w1 = frozenset(related[w1])
        checked: set[tuple[frozenset[int], frozenset[int]]] = set()
        for u1 in set(p.succ[w1]).union(p.pred[w1]):
            z_u1 = frozenset(related[u1])
            allowed = z_w1 | z_u1
            for d1 in p.pred[u1]:
                key = (z_u1, frozenset(related[d1]))
                if key in checked:
                    continue
                checked.add(key)
                if not _matching_path(p, w2, allowed, related[d1]):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for w1 in range(n):
            for w2 in list(related[w1]):
                if w1 == w2:
                    continue
                if not holds(w1, w2) or not holds(w2, w1):
                    related[w1].discard(w2)
                    related[w2].discard(w1)
                    changed = True

    # The fixpoint is an equivalence; number its classes and verify.
    block = [-1] * n
    count = 0
    for w in range(n):
        if block[w] >= 0:
            continue
        members = {w} | related[w]
        for m in members:
            if related[m] | {m} != members:
                raise AssertionError("fixpoint relation is not transitive")
            block[m] = count
        count += 1
    return Partition(p.elements, tuple(block))


def _matching_path(
    p: PosetModel, start: int, allowed: set[int] | frozenset[int], targets: set[int]
) -> bool:
    """Is there an undirected chain of element numbers from ``start`` inside
    ``allowed`` ending with one downward step into ``targets``?"""
    if start not in allowed:
        return False
    seen = {start}
    queue = [start]
    for v in queue:
        if not targets.isdisjoint(p.pred[v]):
            return True
        for u in chain(p.succ[v], p.pred[v]):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return False


# -- pull-backs -----------------------------------------------------------------

def pull_back(coarse: tuple[int, ...], fine: Partition) -> Partition:
    """Transport a block table over class numbers back to the elements.

    ``fine`` partitions the elements; ``coarse`` maps each ``fine`` class
    number to a block.  The result groups elements whose ``fine`` classes
    share a ``coarse`` block.
    """
    if len(coarse) != len(fine):
        raise ValueError("the coarse table does not number the fine classes")
    return Partition(fine.universe, tuple(map(coarse.__getitem__, fine.block)))


# -- Aldebaran format -------------------------------------------------------------

def to_aut(moves: Moves) -> str:
    """Serialise to Aldebaran format: state numbers as they are, string
    labels, written state by state, each state's moves sorted by label and
    target.

    A label must be a string without a ``"`` or a line boundary (any that
    :meth:`str.splitlines` splits at): the format has no escapes for them.
    Each distinct label is checked once, in the order it first appears."""
    first = {lab: i for i in reversed(range(len(moves))) for lab, _ in moves[i]}
    odd = sorted((i, type(lab).__name__) for lab, i in first.items() if not isinstance(lab, str))
    if odd:
        raise LabelError("state {} has a label of type {}, not a string".format(*odd[0]))
    labels = sorted(first, key=lambda lab: (first[lab], lab))  # in order of first appearance
    for lab in labels:
        if '"' in lab or "".join(lab.splitlines()) != lab:
            raise LabelError(f"label {lab!r} cannot be written in Aldebaran format")
    try:
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, read from a JSON escape
        bad = exc.object[exc.start]
        raise LabelError(f"a label holds {bad!r}, which UTF-8 cannot encode") from None
    lines = [f"des (0,{sum(map(len, moves))},{len(moves)})"]
    lines += [f'({i},"{lab}",{j})' for i, ms in enumerate(moves) for lab, j in sorted(ms)]
    return "\n".join(lines) + "\n"
