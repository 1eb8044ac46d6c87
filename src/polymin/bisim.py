"""LTS encodings of poset models and bisimulation partition refinement.

The abstract encoding quotients same-valuation connected components and uses
labels ``atom sets + {s, d}``; strong bisimilarity on it, pulled back to the
cells, is logical equivalence of the reach logic on the poset, and it is the
route minimisation uses.  The concrete encoding turns a poset model into an
LTS over the labels ``atoms + {tau, c, d}`` whose branching bisimilarity gives
the same classes; it is kept for Aldebaran export and, with a direct fixpoint
computation straight from the model, as an oracle.  The three routes must
always agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

from .errors import InputError
from .simplicial import PosetModel

__all__ = [
    "TAU", "CHANGE", "DOWN", "STEP",
    "Lts", "Partition", "AutFormatError",
    "encode_concrete", "components_same_valuation", "encode_abstract",
    "branching_partition", "strong_partition", "strong_rounds", "weak_pm_partition",
    "quotient_lts", "pull_back",
    "to_aut", "from_aut",
]

TAU = "tau"
CHANGE = "c"
DOWN = "d"
STEP = "s"

Label = object  # str for concrete labels, frozenset[str] for valuation sets


class AutFormatError(InputError):
    """Malformed Aldebaran (.aut) input."""


class Lts:
    """A finite labelled transition system with set-semantics transitions.

    ``states`` keeps construction order (it numbers states in exports); each
    transition is stored once, in ``moves[i]``: the distinct (label, target
    number) pairs of state number i.
    """

    __slots__ = ("states", "moves")

    def __init__(self, states: Iterable[str], transitions: Iterable[tuple[str, Label, str]]):
        self.states: tuple[str, ...] = tuple(states)
        index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ValueError("duplicate state names")
        moves: list[set[tuple[Label, int]]] = [set() for _ in self.states]
        for src, lab, dst in transitions:
            i, j = index.get(src), index.get(dst)
            if i is None or j is None:
                raise ValueError(f"transition ({src!r}, {lab!r}, {dst!r}) has an unknown endpoint")
            moves[i].add((lab, j))
        self.moves = tuple(map(frozenset, moves))

    @classmethod
    def _from_moves(cls, states: Iterable[str], moves: Iterable[Iterable]) -> "Lts":
        """An LTS from per-state (label, target number) pairs, by number."""
        lts = cls.__new__(cls)
        lts.states = tuple(states)
        lts.moves = tuple(map(frozenset, moves))
        return lts

    @property
    def transitions(self) -> frozenset[tuple[str, Label, str]]:
        """Every transition as a (source, label, target) triple of names."""
        names = self.states
        return frozenset(
            (names[i], lab, names[j]) for i, ms in enumerate(self.moves) for lab, j in ms
        )

    def count_label(self, label: Label) -> int:
        return sum(lab == label for ms in self.moves for lab, _ in ms)

    def __len__(self) -> int:
        return len(self.states)


def _label_text(label: Label) -> str:
    """The Aldebaran spelling of a label.  Refinement compares labels by
    value: ``{"a,b"}`` and ``{"a", "b"}`` are both spelt ``{a,b}``."""
    if isinstance(label, frozenset):
        return "{" + ",".join(sorted(label)) + "}"
    return str(label)


@dataclass(frozen=True)
class Partition:
    """An ordered partition of a fixed universe.

    ``block[i]`` is the class number of the universe's i-th member; classes
    are numbered in order of their first member, so equal partitions have
    equal tables.  Each class is also named after its lexicographically least
    member.
    """

    universe: tuple[str, ...]
    block: tuple[int, ...]

    @staticmethod
    def from_blocks(universe: Iterable[str], blocks: Iterable[Iterable[str]]) -> "Partition":
        """A validated partition from blocks of member names, in any order."""
        universe = tuple(universe)
        position = {w: i for i, w in enumerate(universe)}
        block = [-1] * len(universe)
        for k, b in enumerate(blocks):
            for w in b:
                i = position.get(w)
                if i is None:
                    raise ValueError(f"block member {w!r} is not in the universe")
                if block[i] not in (-1, k):
                    raise ValueError(f"blocks overlap on {w!r}")
                block[i] = k
        missing = [w for w, k in zip(universe, block) if k < 0]
        if missing:
            raise ValueError(f"blocks do not cover {missing!r}")
        first: dict[int, int] = {}
        return Partition(universe, tuple(first.setdefault(k, len(first)) for k in block))

    @cached_property
    def classes(self) -> tuple[frozenset[str], ...]:
        members: list[list[str]] = [[] for _ in range(len(self))]
        for w, k in zip(self.universe, self.block):
            members[k].append(w)
        return tuple(map(frozenset, members))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(map(min, self.classes))

    @cached_property
    def _position(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.universe)}

    def class_of(self, member: str) -> int:
        return self.block[self._position[member]]

    def class_members(self, i: int) -> frozenset[str]:
        return self.classes[i]

    def __len__(self) -> int:
        return max(self.block, default=-1) + 1

    def same_class(self, a: str, b: str) -> bool:
        return self.class_of(a) == self.class_of(b)

    def refines(self, other: "Partition") -> bool:
        """True iff every class of this partition fits inside a class of
        ``other`` (same universe assumed)."""
        image: dict[int, int] = {}
        return all(image.setdefault(a, b) == b for a, b in zip(self.block, other.block))


# -- encodings ---------------------------------------------------------------

_RESERVED_CONCRETE = {TAU, CHANGE, DOWN}


def encode_concrete(p: PosetModel) -> Lts:
    """Encode a poset model as an LTS over ``atoms + {tau, c, d}``.

    Per element: one self-loop per satisfied atom; a ``tau`` transition to
    every comparable element with the same valuation (including itself); a
    ``c`` transition to every comparable element with a different valuation;
    a ``d`` transition to everything below it in the full order (including
    itself).
    """
    clash = _RESERVED_CONCRETE & set(p.atoms)
    if clash:
        raise ValueError(f"atom names collide with reserved labels: {sorted(clash)}")
    vals = p.valuations
    moves = []
    for i, vi in enumerate(vals):
        m = {(atom, i) for atom in vi}
        m.update((TAU if vals[j] == vi else CHANGE, j) for j in chain(p.succ[i], p.pred[i]))
        m.update((DOWN, j) for j in p.pred[i])
        moves.append(m)
    return Lts._from_moves(p.elements, moves)


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


def encode_abstract(p: PosetModel) -> tuple[Lts, Partition]:
    """Encode a poset model as an LTS over its same-valuation components.

    Each component self-loops on its valuation *set*; an ``s`` transition
    links components holding any comparable pair; a ``d`` transition links
    components holding any ordered pair.  Duplicates collapse.  Returns the
    LTS together with the component partition (states are its class names).
    """
    part = components_same_valuation(p)
    comp = part.block
    moves: list[set[tuple[Label, int]]] = [set() for _ in part.names]
    for w, c in enumerate(comp):
        moves[c].add((p.valuations[w], c))
        moves[c].update((STEP, comp[u]) for u in chain(p.succ[w], p.pred[w]))
        moves[c].update((DOWN, comp[u]) for u in p.pred[w])
    return Lts._from_moves(part.names, moves), part


# -- partition refinement ------------------------------------------------------

def strong_partition(l: Lts) -> Partition:
    """Coarsest partition stable under the classic transfer condition."""
    for block in strong_rounds(l):
        pass
    return Partition(l.states, tuple(block))


def strong_rounds(l: Lts) -> Iterator[list[int]]:
    """The block table of every round of :func:`strong_partition`'s
    refinement, where a state's signature is its set of moves (label, target
    block)."""
    def signature(i: int, block: list[int]) -> frozenset[tuple[Label, int]]:
        return frozenset((lab, block[t]) for lab, t in l.moves[i])

    return _rounds(len(l), signature)


def branching_partition(l: Lts, tau: Label = TAU) -> Partition:
    """Coarsest branching bisimulation partition of an LTS.

    Signature-based refinement: a state's signature collects the visible
    moves reachable after silent steps that stay inside its own block; silent
    moves within the block are inert.  Without ``tau`` among the labels this
    degrades to strong bisimulation.
    """
    def signature(i: int, block: list[int]) -> frozenset[tuple[Label, int]]:
        sig = set()
        for v in _inert_closure(l, i, block, tau):
            for lab, t in l.moves[v]:
                if lab != tau or block[t] != block[i]:
                    sig.add((lab, block[t]))
        return frozenset(sig)

    for block in _rounds(len(l), signature):
        pass
    return Partition(l.states, tuple(block))


def _inert_closure(l: Lts, i: int, block: list[int], tau: Label) -> list[int]:
    """States reachable from state ``i`` via tau steps that never leave its
    block."""
    home = block[i]
    seen = {i}
    queue = [i]
    for v in queue:
        for lab, t in l.moves[v]:
            if lab == tau and block[t] == home and t not in seen:
                seen.add(t)
                queue.append(t)
    return queue


def _rounds(n: int, signature) -> Iterator[list[int]]:
    """Signature-based refinement of states 0..n-1 from a single block, round
    by round: each round splits every block by ``signature(state, previous
    blocks)``, with block numbers in order of first state.  The last table
    yielded is stable."""
    block = [0] * n
    n_blocks = 1
    while True:
        yield block
        groups: dict[object, int] = {}
        new = [groups.setdefault((block[i], signature(i, block)), len(groups)) for i in range(n)]
        if len(groups) == n_blocks:
            return
        block, n_blocks = new, len(groups)


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


# -- quotients and pull-backs ---------------------------------------------------

def quotient_lts(l: Lts, part: Partition, drop_tau_self_loops: bool = False) -> Lts:
    """Project an LTS onto partition classes (set semantics).

    States are the class names.  ``drop_tau_self_loops`` removes quotient tau
    self-loops, which branching bisimilarity cannot observe; they are kept by
    default for rule-for-rule fidelity.
    """
    if part.universe != l.states:
        raise ValueError("partition universe does not match the LTS states")
    block = part.block
    moves: list[set[tuple[Label, int]]] = [set() for _ in part.names]
    for i, ms in enumerate(l.moves):
        a = block[i]
        moves[a].update(
            (lab, block[j]) for lab, j in ms
            if not (drop_tau_self_loops and lab == TAU and block[j] == a)
        )
    return Lts._from_moves(part.names, moves)


def pull_back(coarse: Partition, fine: Partition) -> Partition:
    """Transport a partition of class names back to the underlying elements.

    ``fine`` partitions the elements; ``coarse`` partitions ``fine``'s class
    names.  The result groups elements whose ``fine`` classes share a
    ``coarse`` class.
    """
    if coarse.universe != fine.names:
        raise ValueError("the coarse partition's universe is not the fine class names")
    return Partition(fine.universe, tuple(map(coarse.block.__getitem__, fine.block)))


# -- Aldebaran format -------------------------------------------------------------

_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*")
_AUT_LINE = re.compile(r"\(\s*(\d+)\s*,\s*\"([^\"]*)\"\s*,\s*(\d+)\s*\)\s*")


def to_aut(l: Lts) -> str:
    """Serialise to Aldebaran format; state numbers follow state order."""
    triples = sorted((i, _label_text(lab), j) for i, ms in enumerate(l.moves) for lab, j in ms)
    lines = [f"des (0,{len(triples)},{len(l.states)})"]
    for src, lab, dst in triples:
        if '"' in lab:
            raise ValueError(f"label {lab!r} cannot be written in Aldebaran format")
        lines.append(f'({src},"{lab}",{dst})')
    return "\n".join(lines) + "\n"


def from_aut(text: str) -> Lts:
    """Parse Aldebaran format; states are named by their numbers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise AutFormatError("empty document")
    header = _AUT_HEADER.fullmatch(lines[0].strip())
    if header is None:
        raise AutFormatError(f"bad header: {lines[0]!r}")
    first, n_trans, n_states = (int(g) for g in header.groups())
    if first >= n_states:
        raise AutFormatError("initial state out of range")
    if len(lines) - 1 != n_trans:
        raise AutFormatError(
            f"header announces {n_trans} transitions, found {len(lines) - 1}"
        )
    moves: list[set[tuple[Label, int]]] = [set() for _ in range(n_states)]
    for ln in lines[1:]:
        m = _AUT_LINE.fullmatch(ln.strip())
        if m is None:
            raise AutFormatError(f"bad transition line: {ln!r}")
        src, lab, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if src >= n_states or dst >= n_states:
            raise AutFormatError(f"state number out of range in {ln!r}")
        moves[src].add((lab, dst))
    return Lts._from_moves(map(str, range(n_states)), moves)
