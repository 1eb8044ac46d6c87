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
from collections import deque
from dataclasses import dataclass, field
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

    ``states`` keeps construction order (it numbers states in exports);
    transitions are a set of (source, label, target) triples.
    """

    __slots__ = ("states", "transitions", "_index", "_out")

    def __init__(self, states: Iterable[str], transitions: Iterable[tuple[str, Label, str]]):
        self.states: tuple[str, ...] = tuple(states)
        self._index = {s: i for i, s in enumerate(self.states)}
        if len(self._index) != len(self.states):
            raise ValueError("duplicate state names")
        self.transitions: frozenset[tuple[str, Label, str]] = frozenset(transitions)
        out: dict[str, list[tuple[Label, str]]] = {s: [] for s in self.states}
        for src, lab, dst in self.transitions:
            if src not in self._index or dst not in self._index:
                raise ValueError(f"transition ({src!r}, {lab!r}, {dst!r}) has an unknown endpoint")
            out[src].append((lab, dst))
        for s in self.states:
            out[s].sort(key=lambda t: (_label_text(t[0]), self._index[t[1]]))
        self._out = {s: tuple(v) for s, v in out.items()}

    def index_of(self, state: str) -> int:
        return self._index[state]

    def outgoing(self, state: str) -> tuple[tuple[Label, str], ...]:
        return self._out[state]

    def count_label(self, label: Label) -> int:
        return sum(1 for _, lab, _ in self.transitions if lab == label)

    def __len__(self) -> int:
        return len(self.states)


def _label_text(label: Label) -> str:
    if isinstance(label, frozenset):
        return "{" + ",".join(sorted(label)) + "}"
    return str(label)


@dataclass(frozen=True)
class Partition:
    """An ordered partition of a fixed universe.

    Classes are ordered by their least member's position in the universe;
    each class is also named after its lexicographically least member.
    """

    universe: tuple[str, ...]
    classes: tuple[frozenset[str], ...]
    names: tuple[str, ...] = field(compare=False)
    _index: dict[str, int] = field(compare=False, repr=False)

    @staticmethod
    def from_blocks(universe: Iterable[str], blocks: Iterable[Iterable[str]]) -> "Partition":
        universe = tuple(universe)
        position = {w: i for i, w in enumerate(universe)}
        normalised = [frozenset(b) for b in blocks if b]
        covered: set[str] = set()
        for b in normalised:
            for w in b:
                if w not in position:
                    raise ValueError(f"block member {w!r} is not in the universe")
                if w in covered:
                    raise ValueError(f"blocks overlap on {w!r}")
            covered |= b
        if covered != set(universe):
            missing = sorted(set(universe) - covered, key=position.__getitem__)
            raise ValueError(f"blocks do not cover {missing!r}")
        ordered = tuple(sorted(normalised, key=lambda b: min(position[w] for w in b)))
        names = tuple(min(b) for b in ordered)
        index = {w: i for i, b in enumerate(ordered) for w in b}
        return Partition(universe, ordered, names, index)

    def class_of(self, member: str) -> int:
        return self._index[member]

    def class_members(self, i: int) -> frozenset[str]:
        return self.classes[i]

    def __len__(self) -> int:
        return len(self.classes)

    def same_class(self, a: str, b: str) -> bool:
        return self._index[a] == self._index[b]

    def refines(self, other: "Partition") -> bool:
        """True iff every class of this partition fits inside a class of
        ``other`` (same universe assumed)."""
        return all(any(c <= d for d in other.classes) for c in self.classes)


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
    transitions: list[tuple[str, Label, str]] = []
    for w in p.elements:
        vw = p.valuation_of(w)
        for atom in sorted(vw):
            transitions.append((w, atom, w))
        for u in p.undirected_neighbours(w):  # comparable elements, incl. w
            if p.valuation_of(u) == vw:
                transitions.append((w, TAU, u))
            else:
                transitions.append((w, CHANGE, u))
        for u in p.predecessors(w):
            transitions.append((w, DOWN, u))
    return Lts(p.elements, transitions)


def components_same_valuation(p: PosetModel) -> Partition:
    """Connected components of comparability restricted to equal valuations.

    Two elements land in one class when an undirected chain of comparable,
    identically-valued elements links them ("nothing changes" along the way).
    """
    seen: set[str] = set()
    blocks: list[list[str]] = []
    for w in p.elements:
        if w in seen:
            continue
        component = [w]
        seen.add(w)
        queue = deque([w])
        vw = p.valuation_of(w)
        while queue:
            v = queue.popleft()
            for u in p.undirected_neighbours(v):
                if u not in seen and p.valuation_of(u) == vw:
                    seen.add(u)
                    component.append(u)
                    queue.append(u)
        blocks.append(component)
    return Partition.from_blocks(p.elements, blocks)


def encode_abstract(p: PosetModel) -> tuple[Lts, Partition]:
    """Encode a poset model as an LTS over its same-valuation components.

    Each component self-loops on its valuation *set*; an ``s`` transition
    links components holding any comparable pair; a ``d`` transition links
    components holding any ordered pair.  Duplicates collapse.  Returns the
    LTS together with the component partition (states are its class names).
    """
    part = components_same_valuation(p)
    name_of = {w: part.names[part.class_of(w)] for w in p.elements}
    transitions: set[tuple[str, Label, str]] = set()
    for i, block in enumerate(part.classes):
        rep = next(iter(block))
        transitions.add((part.names[i], p.valuation_of(rep), part.names[i]))
    for w in p.elements:
        for u in p.undirected_neighbours(w):
            transitions.add((name_of[w], STEP, name_of[u]))
        for u in p.predecessors(w):
            transitions.add((name_of[w], DOWN, name_of[u]))
    return Lts(part.names, transitions), part


# -- partition refinement ------------------------------------------------------

def strong_partition(l: Lts) -> Partition:
    """Coarsest partition stable under the classic transfer condition."""
    for block in strong_rounds(l):
        pass
    return _partition_from_assignment(l.states, block)


def strong_rounds(l: Lts) -> Iterator[dict[str, int]]:
    """The block map of every round of :func:`strong_partition`'s refinement,
    where a state's signature is its set of moves (label, target block)."""
    def signature(s: str, block: dict[str, int]) -> frozenset[tuple[str, int]]:
        return frozenset((_label_text(lab), block[t]) for lab, t in l.outgoing(s))

    return _rounds(l.states, signature)


def branching_partition(l: Lts, tau: Label = TAU) -> Partition:
    """Coarsest branching bisimulation partition of an LTS.

    Signature-based refinement: a state's signature collects the visible
    moves reachable after silent steps that stay inside its own block; silent
    moves within the block are inert.  Without ``tau`` among the labels this
    degrades to strong bisimulation.
    """
    def signature(s: str, block: dict[str, int]) -> frozenset[tuple[str, int]]:
        sig = set()
        for v in _inert_closure(l, s, block, tau):
            for lab, t in l.outgoing(v):
                if lab != tau or block[t] != block[s]:
                    sig.add((_label_text(lab), block[t]))
        return frozenset(sig)

    for block in _rounds(l.states, signature):
        pass
    return _partition_from_assignment(l.states, block)


def _inert_closure(l: Lts, s: str, block: dict[str, int], tau: Label) -> list[str]:
    """States reachable from ``s`` via tau steps that never leave s's block."""
    home = block[s]
    seen = {s}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for lab, t in l.outgoing(v):
            if lab == tau and block[t] == home and t not in seen:
                seen.add(t)
                queue.append(t)
    return list(seen)


def _rounds(states, signature) -> Iterator[dict[str, int]]:
    """Signature-based refinement from a single block, round by round: each
    round splits every block by ``signature(state, previous blocks)``, with
    block ids in order of first state.  The last map yielded is stable."""
    block = {s: 0 for s in states}
    n_blocks = 1
    while True:
        yield block
        groups: dict[object, int] = {}
        new = {s: groups.setdefault((block[s], signature(s, block)), len(groups)) for s in states}
        if len(groups) == n_blocks:
            return
        block, n_blocks = new, len(groups)


def _partition_from_assignment(states, block) -> Partition:
    blocks: dict[int, list[str]] = {}
    for s in states:
        blocks.setdefault(block[s], []).append(s)
    return Partition.from_blocks(states, blocks.values())


# -- direct fixpoint on the poset model ----------------------------------------

def weak_pm_partition(p: PosetModel) -> Partition:
    """Greatest fixpoint of the matching condition, straight from the model.

    Starting from all identically-valued pairs, a pair (w1, w2) survives as
    long as, for every comparable u1 of w1 and every d1 below u1, there is an
    undirected chain from w2 through elements related to w1 or u1 ending with
    a downward step into an element related to d1 (and symmetrically).  The
    surviving relation is an equivalence; its classes are returned.
    """
    related: dict[str, set[str]] = {w: set() for w in p.elements}
    for w1 in p.elements:
        for w2 in p.elements:
            if p.valuation_of(w1) == p.valuation_of(w2):
                related[w1].add(w2)

    def holds(w1: str, w2: str) -> bool:
        z_w1 = frozenset(related[w1])
        checked: set[tuple[frozenset[str], frozenset[str]]] = set()
        for u1 in p.undirected_neighbours(w1):
            z_u1 = frozenset(related[u1])
            allowed = z_w1 | z_u1
            for d1 in p.predecessors(u1):
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
        for w1 in p.elements:
            for w2 in list(related[w1]):
                if w1 == w2:
                    continue
                if not holds(w1, w2) or not holds(w2, w1):
                    related[w1].discard(w2)
                    related[w2].discard(w1)
                    changed = True

    # The fixpoint is an equivalence; group it into classes and verify.
    blocks: list[set[str]] = []
    placed: set[str] = set()
    for w in p.elements:
        if w in placed:
            continue
        block = {w} | related[w]
        for m in block:
            if related[m] | {m} != block:
                raise AssertionError("fixpoint relation is not transitive")
        placed |= block
        blocks.append(block)
    return Partition.from_blocks(p.elements, blocks)


def _matching_path(
    p: PosetModel, start: str, allowed: set[str] | frozenset[str], targets: set[str]
) -> bool:
    """Is there an undirected chain from ``start`` inside ``allowed`` ending
    with one downward step into ``targets``?"""
    if start not in allowed:
        return False
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if any(d in targets for d in p.predecessors(v)):
            return True
        for u in p.undirected_neighbours(v):
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
    if tuple(part.universe) != tuple(l.states):
        raise ValueError("partition universe does not match the LTS states")
    name_of = {s: part.names[part.class_of(s)] for s in l.states}
    transitions = set()
    for src, lab, dst in l.transitions:
        a, b = name_of[src], name_of[dst]
        if drop_tau_self_loops and lab == TAU and a == b:
            continue
        transitions.add((a, lab, b))
    return Lts(part.names, transitions)


def pull_back(coarse: Partition, fine: Partition) -> Partition:
    """Transport a partition of class names back to the underlying elements.

    ``fine`` partitions the elements; ``coarse`` partitions ``fine``'s class
    names.  The result groups elements whose ``fine`` classes share a
    ``coarse`` class.
    """
    name_to_members = {fine.names[i]: fine.classes[i] for i in range(len(fine))}
    blocks = []
    for group in coarse.classes:
        merged: set[str] = set()
        for name in group:
            merged |= name_to_members[name]
        blocks.append(merged)
    return Partition.from_blocks(fine.universe, blocks)


# -- Aldebaran format -------------------------------------------------------------

_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*")
_AUT_LINE = re.compile(r"\(\s*(\d+)\s*,\s*\"([^\"]*)\"\s*,\s*(\d+)\s*\)\s*")


def to_aut(l: Lts) -> str:
    """Serialise to Aldebaran format; state numbers follow state order."""
    lines = [f"des ({0},{len(l.transitions)},{len(l.states)})"]
    triples = sorted(
        (l.index_of(src), _label_text(lab), l.index_of(dst)) for src, lab, dst in l.transitions
    )
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
    states = [str(i) for i in range(n_states)]
    transitions = []
    for ln in lines[1:]:
        m = _AUT_LINE.fullmatch(ln.strip())
        if m is None:
            raise AutFormatError(f"bad transition line: {ln!r}")
        src, lab, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if src >= n_states or dst >= n_states:
            raise AutFormatError(f"state number out of range in {ln!r}")
        transitions.append((str(src), lab, str(dst)))
    return Lts(states, transitions)
