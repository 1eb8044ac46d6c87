"""Test-only checks and formula helpers that are not part of the shipped package."""

import random
import re
from array import array
from collections import deque
from itertools import chain, combinations
from typing import Iterable, Iterator

from polymin import bisim
from polymin.bisim import (
    CHANGE, DOWN, STEP, TAU, Label, LabelError, Moves, Partition, components_same_valuation,
)
from polymin.checker import SatSet, UnknownAtomError
from polymin.errors import InputError
from polymin.kripke import ReflexiveKripkeModel
from polymin.logic import (
    TOP, And, Atom, Diamond, Eta, Formula, Gamma, Not, Or, Top, is_eta_pure,
)
from polymin.minimize import MinimalModel, _valuation_formula, class_id
from polymin.simplicial import (
    MissingFaceError, MissingValuationError, ModelFormatError, PosetModel, SimplicialModel,
    UnknownVertexError, _atoms_type, _check_vertex_name,
)


class EtaPurityError(InputError):
    """An operation restricted to eta-pure formulas received one that is not."""


def cell_name(vertices: Iterable[str]) -> str:
    """Canonical cell name: sorted vertex identifiers joined by ``-``."""
    return "-".join(sorted(str(v) for v in vertices))


def poset_from_covers(
    elements: Iterable[str], covers: array, valuations: Iterable[Iterable[str]],
    atoms: Iterable[str],
) -> PosetModel:
    """The poset whose order is the reflexive-transitive closure of arbitrary
    covering pairs, given as a flat array of element numbers (low, high, low,
    high, ...): the reference for :func:`polymin.cell_poset`'s face-built
    tables, and the way tests build hand-made posets.  Only the order is
    kept, so its ``covers`` are the Hasse pairs, whatever pairs it closed.

    A reflexive cover, or a cycle, which would break antisymmetry, raises
    ``ValueError``; so do duplicate element names.
    """
    elements = tuple(elements)
    n = len(elements)
    above: list[list[int]] = [[] for _ in range(n)]
    n_below = [0] * n
    pairs = iter(covers)
    for low, high in zip(pairs, pairs):
        if low == high:
            w = elements[low]
            raise ValueError(f"cover ({w!r}, {w!r}) is reflexive")
        above[low].append(high)
        n_below[high] += 1

    # Topological pass from the minimal elements; what it cannot place
    # lies on or above a cycle, which would break antisymmetry.
    ranked = [w for w in range(n) if not n_below[w]]
    for w in ranked:
        for h in above[w]:
            n_below[h] -= 1
            if not n_below[h]:
                ranked.append(h)
    if len(ranked) != n:
        stuck = elements[next(w for w in range(n) if n_below[w])]
        raise ValueError(f"covering relation has a cycle at or below {stuck!r}")
    up: list[tuple[int, ...]] = [()] * n
    for w in reversed(ranked):
        reach = {w}
        for h in above[w]:
            reach.update(up[h])
        up[w] = tuple(sorted(reach))

    k = ReflexiveKripkeModel(elements, up, valuations, atoms)
    return PosetModel(k._index, k.succ, k.pred, k.valuations, k.atoms)


_NO_ATOMS = object()
_VERTEX_TYPE = "cell vertices must be a list of strings"


def read_cells_by_cell(
    entries: list, declared: list | None, atoms: list[str], geometry: dict | None
) -> tuple[SimplicialModel, array]:
    """The cell-by-cell loader: the reference for
    :func:`polymin.simplicial._read_cells`' column passes, with the same
    errors and the same model, its down-sets from :func:`down_sets_by_cell`.
    Beside the model it returns the covering pairs its face check found, as
    a flat array (face, cell, face, cell, ...), cell by cell and each cell's
    faces in ``combinations`` order.

    One pass over the entries type-checks, sorts (in place), names and
    numbers each cell, checks each vertex name once and gives equal atom
    lists one shared frozenset.  A second pass over the numbered cells looks
    up their faces.  ``entries`` is consumed as it is read.
    """
    if declared is None:
        order: list[str] = []
    else:
        if not isinstance(declared, list) or not all(isinstance(v, str) for v in declared):
            raise ModelFormatError("vertices must be a list of strings")
        order = list(dict.fromkeys(declared))
        for v in order:
            _check_vertex_name(v)
    known = set(order)
    number: dict[str, int] = {}
    cells: list[tuple[str, ...]] = []
    valuations: list[frozenset[str]] = []
    shared: dict[tuple, frozenset[str]] = {}
    for i, entry in enumerate(entries):
        entries[i] = None
        if not isinstance(entry, dict) or "vertices" not in entry:
            raise ModelFormatError(f"malformed cell entry: {entry!r}")
        vs = entry["vertices"]
        if not isinstance(vs, list):
            raise ModelFormatError(_VERTEX_TYPE)
        if not vs:
            raise ModelFormatError("cells must have at least one vertex")
        # Known vertices are checked strings; only a cell with a vertex not
        # seen before needs its names looked at.
        try:
            fresh = not known.issuperset(vs)
        except TypeError:  # an unhashable entry
            raise ModelFormatError(_VERTEX_TYPE) from None
        if fresh:
            if not all(isinstance(v, str) for v in vs):
                raise ModelFormatError(_VERTEX_TYPE)
            if declared is not None:
                cell = sorted(vs)
                v = next(v for v in cell if v not in known)
                raise UnknownVertexError(f"cell {'-'.join(cell)!r} uses undeclared vertex {v!r}")
            for v in vs:
                if v not in known:
                    _check_vertex_name(v)
                    known.add(v)
                    order.append(v)
        vs.sort()
        cell = tuple(vs)
        name = "-".join(cell)
        if len(cell) > 1 and len(set(cell)) < len(cell):
            raise ModelFormatError(f"cell {name!r} lists a vertex twice")
        if number.setdefault(name, len(cells)) != len(cells):
            raise ModelFormatError(f"duplicate cell {name!r}")
        listed = entry.get("atoms", _NO_ATOMS)
        if listed is _NO_ATOMS:
            raise MissingValuationError(f"cell {name!r} has no atom list")
        if not isinstance(listed, list):
            raise _atoms_type(name)
        key = tuple(listed)
        try:
            atom_set = shared[key]
        except (KeyError, TypeError):  # new, or holding something unhashable
            if not all(isinstance(a, str) for a in listed):
                raise _atoms_type(name) from None
            atom_set = shared[key] = frozenset(key)
        cells.append(cell)
        valuations.append(atom_set)

    covers: list[int] = []
    for high, cell in enumerate(cells):
        k = len(cell)
        if k == 1:
            continue
        for face in cell if k == 2 else map("-".join, combinations(cell, k - 1)):
            low = number.get(face)
            if low is None:
                raise MissingFaceError(
                    f"cell {'-'.join(cell)!r} requires face {face!r}, which is not listed"
                )
            covers.append(low)
            covers.append(high)

    used = dict.fromkeys(atoms)
    for atom_set in dict.fromkeys(shared.values()):
        used.update(dict.fromkeys(sorted(atom_set)))
    model = SimplicialModel(tuple(order), tuple(cells), tuple(valuations), tuple(used), geometry,
                            number, down_sets_by_cell(cells, number))
    return model, array("i", covers)


def down_sets_by_cell(cells: Iterable[tuple[str, ...]], number: dict[str, int]
                      ) -> tuple[tuple[int, ...], ...]:
    """Each cell's down-set, cell by cell: the sorted numbers of the cell and
    of its faces of every size, looked up by name."""
    pred = []
    for high, cell in zip(number.values(), cells):
        down = [high]
        for size in range(1, len(cell)):
            down += map(number.__getitem__, map("-".join, combinations(cell, size)))
        pred.append(tuple(sorted(down)))
    return tuple(pred)


def cell_poset_by_cell(m: SimplicialModel) -> PosetModel:
    """The cell-by-cell cell poset: the reference for
    :func:`polymin.cell_poset`.  Its down-sets are looked up by name again,
    not read from the model, and inverting them in cell order leaves every
    up-set sorted."""
    pred = down_sets_by_cell(m.cells, m._index)
    succ: list = [[] for _ in m.cells]
    for high, down in enumerate(pred):
        for low in down:
            succ[low].append(high)
    return PosetModel(m._index, tuple(map(tuple, succ)), pred, m.valuations, m.atoms)


def relation_pairs(model: ReflexiveKripkeModel) -> frozenset[tuple[str, str]]:
    """The accessibility relation as (source, target) name pairs."""
    names = model.elements
    return frozenset((names[a], names[b]) for a, bs in enumerate(model.succ) for b in bs)


def down(model: ReflexiveKripkeModel, w: str) -> tuple[str, ...]:
    return model.names(model.pred[model.index_of(w)])


def neighbours(model: ReflexiveKripkeModel, w: str) -> tuple[str, ...]:
    i = model.index_of(w)
    return model.names(sorted(set(model.succ[i]).union(model.pred[i])))


def class_of_element(mm: MinimalModel, element: str) -> str:
    """The id of the minimal-model class holding a source cell."""
    return class_id(mm.partition.block[mm.source.index_of(element)])


def members_of(mm: MinimalModel, cid: str) -> frozenset[str]:
    """The source cells of a minimal-model class."""
    return mm.partition.classes[mm.kripke.index_of(cid)]


def minimize_payloads(mm: MinimalModel) -> tuple[dict, dict]:
    """The payloads of ``minimize``'s classes file and minimal-model file,
    the reference for the text the CLI writes from the record's tables:
    each is ``json.dumps(payload, indent=2)`` plus a newline."""
    members: list[list[str]] = [[] for _ in range(len(mm.partition))]
    for w, k in zip(mm.source.elements, mm.partition.block):
        members[k].append(w)
    classes = [
        {"id": i, "name": min(ws), "members": ws, "atoms": sorted(v)}
        for i, (ws, v) in enumerate(zip(members, mm.kripke.valuations))
    ]
    relation = [[i, j] for i, targets in enumerate(mm.kripke.succ) for j in targets]
    return {"classes": classes}, {"classes": classes, "relation": relation}


def atom_extension(model: ReflexiveKripkeModel, atom: str) -> frozenset[str]:
    return frozenset(w for w, v in zip(model.elements, model.valuations) if atom in v)


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    return frozenset().union(*map(atoms_of, f.operands))


def as_partition(model: ReflexiveKripkeModel, block: Iterable[int]) -> Partition:
    """A block table over ``model``'s element numbers as a partition."""
    return Partition(model.elements, tuple(block))


def n_blocks(block: Iterable[int]) -> int:
    """The number of blocks of a block table."""
    return len(set(block))


def class_names(part: Partition) -> tuple[str, ...]:
    """Each class named after its lexicographically least member."""
    return tuple(map(min, part.classes))


def as_moves(states: Iterable[Iterable[tuple[Label, int]]]) -> Moves:
    """An LTS from each state's (label, target) pairs."""
    return tuple(map(frozenset, states))


def transitions(moves: Moves) -> frozenset[tuple[int, Label, int]]:
    """An LTS's transitions as (source, label, target) triples of numbers."""
    return frozenset((i, lab, j) for i, ms in enumerate(moves) for lab, j in ms)


def named_transitions(moves: Moves, names: tuple[str, ...]) -> frozenset[tuple[str, Label, str]]:
    """An LTS's transitions as (source, label, target) triples of ``names``."""
    return frozenset((names[i], lab, names[j]) for i, lab, j in transitions(moves))


def aut_by_sorted_triples(moves: Moves) -> str:
    """Aldebaran text from one sort of every (state, label, target) triple,
    labels checked in the order of that sort: the reference for
    :func:`polymin.to_aut`, which writes state by state."""
    triples = sorted((i, lab, j) for i, ms in enumerate(moves) for lab, j in ms)
    for lab in dict.fromkeys(lab for _, lab, _ in triples):
        if '"' in lab or "".join(lab.splitlines()) != lab:
            raise LabelError(f"label {lab!r} cannot be written in Aldebaran format")
    lines = [f"des (0,{len(triples)},{len(moves)})"]
    lines += [f'({src},"{lab}",{dst})' for src, lab, dst in triples]
    text = "\n".join(lines) + "\n"
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise LabelError(
            f"a label holds {text[exc.start]!r}, which UTF-8 cannot encode"
        ) from None
    return text


def aut_moves(text: str) -> list[set[tuple[str, int]]]:
    """Each state's (label, target) pairs in Aldebaran text; checks the header."""
    header, *lines = text.splitlines()
    n_trans, n_states = map(int, re.fullmatch(r"des \(0,(\d+),(\d+)\)", header).groups())
    assert len(lines) == n_trans
    moves: list[set[tuple[str, int]]] = [set() for _ in range(n_states)]
    for src, lab, dst in (re.fullmatch(r'\((\d+),"([^"]*)",(\d+)\)', ln).groups() for ln in lines):
        moves[int(src)].add((lab, int(dst)))
    return moves


def is_weak_pm_bisimulation(p: PosetModel, part: Partition) -> bool:
    """Check the matching condition for every same-class pair of ``part``."""
    for block in part.classes:
        for w1 in block:
            if p.valuation_of(w1) != p.valuation_of(next(iter(block))):
                return False
            for w2 in block:
                for u1 in neighbours(p, w1):
                    allowed = block | part.classes[part.block[p.index_of(u1)]]
                    for d1 in down(p, u1):
                        targets = set(part.classes[part.block[p.index_of(d1)]])
                        if not _matching_path(p, w2, allowed, targets):
                            return False
    return True


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
        if any(d in targets for d in down(p, v)):
            return True
        for u in neighbours(p, v):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return False


def weak_pm_by_signatures(p: PosetModel) -> Partition:
    """The coarsest weak ±-bisimulation by signature refinement, a reference
    for ``bisim.weak_pm_partition`` that also runs on large models.

    From the valuation partition, each round gives a cell the signature: its
    block B; the blocks one downward step reaches from its comparability
    component inside B; and, for each other block X that component touches,
    X with that set from its component inside B ∪ X, where it differs.  A
    path inside B ∪ X ending with a downward step is what the matching
    condition asks of a related cell, for a comparable cell in X (or in B).
    Rounds repeat until no block splits."""
    block = valuation_split(list(p.valuations))
    while True:
        members: dict[int, list[int]] = {}
        for w, b in enumerate(block):
            members.setdefault(b, []).append(w)
        own = _components(p, members.values())
        pairs = {tuple(sorted((block[w], block[u])))
                 for w in range(len(p)) for u in p.succ[w] if block[u] != block[w]}
        joint = {pair: _components(p, [members[pair[0]] + members[pair[1]]]) for pair in pairs}

        reached: dict[int, frozenset[int]] = {}  # by component, as its cells share one list

        def reach(component: list[int]) -> frozenset[int]:
            if id(component) not in reached:
                reached[id(component)] = frozenset(block[d] for v in component for d in p.pred[v])
            return reached[id(component)]

        signature: dict[int, tuple] = {}  # by own component
        for w, b in enumerate(block):
            component = own[w]
            if id(component) not in signature:
                mine = reach(component)
                touched = {block[u] for v in component for u in chain(p.succ[v], p.pred[v])}
                others = {(x, reach(joint[min(b, x), max(b, x)][w])) for x in touched - {b}}
                signature[id(component)] = (b, mine, frozenset((x, r) for x, r in others if r != mine))
        signatures = [signature[id(own[w])] for w in range(len(p))]
        first: dict[tuple, int] = {}
        refined = [first.setdefault(s, len(first)) for s in signatures]
        if len(first) == len(members):
            return Partition(p.elements, tuple(refined))
        block = refined


def _components(p: PosetModel, groups: Iterable[list[int]]) -> dict[int, list[int]]:
    """Each cell's comparability component inside its group, as one list
    shared by the component's cells."""
    component: dict[int, list[int]] = {}
    for group in groups:
        inside = set(group)
        for w in group:
            if w in component:
                continue
            cells = component[w] = [w]
            for v in cells:
                for u in chain(p.succ[v], p.pred[v]):
                    if u in inside and u not in component:
                        component[u] = cells
                        cells.append(u)
    return component


# -- the concrete route: round-based branching bisimilarity -------------------

def branching_partition(l: Moves, tau: Label = TAU) -> tuple[int, ...]:
    """Block table of the coarsest branching bisimulation of an LTS.

    Signature-based refinement: a state's signature collects the visible
    moves reachable after silent steps that stay inside its own block; silent
    moves within the block are inert.  Without ``tau`` among the labels this
    degrades to strong bisimulation.
    """
    def signature(i: int, block: list[int]) -> frozenset[tuple[Label, int]]:
        sig = set()
        for v in _inert_closure(l, i, block, tau):
            for lab, t in l[v]:
                if lab != tau or block[t] != block[i]:
                    sig.add((lab, block[t]))
        return frozenset(sig)

    for block in _rounds(len(l), signature):
        pass
    return tuple(block)


def _inert_closure(l: Moves, i: int, block: list[int], tau: Label) -> list[int]:
    """States reachable from state ``i`` via tau steps that never leave its
    block."""
    home = block[i]
    seen = {i}
    queue = [i]
    for v in queue:
        for lab, t in l[v]:
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


def encode_concrete_by_rule(p: PosetModel) -> Moves:
    """The concrete encoding built element by element, each by the rule that
    :func:`polymin.bisim.branching_quotient` states: the reference for
    :func:`polymin.encode_concrete`'s moves."""
    vals = p.valuations
    moves = []
    for i, vi in enumerate(vals):
        m = {(atom, i) for atom in vi}
        m.update((TAU if vals[j] == vi else CHANGE, j) for j in chain(p.succ[i], p.pred[i]))
        m.update((DOWN, j) for j in p.pred[i])
        moves.append(m)
    return as_moves(moves)


def quotient_lts(l: Moves, part: Partition) -> Moves:
    """Project an LTS onto partition classes (set semantics); the quotient's
    states are the class numbers.  Every move is kept, ``tau`` self-loops
    included, for rule-for-rule fidelity: the reference for the quotient
    that :func:`polymin.bisim.branching_quotient` certifies and ``minimize
    --emit-aut`` writes."""
    block = part.block
    if len(block) != len(l):
        raise ValueError("the partition does not number the LTS states")
    moves: list[set[tuple[Label, int]]] = [set() for _ in range(len(part))]
    for a, ms in zip(block, l):
        moves[a].update((lab, block[j]) for lab, j in ms)
    return as_moves(moves)


# -- the abstract route read pair by pair, kept as its reference ---------------

def encode_abstract_by_pairs(p: PosetModel) -> Moves:
    """The abstract encoding built pair by pair: every order pair adds its
    ``s`` moves in both directions and its ``d`` move, and every cell its
    component's valuation loop.  The reference for
    :func:`polymin.bisim.encode_abstract`'s moves."""
    comp = components_same_valuation(p).block
    moves: list[set[tuple[Label, int]]] = [set() for _ in range(max(comp, default=-1) + 1)]
    for w, c in enumerate(comp):
        moves[c].add((p.valuations[w], c))
        moves[c].update((STEP, comp[u]) for u in chain(p.succ[w], p.pred[w]))
        moves[c].update((DOWN, comp[u]) for u in p.pred[w])
    return as_moves(moves)


def strong_rounds_by_pairs(l: Moves) -> Iterator[list[int]]:
    """Signature-based refinement from a single block, round by round: each
    round splits every block by its states' sets of moves (label, target
    block), with block numbers in order of first state.  The last table
    yielded is stable: it is :func:`polymin.strong_partition`'s."""
    return _rounds(len(l), lambda i, block: frozenset((lab, block[t]) for lab, t in l[i]))


def quotient_succ_by_pairs(p: PosetModel, part: Partition) -> tuple[tuple[int, ...], ...]:
    """The quotient relation read from every order pair: class a reaches
    class b when a member of a lies below a member of b."""
    cls = part.block
    succ: list[set[int]] = [set() for _ in range(len(part))]
    for w, targets in enumerate(p.succ):
        succ[cls[w]].update(map(cls.__getitem__, targets))
    return tuple(tuple(sorted(s)) for s in succ)


# -- the round log, kept as the reference for the split tree's witnesses --------

def valuation_split(valuations: list[frozenset[str]]) -> list[int]:
    """The block table of equal valuations, numbered in order of first state,
    from which the abstract route's refinement starts."""
    first: dict[frozenset[str], int] = {}
    return [first.setdefault(v, len(first)) for v in valuations]


def differences_by_entry(own: frozenset, others: list[frozenset]) -> list[tuple]:
    """The signature entries on which ``own`` disagrees with some of
    ``others``, entry by entry: the reference for ``minimize._differences``."""
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
        split = valuation_split(self.valuations)
        rounds = (block for block, _ in bisim.refine(split, (self.step, self.down)))
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
                stack += [(r - 1, t, None) for _, t in differences_by_entry(own, siblings)]
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
        literals = {e: self.literal(k, s, e, e in own) for e in differences_by_entry(own, others)}
        chosen = []
        for e in sorted(literals, key=lambda e: (literals[e].size, e)):
            rest = [o for o in others if (e in own) == (e in o)]
            if len(rest) < len(others):
                chosen.append(literals[e])
                others = rest
        return chosen


def round_log_witness(log: _RoundLog, p: PosetModel, a: str, b: str) -> Formula | None:
    """:func:`polymin.distinguishing_formula` of two same-valuation cells,
    read from the round log: one signature entry that differs between their
    components in the first round that splits them."""
    x, y = log.components.block[p.index_of(a)], log.components.block[p.index_of(b)]
    for k, block in enumerate(log.rounds):
        if block[x] != block[y]:
            [witness] = log.separate(k - 1, x, [log.signature(k - 1, y)])
            return witness
    return None


# -- the checker's name-based set evaluator, kept as its reference ------------

def _reach_within(
    model: ReflexiveKripkeModel, allowed: frozenset[str], sources: frozenset[str]
) -> frozenset[str]:
    """Elements of ``allowed`` connected to ``sources`` through undirected
    steps that never leave ``allowed``.  ``sources`` must be a subset of
    ``allowed``."""
    seen = set(sources)
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for u in neighbours(model, v):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return frozenset(seen)


def _down_sources(
    model: ReflexiveKripkeModel, allowed: frozenset[str], targets: frozenset[str]
) -> frozenset[str]:
    """Elements of ``allowed`` with an accessibility predecessor in
    ``targets``: from such an element one final downward step reaches a
    target."""
    return frozenset(
        v for v in allowed if any(t in targets for t in down(model, v))
    )


def _eval(
    model: ReflexiveKripkeModel,
    f: Formula,
    memo: dict[Formula, frozenset[str]],
    strict_atoms: bool,
) -> frozenset[str]:
    hit = memo.get(f)
    if hit is not None:
        return hit
    everything = frozenset(model.elements)
    match f:
        case Top():
            result = everything
        case Atom(name):
            if strict_atoms and name not in model.atoms:
                raise UnknownAtomError(f"atom {name!r} is not declared by the model")
            result = atom_extension(model, name)
        case Not(g):
            result = everything - _eval(model, g, memo, strict_atoms)
        case And(a, b):
            result = _eval(model, a, memo, strict_atoms) & _eval(model, b, memo, strict_atoms)
        case Or(a, b):
            result = _eval(model, a, memo, strict_atoms) | _eval(model, b, memo, strict_atoms)
        case Eta(a, b):
            cond = _eval(model, a, memo, strict_atoms)
            target = _eval(model, b, memo, strict_atoms)
            pre = _down_sources(model, cond, target)
            result = _reach_within(model, cond, pre)
        case Gamma(a, b):
            cond = _eval(model, a, memo, strict_atoms)
            target = _eval(model, b, memo, strict_atoms)
            pre = _down_sources(model, cond, target)
            reach = _reach_within(model, cond, pre)
            result = frozenset(
                w for w in model.elements if any(u in reach for u in model.successors(w))
            )
        case Diamond(g):
            inner = _eval(model, g, memo, strict_atoms)
            result = frozenset(
                w for w in model.elements if any(u in inner for u in model.successors(w))
            )
        case _:
            raise TypeError(f"not a formula: {f!r}")
    memo[f] = result
    return result



def check_script_by_names(model: ReflexiveKripkeModel, script, strict_atoms: bool) -> dict:
    """Every save's extension as a set of names, from the evaluator above with
    one memo shared across the saves, as the checker does."""
    memo: dict[Formula, frozenset[str]] = {}
    return {name: _eval(model, f, memo, strict_atoms) for name, f in script.saves.items()}


# -- the path oracle for eta ----------------------------------------------------

class BoundTooSmallError(ValueError):
    """The path-length cap passed to the oracle is below the minimum of 2."""


def sat_eta_path_oracle(model: ReflexiveKripkeModel, f: Formula, bound: int) -> SatSet:
    """Evaluate an eta-pure formula with eta decided by explicit path search.

    For each element a breadth-first enumeration looks for a witnessing
    undirected path of length between 2 and ``bound`` whose first step follows
    the accessibility relation and whose last step follows its converse, with
    every non-final element satisfying the first argument and the final
    element the second.  Completeness needs ``bound >= 2 * len(model)``; this
    evaluator exists to cross-check :func:`sat`, not to be fast.
    """
    if bound < 2:
        raise BoundTooSmallError(f"bound must be at least 2, got {bound}")
    if not is_eta_pure(f):
        raise EtaPurityError("the path oracle only evaluates eta-pure formulas")
    names = _oracle_eval(model, f, bound)
    return SatSet(model, frozenset(map(model.index_of, names)), f)


def _oracle_eval(model: ReflexiveKripkeModel, f: Formula, bound: int) -> frozenset[str]:
    everything = frozenset(model.elements)
    match f:
        case Top():
            return everything
        case Atom(name):
            return atom_extension(model, name)
        case Not(g):
            return everything - _oracle_eval(model, g, bound)
        case And(a, b):
            return _oracle_eval(model, a, bound) & _oracle_eval(model, b, bound)
        case Or(a, b):
            return _oracle_eval(model, a, bound) | _oracle_eval(model, b, bound)
        case Eta(a, b):
            cond = _oracle_eval(model, a, bound)
            target = _oracle_eval(model, b, bound)
            return frozenset(
                w for w in model.elements if _eta_path_exists(model, w, cond, target, bound)
            )
    raise TypeError(f"unexpected node in eta-pure formula: {f!r}")


def _eta_path_exists(
    model: ReflexiveKripkeModel,
    start: str,
    cond: frozenset[str],
    target: frozenset[str],
    bound: int,
) -> bool:
    """Path positions 0..k hold non-final elements (all in ``cond``); a final
    downward step from position k >= 1 must land in ``target``."""
    if start not in cond:
        return False
    frontier = {u for u in model.successors(start) if u in cond}
    visited = set(frontier)
    for _ in range(1, bound):  # positions 1 .. bound-1
        if not frontier:
            return False
        for u in frontier:
            if any(t in target for t in down(model, u)):
                return True
        frontier = {
            v
            for u in frontier
            for v in neighbours(model, u)
            if v in cond and v not in visited
        }
        visited |= frontier
    return False


# -- eta elimination ---------------------------------------------------------

def encode_eta_to_gamma(f: Formula) -> Formula:
    """Rewrite an eta-pure formula into one using gamma instead of eta.

    ``eta(a, b)`` becomes ``a' & gamma(a', b')`` where the primes are the
    rewritten arguments; all other connectives map through unchanged.  The two
    forms have the same extension on every model.
    """
    match f:
        case Top() | Atom():
            return f
        case Not(g):
            return Not(encode_eta_to_gamma(g))
        case And(a, b):
            return And(encode_eta_to_gamma(a), encode_eta_to_gamma(b))
        case Or(a, b):
            return Or(encode_eta_to_gamma(a), encode_eta_to_gamma(b))
        case Eta(a, b):
            ea = encode_eta_to_gamma(a)
            return And(ea, Gamma(ea, encode_eta_to_gamma(b)))
        case Gamma() | Diamond():
            raise EtaPurityError("input must be eta-pure (no gamma or diamond nodes)")
    raise TypeError(f"not a formula: {f!r}")


# -- random formulas ----------------------------------------------------------

def random_formula(seed: int, max_depth: int, atoms: list[str]) -> Formula:
    """Deterministic random eta-pure formula of depth at most ``max_depth``."""
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    if not atoms:
        raise ValueError("atom universe must not be empty")
    rng = random.Random(seed)
    universe = sorted(atoms)

    def leaf() -> Formula:
        if rng.random() < 0.08:
            return TOP
        return Atom(rng.choice(universe))

    def build(depth: int) -> Formula:
        if depth <= 0:
            return leaf()
        roll = rng.random()
        if roll < 0.25:
            return leaf()
        if roll < 0.40:
            return Not(build(depth - 1))
        if roll < 0.60:
            return And(build(depth - 1), build(depth - 1))
        if roll < 0.75:
            return Or(build(depth - 1), build(depth - 1))
        return Eta(build(depth - 1), build(depth - 1))

    return build(max_depth)


# -- deep formulas --------------------------------------------------------------
# Built with the constructors, past the parser's MAX_DEPTH.  Compare and hash
# them freely (both are identity), but never repr them, since that recurses
# once per level, nor print the shared chain, whose tree is astronomically large.

def not_chain(depth: int, bottom: Formula) -> Formula:
    """``bottom`` under ``depth`` negations: ``depth`` + 1 nested levels."""
    for _ in range(depth):
        bottom = Not(bottom)
    return bottom


def shared_and_chain(length: int, atom: str) -> Formula:
    """``length`` levels of ``f & f`` over one atom, each level one node that
    uses the one below twice: ``length`` + 1 distinct nodes, 2**(length + 1) - 1
    tree nodes."""
    f: Formula = Atom(atom)
    for _ in range(length):
        f = And(f, f)
    return f
