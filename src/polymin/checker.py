"""Global model checking on finite reflexive Kripke models.

Every operator is evaluated set-wise over the whole model, on sets of element
numbers, and a :class:`SatSet` keeps those numbers; element names are made
only when its ``members`` are read.  The reach operators are computed with
linear breadth-first traversals over the model's successor and predecessor
tables.

On a cell poset those tables are whole up-sets and down-sets, so the order
is transitively closed (``model.transitive``), and the walk steps from each
cell it finds one way only.  A cell y found by a downward step from x has
its down-set inside x's, all of which that step took in; only an upward
step from y can find more.  Likewise a cell found upward needs only a
downward step, and the walk's seeds, the ``cond`` cells above a target,
were found upward.  A quotient's relation need not be transitive, so there
each found cell is walked both ways.

``gamma(a, b)`` holds exactly at and below the elements where ``eta(a, b)``
holds: it is the down-image of that extension.  The checker evaluates the
hash-consed node ``Eta(a, b)`` before each ``Gamma(a, b)`` and reads it as
the gamma's operand, so a script with both walks once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Iterator

from .errors import InputError
from .kripke import ReflexiveKripkeModel
from .logic import (
    And, Atom, Diamond, Eta, Formula, Gamma, Not, Or, Script, Top, postorder,
)

__all__ = ["SatSet", "UnknownAtomError", "sat", "check_script"]


class UnknownAtomError(InputError):
    """Raised in strict mode for atoms the model does not declare."""


@dataclass(frozen=True)
class SatSet:
    """The extension of a formula in a model, as the element numbers of
    ``model`` that satisfy it."""

    model: ReflexiveKripkeModel
    numbers: frozenset[int]
    formula: Formula

    @cached_property
    def members(self) -> frozenset[str]:
        """The names of the satisfying elements, made on first read."""
        return frozenset(self.model.names(self.numbers))

    def __contains__(self, element: str) -> bool:
        return element in self.members

    def to_bools(self, model: ReflexiveKripkeModel) -> list[bool]:
        """Membership vector in ``model``'s canonical element order."""
        if model is not self.model:  # another model is matched by name
            return [w in self.members for w in model.elements]
        vector = [False] * len(model)
        for i in self.numbers:
            vector[i] = True
        return vector


def _image(table: tuple[tuple[int, ...], ...], xs) -> Iterator[int]:
    """Every entry of ``table`` at the numbers ``xs``, with repeats."""
    return chain.from_iterable(map(table.__getitem__, xs))


def _reach(
    model: ReflexiveKripkeModel, cond: frozenset[int], target: frozenset[int]
) -> frozenset[int]:
    """Elements of ``cond`` joined, by undirected steps that never leave
    ``cond``, to an element of ``cond`` with an accessibility predecessor in
    ``target``: from there one final downward step reaches a target.

    ``down`` holds the elements to step down from next and ``up`` those to
    step up from.  With transitive tables an element found upward goes only
    to ``down`` and one found downward only to ``up`` (see the module
    notes); otherwise every found element goes to both."""
    succ, pred, one_way = model.succ, model.pred, model.transitive
    down = cond.intersection(_image(succ, target))  # the seeds, found upward
    up = () if one_way else down
    rest = set(cond)
    rest.difference_update(down)
    while rest and (up or down):
        below = rest.intersection(_image(pred, down))
        rest.difference_update(below)
        above = rest.intersection(_image(succ, up))
        rest.difference_update(above)
        if one_way:
            up, down = below, above
        else:
            up = down = below | above
    return cond - rest


def _operands(f: Formula) -> tuple[Formula, ...]:
    """The nodes whose extensions ``f``'s is made from: its operands, but for
    ``Gamma(a, b)`` the node ``Eta(a, b)``, whose down-image it is."""
    return (Eta(*f.operands),) if type(f) is Gamma else f.operands


def _extensions(
    model: ReflexiveKripkeModel, roots: Iterable[Formula], strict_atoms: bool
) -> list[frozenset[int]]:
    """The extension of each root as element numbers, in root order.

    One walk lists every distinct node of the roots after its operands, from
    :func:`postorder`, with ``Eta(a, b)`` listed before each ``Gamma(a, b)``
    as the gamma's one operand (:func:`_operands`), and notes each node's
    last reader: the last node in that list with it as an operand, where its
    count of uses to come falls to zero.  The nodes are then evaluated in
    that order, without recursion, at any depth, each once, and each
    extension but a root's is dropped once its last reader has read it.
    ``TOP`` and atom extensions hold the model's own number objects."""
    roots = tuple(roots)
    nodes: dict[Formula, None] = {}
    for f in roots:
        for g in postorder(f, nodes):
            if type(g) is Gamma:
                nodes[Eta(*g.operands)] = None  # kept in place if already listed
            nodes[g] = None
    last = {h: f for f in nodes for h in _operands(f)}
    last.update(dict.fromkeys(roots))  # a root is kept to the end
    numbers = model._index.values()
    everything = frozenset(numbers)
    distinct = set(model.valuations)
    memo: dict[Formula, frozenset[int]] = {}
    for f in nodes:
        match f:
            case Top():
                result = everything
            case Atom(name):
                if strict_atoms and name not in model.atoms:
                    raise UnknownAtomError(f"atom {name!r} is not declared by the model")
                holds = {v: name in v for v in distinct}
                result = frozenset(compress(numbers, map(holds.__getitem__, model.valuations)))
            case Not(g):
                result = everything - memo[g]
            case And(a, b):
                result = memo[a] & memo[b]
            case Or(a, b):
                result = memo[a] | memo[b]
            case Eta(a, b):
                result = _reach(model, memo[a], memo[b])
            case Gamma(a, b):
                result = frozenset(_image(model.pred, memo[Eta(a, b)]))
            case Diamond(g):
                result = frozenset(_image(model.pred, memo[g]))
        memo[f] = result
        for g in _operands(f):
            if last[g] is f:
                memo.pop(g, None)  # None: both operands of f are g
    return [memo[f] for f in roots]


def sat(model: ReflexiveKripkeModel, f: Formula, strict_atoms: bool = False) -> SatSet:
    """Exact extension of ``f`` in ``model``.

    Unknown atoms evaluate to the empty set unless ``strict_atoms`` is set,
    in which case they raise :class:`UnknownAtomError`.  Runs in
    O(subformulas * (elements + relation)).
    """
    return SatSet(model, _extensions(model, (f,), strict_atoms)[0], f)


def check_script(
    model: ReflexiveKripkeModel, script: Script, strict_atoms: bool = False
) -> dict[str, SatSet]:
    """Evaluate every save directive; a subformula shared by saves or
    parents is evaluated once, and its extension kept until its last use."""
    extensions = _extensions(model, script.saves.values(), strict_atoms)
    return {
        name: SatSet(model, numbers, f)
        for (name, f), numbers in zip(script.saves.items(), extensions)
    }
