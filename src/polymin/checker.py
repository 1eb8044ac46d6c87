"""Global model checking on finite reflexive Kripke models.

Every operator is evaluated set-wise over the whole model, on sets of element
numbers, and a :class:`SatSet` keeps those numbers; element names are made
only when its ``members`` are read.  The reach operators are computed with
linear breadth-first traversals over the model's successor and predecessor
tables.
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
    ``target``: from there one final downward step reaches a target."""
    succ, pred = model.succ, model.pred
    frontier = cond.intersection(_image(succ, target))
    rest = set(cond)
    rest.difference_update(frontier)
    while frontier and rest:
        frontier = rest.intersection(chain(_image(succ, frontier), _image(pred, frontier)))
        rest.difference_update(frontier)
    return cond - rest


def _extensions(
    model: ReflexiveKripkeModel, roots: Iterable[Formula], strict_atoms: bool
) -> list[frozenset[int]]:
    """The extension of each root as element numbers, in root order.

    One walk lists every distinct node of the roots after its operands, from
    :func:`postorder`, and notes each node's last reader: the last node in
    that list with it as an operand, where its count of uses to come falls
    to zero.  The nodes are then evaluated in that order, without
    recursion, at any depth, each once, and each extension but a root's is
    dropped once its last reader has read it.  ``TOP`` and atom extensions
    hold the model's own number objects."""
    roots = tuple(roots)
    nodes: dict[Formula, None] = {}
    for f in roots:
        nodes.update(dict.fromkeys(postorder(f, nodes)))
    last = {h: f for f in nodes for h in f.operands}
    last.update(dict.fromkeys(roots))  # a root is kept to the end
    numbers = model._index.values()
    everything = frozenset(numbers)
    memo: dict[Formula, frozenset[int]] = {}
    for f in nodes:
        match f:
            case Top():
                result = everything
            case Atom(name):
                if strict_atoms and name not in model.atoms:
                    raise UnknownAtomError(f"atom {name!r} is not declared by the model")
                result = frozenset(compress(numbers, [name in v for v in model.valuations]))
            case Not(g):
                result = everything - memo[g]
            case And(a, b):
                result = memo[a] & memo[b]
            case Or(a, b):
                result = memo[a] | memo[b]
            case Eta(a, b):
                result = _reach(model, memo[a], memo[b])
            case Gamma(a, b):
                result = frozenset(_image(model.pred, _reach(model, memo[a], memo[b])))
            case Diamond(g):
                result = frozenset(_image(model.pred, memo[g]))
        memo[f] = result
        for g in f.operands:
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
