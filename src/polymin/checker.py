"""Global model checking on finite reflexive Kripke models.

Every operator is evaluated set-wise over the whole model.  The reach
operators are computed with linear breadth-first traversals; an explicit
bounded path-enumeration evaluator is provided as an independent test oracle
for the eta operator.
"""

from __future__ import annotations

from collections import deque

from .errors import InputError
from .kripke import ReflexiveKripkeModel
from .logic import (
    And, Atom, Diamond, Eta, EtaPurityError, Formula, Gamma, Not, Or, Script, Top,
    is_eta_pure,
)

__all__ = [
    "SatSet", "UnknownAtomError", "BoundTooSmallError",
    "sat", "sat_eta_path_oracle", "check_script",
]

from dataclasses import dataclass


class UnknownAtomError(InputError):
    """Raised in strict mode for atoms the model does not declare."""


class BoundTooSmallError(ValueError):
    """The path-length cap passed to the oracle is below the minimum of 2."""


@dataclass(frozen=True)
class SatSet:
    """The extension of a formula in a model."""

    members: frozenset[str]
    formula: Formula

    def __contains__(self, element: str) -> bool:
        return element in self.members

    def to_bools(self, model: ReflexiveKripkeModel) -> list[bool]:
        """Membership vector in the model's canonical element order."""
        return [w in self.members for w in model.elements]


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
        for u in model.undirected_neighbours(v):
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
        v for v in allowed if any(t in targets for t in model.predecessors(v))
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
            result = model.atom_extension(name)
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


def sat(model: ReflexiveKripkeModel, f: Formula, strict_atoms: bool = False) -> SatSet:
    """Exact extension of ``f`` in ``model``.

    Unknown atoms evaluate to the empty set unless ``strict_atoms`` is set,
    in which case they raise :class:`UnknownAtomError`.  Runs in
    O(subformulas * (elements + relation)).
    """
    return SatSet(_eval(model, f, {}, strict_atoms), f)


def check_script(
    model: ReflexiveKripkeModel, script: Script, strict_atoms: bool = False
) -> dict[str, SatSet]:
    """Evaluate every save directive; shared subformulas are memoised."""
    memo: dict[Formula, frozenset[str]] = {}
    return {
        name: SatSet(_eval(model, f, memo, strict_atoms), f)
        for name, f in script.saves.items()
    }


# -- independent oracle -------------------------------------------------------

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
    return SatSet(_oracle_eval(model, f, bound), f)


def _oracle_eval(model: ReflexiveKripkeModel, f: Formula, bound: int) -> frozenset[str]:
    everything = frozenset(model.elements)
    match f:
        case Top():
            return everything
        case Atom(name):
            return model.atom_extension(name)
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
            if any(t in target for t in model.predecessors(u)):
                return True
        frontier = {
            v
            for u in frontier
            for v in model.undirected_neighbours(u)
            if v in cond and v not in visited
        }
        visited |= frontier
    return False
