"""Test-only checks and formula helpers that are not part of the shipped package."""

import random
from collections import deque

from polymin.bisim import Partition
from polymin.checker import SatSet, UnknownAtomError
from polymin.kripke import ReflexiveKripkeModel
from polymin.logic import (
    TOP, And, Atom, Diamond, Eta, EtaPurityError, Formula, Gamma, Not, Or, Top, is_eta_pure,
)
from polymin.simplicial import PosetModel


def is_weak_pm_bisimulation(p: PosetModel, part: Partition) -> bool:
    """Check the matching condition for every same-class pair of ``part``."""
    for block in part.classes:
        for w1 in block:
            if p.valuation_of(w1) != p.valuation_of(next(iter(block))):
                return False
            for w2 in block:
                for u1 in p.undirected_neighbours(w1):
                    allowed = block | part.class_members(part.class_of(u1))
                    for d1 in p.predecessors(u1):
                        if not _matching_path(
                            p, w2, allowed, set(part.class_members(part.class_of(d1)))
                        ):
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
        if any(d in targets for d in p.predecessors(v)):
            return True
        for u in p.undirected_neighbours(v):
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return False


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
