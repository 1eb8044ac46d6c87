"""Finite reflexive Kripke models.

A model is a finite set of elements, a reflexive accessibility relation and a
valuation assigning a set of atoms to every element.  Cell posets are a
special case (see :mod:`polymin.simplicial`): their successor and predecessor
tables here are the up-sets and down-sets of the order, read from faces the
loader has checked, and a poset stores them as built.  Quotients produced by
minimisation are generally not posets but are always reflexive Kripke models,
so the checker is written against this class, whose constructor derives
``pred`` from ``succ`` and checks reflexivity and that each table has one
row per element, with successors in range.

Elements are numbered 0..n-1 in construction order.  The relation is stored
once, as tables of sorted element numbers (``succ``, ``pred``) that the checker
and the encodings read; the name accessors translate on each call.

Models are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError


class UnknownElementError(InputError):
    """An element name that does not occur in the model."""


class ReflexiveKripkeModel:
    """Finite Kripke model whose accessibility relation is reflexive.

    ``elements`` keeps its construction order; that order is the canonical
    output order everywhere (result vectors, partitions, exports).  The
    model is built by number: ``succ[i]`` lists the successors of element i
    in ascending order and ``valuations[i]`` its atoms; ``atoms`` lists the
    atoms the model declares.
    """

    __slots__ = ("elements", "atoms", "_index", "valuations", "succ", "pred", "__weakref__")

    # Whether ``succ`` and ``pred`` are transitively closed, each row a whole
    # up-set or down-set: a fact of the type, not of one model, which lets
    # the checker's reach walk step from each found element one way only.
    transitive = False

    def __init__(
        self,
        elements: Iterable[str],
        succ: Iterable[Iterable[int]],
        valuations: Iterable[Iterable[str]],
        atoms: Iterable[str],
    ):
        self.elements: tuple[str, ...] = tuple(elements)
        self._index = {w: i for i, w in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate element names")
        n = len(self.elements)
        succ = tuple(map(tuple, succ))
        if len(succ) != n:
            raise ValueError(f"succ has {len(succ)} rows for {n} elements")
        # Sources in number order leave every predecessor list sorted.
        pred: list[list[int]] = [[] for _ in succ]
        for i, targets in enumerate(succ):
            w = self.elements[i]
            if i not in targets:
                raise ValueError(f"accessibility relation must be reflexive; missing ({w!r}, {w!r})")
            if min(targets) < 0 or max(targets) >= n:
                raise ValueError(f"successors of {w!r} leave 0..{n - 1}: {list(targets)}")
            for j in targets:
                pred[j].append(i)
        self.succ: tuple[tuple[int, ...], ...] = succ
        self.pred: tuple[tuple[int, ...], ...] = tuple(map(tuple, pred))
        # Equal atom sets share one object.
        canonical: dict[frozenset[str], frozenset[str]] = {}
        self.valuations = tuple(canonical.setdefault(v, v) for v in map(frozenset, valuations))
        if len(self.valuations) != n:
            raise ValueError(f"valuations has {len(self.valuations)} rows for {n} elements")
        self.atoms = tuple(atoms)

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, w: str) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise UnknownElementError(f"unknown element {w!r}") from None

    def names(self, numbers: Iterable[int]) -> tuple[str, ...]:
        """The names of the given element numbers, in the given order."""
        return tuple(map(self.elements.__getitem__, numbers))

    def valuation_of(self, w: str) -> frozenset[str]:
        return self.valuations[self.index_of(w)]

    def successors(self, w: str) -> tuple[str, ...]:
        """Elements reachable in one accessibility step from ``w``."""
        return self.names(self.succ[self.index_of(w)])

    def sorted_elements(self, members: Iterable[str]) -> list[str]:
        """Sort a subset of elements into canonical (construction) order."""
        return sorted(members, key=self.index_of)
