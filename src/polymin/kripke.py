"""Finite reflexive Kripke models.

A model is a finite set of elements, a reflexive accessibility relation and a
valuation assigning a set of atoms to every element.  Cell posets are a
special case (see :mod:`polymin.simplicial`): their successor and predecessor
tables here are the up-sets and down-sets of the order, and no other copy of
the order is kept.  Quotients produced by minimisation are generally not
posets but are always reflexive Kripke models, so the checker is written
against this class.

Models are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import InputError


class UnknownElementError(InputError):
    """An element name that does not occur in the model."""


class ReflexiveKripkeModel:
    """Finite Kripke model whose accessibility relation is reflexive.

    ``elements`` keeps its construction order; that order is the canonical
    output order everywhere (result vectors, partitions, exports).
    """

    __slots__ = ("elements", "atoms", "_index", "_valuation", "_succ", "_pred", "_undirected")

    def __init__(
        self,
        elements: Iterable[str],
        relation: Iterable[tuple[str, str]],
        valuation: Mapping[str, Iterable[str]],
        atoms: Iterable[str] | None = None,
    ):
        self.elements: tuple[str, ...] = tuple(elements)
        self._index = {w: i for i, w in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate element names")

        succ: dict[str, set[str]] = {w: set() for w in self.elements}
        pred: dict[str, set[str]] = {w: set() for w in self.elements}
        for a, b in relation:
            if a not in self._index or b not in self._index:
                raise ValueError(f"relation pair ({a!r}, {b!r}) mentions an unknown element")
            succ[a].add(b)
            pred[b].add(a)
        for w in self.elements:
            if w not in succ[w]:
                raise ValueError(f"accessibility relation must be reflexive; missing ({w!r}, {w!r})")

        order = self._index
        self._succ = {w: tuple(sorted(succ[w], key=order.__getitem__)) for w in self.elements}
        self._pred = {w: tuple(sorted(pred[w], key=order.__getitem__)) for w in self.elements}
        self._undirected = {
            w: tuple(sorted(set(succ[w]) | set(pred[w]), key=order.__getitem__))
            for w in self.elements
        }

        self._valuation = {w: frozenset(valuation.get(w, ())) for w in self.elements}
        if atoms is None:
            seen: set[str] = set()
            for w in self.elements:
                seen |= self._valuation[w]
            self.atoms = tuple(sorted(seen))
        else:
            self.atoms = tuple(atoms)

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, w: str) -> bool:
        return w in self._index

    def index_of(self, w: str) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise UnknownElementError(f"unknown element {w!r}") from None

    def valuation_of(self, w: str) -> frozenset[str]:
        self.index_of(w)
        return self._valuation[w]

    def atom_extension(self, atom: str) -> frozenset[str]:
        """All elements whose valuation contains ``atom``."""
        return frozenset(w for w in self.elements if atom in self._valuation[w])

    def successors(self, w: str) -> tuple[str, ...]:
        """Elements reachable in one accessibility step from ``w``."""
        self.index_of(w)
        return self._succ[w]

    def predecessors(self, w: str) -> tuple[str, ...]:
        self.index_of(w)
        return self._pred[w]

    def undirected_neighbours(self, w: str) -> tuple[str, ...]:
        """Neighbours of ``w`` in either direction of the relation."""
        self.index_of(w)
        return self._undirected[w]

    def related(self, a: str, b: str) -> bool:
        self.index_of(a)
        self.index_of(b)
        return b in self._succ[a]

    def relation_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for a in self.elements for b in self._succ[a])

    def sorted_elements(self, members: Iterable[str]) -> list[str]:
        """Sort a subset of elements into canonical (construction) order."""
        return sorted(members, key=self.index_of)
