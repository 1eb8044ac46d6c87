"""Finite reflexive Kripke models.

A model is a finite set of elements, a reflexive accessibility relation and a
valuation assigning a set of atoms to every element.  Cell posets are a
special case (see :mod:`polymin.simplicial`): their successor and predecessor
tables here are the up-sets and down-sets of the order, and no other copy of
the order is kept.  Quotients produced by minimisation are generally not
posets but are always reflexive Kripke models, so the checker is written
against this class.

Elements are numbered 0..n-1 in construction order.  The relation is stored
once, as tables of sorted element numbers (``succ``, ``pred``) that the checker
and the encodings read; the name accessors translate on each call.

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

    __slots__ = ("elements", "atoms", "_index", "valuations", "succ", "pred", "_pairs")

    def __init__(
        self,
        elements: Iterable[str],
        relation: Iterable[tuple[str, str]],
        valuation: Mapping[str, Iterable[str]],
        atoms: Iterable[str] | None = None,
    ):
        self._number(elements)
        succ: list[set[int]] = [set() for _ in self.elements]
        for a, b in relation:
            ia, ib = self._index.get(a), self._index.get(b)
            if ia is None or ib is None:
                raise ValueError(f"relation pair ({a!r}, {b!r}) mentions an unknown element")
            succ[ia].add(ib)
        self._fill([sorted(s) for s in succ], [valuation.get(w, ()) for w in self.elements], atoms)

    @classmethod
    def _from_successors(cls, elements, succ, valuations, atoms) -> "ReflexiveKripkeModel":
        """A model from sorted successor lists and valuations, by number."""
        model = cls.__new__(cls)
        model._number(elements)
        model._fill(succ, valuations, atoms)
        return model

    def _number(self, elements: Iterable[str]) -> None:
        self.elements: tuple[str, ...] = tuple(elements)
        self._index = {w: i for i, w in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate element names")

    def _fill(self, succ, valuations, atoms) -> None:
        # Sources in number order leave every predecessor list sorted.
        pred: list[list[int]] = [[] for _ in succ]
        for i, targets in enumerate(succ):
            if i not in targets:
                w = self.elements[i]
                raise ValueError(f"accessibility relation must be reflexive; missing ({w!r}, {w!r})")
            for j in targets:
                pred[j].append(i)
        self.succ: tuple[tuple[int, ...], ...] = tuple(map(tuple, succ))
        self.pred: tuple[tuple[int, ...], ...] = tuple(map(tuple, pred))
        self._pairs: frozenset[int] | None = None
        # Equal atom sets share one object.
        canonical: dict[frozenset[str], frozenset[str]] = {}
        self.valuations = tuple(canonical.setdefault(v, v) for v in map(frozenset, valuations))
        self.atoms = tuple(sorted(set().union(*canonical)) if atoms is None else atoms)

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

    def names(self, numbers: Iterable[int]) -> tuple[str, ...]:
        """The names of the given element numbers, in the given order."""
        return tuple(map(self.elements.__getitem__, numbers))

    def valuation_of(self, w: str) -> frozenset[str]:
        return self.valuations[self.index_of(w)]

    def atom_extension(self, atom: str) -> frozenset[str]:
        """All elements whose valuation contains ``atom``."""
        return frozenset(w for w, v in zip(self.elements, self.valuations) if atom in v)

    def successors(self, w: str) -> tuple[str, ...]:
        """Elements reachable in one accessibility step from ``w``."""
        return self.names(self.succ[self.index_of(w)])

    def predecessors(self, w: str) -> tuple[str, ...]:
        return self.names(self.pred[self.index_of(w)])

    def undirected_neighbours(self, w: str) -> tuple[str, ...]:
        """Neighbours of ``w`` in either direction of the relation."""
        i = self.index_of(w)
        return self.names(sorted(set(self.succ[i]).union(self.pred[i])))

    def related(self, a: str, b: str) -> bool:
        """Constant time, from the set of related number pairs ``i * n + j``
        that the first call builds."""
        i, j, n = self.index_of(a), self.index_of(b), len(self.elements)
        if self._pairs is None:
            self._pairs = frozenset(s * n + t for s, ts in enumerate(self.succ) for t in ts)
        return i * n + j in self._pairs

    def relation_pairs(self) -> frozenset[tuple[str, str]]:
        names = self.elements
        return frozenset((names[a], names[b]) for a, bs in enumerate(self.succ) for b in bs)

    def sorted_elements(self, members: Iterable[str]) -> list[str]:
        """Sort a subset of elements into canonical (construction) order."""
        return sorted(members, key=self.index_of)
