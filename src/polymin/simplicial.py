"""Abstract simplicial complexes and their cell posets.

A model is stored as a set of cells (non-empty vertex sets, closed under
taking faces) together with a per-cell set of atoms.  Its discrete carrier is
the *cell poset*: one node per cell, ordered by vertex-set inclusion.  Vertex
coordinates, when present in the input, are carried along untouched; nothing
here is geometric.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from array import array
from itertools import chain, combinations
from typing import Iterable, Mapping

from .errors import InputError
from .kripke import ReflexiveKripkeModel, UnknownElementError

__all__ = [
    "SimplicialModel",
    "PosetModel",
    "ModelFormatError",
    "MissingFaceError",
    "UnknownVertexError",
    "MissingValuationError",
    "UnknownElementError",
    "cell_name",
    "load_simplicial_model",
    "cell_poset",
    "random_model",
    "model_to_document",
]


class ModelFormatError(InputError):
    """The model document is not valid JSON or violates the schema."""


class MissingFaceError(InputError):
    """A listed cell has a face that is not itself listed."""


class UnknownVertexError(InputError):
    """A cell uses a vertex that is not declared."""


class MissingValuationError(InputError):
    """A cell entry carries no atom list."""


def cell_name(vertices: Iterable[str]) -> str:
    """Canonical cell name: sorted vertex identifiers joined by ``-``."""
    return "-".join(sorted(str(v) for v in vertices))


@dataclass(frozen=True)
class SimplicialModel:
    """An abstract simplicial complex with a per-cell valuation.

    ``cells`` keeps the input order, which downstream stages treat as the
    canonical cell order.  Each cell is a sorted tuple of vertex names and
    ``valuation`` maps the canonical cell name to its atom set.  Validation
    numbers the cells in that order and keeps the covering pairs (face,
    cell) by number for :func:`cell_poset`.
    """

    vertices: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    valuation: dict[str, frozenset[str]]
    atoms: tuple[str, ...]
    geometry: dict[str, tuple[float, ...]] | None = field(default=None)
    _covers: array = field(init=False, repr=False, compare=False)

    def cell_names(self) -> list[str]:
        return ["-".join(c) for c in self.cells]

    def __post_init__(self):
        object.__setattr__(self, "_covers", _validate(self))


def _validate(m: SimplicialModel) -> array:
    """Check the model and return its covering pairs as a flat array of cell
    numbers: face, cell, face, cell, ..."""
    for v in m.vertices:
        if not v or "-" in v:
            raise ModelFormatError(
                f"vertex name {v!r} is empty or contains '-', which joins cell names"
            )
    declared = set(m.vertices)
    number: dict[str, int] = {}
    for cell in m.cells:
        if not cell:
            raise ModelFormatError("cells must have at least one vertex")
        name = "-".join(cell)
        if not declared.issuperset(cell):
            v = next(v for v in cell if v not in declared)
            raise UnknownVertexError(f"cell {name!r} uses undeclared vertex {v!r}")
        if len(set(cell)) < len(cell):
            raise ModelFormatError(f"cell {name!r} lists a vertex twice")
        if name in number:
            raise ModelFormatError(f"duplicate cell {name!r}")
        number[name] = len(number)
        if name not in m.valuation:
            raise MissingValuationError(f"cell {name!r} has no valuation entry")
    # Face closure: checking the one-vertex-removed faces of every cell covers
    # all smaller faces by induction.  Those faces are exactly its covers.
    covers = array("i")
    for high, cell in enumerate(m.cells):
        if len(cell) < 2:
            continue
        for face in combinations(cell, len(cell) - 1):
            low = number.get("-".join(face))
            if low is None:
                raise MissingFaceError(
                    f"cell {'-'.join(cell)!r} requires face {'-'.join(face)!r}, "
                    "which is not listed"
                )
            covers.append(low)
            covers.append(high)
    return covers


def load_simplicial_model(document: bytes | str) -> SimplicialModel:
    """Parse and validate a JSON model document.

    Schema::

        { "atoms": ["red", "blue"],
          "cells": [ { "vertices": ["D"], "atoms": ["red"] }, ... ],
          "vertices": ["D", "E"],          // optional; derived if absent
          "geometry": { "D": [0.0, 0.0] }  // optional pass-through
        }

    Cell order in the file is the canonical result order.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"could not parse model document: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise ModelFormatError("model document must list at least one cell")

    atoms = dict.fromkeys(_strings(doc.get("atoms", []), "atoms"))
    declared_vertices = doc.get("vertices")
    derive = declared_vertices is None
    vertices = dict.fromkeys(() if derive else _strings(declared_vertices, "vertices"))
    cells: list[tuple[str, ...]] = []
    valuation: dict[str, frozenset[str]] = {}
    for entry in raw_cells:
        if not isinstance(entry, dict) or "vertices" not in entry:
            raise ModelFormatError(f"malformed cell entry: {entry!r}")
        vs = _strings(entry["vertices"], "cell vertices")
        if not vs:
            raise ModelFormatError("cells must have at least one vertex")
        cell = tuple(sorted(vs))
        name = "-".join(cell)
        if "atoms" not in entry:
            raise MissingValuationError(f"cell {name!r} has no atom list")
        if derive:
            vertices.update(dict.fromkeys(vs))
        cells.append(cell)
        valuation[name] = frozenset(_strings(entry["atoms"], "atoms", name))
    # Atoms not declared up front follow in order of first use; a repeated
    # valuation adds none.
    for cell_atoms in dict.fromkeys(valuation.values()):
        atoms.update(dict.fromkeys(sorted(cell_atoms)))

    geometry = doc.get("geometry")
    if geometry is not None:
        if not isinstance(geometry, dict) or not all(
            isinstance(xs, list) and all(_is_number(x) for x in xs) for xs in geometry.values()
        ):
            raise ModelFormatError("geometry must be an object of number lists")
        geometry = {k: tuple(xs) for k, xs in geometry.items()}

    return SimplicialModel(
        vertices=tuple(vertices),
        cells=tuple(cells),
        valuation=valuation,
        atoms=tuple(atoms),
        geometry=geometry,
    )


def _strings(value: object, what: str, cell: str | None = None) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        of = "" if cell is None else f" of cell {cell!r}"
        raise ModelFormatError(f"{what}{of} must be a list of strings")
    return value


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def model_to_document(m: SimplicialModel) -> str:
    """Serialise a model back to its JSON document form (deterministic)."""
    doc = {
        "atoms": list(m.atoms),
        "cells": [
            {"vertices": list(c), "atoms": sorted(m.valuation[cell_name(c)])} for c in m.cells
        ],
    }
    if m.geometry is not None:
        doc["geometry"] = {k: list(v) for k, v in m.geometry.items()}
    return json.dumps(doc, indent=2) + "\n"


class PosetModel(ReflexiveKripkeModel):
    """A finite poset with a valuation, viewed as a reflexive Kripke model.

    The order is given by its covering relation, kept by element number and
    read by name through ``covers``.  Its reflexive-transitive closure is
    computed once and becomes the Kripke accessibility relation, which is the
    only stored copy of the order: ``successors(w)`` is the up-set of ``w``,
    ``predecessors(w)`` its down-set and ``related(a, b)`` holds iff
    ``a <= b``.
    """

    __slots__ = ("_covers",)

    def __init__(
        self,
        elements: Iterable[str],
        covers: Iterable[tuple[str, str]],
        valuation: Mapping[str, Iterable[str]],
        atoms: Iterable[str] | None = None,
    ):
        self._number(elements)
        number = self._index
        pairs = set()
        for low, high in covers:
            if low not in number or high not in number:
                raise ValueError(f"cover ({low!r}, {high!r}) mentions an unknown element")
            pairs.add((number[low], number[high]))
        flat = array("i", chain.from_iterable(pairs))
        self._order(flat, [valuation.get(w, ()) for w in self.elements], atoms)

    @classmethod
    def _from_covers(cls, elements, covers: array, valuations, atoms) -> "PosetModel":
        """A poset from distinct covering pairs given as a flat array of
        element numbers (low, high, low, high, ...)."""
        p = cls.__new__(cls)
        p._number(elements)
        p._order(covers, valuations, atoms)
        return p

    def _order(self, covers: array, valuations, atoms) -> None:
        n = len(self.elements)
        above: list[list[int]] = [[] for _ in range(n)]
        n_below = [0] * n
        pairs = iter(covers)
        for low, high in zip(pairs, pairs):
            if low == high:
                w = self.elements[low]
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
            stuck = self.elements[next(w for w in range(n) if n_below[w])]
            raise ValueError(f"covering relation has a cycle at or below {stuck!r}")
        up: list[tuple[int, ...]] = [()] * n
        for w in reversed(ranked):
            reach = {w}
            for h in above[w]:
                reach.update(up[h])
            up[w] = tuple(sorted(reach))

        self._fill(up, valuations, atoms)
        self._covers = covers

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The covering pairs (low, high), in element order of low, then high."""
        c, names = self._covers, self.elements
        return tuple((names[a], names[b]) for a, b in sorted(zip(c[::2], c[1::2])))


def cell_poset(m: SimplicialModel) -> PosetModel:
    """Build the cell poset of a simplicial model.

    One poset element per cell, named canonically, ordered by vertex-set
    inclusion; element order follows the input cell order so results map back
    to cells by position.
    """
    names = m.cell_names()
    return PosetModel._from_covers(names, m._covers, [m.valuation[w] for w in names], m.atoms)


def random_model(seed: int, n_vertices: int, max_dim: int, n_atoms: int) -> SimplicialModel:
    """Deterministically generate a random valid simplicial model.

    Random maximal faces are drawn and closed under subsets; atoms are
    assigned per cell.  Identical arguments produce identical models.
    """
    if n_vertices < 1:
        raise ValueError("n_vertices must be at least 1")
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    if n_atoms < 0:
        raise ValueError("n_atoms must be non-negative")
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(n_vertices)]
    atoms = [f"p{i}" for i in range(n_atoms)]

    cells: set[tuple[str, ...]] = set()
    for _ in range(rng.randint(1, n_vertices)):
        size = rng.randint(1, min(max_dim + 1, n_vertices))
        face = sorted(rng.sample(vertices, size))
        for k in range(1, len(face) + 1):
            cells.update(combinations(face, k))
    ordered = sorted(cells, key=lambda c: (len(c), c))

    valuation = {
        cell_name(c): frozenset(a for a in atoms if rng.random() < 0.5) for c in ordered
    }
    used = sorted({v for c in ordered for v in c}, key=vertices.index)
    return SimplicialModel(
        vertices=tuple(used),
        cells=tuple(ordered),
        valuation=valuation,
        atoms=tuple(atoms),
    )
