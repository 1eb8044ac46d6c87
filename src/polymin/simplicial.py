"""Abstract simplicial complexes and their cell posets.

A model is stored as a set of cells (non-empty vertex sets, closed under
taking faces) together with a per-cell set of atoms.  Its discrete carrier is
the *cell poset*: one node per cell, ordered by face inclusion.  The loader's
face pass, which checks that every face is listed, is the one validation of
that order; the poset is read from the faces and trusts them.  Vertex
coordinates, when present in the input, are carried along untouched.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from array import array
from itertools import combinations

from .errors import EncodingError, InputError
from .jsontext import json_text
from .kripke import ReflexiveKripkeModel, UnknownElementError

__all__ = [
    "SimplicialModel",
    "PosetModel",
    "ModelFormatError",
    "MissingFaceError",
    "UnknownVertexError",
    "MissingValuationError",
    "ModelSizeError",
    "UnknownElementError",
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


class ModelSizeError(InputError):
    """Arguments to :func:`random_model` that describe no model."""


@dataclass(frozen=True)
class SimplicialModel:
    """An abstract simplicial complex with a per-cell valuation.

    Cells are numbered in input order, which downstream stages treat as the
    canonical cell order, and every per-cell table is indexed by that number:
    ``cells[i]`` is a sorted tuple of vertex names and ``valuations[i]`` its
    atom set.  ``_index`` maps each canonical cell name to its number, in
    cell order, and ``_covers`` keeps the covering pairs (face, cell) that
    the face pass found; :func:`cell_poset` reads both.

    :func:`_read_cells`, the one validation routine, builds every model.
    """

    vertices: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    valuations: tuple[frozenset[str], ...]
    atoms: tuple[str, ...]
    geometry: dict[str, tuple[float, ...]] | None
    _index: dict[str, int] = field(repr=False, compare=False)
    _covers: array = field(repr=False, compare=False)


_NO_ATOMS = object()
_VERTEX_TYPE = "cell vertices must be a list of strings"


def _read_cells(
    entries: list, declared: list | None, atoms: list[str], geometry: dict | None
) -> SimplicialModel:
    """Check cells in document form, number them and build the model: the
    one validation routine of a model.

    Each entry is ``{"vertices": [...], "atoms": [...]}``; ``declared`` is
    the vertex list, or ``None`` to take the vertices from the cells in
    order of first appearance.  One pass over the entries type-checks,
    sorts (in place), names and numbers each cell, checks each vertex name
    once and gives equal atom lists one shared frozenset.  A second pass
    over the numbered cells looks up their faces, kept as a flat array of
    cell numbers: face, cell, face, cell, ...  The model's atoms are
    ``atoms`` (checked strings) followed by the undeclared ones in order of
    first use.

    ``entries`` is consumed: each entry is dropped from the list once it has
    been read, so the document shrinks as the model grows.
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
        # As with vertices, only an atom list not seen before is looked at.
        key = tuple(listed)
        try:
            atom_set = shared[key]
        except (KeyError, TypeError):  # new, or holding something unhashable
            if not all(isinstance(a, str) for a in listed):
                raise _atoms_type(name) from None
            atom_set = shared[key] = frozenset(key)
        cells.append(cell)
        valuations.append(atom_set)

    # Face closure: checking the one-vertex-removed faces of every cell covers
    # all smaller faces by induction.  Those faces are exactly its covers.
    covers: list[int] = []
    for high, cell in enumerate(cells):
        k = len(cell)
        if k == 1:
            continue
        # an edge's faces are its vertices, which are named as themselves
        for face in cell if k == 2 else map("-".join, combinations(cell, k - 1)):
            low = number.get(face)
            if low is None:
                raise MissingFaceError(
                    f"cell {'-'.join(cell)!r} requires face {face!r}, which is not listed"
                )
            covers.append(low)
            covers.append(high)

    # A repeated valuation adds no atoms.
    used = dict.fromkeys(atoms)
    for atom_set in dict.fromkeys(shared.values()):
        used.update(dict.fromkeys(sorted(atom_set)))
    return SimplicialModel(tuple(order), tuple(cells), tuple(valuations), tuple(used), geometry,
                           number, array("i", covers))


def _atoms_type(name: str) -> ModelFormatError:
    return ModelFormatError(f"atoms of cell {name!r} must be a list of strings")


def _check_vertex_name(v: str) -> None:
    if not v or "-" in v:
        raise ModelFormatError(
            f"vertex name {v!r} is empty or contains '-', which joins cell names"
        )


def load_simplicial_model(document: bytes | str) -> SimplicialModel:
    """Parse and validate a JSON model document, given as text or as any
    bytes-like value, which is decoded as UTF-8.

    Schema::

        { "atoms": ["red", "blue"],
          "cells": [ { "vertices": ["D"], "atoms": ["red"] }, ... ],
          "vertices": ["D", "E"],          // optional; derived if absent
          "geometry": { "D": [0.0, 0.0] }  // optional pass-through
        }

    Cell order in the file is the canonical result order.  The top-level
    values are checked first; then the cells go once through
    :func:`_read_cells` and are not checked again.  The first fault found is
    raised.
    """
    if isinstance(document, (bytes, bytearray, memoryview)):
        try:
            document = str(document, "utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"model document is not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(document)
    except ValueError as exc:  # a syntax error, or a number too long to convert
        raise ModelFormatError(f"could not parse model document: {exc}") from None
    except RecursionError:
        raise ModelFormatError("could not parse model document: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise ModelFormatError("model document must list at least one cell")
    atoms = doc.get("atoms", [])
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ModelFormatError("atoms must be a list of strings")
    geometry = doc.get("geometry")
    if geometry is not None:
        if not isinstance(geometry, dict) or not all(
            isinstance(xs, list) and all(_is_number(x) for x in xs) for xs in geometry.values()
        ):
            raise ModelFormatError("geometry must be an object of number lists")
        geometry = {k: tuple(xs) for k, xs in geometry.items()}

    return _read_cells(raw_cells, doc.get("vertices"), atoms, geometry)


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def model_to_document(m: SimplicialModel) -> str:
    """Serialise a model back to its JSON document form (deterministic)."""
    doc = {
        "atoms": list(m.atoms),
        "cells": [
            {"vertices": list(c), "atoms": sorted(v)} for c, v in zip(m.cells, m.valuations)
        ],
    }
    if m.geometry is not None:
        doc["geometry"] = {k: list(v) for k, v in m.geometry.items()}
    return json_text(doc)


class PosetModel(ReflexiveKripkeModel):
    """A finite poset with a valuation, viewed as a reflexive Kripke model.

    The constructor stores the order's tables as built and checks nothing:
    ``index`` maps element names to numbers in element order, ``succ[i]``
    and ``pred[i]`` are the sorted up-set and down-set of element i (each
    holding i) and the only stored copy of the order, and ``covers`` is a
    flat array of covering pairs (low, high, low, high, ...).
    :func:`cell_poset` builds them from faces the loader has checked.
    """

    __slots__ = ("_covers",)

    def __init__(self, index: dict[str, int], succ: tuple[tuple[int, ...], ...],
                 pred: tuple[tuple[int, ...], ...], valuations: tuple[frozenset[str], ...],
                 atoms: tuple[str, ...], covers: array):
        self.elements = tuple(index)
        self._index = index
        self.succ = succ
        self.pred = pred
        self.valuations = valuations
        self.atoms = atoms
        self._covers = covers

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The covering pairs (low, high), in element order of low, then high."""
        c, names = self._covers, self.elements
        return tuple((names[a], names[b]) for a, b in sorted(zip(c[::2], c[1::2])))


def cell_poset(m: SimplicialModel) -> PosetModel:
    """Build the cell poset of a simplicial model from its cells' faces.

    One element per cell, named canonically, in input cell order so results
    map back to cells by position; the order is face inclusion.  The loader
    has checked that every face is listed, so each down-set is read from the
    faces: the cell, its covers (the loader's, k in a row for a cell of
    k >= 2 vertices), its vertices and, from four vertices on, its faces of
    2 to k - 2 vertices.  Inverting the down-sets in cell order leaves every
    up-set sorted.  The poset shares the model's index, valuations and covers,
    and every number in its ``succ`` and ``pred`` is the index's own object.
    """
    number = m._index.__getitem__
    nums = list(m._index.values())  # one int object per element, shared by every table
    faces = [nums[i] for i in m._covers[::2]]
    succ: list = [[] for _ in m.cells]
    pred: list[tuple[int, ...]] = []
    at = 0
    for high, cell in zip(nums, m.cells):
        k = len(cell)
        down = [high]
        if k > 1:
            down += faces[at:at + k]
            at += k
        if k > 2:  # an edge's covers are its vertices
            down += map(number, cell)  # a vertex is named as itself
            for size in range(2, k - 1):
                down += map(number, map("-".join, combinations(cell, size)))
        down.sort()
        for low in down:
            succ[low].append(high)
        pred.append(tuple(down))
    for i, up in enumerate(succ):
        succ[i] = tuple(up)  # each list is freed as its tuple is made
    return PosetModel(m._index, tuple(succ), tuple(pred), m.valuations, m.atoms, m._covers)


def random_model(seed: int, n_vertices: int, max_dim: int, n_atoms: int) -> SimplicialModel:
    """Deterministically generate a random valid simplicial model.

    Random maximal faces are drawn and closed under subsets; atoms are
    assigned per cell.  Identical arguments produce identical models.
    """
    if n_vertices < 1:
        raise ModelSizeError("n_vertices must be at least 1")
    if max_dim < 0:
        raise ModelSizeError("max_dim must be non-negative")
    if n_atoms < 0:
        raise ModelSizeError("n_atoms must be non-negative")
    top = min(max_dim + 1, n_vertices)  # up to n_vertices faces of 2**top - 1 cells each
    if top > 20 or n_vertices * (2**top - 1) > 10**6:  # top first: no huge power is computed
        raise ModelSizeError(f"n_vertices {n_vertices} and max_dim {max_dim} allow over 10**6 cells")
    if n_atoms * n_vertices * (2**top - 1) > 10**7:  # one draw per atom and cell
        raise ModelSizeError(f"n_atoms {n_atoms} with n_vertices {n_vertices} and max_dim "
                             f"{max_dim} allow over 10**7 atom draws")
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(n_vertices)]
    atoms = [f"p{i}" for i in range(n_atoms)]

    cells: set[tuple[str, ...]] = set()
    for _ in range(rng.randint(1, n_vertices)):
        size = rng.randint(1, top)
        face = sorted(rng.sample(vertices, size))
        for k in range(1, len(face) + 1):
            cells.update(combinations(face, k))
    ordered = sorted(cells, key=lambda c: (len(c), c))

    entries = [
        {"vertices": list(c), "atoms": [a for a in atoms if rng.random() < 0.5]} for c in ordered
    ]
    used = [v for v in vertices if (v,) in cells]
    return _read_cells(entries, used, atoms, None)
