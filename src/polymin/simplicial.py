"""Abstract simplicial complexes and their cell posets.

A model is stored as a set of cells (non-empty vertex sets, closed under
taking faces) together with a per-cell set of atoms.  Its discrete carrier is
the *cell poset*: one node per cell, ordered by face inclusion.  The loader's
face pass, which checks that every face is listed, is the one validation of
that order; the poset is read from the faces and trusts them.  Vertex
coordinates, when present in the input, are carried along untouched.

The loader works column by column: each check, and each face position of
each cell size, is one pass over a column of cells, so the interpreter's
loop runs per column rather than per cell.  Cells are grouped by size; when
the document lists them by size, as meshes are written, each group is a
slice.  The faces are looked up once, there, and kept as each cell's
down-set, which :func:`cell_poset` only inverts.  A model whose order would
exceed :data:`ORDER_PAIR_BUDGET` pairs is refused before any face is looked
up.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, repeat
from operator import itemgetter, lt

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
    """A model whose cell poset would exceed :data:`ORDER_PAIR_BUDGET`, or
    arguments to :func:`random_model` that describe no model."""


@dataclass(frozen=True)
class SimplicialModel:
    """An abstract simplicial complex with a per-cell valuation.

    Cells are numbered in input order, which downstream stages treat as the
    canonical cell order, and every per-cell table is indexed by that number:
    ``cells[i]`` is a sorted tuple of vertex names and ``valuations[i]`` its
    atom set.  ``_index`` maps each canonical cell name to its number, in
    cell order, and ``_down[i]`` is the sorted tuple of the numbers of cell
    i and all its faces, each the index's own int object; :func:`cell_poset`
    reads both.

    :func:`_read_cells`, the one validation routine, builds every model.
    """

    vertices: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    valuations: tuple[frozenset[str], ...]
    atoms: tuple[str, ...]
    geometry: dict[str, tuple[float, ...]] | None
    _index: dict[str, int] = field(repr=False, compare=False)
    _down: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)


_NO_ATOMS = object()
_VERTEX_TYPE = "cell vertices must be a list of strings"
_VERTICES = itemgetter("vertices")
# The cell poset's order pairs a model may have: sum(2**len(c) - 1) over its
# cells, counted before any is built.  See README "Bounded work".
ORDER_PAIR_BUDGET = 4_000_000


def _read_cells(
    entries: list, declared: list | None, atoms: list[str], geometry: dict | None
) -> SimplicialModel:
    """Check cells in document form, number them and build the model: the
    one validation routine of a model.

    Each entry is ``{"vertices": [...], "atoms": [...]}``; ``declared`` is
    the vertex list, or ``None`` to take the vertices from the cells in
    order of first appearance.  The entries' ``vertices`` and ``atoms`` are
    read into two columns and ``entries`` is emptied, which frees the cell
    dicts before any table is built.  Each check is then one pass over a
    column: list types, vertex names, repeated vertices, duplicate cells,
    atom lists (equal ones share one frozenset) and, size group by size
    group, the faces.  Only when a pass fails are the cells scanned one by
    one, in file order, for the first fault, so errors are those of a
    cell-by-cell check.  Each cell's down-set, the cell and all its faces,
    is looked up face size by face size, one face position at a time, and
    kept sorted.  The model's atoms are ``atoms`` (checked strings) followed
    by the undeclared ones in order of first use.

    A model whose order would have over :data:`ORDER_PAIR_BUDGET` pairs is
    refused with :class:`ModelSizeError` once its cells have passed their
    own checks, before its faces are looked up.
    """
    if declared is not None:
        if not isinstance(declared, list) or not all(isinstance(v, str) for v in declared):
            raise ModelFormatError("vertices must be a list of strings")
        declared = list(dict.fromkeys(declared))
        for v in declared:
            _check_vertex_name(v)
    try:
        vertex_lists = list(map(_VERTICES, entries))
    except (KeyError, TypeError):  # an entry that is no object with vertices
        bad = next(i for i, e in enumerate(entries)
                   if not isinstance(e, dict) or "vertices" not in e)
        head = entries[:bad]
        _first_fault(list(map(_VERTICES, head)), _atom_column(head), declared)
        raise ModelFormatError(f"malformed cell entry: {entries[bad]!r}") from None
    atom_lists = _atom_column(entries)
    entries.clear()

    seen = None
    if set(map(type, vertex_lists)) == {list} and all(vertex_lists):
        try:
            seen = dict.fromkeys(chain.from_iterable(vertex_lists))
        except TypeError:  # an unhashable vertex
            pass
    if seen is None or set(map(type, seen)) != {str}:
        raise _first_fault(vertex_lists, atom_lists, declared)
    if declared is None:
        if "" in seen or "-" in "".join(seen):
            raise _first_fault(vertex_lists, atom_lists, declared)
    elif not seen.keys() <= set(declared):
        raise _first_fault(vertex_lists, atom_lists, declared)

    if set(map(type, atom_lists)) != {list}:
        raise _first_fault(vertex_lists, atom_lists, declared)
    atom_lists = list(map(tuple, atom_lists))
    shared = None
    try:
        shared = dict.fromkeys(atom_lists)
    except TypeError:  # an unhashable atom
        pass
    if shared is None or not set(map(type, chain.from_iterable(shared))) <= {str}:
        raise _first_fault(vertex_lists, map(list, atom_lists), declared)
    for key in shared:
        shared[key] = frozenset(key)
    valuations = tuple(map(shared.__getitem__, atom_lists))
    del atom_lists

    n = len(vertex_lists)
    deque(map(list.sort, vertex_lists), 0)
    cells = list(map(tuple, vertex_lists))
    # Each column goes once it has passed its checks: the scan then reads the
    # sorted cells, and atom lists with no fault, in place of the two.
    del vertex_lists
    sizes = list(map(len, cells))
    groups = [(k, members, _take(cells, members)) for k, members in _size_runs(sizes)]
    for k, _, group in groups:
        if k > 3:  # one set a cell costs less than k - 1 passes
            repeats = sum(map(len, map(set, group))) < k * len(group)
        else:  # a sorted cell lists no vertex twice iff it ascends
            repeats = not all(all(map(lt, map(itemgetter(j), group), map(itemgetter(j + 1), group)))
                              for j in range(k - 1))
        if repeats:
            raise _first_fault(map(list, cells), repeat([]), declared)
    number = dict(zip(map("-".join, cells), range(n)))
    if len(number) < n:
        raise _first_fault(map(list, cells), repeat([]), declared)

    order_pairs = sum((2**k - 1) * len(members) for k, members, _ in groups)
    if order_pairs > ORDER_PAIR_BUDGET:
        raise ModelSizeError(f"the cell poset would have {order_pairs:,} order pairs, "
                             f"over the budget of {ORDER_PAIR_BUDGET:,}")

    # Face closure: with the groups in ascending size, checking the
    # one-vertex-removed faces of every cell covers all smaller faces by
    # induction, so those are looked up first and no smaller one is missing.
    nums = list(number.values())  # one int object per cell, shared by every down-set
    down: list = [None] * n
    for k, members, group in groups:
        columns = [_take(nums, members)]
        for size in range(k - 1, 0, -1):
            for face in _faces(k, size):
                try:
                    columns.append(list(map(number.__getitem__, _names(face, size, group))))
                except KeyError:
                    raise _missing_face(cells, number) from None
        _put(down, members, map(tuple, map(sorted, zip(*columns))))

    # A repeated valuation adds no atoms.
    used = dict.fromkeys(atoms)
    for atom_set in dict.fromkeys(shared.values()):
        used.update(dict.fromkeys(sorted(atom_set)))
    return SimplicialModel(tuple(seen if declared is None else declared), tuple(cells), valuations,
                           tuple(used), geometry, number, tuple(down))


def _size_runs(sizes: list[int]) -> list[tuple[int, range | list[int]]]:
    """Each cell size k, ascending, with the numbers of the k-vertex cells in
    file order: a range when the cells are listed by size, else a list."""
    ordered = sorted(sizes)
    order = range(len(sizes))
    if ordered != sizes:
        order = sorted(order, key=sizes.__getitem__)
    runs = []
    start = 0
    while start < len(ordered):
        stop = bisect_right(ordered, ordered[start], start)
        runs.append((ordered[start], order[start:stop]))
        start = stop
    return runs


@cache
def _faces(k: int, size: int) -> list[itemgetter]:
    """Getters of the ``size``-vertex faces of a k-vertex cell's vertex tuple,
    in ``combinations`` order."""
    return [itemgetter(*face) for face in combinations(range(k), size)]


def _names(face: itemgetter, size: int, group: list[tuple[str, ...]]):
    """The names of one face, of ``size`` vertices, of each cell of ``group``;
    a vertex is named as itself."""
    return map(face, group) if size == 1 else map("-".join, map(face, group))


def _take(column, members: range | list[int]) -> list:
    """The entries of ``column`` at the cell numbers ``members``."""
    if type(members) is range:
        return column[members.start:members.stop]
    return list(map(column.__getitem__, members))


def _put(column: list, members: range | list[int], values) -> None:
    """Store ``values`` in ``column`` at the cell numbers ``members``."""
    if type(members) is range:
        column[members.start:members.stop] = values
    else:
        deque(map(column.__setitem__, members, values), 0)


def _atom_column(entries: list[dict]) -> list:
    return list(map(dict.get, entries, repeat("atoms"), repeat(_NO_ATOMS)))


def _first_fault(vertex_lists, atom_lists, declared: list | None) -> AssertionError:
    """Check the cells one by one, in file order, for what ``_read_cells``
    checks column by column, and raise the first fault of the first faulty
    cell.  After a failed column pass there is one; the error returned is
    for a pass that disagrees with this scan."""
    known = set() if declared is None else set(declared)
    names = set()
    for vs, listed in zip(vertex_lists, atom_lists):
        if not isinstance(vs, list):
            raise ModelFormatError(_VERTEX_TYPE)
        if not vs:
            raise ModelFormatError("cells must have at least one vertex")
        if not all(isinstance(v, str) for v in vs):
            raise ModelFormatError(_VERTEX_TYPE)
        cell = sorted(vs)
        name = "-".join(cell)
        for v in vs if declared is None else cell:
            if v not in known:
                if declared is not None:
                    raise UnknownVertexError(f"cell {name!r} uses undeclared vertex {v!r}")
                _check_vertex_name(v)
                known.add(v)
        if len(set(cell)) < len(cell):
            raise ModelFormatError(f"cell {name!r} lists a vertex twice")
        if name in names:
            raise ModelFormatError(f"duplicate cell {name!r}")
        names.add(name)
        if listed is _NO_ATOMS:
            raise MissingValuationError(f"cell {name!r} has no atom list")
        if not isinstance(listed, list) or not all(isinstance(a, str) for a in listed):
            raise _atoms_type(name)
    return AssertionError("a column pass failed, but no cell is faulty")


def _missing_face(cells: list[tuple[str, ...]], number: dict[str, int]) -> MissingFaceError:
    """The first missing face of the first cell that has one, in file order
    and then in ``combinations`` order."""
    for cell in cells:
        if len(cell) == 1:
            continue
        for face in map("-".join, combinations(cell, len(cell) - 1)):
            if face not in number:
                return MissingFaceError(
                    f"cell {'-'.join(cell)!r} requires face {face!r}, which is not listed"
                )
    raise AssertionError("no face is missing")


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
    ``index`` maps element names to numbers in element order, and
    ``succ[i]`` and ``pred[i]`` are the sorted up-set and down-set of
    element i (each holding i) and the only stored copy of the order.
    :func:`cell_poset` builds them from faces the loader has checked.
    """

    __slots__ = ()

    transitive = True  # the tables are the up-sets and down-sets

    def __init__(self, index: dict[str, int], succ: tuple[tuple[int, ...], ...],
                 pred: tuple[tuple[int, ...], ...], valuations: tuple[frozenset[str], ...],
                 atoms: tuple[str, ...]):
        self.elements = tuple(index)
        self._index = index
        self.succ = succ
        self.pred = pred
        self.valuations = valuations
        self.atoms = atoms

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The covering pairs (low, high), in element order of low, then high:
        y covers x iff x < y and no z has x < z < y, in any poset.  Walking
        the sorted up-sets in element order gives the pairs in that order."""
        names = self.elements
        above = [up[1:] if up[0] == x else tuple(filter(x.__ne__, up))  # each without x
                 for x, up in enumerate(self.succ)]
        pairs = []
        for low, over in zip(names, above):
            higher = set(chain.from_iterable(map(above.__getitem__, over)))
            pairs += [(low, names[y]) for y in over if y not in higher]
        return tuple(pairs)


def cell_poset(m: SimplicialModel) -> PosetModel:
    """Build the cell poset of a simplicial model.

    One element per cell, named canonically, in input cell order so results
    map back to cells by position; the order is face inclusion.  The
    down-sets are the loader's, and inverting them in cell order leaves
    every up-set sorted.  The poset shares the model's index, down-sets and
    valuations, and every number in its ``succ`` and ``pred`` is the index's
    own object.
    """
    nums = list(m._index.values())
    succ: list = list(map(list, repeat((), len(nums))))
    for high, down in zip(nums, m._down):
        for low in down:
            succ[low].append(high)
    for i, up in enumerate(succ):
        succ[i] = tuple(up)  # each list is freed as its tuple is made
    return PosetModel(m._index, tuple(succ), m._down, m.valuations, m.atoms)


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
