import json
import os
import random
import subprocess
import sys
import time
import weakref
from array import array
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest

import polymin
from polymin import InputError, cell_poset, load_simplicial_model, random_model, simplicial
from polymin.cli import main
from polymin.errors import EncodingError
from polymin.kripke import UnknownElementError
from polymin.simplicial import (
    ORDER_PAIR_BUDGET,
    MissingFaceError,
    MissingValuationError,
    ModelFormatError,
    ModelSizeError,
    UnknownVertexError,
    _read_cells,
    model_to_document,
)

from conftest import load_fixture, random_posets
from families import (
    barycentric_subdivision, corridor_document, grid_document, kuhn3d_document, maze_document,
)
from oracles import cell_name, cell_poset_by_cell, poset_from_covers, read_cells_by_cell


JOINS = "is empty or contains '-', which joins cell names"


def related(p, a, b):
    return p.index_of(b) in p.succ[p.index_of(a)]


def cover_names(elements, covers):
    """A flat array of covering pairs as ``PosetModel.covers`` gives them:
    name pairs, by number of low, then high."""
    return tuple((elements[a], elements[b]) for a, b in sorted(zip(covers[::2], covers[1::2])))


def doc(atoms, cells):
    return json.dumps(
        {
            "atoms": atoms,
            "cells": [{"vertices": list(v), "atoms": list(a)} for v, a in cells],
        }
    )


ILL_TYPED = [
    ({"atoms": 5, "cells": [{"vertices": ["a"], "atoms": []}]},
     ModelFormatError, "atoms must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": ["a"], "atoms": 3}]},
     ModelFormatError, "atoms of cell 'a' must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": 3, "atoms": []}]},
     ModelFormatError, "cell vertices must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": ["a"], "atoms": []}], "geometry": [1]},
     ModelFormatError, "geometry must be an object of number lists"),
    ({"atoms": [], "cells": [{"vertices": ["a"], "atoms": []}], "geometry": {"a": 1}},
     ModelFormatError, "geometry must be an object of number lists"),
    ({"atoms": ["red"], "cells": [{"vertices": ["a"], "atoms": "red"}]},
     ModelFormatError, "atoms of cell 'a' must be a list of strings"),
    ({"atoms": [], "cells": [
        {"vertices": ["A"], "atoms": []},
        {"vertices": ["B"], "atoms": []},
        {"vertices": "AB", "atoms": []},
    ]}, ModelFormatError, "cell vertices must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": ["a-b"], "atoms": []}]},
     ModelFormatError, f"vertex name 'a-b' {JOINS}"),
    ({"atoms": [], "cells": [
        {"vertices": ["A"], "atoms": []}, {"vertices": ["A", "A"], "atoms": []},
    ]}, ModelFormatError, "cell 'A-A' lists a vertex twice"),
    ({"atoms": [], "cells": [
        {"vertices": [""], "atoms": []},
        {"vertices": ["A"], "atoms": []},
        {"vertices": ["", "A"], "atoms": []},
    ]}, ModelFormatError, f"vertex name '' {JOINS}"),
    ({"atoms": ["red"], "cells": [{"vertices": ["E", "D"], "atoms": ["red"]}]},
     MissingFaceError, "cell 'D-E' requires face 'D', which is not listed"),
    ({"atoms": [], "vertices": ["A", "C"], "cells": [
        {"vertices": ["C"], "atoms": []}, {"vertices": ["C", "B"], "atoms": []},
    ]}, UnknownVertexError, "cell 'B-C' uses undeclared vertex 'B'"),
    ({"atoms": [], "cells": [
        {"vertices": ["A"], "atoms": []},
        {"vertices": ["B"], "atoms": []},
        {"vertices": ["A", "B"], "atoms": []},
        {"vertices": ["B", "A"], "atoms": []},
    ]}, ModelFormatError, "duplicate cell 'A-B'"),
    ({"atoms": [], "cells": [{"vertices": ["A"]}]},
     MissingValuationError, "cell 'A' has no atom list"),
    ({"atoms": [], "vertices": "A", "cells": [{"vertices": ["A"], "atoms": []}]},
     ModelFormatError, "vertices must be a list of strings"),
    ({"atoms": [], "cells": [5]}, ModelFormatError, "malformed cell entry: 5"),
    ({"atoms": [], "cells": [{"atoms": []}]},
     ModelFormatError, "malformed cell entry: {'atoms': []}"),
    ({"atoms": [], "cells": [{"vertices": [], "atoms": []}]},
     ModelFormatError, "cells must have at least one vertex"),
    ({"atoms": [], "cells": [{"vertices": [["a"]], "atoms": []}]},
     ModelFormatError, "cell vertices must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": [1], "atoms": []}]},
     ModelFormatError, "cell vertices must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": ["a"], "atoms": [["p"]]}]},
     ModelFormatError, "atoms of cell 'a' must be a list of strings"),
    ([{"vertices": ["a"], "atoms": []}],
     ModelFormatError, "model document must be a JSON object"),
]
ILL_TYPED_IDS = [
    "atoms-int", "cell-atoms-int", "cell-vertices-int", "geometry-list",
    "geometry-value-int", "cell-atoms-string", "cell-vertices-string", "dash-vertex",
    "repeated-vertex", "empty-vertex", "missing-face", "undeclared-vertex",
    "duplicate-cell", "no-atoms", "vertices-string", "cell-entry-int",
    "cell-entry-without-vertices", "no-vertices", "unhashable-vertex",
    "vertex-int", "unhashable-atom", "document-list",
]


def cells_doc(cells, **top):
    """A document of vertex lists, each cell with no atom."""
    return {"atoms": [], "cells": [{"vertices": list(c), "atoms": []} for c in cells], **top}


# Documents with faults of different kinds in different cells: the first
# cell in file order names the fault, whichever column pass finds one first.
SEVERAL_FAULTS = [
    (cells_doc(["A", "B", "AB", "BA", "C"], vertices=["A", "B"]),
     ModelFormatError, "duplicate cell 'A-B'"),
    (cells_doc(["A", "CA", "A"], vertices=["A", "B"]),
     UnknownVertexError, "cell 'A-C' uses undeclared vertex 'C'"),
    (cells_doc(["a", "b", "c", "d", "e", "ab", "ac", "ad", "bc", "bd", "cd", "ce",
                "abc", "abd", "acd", "abcd", "cde"]),
     MissingFaceError, "cell 'a-b-c-d' requires face 'b-c-d', which is not listed"),
    (cells_doc(["a", "b", "c", "d", "e", "ab", "ac", "ad", "bc", "bd", "cd", "ce",
                "cde", "abc", "abd", "acd", "abcd"]),
     MissingFaceError, "cell 'c-d-e' requires face 'd-e', which is not listed"),
    ({"atoms": [], "cells": [{"vertices": ["A"], "atoms": 3}, {"vertices": ["b-c"], "atoms": []}]},
     ModelFormatError, "atoms of cell 'A' must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": ["A"]}, 5]},
     MissingValuationError, "cell 'A' has no atom list"),
    ({"atoms": [], "cells": [{"vertices": ["A"], "atoms": [["p"]]},
                             {"vertices": ["A", "A"], "atoms": []}]},
     ModelFormatError, "atoms of cell 'A' must be a list of strings"),
    ({"atoms": [], "cells": [{"vertices": ["B", "A", "B"], "atoms": []},
                             {"vertices": [""], "atoms": []}]},
     ModelFormatError, "cell 'A-B-B' lists a vertex twice"),
    (cells_doc(["DE", "E", "F", "F"]),
     ModelFormatError, "duplicate cell 'F'"),
    ({"atoms": [], "cells": [{"vertices": ["A"], "atoms": 3},
                             {"vertices": [f"v{i}" for i in range(22)], "atoms": []}]},
     ModelFormatError, "atoms of cell 'A' must be a list of strings"),
]
SEVERAL_FAULTS_IDS = [
    "duplicate-then-undeclared", "undeclared-then-duplicate", "tetrahedron-face-then-triangle-face", "triangle-face-then-tetrahedron-face",
    "atoms-then-dash", "no-atoms-then-malformed", "unhashable-atom-then-repeated",
    "repeated-then-empty-vertex", "missing-face-then-duplicate", "atoms-then-over-budget",
]


def assert_rejected(document, error, message, tmp_path, capsys):
    """Loading ``document`` raises ``error`` with ``message``, and ``poset``
    exits 2 with that one line."""
    payload = json.dumps(document)
    with pytest.raises(error) as exc:
        load_simplicial_model(payload)
    assert type(exc.value) is error and str(exc.value) == message
    path = tmp_path / "bad.json"
    path.write_text(payload)
    assert main(["poset", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


class TestLoad:
    def test_segment3_fixture(self, segment3_model):
        assert len(segment3_model.cells) == 5
        assert segment3_model.atoms == ("red", "blue")
        valuation = dict(zip(map(cell_name, segment3_model.cells), segment3_model.valuations))
        assert valuation["D"] == frozenset({"red"})
        assert valuation["D-E"] == frozenset({"red"})
        assert valuation["E-F"] == frozenset({"blue"})

    def test_missing_face_is_rejected(self):
        bad = doc(["red"], [("DE", ["red"])])
        with pytest.raises(MissingFaceError) as exc:
            load_simplicial_model(bad)
        assert "D-E" in str(exc.value)

    def test_single_vertex_model(self):
        m = load_simplicial_model(doc(["p"], [("A", ["p"])]))
        assert len(m.cells) == 1
        assert m.valuations == (frozenset({"p"}),)

    def test_parse_error(self):
        with pytest.raises(ModelFormatError):
            load_simplicial_model(b"{ not json")

    def test_missing_valuation(self):
        payload = json.dumps({"atoms": [], "cells": [{"vertices": ["A"]}]})
        with pytest.raises(MissingValuationError):
            load_simplicial_model(payload)

    def test_unknown_vertex(self):
        payload = json.dumps(
            {
                "atoms": [],
                "vertices": ["A"],
                "cells": [{"vertices": ["B"], "atoms": []}],
            }
        )
        with pytest.raises(UnknownVertexError):
            load_simplicial_model(payload)

    def test_duplicate_cell(self):
        payload = doc([], [("A", []), ("A", [])])
        with pytest.raises(ModelFormatError):
            load_simplicial_model(payload)

    def test_empty_cell_list(self):
        with pytest.raises(ModelFormatError):
            load_simplicial_model(json.dumps({"atoms": [], "cells": []}))

    def test_derived_vertices_follow_first_appearance(self):
        m = load_simplicial_model(doc([], [("C", []), ("A", []), ("CA", []), ("B", [])]))
        assert m.vertices == ("C", "A", "B")

    def test_declared_vertices_keep_their_order(self):
        payload = json.dumps(
            {"atoms": [], "vertices": ["B", "C", "A"], "cells": [{"vertices": ["A"], "atoms": []}]}
        )
        assert load_simplicial_model(payload).vertices == ("B", "C", "A")

    @pytest.mark.parametrize("document, error, message", ILL_TYPED, ids=ILL_TYPED_IDS)
    def test_ill_typed_document_is_rejected(self, document, error, message, tmp_path, capsys):
        assert_rejected(document, error, message, tmp_path, capsys)

    @pytest.mark.parametrize("document, error, message", SEVERAL_FAULTS, ids=SEVERAL_FAULTS_IDS)
    def test_first_cell_with_a_fault_names_it(self, document, error, message, tmp_path, capsys):
        assert_rejected(document, error, message, tmp_path, capsys)

    def test_order_budget_is_checked_after_the_cells_before_the_faces(self, tmp_path, capsys):
        # one cell of 22 vertices, 2**22 - 1 order pairs, and none of its faces
        document = cells_doc([[f"v{i}" for i in range(22)]])
        message = (f"the cell poset would have {2**22 - 1:,} order pairs, "
                   f"over the budget of {ORDER_PAIR_BUDGET:,}")
        assert_rejected(document, ModelSizeError, message, tmp_path, capsys)
        with pytest.raises(MissingFaceError):
            load_by_cell(json.dumps(document))
        # a fault of the cell itself still comes first
        vertices = document["cells"][0]["vertices"]
        vertices.append("v0")
        message = f"cell {'-'.join(sorted(vertices))!r} lists a vertex twice"
        assert_rejected(document, ModelFormatError, message, tmp_path, capsys)

    def test_over_budget_simplex_exits_2_at_once(self, tmp_path, capsys):
        # every face of a 14-simplex: 32,767 cells, 3**15 - 2**15 order pairs
        vertices = [f"v{i}" for i in range(15)]
        model = tmp_path / "simplex14.json"
        model.write_text(doc(["p"], [(c, ["p"]) for k in range(1, 16)
                                     for c in combinations(vertices, k)]))
        script = tmp_path / "script.txt"
        script.write_text('save "s" ap("p")\n')
        message = (f"error: the cell poset would have {3**15 - 2**15:,} order pairs, "
                   f"over the budget of {ORDER_PAIR_BUDGET:,}\n")
        for argv in (["poset", model], ["minimize", model, "-o", tmp_path / "out"],
                     ["check", script, "--model", model, "-o", tmp_path / "results.json"]):
            start = time.perf_counter()
            assert main(list(map(str, argv))) == 2
            assert time.perf_counter() - start < 2
            assert capsys.readouterr().err == message

    @pytest.mark.parametrize("document, message", [
        (b"\xff{}", "model document is not valid UTF-8"),
        (b"[" + b"1" * 5000 + b"]", "could not parse model document: Exceeds the limit"),
        (b"[" * 100_000, "could not parse model document: nested too deeply"),
    ], ids=["invalid-utf8", "long-number", "deep-nesting"])
    def test_unreadable_document_is_input_error(self, document, message, tmp_path, capsys):
        with pytest.raises(InputError, match=message):
            load_simplicial_model(document)
        path = tmp_path / "bad.json"
        path.write_bytes(document)
        assert main(["poset", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_documents_are_read_as_utf8(self, kind):
        text = doc(["p"], [(["a"], ["p"]), (["b"], []), (["a", "b"], ["p"])])
        with pytest.raises(EncodingError, match="model document is not valid UTF-8"):
            load_simplicial_model(kind(text.encode("utf-16")))
        assert load_simplicial_model(kind(text.encode("utf-8"))) == load_simplicial_model(text)

    def test_read_cells_consumes_its_entries(self):
        class Entry(dict):  # a dict that takes weak references
            pass

        m = random_model(4, 6, 3, 2)
        entries = [Entry(vertices=list(c), atoms=sorted(v)) for c, v in zip(m.cells, m.valuations)]
        refs = [weakref.ref(e) for e in entries]
        assert _read_cells(entries, list(m.vertices), list(m.atoms), None) == m
        assert entries == [] and all(r() is None for r in refs)

    @pytest.mark.parametrize("seed", range(60))
    def test_document_round_trip(self, seed):
        m = random_model(seed, 2 + seed % 12, seed % 4, seed % 3)
        doc = json.loads(model_to_document(m))

        declared = load_simplicial_model(json.dumps({**doc, "vertices": list(m.vertices)}))
        assert declared == m and declared.vertices == m.vertices
        assert declared._down == m._down
        assert declared._index == m._index

        # Vertex lists in reverse: cells are sorted on load, and derived
        # vertices follow their first appearance in the lists as written.
        for cell in doc["cells"]:
            cell["vertices"].reverse()
        derived = load_simplicial_model(json.dumps(doc))
        assert derived.vertices == tuple(
            dict.fromkeys(v for cell in doc["cells"] for v in cell["vertices"])
        )
        assert (derived.cells, derived.valuations, derived.atoms) == (m.cells, m.valuations, m.atoms)
        assert derived._down == m._down

    def test_geometry_passthrough(self):
        payload = json.dumps(
            {
                "atoms": ["p"],
                "cells": [{"vertices": ["A"], "atoms": ["p"]}],
                "geometry": {"A": [0.0, 1.5]},
            }
        )
        m = load_simplicial_model(payload)
        assert m.geometry == {"A": (0.0, 1.5)}

    def test_geometry_is_written_back(self):
        geometry = {"D": [0.0, 1], "E": [2.5, -1e300]}
        m = load_simplicial_model(json.dumps({
            "atoms": ["p"],
            "cells": [{"vertices": ["D"], "atoms": ["p"]}, {"vertices": ["E"], "atoms": []}],
            "geometry": geometry,
        }))
        text = model_to_document(m)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert json.loads(text)["geometry"] == geometry
        assert m.geometry == {"D": (0.0, 1), "E": (2.5, -1e300)}
        assert load_simplicial_model(text).geometry == m.geometry


class TestCellPoset:
    def test_segment3_poset(self, segment3):
        assert segment3.elements == ("D", "E", "F", "D-E", "E-F")
        assert set(segment3.covers) == {
            ("D", "D-E"),
            ("E", "D-E"),
            ("E", "E-F"),
            ("F", "E-F"),
        }

    def test_covers_of_shuffled_cells_follow_the_element_order(self):
        document = shuffled((Path(__file__).parent / "fixtures" / "strip4.json").read_text(), 3)
        p = cell_poset(load_simplicial_model(document))
        assert p.elements[:4] != ("A", "B", "C", "D")  # not listed by size
        pairs = {(a, b) for a in p.elements for b in p.elements
                 if set(a.split("-")) < set(b.split("-")) and b.count("-") == a.count("-") + 1}
        assert p.covers == tuple(sorted(pairs, key=lambda ab: tuple(map(p.index_of, ab))))

    def test_triangle_poset(self, triangle):
        assert len(triangle.elements) == 7
        top = "A-B-C"
        assert all(related(triangle, w, top) for w in triangle.elements)

    def test_strip4_poset_size(self, strip4):
        assert len(strip4.elements) == 19

    def test_valuation_constancy(self, strip4_model, strip4):
        for cell, valuation in zip(strip4_model.cells, strip4_model.valuations):
            assert strip4.valuation_of(cell_name(cell)) == valuation

    def test_cells_reconstructible_from_element_names(self, strip4_model, strip4):
        rebuilt = {tuple(name.split("-")) for name in strip4.elements}
        assert rebuilt == set(strip4_model.cells)


class TestLeq:
    def test_cover_pair(self, segment3):
        assert related(segment3, "D", "D-E")

    def test_reflexive(self, segment3):
        assert related(segment3, "D", "D")

    def test_incomparable_edges(self, segment3):
        # vertex-set inclusion fails: {D,E} is not contained in {E,F}
        assert not related(segment3, "D-E", "E-F")

    def test_unknown_element(self, segment3):
        with pytest.raises(UnknownElementError):
            related(segment3, "D", "Z")

    def test_order_matches_vertex_inclusion(self, strip4):
        for a in strip4.elements:
            for b in strip4.elements:
                expected = set(a.split("-")) <= set(b.split("-"))
                assert related(strip4, a, b) == expected


class TestPartialOrderLaws:
    def check_laws(self, p):
        elements = p.elements
        for a in elements:
            assert related(p, a, a)
        for a in elements:
            for b in elements:
                if related(p, a, b) and related(p, b, a):
                    assert a == b
                for c in elements:
                    if related(p, a, b) and related(p, b, c):
                        assert related(p, a, c)

    def test_fixtures(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            self.check_laws(p)

    def test_random_models(self):
        for _, p in random_posets(20):
            self.check_laws(p)

    def test_deep_chain(self):
        chain = [f"c{i}" for i in range(1500)]
        covers = array("i", [k for i in range(1499) for k in (i, i + 1)])
        p = poset_from_covers(chain, covers, [()] * 1500, [])
        assert len(p.successors("c0")) == 1500
        assert p.names(p.pred[1499]) == tuple(chain)
        assert related(p, "c0", "c1499") and not related(p, "c1499", "c0")

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            poset_from_covers(["a", "b"], array("i", [0, 1, 1, 0]), [(), ()], [])


class TestCoversOfAnyPoset:
    """``PosetModel.covers`` reads the Hasse pairs from the down-sets of any
    poset, not only a cell poset, whatever pairs the order was closed from."""

    def covers(self, elements, pairs):
        flat = array("i", [elements.index(w) for pair in pairs for w in pair])
        return poset_from_covers(elements, flat, [()] * len(elements), []).covers

    def test_chain(self):
        chain = [f"c{i}" for i in range(6)]
        links = [(chain[i], chain[i + 1]) for i in range(5)]
        assert self.covers(chain, links[::-1]) == tuple(links)
        # a pair the closure implies anyway is no cover
        assert self.covers(chain, links + [("c0", "c5"), ("c1", "c3")]) == tuple(links)

    def test_diamond(self):
        elements = ["top", "left", "right", "bottom"]
        hasse = [("left", "top"), ("right", "top"), ("bottom", "left"), ("bottom", "right")]
        assert self.covers(elements, hasse[::-1]) == tuple(hasse)
        assert self.covers(elements, hasse + [("bottom", "top")]) == tuple(hasse)

    def test_sides_of_unequal_length(self):
        # the pentagon: bottom < a < b < top and bottom < c < top
        elements = ["bottom", "a", "b", "c", "top"]
        hasse = [("bottom", "a"), ("bottom", "c"), ("a", "b"), ("b", "top"), ("c", "top")]
        assert self.covers(elements, hasse + [("a", "top")]) == tuple(hasse)

    def test_antichain_and_one_element(self):
        assert self.covers(["x", "y", "z"], []) == ()
        assert self.covers(["x"], []) == ()


class TestFaceBuiltTables:
    """``cell_poset`` reads the order from each cell's faces; the generic
    closure of the covers the cell-by-cell loader finds must give the same
    tables, and the same covers."""

    def check(self, m):
        p = cell_poset(m)
        entries = json.loads(model_to_document(m))["cells"]
        _, covers = read_cells_by_cell(entries, list(m.vertices), list(m.atoms), None)
        ref = poset_from_covers(tuple(m._index), covers, m.valuations, m.atoms)
        assert p.elements == ref.elements and p._index == ref._index
        assert p.succ == ref.succ and p.pred == ref.pred
        assert p.covers == cover_names(p.elements, covers)
        assert p.valuations == ref.valuations and p.atoms == ref.atoms
        # every table entry is the index's own number object
        numbers = list(p._index.values())
        assert all(i is numbers[i] for rows in (p.succ, p.pred) for row in rows for i in row)
        return p

    @pytest.mark.parametrize("name", ["segment3.json", "triangle_abc.json", "strip4.json"])
    def test_fixtures(self, name):
        self.check(load_fixture(name))

    def test_random_models_up_to_dimension_4(self):
        sizes = set()
        for seed in range(250):
            m = random_model(seed, 5 + seed % 4, seed % 5, seed % 3)
            self.check(m)
            sizes.update(map(len, m.cells))
        assert sizes == {1, 2, 3, 4, 5}

    def test_subdivisions_corridor_and_grid(self):
        for seed in range(20):
            m = random_model(seed, 3 + seed % 3, 2 + seed % 2, 2)
            self.check(load_simplicial_model(barycentric_subdivision(m)[0]))
        self.check(load_simplicial_model(corridor_document(6)))
        self.check(load_simplicial_model(grid_document(5)))

    def test_kuhn_cube_grid(self, tmp_path):
        document = kuhn3d_document(3, 1)
        p = self.check(load_simplicial_model(document))
        assert len(p) == 883 and sum(map(len, p.succ)) == 5977
        model = tmp_path / "kuhn3.json"
        model.write_text(document)
        script = tmp_path / "script.txt"
        script.write_text(
            'let g = ap("goal")\n'
            'save "reach" eta(ap("floor") | g, g)\n'
            'save "walled" !eta(ap("floor"), ap("wall")) & ap("floor")\n'
        )
        base = ["check", str(script), "--model", str(model), "-o"]
        assert main([*base, str(tmp_path / "direct.json")]) == 0
        assert main([*base, str(tmp_path / "minimal.json"), "--on-minimal"]) == 0
        assert (tmp_path / "direct.json").read_bytes() == (tmp_path / "minimal.json").read_bytes()

    def test_closed_9_simplex(self):
        vertices = [f"v{i}" for i in range(10)]
        cells = [c for k in range(1, 11) for c in combinations(vertices, k)]
        p = self.check(load_simplicial_model(doc(["p"], [(c, ["p"]) for c in cells])))
        assert len(p) == 1023 and p.pred[-1] == tuple(range(1023))


def load_by_cell(document):
    """``load_simplicial_model`` with the cell-by-cell reference loader, and
    the covers that loader found."""
    found = []

    def read(*args):
        m, covers = read_cells_by_cell(*args)
        found.append(covers)
        return m

    with mock.patch.object(simplicial, "_read_cells", read):
        return load_simplicial_model(document), found[0]


def shuffled(document: str, seed: int) -> str:
    """The document with its cells in a seeded order, not listed by size."""
    doc = json.loads(document)
    random.Random(seed).shuffle(doc["cells"])
    return json.dumps(doc)


class TestColumnPassesMatchTheCellByCellReference:
    """The loader's column passes build the tables, down-sets included, and
    raise the errors of the cell-by-cell reference loops; ``cell_poset``
    gives the reference's order and covers."""

    def check(self, document):
        m, (ref, covers) = load_simplicial_model(document), load_by_cell(document)
        assert (m.cells, m.valuations, m.atoms, m.vertices) == (
            ref.cells, ref.valuations, ref.atoms, ref.vertices)
        assert list(m._index.items()) == list(ref._index.items())
        assert m._down == ref._down
        p, q = cell_poset(m), cell_poset_by_cell(ref)
        assert p.succ == q.succ and p.pred == q.pred == m._down
        assert p.covers == cover_names(p.elements, covers)

    @pytest.mark.parametrize("name", ["segment3.json", "triangle_abc.json", "strip4.json"])
    def test_fixtures(self, name):
        self.check((Path(__file__).parent / "fixtures" / name).read_text())

    @pytest.mark.parametrize("n", range(3, 23))
    def test_grids(self, n):
        self.check(maze_document(n))

    def test_corridor_kuhn_cubes_and_9_simplex(self):
        self.check(corridor_document(50))
        self.check(kuhn3d_document(3, 1))
        vertices = [f"v{i}" for i in range(10)]
        cells = [c for k in range(1, 11) for c in combinations(vertices, k)]
        self.check(doc(["p"], [(c, ["p"] * (len(c) % 2)) for c in cells]))

    def test_random_models_up_to_dimension_4(self):
        for seed in range(200):
            self.check(model_to_document(random_model(seed, 5 + seed % 4, seed % 5, seed % 3)))

    def test_cells_not_listed_by_size(self):
        self.check(shuffled(maze_document(5), 1))
        self.check(shuffled(kuhn3d_document(2, 1), 2))
        for seed in range(20):
            m = random_model(seed, 6, 1 + seed % 4, 2)
            self.check(shuffled(model_to_document(m), seed))

    @pytest.mark.parametrize("document, error, message", ILL_TYPED + SEVERAL_FAULTS,
                             ids=ILL_TYPED_IDS + SEVERAL_FAULTS_IDS)
    def test_same_first_fault(self, document, error, message):
        payload = json.dumps(document)
        with pytest.raises(InputError) as exc:
            load_simplicial_model(payload)
        with pytest.raises(InputError) as ref:
            load_by_cell(payload)
        assert (type(exc.value), str(exc.value)) == (type(ref.value), str(ref.value))


class TestRandomModel:
    def test_deterministic(self):
        a = random_model(1, 4, 2, 2)
        b = random_model(1, 4, 2, 2)
        assert a == b

    def test_validates_and_builds_poset(self):
        for seed in range(10):
            m = random_model(seed, 4, 2, 2)
            p = cell_poset(m)
            assert len(p.elements) == len(m.cells)

    def test_closed_under_faces(self):
        m = random_model(3, 5, 2, 1)
        names = set(map(cell_name, m.cells))
        for cell in m.cells:
            for k in range(1, len(cell)):
                for face in combinations(cell, k):
                    assert cell_name(face) in names

    def test_many_vertices_in_linear_time(self):
        # Ordering the 23,217 used vertices by their list position scans the
        # list once per vertex: tens of seconds at 100,000 vertices, against
        # under a second for one pass.  A child process bounds the run.
        code = (
            "from polymin import random_model\n"
            "print(len(random_model(1, 100_000, 1, 1).vertices))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(Path(polymin.__file__).parent.parent)},
            capture_output=True, text=True, timeout=10,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert int(done.stdout) == 23217

    def test_invalid_sizes(self):
        with pytest.raises(ModelSizeError):
            random_model(1, 0, 2, 2)
        with pytest.raises(ModelSizeError):
            random_model(1, 3, -1, 2)
        with pytest.raises(ModelSizeError, match="^n_atoms must be non-negative$"):
            random_model(1, 3, 1, -1)
        # up to n_vertices faces, each closed under its 2**k - 1 subsets
        start = time.perf_counter()
        with pytest.raises(ModelSizeError, match=r"^n_vertices 40 and max_dim 39 allow over"):
            random_model(1, 40, 39, 1)  # 40 vertices a face: 2**40 subsets
        with pytest.raises(ModelSizeError, match=r"^n_vertices 1000000000 and max_dim 0 allow"):
            random_model(1, 1_000_000_000, 0, 1)  # a billion vertex names
        with pytest.raises(ModelSizeError, match=r"^n_atoms 1000000000 with n_vertices 1 and"):
            random_model(1, 1, 0, 1_000_000_000)  # a billion atom names
        assert time.perf_counter() - start < 0.5
