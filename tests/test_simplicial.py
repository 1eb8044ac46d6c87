import json
from itertools import combinations

import pytest

from polymin import cell_poset, load_simplicial_model, random_model
from polymin.cli import main
from polymin.kripke import UnknownElementError
from polymin.simplicial import (
    MissingFaceError,
    MissingValuationError,
    ModelFormatError,
    PosetModel,
    UnknownVertexError,
    cell_name,
)

from conftest import random_posets


def doc(atoms, cells):
    return json.dumps(
        {
            "atoms": atoms,
            "cells": [{"vertices": list(v), "atoms": list(a)} for v, a in cells],
        }
    )


class TestLoad:
    def test_segment3_fixture(self, segment3_model):
        assert len(segment3_model.cells) == 5
        assert segment3_model.atoms == ("red", "blue")
        assert segment3_model.valuation["D"] == frozenset({"red"})
        assert segment3_model.valuation["D-E"] == frozenset({"red"})
        assert segment3_model.valuation["E-F"] == frozenset({"blue"})

    def test_missing_face_is_rejected(self):
        bad = doc(["red"], [("DE", ["red"])])
        with pytest.raises(MissingFaceError) as exc:
            load_simplicial_model(bad)
        assert "D-E" in str(exc.value)

    def test_single_vertex_model(self):
        m = load_simplicial_model(doc(["p"], [("A", ["p"])]))
        assert len(m.cells) == 1
        assert m.valuation["A"] == frozenset({"p"})

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

    @pytest.mark.parametrize(
        "document",
        [
            {"atoms": 5, "cells": [{"vertices": ["a"], "atoms": []}]},
            {"atoms": [], "cells": [{"vertices": ["a"], "atoms": 3}]},
            {"atoms": [], "cells": [{"vertices": 3, "atoms": []}]},
            {"atoms": [], "cells": [{"vertices": ["a"], "atoms": []}], "geometry": [1]},
            {"atoms": [], "cells": [{"vertices": ["a"], "atoms": []}], "geometry": {"a": 1}},
            {"atoms": ["red"], "cells": [{"vertices": ["a"], "atoms": "red"}]},
            {
                "atoms": [],
                "cells": [
                    {"vertices": ["A"], "atoms": []},
                    {"vertices": ["B"], "atoms": []},
                    {"vertices": "AB", "atoms": []},
                ],
            },
            {"atoms": [], "cells": [{"vertices": ["a-b"], "atoms": []}]},
        ],
        ids=[
            "atoms-int", "cell-atoms-int", "cell-vertices-int", "geometry-list",
            "geometry-value-int", "cell-atoms-string", "cell-vertices-string", "dash-vertex",
        ],
    )
    def test_ill_typed_document_is_rejected(self, document, tmp_path, capsys):
        payload = json.dumps(document)
        with pytest.raises(ModelFormatError):
            load_simplicial_model(payload)
        path = tmp_path / "bad.json"
        path.write_text(payload)
        assert main(["poset", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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


class TestCellPoset:
    def test_segment3_poset(self, segment3):
        assert segment3.elements == ("D", "E", "F", "D-E", "E-F")
        assert set(segment3.covers) == {
            ("D", "D-E"),
            ("E", "D-E"),
            ("E", "E-F"),
            ("F", "E-F"),
        }

    def test_triangle_poset(self, triangle):
        assert len(triangle.elements) == 7
        top = "A-B-C"
        assert all(triangle.related(w, top) for w in triangle.elements)

    def test_strip4_poset_size(self, strip4):
        assert len(strip4.elements) == 19

    def test_valuation_constancy(self, strip4_model, strip4):
        for cell in strip4_model.cells:
            assert strip4.valuation_of(cell_name(cell)) == strip4_model.valuation[cell_name(cell)]

    def test_cells_reconstructible_from_element_names(self, strip4_model, strip4):
        rebuilt = {tuple(name.split("-")) for name in strip4.elements}
        assert rebuilt == set(strip4_model.cells)


class TestLeq:
    def test_cover_pair(self, segment3):
        assert segment3.related("D", "D-E")

    def test_reflexive(self, segment3):
        assert segment3.related("D", "D")

    def test_incomparable_edges(self, segment3):
        # vertex-set inclusion fails: {D,E} is not contained in {E,F}
        assert not segment3.related("D-E", "E-F")

    def test_unknown_element(self, segment3):
        with pytest.raises(UnknownElementError):
            segment3.related("D", "Z")

    def test_order_matches_vertex_inclusion(self, strip4):
        for a in strip4.elements:
            for b in strip4.elements:
                expected = set(a.split("-")) <= set(b.split("-"))
                assert strip4.related(a, b) == expected


class TestPartialOrderLaws:
    def check_laws(self, p):
        elements = p.elements
        for a in elements:
            assert p.related(a, a)
        for a in elements:
            for b in elements:
                if p.related(a, b) and p.related(b, a):
                    assert a == b
                for c in elements:
                    if p.related(a, b) and p.related(b, c):
                        assert p.related(a, c)

    def test_fixtures(self, segment3, triangle, strip4):
        for p in (segment3, triangle, strip4):
            self.check_laws(p)

    def test_random_models(self):
        for _, p in random_posets(20):
            self.check_laws(p)

    def test_deep_chain(self):
        chain = [f"c{i}" for i in range(1500)]
        p = PosetModel(chain, zip(chain, chain[1:]), {})
        assert len(p.successors("c0")) == 1500
        assert p.predecessors("c1499") == tuple(chain)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            PosetModel(["a", "b"], [("a", "b"), ("b", "a")], {"a": [], "b": []})


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
        names = set(m.cell_names())
        for cell in m.cells:
            for k in range(1, len(cell)):
                for face in combinations(cell, k):
                    assert cell_name(face) in names

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            random_model(1, 0, 2, 2)
        with pytest.raises(ValueError):
            random_model(1, 3, -1, 2)
