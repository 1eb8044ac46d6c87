"""``model_to_document`` writes what the standard encoder writes with an
indent of 2 for the payload :func:`oracles.model_payload` makes of a model."""

import json
import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from families import corridor_document, kuhn3d_document, maze_document
from oracles import model_payload
from polymin.simplicial import ModelFormatError, load_simplicial_model, model_to_document

FIXTURES = Path(__file__).parent / "fixtures"
# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "naïve €", "\ud800", "\udfff\ud83d", "\U0001f600"]
)
VERTEX = TEXT.filter(lambda v: v and "-" not in v)
INTS = st.integers() | st.sampled_from([0, 1, -1, 2**63, -(2**64) - 1, 10**30])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 0.1]
)
# geometry absent, {}, or lists of ints and floats mixed, empty ones included
GEOMETRY = st.none() | st.dictionaries(TEXT, st.lists(INTS | FLOATS, max_size=5), max_size=4)


@st.composite
def documents(draw) -> str:
    """A model document: a few top cells on drawn vertices, in drawn order,
    closed under faces, each cell with up to two atoms (none included); the
    vertex list declared or not, and geometry absent or not."""
    vertices = draw(st.lists(VERTEX, min_size=1, max_size=5, unique=True))
    tops = draw(st.lists(st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True),
                         min_size=1, max_size=4))
    cells: dict[tuple[str, ...], list[str]] = {}
    for top in tops:
        for k in range(1, len(top) + 1):
            for face in combinations(top, k):
                cells.setdefault(tuple(sorted(face)), list(face))
    doc = {"atoms": draw(st.lists(TEXT, max_size=3)),
           "cells": [{"vertices": c, "atoms": draw(st.lists(TEXT, max_size=2))} for c in cells.values()]}
    if draw(st.booleans()):
        doc["vertices"] = draw(st.permutations(vertices))
    geometry = draw(GEOMETRY)
    if geometry is not None:
        doc["geometry"] = geometry
    return json.dumps(doc)


def standard(value) -> str:
    return json.dumps(value, indent=2) + "\n"


def expect_standard(document: str) -> None:
    m = load_simplicial_model(document)
    assert model_to_document(m) == standard(model_payload(m))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(documents())
def test_matches_the_standard_encoder(document):
    expect_standard(document)


def cells_with(**fields) -> str:
    """A two-cell document with ``fields`` at the top level."""
    return json.dumps({"cells": [{"vertices": ["A"], "atoms": []},
                                 {"vertices": ["\ud800"], "atoms": ["\udc00", "\x00", '"\\']}],
                       **fields})


MODEL_CASES = {
    "no atoms field": cells_with(),
    "no atoms": cells_with(atoms=[]),
    "atoms out of order": cells_with(atoms=["b", "a", "\x7f"]),
    "an empty key": cells_with(geometry={"": []}),
    "ints and floats": cells_with(geometry={"A": [0, 1], "B": [1, 1.0]}),
    "not finite": cells_with(geometry={"A": [math.inf, -math.inf, -math.nan], "B": [-0.0, 0.0]}),
    "odd keys": cells_with(geometry={"\ud800": [5e-324, 1e300, 1e16, 0.1], "\udfff\ud83d": [-1e-7]}),
    "long ints": cells_with(geometry={"A": [2**63, -(2**64) - 1, 10**30, 10**30 + 0.5]}),
    # keys spelled as the non-finite numbers, which a key's text keeps
    "number-like keys": cells_with(
        geometry={"nan": [math.nan], "inf": [math.inf], "-inf": [], "Infinity": [1]}),
}


@pytest.mark.parametrize("document", MODEL_CASES.values(), ids=MODEL_CASES)
def test_model_edge_cases(document):
    expect_standard(document)


# the edge cases of a general encoder, each put in a document as its geometry
# (an object), a geometry list (a list) or a number in one: the loader takes
# the lists of ints and floats, which the template writes, and refuses the rest
@pytest.mark.parametrize("value", [
    {}, [], [[]], [{}], {"a": {}}, {"a": []},
    [0, 1], [False, True], [0, True], [True, 0], [1, 1.0], [True, "true"],
    {"": [0.5, 2, math.nan]}, [math.inf, -math.inf], -0.0,
    {"\ud800": ["\udc00", "\x00"]}, {"k": [["a"], "b", []]},
], ids=repr)
def test_edge_cases(value):
    geometry = value if type(value) is dict else {"A": value if type(value) is list else [value]}
    document = cells_with(geometry=geometry)
    if all(type(xs) is list and {type(x) for x in xs} <= {int, float} for xs in geometry.values()):
        expect_standard(document)
    else:
        with pytest.raises(ModelFormatError, match="geometry must be an object of number lists"):
            load_simplicial_model(document)


FAMILIES = {
    **{stem: lambda stem=stem: (FIXTURES / f"{stem}.json").read_text(encoding="utf-8")
       for stem in ("segment3", "triangle_abc", "strip4")},
    **{f"grid {n}": lambda n=n: maze_document(n) for n in (3, 4, 5, 8, 13, 16, 22, 32, 64)},
    "corridor 12": lambda: corridor_document(12),
    "kuhn3d 3": lambda: kuhn3d_document(3, 1),
}


@pytest.mark.parametrize("make", FAMILIES.values(), ids=FAMILIES)
def test_families(make):
    expect_standard(make())
