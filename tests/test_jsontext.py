"""``json_text`` writes what the standard encoder writes with an indent of 2."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from polymin.jsontext import json_text

# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "naïve €", "\ud800", "\udfff\ud83d", "\U0001f600"]
)
INTS = st.integers() | st.sampled_from([0, 1, -1, 2**63, -(2**64) - 1, 10**30])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 0.1]
)
SCALARS = st.one_of(st.booleans(), INTS, FLOATS, TEXT)
# lists of one scalar type are written by a separate branch of the writer
UNIFORM = st.one_of(
    st.lists(st.booleans()), st.lists(INTS), st.lists(FLOATS), st.lists(TEXT),
    st.lists(st.booleans() | st.integers(0, 1)),
)
VALUES = st.recursive(
    SCALARS | UNIFORM,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


def standard(value) -> str:
    return json.dumps(value, indent=2) + "\n"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(VALUES)
def test_matches_the_standard_encoder(value):
    assert json_text(value) == standard(value)


@pytest.mark.parametrize("value", [
    {}, [], [[]], [{}], {"a": {}}, {"a": []},
    [0, 1], [False, True], [0, True], [True, 0], [1, 1.0], [True, "true"],
    {"": [0.5, 2, math.nan]}, [math.inf, -math.inf], -0.0,
    {"\ud800": ["\udc00", "\x00"]}, {"k": [["a"], "b", []]},
], ids=repr)
def test_edge_cases(value):
    assert json_text(value) == standard(value)
