"""The text of polymin's JSON files, each ``json.dumps(payload, indent=2)``
plus a newline, byte for byte, so ASCII throughout.

Every file is written straight from its tables, with no payload made:
:func:`results_bytes` joins each save's answer to ``check``, one JSON word a
cell from :func:`answer_words`; :func:`minimize_texts`, :func:`poset_text`
and :func:`model_text` fill one template per class, element or cell and per
pair or geometry list.  Strings go through the C
``encode_basestring_ascii``; given an indent, ``json.dumps`` would run the
standard library's pure-Python encoder, which is several times slower."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

FALSE, TRUE = b"false", b"true"
_ITEM = b",\n      "


def answer_words(n: int, numbers: Iterable[int]) -> list[bytes]:
    """An answer on ``n`` elements as JSON words: ``TRUE`` at ``numbers``,
    ``FALSE`` elsewhere.  A loop, as ``map`` over ``words.__setitem__`` goes
    through a slot wrapper and takes over twice as long a number."""
    words = [FALSE] * n
    for i in numbers:
        words[i] = TRUE
    return words


def results_bytes(model: str, answers: dict[str, list[bytes]]) -> bytes:
    """``json.dumps({"model": model, "results": ...}, indent=2)`` plus a
    newline, as bytes, where each save's answer is its list of words."""
    out = [b'{\n  "model": ', encode_basestring_ascii(model).encode(), b',\n  "results": {']
    opener = b"\n    "
    for name, words in answers.items():
        out += (opener, encode_basestring_ascii(name).encode(), b": [")
        if words:
            out += (b"\n      ", _ITEM.join(words), b"\n    ")
        out.append(b"]")
        opener = b",\n    "
    out.append(b"\n  }\n}\n" if answers else b"}\n}\n")
    return b"".join(out)


def _atom_lists(valuations: Iterable[frozenset[str]]) -> dict[frozenset[str], str]:
    """The sorted atom list of each distinct valuation, as the value of a
    field of an object that is an item of a top-level field's list."""
    item = ",\n        "
    return {v: f"[\n        {item.join(map(encode_basestring_ascii, sorted(v)))}\n      ]"
            if v else "[]" for v in set(valuations)}


def minimize_texts(elements: tuple[str, ...], block: Sequence[int],
                   valuations: tuple[frozenset[str], ...],
                   succ: Sequence[Iterable[int]]) -> tuple[str, str]:
    """``minimize``'s classes file and its minimal-model file, which continues
    it with the relation's ``[i, j]`` pairs, for ``elements`` in the classes
    numbered by ``block``, class ``i`` having ``valuations[i]`` and the
    successors ``succ[i]``; each class is named by its least member."""
    members: list[list[str]] = [[] for _ in valuations]
    for w, k in zip(elements, block):
        members[k].append(w)
    quote, item, atoms = encode_basestring_ascii, ",\n        ", _atom_lists(valuations)
    classes = ",".join([
        f'\n    {{\n      "id": {i},\n      "name": {quote(min(ws))},\n      "members": '
        f'[\n        {item.join(map(quote, ws))}\n      ],\n      "atoms": {atoms[v]}\n    }}'
        for i, (ws, v) in enumerate(zip(members, valuations))])
    relation = ",".join([f"\n    [\n      {i},\n      {j}\n    ]"
                         for i, targets in enumerate(succ) for j in targets])
    text = '{\n  "classes": [' + classes + "\n  ]\n}\n"
    return text, text[:-3] + ',\n  "relation": [' + relation + "\n  ]\n}\n"


def poset_text(elements: tuple[str, ...], valuations: tuple[frozenset[str], ...],
               covers: tuple[tuple[str, str], ...]) -> str:
    """``poset``'s file: ``json.dumps`` of ``{"elements": [{"name", "atoms"},
    ...], "covers": [[low, high], ...]}`` with an indent of 2, plus a
    newline."""
    quote, atoms = encode_basestring_ascii, _atom_lists(valuations)
    items = ",".join([f'\n    {{\n      "name": {quote(w)},\n      "atoms": {atoms[v]}\n    }}'
                      for w, v in zip(elements, valuations)])
    pairs = ",".join([f"\n    [\n      {quote(a)},\n      {quote(b)}\n    ]" for a, b in covers])
    return "".join(['{\n  "elements": [', items, '\n  ],\n  "covers": [', pairs,
                    "\n  ]\n}\n" if covers else "]\n}\n"])


def model_text(atoms: Sequence[str], cells: Iterable[tuple[str, ...]],
               valuations: Sequence[frozenset[str]], vertices: Sequence[str] | None,
               geometry: dict[str, Sequence[float]] | None) -> str:
    """A model document: ``json.dumps`` of ``{"atoms": [...], "cells":
    [{"vertices", "atoms"}, ...], "vertices": [...], "geometry": {...}}``
    with an indent of 2, plus a newline, for a model's atoms, its cells and
    their valuations, with no ``vertices`` or ``geometry`` field when that
    argument is None."""
    quote, item, atom_lists = encode_basestring_ascii, ",\n        ", _atom_lists(valuations)
    entries = ",".join([f'\n    {{\n      "vertices": [\n        {item.join(map(quote, c))}\n      ],'
                        f'\n      "atoms": {atom_lists[v]}\n    }}' for c, v in zip(cells, valuations)])
    out = ['{\n  "atoms": ', _strings(atoms), ',\n  "cells": [', entries, "\n  ]"]
    if vertices is not None:
        out += (',\n  "vertices": ', _strings(vertices))
    if geometry is not None:
        points = ",".join([f"\n    {quote(k)}: {_numbers(xs)}" for k, xs in geometry.items()])
        out += (',\n  "geometry": {', points, "\n  }" if geometry else "}")
    out.append("\n}\n")
    return "".join(out)


def _strings(xs: Sequence[str]) -> str:
    """A list of strings as the value of a top-level field."""
    return "[\n    " + ",\n    ".join(map(encode_basestring_ascii, xs)) + "\n  ]" if xs else "[]"


def _numbers(xs: Sequence[float]) -> str:
    """A list of ints and floats as the value of a field of a top-level
    field's object, with ``json.dumps``'s ``NaN``, ``Infinity`` and
    ``-Infinity``: a number's repr holds no letter but an exponent's e, so
    the non-finite floats are the only "nan" and "inf" in the text."""
    text = ",\n      ".join(map(repr, xs))
    return f"[\n      {text}\n    ]".replace("nan", "NaN").replace("inf", "Infinity") if xs else "[]"
