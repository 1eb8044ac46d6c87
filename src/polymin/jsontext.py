"""The text of polymin's JSON files, each ``json.dumps(payload, indent=2)``
plus a newline, byte for byte, so ASCII throughout.

The command outputs are written straight from their tables, with no payload
made: :func:`results_bytes` joins each save's answer to ``check``, one JSON
word a cell from :func:`answer_words`; :func:`minimize_texts` and
:func:`poset_text` fill one template per class or element and per pair.

``json_text(value)`` writes any value built of dicts with str keys, lists,
str, int, bool and float, for model documents.  Given an indent,
``json.dumps`` runs the standard library's pure-Python encoder, which is
several times slower and leaves a cycle of closures for the collector on
every call.  Strings here go through the C ``encode_basestring_ascii``, and a
list of scalars of one type is joined in one pass, without a recursive call
per item."""

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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
}


def json_text(value) -> str:
    """``json.dumps(value, indent=...)`` with an indent of 2, plus a newline."""
    out: list[str] = []
    _write(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, pad: str, out: list[str]) -> None:
    """Append the text of ``value``, an item whose enclosing line breaks with
    ``pad``, to ``out``; the pieces are joined once, by :func:`json_text`."""
    kind = type(value)
    if kind is dict and value:
        inner = pad + "  "
        opener = "{"
        for k, v in value.items():
            out.append(opener + inner + encode_basestring_ascii(k) + ": ")
            _write(v, inner, out)
            opener = ","
        out.append(pad + "}")
    elif kind is list and value:
        inner = pad + "  "
        kinds = set(map(type, value))
        kind = kinds.pop() if len(kinds) == 1 else list
        if kind in _SCALARS:
            out += ("[", inner, ("," + inner).join(map(_SCALARS[kind], value)), pad, "]")
        else:
            opener = "["
            for v in value:
                out.append(opener + inner)
                _write(v, inner, out)
                opener = ","
            out.append(pad + "]")
    elif kind is dict:
        out.append("{}")
    elif kind is list:
        out.append("[]")
    else:
        out.append(_SCALARS[kind](value))
