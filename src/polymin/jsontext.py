"""The text of every JSON file polymin writes but ``minimize``'s two.

``json_text(value)`` is what ``json.dumps(value, indent=...)`` writes with an
indent of 2, plus a newline, byte for byte, for values built of dicts with
str keys, lists, str, int, bool and float; non-ASCII characters are escaped.
Given an indent, ``json.dumps`` runs the standard library's pure-Python
encoder, which is several times slower and leaves a cycle of closures for the
collector on every call.  Strings here go through the C
``encode_basestring_ascii``, and a list of scalars of one type is joined in
one pass, without a recursive call per item."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

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
