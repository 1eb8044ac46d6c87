"""Formula AST, concrete syntax and scripts.

Grammar (``!`` binds tighter than ``&``, which binds tighter than ``|``)::

    formula := "true" | ident | "ap(" string ")" | "!" formula
             | formula "&" formula | formula "|" formula
             | "eta(" formula "," formula ")" | "gamma(" formula "," formula ")"
             | "diamond(" formula ")" | "(" formula ")"
    script  := [ "load" "model" "=" string ]
               { "let" ident "=" formula }
               { "save" string formula }

In a bare formula, identifiers denote atoms.  In a script, identifiers must
refer to earlier ``let`` bindings (atoms are written ``ap("name")``) and
bindings are expanded by substitution at parse time.

The node constructors hash-cons: equal formulas, like a binding used often,
are one shared object.  Only the parser and ``repr`` recurse per level.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterator

from .errors import InputError

__all__ = [
    "Formula", "Top", "Atom", "Not", "And", "Or", "Eta", "Gamma", "Diamond",
    "TOP", "Script", "FormulaSyntaxError", "UndefinedIdentifierError", "UnprintableAtomError",
    "parse_formula", "parse_script", "format_formula",
    "is_eta_pure", "node_count",
    "postorder", "MAX_DEPTH",
]


class FormulaSyntaxError(InputError):
    """Concrete-syntax error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UndefinedIdentifierError(InputError):
    """A script formula refers to a name with no earlier binding."""


class UnprintableAtomError(InputError):
    """An atom name that the concrete syntax cannot spell: it holds a ``"``
    or a line break, which no string token may contain."""


class Formula:
    """Base class for formula AST nodes, immutable and hash-consed: the
    constructors return the live node of the same type and operands if there
    is one, so equal formulas are one object and ``==`` and ``hash`` are
    identity.  Each stores ``operands``, ``depth`` (1 at a leaf) and ``size``."""

    __slots__ = ("operands", "depth", "size", "__weakref__")

    def __new__(cls, *args):
        key = (cls, *args)
        with _LOCK:
            ref = _NODES.get(key)
            node = ref and ref()
            if node is None:
                if len(args) != len(cls.__match_args__):
                    raise TypeError(f"{cls.__name__} takes {len(cls.__match_args__)} arguments")
                node = object.__new__(cls)
                for name, value in zip(cls.__match_args__, args):
                    object.__setattr__(node, name, value)
                operands = () if cls is Atom else args
                object.__setattr__(node, "operands", operands)
                object.__setattr__(node, "depth", 1 + max((g.depth for g in operands), default=0))
                object.__setattr__(node, "size", 1 + sum(g.size for g in operands))
                _NODES[key] = ref = _Ref(node, _forget)
                ref.key = key
        return node

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: formula nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({args})"


class _Ref(weakref.ref):
    __slots__ = ("key",)


# The live nodes by key.  A dying node's callback takes the lock guarding
# get-or-insert (reentrant: unlinking an entry frees its key's operands, whose
# callbacks run inside) and unlinks the entry only if it still holds that
# reference, so no two live nodes are equal and none unlinks a newer one.
_NODES: dict[tuple, _Ref] = {}
_LOCK = threading.RLock()


def _forget(ref: _Ref, nodes=_NODES, lock=_LOCK) -> None:
    """Bound to the table and lock, which interpreter exit may unset first."""
    with lock:
        if nodes.get(ref.key) is ref:
            del nodes[ref.key]


class Top(Formula):
    __slots__ = __match_args__ = ()


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)


class Not(Formula):
    __slots__ = __match_args__ = ("operand",)


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Eta(Formula):
    """Conditional reach: holds at a point that satisfies the first argument
    and from which, moving along comparable points that keep satisfying the
    first argument, one final downward step lands on a point satisfying the
    second argument."""

    __slots__ = __match_args__ = ("condition", "target")


class Gamma(Formula):
    """Like :class:`Eta` but the starting point itself is unconstrained."""

    __slots__ = __match_args__ = ("condition", "target")


class Diamond(Formula):
    """Proximity: some accessibility successor satisfies the argument."""

    __slots__ = __match_args__ = ("operand",)


TOP = Top()


# Deepest formula the parser accepts: the parser and ``repr`` still recurse,
# about four frames a level, so neither needs more than about 420 of Python's
# default 1000 frames here.  Nothing else recurses, at any depth.
MAX_DEPTH = 100


def postorder(f: Formula, done: Container[Formula] = ()) -> Iterator[Formula]:
    """Each distinct node of ``f`` not in ``done``, once, after its operands,
    left to right, from an explicit stack.  ``done`` is read at every step,
    so the caller may add nodes to it while iterating; the walk does not
    enter a node found there."""
    seen: set[Formula] = set()
    stack: list = [f]
    while stack:
        g = stack.pop()
        if g is None:  # the node below it has had its operands walked
            g = stack.pop()
            seen.add(g)
            yield g
        elif g not in seen and g not in done:
            stack.append(g)
            stack.append(None)
            stack.extend(reversed(g.operands))


def is_eta_pure(f: Formula) -> bool:
    """True iff the formula contains no Gamma and no Diamond node."""
    return not any(isinstance(g, (Gamma, Diamond)) for g in postorder(f))


def node_count(f: Formula) -> int:
    """The size of ``f`` written out as a tree."""
    return f.size


# -- pretty printing --------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = {"true", "eta", "gamma", "diamond", "ap", "let", "save", "load", "model"}
_LEVEL = {Or: 0, And: 1}  # binding levels; every other node binds at 2


def format_formula(f: Formula) -> str:
    """Render a formula; ``parse_formula`` inverts this exactly.  An atom
    name holding a ``"`` or a line break raises :class:`UnprintableAtomError`.
    Each distinct node is printed once, from :func:`postorder`, and its text
    is dropped once its last parent has read it."""
    nodes = list(postorder(f))
    parents = Counter(h for g in nodes for h in g.operands)
    text: dict[Formula, str] = {}

    def arg(g: Formula, level: int) -> str:  # bracketed if g binds looser than level
        t = text[g]
        parents[g] -= 1
        if not parents[g]:
            del text[g]
        return f"({t})" if _LEVEL.get(type(g), 2) < level else t

    for g in nodes:
        match g:
            case Top():
                t = "true"
            case Atom(name):
                t = name if _IDENT.match(name) and name not in _KEYWORDS else f'ap("{name}")'
                if '"' in name or "\n" in name:
                    raise UnprintableAtomError(
                        f"atom name {name!r} cannot be written as ap(\"...\")"
                    )
            case Not(h):
                t = "!" + arg(h, 2)
            case And(a, b):
                t = f"{arg(a, 1)} & {arg(b, 2)}"
            case Or(a, b):
                t = f"{arg(a, 0)} | {arg(b, 1)}"
            case Eta(a, b):
                t = f"eta({arg(a, 0)},{arg(b, 0)})"
            case Gamma(a, b):
                t = f"gamma({arg(a, 0)},{arg(b, 0)})"
            case Diamond(h):
                t = f"diamond({arg(h, 0)})"
        text[g] = t
    return text[f]


# -- lexer / parser ---------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"[^"\n]*")
      | (?P<punct>[()!&|,=])
    """,
    re.VERBOSE,
)


# A token is a tuple (kind, value, line, column); kind is ident, string,
# punct or end.
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, env: dict[str, Formula] | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env = env  # None: bare identifiers are atoms
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> FormulaSyntaxError:
        _, _, line, column = self.peek()
        return FormulaSyntaxError(message, line, column)

    def node(self, f: Formula) -> Formula:
        """``f``, whose depth, counted through ``let`` references, is at most MAX_DEPTH."""
        if f.depth > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        return f

    def expect_punct(self, value: str) -> None:
        kind, found, line, column = self.next()
        if kind != "punct" or found != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {found!r}", line, column)

    def string(self, message: str) -> str:
        """The text inside the next token, which must be a quoted string."""
        kind, value, line, column = self.next()
        if kind != "string":
            raise FormulaSyntaxError(message, line, column)
        return value[1:-1]

    def at_punct(self, value: str) -> bool:
        kind, found, _, _ = self.peek()
        return kind == "punct" and found == value

    def at_ident(self, word: str | None = None) -> bool:
        kind, value, _, _ = self.peek()
        return kind == "ident" and (word is None or value == word)

    # formula := or-chain
    def formula(self) -> Formula:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        node = self.and_chain()
        while self.at_punct("|"):
            self.next()
            node = self.node(Or(node, self.and_chain()))
        self.nesting -= 1
        return node

    def and_chain(self) -> Formula:
        node = self.unary()
        while self.at_punct("&"):
            self.next()
            node = self.node(And(node, self.unary()))
        return node

    def unary(self) -> Formula:
        negations = 0
        while self.at_punct("!"):
            self.next()
            negations += 1
        node = self.primary()
        for _ in range(negations):
            node = self.node(Not(node))
        return node

    def primary(self) -> Formula:
        kind, word, line, column = self.peek()
        if kind == "punct" and word == "(":
            self.next()
            node = self.formula()
            self.expect_punct(")")
            return node
        if kind == "ident":
            if word == "true":
                self.next()
                return self.node(TOP)
            if word == "ap":
                self.next()
                self.expect_punct("(")
                name = self.string("expected quoted atom name")
                self.expect_punct(")")
                return self.node(Atom(name))
            if word in ("eta", "gamma"):
                self.next()
                self.expect_punct("(")
                a = self.formula()
                self.expect_punct(",")
                b = self.formula()
                self.expect_punct(")")
                return self.node(Eta(a, b) if word == "eta" else Gamma(a, b))
            if word == "diamond":
                self.next()
                self.expect_punct("(")
                a = self.formula()
                self.expect_punct(")")
                return self.node(Diamond(a))
            self.next()
            if self.env is None:
                return self.node(Atom(word))
            if word not in self.env:
                raise UndefinedIdentifierError(
                    f"undefined identifier {word!r} (line {line}, column {column})"
                )
            return self.env[word]
        raise self.error(f"expected a formula, found {word!r}" if word else "unexpected end of input")


def parse_formula(text: str) -> Formula:
    """Parse one formula; bare identifiers denote atoms."""
    parser = _Parser(text, env=None)
    node = parser.formula()
    kind, value, line, column = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {value!r}", line, column)
    return node


@dataclass(frozen=True)
class Script:
    """A parsed script: resolved let bindings plus save directives.

    ``saves`` maps each save name to its fully substituted formula, in
    directive order.  ``model_ref`` carries the optional leading
    ``load model = "<path>"`` value for the CLI to use.
    """

    bindings: dict[str, Formula]
    saves: dict[str, Formula]
    model_ref: str | None = None


def parse_script(text: str) -> Script:
    """Parse a script of let bindings followed by save directives."""
    parser = _Parser(text, env={})
    model_ref = None

    if parser.at_ident("load"):
        parser.next()
        kind, value, line, column = parser.next()
        if not (kind == "ident" and value == "model"):
            raise FormulaSyntaxError("expected 'model' after 'load'", line, column)
        parser.expect_punct("=")
        _, _, line, column = parser.peek()
        model_ref = parser.string("expected quoted model path")
        if "\0" in model_ref:
            raise FormulaSyntaxError("model path holds a NUL character", line, column)

    bindings: dict[str, Formula] = parser.env
    while parser.at_ident("let"):
        parser.next()
        kind, name, line, column = parser.next()
        if kind != "ident" or name in _KEYWORDS:
            raise FormulaSyntaxError("expected binding name", line, column)
        parser.expect_punct("=")
        bindings[name] = parser.formula()

    saves: dict[str, Formula] = {}
    while parser.at_ident("save"):
        parser.next()
        _, _, line, column = parser.peek()
        name = parser.string("expected quoted save name")
        if name in saves:
            raise FormulaSyntaxError(f"duplicate save name {name!r}", line, column)
        saves[name] = parser.formula()

    kind, value, line, column = parser.peek()
    if kind != "end":
        raise FormulaSyntaxError(
            f"expected 'let', 'save' or end of script, found {value!r}", line, column
        )
    return Script(bindings=bindings, saves=saves, model_ref=model_ref)
