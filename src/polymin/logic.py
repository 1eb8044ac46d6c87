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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterator

from .errors import InputError

__all__ = [
    "Formula", "Top", "Atom", "Not", "And", "Or", "Eta", "Gamma", "Diamond",
    "TOP", "Script", "FormulaSyntaxError", "UndefinedIdentifierError", "UnprintableAtomError",
    "parse_formula", "parse_script", "format_formula",
    "is_eta_pure", "node_count",
    "operands", "postorder", "MAX_DEPTH",
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
    """Base class for formula AST nodes.  Nodes are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eta(Formula):
    """Conditional reach: holds at a point that satisfies the first argument
    and from which, moving along comparable points that keep satisfying the
    first argument, one final downward step lands on a point satisfying the
    second argument."""

    condition: Formula
    target: Formula


@dataclass(frozen=True)
class Gamma(Formula):
    """Like :class:`Eta` but the starting point itself is unconstrained."""

    condition: Formula
    target: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    """Proximity: some accessibility successor satisfies the argument."""

    operand: Formula


TOP = Top()


# Deepest formula the parser accepts.  Two things still recurse once per
# nesting level: the parser (about four frames) and the dataclass
# ``__eq__``/``__hash__``/``__repr__`` (two each, also on the twice as deep
# eta-to-gamma rewriting), so at this depth neither needs more than about
# 420 of Python's default 1000 frames.  ``postorder`` and its users
# (``is_eta_pure``, ``node_count``, ``format_formula``, the checker) never
# recurse, at any depth.
MAX_DEPTH = 100


def operands(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of ``f``, left to right."""
    match f:
        case Top() | Atom():
            return ()
        case Not(g) | Diamond(g):
            return (g,)
        case And(a, b) | Or(a, b) | Eta(a, b) | Gamma(a, b):
            return (a, b)
    raise TypeError(f"not a formula: {f!r}")


def postorder(f: Formula, done: Container[int] = ()) -> Iterator[Formula]:
    """Each distinct node of ``f`` whose id is not in ``done``, once, after its
    operands, left to right, from an explicit stack.  ``done`` is read at
    every step, so the caller may add ids to it while iterating; the walk
    does not enter a node found there."""
    seen: set[int] = set()
    stack: list = [f]
    while stack:
        g = stack.pop()
        if g is None:  # the node below it has had its operands walked
            g = stack.pop()
            seen.add(id(g))
            yield g
        elif id(g) not in seen and id(g) not in done:
            stack.append(g)
            stack.append(None)
            stack.extend(reversed(operands(g)))


def is_eta_pure(f: Formula) -> bool:
    """True iff the formula contains no Gamma and no Diamond node."""
    return not any(isinstance(g, (Gamma, Diamond)) for g in postorder(f))


def node_count(f: Formula) -> int:
    """The size of ``f`` written out as a tree, summed over its distinct nodes."""
    size: dict[int, int] = {}
    for g in postorder(f):
        size[id(g)] = 1 + sum(size[id(h)] for h in operands(g))
    return size[id(f)]


# -- pretty printing --------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = {"true", "eta", "gamma", "diamond", "ap", "let", "save", "load", "model"}
_LEVEL = {Or: 0, And: 1}  # binding levels; every other node binds at 2


def format_formula(f: Formula) -> str:
    """Render a formula; ``parse_formula`` inverts this exactly.  An atom
    name holding a ``"`` or a line break raises :class:`UnprintableAtomError`.
    Each distinct node is printed once, from :func:`postorder`."""
    text: dict[int, str] = {}

    def arg(g: Formula, level: int) -> str:  # bracketed if g binds looser than level
        return f"({text[id(g)]})" if _LEVEL.get(type(g), 2) < level else text[id(g)]

    for g in postorder(f):
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
        text[id(g)] = t
    return text[id(f)]


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
        # Every distinct node of the parse, keyed by its type and its
        # operands' ids (an atom by its name), and its depth by id: each one
        # stays alive here while the parse runs.
        self.nodes: dict[tuple, Formula] = {}
        self.depth: dict[int, int] = {}

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
        """The one node of this parse equal to ``f``, whose operands are such
        nodes: ``f`` itself when it is new and its depth, counted through
        ``let`` references, is at most MAX_DEPTH.  Equal text, repeated or
        bound once and used often, thus gives one shared object."""
        key = (Atom, f.name) if isinstance(f, Atom) else (type(f), *map(id, operands(f)))
        known = self.nodes.get(key)
        if known is not None:
            return known
        depth = 1 + max((self.depth[id(g)] for g in operands(f)), default=0)
        if depth > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        self.nodes[key] = f
        self.depth[id(f)] = depth
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
