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

from .errors import InputError

__all__ = [
    "Formula", "Top", "Atom", "Not", "And", "Or", "Eta", "Gamma", "Diamond",
    "TOP", "Script", "FormulaSyntaxError", "UndefinedIdentifierError",
    "EtaPurityError", "parse_formula", "parse_script", "format_formula",
    "is_eta_pure", "node_count",
    "atoms_of", "operands", "MAX_DEPTH",
]


class FormulaSyntaxError(InputError):
    """Concrete-syntax error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UndefinedIdentifierError(InputError):
    """A script formula refers to a name with no earlier binding."""


class EtaPurityError(InputError):
    """An operation restricted to eta-pure formulas received one that is not."""


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


# Deepest formula the parser accepts.  The parser recurses about four frames
# per nesting level and hashing or comparing formulas two per level, also on
# the twice as deep eta-to-gamma rewriting, so at this depth none of them
# needs more than about 420 of Python's default 1000 frames.
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


def is_eta_pure(f: Formula) -> bool:
    """True iff the formula contains no Gamma and no Diamond node."""
    return not isinstance(f, (Gamma, Diamond)) and all(map(is_eta_pure, operands(f)))


def node_count(f: Formula) -> int:
    return 1 + sum(map(node_count, operands(f)))


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    return frozenset().union(*map(atoms_of, operands(f)))


# -- pretty printing --------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = {"true", "eta", "gamma", "diamond", "ap", "let", "save", "load", "model"}


def format_formula(f: Formula) -> str:
    """Render a formula; ``parse_formula`` inverts this exactly."""
    return _fmt(f, 0)


def _fmt(f: Formula, parent_level: int) -> str:
    # levels: 0 = or, 1 = and, 2 = unary/primary
    match f:
        case Top():
            return "true"
        case Atom(name):
            if _IDENT.match(name) and name not in _KEYWORDS:
                return name
            return f'ap("{name}")'
        case Not(g):
            return "!" + _fmt(g, 2)
        case And(a, b):
            text = f"{_fmt(a, 1)} & {_fmt(b, 2)}"
            return f"({text})" if parent_level > 1 else text
        case Or(a, b):
            text = f"{_fmt(a, 0)} | {_fmt(b, 1)}"
            return f"({text})" if parent_level > 0 else text
        case Eta(a, b):
            return f"eta({_fmt(a, 0)},{_fmt(b, 0)})"
        case Gamma(a, b):
            return f"gamma({_fmt(a, 0)},{_fmt(b, 0)})"
        case Diamond(g):
            return f"diamond({_fmt(g, 0)})"
    raise TypeError(f"not a formula: {f!r}")


# -- lexer / parser ---------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"[^"\n]*")
      | (?P<punct>[()!&|,=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | string | punct | end
    value: str
    line: int
    column: int


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
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, env: dict[str, Formula] | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env = env  # None: bare identifiers are atoms
        self.nesting = 0
        # Depth of every node built so far, by id: each such node stays alive
        # in the tree or in the bindings while the parse runs.
        self.depth: dict[int, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> FormulaSyntaxError:
        tok = self.peek()
        return FormulaSyntaxError(message, tok.line, tok.column)

    def node(self, f: Formula) -> Formula:
        """``f``, once its depth, counted through ``let`` references, is
        known to be at most MAX_DEPTH."""
        depth = 1 + max((self.depth[id(g)] for g in operands(f)), default=0)
        if depth > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        self.depth[id(f)] = depth
        return f

    def expect_punct(self, value: str) -> None:
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            raise FormulaSyntaxError(
                f"expected {value!r}, found {tok.value!r}", tok.line, tok.column
            )

    def at_ident(self, word: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (word is None or tok.value == word)

    # formula := or-chain
    def formula(self) -> Formula:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        node = self.and_chain()
        while self.peek().kind == "punct" and self.peek().value == "|":
            self.next()
            node = self.node(Or(node, self.and_chain()))
        self.nesting -= 1
        return node

    def and_chain(self) -> Formula:
        node = self.unary()
        while self.peek().kind == "punct" and self.peek().value == "&":
            self.next()
            node = self.node(And(node, self.unary()))
        return node

    def unary(self) -> Formula:
        negations = 0
        while self.peek().kind == "punct" and self.peek().value == "!":
            self.next()
            negations += 1
        node = self.primary()
        for _ in range(negations):
            node = self.node(Not(node))
        return node

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "(":
            self.next()
            node = self.formula()
            self.expect_punct(")")
            return node
        if tok.kind == "ident":
            word = tok.value
            if word == "true":
                self.next()
                return self.node(TOP)
            if word == "ap":
                self.next()
                self.expect_punct("(")
                s = self.next()
                if s.kind != "string":
                    raise FormulaSyntaxError("expected quoted atom name", s.line, s.column)
                self.expect_punct(")")
                return self.node(Atom(s.value[1:-1]))
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
                    f"undefined identifier {word!r} (line {tok.line}, column {tok.column})"
                )
            return self.env[word]
        raise self.error(f"expected a formula, found {tok.value!r}" if tok.value else "unexpected end of input")


def parse_formula(text: str) -> Formula:
    """Parse one formula; bare identifiers denote atoms."""
    parser = _Parser(text, env=None)
    node = parser.formula()
    tok = parser.peek()
    if tok.kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)
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
        tok = parser.next()
        if not (tok.kind == "ident" and tok.value == "model"):
            raise FormulaSyntaxError("expected 'model' after 'load'", tok.line, tok.column)
        parser.expect_punct("=")
        s = parser.next()
        if s.kind != "string":
            raise FormulaSyntaxError("expected quoted model path", s.line, s.column)
        model_ref = s.value[1:-1]

    bindings: dict[str, Formula] = parser.env
    while parser.at_ident("let"):
        parser.next()
        name_tok = parser.next()
        if name_tok.kind != "ident" or name_tok.value in _KEYWORDS:
            raise FormulaSyntaxError("expected binding name", name_tok.line, name_tok.column)
        parser.expect_punct("=")
        bindings[name_tok.value] = parser.formula()

    saves: dict[str, Formula] = {}
    while parser.at_ident("save"):
        parser.next()
        s = parser.next()
        if s.kind != "string":
            raise FormulaSyntaxError("expected quoted save name", s.line, s.column)
        name = s.value[1:-1]
        if name in saves:
            raise FormulaSyntaxError(f"duplicate save name {name!r}", s.line, s.column)
        saves[name] = parser.formula()

    tok = parser.peek()
    if tok.kind != "end":
        raise FormulaSyntaxError(
            f"expected 'let', 'save' or end of script, found {tok.value!r}", tok.line, tok.column
        )
    return Script(bindings=bindings, saves=saves, model_ref=model_ref)
