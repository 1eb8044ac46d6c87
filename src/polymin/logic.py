"""Formula AST, concrete syntax and scripts.

Grammar (``!`` binds tighter than ``&``, which binds tighter than ``|``)::

    formula := "true" | ident | "ap(" string ")" | "!" formula
             | formula "&" formula | formula "|" formula
             | "eta(" formula "," formula ")" | "gamma(" formula "," formula ")"
             | "diamond(" formula ")" | "(" formula ")"
    script  := [ "load" "model" "=" string ]
               { "let" ident "=" formula }
               { "save" string formula }

The operators are spelled in one table, ``_INFIX`` and ``_CALLS``, which the
parser and the printer both read.  In a bare formula, identifiers denote
atoms.  In a script, identifiers must refer to earlier ``let`` bindings
(atoms are written ``ap("name")``) and bindings are expanded by
substitution at parse time.

The node constructors hash-cons: equal formulas, like a binding used often,
are one shared object.  Only the parser recurses per level.
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
                if len(args) != (n := len(cls.__match_args__)):
                    raise TypeError(f"{cls.__name__} takes {n} argument{'s' * (n != 1)}")
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
        # text pieces and nodes still to spell, from an explicit stack, so
        # any depth prints; the pieces are joined once
        pieces, stack = [], [self]
        while stack:
            g = stack.pop()
            if not isinstance(g, Formula):
                pieces.append(g)
                continue
            pieces.append(f"{type(g).__name__}(")
            stack.append(")")
            for k, name in reversed(tuple(enumerate(g.__match_args__))):
                value = getattr(g, name)
                stack.append(value if isinstance(value, Formula) else repr(value))
                stack.append(f"{', ' if k else ''}{name}=")
        return "".join(pieces)


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


# Deepest formula the parser accepts: the parser still recurses, five frames
# a level, so it needs no more than about 510 of Python's default 1000
# frames here.  Nothing else recurses, at any depth.
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


# -- concrete syntax ---------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# The spelling of each operator; the parser and the printer both read it.
# A call's arity is the operand count of its class.
_INFIX = {"|": Or, "&": And}
_CALLS = {"eta": Eta, "gamma": Gamma, "diamond": Diamond}
_SPELLING = {cls: word for word, cls in (_INFIX | _CALLS).items()}
_KEYWORDS = {*_CALLS, "true", "ap", "let", "save", "load", "model"}
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
            case And(a, b) | Or(a, b):
                level = _LEVEL[type(g)]
                t = f"{arg(a, level)} {_SPELLING[type(g)]} {arg(b, level + 1)}"
            case _:  # a call
                t = f"{_SPELLING[type(g)]}({','.join(arg(h, 0) for h in g.operands)})"
        text[g] = t
    return text[f]


_TOKEN = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"[^"\n]*")
      | (?P<punct>[()!&|,=])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``; only ``\\n`` starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Recursive descent over the tokens of ``text``: (kind, text, offset)
    triples, kind ident, string, punct or end.  A string keeps its quotes
    and the end token's text is empty, so a token's text alone tells
    punctuation, keywords and the end apart."""

    def __init__(self, text: str, env: dict[str, Formula] | None):
        self.text = text
        self.tokens = []
        for m in _TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0
        self.env = env  # None: bare identifiers are atoms
        self.nesting = 0

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def error(self, message: str, offset: int | None = None) -> FormulaSyntaxError:
        """A syntax error at ``offset``, by default the next token's."""
        if offset is None:
            offset = self.tokens[self.pos][2]
        return FormulaSyntaxError(message, *_line_column(self.text, offset))

    def node(self, f: Formula, offset: int) -> Formula:
        """``f``, built by the operator at ``offset``, whose depth, counted
        through ``let`` references, is at most MAX_DEPTH."""
        if f.depth > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}", offset)
        return f

    def expect(self, text: str) -> None:
        _, found, offset = self.next()
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}", offset)

    def string(self, message: str) -> str:
        """The text inside the next token, which must be a quoted string."""
        kind, text, offset = self.next()
        if kind != "string":
            raise self.error(message, offset)
        return text[1:-1]

    # formula := chain(0); chain(0) joins chain(1)s by the operators of
    # binding level 0 and chain(1) joins unaries by those of level 1
    def formula(self) -> Formula:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH}")
        node = self.chain(0)
        self.nesting -= 1
        return node

    def chain(self, level: int) -> Formula:
        node = self.unary() if level else self.chain(1)
        while (op := _INFIX.get(self.tokens[self.pos][1])) and _LEVEL[op] == level:
            offset = self.next()[2]
            node = self.node(op(node, self.unary() if level else self.chain(1)), offset)
        return node

    def unary(self) -> Formula:
        offsets = []  # of each "!" in the run
        while self.at("!"):
            offsets.append(self.next()[2])
        node = self.primary()
        for offset in reversed(offsets):
            node = self.node(Not(node), offset)
        return node

    def primary(self) -> Formula:
        kind, word, offset = self.next()
        if word == "(":
            node = self.formula()
            self.expect(")")
            return node
        if word == "true":
            return TOP
        if word == "ap":
            self.expect("(")
            name = self.string("expected quoted atom name")
            self.expect(")")
            return Atom(name)
        if cls := _CALLS.get(word):
            self.expect("(")
            operands = [self.formula()]
            for _ in cls.__match_args__[1:]:
                self.expect(",")
                operands.append(self.formula())
            self.expect(")")
            return self.node(cls(*operands), offset)
        if kind != "ident":
            message = f"expected a formula, found {word!r}" if word else "unexpected end of input"
            raise self.error(message, offset)
        if self.env is None:
            return Atom(word)
        if word not in self.env:
            line, column = _line_column(self.text, offset)
            raise UndefinedIdentifierError(
                f"undefined identifier {word!r} (line {line}, column {column})"
            )
        return self.env[word]


def parse_formula(text: str) -> Formula:
    """Parse one formula; bare identifiers denote atoms."""
    parser = _Parser(text, env=None)
    node = parser.formula()
    if not parser.at(""):
        raise parser.error(f"unexpected trailing input {parser.tokens[parser.pos][1]!r}")
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

    if parser.at("load"):
        parser.next()
        if not parser.at("model"):
            raise parser.error("expected 'model' after 'load'")
        parser.next()
        parser.expect("=")
        offset = parser.tokens[parser.pos][2]
        model_ref = parser.string("expected quoted model path")
        if "\0" in model_ref:
            raise parser.error("model path holds a NUL character", offset)

    bindings: dict[str, Formula] = parser.env
    while parser.at("let"):
        parser.next()
        kind, name, offset = parser.next()
        if kind != "ident" or name in _KEYWORDS:
            raise parser.error("expected binding name", offset)
        parser.expect("=")
        bindings[name] = parser.formula()

    saves: dict[str, Formula] = {}
    while parser.at("save"):
        parser.next()
        offset = parser.tokens[parser.pos][2]
        name = parser.string("expected quoted save name")
        if name in saves:
            raise parser.error(f"duplicate save name {name!r}", offset)
        saves[name] = parser.formula()

    if not parser.at(""):
        raise parser.error(
            f"expected 'let', 'save' or end of script, found {parser.tokens[parser.pos][1]!r}"
        )
    return Script(bindings=bindings, saves=saves, model_ref=model_ref)
