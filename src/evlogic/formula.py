"""Propositional formulas: AST, parser, evaluation, atom extraction.

Connectives in text form are ``~`` ``&`` ``|`` ``->`` ``<->`` with the
usual precedence (negation binds tightest, biconditional loosest);
``&``/``|`` associate left, ``->``/``<->`` associate right.  The unicode
spellings ``¬ ∧ ∨ → ↔`` are accepted on input.  ``true`` and ``false``
are constants, never atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import FormulaSyntaxError, MissingAtom

ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
RESERVED = frozenset({"true", "false"})


class Formula:
    """Base class of the formula AST.  All nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not ATOM_NAME.fullmatch(self.name) or self.name in RESERVED:
            raise ValueError(f"invalid atom name {self.name!r}")


@dataclass(frozen=True)
class Const(Formula):
    value: bool


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
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


TRUE = Const(True)
FALSE = Const(False)

_TOKEN_SPELLINGS = [
    ("<->", "IFF"),
    ("->", "IMP"),
    ("↔", "IFF"),
    ("→", "IMP"),
    ("~", "NOT"),
    ("¬", "NOT"),
    ("&", "AND"),
    ("∧", "AND"),
    ("|", "OR"),
    ("∨", "OR"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
]


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int  # byte offset into the UTF-8 encoding of the input


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    byte_pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            byte_pos += len(ch.encode("utf-8"))
            continue
        for spelling, kind in _TOKEN_SPELLINGS:
            if text.startswith(spelling, pos):
                yield _Token(kind, spelling, byte_pos)
                pos += len(spelling)
                byte_pos += len(spelling.encode("utf-8"))
                break
        else:
            m = ATOM_NAME.match(text, pos)
            if m is None:
                raise FormulaSyntaxError(
                    f"unexpected character {ch!r}", byte_pos,
                    "an operator, a parenthesis, or an identifier")
            yield _Token("IDENT", m.group(), byte_pos)
            pos = m.end()
            byte_pos += len(m.group().encode("utf-8"))
    yield _Token("EOF", "", byte_pos)


# Deepest AST, and deepest nesting of parentheses, a formula may have.
# Walkers recurse once per AST level and the parser at most twice per
# level, well inside Python's default recursion limit.
MAX_DEPTH = 200

# Binary connectives by token kind: precedence (higher binds tighter),
# node class, and whether the connective associates to the right.
_BINARY = {
    "IFF": (1, Iff, True),
    "IMP": (2, Imp, True),
    "OR": (3, Or, False),
    "AND": (4, And, False),
}


class _Parser:
    """Precedence climbing.  Each parse method returns a formula with its
    depth, and ``level`` is the AST depth at which the parsed text sits."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.parens = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.current
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise FormulaSyntaxError(f"unexpected {what}", tok.offset, expected)

    def check_depth(self, depth: int, tok: _Token) -> int:
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested more than {MAX_DEPTH} levels deep", tok.offset,
                f"at most {MAX_DEPTH} levels of connectives or parentheses")
        return depth

    def parse_binary(self, min_prec: int, level: int) -> tuple[Formula, int]:
        left, depth = self.parse_unary(level)
        while (op := _BINARY.get(self.current.kind)) and op[0] >= min_prec:
            prec, node, right_assoc = op
            tok = self.advance()
            right, right_depth = self.parse_binary(
                prec if right_assoc else prec + 1, level + 1)
            left = node(left, right)
            depth = self.check_depth(max(depth, right_depth) + 1, tok)
        return left, depth

    def parse_unary(self, level: int) -> tuple[Formula, int]:
        tok = self.current
        self.check_depth(level, tok)
        if tok.kind == "NOT":
            self.advance()
            operand, depth = self.parse_unary(level + 1)
            return Not(operand), depth + 1
        if tok.kind == "LPAREN":
            self.parens = self.check_depth(self.parens + 1, tok)
            self.advance()
            inner, depth = self.parse_binary(1, level)
            if self.current.kind != "RPAREN":
                self.fail("a closing parenthesis")
            self.advance()
            self.parens -= 1
            return inner, depth
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "true":
                return TRUE, 1
            if tok.text == "false":
                return FALSE, 1
            return Atom(tok.text), 1
        self.fail("an identifier, a constant, '~', or '('")
        raise AssertionError("unreachable")


def parse(text: str) -> Formula:
    """Parse formula text into an AST, or raise FormulaSyntaxError,
    also when the AST or the parentheses nest deeper than MAX_DEPTH."""
    parser = _Parser(list(_tokenize(text)))
    result, _ = parser.parse_binary(1, 1)
    if parser.current.kind != "EOF":
        parser.fail("end of input or an operator")
    return result


def truth_table(f: Formula, columns: Mapping[str, int], ones: int) -> int:
    """Values of ``f`` under many assignments at once, one bit each.

    Bit t of ``columns[name]`` is the atom's value under assignment t,
    and ``ones`` has a bit set for every assignment; bit t of the result
    is the value of ``f`` under assignment t.
    """
    if isinstance(f, Atom):
        try:
            return columns[f.name]
        except KeyError:
            raise MissingAtom(f.name) from None
    if isinstance(f, Const):
        return ones if f.value else 0
    if isinstance(f, Not):
        return ones ^ truth_table(f.operand, columns, ones)
    if not isinstance(f, (And, Or, Imp, Iff)):
        raise TypeError(f"not a formula: {f!r}")
    left = truth_table(f.left, columns, ones)
    right = truth_table(f.right, columns, ones)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Imp):
        return (ones ^ left) | right
    return ones ^ left ^ right


def evaluate(f: Formula, assignment: Mapping[str, bool]) -> bool:
    """Classical two-valued evaluation under a total atom assignment."""
    bits = {name: 1 if value else 0 for name, value in assignment.items()}
    return truth_table(f, bits, 1) == 1


def atoms(f: Formula) -> tuple[str, ...]:
    """All atom names of ``f``, sorted lexicographically, without duplicates."""
    seen: set[str] = set()

    def walk(node: Formula):
        if isinstance(node, Atom):
            seen.add(node.name)
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or, Imp, Iff)):
            walk(node.left)
            walk(node.right)

    walk(f)
    return tuple(sorted(seen))


_BINARY_TEXT = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


def to_text(f: Formula) -> str:
    """Canonical ASCII rendering with full parenthesization.

    ``parse(to_text(f))`` is structurally equal to ``f``.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        return f"(~{to_text(f.operand)})"
    op = _BINARY_TEXT.get(type(f))
    if op is None:
        raise TypeError(f"not a formula: {f!r}")
    return f"({to_text(f.left)} {op} {to_text(f.right)})"
