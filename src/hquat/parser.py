"""Parser and canonical formatter for quaternionic function expressions.

The grammar is :data:`GRAMMAR`, in ASCII.  The binary operators, their text
and their precedence levels are the rows of :data:`hquat.functions.BINARY`
(+,- < *,/); all associate to the left and bind looser than ^, which binds
looser than unary -.  Exponents are non-negative integers only and implicit
multiplication is not supported ("2p" is an error).  The literals i, j, k
build quaternion-constant leaves; they are admitted for counterexample
workflows and mark the tree as carrying a non-real constant.  :func:`parse`
bounds its own recursion on nesting and rejects a tree deeper than
:data:`hquat.functions.MAX_DEPTH` levels, such as a long chain p+p+...+p,
with a ParseError; it reads the depth that each node records when built, as
:func:`format_expr` does through :func:`hquat.functions.check_depth`
(ValueError) for a tree built in code.

A unary minus folds into a real literal ("-2" is the constant -2); applied
to anything else it desugars to multiplication by -1, since the tree has no
negation node.  :func:`format_expr` emits canonical text with minimal
parentheses such that parsing it reproduces the tree structurally.

:func:`parse` returns one shared immutable tree per text: it keeps the trees
of the 16 texts of at most 4096 characters that it parsed most recently, so
a text asked about again (its series, radius, derivatives, holomorphy) is
not parsed or compiled again; its docstring bounds the memory they hold.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .functions import (
    BINARY,
    HEADS,
    MAX_DEPTH,
    FuncExpr,
    IntPow,
    Mul,
    P,
    QuatConst,
    RealConst,
    Var,
    check_depth,
)
from .quaternion import I, J, K

__all__ = [
    "ParseError",
    "format_expr",
    "parse",
]

# The grammar in EBNF, as ``hquat --help`` prints it.
GRAMMAR = """\
  expr   := term (("+"|"-") term)* ;
  term   := factor (("*"|"/") factor)* ;
  factor := unary ("^" uint)? ;
  unary  := "-" unary | atom ;
  atom   := "p" | real | "(" expr ")"
          | ("exp"|"sin"|"cos") "(" expr ")" | ("i"|"j"|"k") ;
  real   := decimal literal with optional fraction and exponent ;
"""

# One token per match; any other character is a "bad" one.
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()])|(?P<space>\s+)|(?P<bad>.)",
    re.ASCII | re.DOTALL,
)
_UINT_RE = re.compile(r"\d+\Z")

_UNIT_CONSTS = {"i": I, "j": J, "k": K}

# :func:`parse` keeps the trees of this many texts, each of at most this
# many characters.
MEMO_SIZE = 16
MEMO_MAX_CHARS = 4096

# Binary operator text -> node class; the class's BINARY row gives its level.
_BINARY_NODES = {op.text: node for node, op in BINARY.items()}
# Precedence levels above the binary ones: ^, unary minus, atoms.
_LEVEL_POW = 3
_LEVEL_NEG = 4
_LEVEL_ATOM = 5


class ParseError(ValueError):
    """Syntax error with the offset of the first offending character."""

    def __init__(self, position: int, expected: str, found: str):
        super().__init__(f"expected {expected}, found {found} at position {position}")
        self.position = position
        self.expected = expected
        self.found = found


class _Token(NamedTuple):
    kind: str  # "number", "name", one of "+-*/^()", or "end"
    text: str
    pos: int

    def describe(self) -> str:
        return "end of input" if self.kind == "end" else f"{self.text!r}"


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(m.start(), "a token", f"{text!r}")
        if kind != "space":
            tokens.append(_Token(text if kind == "op" else kind, text, m.start()))
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.idx = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, expected, tok.describe())
        return self.advance()

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(self.peek().pos, f"nesting depth <= {MAX_DEPTH}", "deeper nesting")

    def expr(self) -> FuncExpr:
        self._enter()
        try:
            return self.binary(1)
        finally:
            self.depth -= 1

    def binary(self, level: int) -> FuncExpr:
        """A left-associative chain of the operators of precedence ``level``
        over chains one level tighter, or over factors past the last level."""
        tighter = level + 1
        node = self.binary(tighter) if tighter < _LEVEL_POW else self.factor()
        while (cls := _BINARY_NODES.get(self.peek().kind)) is not None and BINARY[cls].level == level:
            self.advance()
            node = cls(node, self.binary(tighter) if tighter < _LEVEL_POW else self.factor())
        return node

    def factor(self) -> FuncExpr:
        node = self.unary()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not _UINT_RE.match(tok.text):
                raise ParseError(tok.pos, "a non-negative integer exponent", tok.describe())
            self.advance()
            node = IntPow(node, int(tok.text))
        return node

    def unary(self) -> FuncExpr:
        self._enter()
        try:
            if self.peek().kind == "-":
                self.advance()
                operand = self.unary()
                if isinstance(operand, RealConst):
                    return RealConst(-operand.value)
                return Mul(RealConst(-1.0), operand)
            return self.atom()
        finally:
            self.depth -= 1

    def atom(self) -> FuncExpr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return RealConst(float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok.kind == "name":
            if tok.text == "p":
                self.advance()
                return P
            for node, head in HEADS.items():
                if tok.text == head.text:
                    self.advance()
                    self.expect("(", "'('")
                    arg = self.expr()
                    self.expect(")", "')'")
                    return node(arg)
            if tok.text in _UNIT_CONSTS:
                self.advance()
                return QuatConst(_UNIT_CONSTS[tok.text])
        raise ParseError(tok.pos, "p, a number, exp/sin/cos, i/j/k or '('", tok.describe())


@functools.lru_cache(maxsize=MEMO_SIZE)
def _parsed(src: str) -> FuncExpr:
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.pos, "an operator or end of input", tok.describe())
    # A chain p+p+...+p is built in a loop, out of the recursion bound's sight.
    if node._depth > MAX_DEPTH:
        raise ParseError(tok.pos, f"tree depth <= {MAX_DEPTH}", f"depth {node._depth}")
    return node


def parse(src: str) -> FuncExpr:
    """Parse expression text into a function tree.

    A text of at most :data:`MEMO_MAX_CHARS` = 4096 characters gives the one
    tree kept for it among the :data:`MEMO_SIZE` = 16 texts parsed most
    recently, shared by every caller: a tree is immutable and keeps its
    compiled functions on its root, so a repeated text is neither
    tokenized, parsed nor compiled again.  A longer text is parsed afresh on
    each call, and an error is raised on every call and never kept.  A
    character adds at most two nodes (a unary minus before anything but a
    number adds a Mul and a RealConst), and a node holds about 120 B and,
    once both modes are compiled, about 0.9 KB in all, so a tree at the
    cutoff holds at most about 7 MB and the memo about 114 MB; a benchmark
    text of 70 characters holds under 20 KB."""
    if isinstance(src, str) and len(src) <= MEMO_MAX_CHARS:
        return _parsed(src)
    return _parsed.__wrapped__(src)


# ---------------------------------------------------------------------------
# Canonical formatting
# ---------------------------------------------------------------------------


def _is_neg_sugar(expr: FuncExpr) -> bool:
    return (
        isinstance(expr, Mul)
        and isinstance(expr.lhs, RealConst)
        and expr.lhs.value == -1.0
        and not isinstance(expr.rhs, RealConst)
    )


def _render(expr: FuncExpr, min_level: int) -> str:
    s, level = _render_raw(expr)
    return f"({s})" if level < min_level else s


def _render_raw(expr: FuncExpr) -> tuple[str, int]:
    """The canonical text of expr, unparenthesised, and its precedence level."""
    if isinstance(expr, Var):
        return "p", _LEVEL_ATOM
    if isinstance(expr, RealConst):
        return repr(expr.value), _LEVEL_ATOM
    if isinstance(expr, QuatConst):
        for name, unit in _UNIT_CONSTS.items():
            if expr.value == unit:
                return name, _LEVEL_ATOM
        raise ValueError(f"quaternion constant {expr.value} is not expressible (only i, j, k are)")
    if _is_neg_sugar(expr):
        return "-" + _render(expr.rhs, _LEVEL_NEG), _LEVEL_NEG
    op = BINARY.get(type(expr))
    if op is not None:
        return f"{_render(expr.lhs, op.level)}{op.text}{_render(expr.rhs, op.level + 1)}", op.level
    if isinstance(expr, IntPow):
        return f"{_render(expr.base, _LEVEL_NEG)}^{expr.exponent}", _LEVEL_POW
    head = HEADS.get(type(expr))
    if head is not None:
        return f"{head.text}({_render_raw(expr.arg)[0]})", _LEVEL_ATOM
    raise TypeError(f"cannot format node {expr!r}")


def format_expr(expr: FuncExpr) -> str:
    """Canonical text form; parse(format_expr(t)) is structurally t."""
    return _render_raw(check_depth(expr))[0]
