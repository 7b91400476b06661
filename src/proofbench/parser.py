"""Concrete syntax: parse and render formulas and terms.

One operator table, ``_INFIX``, drives both directions. Binding power,
loosest first:

    1   ->                    right-associative
    2   <->                   left-associative
    3   \\/                    left-associative
    4   /\\                    left-associative
    5   ~F, (Ax1)F, (Ex1)F    prefixes (``_PREFIX``)
    6   =, <                  non-associative
    7   +                     left-associative
    8   *                     left-associative

The operands of the connectives and prefixes are formulas; the operands of
``=``, ``<``, ``+`` and ``*`` are terms. The primaries are ``(...)``,
``S(t)``, the variables ``x1, x2, ...`` (ids start at 1) and the constants
``0`` and ``1``. ``#`` starts a comment running to end of line.

:func:`parse` is a single-pass precedence climber (Pratt, *Top Down Operator
Precedence*, 1973): one loop reads a primary or prefix, then every infix
operator that binds at least as tightly as its caller asked for. A
parenthesized group may hold a term or a formula; its sort is checked only
where an operator or the caller uses it, so ``(`` never backtracks. Text
that nests more than :data:`MAX_NESTING` deep is a :class:`ParseError`.

:func:`render` reads the same table and produces a form that :func:`parse`
reads back to an equal tree, within :data:`MAX_NESTING`. It drops every
parenthesis the table makes redundant except around an atom under a prefix
or on the right of ``/\\``, which it keeps: ``0 = 0 /\\ (1 = 1)``.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .syntax import (
    And,
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Term,
    Var,
)

#: The most open prefixes, parentheses, ``S(`` and right operands, and the
#: greatest tree height counting term levels, that parsed text may have. The
#: kernel walkers recurse up to twice per level, below Python's default limit of 1000.
MAX_NESTING = 400


class ParseError(ValueError):
    """Raised on malformed input, with a character position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Op(NamedTuple):
    glyph: str
    power: int  # binding power: higher binds tighter
    right: bool  # right-associative
    sort: type  # the sort of both operands
    build: Callable


_PREFIX = 5  # ~F, (Ax1)F, (Ex1)F: the body takes =, <, + and *, and stops at /\

# token kind -> operator; '=' and '<' chain into a formula operand, which
# their sort rejects, so they need no associativity of their own
_INFIX = {
    "imp": _Op("->", 1, True, Formula, Implies),
    "iff": _Op("<->", 2, False, Formula, Iff),
    "or": _Op("\\/", 3, False, Formula, Or),
    "and": _Op("/\\", 4, False, Formula, And),
    "eq": _Op("=", 6, False, Term, lambda a, b: Atom("=", (a, b))),
    "lt": _Op("<", 6, False, Term, lambda a, b: Atom("<", (a, b))),
    "plus": _Op("+", 7, False, Term, lambda a, b: App("+", (a, b))),
    "star": _Op("*", 8, False, Term, lambda a, b: App("*", (a, b))),
}

_BINDERS = {"A": Forall, "E": Exists}

# whitespace and comments are skipped before each token; ``bad`` takes any
# other character, and ``end`` matches once, at the end of the input
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (?:
      (?P<var>x[0-9]+)
    | (?P<const>[01])
    | (?P<name>[SAE])
    | (?P<iff><->)
    | (?P<imp>->)
    | (?P<and>/\\)
    | (?P<or>\\/)
    | (?P<not>~)
    | (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<plus>\+)
    | (?P<star>\*)
    | (?P<eq>=)
    | (?P<lt><)
    | (?P<end>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


def _unexpected(tok: tuple[str, str, int], wanted: str) -> ParseError:
    kind, text, pos = tok
    if kind == "bad":
        return ParseError(f"unexpected character {text!r}", pos)
    got = "end of input" if kind == "end" else repr(text)
    return ParseError(f"expected {wanted}, got {got}", pos)


def _sorted(node, sort: type, pos: int, who: str):
    if not isinstance(node, sort):
        raise ParseError(f"{who} needs a {sort.__name__.lower()}", pos)
    return node


def _too_deep(pos: int) -> ParseError:
    return ParseError(f"input nests more than {MAX_NESTING} deep", pos)


def _var(text: str, pos: int) -> Var:
    try:
        return Var(int(text[1:]))
    except ValueError:  # x0, or more digits than int() reads
        raise ParseError(f"bad variable {text[:12]!r}: ids start at x1", pos) from None


class _Parser:
    __slots__ = ("toks", "i", "depth", "height")

    def __init__(self, text: str) -> None:
        # (kind, text, pos) triples; the last is always the end match
        self.toks = [
            (m.lastgroup, m.group(m.lastindex), m.start(m.lastindex))
            for m in _TOKEN_RE.finditer(text)
        ]
        self.i = 0
        self.depth = 0  # open expr frames

    def expect(self, kind: str, wanted: str) -> None:
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise _unexpected(tok, wanted)
        self.i += 1

    def expr(self, min_power: int) -> Formula | Term:
        """The expression at the cursor, up to the first operator looser than
        ``min_power``; leaves its height, counting term levels, in ``self.height``."""
        toks = self.toks
        kind, text, pos = toks[self.i]
        self.i += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(pos)
        self.height = 0  # a prefix or S adds one to its operand's height
        if kind == "var":
            left = _var(text, pos)
        elif kind == "const":
            left = Const(text)
        elif kind == "not":
            left = Not(_sorted(self.expr(_PREFIX), Formula, pos, "~"))
            self.height += 1
        elif kind == "name" and text == "S":
            self.expect("lpar", "'(' after S")
            arg = _sorted(self.expr(0), Term, pos, "S")
            self.expect("rpar", "')'")
            left = App("S", (arg,))
            self.height += 1
        elif kind == "lpar":
            # the name test first: the end match keeps the next two in range
            binder = _BINDERS.get(toks[self.i][1])
            if binder and toks[self.i + 1][0] == "var" and toks[self.i + 2][0] == "rpar":
                var = _var(*toks[self.i + 1][1:])
                self.i += 3
                body = _sorted(self.expr(_PREFIX), Formula, pos, "a quantifier")
                left = binder(var.id, body)
                self.height += 1
            else:
                left = self.expr(0)
                self.expect("rpar", "')'")
        else:
            raise _unexpected((kind, text, pos), "a term or a formula")
        height = self.height
        while True:
            kind, _, pos = toks[self.i]
            if height > MAX_NESTING:
                raise _too_deep(pos)
            op = _INFIX.get(kind)
            if op is None or op.power < min_power:
                self.depth -= 1
                self.height = height
                return left
            self.i += 1
            _sorted(left, op.sort, pos, op.glyph)
            # a right-associative operator takes its own kind on the right
            right = self.expr(op.power + (not op.right))
            left = op.build(left, _sorted(right, op.sort, pos, op.glyph))
            height = max(height, self.height) + 1


def _parse(text: str, sort: type):
    p = _Parser(text)
    node = p.expr(0)
    if p.toks[p.i][0] != "end":
        raise _unexpected(p.toks[p.i], "end of input")
    return _sorted(node, sort, 0, "the input")


def parse(text: str) -> Formula:
    """Parse ``text`` as a formula; raises :class:`ParseError` on junk."""
    return _parse(text, Formula)


def parse_memo(text: str, memo: dict[str, Formula]) -> Formula:
    """``parse(text)``, kept in ``memo``: each distinct text is parsed once per memo."""
    f = memo.get(text)
    if f is None:
        f = memo[text] = parse(text)
    return f


def parse_term(text: str) -> Term:
    """Parse ``text`` as a term."""
    return _parse(text, Term)


# -- rendering ---------------------------------------------------------

# render's view of the table, keyed by connective class or by the Atom.pred
# or App.func symbol: (" glyph ", power, left operand ctx, right operand ctx).
# The operand on the associative side may bind as loosely as the operator.
_BY_NODE = {
    op.glyph if op.sort is Term else op.build: (
        f" {op.glyph} ",
        op.power,
        op.power + op.right,
        op.power + (not op.right),
    )
    for op in _INFIX.values()
}


def _store(node, text: str) -> str:
    # a node's text without context, filled on first render; two threads may
    # both fill it, with the same string
    object.__setattr__(node, "_text", text)
    return text


def _term(t: Term, ctx: int) -> str:
    kind = type(t)
    if kind is App:
        if t.func == "S":
            return t._text or _store(t, f"S({_term(t.args[0], 0)})")
        glyph, power, left_ctx, right_ctx = _BY_NODE[t.func]
        s = t._text or _store(t, _term(t.args[0], left_ctx) + glyph + _term(t.args[1], right_ctx))
        return f"({s})" if ctx > power else s
    if kind is Var:
        return f"x{t.id}"
    if kind is Const:
        return t.name
    raise TypeError(f"not a term: {t!r}")


def render_term(t: Term) -> str:
    return _term(t, 0)


def _render(f: Formula, ctx: int) -> str:
    kind = type(f)
    op = _BY_NODE.get(kind)
    if op is not None:
        glyph, power, left_ctx, right_ctx = op
        s = f._text or _store(f, _render(f.left, left_ctx) + glyph + _render(f.right, right_ctx))
        return f"({s})" if ctx > power else s
    if kind is Atom:
        glyph, _, left_ctx, right_ctx = _BY_NODE[f.pred]
        s = f._text or _store(f, _term(f.args[0], left_ctx) + glyph + _term(f.args[1], right_ctx))
        # parenthesized where a prefix's body goes, although parse needs no
        # parens there: render is the search pool's sort key, so its bytes stay
        return f"({s})" if ctx >= _PREFIX else s
    if kind is Not:
        return f._text or _store(f, "~" + _render(f.body, _PREFIX))
    if kind is Forall:
        return f._text or _store(f, f"(Ax{f.var})" + _render(f.body, _PREFIX))
    if kind is Exists:
        return f._text or _store(f, f"(Ex{f.var})" + _render(f.body, _PREFIX))
    raise TypeError(f"not a formula: {f!r}")


def render(f: Formula) -> str:
    """Concrete syntax that reads back: ``parse(render(f)) == f``."""
    return _render(f, 0)
