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
that opens more than :data:`MAX_NESTING` frames at once (``syntax``'s cap,
re-exported) is a :class:`ParseError` at the token that opens one too many.
How deep the tree nests is the kernel's to check: a node its constructor
refuses past the cap is a :class:`ParseError` at the token after its last
operand.

:func:`render` reads the same table and produces a form that :func:`parse`
reads back to an equal tree, where that form opens at most
:data:`MAX_NESTING` frames at once. It drops every parenthesis the table
makes redundant except around an atom under a prefix or on the right of
``/\\``, which it keeps: ``0 = 0 /\\ (1 = 1)``. :func:`render_width` is
the length of that text, measured once per distinct node: a formula that
shares subtrees can have text exponentially longer than its node count.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .syntax import (
    MAX_NESTING,
    And,
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    NestingError,
    Not,
    Or,
    Term,
    Var,
)


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
    __slots__ = ("text", "tok", "at", "depth")

    def __init__(self, text: str) -> None:
        self.text = text
        self.at = 0  # where the token after ``tok`` may start
        self.depth = 0  # open expr frames
        self.advance()

    def advance(self) -> None:
        """Read the next token into ``tok``: a (kind, text, pos) triple."""
        m = _TOKEN_RE.match(self.text, self.at)
        g = m.lastindex
        self.tok = (m.lastgroup, m.group(g), m.start(g))
        self.at = m.end()

    def expect(self, kind: str, wanted: str) -> None:
        if self.tok[0] != kind:
            raise _unexpected(self.tok, wanted)
        self.advance()

    def binder(self) -> tuple[type, Var] | None:
        """After a '(': the quantifier and variable of ``Ax1)`` or ``Ex1)``,
        read; or None, with nothing read."""
        quantifier = _BINDERS.get(self.tok[1])
        if quantifier is None:
            return None
        mark = self.tok, self.at
        self.advance()
        var = self.tok
        self.advance()
        if var[0] == "var" and self.tok[0] == "rpar":
            self.advance()
            return quantifier, _var(var[1], var[2])
        self.tok, self.at = mark
        return None

    def expr(self, min_power: int) -> Formula | Term:
        """The expression at the cursor, up to the first operator looser than
        ``min_power``."""
        kind, text, pos = self.tok
        self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _too_deep(pos)
        if kind == "var":
            left = _var(text, pos)
        elif kind == "const":
            left = Const(text)
        elif kind == "not":
            left = Not(_sorted(self.expr(_PREFIX), Formula, pos, "~"))
        elif kind == "name" and text == "S":
            self.expect("lpar", "'(' after S")
            arg = _sorted(self.expr(0), Term, pos, "S")
            self.expect("rpar", "')'")
            left = App("S", (arg,))
        elif kind == "lpar":
            prefix = self.binder()
            if prefix is not None:
                quantifier, var = prefix
                body = _sorted(self.expr(_PREFIX), Formula, pos, "a quantifier")
                left = quantifier(var.id, body)
            else:
                left = self.expr(0)
                self.expect("rpar", "')'")
        else:
            raise _unexpected((kind, text, pos), "a term or a formula")
        while True:
            kind, _, pos = self.tok
            op = _INFIX.get(kind)
            if op is None or op.power < min_power:
                self.depth -= 1
                return left
            self.advance()
            _sorted(left, op.sort, pos, op.glyph)
            # a right-associative operator takes its own kind on the right
            right = self.expr(op.power + (not op.right))
            left = op.build(left, _sorted(right, op.sort, pos, op.glyph))


def _parse(text: str, sort: type):
    p = _Parser(text)
    try:
        node = p.expr(0)
    except NestingError:  # each node is built just after its last operand is read
        raise _too_deep(p.tok[2]) from None
    if p.tok[0] != "end":
        raise _unexpected(p.tok, "end of input")
    return _sorted(node, sort, 0, "the input")


def parse(text: str) -> Formula:
    """Parse ``text`` as a formula; raises :class:`ParseError` on junk."""
    return _parse(text, Formula)


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
    return t._text or _term(t, 0)


def _render(f: Formula, ctx: int) -> str:
    kind = type(f)
    op = _BY_NODE.get(kind)
    if op is not None:
        glyph, power, left_ctx, right_ctx = op
        s = f._text or _store(f, _render(f.left, left_ctx) + glyph + _render(f.right, right_ctx))
        return f"({s})" if ctx > power else s
    if kind is Atom:
        s = f._text or _atom(f)
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


def _atom(f: Atom) -> str:
    glyph, _, left_ctx, right_ctx = _BY_NODE[f.pred]
    x, y = f.args
    return _store(f, _term(x, left_ctx) + glyph + _term(y, right_ctx))


def render(f: Formula) -> str:
    """Concrete syntax that reads back: ``parse(render(f)) == f``."""
    return f._text or _render(f, 0)


def _width(node, ctx: int, seen: dict) -> int:
    """The length of ``_render``'s or ``_term``'s text for ``node`` in
    ``ctx``, measured once per distinct node into ``seen``."""
    kind = type(node)
    if kind is Var:
        return 1 + len(str(node.id))
    if kind is Const:
        return len(node.name)
    op = _BY_NODE.get(node.func if kind is App else node.pred if kind is Atom else kind)
    n = seen.get(node) or (node._text and len(node._text))
    if not n and op is not None:
        glyph, _, left_ctx, right_ctx = op
        x, y = node.args if kind is Atom or kind is App else (node.left, node.right)
        n = _width(x, left_ctx, seen) + len(glyph) + _width(y, right_ctx, seen)
    elif not n:  # S(t), ~F, (Ax1)F or (Ex1)F
        body = node.args[0] if kind is App else node.body
        head = 3 if kind is App else 1 if kind is Not else 4 + len(str(node.var))
        n = head + _width(body, 0 if kind is App else _PREFIX, seen)
    seen[node] = n
    return n + 2 if op is not None and (ctx >= _PREFIX if kind is Atom else ctx > op[1]) else n


def render_width(f: Formula) -> int:
    """``len(render(f))``, without building the text: the work is linear in
    the number of distinct nodes, where the text can grow exponentially."""
    return _width(f, 0, {})
