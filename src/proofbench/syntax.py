"""First-order term and formula trees, and the operations the checker needs.

Variables are positive integers rendered as ``x1, x2, ...``; a symbol table
fixes the constants and the function/predicate arities.  All nodes are frozen,
slotted dataclasses that compare structurally and store their hash, computed
once at construction from the class and the fields.  Children already hold
their hashes, so building a node costs O(arity) and hashing it O(1), however
deep or shared the tree; formulas key dicts and sets throughout the rest of
the package.

Substitution is capture-checked: substituting a term with a variable that
would fall under a binder raises :class:`CaptureError` instead of silently
renaming.  Callers that want to know in advance can ask :func:`free_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Iterator


class CaptureError(ValueError):
    """Raised when a substitution would capture a variable under a binder."""


@dataclass(frozen=True)
class SymbolTable:
    """Constants plus function and predicate arities for a first-order language."""

    constants: frozenset[str]
    functions: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    predicates: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)


#: The arithmetic language used throughout: constants 0 and 1, binary + and *,
#: unary successor S, and binary predicates = and <.
ARITHMETIC = SymbolTable(
    constants=frozenset({"0", "1"}),
    functions=MappingProxyType({"+": 2, "*": 2, "S": 1}),
    predicates=MappingProxyType({"=": 2, "<": 2}),
)


class Term:
    """Base class for term nodes."""

    __slots__ = ()


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


_setattr = object.__setattr__


class _Node:
    """Kernel node mixin: ``__hash__`` returns the hash each ``__post_init__`` stores."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: str hashes differ between processes
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _node(cls):
    """A frozen dataclass that keeps :class:`_Node`'s stored hash.

    Classes list their own ``__slots__``: ``dataclass(slots=True)`` rebuilds
    the class, after which its frozen ``__setattr__`` raises ``TypeError``,
    not ``FrozenInstanceError``, for names that are not fields.
    """
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _Node.__hash__
    return cls


@_node
class Var(_Node, Term):
    __slots__ = ("id",)

    id: int

    def __post_init__(self) -> None:
        if not (isinstance(self.id, int) and self.id >= 1):
            raise ValueError(f"variable id must be a positive int, got {self.id!r}")
        _setattr(self, "_hash", hash((Var, self.id)))


@_node
class Const(_Node, Term):
    __slots__ = ("name",)

    name: str

    def __post_init__(self) -> None:
        if self.name not in ARITHMETIC.constants:
            raise ValueError(f"unknown constant {self.name!r}")
        _setattr(self, "_hash", hash((Const, self.name)))


@_node
class App(_Node, Term):
    __slots__ = ("func", "args")

    func: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        arity = ARITHMETIC.functions.get(self.func)
        if arity is None:
            raise ValueError(f"unknown function symbol {self.func!r}")
        if len(self.args) != arity:
            raise ValueError(
                f"function {self.func!r} expects {arity} argument(s), got {len(self.args)}"
            )
        if not all(isinstance(a, Term) for a in self.args):
            raise TypeError("App arguments must be terms")
        _setattr(self, "_hash", hash((App, self.func, self.args)))


@_node
class Atom(_Node, Formula):
    __slots__ = ("pred", "args")

    pred: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        arity = ARITHMETIC.predicates.get(self.pred)
        if arity is None:
            raise ValueError(f"unknown predicate symbol {self.pred!r}")
        if len(self.args) != arity:
            raise ValueError(
                f"predicate {self.pred!r} expects {arity} argument(s), got {len(self.args)}"
            )
        if not all(isinstance(a, Term) for a in self.args):
            raise TypeError("Atom arguments must be terms")
        _setattr(self, "_hash", hash((Atom, self.pred, self.args)))


@_node
class Not(_Node, Formula):
    __slots__ = ("body",)

    body: Formula

    def __post_init__(self) -> None:
        _setattr(self, "_hash", hash((Not, self.body)))


@_node
class Implies(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        _setattr(self, "_hash", hash((Implies, self.left, self.right)))


@_node
class And(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        _setattr(self, "_hash", hash((And, self.left, self.right)))


@_node
class Or(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        _setattr(self, "_hash", hash((Or, self.left, self.right)))


@_node
class Iff(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        _setattr(self, "_hash", hash((Iff, self.left, self.right)))


def _check_binder(var: int | str) -> None:
    # int: a concrete variable id; str: a schema-template metavariable slot
    if isinstance(var, int):
        if var < 1:
            raise ValueError(f"binder variable id must be positive, got {var!r}")
    elif not (isinstance(var, str) and var):
        raise ValueError(f"binder variable must be an id or metavariable name, got {var!r}")


@_node
class Forall(_Node, Formula):
    __slots__ = ("var", "body")

    var: int | str
    body: Formula

    def __post_init__(self) -> None:
        _check_binder(self.var)
        _setattr(self, "_hash", hash((Forall, self.var, self.body)))


@_node
class Exists(_Node, Formula):
    __slots__ = ("var", "body")

    var: int | str
    body: Formula

    def __post_init__(self) -> None:
        _check_binder(self.var)
        _setattr(self, "_hash", hash((Exists, self.var, self.body)))


_BINARY = (Implies, And, Or, Iff)
_QUANT = (Forall, Exists)


def term_vars(t: Term) -> frozenset[int]:
    """The set of variable ids occurring in ``t``."""
    if isinstance(t, Var):
        return frozenset((t.id,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, App):
        out: frozenset[int] = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    raise TypeError(f"not a term: {t!r}")


def free_vars(f: Formula) -> tuple[int, ...]:
    """Free variable ids of ``f``, deduplicated, in ascending order."""

    def walk(g: Formula, bound: frozenset[int], acc: set[int]) -> None:
        if isinstance(g, Atom):
            for a in g.args:
                acc.update(term_vars(a) - bound)
        elif isinstance(g, Not):
            walk(g.body, bound, acc)
        elif isinstance(g, _BINARY):
            walk(g.left, bound, acc)
            walk(g.right, bound, acc)
        elif isinstance(g, _QUANT):
            walk(g.body, bound | {g.var}, acc)
        else:
            raise TypeError(f"not a formula: {g!r}")

    acc: set[int] = set()
    walk(f, frozenset(), acc)
    return tuple(sorted(acc))


def is_sentence(f: Formula) -> bool:
    """True when ``f`` has no free variables."""
    return not free_vars(f)


def free_for(x: int, t: Term, f: Formula) -> bool:
    """Whether ``t`` may replace free occurrences of ``x`` in ``f`` without capture."""
    tvars = term_vars(t)

    def walk(g: Formula) -> bool:
        if isinstance(g, Atom):
            return True
        if isinstance(g, Not):
            return walk(g.body)
        if isinstance(g, _BINARY):
            return walk(g.left) and walk(g.right)
        if isinstance(g, _QUANT):
            if g.var == x:
                return True  # x is not free below this binder
            if g.var in tvars and x in free_vars(g.body):
                return False
            return walk(g.body)
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def substitute_term(t: Term, x: int, s: Term) -> Term:
    """``t`` with every occurrence of variable ``x`` replaced by ``s``."""
    if isinstance(t, Var):
        return s if t.id == x else t
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(t.func, tuple(substitute_term(a, x, s) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


def substitute(f: Formula, x: int, t: Term, check: bool = True) -> Formula:
    """``f`` with free occurrences of ``x`` replaced by ``t``.

    With ``check`` (the default), raises :class:`CaptureError` when some free
    occurrence of ``x`` sits under a binder for a variable of ``t``.
    """
    if check and not free_for(x, t, f):
        raise CaptureError(f"term not free for x{x} in formula")
    tvars = term_vars(t)

    def walk(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(substitute_term(a, x, t) for a in g.args))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, Implies):
            return Implies(walk(g.left), walk(g.right))
        if isinstance(g, And):
            return And(walk(g.left), walk(g.right))
        if isinstance(g, Or):
            return Or(walk(g.left), walk(g.right))
        if isinstance(g, Iff):
            return Iff(walk(g.left), walk(g.right))
        if isinstance(g, (Forall, Exists)):
            if g.var == x:
                return g  # x is bound here; nothing free below
            if check and g.var in tvars and x in free_vars(g.body):
                raise CaptureError(f"term not free for x{x} in formula")
            body = walk(g.body)
            return type(g)(g.var, body)
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def universal_closure(f: Formula) -> Formula:
    """``f`` prefixed with universal quantifiers over its free variables.

    The outermost quantifier binds the smallest variable id, so closures are
    canonical: two alpha-identical open formulas close to the same sentence.
    """
    g = f
    for v in sorted(free_vars(f), reverse=True):
        g = Forall(v, g)
    return g


def subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every subformula, parents before children."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, _BINARY):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, _QUANT):
        yield from subformulas(f.body)


def connective_depth(f: Formula) -> int:
    """Nesting depth counting connectives and quantifiers; atoms have depth 0."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return 1 + connective_depth(f.body)
    if isinstance(f, _BINARY):
        return 1 + max(connective_depth(f.left), connective_depth(f.right))
    if isinstance(f, _QUANT):
        return 1 + connective_depth(f.body)
    raise TypeError(f"not a formula: {f!r}")
