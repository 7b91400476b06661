"""First-order term and formula trees, and the operations the checker needs.

Variables are positive integers rendered as ``x1, x2, ...``; a quantifier
binds a variable by that same id, and nothing else.  The constants
:data:`CONSTANTS`, :data:`FUNCTIONS` and :data:`PREDICATES` fix the language.
Nodes are frozen, slotted dataclasses, hash-consed (Filliâtre & Conchon,
*Type-Safe Modular Hash-Consing*, 2006) through a weak table: there is one
object per distinct term or formula, so ``==`` is ``is`` and a node hashes by
its identity, through ``object.__hash__``.  Building a node costs O(arity): it
stores its free variable ids and depth, computed from the fields' own, and its
text once rendered.  Hashing, comparing and :func:`free_vars` or
:func:`connective_depth` then cost O(1) however deep or shared the tree;
formulas key dicts and sets throughout the rest of the package.
:func:`find` looks a node up without building it.  A node that is not alive is
in no set or dict, so a membership test probes with :func:`find` and builds
nothing on a miss.

Substitution is capture-checked: substituting a term with a variable that
would fall under a binder raises :class:`CaptureError` instead of silently
renaming.  Callers that want to know in advance can ask :func:`free_for`.
The walkers recurse once per level, so they refuse, with :class:`NestingError`
(a ``ValueError``), a formula or rewritten term that nests past
:data:`MAX_NESTING`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from types import MappingProxyType


class CaptureError(ValueError):
    """Raised when a substitution would capture a variable under a binder."""


class NestingError(ValueError):
    """Raised by a walker on a formula or term that nests past :data:`MAX_NESTING`."""


#: The arithmetic language used throughout: constants 0 and 1, binary + and *,
#: unary successor S, and binary predicates = and <.
CONSTANTS = frozenset({"0", "1"})
FUNCTIONS = MappingProxyType({"+": 2, "*": 2, "S": 1})
PREDICATES = MappingProxyType({"=": 2, "<": 2})

#: The most open prefixes, parentheses, ``S(`` and right operands, and the
#: greatest tree height counting term levels, that parsed text may have, and
#: the deepest formula or term the recursive walkers take.  They recurse up to
#: twice per level, below Python's default limit of 1000.
MAX_NESTING = 400


class Term:
    """Base class for term nodes."""

    __slots__ = ()


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


_setattr = object.__setattr__

#: ``(class, *fields)`` -> the one live node with that class and those fields
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
#: held from a miss to the store, so that two threads cannot both build a key
_BUILD = threading.RLock()
#: what every node stores besides its fields
_STORED = ("_free", "_depth", "_text")


def _merge(operands) -> tuple[tuple[int, ...], int]:
    """The operands' free variable ids, merged, and one level above the deepest."""
    free, depth = (), 0
    for g in operands:
        gfree = g._free
        if gfree and gfree != free:
            free = tuple(sorted({*free, *gfree})) if free else gfree
        if g._depth >= depth:
            depth = g._depth + 1
    return free, depth


class _Node:
    """Kernel node mixin: one live object per class and fields.

    ``cls(*fields)`` runs ``cls._check(*fields)`` and then returns the node
    keyed ``(cls, *fields)``, building it only on a miss, with
    ``cls._facts(*fields)`` stored.  The fields are the class's ``__slots__``,
    in order; the renderer fills ``_text``.  A node hashes and compares by
    identity: there is one per key.
    """

    __slots__ = (*_STORED, "__weakref__")

    def __new__(cls, *args, **kwargs):
        names = cls.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}")
        cls._check(*args)
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            with _BUILD:
                node = _TABLE.get(key)
                if node is None:
                    node = object.__new__(cls)
                    for name, value in zip(names, args):
                        _setattr(node, name, value)
                    free, depth = cls._facts(*args)
                    _setattr(node, "_free", free)
                    _setattr(node, "_depth", depth)
                    _setattr(node, "_text", None)
                    _TABLE[key] = node
        return node

    @staticmethod
    def _check(*fields) -> None:
        """Raise on fields that the node may not have; connectives take any."""

    # (free variable ids, depth) of a node with these fields: here, a connective
    _facts = staticmethod(lambda *operands: _merge(operands))

    def __reduce__(self):
        # rebuild through the constructor; the pickler recurses per level: refuse past the cap
        return type(self), tuple(getattr(self, name) for name in _within_cap(self).__slots__)

    def __deepcopy__(self, memo) -> _Node:
        return self  # immutable and interned: the copy is the node


def find(cls: type, *fields):
    """The live node of class ``cls`` with these fields, or None.

    A probe for membership tests: it builds nothing and runs no ``_check``.
    A field matches only a field of the same type, so fields that no node
    holds, such as ``find(Var, 0)`` or ``find(Var, True)``, give None.
    """
    try:
        node = _TABLE.get((cls, *fields))
    except TypeError:  # an unhashable field: no node holds one
        return None
    if node is None or any(
        type(value) is not type(getattr(node, name))
        for name, value in zip(cls.__slots__, fields)
    ):
        return None
    return node


#: Frozen dataclass over the class's own ``__slots__`` that keeps ``_Node``'s
#: constructor and identity hashing and equality.  ``dataclass(slots=True)``
#: would rebuild the class, after which its frozen ``__setattr__`` raises
#: ``TypeError``, not ``FrozenInstanceError``, for names that are not fields.
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Var(_Node, Term):
    __slots__ = ("id",)

    id: int

    @staticmethod
    def _check(id) -> None:
        # exactly int: True == 1, so a bool id would stand in for x1 on a hit
        if not (type(id) is int and id >= 1):
            raise ValueError(f"variable id must be a positive int, got {id!r}")

    _facts = staticmethod(lambda id: ((id,), 0))


@_node
class Const(_Node, Term):
    __slots__ = ("name",)

    name: str

    @staticmethod
    def _check(name) -> None:
        if name not in CONSTANTS:
            raise ValueError(f"unknown constant {name!r}")

    _facts = staticmethod(lambda name: ((), 0))


@_node
class App(_Node, Term):
    __slots__ = ("func", "args")

    func: str
    args: tuple[Term, ...]

    @staticmethod
    def _check(func, args) -> None:
        arity = FUNCTIONS.get(func)
        if arity is None:
            raise ValueError(f"unknown function symbol {func!r}")
        if len(args) != arity:
            raise ValueError(
                f"function {func!r} expects {arity} argument(s), got {len(args)}"
            )
        if not all(isinstance(a, Term) for a in args):
            raise TypeError("App arguments must be terms")

    _facts = staticmethod(lambda func, args: _merge(args))  # depth: the term's height


@_node
class Atom(_Node, Formula):
    __slots__ = ("pred", "args")

    pred: str
    args: tuple[Term, ...]

    @staticmethod
    def _check(pred, args) -> None:
        arity = PREDICATES.get(pred)
        if arity is None:
            raise ValueError(f"unknown predicate symbol {pred!r}")
        if len(args) != arity:
            raise ValueError(
                f"predicate {pred!r} expects {arity} argument(s), got {len(args)}"
            )
        if not all(isinstance(a, Term) for a in args):
            raise TypeError("Atom arguments must be terms")

    _facts = staticmethod(lambda pred, args: (_merge(args)[0], 0))


@_node
class Not(_Node, Formula):
    __slots__ = ("body",)

    body: Formula


@_node
class Implies(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula


@_node
class And(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula


@_node
class Or(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula


@_node
class Iff(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula


def _check_binder(var: int, body: Formula) -> None:
    # exactly int, as for Var
    if not (type(var) is int and var >= 1):
        raise ValueError(f"binder variable id must be a positive int, got {var!r}")


def _binder_facts(var: int, body: Formula) -> tuple[tuple[int, ...], int]:
    return tuple(v for v in body._free if v != var), body._depth + 1


@_node
class Forall(_Node, Formula):
    __slots__ = ("var", "body")

    var: int
    body: Formula

    _check = staticmethod(_check_binder)
    _facts = staticmethod(_binder_facts)


@_node
class Exists(_Node, Formula):
    __slots__ = ("var", "body")

    var: int
    body: Formula

    _check = staticmethod(_check_binder)
    _facts = staticmethod(_binder_facts)


_QUANT = (Forall, Exists)


def term_vars(t: Term) -> frozenset[int]:
    """The set of variable ids occurring in ``t``."""
    return frozenset(t._free)


def free_vars(f: Formula) -> tuple[int, ...]:
    """Free variable ids of ``f``, deduplicated, in ascending order."""
    return f._free


def is_sentence(f: Formula) -> bool:
    """True when ``f`` has no free variables."""
    return not f._free


def _within_cap(node):
    """``node``, unless it nests past :data:`MAX_NESTING`: a walker over it
    would recurse once per level, and no parsed text nests that deep."""
    if node._depth > MAX_NESTING:
        raise NestingError(f"nests more than MAX_NESTING ({MAX_NESTING}) deep")
    return node


def free_for(x: int, t: Term, f: Formula) -> bool:
    """Whether ``t`` may replace free occurrences of ``x`` in ``f`` without capture.

    Raises ``ValueError`` where ``f``, or a term of an atom in which ``x`` is
    free, nests past :data:`MAX_NESTING`, as :func:`substitute` does.
    """

    def walk(g: Formula) -> bool:
        if x not in g._free:
            return True  # no free occurrence of x below
        if isinstance(g, Atom):
            for a in g.args:
                _within_cap(a)
            return True
        if isinstance(g, _QUANT):
            return g.var not in t._free and walk(g.body)
        if isinstance(g, Not):
            return walk(g.body)
        return walk(g.left) and walk(g.right)

    return walk(_within_cap(f))


def _substitute_term(t: Term, x: int, s: Term) -> Term:
    if x not in t._free:
        return t
    if isinstance(t, Var):
        return s
    args = []  # a loop, not a generator: one stack frame per term level
    for a in t.args:
        args.append(_substitute_term(a, x, s))
    return App(t.func, tuple(args))


def substitute_term(t: Term, x: int, s: Term) -> Term:
    """``t`` with every occurrence of variable ``x`` replaced by ``s``.

    Raises ``ValueError`` where ``t`` is taller than :data:`MAX_NESTING`.
    """
    return _substitute_term(_within_cap(t), x, s)


def substitute(f: Formula, x: int, t: Term, check: bool = True) -> Formula:
    """``f`` with free occurrences of ``x`` replaced by ``t``.

    With ``check`` (the default), raises :class:`CaptureError` when some free
    occurrence of ``x`` sits under a binder for a variable of ``t``.  Raises
    ``ValueError`` where ``f``, or a term of an atom in which ``x`` is free,
    nests past :data:`MAX_NESTING`.
    """

    def walk(g: Formula) -> Formula:
        if x not in g._free:
            return g  # also where x is bound: nothing free below
        if isinstance(g, Atom):
            args = []
            for a in g.args:
                args.append(substitute_term(a, x, t))
            return Atom(g.pred, tuple(args))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, _QUANT):
            if check and g.var in t._free:
                raise CaptureError(f"term not free for x{x} in formula")
            return type(g)(g.var, walk(g.body))
        return type(g)(walk(g.left), walk(g.right))

    return walk(_within_cap(f))


def universal_closure(f: Formula) -> Formula:
    """``f`` prefixed with universal quantifiers over its free variables.

    The outermost quantifier binds the smallest variable id, so closures are
    canonical: two alpha-identical open formulas close to the same sentence.
    """
    g = f
    for v in reversed(f._free):
        g = Forall(v, g)
    return g


def connective_depth(f: Formula) -> int:
    """Nesting depth counting connectives and quantifiers; atoms have depth 0."""
    return f._depth
