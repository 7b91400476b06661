"""First-order term and formula trees, and the operations the checker needs.

Variables are positive integers rendered as ``x1, x2, ...``; a quantifier
binds a variable by that same id, and nothing else.  The constants
:data:`CONSTANTS`, :data:`FUNCTIONS` and :data:`PREDICATES` fix the language.
Nodes are frozen, slotted dataclasses, hash-consed (Filliâtre & Conchon,
*Type-Safe Modular Hash-Consing*, 2006) through a weak table: there is one
object per distinct term or formula, so ``==`` is ``is`` and a node hashes by
its identity, through ``object.__hash__``.  A constructor probes the table
once: a node that is alive is one dict lookup and one weak reference call
away.  Only on a miss does it validate the fields, the symbol, the arity and
each operand's sort, so a connective or quantifier over a term raises
``TypeError``; it then builds the node under a lock, in O(arity): the node
stores its free variable ids and depth, computed from the fields' own, and
its text once rendered.  Hashing, comparing and :func:`free_vars` or
:func:`connective_depth` then cost O(1) however deep or shared the tree;
formulas key dicts and sets throughout the rest of the package.
:func:`find` looks a node up without building it.  A node that is not alive is
in no set or dict, so a membership test probes with :func:`find` and builds
nothing on a miss.

No node nests past :data:`MAX_NESTING`: a constructor refuses, with
:class:`NestingError` (a ``ValueError``), one whose connective depth or term
height would pass it, so every walker may recurse once per level.  A node
pickles as the flat list of the nodes below it: the pickler does not recurse.

Substitution is capture-checked: substituting a term with a variable that
would fall under a binder raises :class:`CaptureError` instead of silently
renaming.  Callers that want to know in advance can ask :func:`free_for`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from types import MappingProxyType


class CaptureError(ValueError):
    """Raised when a substitution would capture a variable under a binder."""


class NestingError(ValueError):
    """Raised by a constructor for a node that would nest past :data:`MAX_NESTING`."""


#: The arithmetic language used throughout: constants 0 and 1, binary + and *,
#: unary successor S, and binary predicates = and <.
CONSTANTS = frozenset({"0", "1"})
FUNCTIONS = MappingProxyType({"+": 2, "*": 2, "S": 1})
PREDICATES = MappingProxyType({"=": 2, "<": 2})

#: The greatest connective depth of a formula and height of a term.  A walker
#: through both stays below Python's default limit of 1000 frames.
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
#: a constructor's one probe: the ``get`` of the table's own dict, which maps
#: a key to a weak reference to the node.  A reference whose node died while
#: the table was being iterated stays until the iteration ends, and is dead.
_probe = _TABLE.data.get
#: held from a miss to the store, so that two threads cannot both build a key
_BUILD = threading.RLock()
#: what every node stores besides its fields
_STORED = ("_free", "_depth", "_text")


def _gone() -> None:
    """The probe's answer for a key with no entry: called as a dead reference is."""


def _check(key: tuple) -> None:
    """Refuse the fields of ``key``, ``(cls, *fields)``, on a miss: an unknown
    constant or symbol, a wrong arity, or an operand of the wrong sort."""
    cls = key[0]
    if cls is Const:
        if key[1] not in CONSTANTS:
            raise ValueError(f"unknown constant {key[1]!r}")
        return
    if cls is App or cls is Atom:
        kind, table = ("function", FUNCTIONS) if cls is App else ("predicate", PREDICATES)
        symbol, operands, sort = key[1], key[2], Term
        arity = table.get(symbol)
        if arity is None:
            raise ValueError(f"unknown {kind} symbol {symbol!r}")
        if len(operands) != arity:
            raise ValueError(f"{kind} {symbol!r} expects {arity} argument(s), got {len(operands)}")
    else:  # a connective or a quantifier: every field but a binder variable
        operands, sort = key[2:] if cls in _QUANT else key[1:], Formula
    for a in operands:
        if not isinstance(a, sort):
            raise TypeError(f"{cls.__name__} operands must be {sort.__name__.lower()}s")


def _store(key: tuple, free: tuple[int, ...], depth: int):
    """The node keyed ``(cls, *fields)``, built with these facts and stored on a
    miss unless another thread stored one first; refused past the cap."""
    if depth > MAX_NESTING:
        raise NestingError(f"{key[0].__name__} would nest past MAX_NESTING ({MAX_NESTING})")
    with _BUILD:
        node = _TABLE.get(key)
        if node is None:
            cls = key[0]
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, key[1:]):
                _setattr(node, name, value)
            _setattr(node, "_free", free)
            _setattr(node, "_depth", depth)
            _setattr(node, "_text", None)
            _TABLE[key] = node
    return node


def _union(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Two ascending tuples of variable ids, merged."""
    if not b or b == a:
        return a
    return tuple(sorted({*a, *b})) if a else b


def _merge(args: tuple[Term, ...]) -> tuple[tuple[int, ...], int]:
    """The terms' free variable ids, merged, and one level above the tallest."""
    free, height = (), 0
    for t in args:
        free = _union(free, t._free)
        if t._depth >= height:
            height = t._depth + 1
    return free, height


class _Node:
    """Kernel node mixin: one live object per class and fields.

    Each class's constructor takes its fields, the class's ``__slots__`` in
    order, by position or by name.  It probes the intern table once: a hit
    is one dict lookup and one weak reference call, and a dead reference
    reads as a miss.  On a miss it validates the fields with :func:`_check`,
    builds the node under a lock, stores its free variable ids and depth,
    computed from its fields' own, and puts it in the table; a depth past
    :data:`MAX_NESTING` is refused.
    The renderer fills ``_text``.  A node hashes and compares by identity.
    """

    __slots__ = (*_STORED, "__weakref__")

    def __reduce__(self):
        # the pickler recurses once per level of what it is given: give it the
        # flat list of the nodes below
        return _unflatten, (_flatten(self),)

    def __deepcopy__(self, memo) -> _Node:
        return self  # immutable and interned: the copy is the node

    def __repr__(self) -> str:
        # the dataclass form, built bottom-up over the flat list: any depth formats
        texts: list[str] = []
        for cls, plain, held in _flatten(self):
            fields = [repr(v) for v in plain]
            for h in held:
                if isinstance(h, tuple):  # a tuple of terms: (a,) or (a, b)
                    fields.append(f"({', '.join(texts[i] for i in h)}{',' * (len(h) == 1)})")
                else:
                    fields.append(texts[h])
            shown = ", ".join(f"{name}={text}" for name, text in zip(cls.__slots__, fields))
            texts.append(f"{cls.__qualname__}({shown})")
        return texts[-1]


#: Frozen dataclass over the class's own ``__slots__`` that keeps the class's
#: constructor, ``_Node``'s identity hashing and equality, and its ``repr``.
#: ``dataclass(slots=True)`` would rebuild the class, after which its frozen
#: ``__setattr__`` raises ``TypeError``, not ``FrozenInstanceError``, for names
#: that are not fields.
_node = dataclass(frozen=True, eq=False, init=False, repr=False)


@_node
class Var(_Node, Term):
    __slots__ = ("id",)

    id: int

    def __new__(cls, id):
        # exactly int: True == 1, so a bool id would stand in for x1 on a hit
        if not (type(id) is int and id >= 1):
            raise ValueError(f"variable id must be a positive int, got {id!r}")
        key = (cls, id)
        node = _probe(key, _gone)()
        if node is None:
            node = _store(key, (id,), 0)
        return node


@_node
class Const(_Node, Term):
    __slots__ = ("name",)

    name: str

    def __new__(cls, name):
        key = (cls, name)
        node = _probe(key, _gone)()
        if node is None:
            _check(key)
            node = _store(key, (), 0)
        return node


@_node
class App(_Node, Term):
    __slots__ = ("func", "args")

    func: str
    args: tuple[Term, ...]

    def __new__(cls, func, args):
        key = (cls, func, args)
        node = _probe(key, _gone)()
        if node is None:
            _check(key)
            node = _store(key, *_merge(args))  # depth: the term's height
        return node


@_node
class Atom(_Node, Formula):
    __slots__ = ("pred", "args")

    pred: str
    args: tuple[Term, ...]

    def __new__(cls, pred, args):
        key = (cls, pred, args)
        node = _probe(key, _gone)()
        if node is None:
            _check(key)
            node = _store(key, _merge(args)[0], 0)
        return node


@_node
class Not(_Node, Formula):
    __slots__ = ("body",)

    body: Formula

    def __new__(cls, body):
        key = (cls, body)
        node = _probe(key, _gone)()
        if node is None:
            _check(key)
            node = _store(key, body._free, body._depth + 1)
        return node


def _binary(cls, left, right):
    """The constructor of the binary connectives."""
    key = (cls, left, right)
    node = _probe(key, _gone)()
    if node is None:
        _check(key)
        depth = left._depth if left._depth > right._depth else right._depth
        node = _store(key, _union(left._free, right._free), depth + 1)
    return node


@_node
class Implies(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    __new__ = _binary


@_node
class And(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    __new__ = _binary


@_node
class Or(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    __new__ = _binary


@_node
class Iff(_Node, Formula):
    __slots__ = ("left", "right")

    left: Formula
    right: Formula

    __new__ = _binary


def _binder(cls, var, body):
    """The constructor of the quantifiers."""
    # exactly int, as for Var
    if not (type(var) is int and var >= 1):
        raise ValueError(f"binder variable id must be a positive int, got {var!r}")
    key = (cls, var, body)
    node = _probe(key, _gone)()
    if node is None:
        _check(key)
        node = _store(key, tuple(v for v in body._free if v != var), body._depth + 1)
    return node


@_node
class Forall(_Node, Formula):
    __slots__ = ("var", "body")

    var: int
    body: Formula

    __new__ = _binder


@_node
class Exists(_Node, Formula):
    __slots__ = ("var", "body")

    var: int
    body: Formula

    __new__ = _binder


_QUANT = (Forall, Exists)


def find(cls: type, *fields):
    """The live node of class ``cls`` with these fields, or None.

    A probe for membership tests: it builds nothing and validates nothing.
    Fields that no node holds, such as ``find(Var, 0)``, ``find(Var, True)``
    or an unhashable field, give None.
    """
    try:
        node = _probe((cls, *fields), _gone)()
    except TypeError:  # an unhashable field: no node holds one
        return None
    # an int field equals values of other types, True and 1.0 for 1: no node holds those
    if node is not None and (cls is Var or cls in _QUANT) and type(fields[0]) is not int:
        return None
    return node


def _parts(node) -> tuple[list, list]:
    """``node``'s fields, split into the plain ones (ids and symbols, which come
    first in every class) and those holding nodes: a node or a tuple of terms."""
    plain, held = [], []
    for name in node.__slots__:
        value = getattr(node, name)
        (held if isinstance(value, (_Node, tuple)) else plain).append(value)
    return plain, held


def _flatten(root) -> tuple:
    """``root`` and the distinct nodes below it, each after the nodes it holds,
    as ``(cls, plain fields, held)`` entries; ``held`` gives a node by its
    place in the list, and a tuple of terms as a tuple of places.  A loop,
    not a recursion, so any depth flattens."""
    place: dict = {}
    entries = []
    stack = [root]
    while stack:
        node = stack[-1]
        if node in place:
            stack.pop()
            continue
        plain, held = _parts(node)
        below = [
            g for h in held for g in (h if isinstance(h, tuple) else (h,)) if g not in place
        ]
        if below:
            stack += below
            continue
        stack.pop()
        place[node] = len(entries)
        entries.append((type(node), tuple(plain), tuple(
            tuple(place[g] for g in h) if isinstance(h, tuple) else place[h] for h in held
        )))
    return tuple(entries)


def _unflatten(entries: tuple):
    """The last node of a :func:`_flatten` list, built through the constructors."""
    built = []
    for cls, plain, held in entries:
        built.append(cls(*plain, *(
            tuple(built[i] for i in h) if isinstance(h, tuple) else built[h] for h in held
        )))
    return built[-1]


def free_vars(f: Term | Formula) -> tuple[int, ...]:
    """Free variable ids of ``f``, deduplicated, in ascending order: for a
    term, every variable id in it."""
    return f._free


def is_sentence(f: Formula) -> bool:
    """True when ``f`` has no free variables."""
    return not f._free


def free_for(x: int, t: Term, f: Formula) -> bool:
    """Whether ``t`` may replace free occurrences of ``x`` in ``f`` without capture."""

    def walk(g: Formula) -> bool:
        if x not in g._free or isinstance(g, Atom):
            return True  # no free occurrence of x below, or none under a binder
        if isinstance(g, _QUANT):
            return g.var not in t._free and walk(g.body)
        if isinstance(g, Not):
            return walk(g.body)
        return walk(g.left) and walk(g.right)

    return walk(f)


def substitute_term(t: Term, x: int, s: Term) -> Term:
    """``t`` with every occurrence of variable ``x`` replaced by ``s``."""
    if x not in t._free:
        return t
    if isinstance(t, Var):
        return s
    args = []  # a loop, not a generator: one stack frame per term level
    for a in t.args:
        args.append(substitute_term(a, x, s))
    return App(t.func, tuple(args))


def substitute(f: Formula, x: int, t: Term, check: bool = True) -> Formula:
    """``f`` with free occurrences of ``x`` replaced by ``t``.

    With ``check`` (the default), raises :class:`CaptureError` when some free
    occurrence of ``x`` sits under a binder for a variable of ``t``.
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

    return walk(f)


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
