"""Semantic oracles: propositional skeletons and bounded arithmetic evaluation.

A *skeleton* replaces every maximal non-propositional subformula (an atom or a
quantified formula) by a propositional variable, identical subformulas getting
the same variable.  Skeleton truth is classical and decidable, which yields a
tautology test and a finite-premise entailment check with countermodels.  The
entailment check is the refutation oracle: a valuation satisfying the premises
but not the goal witnesses that no proof from those premises exists.

Every skeleton question goes through :func:`lowest_row`, a truth-table sweep
(Knuth, TAOCP 4A, 7.1.1): with ``n`` free atoms there are ``2**n`` rows, row
``r`` making atom ``i`` true when bit ``i`` of ``r`` is set, and a formula's
truth table is one integer whose bit ``r`` is its value on row ``r``.  The
tables of compound formulas come from their operands' with ``& | ^``, and the
answer is the lowest set bit of the premises' tables and the goal's
complement: the row an ascending row-by-row search would find first.  Wide
sweeps go through the rows in ascending blocks of tables.  A sweep takes at
most :data:`MAX_SKELETON_ATOMS` free atoms.  Each formula's atoms, in
first-occurrence order, are kept for :data:`~proofbench.schemata.CACHE_SIZE`
formulas, so the hypotheses and axiom members that a run of sweeps shares
are walked once.  :func:`skeletonize_all`
and :func:`eval_skeleton` are one-row views: a root computes its formula's
truth table over the single row it is given, with no cap on the atoms.

Bounded arithmetic evaluation interprets terms over the natural numbers and
quantifiers over the finite range 1..bound, reporting three-valued verdicts:
``FALSE`` only on a concrete counterexample, ``TRUE`` only on a witnessed or
fully decided value, ``UNKNOWN`` whenever the bound is what stopped us.  The
connectives are Kleene's strong ones.  :func:`eval_arith` first compiles the
formula into closures over a list of slots (Feeley & Lapalme, 1987), one slot
per variable, so a quantifier's loop overwrites its slot instead of copying
an environment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .schemata import CACHE_SIZE
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
    free_vars,
)

#: Hard cap on distinct skeleton atoms for exhaustive sweeps.
MAX_SKELETON_ATOMS = 20

#: A sweep decides 2**_BLOCK_ATOMS rows at a time, lowest block first, so a
#: truth table takes at most 2 KiB and a sweep can stop before its last row.
_BLOCK_ATOMS = 14

#: Skeleton atoms, opaque to the sweep, and the binary connectives.
_OPAQUE = (Atom, Forall, Exists)
_BINARY = (Implies, And, Or, Iff)


class SkeletonLimitError(ValueError):
    """Raised when a sweep would need more than 2**MAX_SKELETON_ATOMS rows."""


@dataclass(frozen=True)
class Skeleton:
    """A propositional shape plus the subformulas its atoms stand for."""

    root: Callable[[int], bool]
    atoms: tuple[Formula, ...]


def _check_width(n: int) -> None:
    if n > MAX_SKELETON_ATOMS:
        raise SkeletonLimitError(f"{n} skeleton atoms exceed the sweep cap of {MAX_SKELETON_ATOMS}")


@lru_cache(maxsize=CACHE_SIZE)
def _skeleton_atoms(f: Formula) -> tuple[Formula, ...]:
    """The skeleton atoms of ``f``, in first-occurrence order.  A shared
    subtree is walked once: its second occurrence brings no new atom."""
    found: dict[Formula, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g in found:
            continue
        found[g] = None
        if isinstance(g, Not):
            stack.append(g.body)
        elif isinstance(g, _BINARY):
            stack.append(g.right)
            stack.append(g.left)
        elif not isinstance(g, _OPAQUE):
            raise TypeError(f"not a formula: {g!r}")
    return tuple(g for g in found if isinstance(g, _OPAQUE))


def _number_atoms(
    f: Formula,
    bits: dict[Formula, int | None],
    free: list[Formula],
    pinned: Callable[[Formula], bool] | None,
) -> None:
    """Enter the atoms of ``f`` not yet in ``bits``, in first-occurrence order.

    A pinned atom maps to None; any other to its bit, its index in ``free``.
    """
    for a in _skeleton_atoms(f):
        if a not in bits:
            if pinned is not None and pinned(a):
                bits[a] = None
            else:
                bits[a] = len(free)
                free.append(a)


def _atom_table(i: int, rows: int) -> int:
    """The truth table of free atom ``i``: row ``r`` is set when bit ``i`` of ``r`` is."""
    width = 1 << i
    table = ((1 << width) - 1) << width  # 2**i rows false, then 2**i rows true
    span = 2 * width
    while span < rows:
        table |= table << span
        span *= 2
    return table


def _truth_table(f: Formula, tables: dict[Formula, int], full: int) -> int:
    """The truth table of ``f`` over the atom tables in ``tables``.  Each
    compound's table is stored there too, so a shared subtree is computed
    once per block."""
    table = tables.get(f)
    if table is not None:
        return table
    if isinstance(f, Not):
        table = full ^ _truth_table(f.body, tables, full)
    else:
        left = _truth_table(f.left, tables, full)
        right = _truth_table(f.right, tables, full)
        if isinstance(f, Implies):
            table = (full ^ left) | right
        elif isinstance(f, And):
            table = left & right
        elif isinstance(f, Or):
            table = left | right
        else:
            table = full ^ left ^ right
    tables[f] = table
    return table


def skeletonize(f: Formula) -> Skeleton:
    """The skeleton of a single formula."""
    roots, atoms = skeletonize_all([f])
    return Skeleton(roots[0], atoms)


def skeletonize_all(
    formulas: Sequence[Formula],
) -> tuple[list[Callable[[int], bool]], tuple[Formula, ...]]:
    """Skeletons over one shared atom table, so valuations line up.

    Each root evaluates its formula on one row: the one-row truth table,
    with atom ``i`` true when bit ``i`` of the row is set.
    """
    bits: dict[Formula, int | None] = {}
    free: list[Formula] = []
    for f in formulas:
        _number_atoms(f, bits, free, None)

    def one_row(f: Formula) -> Callable[[int], bool]:
        def root(row: int) -> bool:
            tables = {a: row >> b & 1 for a, b in bits.items()}
            return _truth_table(f, tables, 1) == 1

        return root

    return [one_row(f) for f in formulas], tuple(free)


def eval_skeleton(root: Callable[[int], bool], bits: int) -> bool:
    """Evaluate under the valuation encoded as a bit mask (atom i = bit i)."""
    return root(bits)


def lowest_row(
    premises: Sequence[Formula],
    goal: Formula | None = None,
    pinned: Callable[[Formula], bool] | None = None,
) -> tuple[tuple[Formula, bool], ...] | None:
    """The first valuation, rows ascending, making every premise true and ``goal`` false.

    With ``goal`` None only the premises constrain the row.  Atoms for which
    ``pinned`` holds are true on every row and take no bit, so only the free
    atoms count against ``MAX_SKELETON_ATOMS``; free atom ``i``, in
    first-occurrence order over premises then goal, is true on a row when
    bit ``i`` is set.  Returns (atom, truth) pairs in first-occurrence order,
    or None when no row qualifies.

    Rows are decided a block of ``2**_BLOCK_ATOMS`` at a time, lowest block
    first: a formula's truth table over a block is an integer whose bit ``r``
    is its value on row ``r`` of the block, so the answer is the lowest set
    bit of the premises' tables and the goal's complement, in the first block
    that has one.
    """
    bits: dict[Formula, int | None] = {}
    free: list[Formula] = []
    for f in (*premises, goal) if goal is not None else premises:
        _number_atoms(f, bits, free, pinned)
    _check_width(len(free))
    low = min(len(free), _BLOCK_ATOMS)  # the atoms that vary within a block
    full = (1 << (1 << low)) - 1
    patterns = [_atom_table(b, 1 << low) for b in range(low)]
    for block in range(1 << (len(free) - low)):
        tables = {}
        for a, b in bits.items():
            if b is None:
                tables[a] = full
            elif b < low:
                tables[a] = patterns[b]
            else:  # constant over the block: bit b of its rows is bit b - low of block
                tables[a] = full if block >> (b - low) & 1 else 0
        hits = full
        for f in premises:
            hits &= _truth_table(f, tables, full)
            if not hits:
                break
        if hits and goal is not None:
            hits &= ~_truth_table(goal, tables, full)
        if hits:
            row = (block << low) | ((hits & -hits).bit_length() - 1)
            return tuple((a, b is None or row >> b & 1 == 1) for a, b in bits.items())
    return None


def is_tautology(f: Formula) -> bool:
    """Whether the skeleton of ``f`` is true under every valuation."""
    return lowest_row((), f) is None


def falsifying_valuation(f: Formula) -> dict[Formula, bool] | None:
    """A valuation (atom formula -> truth) making ``f`` false, if one exists."""
    row = lowest_row((), f)
    return None if row is None else dict(row)


def skeleton_entails(
    premises: Sequence[Formula], conclusion: Formula
) -> tuple[bool, dict[Formula, bool] | None]:
    """Classical entailment at the skeleton level over a shared atom table.

    Returns ``(True, None)`` when every valuation satisfying all premises
    satisfies the conclusion, else ``(False, countermodel)``.
    """
    row = lowest_row(premises, conclusion)
    return (True, None) if row is None else (False, dict(row))


def satisfying_valuation(premises: Sequence[Formula]) -> dict[Formula, bool] | None:
    """A valuation making every premise true, if one exists."""
    row = lowest_row(premises)
    return None if row is None else dict(row)


# -- bounded arithmetic -------------------------------------------------


class ThreeValued(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


TRUE = ThreeValued.TRUE
FALSE = ThreeValued.FALSE
UNKNOWN = ThreeValued.UNKNOWN


# The compiled evaluator: a formula becomes a closure over a list of slots, one
# per variable in ``env`` and one per binder, that returns True, False or None
# (unknown).  A binder's loop overwrites its own slot, and a variable reads the
# slot of the binder in scope, so evaluation copies no environment.

#: A compiled formula: slots -> True, False or None (unknown).
_Code = Callable[[list], "bool | None"]

_THREE = {True: TRUE, False: FALSE, None: UNKNOWN}


class _Compiler:
    """Compiles formulas for one bound; ``width`` counts the slots handed out,
    and ``binders`` maps each compiled ``Forall`` node to its slot."""

    def __init__(self, bound: int, width: int) -> None:
        if bound < 1:
            raise ValueError("bound must be at least 1")
        self.values = range(1, bound + 1)
        self.width = width
        self.binders: dict[Forall, int] = {}

    @staticmethod
    def slot(v: Var, scope: dict[int, int]) -> int:
        try:
            return scope[v.id]
        except KeyError:
            raise ValueError(f"unbound variable x{v.id}") from None

    def term(self, t: Term, scope: dict[int, int]) -> Callable[[list], int]:
        if isinstance(t, Var):
            k = self.slot(t, scope)
            return lambda s: s[k]
        if isinstance(t, Const):
            n = int(t.name)
            return lambda s: n
        if isinstance(t, App):
            if t.func == "S":
                a = self.term(t.args[0], scope)
                return lambda s: a(s) + 1
            a, b = self.term(t.args[0], scope), self.term(t.args[1], scope)
            if t.func == "+":
                return lambda s: a(s) + b(s)
            if t.func == "*":
                return lambda s: a(s) * b(s)
        raise TypeError(f"not a term: {t!r}")

    def formula(self, f: Formula, scope: dict[int, int]) -> _Code:
        if isinstance(f, Atom):
            x, y = f.args
            if isinstance(x, Var) and isinstance(y, Var):
                # the commonest atom, read straight from the slots
                i, j = self.slot(x, scope), self.slot(y, scope)
                return (lambda s: s[i] == s[j]) if f.pred == "=" else (lambda s: s[i] < s[j])
            a, b = self.term(x, scope), self.term(y, scope)
            return (lambda s: a(s) == b(s)) if f.pred == "=" else (lambda s: a(s) < b(s))
        if isinstance(f, Not):
            body = self.formula(f.body, scope)
            return lambda s: None if (v := body(s)) is None else not v
        if isinstance(f, Forall):
            return self._forall(f, scope)
        if isinstance(f, Exists):
            return self._exists(f, scope)
        if not isinstance(f, _BINARY):
            raise TypeError(f"not a formula: {f!r}")
        left, right = self.formula(f.left, scope), self.formula(f.right, scope)
        # Kleene's strong connectives; a decided left side may settle the result
        if isinstance(f, Implies):

            def implies(s):
                a = left(s)
                if a is False:
                    return True
                b = right(s)
                return b if a else (True if b else None)

            return implies
        if isinstance(f, And):

            def conj(s):
                a = left(s)
                if a is False:
                    return False
                b = right(s)
                return b if a else (False if b is False else None)

            return conj
        if isinstance(f, Or):

            def disj(s):
                a = left(s)
                if a:
                    return True
                b = right(s)
                return b if a is False else (True if b else None)

            return disj

        def iff(s):
            a = left(s)
            if a is None:
                return None
            b = right(s)
            return None if b is None else a == b

        return iff

    def _bind(self, var: int, scope: dict[int, int]) -> tuple[int, dict[int, int]]:
        k = self.width
        self.width += 1
        return k, {**scope, var: k}

    def _forall(self, f: Forall, scope: dict[int, int]) -> _Code:
        # A guard decided before the loop settles every iteration: when the
        # universal block under ``f`` ends in an implication whose antecedent
        # uses none of the block's binders and that antecedent is false or
        # unknown, no instance can come out false, so the block is UNKNOWN.
        guard = None
        binders, g = set(), f
        while isinstance(g, Forall):
            binders.add(g.var)
            g = g.body
        if isinstance(g, Implies) and binders.isdisjoint(free_vars(g.left)):
            guard = self.formula(g.left, scope)
        k, inner = self._bind(f.var, scope)
        self.binders[f] = k
        body = self.formula(f.body, inner)
        values = self.values

        def forall(s):
            if guard is not None and guard(s) is not True:
                return None
            for n in values:
                s[k] = n
                if body(s) is False:
                    return False
            # every sampled instance is true or unknown; the range is what stopped us
            return None

        return forall

    def _exists(self, f: Exists, scope: dict[int, int]) -> _Code:
        k, inner = self._bind(f.var, scope)
        body = self.formula(f.body, inner)
        values = self.values

        def exists(s):
            for n in values:
                s[k] = n
                if body(s):
                    return True
            return None

        return exists


def _compile(f: Formula, bound: int, env: dict[int, int]) -> tuple[_Code, list, _Compiler]:
    """``f`` compiled for ``bound``, its slots holding ``env``'s values, and
    the compiler, which knows each ``Forall``'s slot."""
    compiler = _Compiler(bound, len(env))
    code = compiler.formula(f, {var: k for k, var in enumerate(env)})
    return code, [*env.values()] + [0] * (compiler.width - len(env)), compiler


def eval_arith(f: Formula, bound: int, env: dict[int, int] | None = None) -> ThreeValued:
    """Three-valued truth of ``f`` with quantifiers ranging over 1..bound.

    ``env`` gives the values of the free variables of ``f``; a free variable
    it does not bind raises ``ValueError`` before anything is evaluated.
    """
    code, slots, _ = _compile(f, bound, env or {})
    return _THREE[code(slots)]


def arith_verdict(f: Formula, bound: int) -> tuple[ThreeValued, dict[int, int] | None]:
    """:func:`eval_arith` of the sentence ``f`` and, where it is FALSE,
    :func:`arith_counterexample`'s assignment, both from one evaluation."""
    code, slots, compiler = _compile(f, bound, {})
    value = code(slots)
    if value is not False:
        return _THREE[value], None
    env: dict[int, int] = {}
    while isinstance(f, Forall):
        env[f.var] = slots[compiler.binders[f]]
        f = f.body
    return FALSE, env or None


def arith_counterexample(
    f: Formula, bound: int
) -> dict[int, int] | None:
    """For a falsified universal block: a falsifying assignment of its binders.

    Each binder takes the least value for which the rest of the block, under
    the values chosen so far, is still false.  That is the value each loop of
    the block last stopped at, so one evaluation leaves it in the binder's slot.
    """
    return arith_verdict(f, bound)[1]
