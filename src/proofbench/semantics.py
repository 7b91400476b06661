"""Semantic oracles: propositional skeletons and bounded arithmetic evaluation.

A *skeleton* replaces every maximal non-propositional subformula (an atom or a
quantified formula) by a propositional variable, identical subformulas getting
the same variable.  Skeleton truth is classical and decidable, which yields a
tautology test and a finite-premise entailment check with countermodels.  The
entailment check is the refutation oracle: a valuation satisfying the premises
but not the goal witnesses that no proof from those premises exists.

Bounded arithmetic evaluation interprets terms over the natural numbers and
quantifiers over the finite range 1..bound, reporting three-valued verdicts:
``FALSE`` only on a concrete counterexample, ``TRUE`` only on a witnessed or
fully decided value, ``UNKNOWN`` whenever the bound is what stopped us.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

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


class SkeletonLimitError(ValueError):
    """Raised when a sweep would need more than 2**MAX_SKELETON_ATOMS rows."""


@dataclass(frozen=True)
class Skeleton:
    """A propositional shape plus the subformulas its atoms stand for."""

    root: Callable[[int], bool]
    atoms: tuple[Formula, ...]


def _true(bits: int) -> bool:
    return True


def _bit(i: int) -> Callable[[int], bool]:
    return lambda bits: bits >> i & 1 == 1


def _skeletonize(
    f: Formula,
    leaves: dict[Formula, Callable[[int], bool]],
    free: list[Formula],
    pinned: Callable[[Formula], bool] | None = None,
) -> Callable[[int], bool]:
    """The skeleton of ``f`` compiled to a closure ``bits -> bool``.

    ``leaves`` maps each atom met so far, in first-occurrence order, to its
    closure.  An atom for which ``pinned`` holds is the constant true; any
    other atom reads bit ``i`` of the row, where it is ``free[i]``.
    """
    if isinstance(f, (Atom, Forall, Exists)):
        leaf = leaves.get(f)
        if leaf is None:
            if pinned is not None and pinned(f):
                leaf = _true
            else:
                leaf = _bit(len(free))
                free.append(f)
            leaves[f] = leaf
        return leaf
    if isinstance(f, Not):
        body = _skeletonize(f.body, leaves, free, pinned)
        return lambda bits: not body(bits)
    if not isinstance(f, (Implies, And, Or, Iff)):
        raise TypeError(f"not a formula: {f!r}")
    left = _skeletonize(f.left, leaves, free, pinned)
    right = _skeletonize(f.right, leaves, free, pinned)
    if isinstance(f, Implies):
        return lambda bits: not left(bits) or right(bits)
    if isinstance(f, And):
        return lambda bits: left(bits) and right(bits)
    if isinstance(f, Or):
        return lambda bits: left(bits) or right(bits)
    return lambda bits: left(bits) == right(bits)


def skeletonize(f: Formula) -> Skeleton:
    """The skeleton of a single formula."""
    roots, atoms = skeletonize_all([f])
    return Skeleton(roots[0], atoms)


def skeletonize_all(
    formulas: Sequence[Formula],
) -> tuple[list[Callable[[int], bool]], tuple[Formula, ...]]:
    """Skeletons over one shared atom table, so valuations line up."""
    leaves: dict[Formula, Callable[[int], bool]] = {}
    free: list[Formula] = []
    roots = [_skeletonize(f, leaves, free) for f in formulas]
    return roots, tuple(leaves)


def eval_skeleton(root: Callable[[int], bool], bits: int) -> bool:
    """Evaluate under the valuation encoded as a bit mask (atom i = bit i)."""
    return root(bits)


def _check_width(n: int) -> None:
    if n > MAX_SKELETON_ATOMS:
        raise SkeletonLimitError(f"{n} skeleton atoms exceed the sweep cap of {MAX_SKELETON_ATOMS}")


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
    """
    leaves: dict[Formula, Callable[[int], bool]] = {}
    free: list[Formula] = []
    roots = [_skeletonize(f, leaves, free, pinned) for f in premises]
    goal_root = None if goal is None else _skeletonize(goal, leaves, free, pinned)
    _check_width(len(free))
    for bits in range(1 << len(free)):
        if all(r(bits) for r in roots) and (goal_root is None or not goal_root(bits)):
            return tuple((a, leaf(bits)) for a, leaf in leaves.items())
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

    def __invert__(self) -> "ThreeValued":
        if self is ThreeValued.TRUE:
            return ThreeValued.FALSE
        if self is ThreeValued.FALSE:
            return ThreeValued.TRUE
        return ThreeValued.UNKNOWN


TRUE = ThreeValued.TRUE
FALSE = ThreeValued.FALSE
UNKNOWN = ThreeValued.UNKNOWN


def _and3(a: ThreeValued, b: ThreeValued) -> ThreeValued:
    if a is FALSE or b is FALSE:
        return FALSE
    if a is TRUE and b is TRUE:
        return TRUE
    return UNKNOWN


def _or3(a: ThreeValued, b: ThreeValued) -> ThreeValued:
    if a is TRUE or b is TRUE:
        return TRUE
    if a is FALSE and b is FALSE:
        return FALSE
    return UNKNOWN


def _imp3(a: ThreeValued, b: ThreeValued) -> ThreeValued:
    return _or3(~a, b)


def _iff3(a: ThreeValued, b: ThreeValued) -> ThreeValued:
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return TRUE if a is b else FALSE


def eval_term(t: Term, env: dict[int, int]) -> int:
    if isinstance(t, Var):
        try:
            return env[t.id]
        except KeyError:
            raise ValueError(f"unbound variable x{t.id}") from None
    if isinstance(t, Const):
        return int(t.name)
    if isinstance(t, App):
        if t.func == "+":
            return eval_term(t.args[0], env) + eval_term(t.args[1], env)
        if t.func == "*":
            return eval_term(t.args[0], env) * eval_term(t.args[1], env)
        if t.func == "S":
            return eval_term(t.args[0], env) + 1
    raise TypeError(f"not a term: {t!r}")


def _guard_prunes(f: Forall, env: dict[int, int], bound: int) -> bool:
    """True when a quantifier-free guard already settles every loop iteration.

    Peels the universal block under ``f`` down to its matrix; when the matrix
    is an implication whose antecedent only uses variables already in ``env``
    and that antecedent is false or unknown, no iteration can come out false,
    so the whole block evaluates to UNKNOWN without looping.
    """
    binders = set()
    g: Formula = f
    while isinstance(g, Forall):
        binders.add(g.var)
        g = g.body
    if not isinstance(g, Implies):
        return False
    guard_fv = set(free_vars(g.left))
    if guard_fv & binders or not guard_fv <= env.keys():
        return False
    return eval_arith(g.left, bound, env) is not TRUE


def eval_arith(f: Formula, bound: int, env: dict[int, int] | None = None) -> ThreeValued:
    """Three-valued truth of ``f`` with quantifiers ranging over 1..bound."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    env = {} if env is None else env
    if isinstance(f, Atom):
        a = eval_term(f.args[0], env)
        b = eval_term(f.args[1], env)
        holds = a == b if f.pred == "=" else a < b
        return TRUE if holds else FALSE
    if isinstance(f, Not):
        return ~eval_arith(f.body, bound, env)
    if isinstance(f, Implies):
        return _imp3(eval_arith(f.left, bound, env), eval_arith(f.right, bound, env))
    if isinstance(f, And):
        return _and3(eval_arith(f.left, bound, env), eval_arith(f.right, bound, env))
    if isinstance(f, Or):
        return _or3(eval_arith(f.left, bound, env), eval_arith(f.right, bound, env))
    if isinstance(f, Iff):
        return _iff3(eval_arith(f.left, bound, env), eval_arith(f.right, bound, env))
    if isinstance(f, Forall):
        if _guard_prunes(f, env, bound):
            return UNKNOWN
        for n in range(1, bound + 1):
            if eval_arith(f.body, bound, {**env, f.var: n}) is FALSE:
                return FALSE
        # every sampled instance is true or unknown; the range is what stopped us
        return UNKNOWN
    if isinstance(f, Exists):
        for n in range(1, bound + 1):
            if eval_arith(f.body, bound, {**env, f.var: n}) is TRUE:
                return TRUE
        return UNKNOWN
    raise TypeError(f"not a formula: {f!r}")


def arith_counterexample(
    f: Formula, bound: int
) -> dict[int, int] | None:
    """For a falsified universal block: a falsifying assignment of its binders."""
    if eval_arith(f, bound) is not FALSE:
        return None
    env: dict[int, int] = {}
    g = f
    while isinstance(g, Forall):
        for n in range(1, bound + 1):
            if eval_arith(g.body, bound, {**env, g.var: n}) is FALSE:
                env[g.var] = n
                g = g.body
                break
        else:
            return None
    return env or None
