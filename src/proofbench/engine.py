"""Budgeted consequence closure and goal-directed proof search.

The closure is a deterministic FIFO saturation loop.  Schema instantiation is
restricted to a finite *pool*: the subformula closure of the hypotheses, the
goal, the catalogue of named sentence constants, every recognizer's finite
core, and goal-targeted members contributed by recognizers with a
``generate_for`` hook.  Rules only ever derive pool formulas or negations of
pool formulas, so the derivable set is finite and saturation reaches a genuine
fixpoint when the budget allows.  Every derived formula carries a recipe from
which a kernel proof is rebuilt on demand.

:func:`prove` layers iterative-deepening backward decomposition on top of the
forward closure: implication discharge via the deduction transform, then the
introductions of ``/\\``, ``\\/``, ``~~``, ``~(->)``, ``~(/\\)`` and ``~(\\/)``,
then reductio.  Peeling a sentence antecedent is invertible, so it spends no
depth: a goal's chain of peels is walked once, in one loop, and the depth
counts only the introductions and reductio.  The closure and the
introductions share one recipe table, and every level emits into the call's
one :class:`~proofbench.transforms.ProofBuilder`: a derivation is a step
index, and each assumed hypothesis is discharged or dropped in place.

A context's hypothesis pool is built once and kept for the next claim over
the same hypotheses and axioms; each goal widens it by the members the goal
brings.  A :func:`prove` call's closures all saturate over one pool, which
widens when a backward context brings members from outside it, and each
stops once its goal is an entry: an entry's recipe is fixed when it is added,
so saturating further would change no proof.  :func:`bounded_closure` has no
goal and saturates to a fixpoint.  A pool remembers how far each of its
members has been walked, so a widening walks and hooks only what is new to
it: each ``generate_for`` hook sees each formula at most once per pool and
the pools widened from it.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from .parser import parse, render, render_width
from .proofs import Proof
from .schemata import NAMED_FORMULAS, AxiomSetRecognizer
from .syntax import (
    And,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    NestingError,
    Not,
    Or,
    connective_depth,
    find,
    free_vars,
    is_sentence,
)
from .transforms import (
    ProofBuilder,
    conclude,
    covering_set,
    derive_andel,
    derive_andintro,
    derive_dnelim,
    derive_dnintro,
    derive_explosion,
    derive_imp_from_cons,
    derive_imp_from_neg,
    derive_notand,
    derive_notimp_intro,
    derive_notimp_left,
    derive_notimp_right,
    derive_notor,
    derive_orin,
    derive_refute,
    discharge,
)


#: The connective depth no derived formula may exceed.
MAX_DEPTH = 40

#: The longest rendered text a pool member may have: the text is its sort key.
MAX_MEMBER_WIDTH = 100_000


#: An instance of each logical schema, phi1 to phi12 in turn.
LOGIC_SAMPLES = (
    "(0 = 0 -> 1 = 1 -> 0 < 1) -> (0 = 0 -> 1 = 1) -> 0 = 0 -> 0 < 1",
    "(~(0 = 0) -> 0 = 0) -> 0 = 0",
    "~(0 = 0) -> 0 = 0 -> 1 = 1",
    "0 = 0 -> 1 = 1 -> 0 = 0",
    "0 = 0 /\\ 1 = 1 -> 0 = 0",
    "0 = 0 /\\ 1 = 1 -> 1 = 1",
    "0 = 0 -> 1 = 1 -> 0 = 0 /\\ 1 = 1",
    "0 = 0 -> 0 = 0 \\/ 1 = 1",
    "1 = 1 -> 0 = 0 \\/ 1 = 1",
    "(0 = 0 -> 1 = 1) -> (0 < 1 -> 1 = 1) -> 0 = 0 \\/ 0 < 1 -> 1 = 1",
    "(Ax1)(x1 = x1) -> 0 = 0",
    "(Ax1)(0 = 0 -> x1 = x1) -> 0 = 0 -> (Ax1)(x1 = x1)",
)


@lru_cache(maxsize=16)
def covers_logic(axioms: tuple[AxiomSetRecognizer, ...]) -> bool:
    """Whether ``axioms`` hold the logical schemata, which the derived rules'
    templates cite: whether some recognizer holds each of :data:`LOGIC_SAMPLES`.
    Without them the closure and :func:`prove` apply only mp and gen."""
    return all(covering_set(parse(text), axioms) is not None for text in LOGIC_SAMPLES)


@dataclass(frozen=True)
class Budget:
    """Search limits: the number of derivation steps a run may spend."""

    max_steps: int = 10**6

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("budget counters must be positive")


@dataclass(frozen=True)
class BudgetReport:
    """What a run spent and why it stopped: at a fixpoint, out of steps, or (a
    :func:`prove` run with steps left and no proof) at :data:`BACKWARD_DEPTH`,
    which counts introductions and reductio; peeled antecedents spend none."""

    steps_expended: int
    max_steps: int
    fixpoint: bool

    def stop(self) -> str:
        """Which of the three stops ended a run that found no proof, in words."""
        if self.fixpoint:
            return (
                f"search reached a fixpoint after {self.steps_expended} steps "
                "without finding a proof"
            )
        if self.steps_expended < self.max_steps:
            return (
                f"search stopped at the backward depth cap of {BACKWARD_DEPTH} "
                f"after {self.steps_expended} steps without finding a proof"
            )
        return f"budget of {self.max_steps} steps exhausted"


# recipe kind -> kernel template, called with the builder, the derived formula,
# the recipe's arguments and the step indexes of the formulas emitted so far;
# the closure's recipes and prove's introductions both finish here
_EMIT = {
    "hyp": lambda b, g, a, done: b.add_hyp(a[0]),
    "axiom": lambda b, g, a, done: b.add_axiom_named(g, a[0]),
    "mp": lambda b, g, a, done: b.add_mp(done[a[0]], done[a[1]]),
    "notimp_l": lambda b, g, a, done: derive_notimp_left(b, done[a[0]]),
    "notimp_r": lambda b, g, a, done: derive_notimp_right(b, done[a[0]]),
    "dnelim": lambda b, g, a, done: derive_dnelim(b, done[a[0]]),
    "dnintro": lambda b, g, a, done: derive_dnintro(b, done[a[0]]),
    "andel1": lambda b, g, a, done: derive_andel(b, done[a[0]], 1),
    "andel2": lambda b, g, a, done: derive_andel(b, done[a[0]], 2),
    "andintro": lambda b, g, a, done: derive_andintro(b, done[a[0]], done[a[1]]),
    "orin_l": lambda b, g, a, done: derive_orin(b, done[a[0]], g.right, "left"),
    "orin_r": lambda b, g, a, done: derive_orin(b, done[a[0]], g.left, "right"),
    "imp_from_cons": lambda b, g, a, done: derive_imp_from_cons(b, done[a[0]], g.left),
    "imp_from_neg": lambda b, g, a, done: derive_imp_from_neg(b, done[a[0]], g.right),
    "explosion": lambda b, g, a, done: derive_explosion(b, done[a[0]], done[a[1]], g),
    "gen": lambda b, g, a, done: b.add_gen(done[a[0]], a[1]),
    # the introductions only prove's backward search uses
    "notimp_intro": lambda b, g, a, done: derive_notimp_intro(b, done[a[0]], done[a[1]]),
    "notand_l": lambda b, g, a, done: derive_notand(b, done[a[0]], g.body.right, 1),
    "notand_r": lambda b, g, a, done: derive_notand(b, done[a[0]], g.body.left, 2),
    "notor": lambda b, g, a, done: derive_notor(b, done[a[0]], done[a[1]]),
}


@dataclass(frozen=True)
class _Entry:
    recipe: tuple
    hyp_deps: frozenset[str]


class ClosureState:
    """Derived formulas with reconstructible justifications.

    Iteration over :attr:`formulas` follows derivation order, which is
    deterministic for a fixed input: the entries dict is kept in insertion
    order.
    """

    def __init__(
        self,
        hypotheses: tuple[tuple[str, Formula], ...],
        axioms: tuple[AxiomSetRecognizer, ...],
        report: BudgetReport,
        entries: dict[Formula, _Entry],
        contradiction: tuple[Formula, Formula] | None,
    ) -> None:
        self.hypotheses = hypotheses
        self.axioms = axioms
        self.report = report
        self._entries = entries
        self.contradiction = contradiction

    def __contains__(self, f: Formula) -> bool:
        return f in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def formulas(self) -> list[Formula]:
        return list(self._entries)

    def hyp_deps(self, f: Formula) -> frozenset[str]:
        return self._entries[f].hyp_deps

    def proof_of(self, f: Formula) -> Proof:
        """Rebuild a kernel proof of ``f`` from stored recipes, in a builder of its own."""
        if f not in self._entries:
            raise KeyError(f"not derived: {f!r}")
        b = ProofBuilder(self.hypotheses, self.axioms)
        return conclude(b, self.emit(b, f))

    def emit(self, b: ProofBuilder, f: Formula) -> int:
        """Append the recipes of ``f`` to ``b``, which binds every hypothesis
        they cite; return the index of ``f``."""
        # iterative post-order over recipe premises; builder dedup keeps it linear
        done: dict[Formula, int] = {}
        stack: list[tuple[Formula, bool]] = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if g in done:
                continue
            entry = self._entries[g]
            premises = [p for p in entry.recipe[1:] if isinstance(p, Formula) and p in self._entries]
            if not expanded:
                stack.append((g, True))
                for p in premises:
                    if p not in done:
                        stack.append((p, False))
                continue
            done[g] = _EMIT[entry.recipe[0]](b, g, entry.recipe[1:], done)
        return done[f]


def _named_hyps(X) -> tuple[tuple[str, Formula], ...]:
    """Normalize a formula list (or (name, formula) list) to named hypotheses;
    a bare formula at position i is named ``h<i>``.  Fresh assumptions and
    discharge key on names, so a repeated name is a ValueError."""
    out: dict[str, Formula] = {}
    for i, item in enumerate(X, start=1):
        name, f = (f"h{i}", item) if isinstance(item, Formula) else item
        if name in out:
            raise ValueError(f"repeated hypothesis name {name!r}")
        out[name] = f
    return tuple(out.items())


def _add_subformulas(
    found: dict[Formula, int], formulas: Iterable[Formula], stage: int, seen: dict[Formula, int]
) -> None:
    """Record ``formulas`` and their subformulas in ``found`` at ``stage``, in
    pre-order, skipping each one that ``found`` holds or that ``seen`` holds
    at that stage or an earlier one: its subformulas are held too."""
    stack = list(formulas)
    stack.reverse()
    while stack:
        g = stack.pop()
        if g in found or seen.get(g, stage + 1) <= stage:
            continue
        found[g] = stage
        if isinstance(g, (Implies, And, Or, Iff)):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Not, Forall, Exists)):
            stack.append(g.body)


def _sort_key(f: Formula) -> tuple[int, str]:
    """A pool member's place in the pool: by depth, then rendered text.  A
    member whose text would be longer than :data:`MAX_MEMBER_WIDTH` is refused
    with :class:`~proofbench.syntax.NestingError`, before its text is built."""
    text = f._text  # a node's text, once rendered
    width = len(text) if text else render_width(f)
    if width > MAX_MEMBER_WIDTH:
        raise NestingError(
            f"a pool member would render to {width} characters, "
            f"past MAX_MEMBER_WIDTH ({MAX_MEMBER_WIDTH})"
        )
    return (connective_depth(f), text or render(f))


def sorted_pool(pool: Iterable[Formula]) -> list[Formula]:
    """Deterministic pool ordering: by depth, then rendered text."""
    return sorted(pool, key=_sort_key)


def _slots(f: Formula) -> tuple[tuple[int, Formula], ...]:
    """The index lists ``f`` belongs to, as (index, key) pairs.  The indexes
    are :class:`Pool`'s ``imp_by_right``, ``imp_by_left``, ``and_by_side``,
    ``or_by_side`` and ``all_by_body``, in that order."""
    if isinstance(f, Implies):
        return ((0, f.right), (1, f.left))
    if isinstance(f, (And, Or)):
        i = 2 if isinstance(f, And) else 3
        return ((i, f.left),) if f.right == f.left else ((i, f.left), (i, f.right))
    if isinstance(f, Forall):
        return ((4, f.body),)
    return ()


class Pool:
    """A finite instantiation pool: of an axioms tuple alone, or widened by
    the members contexts bring.

    Holds the members, each mapped to its sort key in :attr:`keys` and to the
    earliest :func:`assemble_pool` stage a walk found it at in :attr:`stages`; the
    indexes the closure's pool-gated introductions look up; and the
    recognized axiom-set members, each paired with the name of the first
    recognizer that contains it.  Index lists and axiom members follow the
    render order of :func:`sorted_pool`, which decides the proofs.
    Read-only: :meth:`widened` builds a new pool.
    """

    def __init__(
        self,
        keys: dict[Formula, tuple[int, str]],
        indexes: tuple[dict[Formula, list[Formula]], ...],
        axioms: tuple[tuple[Formula, str], ...],
        stages: dict[Formula, int],
    ) -> None:
        self.keys = keys
        self.members = keys.keys()
        self.indexes = indexes
        (
            self.imp_by_right,
            self.imp_by_left,
            self.and_by_side,
            self.or_by_side,
            self.all_by_body,
        ) = indexes
        self.axioms = axioms
        self.stages = stages

    def widened(
        self, formulas: Iterable[Formula], recognizers: tuple[AxiomSetRecognizer, ...]
    ) -> Pool:
        """This pool widened by the members a context of ``formulas`` brings,
        walked by :func:`assemble_pool` over ``recognizers``, the axioms this
        pool was built over.  It is the pool of every context walked so far,
        walked together.  An index or list that gains no member is shared
        with this pool."""
        found = assemble_pool(formulas, recognizers, self)
        if not found:
            return self
        stages = self.stages | found
        added = {f: _sort_key(f) for f in found if f not in self.keys}
        if not added:
            return Pool(self.keys, self.indexes, self.axioms, stages)
        keys = self.keys | added
        joined: dict[tuple[int, Formula], list[Formula]] = {}
        for f in added:
            for slot in _slots(f):
                joined.setdefault(slot, []).append(f)
        out = list(self.indexes)
        for (i, k), fs in joined.items():
            if out[i] is self.indexes[i]:
                out[i] = dict(out[i])
            out[i][k] = sorted([*out[i].get(k, ()), *fs], key=keys.__getitem__)
        axioms = self.axioms
        labelled = tuple(
            (f, name) for f in added if (name := covering_set(f, recognizers)) is not None
        )
        if labelled:
            axioms = tuple(sorted(axioms + labelled, key=lambda m: keys[m[0]]))
        return Pool(keys, tuple(out), axioms, stages)


def assemble_pool(
    formulas: Iterable[Formula], axioms: tuple[AxiomSetRecognizer, ...], pool: Pool
) -> dict[Formula, int]:
    """The walk of a context's ``formulas`` into ``pool``: each formula it
    finds, mapped to the stage it is found at.

    Stage 0 holds the subformulas of ``formulas``; stage i adds the
    subformulas of what the i-th ``generate_for`` hook of ``axioms`` builds
    from the formulas of the earlier stages.  The hooks map each formula on
    its own, and a subformula brings no member its parent does not, so a
    formula ``pool`` holds at a stage no later than this walk's is skipped:
    the hooks after that stage have seen it.  So each hook sees each formula
    at most once in a pool and the pools widened from it."""
    seen = pool.stages
    found: dict[Formula, int] = {}
    _add_subformulas(found, formulas, 0, seen)
    stage = 0
    for r in axioms:
        if r.generate_for is not None:
            stage += 1
            for f in list(found):  # found before this stage, earlier hooks' members included
                if seen.get(f, stage) >= stage:  # not yet seen by this hook
                    _add_subformulas(found, r.generate_for(f), stage, seen)
    return found


@lru_cache(maxsize=16)
def _axiom_pool(axioms: tuple[AxiomSetRecognizer, ...]) -> Pool:
    """The pool every context over ``axioms`` starts from: the subformulas of
    :data:`NAMED_FORMULAS` and of every finite core, widened by the
    ``generate_for`` hooks.  Keyed by the recognizers in order: the first
    one that contains a member labels it."""
    sources = (*NAMED_FORMULAS.values(), *(f for r in axioms for f in r.finite_core))
    empty = Pool({}, tuple({} for _ in range(5)), (), {})
    return empty.widened(sources, axioms)


@lru_cache(maxsize=1)
def _hypothesis_pool(
    hyp_formulas: tuple[Formula, ...], axioms: tuple[AxiomSetRecognizer, ...]
) -> Pool:
    """The axioms' pool widened by the members the hypotheses bring.  The
    last one built is kept, so a run of claims over one context walks its
    hypotheses once."""
    return _axiom_pool(axioms).widened(hyp_formulas, axioms)


@lru_cache(maxsize=1)
def pool_for(
    hyp_formulas: tuple[Formula, ...],
    axioms: tuple[AxiomSetRecognizer, ...],
    goal: Formula | None,
) -> Pool:
    """The :class:`Pool` of a context: its :func:`_hypothesis_pool`, widened
    by the members the goal brings.  The walk skips what the hypotheses'
    walk has seen, and the result is the pool of the hypotheses and the goal
    walked together.  The last one built is kept, so the refutation premises
    and the proof search of a claim share it."""
    pool = _hypothesis_pool(hyp_formulas, axioms)
    return pool if goal is None else pool.widened((goal,), axioms)


class _Saturation:
    """One forward-closure run.  Mutable; produces a ClosureState.

    A negation is built only where the pool allows it: a node that is not
    alive is in no pool and no entry, so each negation test probes the
    intern table with :func:`~proofbench.syntax.find` first.
    """

    def __init__(
        self,
        hypotheses: tuple[tuple[str, Formula], ...],
        axioms: tuple[AxiomSetRecognizer, ...],
        pool: Pool,
        budget: Budget,
        goal: Formula | None,
    ) -> None:
        self.hypotheses = hypotheses
        self.axioms = axioms
        self.pool = pool
        self.budget = budget
        self.goal = goal
        self.templates = covers_logic(axioms)
        self.hyps_by_name = dict(hypotheses)
        self.entries: dict[Formula, _Entry] = {}
        self.frontier: deque[Formula] = deque()
        self.steps = 0
        self.contradiction: tuple[Formula, Formula] | None = None
        # derived implications, by antecedent
        self.majors_by_left: dict[Formula, list[Formula]] = {}

    def allowed(self, f: Formula) -> bool:
        """Whether ``f`` may be derived: a pool member or its negation, within
        :data:`MAX_DEPTH`."""
        if connective_depth(f) > MAX_DEPTH:
            return False
        members = self.pool.members
        return f in members or (isinstance(f, Not) and f.body in members)

    def allowed_not(self, g: Formula) -> Formula | None:
        """``Not(g)`` if :meth:`allowed` takes it, else None; built only then."""
        if connective_depth(g) >= MAX_DEPTH:
            return None
        members = self.pool.members
        if g in members:
            return Not(g)
        neg = find(Not, g)
        return neg if neg is not None and neg in members else None

    def spent(self) -> bool:
        return self.steps >= self.budget.max_steps

    def add(self, f: Formula, recipe: tuple, deps: frozenset[str], free: bool = False) -> bool:
        """Index ``f`` if new; returns True when added.  Non-free additions cost a step.

        The first pair ``g``, ``~g`` that are both entries is recorded as
        the contradiction.
        """
        if f in self.entries:
            return False
        if not free:
            if self.spent():
                return False
            self.steps += 1
        self.entries[f] = _Entry(recipe, deps)
        self.frontier.append(f)
        neg = find(Not, f)
        if neg is not None and neg in self.entries and self.contradiction is None:
            self.contradiction = (f, neg)
        elif isinstance(f, Not) and f.body in self.entries and self.contradiction is None:
            self.contradiction = (f.body, f)
        return True

    def run(self) -> ClosureState:
        for name, f in self.hypotheses:
            # (a1): the base set is in the closure at any budget
            self.add(f, ("hyp", name), frozenset((name,)), free=True)
        for f, name in self.pool.axioms:
            if self.spent():
                break
            self.add(f, ("axiom", name), frozenset())
        # a goal that is an entry ends the run: its recipe is fixed
        while self.frontier and not self.spent() and self.goal not in self.entries:
            f = self.frontier.popleft()
            self.expand(f)
            if self.contradiction is not None and self.goal is not None and self.templates:
                a, na = self.contradiction
                if self.goal not in self.entries and self.allowed(self.goal):
                    deps = self.entries[a].hyp_deps | self.entries[na].hyp_deps
                    self.add(self.goal, ("explosion", a, na), deps)
        report = BudgetReport(
            steps_expended=self.steps,
            max_steps=self.budget.max_steps,
            fixpoint=not self.frontier,
        )
        return ClosureState(
            self.hypotheses, self.axioms, report, self.entries, self.contradiction
        )

    def expand(self, f: Formula) -> None:
        """Apply every rule that takes ``f`` as a premise, adding each
        conclusion that the pool allows."""
        deps = self.entries[f].hyp_deps
        # modus ponens, this formula as the major premise
        if isinstance(f, Implies):
            self.majors_by_left.setdefault(f.left, []).append(f)
            if f.left in self.entries and self.allowed(f.right):
                self.add(
                    f.right, ("mp", f.left, f), deps | self.entries[f.left].hyp_deps
                )
        # modus ponens, this formula as the minor premise
        for major in self.majors_by_left.get(f, ()):
            if major in self.entries and self.allowed(major.right):
                self.add(
                    major.right,
                    ("mp", f, major),
                    deps | self.entries[major].hyp_deps,
                )
        if self.templates:
            self.derived_rules(f, deps)
        for quant in self.pool.all_by_body.get(f, ()):
            if any(quant.var in free_vars(self.hyps_by_name[n]) for n in deps):
                continue
            self.add(quant, ("gen", f, quant.var), deps)

    def derived_rules(self, f: Formula, deps: frozenset[str]) -> None:
        """Apply the rules that take ``f`` and finish through a template."""
        # decompositions
        if isinstance(f, Not) and isinstance(f.body, Implies):
            if self.allowed(f.body.left):
                self.add(f.body.left, ("notimp_l", f), deps)
            neg = self.allowed_not(f.body.right)
            if neg is not None:
                self.add(neg, ("notimp_r", f), deps)
        if isinstance(f, Not) and isinstance(f.body, Not):
            if self.allowed(f.body.body):
                self.add(f.body.body, ("dnelim", f), deps)
        if isinstance(f, And):
            if self.allowed(f.left):
                self.add(f.left, ("andel1", f), deps)
            if self.allowed(f.right):
                self.add(f.right, ("andel2", f), deps)
        # pool-gated introductions; ~~f is not alive when ~f is not
        neg = find(Not, f)
        dn = None if neg is None else self.allowed_not(neg)
        if dn is not None:
            self.add(dn, ("dnintro", f), deps)
        pool = self.pool
        for imp in pool.imp_by_right.get(f, ()):
            self.add(imp, ("imp_from_cons", f), deps)
        if isinstance(f, Not):
            for imp in pool.imp_by_left.get(f.body, ()):
                self.add(imp, ("imp_from_neg", f), deps)
        for conj in pool.and_by_side.get(f, ()):
            other = conj.right if conj.left == f else conj.left
            if other in self.entries:
                left, right = conj.left, conj.right
                self.add(
                    conj,
                    ("andintro", left, right),
                    self.entries[left].hyp_deps | self.entries[right].hyp_deps,
                )
        for disj in pool.or_by_side.get(f, ()):
            recipe = ("orin_l", f) if disj.left == f else ("orin_r", f)
            self.add(disj, recipe, deps)


def bounded_closure(
    X,
    axioms: tuple[AxiomSetRecognizer, ...],
    budget: Budget | None = None,
) -> ClosureState:
    """Budget-bounded consequence closure of ``X`` under the axiom sets.

    ``X`` may contain formulas or (name, formula) pairs.
    """
    hyps, axioms = _named_hyps(X), tuple(axioms)
    pool = pool_for(tuple(f for _, f in hyps), axioms, None)
    return _Saturation(hyps, axioms, pool, budget or Budget(), None).run()


@dataclass(frozen=True)
class SearchOutcome:
    """``proof`` is None when the search exhausted its budget or options."""

    proof: Proof | None
    report: BudgetReport


#: The most introductions and reductio steps :func:`prove` stacks on one
#: branch.  Peels spend none: the goal's connective depth bounds them.
BACKWARD_DEPTH = 12


def _introductions(goal: Formula) -> list[tuple[str, tuple[Formula, ...]]]:
    """The introduction rules that conclude ``goal``, in the order
    :func:`prove` tries them, each as its :data:`_EMIT` kind and premises."""
    if isinstance(goal, And):
        return [("andintro", (goal.left, goal.right))]
    if isinstance(goal, Or):
        return [("orin_l", (goal.left,)), ("orin_r", (goal.right,))]
    if not isinstance(goal, Not):
        return []
    inner = goal.body
    if isinstance(inner, Not):
        return [("dnintro", (inner.body,))]
    if isinstance(inner, Implies):
        return [("notimp_intro", (inner.left, Not(inner.right)))]
    if isinstance(inner, And):
        return [("notand_l", (Not(inner.left),)), ("notand_r", (Not(inner.right),))]
    if isinstance(inner, Or):
        return [("notor", (Not(inner.left), Not(inner.right)))]
    return []


def _fresh_name(hyps: tuple[tuple[str, Formula], ...]) -> str:
    """The name of an assumption the search adds to ``hyps``: the least
    ``g<n>``, n at least ``len(hyps) + 1``, that no hypothesis holds."""
    taken = {name for name, _ in hyps}
    n = len(hyps) + 1
    while f"g{n}" in taken:
        n += 1
    return f"g{n}"


class _Searcher:
    """One :func:`prove` call's search state.  Every closure saturates over
    one pool: the top context's, widened by the members each later context
    brings from outside it."""

    def __init__(
        self,
        hypotheses: tuple[tuple[str, Formula], ...],
        goal: Formula,
        axioms: tuple[AxiomSetRecognizer, ...],
        budget: Budget,
    ) -> None:
        self.axioms = axioms
        self.b = ProofBuilder(hypotheses, axioms)  # every level appends here
        self.pool = pool_for(tuple(f for _, f in hypotheses), axioms, goal)
        self.templates = covers_logic(axioms)
        self.budget = budget
        self.steps = 0
        self.closures: dict[tuple, ClosureState] = {}
        self.failed: dict[tuple, float] = {}  # (goal, hyps-key) -> depth failed; inf: uncut
        self.cuts = 0  # branches cut at depth 0, counting memo hits on cut failures

    def remaining(self) -> int:
        return max(0, self.budget.max_steps - self.steps)

    def closure_for(
        self, hyps: tuple[tuple[str, Formula], ...], goal: Formula
    ) -> ClosureState | None:
        """The closure of ``hyps`` toward ``goal``; None when it is not built
        yet and no step is left to build it.  A new context widens the pool
        by the members it brings; its walk skips every formula the pool has
        seen, so a context of seen formulas walks nothing."""
        hyp_formulas = tuple(f for _, f in hyps)
        got = self.closures.get((hyp_formulas, goal))
        if got is None:
            if self.remaining() == 0:
                return None
            self.pool = self.pool.widened((*hyp_formulas, goal), self.axioms)
            got = _Saturation(hyps, self.axioms, self.pool, Budget(self.remaining()), goal).run()
            self.steps += got.report.steps_expended
            self.closures[hyp_formulas, goal] = got
        return got

    def prove(
        self, goal: Formula, hyps: tuple[tuple[str, Formula], ...], depth: int
    ) -> int | None:
        key = (goal, tuple(f for _, f in hyps))
        failed = self.failed.get(key, -1)
        if failed >= depth:
            if failed < math.inf:  # that failure cut a branch, and so would this one
                self.cuts += 1
            return None
        cuts = self.cuts
        found = self._attempt(goal, hyps, depth)
        if found is None:
            self.failed[key] = math.inf if self.cuts == cuts else max(failed, depth)
        return found

    def _attempt(
        self, goal: Formula, hyps: tuple[tuple[str, Formula], ...], depth: int
    ) -> int | None:
        """Walk the peel chain of ``goal`` in one loop, then decompose its
        end.  Peeling ``A -> B``, ``A`` a sentence, is invertible, so it
        spends no depth; each level asks its own closure first.  Each peel is
        assumed, then discharged innermost first, or dropped on failure."""
        b = self.b
        peeled: list[str] = []
        found = None
        while True:
            closure = self.closure_for(hyps, goal)
            if closure is not None and goal in closure:
                found = closure.emit(b, goal)
            elif closure is not None and self.remaining() > 0 and self.templates:
                # every backward rule finishes through a template
                if isinstance(goal, Implies) and is_sentence(goal.left):
                    name = _fresh_name(hyps)
                    b.assume(name, goal.left)
                    peeled.append(name)
                    hyps += ((name, goal.left),)
                    goal = goal.right
                    continue
                found = self._decompose(goal, hyps, depth)
            break
        for name in reversed(peeled):
            if found is None:
                b.drop(name)
            else:
                (found,) = discharge(b, name, found)
        return found

    def _decompose(
        self, goal: Formula, hyps: tuple[tuple[str, Formula], ...], depth: int
    ) -> int | None:
        """The introductions, then reductio: the backward rules that spend depth."""
        if depth <= 0:
            self.cuts += 1
            return None
        for kind, premises in _introductions(goal):
            done = {}
            for premise in premises:
                sub = self.prove(premise, hyps, depth - 1)
                if sub is None:
                    break
                done[premise] = sub
            else:
                return _EMIT[kind](self.b, goal, premises, done)
        if isinstance(goal, Not) and is_sentence(goal.body):
            # reductio: assume the body, close, look for a contradiction
            name = _fresh_name(hyps)
            closure = self.closure_for(hyps + ((name, goal.body),), goal)
            if closure is not None and closure.contradiction is not None:
                self.b.assume(name, goal.body)
                sides = [closure.emit(self.b, f) for f in closure.contradiction]
                return derive_refute(self.b, *discharge(self.b, name, *sides))
        return None


def prove(
    goal: Formula,
    X,
    axioms: tuple[AxiomSetRecognizer, ...],
    budget: Budget | None = None,
) -> SearchOutcome:
    """Search for a kernel proof of ``goal`` from hypotheses ``X``.

    Iterative deepening over backward decompositions; each frontier consults
    the forward closure.  Deterministic; returns the first proof found.  A
    pass that cuts no branch walked the whole search tree: it ends the search.
    Every level appends to one builder and passes step indexes, so the proof
    is concluded once.  It is not checked here: callers that hand it on
    check it strictly, once.
    """
    budget = budget or Budget()
    hyps = _named_hyps(X)
    searcher = _Searcher(hyps, goal, tuple(axioms), budget)
    for depth in range(BACKWARD_DEPTH + 1):
        cuts = searcher.cuts
        found = searcher.prove(goal, hyps, depth)
        if found is not None or searcher.remaining() == 0 or searcher.cuts == cuts:
            break
    report = BudgetReport(
        steps_expended=searcher.steps,
        max_steps=budget.max_steps,
        fixpoint=found is None and searcher.remaining() > 0 and searcher.cuts == cuts,
    )
    return SearchOutcome(None if found is None else conclude(searcher.b, found), report)

