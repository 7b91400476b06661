"""Shared generators for the test suite.

Two families:

* hypothesis strategies (``terms``, ``formulas``, ...) for property tests;
* seeded ``random.Random`` builders (``random_proof``, ``exhaustive_formulas``)
  for the bulk corpus tests, which need deterministic large samples.

``brute_eval`` and ``first_occurrence_atoms`` read propositional skeletons
without ``proofbench.semantics``, so tests can check the sweep against them.
``antecedent_chain`` builds a goal that needs one discharge per antecedent,
``disjunction_tower`` one that needs one introduction per disjunction,
``alternating`` and ``tall_atom`` formulas whose text can pass the
parser's frame cap, ``weakening`` a three-step proof over any formula,
``induction_candidate`` an induction instance with a tall term and
``phi10_candidate`` a non-instance that the phi10 reader rebuilds higher;
``unreachable_steps`` checks the shape of the proofs the engine and the
transforms return, ``records`` reads the steps a builder step depends on
off the whole log, ``reference_lift`` is the lifting loop that
:func:`~proofbench.transforms.discharge` is compared against for size and
``reference_discharge`` the one it must match step for step,
``ReferenceSaturation`` the closure loop that saturates past its goal, and
``ReferenceSearcher`` the backward search whose peels spend depth.
``near_the_recursion_limit`` runs a call with few frames left.
``spied`` copies a recognizer with a ``generate_for`` hook that records
each formula it is called with.
``full_text_script`` writes a proof with every formula in full on its line,
as a hand-written script does: the view through which the full-text proof
digests and report-tree hashes are taken.
"""

from __future__ import annotations

import dataclasses
import random
import sys

from hypothesis import strategies as st

from proofbench.engine import BudgetReport, ClosureState, _fresh_name, _Saturation, _Searcher
from proofbench.parser import parse, render
from proofbench.proofs import Ax, Gen, Hyp, Mp, Proof, ProofStep
from proofbench.schemata import NAMED_FORMULAS, PSI_AXIOMS, axiom_set
from proofbench.syntax import (
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
    Var,
    find,
    is_sentence,
    universal_closure,
)
from proofbench.transforms import (
    ProofBuilder,
    _replay,
    derive_andintro,
    derive_dnintro,
    derive_identity,
    derive_imp_from_cons,
    derive_orin,
    discharge,
    phi1_instance,
    phi4_instance,
    phi12_instance,
)

# ---------------------------------------------------------------------------
# skeleton reference: evaluates formulas without proofbench.semantics


def brute_eval(f, valuation):
    """Independent recursive evaluator used to cross-check the oracle."""
    if isinstance(f, Not):
        return not brute_eval(f.body, valuation)
    if isinstance(f, And):
        return brute_eval(f.left, valuation) and brute_eval(f.right, valuation)
    if isinstance(f, Or):
        return brute_eval(f.left, valuation) or brute_eval(f.right, valuation)
    if isinstance(f, Implies):
        return (not brute_eval(f.left, valuation)) or brute_eval(f.right, valuation)
    if isinstance(f, Iff):
        return brute_eval(f.left, valuation) == brute_eval(f.right, valuation)
    return valuation[f]  # atoms and quantified subformulas are opaque


def first_occurrence_atoms(formulas):
    """Skeleton atoms in first-occurrence order, found without the oracle."""
    seen = {}

    def walk(f):
        if isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, (And, Or, Implies, Iff)):
            walk(f.left)
            walk(f.right)
        else:
            seen.setdefault(f, None)

    for f in formulas:
        walk(f)
    return tuple(seen)


# ---------------------------------------------------------------------------
# hypothesis strategies

VAR_IDS = (1, 2, 3, 4)


def terms(max_depth: int = 2) -> st.SearchStrategy:
    base = st.one_of(
        st.sampled_from([Var(i) for i in VAR_IDS]),
        st.sampled_from([Const("0"), Const("1")]),
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(
            st.builds(lambda t: App("S", (t,)), children),
            st.builds(lambda a, b: App("+", (a, b)), children, children),
            st.builds(lambda a, b: App("*", (a, b)), children, children),
        )

    return st.recursive(base, extend, max_leaves=max_depth + 2)


def atoms() -> st.SearchStrategy:
    return st.builds(
        lambda p, a, b: Atom(p, (a, b)),
        st.sampled_from(["=", "<"]),
        terms(),
        terms(),
    )


def formulas(max_depth: int = 3, quantifiers: bool = True) -> st.SearchStrategy:
    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        options = [
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
        ]
        if quantifiers:
            options.append(
                st.builds(Forall, st.sampled_from(VAR_IDS), children)
            )
            options.append(
                st.builds(Exists, st.sampled_from(VAR_IDS), children)
            )
        return st.one_of(*options)

    return st.recursive(atoms(), extend, max_leaves=max_depth + 2)


def sentences(max_depth: int = 3) -> st.SearchStrategy:
    return formulas(max_depth).map(universal_closure)


# ---------------------------------------------------------------------------
# exhaustive propositional corpus

CLOSED_ATOMS = (
    Atom("<", (Const("0"), Const("1"))),
    Atom("=", (Const("0"), Const("0"))),
    Atom("<", (Const("1"), Const("1"))),
)
BINARY = (And, Or, Implies, Iff)


def exhaustive_formulas(atom_pool, max_connectives: int):
    """Every formula tree over ``atom_pool`` with at most ``max_connectives``
    connective nodes, grouped in layers by exact connective count."""
    levels = [list(atom_pool)]
    for k in range(1, max_connectives + 1):
        layer = [Not(f) for f in levels[k - 1]]
        for i in range(k):
            j = k - 1 - i
            for f in levels[i]:
                for g in levels[j]:
                    for op in BINARY:
                        layer.append(op(f, g))
        levels.append(layer)
    return levels


# ---------------------------------------------------------------------------
# random checked proofs

_L12 = (axiom_set("L12"),)

SENTENCE_POOL = (
    PSI_AXIOMS["psi1"],
    PSI_AXIOMS["psi7"],
    NAMED_FORMULAS["u27"],
    Not(PSI_AXIOMS["psi1"]),
)

# closed quantifier-free pool for the soundness-bridge corpus
QF_POOL = (
    parse("1 < 1"),
    parse("0 = 1"),
    parse("~(0 < 1)"),
)


def random_proof(
    rng: random.Random,
    max_steps: int = 20,
    pool=SENTENCE_POOL,
    max_hyps: int = 3,
) -> Proof:
    """A checked proof with at most ``max_steps`` steps from closed hypotheses.

    Steps are grown with the derived-rule helpers (all total on arbitrary
    existing steps), so every generated proof passes the kernel checker.
    """
    names = [f"h{i}" for i in range(1, rng.randint(1, max_hyps) + 1)]
    hyps = tuple((n, rng.choice(pool)) for n in names)
    b = ProofBuilder(hyps, axioms=_L12)
    for n in names:
        b.add_hyp(n)
    ops = ("dnintro", "orin", "andintro", "impcons", "ident", "phi4mp")
    for _ in range(60):
        steps = b.proof().steps
        if len(steps) >= max_steps:
            break
        i = rng.randint(1, len(steps))
        op = rng.choice(ops)
        if op == "dnintro":
            derive_dnintro(b, i)
        elif op == "orin":
            derive_orin(b, i, rng.choice(pool), rng.choice(("left", "right")))
        elif op == "andintro":
            derive_andintro(b, i, rng.randint(1, len(steps)))
        elif op == "impcons":
            derive_imp_from_cons(b, i, rng.choice(pool))
        elif op == "ident":
            derive_identity(b, rng.choice(pool))
        else:
            j = b.add_axiom(phi4_instance(b.formula(i), rng.choice(pool)))
            b.add_mp(i, j)
    p = b.proof()
    if len(p.steps) > max_steps:
        p = Proof(p.hypotheses, p.steps[:max_steps])
    return p


def full_text_script(proof: Proof) -> str:
    """``proof`` as a script with each formula rendered in full on its line."""
    lines = [f"hyp {name} {render(f)}" for name, f in proof.hypotheses]
    for step in proof.steps:
        j = step.just
        if isinstance(j, Hyp):
            jt = f"hyp {j.name}"
        elif isinstance(j, Ax):
            jt = f"axiom {j.set_name}"
        elif isinstance(j, Mp):
            jt = f"mp {j.i} {j.j}"
        else:
            jt = f"gen {j.i} x{j.var}"
        lines.append(f"{step.index}. {render(step.formula)} ; {jt}")
    return "\n".join(lines) + "\n"


def unreachable_steps(proof: Proof) -> list[int]:
    """The indexes of the steps that the last step does not depend on."""
    used = {len(proof.steps)}
    for step in reversed(proof.steps):
        if step.index in used:
            j = step.just
            if isinstance(j, Mp):
                used.update((j.i, j.j))
            elif isinstance(j, Gen):
                used.add(j.i)
    return [s.index for s in proof.steps if s.index not in used]


def antecedent_chain(n: int) -> Implies:
    """``a1 -> (a1 -> a2) -> ... -> (a(n-1) -> an) -> an``: n antecedents.

    Atom ``ai`` is ``S^i(0) = S^i(0)``.
    """
    atoms = []
    t = Const("0")
    for _ in range(n):
        t = App("S", (t,))
        atoms.append(Atom("=", (t, t)))
    goal = atoms[-1]
    for a in reversed([atoms[0]] + [Implies(a, b) for a, b in zip(atoms, atoms[1:])]):
        goal = Implies(a, goal)
    return goal


def disjunction_tower(f: Formula, k: int) -> Formula:
    """``f`` under ``k`` disjunctions ``(...(f \\/ 0 = 1)...) \\/ 0 = 1``:
    each spends one backward level on its left introduction."""
    false = Atom("=", (Const("0"), Const("1")))
    for _ in range(k):
        f = Or(f, false)
    return f


def near_the_recursion_limit(fn):
    """``fn()``, called with fewer than 60 frames left below the recursion
    limit: a walker that recursed once per level would run out."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def down(n):
        return fn() if n == 0 else down(n - 1)

    return down(sys.getrecursionlimit() - depth - 60)


def spied(r, seen: list):
    """A copy of recognizer ``r`` whose ``generate_for`` hook records in
    ``seen`` each (recognizer name, formula) it is called with; ``r`` itself
    when it has no hook.  The copy is a new recognizer, so no pool cached for
    ``r`` serves it."""
    if r.generate_for is None:
        return r

    def spy(f):
        seen.append((r.name, f))
        return r.generate_for(f)

    return dataclasses.replace(r, generate_for=spy)


def alternating(depth: int) -> Formula:
    """``~(0 = 0 -> ~(0 = 0 -> ... 0 = 0))`` of connective depth ``depth``,
    whose rendered text the parser refuses from depth 266 on."""
    eq = f = Atom("=", (Const("0"), Const("0")))
    for _ in range(depth // 2):
        f = Not(Implies(eq, f))
    return f


def tall_atom(height: int) -> Atom:
    """``S(S(...S(0)...)) = 0`` over a term of ``height``."""
    t = Const("0")
    for _ in range(height):
        t = App("S", (t,))
    return Atom("=", (t, Const("0")))


def weakening(f: Formula) -> Proof:
    """``{h: f} |- 0 = 0 -> f`` through phi1's instance ``f -> (0 = 0 -> f)``."""
    eq = Atom("=", (Const("0"), Const("0")))
    return Proof((("h", f),), (
        ProofStep(1, f, Hyp("h")),
        ProofStep(2, Implies(f, Implies(eq, f)), Ax("L12")),
        ProofStep(3, Implies(eq, f), Mp(1, 2)),
    ))


def induction_candidate(height: int) -> Implies:
    """``(0 = 0 /\\ (Ax1)(S^height(x1) = 0 -> 0 = 0)) -> 0 = 0``, which the
    ``Xp`` recognizer rebuilds with ``x1 + 1`` for ``x1``, one term level higher."""
    t = Var(1)
    for _ in range(height):
        t = App("S", (t,))
    eq00 = parse("0 = 0")
    return Implies(And(eq00, Forall(1, Implies(Atom("=", (t, Const("0"))), eq00))), eq00)


def phi10_candidate(depth: int) -> Implies:
    """``(A -> 0 = 0) -> ((0 = 0 -> 0 = 0) -> ((0 = 0 -> 0 = 0) -> 0 = 0))``
    with ``A = ~^depth(0 = 0)``, built in code: the first nine schemata miss
    it, and the phi10 reader rebuilds it four levels above ``A``."""
    eq00 = parse("0 = 0")
    a, taut = eq00, Implies(eq00, eq00)
    for _ in range(depth):
        a = Not(a)
    return Implies(Implies(a, eq00), Implies(taut, Implies(taut, eq00)))


def doubling_certificate(depth: int) -> str:
    """A script proving ``X(depth)`` from itself, with ``X(0) = (0 = 0)`` and
    ``X(k + 1) = X(k) /\\ X(k)``: ``depth + 3`` short lines, while the
    conclusion's rendered text has ``11 * 2**depth - 6`` characters."""
    lines = ["let d1 = 0 = 0"] + [f"let d{k + 1} = d{k} /\\ d{k}" for k in range(1, depth + 1)]
    top = f"d{depth + 1}"
    return "\n".join([*lines, f"hyp h {top}", f"1. {top} ; hyp h"]) + "\n"


def reference_lift(hyps, records, name, alpha, axioms):
    """The lifting loop as it was before ``alpha -> alpha`` was derived on
    first use and already-held lifted steps were reused: it derives the
    identity at the hypothesis and builds every lifted step's chain.  Returns
    the builder and the index of alpha -> chi."""
    b = ProofBuilder(tuple((n, f) for n, f in hyps if n != name), axioms)
    at = {}  # key of a step free of alpha -> its index in b
    imp = {}  # key of a step -> index of (alpha -> that step)

    def lifted(i):
        if i not in imp:
            imp[i] = derive_imp_from_cons(b, at[i], alpha)
        return imp[i]

    for key, formula, just in records:
        if isinstance(just, Hyp) and just.name == name:
            imp[key] = derive_identity(b, alpha)
        elif type(just) is not tuple or (just[0] in at and just[-1] in at):
            at[key] = _replay(b, formula, just, at)
        elif len(just) == 2:
            i, j = just
            minor = b.formula(at[i]) if i in at else b.formula(imp[i]).right
            s1 = b.add_axiom(phi1_instance(alpha, minor, formula))
            s2 = b.add_mp(lifted(j), s1)
            imp[key] = b.add_mp(lifted(i), s2)
        else:
            s1 = b.add_gen(imp[just[0]], formula.var)
            s2 = b.add_axiom(phi12_instance(formula.var, alpha, formula.body))
            imp[key] = b.add_mp(s1, s2)
    return b, lifted(key)


def records(b, idx):
    """The steps of builder ``b`` that step ``idx`` depends on, as logged,
    ascending: ``(number, formula, Hyp | Ax | premise numbers)``.  Every
    premise precedes the step that cites it, so one backward pass over the
    whole log marks them."""
    log = b._log
    used = [False] * (idx + 1)
    used[idx] = True
    for k in range(idx, 0, -1):
        if used[k]:
            just = log[k - 1][1]
            if type(just) is tuple:
                for premise in just:
                    used[premise] = True
    return [(k, *log[k - 1]) for k in range(1, idx + 1) if used[k]]


def reference_discharge(b, name, *conclusions):
    """:func:`~proofbench.transforms.discharge` as it was when it read each
    conclusion's steps with :func:`records`, a walk of the whole log, and
    skipped those free of alpha: it must append the same steps."""
    alpha = dict(b.hypotheses)[name]
    bit = b._bit[name]
    b.drop(name)
    deps = b._deps
    imp = {}  # step -> index of (alpha -> that step)

    def held(formula):
        f = find(Implies, alpha, formula)
        return None if f is None else b.idx_of(f)

    def lifted(i):
        if i not in imp:
            got = held(b.formula(i))
            if got is None:
                got = derive_identity(b, alpha) if deps[i] & bit else derive_imp_from_cons(b, i, alpha)
            imp[i] = got
        return imp[i]

    out = []
    for idx in conclusions:
        for key, formula, just in records(b, idx):
            if key in imp or not deps[key] & bit or type(just) is not tuple:
                continue
            if (got := held(formula)) is not None:
                imp[key] = got
            elif len(just) == 2:
                i, j = just
                s1 = b.add_axiom(phi1_instance(alpha, b.formula(i), formula))
                s2 = b.add_mp(lifted(j), s1)
                imp[key] = b.add_mp(lifted(i), s2)
            else:
                s1 = b.add_gen(lifted(just[0]), formula.var)
                s2 = b.add_axiom(phi12_instance(formula.var, alpha, formula.body))
                imp[key] = b.add_mp(s1, s2)
        out.append(lifted(idx))
    return out


class ReferenceSaturation(_Saturation):
    """The closure loop as it was before a goal-directed run stopped at its
    goal: it saturates to a fixpoint, or until the budget is spent, whether
    or not the goal is an entry."""

    def run(self):
        for name, f in self.hypotheses:
            self.add(f, ("hyp", name), frozenset((name,)), free=True)
        for f, name in self.pool.axioms:
            if self.spent():
                break
            self.add(f, ("axiom", name), frozenset())
        while self.frontier and not self.spent():
            self.expand(self.frontier.popleft())
            if self.contradiction is not None and self.goal is not None and self.templates:
                a, na = self.contradiction
                if self.goal not in self.entries and self.allowed(self.goal):
                    deps = self.entries[a].hyp_deps | self.entries[na].hyp_deps
                    self.add(self.goal, ("explosion", a, na), deps)
        report = BudgetReport(self.steps, self.budget.max_steps, fixpoint=not self.frontier)
        return ClosureState(self.hypotheses, self.axioms, report, self.entries, self.contradiction)


class ReferenceSearcher(_Searcher):
    """The backward search as it was before peels spent no depth: each
    peeled sentence antecedent is one more recursive level, and spends one
    of the search's depth levels."""

    def _attempt(self, goal, hyps, depth):
        closure = self.closure_for(hyps, goal)
        if closure is None:
            return None
        if goal in closure:
            return closure.emit(self.b, goal)
        if self.remaining() == 0 or not self.templates:
            return None
        if depth <= 0:
            self.cuts += 1
            return None
        if isinstance(goal, Implies) and is_sentence(goal.left):
            name = _fresh_name(hyps)
            self.b.assume(name, goal.left)
            sub = self.prove(goal.right, hyps + ((name, goal.left),), depth - 1)
            if sub is not None:
                return discharge(self.b, name, sub)[0]
            self.b.drop(name)
        return self._decompose(goal, hyps, depth)
