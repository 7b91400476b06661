"""The instantiation pool: built in parts, equal to building it whole.

``reference_pool`` is the pool builder as it was before the axiom-set part of
each pool was built once per axioms tuple: it walks every source formula,
sorts every member and labels each one, for every context.  The engine's
:func:`~proofbench.engine.pool_for`, and a pool widened by a second context,
must hold the same members, the same index lists in the same order and the
same labelled axiom members.  A walk skips every formula its pool has seen
at its stage, and contexts walked in turn into one pool must still build the
pool of all of them walked together.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import engine
from proofbench.engine import assemble_pool, pool_for, prove
from proofbench.parser import render
from proofbench.schemata import (
    BETA0,
    NAMED_FORMULAS,
    PSI_AXIOMS,
    AxiomSetRecognizer,
    axiom_set,
)
from proofbench.scripts import builtin_claims, builtin_scripts
from proofbench.syntax import (
    And,
    Atom,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    connective_depth,
    universal_closure,
)
from proofbench.transforms import phi1_instance, phi4_instance

from strategies import antecedent_chain, formulas, sentences, spied

INDEXES = ("imp_by_right", "imp_by_left", "and_by_side", "or_by_side", "all_by_body")


def reference_members(hyp_formulas, axioms, goal):
    pool = {}

    def add(f):
        # pre-order, left before right, a shared subtree once per path
        pool.setdefault(f, None)
        if isinstance(f, (Implies, And, Or, Iff)):
            add(f.left)
            add(f.right)
        elif isinstance(f, (Not, Forall, Exists)):
            add(f.body)

    for f in hyp_formulas:
        add(f)
    if goal is not None:
        add(goal)
    for f in NAMED_FORMULAS.values():
        add(f)
    for r in axioms:
        for f in r.finite_core:
            add(f)
    for r in axioms:
        if r.generate_for is None:
            continue
        for f in list(pool):
            for m in r.generate_for(f):
                add(m)
    return tuple(pool)


def reference_pool(hyp_formulas, axioms, goal):
    """(members, {index name: index dict}, axiom members) of a context."""
    members = frozenset(reference_members(hyp_formulas, axioms, goal))
    indexes = {name: {} for name in INDEXES}
    axiom_members = []
    for f in sorted(members, key=lambda f: (connective_depth(f), render(f))):
        if isinstance(f, Implies):
            indexes["imp_by_right"].setdefault(f.right, []).append(f)
            indexes["imp_by_left"].setdefault(f.left, []).append(f)
        elif isinstance(f, And):
            indexes["and_by_side"].setdefault(f.left, []).append(f)
            if f.right != f.left:
                indexes["and_by_side"].setdefault(f.right, []).append(f)
        elif isinstance(f, Or):
            indexes["or_by_side"].setdefault(f.left, []).append(f)
            if f.right != f.left:
                indexes["or_by_side"].setdefault(f.right, []).append(f)
        elif isinstance(f, Forall):
            indexes["all_by_body"].setdefault(f.body, []).append(f)
        # the first recognizer that contains a member labels it
        name = next((r.name for r in axioms if r.contains(f)), None)
        if name is not None:
            axiom_members.append((f, name))
    return members, indexes, tuple(axiom_members)


def assert_pool_is(pool, hyp_formulas, axioms, goal):
    members, indexes, axiom_members = reference_pool(hyp_formulas, axioms, goal)
    assert pool.members == members
    for name in INDEXES:
        assert getattr(pool, name) == indexes[name], name
    assert pool.axioms == axiom_members


def assert_same_pool(hyp_formulas, axioms, goal):
    # uncached: a cached pool would hide a build that differs
    assert_pool_is(pool_for.__wrapped__(hyp_formulas, axioms, goal), hyp_formulas, axioms, goal)


BUILTIN_CLAIMS = [c for s in builtin_scripts() for c in builtin_claims(s)]


def test_builtin_contexts_build_the_reference_pool():
    for claim in BUILTIN_CLAIMS:
        axioms = tuple(axiom_set(n) for n in claim.axiom_names)
        hyps = tuple(f for _, f in claim.hypotheses)
        for goal in {claim.goal, None}:
            assert_same_pool(hyps, axioms, goal)


#: every axioms tuple the built-in scripts use, plus the logical axioms alone
AXIOM_TUPLES = sorted({c.axiom_names for c in BUILTIN_CLAIMS} | {("L12",)})


def test_axiom_tuples_cover_every_generate_for_hook():
    # L11, LT1 and PrefixedL2r widen the pool; one tuple stacks two of them
    hooked = {n for t in AXIOM_TUPLES for n in t if axiom_set(n).generate_for}
    assert hooked == {"L11", "LT1", "PrefixedL2r"}
    assert ("L11", "PrefixedL2r", "NPsi3dot") in AXIOM_TUPLES
    assert len(AXIOM_TUPLES) == 10


# open logic instances closed over their free variables are what the
# generate_for hooks widen, so the draw leans on them and on pool material
_OPEN = formulas(max_depth=1, quantifiers=False)
_MATERIAL = (*NAMED_FORMULAS.values(), *PSI_AXIOMS.values(), BETA0)
context_formulas = st.one_of(
    sentences(max_depth=2),
    st.builds(phi4_instance, _OPEN, _OPEN).map(universal_closure),
    st.builds(phi1_instance, _OPEN, _OPEN, _OPEN).map(universal_closure),
    st.builds(phi4_instance, st.sampled_from(_MATERIAL), st.sampled_from(_MATERIAL)),
    st.sampled_from(_MATERIAL),
)


@settings(max_examples=60, deadline=None)
@given(
    names=st.sampled_from(AXIOM_TUPLES),
    hyps=st.lists(context_formulas, max_size=3),
    goal=st.none() | context_formulas,
)
def test_drawn_contexts_build_the_reference_pool(names, hyps, goal):
    assert_same_pool(tuple(hyps), tuple(axiom_set(n) for n in names), goal)


# No built-in hook fires on what another one generates, so the order in which
# stacked hooks see each other's members is pinned with two made-up ones: the
# second widens what the first generates.
NEGATE = AxiomSetRecognizer(
    "negate",
    lambda f: isinstance(f, Not),
    generate_for=lambda f: (Not(f),) if isinstance(f, Atom) else (),
)
DOUBLE = AxiomSetRecognizer(
    "double",
    lambda f: isinstance(f, And),
    generate_for=lambda f: (And(f, f),) if isinstance(f, Not) else (),
)


@settings(max_examples=40, deadline=None)
@given(
    axioms=st.permutations((NEGATE, DOUBLE, axiom_set("L12"))),
    hyps=st.lists(context_formulas, max_size=3),
    goal=st.none() | context_formulas,
)
def test_stacked_hooks_build_the_reference_pool(axioms, hyps, goal):
    assert_same_pool(tuple(hyps), tuple(axioms), goal)


#: every axioms tuple a claim may name, and every order of the made-up hooks
AXIOMS_AND_STACKED_HOOKS = st.sampled_from(AXIOM_TUPLES).map(
    lambda t: tuple(axiom_set(n) for n in t)
) | st.permutations((NEGATE, DOUBLE, axiom_set("L12"))).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    axioms=AXIOMS_AND_STACKED_HOOKS,
    first=st.lists(context_formulas, max_size=3),
    first_goal=st.none() | context_formulas,
    second=st.lists(context_formulas, max_size=2),
    second_goal=context_formulas,
)
def test_widening_builds_the_pool_of_the_union(axioms, first, first_goal, second, second_goal):
    # a pool widened by what a second context adds is the pool of both
    pool = pool_for.__wrapped__(tuple(first), axioms, first_goal)
    widened = pool.widened((*second, second_goal), axioms)
    assert_pool_is(widened, (*first, *second, second_goal), axioms, first_goal)


@settings(max_examples=300, deadline=None)
@given(
    axioms=AXIOMS_AND_STACKED_HOOKS,
    first=st.lists(context_formulas, min_size=1, max_size=3),
    later=st.integers(1, 3),
    data=st.data(),
)
def test_walking_contexts_in_turn_builds_the_pool_of_their_union(axioms, first, later, data):
    # each walk skips what the pool has seen; a later context brings earlier
    # formulas, their subformulas and their hook outputs, and a hook that has
    # not seen one of those must still see it: NEGATE builds ~a, and a later
    # context of ~a is DOUBLE's to widen when DOUBLE comes first.  No hook
    # sees a formula twice: DOUBLE has seen that ~a when it comes second
    hooked: list = []
    watched = tuple(spied(r, hooked) for r in axioms)
    base = engine._axiom_pool(watched)
    pool, walked = base.widened(tuple(first), watched), list(first)
    for _ in range(later):
        subformulas = [f for f in pool.members if f not in base.members]
        hooks = [r.generate_for for r in axioms if r.generate_for]
        outputs = [m for hook in hooks for f in subformulas for m in hook(f)]
        sources = [st.sampled_from(fs) for fs in (walked, subformulas, outputs) if fs]
        context = data.draw(st.lists(st.one_of(*sources, context_formulas), min_size=1, max_size=3))
        pool = pool.widened(tuple(context), watched)
        walked += context
    assert len(hooked) == len(set(hooked))
    assert_pool_is(pool, walked, watched, None)


HOOK_FREE = [t for t in AXIOM_TUPLES if not any(axiom_set(n).generate_for for n in t)]


@settings(max_examples=60, deadline=None)
@given(
    names=st.sampled_from(HOOK_FREE),
    hyps=st.lists(context_formulas, max_size=3),
    goal=st.none() | context_formulas,
    data=st.data(),
)
def test_a_context_of_pool_members_brings_nothing_without_hooks(names, hyps, goal, data):
    # the pool is closed under subformulas: with no generate_for hook, every
    # member was walked from, so a context of members finds nothing to walk
    axioms = tuple(axiom_set(n) for n in names)
    pool = pool_for.__wrapped__(tuple(hyps), axioms, goal)
    members = st.sampled_from(list(pool.members))
    context = (*data.draw(st.lists(members, max_size=3)), data.draw(members))
    assert assemble_pool(context, axioms, pool) == {}
    assert pool.widened(context, axioms) is pool


@pytest.mark.parametrize("names", [("L12",), ("PrefixedL2r", "L12")], ids=["L12", "PrefixedL2r"])
def test_prove_walks_only_contexts_that_may_widen_the_pool(monkeypatch, names):
    # every context of the chain holds goal subformulas, which the top
    # context's walks have seen: each later context finds nothing to walk
    # and runs no hook, with or without a generate_for hook
    hooked: list = []
    axioms = tuple(spied(axiom_set(n), hooked) for n in names)
    engine._axiom_pool(axioms)  # built before counting
    hooked.clear()
    calls, runs = [], []  # (formulas, found, hook calls so far) per walk
    real_walk, real_run = engine.assemble_pool, engine._Saturation.run

    def walk(formulas, axioms, pool):
        found = real_walk(formulas, axioms, pool)
        calls.append((tuple(formulas), found, len(hooked)))
        return found

    def run(self):
        runs.append(self)
        return real_run(self)

    monkeypatch.setattr(engine, "assemble_pool", walk)
    monkeypatch.setattr(engine._Saturation, "run", run)
    pool_for.cache_clear()  # recognizers are shared: an earlier test may hold this pool
    engine._hypothesis_pool.cache_clear()
    goal = antecedent_chain(8)
    assert prove(goal, [], axioms).proof is not None
    assert [formulas for formulas, _, _ in calls[:2]] == [(), (goal,)]
    assert not any(found for _, found, _ in calls[2:])
    assert all(n == calls[1][2] for _, _, n in calls[2:])  # no hook call after the goal's walk
    assert len(hooked) == len(set(hooked)) and bool(hooked) == (len(names) > 1)
    assert (len(calls), len(runs)) == (11, 9)


#: each axioms tuple a claim may name, and the made-up stacked hooks
SEQUENCE_AXIOMS = [tuple(axiom_set(n) for n in t) for t in AXIOM_TUPLES] + [
    (NEGATE, DOUBLE, axiom_set("L12"))
]


@pytest.mark.parametrize(
    "axioms", SEQUENCE_AXIOMS, ids=[",".join(r.name for r in t) for t in SEQUENCE_AXIOMS]
)
@settings(max_examples=8, deadline=None)
@given(
    hyps=st.lists(context_formulas, max_size=3),
    goals=st.lists(st.none() | context_formulas, min_size=1, max_size=3),
    other_hyps=st.lists(context_formulas, max_size=2),
    other_axioms=st.sampled_from(SEQUENCE_AXIOMS),
    switch=st.sampled_from(["hyps", "axioms", "both"]),
)
def test_a_run_of_claims_over_one_context_keeps_the_pool_of_each(
    axioms, hyps, goals, other_hyps, other_axioms, switch
):
    # the cached pools of the context, one per claim, then of a second
    # context or axioms tuple: a stale hypothesis pool would differ here
    second = (
        tuple(other_hyps) if switch != "axioms" else tuple(hyps),
        other_axioms if switch != "hyps" else axioms,
    )
    for context in ((tuple(hyps), axioms), second):
        for goal in (*goals, goals[0]):
            assert_pool_is(pool_for(*context, goal), *context, goal)
