"""Two-valued skeleton oracle and the bounded arithmetic evaluator."""

import random
import time
from functools import reduce
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proofbench import semantics
from proofbench.parser import MAX_NESTING, parse
from proofbench.schemata import NAMED_FORMULAS, PSI_AXIOMS, Q_AXIOMS
from proofbench.semantics import (
    SkeletonLimitError,
    ThreeValued,
    arith_counterexample,
    arith_verdict,
    eval_arith,
    falsifying_valuation,
    is_tautology,
    lowest_row,
    satisfying_valuation,
    skeleton_entails,
    skeletonize,
    skeletonize_all,
    eval_skeleton,
)
from proofbench.syntax import (
    And,
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    connective_depth,
    free_vars,
    universal_closure,
)
from proofbench.transforms import (
    phi1_instance,
    phi2_instance,
    phi5_instance,
    phi9_instance,
    phi10_instance,
)

from strategies import (
    BINARY,
    CLOSED_ATOMS,
    VAR_IDS,
    brute_eval,
    first_occurrence_atoms,
    formulas,
    sentences,
)

P = parse("1 < 1")
Q = parse("0 = 1")
TRUE, FALSE, UNKNOWN = ThreeValued.TRUE, ThreeValued.FALSE, ThreeValued.UNKNOWN


def brute_is_tautology(f, atom_universe):
    n = len(atom_universe)
    for bits in range(1 << n):
        valuation = {a: bool(bits >> k & 1) for k, a in enumerate(atom_universe)}
        if not brute_eval(f, valuation):
            return False
    return True


def atom_universe_of(f):
    _, atoms = skeletonize_all([f])
    return atoms


def brute_lowest_row(premises, goal=None, pinned=None):
    """The lowest row making the premises true and the goal false, row by row.

    Pinned atoms are true on every row; free atom k is bit k of the row.
    """
    atoms = first_occurrence_atoms([*premises] + ([goal] if goal is not None else []))
    free = [a for a in atoms if pinned is None or not pinned(a)]
    for bits in range(1 << len(free)):
        truth = {a: bool(bits >> k & 1) for k, a in enumerate(free)}
        valuation = {a: truth.get(a, True) for a in atoms}
        if all(brute_eval(p, valuation) for p in premises) and (
            goal is None or not brute_eval(goal, valuation)
        ):
            return valuation
    return None


# ---------------------------------------------------------------------------
# tautology oracle


def test_schema_instances_are_tautologies():
    for f in (
        phi1_instance(P, Q, Not(P)),
        phi2_instance(P),
        phi5_instance(P, Q),
        phi9_instance(P, Q),
        phi10_instance(P, Q, Not(Q)),
    ):
        assert is_tautology(f)
        assert falsifying_valuation(f) is None


def test_non_tautologies_come_with_falsifying_valuations():
    for f in (P, Implies(P, Q), NAMED_FORMULAS["u27"], Iff(P, Not(P))):
        if is_tautology(f):
            continue
        valuation = falsifying_valuation(f)
        assert valuation is not None
        assert brute_eval(f, valuation) is False


def test_quantified_subformulas_are_opaque():
    # (Ax1)(x1 = x1) and its matrix are distinct atoms
    f = Implies(Forall(1, parse("x1 = x1")), parse("x1 = x1"))
    assert not is_tautology(f)
    g = Implies(Forall(1, parse("x1 = x1")), Forall(1, parse("x1 = x1")))
    assert is_tautology(g)


def test_identical_subformulas_share_an_atom():
    f = Or(P, Not(P))
    assert is_tautology(f)
    _, atoms = skeletonize_all([f])
    assert atoms == (P,)


def test_oracle_agrees_with_brute_force_sample():
    rng = random.Random(11)
    # structured random sample; the exhaustive corpus runs in the acceptance suite
    from strategies import exhaustive_formulas

    levels = exhaustive_formulas(CLOSED_ATOMS, 2)
    corpus = [f for layer in levels for f in layer]
    for f in rng.sample(corpus, 400):
        assert is_tautology(f) == brute_is_tautology(f, atom_universe_of(f))
        # the countermodels are the lowest rows, which REFUTED artifacts record
        assert falsifying_valuation(f) == brute_lowest_row([], f)
    for _ in range(200):
        premises, goal = rng.sample(corpus, 2), rng.choice(corpus)
        row = brute_lowest_row(premises, goal)
        assert skeleton_entails(premises, goal) == (row is None, row)
        assert satisfying_valuation(premises) == brute_lowest_row(premises)


def test_satisfying_valuation():
    assert satisfying_valuation([P, Not(P)]) is None
    got = satisfying_valuation([Implies(P, Q), Not(Q)])
    assert got is not None
    assert brute_eval(P, got) is False  # forced: ~Q plus P->Q


def test_skeleton_entails():
    ok, _ = skeleton_entails([Not(Implies(P, Q))], P)
    assert ok
    ok, valuation = skeleton_entails([P], Q)
    assert not ok
    assert valuation is not None
    assert brute_eval(P, valuation) is True
    assert brute_eval(Q, valuation) is False


def test_atom_cap_enforced():
    atoms = [Atom("<", (Var(i), Var(i))) for i in range(1, 23)]
    f = atoms[0]
    for a in atoms[1:]:
        f = Or(f, a)
    with pytest.raises(SkeletonLimitError):
        is_tautology(f)


#: a small atom pool, so that premises and goal share atoms; two are quantified
SWEEP_ATOMS = (
    *CLOSED_ATOMS,
    parse("1 = 0"),
    Forall(1, parse("x1 = x1")),
    Exists(2, parse("x2 < 1")),
)


def sweep_formulas():
    def extend(children):
        return st.one_of(
            st.builds(Not, children), *(st.builds(k, children, children) for k in BINARY)
        )

    return st.recursive(st.sampled_from(SWEEP_ATOMS), extend, max_leaves=8)


@pytest.mark.parametrize("block", [2, semantics._BLOCK_ATOMS])  # 2: sweeps span blocks
@pytest.mark.parametrize("shape", ["premises", "goal", "both"])
@settings(max_examples=80, deadline=None)
@given(
    premises=st.lists(sweep_formulas(), min_size=1, max_size=3),
    goal=sweep_formulas(),
    held=st.none() | st.sets(st.sampled_from(SWEEP_ATOMS)),
)
def test_sweep_matches_the_row_by_row_reference(block, shape, premises, goal, held):
    premises = [] if shape == "goal" else premises
    goal = None if shape == "premises" else goal
    calls = []
    pinned = None if held is None else (lambda a: calls.append(a) or a in held)
    with mock.patch.object(semantics, "_BLOCK_ATOMS", block):
        got = lowest_row(premises, goal, pinned)
    atoms = first_occurrence_atoms(premises + ([goal] if goal is not None else []))
    if held is not None:
        # one call per distinct atom, in first-occurrence order
        assert calls == list(atoms)
    want = brute_lowest_row(premises, goal, None if held is None else held.__contains__)
    assert (None if got is None else dict(got)) == want
    assert got is None or tuple(a for a, _ in got) == atoms


def shared_premises(parts):
    """Premises over a few drawn parts, so subtrees recur within and across them."""
    part = st.sampled_from(parts)
    return st.lists(
        st.one_of(part, st.builds(Not, part), *(st.builds(k, part, part) for k in BINARY)),
        min_size=1,
        max_size=4,
    )


@settings(max_examples=80, deadline=None)
@given(
    parts=st.lists(sweep_formulas(), min_size=1, max_size=3),
    held=st.sets(st.sampled_from(SWEEP_ATOMS)),
    data=st.data(),
)
def test_sweeps_with_shared_subtrees_number_atoms_as_the_plain_walk(parts, held, data):
    # two sweeps over premises that share subtrees: the second reads the
    # memoised atoms of the first, and both number them as a walk with no memo
    for _ in range(2):
        premises = data.draw(shared_premises(parts))
        goal = data.draw(st.none() | st.sampled_from(parts))
        for f in premises:
            want = first_occurrence_atoms([f])
            assert semantics._skeleton_atoms(f) == want
            assert semantics._skeleton_atoms.__wrapped__(f) == want
        got = lowest_row(premises, goal, held.__contains__)
        atoms = first_occurrence_atoms(premises + ([goal] if goal is not None else []))
        assert got is None or tuple(a for a, _ in got) == atoms
        want = brute_lowest_row(premises, goal, held.__contains__)
        assert (None if got is None else dict(got)) == want


#: The seconds a sweep over a 200-fold self-conjunction may take.  Each
#: block computes a shared subtree's table once: 0.0003 s measured (py3.11),
#: where a table per path took 0.2 s already at 18-fold.
SHARED_SUBTREE_SECONDS = 1.0


def test_a_sweep_computes_a_shared_subtree_once_per_block():
    eq00, eq01 = parse("0 = 0"), parse("0 = 1")
    f = g = eq00
    for _ in range(200):
        f = And(f, f)
        g = Iff(Or(g, eq01), Implies(eq01, g))  # two atoms; g is equivalent to 0 = 0
    t0 = time.perf_counter()
    assert lowest_row([f], Not(f)) == ((eq00, True),)
    assert lowest_row([g], eq00) is None
    assert lowest_row([], g) == ((eq00, False), (eq01, False))
    assert time.perf_counter() - t0 < SHARED_SUBTREE_SECONDS


def test_sweep_at_the_atom_cap():
    atoms = [Atom("<", (Var(i), Var(i))) for i in range(1, 22)]
    every = reduce(And, atoms[:20])
    # a full sweep of 2**20 rows, and a countermodel on its very last row
    assert is_tautology(Or(every, Not(every)))
    assert falsifying_valuation(Not(every)) == dict.fromkeys(atoms[:20], True)
    wide = reduce(And, atoms)
    with pytest.raises(SkeletonLimitError):
        lowest_row((), Not(wide))
    # a pinned atom takes no bit: 21 atoms, 20 of them free
    row = lowest_row((), Not(wide), pinned=lambda a: a is atoms[0])
    assert row == tuple((a, True) for a in atoms)


def test_eval_skeleton_bits():
    roots, atoms = skeletonize_all([Implies(P, Q)])
    assert len(atoms) == 2
    # bit k of the mask is atom k's truth value
    truth = {
        bits: eval_skeleton(roots[0], bits) for bits in range(4)
    }
    p_idx = atoms.index(P)
    q_idx = atoms.index(Q)
    for bits, value in truth.items():
        p = bool(bits >> p_idx & 1)
        q = bool(bits >> q_idx & 1)
        assert value is ((not p) or q)


@settings(max_examples=150, deadline=None)
@given(formulas(quantifiers=False))
def test_oracle_matches_brute_force_property(f):
    universe = atom_universe_of(f)
    if len(universe) > 10:
        return
    assert is_tautology(f) == brute_is_tautology(f, universe)


# ---------------------------------------------------------------------------
# bounded arithmetic evaluator


def test_universal_falsified_within_bound():
    f = parse("(Ax1)(x1 < 1)")
    assert eval_arith(f, 5) is FALSE
    assert arith_counterexample(f, 5) == {1: 1}


def test_existential_witnessed_within_bound():
    assert eval_arith(parse("(Ex3)(1 + x3 = S(1))"), 5) is TRUE


def test_universal_true_up_to_bound_is_unknown():
    assert eval_arith(parse("(Ax1)(1 < x1 + 1)"), 5) is UNKNOWN


def test_existential_false_up_to_bound_is_unknown():
    assert eval_arith(parse("(Ex1)(x1 + 1 = 1)"), 5) is UNKNOWN


def test_quantifier_free_sentences_are_decided():
    assert eval_arith(parse("1 < 1"), 5) is FALSE
    assert eval_arith(parse("~(1 < 1)"), 5) is TRUE
    assert eval_arith(parse("1 = 1 /\\ 0 < 1"), 5) is TRUE


def test_domain_starts_at_one():
    # the universe is {1..N}: no element is below 1
    assert eval_arith(Exists(1, parse("x1 < 1")), 5) is UNKNOWN
    assert eval_arith(Exists(1, parse("x1 = 1")), 5) is TRUE


def test_counterexample_assignment_none_for_non_false():
    assert arith_counterexample(parse("(Ex1)(x1 = 1)"), 5) is None


def test_axioms_survive_the_bounded_model():
    for f in list(PSI_AXIOMS.values()) + list(Q_AXIOMS.values()):
        assert eval_arith(f, 8) in (TRUE, UNKNOWN)


def test_eval_monotone_in_bound():
    rng = random.Random(23)
    sample = list(PSI_AXIOMS.values())[:4] + [
        parse("(Ax1)(x1 < 1)"),
        parse("(Ex3)(1 + x3 = S(1))"),
        parse("(Ax1)(Ex2)(x1 < x2)"),
        parse("(Ex1)(Ax2)(x2 < x1)"),
    ]
    for f in sample:
        verdicts = [eval_arith(f, n) for n in (2, 4, 7)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            if earlier in (TRUE, FALSE):
                assert later is earlier


# ---------------------------------------------------------------------------
# the compiled evaluator against the tree-walking one it replaced


def _and3(a, b):
    if a is FALSE or b is FALSE:
        return FALSE
    if a is TRUE and b is TRUE:
        return TRUE
    return UNKNOWN


def _or3(a, b):
    if a is TRUE or b is TRUE:
        return TRUE
    if a is FALSE and b is FALSE:
        return FALSE
    return UNKNOWN


def _iff3(a, b):
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return TRUE if a is b else FALSE


def _guard_prunes(f, env, bound):
    binders = set()
    g = f
    while isinstance(g, Forall):
        binders.add(g.var)
        g = g.body
    if not isinstance(g, Implies):
        return False
    guard_fv = set(free_vars(g.left))
    if guard_fv & binders or not guard_fv <= env.keys():
        return False
    return reference_eval_arith(g.left, bound, env) is not TRUE


def reference_eval_term(t, env):
    if isinstance(t, Var):
        return env[t.id]
    if isinstance(t, Const):
        return int(t.name)
    args = [reference_eval_term(u, env) for u in t.args]
    if t.func == "S":
        return args[0] + 1
    return args[0] + args[1] if t.func == "+" else args[0] * args[1]


def reference_eval_arith(f, bound, env=None):
    """Walks the tree, evaluates both sides of every connective, copies ``env``."""
    env = {} if env is None else env
    if isinstance(f, Atom):
        a = reference_eval_term(f.args[0], env)
        b = reference_eval_term(f.args[1], env)
        return TRUE if (a == b if f.pred == "=" else a < b) else FALSE
    if isinstance(f, Not):
        return ~reference_eval_arith(f.body, bound, env)
    if isinstance(f, Forall):
        if _guard_prunes(f, env, bound):
            return UNKNOWN
        for n in range(1, bound + 1):
            if reference_eval_arith(f.body, bound, {**env, f.var: n}) is FALSE:
                return FALSE
        return UNKNOWN
    if isinstance(f, Exists):
        for n in range(1, bound + 1):
            if reference_eval_arith(f.body, bound, {**env, f.var: n}) is TRUE:
                return TRUE
        return UNKNOWN
    a = reference_eval_arith(f.left, bound, env)
    b = reference_eval_arith(f.right, bound, env)
    if isinstance(f, Implies):
        return _or3(~a, b)
    if isinstance(f, And):
        return _and3(a, b)
    if isinstance(f, Or):
        return _or3(a, b)
    return _iff3(a, b)


def reference_counterexample(f, bound):
    if reference_eval_arith(f, bound) is not FALSE:
        return None
    env = {}
    g = f
    while isinstance(g, Forall):
        for n in range(1, bound + 1):
            if reference_eval_arith(g.body, bound, {**env, g.var: n}) is FALSE:
                env[g.var] = n
                g = g.body
                break
        else:
            return None
    return env or None


def quantifier_depth(f):
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (Forall, Exists)):
        return 1 + quantifier_depth(f.body)
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    return max(quantifier_depth(f.left), quantifier_depth(f.right))


_SMALL = formulas(max_depth=2)
_BLOCK = st.lists(st.sampled_from(VAR_IDS), min_size=1, max_size=3)
_PREFIX = st.lists(
    st.tuples(st.sampled_from([Forall, Exists]), st.sampled_from(VAR_IDS)), max_size=2
)


@st.composite
def guarded_sentences(draw):
    """A universal block ending in ``guard -> body``, under other quantifiers.

    The guard's variables may or may not be the block's binders, so the block
    may or may not be decided by its guard alone.
    """
    f = Implies(draw(_SMALL), draw(_SMALL))
    for v in reversed(draw(_BLOCK)):
        f = Forall(v, f)
    for q, v in draw(_PREFIX):
        f = q(v, f)
    return universal_closure(f)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sentences(), guarded_sentences()), st.integers(1, 6))
def test_compiled_evaluator_matches_the_tree_walker(f, bound):
    assume(bound ** quantifier_depth(f) <= 400)
    assert eval_arith(f, bound) is reference_eval_arith(f, bound)
    assert arith_counterexample(f, bound) == reference_counterexample(f, bound)


@settings(max_examples=150, deadline=None)
@given(formulas(), st.integers(1, 6), st.lists(st.integers(1, 6), min_size=4, max_size=4))
def test_compiled_evaluator_reads_env(f, bound, values):
    assume(bound ** quantifier_depth(f) <= 400)
    env = dict(zip(VAR_IDS, values))
    assert eval_arith(f, bound, env) is reference_eval_arith(f, bound, env)


@pytest.mark.parametrize(
    "text, prunes",
    [
        ("(Ax1)(Ax2)(x3 = 1 -> x1 + x2 = x2 + x1)", True),
        ("(Ax1)(Ax2)(x1 = 1 -> x2 < 1)", False),  # the guard reads a binder
        ("(Ax1)(Ax2)(x3 < x3 -> x1 = x2)", True),
        ("(Ax1)((Ex2)(x2 = x3) -> (Ax2)(x2 < x1))", True),
        ("(Ax1)(x1 = x1 <-> (Ex2)(x2 + x3 = x1))", False),  # no implication
    ],
)
def test_guards_that_prune_and_guards_that_do_not(text, prunes):
    f = parse(text)
    block, binders = f, set()
    while isinstance(block, Forall):
        binders.add(block.var)
        block = block.body
    assert (isinstance(block, Implies) and binders.isdisjoint(free_vars(block.left))) is prunes
    for bound in range(1, 7):
        for x3 in range(1, 7):
            env = {3: x3}
            assert eval_arith(f, bound, env) is reference_eval_arith(f, bound, env)


def test_free_variables_outside_env_raise_up_front():
    # the tree walker never reached x2: the guard 0 = 1 decided the block
    f = parse("(Ax1)(0 = 1 -> x2 = x1)")
    assert reference_eval_arith(f, 5) is UNKNOWN
    with pytest.raises(ValueError, match="unbound variable x2"):
        eval_arith(f, 5)
    assert eval_arith(f, 5, {2: 1}) is UNKNOWN
    with pytest.raises(ValueError, match="bound must be at least 1"):
        eval_arith(parse("1 = 1"), 0)


@pytest.mark.parametrize(
    "text, bound, want",
    [
        ("(Ax1)(Ax2)(x1 < x2)", 5, {1: 1, 2: 1}),
        ("(Ax1)(Ax2)(Ax1)(x1 + x2 < S(S(S(1))))", 3, {1: 3, 2: 1}),  # x1 rebound
        ("(Ax1)(Ax2)(x1 = S(1) -> x2 < S(1))", 3, {1: 2, 2: 2}),  # the guard reads a binder
        ("~(1 = 1)", 3, None),  # false, but no universal block to assign
    ],
)
def test_counterexamples_match_the_tree_walker(text, bound, want):
    f = parse(text)
    got = arith_counterexample(f, bound)
    assert got == want == reference_counterexample(f, bound)
    assert got is None or list(got) == list(reference_counterexample(f, bound))


def test_oracles_take_formulas_at_the_nesting_cap():
    # no node passes MAX_NESTING: these walkers recurse through at most that
    # many connectives and then at most that many term levels
    def over(n, wrap, node):
        for _ in range(n):
            node = wrap(node)
        return node

    def atom(base):
        tall = over(MAX_NESTING, lambda t: App("S", (t,)), base)
        return Atom("=", (tall, tall))

    true = over(MAX_NESTING, Not, atom(Const("0")))  # an even number of ~
    false = Forall(1, over(MAX_NESTING - 1, Not, atom(Var(1))))
    assert connective_depth(true) == connective_depth(false) == MAX_NESTING
    assert is_tautology(true) is False
    assert lowest_row((true,)) == ((atom(Const("0")), True),)
    assert skeletonize(true).root(1) is True
    assert eval_arith(true, 2) is ThreeValued.TRUE
    assert arith_verdict(false, 2) == (ThreeValued.FALSE, {1: 1})
