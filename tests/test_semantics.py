"""Two-valued skeleton oracle and the bounded arithmetic evaluator."""

import random

import pytest
from hypothesis import given, settings

from proofbench.parser import parse
from proofbench.schemata import PSI_AXIOMS, Q_AXIOMS, named_formula
from proofbench.semantics import (
    SkeletonLimitError,
    ThreeValued,
    arith_counterexample,
    eval_arith,
    eval_term,
    falsifying_valuation,
    is_tautology,
    satisfying_valuation,
    skeleton_entails,
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
)
from proofbench.transforms import (
    phi1_instance,
    phi2_instance,
    phi5_instance,
    phi9_instance,
    phi10_instance,
)

from strategies import CLOSED_ATOMS, formulas

P = parse("1 < 1")
Q = parse("0 = 1")
TRUE, FALSE, UNKNOWN = ThreeValued.TRUE, ThreeValued.FALSE, ThreeValued.UNKNOWN


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


def brute_lowest_row(premises, goal=None):
    """The lowest row (atom k = bit k) making the premises true and the goal false."""
    atoms = first_occurrence_atoms([*premises] + ([goal] if goal is not None else []))
    for bits in range(1 << len(atoms)):
        valuation = {a: bool(bits >> k & 1) for k, a in enumerate(atoms)}
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
    for f in (P, Implies(P, Q), named_formula("u27"), Iff(P, Not(P))):
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
        assert value == ((not p) or q)


@settings(max_examples=150, deadline=None)
@given(formulas(quantifiers=False))
def test_oracle_matches_brute_force_property(f):
    universe = atom_universe_of(f)
    if len(universe) > 10:
        return
    assert is_tautology(f) == brute_is_tautology(f, universe)


# ---------------------------------------------------------------------------
# bounded arithmetic evaluator


def test_eval_term():
    env = {1: 3}
    assert eval_term(Const("0"), env) == 0
    assert eval_term(Const("1"), env) == 1
    assert eval_term(App("S", (Var(1),)), env) == 4
    assert eval_term(App("+", (Var(1), Const("1"))), env) == 4
    assert eval_term(App("*", (Var(1), App("S", (Const("1"),)))), env) == 6


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
