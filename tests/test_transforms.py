"""Derived-rule helpers and the hypothesis-discharging transforms."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench.engine import Budget, bounded_closure
from proofbench.parser import parse
from proofbench.proofs import (
    Ax,
    Gen,
    Hyp,
    Mp,
    Proof,
    ProofStep,
    check_proof,
    render_proof_script,
)
from proofbench.schemata import PSI_AXIOMS, axiom_set, named_formula
from proofbench.syntax import And, Forall, Implies, Not, Or
from proofbench.transforms import (
    ProofBuilder,
    TransformError,
    _builder,
    conclude,
    deduction_transform,
    derive_andel,
    derive_andintro,
    derive_chain,
    derive_dnelim,
    derive_dnintro,
    derive_explosion,
    derive_identity,
    derive_imp_from_cons,
    derive_imp_from_neg,
    derive_notimp_left,
    derive_notimp_right,
    derive_orin,
    derive_refute,
    discharge,
    explosion_transform,
    phi4_instance,
    reductio_transform,
    splice,
)

from strategies import (
    SENTENCE_POOL,
    formulas,
    random_proof,
    records,
    reference_discharge,
    reference_lift,
    sentences,
    unreachable_steps,
)

L12 = (axiom_set("L12"),)
PSI1 = PSI_AXIOMS["psi1"]
PSI7 = PSI_AXIOMS["psi7"]
U27 = named_formula("u27")


def _fresh(hyps=()):
    b = ProofBuilder(tuple(hyps), axioms=L12)
    for name, _ in hyps:
        b.add_hyp(name)
    return b


def _concludes(b, idx, expected):
    p = conclude(b, idx)
    assert p.steps[-1].formula == expected
    assert check_proof(p, L12).ok
    return p


def test_derive_identity():
    b = _fresh()
    i = derive_identity(b, PSI7)
    _concludes(b, i, Implies(PSI7, PSI7))


def test_derive_double_negation():
    b = _fresh((("h", PSI7),))
    i = b.idx_of(PSI7)
    j = derive_dnintro(b, i)
    _concludes(b, j, Not(Not(PSI7)))
    b2 = _fresh((("h", Not(Not(PSI7))),))
    j2 = derive_dnelim(b2, b2.idx_of(Not(Not(PSI7))))
    _concludes(b2, j2, PSI7)


def test_derive_conjunction():
    b = _fresh((("a", PSI7), ("b", PSI1)))
    k = derive_andintro(b, b.idx_of(PSI7), b.idx_of(PSI1))
    _concludes(b, k, And(PSI7, PSI1))
    b2 = _fresh((("h", And(PSI7, PSI1)),))
    left = derive_andel(b2, b2.idx_of(And(PSI7, PSI1)), 1)
    assert b2.formula(left) == PSI7
    right = derive_andel(b2, b2.idx_of(And(PSI7, PSI1)), 2)
    _concludes(b2, right, PSI1)


def test_derive_disjunction_intro():
    b = _fresh((("h", PSI7),))
    i = derive_orin(b, b.idx_of(PSI7), PSI1, "right")
    assert b.formula(i) in (Or(PSI7, PSI1), Or(PSI1, PSI7))
    j = derive_orin(b, b.idx_of(PSI7), PSI1, "left")
    assert {b.formula(i), b.formula(j)} == {Or(PSI7, PSI1), Or(PSI1, PSI7)}
    assert check_proof(b.proof(), L12).ok


def test_derive_negated_implication_split():
    h = Not(Implies(PSI7, PSI1))
    b = _fresh((("h", h),))
    i = derive_notimp_left(b, b.idx_of(h))
    assert b.formula(i) == PSI7
    j = derive_notimp_right(b, b.idx_of(h))
    _concludes(b, j, Not(PSI1))


def test_derive_implication_introductions():
    b = _fresh((("h", PSI1),))
    i = derive_imp_from_cons(b, b.idx_of(PSI1), PSI7)
    _concludes(b, i, Implies(PSI7, PSI1))
    b2 = _fresh((("h", Not(PSI7)),))
    j = derive_imp_from_neg(b2, b2.idx_of(Not(PSI7)), PSI1)
    _concludes(b2, j, Implies(PSI7, PSI1))


def test_derive_chain():
    b = _fresh((("ab", Implies(PSI7, PSI1)), ("bc", Implies(PSI1, U27))))
    k = derive_chain(b, b.idx_of(Implies(PSI7, PSI1)), b.idx_of(Implies(PSI1, U27)))
    _concludes(b, k, Implies(PSI7, U27))


def test_derive_explosion_and_refute():
    b = _fresh((("p", PSI1), ("n", Not(PSI1))))
    g = derive_explosion(b, b.idx_of(PSI1), b.idx_of(Not(PSI1)), U27)
    _concludes(b, g, U27)
    b2 = _fresh((("pos", Implies(PSI7, PSI1)), ("neg", Implies(PSI7, Not(PSI1)))))
    k = derive_refute(
        b2, b2.idx_of(Implies(PSI7, PSI1)), b2.idx_of(Implies(PSI7, Not(PSI1)))
    )
    _concludes(b2, k, Not(PSI7))


def test_splice_reuses_whole_proofs():
    inner_b = _fresh((("h", PSI7),))
    derive_dnintro(inner_b, inner_b.idx_of(PSI7))
    inner = inner_b.proof()
    outer = _fresh((("h", PSI7),))
    idx = splice(outer, inner)
    assert outer.formula(idx) == Not(Not(PSI7))
    assert check_proof(outer.proof(), L12).ok


@pytest.mark.parametrize(
    "steps",
    [
        (ProofStep(1, PSI1, Mp(1, 1)),),  # cites itself
        (ProofStep(1, PSI7, Hyp("h")), ProofStep(2, Forall(1, PSI7), Gen(5, 1))),  # a missing step
        (ProofStep(1, PSI7, Hyp("h")), ProofStep(2, PSI1, Mp(1, 1))),  # gives no psi1
        (ProofStep(1, PSI7, Hyp("h")), ProofStep(2, Forall(2, PSI7), Gen(1, 1))),  # another variable
    ],
)
def test_splice_refuses_a_proof_that_fails_the_checker(steps):
    bad = steps[-1].index
    with pytest.raises(TransformError, match=f"at step {bad}:"):
        splice(_fresh((("h", PSI7),)), Proof((("h", PSI7),), steps))


# ---------------------------------------------------------------------------
# deduction theorem


def hyp_proof() -> Proof:
    b = _fresh((("h", PSI7),))
    i = b.idx_of(PSI7)
    j = b.add_axiom(phi4_instance(PSI7, PSI1))
    b.add_mp(i, j)
    return b.proof()


def test_deduction_discharges_hypothesis():
    p = hyp_proof()  # {psi7} |- psi1 -> psi7
    out = deduction_transform(p, "h", L12)
    assert out.hypotheses == ()
    assert out.steps[-1].formula == Implies(PSI7, Implies(PSI1, PSI7))
    assert check_proof(out, L12).ok


def test_deduction_keeps_other_hypotheses():
    b = _fresh((("a", PSI7), ("b", PSI1)))
    derive_andintro(b, b.idx_of(PSI7), b.idx_of(PSI1))
    out = deduction_transform(b.proof(), "b", L12)
    assert out.hypotheses == (("a", PSI7),)
    assert out.steps[-1].formula == Implies(PSI1, And(PSI7, PSI1))
    assert check_proof(out, L12).ok


def test_deduction_handles_gen_steps():
    b = _fresh((("h", PSI7),))
    open_f = parse("x1 = x1")
    i = b.add_axiom(phi4_instance(open_f, open_f))
    b.add_gen(i, 1)
    out = deduction_transform(b.proof(), "h", L12)
    assert check_proof(out, L12).ok
    assert out.steps[-1].formula == Implies(
        PSI7, Forall(1, phi4_instance(open_f, open_f))
    )


def test_deduction_rejects_open_hypothesis():
    open_h = parse("x1 = x1")
    b = _fresh((("h", open_h),))
    plain = b.proof()
    b.add_gen(1, 1)  # generalizes over the hypothesis's free variable
    for proof in (plain, b.proof()):
        with pytest.raises(TransformError, match="only sentences can be discharged"):
            deduction_transform(proof, "h", L12)


def test_deduction_rejects_unknown_name():
    with pytest.raises(TransformError):
        deduction_transform(hyp_proof(), "nope", L12)


def test_deduction_rejects_broken_proof():
    broken = Proof((("h", PSI7),), (ProofStep(1, PSI1, Mp(1, 1)),))
    with pytest.raises(TransformError):
        deduction_transform(broken, "h", L12)


def test_deduction_round_trip_random():
    rng = random.Random(4242)
    for _ in range(40):
        p = random_proof(rng)
        name = rng.choice([n for n, _ in p.hypotheses])
        alpha = dict(p.hypotheses)[name]
        out = deduction_transform(p, name, L12)
        assert check_proof(out, L12).ok
        assert out.steps[-1].formula == Implies(alpha, p.steps[-1].formula)
        assert dict(out.hypotheses) == {
            n: f for n, f in p.hypotheses if n != name
        }
        assert len(out.steps) <= 3 * len(p.steps) + 8


def _depends_on(proof: Proof, name: str) -> set[int]:
    """The indexes of the steps whose derivation cites hypothesis ``name``."""
    dep: set[int] = set()
    for step in proof.steps:
        j = step.just
        if (
            (isinstance(j, Hyp) and j.name == name)
            or (isinstance(j, Mp) and dep & {j.i, j.j})
            or (isinstance(j, Gen) and j.i in dep)
        ):
            dep.add(step.index)
    return dep


def _with_unused_hypothesis(p: Proof, alpha) -> Proof:
    """``p`` trimmed to its conclusion's steps, with hypothesis ``u`` = alpha added."""
    b = ProofBuilder(p.hypotheses + (("u", alpha),), axioms=L12)
    return conclude(b, splice(b, p))


def test_deduction_weakens_a_proof_that_never_cites_the_hypothesis():
    rng = random.Random(77)
    for _ in range(40):
        p = _with_unused_hypothesis(random_proof(rng), rng.choice(SENTENCE_POOL))
        alpha = dict(p.hypotheses)["u"]
        out = deduction_transform(p, "u", L12)
        assert check_proof(out, L12, strict=True).ok
        assert out.steps[: len(p.steps)] == p.steps
        assert len(out.steps) == len(p.steps) + 2
        weaken, conclusion = out.steps[-2:]
        assert weaken.formula == phi4_instance(p.conclusion, alpha)
        assert isinstance(weaken.just, Ax)
        assert conclusion.formula == Implies(alpha, p.conclusion)
        assert conclusion.just == Mp(len(p.steps), weaken.index)


def test_deduction_copies_the_steps_free_of_the_hypothesis():
    # a formula no random proof mentions, so no lifted step restates a copied one
    fresh = parse("0 = 0")
    rng = random.Random(5151)
    for _ in range(40):
        p = random_proof(rng)
        b = ProofBuilder(p.hypotheses + (("a", fresh),), axioms=L12)
        pair = derive_andintro(b, splice(b, p), b.add_hyp("a"))
        both = conclude(b, derive_dnintro(b, pair))
        free = set(range(1, len(both.steps) + 1)) - _depends_on(both, "a")
        out = deduction_transform(both, "a", L12)
        assert check_proof(out, L12, strict=True).ok
        assert out.conclusion == Implies(fresh, Not(Not(And(p.conclusion, fresh))))
        kept = {s.formula for s in out.steps}
        assert all(both.steps[i - 1].formula in kept for i in free)


def test_deduction_lifts_gen_over_a_dependent_step():
    b = _fresh((("h", PSI7),))
    b.add_gen(b.idx_of(PSI7), 1)  # (Ax1)psi7, from the hypothesis
    out = deduction_transform(b.proof(), "h", L12)
    assert check_proof(out, L12, strict=True).ok
    assert out.steps[-1].formula == Implies(PSI7, Forall(1, PSI7))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_discharging_every_hypothesis_in_turn(rng):
    # as the engine does: the last hypothesis introduced is discharged first
    p = random_proof(rng, max_hyps=4)
    names = [n for n, _ in p.hypotheses]
    expected = p.conclusion
    for name in reversed(names):
        expected = Implies(dict(p.hypotheses)[name], expected)
        p = deduction_transform(p, name, L12)
        assert check_proof(p, L12, strict=True).ok
    assert p.hypotheses == ()
    assert p.conclusion == expected


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_discharge_is_no_longer_than_the_reference_loop(rng, gen):
    # the reference derives alpha -> alpha at the hypothesis and builds every
    # lifted step; discharge derives it on first use and reuses held steps
    p = random_proof(rng)
    for name, alpha in p.hypotheses:
        b = ProofBuilder(p.hypotheses, axioms=L12)
        idx = splice(b, p)
        if gen:  # a gen over the discharged hypothesis, maybe its first citation
            idx = derive_andintro(b, idx, b.add_gen(b.add_hyp(name), 1))
        out = conclude(b, *discharge(b, name, idx))
        ref = conclude(*reference_lift(b.hypotheses, records(b, idx), name, alpha, L12))
        assert out.conclusion == ref.conclusion == Implies(alpha, b.formula(idx))
        assert check_proof(out, L12, strict=True).ok
        assert len(out.steps) <= len(ref.steps)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_the_cone_walk_appends_what_the_whole_log_walk_did(rng, gen, two):
    # discharge walks back from each conclusion through the steps that depend
    # on alpha only; the reference reads every step the conclusion depends on
    # and skips those free of alpha.  Twin builders, discharged hypothesis by
    # hypothesis as the engine does, must hold the same log throughout.
    p = random_proof(rng, max_hyps=4)
    twins = []
    for _ in range(2):
        b = ProofBuilder(p.hypotheses, axioms=L12)
        idx = splice(b, p)
        if gen:  # a gen over a hypothesis, maybe its first citation
            idx = derive_andintro(b, idx, b.add_gen(b.add_hyp(p.hypotheses[0][0]), 1))
        twins.append(b)
    ours, ref = twins
    conclusions = [idx, rng.randint(1, idx)] if two else [idx]
    for name, _ in rng.sample(p.hypotheses, len(p.hypotheses)):
        out = discharge(ours, name, *conclusions)
        assert out == reference_discharge(ref, name, *conclusions)
        assert ours.proof() == ref.proof()
        conclusions = out
    assert conclude(ours, conclusions[0]) == conclude(ref, conclusions[0])


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_discharges_in_place_leave_the_builder_sound(rng):
    # each discharge appends to the builder that holds the derivation, whose
    # log keeps the steps that depended on the discharged hypothesis: none of
    # them may be cited or reused again
    p = random_proof(rng, max_hyps=4)
    b = _builder((p,), L12)
    idx = splice(b, p)
    remaining = list(p.hypotheses)
    expected = p.conclusion
    for name, alpha in rng.sample(p.hypotheses, len(p.hypotheses)):
        hyp = b.add_hyp(name)
        y = b.add_axiom(phi4_instance(alpha, alpha))  # a step free of alpha
        through_alpha = derive_orin(b, hyp, b.formula(y), "left")  # alpha \/ y
        (idx,) = discharge(b, name, idx)
        remaining.remove((name, alpha))
        expected = Implies(alpha, expected)
        out = conclude(b, idx)
        assert check_proof(out, L12, strict=True).ok
        assert out.hypotheses == tuple(remaining)
        assert out.conclusion == expected
        # restating a formula that only a step through alpha holds logs a new
        # step; a step another hypothesis with alpha's formula holds is kept
        twin = next((n for n, f in remaining if f == alpha), None)
        if twin is not None and records(b, hyp)[-1][2] == Hyp(name):
            assert b.add_hyp(twin) == len(b.proof().steps) > hyp
        if any(just == Hyp(name) for _, _, just in records(b, through_alpha)):
            assert derive_orin(b, y, alpha, "right") > through_alpha  # alpha \/ y again


# ---------------------------------------------------------------------------
# reductio and explosion


def test_reductio():
    # from {alpha, p, n}: beta = psi1 (via p), ~beta (via n); discharge alpha
    pos_b = _fresh((("alpha", PSI7), ("p", PSI1)))
    pos = pos_b.proof()
    neg_b = _fresh((("alpha", PSI7), ("n", Not(PSI1))))
    neg = neg_b.proof()
    # align conclusions: pos ends on psi1? builder order: hyp alpha then p
    assert pos.steps[-1].formula == PSI1
    assert neg.steps[-1].formula == Not(PSI1)
    out = reductio_transform(pos, neg, "alpha", L12)
    assert out.steps[-1].formula == Not(PSI7)
    assert check_proof(out, L12).ok
    assert dict(out.hypotheses) == {"p": PSI1, "n": Not(PSI1)}


def test_reductio_rejects_mismatched_conclusions():
    pos = _fresh((("alpha", PSI7), ("p", PSI1))).proof()
    neg = _fresh((("alpha", PSI7), ("n", Not(U27)))).proof()
    with pytest.raises(TransformError):
        reductio_transform(pos, neg, "alpha", L12)


def test_explosion_transform():
    pos = _fresh((("p", PSI1),)).proof()
    neg = _fresh((("n", Not(PSI1)),)).proof()
    out = explosion_transform(pos, neg, U27, L12)
    assert out.steps[-1].formula == U27
    assert check_proof(out, L12).ok
    assert dict(out.hypotheses) == {"p": PSI1, "n": Not(PSI1)}


def test_transforms_keep_only_the_steps_their_conclusion_uses():
    rng = random.Random(1010)
    inputs_with_dead_steps = 0
    for _ in range(40):
        p = random_proof(rng)
        inputs_with_dead_steps += bool(unreachable_steps(p))
        beta = p.conclusion
        # a proof of ~beta that carries all of p as unused steps
        b = ProofBuilder(p.hypotheses + (("n", Not(beta)),), axioms=L12)
        splice(b, p)
        b.add_hyp("n")
        neg = b.proof()
        name = rng.choice([n for n, _ in p.hypotheses])
        outs = (
            deduction_transform(p, name, L12),
            reductio_transform(p, neg, name, L12),
            explosion_transform(p, neg, U27, L12),
        )
        for out in outs:
            assert check_proof(out, L12).ok
            assert unreachable_steps(out) == []
    assert inputs_with_dead_steps > 10


def test_explosion_rejects_broken_input():
    pos = Proof((("p", PSI1),), (ProofStep(1, PSI1, Mp(1, 1)),))
    neg = _fresh((("n", Not(PSI1)),)).proof()
    with pytest.raises(TransformError):
        explosion_transform(pos, neg, U27, L12)


_EMPTY = Proof((("h", PSI7),), ())
_NEG = _fresh((("h", PSI7), ("n", Not(PSI7)))).proof()  # ends on ~psi7


@pytest.mark.parametrize(
    "call",
    [
        lambda: deduction_transform(_EMPTY, "h", L12),
        lambda: reductio_transform(_EMPTY, _NEG, "h", L12),
        lambda: reductio_transform(_fresh((("h", PSI7),)).proof(), _EMPTY, "h", L12),
        lambda: explosion_transform(_EMPTY, _NEG, U27, L12),
        lambda: explosion_transform(_fresh((("h", PSI7),)).proof(), _EMPTY, U27, L12),
    ],
    ids=["deduction", "reductio-first", "reductio-second", "explosion-first", "explosion-second"],
)
def test_transforms_refuse_an_empty_input_proof(call):
    with pytest.raises(TransformError, match="input proof is empty"):
        call()


def _mutated(rng: random.Random, p: Proof, mutation: str) -> Proof:
    """``p`` with one ``mutation``: a step dropped, a citation renumbered, a
    hypothesis given another formula, or every step removed."""
    hyps, steps = p.hypotheses, list(p.steps)
    if mutation == "drop":
        del steps[rng.randrange(len(steps))]
    elif mutation == "cite":
        rules = [k for k, s in enumerate(steps) if isinstance(s.just, (Mp, Gen))]
        if rules:
            s = steps[rng.choice(rules)]
            n = rng.randint(0, len(steps) + 1)
            if isinstance(s.just, Gen):
                just = Gen(n, s.just.var)
            else:
                just = Mp(n, s.just.j) if rng.random() < 0.5 else Mp(s.just.i, n)
            steps[s.index - 1] = ProofStep(s.index, s.formula, just)
    elif mutation == "hyp":
        name = rng.choice([n for n, _ in hyps])
        hyps = tuple((n, rng.choice(SENTENCE_POOL) if n == name else f) for n, f in hyps)
    elif mutation == "empty":
        steps = []
    return Proof(hyps, tuple(steps))


def _total(promised, run) -> None:
    """``run()`` raises :class:`TransformError` or returns a proof that checks
    and concludes ``promised``; any other outcome fails."""
    try:
        out = run()
    except TransformError:
        return
    assert check_proof(out, L12).ok
    assert out.conclusion == promised


@settings(max_examples=200, deadline=2000)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(("none", "drop", "cite", "hyp", "empty")),
    st.booleans(),
    st.booleans(),
)
def test_transforms_and_splice_are_total_on_mutated_proofs(rng, mutation, gen, on_neg):
    # 200 examples, each under a 2 s deadline: the four entry points raise
    # TransformError or return a checked proof of what they promise
    p = random_proof(rng)
    if gen:  # a generalization step, so a citation to renumber may be a gen's
        n = len(p.steps)
        p = Proof(p.hypotheses, p.steps + (ProofStep(n + 1, Forall(1, p.conclusion), Gen(n, 1)),))
    b = ProofBuilder(p.hypotheses + (("n", Not(p.conclusion)),), axioms=L12)
    splice(b, p)
    b.add_hyp("n")
    pos, neg = p, b.proof()  # neg carries all of p and ends on its negation
    if on_neg:
        neg = _mutated(rng, neg, mutation)
    else:
        pos = _mutated(rng, pos, mutation)
    name = rng.choice([n for n, _ in p.hypotheses])
    alpha = dict(pos.hypotheses)[name]
    if pos.steps:
        _total(Implies(alpha, pos.conclusion), lambda: deduction_transform(pos, name, L12))
        target = ProofBuilder(pos.hypotheses, axioms=L12)
        _total(pos.conclusion, lambda: conclude(target, splice(target, pos)))
    else:
        with pytest.raises(TransformError):
            deduction_transform(pos, name, L12)
        with pytest.raises(TransformError):
            splice(ProofBuilder(pos.hypotheses, axioms=L12), pos)
    _total(Not(alpha), lambda: reductio_transform(pos, neg, name, L12))
    _total(U27, lambda: explosion_transform(pos, neg, U27, L12))


# -- conclude against the two-pass algorithm it replaced ------------------

_OPEN_POOL = (parse("x1 = x1"), parse("x2 < x1 + 1"))


def _reference_conclude(full: Proof, idx: int) -> Proof:
    """The proof of step ``idx`` of ``full``, as the two-pass ``conclude`` over
    the builder's ``ProofStep`` log made it: mark backward, renumber forward."""
    steps = full.steps[:idx]
    used = {idx}
    for step in reversed(steps):
        j = step.just
        if step.index in used and isinstance(j, Mp):
            used.update((j.i, j.j))
        elif step.index in used and isinstance(j, Gen):
            used.add(j.i)
    new: dict[int, int] = {}
    out: list[ProofStep] = []
    for step in steps:
        if step.index in used:
            new[step.index] = k = len(out) + 1
            if k != step.index:
                j = step.just
                if isinstance(j, Mp):
                    j = Mp(new[j.i], new[j.j])
                elif isinstance(j, Gen):
                    j = Gen(new[j.i], j.var)
                step = ProofStep(k, step.formula, j)
            out.append(step)
    return Proof(full.hypotheses, tuple(out))


class _ReferenceLog:
    """The builder's log as ``ProofStep`` records, restatements reused."""

    def __init__(self) -> None:
        self.steps: list[ProofStep] = []
        self.index_of: dict = {}

    def add(self, formula, just) -> int:
        if formula not in self.index_of:
            self.steps.append(ProofStep(len(self.steps) + 1, formula, just))
            self.index_of[formula] = len(self.steps)
        return self.index_of[formula]


def _random_log(rng: random.Random, hyps, donor: Proof | None, n_ops: int):
    """Apply ``n_ops`` random builder calls to a fresh builder and to a
    reference log; both must hand out the same step numbers."""
    b = ProofBuilder(hyps, axioms=L12)
    ref = _ReferenceLog()
    pool = SENTENCE_POOL + _OPEN_POOL
    names = [n for n, _ in hyps]
    for _ in range(n_ops):
        op = rng.choice(("hyp", "axiom", "mp", "gen", "restate", "cite", "splice"))
        size = len(ref.steps)
        if op == "hyp" or not size:
            name = rng.choice(names)
            got, want = b.add_hyp(name), ref.add(dict(hyps)[name], Hyp(name))
        elif op == "axiom":
            f = phi4_instance(b.formula(rng.randint(1, size)), rng.choice(pool))
            got, want = b.add_axiom(f), ref.add(f, Ax("L12"))
        elif op == "mp":
            i = rng.randint(1, size)
            f = phi4_instance(b.formula(i), rng.choice(pool))
            j = b.add_axiom(f)
            assert j == ref.add(f, Ax("L12"))
            got, want = b.add_mp(i, j), ref.add(f.right, Mp(i, j))
        elif op == "gen":
            i, var = rng.randint(1, size), rng.choice((1, 2, 3))
            got = b.add_gen(i, var)
            want = ref.add(Forall(var, ref.steps[i - 1].formula), Gen(i, var))
        elif op == "restate":  # a formula the log holds: the builder reuses its step
            f = b.formula(rng.randint(1, size))
            got, want = b.add_axiom_named(f, "L12"), ref.add(f, Ax("L12"))
        elif op == "cite" and donor is not None:  # a donor's hyp or axiom record, shared
            cited = [st for st in donor.steps if isinstance(st.just, (Hyp, Ax))]
            step = rng.choice(cited)
            got, want = b.add_cited(step.formula, step.just), ref.add(step.formula, step.just)
        elif op == "splice" and donor is not None:
            remap: dict[int, int] = {}
            for step in donor.steps:
                j = step.just
                if isinstance(j, Mp):
                    j = Mp(remap[j.i], remap[j.j])
                elif isinstance(j, Gen):
                    j = Gen(remap[j.i], j.var)
                remap[step.index] = ref.add(step.formula, j)
            got, want = splice(b, donor), remap[donor.steps[-1].index]
        else:
            continue
        assert got == want
    return b, ref


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(4, 40))
def test_conclude_matches_the_two_pass_reference(rng, n_ops):
    hyps = tuple((f"h{k}", rng.choice(SENTENCE_POOL + _OPEN_POOL)) for k in range(1, 4))
    donor = _random_log(rng, hyps, None, 8)[0].proof()
    b, ref = _random_log(rng, hyps, donor, n_ops)
    full = Proof(hyps, tuple(ref.steps))
    assert b.proof() == full
    for idx in range(1, len(ref.steps) + 1):
        assert conclude(b, idx) == _reference_conclude(full, idx)


def test_conclude_makes_one_record_per_output_step(monkeypatch):
    made = {"steps": 0, "mp": 0, "gen": 0}

    def count(key, cls):
        init = cls.__init__

        def counted(self, *args):
            made[key] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)

    count("steps", ProofStep)
    count("mp", Mp)
    count("gen", Gen)
    rng = random.Random(2020)
    hyps = (("h1", PSI7), ("h2", parse("x1 = x1")), ("h3", PSI1))
    donor = _random_log(rng, hyps, None, 8)[0].proof()
    dropped = 0
    for _ in range(20):
        b, ref = _random_log(rng, hyps, donor, 30)
        for idx in range(1, len(ref.steps) + 1):
            made.update(steps=0, mp=0, gen=0)
            p = conclude(b, idx)
            dropped += len(p.steps) < idx
            assert made["steps"] == len(p.steps)
            assert made["mp"] == sum(isinstance(st.just, Mp) for st in p.steps)
            assert made["gen"] == sum(isinstance(st.just, Gen) for st in p.steps)
    assert dropped > 100
    # a transform makes its records in its one conclude, not per logged step
    p = random_proof(random.Random(7))
    made.update(steps=0)
    out = deduction_transform(p, p.hypotheses[0][0], L12)
    assert made["steps"] == len(out.steps)


def test_builders_share_hypothesis_and_axiom_records():
    rng = random.Random(3030)
    hyps = (("h1", PSI7), ("h2", parse("x1 = x1")), ("h3", PSI1))
    b0, _ = _random_log(rng, hyps, None, 30)
    donor = b0.proof()
    # one Ax record per set name
    assert len({id(st.just) for st in donor.steps if isinstance(st.just, Ax)}) == 1
    # a replayed hypothesis or axiom step keeps its input's record
    b = ProofBuilder(hyps, axioms=L12)
    splice(b, donor)
    replayed = b.proof().steps
    assert [st.formula for st in replayed] == [st.formula for st in donor.steps]
    for mine, theirs in zip(replayed, donor.steps):
        if isinstance(theirs.just, (Hyp, Ax)):
            assert mine.just is theirs.just


# ---------------------------------------------------------------------------
# the public transforms and prove's derivations run the same loops


def _context(side, alpha):
    """``side`` as hypotheses h1, h2, ..., then ``a`` = alpha."""
    return tuple((f"h{i}", f) for i, f in enumerate(side, start=1)) + (("a", alpha),)


@settings(max_examples=60, deadline=None)
@given(st.lists(formulas(max_depth=2), max_size=3), sentences(max_depth=2), st.data())
def test_deduction_transform_and_discharge_render_alike(side, alpha, data):
    state = bounded_closure(_context(side, alpha), L12, Budget(max_steps=200))
    f = data.draw(st.sampled_from(state.formulas))
    by_proof = deduction_transform(state.proof_of(f), "a", L12)
    b = ProofBuilder(state.hypotheses, L12)
    by_derivation = conclude(b, *discharge(b, "a", state.emit(b, f)))
    assert render_proof_script(by_proof) == render_proof_script(by_derivation)


@settings(max_examples=60, deadline=None)
@given(st.lists(formulas(max_depth=2), max_size=2), sentences(max_depth=2), formulas(max_depth=2))
def test_reductio_transform_and_refute_render_alike(side, alpha, beta):
    # alpha -> beta and ~beta: the closure finds a contradiction
    hyps = _context([*side, Implies(alpha, beta), Not(beta)], alpha)
    state = bounded_closure(hyps, L12, Budget(max_steps=200))
    assert state.contradiction is not None
    pos, neg = state.contradiction
    by_proofs = reductio_transform(state.proof_of(pos), state.proof_of(neg), "a", L12)
    b = ProofBuilder(state.hypotheses, L12)
    sides = [state.emit(b, g) for g in (pos, neg)]
    by_derivations = conclude(b, derive_refute(b, *discharge(b, "a", *sides)))
    assert render_proof_script(by_proofs) == render_proof_script(by_derivations)


# ---------------------------------------------------------------------------
# one lifting loop and one combiner

_SRC = Path(__file__).resolve().parents[1] / "src" / "proofbench"


def _callers(name: str) -> list[str]:
    """The functions of the package that call ``name``, qualified by module
    and class, once per call."""
    found = []

    def walk(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(
                child.func, "id", getattr(child.func, "attr", None)
            ) == name:
                found.append(where)
            walk(child, where)

    for path in _SRC.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(found)


def test_one_lifting_loop_and_one_combiner_build_proofs():
    # discharge is the only lifting loop (it alone lifts a gen, through phi12),
    # and a prove call, a closure's proof_of and a public transform each grow
    # one builder: a builder made anywhere else is a second way into the loop
    # or a second combiner; discharge appends to the builder it is given and
    # makes none
    assert _callers("phi12_instance") == ["transforms.discharge"]
    assert _callers("ProofBuilder") == [
        "engine.ClosureState.proof_of",
        "engine._Searcher.__init__",
        "transforms._builder",
    ]
