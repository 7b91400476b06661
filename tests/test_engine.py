"""Budgeted consequence closure, proof search, and consistency probes."""

import hashlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import engine, syntax
from proofbench.audit import AuditClaim, run_audit, run_claim
from proofbench.engine import (
    BACKWARD_DEPTH,
    LOGIC_SAMPLES,
    MAX_MEMBER_WIDTH,
    Budget,
    BudgetReport,
    bounded_closure,
    covers_logic,
    pool_for,
    prove,
)
from proofbench.parser import MAX_NESTING, parse, render, render_width
from proofbench.proofs import check_proof, render_proof_script
from proofbench.schemata import (
    AXIOM_SET_NAMES,
    PSI_AXIOMS,
    SCHEMATA,
    axiom_set,
    match_schema,
    named_formula,
)
from proofbench.scripts import builtin_claims, builtin_scripts
from proofbench.syntax import And, App, Atom, Const, Forall, Implies, NestingError, Not, Or
from proofbench.transforms import covering_set

from strategies import (
    ReferenceSaturation,
    ReferenceSearcher,
    antecedent_chain,
    disjunction_tower,
    formulas,
    full_text_script,
    induction_candidate,
    near_the_recursion_limit,
    phi10_candidate,
    records,
    sentences,
    unreachable_steps,
)

L12 = (axiom_set("L12"),)
PSI1 = PSI_AXIOMS["psi1"]
PSI7 = PSI_AXIOMS["psi7"]
U27 = named_formula("u27")
XI = named_formula("xi")
NOT_D00 = Not(Implies(PSI7, PSI1))

CORPUS = [
    (),
    ((("h1", XI),)),
    ((("h1", NOT_D00),)),
    ((("h1", named_formula("gamma2p")), ("h2", named_formula("o0")))),
]


def _formula_set(state):
    return set(state.formulas)


def test_hypotheses_always_included():
    for hyps in CORPUS:
        state = bounded_closure(hyps, L12, Budget(max_steps=200))
        for _, f in hyps:
            assert f in state
            assert f in _formula_set(state)


def test_budget_monotonicity():
    for hyps in CORPUS:
        small = bounded_closure(hyps, L12, Budget(max_steps=60))
        large = bounded_closure(hyps, L12, Budget(max_steps=240))
        assert _formula_set(small) <= _formula_set(large)


def test_monotone_in_hypotheses_at_doubled_budget():
    base = (("h1", XI),)
    richer = (("h1", XI), ("h2", NOT_D00))
    small = bounded_closure(base, L12, Budget(max_steps=120))
    large = bounded_closure(richer, L12, Budget(max_steps=240))
    assert _formula_set(small) <= _formula_set(large)


def test_reclosing_adds_nothing_beyond_larger_run():
    hyps = (("h1", NOT_D00),)
    once = bounded_closure(hyps, L12, Budget(max_steps=120))
    again_hyps = tuple(
        (f"g{i}", f) for i, f in enumerate(once.formulas, start=1)
    )
    twice = bounded_closure(again_hyps, L12, Budget(max_steps=120))
    single_larger = bounded_closure(hyps, L12, Budget(max_steps=480))
    assert _formula_set(twice) <= _formula_set(single_larger)


def test_certificates_check_and_cite_finitely_many_hypotheses():
    hyps = (("h1", NOT_D00), ("h2", XI))
    state = bounded_closure(hyps, L12, Budget(max_steps=150))
    names = {n for n, _ in hyps}
    for f in state.formulas:
        proof = state.proof_of(f)
        assert check_proof(proof, L12).ok
        assert proof.steps[-1].formula == f
        assert state.hyp_deps(f) <= names


def test_contradiction_detected():
    hyps = (("p", PSI1), ("n", Not(PSI1)))
    state = bounded_closure(hyps, L12, Budget(max_steps=200))
    assert state.contradiction is not None
    a, b = state.contradiction
    assert b == Not(a) or a == Not(b)


def test_fixpoint_reported():
    state = bounded_closure((("h1", NOT_D00),), L12, Budget(max_steps=5000))
    assert state.report.fixpoint
    tiny = bounded_closure((("h1", NOT_D00),), L12, Budget(max_steps=3))
    assert not tiny.report.fixpoint
    assert tiny.report.steps_expended <= 3


def test_prove_finds_checked_certificates():
    hyps = (("h1", NOT_D00),)
    for goal in (PSI7, Not(PSI1)):
        outcome = prove(goal, hyps, L12, Budget(max_steps=100000))
        assert outcome.proof is not None
        assert outcome.proof.steps[-1].formula == goal
        assert check_proof(outcome.proof, L12, strict=True).ok
        used = {n for n, _ in outcome.proof.hypotheses}
        assert used <= {"h1"}


def test_prove_decomposes_implication_goals():
    # xi |- psi7 -> (psi1 -> psi12) is immediate; the engine must also
    # discharge introduced hypotheses for nested implication goals
    outcome = prove(XI, (("h1", XI),), L12, Budget(max_steps=10000))
    assert outcome.proof is not None
    goal = Implies(U27, Implies(PSI7, U27))
    outcome2 = prove(goal, (), L12, Budget(max_steps=100000))
    assert outcome2.proof is not None
    assert outcome2.proof.hypotheses == ()
    assert check_proof(outcome2.proof, L12, strict=True).ok


def test_engine_proofs_hold_only_reachable_steps():
    for hyps in CORPUS:
        state = bounded_closure(hyps, L12, Budget(max_steps=300))
        for f in state.formulas:
            proof = state.proof_of(f)
            assert proof.conclusion == f
            assert unreachable_steps(proof) == []
    for goal in (PSI7, Not(PSI1), Implies(U27, Implies(PSI7, U27))):
        outcome = prove(goal, (("h1", NOT_D00),), L12, Budget(max_steps=100000))
        assert unreachable_steps(outcome.proof) == []


def test_prove_reports_the_depth_cap_not_a_fixpoint():
    # each disjunction costs one introduction: one more than the cap allows;
    # the peels under them cost none
    outcome = prove(disjunction_tower(antecedent_chain(2), BACKWARD_DEPTH + 1), (), L12, Budget())
    assert outcome.proof is None
    assert not outcome.report.fixpoint
    assert outcome.report.steps_expended < Budget().max_steps
    assert prove(disjunction_tower(antecedent_chain(2), BACKWARD_DEPTH), (), L12).proof


@pytest.mark.parametrize("n", [4, 8, 12, 13, 20, 40])
def test_implication_chain_proofs_grow_quadratically(n):
    # one discharge per antecedent; lifting every step would grow as 3.5**n.
    # Peels spend no depth, so a chain longer than the depth cap proves, and
    # a search that recursed once per peel would run out of frames here.  The
    # goal is rendered first: the renderer recurses once per level (§ Caps)
    goal = antecedent_chain(n)
    render(goal)
    outcome = near_the_recursion_limit(lambda: prove(goal, (), L12, Budget()))
    assert outcome.proof is not None
    assert outcome.proof.conclusion == goal
    assert check_proof(outcome.proof, L12, strict=True).ok
    assert len(outcome.proof.steps) <= 5 * n * n


def test_prove_stops_at_a_fixpoint():
    # no decomposition applies to an atom: the first pass already walks everything
    outcome = prove(parse("0 = 1"), (), L12, Budget())
    assert outcome.proof is None
    assert outcome.report.fixpoint


def test_spent_search_stops_without_a_proof():
    # the first closure spends the only step; the next one the search needs has none
    goal = parse("(1 = 1) -> ((1 = 1 -> 0 = 0) -> 0 = 0) /\\ (0 = 0 -> 0 = 0)")
    outcome = prove(goal, (), L12, Budget(max_steps=1))
    assert outcome.proof is None
    assert outcome.report == BudgetReport(steps_expended=1, max_steps=1, fixpoint=False)
    assert outcome.report.stop() == "budget of 1 steps exhausted"
    # each later closure stops at its goal, so one step more is enough
    assert prove(goal, (), L12, Budget(max_steps=2)).proof is not None


def test_prove_respects_budget():
    outcome = prove(parse("1 < 1"), (), L12, Budget(max_steps=500))
    assert outcome.proof is None
    assert outcome.report.steps_expended <= 500


def test_prove_names_its_assumptions_apart_from_the_callers():
    # the discharged antecedent would be g2, the caller's own name
    goal = parse("1 = 1 -> (0 = 0 /\\ 1 = 1)")
    proof = prove(goal, [("g2", parse("0 = 0"))], L12).proof
    assert proof is not None and proof.conclusion == goal
    assert check_proof(proof, L12, strict=True).ok
    assert proof.hypotheses == (("g2", parse("0 = 0")),)


@pytest.mark.parametrize(
    "hyps, name",
    [
        ([("h", parse("0 = 0")), ("h", parse("1 = 1"))], "h"),
        # a caller's name that a bare formula's automatic name repeats
        ([("h2", parse("0 = 0")), parse("1 = 1")], "h2"),
    ],
    ids=["caller", "automatic"],
)
def test_repeated_hypothesis_names_are_refused(hyps, name):
    # fresh assumptions and discharge key on names: with a name held twice,
    # a proof of 1 = 1 would conclude 0 = 0
    message = f"repeated hypothesis name '{name}'"
    with pytest.raises(ValueError, match=message):
        prove(parse("1 = 1"), hyps, L12)
    with pytest.raises(ValueError, match=message):
        bounded_closure(hyps, L12)


#: closed L12 sentences that make the search find proofs
_CLOSED = st.sampled_from(
    [parse(t) for t in ("0 = 0", "1 = 1", "0 = 1", "1 < 0", "~0 = 1", "1 = 1 -> 0 = 0")]
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.integers(2, 5), st.integers(1, 20)), _CLOSED),
        min_size=1,
        max_size=3,
        unique_by=lambda h: h[0],
    ),
    st.lists(st.one_of(_CLOSED, sentences(max_depth=1)), min_size=1, max_size=4),
    st.data(),
)
def test_prove_takes_caller_hypotheses_named_like_its_assumptions(hyps, antecedents, data):
    # the search names each peeled antecedent g<n>, and a caller's own g<n>
    # must not be taken for it: the goal needs both
    named = [(f"g{k}", f) for k, f in hyps]
    goal = And(data.draw(st.sampled_from([f for _, f in named])), data.draw(st.sampled_from(antecedents)))
    for a in reversed(antecedents):
        goal = Implies(a, goal)
    proof = prove(goal, named, L12, Budget(max_steps=20000)).proof
    if proof is not None:
        assert proof.conclusion == goal
        assert check_proof(proof, L12, strict=True).ok
        assert set(proof.hypotheses) <= set(named)


# one goal per backward introduction rule that the forward closure cannot
# reach: rule, goal, hypotheses, proof size, sha256 of the rendered proof
BACKWARD_RULES = [
    ("andintro", "(0 = 0 -> 0 = 0) /\\ 1 = 1", ["1 = 1"], 9,
     "99f929c51064a24b591d78a1e5759cfe4c2227bc79be15816338f58f01fa640e"),
    ("orin_l", "(0 = 0 -> 0 = 0) \\/ 0 = 1", [], 7,
     "202f7d67dab55cae05863ce35206c98d98790cf5cef9ea6fc35673d10bd323b3"),
    ("orin_r", "0 = 1 \\/ (0 = 0 -> 0 = 0)", [], 7,
     "775f8dd628729f4fb4cef465dd36ff002fce1f273e7c34c7ebbfa1768b0d31da"),
    ("dnintro", "~~((0 = 0 -> 0 = 0) /\\ 1 = 1)", ["1 = 1"], 29,
     "b2ebaa0191a27901ca7a252af19072733064eaff14c3527da1cfa388a87fd0e1"),
    ("notimp_intro", "~((0 = 0 -> 0 = 0) -> 0 = 1)", ["~0 = 1"], 41,
     "311b204223edb9d827013b1b892ab7187d8f7b4f521226aa8e639ee21d06cd35"),
    ("notand_l", "~(0 = 1 /\\ 1 < 0)", ["~0 = 1"], 27,
     "3c1e3246cc8d84fa3c2ebb2e3223dd3e7fb258f7ad4c7e258e1faa8ee7d98acc"),
    ("notand_r", "~(0 = 1 /\\ 1 < 0)", ["~1 < 0"], 27,
     "b9f708016a667d78ac741b7d000e03b472ad40619e6ceb292fb5a8ce7ec4a1e6"),
    ("notor", "~(0 = 1 \\/ 1 < 0)", ["~0 = 1", "~1 < 0"], 37,
     "d9d02d8f8d413e1a1df6d9c541aada763a3d05c5c30b17afbaece99b37e2bbb7"),
]


#: sha256 of each rule's proof as render_proof_script writes it, with let lines
BACKWARD_RULE_LET_SHA256 = {
    "andintro": "ffd2fe6b2522986288c84401238e929f32525816b250f0afa201d3c2884ef6ed",
    "orin_l": "b4e9a2662779f475262cfd1e55c167daf16c316165ce39c5e12f659358da80b0",
    "orin_r": "1a29d783f449138853db9110e962ecd1688df1ab581a90840ea079cfaa46729a",
    "dnintro": "8b0a8983678099d4f7dfd3d7f3114e48ffe3edd9e6f10effbf7d508587d04975",
    "notimp_intro": "e540873a664d49157defe5a785c8ae20d74303e4d1846be3b88133bd03c1e508",
    "notand_l": "75b3a1acf04611754a006f8f71f4bc06ebdb9a2607db14460a2d7687c2db8837",
    "notand_r": "45cf9a78342221791103ca88b1d421c253d1155eaa4f6ebc203c8751a9d4f312",
    "notor": "eecc203e26a41682eb694f8bb77332208a882b75e083900b04bb7c32a2dc5c86",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "rule, goal, hyps, size, digest", BACKWARD_RULES, ids=[r[0] for r in BACKWARD_RULES]
)
def test_backward_introduction_rules(rule, goal, hyps, size, digest):
    outcome = prove(parse(goal), [parse(h) for h in hyps], L12)
    proof = outcome.proof
    assert proof is not None and proof.conclusion == parse(goal)
    assert check_proof(proof, L12, strict=True).ok
    assert len(proof.steps) == size
    # the pinned digest is of the full-text form: the proof is what it was
    assert _sha256(full_text_script(proof)) == digest
    assert _sha256(render_proof_script(proof)) == BACKWARD_RULE_LET_SHA256[rule]


@pytest.mark.parametrize(
    "goal, hyps",
    [(antecedent_chain(4), []), (parse("~(0 = 1 /\\ 1 < 0)"), [parse("~1 < 0")])],
    ids=["chain", "notand_r"],
)
def test_prove_builds_one_pool(monkeypatch, goal, hyps):
    # the context walks its hypotheses once and the goal widens that pool;
    # each later context widens it too, walking only what it has not seen
    engine._axiom_pool(L12)  # built before counting
    calls = []  # (formulas, found) of each walk
    real = engine.assemble_pool

    def counting(formulas, axioms, pool):
        found = real(formulas, axioms, pool)
        calls.append((tuple(formulas), found))
        return found

    monkeypatch.setattr(engine, "assemble_pool", counting)
    pool_for.cache_clear()  # recognizers are shared: an earlier test may hold this pool
    engine._hypothesis_pool.cache_clear()
    assert prove(goal, hyps, L12).proof is not None
    assert [formulas for formulas, _ in calls[:2]] == [tuple(hyps), (goal,)]
    found = [f for _, fs in calls for f in fs]
    assert len(found) == len(set(found))
    # the next claim over the context walks its goal, not its hypotheses,
    # and finds what the first one found past them
    n = len(calls)
    pool_for.cache_clear()
    assert prove(goal, hyps, L12).proof is not None
    assert calls[n][0] == (goal,)
    assert [fs for _, fs in calls[n:]] == [fs for _, fs in calls[1:n]]


def test_the_search_widens_its_pool_by_a_premise_outside_it(monkeypatch):
    # notand_l's premise ~0 = 1 is tried first and lies outside the top pool
    goal, hyps = parse("~(0 = 1 /\\ 1 < 0)"), (parse("~1 < 0"),)
    assert parse("~0 = 1") not in pool_for(hyps, L12, goal).members  # prove reuses it
    widened = []
    real = engine.Pool.widened

    def recording(self, new, recognizers):
        widened.append(real(self, new, recognizers))
        return widened[-1]

    monkeypatch.setattr(engine.Pool, "widened", recording)
    assert prove(goal, hyps, L12).proof is not None
    assert any(parse("~0 = 1") in pool.members for pool in widened)


def test_prove_deterministic():
    hyps = (("h1", NOT_D00),)
    a = prove(PSI7, hyps, L12, Budget(max_steps=100000))
    b = prove(PSI7, hyps, L12, Budget(max_steps=100000))
    assert a.proof == b.proof
    assert render_proof_script(a.proof) == render_proof_script(b.proof)


def test_traditional_consistency_probe():
    quiet = bounded_closure((PSI1,), L12, Budget(max_steps=400))
    assert quiet.contradiction is None
    noisy = bounded_closure((PSI1, Not(PSI1)), L12, Budget(max_steps=400))
    assert noisy.contradiction is not None
    witness = noisy.contradiction[0]
    pair = [noisy.proof_of(f) for f in noisy.contradiction]
    for p in pair:
        assert check_proof(p, L12).ok
    concluded = {p.steps[-1].formula for p in pair}
    assert concluded == {witness, Not(witness)}


def test_absolute_consistency_probe():
    absent = prove(U27, (), L12, Budget(max_steps=400))
    assert absent.proof is None
    present = prove(U27, (U27,), L12, Budget(max_steps=400))
    assert present.proof is not None and check_proof(present.proof, L12).ok


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_steps=0)
    with pytest.raises(ValueError):
        Budget(max_steps=-5)


def _numeral_atom(i):
    """``S^i(0) = S^i(0)``, built from scratch on every call."""
    t = Const("0")
    for _ in range(i):
        t = App("S", (t,))
    return Atom("=", (t, t))


def test_closure_over_a_chain_of_deep_numeral_atoms():
    # each atom is built twice, once per hypothesis it occurs in
    n = 400
    hyps = [_numeral_atom(0)]
    hyps += [Implies(_numeral_atom(i), _numeral_atom(i + 1)) for i in range(n - 1)]
    state = bounded_closure(hyps, (), Budget(max_steps=10 * n))
    last = _numeral_atom(n - 1)
    assert last in state
    assert state.proof_of(last).steps[-1].formula == last


def _negations(n, f=parse("0 = 0")):
    for _ in range(n):
        f = Not(f)
    return f


def _past_the_cap(shape):
    """A ``prove`` and a ``bounded_closure`` call that build a formula past the cap."""
    if shape == "connectives":
        # from inputs within the cap: phi1's instance over the goal's
        # antecedent, and L11's three prefixes over the closed phi4 instance
        # (Ax1)(B -> (B -> B))
        a = _negations(MAX_NESTING - 1)
        b = _negations(MAX_NESTING - 3, parse("x1 = 0"))
        closed = Forall(1, Implies(b, Implies(b, b)))
        return (
            lambda: prove(Implies(a, a), [], L12),
            lambda: bounded_closure([closed], (axiom_set("L11"),)),
        )
    # the engine builds no term, and a recognizer's rebuild past the cap is
    # no member (test_a_rebuild_past_the_cap_is_no_member): the term past the
    # cap is the input, refused where it is built
    return (
        lambda: prove(U27, [_numeral_atom(MAX_NESTING + 1)], L12),
        lambda: bounded_closure([_numeral_atom(MAX_NESTING + 1)], L12),
    )


@pytest.mark.parametrize("shape", ["connectives", "terms"])
def test_formulas_built_past_the_nesting_cap_are_refused(shape):
    # past the cap the kernel refuses a formula, and the NestingError leaves
    # the engine
    for call in _past_the_cap(shape):
        with pytest.raises(NestingError, match=f"MAX_NESTING \\({MAX_NESTING}\\)"):
            call()


#: non-members within the cap that a recognizer rebuilds past it, with their
#: axiom sets
_REBUILT_PAST_THE_CAP = {
    "phi10": (phi10_candidate(MAX_NESTING - 3), L12),
    "induction": (induction_candidate(MAX_NESTING), (axiom_set("Xp"),)),
}


@pytest.mark.parametrize("shape", _REBUILT_PAST_THE_CAP)
def test_a_rebuild_past_the_cap_is_no_member(shape):
    f, axioms = _REBUILT_PAST_THE_CAP[shape]
    assert covering_set(f, axioms) is None
    assert f in bounded_closure([f], axioms)
    assert prove(f, [f], axioms).proof is not None


def test_a_rebuild_past_the_cap_hides_no_later_member():
    # Xp rebuilds the induction step of this phi5 instance past the cap
    # before L12, which holds it, is asked
    tall = induction_candidate(MAX_NESTING)
    inst = Implies(And(U27, tall.left.right), U27)
    assert covering_set(inst, (axiom_set("Xp"), axiom_set("L12"))) == "L12"


def test_formulas_built_at_the_nesting_cap_are_searched():
    # the proof of A -> A holds phi1's instance over A, four levels above A
    at_cap = _negations(MAX_NESTING - 4, _numeral_atom(MAX_NESTING))
    goal = Implies(at_cap, at_cap)
    assert at_cap in bounded_closure([at_cap], L12, Budget(max_steps=100))
    proof = prove(goal, [], L12, Budget(max_steps=100)).proof
    assert proof is not None and check_proof(proof, L12).ok
    tall = induction_candidate(MAX_NESTING - 1)
    assert tall in bounded_closure([tall], (axiom_set("Xp"),))


#: The wall time and the traced memory peak within which a pool member too
#: wide to render is refused: its 46 MB text is never built.  Measured on one
#: x86-64 core (py3.11.7): 0.007 s and 29 KB for all three runs.
WIDE_SECONDS, WIDE_PEAK_BYTES = 2.0, 1024 * 1024


def test_a_pool_member_too_wide_to_render_is_refused():
    # X(k + 1) = X(k) /\ X(k) has k + 1 distinct nodes and text that doubles
    # with each k; the pool's sort key is that text, so it is measured first
    x = parse("0 = 0")
    for _ in range(22):
        x = And(x, x)
    assert render_width(x) == 46_137_338 > MAX_MEMBER_WIDTH
    claim = AuditClaim("wide", "membership", ("L12",), (), x)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for call in (lambda: bounded_closure([x], L12), lambda: prove(x, [], L12)):
            with pytest.raises(NestingError, match=f"MAX_MEMBER_WIDTH \\({MAX_MEMBER_WIDTH}\\)"):
                call()
        verdict = run_claim(claim)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == "UNRESOLVED" and "MAX_MEMBER_WIDTH" in verdict.detail
    assert elapsed < WIDE_SECONDS and peak < WIDE_PEAK_BYTES, (elapsed, peak)


@settings(max_examples=60, deadline=None)
@given(st.lists(formulas(max_depth=2), min_size=1, max_size=3), st.integers(1, 40))
def test_the_closure_builds_only_the_negations_it_may_keep(hyps, steps):
    built = []

    class Recording(type(syntax._TABLE)):
        def __setitem__(self, key, node):
            built.append(node)
            super().__setitem__(key, node)

    members = pool_for(tuple(hyps), L12, None).members  # built before recording
    table, plain = syntax._TABLE, type(syntax._TABLE)
    table.__class__ = Recording
    try:
        bounded_closure(hyps, L12, Budget(max_steps=steps))
    finally:
        table.__class__ = plain
    for node in built:
        if isinstance(node, Not):
            assert node in members or node.body in members


def _nested_goal(n, order, lefts=None, rights=None):
    """A chain ``a1 -> (a1->a2) -> ... -> an`` of the ``nested-prove`` bench
    shape, its antecedents in ``order``; atom i is
    ``S^(2l+1)(0) = S^(2n-2r)(0)``, with l and r the i-th of ``lefts`` and
    ``rights`` (by default both i)."""

    def numeral(k):
        t = Const("0")
        for _ in range(k):
            t = App("S", (t,))
        return t

    lefts, rights = lefts or range(n), rights or range(n)
    atoms = [Atom("=", (numeral(2 * i + 1), numeral(2 * (n - j)))) for i, j in zip(lefts, rights)]
    chain = [atoms[0]] + [Implies(atoms[i], atoms[i + 1]) for i in range(n - 1)]
    goal = atoms[-1]
    for i in reversed(order):
        goal = Implies(chain[i], goal)
    return goal


# goal, hypotheses: proof size, steps expended, sha256 of the rendered proof
PROOF_PINS = [
    (antecedent_chain(4), [], (
        73, 6, "ac268a1165fd4d7be45d447f64ce9d0f8bddb6eccff7cc0add303035ceb9c06c")),
    (antecedent_chain(8), [], (
        289, 28, "037386766fd0c2848410054b49ad856e158c590da5cc14fe6b15a5a36661370b")),
    (antecedent_chain(12), [], (
        633, 66, "07e8df611b4687dc9d43908f06d2f53a818244ffbe935e97c7e09760eb4a30fb")),
    (_nested_goal(3, (2, 0, 1)), [], (
        37, 2, "ed8d19b188ddddc99f7c194c959d976413fd9402654a0d58d01b46b7b21c798f")),
    (_nested_goal(3, (1, 2, 0)), [], (
        15, 2, "d95df59054ba95eeee238696dbe2ff5578474fa4d87142e28a97806a9992dc21")),
    (_nested_goal(4, (3, 1, 0, 2)), [], (
        57, 4, "271e7c9a0287b4e46b3db0bd1df2d050dc6fcdf79dfc5848a474643419643991")),
    (_nested_goal(4, (2, 3, 1, 0)), [], (
        39, 3, "bacc52c3b9c6155735d9bb1c1befffae8b9243dce5096563f3753649b9aecc91")),
    (_nested_goal(5, (4, 2, 0, 3, 1)), [], (
        113, 4, "21263813e73e70d5054a744d0830e608fa7ee4c43b070c1622f4ad58b28580ca")),
    (_nested_goal(5, (1, 3, 4, 0, 2)), [], (
        93, 5, "342c00cad1825daa199d913153037035838654ed3a28b01aa2d54dcd961100c1")),
    # an introduction over two discharges
    (parse("(1 = 1 -> 1 = 1) /\\ (0 = 1 -> 0 = 1)"), [], (
        13, 0, "a7d56b25c7b3c01031189cbacdba2fc58f910653a57cb6595933ed1c330b305b")),
    # a discharge over an introduction over a discharge
    (parse("1 = 1 -> (0 = 0 -> 0 = 0) /\\ 1 = 1"), [], (
        7, 0, "abe81fc877f75b24906a7eb221b096a86229e9321e2be5eec807fdec5b1712d1")),
    # reductio, which discharges its assumption
    (parse("~(0 = 1 /\\ ~0 = 1)"), [], (
        25, 4, "af89bb19a019459d8992b8563077ca949dac65fba6a516bee0d526006b63c3b3")),
    # a discharge over reductio, and an introduction over reductio
    (parse("1 = 1 -> ~(0 = 1 /\\ ~0 = 1)"), [], (
        27, 4, "386f3db1d3fc6ae426329bed0314c5fd51cbc0d8c31b2d0b3fca544573dd3b28")),
    (parse("~(0 = 1 /\\ ~0 = 1) /\\ 1 = 1"), [parse("1 = 1")], (
        29, 4, "00cbd5ad205a6ebf1c6c5469ebc35d0c3b660a7518c7a839908eca0f39829eae")),
]


#: sha256 of each PROOF_PINS proof as render_proof_script writes it, with let lines
PROOF_PIN_LET_SHA256 = (
    "e1ae34e82ed2d8a0c7df792d80ed3db13efff9cfebfda9b93ec71384fd3765ea",
    "6196eb97bad32860a50a47f962865631904c4f5bb1d36c096a3e3608ab41816b",
    "6316c54587507d2393540b64eb5b9a28f1456ee89b2b9b4b3c55ec5f8bdee903",
    "14f1cb252f79be748a5acab18b5f11aac24e412fee845db8a0b1eeebc8a51d04",
    "9fb2c1292dbcb060f15dc879a6640e9c171b749d5174a096a8b72d15306b6c0f",
    "218fe5ab9a301cf7f8ffffe714539691fa1048c913890cfa86eeb5afe64cc250",
    "088ff9b0cc6ac3f94314333d475332c7a8cf19878bd5e79be5ad2feee1ef78be",
    "832d843e1dc585fd695d4d5f7587f86f32d7d558f9a0cfaa05de7aefca79701b",
    "cc3025993dedede7f717268868a40a0fe79ed347af32464bac6fdcdd31270726",
    "c2a743ae0113828f9835171924a6dfaf85f56d6905bd9e9cc6d26ce434aff2f6",
    "9b8de1b07aa9e4ca68c2e710a80413d15b44d368a53ff4182e83cb18b6259478",
    "fa8f2d1c6bedc37facb98c1f2eb7986802fbbbad72c6bb8cfd611398182ce06d",
    "c84251be42c8eff529807b595bea610d8095a5e8c64421c9734a019bbc30c62d",
    "a33839e9574ff9a17db93cb6388ee9cffc940e76335b463dd85ab02343f12500",
)


@pytest.mark.parametrize("i", range(len(PROOF_PINS)))
def test_prove_pins_proofs_built_through_discharge(i):
    goal, hyps, pin = PROOF_PINS[i]
    outcome = prove(goal, hyps, L12)
    proof = outcome.proof
    assert proof is not None and proof.conclusion == goal
    digest = _sha256(full_text_script(proof))  # the pinned form: the proof is what it was
    assert (len(proof.steps), outcome.report.steps_expended, digest) == pin
    assert _sha256(render_proof_script(proof)) == PROOF_PIN_LET_SHA256[i]


def _modus_ponens_goal(a, b):
    """``a -> (a -> b) -> b``: two peeled antecedents over a closure that
    finds ``b`` and could go on."""
    return Implies(a, Implies(Implies(a, b), b))


def _search_goals(hyps, other):
    """Random goals, and goals built from ``hyps`` and the sentence ``other``
    that the search often proves."""
    pieces = st.sampled_from([*hyps, other])
    return st.one_of(
        formulas(),
        st.builds(Implies, pieces, st.builds(And, pieces, pieces)),
        st.builds(Or, formulas(max_depth=1), pieces),
        st.builds(_modus_ponens_goal, sentences(max_depth=1), pieces),
        st.builds(Not, st.builds(And, pieces, st.builds(Not, pieces))),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(formulas(max_depth=2), max_size=2), sentences(max_depth=1), st.data())
def test_closures_that_stop_at_their_goal_build_the_same_proofs(hyps, other, data):
    # each entry's recipe is fixed when it is added, so saturating past the
    # goal changes no proof; it only spends steps
    goal = data.draw(_search_goals(hyps, other))
    ours = prove(goal, hyps, L12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_Saturation", ReferenceSaturation)
        ref = prove(goal, hyps, L12)
    assert (ours.proof is None) is (ref.proof is None)
    if ours.proof is not None:
        assert render_proof_script(ours.proof) == render_proof_script(ref.proof)
    assert ours.report.steps_expended <= ref.report.steps_expended


def _reference_prove(goal, hyps):
    """``prove`` over :class:`ReferenceSearcher`, whose peels spend depth."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_Searcher", ReferenceSearcher)
        return prove(goal, hyps, L12)


@settings(max_examples=40, deadline=None)
@given(st.lists(formulas(max_depth=2), max_size=2), sentences(max_depth=1), st.data())
def test_free_peels_prove_whatever_depth_spending_peels_prove(hyps, other, data):
    # with peels free every pass reaches at least as far, so no goal the
    # depth-spending search proves is lost
    goal = data.draw(_search_goals(hyps, other))
    ref = _reference_prove(goal, hyps)
    if ref.proof is not None:
        ours = prove(goal, hyps, L12)
        assert ours.proof is not None and ours.proof.conclusion == goal
        assert check_proof(ours.proof, L12, strict=True).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(*(st.permutations(range(n)),) * 3)))
def test_free_peels_build_the_same_chain_proofs(orders):
    # the nested-prove shape: each level's closure is built in the same order,
    # so the proofs are the same bytes, in fewer passes
    order, lefts, rights = orders
    goal = _nested_goal(len(order), order, lefts, rights)
    ours, ref = prove(goal, (), L12), _reference_prove(goal, ())
    assert render_proof_script(ours.proof) == render_proof_script(ref.proof)


def test_discharge_logs_only_the_steps_its_conclusion_keeps(monkeypatch):
    # discharge appends to the builder that holds the derivation, which keeps
    # the steps that depended on the hypothesis; alpha -> alpha is derived
    # where a lifted step first cites it, and a lifted step the builder
    # already holds is reused, so every step a discharge appends is kept
    appended = []
    real = engine.discharge

    def spy(b, name, *conclusions):
        before = len(b.proof().steps)
        out = real(b, name, *conclusions)
        kept = {key for idx in out for key, _, _ in records(b, idx)}
        appended.append([k for k in range(before + 1, len(b.proof().steps) + 1) if k not in kept])
        return out

    monkeypatch.setattr(engine, "discharge", spy)
    for goal, hyps, _ in PROOF_PINS:
        prove(goal, hyps, L12)
    for sid in builtin_scripts():
        run_audit(sid, builtin_claims(sid), Budget())
    assert len(appended) > len(PROOF_PINS)
    assert appended == [[] for _ in appended]


def test_a_name_bound_again_after_a_failed_branch_proves_its_own_formula():
    # the left disjunct peels g1 := 0 = 1 and fails; the right one binds g1
    # again, to 0 = 0 /\ 1 = 1: the failed branch must have dropped the old g1
    goal = parse("(0 = 1 -> 1 = 0) \\/ (0 = 0 /\\ 1 = 1 -> 1 = 1 /\\ 0 = 0)")
    outcome = prove(goal, [], L12)
    proof = outcome.proof
    assert proof is not None and check_proof(proof, L12, strict=True).ok
    assert (len(proof.steps), outcome.report.steps_expended, _sha256(full_text_script(proof))) == (
        13, 3, "8f0decdc3be42d72090f6d35e3a1ea3eab44bae38b381dc8eb3f7aeeaf531a41")


def _failing_peel_goals(hyps, other):
    """Goals with a sentence implication that the search peels and, often,
    fails to prove, beside a piece that it may prove."""
    pieces = st.sampled_from([*hyps, other])
    peel = st.builds(Implies, sentences(max_depth=1), sentences(max_depth=1))
    return st.one_of(peel, st.builds(Or, peel, pieces), st.builds(And, pieces, peel))


@settings(max_examples=60, deadline=None)
@given(st.lists(formulas(max_depth=2), max_size=2), sentences(max_depth=1), st.data())
def test_every_assumption_is_discharged_or_dropped(hyps, other, data):
    # each search level ends what it assumed, on success and on failure, so
    # the one builder is back at the caller's hypotheses when prove returns
    goal = data.draw(_search_goals(hyps, other) | _failing_peel_goals(hyps, other))
    searchers = []

    class Recording(engine._Searcher):
        def __init__(self, *args):
            super().__init__(*args)
            searchers.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_Searcher", Recording)
        outcome = prove(goal, hyps, L12, Budget(max_steps=2000))
    caller = engine._named_hyps(hyps)
    assert searchers[0].b.hypotheses == caller
    if outcome.proof is not None:
        assert outcome.proof.hypotheses == caller
        assert outcome.proof.conclusion == goal
        assert check_proof(outcome.proof, L12, strict=True).ok


def test_derived_rules_run_only_over_the_logical_schemata():
    # every derived rule finishes through a template that cites the logical
    # schemata: over sets without them, only modus ponens and gen apply
    for i, text in enumerate(LOGIC_SAMPLES, start=1):
        assert match_schema(parse(text), SCHEMATA[f"phi{i}"]) is not None, text
    hyps = [parse("~(0 = 0 -> 1 = 1)"), parse("~(0 = 0)")]
    logic = ("L12", "L2r", "L11", "LT1")
    for name in AXIOM_SET_NAMES:
        axioms = (axiom_set(name),)
        assert covers_logic(axioms) is (name in logic), name
        closure = bounded_closure(hyps, axioms)
        assert (closure.contradiction is not None) is (name in logic), name
        if closure.contradiction is not None:
            assert all(check_proof(closure.proof_of(f), axioms).ok for f in closure.contradiction)
    assert bounded_closure(hyps, (axiom_set("Xp"),)).contradiction is None
    goal = parse("0 = 0 -> 0 = 0")
    for axioms in ((), (axiom_set("Xp"),), (axiom_set("NPsi3dot"),), (axiom_set("PrefixedL2r"),)):
        outcome = prove(goal, [], axioms)
        assert outcome.proof is None and outcome.report.fixpoint
    assert covers_logic((axiom_set("Xp"), axiom_set("L12")))
    assert prove(goal, [], (axiom_set("Xp"), axiom_set("L12"))).proof is not None
