"""Kernel proof objects, the step checker, and proof-script serialization."""

import functools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofbench.audit import _detail_files, run_audit
from proofbench.parser import ParseError, parse, render
from proofbench.proofs import (
    Ax,
    CheckResult,
    Gen,
    Hyp,
    Mp,
    Proof,
    ProofStep,
    ScriptError,
    check_certificate,
    check_proof,
    parse_proof_script,
    render_proof_script,
)
from proofbench.schemata import NAMED_FORMULAS, PSI_AXIOMS, axiom_set
from proofbench.scripts import builtin_claims, builtin_scripts
from proofbench.syntax import (
    MAX_NESTING,
    And,
    App,
    Atom,
    Const,
    Forall,
    Implies,
    NestingError,
    Not,
    Var,
    connective_depth,
)
from proofbench.transforms import ProofBuilder, phi4_instance

from reference_reader import reference_parse_proof_script
from strategies import (
    alternating,
    formulas,
    induction_candidate,
    near_the_recursion_limit,
    phi10_candidate,
    random_proof,
    tall_atom,
    weakening,
)

L12 = (axiom_set("L12"),)
PSI1 = PSI_AXIOMS["psi1"]
PSI7 = PSI_AXIOMS["psi7"]


def simple_proof() -> Proof:
    """{psi7} |- psi1 -> psi7 via one phi4 instance and MP."""
    b = ProofBuilder((("h", PSI7),), axioms=L12)
    i = b.add_hyp("h")
    j = b.add_axiom(phi4_instance(PSI7, PSI1))
    b.add_mp(i, j)
    return b.proof()


def test_simple_proof_checks():
    p = simple_proof()
    r = check_proof(p, L12)
    assert r.ok and r.step is None and r.reason is None
    assert p.steps[-1].formula == Implies(PSI1, PSI7)


def test_check_is_pure():
    p = simple_proof()
    assert check_proof(p, L12) == check_proof(p, L12)


def test_unknown_hypothesis_rejected():
    p = Proof((), (ProofStep(1, PSI7, Hyp("nope")),))
    r = check_proof(p, L12)
    assert not r.ok and r.step == 1


def test_axiom_step_must_be_recognized():
    p = Proof((), (ProofStep(1, NAMED_FORMULAS["u27"], Ax("L12")),))
    r = check_proof(p, L12)
    assert not r.ok and r.step == 1


@pytest.mark.parametrize(
    "formula,reason",
    [
        # phi11 putting x2 under (Ax2): an instance but for the capture
        (Implies(Forall(1, Forall(2, parse("x1 < x2"))), Forall(2, parse("x2 < x2"))),
         "side-condition"),
        # phi12 with x1 free in the fixed antecedent
        (Implies(Forall(1, Implies(parse("x1 = x1"), parse("x1 < 1"))),
                 Implies(parse("x1 = x1"), Forall(1, parse("x1 < 1")))),
         "side-condition"),
        (Implies(PSI7, PSI1), "not-axiom"),
    ],
)
def test_axiom_step_failure_reasons(formula, reason):
    p = Proof((), (ProofStep(1, formula, Ax("L12")),))
    for strict in (False, True):
        r = check_proof(p, L12, strict=strict)
        assert (r.ok, r.step, r.reason) == (False, 1, reason)


def test_axiom_step_unknown_set_name():
    p = Proof((), (ProofStep(1, phi4_instance(PSI7, PSI1), Ax("NoSuchSet")),))
    r = check_proof(p, L12)
    assert not r.ok and r.step == 1


def test_mp_direction_checked():
    good = simple_proof()
    # swap the mp operands: step 1 is not (step 2 -> _)
    bad = Proof(good.hypotheses, good.steps[:-1] + (ProofStep(3, Implies(PSI1, PSI7), Mp(2, 1)),))
    r = check_proof(bad, L12)
    assert not r.ok and r.step == 3


def test_mp_formula_must_be_the_consequent():
    good = simple_proof()
    bad = Proof(good.hypotheses, good.steps[:-1] + (ProofStep(3, PSI7, Mp(1, 2)),))
    r = check_proof(bad, L12)
    assert not r.ok and r.step == 3


def test_forward_reference_rejected():
    p = Proof((), (ProofStep(1, PSI7, Mp(2, 3)),))
    assert not check_proof(p, L12).ok


@pytest.mark.parametrize(
    "just,formula,reason",
    [
        (Mp(1, 2), PSI1, None),
        (Mp("1", 2), PSI1, "dangling-ref"),
        (Mp(1.0, 2), PSI1, "dangling-ref"),
        (Mp(True, 2), PSI1, "dangling-ref"),
        (Mp(1, True), PSI1, "dangling-ref"),
        (Mp(0, 2), PSI1, "dangling-ref"),
        (Gen(1, 1), Forall(1, PSI7), None),
        (Gen(1.0, 1), Forall(1, PSI7), "dangling-ref"),
        (Gen("1", 1), Forall(1, PSI7), "dangling-ref"),
        (Gen(True, 1), Forall(1, PSI7), "dangling-ref"),
        (Gen(1, 0), Forall(1, PSI7), "bad-gen"),
        (Gen(1, -1), Forall(1, PSI7), "bad-gen"),
        (Gen(1, True), Forall(1, PSI7), "bad-gen"),
        (Gen(1, 1.0), Forall(1, PSI7), "bad-gen"),
        (Gen(1, "x"), Forall(1, PSI7), "bad-gen"),  # a name, not a variable id
        (Hyp(["a"]), PSI7, "dangling-ref"),
        (Ax(["L12"]), PSI7, "dangling-ref"),
    ],
)
def test_hostile_justifications_are_rejected(just, formula, reason):
    hyps = (("a", PSI7), ("b", Implies(PSI7, PSI1)))
    p = Proof(
        hyps,
        (
            ProofStep(1, PSI7, Hyp("a")),
            ProofStep(2, Implies(PSI7, PSI1), Hyp("b")),
            ProofStep(3, formula, just),
        ),
    )
    for strict in (False, True):
        r = check_proof(p, L12, strict=strict)
        assert (r.ok, r.reason) == (reason is None, reason)
    if reason is None:  # what the checker accepts, a script can state
        assert parse_proof_script(render_proof_script(p)) == p


def test_gen_step():
    open_f = parse("x1 = x1")
    b = ProofBuilder((), axioms=L12)
    # phi2-shaped instance over an open matrix, then generalize
    i = b.add_axiom(phi4_instance(open_f, open_f))
    b.add_gen(i, 2)
    p = b.proof()
    r = check_proof(p, L12)
    assert r.ok
    assert p.steps[-1].formula == Forall(2, phi4_instance(open_f, open_f))


def test_gen_over_free_hypothesis_variable_flagged_and_strict_rejected():
    h = parse("x1 = x1")
    b = ProofBuilder((("h", h),))
    i = b.add_hyp("h")
    b.add_gen(i, 1)
    p = b.proof()
    relaxed = check_proof(p, ())
    assert relaxed.ok and relaxed.warnings
    strict = check_proof(p, (), strict=True)
    assert not strict.ok and strict.step == 2


def test_gen_over_variable_not_free_in_hypotheses_is_clean():
    b = ProofBuilder((("h", PSI7),))
    i = b.add_hyp("h")
    b.add_gen(i, 1)
    r = check_proof(b.proof(), (), strict=True)
    assert r.ok and not r.warnings


def test_duplicate_formulas_permitted():
    # the builder never repeats a formula, so the repeat is written out
    base = simple_proof()
    p = Proof(base.hypotheses, base.steps + (ProofStep(4, base.conclusion, Mp(1, 2)),))
    assert p.steps[-1].formula == p.steps[2].formula
    assert check_proof(p, L12).ok


def test_script_round_trip():
    p = simple_proof()
    text = render_proof_script(p)
    again = parse_proof_script(text)
    assert again == p
    assert check_proof(again, L12).ok


def test_script_round_trip_random():
    rng = random.Random(99)
    for _ in range(25):
        p = random_proof(rng, max_steps=12)
        assert parse_proof_script(render_proof_script(p)) == p


def test_script_comments_and_blanks_ignored():
    text = render_proof_script(simple_proof())
    noisy = "# leading comment\n\n" + text.replace("\n", "  # trail\n", 1)
    assert parse_proof_script(noisy) == simple_proof()


def test_script_errors_carry_line_numbers():
    with pytest.raises(ScriptError) as e:
        parse_proof_script("1. 0 = 0 ; axiom L12\nhyp h 0 = 0\n")
    assert e.value.line == 2
    with pytest.raises(ScriptError):
        parse_proof_script("1. 0 = 0 ; frobnicate\n")
    with pytest.raises(ScriptError):
        parse_proof_script("hyp h\n")
    with pytest.raises(ScriptError):
        parse_proof_script("1. ((( ; axiom L12\n")


@pytest.mark.parametrize(
    "line",
    [
        "\u00b2. 1 = 1 ; axiom L12",
        "3. 1 = 1 ; mp 1 \u00b2",
        "3. (Ax1)(1 = 1) ; gen \u00b2 x1",
        "3. (Ax1)(1 = 1) ; gen 1 x\u00b2",
        "3. (Ax1)(1 = 1) ; gen 1 x0",
        pytest.param("1" * 5000 + ". 1 = 1 ; axiom L12", id="5000-digit-step"),
    ],
)
def test_bad_script_numbers_are_script_errors(line):
    with pytest.raises(ScriptError):
        parse_proof_script(line + "\n")


def test_builder_formula_lookup():
    b = ProofBuilder((("h", PSI7),))
    i = b.add_hyp("h")
    assert b.formula(i) == PSI7
    assert b.idx_of(PSI7) == i
    assert b.idx_of(PSI1) is None
    with pytest.raises(KeyError):
        b.add_hyp("nope")


def test_add_axiom_cites_the_first_covering_set():
    f = phi4_instance(PSI7, PSI1)
    l2r, l12 = axiom_set("L2r"), axiom_set("L12")
    for axioms, cited in (((l2r, l12), "L2r"), ((l12, l2r), "L12")):
        b = ProofBuilder((), axioms=axioms)
        b.add_axiom(f)
        assert b.proof().steps[0].just == Ax(cited)
    with pytest.raises(ValueError, match="no axiom set covers: "):
        ProofBuilder((), axioms=(axiom_set("Xp"),)).add_axiom(f)


def _phi11_under_negations(n):
    """``(Ax1)~^n(x1 = x1) -> ~^n(0 = 0)``, a phi11 instance built in code."""
    body, inst = Atom("=", (Var(1), Var(1))), Atom("=", (Const("0"), Const("0")))
    for _ in range(n):
        body, inst = Not(body), Not(inst)
    return Implies(Forall(1, body), inst)


def _phi11_over_successors(n):
    """``(Ax1)(S^n(x1) = 0) -> S^n(0) = 0``, a phi11 instance built in code."""
    tall, ground = Var(1), Const("0")
    for _ in range(n):
        tall, ground = App("S", (tall,)), App("S", (ground,))
    return Implies(Forall(1, Atom("=", (tall, Const("0")))), Atom("=", (ground, Const("0"))))


def _one_axiom_step(f, set_name="L12"):
    return Proof((), (ProofStep(1, f, Ax(set_name)),))


def _successors(n, base):
    for _ in range(n):
        base = App("S", (base,))
    return base


def _phi11_texts(n):
    """The script texts of ``_phi11_under_negations(n)`` and
    ``_phi11_over_successors(n)``, written without building either."""
    neg = "~" * n
    tall, ground = "S(" * n + "x1" + ")" * n, "S(" * n + "0" + ")" * n
    return (
        f"(Ax1){neg}(x1 = x1) -> {neg}(0 = 0)",
        f"(Ax1)({tall} = 0) -> {ground} = 0",
    )


@pytest.mark.parametrize("depth", [450, 1200])
@pytest.mark.parametrize("set_name", ["L12", "L2r"])
def test_check_proof_refuses_an_axiom_step_past_the_nesting_cap(depth, set_name):
    # past the cap the phi11 recognizer once raised ValueError (450) or
    # RecursionError (1200); now no such step reaches the checker: the kernel
    # refuses to build it, and a script that states it fails at its line
    builders = (_phi11_under_negations, _phi11_over_successors)
    assert _phi11_texts(3) == tuple(render(build(3)) for build in builders)
    for build, text in zip(builders, _phi11_texts(depth)):
        with pytest.raises(NestingError):
            build(depth)
        with pytest.raises(ScriptError, match="nests more than") as exc:
            parse_proof_script(f"1. {text} ; axiom {set_name}\n")
        assert exc.value.line == 1


#: axiom steps within the cap whose recognizer's rebuild passes it, and the
#: sets that recognize their schema
_REBUILT_PAST_THE_CAP = {
    # phi11 reads t = S^400(0) off the first x1 and substitutes it under S^50
    "phi11": (
        Implies(
            Forall(1, Atom("=", (Var(1), _successors(50, Var(1))))),
            Atom("=", (_successors(MAX_NESTING, Const("0")), Const("0"))),
        ),
        ("L12", "L2r"),
    ),
    # phi10 reads A = ~^397(0 = 0) off the first antecedent (phi1 to phi9 miss)
    "phi10": (phi10_candidate(MAX_NESTING - 3), ("L12", "L2r")),
    "induction": (induction_candidate(MAX_NESTING), ("Xp", "Yp")),
}


@pytest.mark.parametrize("schema", _REBUILT_PAST_THE_CAP)
def test_check_proof_refuses_an_axiom_step_whose_rebuild_passes_the_cap(schema):
    # the rebuilt node cannot be the step, which is within the cap, so the
    # step is no instance of the schema
    f, set_names = _REBUILT_PAST_THE_CAP[schema]
    for set_name in set_names:
        axioms = (axiom_set(set_name),)
        assert check_proof(_one_axiom_step(f, set_name), axioms) == CheckResult(
            False, 1, "not-axiom"
        )


def test_check_proof_takes_an_axiom_step_at_the_nesting_cap():
    at_cap = (_phi11_under_negations(MAX_NESTING - 2), _phi11_over_successors(MAX_NESTING))
    assert [connective_depth(f) for f in at_cap] == [MAX_NESTING, 2]
    for f in at_cap:
        assert check_proof(_one_axiom_step(f), L12).ok


def test_check_proof_reads_a_gen_step_over_a_formula_at_the_cap():
    # Forall(1, top) would pass the cap: the checker compares the stated
    # formula with the cited step, and builds no Forall over it
    top = _phi11_under_negations(MAX_NESTING - 2)
    proof = Proof((("h", top),), (ProofStep(1, top, Hyp("h")), ProofStep(2, top, Gen(1, 1))))
    assert check_proof(proof, L12) == CheckResult(False, 2, "bad-gen")


def test_check_certificate_looks_up_the_cited_sets_in_step_order():
    ok = parse_proof_script("1. 0 = 0 -> 0 = 0 -> 0 = 0 ; axiom L12\n")
    assert check_certificate(ok, strict=True) == check_proof(ok, L12, strict=True)
    bad = parse_proof_script("1. 0 = 0 ; axiom Zz\n2. 1 = 1 ; axiom Aa\n")
    with pytest.raises(ValueError, match="unknown axiom set 'Zz'"):
        check_certificate(bad, strict=False)


# -- let lines -----------------------------------------------------------

def _shared_and(k):
    """``X(k)``: ``X(0) = 0 = 0``, ``X(k + 1) = X(k) /\\ X(k)``, which renders
    to text exponential in ``k``."""
    f = parse("0 = 0")
    for _ in range(k):
        f = And(f, f)
    return f


def test_script_names_each_distinct_node_once():
    text = render_proof_script(simple_proof())
    lets = [line for line in text.splitlines() if line.startswith("let ")]
    assert len(lets) == len({line.partition(" = ")[2] for line in lets})
    assert [line.split()[1] for line in lets] == [f"d{n}" for n in range(1, len(lets) + 1)]
    # every other line cites names only
    assert all(line.partition(" ;")[0].split()[-1].startswith("d")
               for line in text.splitlines() if not line.startswith("let "))


def test_a_shared_subtree_proof_writes_a_small_certificate():
    f = _shared_and(22)
    proof = Proof((("h", f),), (ProofStep(1, f, Hyp("h")),))
    text = render_proof_script(proof)
    assert len(text) < 1024
    assert parse_proof_script(text) == proof
    assert check_certificate(proof, strict=True).ok


@pytest.mark.parametrize("fs", [
    [alternating(depth) for depth in range(266, MAX_NESTING - 1, 2)],
    [tall_atom(MAX_NESTING)],
], ids=["alternating-266-to-398", "tall-atom"])
def test_formulas_whose_text_does_not_parse_round_trip(fs):
    for f in fs:
        with pytest.raises(ParseError):
            parse(render(f))
        proof = weakening(f)
        assert parse_proof_script(render_proof_script(proof)) == proof
        assert check_certificate(proof, strict=True).ok


def test_a_formula_at_the_cap_on_both_counts_round_trips():
    f = tall_atom(MAX_NESTING)
    for _ in range(MAX_NESTING):
        f = Not(f)
    proof = Proof((("h", f),), (ProofStep(1, f, Hyp("h")),))
    text = render_proof_script(proof)
    assert text.count("\nlet ") + 1 == 2 * MAX_NESTING + 1  # one per distinct node
    assert parse_proof_script(text) == proof


@settings(max_examples=200, deadline=None)
@given(formulas(), formulas())
def test_script_round_trip_over_formulas(a, b):
    # hypothesis, mp and gen lines over the strategies' formulas
    hyps = (("h1", a), ("h2", Implies(a, b)))
    proof = Proof(hyps, (
        ProofStep(1, a, Hyp("h1")),
        ProofStep(2, Implies(a, b), Hyp("h2")),
        ProofStep(3, b, Mp(1, 2)),
        ProofStep(4, Forall(1, b), Gen(3, 1)),
    ))
    assert check_proof(proof, ()).ok
    assert parse_proof_script(render_proof_script(proof)) == proof


def test_let_lines_and_formula_text_mix():
    text = "let d1 = 0 = 0\nlet d2 = d1 -> d1\nhyp h 0 = 0 -> 0 = 0  # text\n1. d2 ; hyp h\n"
    eq = parse("0 = 0 -> 0 = 0")
    assert parse_proof_script(text) == Proof((("h", eq),), (ProofStep(1, eq, Hyp("h")),))


def _chain(n, prefix):
    """``n`` let lines, each ``prefix`` over the name above it."""
    first = "let d1 = 0 = 0" if prefix == "~" else "let d1 = S 0"
    return [first] + [f"let d{k} = {prefix} d{k - 1}" for k in range(2, n + 1)]


#: hostile ``let`` lines: (script lines, the line refused, the message)
HOSTILE_LET_LINES = [
    # an unknown name, as an operand and as a formula field
    (["let d1 = 0 = 0", "let d2 = d1 -> d3"], 2, "unknown name 'd3'"),
    (["let d1 = 0 = 0", "1. d2 ; axiom L12"], 2, "unknown name 'd2'"),
    # a name bound a second time
    (["let d1 = 0 = 0", "let d1 = 1 = 1"], 2, "d1 is bound a second time"),
    # two constructors on one line
    (["let d1 = 0 = 0", "let d2 = ~ ~ d1"], 2, "not one constructor"),
    (["let d1 = 0 = 0", "let d2 = d1 -> d1 -> d1"], 2, "expected: let"),
    (["let d1 = 0 = 0", "let d2 = ~ d1 /\\ d1"], 2, "expected: let"),
    (["let d1 = S S 0"], 1, "not one constructor"),
    (["let d1 = x1 + 1 = 0"], 1, "expected: let"),
    # an operand that is no name, variable or constant
    (["let d1 = 0 = (0)"], 1, "bad operand '(0)'"),
    (["let d1 = x0 = 0"], 1, "bad operand 'x0'"),
    (["let d1 = 0 = 0", "let d2 = (Ax0) d1"], 2, "not one constructor"),
    # an operand of the wrong sort
    (["let d1 = 0 = 0", "let d2 = d1 + 1"], 2, "+ needs a term: d1"),
    (["let d1 = 0 = 0", "let d2 = S d1"], 2, "S needs a term: d1"),
    (["let d1 = 0 = 0", "let d2 = x1 /\\ d1"], 2, "/\\ needs a formula: x1"),
    (["let d1 = ~ x1"], 1, "~ needs a formula: x1"),
    (["let d1 = (Ax1) 0"], 1, "(Ax1) needs a formula: 0"),
    (["let d1 = x1 + 1", "hyp h d1"], 2, "a formula field needs a formula: d1"),
    (["let d1 = x1 + 1", "1. d1 ; axiom L12"], 2, "a formula field needs a formula: d1"),
    # malformed let lines
    (["let"], 1, "expected: let"),
    (["let d1 0 = 0"], 1, "expected: let"),
    (["let x1 = 0 = 0"], 1, "expected: let"),
    (["let d1 ="], 1, "expected: let"),
    # a node past the nesting cap, on both counts
    (_chain(MAX_NESTING + 2, "~"), MAX_NESTING + 2, "Not would nest past MAX_NESTING"),
    (_chain(MAX_NESTING + 1, "S"), MAX_NESTING + 1, "App would nest past MAX_NESTING"),
]


@pytest.mark.parametrize("lines, line, message", HOSTILE_LET_LINES)
def test_hostile_let_lines_are_script_errors_at_their_line(lines, line, message):
    text = "\n".join(lines) + "\n"
    with pytest.raises(ScriptError, match=re.escape(message)) as e:
        near_the_recursion_limit(lambda: parse_proof_script(text))
    assert e.value.line == line
    assert str(e.value).startswith(f"line {line}: ")


def test_a_let_chain_at_the_cap_reads_near_the_recursion_limit():
    text = "\n".join(_chain(MAX_NESTING + 1, "~")) + f"\n1. d{MAX_NESTING + 1} ; axiom L12\n"
    proof = near_the_recursion_limit(lambda: parse_proof_script(text))
    assert connective_depth(proof.conclusion) == MAX_NESTING


@functools.cache
def _builtin_certificates() -> tuple[str, ...]:
    """The text of every certificate the built-in reports write."""
    reports = [run_audit(s, builtin_claims(s)) for s in builtin_scripts()]
    return tuple(text for report in reports for v in report.verdicts
                 for path, text in _detail_files(v) if path.endswith(".proof"))


def _read_by(read, text: str):
    """What ``read`` makes of ``text``: a proof, or its ScriptError's message and line."""
    try:
        return read(text)
    except ScriptError as e:
        return str(e), e.line


@st.composite
def mutated_scripts(draw) -> str:
    """A built-in certificate or a hostile ``let`` script with one to three
    mutations, each on the line before or on another: a word dropped,
    repeated, swapped or replaced, a ``#`` inserted, a separator made other
    whitespace, a line cut to 4 or padded to 7 words, or an earlier ``let``
    line repeated, binding its name twice."""
    texts = _builtin_certificates() + tuple("\n".join(lines) for lines, _, _ in HOSTILE_LET_LINES)
    lines = draw(st.sampled_from(texts)).splitlines()
    i = 0
    for _ in range(draw(st.integers(1, 3))):
        if i >= len(lines) or draw(st.booleans()):
            i = draw(st.integers(0, len(lines) - 1))
        line, words = lines[i], lines[i].split(" ")
        j, k = (draw(st.integers(0, len(words) - 1)) for _ in "jk")
        kind = draw(st.sampled_from(["drop", "repeat", "swap", "replace", "cut", "pad", "#", "space",
                                     "rebind"]))
        if kind == "drop":
            del words[j]
        elif kind == "repeat":
            words.insert(j, words[j])
        elif kind == "swap":
            words[j], words[k] = words[k], words[j]
        elif kind == "replace":
            words[j] = draw(st.sampled_from(["d99", "x0", "x1", "0", "(0)", "(Ax1)", "~", "S", "->"]))
        elif kind == "cut":
            del words[4:]
        elif kind == "pad":
            words = (words + words[-1:] * 7)[:7]
        if kind == "#":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + "#" + line[at:]
        elif kind == "space":
            space = draw(st.sampled_from(["\t", "\x0b", "\x1c", "\u3000"]))
            lines[i] = " ".join(words[:j]) + space + " ".join(words[j:])
        elif kind == "rebind":
            lets = [m for m in range(i) if lines[m].startswith("let ")]
            if lets:
                lines.insert(i, lines[draw(st.sampled_from(lets))])
        else:
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_scripts())
@example("let d1 = x0 = (0)\n")  # two bad operands: the first is named
@example("let d1 = x1 -> 0\n")
@example("let d1 = 0 = 0\nlet d2 = d3 /\\ x1\n")
def test_the_let_reader_agrees_with_the_reference_reader(text):
    assert _read_by(parse_proof_script, text) == _read_by(reference_parse_proof_script, text)


def test_the_readers_agree_on_every_builtin_certificate():
    texts = _builtin_certificates()
    assert len(texts) == 83
    for text in texts:
        assert parse_proof_script(text) == reference_parse_proof_script(text)
