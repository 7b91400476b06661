"""Textual grammar: parse/render round trips and error reporting."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench.parser import (
    MAX_NESTING,
    ParseError,
    parse,
    parse_term,
    render,
    render_term,
    render_width,
)
from proofbench.proofs import check_proof, parse_proof_script
from proofbench.schemata import axiom_set
from proofbench.semantics import is_tautology
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
    substitute,
)
from proofbench.transforms import ProofBuilder, deduction_transform, phi4_instance

from strategies import formulas, terms


def test_atom_parsing():
    assert parse("x1 < x2") == Atom("<", (Var(1), Var(2)))
    assert parse("1 = 0") == Atom("=", (Const("1"), Const("0")))
    assert parse("S(x3) = x1 + 1") == Atom(
        "=", (App("S", (Var(3),)), App("+", (Var(1), Const("1"))))
    )


def test_quantifier_parsing():
    assert parse("(Ax1)(x1 = x1)") == Forall(1, Atom("=", (Var(1), Var(1))))
    assert parse("(Ex2)(x2 < 1)") == Exists(2, Atom("<", (Var(2), Const("1"))))


def test_implication_is_right_associative():
    a, b, c = parse("0 = 0"), parse("0 = 1"), parse("1 = 1")
    assert parse("0 = 0 -> 0 = 1 -> 1 = 1") == Implies(a, Implies(b, c))
    assert parse("(0 = 0 -> 0 = 1) -> 1 = 1") == Implies(Implies(a, b), c)


def test_negation_binds_tightly():
    assert parse("~(1 < 1) -> 1 < 1") == Implies(Not(parse("1 < 1")), parse("1 < 1"))
    assert parse("~~(1 < 1)") == Not(Not(parse("1 < 1")))


def test_connective_glyphs():
    a, b = parse("0 = 0"), parse("1 = 1")
    assert parse("0 = 0 \\/ 1 = 1") == Or(a, b)
    assert parse(r"0 = 0 /\ 1 = 1") == And(a, b)
    assert parse("0 = 0 <-> 1 = 1") == Iff(a, b)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_formula_round_trip(f):
    assert parse(render(f)) == f


@settings(max_examples=200, deadline=None)
@given(terms())
def test_term_round_trip(t):
    assert parse_term(render_term(t)) == t


@pytest.mark.parametrize(
    "text",
    [
        "(((",
        "x1 +",
        "x1 = ",
        "-> 0 = 0",
        "(Ax1)",
        "0 = 0 @@ 1 = 1",
        "",
        "x0 = 1",
        "(Ax0)(1 = 1)",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse("0 = 0 @@ 1 = 1")
    assert "position" in str(e.value)


def test_whitespace_insensitive():
    assert parse("0=0->1=1") == parse("0 = 0  ->  1 = 1")


def test_bad_variable_id_error_points_at_the_token():
    with pytest.raises(ParseError) as e:
        parse(r"1 = 1 /\ (Ex0)(1 = 1)")
    assert e.value.pos == 11


# The grammar, pinned: each accepted text with its tree, each rejected text.
_X1, _X2, _X3 = Var(1), Var(2), Var(3)
_ZERO, _ONE = Const("0"), Const("1")


def _eq(a, b):
    return Atom("=", (a, b))


@pytest.mark.parametrize(
    "text, tree",
    [
        ("((x1)) = x2", _eq(_X1, _X2)),
        (r"~x1 = x2 /\ 0 = 0", And(Not(_eq(_X1, _X2)), _eq(_ZERO, _ZERO))),
        ("(x1 + 1) * x2 = x2", _eq(App("*", (App("+", (_X1, _ONE)), _X2)), _X2)),
        ("S(x1 + 1) = S(x2)", _eq(App("S", (App("+", (_X1, _ONE)),)), App("S", (_X2,)))),
        (
            "0 = 0 -> 0 = 1 <-> 1 = 1",
            Implies(_eq(_ZERO, _ZERO), Iff(_eq(_ZERO, _ONE), _eq(_ONE, _ONE))),
        ),
        ("x1 + x2 * x3 = x1", _eq(App("+", (_X1, App("*", (_X2, _X3)))), _X1)),
    ],
)
def test_grammar_accepts(text, tree):
    assert parse(text) == tree


@pytest.mark.parametrize(
    "text", ["x1 = x2 = x3", "x1 + (x2 = x3)", "S x1 = 1", "(A x1)", "1 , 1"]
)
def test_grammar_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


_TOKENS = [
    "x0", "x1", "x2", "0", "1", "S", "A", "E", "<->", "->", "/\\", "\\/",
    "~", "(", ")", "+", "*", "=", "<", ",",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=16), st.sampled_from(["", " "]))
def test_token_strings_parse_or_raise_parse_error(tokens, sep):
    text = sep.join(tokens)
    for entry in (parse, parse_term):
        try:
            entry(text)
        except ParseError:
            pass


def test_deep_parentheses_parse():
    assert parse("(" * 300 + "1 = 1" + ")" * 300) == _eq(_ONE, _ONE)


@pytest.mark.parametrize("text", ["1 = 1", "x9001 < 0", "x9002 = x9003 /\\ (0 = 0)"])
@pytest.mark.parametrize("inner_first", [True, False])
def test_stored_text_does_not_depend_on_context(text, inner_first):
    # the x9001..x9003 nodes are fresh here, so the first render fills their text
    a = parse(text)
    wrapped = f"~({text})"
    if inner_first:
        assert render(a) == text
    assert render(Not(a)) == wrapped
    assert render(a) == text
    assert render(Not(a)) == wrapped


# Text shapes that nest n deep, each growing one way the parser can recurse
# or build without recursing.
_DEEP = {
    "not": lambda n: "~" * n + "(x1 = 1)",
    "parens": lambda n: "(" * n + "x1 = 1" + ")" * n,
    "and-chain": lambda n: " /\\ ".join(["x1 = 1"] * n),
    "plus-chain": lambda n: "x1" + " + x1" * n + " = 1",
    "successor": lambda n: "S(" * n + "x1" + ")" * n + " = 1",
    "imp-chain": lambda n: " -> ".join(["x1 = 1"] * n),
    # a /\ chain whose first atom holds a + chain: n // 2 levels of each
    "and-over-plus": lambda n: " /\\ ".join(
        ["x1" + " + x1" * (n // 2) + " = 1"] + ["x1 = 1"] * (n // 2)
    ),
}


@pytest.mark.parametrize("shape", _DEEP)
def test_text_nesting_past_the_cap_is_a_parse_error(shape):
    with pytest.raises(ParseError, match=f"nests more than {MAX_NESTING} deep"):
        parse(_DEEP[shape](3000))


def test_term_levels_count_toward_the_nesting():
    # of the term alone: the kernel caps a formula's connective depth and a
    # term's height apart, and the text parses to the node it builds
    n = (MAX_NESTING + 20) // 2
    tall = _stacked(lambda t: App("+", (t, _X1)), n, _X1)
    f = _stacked(lambda g: And(g, _eq(_X1, _ONE)), n, _eq(tall, _ONE))
    assert parse(_DEEP["and-over-plus"](MAX_NESTING + 20)) is f


def _stacked(build, n, base):
    for _ in range(n):
        base = build(base)
    return base


def test_render_takes_a_formula_at_the_cap_on_both_counts():
    # no node passes the cap (the kernel refuses one), and one at the cap
    # renders: connectives, then the terms of an atom
    zero = Const("0")
    at_cap = _stacked(lambda t: App("S", (t,)), MAX_NESTING, zero)
    text = render(_stacked(Not, MAX_NESTING, Atom("=", (at_cap, zero))))
    assert text.startswith("~" * MAX_NESTING + "(S(")
    assert render_term(at_cap) == "S(" * MAX_NESTING + "0" + ")" * MAX_NESTING


@pytest.mark.parametrize("op", ["+", "*"])
def test_successor_over_a_maximal_chain_is_a_parse_error(op):
    # the chain is MAX_NESTING high; S( over it would be one more, which the
    # parser refuses before the kernel is asked to build it
    chain = "x1" + f" {op} x1" * MAX_NESTING
    assert parse_term(chain)._depth == MAX_NESTING
    with pytest.raises(ParseError, match=f"nests more than {MAX_NESTING} deep") as e:
        parse(f"S({chain}) = 1")
    assert e.value.pos == len(f"S({chain})") + 1
    with pytest.raises(ParseError, match=f"nests more than {MAX_NESTING} deep"):
        parse(f"{chain} {op} x1 = 1")


def _with_frames_below(n, fn):
    """``fn()`` called under ``n`` more stack frames."""
    return fn() if n == 0 else _with_frames_below(n - 1, fn)


@pytest.mark.parametrize("shape", _DEEP)
def test_text_within_the_cap_survives_the_pipeline(shape):
    l12 = (axiom_set("L12"),)

    def pipeline():
        f = parse(_DEEP[shape](MAX_NESTING - 10))
        assert parse(render(f)) == f
        g = substitute(f, 1, Const("0"))
        assert g != f and render(g) == render(f).replace("x1", "0")
        assert is_tautology(g) in (True, False)
        b = ProofBuilder((("h", g),), axioms=l12)
        b.add_mp(b.add_hyp("h"), b.add_axiom(phi4_instance(g, g)))
        proof = b.proof()
        assert check_proof(proof, l12).ok
        out = deduction_transform(proof, "h", l12)
        assert out.conclusion == Implies(g, Implies(g, g))
        assert check_proof(out, l12).ok

    assert sys.getrecursionlimit() >= 1000
    _with_frames_below(150, pipeline)
    # substitute spends one frame per level, term levels included
    f = parse(_DEEP[shape](MAX_NESTING - 10))
    _with_frames_below(400, lambda: substitute(f, 1, Const("0")))


def _tall_and_chain(depth, height):
    """As render writes it: a ``/\\`` chain ``depth`` connectives deep whose
    first atom holds a ``+`` chain ``height`` high."""
    return "x1" + " + x1" * height + " = 1" + " /\\ (x1 = 1)" * depth


def test_a_tall_term_under_a_deep_chain_survives_the_pipeline():
    # the kernel caps the two counts apart, so text near the cap on both goes
    # through; not a _DEEP shape, since substitute's frames at 780 combined
    # levels leave no 400 to spare
    l12 = (axiom_set("L12"),)
    text = _tall_and_chain(MAX_NESTING - 10, MAX_NESTING - 10)

    def pipeline():
        f = parse(text)
        assert render(f) == text
        g = substitute(f, 1, Const("0"))
        assert g != f and render(g) == text.replace("x1", "0")
        assert is_tautology(g) in (True, False)
        b = ProofBuilder((("h", g),), axioms=l12)
        b.add_mp(b.add_hyp("h"), b.add_axiom(phi4_instance(g, g)))
        proof = b.proof()
        assert check_proof(proof, l12).ok
        out = deduction_transform(proof, "h", l12)
        assert out.conclusion == Implies(g, Implies(g, g))
        assert check_proof(out, l12).ok

    assert sys.getrecursionlimit() >= 1000
    _with_frames_below(150, pipeline)


def test_text_at_the_cap_on_both_counts_round_trips():
    text = _tall_and_chain(MAX_NESTING, MAX_NESTING)
    f = atom = parse(text)
    while isinstance(atom, And):
        atom = atom.left
    assert (f._depth, atom.args[0]._depth) == (MAX_NESTING, MAX_NESTING)
    assert render(f) == text


@pytest.mark.parametrize("depth, height", [(MAX_NESTING + 1, 0), (0, MAX_NESTING + 1)])
def test_one_level_past_the_kernel_cap_is_a_parse_error(depth, height):
    # at the token after the last operand of the node the kernel refuses
    text = _tall_and_chain(depth, height)
    with pytest.raises(ParseError, match=f"input nests more than {MAX_NESTING} deep") as e:
        parse(text)
    assert e.value.pos == (len(text) if depth else text.index("="))


@pytest.mark.parametrize("shape", _DEEP)
def test_mp_conclusion_at_the_cap_reads_as_its_text_parses(shape):
    # the deepest major premise of this shape that parses: its consequent's
    # text, written out on the mp line of a full-text script, parses too
    for n in range(MAX_NESTING + 1, 0, -1):
        major = "0 = 0 -> " + _DEEP[shape](n)
        try:
            f = parse(major)
            break
        except ParseError:
            pass
    text = render(f.right)
    script = f"hyp a 0 = 0\nhyp b {major}\n1. 0 = 0 ; hyp a\n2. {major} ; hyp b\n3. {text} ; mp 1 2\n"
    assert parse_proof_script(script).conclusion is f.right is parse(text)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_render_width_is_the_length_of_render(f):
    # measured before render stores its text on the nodes, and after
    width = render_width(f)
    assert width == len(render(f)) == render_width(f)


def test_render_width_counts_each_distinct_node_once():
    f = parse("0 = 0")
    for depth in range(1, 61):
        f = And(f, f)
        if depth == 4:
            assert render_width(f) == len(render(f))
    assert render_width(f) == 11 * 2**60 - 6
