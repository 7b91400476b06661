"""Axiom schemata, arithmetic axiom registries, named formulas, recognizers."""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import audit, semantics
from proofbench.parser import parse
from proofbench.schemata import (
    AXIOM_SET_NAMES,
    AXIOM_SETS,
    BETA0,
    BETA1,
    CACHE_SIZE,
    INDUCTION_ONE,
    INDUCTION_ZERO,
    NAMED_FORMULAS,
    PSI_AXIOMS,
    Q_AXIOMS,
    SCHEMATA,
    _is_closure_of_logic_instance,
    axiom_set,
    is_logic_instance,
    match_schema,
    recognize_induction,
)
from proofbench.syntax import (
    And,
    App,
    Atom,
    Const,
    Forall,
    Iff,
    Implies,
    Not,
    Var,
    is_sentence,
    universal_closure,
)
from proofbench.transforms import (
    phi1_instance,
    phi2_instance,
    phi3_instance,
    phi4_instance,
    phi5_instance,
    phi6_instance,
    phi7_instance,
    phi8_instance,
    phi9_instance,
    phi10_instance,
    phi11_instance,
    phi12_instance,
)

from strategies import VAR_IDS, formulas, terms

A = parse("1 < 1")
B = parse("0 = 1")
C = parse("(Ax1)(x1 = x1)")


def test_schema_registry_is_complete():
    assert list(SCHEMATA) == [f"phi{i}" for i in range(1, 13)]


@pytest.mark.parametrize(
    "maker,schema_id",
    [
        (lambda: phi1_instance(A, B, C), "phi1"),
        (lambda: phi2_instance(A), "phi2"),
        (lambda: phi3_instance(A, B), "phi3"),
        (lambda: phi4_instance(A, B), "phi4"),
        (lambda: phi5_instance(A, B), "phi5"),
        (lambda: phi6_instance(A, B), "phi6"),
        (lambda: phi7_instance(A, B), "phi7"),
        (lambda: phi8_instance(A, B), "phi8"),
        (lambda: phi9_instance(A, B), "phi9"),
        (lambda: phi10_instance(A, B, C), "phi10"),
    ],
)
def test_propositional_instances_match_and_reinstantiate(maker, schema_id):
    f = maker()
    args = match_schema(f, SCHEMATA[schema_id])
    assert args is not None
    assert SCHEMATA[schema_id].build(*args) is f
    assert is_logic_instance(f)


# distinct formulas, so that an instance determines its arguments;
# x1 is free in _MQ and not in _MP, as phi12 asks
_MA, _MB, _MC = parse("x1 < x2"), parse("~(0 = 1)"), parse("(Ax3)(x3 = x3)")
_MD, _MP, _MQ = parse("1 < 0 \\/ 0 < 1"), parse("0 < 1"), parse("x1 = x1")


@pytest.mark.parametrize(
    "schema_id,maker",
    [
        ("phi1", lambda: (phi1_instance, (_MA, _MB, _MC))),
        ("phi2", lambda: (phi2_instance, (_MA,))),
        ("phi3", lambda: (phi3_instance, (_MA, _MB))),
        ("phi4", lambda: (phi4_instance, (_MA, _MB))),
        ("phi5", lambda: (phi5_instance, (_MA, _MB))),
        ("phi6", lambda: (phi6_instance, (_MA, _MB))),
        ("phi7", lambda: (phi7_instance, (_MA, _MB))),
        ("phi8", lambda: (phi8_instance, (_MA, _MB))),
        ("phi9", lambda: (phi9_instance, (_MA, _MB))),
        ("phi10", lambda: (phi10_instance, (_MA, _MB, _MD))),
        ("phi12", lambda: (phi12_instance, (1, _MP, _MQ))),
    ],
)
def test_templates_are_their_constructors(schema_id, maker):
    # a schema's one template is its public constructor: matching reads back
    # the arguments an instance was built from, and its build rebuilds it
    constructor, args = maker()
    inst = constructor(*args)
    assert match_schema(inst, SCHEMATA[schema_id]) == args
    assert SCHEMATA[schema_id].build(*args) is inst


def test_phi11_side_condition():
    open_f = parse("x1 < x2")
    inst = phi11_instance(1, open_f, Const("0"))
    assert inst == Implies(Forall(1, open_f), parse("0 < x2"))
    assert match_schema(inst, SCHEMATA["phi11"]) is not None

    # substituting x2 for x1 under (Ax2) would capture: side condition fails
    captures = Implies(
        Forall(1, Forall(2, parse("x1 < x2"))),
        Forall(2, parse("x2 < x2")),
    )
    assert match_schema(captures, SCHEMATA["phi11"]) is None


def test_phi12_side_condition():
    closed_left = parse("1 < 1")
    inst = phi12_instance(1, closed_left, parse("x1 = x1"))
    assert inst == Implies(
        Forall(1, Implies(closed_left, parse("x1 = x1"))),
        Implies(closed_left, Forall(1, parse("x1 = x1"))),
    )
    assert match_schema(inst, SCHEMATA["phi12"]) is not None

    # x1 free in the antecedent's left side: rejected
    bad = Implies(
        Forall(1, Implies(parse("x1 = x1"), parse("x1 < 1"))),
        Implies(parse("x1 = x1"), Forall(1, parse("x1 < 1"))),
    )
    assert match_schema(bad, SCHEMATA["phi12"]) is None


def test_phi11_instance_rejects_capture():
    with pytest.raises(Exception):
        phi11_instance(1, Forall(2, parse("x1 < x2")), Var(2))


def test_arithmetic_axioms_are_sentences():
    assert len(PSI_AXIOMS) == 12
    assert len(Q_AXIOMS) == 9
    for f in list(PSI_AXIOMS.values()) + list(Q_AXIOMS.values()):
        assert is_sentence(f)


def test_named_formula_registry():
    assert set(NAMED_FORMULAS) == {
        "o0",
        "u27",
        "o6",
        "alpha2x",
        "gamma2p",
        "gamma0p",
        "gamma0",
        "gamma4p",
        "xi",
    }
    u27 = NAMED_FORMULAS["u27"]
    o0 = NAMED_FORMULAS["o0"]
    g0p = NAMED_FORMULAS["gamma0p"]
    assert u27 == Not(parse("1 < 1"))
    assert o0 == Iff(PSI_AXIOMS["psi7"], Not(Not(PSI_AXIOMS["psi1"])))
    assert g0p == Implies(
        Implies(PSI_AXIOMS["psi7"], PSI_AXIOMS["psi1"]), PSI_AXIOMS["psi12"]
    )
    assert NAMED_FORMULAS["gamma0"] == Implies(u27, g0p)
    assert NAMED_FORMULAS["gamma2p"] == Implies(o0, u27)
    assert NAMED_FORMULAS["gamma4p"] == Implies(g0p, o0)
    assert NAMED_FORMULAS["o6"] == Implies(
        o0, Implies(PSI_AXIOMS["psi7"], PSI_AXIOMS["psi1"])
    )
    assert NAMED_FORMULAS["xi"] == Implies(
        PSI_AXIOMS["psi7"], Implies(PSI_AXIOMS["psi1"], PSI_AXIOMS["psi12"])
    )
    assert NAMED_FORMULAS["alpha2x"] == Implies(PSI_AXIOMS["psi1"], PSI_AXIOMS["psi7"])


def test_parameterized_named_formulas():
    # psi2, then the three pinned axioms, conjoined left to right
    assert BETA0 == And(
        And(And(PSI_AXIOMS["psi2"], PSI_AXIOMS["psi1"]), PSI_AXIOMS["psi7"]),
        PSI_AXIOMS["psi12"],
    )
    assert BETA1 == Implies(
        PSI_AXIOMS["psi1"],
        Implies(PSI_AXIOMS["psi7"], Implies(PSI_AXIOMS["psi12"], BETA0)),
    )


PHI = Atom("<", (Const("0"), Var(1)))
BASE_ONE = parse("0 < 1")
STEP_ONE = Forall(1, Implies(PHI, Atom("<", (Const("0"), App("+", (Var(1), Const("1")))))))
INST_ONE = Implies(And(BASE_ONE, STEP_ONE), Forall(1, PHI))
BASE_ZERO = parse("0 < 0")
STEP_ZERO = Forall(1, Implies(PHI, Atom("<", (Const("0"), App("S", (Var(1),))))))
INST_ZERO = Implies(And(BASE_ZERO, STEP_ZERO), Forall(1, PHI))


def test_induction_recognizers_distinguish_flavors():
    assert recognize_induction(INST_ONE, INDUCTION_ONE) is not None
    assert recognize_induction(INST_ZERO, INDUCTION_ZERO) is not None
    # base and step of the wrong flavor are rejected
    assert recognize_induction(INST_ZERO, INDUCTION_ONE) is None
    assert recognize_induction(INST_ONE, INDUCTION_ZERO) is None


def test_axiom_set_names():
    assert AXIOM_SET_NAMES == (
        "L12",
        "L2r",
        "Xp",
        "Yp",
        "XpPrime",
        "YpPrime",
        "L11",
        "LT1",
        "PrefixedL2r",
        "NPsi3dot",
        "NPsi3ddot",
    )
    for name in AXIOM_SET_NAMES:
        assert axiom_set(name).name == name
    with pytest.raises(Exception):
        axiom_set("no-such-set")


def test_axiom_sets_are_built_once():
    assert AXIOM_SET_NAMES == tuple(AXIOM_SETS)
    for name in AXIOM_SET_NAMES:
        assert axiom_set(name) is axiom_set(name) is AXIOM_SETS[name]


def test_logic_sets():
    l12, l2r = axiom_set("L12"), axiom_set("L2r")
    inst = phi2_instance(parse("x1 < 1"))
    assert l12.contains(inst)
    assert l2r.contains(inst)
    closed = universal_closure(inst)
    assert not l12.contains(closed)  # bare instances only
    assert l2r.contains(closed)  # closures of instances as well
    assert not l12.contains(NAMED_FORMULAS["u27"])
    assert not l2r.contains(parse("(Ax1)(x1 = x1)"))


def test_arithmetic_sets():
    xp, xpp = axiom_set("Xp"), axiom_set("XpPrime")
    for f in PSI_AXIOMS.values():
        assert xp.contains(f)
        assert not xpp.contains(f)
    for f in Q_AXIOMS.values():
        assert xpp.contains(f)
        assert not xp.contains(f)
    yp, ypp = axiom_set("Yp"), axiom_set("YpPrime")
    assert yp.contains(INST_ONE) and not yp.contains(INST_ZERO)
    assert ypp.contains(INST_ZERO) and not ypp.contains(INST_ONE)


def test_guarded_sets():
    # the guarded target ranges over closures of open logic instances
    # (a closure that is not itself a bare instance)
    target = universal_closure(phi4_instance(parse("x1 = x1"), parse("x1 < 1")))
    plain = parse("0 = 0")

    l11 = axiom_set("L11")
    guarded = Implies(
        PSI_AXIOMS["psi1"],
        Implies(PSI_AXIOMS["psi7"], Implies(PSI_AXIOMS["psi12"], target)),
    )
    assert l11.contains(guarded)
    assert l11.contains(phi2_instance(plain))  # logic rides along
    assert not l11.contains(target)
    assert not l11.contains(
        Implies(
            PSI_AXIOMS["psi1"],
            Implies(PSI_AXIOMS["psi7"], Implies(PSI_AXIOMS["psi12"], plain)),
        )
    )

    lt1 = axiom_set("LT1")
    b0 = BETA0
    assert lt1.contains(Implies(b0, target))
    assert not lt1.contains(Implies(b0, plain))
    assert not lt1.contains(target)

    pre = axiom_set("PrefixedL2r")
    wrapped = Implies(
        PSI_AXIOMS["psi7"],
        Implies(
            NAMED_FORMULAS["o0"],
            Implies(NAMED_FORMULAS["u27"], Implies(Not(PSI_AXIOMS["psi1"]), target)),
        ),
    )
    assert pre.contains(wrapped)
    assert not pre.contains(target)


def test_prefixed_sets_generate_members():
    target = universal_closure(phi4_instance(parse("x1 = x1"), parse("x1 < 1")))
    bare = phi2_instance(parse("0 = 0"))
    psi1, psi7, psi12 = PSI_AXIOMS["psi1"], PSI_AXIOMS["psi7"], PSI_AXIOMS["psi12"]
    b0 = BETA0
    o0, u27 = NAMED_FORMULAS["o0"], NAMED_FORMULAS["u27"]
    cases = {
        # name: (member built on target, whether bare instances are members)
        "L11": (Implies(psi1, Implies(psi7, Implies(psi12, target))), True),
        "LT1": (Implies(b0, target), True),
        "PrefixedL2r": (
            Implies(psi7, Implies(o0, Implies(u27, Implies(Not(psi1), target)))),
            False,
        ),
    }
    for name, (member, with_logic) in cases.items():
        r = axiom_set(name)
        assert r.generate_for(target) == (member,), name
        assert r.contains(member), name
        assert r.generate_for(parse("0 = 0")) == (), name
        # omega may be a bare instance only where bare instances are not members
        assert (r.generate_for(bare) == ()) == with_logic, name
        assert r.contains(bare) == with_logic, name


def test_finite_cores():
    dot = axiom_set("NPsi3dot")
    ddot = axiom_set("NPsi3ddot")
    o0, g0 = NAMED_FORMULAS["o0"], NAMED_FORMULAS["gamma0"]
    assert Implies(o0, g0) in dot.finite_core
    assert NAMED_FORMULAS["gamma2p"] in dot.finite_core
    assert NAMED_FORMULAS["gamma4p"] in dot.finite_core
    assert len(dot.finite_core) == 3
    assert set(dot.finite_core) < set(ddot.finite_core)
    assert len(ddot.finite_core) == 4
    for f in dot.finite_core:
        assert dot.contains(f)


def test_random_schema_instances_round_trip():
    rng = random.Random(7)
    pool = [A, B, C, Not(A), Implies(A, B)]
    makers = [
        lambda r: phi1_instance(r.choice(pool), r.choice(pool), r.choice(pool)),
        lambda r: phi2_instance(r.choice(pool)),
        lambda r: phi5_instance(r.choice(pool), r.choice(pool)),
        lambda r: phi10_instance(r.choice(pool), r.choice(pool), r.choice(pool)),
    ]
    for _ in range(100):
        f = rng.choice(makers)(rng)
        assert is_logic_instance(f)
        assert any(
            match_schema(f, s) is not None for s in SCHEMATA.values()
        )


_SCHEMATA_AND_INDUCTION = (*SCHEMATA.values(), INDUCTION_ONE, INDUCTION_ZERO)
# a constructor argument's annotation -> values of that sort
_SORTS = {"Formula": formulas(), "int": st.sampled_from(VAR_IDS), "Term": terms()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_schema_reads_back_what_build_builds(data):
    s = data.draw(st.sampled_from(_SCHEMATA_AND_INDUCTION))
    params = inspect.signature(s.build).parameters.values()
    inst = s.build(*(data.draw(_SORTS[p.annotation]) for p in params))
    args = match_schema(inst, s, require_side_conditions=False)
    assert args is not None and s.build(*args) is inst
    satisfied = s.side is None or s.side(*args)
    assert (match_schema(inst, s) is not None) == satisfied


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_a_schema_match_rebuilds_its_candidate(f):
    for s in _SCHEMATA_AND_INDUCTION:
        args = match_schema(f, s, require_side_conditions=False)
        assert args is None or s.build(*args) is f


def test_recognizer_caches_stay_bounded():
    # more distinct formulas than a cache keeps: the oldest are dropped
    def instance(k):
        x = Var(k)
        return phi4_instance(Atom("=", (x, x)), Atom("<", (x, x)))

    l12 = (axiom_set("L12"),)
    caches = (
        (is_logic_instance, is_logic_instance),
        (_is_closure_of_logic_instance, _is_closure_of_logic_instance),
        (semantics._skeleton_atoms, semantics._skeleton_atoms),
        (audit._derivable_outright, lambda f: audit._derivable_outright(f, l12)),
    )
    for cached, call in caches:
        assert cached.cache_info().maxsize == CACHE_SIZE
        oldest = instance(1)
        assert call(oldest)
        for k in range(2, CACHE_SIZE + 100):
            assert call(instance(k))
        assert cached.cache_info().currsize <= CACHE_SIZE
        misses = cached.cache_info().misses
        assert call(oldest)
        assert cached.cache_info().misses == misses + 1, cached
