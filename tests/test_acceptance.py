"""End-to-end acceptance criteria.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single ``PRIMARY <name>: PASS`` line (written past the capture so
it shows up in live pytest output).  A failed criterion fails its test.
"""

import random
import time

import pytest

from proofbench.audit import recheck_report, run_audit, write_report
from proofbench.engine import Budget, bounded_closure, prove
from proofbench.proofs import check_proof, parse_proof_script, render_proof_script
from proofbench.schemata import (
    NAMED_FORMULAS,
    PSI_AXIOMS,
    Q_AXIOMS,
    SCHEMATA,
    axiom_set,
    match_schema,
)
from proofbench.semantics import ThreeValued, eval_arith, is_tautology
from proofbench.scripts import builtin_claims, builtin_scripts
from proofbench.syntax import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    free_for,
    free_vars,
)
from proofbench.transforms import (
    deduction_transform,
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

from strategies import (
    CLOSED_ATOMS,
    QF_POOL,
    brute_eval,
    exhaustive_formulas,
    first_occurrence_atoms,
    random_proof,
)

L12 = (axiom_set("L12"),)


def announce(capsys, name: str, t0: float) -> None:
    line = f"PRIMARY {name}: PASS ({time.perf_counter() - t0:.2f}s)"
    with capsys.disabled():
        print(line, flush=True)


# ---------------------------------------------------------------------------
# 1. tautology oracle vs independent brute-force enumerator


def brute_vectors(levels, n_atoms):
    """Truth-table bitmasks per formula, built bottom-up independent of the
    oracle (only the formula constructors are shared).  Keyed by object
    identity: each layer reuses the lower layers' objects as subtrees."""
    mask = (1 << (1 << n_atoms)) - 1
    vec = {}
    for k, atom in enumerate(levels[0]):
        bits = 0
        for row in range(1 << n_atoms):
            if row >> k & 1:
                bits |= 1 << row
        vec[id(atom)] = bits
    for layer in levels[1:]:
        for f in layer:
            if isinstance(f, Not):
                vec[id(f)] = ~vec[id(f.body)] & mask
            elif isinstance(f, And):
                vec[id(f)] = vec[id(f.left)] & vec[id(f.right)]
            elif isinstance(f, Or):
                vec[id(f)] = vec[id(f.left)] | vec[id(f.right)]
            elif isinstance(f, Implies):
                vec[id(f)] = (~vec[id(f.left)] | vec[id(f.right)]) & mask
            elif isinstance(f, Iff):
                vec[id(f)] = ~(vec[id(f.left)] ^ vec[id(f.right)]) & mask
    return vec, mask


def test_primary_tautology_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    # exhaustive to three connectives over three atoms, and to four
    # connectives over two atoms
    for atoms, depth in ((CLOSED_ATOMS, 3), (CLOSED_ATOMS[:2], 4)):
        levels = exhaustive_formulas(atoms, depth)
        vec, mask = brute_vectors(levels, len(atoms))
        disagreements = 0
        for layer in levels:
            for f in layer:
                if is_tautology(f) != (vec[id(f)] == mask):
                    disagreements += 1
        assert disagreements == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    announce(capsys, "tautology-oracle-equivalence", t0)


# ---------------------------------------------------------------------------
# 2. schema soundness


def rand_term(rng, depth=0):
    if depth > 1 or rng.random() < 0.5:
        return rng.choice((Var(1), Var(2), Var(3), Const("0"), Const("1")))
    op = rng.choice(("S", "+", "*"))
    if op == "S":
        from proofbench.syntax import App

        return App("S", (rand_term(rng, depth + 1),))
    from proofbench.syntax import App

    return App(op, (rand_term(rng, depth + 1), rand_term(rng, depth + 1)))


def rand_formula(rng, depth=0):
    if depth > 2 or rng.random() < 0.35:
        return Atom(rng.choice(("=", "<")), (rand_term(rng), rand_term(rng)))
    kind = rng.choice(("not", "and", "or", "imp", "iff", "all", "ex"))
    if kind == "not":
        return Not(rand_formula(rng, depth + 1))
    if kind == "all":
        return Forall(rng.choice((1, 2, 3)), rand_formula(rng, depth + 1))
    if kind == "ex":
        return Exists(rng.choice((1, 2, 3)), rand_formula(rng, depth + 1))
    ctor = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[kind]
    return ctor(rand_formula(rng, depth + 1), rand_formula(rng, depth + 1))


PROPOSITIONAL_MAKERS = (
    lambda r: phi1_instance(rand_formula(r), rand_formula(r), rand_formula(r)),
    lambda r: phi2_instance(rand_formula(r)),
    lambda r: phi3_instance(rand_formula(r), rand_formula(r)),
    lambda r: phi4_instance(rand_formula(r), rand_formula(r)),
    lambda r: phi5_instance(rand_formula(r), rand_formula(r)),
    lambda r: phi6_instance(rand_formula(r), rand_formula(r)),
    lambda r: phi7_instance(rand_formula(r), rand_formula(r)),
    lambda r: phi8_instance(rand_formula(r), rand_formula(r)),
    lambda r: phi9_instance(rand_formula(r), rand_formula(r)),
    lambda r: phi10_instance(rand_formula(r), rand_formula(r), rand_formula(r)),
)


def test_primary_schema_soundness(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    for k in range(1000):
        inst = PROPOSITIONAL_MAKERS[k % 10](rng)
        assert is_tautology(inst), f"instance {k}"

    made = 0
    while made < 100:  # phi11
        phi = rand_formula(rng)
        x = rng.choice((1, 2, 3))
        t = rand_term(rng)
        if not free_for(x, t, phi):
            continue
        inst = phi11_instance(x, phi, t)
        assert match_schema(inst, SCHEMATA["phi11"]) is not None
        made += 1
    made = 0
    while made < 100:  # phi12
        phi = rand_formula(rng)
        psi = rand_formula(rng)
        candidates = [x for x in (1, 2, 3) if x not in free_vars(phi)]
        if not candidates:
            continue
        inst = phi12_instance(rng.choice(candidates), phi, psi)
        assert match_schema(inst, SCHEMATA["phi12"]) is not None
        made += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    announce(capsys, "schema-soundness", t0)


# ---------------------------------------------------------------------------
# 3. deduction round-trip


def test_primary_deduction_round_trip(capsys):
    t0 = time.perf_counter()
    rng = random.Random(31337)
    for k in range(500):
        p = random_proof(rng, max_steps=20, max_hyps=3)
        assert len(p.steps) <= 20 and len(p.hypotheses) <= 3
        name = rng.choice([n for n, _ in p.hypotheses])
        alpha = dict(p.hypotheses)[name]
        out = deduction_transform(p, name, L12)
        assert check_proof(out, L12).ok, f"case {k}"
        assert out.steps[-1].formula == Implies(alpha, p.steps[-1].formula)
        assert len(out.steps) <= 3 * len(p.steps) + 8, f"case {k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    announce(capsys, "deduction-round-trip", t0)


# ---------------------------------------------------------------------------
# 4. closure laws


def test_primary_closure_laws(capsys):
    t0 = time.perf_counter()
    xi = NAMED_FORMULAS["xi"]
    not_d00 = Not(Implies(PSI_AXIOMS["psi7"], PSI_AXIOMS["psi1"]))
    corpus = [
        (),
        (("h1", xi),),
        (("h1", not_d00),),
        (("h1", NAMED_FORMULAS["gamma2p"]), ("h2", NAMED_FORMULAS["o0"])),
    ]
    for hyps in corpus:
        small = bounded_closure(hyps, L12, Budget(max_steps=80))
        large = bounded_closure(hyps, L12, Budget(max_steps=320))
        got_small, got_large = set(small.formulas), set(large.formulas)
        # (a1) hypotheses are contained
        assert {f for _, f in hyps} <= got_small
        # budget monotonicity
        assert got_small <= got_large
        # (a2) at doubled budget, a superset of hypotheses derives a superset
        richer = tuple(hyps) + (("extra", PSI_AXIOMS["psi2"]),)
        larger = bounded_closure(richer, L12, Budget(max_steps=160))
        assert got_small <= set(larger.formulas)
        # (a4) re-closing the output within the budget stays inside one
        # larger-budget run
        reclosed = bounded_closure(
            tuple((f"g{i}", f) for i, f in enumerate(small.formulas, 1)),
            L12,
            Budget(max_steps=80),
        )
        bigger = bounded_closure(hyps, L12, Budget(max_steps=640))
        assert set(reclosed.formulas) <= set(bigger.formulas)
        # (a5) + certificate soundness: every certificate checks and cites
        # finitely many (indeed only known) hypotheses
        names = {n for n, _ in hyps}
        for f in small.formulas:
            proof = small.proof_of(f)
            assert check_proof(proof, L12).ok
            assert small.hyp_deps(f) <= names
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    announce(capsys, "closure-laws", t0)


# ---------------------------------------------------------------------------
# 5. propositional extraction replay


@pytest.mark.parametrize(
    "goal_name,goal",
    [
        ("antecedent", PSI_AXIOMS["psi7"]),
        ("negated-consequent", Not(PSI_AXIOMS["psi1"])),
    ],
)
def test_primary_extraction_replay(goal_name, goal, capsys):
    t0 = time.perf_counter()
    hyps = (("h1", Not(Implies(PSI_AXIOMS["psi7"], PSI_AXIOMS["psi1"]))),)
    outcome = prove(goal, hyps, L12, Budget(max_steps=10**6))
    assert outcome.proof is not None
    assert outcome.proof.steps[-1].formula == goal
    replayed = parse_proof_script(render_proof_script(outcome.proof))
    assert check_proof(replayed, L12, strict=True).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    announce(capsys, f"extraction-replay-{goal_name}", t0)


# ---------------------------------------------------------------------------
# 6. audit completeness


def test_primary_audit_completeness(tmp_path, capsys):
    t0 = time.perf_counter()
    for sid in builtin_scripts():
        claims = builtin_claims(sid)
        report = run_audit(sid, claims, Budget(max_steps=10**6))
        # every claim got exactly one verdict
        assert [v.claim.claim_id for v in report.verdicts] == [
            c.claim_id for c in claims
        ]
        for v in report.verdicts:
            assert v.status in ("VERIFIED", "REFUTED", "UNRESOLVED")
        directory = tmp_path / sid
        write_report(report, directory)
        # cold re-check of every serialized certificate
        assert recheck_report(directory) == [], sid
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"{elapsed:.1f}s"
    announce(capsys, "audit-completeness", t0)


# ---------------------------------------------------------------------------
# 7. soundness bridge


def test_primary_soundness_bridge(capsys):
    t0 = time.perf_counter()
    rng = random.Random(777)
    violations = 0
    for _ in range(300):
        p = random_proof(rng, max_steps=15, pool=QF_POOL)
        assert check_proof(p, L12).ok
        hyp_formulas = [f for _, f in p.hypotheses]
        step_formulas = [s.formula for s in p.steps]
        atoms = first_occurrence_atoms(hyp_formulas + step_formulas)
        for bits in range(1 << len(atoms)):
            valuation = {a: bool(bits >> k & 1) for k, a in enumerate(atoms)}
            if not all(brute_eval(f, valuation) for f in hyp_formulas):
                continue
            if not all(brute_eval(f, valuation) for f in step_formulas):
                violations += 1
    assert violations == 0
    announce(capsys, "soundness-bridge", t0)


# ---------------------------------------------------------------------------
# 8. arithmetic axiom sanity


def test_primary_arithmetic_axiom_sanity(capsys):
    t0 = time.perf_counter()
    for name, f in list(PSI_AXIOMS.items()) + list(Q_AXIOMS.items()):
        verdict = eval_arith(f, 50)
        assert verdict in (ThreeValued.TRUE, ThreeValued.UNKNOWN), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    announce(capsys, "arithmetic-axiom-sanity", t0)
