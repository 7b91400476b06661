"""Audit claims, verdict classification, report round trips, script grammar."""

import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofbench import audit, engine, proofs, semantics
from proofbench.audit import (
    CLAIM_SHAPES,
    AuditClaim,
    AuditError,
    AuditReport,
    derivable_outright,
    load_script,
    recheck_report,
    refutation_valuation,
    render_report_text,
    run_audit,
    run_claim,
    write_report,
)
from proofbench.cli import main
from proofbench.engine import Budget, prove
from proofbench.parser import parse, render
from proofbench.proofs import (Ax, Gen, Hyp, Mp, Proof, ProofStep, check_proof, parse_proof_script,
                               render_proof_script)
from proofbench.schemata import NAMED_FORMULAS, PSI_AXIOMS, axiom_set
from proofbench.scripts import builtin_claims, builtin_scripts
from proofbench.syntax import And, Implies, Not, Or, universal_closure

from strategies import (
    antecedent_chain,
    brute_eval,
    disjunction_tower,
    doubling_certificate,
    first_occurrence_atoms,
    full_text_script,
    spied,
    unreachable_steps,
)

CLAIMS_DIR = Path(__file__).parents[1] / "src" / "proofbench" / "claims"

PSI1 = PSI_AXIOMS["psi1"]
PSI7 = PSI_AXIOMS["psi7"]

EXPECTED_COUNTS = {
    # script id: (verified, refuted, unresolved, total)
    "lemma-4.1": (15, 0, 3, 18),
    "lemma-4.2": (14, 5, 0, 19),
    "lemma-4.3": (16, 0, 3, 19),
    "lemma-4.4": (26, 5, 0, 31),
    "theorem-4.1": (0, 5, 0, 5),
    "corollary-4.3": (2, 2, 0, 4),
    "corollary-4.4": (0, 1, 0, 1),
    "theorem-5.1": (0, 5, 0, 5),
    "theorem-5.2": (10, 1, 0, 11),
    "axiom-sanity": (24, 0, 0, 24),
}

EXPECTED_STATUSES = {
    "lemma-4.1": {
        "s16-m02": "UNRESOLVED",  # the conditional the biconditional split leaves open
        "s16-m03": "UNRESOLVED",
        "s16-m04": "VERIFIED",
        "s17-u27-target": "VERIFIED",
        "s17-collapse": "UNRESOLVED",
    },
    "lemma-4.2": {
        "s15-m05": "REFUTED",
        "s15-m06": "REFUTED",
        "s17-o6": "VERIFIED",
        "s19-m03": "REFUTED",
        "s19-m04": "REFUTED",
        "s21-not-psi7-base": "REFUTED",
    },
    "lemma-4.3": {
        "s15-m02": "UNRESOLVED",
        "s15-m04": "UNRESOLVED",
        "s16-u27-target": "VERIFIED",
        "s16-collapse": "UNRESOLVED",
    },
    "theorem-4.1": {
        "s1-consistency-hypothesis": "REFUTED",
        "s2-u27-target": "REFUTED",
        "s2-collapse": "REFUTED",
        "s4-not-alpha-imp-psi7": "REFUTED",
        "s6-alpha-both": "REFUTED",
    },
    "corollary-4.3": {
        "beta0-member": "VERIFIED",
        "conjunct-psi2": "VERIFIED",
        "s-final-u27-target": "REFUTED",
        "s-final-collapse": "REFUTED",
    },
    "theorem-5.2": {
        "s1-consistency-hypothesis": "REFUTED",
        "q10-induction-sample": "VERIFIED",
    },
}


@pytest.fixture(scope="module")
def reports():
    return {
        sid: run_audit(sid, builtin_claims(sid), Budget())
        for sid in builtin_scripts()
    }


def test_builtin_script_ids():
    assert builtin_scripts() == (
        "lemma-4.1",
        "lemma-4.2",
        "lemma-4.3",
        "lemma-4.4",
        "theorem-4.1",
        "corollary-4.3",
        "corollary-4.4",
        "theorem-5.1",
        "theorem-5.2",
        "axiom-sanity",
    )
    with pytest.raises(ValueError):
        builtin_claims("no-such-script")


def test_every_claim_resolves():
    for sid in builtin_scripts():
        claims = builtin_claims(sid)
        assert claims
        ids = [c.claim_id for c in claims]
        assert len(ids) == len(set(ids))
        for c in claims:
            assert c.shape in CLAIM_SHAPES
            for name in c.axiom_names:
                assert axiom_set(name) is not None


#: sha256 of each built-in script's claim list: one line per claim with its
#: id, shape, axiom names, ``name=render(formula)`` hypotheses, rendered goal,
#: locus and eval bound.  Report trees leave out the contexts of UNRESOLVED
#: claims; this table pins every claim whatever its verdict.
CLAIM_LIST_SHA256 = {
    "lemma-4.1": "0a9ed73b293c9b43563e79cddade871fbb6c4860d612283c340c995695b53c91",
    "lemma-4.2": "795aad418ce4163d369546312a24d25df2b8761ae61716b74c38be6179bc5f17",
    "lemma-4.3": "0ef1104db6f6e9bf6b94ab24e0293a2cb91923e46f2d841c68b7bb62920f34ae",
    "lemma-4.4": "054039f0e97e7fc543dee6bcfddaf4bdd5c2fad32c55a1f204c5198af84a282c",
    "theorem-4.1": "530abaaf858f72bcf854d1ac1abb66cab9e68c5180b1719f057deafe47a31c1f",
    "corollary-4.3": "3e71eb0e60649c246d43f2fc603e356d3c56266cfdb928c383c87774e1df215b",
    "corollary-4.4": "051e804c6515940cbd13b614733f72295b993435a33462cb8e8d769dd9ee1041",
    "theorem-5.1": "bf1e355dc647c3bbb5aa81b95bc55d2a3c73e7ecfc932705af9e79daaed967a2",
    "theorem-5.2": "d24c1cf38e4e77b28e2da9cc351920f829e3ef12556344daf769084b05791a8e",
    "axiom-sanity": "2f4fd37cf4ade6edf8bed8400cf5a53031756245f1e4f45440f9129f48b7d081",
}


def test_builtin_claim_lists_are_pinned():
    got = {}
    for sid in builtin_scripts():
        h = hashlib.sha256()
        for c in builtin_claims(sid):
            goal = "-" if c.goal is None else render(c.goal)
            hyps = "".join(f"\t{n}={render(f)}" for n, f in c.hypotheses)
            h.update(
                f"{c.claim_id}\t{c.shape}\t{','.join(c.axiom_names)}{hyps}"
                f"\t{goal}\t{c.locus}\t{c.eval_bound}\n".encode()
            )
        got[sid] = h.hexdigest()
    assert got == CLAIM_LIST_SHA256


def test_verdict_distribution_frozen(reports):
    for sid, (v, r, u, n) in EXPECTED_COUNTS.items():
        rep = reports[sid]
        assert len(rep.verdicts) == n, sid
        counts = rep.counts
        got = (counts["VERIFIED"], counts["REFUTED"], counts["UNRESOLVED"])
        assert got == (v, r, u), f"{sid}: {got}"


def test_individual_statuses_frozen(reports):
    for sid, expected in EXPECTED_STATUSES.items():
        by_id = {v.claim.claim_id: v.status for v in reports[sid].verdicts}
        for cid, status in expected.items():
            assert by_id[cid] == status, f"{sid}/{cid}"


def test_every_claim_has_exactly_one_verdict(reports):
    for sid, rep in reports.items():
        claim_ids = [c.claim_id for c in builtin_claims(sid)]
        verdict_ids = [v.claim.claim_id for v in rep.verdicts]
        assert verdict_ids == claim_ids


def test_verified_certificates_check_strictly(reports):
    for rep in reports.values():
        for v in rep.verdicts:
            if v.status != "VERIFIED" or not v.proofs:
                continue
            recognizers = tuple(axiom_set(n) for n in v.claim.axiom_names)
            allowed = {name for name, _ in v.claim.hypotheses}
            for proof in v.proofs:
                assert check_proof(proof, recognizers, strict=True).ok
                assert {n for n, _ in proof.hypotheses} <= allowed
            if v.claim.shape == "membership":
                assert v.proofs[0].steps[-1].formula == v.claim.goal


def test_refuting_valuations_falsify_the_entailment(reports):
    for rep in reports.values():
        for v in rep.verdicts:
            if v.status != "REFUTED":
                continue
            if v.valuation is None:
                assert v.claim.shape == "sanity"
                continue
            assignment = dict(v.valuation)
            hyps = [f for _, f in v.claim.hypotheses]
            goals = [] if v.claim.goal is None else [v.claim.goal]
            for atom in first_occurrence_atoms(hyps + goals):
                assert atom in assignment, f"{v.claim.claim_id}: missing {atom!r}"
            for f in hyps:
                assert brute_eval(f, assignment) is True
            for f in goals:
                assert brute_eval(f, assignment) is False


@pytest.mark.xfail(
    strict=True,
    reason="the sweep reads (Ax)phi as an atom unrelated to phi: REFUTED is not "
    "yet sound on first-order contexts",
)
@pytest.mark.parametrize(
    "hyp, goal",
    [
        ("1 = 1", "(Ax1)(x1 = x1 -> 1 = 1)"),  # hyp, phi4, mp, gen
        (None, "(Ax1)(x1 = x1 -> x1 = x1)"),  # identity, then gen
        ("(Ax1)(x1 = x1)", "0 = 0"),  # hyp, the phi11 instance, mp
    ],
    ids=["gen-over-hyp", "gen-over-identity", "instance-of-hyp"],
)
def test_derivable_first_order_claims_are_not_refuted(hyp, goal):
    hyps = () if hyp is None else (("h", parse(hyp)),)
    claim = AuditClaim("probe", "membership", ("L12",), hyps, parse(goal))
    assert run_claim(claim, Budget()).status != "REFUTED"


def test_hypothesis_members_never_refuted():
    # guard: even in an absurd context, a goal that IS a hypothesis holds
    claim = AuditClaim(
        "guard",
        "membership",
        ("L12",),
        (("p", PSI1), ("n", Not(PSI1))),
        PSI1,
        "hypothesis member in a contradictory context",
    )
    rep = run_audit("guard-script", [claim], Budget(max_steps=2000))
    assert rep.verdicts[0].status == "VERIFIED"


def test_membership_claim_builds_its_pool_once(monkeypatch):
    # the context's hypotheses are walked once and each formula at most once:
    # refutation premises and the first proof-search closure share one pool,
    # and the next claim over the context walks only what its own goal brings
    hyps = (("h1", parse("(1 < 1) -> (1 = 1)")), ("h2", parse("1 < 1")))
    goal, other = parse("1 = 1"), parse("1 = 1 /\\ 1 < 1")
    claim = AuditClaim("mp", "membership", ("L12",), hyps, goal)
    base = engine._axiom_pool((axiom_set("L12"),)).members  # built before counting
    walks = []  # (formulas, found) of each walk
    real = engine.assemble_pool

    def walk(formulas, axioms, pool):
        found = real(formulas, axioms, pool)
        walks.append((tuple(formulas), found))
        return found

    monkeypatch.setattr(engine, "assemble_pool", walk)
    engine.pool_for.cache_clear()  # recognizers are shared: an earlier claim may hold this pool
    engine._hypothesis_pool.cache_clear()
    verdict = run_claim(claim, Budget(max_steps=2000))
    assert verdict.status == "VERIFIED"
    hyp_formulas = tuple(f for _, f in hyps)
    # the goal is a hypothesis's subformula: only the hypotheses' walk finds any
    assert walks == [
        (hyp_formulas, {f: 0 for f in (*hyp_formulas, goal) if f not in base}),
        ((goal,), {}),
        ((*hyp_formulas, goal), {}),
    ]
    run_claim(AuditClaim("and", "membership", ("L12",), hyps, other), Budget(max_steps=2000))
    assert walks[3] == ((other,), {other: 0})
    assert not any(found for _, found in walks[4:])


def test_each_hook_sees_each_formula_once_per_claim(monkeypatch):
    # lemma-4.4's prefixed claims stack the L11 and PrefixedL2r hooks; over
    # one claim's pools, widened for the goal and each backward context, no
    # hook is called twice with one formula
    claim = next(c for c in builtin_claims("lemma-4.4") if c.claim_id == "s15-m03")
    assert claim.axiom_names == ("L11", "PrefixedL2r", "NPsi3ddot")
    seen = []
    spies = {n: spied(axiom_set(n), seen) for n in claim.axiom_names}
    want = run_claim(claim)
    monkeypatch.setattr(audit, "axiom_set", spies.__getitem__)
    got = run_claim(claim)
    assert got.status == want.status == "VERIFIED" and got.proofs == want.proofs
    assert seen and {name for name, _ in seen} == {"L11", "PrefixedL2r"}
    assert len(seen) == len(set(seen))


#: The memory four rounds of judging may retain past two: under 75 bytes for
#: each claim judged in rounds 3 and 4, so one object kept per claim shows.
RETAINED_GROWTH_BYTES = 16 * 1024


def test_judging_the_chain_claims_again_retains_no_more_memory():
    # the caches fill in the first round; later rounds must keep nothing new
    claims = [c for s in builtin_scripts() if s != "axiom-sanity" for c in builtin_claims(s)]
    assert len(claims) == 113
    retained = []
    tracemalloc.start()
    try:
        for _ in range(4):
            for claim in claims:
                run_claim(claim)
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[3] - retained[1] <= RETAINED_GROWTH_BYTES, retained


def test_theorem_51_report_states_counts_only(reports):
    text = render_report_text(reports["theorem-5.1"])
    assert "theorem proved" not in text.lower()
    assert "proved" not in text.lower()
    assert text.rstrip().endswith("totals: verified=0 refuted=5 unresolved=0")


def _tree_digest(root: Path, view=bytes) -> dict[str, str]:
    """Each file's digest, taken of ``view`` of its bytes."""
    return {
        str(p.relative_to(root)): hashlib.sha256(view(p.read_bytes())).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _full_text(data: bytes) -> bytes:
    """A certificate's goal line and its proof in the full-text form; any
    other file as it is."""
    goal, _, script = data.decode().partition("\n")
    if not goal.startswith("# goal "):
        return data
    return f"{goal}\n{full_text_script(parse_proof_script(script))}".encode()


def test_report_round_trip_and_determinism(tmp_path, reports):
    for sid in ("lemma-4.2", "theorem-5.1", "axiom-sanity"):
        d1 = tmp_path / sid / "run1"
        write_report(reports[sid], d1)
        assert recheck_report(d1) == []
        rep2 = run_audit(sid, builtin_claims(sid), Budget())
        d2 = tmp_path / sid / "run2"
        write_report(rep2, d2)
        assert _tree_digest(d1) == _tree_digest(d2)


#: sha256 of each built-in report tree: its files' paths and digests, one
#: ``path<TAB>digest`` line each, with each certificate taken in the
#: full-text form.  Report bytes change only in a change that names the
#: difference and recomputes this table.
REPORT_TREE_SHA256 = {
    "lemma-4.1": "4bbe565c4c5ac7e8c6dde644c45e2dca9f57cd0026a46bd8c51b89b8b1938517",
    "lemma-4.2": "d2d0c2a4e4e1f881c98a29fcf4ff5927c249ef6ad15d90ca66025f9398ab05bb",
    "lemma-4.3": "60bef52e9aa49cab546d11242397c576be7cf9a9edd01500afeed47fb127c155",
    "lemma-4.4": "acd5e81806b5bfb68c0cfafe92ff611116ba2d3bcf1ef4e46ac81cb61a57bdd9",
    "theorem-4.1": "650705fbd24e4c00372642d77dc09562fcccd2ee8d34ed78752ce12bf84cf67b",
    "corollary-4.3": "4296e0d8c4a7e830537cf3fce6072ca7970994e2a2d7affdd6b6af0ca7b78e57",
    "corollary-4.4": "1ca43cf7cbd83ca19e94d4ce7ad3f8931da6ea2765356bc24df76c3731f7aa91",
    "theorem-5.1": "abd6f10a03b4fae08496dc3abc61d0d910ae5c79124f30b090790db3e813dc0b",
    "theorem-5.2": "bc1c42bca4c6a6e85ece5957c404aaaf84c6c1b7b977ca1bdd15ea3fbde466a4",
    "axiom-sanity": "e93a3ec1ee1f3c10111a527970caf13c692fcbc469d172257043dcfc3ad1dc8c",
}


#: Total steps of each built-in report's proof certificates, 929 in all.
#: A change to proof sizes shows here as numbers.
REPORT_PROOF_STEPS = {
    "lemma-4.1": 160,
    "lemma-4.2": 135,
    "lemma-4.3": 219,
    "lemma-4.4": 385,
    "theorem-4.1": 0,
    "corollary-4.3": 20,
    "corollary-4.4": 0,
    "theorem-5.1": 0,
    "theorem-5.2": 10,
    "axiom-sanity": 0,
}


def test_report_certificates_are_pinned_and_hold_only_reachable_steps(reports):
    got = {}
    for sid, report in reports.items():
        proofs = [p for v in report.verdicts for p in v.proofs]
        for p in proofs:
            assert unreachable_steps(p) == [], sid
        got[sid] = sum(len(p.steps) for p in proofs)
    assert got == REPORT_PROOF_STEPS


#: REPORT_TREE_SHA256 of the bytes as written, with let lines.
REPORT_TREE_LET_SHA256 = {
    "lemma-4.1": "ad46a49f21bf0bc613fcd33a9bfd540777ede5a25d21c55e5523c2719f280f17",
    "lemma-4.2": "eadc253149f19453397cf06bca70a30107318f17d8ffd8b9e9aa7ada031d6104",
    "lemma-4.3": "dbb6bc4bfe49f7d5b914556a80afce2e1ba303f128da05c49a2a365a1dd696a9",
    "lemma-4.4": "799932bddc0f61b60209018ee9db127ba58a619ac2b0d5f981fcd045b63ba156",
    "theorem-4.1": "650705fbd24e4c00372642d77dc09562fcccd2ee8d34ed78752ce12bf84cf67b",
    "corollary-4.3": "5d5f44f403d4ccbcf73b37a64d0df3a56c3347e9b08f576e1c0f02b8d5b4fba5",
    "corollary-4.4": "1ca43cf7cbd83ca19e94d4ce7ad3f8931da6ea2765356bc24df76c3731f7aa91",
    "theorem-5.1": "abd6f10a03b4fae08496dc3abc61d0d910ae5c79124f30b090790db3e813dc0b",
    "theorem-5.2": "73cd7c88a4ae21a22c8bb37ac0c83987c7a1d1c82d3cead0c8a8df678943ddcd",
    "axiom-sanity": "e93a3ec1ee1f3c10111a527970caf13c692fcbc469d172257043dcfc3ad1dc8c",
}


def test_report_trees_are_pinned(tmp_path, reports):
    got, got_let = {}, {}
    for sid, report in reports.items():
        root = write_report(report, tmp_path / sid)
        for table, view in ((got, _full_text), (got_let, bytes)):
            digests = _tree_digest(root, view)
            lines = "".join(f"{rel}\t{digest}\n" for rel, digest in digests.items())
            table[sid] = hashlib.sha256(lines.encode()).hexdigest()
    assert got == REPORT_TREE_SHA256  # the proofs are what they were
    assert got_let == REPORT_TREE_LET_SHA256


def test_recheck_flags_bad_step(tmp_path, reports):
    d = tmp_path / "tampered-step"
    write_report(reports["lemma-4.2"], d)
    victim = d / "details" / "s15-m10.proof"
    text = victim.read_text()
    cited = re.search(r"; mp (\d+) (\d+)$", text, re.M)
    assert cited is not None
    i, j = cited.groups()
    assert i != j
    victim.write_text(text[: cited.start()] + f"; mp {j} {i}" + text[cited.end() :])
    assert recheck_report(d)


def test_recheck_flags_conclusion_mismatch(tmp_path, reports):
    d = tmp_path / "tampered-goal"
    write_report(reports["lemma-4.2"], d)
    victim = d / "details" / "s15-m01.proof"
    lines = victim.read_text().splitlines()
    assert lines[0].startswith("# goal ")
    lines[0] = "# goal ~(1 < 1)"
    victim.write_text("\n".join(lines) + "\n")
    assert recheck_report(d)


def test_recheck_flags_deep_goal_line(tmp_path, reports):
    d = tmp_path / "deep-goal"
    write_report(reports["lemma-4.2"], d)
    victim = d / "details" / "s15-m01.proof"
    lines = victim.read_text().splitlines()
    lines[0] = "# goal " + "~" * 3000 + "(1 = 1)"
    victim.write_text("\n".join(lines) + "\n")
    problems = recheck_report(d)
    assert any("s15-m01.proof: bad goal line" in p for p in problems), problems


def test_recheck_flags_a_certificate_without_its_goal_line(tmp_path, reports):
    # cut to its first step, the certificate proves another formula: only the
    # goal line says which one it must prove
    d = tmp_path / "no-goal"
    write_report(reports["lemma-4.2"], d)
    victim = d / "details" / "s15-m01.proof"
    lines = victim.read_text().splitlines()
    assert lines[0].startswith("# goal ")
    first = next(i for i, line in enumerate(lines) if line.startswith("1. "))
    victim.write_text("\n".join(lines[1 : first + 1]) + "\n")
    assert recheck_report(d) == ["s15-m01.proof: missing goal line"]


@pytest.mark.parametrize("goal, problem", [
    ("0 = 0", "conclusion differs from recorded goal"),
    ("0 = 0 /\\", "bad goal line: expected a term or a formula, got end of input (at position 8)"),
], ids=["differs", "bad"])
def test_recheck_does_not_render_a_conclusion_longer_than_its_goal_line(
    tmp_path, reports, goal, problem
):
    # under 1 KB, the certificate concludes a formula whose text would have
    # 11 * 2**40 - 6 characters: its length is measured, the text never built
    d = tmp_path / "doubling"
    write_report(reports["lemma-4.2"], d)
    text = f"# goal {goal}\n" + doubling_certificate(40)
    assert len(text) < 1024
    (d / "details" / "x.proof").write_text(text)
    assert recheck_report(d) == [f"x.proof: {problem}"]


#: The wall time and the traced memory peak within which a claim whose goal
#: is too wide to render is written and rechecked: its text is never built.
#: Measured on one x86-64 core (py3.11.7): under 0.01 s and 40 KB for each.
WIDE_REPORT_SECONDS, WIDE_REPORT_PEAK_BYTES = 2.0, 1024 * 1024


def test_a_goal_too_wide_to_render_is_reported_by_its_width(tmp_path):
    # X(k + 1) = X(k) /\ X(k): the pool refuses X(22), 46 MB of text, so the
    # claim is UNRESOLVED and report.txt names the goal's width; X(40) runs
    # only once X(22) kept within the ceilings, as its text would not fit
    x, depth = parse("0 = 0"), 0
    for target in (22, 40):
        while depth < target:
            x, depth = And(x, x), depth + 1
        verdict = run_claim(AuditClaim(f"x{depth}", "membership", ("L12",), (), x))
        assert verdict.status == "UNRESOLVED" and "MAX_MEMBER_WIDTH" in verdict.detail
        tracemalloc.start()
        start = time.perf_counter()
        try:
            root = write_report(AuditReport("wide", (verdict,), Budget()), tmp_path / str(depth))
            problems = recheck_report(root)
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < WIDE_REPORT_SECONDS and peak < WIDE_REPORT_PEAK_BYTES, (elapsed, peak)
        assert problems == []
        width = 11 * 2**depth - 6
        assert f"x{depth}\tUNRESOLVED\tsteps=0\ta goal {width} characters long\n" in (
            root / "report.txt"
        ).read_text()
        assert str(width) in (root / "details" / f"x{depth}.budget").read_text()


@pytest.mark.parametrize("head, problems", [
    ("# goal 0 = \n", ["bad goal line: expected a term or a formula, got end of input (at position 4)"]),
    ("# goal 0 = 0\n", []),
    ("", []),
], ids=["bad", "good", "missing"])
def test_recheck_reads_the_goal_line_of_a_certificate_that_fails(tmp_path, reports, head, problems):
    # a goal line that does not parse is reported beside the failure; a
    # missing one is not, since the failure already reports the certificate
    d = tmp_path / "failing"
    write_report(reports["lemma-4.2"], d)
    (d / "details" / "x.proof").write_text(head + "1. 1 < 0 ; axiom L12\n")
    assert recheck_report(d) == [
        "x.proof: fails re-check at step 1: not-axiom", *[f"x.proof: {p}" for p in problems]
    ]


@pytest.fixture
def contradiction_report(tmp_path):
    hyps = (("h1", parse("0 = 0")), ("h2", parse("~0 = 0")))
    claim = AuditClaim("c1", "contradiction", ("L12",), hyps)
    d = write_report(run_audit("pair", [claim], Budget()), tmp_path / "pair")
    [row] = (d / "report.tsv").read_text().splitlines()
    assert row.startswith("c1\tVERIFIED\t") and row.endswith("\tdetails/c1.pos.proof")
    assert recheck_report(d) == []
    return d


def test_recheck_flags_a_pos_proof_without_its_neg_proof(contradiction_report):
    (contradiction_report / "details" / "c1.neg.proof").unlink()
    assert recheck_report(contradiction_report) == [
        "c1: missing detail file details/c1.neg.proof"
    ]


def test_recheck_flags_a_neg_proof_that_does_not_negate_its_pos_proof(contradiction_report):
    details = contradiction_report / "details"
    (details / "c1.neg.proof").write_text((details / "c1.pos.proof").read_text())
    assert recheck_report(contradiction_report) == [
        "c1: neg.proof does not conclude the negation of pos.proof"
    ]


def test_recheck_flags_empty_certificate(tmp_path, reports):
    d = tmp_path / "empty-proof"
    write_report(reports["lemma-4.2"], d)
    (d / "details" / "x.proof").write_text("# goal 0 = 0\n")
    assert recheck_report(d) == ["x.proof: certificate has no steps"]


def test_recheck_failure_at_no_step_names_no_step(tmp_path, reports):
    d = tmp_path / "dup-hyp"
    write_report(reports["lemma-4.2"], d)
    (d / "details" / "x.proof").write_text("hyp h1 0 = 0\nhyp h1 1 = 1\n1. 0 = 0 ; hyp h1\n")
    assert recheck_report(d) == ["x.proof: fails re-check: duplicate hypothesis name"]


def test_recheck_names_the_first_unknown_set_a_certificate_cites(tmp_path, reports):
    d = tmp_path / "unknown-sets"
    write_report(reports["lemma-4.2"], d)
    (d / "details" / "x.proof").write_text(
        "1. 0 = 0 ; axiom Zz\n2. 1 = 1 ; axiom Aa\n"
    )
    assert recheck_report(d) == ["x.proof: unknown axiom set 'Zz'"]


def test_recheck_flags_a_detail_path_that_leaves_the_tree(tmp_path, reports):
    d = tmp_path / "tree"
    write_report(reports["corollary-4.4"], d)
    (d / "details" / "not-beta0.valuation").rename(tmp_path / "outside.valuation")
    tsv = d / "report.tsv"
    tsv.write_text(tsv.read_text().replace("details/not-beta0.valuation", "../outside.valuation"))
    assert recheck_report(d) == [
        "not-beta0: REFUTED detail must be details/not-beta0.<valuation|eval>,"
        " not '../outside.valuation'"
    ]


def test_recheck_flags_a_detail_kind_its_status_does_not_take(tmp_path, reports):
    # a countervaluation offered as the evidence of a VERIFIED row
    d = tmp_path / "tree"
    write_report(reports["lemma-4.2"], d)
    tsv = d / "report.tsv"
    row = "s15-m05\tREFUTED\t0\tdetails/s15-m05.valuation"
    assert row in tsv.read_text()
    tsv.write_text(tsv.read_text().replace(row, row.replace("REFUTED", "VERIFIED")))
    assert recheck_report(d) == [
        "s15-m05: VERIFIED detail must be details/s15-m05.<proof|pos.proof|eval>,"
        " not 'details/s15-m05.valuation'"
    ]


@pytest.mark.parametrize("linked", ["details/not-beta0.valuation", "details"])
def test_recheck_flags_a_symlinked_valuation(tmp_path, reports, linked):
    d = tmp_path / "tree"
    write_report(reports["corollary-4.4"], d)
    (d / linked).rename(tmp_path / "outside")
    (d / linked).symlink_to(tmp_path / "outside")
    assert recheck_report(d) == [
        "not-beta0: detail details/not-beta0.valuation is a symlink"
        " or resolves outside details/"
    ]


@pytest.mark.parametrize(
    "name, problem",
    [
        # a row's detail, and a certificate that no row names
        ("s15-m01.proof", "s15-m01: detail details/s15-m01.proof is a symlink"),
        ("x.proof", "x.proof: is a symlink"),
    ],
)
def test_recheck_flags_a_symlinked_certificate(tmp_path, reports, name, problem):
    d = tmp_path / "tree"
    write_report(reports["lemma-4.2"], d)
    outside = tmp_path / "outside.proof"
    (d / "details" / "s15-m01.proof").rename(outside)
    if name != "s15-m01.proof":
        (d / "details" / "s15-m01.proof").write_text(outside.read_text())
    (d / "details" / name).symlink_to(outside)
    assert recheck_report(d) == [f"{problem} or resolves outside details/"]


_MP_LINE = re.compile(r"^(\d+)\. (.*) ; mp \d+ \d+$", re.M)


def test_recheck_flags_an_mp_line_that_states_another_formula(tmp_path, reports):
    d = tmp_path / "tree"
    write_report(reports["lemma-4.2"], d)
    victim = d / "details" / "s15-m10.proof"
    text = victim.read_text()
    line = _MP_LINE.search(text)
    assert line is not None
    victim.write_text(text[: line.start(2)] + "0 = 0 -> 0 = 0" + text[line.end(2) :])
    assert recheck_report(d) == [
        f"s15-m10.proof: fails re-check at step {line[1]}: bad-mp"
    ]


def test_recheck_reads_mp_lines_in_any_spelling_of_their_formula(tmp_path, reports):
    # hand-written certificates: each formula in full, and not in render's text
    d = tmp_path / "tree"
    write_report(reports["lemma-4.4"], d)
    respelled = 0
    for victim in (d / "details").glob("*.proof"):
        text = _full_text(victim.read_bytes()).decode()
        new = _MP_LINE.sub(
            lambda m: m[0].replace(m[2], "( " + m[2].replace(" ", "  ") + " )", 1), text
        )
        respelled += new != text
        victim.write_text(new)
    assert respelled > 10
    assert recheck_report(d) == []


def _reference_proof(text):
    """The proof a script spells, each formula parsed on its own."""
    hyps, steps = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("hyp "):
            _, name, ftext = line.split(None, 2)
            hyps.append((name, parse(ftext)))
        elif line:
            head, _, just = line.partition(";")
            num, _, ftext = head.partition(".")
            kind, *args = just.split()
            if kind == "hyp":
                j = Hyp(args[0])
            elif kind == "axiom":
                j = Ax(args[0])
            elif kind == "mp":
                j = Mp(int(args[0]), int(args[1]))
            else:
                j = Gen(int(args[0]), int(args[1][1:]))
            steps.append(ProofStep(int(num), parse(ftext.strip()), j))
    return Proof(tuple(hyps), tuple(steps))


def test_report_certificates_read_as_each_line_parsed_alone(tmp_path, reports):
    # each certificate reads back to the proof the audit kept, and that proof
    # in the full-text form, each formula parsed on its own line, is the same
    kinds = Counter()
    for sid, report in reports.items():
        d = write_report(report, tmp_path / sid)
        kept = {}
        for v in report.verdicts:
            names = ["proof"] if len(v.proofs) == 1 else ["pos.proof", "neg.proof"]
            kept.update((f"{v.claim.claim_id}.{n}", p) for n, p in zip(names, v.proofs))
        for path in sorted((d / "details").glob("*.proof")):
            proof = parse_proof_script(path.read_text())
            assert proof == kept.pop(path.name), path
            assert proof == _reference_proof(full_text_script(proof)), path
            kinds.update(type(step.just).__name__ for step in proof.steps)
        assert kept == {}, sid
    assert kinds["Mp"] > 400 and kinds["Gen"] > 0


def test_check_strict_accepts_every_report_certificate(tmp_path, reports):
    checked = 0
    for sid, report in reports.items():
        d = write_report(report, tmp_path / sid)
        for path in sorted((d / "details").glob("*.proof")):
            out = io.StringIO()
            assert main(["check", str(path), "--strict"], out=out, err=out) == 0, path
            assert out.getvalue().startswith("ok "), path
            checked += 1
    assert checked == 83


def test_reports_recheck_clean_in_a_fresh_process(tmp_path, reports):
    # no node of the certificates is interned or rendered in the child yet
    dirs = [str(write_report(report, tmp_path / sid)) for sid, report in reports.items()]
    code = (
        "import sys\n"
        "from proofbench.audit import recheck_report\n"
        "print([p for d in sys.argv[1:] for p in recheck_report(d)])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *dirs],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1] / "src",  # imports the checkout's package
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_recheck_stats_no_path_per_row(tmp_path, reports, monkeypatch):
    # the rows and the certificates are looked up in one listing of details/
    d = write_report(reports["lemma-4.4"], tmp_path / "tree")
    stats = []
    for name in ("stat", "lstat"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda *a, real=real, **k: stats.append(a[0]) or real(*a, **k))
    assert recheck_report(d) == []
    monkeypatch.undo()
    assert len(reports["lemma-4.4"].verdicts) == 31
    assert len(stats) <= 2, stats  # report.tsv and the details/ link check


def test_recheck_reports_failing_dot_file_certificates_in_name_order(tmp_path, reports):
    d = write_report(reports["lemma-4.2"], tmp_path / "tree")
    for name in ("x.proof", ".x.proof"):
        (d / "details" / name).write_text("1. 0 = 0 ; hyp h\n", encoding="utf-8")
    assert recheck_report(d) == [
        ".x.proof: fails re-check at step 1: dangling-ref",
        "x.proof: fails re-check at step 1: dangling-ref",
    ]


def test_recheck_reports_a_directory_named_like_a_certificate_unreadable(tmp_path, reports):
    d = write_report(reports["lemma-4.2"], tmp_path / "tree")
    (d / "details" / "x.proof").mkdir()
    [problem] = recheck_report(d)
    assert problem.startswith("x.proof: unreadable: "), problem


def test_recheck_without_details_reports_each_row_missing(tmp_path, reports):
    d = write_report(reports["lemma-4.2"], tmp_path / "tree")
    rows = [line.split("\t") for line in (d / "report.tsv").read_text().splitlines()]
    for path in (d / "details").iterdir():
        path.unlink()
    (d / "details").rmdir()
    assert recheck_report(d) == [f"{cid}: missing detail file {detail}" for cid, _, _, detail in rows]


@pytest.mark.parametrize("locus, hyp", [("lemme \u00e9tape 3", "h"), ("", "h\u00e9")])
def test_write_report_writes_utf8_in_an_ascii_locale(tmp_path, locus, hyp):
    # the recheck reads UTF-8, whatever the locale the report was written in
    code = (
        "import codecs, locale, sys\n"
        "from proofbench.audit import AuditClaim, recheck_report, run_audit, write_report\n"
        "from proofbench.parser import parse\n"
        "print(codecs.lookup(locale.getpreferredencoding(False)).name)\n"
        "f = parse('0 = 0 -> 0 = 0')\n"
        f"claim = AuditClaim('c1', 'membership', ('L12',), (({ascii(hyp)}, f),), f, {ascii(locus)})\n"
        "write_report(run_audit('utf8', [claim]), sys.argv[1])\n"
        "print(recheck_report(sys.argv[1]))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=Path(__file__).resolve().parents[1] / "src",  # imports the checkout's package
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ascii\n[]\n"
    written = (tmp_path / "report.txt").read_bytes() + (tmp_path / "details" / "c1.proof").read_bytes()
    assert (locus or f"hyp {hyp} ").encode("utf-8") in written


@pytest.mark.parametrize("victim", ["report.tsv", "details/s15-m01.proof"])
def test_recheck_flags_non_utf8_file(tmp_path, reports, victim):
    d = tmp_path / "bad-bytes"
    write_report(reports["lemma-4.2"], d)
    path = d / victim
    path.write_bytes(path.read_bytes() + b"\xff\n")
    problems = recheck_report(d)
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"{path.name}: unreadable: "), problems


def test_report_formula_lines_are_render_fixed_points(tmp_path, reports):
    # the recheck compares a goal line with render's text, and a hand-written
    # certificate is parsed: render must reproduce each line, goal lines and
    # those of the full-text form
    texts = []
    for sid, report in reports.items():
        d = tmp_path / sid
        write_report(report, d)
        for proof_file in (d / "details").glob("*.proof"):
            for line in _full_text(proof_file.read_bytes()).decode().splitlines():
                if line.startswith("# goal "):
                    texts.append(line[len("# goal ") :])
                elif line.startswith("hyp "):
                    texts.append(line.split(None, 2)[2])
                elif line and not line.startswith("#"):
                    texts.append(line.partition(";")[0].partition(".")[2].strip())
    assert len(texts) > 1000
    for text in texts:
        assert render(parse(text)) == text


def test_machine_report_format(tmp_path, reports):
    d = tmp_path / "fmt"
    write_report(reports["lemma-4.2"], d)
    lines = (d / "report.tsv").read_text().splitlines()
    assert len(lines) == len(reports["lemma-4.2"].verdicts)
    for line in lines:
        cid, status, steps, detail = line.split("\t")
        assert status in ("VERIFIED", "REFUTED", "UNRESOLVED")
        assert steps.isdigit()
        assert (d / detail).is_file()


# ---------------------------------------------------------------------------
# script grammar


def test_load_script_empty():
    assert load_script("") == []
    assert load_script("# only comments\n\n") == []


def test_load_script_basic():
    text = (
        "claim c1 | hyps L12 xi | goal psi12 | locus somewhere\n"
        "claim c2 | hyps L12 | goal ~(1 < 1)\n"
        "claim c3 | hyps L12 | goal psi1 | locus step #3 of the chain\n"
        "claim c4 | hyps L12 | goal psi1 # | locus a comment\n"
    )
    claims = load_script(text)
    assert [c.claim_id for c in claims] == ["c1", "c2", "c3", "c4"]
    assert claims[0].axiom_names == ("L12",)
    assert dict(claims[0].hypotheses) == {"xi": NAMED_FORMULAS["xi"]}
    assert claims[0].goal == PSI_AXIOMS["psi12"]
    assert claims[0].locus == "somewhere"
    assert claims[1].goal == NAMED_FORMULAS["u27"]
    # a # is text once a locus field has begun, and a comment before it
    assert [c.locus for c in claims[2:]] == ["step #3 of the chain", ""]


def test_readme_claim_script_loads_and_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```text\n(.*?)```", readme, re.S)
    [script] = [b for b in blocks if "\nclaim " in b]
    claims = load_script(script)
    assert [c.claim_id for c in claims] == ["m1"]
    report = run_audit("readme", claims, Budget(max_steps=2000))
    assert [v.status for v in report.verdicts] == ["VERIFIED"]


def test_builtin_goals_written_as_text_are_rendered():
    # a goal is a sentence token or render's text, so the files read like report.txt
    texts = []
    for path in sorted(CLAIMS_DIR.glob("*.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            goal = re.match(r"claim .*?\| goal (.*?)(?: \||$)", line)
            if goal and not re.fullmatch(r"\w+", goal[1]):
                texts.append(goal[1])
                assert render(parse(goal[1])) == goal[1], (path.name, line)
    assert len(texts) > 50


def test_load_script_set_override_propagates():
    # a set line binds its formula where it stands: a later set of the name
    # changes only the claims after it, and no token is derived from a name
    text = (
        "set d 0 = 0\n"
        "claim c1 | hyps L12, d | goal d\n"
        "set d ~(1 < 1)\n"
        "claim c2 | hyps L12, d | goal d\n"
    )
    c1, c2 = load_script(text)
    assert dict(c1.hypotheses) == {"d": parse("0 = 0")} and c1.goal == parse("0 = 0")
    u27 = NAMED_FORMULAS["u27"]
    assert dict(c2.hypotheses) == {"d": u27} and c2.goal == u27
    with pytest.raises(AuditError, match="^line 2: unknown hypothesis token 'not_delta00'$"):
        load_script("set delta ~(1 < 1)\nclaim c1 | hyps L12 not_delta00 | goal delta\n")


def test_load_script_errors_carry_line_numbers():
    cases = [
        ("claim c1 | hyps NoSuchThing | goal psi1", "unknown hypothesis token 'NoSuchThing'"),
        ("claim c1 | hyps L12, foo | goal psi1", "unknown hypothesis token 'foo'"),
        ("claim c1 | hyps L12 | goal foo", "unknown goal token 'foo'"),
        ("claim c1 | hyps L12 | goal L12", "goal 'L12' names an axiom set"),
        ("claim c1 | goal ((( ", ""),
        ("claim c1 | hyps L12", "claim c1: shape membership needs a goal"),
        ("claim c1 | shape sanity", "claim c1: shape sanity needs a goal"),
        ("claim c1 | shape contradiction | hyps L12 | goal psi1", "takes no goal"),
        ("claim c1 | shape proof | hyps L12 | goal psi1", "unknown claim shape 'proof'"),
        ("claim c1 | shape sanity | goal x1 = x1", "claim c1: goal has free variables (x1)"),
        ("claim c1 | hyps L12 | goal (Ax1)(x1 = x2)", "goal has free variables (x2)"),
        ("set delta ((( ", ""),
        ("claim bad id! | hyps L12 | goal psi1", "not filesystem-safe"),
        ("claim | goal u27", "claim id '' is not filesystem-safe"),
        ("frobnicate x", "expected 'set' or 'claim'"),
    ]
    for line, message in cases:
        with pytest.raises(AuditError) as e:
            load_script(f"# first line\n\n{line}\n")
        assert str(e.value).startswith("line 3: ")
        assert message in str(e.value)
    with pytest.raises(AuditError, match="^line 3: duplicate claim id 'c1'$"):
        load_script("claim c1 | hyps L12 | goal psi1\n\nclaim c1 | hyps L12 | goal psi2\n")


def test_load_script_rejects_input_it_would_lose():
    # an axiom-set name always resolves to the set, so its binding is never read
    with pytest.raises(AuditError) as e:
        load_script("claim c0 | hyps L12 | goal psi1\nset L12 1 = 1\n")
    assert "line 2" in str(e.value) and "L12" in str(e.value)
    # a set name no field can read: hyps and goal read only identifiers
    for name in ("0", "a,b"):
        with pytest.raises(AuditError) as e:
            load_script(f"claim c0 | hyps L12 | goal psi1\nset {name} 0 = 0\n")
        assert "line 2" in str(e.value) and repr(name) in str(e.value)
    # a sentence constant names one sentence in every script
    for name in ("psi1", "q3", "u27", "beta0"):
        with pytest.raises(AuditError, match=f"^line 1: cannot set '{name}', a sentence constant$"):
            load_script(f"set {name} 0 = 0\nclaim c1 | hyps L12, {name} | goal {name}\n")
    # a claim takes each field once
    for field in ("shape sanity", "goal (Ax1)(x1 = x1)", "locus elsewhere", "hyps xi"):
        with pytest.raises(AuditError) as e:
            load_script(
                f"\nclaim c | shape membership | hyps L12 | goal u27 | locus here | {field}\n"
            )
        assert "line 2" in str(e.value)


def test_run_audit_rejects_duplicate_ids():
    claims = [
        AuditClaim("c1", "membership", ("L12",), (), PSI1),
        AuditClaim("c1", "membership", ("L12",), (), PSI_AXIOMS["psi2"]),
    ]
    with pytest.raises(AuditError):
        run_audit("t", claims, Budget(max_steps=100))


#: The wall time within which ``load_script`` answers one generated script,
#: of at most six lines that may hold 400-deep formulas.  Measured on one
#: x86-64 core (py3.11.7): under 0.01 s per script.
LOAD_SCRIPT_SECONDS = 1.0

_CHAIN = " /\\ ".join(["0 = 0"] * 400)
_FORMULA_TEXT = st.sampled_from([
    "0 = 0", "x1 = x1", "(Ax1)(x1 = x1)", "~(1 < 1)", "(Ax1)~(1 = x1 + 1) -> (Ax1)(x1 = x1)",
    _CHAIN, f"~({_CHAIN})", " /\\ ".join(["0 = 0"] * 401),
    "~" * 399 + "0 = 0", "~" * 400 + "0 = 0", "(" * 401 + "0 = 0" + ")" * 401, "(((",
])
_TOKEN = st.sampled_from([
    "L12", "L2r", "Xp", "NPsi3dot", "psi1", "psi7", "q3", "u27", "xi", "beta0", "beta1",
    "delta", "delta00", "not_delta00", "alpha_imp_psi7", "d", "e", "c1", "0", "a,b", "",
])
_FIELD = st.one_of(
    st.builds(lambda ts: "hyps " + ", ".join(ts), st.lists(_TOKEN, max_size=4)),
    st.builds("shape {}".format, st.sampled_from([*CLAIM_SHAPES, "proof", ""])),
    st.builds("goal {}".format, _TOKEN | _FORMULA_TEXT),
    st.builds("locus {}".format, st.sampled_from(["here", "step #3", "a | b", ""])),
    st.text(max_size=6),
)
_LINE = st.one_of(
    st.builds("set {} {}".format, _TOKEN, _FORMULA_TEXT | _TOKEN),
    st.builds("claim c{} | hyps L12, {} | goal {}".format, st.integers(0, 9), _TOKEN, _TOKEN),
    st.builds(
        lambda cid, fields: " | ".join([f"claim {cid}", *fields]),
        st.sampled_from(["c1", "c2", "bad id!", ""]),
        st.lists(_FIELD, max_size=5),
    ),
    st.builds(
        "".join,
        st.lists(st.sampled_from(["set ", "claim ", "|", ",", "#", " ", "hyps ", "goal "])
                 | _TOKEN | _FORMULA_TEXT | st.text(max_size=4), max_size=6),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINE, max_size=6).map("\n".join))
# loaded to a NestingError before set lines stated the derived tokens
@example(f"set delta {_CHAIN}\nclaim c | hyps L12, not_delta00 | goal psi1")
@example(f"set not_delta00 ~({_CHAIN})\nclaim c | hyps L12, not_delta00 | goal psi1")
def test_load_script_is_total(text):
    # a claim list, or an AuditError that names its line: nothing else escapes
    start = time.perf_counter()
    try:
        claims = load_script(text)
    except AuditError as e:
        assert re.match(r"line \d+: ", str(e)), str(e)
    else:
        assert all(isinstance(c, AuditClaim) for c in claims)
    assert time.perf_counter() - start < LOAD_SCRIPT_SECONDS


def test_claim_validation():
    with pytest.raises(AuditError):
        AuditClaim("x", "no-such-shape", ("L12",), (), PSI1, "")
    with pytest.raises(AuditError):
        AuditClaim("bad id", "membership", ("L12",), (), PSI1, "")
    with pytest.raises(AuditError):
        AuditClaim("x", "membership", ("NoSuchSet",), (), PSI1, "")
    with pytest.raises(AuditError):
        AuditClaim("x", "membership", ("L12",), (), None, "")
    # hypotheses and goals are sentences
    open_ = parse("x1 = x1")
    with pytest.raises(AuditError, match=r"^claim x: goal has free variables \(x1\)$"):
        AuditClaim("x", "sanity", (), (), open_)
    with pytest.raises(AuditError, match="^claim x: hypothesis 'h' has free variables"):
        AuditClaim("x", "membership", ("L12",), (("h", open_),), PSI1)


@pytest.mark.parametrize("bound", [0, -3, 2.5, True, "50"])
def test_a_claim_refuses_an_eval_bound_that_is_no_positive_integer(bound):
    goal = parse("(Ax1)(x1 = x1)")
    message = f"claim x: eval bound {bound!r} is not a positive integer"
    with pytest.raises(AuditError, match=re.escape(message)):
        AuditClaim("x", "sanity", (), (), goal, "", bound)


def test_a_claim_refuses_a_repeated_hypothesis_name():
    psi7 = PSI_AXIOMS["psi7"]
    with pytest.raises(AuditError, match="claim c1: repeated hypothesis 'psi7'"):
        AuditClaim("c1", "membership", ("L12",), (("psi7", psi7), ("psi7", psi7)), psi7)
    with pytest.raises(AuditError, match="^line 2: claim c1: repeated hypothesis 'psi7'$"):
        load_script("# first line\nclaim c1 | hyps L12, psi7, psi7 | goal psi7\n")
    with pytest.raises(AuditError, match="^claim c1: repeated axiom set 'L12'$"):
        AuditClaim("c1", "membership", ("L12", "L12"), (), psi7)
    with pytest.raises(AuditError, match="^line 2: claim c1: repeated axiom set 'L12'$"):
        load_script("# first line\nclaim c1 | hyps L12, L12 | goal psi1\n")


def test_a_claim_id_with_a_trailing_newline_is_not_filesystem_safe():
    # ``$`` also matches before a final newline; the id must match whole
    with pytest.raises(AuditError, match="claim id 'c1\\\\n' is not filesystem-safe"):
        AuditClaim("c1\n", "membership", ("L12",), (), parse("0 = 0 -> 0 = 0"))


@pytest.mark.parametrize("name", ["my hyp", "h#1", "", "h\t1", "h\n", "h\u3000", "\x1c"])
def test_a_claim_refuses_a_hypothesis_name_a_certificate_cannot_spell(name):
    f = parse("0 = 0")
    message = f"claim c1: hypothesis name {name!r} is empty or holds whitespace or '#'"
    with pytest.raises(AuditError, match=re.escape(message)):
        AuditClaim("c1", "membership", ("L12",), ((name, f),), f)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=6))
@example("h;1")
@example("\u00e9")
@example("d1")
@example("hyp")
@example(";")
def test_every_hypothesis_name_a_claim_takes_round_trips_through_a_certificate(name):
    f = parse("0 = 0")
    try:
        AuditClaim("c1", "membership", ("L12",), ((name, f),), f)
    except AuditError:
        assert "#" in name or name.split() != [name]
        return
    proof = Proof(((name, f),), (ProofStep(1, f, Hyp(name)),))
    assert parse_proof_script(render_proof_script(proof)) == proof


def test_strict_check_failure_at_no_step_names_no_step():
    psi7 = PSI_AXIOMS["psi7"]
    proof = Proof((("h", psi7), ("h", psi7)), (ProofStep(1, psi7, Hyp("h")),))
    with pytest.raises(AuditError) as e:
        audit._strict_check((proof,), (axiom_set("L12"),))
    assert str(e.value) == (
        "internal: engine produced a proof that fails the strict kernel check: "
        "duplicate hypothesis name"
    )


def _spy_check_proof(monkeypatch):
    """The proofs ``check_proof`` is called on, through every module that binds it."""
    calls = []
    real = proofs.check_proof

    def counted(proof, *args, **kwargs):
        calls.append(proof)
        return real(proof, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "proofbench" and getattr(module, "check_proof", None) is real:
            monkeypatch.setattr(module, "check_proof", counted)
    return calls


@pytest.mark.parametrize(
    "goal, hyps",
    [
        (antecedent_chain(8), ()),  # eight discharges
        (parse("~(0 = 1 /\\ ~0 = 1)"), ()),  # reductio
        (parse("1 = 1 -> ~(0 = 1 /\\ ~0 = 1)"), ()),  # a discharge over reductio
        (NAMED_FORMULAS["xi"], (NAMED_FORMULAS["xi"],)),  # a hypothesis
        (PSI7, (Not(Implies(PSI7, PSI1)),)),  # the closure holds the goal
    ],
    ids=["discharges", "reductio", "discharge-and-reductio", "hypothesis", "closure"],
)
def test_each_engine_proof_is_checked_exactly_once(monkeypatch, goal, hyps):
    # prove builds and does not check; the audit checks what it keeps, once
    named = tuple((f"h{i}", f) for i, f in enumerate(hyps, start=1))
    calls = _spy_check_proof(monkeypatch)
    verdict = run_claim(AuditClaim("c", "membership", ("L12",), named, goal))
    assert verdict.status == "VERIFIED" and verdict.proofs[0].conclusion == goal
    assert calls == [verdict.proofs[0]]
    calls.clear()
    assert prove(goal, named, (axiom_set("L12"),)).proof == verdict.proofs[0]
    assert calls == []


def test_a_verified_collapse_checks_each_proof_of_its_pair_once(monkeypatch):
    calls = _spy_check_proof(monkeypatch)
    hyps = (("h1", PSI1), ("h2", Not(PSI1)))
    verdict = run_claim(AuditClaim("c", "contradiction", ("L12",), hyps))
    assert verdict.status == "VERIFIED" and len(verdict.proofs) == 2
    assert calls == list(verdict.proofs)


def _closed_atoms(n):
    """``n`` distinct closed atoms S(0) = 0, S(S(0)) = 0, ..."""
    return [parse("S(" * k + "0" + ")" * k + " = 0") for k in range(1, n + 1)]


def test_refutation_valuation_caps_free_atoms_only():
    # 22 atoms, 20 free: the two axiom atoms are pinned true and take no bit
    psi7 = PSI_AXIOMS["psi7"]
    free = _closed_atoms(20)
    premises = [PSI1, Implies(psi7, free[0])]
    val = refutation_valuation(premises, reduce(Or, free[1:]), (axiom_set("Xp"),))
    # the lowest row sets only bit 0, the first free atom, which psi7 forces
    assert val == ((PSI1, True), (psi7, True), (free[0], True)) + tuple(
        (a, False) for a in free[1:]
    )


def test_wide_claim_goes_to_proof_search():
    # 21 free atoms exceed the sweep cap: no refutation, and no crash
    claim = AuditClaim("wide", "membership", ("L12",), (), reduce(Or, _closed_atoms(21)))
    verdict = run_claim(claim, Budget(max_steps=2000))
    assert verdict.status == "UNRESOLVED"


def test_depth_capped_search_names_the_cap():
    # one introduction per disjunction: one more than the search may stack
    goal = disjunction_tower(antecedent_chain(2), engine.BACKWARD_DEPTH + 1)
    verdict = run_claim(AuditClaim("deep", "membership", ("L12",), (), goal), Budget())
    assert verdict.status == "UNRESOLVED"
    assert verdict.detail == (
        f"search stopped at the backward depth cap of {engine.BACKWARD_DEPTH} "
        f"after {verdict.steps} steps without finding a proof"
    )


def test_derivable_outright():
    refl = parse("x1 = x1")
    omega = universal_closure(Implies(refl, Implies(PSI1, refl)))
    assert derivable_outright(omega, (axiom_set("L2r"),))
    assert not derivable_outright(NAMED_FORMULAS["u27"], (axiom_set("L12"),))
    assert derivable_outright(NAMED_FORMULAS["gamma2p"], (axiom_set("NPsi3dot"),))


def test_a_false_sanity_claim_is_evaluated_once(monkeypatch):
    # the verdict and the counterexample come from one compiled evaluation
    compiled = []
    compile_ = semantics._compile
    monkeypatch.setattr(semantics, "_compile", lambda *a: compiled.append(a) or compile_(*a))
    goal = parse("(Ax1)(Ax2)(x1 + x2 < 1 + 1 + 1)")
    verdict = run_claim(AuditClaim("false-sum", "sanity", goal=goal, eval_bound=5))
    assert verdict.status == "REFUTED"
    assert verdict.detail == "false in the standard model at bound 5 under x1=1, x2=2"
    assert len(compiled) == 1
