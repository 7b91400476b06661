"""Command-line surface: verbs, exit codes, output formats."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proofbench import engine, semantics, transforms
from proofbench.cli import main
from proofbench.engine import BACKWARD_DEPTH
from proofbench.parser import MAX_NESTING, render
from proofbench.proofs import recheck_report, render_proof_script
from proofbench.scripts import builtin_scripts
from proofbench.syntax import Implies

from strategies import (
    alternating,
    antecedent_chain,
    disjunction_tower,
    doubling_certificate,
    tall_atom,
    weakening,
)

PROVE_HYP = "~((Ax1)~(1 = x1 + 1) -> (Ax1)(x1 = x1))\n"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def hyp_file(tmp_path):
    p = tmp_path / "hyps.txt"
    p.write_text(PROVE_HYP)
    return str(p)


def test_no_verb_is_usage_error():
    code, _, _ = run_cli()
    assert code == 2


def test_unknown_verb_is_usage_error():
    code, _, err = run_cli("frobnicate")
    assert code == 2
    assert "error" in err


def test_prove_check_round_trip(tmp_path, hyp_file):
    code, proof_text, err = run_cli(
        "prove",
        "--goal",
        "(Ax1)~(1 = x1 + 1)",
        "--hyp",
        hyp_file,
        "--axioms",
        "L12",
        "--max-steps",
        "200000",
    )
    assert code == 0
    assert "found" in err
    proof_path = tmp_path / "proof.txt"
    proof_path.write_text(proof_text)
    code, out, _ = run_cli("check", str(proof_path))
    assert code == 0
    assert out.startswith("ok ")
    assert "(Ax1)~(1 = x1 + 1)" in out


def test_check_rejects_tampered_proof(tmp_path, hyp_file):
    _, proof_text, _ = run_cli(
        "prove", "--goal", "(Ax1)~(1 = x1 + 1)", "--hyp", hyp_file,
        "--axioms", "L12", "--max-steps", "200000",
    )
    bad = proof_text.replace("; mp 1 2", "; mp 2 1", 1)
    assert bad != proof_text
    p = tmp_path / "bad.txt"
    p.write_text(bad)
    code, out, _ = run_cli("check", str(p))
    assert code == 1
    assert out.startswith("FAIL step ")


def test_check_rejects_a_proof_with_no_steps(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# hypotheses only\nhyp h1 0 = 0\n")
    assert run_cli("check", str(p)) == (1, "FAIL: proof has no steps\n", "")


def test_check_failure_at_no_step_names_no_step(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("hyp h1 0 = 0\nhyp h1 1 = 1\n1. 0 = 0 ; hyp h1\n")
    assert run_cli("check", str(p)) == (1, "FAIL: duplicate hypothesis name\n", "")


def test_check_takes_no_axioms_option(tmp_path):
    # check replays a proof against the sets its steps cite, so it takes none
    p = tmp_path / "p.txt"
    p.write_text("1. 0 = 0 -> 0 = 0 -> 0 = 0 ; axiom L12\n")
    assert run_cli("check", str(p))[0] == 0
    code, out, err = run_cli("check", str(p), "--axioms", "L12")
    assert (code, out) == (2, "")
    assert err.startswith("error: unrecognized arguments: --axioms")


def test_check_missing_file_is_usage_error(tmp_path):
    code, _, err = run_cli("check", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error" in err


def test_prove_with_a_budget_left_stops_at_a_fixpoint():
    # no decomposition applies to an atom: the search ends before it spends a step
    code, out, err = run_cli(
        "prove", "--goal", "1 < 1", "--axioms", "L12", "--max-steps", "500"
    )
    assert code == 3
    assert out == ""
    assert err == (
        "not found: search reached a fixpoint after 0 steps without finding a proof\n"
    )


SPENT_GOAL = "(1 = 1) -> ((1 = 1 -> 0 = 0) -> 0 = 0) /\\ (0 = 0 -> 0 = 0)"


@pytest.mark.parametrize(
    "goal, extra, stop",
    [
        ("0 = 1", (), "search reached a fixpoint after 0 steps without finding a proof"),
        (
            render(disjunction_tower(antecedent_chain(2), BACKWARD_DEPTH + 1)),
            (),
            f"search stopped at the backward depth cap of {BACKWARD_DEPTH} after ",
        ),
        # the search spends its one step, then needs a closure it cannot build
        (SPENT_GOAL, ("--max-steps", "1"), "budget of 1 steps exhausted"),
    ],
    ids=["fixpoint", "depth-cap", "budget"],
)
def test_failed_prove_names_its_stop(goal, extra, stop):
    code, out, err = run_cli("prove", "--goal", goal, "--axioms", "L12", *extra)
    assert code == 3
    assert out == ""
    assert err.startswith(f"not found: {stop}")


def test_prove_bad_goal_is_usage_error():
    code, _, _ = run_cli("prove", "--goal", "(((")
    assert code == 2


def test_prove_unknown_axiom_set():
    code, _, err = run_cli("prove", "--goal", "1 < 1", "--axioms", "NoSuch")
    assert code == 2
    assert "NoSuch" in err


def test_closure_dump_and_exit_codes(tmp_path, hyp_file):
    dump = tmp_path / "closure.txt"
    code, out, _ = run_cli(
        "closure", "--hyp", hyp_file, "--axioms", "L12",
        "--max-steps", "5000", "--dump", str(dump),
    )
    assert code == 0
    assert "fixpoint: yes" in out
    lines = dump.read_text().splitlines()
    assert PROVE_HYP.strip() in lines
    assert "(Ax1)~(1 = x1 + 1)" in lines

    code, out, _ = run_cli(
        "closure", "--hyp", hyp_file, "--axioms", "L12", "--max-steps", "3"
    )
    assert code == 3
    assert "fixpoint: no" in out


def test_closure_reports_contradictions(tmp_path):
    hyp = tmp_path / "contra.txt"
    hyp.write_text("(Ax1)(x1 = x1)\n~(Ax1)(x1 = x1)\n")
    code, out, _ = run_cli(
        "closure", "--hyp", str(hyp), "--axioms", "L12", "--max-steps", "5000"
    )
    assert "contradiction:" in out


def test_taut_verb(tmp_path):
    f = tmp_path / "formulas.txt"
    f.write_text(
        "~(1 < 1) -> ~(1 < 1)\n"
        "# a comment line\n"
        "1 < 1\n"
        "(Ax1)(x1 = x1) \\/ ~(Ax1)(x1 = x1)\n"
    )
    code, out, _ = run_cli("taut", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "TAUT"
    assert lines[1].startswith("NONTAUT ")
    assert "1 < 1 := 0" in lines[1]
    assert lines[2] == "TAUT"


def test_taut_parse_error(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("((\n")
    code, _, err = run_cli("taut", str(f))
    assert code == 2
    assert "bad formula" in err


def test_deep_input_is_usage_error(tmp_path):
    f = tmp_path / "deep.txt"
    f.write_text("~" * 3000 + "(1 = 1)\n")
    code, _, err = run_cli("taut", str(f))
    assert code == 2
    assert err.startswith("error:")
    assert f"bad formula: input nests more than {MAX_NESTING} deep" in err


@pytest.mark.parametrize(
    "verb, text",
    [
        ("taut", "x0 = 1\n"),
        ("check", "hyp h1 x0 = 1\n1. x0 = 1 ; hyp h1\n"),
        ("check", "\u00b2. 1 = 1 ; axiom L12\n"),
        ("check", "hyp h1 1 = 1\n1. 1 = 1 ; hyp h1\n2. (Ax1)(1 = 1) ; gen 1 x0\n"),
        ("audit", "claim c1 | hyps L12 | goal x0 = 1\n"),
        ("audit", "claim c1 | shape sanity | goal x1 = x1\n"),
    ],
)
def test_bad_input_file_is_usage_error(tmp_path, verb, text):
    f = tmp_path / "input.txt"
    f.write_text(text, encoding="utf-8")
    code, _, err = run_cli(verb, str(f))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "{f}"),
        ("taut", "{f}"),
        ("prove", "--goal", "1 = 1", "--axioms", "L12", "--hyp", "{f}"),
        ("audit", "{f}"),
    ],
)
def test_non_utf8_input_file_is_usage_error(tmp_path, argv):
    f = tmp_path / "bad.proof"
    f.write_bytes(b"1 = 1\n\xff\n")
    code, _, err = run_cli(*(a.format(f=f) for a in argv))
    assert code == 2
    assert err.startswith(f"error: cannot read {f}: not UTF-8 text"), err


def test_eval_bad_variable_id_is_usage_error():
    code, _, err = run_cli("eval", "--bound", "3", "x0 = 1")
    assert code == 2
    assert err.startswith("error:")


def test_eval_verb():
    code, out, _ = run_cli("eval", "--bound", "5", "(Ax1)(x1 < 1)")
    assert code == 0
    assert out.startswith("false")
    assert "x1=1" in out
    code, out, _ = run_cli("eval", "--bound", "5", "(Ex3)(1 + x3 = S(1))")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli("eval", "--bound", "5", "(Ax1)(1 < x1 + 1)")
    assert (code, out.strip()) == (0, "unknown")


def test_eval_compiles_a_false_sentence_once(monkeypatch):
    # the verdict and the counterexample come from one compiled evaluation
    compiled = []
    compile_ = semantics._compile
    monkeypatch.setattr(semantics, "_compile", lambda *a: compiled.append(a) or compile_(*a))
    code, out, _ = run_cli("eval", "--bound", "5", "(Ax1)(Ax2)(x1 + x2 < 1 + 1 + 1)")
    assert (code, out) == (0, "false (counterexample: x1=1 x2=2)\n")
    assert len(compiled) == 1


def test_eval_rejects_open_formulas():
    code, _, err = run_cli("eval", "--bound", "5", "x1 = x1")
    assert code == 2
    assert "free variables" in err


def test_eval_rejects_bad_bound():
    code, _, _ = run_cli("eval", "--bound", "0", "1 = 1")
    assert code == 2


def test_audit_builtin(capsys):
    code, out, _ = run_cli("audit", "corollary-4.4", "--deterministic")
    assert code == 0
    assert "audit: corollary-4.4" in out
    assert "totals: verified=0 refuted=1 unresolved=0" in out


def test_audit_of_a_builtin_file_prints_what_its_id_prints():
    # the path stem is the id, so the file and the id name one script
    claims = Path(__file__).resolve().parents[1] / "src" / "proofbench" / "claims"
    files = sorted(p.name for p in claims.iterdir())
    assert files == sorted(f"{sid}.txt" for sid in builtin_scripts())
    for sid in builtin_scripts():
        by_id = run_cli("audit", sid)
        assert by_id[0] == 0 and by_id[1].startswith(f"audit: {sid}\n"), sid
        assert run_cli("audit", str(claims / f"{sid}.txt")) == by_id, sid


def test_audit_unknown_script():
    code, _, err = run_cli("audit", "no-such-script")
    assert code == 2
    assert "neither a builtin script" in err


def test_audit_script_file(tmp_path):
    script = tmp_path / "demo.audit"
    script.write_text(
        "claim m1 | hyps L12 not_delta00 | goal psi7 | locus demo\n"
        "claim r1 | hyps L12 | goal psi1 | locus demo\n"
    )
    code, out, _ = run_cli(
        "audit", str(script), "--deterministic", "--max-steps", "200000"
    )
    assert code == 0
    assert "audit: demo" in out
    assert "m1\tVERIFIED" in out
    assert "r1\tREFUTED" in out


def test_audit_wide_claim_exits_zero(tmp_path):
    # a goal over 21 distinct atoms is too wide to refute; proof search decides
    goal = " \\/ ".join("S(" * k + "0" + ")" * k + " = 0" for k in range(1, 22))
    script = tmp_path / "wide.txt"
    script.write_text(f"claim w1 | hyps L12 | goal {goal}\n")
    code, out, _ = run_cli("audit", str(script), "--deterministic", "--max-steps", "2000")
    assert code == 0
    assert "w1\tUNRESOLVED" in out


def test_audit_bad_script_file(tmp_path):
    script = tmp_path / "bad.audit"
    script.write_text("claim c1 | hyps NoSuchThing | goal psi1\n")
    code, _, err = run_cli("audit", str(script))
    assert code == 2


def test_audit_report_directory(tmp_path):
    d = tmp_path / "out"
    code, out, err = run_cli(
        "audit", "corollary-4.4", "--deterministic", "--report", str(d)
    )
    assert code == 0
    assert (d / "report.txt").is_file()
    assert (d / "report.tsv").is_file()
    assert (d / "details").is_dir()
    assert out == (d / "report.txt").read_text()
    assert "report written" in err


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_audit_output_does_not_depend_on_the_inert_flag(tmp_path):
    runs = []
    for flags in ((), ("--deterministic",)):
        d = tmp_path / f"run{len(runs)}"
        code, out, _ = run_cli("audit", "corollary-4.4", *flags, "--report", str(d))
        assert code == 0
        assert out == (d / "report.txt").read_text()
        assert run_cli("audit", "corollary-4.4", *flags) == (0, out, "")
        runs.append((out, _tree(d)))
    assert runs[0] == runs[1]


def test_deterministic_report_does_not_depend_on_the_hash_seed(tmp_path):
    trees = []
    for seed in ("0", "1"):
        report = tmp_path / f"seed{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "proofbench", "audit", "lemma-4.4", "--deterministic",
             "--report", str(report)],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1] / "src",  # `-m` imports the checkout's package
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        trees.append((_tree(report), proc.stdout.replace(str(report), "REPORT")))
    assert trees[0][0]
    assert trees[0] == trees[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "proofbench", "eval", "--bound", "3", "1 = 1"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1] / "src",  # `-m` imports the checkout's package
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


def test_audit_refuses_a_repeated_hypothesis_name(tmp_path):
    script = tmp_path / "dup.audit"
    script.write_text("claim c1 | hyps L12, psi7, psi7 | goal psi7\n")
    code, out, err = run_cli("audit", str(script))
    assert (code, out) == (2, "")
    assert err == f"error: {script}: line 1: claim c1: repeated hypothesis 'psi7'\n"


def test_prove_without_the_logical_schemata_finds_nothing():
    # no derived rule applies without them, and none crashes
    for axioms in ((), ("--axioms", "Xp"), ("--axioms", "NPsi3dot"), ("--axioms", "PrefixedL2r")):
        code, out, err = run_cli("prove", "--goal", "0 = 0 -> 0 = 0", *axioms)
        assert (code, out) == (3, ""), axioms
        assert err.startswith("not found: search reached a fixpoint"), axioms


_AND_CHAIN = " /\\ ".join(["0 = 0"] * (MAX_NESTING - 2))  # connective depth MAX_NESTING - 3
#: A -> (A -> A) over the chain, which PrefixedL2r's hook puts behind four prefixes
_PHI4 = f"{_AND_CHAIN} -> {_AND_CHAIN} -> {_AND_CHAIN}"


@pytest.mark.parametrize(
    "argv, text",
    [
        # phi1's instance over A, four levels above A
        (("prove", "--goal", f"{_AND_CHAIN} -> {_AND_CHAIN}", "--axioms", "L12"), ""),
        (("closure", "--hyp", "{f}", "--axioms", "PrefixedL2r"), _PHI4),
    ],
    ids=["prove", "closure"],
)
def test_a_formula_the_engine_builds_past_the_cap_is_an_input_error(tmp_path, argv, text):
    f = tmp_path / "input.txt"
    f.write_text(f"{text}\n")
    code, out, err = run_cli(*(a.format(f=f) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: Implies would nest past MAX_NESTING ({MAX_NESTING})\n"


def test_audit_judges_a_claim_built_past_the_cap_unresolved(tmp_path):
    # the engine would build c's PrefixedL2r member past the cap; d is judged
    # as usual, and the report replays
    script = tmp_path / "input.txt"
    script.write_text(
        f"claim c | hyps PrefixedL2r | goal {_PHI4}\nclaim d | hyps L12 | goal 0 = 0 -> 0 = 0\n"
    )
    report = tmp_path / "report"
    code, out, _ = run_cli("audit", str(script), "--report", str(report))
    assert code == 0
    assert "claims: 2  verified: 1  refuted: 0  unresolved: 1" in out
    c, d = (report / "report.tsv").read_text().splitlines()
    assert c == "c\tUNRESOLVED\t0\tdetails/c.budget"
    assert d.startswith("d\tVERIFIED\t")
    budget = (report / "details" / "c.budget").read_text()
    assert budget == f"Implies would nest past MAX_NESTING ({MAX_NESTING})\n"
    assert recheck_report(report) == []


def test_prove_prints_a_proof_check_reads_near_the_cap(tmp_path):
    # A is a 397-atom /\ chain; phi1's instance in the proof is at the cap
    chain = " /\\ ".join(["0 = 0"] * (MAX_NESTING - 3))
    code, proof, _ = run_cli("prove", "--goal", f"{chain} -> {chain}", "--axioms", "L12")
    assert code == 0
    path = tmp_path / "proof.txt"
    path.write_text(proof)
    code, out, err = run_cli("check", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("ok ")


@pytest.mark.parametrize("a", [alternating(264), tall_atom(MAX_NESTING - 2)],
                         ids=["alternating", "tall-term"])
def test_check_reads_what_prove_prints_where_full_text_would_not_parse(tmp_path, a):
    # the goal's own text parses, but the proof's formulas, rendered in full,
    # would pass the parser's frame cap; their let lines read back
    code, proof, _ = run_cli("prove", "--goal", render(Implies(a, a)), "--axioms", "L12")
    assert code == 0
    path = tmp_path / "proof.txt"
    path.write_text(proof)
    assert run_cli("check", str(path), "--strict") == (
        0, f"ok 5 steps: {render(Implies(a, a))}\n", ""
    )


@pytest.mark.parametrize("f", [alternating(MAX_NESTING - 2), tall_atom(MAX_NESTING)],
                         ids=["alternating", "tall-term"])
def test_check_reads_a_certificate_whose_formulas_have_no_readable_text(tmp_path, f):
    # the kernel admits f, whose rendered text parse refuses: phi1's instance
    # f -> (0 = 0 -> f) and its conclusion still read and check
    proof = weakening(f)
    path = tmp_path / "proof.txt"
    path.write_text(render_proof_script(proof))
    assert run_cli("check", str(path), "--strict") == (
        0, f"ok 3 steps: {render(proof.conclusion)}\n", ""
    )


def test_check_prints_the_length_of_a_conclusion_longer_than_its_certificate(tmp_path):
    # the conclusion's text would have 11 * 2**40 - 6 characters; a
    # conclusion no longer than the certificate is printed in full
    path = tmp_path / "proof.txt"
    path.write_text(doubling_certificate(40))
    assert run_cli("check", str(path), "--strict") == (
        0, f"ok 1 steps: a conclusion {11 * 2**40 - 6} characters long\n", ""
    )
    text = "0 = 0"
    for _ in range(3):
        text = f"{text} /\\ ({text})"
    path.write_text(doubling_certificate(3))
    assert run_cli("check", str(path), "--strict") == (0, f"ok 1 steps: {text}\n", "")


def _cite_identity_as_l12(b, a):
    return b.add_axiom_named(Implies(a, a), "L12")  # a -> a is no L12 member


def _cite_conjunct_as_l12(b, i, which):
    conj = b.formula(i)
    return b.add_axiom_named(conj.left if which == 1 else conj.right, "L12")


@pytest.mark.parametrize(
    "argv, text, module, name, broken",
    [
        (("audit", "{f}"), f"claim c1 | hyps L12 | goal {render(antecedent_chain(4))}\n",
         transforms, "derive_identity", _cite_identity_as_l12),
        (("prove", "--goal", "0 = 0", "--hyp", "{f}", "--axioms", "L12"),
         "0 = 0 /\\ 1 = 1\n", engine, "derive_andel", _cite_conjunct_as_l12),
    ],
    ids=["audit", "prove"],
)
def test_a_broken_template_is_an_internal_error(tmp_path, monkeypatch, argv, text, module, name, broken):
    # the strict check refuses the engine's proof before anything is printed
    monkeypatch.setattr(module, name, broken)
    f = tmp_path / "input.txt"
    f.write_text(text)
    code, out, err = run_cli(*(a.format(f=f) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: internal: engine produced a proof that fails the strict kernel check at step"
    ), err


def test_closure_dump_to_an_unwritable_path_is_usage_error(tmp_path, hyp_file):
    dump = tmp_path / "no-such-dir" / "out.txt"
    code, _, err = run_cli("closure", "--hyp", hyp_file, "--axioms", "L12", "--dump", str(dump))
    assert code == 2
    assert err == f"error: cannot write {dump}: No such file or directory\n"


def test_audit_report_over_an_existing_file_is_usage_error(tmp_path):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    code, _, err = run_cli("audit", "corollary-4.4", "--report", str(target))
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert target.read_text() == "not a directory\n"


def test_hypothesis_line_reports_its_own_parse_error(tmp_path):
    deep = "~" * 395 + "(0 = 0)"
    hyp = tmp_path / "hyps.txt"
    hyp.write_text(f"{deep} -> (0 = 0 -> {deep})\n")
    code, _, err = run_cli("prove", "--goal", "0 = 0", "--hyp", str(hyp), "--axioms", "L12")
    assert code == 2
    assert err.startswith(f"error: {hyp}:1: bad formula: input nests more than {MAX_NESTING} deep")
    # a line that starts with an identifier still reads as 'name formula'
    hyp.write_text("a1 0 = 0\n1 = 1\n")
    code, out, _ = run_cli("prove", "--goal", "0 = 0", "--hyp", str(hyp), "--axioms", "L12")
    assert code == 0
    assert out.startswith("let d1 = 0 = 0\nhyp a1 d1\nlet d2 = 1 = 1\nhyp h1 d2\n")
