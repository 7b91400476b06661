"""Command-line surface for the proof workbench.

Verbs:

``check <proof-file> [--strict]``
    Replay a serialized proof through ``proofs.check_certificate``, against
    the axiom sets its steps cite.  Exit 0 when the proof checks, printing
    its conclusion, or only its length where its text is longer than the
    certificate; 1 when it is rejected or has no steps.

``prove --goal <formula> [--hyp <file>] [--axioms <names>] [--max-steps N]``
    Search for a kernel proof of the goal from the hypotheses and axiom
    sets.  On success the proof, checked strictly, is printed to stdout as a
    script (pipe it to a file and replay it with ``check``); a proof the
    check refuses is an internal error, exit 2.  Otherwise exit 3, naming
    the stop: a fixpoint, the backward depth cap, or the budget running out.

``closure [--hyp <file>] [--axioms <names>] [--max-steps N] [--dump <path>]``
    Saturate the consequence closure of the hypotheses under the axiom
    sets; optionally dump every derived formula to a file.  Exit 3 when
    the budget runs out before a fixpoint.

``taut <file>``
    Decide propositional-skeleton tautology for one formula per line,
    printing ``TAUT`` or ``NONTAUT <falsifying valuation>``.

``audit <script-id|path> [--report <dir>] [--max-steps N]``
    Run a builtin or user-supplied audit script and print the classified
    report; optionally write the full report tree (including re-checkable
    certificates) to a directory.  The printed report is the tree's
    ``report.txt``, and it holds no timing, so repeated runs print the same
    bytes.  ``--deterministic`` is still accepted and has no effect.

``eval --bound N <formula>``
    Evaluate an arithmetic sentence over the bounded standard model,
    printing ``true``, ``false`` (with a counterexample), or ``unknown``.

The module imports only the trust root (``syntax``, ``parser``, ``schemata``,
``proofs``); each other verb imports the modules it runs, so ``check`` loads
nothing that builds or searches for proofs.

Exit codes: 0 success, 1 check/refutation failure, 2 usage or input error
(a formula past ``MAX_NESTING`` included) or an internal error (an engine
proof the strict check refuses), 3 no proof found (``prove``) or no fixpoint
within budget (``closure``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .parser import ParseError, parse, render, render_width
from .proofs import check_certificate, check_proof, parse_proof_script, render_proof_script
from .schemata import AXIOM_SET_NAMES, axiom_set
from .syntax import NestingError, free_vars

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    """Raised for recoverable CLI input problems; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise _UsageError(f"cannot read {path}: not UTF-8 text ({e.reason})") from e


@contextmanager
def _writing(path: str):
    """Report an ``OSError`` the block raises as a failure to write ``path``."""
    try:
        yield
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror or e}") from e


def _parse_formula(text: str) -> "object":
    try:
        return parse(text)
    except ParseError as e:
        raise _UsageError(f"bad formula {text!r}: {e}") from e


def _recognizers(raw: list[str] | None):
    """The axiom sets ``--axioms`` names, each once, in the order first named."""
    names = dict.fromkeys(name for chunk in raw or [] for name in chunk.replace(",", " ").split())
    for name in names:
        if name not in AXIOM_SET_NAMES:
            known = ", ".join(AXIOM_SET_NAMES)
            raise _UsageError(f"unknown axiom set {name!r} (known: {known})")
    return tuple(axiom_set(n) for n in names)


def _load_hypotheses(path: str | None) -> tuple[tuple[str, "object"], ...]:
    """Read hypotheses, one per line: a formula, named ``h1``, ``h2``, ... in
    turn, or ``name formula``, where the name is an identifier."""
    if path is None:
        return ()
    hyps: list[tuple[str, object]] = []
    auto = 0
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            hyps.append((f"h{auto + 1}", parse(line)))
            auto += 1
            continue
        except ParseError as e:
            parts = line.split(None, 1)
            if not parts[0].isidentifier():
                raise _UsageError(f"{path}:{lineno}: bad formula: {e}") from e
        if len(parts) != 2:
            raise _UsageError(f"{path}:{lineno}: expected a formula or 'name formula'")
        name, ftext = parts
        try:
            hyps.append((name, parse(ftext)))
        except ParseError as e:
            raise _UsageError(f"{path}:{lineno}: bad formula: {e}") from e
    seen: set[str] = set()
    for name, _ in hyps:
        if name in seen:
            raise _UsageError(f"{path}: duplicate hypothesis name {name!r}")
        seen.add(name)
    return tuple(hyps)


def _budget(args: argparse.Namespace):
    from .engine import Budget
    max_steps = getattr(args, "max_steps", None)
    if max_steps is None:
        return Budget()
    if max_steps <= 0:
        raise _UsageError("--max-steps must be positive")
    return Budget(max_steps=max_steps)


# ---------------------------------------------------------------------------
# verb implementations


def _cmd_check(args: argparse.Namespace, out, err) -> int:
    text = _read_text(args.proof_file)
    try:
        proof = parse_proof_script(text)
        result = check_certificate(proof, args.strict)
    except ValueError as e:  # a ScriptError, or an unknown axiom set
        raise _UsageError(f"{args.proof_file}: {e}") from e
    if not proof.steps:
        print("FAIL: proof has no steps", file=out)
        return EXIT_FAIL
    for warning in result.warnings:
        print(f"warning: {warning}", file=err)
    if not result.ok:
        at = "" if result.step is None else f" step {result.step}"
        print(f"FAIL{at}: {result.reason}", file=out)
        return EXIT_FAIL
    # a certificate's size does not bound its conclusion's text: print the
    # text only where it is no longer than the certificate
    width = render_width(proof.conclusion)
    shown = render(proof.conclusion) if width <= len(text) else f"a conclusion {width} characters long"
    print(f"ok {len(proof.steps)} steps: {shown}", file=out)
    return EXIT_OK


def _cmd_prove(args: argparse.Namespace, out, err) -> int:
    from .engine import prove
    goal = _parse_formula(args.goal)
    hyps = _load_hypotheses(args.hyp)
    axioms = _recognizers(args.axioms)
    outcome = prove(goal, hyps, axioms, _budget(args))
    if outcome.proof is None:
        print(f"not found: {outcome.report.stop()}", file=err)
        return EXIT_BUDGET
    result = check_proof(outcome.proof, axioms, strict=True)
    if not result.ok:
        raise _UsageError(
            f"internal: engine produced a proof that fails the strict kernel "
            f"check{result.at}: {result.reason}"
        )
    print(
        f"found: {len(outcome.proof.steps)} proof steps, "
        f"{outcome.report.steps_expended} search steps",
        file=err,
    )
    print(render_proof_script(outcome.proof), file=out)
    return EXIT_OK


def _cmd_closure(args: argparse.Namespace, out, err) -> int:
    from .engine import bounded_closure
    hyps = _load_hypotheses(args.hyp)
    axioms = _recognizers(args.axioms)
    state = bounded_closure(hyps, axioms, _budget(args))
    if args.dump is not None:
        lines = [render(f) for f in state.formulas]
        with _writing(args.dump):
            Path(args.dump).write_text("\n".join(lines) + "\n", encoding="utf-8")
    fixpoint = "yes" if state.report.fixpoint else "no"
    print(
        f"derived {len(state)} formulas in {state.report.steps_expended} steps; "
        f"fixpoint: {fixpoint}",
        file=out,
    )
    if state.contradiction is not None:
        a, b = state.contradiction
        print(f"contradiction: {render(a)}  /  {render(b)}", file=out)
    return EXIT_OK if state.report.fixpoint else EXIT_BUDGET


def _cmd_taut(args: argparse.Namespace, out, err) -> int:
    from .semantics import SkeletonLimitError, falsifying_valuation
    for lineno, raw in enumerate(_read_text(args.file).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            f = parse(line)
        except ParseError as e:
            raise _UsageError(f"{args.file}:{lineno}: bad formula: {e}") from e
        try:
            valuation = falsifying_valuation(f)
        except SkeletonLimitError as e:
            raise _UsageError(f"{args.file}:{lineno}: {e}") from e
        if valuation is None:
            print("TAUT", file=out)
        else:
            bits = "; ".join(
                f"{render(atom)} := {1 if value else 0}"
                for atom, value in valuation.items()
            )
            print(f"NONTAUT {bits}", file=out)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace, out, err) -> int:
    from .audit import AuditError, load_script, render_report_text, run_audit, write_report
    from .scripts import builtin_claims, builtin_scripts
    target = args.script
    if target in builtin_scripts():
        script_id = target
        claims = builtin_claims(target)
    else:
        path = Path(target)
        if not path.exists():
            known = ", ".join(builtin_scripts())
            raise _UsageError(
                f"{target!r} is neither a builtin script ({known}) nor a file"
            )
        try:
            claims = load_script(_read_text(target))
        except AuditError as e:
            raise _UsageError(f"{target}: {e}") from e
        script_id = path.stem
    try:
        report = run_audit(script_id, claims, _budget(args))
    except AuditError as e:
        raise _UsageError(str(e)) from e
    print(render_report_text(report), end="", file=out)
    if args.report is not None:
        with _writing(args.report):
            root = write_report(report, args.report)
        print(f"report written to {root}", file=err)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace, out, err) -> int:
    from .semantics import ThreeValued, arith_verdict
    f = _parse_formula(" ".join(args.formula))
    if free_vars(f):
        pretty = ", ".join(f"x{i}" for i in free_vars(f))
        raise _UsageError(f"formula has free variables ({pretty}); a sentence is required")
    if args.bound <= 0:
        raise _UsageError("--bound must be positive")
    verdict, env = arith_verdict(f, args.bound)
    if verdict is ThreeValued.FALSE:
        if env:
            witness = " ".join(f"x{i}={env[i]}" for i in sorted(env))
            print(f"false (counterexample: {witness})", file=out)
        else:
            print("false", file=out)
    else:
        print(verdict.value, file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2) with its own text
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="proofbench",
        description="Hilbert-style first-order proof workbench",
    )
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    p = sub.add_parser("check", help="replay a serialized proof through the kernel")
    p.add_argument("proof_file", help="proof script file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="reject generalization over variables free in hypotheses",
    )
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("prove", help="search for a kernel proof of a goal")
    p.add_argument("--goal", required=True, help="goal formula")
    p.add_argument("--hyp", default=None, help="hypothesis file (one formula per line)")
    p.add_argument("--axioms", nargs="*", default=None, help="axiom set names")
    p.add_argument("--max-steps", type=int, default=None, help="search budget")
    p.set_defaults(run=_cmd_prove)

    p = sub.add_parser("closure", help="saturate the consequence closure")
    p.add_argument("--hyp", default=None, help="hypothesis file (one formula per line)")
    p.add_argument("--axioms", nargs="*", default=None, help="axiom set names")
    p.add_argument("--max-steps", type=int, default=None, help="derivation budget")
    p.add_argument("--dump", default=None, help="write derived formulas to this file")
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("taut", help="decide skeleton tautology, one formula per line")
    p.add_argument("file", help="formula file")
    p.set_defaults(run=_cmd_taut)

    p = sub.add_parser("audit", help="run an audit script and print the report")
    p.add_argument("script", help="builtin script id or script file path")
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="no effect: every report is byte-identical across runs",
    )
    p.add_argument("--report", default=None, help="write the report tree here")
    p.add_argument("--max-steps", type=int, default=None, help="per-claim budget")
    p.set_defaults(run=_cmd_audit)

    p = sub.add_parser("eval", help="evaluate a sentence over a bounded model")
    p.add_argument("--bound", type=int, required=True, help="model size N")
    p.add_argument("formula", nargs="+", help="arithmetic sentence")
    p.set_defaults(run=_cmd_eval)

    return parser


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "run", None) is None:
            parser.print_help(err)
            return EXIT_USAGE
        return args.run(args, out, err)
    except (_UsageError, NestingError) as e:
        print(f"error: {e}", file=err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
