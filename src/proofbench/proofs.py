"""The trust root: proof objects, the checker, the script format, the recheck.

A proof is a numbered list of steps over a fixed list of named hypotheses.
Each step carries a formula and a justification: hypothesis by name, axiom by
set name, modus ponens from two earlier steps, or generalization over a
variable.  :func:`check_proof` validates every step against a list of axiom-set
recognizers; in strict mode it also refuses generalization over a variable
free in a hypothesis the step depends on.  :func:`check_certificate` checks a
proof against the sets its own steps cite.

Scripts serialize proofs one step per line::

    hyp h1 (Ax1)~(1 = x1 + 1) -> (Ax1)(x1 = x1)
    1. (Ax1)(x1 = x1) -> (1 < 1 -> (Ax1)(x1 = x1)) ; axiom L12
    2. ...                                         ; mp 1 3
    3. ...                                         ; gen 2 x2

``#`` comments and blank lines are allowed anywhere.

:func:`recheck_report` re-validates a written audit report tree.  This module
and the three it imports (``syntax``, ``parser``, ``schemata``) are all a
re-check runs; proofs are built elsewhere (:mod:`proofbench.transforms`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .parser import Memo, ParseError, parse, render
from .schemata import AxiomSetRecognizer, axiom_set
from .syntax import Forall, Formula, Implies, find, free_vars


@dataclass(frozen=True)
class Hyp:
    """Justification: the named hypothesis."""

    name: str


@dataclass(frozen=True)
class Ax:
    """Justification: member of the named axiom set."""

    set_name: str


@dataclass(frozen=True)
class Mp:
    """Justification: modus ponens from step ``i`` and step ``j`` = (i -> this)."""

    i: int
    j: int


@dataclass(frozen=True)
class Gen:
    """Justification: generalization of step ``i`` over variable ``var``."""

    i: int
    var: int


Justification = Hyp | Ax | Mp | Gen


@dataclass(frozen=True)
class ProofStep:
    index: int  # 1-based position
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Proof:
    """Named hypotheses plus the step list; the conclusion is the last formula."""

    hypotheses: tuple[tuple[str, Formula], ...]
    steps: tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.steps:
            raise ValueError("empty proof has no conclusion")
        return self.steps[-1].formula


@dataclass(frozen=True)
class CheckResult:
    """Outcome of :func:`check_proof`: ok, or the first failing step and why."""

    ok: bool
    step: int | None = None
    reason: str | None = None
    warnings: tuple[str, ...] = ()

    @property
    def at(self) -> str:
        """`` at step N`` where the failure has a step, else nothing."""
        return "" if self.step is None else f" at step {self.step}"


def _positive_int(n: object) -> bool:
    """Whether ``n`` can name a step or a variable: an ``int``, not a bool, >= 1.

    Justifications built in code carry whatever their caller put there, so
    the checker also takes only ``str`` hypothesis and axiom-set names.
    """
    return type(n) is int and n >= 1


def check_proof(
    proof: Proof,
    axioms: tuple[AxiomSetRecognizer, ...],
    strict: bool = False,
) -> CheckResult:
    """Validate every step of ``proof`` against the given axiom sets.

    Failure reasons: ``dangling-ref`` (forward or missing step reference,
    or a step number that is not a positive ``int``), ``bad-mp`` (cited
    steps do not fit), ``bad-gen`` (not the stated generalization, or a
    variable that is not a positive ``int``), ``not-axiom`` (recognizer
    refused; refined to ``side-condition`` when a recognizer diagnostic says
    so); unknown or non-``str`` hypothesis/axiom names also surface as
    ``dangling-ref``.

    In strict mode, generalizing over a variable free in a hypothesis the
    step's derivation uses is ``gen-on-free-hyp-var``; in lax mode the same
    situation is a warning.
    """
    by_name = dict(proof.hypotheses)
    if len(by_name) != len(proof.hypotheses):
        return CheckResult(False, None, "duplicate hypothesis name")
    recog = {r.name: r for r in axioms}
    warnings: list[str] = []
    # hypothesis names each step's derivation depends on, per step index
    deps: dict[int, frozenset[str]] = {}

    for pos, step in enumerate(proof.steps, start=1):
        if step.index != pos:
            return CheckResult(False, pos, "dangling-ref")
        j = step.just
        if isinstance(j, Hyp):
            want = by_name.get(j.name) if type(j.name) is str else None
            if want is None or want != step.formula:
                return CheckResult(False, pos, "dangling-ref")
            deps[pos] = frozenset((j.name,))
        elif isinstance(j, Ax):
            r = recog.get(j.set_name) if type(j.set_name) is str else None
            if r is None:
                return CheckResult(False, pos, "dangling-ref")
            if not r.contains(step.formula):
                reason = r.diagnose(step.formula) if r.diagnose is not None else None
                if reason != "side-condition":
                    reason = "not-axiom"
                return CheckResult(False, pos, reason)
            deps[pos] = frozenset()
        elif isinstance(j, Mp):
            if not (_positive_int(j.i) and _positive_int(j.j) and j.i < pos and j.j < pos):
                return CheckResult(False, pos, "dangling-ref")
            minor = proof.steps[j.i - 1].formula
            major = proof.steps[j.j - 1].formula
            if not (isinstance(major, Implies) and major.left == minor and major.right == step.formula):
                return CheckResult(False, pos, "bad-mp")
            deps[pos] = deps[j.i] | deps[j.j]
        elif isinstance(j, Gen):
            if not (_positive_int(j.i) and j.i < pos):
                return CheckResult(False, pos, "dangling-ref")
            prev = proof.steps[j.i - 1].formula
            # a probe, not a build: Forall(var, prev) may pass the cap
            if not _positive_int(j.var) or step.formula is not find(Forall, j.var, prev):
                return CheckResult(False, pos, "bad-gen")
            deps[pos] = deps[j.i]
            offenders = [
                name
                for name in sorted(deps[pos])
                if j.var in free_vars(by_name[name])
            ]
            if offenders:
                msg = (
                    f"step {pos}: generalizes over x{j.var}, free in hypothesis "
                    f"{offenders[0]!r} used by this derivation"
                )
                if strict:
                    return CheckResult(False, pos, "gen-on-free-hyp-var")
                warnings.append(msg)
        else:
            return CheckResult(False, pos, "dangling-ref")
    return CheckResult(True, warnings=tuple(warnings))


def check_certificate(proof: Proof, strict: bool) -> CheckResult:
    """:func:`check_proof` against the sets ``proof`` cites, looked up in step
    order by :func:`~proofbench.schemata.axiom_set`: an unknown name raises."""
    names = dict.fromkeys(s.just.set_name for s in proof.steps if isinstance(s.just, Ax))
    return check_proof(proof, tuple(axiom_set(n) for n in names), strict)


# -- script format ------------------------------------------------------


class ScriptError(ValueError):
    """Raised on malformed proof scripts, with the offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _number(s: str) -> int | None:
    """``s`` as a decimal number, or None if int() cannot read it.

    ASCII digits only: ``str.isdigit`` also accepts digits such as '²'.
    """
    if s.isascii() and s.isdigit():
        try:
            return int(s)
        except ValueError:  # more digits than int() reads
            pass
    return None


def _justification(words: list[str]) -> Justification | None:
    """The justification ``words`` spell, or None if they spell none."""
    kind, args = words[0], words[1:]
    if kind == "hyp" and len(args) == 1:
        return Hyp(args[0])
    if kind == "axiom" and len(args) == 1:
        return Ax(args[0])
    if kind == "mp" and len(args) == 2:
        i, j = _number(args[0]), _number(args[1])
        if i is not None and j is not None:
            return Mp(i, j)
    if kind == "gen" and len(args) == 2 and args[1].startswith("x"):
        i, var = _number(args[0]), _number(args[1][1:])
        if i is not None and var:  # variable ids start at 1
            return Gen(i, var)
    return None


def parse_proof_script(text: str, memo: Memo | None = None) -> Proof:
    """Read a proof script; ``memo`` (see :func:`~proofbench.parser.parse`) may
    be shared between scripts.

    Every formula is read by ``parse(text, memo)``, whatever the line's
    justification.  The memo keeps each right operand of ``->`` by its text,
    so an ``mp`` line that states its major premise's consequent is one lookup.
    """
    memo = {} if memo is None else memo
    hyps: list[tuple[str, Formula]] = []
    steps: list[ProofStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("hyp ") or line == "hyp":
            if steps:
                raise ScriptError("hypotheses must precede all steps", lineno)
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise ScriptError("expected: hyp <name> <formula>", lineno)
            _, name, ftext = parts
            try:
                hyps.append((name, parse(ftext, memo)))
            except ParseError as e:
                raise ScriptError(f"bad formula: {e}", lineno) from e
            continue
        head, sep, just_text = line.partition(";")
        if not sep:
            raise ScriptError("expected '<n>. <formula> ; <justification>'", lineno)
        head = head.strip()
        num, dot, ftext = head.partition(".")
        index = _number(num.strip())
        if not dot or index is None:
            raise ScriptError("step must start with '<n>.'", lineno)
        try:
            formula = parse(ftext.strip(), memo)
        except ParseError as e:
            raise ScriptError(f"bad formula: {e}", lineno) from e
        words = just_text.split()
        if not words:
            raise ScriptError("missing justification", lineno)
        just = _justification(words)
        if just is None:
            raise ScriptError(f"bad justification {just_text.strip()!r}", lineno)
        steps.append(ProofStep(index, formula, just))
    return Proof(tuple(hyps), tuple(steps))


def render_proof_script(proof: Proof) -> str:
    lines = [f"hyp {name} {render(f)}" for name, f in proof.hypotheses]
    for step in proof.steps:
        j = step.just
        if isinstance(j, Hyp):
            jt = f"hyp {j.name}"
        elif isinstance(j, Ax):
            jt = f"axiom {j.set_name}"
        elif isinstance(j, Mp):
            jt = f"mp {j.i} {j.j}"
        else:
            jt = f"gen {j.i} x{j.var}"
        lines.append(f"{step.index}. {render(step.formula)} ; {jt}")
    return "\n".join(lines) + "\n"


# -- report recheck ------------------------------------------------------

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
UNRESOLVED = "UNRESOLVED"

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: The detail kinds a report row may name, by status: ``details/<id>.<kind>``.
_DETAIL_KINDS = {
    VERIFIED: ("proof", "pos.proof", "eval"),
    REFUTED: ("valuation", "eval"),
    UNRESOLVED: ("budget",),
}


def _read_artifact(path: Path, problems: list[str]) -> str | None:
    """A report file's text, or ``None`` with the reason added to ``problems``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        problems.append(f"{path.name}: unreadable: {exc}")
        return None


def recheck_report(directory: str | Path) -> list[str]:
    """Cold-pass re-validation of a written report; a list of problems.

    Each ``report.tsv`` row must name an existing ``details/<claim-id>.<kind>``
    file whose kind its status allows.  A detail or certificate that is a
    symlink, or that resolves outside ``details/``, is a problem and is not
    read.  Every serialized proof certificate is re-parsed and re-checked in
    strict mode by :func:`check_certificate`, against the axiom sets its
    ``axiom`` steps name, and its conclusion is compared with the recorded
    goal line.  An empty list means the report replays cleanly.
    """
    root = Path(directory)
    problems: list[str] = []
    memo: Memo = {}  # shared by every certificate: each span is parsed once
    tsv_path = root / "report.tsv"
    if not tsv_path.exists():
        return [f"missing {tsv_path}"]
    # every path read is details/<one name>: only a symlink, the file's or
    # details/'s own, can lead out of the tree
    details_linked = (root / "details").is_symlink()
    linked: set[str] = set()  # row details already reported as links
    for line in (_read_artifact(tsv_path, problems) or "").splitlines():
        parts = line.split("\t")
        if len(parts) != 4:
            problems.append(f"malformed report line: {line!r}")
            continue
        cid, status, _steps, detail = parts
        kinds = _DETAIL_KINDS.get(status)
        if kinds is None:
            problems.append(f"{cid}: unknown status {status!r}")
        elif not (_ID_RE.match(cid) and detail in [f"details/{cid}.{k}" for k in kinds]):
            want = f"details/{cid}.<{'|'.join(kinds)}>"
            problems.append(f"{cid}: {status} detail must be {want}, not {detail!r}")
        elif details_linked or (root / detail).is_symlink():
            linked.add(detail)
            problems.append(f"{cid}: detail {detail} is a symlink or resolves outside details/")
        elif not (root / detail).is_file():
            problems.append(f"{cid}: missing detail file {detail}")
    for proof_path in sorted(root.glob("details/*.proof")):
        if details_linked or proof_path.is_symlink():
            if f"details/{proof_path.name}" not in linked:
                problems.append(f"{proof_path.name}: is a symlink or resolves outside details/")
            continue
        text = _read_artifact(proof_path, problems)
        if text is None:
            continue
        goal: Formula | None = None
        first = text.partition("\n")[0]
        if first.startswith("# goal "):
            try:
                goal = parse(first[len("# goal ") :], memo)
            except ParseError as exc:
                problems.append(f"{proof_path.name}: bad goal line: {exc}")
        try:
            proof = parse_proof_script(text, memo)
        except Exception as exc:  # noqa: BLE001 - report, not crash
            problems.append(f"{proof_path.name}: does not parse: {exc}")
            continue
        if not proof.steps:
            problems.append(f"{proof_path.name}: certificate has no steps")
            continue
        try:
            result = check_certificate(proof, strict=True)
        except ValueError as exc:
            problems.append(f"{proof_path.name}: {exc}")
            continue
        if not result.ok:
            problems.append(f"{proof_path.name}: fails re-check{result.at}: {result.reason}")
        elif goal is not None and proof.conclusion != goal:
            problems.append(f"{proof_path.name}: conclusion differs from recorded goal")
    return problems
