"""The trust root: proof objects, the checker, the script format, the recheck.

A proof is a numbered list of steps over a fixed list of named hypotheses.
Each step carries a formula and a justification: hypothesis by name, axiom by
set name, modus ponens from two earlier steps, or generalization over a
variable.  :func:`check_proof` validates every step against a list of axiom-set
recognizers; in strict mode it also refuses generalization over a variable
free in a hypothesis the step depends on.  :func:`check_certificate` checks a
proof against the sets its own steps cite.

A script has a line per hypothesis and per step.  :func:`render_proof_script`
names each distinct term and formula once, on a ``let`` line that applies one
constructor to earlier names, variables and constants, so reading it needs no
recursion::

    let d1 = x1 = x1
    let d2 = (Ax1) d1
    hyp h1 d2
    1. d2 ; hyp h1

A formula field is a name or formula text (``1. 0 = 0 ; hyp h1``).  ``#``
comments and blank lines are allowed anywhere.  :func:`recheck_report`
re-validates a written audit report tree.  This module and the three it
imports (``syntax``, ``parser``, ``schemata``) are all a re-check runs;
proofs are built elsewhere (:mod:`proofbench.transforms`).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .parser import _BINDERS, _INFIX, ParseError, parse, render, render_width
from .schemata import AxiomSetRecognizer, axiom_set
from .syntax import (App, Atom, Const, Exists, Forall, Formula, Implies, NestingError, Not,
                     Term, Var, find, free_vars)


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


#: how a script spells each justification
_SPELLING = {Hyp: "hyp {0.name}", Ax: "axiom {0.set_name}", Mp: "mp {0.i} {0.j}",
             Gen: "gen {0.i} x{0.var}"}


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


#: a name a ``let`` line binds: no formula text starts with ``d``
_NAME_RE = re.compile(r"d[0-9]+")
_BINDER_RE = re.compile(r"\(([AE])x([0-9]+)\)")
#: a ``let`` line's constructor -> the sort of its operands, and its build
_BINARY = {op.glyph: (op.sort, op.build) for op in _INFIX.values()}
_UNARY = {"~": (Formula, Not), "S": (Term, lambda t: App("S", (t,)))}
_GLYPH = {build: glyph for glyph, (sort, build) in _BINARY.items() if sort is Formula}
_LETTER = {cls: letter for letter, cls in _BINDERS.items()}


def _operand(word: str, sort: type, who: str, names: dict, lineno: int):
    """The node ``word`` stands for: a bound name, ``xK``, ``0`` or ``1``."""
    node = names.get(word)
    if node is None:
        var = _number(word[1:]) if word[:1] == "x" else None
        node = Const(word) if word in ("0", "1") else Var(var) if var else None
        if node is None:
            what = "unknown name" if _NAME_RE.fullmatch(word) else "bad operand"
            raise ScriptError(f"{what} {word[:12]!r}", lineno)
    if not isinstance(node, sort):
        raise ScriptError(f"{who} needs a {sort.__name__.lower()}: {word}", lineno)
    return node


def _formula(text: str, names: dict, lineno: int) -> Formula:
    """A step or ``hyp`` line's formula field: a bound name or formula text."""
    if _NAME_RE.fullmatch(text):
        return _operand(text, Formula, "a formula field", names, lineno)
    try:
        return parse(text)
    except ParseError as e:
        raise ScriptError(f"bad formula: {e}", lineno) from e


def parse_proof_script(text: str) -> Proof:
    """Read a proof script: each ``let`` line in one step, without recursion,
    and formula text through :func:`~proofbench.parser.parse`.  A ``let``
    operand that is no bound name of its sort goes to :func:`_operand`."""
    names: dict[str, Formula | Term] = {}
    get = names.get
    unary = dict(_UNARY)  # plus a rule per binder word read so far
    justs: dict[str, Justification] = {}  # each justification text read so far
    hyps: list[tuple[str, Formula]] = []
    steps: list[ProofStep] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        line = line.strip()
        if not line:
            continue
        if line.startswith("let ") or line == "let":
            words = line.split()
            n = len(words)
            name = words[1] if (n == 6 or n == 5) and words[2] == "=" else ""
            if not _NAME_RE.fullmatch(name):
                raise ScriptError("expected: let d<n> = <one constructor and its operands>", lineno)
            if name in names:
                raise ScriptError(f"{name} is bound a second time", lineno)
            ctor = words[n - 2]
            rule = _BINARY.get(ctor) if n == 6 else unary.get(ctor)
            if rule is None and n == 5:
                binder = _BINDER_RE.fullmatch(ctor)
                if binder and _number(binder[2]):  # variable ids start at 1
                    rule = unary[ctor] = (Formula, partial(_BINDERS[binder[1]], _number(binder[2])))
            if rule is None:
                raise ScriptError(f"not one constructor over operands: {ctor[:12]!r}", lineno)
            sort, build = rule
            if n == 6:
                a = get(words[3])
                if a is None or not isinstance(a, sort):
                    a = _operand(words[3], sort, ctor, names, lineno)
            b = get(words[n - 1])
            if b is None or not isinstance(b, sort):
                b = _operand(words[n - 1], sort, ctor, names, lineno)
            try:
                names[name] = build(a, b) if n == 6 else build(b)
            except NestingError as e:
                raise ScriptError(str(e), lineno) from None
            continue
        if line.startswith("hyp ") or line == "hyp":
            if steps:
                raise ScriptError("hypotheses must precede all steps", lineno)
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise ScriptError("expected: hyp <name> <formula>", lineno)
            hyps.append((parts[1], _formula(parts[2], names, lineno)))
            continue
        head, sep, just_text = line.partition(";")
        if not sep:
            raise ScriptError("expected '<n>. <formula> ; <justification>'", lineno)
        num, dot, ftext = head.partition(".")
        index = _number(num.strip())
        if not dot or index is None:
            raise ScriptError("step must start with '<n>.'", lineno)
        formula = _formula(ftext.strip(), names, lineno)
        just = justs.get(just_text)
        if just is None:
            words = just_text.split()
            if not words:
                raise ScriptError("missing justification", lineno)
            just = _justification(words)
            if just is None:
                raise ScriptError(f"bad justification {just_text.strip()!r}", lineno)
            justs[just_text] = just
        steps.append(ProofStep(index, formula, just))
    return Proof(tuple(hyps), tuple(steps))


def _cite(node, names: dict, lines: list[str]) -> str:
    """``node``'s operand: a variable, a constant or its name, named if new on a
    ``let`` line appended to ``lines`` after those of the nodes it holds, left
    to right; the kernel's cap keeps the recursion within Python's limit."""
    name = names.get(node)
    if name is not None:
        return name
    kind = type(node)
    if kind is Var or kind is Const:
        return node.name if kind is Const else f"x{node.id}"
    if kind is Not:
        spelled = "~ " + _cite(node.body, names, lines)
    elif kind is Forall or kind is Exists:
        spelled = f"({_LETTER[kind]}x{node.var}) " + _cite(node.body, names, lines)
    elif kind is App and node.func == "S":
        spelled = "S " + _cite(node.args[0], names, lines)
    else:
        x, y = node.args if kind is Atom or kind is App else (node.left, node.right)
        a, b = _cite(x, names, lines), _cite(y, names, lines)
        glyph = node.pred if kind is Atom else node.func if kind is App else _GLYPH[kind]
        spelled = f"{a} {glyph} {b}"
    name = names[node] = f"d{len(names) + 1}"
    lines.append(f"let {name} = {spelled}")
    return name


def render_proof_script(proof: Proof) -> str:
    """``proof``'s script: each distinct node named once, before its first use."""
    names: dict = {}  # node -> the name of its let line
    lines: list[str] = []
    for name, f in proof.hypotheses:
        lines.append(f"hyp {name} {_cite(f, names, lines)}")
    for step in proof.steps:
        just = _SPELLING[type(step.just)].format(step.just)
        lines.append(f"{step.index}. {_cite(step.formula, names, lines)} ; {just}")
    return "\n".join(lines) + "\n"


# -- report recheck ------------------------------------------------------

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
UNRESOLVED = "UNRESOLVED"

#: a claim id, whole (``fullmatch``): ``$`` would also match before a final newline
_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

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


def _checked_conclusion(name: str, text: str, problems: list[str]) -> Formula | None:
    """The conclusion of the certificate ``text`` if it re-checks in strict
    mode, else None with the reason added to ``problems``."""
    try:
        proof = parse_proof_script(text)
    except Exception as exc:  # noqa: BLE001 - report, not crash
        problems.append(f"{name}: does not parse: {exc}")
        return None
    if not proof.steps:
        problems.append(f"{name}: certificate has no steps")
        return None
    try:
        result = check_certificate(proof, strict=True)
    except ValueError as exc:
        problems.append(f"{name}: {exc}")
        return None
    if not result.ok:
        problems.append(f"{name}: fails re-check{result.at}: {result.reason}")
        return None
    return proof.conclusion


def _goal_problem(goal: str, conclusion: Formula | None) -> str | None:
    """What is wrong with a ``# goal`` line's text, given the conclusion of a
    certificate that checked (None if it did not).  Text that is ``render``'s
    own is not parsed; ``render`` runs only when its text is as long as the
    line, since a certificate's size does not bound its conclusion's text."""
    if conclusion is not None and render_width(conclusion) == len(goal) and render(conclusion) == goal:
        return None
    try:
        parsed = parse(goal)
    except ParseError as exc:
        return f"bad goal line: {exc}"
    if conclusion is not None and parsed is not conclusion:
        return "conclusion differs from recorded goal"
    return None


def recheck_report(directory: str | Path) -> list[str]:
    """Cold-pass re-validation of a written report; a list of problems.

    Each ``report.tsv`` row must name an existing ``details/<claim-id>.<kind>``
    file whose kind its status allows.  A detail or certificate that is a
    symlink, or that resolves outside ``details/``, is a problem and is not
    read.  Every serialized proof certificate is re-parsed and re-checked in
    strict mode by :func:`check_certificate`, against the axiom sets its
    ``axiom`` steps name, and its conclusion is compared with its ``# goal``
    line, which it must have; a failing certificate's goal line must still
    parse.  A ``pos.proof`` row needs a ``neg.proof`` that
    concludes the negation.  An empty list means the report replays cleanly.
    """
    root = Path(directory)
    problems: list[str] = []
    tsv_path = root / "report.tsv"
    if not tsv_path.exists():
        return [f"missing {tsv_path}"]
    # every path read is details/<one name>: only a symlink, the file's or
    # details/'s own, can lead out of the tree
    details = root / "details"
    details_linked = details.is_symlink()
    try:  # one listing; each entry knows whether it is a link or a file
        with os.scandir(details) as entries:
            listing = {entry.name: entry for entry in entries}
    except OSError:  # no details/ directory to list: every row's file is missing
        listing = {}
    linked: set[str] = set()  # row details already reported as links
    pairs: list[str] = []  # the claims whose rows name a pos.proof
    for line in (_read_artifact(tsv_path, problems) or "").splitlines():
        parts = line.split("\t")
        if len(parts) != 4:
            problems.append(f"malformed report line: {line!r}")
            continue
        cid, status, _steps, detail = parts
        kinds = _DETAIL_KINDS.get(status)
        entry = listing.get(detail.removeprefix("details/"))
        if kinds is None:
            problems.append(f"{cid}: unknown status {status!r}")
        elif not (_ID_RE.fullmatch(cid) and detail in [f"details/{cid}.{k}" for k in kinds]):
            want = f"details/{cid}.<{'|'.join(kinds)}>"
            problems.append(f"{cid}: {status} detail must be {want}, not {detail!r}")
        elif details_linked or entry is not None and entry.is_symlink():
            linked.add(detail)
            problems.append(f"{cid}: detail {detail} is a symlink or resolves outside details/")
        elif entry is None or not entry.is_file():
            problems.append(f"{cid}: missing detail file {detail}")
        elif detail.endswith(".pos.proof"):
            pairs.append(cid)
    concluded: dict[str, Formula] = {}  # certificate name -> its checked conclusion
    for name in sorted(name for name in listing if name.endswith(".proof")):
        if details_linked or listing[name].is_symlink():
            if f"details/{name}" not in linked:
                problems.append(f"{name}: is a symlink or resolves outside details/")
            continue
        text = _read_artifact(details / name, problems)
        if text is None:
            continue
        conclusion = _checked_conclusion(name, text, problems)
        if conclusion is not None:
            concluded[name] = conclusion
        head = text.partition("\n")[0]
        if head.startswith("# goal "):
            problem = _goal_problem(head[len("# goal ") :], conclusion)
        else:  # a certificate that fails is reported already
            problem = None if conclusion is None else "missing goal line"
        if problem:
            problems.append(f"{name}: {problem}")
    for cid in pairs:
        pos, neg = (concluded.get(f"{cid}.{side}.proof") for side in ("pos", "neg"))
        entry = listing.get(f"{cid}.neg.proof")
        # Path.is_file follows a link, and takes a broken or looping one as no file
        if entry is None or not (details / entry.name if entry.is_symlink() else entry).is_file():
            problems.append(f"{cid}: missing detail file details/{cid}.neg.proof")
        elif None not in (pos, neg) and neg is not find(Not, pos):
            problems.append(f"{cid}: neg.proof does not conclude the negation of pos.proof")
    return problems
