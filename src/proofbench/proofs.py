"""Proof objects, the checking kernel, and the plain-text proof script format.

A proof is a numbered list of steps over a fixed list of named hypotheses.
Each step carries a formula and a justification: hypothesis by name, axiom by
set name, modus ponens from two earlier steps, or generalization over a
variable.  :func:`check_proof` validates every step against a list of axiom-set
recognizers; in strict mode it also refuses generalization over a variable
free in a hypothesis the step depends on.

Scripts serialize proofs one step per line::

    hyp h1 (Ax1)~(1 = x1 + 1) -> (Ax1)(x1 = x1)
    1. (Ax1)(x1 = x1) -> (1 < 1 -> (Ax1)(x1 = x1)) ; axiom L12
    2. ...                                         ; mp 1 3
    3. ...                                         ; gen 2 x2

``#`` comments and blank lines are allowed anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .parser import Memo, ParseError, parse, render
from .schemata import AxiomSetRecognizer
from .syntax import Forall, Formula, Implies, NestingError, free_vars


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

#: A logged step: number, formula, and Hyp | Ax, or the steps mp (i, j) or gen (i,) cites
Record = tuple[int, Formula, Hyp | Ax | tuple[int, ...]]
#: A builder and one of its step numbers: the proof of that step, not yet concluded
Derivation = tuple["ProofBuilder", int]


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

    def hypothesis(self, name: str) -> Formula | None:
        for n, f in self.hypotheses:
            if n == name:
                return f
        return None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of :func:`check_proof`: ok, or the first failing step and why."""

    ok: bool
    step: int | None = None
    reason: str | None = None
    warnings: tuple[str, ...] = ()


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
    ``dangling-ref``.  An axiom step is ``too-deep`` where the recognizer
    would walk its formula, or a term in it, past
    :data:`~proofbench.syntax.MAX_NESTING` (a ``phi11`` candidate built in
    code, say): it refuses with :class:`~proofbench.syntax.NestingError`,
    where walking on would exhaust Python's stack.  Parsed text is never
    that deep.

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
            try:
                if not r.contains(step.formula):
                    reason = "not-axiom"
                    if r.diagnose is not None and r.diagnose(step.formula) == "side-condition":
                        reason = "side-condition"
                    return CheckResult(False, pos, reason)
            except NestingError:
                return CheckResult(False, pos, "too-deep")
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
            if not _positive_int(j.var) or step.formula != Forall(j.var, prev):
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


# -- incremental construction ------------------------------------------


def covering_set(formula: Formula, axioms: Sequence[AxiomSetRecognizer]) -> str | None:
    """The name of the first recognizer in ``axioms`` that contains ``formula``,
    or None: the set a builder cites for an axiom step."""
    for r in axioms:
        if r.contains(formula):
            return r.name
    return None


class ProofBuilder:
    """Grow a proof step by step, reusing steps that restate a formula.

    :meth:`add_axiom` cites the first recognizer in ``axioms`` that contains
    the formula (:func:`covering_set`).  Each step is kept as a
    ``(formula, justification)`` pair: an ``mp`` or ``gen`` step holds the
    builder step numbers it cites as a plain tuple, and hypothesis and axiom
    records are shared (one :class:`Ax` per set name, and a replayed step
    keeps its input's record).  ``prove`` passes a builder and a step number,
    a :data:`Derivation`, between levels; :meth:`records` reads it back.  The
    :class:`ProofStep`, :class:`Mp` and :class:`Gen` records are made when a
    proof is read: :meth:`proof` returns every step logged, and
    :func:`conclude` the proof of one step, once per ``prove``.
    """

    def __init__(
        self,
        hypotheses: tuple[tuple[str, Formula], ...] = (),
        axioms: Sequence[AxiomSetRecognizer] = (),
    ) -> None:
        self.hypotheses = hypotheses
        self.axioms = axioms
        # (formula, Hyp | Ax | (i, j) for mp | (i,) for gen), step k at k - 1
        self._log: list[tuple[Formula, Hyp | Ax | tuple[int, ...]]] = []
        self._index_of: dict[Formula, int] = {}
        self._ax: dict[str, Ax] = {}

    def _add(self, formula: Formula, just: Hyp | Ax | tuple[int, ...]) -> int:
        idx = self._index_of.get(formula)
        if idx is None:
            self._log.append((formula, just))
            self._index_of[formula] = idx = len(self._log)
        return idx

    def idx_of(self, formula: Formula) -> int | None:
        return self._index_of.get(formula)

    def formula(self, idx: int) -> Formula:
        return self._log[idx - 1][0]

    def add_hyp(self, name: str) -> int:
        for n, f in self.hypotheses:
            if n == name:
                return self._add(f, Hyp(name))
        raise KeyError(f"unknown hypothesis {name!r}")

    def add_axiom(self, formula: Formula) -> int:
        set_name = covering_set(formula, self.axioms)
        if set_name is None:
            raise ValueError(f"no axiom set covers: {render(formula)}")
        return self.add_axiom_named(formula, set_name)

    def add_axiom_named(self, formula: Formula, set_name: str) -> int:
        ax = self._ax.get(set_name)
        if ax is None:
            ax = self._ax[set_name] = Ax(set_name)
        return self._add(formula, ax)

    def add_cited(self, formula: Formula, just: Hyp | Ax) -> int:
        """Log ``formula`` under the hypothesis or axiom record ``just``, as
        it is: a replayed step shares its input's record."""
        return self._add(formula, just)

    def add_mp(self, i: int, j: int) -> int:
        major = self.formula(j)
        if not (isinstance(major, Implies) and major.left == self.formula(i)):
            raise ValueError(f"step {j} is not (step {i} -> _)")
        return self._add(major.right, (i, j))

    def add_gen(self, i: int, var: int) -> int:
        # the variable is the new formula's own binder
        return self._add(Forall(var, self.formula(i)), (i,))

    def proof(self) -> Proof:
        return self._proof([(k, *step) for k, step in enumerate(self._log, 1)])

    def records(self, idx: int) -> list[Record]:
        """The steps step ``idx`` depends on, as logged, ascending.  Every
        premise precedes the step that cites it, so one backward pass marks them."""
        log = self._log
        used = [False] * (idx + 1)
        used[idx] = True
        for k in range(idx, 0, -1):
            if used[k]:
                just = log[k - 1][1]
                if type(just) is tuple:
                    for premise in just:
                        used[premise] = True
        return [(k, *log[k - 1]) for k in range(1, idx + 1) if used[k]]

    def _proof(self, records: Sequence[Record]) -> Proof:
        """The steps ``records``, ascending, renumbered 1, 2, ... in order."""
        new = [0] * (len(self._log) + 1)  # builder step number -> output step number
        steps = []
        for k, formula, just in records:
            n = new[k] = len(steps) + 1
            if type(just) is tuple:
                if len(just) == 2:
                    just = Mp(new[just[0]], new[just[1]])
                else:
                    just = Gen(new[just[0]], formula.var)
            steps.append(ProofStep(n, formula, just))
        return Proof(self.hypotheses, tuple(steps))


def conclude(b: ProofBuilder, idx: int) -> Proof:
    """The proof of step ``idx``: the steps it depends on, renumbered in order."""
    return b._proof(b.records(idx))
