"""The plain ``let`` reader that ``proofs.parse_proof_script`` replaced.

It reads a ``let`` line through ``_let``, one operand at a time through
``_operand``, and re-reads every justification.  The differential test in
``test_proofs.py`` holds the one-pass reader to it: on every input both give
an equal proof, or the same ``ScriptError`` at the same line.  It shares the
helpers the one-pass reader calls on its slow path (``_operand``,
``_formula``, ``_justification``), which that reader did not change.
"""

from functools import partial

from proofbench.parser import _BINDERS
from proofbench.proofs import (_BINARY, _BINDER_RE, _NAME_RE, _UNARY, Proof, ProofStep,
                               ScriptError, _formula, _justification, _number, _operand)
from proofbench.syntax import Formula, NestingError


def _let(words: list[str], names: dict, lineno: int) -> None:
    """Bind the name of a ``let`` line, split into ``words``, to its node."""
    name, body = words[1] if words[2:3] == ["="] else "", words[3:]
    if not (_NAME_RE.fullmatch(name) and 2 <= len(body) <= 3):
        raise ScriptError("expected: let d<n> = <one constructor and its operands>", lineno)
    if name in names:
        raise ScriptError(f"{name} is bound a second time", lineno)
    if len(body) == 3:
        ctor, args, rule = body[1], body[::2], _BINARY.get(body[1])
    else:
        ctor, args, rule = body[0], body[1:], _UNARY.get(body[0])
        binder = rule is None and _BINDER_RE.fullmatch(ctor)
        if binder and _number(binder[2]):  # variable ids start at 1
            rule = (Formula, partial(_BINDERS[binder[1]], _number(binder[2])))
    if rule is None:
        raise ScriptError(f"not one constructor over operands: {ctor[:12]!r}", lineno)
    try:
        names[name] = rule[1](*[_operand(w, rule[0], ctor, names, lineno) for w in args])
    except NestingError as e:
        raise ScriptError(str(e), lineno) from None


def reference_parse_proof_script(text: str) -> Proof:
    """Read a proof script: each ``let`` line in one step, without recursion,
    and formula text through :func:`~proofbench.parser.parse`."""
    names: dict = {}
    hyps: list = []
    steps: list[ProofStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("let ") or line == "let":
            _let(line.split(), names, lineno)
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
        words = just_text.split()
        if not words:
            raise ScriptError("missing justification", lineno)
        just = _justification(words)
        if just is None:
            raise ScriptError(f"bad justification {just_text.strip()!r}", lineno)
        steps.append(ProofStep(index, formula, just))
    return Proof(tuple(hyps), tuple(steps))
