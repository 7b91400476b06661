"""Claim auditing: judge claims and write the reports ``proofs.recheck_report`` replays.

An *audit claim* asserts something about the budget-bounded consequence
closure of a hypothesis context (named axiom sets plus finitely many named
sentences).  Four claim shapes exist:

``membership``
    A target sentence is derivable from the context.
``set-equality``
    The context derives every sentence (collapse to the full language).
    Since the calculus contains the explosion schema, collapse is probed
    through its equivalent: some sentence and its negation are both
    derivable.
``contradiction``
    Some sentence and its negation are both derivable from the context.
``sanity``
    The target sentence has no counterexample in the standard numeric
    model below a stated bound.

Every claim receives exactly one verdict:

``VERIFIED``
    A kernel-checked certificate exists (a proof, a proof pair, or a
    completed numeric sweep).
``REFUTED``
    A propositional-skeleton valuation satisfies the context but falsifies
    the target (or, for collapse probes, satisfies the context outright,
    witnessing that no contradiction is reachable), or a numeric
    counterexample exists.
``UNRESOLVED``
    Neither certificate nor countermodel was found within budget.  This in
    particular covers contexts whose skeletons are jointly unsatisfiable
    while the calculus still cannot reach the claimed formula — the
    equivalence connective is not decomposable here, so semantic absurdity
    need not be derivable.

The refutation oracle is *sound relative to the finite premise reading*:
premises are the claim's hypothesis sentences plus every recognized axiom-set
member in the claim's search pool, and skeleton atoms whose formulas are
derivable outright from the axiom sets (members, or universally quantified
prefixes of members, which generalization reaches in one step) are pinned
true before the sweep.  A valuation found under those constraints falsifies
every proof attempt built from pooled axioms and Modus Ponens.  The pool's
hypothesis part is built once per context (:func:`~proofbench.engine.pool_for`),
and whether a formula is derivable outright is kept per formula and axioms
tuple, so a run of claims over one context repeats neither.

The sweep reads the hypotheses and the pooled axiom members as a
propositional skeleton: each quantified subformula is an opaque atom, and
nothing ties ``(Ax)phi`` to ``phi`` (no generalization, no instantiation
outside the pool).  REFUTED is therefore not yet sound on first-order
contexts: ``1 = 1 |- (Ax1)(x1 = x1 -> 1 = 1)`` under ``L12`` is REFUTED
although a four-step proof passes the strict checker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from .engine import MAX_DEPTH, MAX_MEMBER_WIDTH, Budget, bounded_closure, pool_for, prove
from .parser import ParseError, render, render_width
from .parser import parse as parse_formula
from .proofs import REFUTED, UNRESOLVED, VERIFIED, _ID_RE, Proof, check_proof, render_proof_script
from .proofs import recheck_report  # noqa: F401 - re-exported: checks what write_report wrote
from .schemata import (
    AXIOM_SETS,
    BETA0,
    BETA1,
    CACHE_SIZE,
    NAMED_FORMULAS,
    PSI_AXIOMS,
    Q_AXIOMS,
    AxiomSetRecognizer,
    axiom_set,
)
from .semantics import FALSE, SkeletonLimitError, arith_verdict, lowest_row
from .syntax import Forall, Formula, NestingError, free_vars

CLAIM_SHAPES = ("membership", "set-equality", "contradiction", "sanity")


class AuditError(ValueError):
    """A malformed claim, script, or report."""


@dataclass(frozen=True)
class AuditClaim:
    """One judgeable assertion about a hypothesis context.

    ``axiom_names`` name recognizer sets; ``hypotheses`` are (label, sentence)
    pairs, each set and each label at most once, and the hypotheses and the
    goal are sentences.  ``goal`` is required for membership and sanity claims
    and must be absent for collapse/contradiction probes.  ``locus`` is free
    text echoed into reports so a reader can trace the claim to its source
    chain.
    """

    claim_id: str
    shape: str
    axiom_names: tuple[str, ...] = ()
    hypotheses: tuple[tuple[str, Formula], ...] = ()
    goal: Formula | None = None
    locus: str = ""
    eval_bound: int = 50

    def __post_init__(self) -> None:
        if not _ID_RE.match(self.claim_id):
            raise AuditError(f"claim id {self.claim_id!r} is not filesystem-safe")
        if self.shape not in CLAIM_SHAPES:
            raise AuditError(f"unknown claim shape {self.shape!r}")
        if self.shape in ("membership", "sanity") and self.goal is None:
            raise AuditError(f"claim {self.claim_id}: shape {self.shape} needs a goal")
        if self.shape in ("set-equality", "contradiction") and self.goal is not None:
            raise AuditError(f"claim {self.claim_id}: shape {self.shape} takes no goal")
        for i, name in enumerate(self.axiom_names):
            if name not in AXIOM_SETS:
                raise AuditError(f"claim {self.claim_id}: unknown axiom set {name!r}")
            if name in self.axiom_names[:i]:
                raise AuditError(f"claim {self.claim_id}: repeated axiom set {name!r}")
        names = [name for name, _ in self.hypotheses]
        for i, (name, f) in enumerate(self.hypotheses):
            if name in names[:i]:
                raise AuditError(f"claim {self.claim_id}: repeated hypothesis {name!r}")
            _require_sentence(self.claim_id, f"hypothesis {name!r}", f)
        if self.goal is not None:
            _require_sentence(self.claim_id, "goal", self.goal)
        if type(self.eval_bound) is not int or self.eval_bound < 1:
            raise AuditError(
                f"claim {self.claim_id}: eval bound {self.eval_bound!r} is not a positive integer"
            )


def _require_sentence(claim_id: str, what: str, f: Formula) -> None:
    if free_vars(f):
        pretty = ", ".join(f"x{i}" for i in free_vars(f))
        raise AuditError(f"claim {claim_id}: {what} has free variables ({pretty})")


@dataclass(frozen=True)
class AuditVerdict:
    """The judged outcome of one claim, with its supporting artifact."""

    claim: AuditClaim
    status: str
    proofs: tuple[Proof, ...] = ()
    valuation: tuple[tuple[Formula, bool], ...] | None = None
    steps: int = 0
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    script_id: str
    verdicts: tuple[AuditVerdict, ...]
    budget: Budget

    @property
    def counts(self) -> dict[str, int]:
        out = {VERIFIED: 0, REFUTED: 0, UNRESOLVED: 0}
        for v in self.verdicts:
            out[v.status] += 1
        return out


# -- derivability shortcuts ---------------------------------------------


def derivable_outright(f: Formula, axioms: Iterable[AxiomSetRecognizer]) -> bool:
    """Whether ``f`` is an axiom-set member or a universal prefix of one.

    Generalization turns any member into each of its universally quantified
    prefixes, so such formulas are derivable with no hypotheses at all.
    """
    return _derivable_outright(f, tuple(axioms))


@lru_cache(maxsize=CACHE_SIZE)
def _derivable_outright(f: Formula, axioms: tuple[AxiomSetRecognizer, ...]) -> bool:
    """:func:`derivable_outright`, kept per formula and axioms tuple: the
    sweeps of a run of claims over one context pin the same atoms."""
    g = f
    while True:
        if any(r.contains(g) for r in axioms):
            return True
        if isinstance(g, Forall):
            g = g.body
            continue
        return False


def _context_recognizers(claim: AuditClaim) -> tuple[AxiomSetRecognizer, ...]:
    return tuple(axiom_set(n) for n in claim.axiom_names)


def _semantic_premises(
    hyps: tuple[tuple[str, Formula], ...],
    axioms: tuple[AxiomSetRecognizer, ...],
    goal: Formula | None,
) -> list[Formula]:
    """Hypotheses plus every recognized axiom-set member in the search pool.

    This is exactly the stock of non-tautological axiom steps a bounded
    derivation from this context can draw on, so a valuation satisfying all
    of them bounds what is derivable.
    """
    premises = [f for _, f in hyps]
    pool = pool_for(tuple(premises), axioms, goal)
    seen = set(premises)
    return premises + [f for f, _ in pool.axioms if f not in seen]


def refutation_valuation(
    premises: list[Formula],
    goal: Formula | None,
    axioms: tuple[AxiomSetRecognizer, ...],
) -> tuple[tuple[Formula, bool], ...] | None:
    """A skeleton valuation satisfying ``premises`` and falsifying ``goal``.

    With ``goal`` None this is a plain satisfiability probe.  Atoms standing
    for formulas derivable outright from the axiom sets are pinned true.
    Returns None when no such valuation exists (or the sweep would be wider
    than the atom cap allows).
    """
    try:
        return lowest_row(premises, goal, pinned=lambda a: derivable_outright(a, axioms))
    except SkeletonLimitError:
        return None


# -- judging ------------------------------------------------------------


def _strict_check(proofs: tuple[Proof, ...], axioms: tuple[AxiomSetRecognizer, ...]) -> int:
    """Strictly check the engine's proofs, the one check each gets before a
    verdict keeps it; their total number of steps."""
    for proof in proofs:
        result = check_proof(proof, axioms, strict=True)
        if not result.ok:
            raise AuditError(
                f"internal: engine produced a proof that fails the strict kernel "
                f"check{result.at}: {result.reason}"
            )
    return sum(len(proof.steps) for proof in proofs)


def _judge_membership(claim: AuditClaim, budget: Budget) -> AuditVerdict:
    axioms = _context_recognizers(claim)
    goal = claim.goal
    assert goal is not None
    hyp_formulas = {f for _, f in claim.hypotheses}
    # Hypothesis members and outright-derivable targets can never be refuted;
    # go straight to proof search.
    if goal not in hyp_formulas and not derivable_outright(goal, axioms):
        premises = _semantic_premises(claim.hypotheses, axioms, goal)
        val = refutation_valuation(premises, goal, axioms)
        if val is not None:
            return AuditVerdict(
                claim,
                REFUTED,
                valuation=val,
                detail="context-satisfying skeleton valuation falsifies the target",
            )
    outcome = prove(goal, claim.hypotheses, axioms, budget)
    if outcome.proof is not None:
        steps = _strict_check((outcome.proof,), axioms)
        return AuditVerdict(
            claim,
            VERIFIED,
            proofs=(outcome.proof,),
            steps=steps,
            detail=f"proof with {steps} steps",
        )
    return AuditVerdict(
        claim,
        UNRESOLVED,
        steps=outcome.report.steps_expended,
        detail=outcome.report.stop(),
    )


def _judge_collapse(claim: AuditClaim, budget: Budget) -> AuditVerdict:
    axioms = _context_recognizers(claim)
    premises = _semantic_premises(claim.hypotheses, axioms, None)
    val = refutation_valuation(premises, None, axioms)
    if val is not None:
        what = (
            "collapse to the full language"
            if claim.shape == "set-equality"
            else "a derivable contradiction"
        )
        return AuditVerdict(
            claim,
            REFUTED,
            valuation=val,
            detail=f"the context has a satisfying skeleton valuation, ruling out {what}",
        )
    closure = bounded_closure(claim.hypotheses, axioms, budget)
    if closure.contradiction is not None:
        proofs = tuple(closure.proof_of(f) for f in closure.contradiction)
        return AuditVerdict(
            claim,
            VERIFIED,
            proofs=proofs,
            steps=_strict_check(proofs, axioms),
            detail=f"contradiction pair on {render(closure.contradiction[0])}",
        )
    return AuditVerdict(
        claim,
        UNRESOLVED,
        steps=closure.report.steps_expended,
        detail=(
            "context skeletons are jointly unsatisfiable, yet no contradiction "
            "pair was derivable within budget"
        ),
    )


def _judge_sanity(claim: AuditClaim) -> AuditVerdict:
    goal = claim.goal
    assert goal is not None
    verdict, env = arith_verdict(goal, claim.eval_bound)
    if verdict is FALSE:
        assignment = ", ".join(f"x{k}={v}" for k, v in sorted((env or {}).items()))
        return AuditVerdict(
            claim,
            REFUTED,
            detail=(
                f"false in the standard model at bound {claim.eval_bound}"
                + (f" under {assignment}" if assignment else "")
            ),
        )
    return AuditVerdict(
        claim,
        VERIFIED,
        detail=f"no counterexample below bound {claim.eval_bound} ({verdict.value})",
    )


def run_claim(claim: AuditClaim, budget: Budget | None = None) -> AuditVerdict:
    """Judge a single claim.  Deterministic for a fixed claim and budget.

    A claim whose judging would build a node past the nesting cap is
    UNRESOLVED, with no steps and the kernel's refusal as its detail.
    """
    budget = budget or Budget()
    try:
        if claim.shape == "membership":
            return _judge_membership(claim, budget)
        if claim.shape in ("set-equality", "contradiction"):
            return _judge_collapse(claim, budget)
        return _judge_sanity(claim)
    except NestingError as exc:
        return AuditVerdict(claim, UNRESOLVED, detail=str(exc))


def run_audit(
    script_id: str,
    claims: list[AuditClaim],
    budget: Budget | None = None,
) -> AuditReport:
    """Judge every claim in order and collect the results."""
    budget = budget or Budget()
    seen: set[str] = set()
    for c in claims:
        if c.claim_id in seen:
            raise AuditError(f"duplicate claim id {c.claim_id!r}")
        seen.add(c.claim_id)
    verdicts = tuple(run_claim(c, budget) for c in claims)
    return AuditReport(script_id, verdicts, budget)


# -- claim scripts ------------------------------------------------------

#: The names a ``set`` line may bind: the tokens a ``hyps`` or ``goal`` field reads.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: The sentence constants every script can name, and no ``set`` line rebinds.
_SENTENCES: dict[str, Formula] = {
    **PSI_AXIOMS,
    **Q_AXIOMS,
    **NAMED_FORMULAS,
    "beta0": BETA0,
    "beta1": BETA1,
}

#: The fields a ``claim`` line takes, each at most once.
_FIELDS = ("hyps", "shape", "goal", "locus")


def _load_goal(body: str, names: Mapping[str, Formula | None]) -> Formula:
    """The goal a claim's ``goal`` field names or spells out."""
    if not _NAME_RE.fullmatch(body):
        return parse_formula(body)
    if body in AXIOM_SETS:
        raise AuditError(f"goal {body!r} names an axiom set, not a formula")
    if body not in names:
        raise AuditError(f"unknown goal token {body!r}")
    return names[body]


def _load_claim(text: str, names: Mapping[str, Formula | None]) -> AuditClaim:
    """The claim of one ``claim`` line, its directive word cut off; ``names``
    maps each token to its sentence, or to None for an axiom-set name."""
    claim_id, *parts = (p.strip() for p in text.split("|"))
    fields: dict[str, str] = {}
    for part in parts:
        word, _, body = part.partition(" ")
        if word not in _FIELDS or not body:
            raise AuditError(f"unknown claim field {part!r}")
        if word in fields:
            raise AuditError(f"claim {claim_id!r} repeats the {word} field")
        fields[word] = body.strip()
    axiom_names: list[str] = []
    hypotheses: list[tuple[str, Formula]] = []
    for token in fields.get("hyps", "").replace(",", " ").split():
        if token not in names:
            raise AuditError(f"unknown hypothesis token {token!r}")
        f = names[token]
        if f is None:
            axiom_names.append(token)
        else:
            hypotheses.append((token, f))
    goal = _load_goal(fields["goal"], names) if "goal" in fields else None
    return AuditClaim(
        claim_id,
        fields.get("shape", "membership"),
        tuple(axiom_names),
        tuple(hypotheses),
        goal,
        fields.get("locus", ""),
    )


def load_script(text: str) -> list[AuditClaim]:
    """Parse a claim script.

    Grammar, one directive per line::

        set <name> <formula-text>
        claim <id> | shape <shape> | hyps <token>, ... | goal <formula-or-name> | locus <text>

    A ``#`` starts a comment, unless a ``locus`` field has begun before it
    on its line: there it is locus text.  A token names an axiom set, a
    sentence constant, or a name an earlier ``set`` line bound; ``set``
    binds or overrides an identifier that is neither of the first two.  A
    claim's id is not an earlier claim's, and a claim takes each field at
    most once; ``shape`` is one of :data:`CLAIM_SHAPES` and defaults to
    ``membership``, and the shape says whether the claim takes a ``goal``.
    Every failure is an :class:`AuditError` that starts ``line <n>: ``.
    """
    names: dict[str, Formula | None] = {**dict.fromkeys(AXIOM_SETS), **_SENTENCES}
    claims: dict[str, AuditClaim] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        head = raw.partition("#")[0]
        line = (raw if re.search(r"\|\s*locus ", head) else head).strip()
        if not line:
            continue
        try:
            if line.startswith("set "):
                parts = line[4:].strip().split(None, 1)
                if len(parts) != 2:
                    raise AuditError("set needs a name and a formula")
                name, body = parts
                if not _NAME_RE.fullmatch(name):
                    raise AuditError(f"cannot set {name!r}, which no field can read")
                if name in AXIOM_SETS:
                    raise AuditError(f"cannot set {name!r}, an axiom-set name")
                if name in _SENTENCES:
                    raise AuditError(f"cannot set {name!r}, a sentence constant")
                names[name] = parse_formula(body)
            elif line.startswith("claim "):
                claim = _load_claim(line[6:], names)
                if claim.claim_id in claims:
                    raise AuditError(f"duplicate claim id {claim.claim_id!r}")
                claims[claim.claim_id] = claim
            else:
                raise AuditError(f"expected 'set' or 'claim', got {line!r}")
        except (AuditError, ParseError) as exc:
            raise AuditError(f"line {lineno}: {exc}") from exc
    return list(claims.values())


# -- report serialization ------------------------------------------------


def _detail_files(verdict: AuditVerdict) -> list[tuple[str, str]]:
    """(relative path, content) pairs for one verdict's artifacts."""
    cid = verdict.claim.claim_id
    out: list[tuple[str, str]] = []
    if verdict.status == VERIFIED and verdict.proofs:
        if len(verdict.proofs) == 1:
            goal_line = "" if verdict.claim.goal is None else f"# goal {render(verdict.claim.goal)}\n"
            out.append(
                (f"details/{cid}.proof", goal_line + render_proof_script(verdict.proofs[0]))
            )
        else:
            for side, p in zip(("pos", "neg"), verdict.proofs, strict=True):
                text = f"# goal {render(p.conclusion)}\n" + render_proof_script(p)
                out.append((f"details/{cid}.{side}.proof", text))
    elif verdict.status == VERIFIED:
        out.append((f"details/{cid}.eval", f"{verdict.detail}\n"))
    elif verdict.status == REFUTED:
        if verdict.valuation is not None:
            lines = [f"{render(a)}\t{int(b)}" for a, b in verdict.valuation]
            out.append((f"details/{cid}.valuation", "\n".join(lines) + "\n"))
        else:
            out.append((f"details/{cid}.eval", f"{verdict.detail}\n"))
    else:
        out.append((f"details/{cid}.budget", f"{verdict.detail}\n"))
    return out


def render_report_text(report: AuditReport) -> str:
    """The human-readable report body (the content of report.txt)."""
    counts = report.counts
    lines = [
        f"audit: {report.script_id}",
        f"claims: {len(report.verdicts)}"
        f"  verified: {counts[VERIFIED]}"
        f"  refuted: {counts[REFUTED]}"
        f"  unresolved: {counts[UNRESOLVED]}",
        f"budget: max_steps={report.budget.max_steps} max_depth={MAX_DEPTH} deterministic=yes",
        "-" * 72,
    ]
    for v in report.verdicts:
        width = 0 if v.claim.goal is None else render_width(v.claim.goal)
        target = render(v.claim.goal) if 0 < width <= MAX_MEMBER_WIDTH else v.claim.shape
        if width > MAX_MEMBER_WIDTH:  # a goal too wide for the pool: UNRESOLVED, named by width
            target = f"a goal {width} characters long"
        lines.append(f"{v.claim.claim_id}\t{v.status}\tsteps={v.steps}\t{target}")
        if v.claim.locus:
            lines.append(f"\tlocus: {v.claim.locus}")
        if v.detail:
            lines.append(f"\tdetail: {v.detail}")
    lines.append("-" * 72)
    lines.append(
        f"totals: verified={counts[VERIFIED]} refuted={counts[REFUTED]} "
        f"unresolved={counts[UNRESOLVED]}"
    )
    return "\n".join(lines) + "\n"


def write_report(report: AuditReport, directory: str | Path) -> Path:
    """Write report.txt, report.tsv, and per-claim detail files.

    The tree holds no timing, so two runs over the same claims and budget
    produce byte-identical trees.
    """
    root = Path(directory)
    (root / "details").mkdir(parents=True, exist_ok=True)
    (root / "report.txt").write_text(render_report_text(report))

    tsv = []
    for v in report.verdicts:
        files = _detail_files(v)
        tsv.append(f"{v.claim.claim_id}\t{v.status}\t{v.steps}\t{files[0][0]}")
        for rel, content in files:
            (root / rel).write_text(content)
    (root / "report.tsv").write_text("\n".join(tsv) + "\n")
    return root
