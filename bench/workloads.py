"""The three seeded workloads, each a fixed pass of items run through the public API.

A workload's constructor is its set-up: it generates every input from the
seed and builds the recognizers.  :meth:`run_pass` judges each item once,
closed loop, and checks every output against answers computed here,
independently of the program.  Product calls go through module attributes
(``audit.run_claim``, ``engine.prove``, ...) so that a traced run sees them.
"""

from __future__ import annotations

import itertools
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from proofbench import audit, engine, semantics
from proofbench.parser import parse
from proofbench.proofs import Proof, check_proof, parse_proof_script
from proofbench.schemata import axiom_set
from proofbench.scripts import builtin_claims, builtin_scripts
from proofbench.syntax import And, App, Atom, Const, Formula, Iff, Implies, Not, Or

import oracle
from speed import SPEED, Timing

HERE = Path(__file__).resolve().parent


@dataclass
class PassResult:
    """One pass: per-item latencies, failures, and the work it produced.

    Items come in the same order on every pass, so latencies line up by
    index across passes.  ``writes`` and ``rechecks`` hold, per report, the
    ``write_report`` and ``recheck_report`` calls.  All are
    :class:`~speed.Timing` values, scaled when the run is over.
    """

    latencies: list[Timing] = field(default_factory=list)
    groups: list[str] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)  # certificate steps per item
    failures: dict[str, str] = field(default_factory=dict)
    writes: list[Timing] = field(default_factory=list)
    rechecks: list[Timing] = field(default_factory=list)
    proof_steps: int = 0
    certificates: list[Proof] = field(default_factory=list)

    def item(self, group: str, timing: Timing, size: int = 0) -> None:
        self.latencies.append(timing)
        self.groups.append(group)
        self.sizes.append(size)

    @property
    def work_s(self) -> float:
        """Unscaled seconds of product calls in the pass."""
        return sum(t.wall for t in (*self.latencies, *self.writes, *self.rechecks))

    def fail(self, item: str, why: str) -> None:
        self.failures.setdefault(item, why)


def read_table(name: str) -> list[list[str]]:
    rows = []
    for line in (HERE / name).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            rows.append(line.split("\t"))
    return rows


def numeral(k: int) -> App | Const:
    t: App | Const = Const("0")
    for _ in range(k):
        t = App("S", (t,))
    return t


# -- chain-audit ------------------------------------------------------------


class ChainAudit:
    """The 113 derivation-chain claims, judged, written, re-read and rechecked."""

    name = "chain-audit"

    def __init__(self, seed: int, workdir: Path) -> None:
        scripts = [s for s in builtin_scripts() if s != "axiom-sanity"]
        random.Random(seed).shuffle(scripts)
        self.order = scripts
        self.claims = {s: builtin_claims(s) for s in scripts}
        self.expected = {(s, c): status for s, c, status in read_table("expected_chain.tsv")}
        self.workdir = workdir
        self.items = sum(len(c) for c in self.claims.values())

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for script in self.order:
            verdicts = []
            for claim in self.claims[script]:
                key = f"{script}/{claim.claim_id}"
                tracer.item = key
                v, dt, exc = SPEED.timed(lambda: audit.run_claim(claim, engine.Budget()))
                if exc is not None:
                    res.item(script, dt)
                    res.fail(key, f"raised {exc!r}")
                else:
                    res.item(script, dt, sum(len(p.steps) for p in v.proofs))
                    verdicts.append(v)
            tracer.item = script
            directory = self.workdir / script
            shutil.rmtree(directory, ignore_errors=True)
            report = audit.AuditReport(script, tuple(verdicts), engine.Budget())
            _, write, exc = SPEED.timed(lambda: audit.write_report(report, directory))
            if exc is not None:
                raise exc
            problems, recheck, exc = SPEED.timed(lambda: audit.recheck_report(directory))
            if exc is not None:
                raise exc
            res.writes.append(write)
            res.rechecks.append(recheck)
            res.proof_steps += sum(len(p.steps) for v in verdicts for p in v.proofs)
            res.certificates.extend(p for v in verdicts for p in v.proofs)
            with tracer.paused():
                self._check(script, verdicts, directory, problems, res)
        return res

    def _check(self, script, verdicts, directory: Path, problems, res: PassResult) -> None:
        for v in verdicts:
            key = f"{script}/{v.claim.claim_id}"
            want = self.expected.get((script, v.claim.claim_id))
            if v.status != want:
                res.fail(key, f"verdict {v.status}, expected {want}")
                continue
            why = _check_evidence(v, directory)
            if why:
                res.fail(key, why)
        for problem in problems:
            cid = problem.split(":", 1)[0]
            for suffix in (".pos.proof", ".neg.proof", ".proof"):
                cid = cid.removesuffix(suffix)
            res.fail(f"{script}/{cid}", f"recheck_report: {problem}")
        if len(verdicts) != len(self.claims[script]):
            res.fail(script, "a claim raised, so its report is incomplete")


def _check_evidence(v, directory: Path) -> str | None:
    """Why the written evidence for verdict ``v`` does not stand, or None."""
    claim = v.claim
    details = directory / "details"
    if v.status == audit.VERIFIED and claim.shape != "sanity":
        names = ["proof"] if claim.shape == "membership" else ["pos.proof", "neg.proof"]
        recognizers = tuple(axiom_set(n) for n in claim.axiom_names)
        allowed = set(claim.hypotheses)
        concl = []
        for suffix in names:
            proof = parse_proof_script((details / f"{claim.claim_id}.{suffix}").read_text())
            if not set(proof.hypotheses) <= allowed:
                return f"{suffix} cites a hypothesis outside the claim"
            result = check_proof(proof, recognizers, strict=True)
            if not result.ok:
                return f"{suffix} fails strict check at step {result.step}: {result.reason}"
            concl.append(proof.conclusion)
        if claim.shape == "membership" and concl[0] != claim.goal:
            return "proof does not conclude the goal"
        if claim.shape != "membership" and concl[1] != Not(concl[0]):
            return "proof pair is not a contradiction"
        return None
    if v.status == audit.REFUTED and claim.shape != "sanity":
        valuation = {}
        for line in (details / f"{claim.claim_id}.valuation").read_text().splitlines():
            text, bit = line.rsplit("\t", 1)
            valuation[parse(text)] = bit == "1"
        try:
            if not all(oracle.evaluate(f, valuation) for _, f in claim.hypotheses):
                return "valuation falsifies a hypothesis"
            if claim.goal is not None and oracle.evaluate(claim.goal, valuation):
                return "valuation satisfies the goal"
        except KeyError:
            return "valuation leaves a skeleton atom unassigned"
        return None
    if v.status == audit.UNRESOLVED and not (details / f"{claim.claim_id}.budget").is_file():
        return "missing budget stamp"
    return None


# -- nested-prove -----------------------------------------------------------

#: goals per pass by chain length n: mostly small, with a tail at n=5
NESTED_MIX = ((3, 88), (4, 11), (5, 1))


def antecedent_orders(n: int, count: int) -> list[tuple[int, ...]]:
    """The antecedent orders of the ``count`` goals of length n.

    A goal's cost depends strongly on the order of its antecedents (at n=4
    the dearest order takes about 2.3x as long as the cheapest), so orders
    drawn afresh from each seed would change the mix of work from seed to
    seed.  So every seed uses the same orders: all n! of them in a fixed
    shuffled sequence, repeated as needed.
    """
    orders = list(itertools.permutations(range(n)))
    random.Random(n).shuffle(orders)
    return [orders[i % len(orders)] for i in range(count)]


def nested_goal(n: int, order: tuple[int, ...], rng: random.Random) -> Formula:
    """``a1 -> (a1->a2) -> ... -> an`` with the antecedents in ``order``.

    Atom i is ``S^l(0) = S^r(0)`` with odd left and even right numeral sizes
    up to 2n, seeded permutations of fixed lists, so atoms are distinct
    and every goal of one length has the same total size.
    """
    lefts = list(range(1, 2 * n, 2))
    rights = list(range(2, 2 * n + 1, 2))
    rng.shuffle(lefts)
    rng.shuffle(rights)
    atoms = [Atom("=", (numeral(a), numeral(b))) for a, b in zip(lefts, rights)]
    chain = [atoms[0]] + [Implies(atoms[i], atoms[i + 1]) for i in range(n - 1)]
    antecedents = [chain[i] for i in order]
    goal: Formula = atoms[-1]
    for a in reversed(antecedents):
        goal = Implies(a, goal)
    return goal


class NestedProve:
    """Seeded ``prove`` calls on nested implication chains, L12 only."""

    name = "nested-prove"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.goals = [(n, nested_goal(n, order, rng))
                      for n, count in NESTED_MIX for order in antecedent_orders(n, count)]
        rng.shuffle(self.goals)
        self.axioms = (axiom_set("L12"),)
        self.items = len(self.goals)

    def verify_inputs(self) -> list[str]:
        """Every goal must be a tautology by the independent truth table."""
        bad = []
        for i, (n, g) in enumerate(self.goals):
            _atoms, (vec,), full = oracle.truth_tables([g])
            if vec != full:
                bad.append(f"goal {i} (n={n}) is not a tautology")
        return bad

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for i, (n, goal) in enumerate(self.goals):
            key = f"goal{i}/n{n}"
            tracer.item = key
            out, dt, exc = SPEED.timed(lambda: engine.prove(goal, (), self.axioms, engine.Budget()))
            if exc is not None or out.proof is None:
                res.item(f"n={n}", dt)
                res.fail(key, f"raised {exc!r}" if exc is not None else "no proof found")
                continue
            res.item(f"n={n}", dt, len(out.proof.steps))
            res.proof_steps += len(out.proof.steps)
            res.certificates.append(out.proof)
            with tracer.paused():
                result = check_proof(out.proof, self.axioms, strict=True)
            if not result.ok:
                res.fail(key, f"proof fails strict check at step {result.step}: {result.reason}")
            elif out.proof.conclusion != goal or out.proof.hypotheses:
                res.fail(key, "proof does not conclude the goal from no hypotheses")
        return res


# -- oracles ----------------------------------------------------------------

#: skeleton queries per pass: (kind, valid by construction, atoms).  Half are
#: valid and need a full sweep of 2**k rows: one 18- and one 16-atom sweep,
#: a block of twelve 14-atom ones that holds the pass's 90th percentile, and
#: small ones.  The other half are invalid; their sweeps stop early and stay
#: below the 14-atom block.
ORACLE_QUERIES = (
    ("single", True, 18),
    ("single", True, 16),
    *(("single", True, 14) for _ in range(12)),
    *(("single", True, 12) for _ in range(6)),
    *(("entails", True, k) for k in (12, 13) for _ in range(9)),
    *((kind, False, k) for k in range(12, 17) for kind in ("single", "entails")
      for _ in range(3)),
    *(("single", False, k) for k in (17, 18) for _ in range(4)),
)
#: an invalid query's only countermodel has atoms [a, a+3) true and all others
#: false, with a = k - 6, so the sweep stops after 7/64 of its rows
_BLOCK, _TAIL = 3, 3


def _tree(rng: random.Random, leaves: list[Formula], connective, nots: int = 0) -> Formula:
    """A random binary tree of ``connective`` keeping the leaves' order.

    ``nots`` of its internal nodes, chosen at random, are negated.
    """
    nodes = list(leaves)
    negate = [True] * nots + [False] * (len(nodes) - 1 - nots)
    rng.shuffle(negate)
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        node = connective(nodes[i], nodes[i + 1])
        nodes[i : i + 2] = [Not(node) if negate.pop() else node]
    return nodes[0]


def _parity(rng: random.Random, leaves: list[Formula]) -> Formula:
    # Iff and Not only: true on exactly half the rows, and every node is
    # evaluated on every row, so a sweep's cost depends only on the size
    leaves = list(leaves)
    rng.shuffle(leaves)
    return _tree(rng, leaves, Iff, nots=len(leaves) // 4)


@dataclass
class SkeletonQuery:
    kind: str  # "single": falsifying_valuation(goal); "entails": skeleton_entails
    atoms: int
    premises: list[Formula]
    goal: Formula
    expected: dict[Formula, bool] | None  # the lowest countermodel row, if any


def skeleton_query(kind: str, valid: bool, k: int, rng: random.Random) -> SkeletonQuery:
    """A query over k distinct closed equations; the oracle gives its answer.

    Valid: ``g -> (h -> g)``, or ``g, g -> h`` entail ``h``, for parity
    formulas g and h over the two halves of the atoms.  Invalid: a formula
    false on one row only, ``A1 \\/ ~B \\/ A2`` with A1 and A2 disjunctions
    and B a conjunction, whose atoms come in that order; the entailment form
    adds a premise over A1 that holds on that row.
    """
    pairs = rng.sample([(a, b) for a in range(12) for b in range(12) if a != b], k)
    atoms = [Atom("=", (numeral(a), numeral(b))) for a, b in pairs]
    if valid:
        g, h = _parity(rng, atoms[: k // 2]), _parity(rng, atoms[k // 2 :])
        premises, goal = ([], Implies(g, Implies(h, g))) if kind == "single" else ([g, Implies(g, h)], h)
    else:
        a = k - _BLOCK - _TAIL
        a1, b, a2 = atoms[:a], atoms[a : a + _BLOCK], atoms[a + _BLOCK :]
        goal = Or(_tree(rng, a1, Or), Or(Not(_tree(rng, b, And)), _tree(rng, a2, Or)))
        premises = []
        if kind == "entails":
            p = _parity(rng, a1)
            premises = [p if oracle.evaluate(p, dict.fromkeys(a1, False)) else Not(p)]
    order, row = oracle.lowest_countermodel(premises, goal)
    want = None if valid else sum(1 << i for i in range(k - _BLOCK - _TAIL, k - _TAIL))
    if len(order) != k or row != want:
        raise AssertionError(f"generated {kind} query has countermodel row {row}, not {want}")
    expected = None if row is None else oracle.row_valuation(order, row)
    return SkeletonQuery(kind, k, premises, goal, expected)


class Oracles:
    """The axiom-sanity claims plus seeded skeleton queries."""

    name = "oracles"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        sanity = builtin_claims("axiom-sanity")
        self.expected = {c: (status, value) for c, status, value in read_table("expected_sanity.tsv")}
        queries = [skeleton_query(kind, valid, k, rng) for kind, valid, k in ORACLE_QUERIES]
        self.work: list = [*sanity, *queries]
        rng.shuffle(self.work)
        self.items = len(self.work)

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for i, item in enumerate(self.work):
            if isinstance(item, SkeletonQuery):
                key = f"query{i}/{item.kind}/k{item.atoms}"
                tracer.item = key
                out, dt, exc = SPEED.timed(lambda: _ask(item))
                res.item(f"{item.kind}-{'valid' if item.expected is None else 'invalid'}-k{item.atoms}", dt)
                if exc is not None:
                    res.fail(key, f"raised {exc!r}")
                elif out != item.expected:
                    res.fail(key, f"answer {out!r} is not the lowest countermodel row")
                continue
            key = f"axiom-sanity/{item.claim_id}"
            tracer.item = key
            v, dt, exc = SPEED.timed(lambda: audit.run_claim(item, engine.Budget()))
            res.item("sanity", dt)
            if exc is not None:
                res.fail(key, f"raised {exc!r}")
                continue
            status, value = self.expected.get(item.claim_id, (None, None))
            if v.status != status or not v.detail.endswith(f"({value})"):
                res.fail(key, f"verdict {v.status} / {v.detail!r}, expected {status} ({value})")
        return res


def _ask(q: SkeletonQuery) -> dict[Formula, bool] | None:
    if q.kind == "single":
        return semantics.falsifying_valuation(q.goal)
    valid, countermodel = semantics.skeleton_entails(q.premises, q.goal)
    if valid != (countermodel is None):
        raise AssertionError("skeleton_entails returned an inconsistent pair")
    return countermodel


WORKLOADS = {w.name: w for w in (ChainAudit, NestedProve, Oracles)}
