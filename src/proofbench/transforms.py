"""The proof builder, derived inference templates and constructive proof transforms.

:class:`ProofBuilder` grows a proof; :func:`conclude` returns the proof of one
of its steps.  The templates append axiom/modus-ponens step sequences to a
builder and return the index of the derived line; because the builder reuses
steps that restate a formula, nesting templates stays linear.  Everything here
bottoms out in the twelve logical schemata plus modus ponens and
generalization, so the results go straight through the checker in ``proofs``.

A derivation is a step index.  :func:`~proofbench.engine.prove` grows one
builder per call, unchecked: a level assumes a hypothesis with
:meth:`ProofBuilder.assume` and ends it with :func:`discharge`, or
:meth:`ProofBuilder.drop` when the level fails.  :func:`discharge` is the
lifting loop of the deduction theorem: from derivations of ``chi`` under
hypothesis ``alpha`` it derives ``alpha -> chi`` in the same builder.  Only
the steps that depend on ``alpha`` are lifted to ``alpha -> step``, and the
lifted steps are appended; the rest stay where they are, so discharging k
hypotheses in turn costs O(k * n) steps, not a factor of about 3.5 per
discharge.  ``prove`` proves the implication chain
``a1 -> (a1 -> a2) -> ... -> an`` in 73, 289 and 633 steps for n = 4, 8 and
12 (lifting every step took 94,045 steps at n = 8).  A discharge reads only
the steps it lifts, so a peel chain's proof takes time linear in its steps.

:func:`deduction_transform`, :func:`reductio_transform` and
:func:`explosion_transform` do the same to proofs: each splices its input
proofs into one builder over all their hypotheses with :func:`splice`, which
runs the checker first, and then calls :func:`discharge`,
:func:`derive_refute` or :func:`derive_explosion`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress

from .parser import render
from .proofs import Ax, Gen, Hyp, Mp, Proof, ProofStep, check_proof
from .schemata import (
    AxiomSetRecognizer,
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
    phi12_instance,
)
from .syntax import And, Forall, Formula, Implies, Not, Or, find, is_sentence


class TransformError(ValueError):
    """Raised when a transform's precondition fails (e.g. capture on discharge)."""


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

    Each step is marked with the hypotheses it depends on, one bit per
    binding (:meth:`assume`), so a name bound again never shares its old
    bit.  Once :meth:`drop` has unbound a hypothesis, a step that depends on
    it is never reused or found by :meth:`idx_of` again: a step that
    restates its formula is logged anew.

    :meth:`add_axiom` cites the first recognizer in ``axioms`` that contains
    the formula (:func:`covering_set`).  Each step is kept as a
    ``(formula, justification)`` pair: an ``mp`` or ``gen`` step holds the
    builder step numbers it cites as a plain tuple, and hypothesis and axiom
    records are shared (one :class:`Ax` per set name, and a replayed step
    keeps its input's record).  The :class:`ProofStep`, :class:`Mp` and
    :class:`Gen` records are made when a proof is read: :meth:`proof` returns
    every step logged, and :func:`conclude` the proof of one step, once per
    ``prove``.  After a drop the log holds steps that cite a hypothesis no
    longer in :attr:`hypotheses`, so such a builder is read through
    :func:`conclude`.
    """

    def __init__(
        self,
        hypotheses: tuple[tuple[str, Formula], ...] = (),
        axioms: Sequence[AxiomSetRecognizer] = (),
    ) -> None:
        self.hypotheses: tuple[tuple[str, Formula], ...] = ()
        self.axioms = axioms
        # (formula, Hyp | Ax | (i, j) for mp | (i,) for gen), step k at k - 1
        self._log: list[tuple[Formula, Hyp | Ax | tuple[int, ...]]] = []
        # step k -> the bits of the hypotheses it depends on; 0 holds no step
        self._deps: list[int] = [0]
        self._bit: dict[str, int] = {}  # bound name -> its bit
        self._bits = 0  # the bits handed out
        self._gone = 0  # the bits of the dropped hypotheses
        self._index_of: dict[Formula, int] = {}
        self._ax: dict[str, Ax] = {}
        for name, formula in hypotheses:
            self.assume(name, formula)

    def assume(self, name: str, formula: Formula) -> None:
        """Bind hypothesis ``name`` to ``formula`` under a new bit."""
        if name in self._bit:
            raise ValueError(f"hypothesis {name!r} is already bound")
        self._bit[name] = 1 << self._bits
        self._bits += 1
        self.hypotheses += ((name, formula),)

    def drop(self, name: str) -> None:
        """Unbind hypothesis ``name``: no step that depends on it is cited or reused again."""
        self._gone |= self._bit.pop(name)
        self.hypotheses = tuple(h for h in self.hypotheses if h[0] != name)

    def _add(self, formula: Formula, just: Hyp | Ax | tuple[int, ...], deps: int) -> int:
        idx = self._index_of.get(formula)
        if idx is None or self._deps[idx] & self._gone:
            self._log.append((formula, just))
            self._deps.append(deps)
            self._index_of[formula] = idx = len(self._log)
        return idx

    def idx_of(self, formula: Formula) -> int | None:
        """The step that states ``formula`` and may be cited, if any: one
        that depends on no dropped hypothesis."""
        idx = self._index_of.get(formula)
        return None if idx is None or self._deps[idx] & self._gone else idx

    def formula(self, idx: int) -> Formula:
        return self._log[idx - 1][0]

    def add_hyp(self, name: str) -> int:
        for n, f in self.hypotheses:
            if n == name:
                return self._add(f, Hyp(name), self._bit[name])
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
        return self._add(formula, ax, 0)

    def add_cited(self, formula: Formula, just: Hyp | Ax) -> int:
        """Log ``formula`` under the hypothesis or axiom record ``just``, as
        it is: a replayed step shares its input's record."""
        return self._add(formula, just, self._bit[just.name] if type(just) is Hyp else 0)

    def add_mp(self, i: int, j: int) -> int:
        major = self._log[j - 1][0]
        if not (isinstance(major, Implies) and major.left == self._log[i - 1][0]):
            raise ValueError(f"step {j} is not (step {i} -> _)")
        deps = self._deps
        return self._add(major.right, (i, j), deps[i] | deps[j])

    def add_gen(self, i: int, var: int) -> int:
        # the variable is the new formula's own binder
        return self._add(Forall(var, self._log[i - 1][0]), (i,), self._deps[i])

    def proof(self) -> Proof:
        return self._proof(range(1, len(self._log) + 1))

    def _proof(self, keys: Iterable[int]) -> Proof:
        """The steps ``keys``, ascending, renumbered 1, 2, ... in order."""
        new = [0] * (len(self._log) + 1)  # builder step number -> output step number
        steps = []
        for k in keys:
            formula, just = self._log[k - 1]
            n = new[k] = len(steps) + 1
            if type(just) is tuple:
                if len(just) == 2:
                    just = Mp(new[just[0]], new[just[1]])
                else:
                    just = Gen(new[just[0]], formula.var)
            steps.append(ProofStep(n, formula, just))
        return Proof(self.hypotheses, tuple(steps))


def conclude(b: ProofBuilder, idx: int) -> Proof:
    """The proof of step ``idx``: the steps it depends on, marked in one
    backward pass (premises come first) and renumbered in one forward pass."""
    log, used = b._log, [False] * idx + [True]
    for k in range(idx, 0, -1):
        if used[k] and type(just := log[k - 1][1]) is tuple:
            for premise in just:
                used[premise] = True
    return b._proof(compress(range(idx + 1), used))


# -- derived-rule templates ---------------------------------------------


def derive_identity(b: ProofBuilder, a: Formula) -> int:
    """Append a proof of ``a -> a``."""
    s1 = b.add_axiom(phi4_instance(a, Implies(a, a)))
    s2 = b.add_axiom(phi1_instance(a, Implies(a, a), a))
    s3 = b.add_mp(s1, s2)
    s4 = b.add_axiom(phi4_instance(a, a))
    return b.add_mp(s4, s3)


def derive_chain(b: ProofBuilder, i: int, j: int) -> int:
    """From step ``i``: A -> B and step ``j``: B -> C, derive A -> C."""
    fi, fj = b.formula(i), b.formula(j)
    if not (isinstance(fi, Implies) and isinstance(fj, Implies) and fi.right == fj.left):
        raise TransformError("chain needs A -> B and B -> C")
    a, _, c = fi.left, fi.right, fj.right
    s1 = b.add_axiom(phi4_instance(fj, a))
    s2 = b.add_mp(j, s1)
    s3 = b.add_axiom(phi1_instance(a, fi.right, c))
    s4 = b.add_mp(s2, s3)
    return b.add_mp(i, s4)


def derive_dnelim_imp(b: ProofBuilder, a: Formula) -> int:
    """Append a proof of ``~~a -> a``."""
    s1 = b.add_axiom(phi3_instance(Not(a), a))  # ~~a -> (~a -> a)
    s2 = b.add_axiom(phi2_instance(a))  # (~a -> a) -> a
    return derive_chain(b, s1, s2)


def derive_refute(b: ProofBuilder, i: int, j: int) -> int:
    """From step ``i``: a -> c and step ``j``: a -> ~c, derive ~a."""
    fi, fj = b.formula(i), b.formula(j)
    if not (
        isinstance(fi, Implies)
        and isinstance(fj, Implies)
        and fi.left == fj.left
        and fj.right == Not(fi.right)
    ):
        raise TransformError("refutation needs a -> c and a -> ~c")
    a, c = fi.left, fi.right
    s1 = b.add_axiom(phi3_instance(c, Not(a)))  # ~c -> (c -> ~a)
    s2 = derive_chain(b, j, s1)  # a -> (c -> ~a)
    s3 = b.add_axiom(phi1_instance(a, c, Not(a)))
    s4 = b.add_mp(s2, s3)  # (a -> c) -> (a -> ~a)
    s5 = b.add_mp(i, s4)  # a -> ~a
    s6 = derive_dnelim_imp(b, a)  # ~~a -> a
    s7 = derive_chain(b, s6, s5)  # ~~a -> ~a
    s8 = b.add_axiom(phi2_instance(Not(a)))
    return b.add_mp(s7, s8)  # ~a


def derive_dnelim(b: ProofBuilder, i: int) -> int:
    """From step ``i``: ~~A, derive A."""
    fi = b.formula(i)
    if not (isinstance(fi, Not) and isinstance(fi.body, Not)):
        raise TransformError("double-negation elimination needs ~~A")
    s1 = derive_dnelim_imp(b, fi.body.body)
    return b.add_mp(i, s1)


def derive_dnintro(b: ProofBuilder, i: int) -> int:
    """From step ``i``: A, derive ~~A."""
    a = b.formula(i)
    s1 = b.add_axiom(phi4_instance(a, Not(a)))
    s2 = b.add_mp(i, s1)  # ~a -> a
    s3 = derive_identity(b, Not(a))  # ~a -> ~a
    return derive_refute(b, s2, s3)  # ~~a


def derive_notimp_left(b: ProofBuilder, i: int) -> int:
    """From step ``i``: ~(A -> B), derive A."""
    fi = b.formula(i)
    if not (isinstance(fi, Not) and isinstance(fi.body, Implies)):
        raise TransformError("needs ~(A -> B)")
    a, c = fi.body.left, fi.body.right
    s1 = b.add_axiom(phi3_instance(fi.body, a))  # ~(A->B) -> ((A->B) -> A)
    s2 = b.add_mp(i, s1)
    s3 = b.add_axiom(phi3_instance(a, c))  # ~A -> (A -> B)
    s4 = derive_chain(b, s3, s2)  # ~A -> A
    s5 = b.add_axiom(phi2_instance(a))
    return b.add_mp(s4, s5)


def derive_notimp_right(b: ProofBuilder, i: int) -> int:
    """From step ``i``: ~(A -> B), derive ~B."""
    fi = b.formula(i)
    if not (isinstance(fi, Not) and isinstance(fi.body, Implies)):
        raise TransformError("needs ~(A -> B)")
    a, c = fi.body.left, fi.body.right
    s1 = b.add_axiom(phi3_instance(fi.body, Not(c)))  # ~(A->B) -> ((A->B) -> ~B)
    s2 = b.add_mp(i, s1)
    s3 = b.add_axiom(phi4_instance(c, a))  # B -> (A -> B)
    s4 = derive_chain(b, s3, s2)  # B -> ~B
    s5 = derive_dnelim_imp(b, c)  # ~~B -> B
    s6 = derive_chain(b, s5, s4)  # ~~B -> ~B
    s7 = b.add_axiom(phi2_instance(Not(c)))
    return b.add_mp(s6, s7)


def derive_notimp_intro(b: ProofBuilder, i: int, j: int) -> int:
    """From step ``i``: A and step ``j``: ~B, derive ~(A -> B)."""
    a, nb = b.formula(i), b.formula(j)
    if not isinstance(nb, Not):
        raise TransformError("second step must be a negation")
    c = nb.body
    imp = Implies(a, c)
    s1 = derive_identity(b, imp)
    s2 = b.add_axiom(phi1_instance(imp, a, c))
    s3 = b.add_mp(s1, s2)  # ((A->B) -> A) -> ((A->B) -> B)
    s4 = b.add_axiom(phi4_instance(a, imp))
    s5 = b.add_mp(i, s4)  # (A->B) -> A
    s6 = b.add_mp(s5, s3)  # (A->B) -> B
    s7 = b.add_axiom(phi4_instance(nb, imp))
    s8 = b.add_mp(j, s7)  # (A->B) -> ~B
    return derive_refute(b, s6, s8)


def derive_andel(b: ProofBuilder, i: int, which: int) -> int:
    """From step ``i``: A /\\ B, derive A (``which=1``) or B (``which=2``)."""
    fi = b.formula(i)
    if not isinstance(fi, And):
        raise TransformError("needs A /\\ B")
    inst = phi5_instance(fi.left, fi.right) if which == 1 else phi6_instance(fi.left, fi.right)
    return b.add_mp(i, b.add_axiom(inst))


def derive_andintro(b: ProofBuilder, i: int, j: int) -> int:
    """From steps ``i``: A and ``j``: B, derive A /\\ B."""
    a, c = b.formula(i), b.formula(j)
    s1 = b.add_axiom(phi7_instance(a, c))
    s2 = b.add_mp(i, s1)
    return b.add_mp(j, s2)


def derive_orin(b: ProofBuilder, i: int, other: Formula, side: str) -> int:
    """From step ``i``: A, derive A \\/ other (``side="left"``) or other \\/ A."""
    a = b.formula(i)
    if side == "left":
        inst = phi8_instance(a, other)
    elif side == "right":
        inst = phi9_instance(other, a)
    else:
        raise TransformError(f"bad side {side!r}")
    return b.add_mp(i, b.add_axiom(inst))


def derive_notand(b: ProofBuilder, i: int, other: Formula, which: int) -> int:
    """From step ``i``: ~A, derive ~(A /\\ other) (``which=1``) or ~(other /\\ A)."""
    ni = b.formula(i)
    if not isinstance(ni, Not):
        raise TransformError("needs a negation")
    a = ni.body
    conj = And(a, other) if which == 1 else And(other, a)
    proj = (
        phi5_instance(a, other) if which == 1 else phi6_instance(other, a)
    )  # conj -> a
    s1 = b.add_axiom(proj)
    s2 = b.add_axiom(phi4_instance(ni, conj))
    s3 = b.add_mp(i, s2)  # conj -> ~a
    return derive_refute(b, s1, s3)


def derive_notor(b: ProofBuilder, i: int, j: int) -> int:
    """From steps ``i``: ~A and ``j``: ~B, derive ~(A \\/ B)."""
    na, nb = b.formula(i), b.formula(j)
    if not (isinstance(na, Not) and isinstance(nb, Not)):
        raise TransformError("needs two negations")
    a, c = na.body, nb.body
    s1 = derive_identity(b, a)  # A -> A
    s2 = b.add_axiom(phi3_instance(c, a))  # ~B -> (B -> A)
    s3 = b.add_mp(j, s2)  # B -> A
    s4 = b.add_axiom(phi10_instance(a, a, c))
    s5 = b.add_mp(s1, s4)
    s6 = b.add_mp(s3, s5)  # A \/ B -> A
    s7 = b.add_axiom(phi4_instance(na, Or(a, c)))
    s8 = b.add_mp(i, s7)  # A \/ B -> ~A
    return derive_refute(b, s6, s8)


def derive_imp_from_cons(b: ProofBuilder, i: int, antecedent: Formula) -> int:
    """From step ``i``: B, derive antecedent -> B."""
    c = b.formula(i)
    return b.add_mp(i, b.add_axiom(phi4_instance(c, antecedent)))


def derive_imp_from_neg(b: ProofBuilder, i: int, consequent: Formula) -> int:
    """From step ``i``: ~A, derive A -> consequent."""
    na = b.formula(i)
    if not isinstance(na, Not):
        raise TransformError("needs a negation")
    return b.add_mp(i, b.add_axiom(phi3_instance(na.body, consequent)))


def derive_explosion(b: ProofBuilder, i: int, j: int, goal: Formula) -> int:
    """From steps ``i``: F and ``j``: ~F, derive any ``goal``."""
    f, nf = b.formula(i), b.formula(j)
    if nf != Not(f):
        raise TransformError("explosion needs F and ~F")
    s1 = b.add_axiom(phi3_instance(f, goal))
    s2 = b.add_mp(j, s1)
    return b.add_mp(i, s2)


# -- whole-proof transforms ---------------------------------------------


def splice(b: ProofBuilder, proof: Proof) -> int:
    """Replay ``proof``'s steps into ``b``; return the conclusion's new index.

    The proof must have a step and pass the checker over the builder's axiom
    sets, and the hypotheses it cites must be in the builder's hypothesis
    list with the same formula, or :class:`TransformError` is raised.
    """
    if not proof.steps:
        raise TransformError("input proof is empty")
    result = check_proof(proof, tuple(b.axioms))
    if not result.ok:
        raise TransformError(f"input proof fails check{result.at}: {result.reason}")
    by_name = dict(b.hypotheses)
    at: dict[int, int] = {}
    for s in proof.steps:
        j = s.just
        if isinstance(j, Hyp) and by_name.get(j.name) != s.formula:
            raise TransformError(f"hypothesis {j.name!r} missing from target builder")
        if type(j) is Mp:
            at[s.index] = b.add_mp(at[j.i], at[j.j])
        elif type(j) is Gen:
            at[s.index] = b.add_gen(at[j.i], s.formula.var)
        else:
            at[s.index] = b.add_cited(s.formula, j)
    return at[s.index]


def discharge(b: ProofBuilder, name: str, *conclusions: int) -> list[int]:
    """The lifting loop: from steps of ``b`` that derive chi1, chi2, ... under
    hypothesis ``name`` = alpha, derive alpha -> chi1, alpha -> chi2, ...
    over the other hypotheses, unchecked, in ``b``; returns their indexes.

    A step depends on alpha if it cites hypothesis ``name`` or is a modus
    ponens or generalization over a step that does.  Only those steps are
    lifted: the hypothesis becomes ``alpha -> alpha``, derived where a lifted
    step first cites it, and modus ponens and generalization go through
    ``phi1`` and ``phi12`` instances.  The other steps stay where they are,
    and one of them is weakened to ``alpha -> step`` (a ``phi4`` instance
    and modus ponens) only when a lifted step cites it, or when it is a
    conclusion; so a derivation that never cites alpha gains at most two
    steps.  A lifted or weakened step that the builder already holds is
    reused, not built, and the conclusions, lifted in turn, share theirs.
    ``name`` is dropped (:meth:`ProofBuilder.drop`) before any step is
    lifted, so no step that depends on it is cited or reused again.  A step
    depends on alpha exactly when a premise does, so a walk back from each
    conclusion through such premises reads just the steps it lifts, its
    alpha cone, not the whole log.  Callers discharge only sentences, so no
    generalization step binds a variable free in alpha.
    """
    alpha = dict(b.hypotheses)[name]
    bit = b._bit[name]
    b.drop(name)
    log, deps = b._log, b._deps
    imp: dict[int, int] = {}  # step -> index of (alpha -> that step)

    def held(formula: Formula) -> int | None:
        """The step ``alpha -> formula``, if the builder holds one it may cite."""
        f = find(Implies, alpha, formula)
        return None if f is None else b.idx_of(f)

    def lifted(i: int) -> int:
        if i not in imp:  # a step free of alpha is weakened, the hypothesis made alpha -> alpha
            got = held(log[i - 1][0])
            if got is None:
                got = derive_identity(b, alpha) if deps[i] & bit else derive_imp_from_cons(b, i, alpha)
            imp[i] = got
        return imp[i]

    out = []
    for idx in conclusions:
        cone, todo = set(), [idx]  # the steps idx uses that depend on alpha and are not lifted
        while todo:
            if deps[k := todo.pop()] & bit and k not in imp and k not in cone:
                cone.add(k)
                if type(just := log[k - 1][1]) is tuple:
                    todo += just
        for key in sorted(cone):
            formula, just = log[key - 1]
            if type(just) is not tuple:
                continue  # the hypothesis, lifted when first cited
            if (got := held(formula)) is not None:
                imp[key] = got
            elif len(just) == 2:
                i, j = just
                s1 = b.add_axiom(phi1_instance(alpha, log[i - 1][0], formula))
                s2 = b.add_mp(lifted(j), s1)
                imp[key] = b.add_mp(lifted(i), s2)
            else:
                s1 = b.add_gen(lifted(just[0]), formula.var)  # (Ax)(alpha -> body)
                s2 = b.add_axiom(phi12_instance(formula.var, alpha, formula.body))
                imp[key] = b.add_mp(s1, s2)
        out.append(lifted(idx))
    return out


def _builder(
    proofs: Sequence[Proof], axioms: Sequence[AxiomSetRecognizer], name: str | None = None
) -> ProofBuilder:
    """A builder over ``axioms`` and the hypotheses of ``proofs``: the first
    proof's, in order, then each later one's new names.  A name bound to two
    formulas is a :class:`TransformError`, and so is a hypothesis ``name``,
    if given, that some proof lacks or that is not a sentence."""
    merged: dict[str, Formula] = {}
    for proof in proofs:
        if name is not None and name not in dict(proof.hypotheses):
            raise TransformError(f"no hypothesis named {name!r}")
        for n, f in proof.hypotheses:
            if merged.setdefault(n, f) != f:
                raise TransformError(f"hypothesis name {n!r} bound to two formulas")
    if name is not None and not is_sentence(merged[name]):
        raise TransformError(
            f"hypothesis {name!r} has free variables; only sentences can be discharged"
        )
    return ProofBuilder(tuple(merged.items()), axioms)


def deduction_transform(
    proof: Proof, name: str, axioms: Sequence[AxiomSetRecognizer]
) -> Proof:
    """Discharge hypothesis ``name`` = alpha: a proof of chi becomes one of alpha -> chi.

    The proof must have a step and pass the checker, and the hypothesis must
    be a sentence, or :class:`TransformError` is raised.  The steps the
    conclusion uses are lifted by :func:`discharge`; step count stays within
    3n + a constant for the identity template.
    """
    b = _builder((proof,), axioms, name)
    (chi,) = discharge(b, name, splice(b, proof))
    return conclude(b, chi)


def reductio_transform(
    proof_pos: Proof,
    proof_neg: Proof,
    name: str,
    axioms: Sequence[AxiomSetRecognizer],
) -> Proof:
    """From proofs of beta and ~beta under hypothesis ``name`` = alpha, prove ~alpha."""
    b = _builder((proof_pos, proof_neg), axioms, name)
    pos, neg = discharge(b, name, splice(b, proof_pos), splice(b, proof_neg))
    return conclude(b, derive_refute(b, pos, neg))


def explosion_transform(
    proof_pos: Proof,
    proof_neg: Proof,
    goal: Formula,
    axioms: Sequence[AxiomSetRecognizer],
) -> Proof:
    """From proofs of beta and ~beta (same hypotheses context), prove ``goal``."""
    b = _builder((proof_pos, proof_neg), axioms)
    pos, neg = splice(b, proof_pos), splice(b, proof_neg)
    return conclude(b, derive_explosion(b, pos, neg, goal))
