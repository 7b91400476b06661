"""Axiom schemata, schema matching, named formulas, and axiom-set recognizers.

A schema is a formula template over metavariables.  Template-only node types
(:class:`FormulaMeta`, :class:`SubstMeta`, :class:`TermMeta`, :class:`VarMeta`)
extend the object syntax; they never appear in checked formulas.  Matching is
deterministic (leftmost-outermost) and returns the unique binding if one
exists.  Side conditions (capture, variable freeness) are recorded on the
schema and can be checked or skipped so callers can distinguish "not an
instance" from "instance with a violated side condition".

The propositional/quantifier schemata are numbered 1-12; on top of them the
module builds the named sentence constants the audit scripts use and the
recognizers for each axiom set the checker accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .parser import parse
from .syntax import (
    And,
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Term,
    Var,
    free_for,
    free_vars,
    substitute,
    universal_closure,
)


class SchemaError(ValueError):
    """Raised by :func:`instantiate` on missing bindings or violated conditions."""


# -- template node types ------------------------------------------------


@dataclass(frozen=True)
class FormulaMeta(Formula):
    """A formula metavariable, e.g. the alpha in ``alpha -> (beta -> alpha)``."""

    name: str


@dataclass(frozen=True)
class TermMeta(Term):
    """A term metavariable (the ``t`` of the instantiation schema)."""

    name: str


@dataclass(frozen=True)
class VarMeta(Term):
    """A variable metavariable; binds only to variables."""

    name: str


@dataclass(frozen=True)
class SubstMeta(Formula):
    """``phi[x := t]`` at the template level: substitute into whatever ``phi`` binds to."""

    name: str  # formula metavariable to substitute into
    var: str | int  # variable metavariable name, or a concrete variable id
    term: Term  # TermMeta, or a concrete/meta-bearing term


@dataclass(frozen=True)
class Schema:
    """A numbered template plus its side conditions.

    Each side condition is a tuple: ``("free_for", term_meta, var_meta,
    formula_meta)`` or ``("not_free", var_meta, formula_meta)``, naming
    metavariables of the template.
    """

    schema_id: str
    template: Formula
    side_conditions: tuple[tuple[str, ...], ...] = ()


# Metavariable shorthands used to write the templates below.
_A = FormulaMeta("alpha")
_B = FormulaMeta("beta")
_G = FormulaMeta("gamma")
_D = FormulaMeta("delta")
_P = FormulaMeta("phi")
_Q = FormulaMeta("psi")

SCHEMATA: dict[str, Schema] = {
    "phi1": Schema(
        "phi1",
        Implies(
            Implies(_A, Implies(_B, _G)),
            Implies(Implies(_A, _B), Implies(_A, _G)),
        ),
    ),
    "phi2": Schema("phi2", Implies(Implies(Not(_A), _A), _A)),
    "phi3": Schema("phi3", Implies(Not(_A), Implies(_A, _B))),
    "phi4": Schema("phi4", Implies(_A, Implies(_B, _A))),
    "phi5": Schema("phi5", Implies(And(_A, _B), _A)),
    "phi6": Schema("phi6", Implies(And(_A, _B), _B)),
    "phi7": Schema("phi7", Implies(_A, Implies(_B, And(_A, _B)))),
    "phi8": Schema("phi8", Implies(_A, Or(_A, _B))),
    "phi9": Schema("phi9", Implies(_B, Or(_A, _B))),
    "phi10": Schema(
        "phi10",
        Implies(
            Implies(_A, _B),
            Implies(Implies(_D, _B), Implies(Or(_A, _D), _B)),
        ),
    ),
    "phi11": Schema(
        "phi11",
        Implies(Forall("x", _P), SubstMeta("phi", "x", TermMeta("t"))),
        side_conditions=(("free_for", "t", "x", "phi"),),
    ),
    "phi12": Schema(
        "phi12",
        Implies(Forall("x", Implies(_P, _Q)), Implies(_P, Forall("x", _Q))),
        side_conditions=(("not_free", "x", "phi"),),
    ),
}

#: Induction over base 1 / step x+1: (phi(1) /\ (Ax)(phi(x) -> phi(x+1))) -> (Ax)phi(x)
INDUCTION_ONE = Schema(
    "induction-one",
    Implies(
        And(
            SubstMeta("phi", "x", Const("1")),
            Forall(
                "x",
                Implies(_P, SubstMeta("phi", "x", App("+", (VarMeta("x"), Const("1"))))),
            ),
        ),
        Forall("x", _P),
    ),
)

#: Induction over base 0 / step S(x).
INDUCTION_ZERO = Schema(
    "induction-zero",
    Implies(
        And(
            SubstMeta("phi", "x", Const("0")),
            Forall("x", Implies(_P, SubstMeta("phi", "x", App("S", (VarMeta("x"),))))),
        ),
        Forall("x", _P),
    ),
)


# -- matching -----------------------------------------------------------

Binding = dict[str, object]  # metavariable name -> Formula | Term | int


def _binder_var(v: int | str, binding: Binding) -> int | None:
    """Resolve a template binder slot to a concrete variable id, if bound."""
    if isinstance(v, int):
        return v
    got = binding.get(v)
    return got if isinstance(got, int) else None


def _term_fill(t: Term, binding: Binding) -> Term:
    if isinstance(t, TermMeta):
        got = binding.get(t.name)
        if not isinstance(got, Term):
            raise SchemaError(f"unbound term metavariable {t.name!r}")
        return got
    if isinstance(t, VarMeta):
        got = binding.get(t.name)
        if not isinstance(got, int):
            raise SchemaError(f"unbound variable metavariable {t.name!r}")
        return Var(got)
    if isinstance(t, App):
        return App(t.func, tuple(_term_fill(a, binding) for a in t.args))
    return t


def _fill(template: Formula, binding: Binding) -> Formula:
    """Build the instance of ``template`` under a complete ``binding``."""
    if isinstance(template, FormulaMeta):
        got = binding.get(template.name)
        if not isinstance(got, Formula):
            raise SchemaError(f"unbound formula metavariable {template.name!r}")
        return got
    if isinstance(template, SubstMeta):
        base = binding.get(template.name)
        if not isinstance(base, Formula):
            raise SchemaError(f"unbound formula metavariable {template.name!r}")
        x = _binder_var(template.var, binding)
        if x is None:
            raise SchemaError(f"unbound variable metavariable {template.var!r}")
        t = _term_fill(template.term, binding)
        return substitute(base, x, t, check=False)
    if isinstance(template, Atom):
        return Atom(template.pred, tuple(_term_fill(a, binding) for a in template.args))
    if isinstance(template, Not):
        return Not(_fill(template.body, binding))
    if isinstance(template, (Implies, And, Or, Iff)):
        return type(template)(_fill(template.left, binding), _fill(template.right, binding))
    if isinstance(template, (Forall, Exists)):
        x = _binder_var(template.var, binding)
        if x is None:
            raise SchemaError(f"unbound variable metavariable {template.var!r}")
        return type(template)(x, _fill(template.body, binding))
    raise SchemaError(f"bad template node: {template!r}")


def _match_term(template: Term, cand: Term, binding: Binding) -> bool:
    if isinstance(template, TermMeta):
        got = binding.get(template.name)
        if got is None:
            binding[template.name] = cand
            return True
        return got == cand
    if isinstance(template, VarMeta):
        if not isinstance(cand, Var):
            return False
        got = binding.get(template.name)
        if got is None:
            binding[template.name] = cand.id
            return True
        return got == cand.id
    if isinstance(template, Var):
        return template == cand
    if isinstance(template, Const):
        return template == cand
    if isinstance(template, App):
        if not (isinstance(cand, App) and cand.func == template.func):
            return False
        return all(_match_term(a, b, binding) for a, b in zip(template.args, cand.args))
    return False


def _match(
    template: Formula,
    cand: Formula,
    binding: Binding,
    deferred: list[tuple[SubstMeta, Formula]],
) -> bool:
    """Structural match; SubstMeta nodes are queued until their parts are bound."""
    if isinstance(template, FormulaMeta):
        got = binding.get(template.name)
        if got is None:
            binding[template.name] = cand
            return True
        return got == cand
    if isinstance(template, SubstMeta):
        deferred.append((template, cand))
        return True
    if isinstance(template, Atom):
        if not (isinstance(cand, Atom) and cand.pred == template.pred):
            return False
        return all(_match_term(a, b, binding) for a, b in zip(template.args, cand.args))
    if isinstance(template, Not):
        return isinstance(cand, Not) and _match(template.body, cand.body, binding, deferred)
    if isinstance(template, (Implies, And, Or, Iff)):
        if type(cand) is not type(template):
            return False
        return _match(template.left, cand.left, binding, deferred) and _match(
            template.right, cand.right, binding, deferred
        )
    if isinstance(template, (Forall, Exists)):
        if type(cand) is not type(template):
            return False
        if isinstance(template.var, int):
            if template.var != cand.var:
                return False
        else:
            got = binding.get(template.var)
            if got is None:
                binding[template.var] = cand.var
            elif got != cand.var:
                return False
        return _match(template.body, cand.body, binding, deferred)
    return False


def _infer_term(base: Formula, x: int, result: Formula) -> Term | None:
    """Find a term t with base[x := t] == result, scanning left to right.

    Returns the first witness found at a free occurrence of ``x``; the caller
    re-checks the full substitution, so a wrong local guess just fails later.
    """

    def diff(b: Formula | Term, r: Formula | Term) -> Term | None:
        # only where x is free in b, so that every x reached is a free occurrence
        if x not in b._free:
            return None
        if isinstance(b, Var):
            return r
        if type(b) is not type(r) or (isinstance(b, App) and b.func != r.func):
            return None
        if isinstance(b, (Not, Forall, Exists)):
            return diff(b.body, r.body)
        if isinstance(b, (Atom, App)):
            pairs = zip(b.args, r.args)
        else:
            pairs = ((b.left, r.left), (b.right, r.right))
        for pb, pr in pairs:
            got = diff(pb, pr)
            if got is not None:
                return got
        return None

    if x not in free_vars(base):
        # substitution is vacuous; any term works, x itself is the canonical pick
        return Var(x) if base == result else None
    return diff(base, result)


def check_side_condition(cond: tuple[str, ...], binding: Binding) -> bool:
    """Evaluate one recorded side condition against a complete binding."""
    if cond[0] == "free_for":
        _, t_name, v_name, f_name = cond
        t = binding.get(t_name)
        x = binding.get(v_name)
        f = binding.get(f_name)
        if not (isinstance(t, Term) and isinstance(x, int) and isinstance(f, Formula)):
            raise SchemaError(f"incomplete binding for side condition {cond!r}")
        return free_for(x, t, f)
    if cond[0] == "not_free":
        _, v_name, f_name = cond
        x = binding.get(v_name)
        f = binding.get(f_name)
        if not (isinstance(x, int) and isinstance(f, Formula)):
            raise SchemaError(f"incomplete binding for side condition {cond!r}")
        return x not in free_vars(f)
    raise SchemaError(f"unknown side condition {cond[0]!r}")


def match_schema(
    candidate: Formula, schema: Schema, require_side_conditions: bool = True
) -> Binding | None:
    """Match ``candidate`` against ``schema``; return the binding or ``None``.

    With ``require_side_conditions`` false, a structural instance whose side
    conditions fail still returns its binding (used for diagnostics).
    """
    binding: Binding = {}
    deferred: list[tuple[SubstMeta, Formula]] = []
    if not _match(schema.template, candidate, binding, deferred):
        return None
    # Resolve deferred substitution constraints now that plain slots are bound.
    for node, expected in deferred:
        base = binding.get(node.name)
        if not isinstance(base, Formula):
            return None
        x = _binder_var(node.var, binding)
        if x is None:
            return None
        if isinstance(node.term, TermMeta) and node.term.name not in binding:
            t = _infer_term(base, x, expected)
            if t is None:
                return None
            binding[node.term.name] = t
        try:
            t = _term_fill(node.term, binding)
        except SchemaError:
            return None
        if substitute(base, x, t, check=False) != expected:
            return None
    # Rebuild and compare, so inference slips can never produce a false match.
    try:
        if _fill(schema.template, binding) != candidate:
            return None
    except SchemaError:
        return None
    if require_side_conditions:
        for cond in schema.side_conditions:
            if not check_side_condition(cond, binding):
                return None
    return binding


def instantiate(schema: Schema, binding: Binding) -> Formula:
    """Build the instance; raises :class:`SchemaError` on gaps or violated conditions."""
    inst = _fill(schema.template, binding)
    for cond in schema.side_conditions:
        if not check_side_condition(cond, binding):
            raise SchemaError(f"side condition violated: {cond!r}")
    return inst


@lru_cache(maxsize=None)
def is_logic_instance(f: Formula) -> bool:
    """Whether ``f`` instantiates one of the twelve logical schemata."""
    return any(match_schema(f, s) is not None for s in SCHEMATA.values())


def logic_diagnose(f: Formula) -> str:
    """"ok", "side-condition", or "no-match" against the logical schemata."""
    for s in SCHEMATA.values():
        if match_schema(f, s) is not None:
            return "ok"
    for s in SCHEMATA.values():
        if s.side_conditions and match_schema(f, s, require_side_conditions=False) is not None:
            return "side-condition"
    return "no-match"


def recognize_induction(candidate: Formula, schema: Schema) -> Formula | None:
    """Return the matrix formula when ``candidate`` instantiates an induction schema.

    Any induction variable is accepted; it is read off the conclusion's outer
    quantifier.
    """
    b = match_schema(candidate, schema)
    if b is None:
        return None
    phi = b.get("phi")
    return phi if isinstance(phi, Formula) else None


# -- the arithmetic axioms ----------------------------------------------

#: Axioms over 1, +, *, < (base-one flavor), keyed psi1..psi12.
PSI_AXIOMS: dict[str, Formula] = {
    "psi1": parse("(Ax1)(x1 = x1)"),
    "psi2": parse("(Ax1)(Ax2)(x1 = x2 -> x2 = x1)"),
    "psi3": parse("(Ax1)(Ax2)(Ax3)(x1 = x2 -> (x2 = x3 -> x1 = x3))"),
    "psi4": parse("(Ax1)(Ax2)(Ax3)(Ax4)(x1 = x2 -> (x3 = x4 -> x1 + x3 = x2 + x4))"),
    "psi5": parse("(Ax1)(Ax2)(Ax3)(Ax4)(x1 = x2 -> (x3 = x4 -> x1 * x3 = x2 * x4))"),
    "psi6": parse("(Ax1)(Ax2)(Ax3)(Ax4)(x1 = x2 -> (x3 = x4 -> (x1 < x3 -> x2 < x4)))"),
    "psi7": parse("(Ax1)~(1 = x1 + 1)"),
    "psi8": parse("(Ax1)(Ax2)(x1 + 1 = x2 + 1 -> x1 = x2)"),
    "psi9": parse("(Ax1)(Ax2)(x1 + (x2 + 1) = (x1 + x2) + 1)"),
    "psi10": parse("(Ax1)(x1 * 1 = x1)"),
    "psi11": parse("(Ax1)(Ax2)(x1 * (x2 + 1) = (x1 * x2) + x1)"),
    "psi12": parse("(Ax1)(Ax2)(x1 < x2 <-> (Ex3)(x1 + x3 = x2))"),
}

#: Axioms over 0, S, +, *, < (base-zero flavor), keyed q1..q9.
Q_AXIOMS: dict[str, Formula] = {
    "q1": parse("(Ax1)(x1 + 0 = x1)"),
    "q2": parse("(Ax1)(Ax2)(x1 * S(x2) = x1 * x2 + x1)"),
    "q3": parse("(Ax1)(Ax2)(S(x1) = S(x2) -> x1 = x2)"),
    "q4": parse("(Ax1)(Ex2)(x2 = S(x1))"),
    "q5": parse("(Ax1)(Ax2)(x1 + S(x2) = S(x1 + x2))"),
    "q6": parse("(Ax1)(x1 * 0 = 0)"),
    "q7": parse("~(Ex1)(S(x1) + 1 = 1)"),
    "q8": parse("(Ax1)(Ax2)((Ex3)(S(x3) + x1 = x2) <-> x1 < x2)"),
    "q9": parse("(Ax1)~(S(x1) = 0)"),
}


# -- named formulas -----------------------------------------------------

def _imp_chain(*parts: Formula) -> Formula:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Implies(p, out)
    return out


def named_formula(
    name: str,
    *,
    delta: Formula | None = None,
    conjuncts: Iterable[Formula] | None = None,
) -> Formula:
    """Construct one of the sentence constants the audit scripts refer to.

    ``delta00`` takes a ``delta`` argument; ``beta0``/``beta1`` take the list
    of extra ``conjuncts`` (must be nonempty).
    """
    psi1 = PSI_AXIOMS["psi1"]
    psi7 = PSI_AXIOMS["psi7"]
    psi12 = PSI_AXIOMS["psi12"]
    if name == "o0":
        return Iff(psi7, Not(Not(psi1)))
    if name == "u27":
        return Not(Atom("<", (Const("1"), Const("1"))))
    if name == "o6":
        return Implies(named_formula("o0"), Implies(psi7, psi1))
    if name == "alpha2x":
        return Implies(psi1, psi7)
    if name == "gamma2p":
        return Implies(named_formula("o0"), named_formula("u27"))
    if name == "gamma0p":
        return Implies(Implies(psi7, psi1), psi12)
    if name == "gamma0":
        return Implies(named_formula("u27"), named_formula("gamma0p"))
    if name == "gamma4p":
        return Implies(named_formula("gamma0p"), named_formula("o0"))
    if name == "xi":
        return _imp_chain(psi7, psi1, psi12)
    if name == "beta0":
        parts = list(conjuncts or ())
        if not parts:
            raise ValueError("beta0 needs at least one conjunct")
        out = parts[0]
        for p in parts[1:] + [psi1, psi7, psi12]:
            out = And(out, p)
        return out
    if name == "beta1":
        return _imp_chain(psi1, psi7, psi12, named_formula("beta0", conjuncts=conjuncts))
    if name == "delta00":
        if delta is None:
            raise ValueError("delta00 needs a delta")
        return Implies(psi7, delta)
    raise ValueError(f"unknown named formula {name!r}")


NAMED_FORMULA_NAMES = (
    "o0",
    "u27",
    "o6",
    "alpha2x",
    "gamma2p",
    "gamma0p",
    "gamma0",
    "gamma4p",
    "xi",
)
"""Zero-argument named formulas, in a fixed order."""


# -- axiom sets ---------------------------------------------------------


@dataclass(frozen=True)
class AxiomSetRecognizer:
    """A (possibly infinite) axiom set: membership test plus search support.

    ``finite_core`` lists members worth seeding into any derivation outright.
    ``generate_for`` maps a candidate goal/pool formula to members built from
    it; prefixed families need this because their members are never
    subformulas of anything the search already has.  ``diagnose`` refines a
    failed membership test into a reason string.
    """

    name: str
    contains: Callable[[Formula], bool]
    finite_core: tuple[Formula, ...] = ()
    diagnose: Callable[[Formula], str] | None = None
    generate_for: Callable[[Formula], tuple[Formula, ...]] | None = None

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)


def _strip_foralls(f: Formula) -> Formula:
    while isinstance(f, Forall):
        f = f.body
    return f


@lru_cache(maxsize=None)
def _is_closure_of_logic_instance(f: Formula) -> bool:
    """Member of the closed extension but (possibly) not a bare instance."""
    if is_logic_instance(f):
        return True
    core = _strip_foralls(f)
    if core is f:
        return False
    return universal_closure(core) == f and is_logic_instance(core)


def _psi_member(f: Formula) -> bool:
    return f in _PSI_SET or recognize_induction(f, INDUCTION_ONE) is not None


def _q_member(f: Formula) -> bool:
    return f in _Q_SET or recognize_induction(f, INDUCTION_ZERO) is not None


_PSI_SET = frozenset(PSI_AXIOMS.values())
_Q_SET = frozenset(Q_AXIOMS.values())


def _prefix_l11(omega: Formula) -> Formula:
    """psi1 -> (psi7 -> (psi12 -> omega))."""
    return _imp_chain(
        PSI_AXIOMS["psi1"], PSI_AXIOMS["psi7"], PSI_AXIOMS["psi12"], omega
    )


def _l11_member(f: Formula) -> bool:
    if is_logic_instance(f):
        return True
    # peel the three fixed antecedents, then ask for a closed noninstance
    g = f
    for key in ("psi1", "psi7", "psi12"):
        if not (isinstance(g, Implies) and g.left == PSI_AXIOMS[key]):
            return False
        g = g.right
    return _is_closure_of_logic_instance(g) and not is_logic_instance(g)


def _prefix_chain(omega: Formula) -> Formula:
    """psi7 -> (o0 -> (u27 -> (~psi1 -> omega)))."""
    return _imp_chain(
        PSI_AXIOMS["psi7"],
        named_formula("o0"),
        named_formula("u27"),
        Not(PSI_AXIOMS["psi1"]),
        omega,
    )


def _prefixed_closed_member(f: Formula) -> bool:
    g = f
    head = (
        PSI_AXIOMS["psi7"],
        named_formula("o0"),
        named_formula("u27"),
        Not(PSI_AXIOMS["psi1"]),
    )
    for h in head:
        if not (isinstance(g, Implies) and g.left == h):
            return False
        g = g.right
    return _is_closure_of_logic_instance(g)


def axiom_set(name: str, *, beta0_conjuncts: Iterable[Formula] | None = None) -> AxiomSetRecognizer:
    """Build the recognizer for a named axiom set.

    Known names: ``L12``, ``L2r``, ``Xp``, ``Yp``, ``XpPrime``, ``YpPrime``,
    ``L11``, ``LT1``, ``PrefixedL2r``, ``NPsi3dot``, ``NPsi3ddot``.
    """
    if name == "L12":
        return AxiomSetRecognizer("L12", is_logic_instance, diagnose=logic_diagnose)
    if name == "L2r":
        return AxiomSetRecognizer("L2r", _is_closure_of_logic_instance)
    if name == "Xp":
        return AxiomSetRecognizer(
            "Xp", _psi_member, finite_core=tuple(PSI_AXIOMS.values())
        )
    if name == "Yp":
        return AxiomSetRecognizer(
            "Yp", lambda f: recognize_induction(f, INDUCTION_ONE) is not None
        )
    if name == "XpPrime":
        return AxiomSetRecognizer(
            "XpPrime", _q_member, finite_core=tuple(Q_AXIOMS.values())
        )
    if name == "YpPrime":
        return AxiomSetRecognizer(
            "YpPrime", lambda f: recognize_induction(f, INDUCTION_ZERO) is not None
        )
    if name == "L11":
        return AxiomSetRecognizer(
            "L11",
            _l11_member,
            generate_for=lambda f: (
                (_prefix_l11(f),)
                if _is_closure_of_logic_instance(f) and not is_logic_instance(f)
                else ()
            ),
        )
    if name == "LT1":
        beta0 = named_formula("beta0", conjuncts=beta0_conjuncts or (PSI_AXIOMS["psi2"],))

        def lt1_member(f: Formula) -> bool:
            if is_logic_instance(f):
                return True
            return (
                isinstance(f, Implies)
                and f.left == beta0
                and _is_closure_of_logic_instance(f.right)
                and not is_logic_instance(f.right)
            )

        return AxiomSetRecognizer(
            "LT1",
            lt1_member,
            generate_for=lambda f: (
                (Implies(beta0, f),)
                if _is_closure_of_logic_instance(f) and not is_logic_instance(f)
                else ()
            ),
        )
    if name == "PrefixedL2r":
        return AxiomSetRecognizer(
            "PrefixedL2r",
            _prefixed_closed_member,
            generate_for=lambda f: (
                (_prefix_chain(f),) if _is_closure_of_logic_instance(f) else ()
            ),
        )
    if name == "NPsi3dot":
        members = (
            Implies(named_formula("o0"), named_formula("gamma0")),
            named_formula("gamma2p"),
            named_formula("gamma4p"),
        )
        return AxiomSetRecognizer(
            "NPsi3dot", lambda f, _m=frozenset(members): f in _m, finite_core=members
        )
    if name == "NPsi3ddot":
        beta1 = named_formula("beta1", conjuncts=beta0_conjuncts or (PSI_AXIOMS["psi2"],))
        members = (
            Implies(
                named_formula("o0"), Implies(named_formula("u27"), beta1)
            ),
            Implies(named_formula("o0"), named_formula("gamma0")),
            named_formula("gamma2p"),
            named_formula("gamma4p"),
        )
        return AxiomSetRecognizer(
            "NPsi3ddot", lambda f, _m=frozenset(members): f in _m, finite_core=members
        )
    raise ValueError(f"unknown axiom set {name!r}")


AXIOM_SET_NAMES = (
    "L12",
    "L2r",
    "Xp",
    "Yp",
    "XpPrime",
    "YpPrime",
    "L11",
    "LT1",
    "PrefixedL2r",
    "NPsi3dot",
    "NPsi3ddot",
)
