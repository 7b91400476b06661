"""Axiom schemata, schema matching, named formulas, and axiom-set recognizers.

A schema is a formula template over metavariables.  Template-only node types
(:class:`FormulaMeta`, :class:`SubstMeta`, :class:`TermMeta`, :class:`VarMeta`)
extend the object syntax; they never appear in checked formulas.  Matching is
deterministic (leftmost-outermost) and returns the unique binding if one
exists.  Side conditions (capture, variable freeness) are recorded on the
schema and can be checked or skipped so callers can distinguish "not an
instance" from "instance with a violated side condition".

The propositional/quantifier schemata are numbered 1-12, each written once as
an instance constructor (``phiN_instance``); a template is its constructor
applied to metavariables.  On top of them the module builds, at import, the
named sentence constants the audit scripts use (:data:`NAMED_FORMULAS`) and
one shared recognizer for each axiom set the checker accepts
(:data:`AXIOM_SETS`).
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


# -- schema instance constructors ---------------------------------------


def phi1_instance(a: Formula, b: Formula, c: Formula) -> Formula:
    return Implies(Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c)))


def phi2_instance(a: Formula) -> Formula:
    return Implies(Implies(Not(a), a), a)


def phi3_instance(a: Formula, b: Formula) -> Formula:
    return Implies(Not(a), Implies(a, b))


def phi4_instance(a: Formula, b: Formula) -> Formula:
    return Implies(a, Implies(b, a))


def phi5_instance(a: Formula, b: Formula) -> Formula:
    return Implies(And(a, b), a)


def phi6_instance(a: Formula, b: Formula) -> Formula:
    return Implies(And(a, b), b)


def phi7_instance(a: Formula, b: Formula) -> Formula:
    return Implies(a, Implies(b, And(a, b)))


def phi8_instance(a: Formula, b: Formula) -> Formula:
    return Implies(a, Or(a, b))


def phi9_instance(a: Formula, b: Formula) -> Formula:
    return Implies(b, Or(a, b))


def phi10_instance(a: Formula, b: Formula, d: Formula) -> Formula:
    return Implies(Implies(a, b), Implies(Implies(d, b), Implies(Or(a, d), b)))


def phi11_instance(x: int, phi: Formula, t: Term) -> Formula:
    if not free_for(x, t, phi):
        raise SchemaError(f"term not free for x{x} in instantiation target")
    return Implies(Forall(x, phi), substitute(phi, x, t))


def phi12_instance(x: int | str, phi: Formula, psi: Formula) -> Formula:
    """Also builds the template: ``x`` may be a variable metavariable name."""
    if x in free_vars(phi):
        raise SchemaError(f"x{x} must not be free in the fixed antecedent")
    return Implies(Forall(x, Implies(phi, psi)), Implies(phi, Forall(x, psi)))


# Metavariables: each template is its constructor applied to them, except
# phi11, whose substitution needs the SubstMeta template node.
_A = FormulaMeta("alpha")
_B = FormulaMeta("beta")
_G = FormulaMeta("gamma")
_D = FormulaMeta("delta")
_P = FormulaMeta("phi")
_Q = FormulaMeta("psi")

SCHEMATA: dict[str, Schema] = {
    "phi1": Schema("phi1", phi1_instance(_A, _B, _G)),
    "phi2": Schema("phi2", phi2_instance(_A)),
    "phi3": Schema("phi3", phi3_instance(_A, _B)),
    "phi4": Schema("phi4", phi4_instance(_A, _B)),
    "phi5": Schema("phi5", phi5_instance(_A, _B)),
    "phi6": Schema("phi6", phi6_instance(_A, _B)),
    "phi7": Schema("phi7", phi7_instance(_A, _B)),
    "phi8": Schema("phi8", phi8_instance(_A, _B)),
    "phi9": Schema("phi9", phi9_instance(_A, _B)),
    "phi10": Schema("phi10", phi10_instance(_A, _B, _D)),
    "phi11": Schema(
        "phi11",
        Implies(Forall("x", _P), SubstMeta("phi", "x", TermMeta("t"))),
        side_conditions=(("free_for", "t", "x", "phi"),),
    ),
    "phi12": Schema(
        "phi12",
        phi12_instance("x", _P, _Q),
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


_PSI1, _PSI7, _PSI12 = PSI_AXIOMS["psi1"], PSI_AXIOMS["psi7"], PSI_AXIOMS["psi12"]
_O0 = Iff(_PSI7, Not(Not(_PSI1)))
_U27 = Not(Atom("<", (Const("1"), Const("1"))))
_GAMMA0P = Implies(Implies(_PSI7, _PSI1), _PSI12)

#: The zero-argument sentence constants the audit scripts refer to, in a
#: fixed order.
NAMED_FORMULAS: dict[str, Formula] = {
    "o0": _O0,
    "u27": _U27,
    "o6": Implies(_O0, Implies(_PSI7, _PSI1)),
    "alpha2x": Implies(_PSI1, _PSI7),
    "gamma2p": Implies(_O0, _U27),
    "gamma0p": _GAMMA0P,
    "gamma0": Implies(_U27, _GAMMA0P),
    "gamma4p": Implies(_GAMMA0P, _O0),
    "xi": _imp_chain(_PSI7, _PSI1, _PSI12),
}
NAMED_FORMULA_NAMES = tuple(NAMED_FORMULAS)


def named_formula(
    name: str,
    *,
    delta: Formula | None = None,
    conjuncts: Iterable[Formula] | None = None,
) -> Formula:
    """One of the sentence constants the audit scripts refer to.

    ``delta00`` takes a ``delta`` argument; ``beta0``/``beta1`` take the list
    of extra ``conjuncts`` (must be nonempty); every other name is a key of
    :data:`NAMED_FORMULAS`.
    """
    if name == "beta0":
        parts = list(conjuncts or ())
        if not parts:
            raise ValueError("beta0 needs at least one conjunct")
        out = parts[0]
        for p in parts[1:] + [_PSI1, _PSI7, _PSI12]:
            out = And(out, p)
        return out
    if name == "beta1":
        return _imp_chain(_PSI1, _PSI7, _PSI12, named_formula("beta0", conjuncts=conjuncts))
    if name == "delta00":
        if delta is None:
            raise ValueError("delta00 needs a delta")
        return Implies(_PSI7, delta)
    try:
        return NAMED_FORMULAS[name]
    except KeyError:
        raise ValueError(f"unknown named formula {name!r}") from None


# -- axiom sets ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AxiomSetRecognizer:
    """A (possibly infinite) axiom set: membership test plus search support.

    ``finite_core`` lists members worth seeding into any derivation outright.
    ``generate_for`` maps a candidate goal/pool formula to members built from
    it; prefixed families need this because their members are never
    subformulas of anything the search already has.  ``diagnose`` refines a
    failed membership test into a reason string.  Recognizers compare and
    hash by identity.
    """

    name: str
    contains: Callable[[Formula], bool]
    finite_core: tuple[Formula, ...] = ()
    diagnose: Callable[[Formula], str] | None = None
    generate_for: Callable[[Formula], tuple[Formula, ...]] | None = None


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


def _finite(
    name: str, members: Iterable[Formula], induction: Schema | None = None
) -> AxiomSetRecognizer:
    """The set of ``members``, plus every instance of ``induction`` if given."""
    core = tuple(members)
    member_set = frozenset(core)

    def contains(f: Formula) -> bool:
        return f in member_set or (
            induction is not None and recognize_induction(f, induction) is not None
        )

    return AxiomSetRecognizer(name, contains, finite_core=core)


def _prefixed(name: str, prefix: tuple[Formula, ...], with_logic: bool) -> AxiomSetRecognizer:
    """``p1 -> (p2 -> ... -> omega)`` for each closure of a logic instance omega.

    ``with_logic`` adds the bare ``L12`` instances as members and then asks
    that omega not be one.
    """

    def omega_ok(g: Formula) -> bool:
        return _is_closure_of_logic_instance(g) and not (with_logic and is_logic_instance(g))

    def contains(f: Formula) -> bool:
        if with_logic and is_logic_instance(f):
            return True
        for p in prefix:
            if not (isinstance(f, Implies) and f.left == p):
                return False
            f = f.right
        return omega_ok(f)

    return AxiomSetRecognizer(
        name,
        contains,
        generate_for=lambda f: (_imp_chain(*prefix, f),) if omega_ok(f) else (),
    )


# beta0 and beta1 as the audit scripts use them: psi2 is the one extra conjunct
_BETA0 = named_formula("beta0", conjuncts=(PSI_AXIOMS["psi2"],))
_BETA1 = named_formula("beta1", conjuncts=(PSI_AXIOMS["psi2"],))
_NPSI3_DOT = (
    Implies(_O0, NAMED_FORMULAS["gamma0"]),
    NAMED_FORMULAS["gamma2p"],
    NAMED_FORMULAS["gamma4p"],
)

#: Every named axiom set's recognizer, built once and shared.
AXIOM_SETS: dict[str, AxiomSetRecognizer] = {
    r.name: r
    for r in (
        AxiomSetRecognizer("L12", is_logic_instance, diagnose=logic_diagnose),
        AxiomSetRecognizer("L2r", _is_closure_of_logic_instance),
        _finite("Xp", PSI_AXIOMS.values(), INDUCTION_ONE),
        _finite("Yp", (), INDUCTION_ONE),
        _finite("XpPrime", Q_AXIOMS.values(), INDUCTION_ZERO),
        _finite("YpPrime", (), INDUCTION_ZERO),
        _prefixed("L11", (_PSI1, _PSI7, _PSI12), with_logic=True),
        _prefixed("LT1", (_BETA0,), with_logic=True),
        _prefixed("PrefixedL2r", (_PSI7, _O0, _U27, Not(_PSI1)), with_logic=False),
        _finite("NPsi3dot", _NPSI3_DOT),
        _finite("NPsi3ddot", (Implies(_O0, Implies(_U27, _BETA1)),) + _NPSI3_DOT),
    )
}
AXIOM_SET_NAMES = tuple(AXIOM_SETS)


def axiom_set(name: str) -> AxiomSetRecognizer:
    """The recognizer of the named axiom set (a key of :data:`AXIOM_SETS`)."""
    try:
        return AXIOM_SETS[name]
    except KeyError:
        raise ValueError(f"unknown axiom set {name!r}") from None
