"""Axiom schemata, schema recognition, named formulas, and axiom-set recognizers.

Each schema is written once, as the constructor that builds its instances:
``phi1_instance``...``phi12_instance`` for the twelve logical schemata, and one
builder per induction flavor.  A :class:`Schema` pairs that constructor with a
reader that takes the constructor's arguments off fixed positions of a
candidate formula.  Kernel nodes are interned, so recognizing an instance is
rebuilding it: a candidate is an instance exactly when the arguments read off
it rebuild the very same node.  Side conditions (capture, variable freeness)
are a predicate over those arguments, checked or skipped so callers can
distinguish "not an instance" from "instance with a violated side condition".

On top of them the module builds, at import, the named sentence constants the
audit scripts use (:data:`NAMED_FORMULAS`, :data:`BETA0`, :data:`BETA1`) and
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
    NestingError,
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
    """Raised by ``phi11_instance``/``phi12_instance`` on a violated side condition."""


@dataclass(frozen=True)
class Schema:
    """A numbered schema: its constructor, a reader for it, and its side condition.

    ``read(f)`` returns the arguments of ``build`` found at fixed positions of
    ``f``; it raises :class:`AttributeError` where ``f`` lacks one of those
    positions and returns None where no argument fits (phi11's term).
    ``side(*args)``, if given, is the side condition on those arguments.
    """

    schema_id: str
    build: Callable[..., Formula]
    read: Callable[[Formula], tuple | None]
    side: Callable[..., bool] | None = None


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


def _phi11(x: int, phi: Formula, t: Term) -> Formula:
    return Implies(Forall(x, phi), substitute(phi, x, t, check=False))


def phi11_instance(x: int, phi: Formula, t: Term) -> Formula:
    if not free_for(x, t, phi):
        raise SchemaError(f"term not free for x{x} in instantiation target")
    return _phi11(x, phi, t)


def _phi12(x: int, phi: Formula, psi: Formula) -> Formula:
    return Implies(Forall(x, Implies(phi, psi)), Implies(phi, Forall(x, psi)))


def phi12_instance(x: int, phi: Formula, psi: Formula) -> Formula:
    if x in free_vars(phi):
        raise SchemaError(f"x{x} must not be free in the fixed antecedent")
    return _phi12(x, phi, psi)


def _infer_term(base: Formula, x: int, result: Formula) -> Term | None:
    """Find a term t with base[x := t] == result, scanning left to right.

    Returns the first witness found at a free occurrence of ``x``; the caller
    rebuilds the full substitution, so a wrong local guess just fails later.
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


def _read_phi11(f: Formula) -> tuple[int, Formula, Term] | None:
    x, phi = f.left.var, f.left.body
    t = _infer_term(phi, x, f.right)
    return None if t is None else (x, phi, t)


# Each reader spreads its reads over the schema's connectives, so that most
# non-instances miss an attribute on the way and are never rebuilt.
SCHEMATA: dict[str, Schema] = {
    s.schema_id: s
    for s in (
        Schema(
            "phi1",
            phi1_instance,
            lambda f: (f.right.left.left, f.left.right.left, f.right.right.right),
        ),
        Schema("phi2", phi2_instance, lambda f: (f.left.left.body,)),
        Schema("phi3", phi3_instance, lambda f: (f.left.body, f.right.right)),
        Schema("phi4", phi4_instance, lambda f: (f.right.right, f.right.left)),
        Schema("phi5", phi5_instance, lambda f: (f.left.left, f.left.right)),
        Schema("phi6", phi6_instance, lambda f: (f.left.left, f.left.right)),
        Schema("phi7", phi7_instance, lambda f: (f.right.right.left, f.right.right.right)),
        Schema("phi8", phi8_instance, lambda f: (f.right.left, f.right.right)),
        Schema("phi9", phi9_instance, lambda f: (f.right.left, f.right.right)),
        Schema(
            "phi10",
            phi10_instance,
            lambda f: (f.left.left, f.right.left.right, f.right.right.left.right),
        ),
        Schema("phi11", _phi11, _read_phi11, lambda x, phi, t: free_for(x, t, phi)),
        Schema(
            "phi12",
            _phi12,
            lambda f: (f.right.right.var, f.left.body.left, f.left.body.right),
            lambda x, phi, psi: x not in free_vars(phi),
        ),
    )
}


def _induction(schema_id: str, base: Term, step: Callable[[Term], Term]) -> Schema:
    """``(phi[x := base] /\\ (Ax)(phi -> phi[x := step(x)])) -> (Ax)phi`` for any x, phi."""

    def build(x: int, phi: Formula) -> Formula:
        next_phi = substitute(phi, x, step(Var(x)), check=False)
        return Implies(
            And(substitute(phi, x, base, check=False), Forall(x, Implies(phi, next_phi))),
            Forall(x, phi),
        )

    # x and phi come off the step's quantifier, which a non-instance most often lacks
    return Schema(schema_id, build, lambda f: (f.left.right.var, f.left.right.body.left))


#: Induction over base 1 / step x+1: (phi(1) /\ (Ax)(phi(x) -> phi(x+1))) -> (Ax)phi(x)
INDUCTION_ONE = _induction("induction-one", Const("1"), lambda v: App("+", (v, Const("1"))))

#: Induction over base 0 / step S(x).
INDUCTION_ZERO = _induction("induction-zero", Const("0"), lambda v: App("S", (v,)))


# -- matching -----------------------------------------------------------


def match_schema(
    candidate: Formula, schema: Schema, require_side_conditions: bool = True
) -> tuple | None:
    """The arguments with which ``schema`` builds ``candidate``, or ``None``.

    With ``require_side_conditions`` false, a structural instance whose side
    condition fails still returns its arguments (used for diagnostics).
    """
    try:
        args = schema.read(candidate)
        # the arguments read are the only ones under which the candidate can
        # be an instance, and a rebuild past the cap is no node, so not it
        if args is None or schema.build(*args) is not candidate:
            return None
    except (AttributeError, NestingError):
        return None
    if require_side_conditions and schema.side is not None and not schema.side(*args):
        return None
    return args


#: Entries kept by each recognizer cache.  A cache holds its formulas alive,
#: so a long-lived process needs a bound; the built-in workloads reach under
#: 2,000 distinct formulas per cache in one pass.
CACHE_SIZE = 4096


@lru_cache(maxsize=CACHE_SIZE)
def is_logic_instance(f: Formula) -> bool:
    """Whether ``f`` instantiates one of the twelve logical schemata."""
    return any(match_schema(f, s) is not None for s in SCHEMATA.values())


def logic_diagnose(f: Formula) -> str:
    """"ok", "side-condition" or "no-match" against the logical schemata."""
    for s in SCHEMATA.values():
        if match_schema(f, s) is not None:
            return "ok"
    for s in SCHEMATA.values():
        if s.side is not None and match_schema(f, s, require_side_conditions=False) is not None:
            return "side-condition"
    return "no-match"


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


_PSI1, _PSI2 = PSI_AXIOMS["psi1"], PSI_AXIOMS["psi2"]
_PSI7, _PSI12 = PSI_AXIOMS["psi7"], PSI_AXIOMS["psi12"]
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

#: ``beta0``, the conjunction of psi2, psi1, psi7 and psi12 (folded left), and
#: ``beta1``, beta0 behind psi1, psi7 and psi12.  They are kept out of
#: :data:`NAMED_FORMULAS`, which seeds every search pool.
BETA0 = And(And(And(_PSI2, _PSI1), _PSI7), _PSI12)
BETA1 = _imp_chain(_PSI1, _PSI7, _PSI12, BETA0)


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


@lru_cache(maxsize=CACHE_SIZE)
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
            induction is not None and match_schema(f, induction) is not None
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
        _prefixed("LT1", (BETA0,), with_logic=True),
        _prefixed("PrefixedL2r", (_PSI7, _O0, _U27, Not(_PSI1)), with_logic=False),
        _finite("NPsi3dot", _NPSI3_DOT),
        _finite("NPsi3ddot", (Implies(_O0, Implies(_U27, BETA1)),) + _NPSI3_DOT),
    )
}
AXIOM_SET_NAMES = tuple(AXIOM_SETS)


def axiom_set(name: str) -> AxiomSetRecognizer:
    """The recognizer of the named axiom set (a key of :data:`AXIOM_SETS`)."""
    try:
        return AXIOM_SETS[name]
    except KeyError:
        raise ValueError(f"unknown axiom set {name!r}") from None
