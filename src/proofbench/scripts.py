"""Built-in audit scripts: the transcribed derivation-chain claim library.

Each script replays the numbered steps of one result's derivation chain as
individual claims.  The chains existentially quantify two sentence
metavariables; scripts instantiate them with the standard defaults (the
designated absurdity for the antecedent sentence, the reflexivity axiom for
the discharged sentence) so every claim is concrete and checkable.

Context shorthand used below:

* ``base`` — prefixed logic plus the triple-prefixed closures plus the
  three-element bridge set, with the linking sentence as hypothesis.
* ``extended base`` — the same with the four-element bridge set (which adds
  the conjunction-target bridge).
* ``refuting`` / ``affirming`` context — base plus the negated (resp. plain)
  conditional between the seventh axiom and the discharged sentence.

Collapse assertions ("the context derives everything") appear as a pair of
claims: derivability of the designated absurdity target, and a contradiction
probe.  These are the paper's two consistency notions: a membership claim
tests the absolute one, a contradiction claim the traditional one.
"""

from __future__ import annotations

from .audit import AuditClaim, resolve_token
from .schemata import PSI_AXIOMS, Q_AXIOMS
from .syntax import (
    And,
    App,
    Atom,
    Const,
    Forall,
    Formula,
    Implies,
    Not,
    Var,
    substitute,
    universal_closure,
)


def builtin_scripts() -> tuple[str, ...]:
    """The ids of the shipped audit scripts, in replay order."""
    return tuple(_BUILDERS)


# -- shared formula material --------------------------------------------

_P1 = PSI_AXIOMS["psi1"]
_P7 = PSI_AXIOMS["psi7"]
_P12 = PSI_AXIOMS["psi12"]

_DOT_SETS = ("L11", "PrefixedL2r", "NPsi3dot")
_DDOT_SETS = ("L11", "PrefixedL2r", "NPsi3ddot")


def _f(token: str) -> Formula:
    """The sentence a claim-script token names."""
    return resolve_token(token)


def omega_sample() -> Formula:
    """A closed generalized tautology that is not itself a schema instance.

    The universal closure of the instance ``(x1=x1) -> (psi1 -> (x1=x1))``;
    the representative used whenever a chain step asserts that the whole
    family of such closures is derivable.
    """
    refl = _refl_matrix()
    return universal_closure(Implies(refl, Implies(_P1, refl)))


def _refl_matrix() -> Formula:
    return Atom("=", (Var(1), Var(1)))


def induction_sample(flavor: str) -> Formula:
    """An induction-schema instance with matrix ``x1 = x1``."""
    matrix = _refl_matrix()
    if flavor == "one":
        base = substitute(matrix, 1, Const("1"))
        step_term = App("+", (Var(1), Const("1")))
    elif flavor == "zero":
        base = substitute(matrix, 1, Const("0"))
        step_term = App("S", (Var(1),))
    else:
        raise ValueError(f"unknown induction flavor {flavor!r}")
    step = Forall(1, Implies(matrix, substitute(matrix, 1, step_term)))
    return Implies(And(base, step), Forall(1, matrix))


def prefixed_sample() -> Formula:
    """The seventh-axiom-prefixed closure representative for inclusion steps."""
    return Implies(
        _P7, Implies(_f("o0"), Implies(Not(_P1), omega_sample()))
    )


# -- hypothesis contexts -------------------------------------------------


def _hyps(*tokens: str) -> tuple[tuple[str, Formula], ...]:
    return tuple((t, _f(t)) for t in tokens)


_REFUTING = _hyps("not_delta00", "alpha_imp_psi7", "xi")
_AFFIRMING = _hyps("delta00", "alpha_imp_psi7", "xi")
_BASE = _hyps("xi")


def _membership(
    cid: str,
    sets: tuple[str, ...],
    hyps: tuple[tuple[str, Formula], ...],
    goal: Formula,
    locus: str,
) -> AuditClaim:
    return AuditClaim(cid, "membership", sets, hyps, goal, locus)


def _members(
    step: int,
    sets: tuple[str, ...],
    hyps: tuple[tuple[str, Formula], ...],
    goals: list[Formula],
) -> list[AuditClaim]:
    """One membership claim per listed member of a chain step, numbered from 1."""
    return [
        _membership(
            f"s{step}-m{i:02d}", sets, hyps, f, f"chain step ({step}), member {i}"
        )
        for i, f in enumerate(goals, start=1)
    ]


def _collapse_pair(
    prefix: str,
    sets: tuple[str, ...],
    hyps: tuple[tuple[str, Formula], ...],
    locus: str,
) -> list[AuditClaim]:
    """The two-claim operationalization of a 'derives everything' step."""
    return [
        _membership(f"{prefix}-u27-target", sets, hyps, _f("u27"), locus),
        AuditClaim(f"{prefix}-collapse", "set-equality", sets, hyps, None, locus),
    ]


# -- the scripts ---------------------------------------------------------


def _refuting_chain(
    step: int,
    sets: tuple[str, ...],
    first: list[Formula],
    third: list[Formula],
) -> list[AuditClaim]:
    """Chain steps ``step`` to ``step + 3`` of the refuting context.

    ``first`` lists the members of step ``step`` and ``third`` those of step
    ``step + 2``; between them comes the generalized-tautology representative,
    and after them the asserted collapse.
    """
    claims = _members(step, sets, _REFUTING, first)
    claims.append(
        _membership(
            f"s{step + 1}-l2r-sample",
            sets,
            _REFUTING,
            omega_sample(),
            f"chain step ({step + 1}): generalized-tautology family, representative member",
        )
    )
    claims.extend(_members(step + 2, sets, _REFUTING, third))
    claims.extend(
        _collapse_pair(
            f"s{step + 3}",
            sets,
            _REFUTING,
            f"chain step ({step + 3}): asserted collapse of the context",
        )
    )
    return claims


def _affirming_steps_16_to_21(sets: tuple[str, ...]) -> list[AuditClaim]:
    """Chain steps (16)-(21) of the affirming context, ending in the
    negated seventh axiom claimed for the hypothesis-free base."""
    g0p = _f("gamma0p")
    claims = [
        _membership(
            "s16-prefixed-sample",
            sets,
            _AFFIRMING,
            prefixed_sample(),
            "chain step (16): prefixed-closure family, representative member",
        ),
        _membership("s17-o6", sets, _AFFIRMING, _f("o6"), "chain step (17)"),
    ]
    members_19 = [
        Implies(g0p, Implies(_P7, _P1)),
        _f("delta00"),
        Implies(_P1, Not(_P7)),
        Not(_P7),
    ]
    claims.extend(_members(19, sets, _AFFIRMING, members_19))
    claims.append(
        _membership(
            "s21-not-psi7-base",
            sets,
            _BASE,
            Not(_P7),
            "chain step (21): the same negation claimed for the hypothesis-free base",
        )
    )
    return claims


def _lemma_41() -> list[AuditClaim]:
    members_14 = [
        _P7,
        _f("gamma4p"),
        _f("gamma2p"),
        Implies(_f("o0"), _f("gamma0")),
        Implies(_P1, _P12),
        _f("gamma0p"),
        _f("o0"),
        _f("u27"),
        Implies(_P12, Implies(_P7, Not(_P1))),
        Implies(_P12, Not(_P1)),
        Not(_P1),
    ]
    members_16 = [_P7, _f("delta00"), _P1, Not(_P1)]
    return _refuting_chain(14, _DOT_SETS, members_14, members_16)


def _lemma_42() -> list[AuditClaim]:
    o0 = _f("o0")
    g0p = _f("gamma0p")
    members_15 = [
        Implies(o0, _f("gamma0")),
        _f("gamma2p"),
        _f("gamma4p"),
        Implies(_P1, Implies(_P7, _P12)),
        Implies(_P12, Implies(_P7, Not(_P1))),
        Implies(_P7, Not(_P1)),
        Implies(g0p, o0),
        Implies(_P7, Implies(Not(_P1), o0)),
        Implies(_P7, o0),
        Implies(o0, g0p),
        Implies(_P7, g0p),
        Implies(_P7, _f("u27")),
    ]
    claims = _members(15, _DOT_SETS, _AFFIRMING, members_15)
    return claims + _affirming_steps_16_to_21(_DOT_SETS)


def _lemma_43() -> list[AuditClaim]:
    members_13 = [
        _P7,
        _f("gamma4p"),
        _f("gamma2p"),
        Implies(_f("o0"), _f("gamma0")),
        Implies(_P1, _P12),
        _f("gamma0p"),
        _f("o0"),
        _f("u27"),
        _f("beta1"),
        Implies(_P1, _f("beta0")),
        Not(_f("beta0")),
        Not(_P1),
    ]
    members_15 = [_P7, _f("delta00"), Not(_P1), _P1]
    return _refuting_chain(13, _DDOT_SETS, members_13, members_15)


def _lemma_44() -> list[AuditClaim]:
    o0 = _f("o0")
    g0p = _f("gamma0p")
    u27 = _f("u27")
    beta1 = _f("beta1")
    members_14 = [
        _f("gamma4p"),
        Implies(o0, _f("gamma0")),
        _f("gamma2p"),
        Implies(o0, Implies(u27, beta1)),
        Implies(o0, beta1),
        Implies(g0p, o0),
        Implies(g0p, beta1),
        beta1,
    ]
    members_15 = [
        _f("delta00"),
        Implies(_P1, Implies(_P7, _P12)),
        beta1,
        Implies(And(And(_P12, _P7), _P1), _f("beta0")),
        Implies(_P12, Implies(_P7, Not(_P1))),
        Implies(_P7, Not(_P1)),
        _f("gamma4p"),
        Implies(o0, _f("gamma0")),
        _f("gamma2p"),
        Implies(o0, g0p),
        Implies(g0p, o0),
        Implies(g0p, u27),
        Implies(_P7, Implies(Not(_P1), o0)),
        Implies(_P7, o0),
        Implies(_P7, g0p),
        Implies(_P7, u27),
    ]
    claims = _members(14, _DDOT_SETS, _AFFIRMING, members_14)
    claims.extend(_members(15, _DDOT_SETS, _AFFIRMING, members_15))
    return claims + _affirming_steps_16_to_21(_DDOT_SETS)


def _theorem_contexts(sets: tuple[str, ...], outer: tuple[str, ...]) -> list[AuditClaim]:
    """The shared shape of both consistency theorems' claim lists."""
    with_alpha = _hyps("alpha_imp_psi7", "xi")
    claims = [
        AuditClaim(
            "s1-consistency-hypothesis",
            "contradiction",
            outer,
            _hyps(*(("psi1", "psi7", "psi12") if "Xp" not in outer else ())),
            None,
            "step (1): the assumed inconsistency of the axiom pair under audit",
        )
    ]
    claims.extend(
        _collapse_pair(
            "s2", sets, with_alpha, "step (2): asserted collapse once the conditional is added"
        )
    )
    claims.append(
        _membership(
            "s4-not-alpha-imp-psi7",
            sets,
            _BASE,
            Not(_f("alpha_imp_psi7")),
            "step (4): negated conditional claimed for the hypothesis-free base",
        )
    )
    claims.append(
        AuditClaim(
            "s6-alpha-both",
            "contradiction",
            sets,
            _BASE,
            None,
            "step (6): the final in-and-out contradiction for the base context",
        )
    )
    return claims


def _theorem_41() -> list[AuditClaim]:
    return _theorem_contexts(_DOT_SETS, ("L2r",))


def _theorem_51() -> list[AuditClaim]:
    return _theorem_contexts(_DDOT_SETS, ("L2r", "Xp", "Yp"))


def _corollary_43() -> list[AuditClaim]:
    hyps = _hyps("beta1", "psi1", "psi7", "psi12")
    sets = ("LT1",)
    claims = [
        _membership(
            "beta0-member",
            sets,
            hyps,
            _f("beta0"),
            "the conjunction target unfolds from its guarded form",
        ),
        _membership(
            "conjunct-psi2",
            sets,
            hyps,
            PSI_AXIOMS["psi2"],
            "a single conjunct extracted from the conjunction target",
        ),
    ]
    claims.extend(
        _collapse_pair(
            "s-final",
            sets,
            hyps,
            "asserted collapse of the guarded-tautology context",
        )
    )
    return claims


def _corollary_44() -> list[AuditClaim]:
    return [
        _membership(
            "not-beta0",
            ("LT1",),
            (),
            Not(_f("beta0")),
            "negated conjunction target claimed for the bare guarded-tautology set",
        )
    ]


def _theorem_52() -> list[AuditClaim]:
    claims = [
        AuditClaim(
            "s1-consistency-hypothesis",
            "contradiction",
            ("L2r", "XpPrime", "YpPrime"),
            (),
            None,
            "step (1): the assumed inconsistency of the zero-based axiom pair",
        )
    ]
    for key, axiom in Q_AXIOMS.items():
        claims.append(
            _membership(
                key,
                ("XpPrime",),
                (),
                axiom,
                f"axiom {key} is a member of its own set",
            )
        )
    claims.append(
        _membership(
            "q10-induction-sample",
            ("YpPrime",),
            (),
            induction_sample("zero"),
            "an induction instance is a member of the induction family",
        )
    )
    return claims


def _axiom_sanity() -> list[AuditClaim]:
    claims = [
        AuditClaim(key, "sanity", (), (), axiom, f"numeric audit of {key}")
        for key, axiom in (*PSI_AXIOMS.items(), *Q_AXIOMS.items())
    ]
    claims.append(
        AuditClaim(
            "u27", "sanity", (), (), _f("u27"), "numeric audit of the absurdity target"
        )
    )
    claims.append(
        AuditClaim(
            "psi13-induction-sample",
            "sanity",
            (),
            (),
            induction_sample("one"),
            "numeric audit of a one-based induction instance",
        )
    )
    claims.append(
        AuditClaim(
            "q10-induction-sample",
            "sanity",
            (),
            (),
            induction_sample("zero"),
            "numeric audit of a zero-based induction instance",
        )
    )
    return claims


_BUILDERS = {
    "lemma-4.1": _lemma_41,
    "lemma-4.2": _lemma_42,
    "lemma-4.3": _lemma_43,
    "lemma-4.4": _lemma_44,
    "theorem-4.1": _theorem_41,
    "corollary-4.3": _corollary_43,
    "corollary-4.4": _corollary_44,
    "theorem-5.1": _theorem_51,
    "theorem-5.2": _theorem_52,
    "axiom-sanity": _axiom_sanity,
}


def builtin_claims(script_id: str) -> list[AuditClaim]:
    """The claim list for a built-in script id."""
    try:
        builder = _BUILDERS[script_id]
    except KeyError:
        raise ValueError(
            f"unknown builtin script {script_id!r}; known: {', '.join(_BUILDERS)}"
        ) from None
    return builder()
