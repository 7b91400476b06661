"""Built-in audit scripts: the transcribed derivation-chain claim library.

Each script is a claim-script file under ``claims/``, named by its id and
read with :func:`~proofbench.audit.load_script`.  The files' header comments
explain the chain shorthand they use.
"""

from __future__ import annotations

from pathlib import Path

from .audit import AuditClaim, load_script

_SCRIPTS = (
    "lemma-4.1",
    "lemma-4.2",
    "lemma-4.3",
    "lemma-4.4",
    "theorem-4.1",
    "corollary-4.3",
    "corollary-4.4",
    "theorem-5.1",
    "theorem-5.2",
    "axiom-sanity",
)

_CLAIMS = Path(__file__).parent / "claims"


def builtin_scripts() -> tuple[str, ...]:
    """The ids of the shipped audit scripts, in replay order."""
    return _SCRIPTS


def builtin_claims(script_id: str) -> list[AuditClaim]:
    """The claim list for a built-in script id."""
    if script_id not in _SCRIPTS:
        raise ValueError(
            f"unknown builtin script {script_id!r}; known: {', '.join(_SCRIPTS)}"
        )
    return load_script((_CLAIMS / f"{script_id}.txt").read_text(encoding="utf-8"))
