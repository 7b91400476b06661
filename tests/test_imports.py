"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proofbench"
#: module -> the names it imports only so that others import them from it
RE_EXPORTS = {
    # the recheck of a written report is the trust root's: audit hands it on
    "audit": {"recheck_report"},
}


def unread_imports(source: str) -> set[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - read


def test_the_check_sees_an_unread_import():
    source = "from a import b, c as d\nimport e.f\nimport g\nprint(b, e)\n"
    assert unread_imports(source) == {"d", "g"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_a_module_reads_every_name_it_imports(path):
    unread = unread_imports(path.read_text(encoding="utf-8"))
    assert unread == RE_EXPORTS.get(path.stem, set())
